"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
training-based criteria share one three-seed experiment fixture so the whole
gate stays inside its runtime budget.
"""

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import special as sp
from scipy.special import gammaln, softmax
from scipy.stats import spearmanr

from dul_lab import cli, dirichlet as dmath, losses, metrics, runner
from dul_lab.config import TrainConfig
from dul_lab.dirichlet import DirichletParams
from dul_lab.losses import LossSpec
from dul_lab.metrics import ScoreSet
from dul_lab.nn import Batch, mlp_init, save_checkpoint

SEEDS = (1, 2, 3)
OUTPUT_HASHES = Path(__file__).with_name("output_hashes.json")


def report(num, ok, detail):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def experiment():
    """repro-dilemma's models and their full reports on three seeds."""
    t0 = time.monotonic()
    runs = {}
    for seed in SEEDS:
        cfg = TrainConfig(seed=seed)
        models, reports = runner.dilemma_table(cfg)
        runs[seed] = {"cfg": cfg, "models": models, "reports": reports}
    return {"runs": runs, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def seed1_checks(experiment):
    """The rows of verify(TrainConfig(), fuzz=10_000, quick=False), whose
    candidates are the models dilemma_table trains: here the fixture's
    seed-1 models."""
    run = experiment["runs"][1]
    assert run["cfg"] == TrainConfig()
    checks = runner._fuzz_checks(run["cfg"], 10_000)
    checks.append(runner._theorem1_check(run["cfg"], list(run["models"].values())))
    return checks


def _fpr(report, method):
    """FPR95 under a finetuning method's natural detector."""
    return report.detection[runner.NATURAL_SCORE[method]][0]


def test_criterion_01_special_functions():
    # the scipy calls that the Dirichlet kernels make, on arrays
    t0 = time.monotonic()
    dig = sp.digamma(np.array([1.0, 0.5]))
    ok = (abs(dig[0] + 0.5772156649) < 1e-10
          and abs(dig[1] + 1.9635100260) < 1e-10
          and abs(sp.zeta(2.0, np.array([1.0]))[0] - np.pi**2 / 6.0) < 1e-10)
    x = np.random.default_rng(101).uniform(0.5, 100.0, size=1000)
    worst = max(np.max(np.abs(sp.digamma(x + 1.0) - sp.digamma(x) - 1.0 / x)),
                np.max(np.abs(sp.zeta(2.0, x + 1.0) - sp.zeta(2.0, x) + 1.0 / x**2)))
    elapsed = time.monotonic() - t0
    ok = ok and worst < 1e-12 and elapsed < 1.0
    report(1, ok, f"worst recurrence residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_diff_entropy_monte_carlo():
    t0 = time.monotonic()
    exact_ok = abs(dmath.diff_entropy_rows(np.ones((1, 3)))[0] + np.log(2.0)) < 1e-12
    rng = np.random.default_rng(102)
    worst_z = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        d = DirichletParams(rng.uniform(0.2, 50.0, size=k))
        mu = rng.dirichlet(d.alpha, size=1_000_000)
        logpdf = (gammaln(d.alpha0)
                  - sum(gammaln(a) for a in d.alpha)
                  + np.sum((d.alpha - 1.0) * np.log(mu), axis=1))
        se = logpdf.std(ddof=1) / np.sqrt(mu.shape[0])
        z = abs(dmath.diff_entropy_rows(d.alpha[None, :])[0] - (-logpdf.mean())) / se
        worst_z = max(worst_z, z)
    elapsed = time.monotonic() - t0
    ok = exact_ok and worst_z < 3.0 and elapsed < 30.0
    report(2, ok, f"worst |z| {worst_z:.2f} over 50 alphas, {elapsed:.1f}s")


def test_criterion_03_uncertainty_decomposition():
    rng = np.random.default_rng(103)
    worst_gap = 0.0
    min_mi = np.inf
    for _ in range(10_000):
        k = int(rng.integers(2, 6))
        d = DirichletParams(rng.uniform(0.05, 50.0, size=k))
        tu = dmath.total_uncertainty(d)
        gap = abs(tu - (dmath.expected_data_entropy(d)
                        + dmath.mutual_information(d)))
        # np.maximum and np.minimum carry a NaN through, so it fails the gate;
        # the builtin max(0.0, nan) keeps 0.0
        worst_gap = np.maximum(worst_gap, gap)
        min_mi = np.minimum(min_mi, dmath.mutual_information(d))
    ok = worst_gap < 1e-12 and min_mi >= -1e-12
    report(3, ok, f"worst decomposition gap {worst_gap:.2e}, min MI {min_mi:.2e}")


def test_criterion_04_gradient_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    h = 1e-6
    worst_rel = 0.0
    variants = [
        LossSpec(kind="ce"),
        LossSpec(kind="oe", lam=1.2),
        LossSpec(kind="energy_margin", lam=1.0, m_in=-3.0, m_out=1.5),
        LossSpec(kind="dpn", target_alpha0=15.0, smoothing=0.01),
        LossSpec(kind="dul", lam=1.5, gamma=2.0, dul_margin=0.5),
    ]
    for trial in range(20):
        m = mlp_init((2, 5, 3), seed=1000 + trial)
        frozen = mlp_init((2, 5, 3), seed=2000 + trial)
        id_batch = Batch(rng.standard_normal((4, 2)),
                         rng.integers(0, 3, size=4))
        ood_batch = Batch(rng.standard_normal((5, 2)))
        for spec in variants:
            needs_ood = spec.kind != "ce"
            value, grads = losses.loss_backward(
                m, id_batch, spec,
                ood_batch=ood_batch if needs_ood else None,
                frozen=frozen if spec.kind == "dul" else None)
            flat = np.concatenate([np.concatenate([gw.ravel(), gb])
                                   for gw, gb in grads])
            theta = m.get_flat()
            fd = np.empty_like(theta)
            for i in range(theta.size):
                up, dn = theta.copy(), theta.copy()
                up[i] += h
                dn[i] -= h
                vu, _ = losses.loss_backward(
                    m.set_flat(up), id_batch, spec,
                    ood_batch=ood_batch if needs_ood else None,
                    frozen=frozen if spec.kind == "dul" else None)
                vd, _ = losses.loss_backward(
                    m.set_flat(dn), id_batch, spec,
                    ood_batch=ood_batch if needs_ood else None,
                    frozen=frozen if spec.kind == "dul" else None)
                fd[i] = (vu - vd) / (2.0 * h)
            rel = np.max(np.abs(flat - fd)) / max(1.0, np.max(np.abs(fd)))
            worst_rel = max(worst_rel, rel)
    worst_ent = 0.0
    for _ in range(20):
        # the entropy gradient in the logits, alpha = relu(f) + 1 up to 50
        f = rng.uniform(-0.8, 49.0, size=(1, 4))
        g = dmath.diff_entropy_logit_grad_rows(f, dmath.alpha_rows(f))[0]
        for i in range(4):
            up, dn = f.copy(), f.copy()
            up[0, i] += h
            dn[0, i] -= h
            fd = (dmath.diff_entropy_rows(dmath.alpha_rows(up))[0]
                  - dmath.diff_entropy_rows(dmath.alpha_rows(dn))[0]) / (2.0 * h)
            worst_ent = max(worst_ent, abs(g[i] - fd) / max(1.0, abs(fd)))
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 1e-4 and worst_ent <= 1e-6 and elapsed < 60.0
    report(4, ok, f"worst loss-grad rel err {worst_rel:.2e}, "
                  f"entropy-grad err {worst_ent:.2e}, {elapsed:.1f}s")


def test_criterion_05_metric_oracles():
    rng = np.random.default_rng(105)
    exact = True
    for _ in range(100):
        n, m = int(rng.integers(1, 201)), int(rng.integers(1, 201))
        if rng.random() < 0.5:
            ids = rng.integers(0, 12, size=n).astype(float)
            oods = rng.integers(0, 12, size=m).astype(float)
        else:
            ids = rng.normal(size=n)
            oods = rng.normal(0.4, 1.0, size=m)
        s = ScoreSet(ids, oods)
        gamma = np.sort(ids)[max(int(np.ceil(0.95 * n)) - 1, 0)]
        brute_fpr = float(np.mean(oods <= gamma))
        brute_roc = sum(1.0 if o > i else (0.5 if o == i else 0.0)
                        for o in oods for i in ids) / (n * m)
        exact = (exact
                 and metrics.fpr_at_95tpr(s) == brute_fpr
                 and abs(metrics.auroc(s) - brute_roc) < 1e-12)
    n = m = 2000
    s = ScoreSet(rng.normal(size=n), rng.normal(size=m))
    sigma = np.sqrt((n + m + 1) / (12.0 * n * m))
    dev = abs(metrics.auroc(s) - 0.5)
    ok = exact and dev <= 3.0 * sigma
    report(5, ok, f"brute-force exact: {exact}, null auroc dev "
                  f"{dev:.4f} vs 3 sigma {3 * sigma:.4f}")


def test_criterion_06_inequality_suite(seed1_checks):
    failures = [(name, lhs) for name, lhs, _, ok in seed1_checks if not ok]
    report(6, not failures, f"{len(seed1_checks)} checks, failures: {failures}")


def _softmax_entropy(model, points):
    p = softmax(model.forward(Batch(points)), axis=1)
    return float(np.mean(-np.sum(p * np.log(np.maximum(p, 1e-300)), axis=1)))


def test_criterion_07_energy_raises_outlier_entropy(experiment):
    run = experiment["runs"][1]
    _, sem_train = runner.make_datasets(run["cfg"])
    before = _softmax_entropy(run["models"]["none"], sem_train.points)
    after = _softmax_entropy(run["models"]["energy"], sem_train.points)
    ok = after > before
    report(7, ok, f"softmax entropy on training outliers "
                  f"{before:.3f} -> {after:.3f}")


def test_criterion_08_dilemma_direction(experiment):
    """FPR95 change is measured with each method's natural detector on the
    pretrained versus the finetuned model, so the comparison isolates what
    finetuning did rather than mixing detectors."""
    runs = experiment["runs"]

    def dfpr(method):
        return float(np.mean([
            _fpr(runs[s]["reports"]["none"], method)
            - _fpr(runs[s]["reports"][method], method) for s in SEEDS]))

    def dcov(method):
        return float(np.mean([
            runs[s]["reports"]["none"].cov_acc
            - runs[s]["reports"][method].cov_acc for s in SEEDS]))

    details = []
    ok = True
    for method in ("oe", "energy"):
        ok = ok and dfpr(method) > 0.0 and dcov(method) > 0.01
        details.append(f"{method}: dFPR95 {dfpr(method):+.3f}, "
                       f"COV drop {100 * dcov(method):.1f}pt")
    dul_cov_gaps = [abs(runs[s]["reports"]["none"].cov_acc
                        - runs[s]["reports"]["dul"].cov_acc) for s in SEEDS]
    ok = ok and dfpr("dul") > 0.0 and max(dul_cov_gaps) <= 0.01
    details.append(f"dul: dFPR95 {dfpr('dul'):+.3f}, "
                   f"max COV gap {100 * max(dul_cov_gaps):.1f}pt")
    elapsed = experiment["elapsed"]
    ok = ok and elapsed < 300.0
    details.append(f"{elapsed:.0f}s for 3 seeds")
    report(8, ok, "; ".join(details))


def test_criterion_09_uncertainty_sweep(experiment):
    run = experiment["runs"][1]
    cfg = run["cfg"]
    sweeps = {m: runner.noise_sweep(cfg, run["models"][m])
              for m in ("none", "dul", "oe")}
    ok = True
    details = []
    for method in ("none", "dul"):
        rows = sweeps[method]
        rho = spearmanr([r["eps"] for r in rows],
                        [r["shifted_du"] for r in rows]).statistic
        ok = ok and rho >= 0.9
        details.append(f"{method} DU rho {rho:.2f}")
    tu_dul = sweeps["dul"][-1]["mean_total"]
    tu_oe = sweeps["oe"][-1]["mean_total"]
    ok = ok and tu_dul < tu_oe
    details.append(f"TU at max eps: dul {tu_dul:.2f} < oe {tu_oe:.2f}")
    report(9, ok, "; ".join(details))


@pytest.mark.parametrize("seed", SEEDS)
def test_dul_anchor_invariants(experiment, seed):
    """dul must raise distributional uncertainty on the training outliers by
    at least half its margin while leaving total uncertainty there nearly
    unchanged."""
    run = experiment["runs"][seed]
    cfg = run["cfg"]
    _, sem_train = runner.make_datasets(cfg)
    du0, tu0 = metrics.uncertainty_stats(run["models"]["none"].forward(sem_train))
    du1, tu1 = metrics.uncertainty_stats(run["models"]["dul"].forward(sem_train))
    assert du1 - du0 >= cfg.dul_margin / 2.0
    assert abs(tu1 - tu0) <= 0.05


def test_criterion_10_determinism(experiment, tmp_path):
    """A CLI run and the fixture's seed-1 table are two independent
    trainings through two entry points."""
    assert cli.main(["--seed", "1", "--out", str(tmp_path), "repro-dilemma"]) == 0
    csv_bytes = runner.dilemma_csv(experiment["runs"][1]["reports"]).encode("utf-8")
    same = (tmp_path / "dilemma.csv").read_bytes() == csv_bytes
    report(10, same, "repro-dilemma's CSV is byte-identical to the fixture's "
                     "seed-1 table")


def _outputs(experiment, checks, tmp_path) -> dict:
    """The bytes of every report and checkpoint the fixture's runs hold, by
    name: each seed's dilemma table and checkpoints, and seed 1's verify
    rows, evaluation reports and sweeps."""
    outputs = {}
    for seed, run in experiment["runs"].items():
        outputs[f"seed{seed}/dilemma.csv"] = runner.dilemma_csv(run["reports"]).encode()
        for method, model in run["models"].items():
            path = tmp_path / f"seed{seed}_{method}.ckpt"
            save_checkpoint(model, path)
            outputs[f"seed{seed}/{method}.ckpt"] = path.read_bytes()
    run = experiment["runs"][1]
    outputs["seed1/verify.csv"] = runner.verify_csv(checks).encode()
    for method, model in run["models"].items():
        outputs[f"seed1/{method}/eval_report.csv"] = run["reports"][method].to_csv().encode()
        outputs[f"seed1/{method}/sweep.csv"] = runner.sweep_csv(
            runner.noise_sweep(run["cfg"], model)).encode()
    return outputs


def test_outputs_match_recorded_hashes(experiment, seed1_checks, tmp_path):
    """Every output the fixture holds has the SHA-256 recorded in
    output_hashes.json, under the numpy and scipy versions recorded there.
    A change that means to move an output re-records the file by running
    this test with DUL_LAB_RECORD_HASHES=1, and says which hashes moved and
    why."""
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    got = {name: hashlib.sha256(data).hexdigest()
           for name, data in _outputs(experiment, seed1_checks, tmp_path).items()}
    if os.environ.get("DUL_LAB_RECORD_HASHES"):
        OUTPUT_HASHES.write_text(json.dumps({"versions": versions, "sha256": got},
                                            indent=2) + "\n", encoding="utf-8")
    recorded = json.loads(OUTPUT_HASHES.read_text(encoding="utf-8"))
    assert recorded["versions"] == versions, (
        f"hashes recorded under {recorded['versions']}, this run has {versions}")
    moved = sorted(name for name in got.keys() | recorded["sha256"].keys()
                   if got.get(name) != recorded["sha256"].get(name))
    assert not moved, f"outputs whose hash moved: {moved}"
