"""Tests for configuration handling, training plumbing, and the CLI."""

import ast
import errno
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special as sp

from dul_lab import cli, config, fileio, metrics, runner, theory
from dul_lab.config import TrainConfig, load_config, save_config, substream
from dul_lab.losses import LossSpec
from dul_lab.metrics import EvalReport
from dul_lab.nn import Batch, Mlp, load_checkpoint, mlp_init, save_checkpoint

TINY = TrainConfig(
    arch=(2, 8, 3), seed=5, pretrain_epochs=3, finetune_epochs=2,
    n_per_class=40, n_sem_train=60, n_sem_test=60, n_eval_id=60,
    batch_id=32, batch_ood=32,
)


def write_tiny_config(path):
    save_config(TINY, path)
    return str(path)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(arch=(2,))
    with pytest.raises(ValueError):
        TrainConfig(pretrain_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr0=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(method="mixup")
    with pytest.raises(ValueError):
        TrainConfig(eps_grid=())
    # values that used to fail mid-run, skew noise_sweep or train the wrong
    # head silently: the data are 2-D and the head needs one logit per class
    for bad in (dict(target_alpha0=3.0), dict(k=15),
                dict(eps_grid=(1.0, 2.0, 3.0)), dict(eps_grid=(0.5, 0.0)),
                dict(arch=(3, 8, 3)), dict(arch=(2, 8, 5)),
                dict(k=4), dict(batch_id=0),
                dict(batch_ood=0),
                # values that used to fail only once a run reached them, or
                # that evaluate snapped or truncated without a word
                dict(smoothing=0.5), dict(smoothing=0.0),
                dict(smoothing=-0.1), dict(lam=-1.0), dict(k=1, arch=(2, 8, 1)),
                dict(n_per_class=0), dict(n_sem_train=0), dict(n_sem_test=0),
                dict(n_eval_id=100), dict(n_eval_id=0), dict(sigma=5.0),
                dict(k=6, arch=(2, 8, 6)), dict(cov_eval_eps=1.0),
                dict(eps_grid=(0.0, -1.0), cov_eval_eps=0.0),
                dict(lr0=float("nan")), dict(momentum=float("inf")),
                dict(seed=-1), dict(seed=2**120),
                dict(eps_grid=(0.0, float("nan")), cov_eval_eps=0.0),
                dict(eps_grid=(0.0, 0.5, 0.5), cov_eval_eps=0.5),
                # unbounded, noise that large carries no class signal and
                # fails after training once the first layer's sums overflow
                # (logits must be finite)
                dict(eps_grid=(0.0, 1e300), cov_eval_eps=0.0),
                dict(eps_grid=(0.0, 1.7e308), cov_eval_eps=0.0),
                dict(eps_grid=(0.0, np.nextafter(config.EPS_MAX, np.inf)),
                     cov_eval_eps=0.0),
                # momentum failed at the first SGD step; a negative sigma
                # generated mirrored noise without a word
                dict(momentum=1.5), dict(momentum=-0.1), dict(sigma=-0.75)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    # tiny noise computes finite numbers, and the bound itself is allowed
    TrainConfig(eps_grid=(0.0, 1e-300, config.EPS_MAX), cov_eval_eps=0.0)


def test_config_round_trip(tmp_path):
    cfg = TINY.with_(method="dul", lam=1.25, eps_grid=(0.0, 0.5), cov_eval_eps=0.5)
    path = tmp_path / "run.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


DEFAULT_CONFIG_TEXT = """\
[train]
arch = 2 64 64 3
seed = 1
pretrain_epochs = 200
finetune_epochs = 60
lr0 = 0.05
finetune_lr0 = 0.01
momentum = 0.9
batch_id = 128
batch_ood = 256
method = none

[loss]
lam = 3.0
gamma = 30.0
m_in = -12.0
m_out = -4.0
dul_margin = 0.4
target_alpha0 = 15.0
smoothing = 0.01

[data]
k = 3
n_per_class = 500
radius = 4.0
sigma = 0.75
n_sem_train = 1500
n_sem_test = 1500
n_eval_id = 1500
eps_grid = 0.0 0.625 1.25 1.875 2.5 3.125
cov_eval_eps = 3.125

"""


def test_save_config_default_text(tmp_path):
    path = tmp_path / "default.ini"
    save_config(TrainConfig(), path)
    assert path.read_bytes() == DEFAULT_CONFIG_TEXT.encode("utf-8")


# one valid non-default value per key, plus the keys that must change with it
NON_DEFAULT = dict(
    arch=(2, 16, 8, 3), seed=7, pretrain_epochs=5,
    finetune_epochs=4, lr0=0.1, finetune_lr0=0.02, momentum=0.5,
    batch_id=64, batch_ood=32, method="dul", lam=1.5,
    gamma=10.0, m_in=-10.0, m_out=-3.0, dul_margin=0.3,
    target_alpha0=20.0, smoothing=0.05, k=2,
    n_per_class=100, radius=5.0, sigma=0.5, n_sem_train=300, n_sem_test=200,
    n_eval_id=300, eps_grid=(0.0, 1.5, 3.125), cov_eval_eps=2.5,
)
COMPANIONS = {"k": dict(arch=(2, 64, 64, 2))}


@pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig)])
def test_each_config_key_round_trips(tmp_path, name):
    cfg = TrainConfig(**{name: NON_DEFAULT[name], **COMPANIONS.get(name, {})})
    assert getattr(cfg, name) != getattr(TrainConfig(), name)
    path = tmp_path / "run.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


@settings(deadline=None, max_examples=40)
@example(k=3, hidden=4, n_per_class=4,
         n_sem_train=4, sigma=5.0, batch_id=8, batch_ood=8)
@given(k=st.integers(2, 5), hidden=st.integers(1, 6),
       n_per_class=st.integers(0, 8), n_sem_train=st.integers(0, 8),
       sigma=st.floats(0.0, 1.0), batch_id=st.integers(0, 16),
       batch_ood=st.integers(0, 16))
def test_any_config_that_constructs_pretrains(k, hidden, n_per_class,
                                              n_sem_train, sigma, batch_id,
                                              batch_ood):
    try:
        cfg = TrainConfig(arch=(2, hidden, k), pretrain_epochs=1, k=k,
                          n_per_class=n_per_class, n_sem_train=n_sem_train,
                          sigma=sigma, batch_id=batch_id, batch_ood=batch_ood)
    except ValueError:
        assume(False)
    model = runner.pretrain(cfg)
    assert model.out_dim == k


def test_loss_keys_are_loss_spec_fields():
    """The [loss] keys and LossSpec's settings are one list, with one set of
    defaults, so a setting added to one side only fails here."""
    loss_keys = [(f.name, f.default) for f in fields(TrainConfig)
                 if f.metadata["section"] == "loss"]
    assert loss_keys == [(f.name, f.default) for f in fields(LossSpec)[1:]]


@pytest.mark.parametrize("method,kind", [("oe", "oe"), ("energy", "energy_margin"),
                                         ("dpn", "dpn"), ("dul", "dul")])
def test_default_config_builds_the_default_loss_spec(method, kind):
    """The dul spec once took its margin from dul_margin into m_out, so it
    differed from LossSpec("dul"), whose m_out is the energy margin."""
    assert runner._loss_spec(TrainConfig(method=method)) == LossSpec(kind)
    # and each key, set away from its default, reaches the field of its name
    settings = {f.name: NON_DEFAULT[f.name] for f in fields(LossSpec)[1:]}
    assert (runner._loss_spec(TrainConfig(method=method, **settings))
            == LossSpec(kind, **settings))


def test_every_config_key_has_a_reader():
    """A TrainConfig field that no module outside config.py reads as an
    attribute is a setting that silently does nothing."""
    read = set()
    for path in Path(config.__file__).parent.glob("*.py"):
        if path.name != "config.py":
            read |= {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert [f.name for f in fields(TrainConfig) if f.name not in read] == []


def test_config_unknown_key_and_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[train]\nwarmup = 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(path)
    path.write_text("[optimizer]\nlr0 = 0.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown section"):
        load_config(path)
    path.write_text("[loss]\ntarget_alpha0 = 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.ini: target_alpha0 must exceed k"):
        load_config(path)
    path.write_text("lr0 = 0.1\n", encoding="utf-8")  # no section header
    with pytest.raises(ValueError, match=r"bad\.ini: "):
        load_config(path)
    # configparser copies [DEFAULT] keys into every section: alone they were
    # ignored, and beside [loss] they were blamed on it
    for text in ("[DEFAULT]\nseed = 5\nlam = 9.0\n",
                 "[DEFAULT]\nseed = 5\n[loss]\nlam = 9.0\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.ini: unknown section \[DEFAULT\]$"):
            load_config(path)


def test_substream_disjoint_and_deterministic():
    a = substream(3, config.STREAM_INIT).standard_normal(8)
    b = substream(3, config.STREAM_INIT).standard_normal(8)
    c = substream(3, config.STREAM_BATCH).standard_normal(8)
    d = substream(4, config.STREAM_INIT).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_make_datasets_shapes():
    id_train, sem_train = runner.make_datasets(TINY)
    assert id_train.n == 120 and sem_train.n == 60
    id_eval, cov, sem_test = runner.make_eval_datasets(TINY)
    assert set(cov) == set(TINY.eps_grid)
    assert np.array_equal(cov[0.0].points, id_eval.points)


def test_cov_sets_scale_one_noise_draw():
    # test_make_datasets_shapes checks that eps 0 is the clean set
    id_eval, cov, _ = runner.make_eval_datasets(TINY)
    first = TINY.eps_grid[1]
    noise = (cov[first].points - id_eval.points) / first
    assert np.all(noise != 0.0)
    for eps, d in cov.items():
        assert np.array_equal(d.labels, id_eval.labels)
        assert np.allclose(d.points, id_eval.points + eps * noise, rtol=0.0, atol=1e-12)


def test_pretrain_learns_the_blobs():
    cfg = TINY.with_(pretrain_epochs=30)
    model = runner.pretrain(cfg)
    id_eval, _, _ = runner.make_eval_datasets(cfg)
    logits = model.forward(Batch(id_eval.points))
    assert metrics.accuracy(logits, id_eval.labels) > 0.9


def test_finetune_requires_method():
    model = runner.pretrain(TINY)
    with pytest.raises(ValueError):
        runner.finetune(TINY, model)


@pytest.mark.parametrize("method", ["oe", "energy", "dpn", "dul"])
def test_finetune_runs_and_changes_parameters(method):
    base = runner.pretrain(TINY)
    before = base.get_flat()
    tuned = runner.finetune(TINY.with_(method=method), base)
    assert not np.array_equal(base.get_flat(), tuned.get_flat())
    # finetune starts from the pretrained model itself and leaves it intact
    assert np.array_equal(base.get_flat(), before)


def test_evaluate_report_fields():
    model = runner.pretrain(TINY)
    report = runner.evaluate(TINY, model)
    assert set(report.detection) == set(
        ("msp", "maxlogit", "energy", "diffent", "strength"))
    for fpr, roc, pr in report.detection.values():
        assert 0.0 <= fpr <= 1.0 and 0.0 <= roc <= 1.0 and 0.0 <= pr <= 1.0
    assert 0.0 <= report.id_acc <= 1.0
    assert len(report.uncertainty) == 3  # the ID, COV and SEM_TEST sets


def _count_forwards(monkeypatch) -> list:
    calls = []
    real = Mlp.forward_cache
    monkeypatch.setattr(Mlp, "forward_cache",
                        lambda self, x: calls.append(1) or real(self, x))
    return calls


def test_evaluate_forwards_each_point_set_once(monkeypatch):
    # id_eval, cov[cov_eval_eps] and sem_test
    model = mlp_init(TINY.arch, seed=3)
    calls = _count_forwards(monkeypatch)
    runner.evaluate(TINY, model)
    assert len(calls) == 3


def test_noise_sweep_forwards_each_eps_once(monkeypatch):
    model = mlp_init(TINY.arch, seed=3)
    calls = _count_forwards(monkeypatch)
    runner.noise_sweep(TINY, model)
    assert len(calls) == len(TINY.eps_grid)


def test_csv_tables_golden():
    """The exact bytes of every report: floats as %.6f, verify's lhs and rhs
    with str so that a 1e-16 residual stays readable."""
    rep = EvalReport(detection={"msp": (0.05, 0.9, 0.85)}, id_acc=0.99,
                     cov_acc=2.0 / 3.0,
                     uncertainty=((-1.5, 0.25), (-1.0, 0.5),
                                  (0.125, 1.0986122886681098)))
    assert rep.to_csv() == (
        "method,fpr95,auroc,aupr,id_acc,cov_acc,mean_du_id,mean_du_cov,"
        "mean_du_sem,mean_total_id,mean_total_cov,mean_total_sem\n"
        "msp,0.050000,0.900000,0.850000,0.990000,0.666667,-1.500000,"
        "-1.000000,0.125000,0.250000,0.500000,1.098612\n")
    sweep = [{"eps": 0.625, "cov_acc": 0.5, "shifted_du": -0.0123456789,
              "mean_du": 1.0, "mean_total": 1e-7}]
    assert runner.sweep_csv(sweep) == (
        "eps,cov_acc,shifted_du,mean_du,mean_total\n"
        "0.625000,0.500000,-0.012346,1.000000,0.000000\n")
    dilemma = {"dul": EvalReport(
        detection={"msp": (0.5, 0.5, 0.5), "diffent": (0.1, 0.95, 0.9)},
        id_acc=1.0, cov_acc=0.75, uncertainty=((0.0, 0.0),) * 3)}
    assert runner.dilemma_csv(dilemma) == (
        "method,score,fpr95,auroc,aupr,id_acc,cov_acc\n"
        "dul,diffent,0.100000,0.950000,0.900000,1.000000,0.750000\n")
    checks = [("digamma_recurrence", 1.1102230246251565e-16, 1e-12, True),
              ("pinsker", 0, 0, True), ("lemma2", 2, 0, False)]
    assert runner.verify_csv(checks) == (
        "check,lhs,rhs,pass\n"
        "digamma_recurrence,1.1102230246251565e-16,1e-12,1\n"
        "pinsker,0,0,1\n"
        "lemma2,2,0,0\n")


def test_noise_sweep_rows():
    model = runner.pretrain(TINY)
    rows = runner.noise_sweep(TINY, model)
    assert [r["eps"] for r in rows] == list(TINY.eps_grid)
    assert rows[0]["shifted_du"] == 0.0
    csv_text = runner.sweep_csv(rows)
    assert csv_text.startswith("eps,cov_acc,shifted_du,mean_du,mean_total\n")
    assert len(csv_text.strip().split("\n")) == len(rows) + 1


def test_verify_quick_all_pass():
    checks = runner.verify(TINY, fuzz=300, quick=True)
    names = [c[0] for c in checks]
    assert "theorem1_lower_bound" in names
    for name, lhs, rhs, ok in checks:
        assert ok, (name, lhs, rhs)


def test_dilemma_models_give_verify_its_theorem1_row():
    # verify(quick=False) trains what dilemma_table trains, so the two parts
    # of verify on dilemma_table's models are verify's rows; the reports
    # dilemma_table returns are each model's full evaluation
    models, reports = runner.dilemma_table(TINY)
    checks = runner._fuzz_checks(TINY, 300)
    checks.append(runner._theorem1_check(TINY, list(models.values())))
    assert runner.verify_csv(checks) == runner.verify_csv(
        runner.verify(TINY, fuzz=300, quick=False))
    assert list(reports) == list(models) == list(config.METHODS)
    for method, model in models.items():
        assert reports[method].to_csv() == runner.evaluate(TINY, model).to_csv()


def test_verify_pool_noise_has_its_own_stream(monkeypatch):
    # a raw seed as the pool's Philox key replays another stream's draws: at
    # seed 0 it is stream_key(0, STREAM_INIT), the init's weights
    cfg = TINY.with_(seed=0)
    init = mlp_init(cfg.arch, seed=config.stream_key(cfg.seed, config.STREAM_INIT))
    pools = []
    real = theory.perturbed_pool
    monkeypatch.setattr(theory, "perturbed_pool",
                        lambda *a, **kw: pools.append(real(*a, **kw)) or pools[-1])
    assert runner._theorem1_check(cfg, [init])[3]
    theta = init.get_flat()
    noise = pools[0].members[1].get_flat() - theta
    draws = substream(cfg.seed, config.STREAM_INIT).standard_normal(theta.size)
    assert abs(np.corrcoef(noise, draws)[0, 1]) < 0.5


def test_verify_lemma2_row_reports_failing_row_count(monkeypatch):
    # halving the uniform-CE slack makes the bound fail on near-uniform rows
    real = theory.oe_per_sample
    monkeypatch.setattr(theory, "oe_per_sample", lambda f: np.log(f.shape[1])
                        + 0.5 * (real(f) - np.log(f.shape[1])))
    checks = {name: (lhs, ok) for name, lhs, _, ok in
              runner.verify(TINY, fuzz=300, quick=True)}
    lhs, ok = checks["lemma2"]
    assert lhs > 0 and not ok


def test_verify_counts_a_nan_case_as_a_violation(tmp_path, monkeypatch):
    # abs(nan) > tol and nan < -tol are both false, so a NaN passed
    monkeypatch.setattr(runner.dmath, "expected_data_entropy", lambda d: float("nan"))
    out = tmp_path / "out"
    rc = cli.main(["verify", "--quick", "--config", write_tiny_config(tmp_path / "run.ini"),
                   "--out", str(out)])
    assert rc == 1
    rows = {line.split(",")[0]: line.split(",")[3]
            for line in (out / "verify.csv").read_text(encoding="utf-8").splitlines()[1:]}
    failed = {name for name, ok in rows.items() if ok == "0"}
    assert failed == {"uncertainty_decomposition", "mutual_information_nonneg"}


# Run in a fresh interpreter: records whether scipy.special is loaded after
# each step of a softmax-only session, then after one Dirichlet kernel call.
SOFTMAX_SESSION = """
import json, sys
import numpy as np
from dul_lab import cli, dirichlet, runner
from dul_lab.config import load_config

good, bad, out = sys.argv[1:]
seen = {"import dul_lab.cli": "scipy.special" in sys.modules}
for name, argv in (("dul --help", ["--help"]),
                   ("bad config", ["pretrain", "--config", bad, "--out", out])):
    try:
        cli.main(argv)
    except SystemExit as exc:
        seen[name] = ("scipy.special" in sys.modules, exc.code)
cfg = load_config(good)
base = runner.pretrain(cfg)
seen["pretrain"] = "scipy.special" in sys.modules
for method in ("oe", "energy"):
    runner.finetune(cfg.with_(method=method), base)
    seen["finetune " + method] = "scipy.special" in sys.modules
alpha = np.array([[1.0, 2.5, 7.0], [0.3, 0.3, 40.0]])
first = dirichlet.diff_entropy_rows(alpha)
seen["after a kernel"] = ("scipy.special" in sys.modules,
                          dirichlet.sp is sys.modules.get("scipy.special"))
seen["values"] = [v.hex() for v in np.concatenate([first, dirichlet.diff_entropy_rows(alpha)])]
print(json.dumps(seen))
"""


def test_softmax_runs_leave_scipy_special_unloaded(tmp_path):
    """ce, oe and energy call no Dirichlet kernel, so neither importing the
    CLI, nor --help, nor a config that exits 2, nor pretraining and the oe
    and energy finetunes imports scipy.special. The first kernel call does,
    and returns what the kernel's formula gives with scipy.special loaded
    up front, bit for bit, on that call and the next."""
    bad = tmp_path / "bad.ini"
    bad.write_text("[train]\nno_such_key = 1\n", encoding="utf-8")
    src = Path(runner.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", SOFTMAX_SESSION, write_tiny_config(tmp_path / "run.ini"),
         str(bad), str(tmp_path / "out")],
        capture_output=True, text=True, check=True, cwd=src)
    seen = json.loads(out.stdout.splitlines()[-1])
    values = seen.pop("values")
    assert seen == {"import dul_lab.cli": False, "dul --help": [False, 0],
                    "bad config": [False, 2], "pretrain": False, "finetune oe": False,
                    "finetune energy": False, "after a kernel": [True, True]}
    alpha = np.array([[1.0, 2.5, 7.0], [0.3, 0.3, 40.0]])
    a0 = alpha.sum(axis=1)
    want = (np.sum(sp.gammaln(alpha), axis=1) - sp.gammaln(a0)
            - np.sum((alpha - 1.0) * (sp.digamma(alpha) - sp.digamma(a0)[:, None]), axis=1))
    assert values == [v.hex() for v in np.concatenate([want, want])]


def test_train_loop_deterministic():
    a = runner.pretrain(TINY)
    b = runner.pretrain(TINY)
    assert np.array_equal(a.get_flat(), b.get_flat())


def test_non_finite_loss_names_kind_epoch_and_step(tmp_path, capsys, monkeypatch):
    cfgfile = write_tiny_config(tmp_path / "run.ini")
    out = str(tmp_path / "out")
    assert cli.main(["pretrain", "--config", cfgfile, "--out", out]) == 0
    capsys.readouterr()
    base = load_checkpoint(tmp_path / "out" / "pretrained.ckpt")
    real = runner.lossmod.loss_backward
    calls = []

    def nan_at_epoch_1_step_2(*args, **kwargs):
        value, grads = real(*args, **kwargs)
        calls.append(value)
        # 120 ID points in batches of 32 make four steps an epoch, so the
        # seventh call is epoch 1, step 2
        return (float("nan") if len(calls) == 7 else value), grads

    monkeypatch.setattr(runner.lossmod, "loss_backward", nan_at_epoch_1_step_2)
    message = "non-finite dul loss nan at epoch 1, step 2"
    with pytest.raises(FloatingPointError) as exc:
        runner.finetune(TINY.with_(method="dul"), base)
    assert str(exc.value) == message
    calls.clear()
    assert cli.main(["finetune", "--method", "dul", "--config", cfgfile, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "finetuned_dul.ckpt").exists()


def _cut_open(*args, **kwargs):
    """open() whose file takes half of the first write and then fails, as
    on a full disk."""
    fh = open(*args, **kwargs)
    real = fh.write

    def write(text):
        real(text[:len(text) // 2])
        fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    fh.write = write
    return fh


@pytest.mark.parametrize("write", [
    lambda p: save_checkpoint(mlp_init((2, 4, 3), seed=1), p),
    lambda p: save_config(TINY, p),
    lambda p: cli._write_text(p, "check,lhs,rhs,pass\n"),
], ids=["checkpoint", "config", "report"])
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    write(path)
    before = path.read_bytes()
    monkeypatch.setattr(fileio, "open", _cut_open, raising=False)
    with pytest.raises(OSError):
        write(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_atomic_write_goes_through_a_symlink_and_keeps_the_mode(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    with fileio.atomic_open(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == "new\n"
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_atomic_write_to_a_255_byte_name(tmp_path):
    # the temporary file's name must not grow with the target's
    name = "a" * 251 + ".csv"
    with fileio.atomic_open(tmp_path / name) as fh:
        fh.write("x\n")
    assert (tmp_path / name).read_text(encoding="utf-8") == "x\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_cli_pretrain_eval_sweep(tmp_path):
    cfgfile = write_tiny_config(tmp_path / "run.ini")
    out = str(tmp_path / "out")
    assert cli.main(["--config", cfgfile, "--out", out, "pretrain"]) == 0
    ckpt = str(tmp_path / "out" / "pretrained.ckpt")
    model = load_checkpoint(ckpt)
    assert model.out_dim == 3
    assert cli.main(["--config", cfgfile, "--out", out, "eval",
                     "--checkpoint", ckpt]) == 0
    assert (tmp_path / "out" / "eval_report.csv").exists()
    assert cli.main(["--config", cfgfile, "--out", out, "sweep",
                     "--checkpoint", ckpt]) == 0
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_cli_finetune(tmp_path):
    cfgfile = write_tiny_config(tmp_path / "run.ini")
    out = str(tmp_path / "out")
    assert cli.main(["--config", cfgfile, "--out", out, "pretrain"]) == 0
    assert cli.main(["--config", cfgfile, "--out", out, "finetune",
                     "--method", "oe"]) == 0
    assert (tmp_path / "out" / "finetuned_oe.ckpt").exists()
    # no method configured anywhere is a usage error
    assert cli.main(["--config", cfgfile, "--out", out, "finetune"]) == 2
    # missing checkpoint
    assert cli.main(["--config", cfgfile, "--out", str(tmp_path / "empty"),
                     "finetune", "--method", "oe"]) == 2


def test_cli_missing_config_exits_2(tmp_path, capsys):
    # a directory in place of the file ended in a traceback and exit 1
    for path in (tmp_path / "nope.ini", tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "pretrain"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "pretrained.ckpt").exists()


@pytest.mark.parametrize("text", [
    "[loss]\ntarget_alpha0 = 2.5\n",
    "[data]\neps_grid = 1 2 3\n",
    "[train]\nbatch_id = many\n",
    "[train]\nbatch_id = 0\n",
    "[train]\narch = 2 8 5\n",
    "[train]\nwarmup = 5\n",
    # a deleted key is unknown whatever its value
    "[loss]\nalpha_mapping = bogus\n",
    "[loss]\nalpha_mapping = exp_relu\n",
    "[loss]\ntau = 3\n",
    "[train]\nschedule = constant\n",
    "[train]\nactivation = relu\n",
    "[train]\nactivation = tanh\n",
    "[train]\nactivation = gelu\n",
    "lr0 = 0.1\n",  # configparser's own error spans lines
    # each failed later, as a traceback or a silently wrong number
    "[data]\nsigma = 5.0\n",
    "[loss]\nsmoothing = 0.5\n",
    "[loss]\nsmoothing = 0\n",  # zero concentrations in dpn's target Dirichlet
    "[train]\narch = 2 8 1\n[data]\nk = 1\n",
    "[data]\nn_per_class = 0\n",
    "[data]\nn_eval_id = 100\n",
    "[data]\ncov_eval_eps = 1.0\n",
    "[data]\neps_grid = 0 0.5 0.5\ncov_eval_eps = 0.5\n",
    "[train]\nlr0 = nan\n",
    "[train]\nseed = -1\n",
    "[data]\neps_grid = 0 1.7e308\ncov_eval_eps = 0\n",
    "[train]\nmomentum = 1.5\n",
    "[data]\nsigma = -0.75\n",
    "[DEFAULT]\nseed = 5\nlam = 9.0\n",
    "[DEFAULT]\nseed = 5\n[loss]\nlam = 9.0\n",
])
def test_cli_bad_config_exits_2_with_one_line(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "pretrained.ckpt").exists()


def test_cli_global_flags_after_subcommand(tmp_path):
    cfgfile = write_tiny_config(tmp_path / "run.ini")
    out = str(tmp_path / "out")
    assert cli.main(["pretrain", "--config", cfgfile, "--out", out]) == 0
    assert (tmp_path / "out" / "pretrained.ckpt").exists()


@pytest.mark.parametrize("argv", [["--seed", "-1", "pretrain"],
                                  ["finetune", "--method", "bogus"]])
def test_cli_bad_flag_value_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("out, env", [("afile", None), ("afile/sub", None),
                                      (None, "afile")],
                         ids=["--out-file", "--out-under-file", "DUL_OUT-file"])
def test_cli_out_naming_a_file_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                          out, env):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("keep\n", encoding="utf-8")
    if env is None:
        monkeypatch.delenv("DUL_OUT", raising=False)
    else:
        monkeypatch.setenv("DUL_OUT", env)
    argv = ["sweep", "--checkpoint", "x"] + ([] if out is None else ["--out", out])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot make output directory {out or env}: ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "keep\n"


def test_cli_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["eval", "sweep", "finetune"])
@pytest.mark.parametrize("content", [
    None, "dul-mlp-v1\ntanh\n2\n",
    # a well-formed 2 -> 3 layer after another hidden activation
    pytest.param("dul-mlp-v1\nrelu\n1\n3 2\n" + " ".join(["0x0.0p+0"] * 6)
                 + "\n0x0.0p+0 0x0.0p+0 0x0.0p+0\n", id="relu"),
    # well-formed, but the default config has 2 inputs and k = 3
    pytest.param((2, 8, 5), id="2-8-5"), pytest.param((3, 8, 3), id="3-8-3")])
def test_cli_bad_checkpoint_exits_2_with_one_line(tmp_path, capsys, command, content):
    ckpt = tmp_path / "model.ckpt"
    if content is None:
        expected = f"error: checkpoint not found: {ckpt}\n"
    elif isinstance(content, tuple):
        save_checkpoint(mlp_init(content, seed=0), ckpt)
        expected = (f"error: {ckpt}: checkpoint maps {content[0]} inputs to "
                    f"{content[-1]} classes, the config 2 inputs to 3 classes\n")
    elif "relu" in content:
        ckpt.write_text(content, encoding="utf-8")
        expected = f"error: {ckpt}: bad checkpoint: hidden activation 'relu' is not 'tanh'\n"
    else:
        ckpt.write_text(content, encoding="utf-8")  # cut after the header
        expected = f"error: {ckpt}: checkpoint ends early\n"
    extra = ["--method", "oe"] if command == "finetune" else []
    rc = cli.main([command, "--checkpoint", str(ckpt), "--out", str(tmp_path)] + extra)
    assert rc == 2
    assert capsys.readouterr().err == expected


def test_cli_checkpoint_directory_exits_2(tmp_path, capsys):
    rc = cli.main(["eval", "--checkpoint", str(tmp_path), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("exc", [FloatingPointError, ValueError])
def test_cli_runtime_failure_exits_1_with_one_line(tmp_path, capsys, monkeypatch, exc):
    def fail(cfg):
        raise exc("non-finite loss nan at epoch 0")
    monkeypatch.setattr(runner, "pretrain", fail)
    rc = cli.main(["pretrain", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite loss nan at epoch 0\n"
