"""The three benchmark workloads.

Each workload builds its fixed inputs from the seed in ``setup`` and runs
one pass of fixed work as ``PARTS`` calls of ``run_part`` (the only timed
code), which take the parts in turn; ``checks`` checks the outputs. The lab receives only ``TrainConfig(seed=...)``
with the epoch counts below, and the inputs built from it.

Epoch counts are the one departure from the default ``TrainConfig``: at the
defaults a dpn + dul finetune takes ~50 s, which no run can repeat.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from dul_lab import dirichlet, losses, metrics, nn, runner, theory
from dul_lab.config import TrainConfig
from dul_lab.losses import LossSpec

import checks as ck
from tracer import COUNTED


def _steps_per_epoch(cfg: TrainConfig) -> int:
    return math.ceil(cfg.k * cfg.n_per_class / cfg.batch_id)


class _Training:
    """Shared by the two training workloads: a pass, in one part, is a
    sequence of ``runner`` training calls, timed one by one for
    ``steps_per_s``."""

    PARTS = 1

    # (method, config) per training call, filled in by setup; "none" is pretrain
    plan: list

    def _loss_spec(self, method: str, cfg: TrainConfig) -> LossSpec:
        return LossSpec(kind="ce") if method == "none" else runner._loss_spec(cfg)

    def _epochs(self, method: str, cfg: TrainConfig) -> int:
        return cfg.pretrain_epochs if method == "none" else cfg.finetune_epochs

    def steps(self) -> int:
        return sum(self._epochs(m, c) * _steps_per_epoch(c) for m, c in self.plan)

    def expected_counts(self) -> dict:
        out = dict.fromkeys(COUNTED, 0)
        for method, cfg in self.plan:
            kind = self._loss_spec(method, cfg).kind
            out[f"losses.{kind}.calls"] += self._epochs(method, cfg) * _steps_per_epoch(cfg)
        out["nn.sgd_step.calls"] = self.steps()
        return out

    def checks(self, outputs: dict, first: dict):
        """Per method: finite-difference exactness of the gradient on one
        fixed batch at the model training starts from, a finite loss of the
        trained model there, and (finetuned models) natural-score AUROC and
        cov_acc, returned for comparison with the recorded values. Also that
        this pass trained bit-identical models to the warm-up pass."""
        models = outputs["models"]
        rng = np.random.default_rng([self.seed, 104])
        id_train, sem_train = runner.make_datasets(self.cfg)
        idx = rng.choice(id_train.n, 32, replace=False)
        id_batch = nn.Batch(id_train.points[idx], id_train.labels[idx])
        ood_batch = nn.Batch(sem_train.points[rng.choice(sem_train.n, 64, replace=False)])
        out, ref = [], {}
        for method, cfg in self.plan:
            model = models[method]
            spec = self._loss_spec(method, cfg)
            batches = dict(ood_batch=None if spec.kind == "ce" else ood_batch,
                           frozen=self.frozen if spec.kind == "dul" else None)
            # gradients vanish at a trained model, so check where training starts
            start = (nn.mlp_init(cfg.arch, cfg.activation, seed=self.seed)
                     if method == "none" else self.base(models))
            rel = ck.fd_rel_error(start, spec, id_batch, rng, **batches)
            out.append(ck.check(f"{method}.fd_gradient", rel <= ck.FD_BOUND,
                                f"{spec.kind} rel err {rel:.2e} (bound {ck.FD_BOUND:g})"))
            value = losses.loss_backward(model, id_batch, spec, **batches)[0]
            out.append(ck.check(f"{method}.finite_loss", np.isfinite(value),
                                f"{spec.kind} loss of the trained model {value!r}"))
            if method != "none":
                report = runner.evaluate(cfg, model)
                ref[f"{method}.auroc"] = report.detection[runner.NATURAL_SCORE[method]][1]
                ref[f"{method}.cov_acc"] = report.cov_acc
            same = np.array_equal(model.get_flat(), first["models"][method].get_flat())
            out.append(ck.check(f"{method}.deterministic", same,
                                "parameters equal the warm-up pass's"))
        return out, ref

    def run_part(self) -> dict:
        models, train_s = {}, 0.0
        for method, cfg in self.plan:
            t0 = time.perf_counter()
            if method == "none":
                models[method] = runner.pretrain(cfg)
            else:
                models[method] = runner.finetune(cfg, self.base(models))
            train_s += time.perf_counter() - t0
        return {"part": 0, "models": models, "train_s": train_s, "steps": self.steps()}


class FinetuneDirichlet(_Training):
    name = "finetune-dirichlet"
    EPOCHS = 2

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.cfg = TrainConfig(seed=seed, finetune_epochs=self.EPOCHS)
        path = workdir / "pretrained.ckpt"
        nn.save_checkpoint(runner.pretrain(self.cfg), path)
        self.frozen = nn.load_checkpoint(path)
        self.plan = [(m, self.cfg.with_(method=m)) for m in ("dpn", "dul")]

    def base(self, models):
        return self.frozen

    def work(self) -> dict:
        return {"setup": f"pretrain {self.cfg.pretrain_epochs} epochs, "
                         "checkpoint write + read",
                "pass": f"finetune dpn, dul: {self.EPOCHS} epochs each",
                "sgd_steps": self.steps(), "batch_rows": [self.cfg.batch_id,
                                                          self.cfg.batch_ood]}


class TrainSoftmax(_Training):
    name = "train-softmax"
    PRETRAIN_EPOCHS = 50
    FINETUNE_EPOCHS = 25

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.cfg = TrainConfig(seed=seed, pretrain_epochs=self.PRETRAIN_EPOCHS,
                               finetune_epochs=self.FINETUNE_EPOCHS)
        self.frozen = None
        self.plan = [("none", self.cfg)] + [
            (m, self.cfg.with_(method=m)) for m in ("oe", "energy")]

    def base(self, models):
        return models["none"]

    def work(self) -> dict:
        return {"setup": "configs only; the pass builds its datasets",
                "pass": f"pretrain {self.PRETRAIN_EPOCHS} epochs; finetune oe, "
                        f"energy: {self.FINETUNE_EPOCHS} epochs each",
                "sgd_steps": self.steps(), "batch_rows": [self.cfg.batch_id,
                                                          self.cfg.batch_ood]}


class Certify:
    """A pass certifies the three candidates: the work `dul eval`,
    `dul sweep` and the bound and fuzz part of `dul verify --quick` do. It
    runs as one part per candidate, so that a run times each candidate
    several times (parts of ~3 s) instead of one ~9 s pass two or three
    times."""

    name = "certify"
    METHODS = ("none", "oe", "dul")  # the `dul verify --quick` candidates
    PARTS = len(METHODS)
    FUZZ_PER_PART = 3_333  # a third of runner.verify's default 10,000

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.cfg = TrainConfig(seed=seed, pretrain_epochs=30, finetune_epochs=5)
        base = runner.pretrain(self.cfg)
        cands = [base] + [runner.finetune(self.cfg.with_(method=m), base)
                          for m in self.METHODS[1:]]
        self.paths = []
        for method, model in zip(self.METHODS, cands):
            path = workdir / f"candidate_{method}.ckpt"
            nn.save_checkpoint(model, path)
            self.paths.append(path)
        self.pool = theory.perturbed_pool(cands, n_perturbed=8, seed=seed)
        _, self.cov, self.sem = runner.make_eval_datasets(self.cfg)
        self.eps = (self.cfg.eps_grid[0], self.cfg.eps_grid[-1])
        rng = np.random.default_rng([seed, 6])
        self.fuzz_inputs = []
        for _ in range(self.PARTS * self.FUZZ_PER_PART):
            k = int(rng.integers(2, 6))
            self.fuzz_inputs.append((rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)),
                                     rng.uniform(0.05, 50.0, size=k)))
        self.turn = 0
        self.latest = {}  # candidate index -> outputs of its latest part

    def run_part(self) -> dict:
        i = self.turn
        self.turn = (i + 1) % self.PARTS
        model = nn.load_checkpoint(self.paths[i])
        self.latest[i] = {
            "part": i, "model": model,
            "report": runner.evaluate(self.cfg, model),
            "sweep": runner.noise_sweep(self.cfg, model),
            "bounds": [theory.theorem1_bound(self.cov[eps], self.sem,
                                             self.pool.members[i], self.pool)
                       for eps in self.eps],
            "fuzz": self._fuzz(self.fuzz_inputs[i::self.PARTS])}
        return self.latest[i]

    def _fuzz(self, inputs) -> dict:
        """The Pinsker, Bretagnolle-Huber and uncertainty-decomposition
        fuzz of ``runner.verify`` on set-up inputs; violation counts."""
        bad = dict.fromkeys(("pinsker", "bretagnolle_huber",
                             "uncertainty_decomposition", "mutual_information_nonneg"), 0)
        for p, q, alpha in inputs:
            p, q = dirichlet.SimplexVector(p), dirichlet.SimplexVector(q)
            bad["pinsker"] += not theory.pinsker_check(p, q)["holds"]
            bad["bretagnolle_huber"] += not theory.bretagnolle_huber_check(p, q)["holds"]
            a = dirichlet.DirichletParams(alpha)
            tu = dirichlet.total_uncertainty(a)
            au = dirichlet.expected_data_entropy(a)
            mi = dirichlet.mutual_information(a)
            bad["uncertainty_decomposition"] += abs(tu - (au + mi)) > 1e-12
            bad["mutual_information_nonneg"] += mi < -1e-12
        return bad

    def expected_counts(self) -> dict:
        n = self.PARTS
        out = dict.fromkeys(COUNTED, 0)
        out.update({"nn.load_checkpoint.calls": n, "runner.evaluate.calls": n,
                    "runner.noise_sweep.calls": n,
                    "theory.theorem1_bound.calls": n * len(self.eps)})
        for s in metrics.SCORE_METHODS:
            out[f"metrics.score.{s}.calls"] = 2 * n  # ID and outlier scores
        return out

    def checks(self, outputs: dict, first: dict):
        """For the latest part of each candidate: the checkpoint read back
        bit-exact; every bound holds, with d_ff and lambda_const equal to an
        independent recomputation (and, by the caller, the recorded values);
        no fuzz violation. Also AUROC against a brute-force pair count, and
        the warm-up part's candidate certified again with identical results."""
        out, ref = [], {}
        for i, got in sorted(self.latest.items()):
            method = self.METHODS[i]
            same = np.array_equal(got["model"].get_flat(), self.pool.members[i].get_flat())
            out.append(ck.check(f"{method}.checkpoint_roundtrip", same, self.paths[i].name))
            for eps, rep in zip(self.eps, got["bounds"]):
                key = f"{method}.bound_eps{eps:g}"
                d_ff, lam = ck.bound_terms_reference(self.cov[eps], self.sem,
                                                     self.pool.members[i], self.pool)
                out.append(ck.check(f"{key}.holds", rep.holds,
                                    f"gerror {rep.gerror!r} >= lower {rep.lower_bound!r}"))
                out.append(ck.check(f"{key}.d_ff", ck.close_rel(rep.d_ff, d_ff),
                                    f"{rep.d_ff!r} vs recomputed {d_ff!r}"))
                out.append(ck.check(f"{key}.lambda_const", ck.close_rel(rep.lambda_const, lam),
                                    f"{rep.lambda_const!r} vs recomputed {lam!r}"))
                ref[f"{key}.holds"] = bool(rep.holds)
                ref[f"{key}.d_ff"] = rep.d_ff
                ref[f"{key}.lambda_const"] = rep.lambda_const
            for name, n_bad in got["fuzz"].items():
                out.append(ck.check(f"{method}.fuzz.{name}", n_bad == 0,
                                    f"{n_bad} of {self.FUZZ_PER_PART} violated"))
            ref[f"{method}.auroc"] = got["report"].detection[runner.NATURAL_SCORE[method]][1]
            ref[f"{method}.cov_acc"] = got["report"].cov_acc
        # brute-force AUROC oracle on the latest candidate's diffent scores
        id_eval, _, sem_test = runner.make_eval_datasets(self.cfg)
        model = outputs["model"]
        s = metrics.ScoreSet(
            metrics.score_logits(model.forward(nn.Batch(id_eval.points)), "diffent"),
            metrics.score_logits(model.forward(nn.Batch(sem_test.points)), "diffent"),
            "diffent")
        got, want = metrics.auroc(s), ck.brute_force_auroc(s.id_scores, s.ood_scores)
        out.append(ck.check("auroc.brute_force", abs(got - want) <= 1e-12,
                            f"{got!r} vs pair count {want!r}"))
        again = self.latest[first["part"]]
        same = (again["bounds"] == first["bounds"]
                and again["report"].to_csv() == first["report"].to_csv()
                and runner.sweep_csv(again["sweep"]) == runner.sweep_csv(first["sweep"]))
        out.append(ck.check("deterministic", same,
                            "warm-up candidate certified again with identical results"))
        return out, ref

    def work(self) -> dict:
        return {"setup": "pretrain 30 epochs, finetune oe and dul 5 epochs, "
                         f"{self.PARTS} checkpoints written, "
                         "perturbed_pool(n_perturbed=8), "
                         f"{len(self.fuzz_inputs)} fuzz inputs",
                "pass": f"{self.PARTS} parts, one per candidate: load its checkpoint, "
                        f"evaluate, noise_sweep, theorem1_bound at eps {list(self.eps)}, "
                        f"{self.FUZZ_PER_PART}-case fuzz",
                "pool_size": self.pool.size}


WORKLOADS = {w.name: w for w in (FinetuneDirichlet, TrainSoftmax, Certify)}
