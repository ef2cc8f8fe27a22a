"""Training, evaluation, sweeps, and the verification suite."""

from __future__ import annotations

import math

import numpy as np

from . import config as cfgmod
from . import data as datamod
from . import dirichlet as dmath
from . import losses as lossmod
from . import metrics as metmod
from . import theory as thmod
from .config import METHODS, TrainConfig, stream_key, substream
from .losses import LossSpec
from .metrics import EvalReport, ScoreSet, csv_table
from .nn import Batch, Mlp, cosine_lr, mlp_init, sgd_step

# a view of config.METHODS that the benchmark under perfbench/ reads
NATURAL_SCORE = {method: row.detector for method, row in METHODS.items()}


def make_datasets(cfg: TrainConfig):
    """Training datasets: labeled ID blobs and the semantic outlier pool."""
    id_train = datamod.make_id_blobs(
        cfg.k, cfg.n_per_class, cfg.radius, cfg.sigma,
        seed=stream_key(cfg.seed, cfgmod.STREAM_ID_DATA))
    sem_train = datamod.make_semantic_ood(
        "train", cfg.n_sem_train, seed=stream_key(cfg.seed, cfgmod.STREAM_SEM_TRAIN),
        k=cfg.k, sigma=cfg.sigma)
    return id_train, sem_train

def make_eval_datasets(cfg: TrainConfig):
    """Held-out ID, covariate-shifted copies at each eps, and test outliers.

    Each COV set is the held-out ID points plus one N(0, 1) draw scaled by
    eps, labels kept, so method and eps comparisons are paired.
    """
    id_eval = datamod.make_id_blobs(
        cfg.k, cfg.n_eval_id // cfg.k, cfg.radius, cfg.sigma,
        seed=stream_key(cfg.seed, cfgmod.STREAM_EVAL_ID))
    noise = substream(cfg.seed, cfgmod.STREAM_COV).standard_normal(id_eval.points.shape)
    cov = {eps: Batch(id_eval.points + eps * noise, id_eval.labels)
           for eps in cfg.eps_grid}
    sem_test = datamod.make_semantic_ood(
        "test", cfg.n_sem_test, seed=stream_key(cfg.seed, cfgmod.STREAM_SEM_TEST),
        k=cfg.k, sigma=cfg.sigma)
    return id_eval, cov, sem_test


def _loss_spec(cfg: TrainConfig) -> LossSpec:
    return cfg.loss_spec(METHODS[cfg.method].kind)


def _train_loop(start: Mlp, cfg: TrainConfig, spec: LossSpec, epochs: int,
                lr0: float) -> Mlp:
    id_data, sem_data = make_datasets(cfg)
    draws_outliers = len(lossmod.OBJECTIVES[spec.kind]) > 1
    rng = substream(cfg.seed, cfgmod.STREAM_BATCH)
    model, velocity = start, None
    n = id_data.n
    for epoch in range(epochs):
        lr = cosine_lr(epoch, epochs, lr0)
        order = rng.permutation(n)
        for step, first in enumerate(range(0, n, cfg.batch_id)):
            idx = order[first:first + cfg.batch_id]
            batch = Batch(id_data.points[idx], id_data.labels[idx])
            ood_batch = None
            if draws_outliers:
                oidx = rng.integers(0, sem_data.n, size=cfg.batch_ood)
                ood_batch = Batch(sem_data.points[oidx])
            value, grads = lossmod.loss_backward(model, batch, spec,
                                                 ood_batch=ood_batch,
                                                 frozen=start)
            if not math.isfinite(value):
                raise FloatingPointError(
                    f"non-finite {spec.kind} loss {value} at epoch {epoch}, step {step}")
            model, velocity = sgd_step(model, grads, velocity, lr, cfg.momentum)
    return model


def pretrain(cfg: TrainConfig) -> Mlp:
    """Cross-entropy training on ID blobs."""
    return _train_loop(mlp_init(cfg.arch, seed=stream_key(cfg.seed, cfgmod.STREAM_INIT)),
                       cfg, LossSpec(METHODS["none"].kind), cfg.pretrain_epochs, cfg.lr0)


def finetune(cfg: TrainConfig, pretrained: Mlp) -> Mlp:
    """Finetune with the configured method's objective from the pretrained
    model, which stays frozen as the reference for dul."""
    if cfg.method == "none":
        raise ValueError("finetune requires a method other than 'none'")
    return _train_loop(pretrained, cfg, _loss_spec(cfg), cfg.finetune_epochs,
                       cfg.finetune_lr0)


def evaluate(cfg: TrainConfig, model: Mlp) -> EvalReport:
    """Detection metrics for every scoring method on held-out data, plus
    ID and COV accuracy and mean uncertainties, COV at the last eps."""
    id_eval, cov, sem_test = make_eval_datasets(cfg)
    cov_eval = cov[cfg.eps_grid[-1]]
    id_logits, cov_logits, sem_logits = (model.forward(d)
                                         for d in (id_eval, cov_eval, sem_test))
    detection = {}
    for method in metmod.SCORE_METHODS:
        s = ScoreSet(metmod.score_logits(id_logits, method),
                     metmod.score_logits(sem_logits, method), method)
        detection[method] = (metmod.fpr_at_95tpr(s), metmod.auroc(s), metmod.aupr(s))
    return EvalReport(
        detection=detection,
        id_acc=metmod.accuracy(id_logits, id_eval.labels),
        cov_acc=metmod.accuracy(cov_logits, cov_eval.labels),
        uncertainty=tuple(metmod.uncertainty_stats(f)
                          for f in (id_logits, cov_logits, sem_logits)))


def noise_sweep(cfg: TrainConfig, model: Mlp):
    """Per-eps covariate accuracy and mean uncertainties. The reported
    distributional uncertainty is shifted by its value on the clean ID set.
    Returns a list of dict rows."""
    _, cov, _ = make_eval_datasets(cfg)
    base_du = None
    rows = []
    for eps in cfg.eps_grid:
        d = cov[eps]
        logits = model.forward(d)
        du, tu = metmod.uncertainty_stats(logits)
        if base_du is None:
            base_du = du  # first grid entry is eps = 0, i.e. the ID set
        rows.append({
            "eps": float(eps),
            "cov_acc": metmod.accuracy(logits, d.labels),
            "shifted_du": du - base_du,
            "mean_du": du,
            "mean_total": tu,
        })
    return rows


SWEEP_COLUMNS = ("eps", "cov_acc", "shifted_du", "mean_du", "mean_total")


def sweep_csv(rows) -> str:
    return csv_table(SWEEP_COLUMNS, ([r[c] for c in SWEEP_COLUMNS] for r in rows))


def _train_methods(cfg: TrainConfig, methods) -> dict:
    """Pretrain, then finetune the pretrained model with each listed method.
    Returns method -> model, with the pretrained model under "none"."""
    base = pretrain(cfg)
    models = {"none": base}
    for method in methods:
        models[method] = finetune(cfg.with_(method=method), base)
    return models


def dilemma_table(cfg: TrainConfig):
    """Pretrain, finetune each method, and evaluate every model. Returns the
    models and their full reports, each by method."""
    models = _train_methods(cfg, tuple(METHODS)[1:])
    return models, {method: evaluate(cfg, model) for method, model in models.items()}


def dilemma_csv(reports) -> str:
    """Each method's natural-detector metrics next to its accuracies."""
    return csv_table(
        ("method", "score", "fpr95", "auroc", "aupr", "id_acc", "cov_acc"),
        ([method, METHODS[method].detector, *r.detection[METHODS[method].detector],
          r.id_acc, r.cov_acc] for method, r in reports.items()))


# cases of the Pinsker, Bretagnolle-Huber, Lemma 2 and decomposition fuzz
_FUZZ = 10_000


def _fuzz_checks(cfg: TrainConfig) -> list:
    """The special-function recurrences and the Pinsker, Bretagnolle-Huber,
    Lemma 2 and uncertainty-decomposition fuzz; one row per check."""
    rng = substream(cfg.seed, cfgmod.STREAM_FUZZ)
    checks = []

    # digamma/trigamma recurrences, on the scipy calls the kernels make
    xs = rng.uniform(1e-6, 100.0, size=1000)
    dig = np.max(np.abs(dmath.sp.digamma(xs + 1.0) - dmath.sp.digamma(xs) - 1.0 / xs)
                 / np.maximum(1.0, 1.0 / xs))
    tri = np.max(np.abs(dmath.sp.zeta(2.0, xs + 1.0) - dmath.sp.zeta(2.0, xs)
                        + 1.0 / xs**2) / np.maximum(1.0, 1.0 / xs**2))
    checks.append(("digamma_recurrence", dig, 1e-12, dig <= 1e-12))
    checks.append(("trigamma_recurrence", tri, 1e-12, tri <= 1e-12))

    # Pinsker / Bretagnolle-Huber / Lemma 2 / uncertainty decomposition; a
    # case counts unless its check holds, so a NaN is a violation
    bad = dict.fromkeys(("pinsker", "bretagnolle_huber", "lemma2",
                         "uncertainty_decomposition", "mutual_information_nonneg"), 0)
    for _ in range(_FUZZ):
        k = int(rng.integers(2, 6))
        p = dmath.SimplexVector(rng.dirichlet(np.ones(k)))
        q = dmath.SimplexVector(rng.dirichlet(np.ones(k)))
        bad["pinsker"] += not thmod.pinsker_check(p, q)["holds"]
        bad["bretagnolle_huber"] += not thmod.bretagnolle_huber_check(p, q)["holds"]
        alpha = dmath.DirichletParams(rng.uniform(0.05, 50.0, size=k))
        tu = dmath.total_uncertainty(alpha)
        au = dmath.expected_data_entropy(alpha)
        mi = dmath.mutual_information(alpha)
        bad["uncertainty_decomposition"] += not abs(tu - (au + mi)) <= 1e-12
        bad["mutual_information_nonneg"] += not mi >= -1e-12
    lemma2 = thmod.lemma2_check(rng.normal(0.0, 5.0, size=(_FUZZ, 4)))
    bad["lemma2"] = lemma2["row_violations"]
    return checks + [(name, n, 0, n == 0 and (name != "lemma2" or lemma2["holds"]))
                     for name, n in bad.items()]


def _theorem1_check(cfg: TrainConfig, candidates) -> tuple:
    """The Theorem-1 bound for each trained candidate at the first and last
    eps, in one pool of the candidates and perturbed copies of the first;
    one row counting the violations."""
    pool = thmod.perturbed_pool(candidates, n_perturbed=8,
                                seed=stream_key(cfg.seed, cfgmod.STREAM_POOL))
    _, cov, sem_test = make_eval_datasets(cfg)
    n_thm = sum(not thmod.theorem1_bound(cov[eps], sem_test, model, pool).holds
                for model in candidates for eps in (cfg.eps_grid[0], cfg.eps_grid[-1]))
    return ("theorem1_lower_bound", n_thm, 0, n_thm == 0)


def verify(cfg: TrainConfig, quick: bool = False):
    """Run the inequality and identity suites. Returns a list of
    (name, lhs, rhs, passed) tuples; a failed row means an implementation
    bug, not a modeling artifact."""
    checks = _fuzz_checks(cfg)
    run_cfg = cfg.with_(pretrain_epochs=min(cfg.pretrain_epochs, 30),
                        finetune_epochs=min(cfg.finetune_epochs, 5)) \
        if quick else cfg
    candidates = list(_train_methods(
        run_cfg, ("oe", "dul") if quick else tuple(METHODS)[1:]).values())
    checks.append(_theorem1_check(run_cfg, candidates))
    return checks


def verify_csv(checks) -> str:
    # str keeps residuals near 1e-16 readable where %.6f would print 0
    return csv_table(("check", "lhs", "rhs", "pass"),
                     ((name, str(lhs), str(rhs), int(ok)) for name, lhs, rhs, ok in checks))
