"""Numeric verification of the detection-vs-generalization bound.

Total variation, disparity, the two supporting lemma inequalities, and the
generalization-error lower bound with its disparity discrepancy over a
finite model pool. Every check here is a theorem on the empirical samples:
a violation (beyond float tolerance) indicates an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .dirichlet import SimplexVector, kl_categorical
from .losses import ce_loss, oe_per_sample, softmax
from .nn import Batch, Mlp


@dataclass(frozen=True)
class HypothesisPool:
    """Finite surrogate for a hypothesis space: trained checkpoints plus
    parameter-perturbed variants."""

    members: tuple

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("pool must be nonempty")
        dims = {(m.in_dim, m.out_dim) for m in self.members}
        if len(dims) > 1:
            raise ValueError("pool members must share input/output dimensions")

    @property
    def size(self) -> int:
        return len(self.members)


POOL_REL_SIGMA = 0.01


def perturbed_pool(models, n_perturbed: int = 8, seed: int = 0) -> HypothesisPool:
    """Pool of the given models plus Gaussian-perturbed copies of the first
    one (noise scale = POOL_REL_SIGMA times the parameter RMS)."""
    members = list(models)
    base = members[0]
    theta = base.get_flat()
    sigma = POOL_REL_SIGMA * float(np.sqrt(np.mean(theta**2)))
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(n_perturbed):
        members.append(base.set_flat(theta + sigma * rng.standard_normal(theta.size)))
    return HypothesisPool(tuple(members))


@dataclass(frozen=True)
class BoundReport:
    gerror: float
    lower_bound: float
    d_ff: float
    lambda_const: float
    c_const: float
    holds: bool


def tvd(p: SimplexVector, q: SimplexVector) -> float:
    """Total variation distance: half the L1 distance on the simplex."""
    if p.k != q.k:
        raise ValueError("length mismatch")
    tv = 0.0
    for p_k, q_k in zip(p._values, q._values):
        tv += abs(p_k - q_k)
    return 0.5 * tv


def _tvd_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Total variation distance along the last axis."""
    return 0.5 * np.abs(a - b).sum(axis=-1)


def disparity(samples, f: Mlp, f2: Mlp) -> float:
    """Mean TVD between the two models' softmax predictions on the samples."""
    x = np.asarray(samples, dtype=float)
    if x.shape[0] < 1:
        raise ValueError("need at least one sample")
    pa = softmax(f.forward(Batch(x)))
    pb = softmax(f2.forward(Batch(x)))
    return float(_tvd_rows(pa, pb).mean())


def _disparities(probs: np.ndarray) -> np.ndarray:
    """M x M mean TVDs between the members' softmaxes in an (M, n, K) stack."""
    return np.array([_tvd_rows(p, probs).mean(axis=-1) for p in probs])


def _uniform_ce_slack(logits: np.ndarray) -> np.ndarray:
    """Per row, how far the uniform cross-entropy exceeds its minimum ln K."""
    return np.maximum(oe_per_sample(logits) - np.log(logits.shape[1]), 0.0)


def lemma2_check(ood_logits) -> dict:
    """Mean TVD to uniform vs the mean uniform-CE slack bound, and the
    number of rows whose own TVD exceeds their own bound."""
    f = np.asarray(ood_logits, dtype=float)
    probs = softmax(f)
    tv = _tvd_rows(probs, 1.0 / f.shape[1])
    bound = np.sqrt(_uniform_ce_slack(f) / 2.0)
    lhs, rhs = float(tv.mean()), float(bound.mean())
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-9,
            "row_violations": int(np.count_nonzero(~(tv <= bound + 1e-9)))}


def pinsker_check(p: SimplexVector, q: SimplexVector) -> dict:
    tv = tvd(p, q)
    kl = kl_categorical(p, q)
    return {"tv": tv, "kl": kl, "holds": 2.0 * tv * tv <= kl + 1e-12}


def bretagnolle_huber_check(p: SimplexVector, q: SimplexVector) -> dict:
    tv = tvd(p, q)
    kl = kl_categorical(p, q)
    bound = float(np.sqrt(1.0 - np.exp(-kl)))
    return {"tv": tv, "kl": kl, "bound": bound, "holds": tv <= bound + 1e-12}


def theorem1_bound(cov: LabeledDataset, sem: LabeledDataset, model: Mlp,
                   pool: HypothesisPool) -> BoundReport:
    """Generalization-error lower bound from the detection loss, the pool
    disparity discrepancy, and the pool surrogate for the minimal joint
    uniformity constant. The model is added to the pool if absent, which the
    derivation requires. Each member is forwarded once per sample set, and
    the model's own terms come from its logits among them."""
    if cov.labels is None:
        raise ValueError("covariate-shifted data must be labeled")
    members = pool.members if model in pool.members else pool.members + (model,)
    HypothesisPool(members)  # an appended model must share the dimensions
    cov_batch, sem_batch = Batch(cov.points), Batch(sem.points)
    logits_cov = [f.forward(cov_batch) for f in members]
    logits_sem = [f.forward(sem_batch) for f in members]
    own = members.index(model)

    k = logits_cov[own].shape[1]
    gerror = ce_loss(logits_cov[own], cov.labels)[0]

    probs_cov = np.stack([softmax(f) for f in logits_cov])
    probs_sem = np.stack([softmax(f) for f in logits_sem])
    lambda_const = float((_tvd_rows(probs_cov, 1.0 / k).mean(axis=-1)
                          + _tvd_rows(probs_sem, 1.0 / k).mean(axis=-1)).min())

    # one-hot ground truth: TV to uniform is 1 - 1/K and entropy is 0
    c_const = 2.0 * (1.0 - 1.0 / k) - 2.0 * lambda_const - 1.0

    detect_term = float(np.sqrt(2.0 * _uniform_ce_slack(logits_sem[own])).mean())
    # max over ordered member pairs of disparity on P minus on Q (Zhang et al. 2019)
    d_ff = float(max(0.0, (_disparities(probs_cov) - _disparities(probs_sem)).max()))
    lower_bound = c_const - detect_term - 2.0 * d_ff
    return BoundReport(
        gerror=gerror,
        lower_bound=lower_bound,
        d_ff=d_ff,
        lambda_const=lambda_const,
        c_const=c_const,
        holds=gerror >= lower_bound - 1e-9,
    )
