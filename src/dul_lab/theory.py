"""Numeric verification of the detection-vs-generalization bound.

Total variation, disparity, disparity discrepancy over a finite model pool,
the two supporting lemma inequalities, and the generalization-error lower
bound. Every check here is a theorem on the empirical samples: a violation
(beyond float tolerance) indicates an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, softmax

from .data import LabeledDataset
from .dirichlet import SimplexVector, kl_categorical
from .losses import oe_per_sample
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


def perturbed_pool(models, n_perturbed: int = 8, rel_sigma: float = 0.01,
                   seed: int = 0) -> HypothesisPool:
    """Pool of the given models plus Gaussian-perturbed copies of the first
    one (noise scale = rel_sigma times the parameter RMS)."""
    members = list(models)
    base = members[0]
    theta = base.get_flat()
    sigma = rel_sigma * float(np.sqrt(np.mean(theta**2)))
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
    return float(0.5 * np.sum(np.abs(p.p - q.p)))


def _tvd_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 0.5 * np.sum(np.abs(a - b), axis=1)


def disparity(samples, f: Mlp, f2: Mlp) -> float:
    """Mean TVD between the two models' softmax predictions on the samples."""
    x = np.asarray(samples, dtype=float)
    if x.shape[0] < 1:
        raise ValueError("need at least one sample")
    pa = softmax(f.forward(Batch(x)), axis=1)
    pb = softmax(f2.forward(Batch(x)), axis=1)
    return float(_tvd_rows(pa, pb).mean())


def _member_softmax(samples, members) -> list:
    """Each member's softmax predictions on the samples, one forward each."""
    batch = Batch(samples)
    return [softmax(f.forward(batch), axis=1) for f in members]


def _max_pair_gap(p_probs: list, q_probs: list) -> float:
    """Max over ordered member pairs of the P disparity minus the Q
    disparity, from each member's softmax on P and on Q."""
    best = 0.0  # the identical pair always attains 0
    for a, b in zip(p_probs, q_probs):
        for a2, b2 in zip(p_probs, q_probs):
            gap = float(_tvd_rows(a, a2).mean()) - float(_tvd_rows(b, b2).mean())
            best = max(best, gap)
    return best


def disparity_discrepancy(p_samples, q_samples, pool: HypothesisPool) -> float:
    """Max over ordered model pairs of disparity(P) - disparity(Q)."""
    return _max_pair_gap(_member_softmax(p_samples, pool.members),
                         _member_softmax(q_samples, pool.members))


def lemma2_check(ood_logits) -> dict:
    """Mean TVD to uniform vs the mean uniform-CE slack bound, and the
    number of rows whose own TVD exceeds their own bound."""
    f = np.asarray(ood_logits, dtype=float)
    k = f.shape[1]
    probs = softmax(f, axis=1)
    tv = _tvd_rows(probs, np.full_like(probs, 1.0 / k))
    slack = np.maximum(oe_per_sample(f) - np.log(k), 0.0)
    bound = np.sqrt(slack / 2.0)
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
    derivation requires."""
    if cov.labels is None:
        raise ValueError("covariate-shifted data must be labeled")
    members = pool.members if model in pool.members else pool.members + (model,)
    pool = HypothesisPool(members)

    logits_cov = model.forward(Batch(cov.points))
    k = logits_cov.shape[1]
    logp = logits_cov - logsumexp(logits_cov, axis=1, keepdims=True)
    gerror = float(-logp[np.arange(cov.n), cov.labels].mean())

    probs_cov = _member_softmax(cov.points, pool.members)
    probs_sem = _member_softmax(sem.points, pool.members)
    uniform = np.full(k, 1.0 / k)
    lambda_const = np.inf
    for pc, ps in zip(probs_cov, probs_sem):
        val = float(_tvd_rows(pc, uniform[None, :]).mean()
                    + _tvd_rows(ps, uniform[None, :]).mean())
        lambda_const = min(lambda_const, val)

    # one-hot ground truth: TV to uniform is 1 - 1/K and entropy is 0
    c_const = 2.0 * (1.0 - 1.0 / k) - 2.0 * lambda_const - 1.0

    sem_logits = model.forward(Batch(sem.points))
    slack = np.maximum(oe_per_sample(sem_logits) - np.log(k), 0.0)
    detect_term = float(np.sqrt(2.0 * slack).mean())
    d_ff = _max_pair_gap(probs_cov, probs_sem)
    lower_bound = c_const - detect_term - 2.0 * d_ff
    return BoundReport(
        gerror=gerror,
        lower_bound=lower_bound,
        d_ff=d_ff,
        lambda_const=lambda_const,
        c_const=c_const,
        holds=gerror >= lower_bound - 1e-9,
    )
