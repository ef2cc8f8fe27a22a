"""Numeric verification of the detection-vs-generalization bound.

Total variation, disparity, the two supporting lemma inequalities, and the
generalization-error lower bound with its disparity discrepancy over a
finite model pool. Every check here is a theorem on the empirical samples:
a violation (beyond float tolerance) indicates an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dirichlet import SimplexVector, kl_categorical
from .losses import ce_loss, oe_per_sample, softmax
from .nn import Batch, Mlp


class _SetTerms(NamedTuple):
    """What one sample set and the pool alone determine."""

    k: int
    tv_uniform: np.ndarray  # (M,) each member's mean TVD to uniform
    disparities: np.ndarray  # (M, M) mean TVDs between members
    ce: list | None  # each member's cross-entropy, when the set is labeled
    detect: list  # each member's mean sqrt(2 * uniform-CE slack)


@dataclass(frozen=True)
class HypothesisPool:
    """Finite surrogate for a hypothesis space: trained checkpoints plus
    parameter-perturbed variants."""

    members: tuple
    # sample-set content -> _SetTerms; left out of ==, hash and repr
    _terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("pool must be nonempty")
        dims = {(m.in_dim, m.out_dim) for m in self.members}
        if len(dims) > 1:
            raise ValueError("pool members must share input/output dimensions")

    @property
    def size(self) -> int:  # no lab caller; the benchmark under perfbench/ reads it
        return len(self.members)

    def _set_terms(self, d: Batch) -> _SetTerms:
        """The members' terms on one sample set, from one forward per member
        the first time the set's content is seen. The key is the content,
        so a set written in place is computed afresh."""
        key = (d.points.shape, d.points.tobytes(),
               None if d.labels is None else d.labels.tobytes())
        terms = self._terms.get(key)
        if terms is None:
            logits = [f.forward(d) for f in self.members]
            probs = np.stack([softmax(f) for f in logits])
            k = probs.shape[-1]
            terms = self._terms[key] = _SetTerms(
                k=k,
                tv_uniform=_tvd_rows(probs, 1.0 / k).mean(axis=-1),
                disparities=_disparities(probs),
                ce=None if d.labels is None else [ce_loss(f, d.labels)[0] for f in logits],
                detect=[float(np.sqrt(2.0 * _uniform_ce_slack(f)).mean()) for f in logits])
        return terms


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
    """Mean TVD between the two models' softmax predictions on the samples.
    No lab caller; the benchmark under perfbench/ counts its calls."""
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


def theorem1_bound(cov: Batch, sem: Batch, model: Mlp,
                   pool: HypothesisPool) -> BoundReport:
    """Generalization-error lower bound from the detection loss, the pool
    disparity discrepancy, and the pool surrogate for the minimal joint
    uniformity constant. The model is added to the pool if absent, which the
    derivation requires; a fresh pool then holds it, so the caller's pool is
    left as it was. The pool computes its terms on each sample set once per
    set content (one forward per member) and keeps them, so further calls on
    the same sets, for any member, forward nothing; the model's own terms
    are its entries among them."""
    if cov.labels is None:
        raise ValueError("covariate-shifted data must be labeled")
    if model not in pool.members:
        pool = HypothesisPool(pool.members + (model,))
    own = pool.members.index(model)
    p, q = pool._set_terms(cov), pool._set_terms(sem)

    k = p.k
    gerror = p.ce[own]
    lambda_const = float((p.tv_uniform + q.tv_uniform).min())

    # one-hot ground truth: TV to uniform is 1 - 1/K and entropy is 0
    c_const = 2.0 * (1.0 - 1.0 / k) - 2.0 * lambda_const - 1.0

    detect_term = q.detect[own]
    # max over ordered member pairs of disparity on P minus on Q (Zhang et al. 2019)
    d_ff = float(max(0.0, (p.disparities - q.disparities).max()))
    lower_bound = c_const - detect_term - 2.0 * d_ff
    return BoundReport(
        gerror=gerror,
        lower_bound=lower_bound,
        d_ff=d_ff,
        lambda_const=lambda_const,
        c_const=c_const,
        holds=gerror >= lower_bound - 1e-9,
    )
