"""Dirichlet-based uncertainty quantities with closed-form gradients.

All entropies are in nats. A model's logits f are mapped to Dirichlet
concentration parameters by the evidential mapping alpha = relu(f) + 1
(Sensoy et al., 2018), the only mapping the lab uses. Their differential
entropy serves as the distributional-uncertainty measure; the Dirichlet
mean is the predicted class distribution.

Each formula is written once, as a row kernel (a ``*_rows`` function) over an
(n, K) array holding one distribution per row; the kernels are the API, and
the losses and scores call them on whole batches. The one-distribution
functions (total_uncertainty, expected_data_entropy, mutual_information and
kl_categorical) serve the inequality checks in theory and the verify fuzz,
which call them 10,000 times: each value object computes them once, at
construction from a read-only copy, with Python ``+=`` sums in index order:
numpy's own order for K < 8, so each value equals the numpy form bit for
bit there; from K = 8 numpy's pairwise sum reorders the additions.

scipy.special, which supplies gammaln, digamma and the trigamma function
(as the Hurwitz zeta(2, x), bit for bit polygamma(1, x) without the digamma
that polygamma also evaluates), is imported the first time one of them is
called, so the softmax methods (ce, oe and energy), which call none, never
import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class _LazySpecial:
    """Stands in for scipy.special until the first attribute read, which
    imports it and rebinds the module name ``sp`` to it."""

    def __getattr__(self, name):
        global sp
        from scipy import special as sp
        return getattr(sp, name)


sp = _LazySpecial()


@dataclass(frozen=True, eq=False)
class DirichletParams:
    """Concentration vector alpha (all entries > 0) and its sum alpha0."""

    alpha: np.ndarray
    alpha0: float = field(init=False)

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)  # a copy: the values derive from it
        if alpha.ndim != 1 or alpha.size < 2:
            raise ValueError("alpha must be a 1-D vector with K >= 2")
        alpha.setflags(write=False)
        values = alpha.tolist()
        alpha0 = 0.0
        for v in values:
            if not 0.0 < v < math.inf:  # also rejects NaN
                raise ValueError("alpha entries must be finite and positive")
            alpha0 += v  # not sum(): from Python 3.12 it compensates float sums
        if not math.isfinite(alpha0):
            raise ValueError("alpha entries must sum to a finite alpha0")
        mean = [v / alpha0 for v in values]
        log_mean = np.log([m if m > 0.0 else 1.0 for m in mean]).tolist()  # 0 ln 0 := 0
        psi = sp.digamma([v + 1.0 for v in values] + [alpha0 + 1.0]).tolist()
        tu = au = 0.0
        for m, log_m, psi_k in zip(mean, log_mean, psi):
            tu += m * log_m
            au += m * (psi_k - psi[-1])
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha0", alpha0)
        object.__setattr__(self, "_entropies", (-tu, -au))  # (TU, AU)


@dataclass(frozen=True, eq=False)
class SimplexVector:
    """Probability vector: nonnegative entries summing to one."""

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)  # a copy: the values derive from it
        if p.ndim != 1 or p.size < 1:
            raise ValueError("p must be a nonempty 1-D vector")
        p.setflags(write=False)
        values = p.tolist()
        total = 0.0
        for v in values:
            if not 0.0 <= v <= 1.0:  # also rejects NaN
                raise ValueError("entries must lie in [0, 1]")
            total += v
        if abs(total - 1.0) > 1e-12 * len(values):
            raise ValueError("entries must sum to 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_values", values)
        logs = np.log([v if v > 0.0 else 1.0 for v in values])  # 0 at p_k = 0: never read
        object.__setattr__(self, "_logs", logs.tolist())

    @property
    def k(self) -> int:
        return self.p.size


# -- row kernels: one distribution per row of an (n, K) array -------------

def alpha_rows(logits) -> np.ndarray:
    """Map each row of raw logits to Dirichlet concentrations,
    alpha_k = max(0, f_k) + 1."""
    f = np.asarray(logits, dtype=float)
    if f.ndim != 2 or f.shape[1] < 2:
        raise ValueError("logits must be an (n, K) array with K >= 2")
    if not np.all(np.isfinite(f)):
        raise ValueError("logits must be finite")
    return np.maximum(f, 0.0) + 1.0


def alpha_jacobian_rows(logits) -> np.ndarray:
    """d alpha_k / d f_k per row (the mapping is elementwise, so the
    Jacobian is diagonal); 0 on the relu kink f_k = 0."""
    return (np.asarray(logits, dtype=float) > 0).astype(float)


def diff_entropy_rows(alpha: np.ndarray) -> np.ndarray:
    """Differential entropy of Dir(alpha) per row; higher means flatter."""
    a0 = alpha.sum(axis=1)
    return (np.sum(sp.gammaln(alpha), axis=1)
            - sp.gammaln(a0)
            - np.sum((alpha - 1.0) * (sp.digamma(alpha) - sp.digamma(a0)[:, None]),
                     axis=1))


def diff_entropy_logit_grad_rows(logits, alpha: np.ndarray) -> np.ndarray:
    """d h(alpha) / d f per row, for alpha = alpha_rows(f): where f_k > 0,
    d h / d alpha_k = -(alpha_k - 1) psi_1(alpha_k) + (alpha0 - K) psi_1(alpha0);
    where f_k <= 0 (the kink included) it is 0, the Jacobian's entry, so the
    trigamma psi_1 is evaluated only on positive entries and row sums."""
    pos = np.asarray(logits) > 0
    k = alpha.shape[1]
    a0 = alpha.sum(axis=1)
    a = alpha[pos]
    grad = np.zeros_like(alpha)
    grad[pos] = (-(a - 1.0) * sp.zeta(2.0, a)
                 + ((a0 - k) * sp.zeta(2.0, a0))[np.nonzero(pos)[0]])
    return grad


def kl_dirichlet_rows(alpha: np.ndarray, first: np.ndarray, index):
    """KL(Dir(first[index_i]) || Dir(alpha_i)) for each row i of alpha, and
    its gradient with respect to alpha_i. The first arguments are given once
    each, as the rows of first (dpn's K targets), so their gammaln and
    digamma terms are computed per row of first, not per row of alpha."""
    if first.ndim != 2 or first.shape[1] != alpha.shape[1]:
        raise ValueError("dimension mismatch")
    f0 = first.sum(axis=1)
    lg_first = (sp.gammaln(f0) - np.sum(sp.gammaln(first), axis=1))[index]
    psi_first = (sp.digamma(first) - sp.digamma(f0)[:, None])[index]
    a0 = alpha.sum(axis=1)
    kl = (lg_first
          - sp.gammaln(a0)
          + np.sum(sp.gammaln(alpha), axis=1)
          + np.sum((first[index] - alpha) * psi_first, axis=1))
    return kl, sp.digamma(alpha) - sp.digamma(a0)[:, None] - psi_first


def categorical_entropy_rows(p: np.ndarray) -> np.ndarray:
    """-sum_k p_k ln p_k per row, with 0 ln 0 := 0."""
    logp = np.log(np.where(p > 0, p, 1.0))
    return -(p * logp).sum(axis=1)


def total_uncertainty_rows(alpha: np.ndarray) -> np.ndarray:
    """Entropy of each row's expected categorical alpha / alpha0."""
    return categorical_entropy_rows(alpha / alpha.sum(axis=1, keepdims=True))


# -- one distribution: the inequality checks and the verify fuzz --------

def expected_data_entropy(d: DirichletParams) -> float:
    """E_mu[H(Cat(mu))] = -sum_k (alpha_k/alpha0) (psi(alpha_k+1) - psi(alpha0+1))."""
    return d._entropies[1]


def total_uncertainty(d: DirichletParams) -> float:
    """Entropy of the expected categorical."""
    return d._entropies[0]


def mutual_information(d: DirichletParams) -> float:
    """Distributional spread: total uncertainty minus expected data entropy."""
    return total_uncertainty(d) - expected_data_entropy(d)


def kl_categorical(p: SimplexVector, q: SimplexVector) -> float:
    """KL(p || q) in nats; requires q > 0 on the support of p."""
    if p.k != q.k:
        raise ValueError("length mismatch")
    kl = 0.0
    for p_k, log_p, q_k, log_q in zip(p._values, p._logs, q._values, q._logs):
        if p_k > 0.0:
            if not q_k > 0.0:
                raise ValueError("q must be positive wherever p is")
            kl += p_k * (log_p - log_q)
    return kl
