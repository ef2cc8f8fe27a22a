"""Dirichlet-based uncertainty quantities with closed-form gradients.

All entropies are in nats. A model's logits are mapped to Dirichlet
concentration parameters, whose differential entropy serves as the
distributional-uncertainty measure; the Dirichlet mean is the predicted
class distribution.

Each formula is written once, as a row kernel (a ``*_rows`` function) over an
(n, K) array holding one distribution per row; the kernels are the API, and
the losses and scores call them on whole batches. The one-distribution
functions (total_uncertainty, expected_data_entropy, mutual_information and
kl_categorical) serve the inequality checks in theory and the verify fuzz,
which call them 10,000 times: each value object caches its np.log and
sp.digamma values, and the sums are Python ``+=`` loops in index order.
That is numpy's own order for K < 8, so each value equals the numpy form bit
for bit there; from K = 8 numpy's pairwise sum reorders the additions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special as sp


@dataclass(frozen=True)
class DirichletParams:
    """Concentration vector alpha (all entries > 0) and its sum alpha0."""

    alpha: np.ndarray
    alpha0: float = field(init=False)

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)  # a copy: cached values derive from it
        if alpha.ndim != 1 or alpha.size < 2:
            raise ValueError("alpha must be a 1-D vector with K >= 2")
        if not all(0.0 < v < math.inf for v in alpha.tolist()):  # also rejects NaN
            raise ValueError("alpha entries must be finite and positive")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha0", float(alpha.sum()))
        if not math.isfinite(self.alpha0):
            raise ValueError("alpha entries must sum to a finite alpha0")

    @cached_property
    def _entropies(self) -> tuple:
        """(total uncertainty, expected data entropy), computed once."""
        mean = self.alpha / self.alpha0
        log_mean = np.log(np.where(mean > 0, mean, 1.0))  # 0 ln 0 := 0
        psi = sp.digamma(np.append(self.alpha, self.alpha0) + 1.0).tolist()
        tu = au = 0.0
        for m, log_m, psi_k in zip(mean.tolist(), log_mean.tolist(), psi):
            tu += m * log_m
            au += m * (psi_k - psi[-1])
        return -tu, -au


@dataclass(frozen=True)
class SimplexVector:
    """Probability vector: nonnegative entries summing to one."""

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)  # a copy: cached values derive from it
        if p.ndim != 1 or p.size < 1:
            raise ValueError("p must be a nonempty 1-D vector")
        values = p.tolist()
        if not all(0.0 <= v <= 1.0 for v in values):  # also rejects NaN
            raise ValueError("entries must lie in [0, 1]")
        if abs(p.sum() - 1.0) > 1e-12 * p.size:
            raise ValueError("entries must sum to 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_values", values)

    @cached_property
    def _logs(self) -> list:
        """ln p_k as floats; -inf where p_k = 0, which no caller reads."""
        with np.errstate(divide="ignore"):
            return np.log(self.p).tolist()

    @property
    def k(self) -> int:
        return self.p.size


# -- row kernels: one distribution per row of an (n, K) array -------------

ALPHA_MAPPINGS = ("relu_plus_one", "exp_relu")


def alpha_rows(logits, mapping: str = "relu_plus_one") -> np.ndarray:
    """Map each row of raw logits to Dirichlet concentrations.

    relu_plus_one: alpha_k = max(0, f_k) + 1
    exp_relu:      alpha_k = exp(max(0, f_k))
    """
    f = np.asarray(logits, dtype=float)
    if f.ndim != 2 or f.shape[1] < 2:
        raise ValueError("logits must be an (n, K) array with K >= 2")
    if not np.all(np.isfinite(f)):
        raise ValueError("logits must be finite")
    if mapping == "relu_plus_one":
        return np.maximum(f, 0.0) + 1.0
    if mapping == "exp_relu":
        return np.exp(np.maximum(f, 0.0))
    raise ValueError(f"alpha mapping must be one of {ALPHA_MAPPINGS}, got {mapping!r}")


def alpha_jacobian_rows(logits, mapping: str = "relu_plus_one") -> np.ndarray:
    """d alpha_k / d f_k per row (the mapping is elementwise, so the
    Jacobian is diagonal); 0 on the relu kink f_k = 0."""
    f = np.asarray(logits, dtype=float)
    active = (f > 0).astype(float)
    if mapping == "relu_plus_one":
        return active
    if mapping == "exp_relu":
        return active * np.exp(np.maximum(f, 0.0))
    raise ValueError(f"alpha mapping must be one of {ALPHA_MAPPINGS}, got {mapping!r}")


def diff_entropy_rows(alpha: np.ndarray) -> np.ndarray:
    """Differential entropy of Dir(alpha) per row; higher means flatter."""
    a0 = alpha.sum(axis=1)
    return (np.sum(sp.gammaln(alpha), axis=1)
            - sp.gammaln(a0)
            - np.sum((alpha - 1.0) * (sp.digamma(alpha) - sp.digamma(a0)[:, None]),
                     axis=1))


def diff_entropy_grad_rows(alpha: np.ndarray) -> np.ndarray:
    """d h / d alpha_k = -(alpha_k - 1) psi_1(alpha_k) + (alpha0 - K) psi_1(alpha0)."""
    a0 = alpha.sum(axis=1)
    k = alpha.shape[1]
    return (-(alpha - 1.0) * sp.polygamma(1, alpha)
            + ((a0 - k) * sp.polygamma(1, a0))[:, None])


def _same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")


def kl_dirichlet_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """KL(Dir(a_i) || Dir(b_i)) for each pair of rows."""
    _same_shape(a, b)
    a0, b0 = a.sum(axis=1), b.sum(axis=1)
    return (sp.gammaln(a0)
            - np.sum(sp.gammaln(a), axis=1)
            - sp.gammaln(b0)
            + np.sum(sp.gammaln(b), axis=1)
            + np.sum((a - b) * (sp.digamma(a) - sp.digamma(a0)[:, None]), axis=1))


def kl_dirichlet_grad_first_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of kl_dirichlet_rows with respect to the first argument."""
    _same_shape(a, b)
    diff = a - b
    return (diff * sp.polygamma(1, a)
            - (diff.sum(axis=1) * sp.polygamma(1, a.sum(axis=1)))[:, None])


def kl_dirichlet_grad_second_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of kl_dirichlet_rows with respect to the second argument."""
    _same_shape(a, b)
    return (sp.digamma(b) - sp.digamma(b.sum(axis=1))[:, None]
            - (sp.digamma(a) - sp.digamma(a.sum(axis=1))[:, None]))


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
