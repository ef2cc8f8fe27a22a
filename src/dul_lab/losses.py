"""Training objectives, one row of named terms per LossSpec.kind in
OBJECTIVES: a base term on the labeled ID logits, then weighted outlier
terms. ce = ce; oe = ce + lam * oe; energy_margin = ce + lam * energy_margin;
dpn = dpn_target + dpn_flat; dul = dirichlet_ce + lam * dul_hinge + gamma *
dul_anchor. Each Dirichlet term, on alpha = relu(f) + 1, is one quantity of the
lab (h: differential entropy): dirichlet_ce is ce on the logits ln alpha;
dpn_target the Dirichlet KL from a sharp target; dpn_flat is KL(Dir(alpha) ||
Dir(1)) = -h(alpha) - ln Gamma(K), which lifts outlier h to its flat maximum,
where dul_hinge stops at the frozen h + dul_margin; dul_anchor is the KL between
the Dirichlet means. Every term returns its value with exact logit gradients;
loss_backward sums them in table order and back-propagates the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import dirichlet as dmath
from .nn import Batch, Mlp


@dataclass(frozen=True)
class LossSpec:
    kind: str
    lam: float = 3.0
    gamma: float = 30.0
    # energy_margin's margins are energies; dul_hinge's is nats of entropy
    m_in: float = -12.0
    m_out: float = -4.0
    dul_margin: float = 0.4
    target_alpha0: float = 15.0
    smoothing: float = 0.01

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"kind must be one of {LOSS_KINDS}")
        for f in fields(self)[1:]:
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.lam < 0 or self.gamma < 0:
            raise ValueError("lam and gamma must be nonnegative")
        # each target concentration target_alpha0 * smoothing / K must be > 0
        if not 0.0 < self.smoothing < 0.5:
            raise ValueError("smoothing must be in (0, 0.5)")


def logsumexp(f: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """ln sum_j exp(f_ij) for each row of a float (n, K) array.

    Each row's maximum is taken out and its ties counted, in the order of
    the library logsumexp the tests compare against, so the result is
    bit-identical to it, rows holding inf or nan included.
    """
    out = _logsumexp(f, f.max(axis=1, keepdims=True))
    return out if keepdims else out[:, 0]


def _logsumexp(f, mx, e=None):
    """logsumexp of each row of f as an (n, 1) column, given the row maxima
    mx and, if already taken, e = exp(f - mx)."""
    top = f == mx
    if np.isfinite(mx).all() and np.count_nonzero(top) == len(f):
        # one finite max per row: the tie count m is 1, so the general
        # path's s / m and + log(m) below change no bit
        s = np.where(top, 0.0, np.exp(f - mx) if e is None else e)
        return np.log1p(s.sum(axis=1, keepdims=True)) + mx
    m = top.sum(axis=1, keepdims=True)
    # a row of infs gives inf - inf, a row with a nan m = 0: both end in
    # the inf or nan the row's sum of exponentials has
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(top, 0.0, np.exp(f - mx)).sum(axis=1, keepdims=True)
        return np.log1p(s / m) + np.log(m) + mx


def softmax(f: np.ndarray) -> np.ndarray:
    """Softmax of each row of a float (n, K) array, shifted by the row max."""
    e = np.exp(f - f.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _logsumexp_softmax(f):
    """logsumexp(f) and softmax(f) from one exp(f - row max)."""
    mx = f.max(axis=1, keepdims=True)
    e = np.exp(f - mx)
    lse = _logsumexp(f, mx, e)[:, 0]
    e /= e.sum(axis=1, keepdims=True)
    return lse, e


def _labeled(logits, labels):
    f = np.asarray(logits, dtype=float)
    y = np.asarray(labels, dtype=int)
    if (y < 0).any() or (y >= f.shape[1]).any():
        raise ValueError("label out of range")
    return f, y


def ce_loss(logits, labels):
    """Mean -ln softmax(f)_y and its gradient."""
    f, y = _labeled(logits, labels)
    n = f.shape[0]
    rows = np.arange(n)
    logp = f - logsumexp(f, keepdims=True)
    value = float(-logp[rows, y].mean())
    grad = np.exp(logp, out=logp)
    grad[rows, y] -= 1.0
    grad /= n
    return value, grad


def oe_per_sample(logits) -> np.ndarray:
    """Cross-entropy between uniform and the softmax prediction, per row."""
    f = np.asarray(logits, dtype=float)
    return logsumexp(f) - f.mean(axis=1)


def energy_scores(logits) -> np.ndarray:
    return -logsumexp(np.asarray(logits, dtype=float))


# Base terms: (spec, ID logits, labels) -> (value, ID gradient)

def _ce(spec, f, y):
    return ce_loss(f, y)


def _dirichlet_ce(spec, f, y):
    """Mean -ln of the Dirichlet mean at the label: softmax(ln alpha) = alpha / alpha0."""
    a = dmath.alpha_rows(f)
    value, g = ce_loss(np.log(a), y)
    return value, g / a * dmath.alpha_jacobian_rows(f)


def _dpn_target(spec, f, y):
    """Mean KL from a sharp target Dirichlet at the label (a smoothed
    one-hot scaled to target_alpha0) to the predicted one."""
    n, k = f.shape
    if spec.target_alpha0 <= k:
        raise ValueError("target_alpha0 must exceed K")
    f, y = _labeled(f, y)
    target = np.full((n, k), spec.smoothing / k)
    target[np.arange(n), y] += 1.0 - spec.smoothing
    target = spec.target_alpha0 * target
    pred = dmath.alpha_rows(f)
    grad = (dmath.kl_dirichlet_grad_second_rows(target, pred)
            * dmath.alpha_jacobian_rows(f)) / n
    return np.sum(dmath.kl_dirichlet_rows(target, pred)) / n, grad


# Outlier terms, weighted: (spec, ID logits, outlier logits, frozen outlier
# logits or None) -> (value, ID gradient or None, outlier gradient)

def _oe(spec, fi, fo, f0):
    """lam x mean uniform cross-entropy, least (ln K) at a uniform softmax."""
    n, k = fo.shape
    lse, go = _logsumexp_softmax(fo)
    value = spec.lam * float((lse - fo.mean(axis=1)).mean())  # oe_per_sample's mean
    go -= 1.0 / k
    go /= n
    go *= spec.lam
    return value, None, go


def _energy_margin(spec, fi, fo, f0):
    """lam x squared hinges on energies: ID pushed below m_in, outliers
    above m_out. dE/df = -softmax(f)."""
    (lse_i, gi), (lse_o, go) = _logsumexp_softmax(fi), _logsumexp_softmax(fo)
    hi = np.maximum(-lse_i - spec.m_in, 0.0)  # energy = -logsumexp
    ho = np.maximum(spec.m_out + lse_o, 0.0)  # m_out - energy
    value = spec.lam * float((hi**2).mean() + (ho**2).mean())
    np.negative(gi, out=gi)
    gi *= (2.0 * hi / fi.shape[0])[:, None]
    gi *= spec.lam
    go *= (2.0 * ho / fo.shape[0])[:, None]
    go *= spec.lam
    return value, gi, go


def _dpn_flat(spec, fi, fo, f0):
    """Mean KL from the predicted outlier Dirichlet to the flat one, -h - ln Gamma(K)."""
    m, k = fo.shape
    a = dmath.alpha_rows(fo)
    go = -dmath.diff_entropy_grad_rows(a) * dmath.alpha_jacobian_rows(fo) / m
    return -(np.sum(dmath.diff_entropy_rows(a)) / m) - math.lgamma(k), None, go


def _dul_alphas(fo, f0):
    """Current and frozen (constant) outlier concentrations, current Jacobian."""
    if f0 is None:
        raise ValueError("dul needs the frozen pretrained model")
    if fo.shape != f0.shape:
        raise ValueError("current and frozen outlier logits must share a shape")
    return dmath.alpha_rows(fo), dmath.alpha_rows(f0), dmath.alpha_jacobian_rows(fo)


def _dul_hinge(spec, fi, fo, f0):
    """lam x a linear hinge that lifts each outlier's differential entropy
    to at least the frozen model's plus dul_margin."""
    a, a_frozen, jac = _dul_alphas(fo, f0)
    hinge = np.maximum(0.0, (dmath.diff_entropy_rows(a_frozen) + spec.dul_margin)
                       - dmath.diff_entropy_rows(a))
    slope = np.where(hinge > 0, -1.0, 0.0)
    galpha = slope[:, None] * dmath.diff_entropy_grad_rows(a)
    return (spec.lam * np.sum(hinge) / len(fo), None,
            spec.lam * (galpha * jac) / len(fo))


def _dul_anchor(spec, fi, fo, f0):
    """gamma x KL from the predicted class distribution on outliers to the
    frozen model's, which keeps total uncertainty where it was."""
    a, a_frozen, jac = _dul_alphas(fo, f0)
    a0 = a.sum(axis=1)
    p = a / a0[:, None]
    p0 = a_frozen / a_frozen.sum(axis=1, keepdims=True)
    lr = np.log(p) - np.log(p0)
    kl = np.sum(p * lr, axis=1)
    # d KL(p||p0) / d alpha_j = (ln(p_j/p0_j) - KL) / alpha0
    galpha = (lr - kl[:, None]) / a0[:, None]
    return (spec.gamma * np.sum(kl) / len(fo), None,
            spec.gamma * (galpha * jac) / len(fo))


# kind -> (base term, outlier terms...)
OBJECTIVES = {
    "ce": (_ce,),
    "oe": (_ce, _oe),
    "energy_margin": (_ce, _energy_margin),
    "dpn": (_dpn_target, _dpn_flat),
    "dul": (_dirichlet_ce, _dul_hinge, _dul_anchor),
}
LOSS_KINDS = tuple(OBJECTIVES)


def loss_backward(m: Mlp, id_batch: Batch, spec: LossSpec,
                  ood_batch: Batch | None = None,
                  frozen: Mlp | None = None):
    """Value and exact parameter gradients of spec's objective, its terms
    summed in table order. A kind with outlier terms needs an outlier batch,
    and dul the frozen pretrained model, forwarded on it whenever given."""
    if id_batch.labels is None:
        raise ValueError("ID batch must be labeled")
    base, *terms = OBJECTIVES[spec.kind]
    id_logits, id_cache = m.forward_cache(id_batch.points)
    value, gi = base(spec, id_logits, id_batch.labels)
    if not terms:
        return value, m.backward(id_cache, gi)
    if ood_batch is None:
        raise ValueError(f"loss kind {spec.kind!r} needs an outlier batch")
    ood_logits, ood_cache = m.forward_cache(ood_batch.points)
    frozen_logits = None if frozen is None else frozen.forward(ood_batch)
    values, gis, gos = zip(*(term(spec, id_logits, ood_logits, frozen_logits)
                             for term in terms))
    gi = sum((g for g in gis if g is not None), gi)
    go = sum(gos[1:], gos[0])
    return float(value + sum(values)), [
        (gw + ow, gb + ob) for (gw, gb), (ow, ob)
        in zip(m.backward(id_cache, gi), m.backward(ood_cache, go))]
