"""Training objectives: ID cross-entropy, outlier exposure, energy margin,
Dirichlet prior matching, and decoupled uncertainty learning.

Every loss returns its scalar value together with the exact gradient with
respect to the logits it consumed, so the network backward pass can be
composed from any of them. Composite objectives (the finetuning methods)
are assembled by loss_backward from a LossSpec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dirichlet as dmath
from .nn import Batch, Mlp

LOSS_KINDS = ("ce", "oe", "energy_margin", "dpn", "dul")


@dataclass(frozen=True)
class LossSpec:
    kind: str
    lam: float = 3.0
    gamma: float = 30.0
    m_in: float = -12.0
    m_out: float = -4.0
    tau: int = 1
    target_alpha0: float = 15.0
    smoothing: float = 0.01

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"kind must be one of {LOSS_KINDS}")
        if self.lam < 0 or self.gamma < 0:
            raise ValueError("lam and gamma must be nonnegative")
        if self.tau not in (1, 2):
            raise ValueError("tau must be 1 or 2")
        if not 0.0 <= self.smoothing < 0.5:
            raise ValueError("smoothing must be in [0, 0.5)")


def logsumexp(f: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """ln sum_j exp(f_ij) for each row of a float (n, K) array.

    Each row's maximum is taken out and its ties counted, in the order of
    the library logsumexp the tests compare against, so the result is
    bit-identical to it, rows holding inf or nan included.
    """
    mx = f.max(axis=1, keepdims=True)
    top = f == mx
    m = top.sum(axis=1, keepdims=True)
    # a row of infs gives inf - inf, a row with a nan m = 0: both end in
    # the inf or nan the row's sum of exponentials has
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(top, 0.0, np.exp(f - mx)).sum(axis=1, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + mx
    return out if keepdims else out[:, 0]


def softmax(f: np.ndarray) -> np.ndarray:
    """Softmax of each row of a float (n, K) array, shifted by the row max."""
    e = np.exp(f - f.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def ce_loss(logits, labels, dirichlet_mode: bool = False):
    """Mean -ln p_y. In dirichlet mode p is the Dirichlet mean of the mapped
    logits instead of the softmax."""
    f = np.asarray(logits, dtype=float)
    y = np.asarray(labels, dtype=int)
    n, k = f.shape
    if (y < 0).any() or (y >= k).any():
        raise ValueError("label out of range")
    if not dirichlet_mode:
        logp = f - logsumexp(f, keepdims=True)
        value = float(-logp[np.arange(n), y].mean())
        grad = np.exp(logp)
        grad[np.arange(n), y] -= 1.0
        return value, grad / n
    rows = np.arange(n)
    a = dmath.alpha_rows(f)
    a0 = a.sum(axis=1)
    value = float(-np.log(a[rows, y] / a0).mean())
    galpha = np.repeat((1.0 / a0)[:, None], k, axis=1)
    galpha[rows, y] -= 1.0 / a[rows, y]
    grad = galpha * dmath.alpha_jacobian_rows(f)
    return value, grad / n


def oe_per_sample(logits) -> np.ndarray:
    """Cross-entropy between uniform and the softmax prediction, per row."""
    f = np.asarray(logits, dtype=float)
    return logsumexp(f) - f.mean(axis=1)


def oe_loss(logits):
    """Mean uniform cross-entropy; minimized (value ln K) at uniform softmax."""
    f = np.asarray(logits, dtype=float)
    n, k = f.shape
    value = float(oe_per_sample(f).mean())
    grad = (softmax(f) - 1.0 / k) / n
    return value, grad


def energy_scores(logits) -> np.ndarray:
    return -logsumexp(np.asarray(logits, dtype=float))


def energy_margin_loss(id_logits, ood_logits, m_in: float, m_out: float):
    """Squared hinge on energies: ID pushed below m_in, outliers above m_out."""
    fi = np.asarray(id_logits, dtype=float)
    fo = np.asarray(ood_logits, dtype=float)
    if fi.shape[0] == 0 or fo.shape[0] == 0:
        raise ValueError("batches must be nonempty")
    ei = energy_scores(fi)
    eo = energy_scores(fo)
    hi = np.maximum(ei - m_in, 0.0)
    ho = np.maximum(m_out - eo, 0.0)
    value = float((hi**2).mean() + (ho**2).mean())
    # dE/df = -softmax(f)
    gi = (2.0 * hi / fi.shape[0])[:, None] * (-softmax(fi))
    go = (2.0 * ho / fo.shape[0])[:, None] * softmax(fo)
    return value, (gi, go)


def dpn_loss(id_logits, id_labels, ood_logits, target_alpha0: float,
             smoothing: float):
    """Dirichlet prior matching: the ID prediction is pulled toward a sharp
    target Dirichlet at the label, the outlier prediction toward the flat
    Dirichlet."""
    fi = np.asarray(id_logits, dtype=float)
    fo = np.asarray(ood_logits, dtype=float)
    y = np.asarray(id_labels, dtype=int)
    n, k = fi.shape
    m = fo.shape[0]
    if target_alpha0 <= k:
        raise ValueError("target_alpha0 must exceed K")
    # smoothed one-hot at the label, scaled to the target strength
    target = np.full((n, k), smoothing / k)
    target[np.arange(n), y] += 1.0 - smoothing
    target = target_alpha0 * target
    pred = dmath.alpha_rows(fi)
    gi = (dmath.kl_dirichlet_grad_second_rows(target, pred)
          * dmath.alpha_jacobian_rows(fi)) / n
    pred_o = dmath.alpha_rows(fo)
    flat = np.ones_like(pred_o)
    go = (dmath.kl_dirichlet_grad_first_rows(pred_o, flat)
          * dmath.alpha_jacobian_rows(fo)) / m
    value = (np.sum(dmath.kl_dirichlet_rows(target, pred)) / n
             + np.sum(dmath.kl_dirichlet_rows(pred_o, flat)) / m)
    return float(value), (gi, go)


def dul_loss(id_logits, id_labels, ood_logits, frozen_ood_logits,
             lam: float, gamma: float, m_out: float, tau: int):
    """Dirichlet-mean ID cross-entropy plus a hinge that raises differential
    entropy on outliers above its frozen-model value by a margin, plus a KL
    anchor keeping the predicted class distribution at its frozen value.

    Gradients flow only through the current model; frozen quantities are
    treated as constants.
    """
    fo = np.asarray(ood_logits, dtype=float)
    f0 = np.asarray(frozen_ood_logits, dtype=float)
    if fo.shape != f0.shape:
        raise ValueError("current and frozen outlier logits must share a shape")
    if tau not in (1, 2):
        raise ValueError("tau must be 1 or 2")
    value, gi = ce_loss(id_logits, id_labels, dirichlet_mode=True)
    m = fo.shape[0]
    a = dmath.alpha_rows(fo)
    a_frozen = dmath.alpha_rows(f0)
    jac = dmath.alpha_jacobian_rows(fo)
    # detection: hinge on the entropy rise over the frozen model's
    hinge = np.maximum(0.0, (dmath.diff_entropy_rows(a_frozen) + m_out)
                       - dmath.diff_entropy_rows(a))
    slope = np.where(hinge > 0, -tau * hinge ** (tau - 1), 0.0)
    galpha = slope[:, None] * dmath.diff_entropy_grad_rows(a)
    go = lam * (galpha * jac) / m
    # anchor: KL from the predicted class distribution to the frozen one
    a0 = a.sum(axis=1)
    p = a / a0[:, None]
    p0 = a_frozen / a_frozen.sum(axis=1, keepdims=True)
    lr = np.log(p) - np.log(p0)
    kl = np.sum(p * lr, axis=1)
    # d KL(p||p0) / d alpha_j = (ln(p_j/p0_j) - KL) / alpha0
    galpha = (lr - kl[:, None]) / a0[:, None]
    go += gamma * (galpha * jac) / m
    value += lam * np.sum(hinge**tau) / m + gamma * np.sum(kl) / m
    return float(value), (gi, go)


def loss_backward(m: Mlp, id_batch: Batch, spec: LossSpec,
                  ood_batch: Batch | None = None,
                  frozen: Mlp | None = None):
    """Value and exact parameter gradients of the full training objective.

    ce needs a labeled ID batch only; oe/energy_margin/dpn/dul additionally
    need an outlier batch, and dul a frozen reference model.
    """
    if id_batch.labels is None:
        raise ValueError("ID batch must be labeled")
    id_logits, id_cache = m.forward_cache(id_batch.inputs)
    if spec.kind == "ce":
        value, gi = ce_loss(id_logits, id_batch.labels)
        return value, m.backward(id_cache, gi)
    if ood_batch is None:
        raise ValueError(f"loss kind {spec.kind!r} needs an outlier batch")
    ood_logits, ood_cache = m.forward_cache(ood_batch.inputs)

    if spec.kind == "oe":
        ce_val, gi = ce_loss(id_logits, id_batch.labels)
        oe_val, go = oe_loss(ood_logits)
        value = ce_val + spec.lam * oe_val
        go = spec.lam * go
    elif spec.kind == "energy_margin":
        ce_val, gi = ce_loss(id_logits, id_batch.labels)
        em_val, (gi_e, go) = energy_margin_loss(id_logits, ood_logits,
                                                spec.m_in, spec.m_out)
        value = ce_val + spec.lam * em_val
        gi = gi + spec.lam * gi_e
        go = spec.lam * go
    elif spec.kind == "dpn":
        dpn_val, (gi, go) = dpn_loss(id_logits, id_batch.labels, ood_logits,
                                     spec.target_alpha0, spec.smoothing)
        value = dpn_val
    else:  # dul, the last kind LossSpec admits
        if frozen is None:
            raise ValueError("dul needs the frozen pretrained model")
        frozen_logits = frozen.forward(ood_batch)
        value, (gi, go) = dul_loss(id_logits, id_batch.labels, ood_logits,
                                   frozen_logits, spec.lam, spec.gamma,
                                   spec.m_out, spec.tau)

    return value, [(gw + ow, gb + ob) for (gw, gb), (ow, ob)
                   in zip(m.backward(id_cache, gi), m.backward(ood_cache, go))]
