"""Unit tests for the loss zoo: values, exact gradients, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from dul_lab import dirichlet as dmath
from dul_lab import losses
from dul_lab.losses import LossSpec
from dul_lab.nn import Batch, mlp_init


def fd_logit_grad(fn, f, h=1e-6):
    """Central finite differences of a scalar loss over a logit matrix."""
    g = np.empty_like(f)
    for idx in np.ndindex(f.shape):
        up, dn = f.copy(), f.copy()
        up[idx] += h
        dn[idx] -= h
        g[idx] = (fn(up) - fn(dn)) / (2.0 * h)
    return g


def assert_close_grads(analytic, fd, tol=1e-5):
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(analytic - fd)) < tol * scale


# logit entries: values that tie often, the largest finite floats, and any
# finite float between them
LOGITS = st.one_of(st.sampled_from([0.0, 1.0, -2.5, 1e308, -1e308]),
                   st.floats(min_value=-1e308, max_value=1e308))


@settings(deadline=None, max_examples=300)
@given(st.data(), st.integers(min_value=1, max_value=8),
       st.integers(min_value=2, max_value=6), st.booleans())
def test_logsumexp_and_softmax_equal_scipy_bit_for_bit(data, n, k, flat_row):
    f = data.draw(arrays(float, (n, k), elements=LOGITS))
    if flat_row:
        f[0] = f[0, 0]
    with np.errstate(over="ignore"):  # f - max overflows to -inf in both
        assert np.array_equal(losses.logsumexp(f), special.logsumexp(f, axis=1))
        assert np.array_equal(losses.logsumexp(f, keepdims=True),
                              special.logsumexp(f, axis=1, keepdims=True))
        assert np.array_equal(losses.softmax(f), special.softmax(f, axis=1))


def test_logsumexp_and_softmax_non_finite_rows_match_scipy():
    inf, nan = np.inf, np.nan
    f = np.array([[inf, 0.0, 1.0], [inf, inf, 0.0], [inf, -inf, 0.0],
                  [-inf, -inf, -inf], [nan, 0.0, 1.0], [nan, inf, -inf],
                  [-inf, 0.0, 1.0], [0.0, 1.0, 2.0]])
    with np.errstate(invalid="ignore"):  # inf - inf in softmax, as in scipy
        got, want = losses.logsumexp(f), special.logsumexp(f, axis=1)
        assert np.array_equal(losses.softmax(f), special.softmax(f, axis=1),
                              equal_nan=True)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isfinite(got).tolist() == [False] * 6 + [True] * 2
    # so a training loss over such logits is non-finite and the loop stops
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(losses.ce_loss(f[:6], np.zeros(6, dtype=int))[0])
        assert not np.isfinite(losses.oe_loss(f[:6])[0])


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(kind="hinge")
    with pytest.raises(ValueError):
        LossSpec(kind="oe", lam=-1.0)
    with pytest.raises(ValueError):
        LossSpec(kind="dpn", smoothing=0.7)


def test_ce_loss_value_and_grad():
    rng = np.random.default_rng(31)
    f = rng.normal(0.0, 2.0, size=(8, 4))
    y = rng.integers(0, 4, size=8)
    value, grad = losses.ce_loss(f, y)
    expected = np.mean([
        -f[i, y[i]] + np.log(np.sum(np.exp(f[i]))) for i in range(8)
    ])
    assert abs(value - expected) < 1e-12
    fd = fd_logit_grad(lambda z: losses.ce_loss(z, y)[0], f)
    assert_close_grads(grad, fd)
    with pytest.raises(ValueError):
        losses.ce_loss(f, np.array([0, 1, 2, 3, 0, 1, 2, 9]))


def test_ce_loss_dirichlet_mode_grad():
    rng = np.random.default_rng(33)
    # keep logits away from the relu kink at zero
    f = rng.normal(0.0, 2.0, size=(6, 3))
    f[np.abs(f) < 0.05] = 0.1
    y = rng.integers(0, 3, size=6)
    value, grad = losses.ce_loss(f, y, dirichlet_mode=True)
    assert value > 0.0
    fd = fd_logit_grad(lambda z: losses.ce_loss(z, y, dirichlet_mode=True)[0], f)
    assert_close_grads(grad, fd)


def test_oe_loss_minimum_and_grad():
    k = 5
    value, grad = losses.oe_loss(np.zeros((3, k)))
    assert abs(value - np.log(k)) < 1e-12
    assert np.allclose(grad, 0.0)
    rng = np.random.default_rng(35)
    f = rng.normal(0.0, 2.0, size=(7, k))
    value, grad = losses.oe_loss(f)
    assert value >= np.log(k) - 1e-12
    fd = fd_logit_grad(lambda z: losses.oe_loss(z)[0], f)
    assert_close_grads(grad, fd)


def test_energy_scores_shift_invariance_and_value():
    f = np.array([[1.0, 2.0, 3.0]])
    e = losses.energy_scores(f)
    assert abs(e[0] + np.log(np.exp(1) + np.exp(2) + np.exp(3))) < 1e-12
    big = losses.energy_scores(f + 700.0)
    assert np.isfinite(big).all()


def test_energy_margin_loss_regions_and_grad():
    # both hinges inactive: zero loss and zero grads
    fi = np.full((2, 3), 10.0)   # energy about -11.1, below m_in
    fo = np.full((2, 3), -10.0)  # energy about 8.9, above m_out
    value, (gi, go) = losses.energy_margin_loss(fi, fo, m_in=-5.0, m_out=0.0)
    assert value == 0.0
    assert np.allclose(gi, 0.0) and np.allclose(go, 0.0)

    rng = np.random.default_rng(37)
    fi = rng.normal(0.0, 2.0, size=(5, 3))
    fo = rng.normal(0.0, 2.0, size=(4, 3))
    m_in, m_out = -3.0, 1.5
    value, (gi, go) = losses.energy_margin_loss(fi, fo, m_in, m_out)
    fdi = fd_logit_grad(
        lambda z: losses.energy_margin_loss(z, fo, m_in, m_out)[0], fi)
    fdo = fd_logit_grad(
        lambda z: losses.energy_margin_loss(fi, z, m_in, m_out)[0], fo)
    assert_close_grads(gi, fdi)
    assert_close_grads(go, fdo)
    with pytest.raises(ValueError):
        losses.energy_margin_loss(np.zeros((0, 3)), fo, m_in, m_out)


def test_dpn_loss_grad():
    rng = np.random.default_rng(39)
    fi = rng.normal(0.0, 2.0, size=(4, 3))
    fo = rng.normal(0.0, 2.0, size=(4, 3))
    for f in (fi, fo):
        f[np.abs(f) < 0.05] = 0.1
    y = rng.integers(0, 3, size=4)
    value, (gi, go) = losses.dpn_loss(fi, y, fo, target_alpha0=15.0,
                                      smoothing=0.01)
    assert value > 0.0
    fdi = fd_logit_grad(
        lambda z: losses.dpn_loss(z, y, fo, 15.0, 0.01)[0], fi)
    fdo = fd_logit_grad(
        lambda z: losses.dpn_loss(fi, y, z, 15.0, 0.01)[0], fo)
    assert_close_grads(gi, fdi)
    assert_close_grads(go, fdo)
    with pytest.raises(ValueError):
        losses.dpn_loss(fi, y, fo, target_alpha0=2.0, smoothing=0.01)


def test_dul_loss_grad():
    rng = np.random.default_rng(42)
    fi = rng.normal(0.0, 2.0, size=(4, 3))
    fo = rng.normal(0.0, 2.0, size=(5, 3))
    f0 = rng.normal(0.0, 2.0, size=(5, 3))
    for f in (fi, fo, f0):
        f[np.abs(f) < 0.05] = 0.1
    y = rng.integers(0, 3, size=4)
    args = dict(lam=1.5, gamma=2.0, m_out=0.5)
    value, (gi, go) = losses.dul_loss(fi, y, fo, f0, **args)
    assert value > 0.0
    fdi = fd_logit_grad(
        lambda z: losses.dul_loss(z, y, fo, f0, **args)[0], fi)
    fdo = fd_logit_grad(
        lambda z: losses.dul_loss(fi, y, z, f0, **args)[0], fo)
    assert_close_grads(gi, fdi)
    assert_close_grads(go, fdo)


def test_dul_loss_shape_mismatch():
    with pytest.raises(ValueError):
        losses.dul_loss(np.zeros((2, 3)), np.zeros(2, dtype=int),
                        np.zeros((2, 3)), np.zeros((3, 3)),
                        lam=1.0, gamma=1.0, m_out=0.5)


def test_loss_backward_requires_labels_and_batches():
    m = mlp_init((2, 4, 3), seed=1)
    x = np.zeros((2, 2))
    with pytest.raises(ValueError):
        losses.loss_backward(m, Batch(x), LossSpec(kind="ce"))
    labeled = Batch(x, labels=np.array([0, 1]))
    with pytest.raises(ValueError):
        losses.loss_backward(m, labeled, LossSpec(kind="oe"))
    with pytest.raises(ValueError):
        losses.loss_backward(m, labeled, LossSpec(kind="dul"),
                             ood_batch=Batch(x))


@pytest.mark.parametrize("kind", ["ce", "oe", "energy_margin", "dpn", "dul"])
def test_loss_backward_matches_finite_differences(kind):
    rng = np.random.default_rng(47)
    m = mlp_init((2, 6, 3), seed=8)
    frozen = mlp_init((2, 6, 3), seed=9)
    id_batch = Batch(rng.standard_normal((5, 2)), rng.integers(0, 3, size=5))
    ood_batch = None if kind == "ce" else Batch(rng.standard_normal((6, 2)))
    spec = LossSpec(kind=kind, lam=1.2, gamma=1.5, m_in=-3.0, m_out=0.5,
                    target_alpha0=15.0, smoothing=0.01)
    value, grads = losses.loss_backward(
        m, id_batch, spec, ood_batch=ood_batch,
        frozen=frozen if kind == "dul" else None)
    flat = np.concatenate([np.concatenate([gw.ravel(), gb])
                           for gw, gb in grads])
    theta = m.get_flat()
    h = 1e-6
    fd = np.empty_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        vu, _ = losses.loss_backward(
            m.set_flat(up), id_batch, spec, ood_batch=ood_batch,
            frozen=frozen if kind == "dul" else None)
        vd, _ = losses.loss_backward(
            m.set_flat(dn), id_batch, spec, ood_batch=ood_batch,
            frozen=frozen if kind == "dul" else None)
        fd[i] = (vu - vd) / (2.0 * h)
    assert_close_grads(flat, fd, tol=1e-4)


# Per-row references: the Dirichlet row kernels run on one-row slices, one
# distribution per logit row, accumulated in a Python loop.

def _row_ce(f, y):
    n, k = f.shape
    value, grad = 0.0, np.zeros_like(f)
    for i in range(n):
        alpha = dmath.alpha_rows(f[i:i + 1])[0]
        alpha0 = float(alpha.sum())
        value += -np.log(alpha[y[i]] / alpha0)
        galpha = np.full(k, 1.0 / alpha0)
        galpha[y[i]] -= 1.0 / alpha[y[i]]
        grad[i] = galpha * dmath.alpha_jacobian_rows(f[i:i + 1])[0]
    return value / n, grad / n


def _row_dpn(fi, y, fo, target_alpha0, smoothing):
    n, k = fi.shape
    flat = np.ones((1, k))
    id_value, ood_value = 0.0, 0.0
    gi, go = np.zeros_like(fi), np.zeros_like(fo)
    for i in range(n):
        pred = dmath.alpha_rows(fi[i:i + 1])
        t = np.full((1, k), smoothing / k)
        t[0, y[i]] += 1.0 - smoothing
        target = target_alpha0 * t
        id_value += dmath.kl_dirichlet_rows(target, pred)[0]
        gi[i] = (dmath.kl_dirichlet_grad_second_rows(target, pred)[0]
                 * dmath.alpha_jacobian_rows(fi[i:i + 1])[0])
    for j in range(fo.shape[0]):
        pred = dmath.alpha_rows(fo[j:j + 1])
        ood_value += dmath.kl_dirichlet_rows(pred, flat)[0]
        go[j] = (dmath.kl_dirichlet_grad_first_rows(pred, flat)[0]
                 * dmath.alpha_jacobian_rows(fo[j:j + 1])[0])
    m = fo.shape[0]
    return id_value / n + ood_value / m, (gi / n, go / m)


def _row_dul(fi, y, fo, f0, lam, gamma, m_out):
    value, gi = _row_ce(fi, y)
    m = fo.shape[0]
    go = np.zeros_like(fo)
    det_value, kl_value = 0.0, 0.0
    for j in range(m):
        a = dmath.alpha_rows(fo[j:j + 1])
        a0 = dmath.alpha_rows(f0[j:j + 1])
        jac = dmath.alpha_jacobian_rows(fo[j:j + 1])[0]
        hinge = max(0.0, (dmath.diff_entropy_rows(a0)[0] + m_out)
                    - dmath.diff_entropy_rows(a)[0])
        det_value += hinge
        if hinge > 0:
            galpha = -dmath.diff_entropy_grad_rows(a)[0]
            go[j] += lam * (galpha * jac) / m
        p = dmath.SimplexVector(a[0] / a.sum())
        p0 = dmath.SimplexVector(a0[0] / a0.sum())
        kl_value += dmath.kl_categorical(p, p0)
        lr = np.log(p.p) - np.log(p0.p)
        galpha = (lr - float(np.sum(p.p * lr))) / a.sum()
        go[j] += gamma * (galpha * jac) / m
    return value + lam * det_value / m + gamma * kl_value / m, (gi, go)


def _random_batches(seed, count=25):
    """Logit batches with some entries exactly on the relu kink at 0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(2, 7))
        n, m = int(rng.integers(1, 40)), int(rng.integers(1, 60))
        fi, fo, f0 = (rng.normal(0.0, 3.0, size=(r, k)) for r in (n, m, m))
        for f in (fi, fo, f0):
            f[rng.random(f.shape) < 0.1] = 0.0
        yield fi, rng.integers(0, k, size=n), fo, f0


def _same_value(got, want):
    assert abs(got - want) <= 1e-12 * abs(want)


def test_dirichlet_losses_match_per_row_reference():
    for fi, y, fo, f0 in _random_batches(53):
        value, grad = losses.ce_loss(fi, y, dirichlet_mode=True)
        want_value, want_grad = _row_ce(fi, y)
        assert np.array_equal(grad, want_grad)
        _same_value(value, want_value)

        value, (gi, go) = losses.dpn_loss(fi, y, fo, 15.0, 0.01)
        want_value, (want_gi, want_go) = _row_dpn(fi, y, fo, 15.0, 0.01)
        assert np.array_equal(gi, want_gi) and np.array_equal(go, want_go)
        _same_value(value, want_value)

        args = (fi, y, fo, f0, 3.0, 30.0, 0.4)
        value, (gi, go) = losses.dul_loss(*args)
        want_value, (want_gi, want_go) = _row_dul(*args)
        assert np.array_equal(gi, want_gi) and np.array_equal(go, want_go)
        _same_value(value, want_value)
