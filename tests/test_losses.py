"""Unit tests for the loss terms and objectives: values, exact gradients,
weights, validation."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from dul_lab import dirichlet as dmath
from dul_lab import losses
from dul_lab.data import make_semantic_ood
from dul_lab.losses import LossSpec
from dul_lab.nn import Batch, grads_flat, mlp_init

# each weighted term and the LossSpec field that weights it
WEIGHTS = {"oe": "lam", "energy_margin": "lam", "dul_hinge": "lam",
           "dul_anchor": "gamma"}
SPEC = dict(lam=1.2, gamma=1.5, m_in=-3.0, m_out=0.5, dul_margin=0.3,
            target_alpha0=15.0, smoothing=0.01)


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


def term_params(keep=lambda name: True):
    """(kind, index, term) of each term of the objective table whose name
    (without its leading underscore) passes keep; index 0 is a row's base."""
    return [pytest.param(kind, i, fn, id=f"{kind}-{fn.__name__[1:]}")
            for kind, row in losses.OBJECTIVES.items()
            for i, fn in enumerate(row) if keep(fn.__name__[1:])]


def term(name):
    return next(p.values[2] for p in term_params(lambda n: n == name))


def call_term(i, fn, spec, fi, y, fo, f0):
    """(value, ID gradient, outlier gradient) of a base (i == 0) or outlier
    term, a gradient the term does not have as zeros."""
    if i == 0:
        value, gi = fn(spec, fi, y)
        return value, gi, np.zeros_like(fo)
    value, gi, go = fn(spec, fi, fo, f0)
    return value, np.zeros_like(fi) if gi is None else gi, go


def logits(rng, rows, k=3):
    """Normal logits kept away from the relu kink at 0 of alpha = relu(f) + 1."""
    f = rng.normal(0.0, 2.0, size=(rows, k))
    f[np.abs(f) < 0.05] = 0.1
    return f


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
        assert not np.isfinite(term("oe")(LossSpec("oe"), None, f[:6], None)[0])


def plain_logsumexp(f):
    """logsumexp as written before its fast path: every row through the tie
    count m, under errstate."""
    mx = f.max(axis=1, keepdims=True)
    top = f == mx
    m = top.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(top, 0.0, np.exp(f - mx)).sum(axis=1, keepdims=True)
        return (np.log1p(s / m) + np.log(m) + mx)[:, 0]


def plain_softmax(f):
    e = np.exp(f - f.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def same_bits(a, b):
    """Equal float64 bit patterns (so -0.0 != 0.0), any NaN equal to any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(np.isnan(a), np.isnan(b))
            and np.array_equal(a[~np.isnan(a)].view(np.int64), b[~np.isnan(b)].view(np.int64)))


# ties, infinities, NaN and entries whose exponentials overflow
EDGE_LOGITS = st.one_of(st.sampled_from([0.0, 1.0, -2.5, 1e300, -1e300, np.inf, -np.inf, np.nan]),
                        st.floats(min_value=-1e308, max_value=1e308))


@settings(deadline=None, max_examples=300)
@given(st.data(), st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=6))
def test_logsumexp_fast_and_general_paths_agree_bit_for_bit(data, n, k):
    """Rows with one finite max skip the tie count. Each row alone, the rows
    together, and the rows stacked on a tied row (which sends every row down
    the general path) give the written-out formula's bits and scipy's value;
    the shared logsumexp/softmax gives logsumexp's and softmax's bits."""
    f = data.draw(arrays(float, (n, k), elements=EDGE_LOGITS))
    want = plain_logsumexp(f)
    with np.errstate(over="ignore", invalid="ignore"):
        got = losses.logsumexp(f)
        assert same_bits(got, want)
        assert same_bits(losses.logsumexp(f, keepdims=True), want[:, None])
        assert same_bits(losses.logsumexp(np.vstack([f, np.zeros((1, k))]))[:-1], want)
        for i in range(n):
            assert same_bits(losses.logsumexp(f[i:i + 1]), want[i:i + 1])
        assert np.array_equal(got, special.logsumexp(f, axis=1), equal_nan=True)
        lse, p = losses._logsumexp_softmax(f)
        assert same_bits(lse, want)
        assert same_bits(p, plain_softmax(f)) and same_bits(losses.softmax(f), p)


def test_ce_oe_and_energy_equal_the_plain_formulas_bit_for_bit():
    """ce_loss and the oe and energy terms work in place; each value and
    gradient equals the formula written with a new array per operation, and
    the logits, which alias the forward cache, are left as they were."""
    rng = np.random.default_rng(71)
    spec = LossSpec("energy_margin", **{**SPEC, "m_in": -3.0, "m_out": -2.0})
    for n, m, k in ((128, 256, 3), (92, 256, 3), (1, 2, 2), (7, 5, 5)):
        fi, fo = rng.normal(0.0, 2.0, size=(n, k)), rng.normal(0.0, 2.0, size=(m, k))
        fi[0] = 0.5  # a tied row
        y = rng.integers(0, k, size=n)
        y[0] = k - 1
        fi0, fo0 = fi.copy(), fo.copy()
        rows = np.arange(n)

        logp = fi - plain_logsumexp(fi)[:, None]
        grad = np.exp(logp)
        grad[rows, y] -= 1.0
        value, got = losses.ce_loss(fi, y)
        assert value.hex() == float(-logp[rows, y].mean()).hex()
        assert same_bits(got, grad / n)

        value, gi, go = term("oe")(spec, fi, fo, None)
        assert gi is None
        assert value.hex() == (spec.lam * float(
            (plain_logsumexp(fo) - fo.mean(axis=1)).mean())).hex()
        assert same_bits(go, spec.lam * ((plain_softmax(fo) - 1.0 / k) / m))

        hi = np.maximum(-plain_logsumexp(fi) - spec.m_in, 0.0)
        ho = np.maximum(spec.m_out - -plain_logsumexp(fo), 0.0)
        value, gi, go = term("energy_margin")(spec, fi, fo, None)
        assert value.hex() == (spec.lam * float((hi**2).mean() + (ho**2).mean())).hex()
        assert same_bits(gi, spec.lam * ((2.0 * hi / n)[:, None] * (-plain_softmax(fi))))
        assert same_bits(go, spec.lam * ((2.0 * ho / m)[:, None] * plain_softmax(fo)))
        if n == 128:  # each hinge both active and inactive, zeros signed
            assert 0 < np.count_nonzero(hi) < n and 0 < np.count_nonzero(ho) < m
        assert same_bits(fi, fi0) and same_bits(fo, fo0)
    for bad in (-1, k):
        with pytest.raises(ValueError, match="label out of range"):
            losses.ce_loss(fi, np.where(rows == n - 1, bad, y))


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(kind="hinge")
    with pytest.raises(ValueError):
        LossSpec(kind="oe", lam=-1.0)
    for smoothing in (0.0, 0.5, 0.7):  # the open interval (0, 0.5)
        with pytest.raises(ValueError):
            LossSpec(kind="dpn", smoothing=smoothing)
    LossSpec(kind="dul", lam=0.0, gamma=0.0, smoothing=1e-12)


@pytest.mark.parametrize("name", [f.name for f in fields(LossSpec)[1:]])
def test_loss_spec_rejects_non_finite_settings(name):
    """A NaN or infinite setting made loss_backward return nan or inf (and
    NaN gradients) without a word."""
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LossSpec(kind="dul", **{name: bad})


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


def test_oe_loss_minimum_and_grad():
    k, spec = 5, LossSpec("oe", lam=1.2)
    value, gi, go = term("oe")(spec, None, np.zeros((3, k)), None)
    assert abs(value - 1.2 * np.log(k)) < 1e-12
    assert gi is None and np.allclose(go, 0.0)
    rng = np.random.default_rng(35)
    fo = rng.normal(0.0, 2.0, size=(7, k))
    value, _, _ = term("oe")(spec, None, fo, None)
    assert value >= 1.2 * np.log(k) - 1e-12
    # per row, the cross-entropy from uniform: -mean_k ln softmax(f)_k
    per_row = losses.oe_per_sample(fo)
    assert np.allclose(per_row, -np.log(special.softmax(fo, axis=1)).mean(axis=1), rtol=1e-12)
    assert value == pytest.approx(1.2 * per_row.mean(), rel=1e-15)


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
    spec = LossSpec("energy_margin", m_in=-5.0, m_out=0.0)
    value, gi, go = term("energy_margin")(spec, fi, fo, None)
    assert value == 0.0
    assert np.allclose(gi, 0.0) and np.allclose(go, 0.0)
    # flat logits have energy -ln 3; each hinge is active on its side of its
    # margin only, with value lam * (distance past the margin)^2
    flat, e = np.zeros((2, 3)), -np.log(3.0)
    for m_in, m_out, want in ((e - 0.5, e - 1.0, 0.25), (e + 0.5, e - 1.0, 0.0),
                              (e + 0.5, e + 0.25, 0.0625)):
        spec = LossSpec("energy_margin", lam=2.0, m_in=m_in, m_out=m_out)
        value, gi, go = term("energy_margin")(spec, flat, flat, None)
        assert value == pytest.approx(2.0 * want, rel=1e-12)
        assert (np.abs(gi).max() > 0) == (m_in < e) and (np.abs(go).max() > 0) == (m_out > e)


@pytest.mark.parametrize("kind,i,fn", term_params())
def test_term_matches_finite_differences(kind, i, fn):
    """Each term on its own, on its ID and its outlier logits, under the
    acceptance gate's bound; a gradient the term says it lacks must be 0."""
    rng = np.random.default_rng(59)
    fi, fo, f0 = logits(rng, 4), logits(rng, 5), logits(rng, 5)
    y = rng.integers(0, 3, size=4)
    spec = LossSpec(kind=kind, **SPEC)
    value, gi, go = call_term(i, fn, spec, fi, y, fo, f0)
    # a term that is 0 here, or flat in the logits it reads, proves nothing
    assert value > 0.0 and np.abs(go if i else gi).max() > 0.0
    fdi = fd_logit_grad(lambda z: call_term(i, fn, spec, z, y, fo, f0)[0], fi)
    fdo = fd_logit_grad(lambda z: call_term(i, fn, spec, fi, y, z, f0)[0], fo)
    assert_close_grads(gi, fdi, tol=1e-4)
    assert_close_grads(go, fdo, tol=1e-4)


@pytest.mark.parametrize("kind,i,fn", term_params(WEIGHTS.__contains__))
def test_weight_scales_exactly_its_term(kind, i, fn):
    """Setting a term's weight to 0 takes exactly the term's value and
    parameter gradient out of loss_backward's, and doubling it doubles that
    share. A term that reads another term's weight still has a consistent
    value and gradient, so only this test catches it."""
    weight = WEIGHTS[fn.__name__[1:]]
    rng = np.random.default_rng(61)
    m, frozen = mlp_init((2, 6, 3), seed=8), mlp_init((2, 6, 3), seed=9)
    id_batch = Batch(rng.standard_normal((5, 2)), rng.integers(0, 3, size=5))
    ood_batch = Batch(rng.standard_normal((6, 2)))
    spec = LossSpec(kind=kind, **SPEC)

    def total(w):
        value, grads = losses.loss_backward(
            m, id_batch, replace(spec, **{weight: w}), ood_batch=ood_batch,
            frozen=frozen if kind == "dul" else None)
        return value, grads_flat(grads)

    fi, id_cache = m.forward_cache(id_batch.points)
    fo, ood_cache = m.forward_cache(ood_batch.points)
    args = (fi, id_batch.labels, fo, frozen.forward(ood_batch))
    value, gi, go = call_term(i, fn, spec, *args)
    grad = (grads_flat(m.backward(id_cache, gi))
            + grads_flat(m.backward(ood_cache, go)))
    assert value > 0.0 and np.abs(grad).max() > 0.0
    assert call_term(i, fn, replace(spec, **{weight: 0.0}), *args)[0] == 0.0
    (v0, g0), (v1, g1), (v2, g2) = (total(w * getattr(spec, weight))
                                    for w in (0.0, 1.0, 2.0))
    assert v1 - v0 == pytest.approx(value, rel=1e-9)
    assert v2 - v0 == pytest.approx(2.0 * value, rel=1e-9)
    assert np.allclose(g1 - g0, grad, rtol=1e-9, atol=1e-12)
    assert np.allclose(g2 - g0, 2.0 * grad, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("kind,i,fn", term_params(lambda n: n not in WEIGHTS))
def test_unweighted_terms_ignore_the_weights(kind, i, fn):
    rng = np.random.default_rng(67)
    fi, fo, f0 = logits(rng, 4), logits(rng, 5), logits(rng, 5)
    y = rng.integers(0, 3, size=4)
    spec = LossSpec(kind=kind, **SPEC)
    want = call_term(i, fn, spec, fi, y, fo, f0)
    for lam, gamma in ((0.0, 0.0), (2.4, 3.0)):
        got = call_term(i, fn, replace(spec, lam=lam, gamma=gamma), fi, y, fo, f0)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def test_default_dul_hinge_lifts_entropy_by_dul_margin():
    """LossSpec("dul") at its defaults read the energy margin m_out (-4) as
    its entropy margin, so its hinge was 0 on two models' outlier logits.
    At the frozen model each row's hinge is exactly the margin, and the
    energy margins do not move it."""
    arch = (2, 64, 64, 3)
    x = make_semantic_ood("train", 256, seed=1, k=3, sigma=0.75)
    fo, f0 = mlp_init(arch, seed=1).forward(x), mlp_init(arch, seed=2).forward(x)
    spec = LossSpec("dul")
    assert term("dul_hinge")(spec, None, fo, f0)[0] > 0.0
    for m_out in (-4.0, 0.4, 7.0):
        value = term("dul_hinge")(replace(spec, m_in=-m_out, m_out=m_out),
                                  None, f0, f0)[0]
        assert value == pytest.approx(spec.lam * spec.dul_margin, rel=1e-12)


def test_dul_loss_shape_mismatch():
    spec, f = LossSpec("dul"), np.ones((2, 3))
    for fn in (term("dul_hinge"), term("dul_anchor")):
        with pytest.raises(ValueError, match="must share a shape"):
            fn(spec, f, f, np.ones((3, 3)))
        with pytest.raises(ValueError, match="frozen pretrained model"):
            fn(spec, f, f, None)


def test_loss_backward_requires_labels_and_batches():
    m = mlp_init((2, 4, 3), seed=1)
    x = np.zeros((2, 2))
    with pytest.raises(ValueError, match="ID batch must be labeled"):
        losses.loss_backward(m, Batch(x), LossSpec(kind="ce"))
    labeled = Batch(x, labels=np.array([0, 1]))
    with pytest.raises(ValueError, match="'oe' needs an outlier batch"):
        losses.loss_backward(m, labeled, LossSpec(kind="oe"))
    with pytest.raises(ValueError, match="dul needs the frozen pretrained model"):
        losses.loss_backward(m, labeled, LossSpec(kind="dul"),
                             ood_batch=Batch(x))
    with pytest.raises(ValueError, match="must share a shape"):
        losses.loss_backward(m, labeled, LossSpec(kind="dul"), ood_batch=Batch(x),
                             frozen=mlp_init((2, 4, 4), seed=2))
    with pytest.raises(ValueError, match="target_alpha0 must exceed K"):
        losses.loss_backward(m, labeled, LossSpec(kind="dpn", target_alpha0=3.0),
                             ood_batch=Batch(x))


@pytest.mark.parametrize("kind", losses.LOSS_KINDS)
def test_loss_backward_rejects_labels_out_of_range(kind):
    m = mlp_init((2, 4, 3), seed=1)
    x = np.zeros((2, 2))
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="label out of range"):
            losses.loss_backward(m, Batch(x, labels=np.array([0, bad])),
                                 LossSpec(kind=kind), ood_batch=Batch(x), frozen=m)


@pytest.mark.parametrize("kind", ["ce", "oe", "energy_margin", "dpn", "dul"])
def test_loss_backward_matches_finite_differences(kind):
    rng = np.random.default_rng(47)
    m = mlp_init((2, 6, 3), seed=8)
    frozen = mlp_init((2, 6, 3), seed=9)
    id_batch = Batch(rng.standard_normal((5, 2)), rng.integers(0, 3, size=5))
    ood_batch = None if kind == "ce" else Batch(rng.standard_normal((6, 2)))
    spec = LossSpec(kind=kind, **SPEC)
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


# Per-row references of the Dirichlet terms: the row kernels run on
# one-row slices, one distribution per logit row, accumulated in a Python
# loop.

def _row_dirichlet_ce(f, y):
    n = f.shape[0]
    value, grad = 0.0, np.zeros_like(f)
    for i in range(n):
        a = dmath.alpha_rows(f[i:i + 1])
        v, g = losses.ce_loss(np.log(a), y[i:i + 1])
        value += v
        grad[i] = (g[0] / n) / a[0] * dmath.alpha_jacobian_rows(f[i:i + 1])[0]
    return value / n, grad


def _row_dpn_target(fi, y, target_alpha0, smoothing):
    n, k = fi.shape
    value, gi = 0.0, np.zeros_like(fi)
    for i in range(n):
        pred = dmath.alpha_rows(fi[i:i + 1])
        t = np.full((1, k), smoothing / k)
        t[0, y[i]] += 1.0 - smoothing
        target = target_alpha0 * t
        value += dmath.kl_dirichlet_rows(target, pred)[0]
        gi[i] = (dmath.kl_dirichlet_grad_second_rows(target, pred)[0]
                 * dmath.alpha_jacobian_rows(fi[i:i + 1])[0])
    return value / n, gi / n


def _row_dpn_flat(fo):
    m, k = fo.shape
    value, go = 0.0, np.zeros_like(fo)
    for j in range(m):
        a = dmath.alpha_rows(fo[j:j + 1])
        value += -dmath.diff_entropy_rows(a)[0]
        go[j] = -dmath.diff_entropy_grad_rows(a)[0] * dmath.alpha_jacobian_rows(fo[j:j + 1])[0]
    return value / m - math.lgamma(k), go / m


def _row_dul_hinge(fo, f0, lam, margin):
    m = fo.shape[0]
    value, go = 0.0, np.zeros_like(fo)
    for j in range(m):
        a = dmath.alpha_rows(fo[j:j + 1])
        hinge = max(0.0, (dmath.diff_entropy_rows(dmath.alpha_rows(f0[j:j + 1]))[0]
                          + margin) - dmath.diff_entropy_rows(a)[0])
        value += hinge
        if hinge > 0:
            galpha = -dmath.diff_entropy_grad_rows(a)[0]
            go[j] = lam * (galpha * dmath.alpha_jacobian_rows(fo[j:j + 1])[0]) / m
    return lam * value / m, go


def _row_dul_anchor(fo, f0, gamma):
    m = fo.shape[0]
    value, go = 0.0, np.zeros_like(fo)
    for j in range(m):
        a = dmath.alpha_rows(fo[j:j + 1])
        a0 = dmath.alpha_rows(f0[j:j + 1])
        p = dmath.SimplexVector(a[0] / a.sum())
        p0 = dmath.SimplexVector(a0[0] / a0.sum())
        value += dmath.kl_categorical(p, p0)
        lr = np.log(p.p) - np.log(p0.p)
        galpha = (lr - float(np.sum(p.p * lr))) / a.sum()
        go[j] = gamma * (galpha * dmath.alpha_jacobian_rows(fo[j:j + 1])[0]) / m
    return gamma * value / m, go


def test_dirichlet_ce_is_the_cross_entropy_of_the_dirichlet_mean():
    """dirichlet_ce, ce on the logits ln a, against -ln(a_y / a0) and its
    gradient (1 / a0 - [k = y] / a_y) / n per alpha, written out; K = 2-8,
    a up to about 5e5.

    softmax(ln a)_k is a_k / a0 (1 + d), where d gathers the rounding of
    ln a_k (eps ln a0), of the logsumexp (eps (ln a0 + K)) and of the
    subtraction and exponential: |d| <= eps (2 ln a0 + K + 2). The gradient
    is (softmax(ln a) - [k = y]) / (n a_k), which is the written-out entry
    plus d / (n a0); with a few roundings of each side's own entry, every
    entry is within 4 eps L (1 / (n a0) + |entry|), L = K + 1 + ln a0.
    Each row's value is within eps (2 ln a0 + K + 5) of the exact
    -ln(a_y / a0) >= 0 on both sides, and each mean of n rows rounds by at
    most n eps times it: the values are within 4 eps (max L + n value).
    """
    rng = np.random.default_rng(31)
    eps = np.finfo(float).eps
    for _ in range(1000):
        k, n = int(rng.integers(2, 9)), int(rng.integers(1, 41))
        f = np.exp(rng.uniform(-5.0, 13.0, size=(n, k))) * rng.choice([-1.0, 1.0], (n, k))
        f[rng.random(f.shape) < 0.2] = 0.0  # the relu kink
        y = rng.integers(0, k, size=n)
        rows = np.arange(n)
        a = dmath.alpha_rows(f)
        a0 = a.sum(axis=1)
        want_value = float(-np.log(a[rows, y] / a0).mean())
        galpha = np.repeat((1.0 / a0)[:, None], k, axis=1)
        galpha[rows, y] -= 1.0 / a[rows, y]
        want_grad = galpha * dmath.alpha_jacobian_rows(f) / n
        value, grad = term("dirichlet_ce")(None, f, y)
        big_l = k + 1.0 + np.log(a0)
        assert abs(value - want_value) <= 4.0 * eps * (big_l.max() + n * want_value)
        assert np.all(np.abs(grad - want_grad) <= 4.0 * eps * big_l[:, None]
                      * (1.0 / (n * a0[:, None]) + np.abs(want_grad)))


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
    spec = LossSpec("dul", lam=3.0, gamma=30.0, dul_margin=0.4, target_alpha0=15.0,
                    smoothing=0.01)
    for fi, y, fo, f0 in _random_batches(53):
        for (value, grad), (want_value, want_grad) in [
                (term("dirichlet_ce")(spec, fi, y), _row_dirichlet_ce(fi, y)),
                (term("dpn_target")(spec, fi, y),
                 _row_dpn_target(fi, y, spec.target_alpha0, spec.smoothing))]:
            assert np.array_equal(grad, want_grad)
            _same_value(value, want_value)
        for name, want_value, want_go in [
                ("dpn_flat", *_row_dpn_flat(fo)),
                ("dul_hinge", *_row_dul_hinge(fo, f0, spec.lam, spec.dul_margin)),
                ("dul_anchor", *_row_dul_anchor(fo, f0, spec.gamma))]:
            value, gi, go = term(name)(spec, fi, fo, f0)
            assert gi is None and np.array_equal(go, want_go)
            _same_value(value, want_value)
