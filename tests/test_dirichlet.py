"""Unit tests for the Dirichlet uncertainty module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special as sp
from scipy.special import gammaln

from dul_lab import dirichlet as dmath
from dul_lab.dirichlet import DirichletParams, SimplexVector

EULER_GAMMA = 0.5772156649015329


def random_alpha(rng, k=None):
    if k is None:
        k = int(rng.integers(2, 6))
    return DirichletParams(rng.uniform(0.2, 50.0, size=k))


def diff_entropy(alpha):
    """Differential entropy of one Dirichlet, through the row kernel."""
    return float(dmath.diff_entropy_rows(alpha[None, :])[0])


def kl_dirichlet(a, b):
    """KL(Dir(a) || Dir(b)), through the row kernel."""
    return float(dmath.kl_dirichlet_rows(a[None, :], b[None, :])[0])


def dirichlet_logpdf(alpha, mu):
    """ln Dir(mu | alpha) for each row of mu, from scipy's log-gamma."""
    return (gammaln(alpha.sum()) - np.sum(gammaln(alpha))
            + np.sum((alpha - 1.0) * np.log(mu), axis=1))


def test_special_function_values():
    # the scipy calls that the kernels make, on arrays
    dig = sp.digamma(np.array([1.0, 0.5]))
    assert abs(dig[0] + EULER_GAMMA) < 1e-12
    assert abs(dig[1] + EULER_GAMMA + 2.0 * np.log(2.0)) < 1e-12
    assert abs(sp.polygamma(1, np.array([1.0]))[0] - np.pi**2 / 6.0) < 1e-12


def test_digamma_recurrence():
    x = np.random.default_rng(0).uniform(0.5, 100.0, size=200)
    assert np.all(np.abs(sp.digamma(x + 1.0) - sp.digamma(x) - 1.0 / x) < 1e-12)


def test_trigamma_recurrence():
    x = np.random.default_rng(1).uniform(0.5, 100.0, size=200)
    assert np.all(np.abs(sp.polygamma(1, x + 1.0) - sp.polygamma(1, x) + 1.0 / x**2)
                  < 1e-12)


def test_dirichlet_params_validation():
    with pytest.raises(ValueError):
        DirichletParams(np.array([1.0]))
    with pytest.raises(ValueError):
        DirichletParams(np.array([1.0, -0.2]))
    with pytest.raises(ValueError):
        DirichletParams(np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="finite alpha0"):  # each finite, the sum overflows
        DirichletParams(np.array([1e308, 1e308]))
    with pytest.raises(TypeError):  # alpha0 is computed, never passed
        DirichletParams(np.array([1.0, 2.0]), alpha0=5.0)
    d = DirichletParams(np.array([2.0, 3.0]))
    assert d.alpha0 == 5.0


def test_simplex_vector_validation():
    with pytest.raises(ValueError):
        SimplexVector(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SimplexVector(np.array([-0.1, 1.1]))
    for bad in ([0.5, np.nan], [np.nan, 0.5]):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            SimplexVector(np.array(bad))
    p = SimplexVector(np.array([0.25, 0.75]))
    assert p.k == 2


@pytest.mark.parametrize("cls, values", [(SimplexVector, [0.5, 0.5]),
                                         (DirichletParams, [2.0, 3.0])])
def test_value_objects_compare_and_hash_by_identity(cls, values):
    # an ndarray field cannot take part in a generated == or hash
    a, b = cls(np.array(values)), cls(np.array(values))
    assert a == a and a != b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("cls, values, attr", [(SimplexVector, [0.5, 0.5], "p"),
                                               (DirichletParams, [1.0, 2.0], "alpha")])
def test_value_objects_are_read_only(cls, values, attr):
    # the values are computed from the array at construction, so a write would
    # leave them stale; the caller's own array stays writable
    given = np.array(values)
    obj = cls(given)
    with pytest.raises(ValueError, match="read-only"):
        getattr(obj, attr)[0] = 0.25
    given[0] = 0.25
    assert getattr(obj, attr)[0] == values[0]


def test_long_vectors_sum_in_index_order():
    # from K = 8 numpy's pairwise sum reorders the additions; the objects add
    # in index order, and the sum-to-1 check keeps its 1e-12 K tolerance
    rng = np.random.default_rng(8)
    for k in range(8, 65):
        assert SimplexVector(rng.dirichlet(np.ones(k))).k == k
        alpha = rng.uniform(0.05, 50.0, size=k)
        index_order = 0.0
        for v in alpha.tolist():
            index_order += v
        assert DirichletParams(alpha).alpha0 == index_order
    w = rng.dirichlet(np.ones(16))
    w[3] += 1e-9
    with pytest.raises(ValueError, match="sum to 1"):
        SimplexVector(w)


def test_alpha_from_logits_mappings():
    f = np.array([[2.0, -1.0, 0.0]])
    assert np.allclose(dmath.alpha_rows(f), [[3.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        dmath.alpha_rows(np.array([[1.0, np.nan, 0.0]]))


def test_uniform_dirichlet_entropy_k3():
    # Dir(1,1,1) is uniform on the 2-simplex of area 1/2
    assert abs(diff_entropy(np.ones(3)) + np.log(2.0)) < 1e-12


def test_diff_entropy_monte_carlo():
    rng = np.random.default_rng(7)
    for _ in range(5):
        d = random_alpha(rng)
        mu = rng.dirichlet(d.alpha, size=200_000)
        logpdf = dirichlet_logpdf(d.alpha, mu)
        est = -logpdf.mean()
        se = logpdf.std(ddof=1) / np.sqrt(mu.shape[0])
        assert abs(diff_entropy(d.alpha) - est) < 4.0 * se + 1e-9


def test_diff_entropy_grad_finite_difference():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(10):
        d = random_alpha(rng)
        g = dmath.diff_entropy_grad_rows(d.alpha[None, :])[0]
        for i in range(d.alpha.size):
            up = d.alpha.copy()
            dn = d.alpha.copy()
            up[i] += h
            dn[i] -= h
            fd = (diff_entropy(up) - diff_entropy(dn)) / (2.0 * h)
            assert abs(g[i] - fd) < 1e-5 * max(1.0, abs(fd))


def test_uncertainty_decomposition_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(500):
        d = random_alpha(rng)
        tu = dmath.total_uncertainty(d)
        au = dmath.expected_data_entropy(d)
        mi = dmath.mutual_information(d)
        assert abs(tu - (au + mi)) < 1e-12
        assert mi >= -1e-12


def test_expected_data_entropy_monte_carlo():
    rng = np.random.default_rng(5)
    d = random_alpha(rng, k=4)
    mu = rng.dirichlet(d.alpha, size=200_000)
    ent = -np.sum(mu * np.log(mu), axis=1)
    se = ent.std(ddof=1) / np.sqrt(mu.shape[0])
    assert abs(dmath.expected_data_entropy(d) - ent.mean()) < 4.0 * se + 1e-9


def test_categorical_entropy_edge_cases():
    assert dmath.categorical_entropy_rows(np.array([[1.0, 0.0]]))[0] == 0.0
    k = 5
    u = np.full((1, k), 1.0 / k)
    assert abs(dmath.categorical_entropy_rows(u)[0] - np.log(k)) < 1e-12


@pytest.mark.parametrize("alpha", [[5e-324, 1e10], [5e-324, 1e10, 3.0],
                                   [1e-300, 1e300]])
def test_total_uncertainty_takes_0_ln_0_as_0(alpha):
    # alpha_k / alpha0 underflows to 0 here, so its term must be 0, not NaN
    d = DirichletParams(np.array(alpha))
    want = dmath.total_uncertainty_rows(d.alpha[None, :])[0]
    assert dmath.total_uncertainty(d).hex() == float(want).hex()
    assert np.isfinite(dmath.expected_data_entropy(d))


def test_kl_categorical_properties():
    rng = np.random.default_rng(9)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        p = SimplexVector(rng.dirichlet(np.ones(k)))
        q = SimplexVector(rng.dirichlet(np.ones(k)))
        assert dmath.kl_categorical(p, p) < 1e-12
        assert dmath.kl_categorical(p, q) >= -1e-12
    with pytest.raises(ValueError):
        dmath.kl_categorical(SimplexVector(np.array([1.0, 0.0])),
                             SimplexVector(np.array([0.0, 1.0])))
    # q must be positive wherever p is, and only there
    p = SimplexVector(np.array([0.5, 0.5, 0.0]))
    for q in ([1.0, 0.0, 0.0], [0.0, 0.5, 0.5]):
        with pytest.raises(ValueError, match="positive wherever"):
            dmath.kl_categorical(p, SimplexVector(np.array(q)))
    kl = dmath.kl_categorical(p, SimplexVector(np.array([0.25, 0.75, 0.0])))
    assert kl == pytest.approx(0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0), abs=1e-15)


def test_kl_dirichlet_properties():
    rng = np.random.default_rng(13)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        a = random_alpha(rng, k).alpha
        b = random_alpha(rng, k).alpha
        assert kl_dirichlet(a, a) < 1e-10
        assert kl_dirichlet(a, b) >= -1e-10
    with pytest.raises(ValueError):
        kl_dirichlet(random_alpha(rng, 2).alpha, random_alpha(rng, 3).alpha)


def test_kl_dirichlet_monte_carlo():
    rng = np.random.default_rng(17)
    a = random_alpha(rng, k=3).alpha
    b = random_alpha(rng, k=3).alpha
    mu = rng.dirichlet(a, size=200_000)
    diff = dirichlet_logpdf(a, mu) - dirichlet_logpdf(b, mu)
    se = diff.std(ddof=1) / np.sqrt(mu.shape[0])
    assert abs(kl_dirichlet(a, b) - diff.mean()) < 4.0 * se + 1e-9


def test_kl_dirichlet_grads_finite_difference():
    rng = np.random.default_rng(19)
    h = 1e-6
    for _ in range(5):
        a = random_alpha(rng, k=4).alpha
        b = random_alpha(rng, k=4).alpha
        gb = dmath.kl_dirichlet_grad_second_rows(a[None, :], b[None, :])[0]
        for i in range(4):
            up, dn = b.copy(), b.copy()
            up[i] += h
            dn[i] -= h
            fd = (kl_dirichlet(a, up) - kl_dirichlet(a, dn)) / (2.0 * h)
            assert abs(gb[i] - fd) < 1e-5 * max(1.0, abs(fd))


def _kl_grad_first_rows(a, b):
    """d KL(Dir(a) || Dir(b)) / d a per row, in the KL's own form."""
    diff = a - b
    return (diff * sp.polygamma(1, a)
            - (diff.sum(axis=1) * sp.polygamma(1, a.sum(axis=1)))[:, None])


def test_kl_to_the_flat_dirichlet_is_minus_the_differential_entropy():
    """KL(Dir(a) || Dir(1)) = -h(a) - ln Gamma(K) and d KL / d a = -dh / da,
    over 2,000 batches of 7 rows, K = 2-8, a up to about 5e5.

    The value: both sides add the same computed terms, ln Gamma(a0),
    sum_k ln Gamma(a_k) and sum_k (a_k - 1)(psi(a_k) - psi(a0)), and
    ln Gamma(K), in a different order (the KL's ln Gamma(1) terms are exactly
    0). Each of the at most 7 additions rounds by at most eps times S, the sum
    of the terms' magnitudes, and scipy's and math's ln Gamma(K) differ by a
    few ulps of ln Gamma(K) <= S; so the gap is at most 8 eps S.
    The gradient: both sides share (a_k - 1) psi_1(a_k) bit for bit and differ
    only in sum_k (a_k - 1) against a0 - K, two sums of K nonnegative terms
    below a0 (a_k - 1 is exact), so they differ by at most 2K eps a0. Times
    psi_1(a0), with x psi_1(x) < 1.3 for x >= 2, and with the product and
    the last subtraction rounding at most eps each (both parts are below 1),
    the gap is below 4 (K + 2) eps.
    """
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for _ in range(2000):
        k = int(rng.integers(2, 9))
        f = np.exp(rng.uniform(-5.0, 13.0, size=(7, k))) * rng.choice([-1.0, 1.0], (7, k))
        f[rng.random(f.shape) < 0.2] = 0.0  # alpha exactly 1
        a = dmath.alpha_rows(f)
        flat = np.ones_like(a)
        a0 = a.sum(axis=1)
        s = (gammaln(a0) + np.abs(gammaln(a)).sum(axis=1) + gammaln(k)
             + np.abs((a - 1.0) * (sp.digamma(a) - sp.digamma(a0)[:, None])).sum(axis=1))
        gap = np.abs(dmath.kl_dirichlet_rows(a, flat)
                     - (-dmath.diff_entropy_rows(a) - math.lgamma(k)))
        assert np.all(gap <= 8.0 * eps * s)
        gap = np.abs(_kl_grad_first_rows(a, flat) + dmath.diff_entropy_grad_rows(a))
        assert np.all(gap <= 4.0 * (k + 2) * eps)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(min_value=0.1, max_value=60.0), min_size=2, max_size=6))
def test_decomposition_property(alpha):
    d = DirichletParams(np.array(alpha))
    tu = dmath.total_uncertainty(d)
    au = dmath.expected_data_entropy(d)
    mi = dmath.mutual_information(d)
    assert abs(tu - (au + mi)) < 1e-12
    assert mi >= -1e-12
    assert au >= -1e-12


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(min_value=-30.0, max_value=30.0),
                min_size=2, max_size=6))
def test_alpha_mapping_floor_property(logits):
    alpha = dmath.alpha_rows(np.array([logits]))
    assert np.all(alpha >= 1.0)
    assert alpha.sum() >= alpha.size


# logit entries: exactly 0 (the relu kink) or anywhere in [-30, 30]
LOGITS = st.one_of(st.just(0.0), st.floats(min_value=-30.0, max_value=30.0))


@settings(deadline=None, max_examples=100)
@given(st.data(), st.integers(min_value=1, max_value=8),
       st.integers(min_value=2, max_value=6))
def test_row_kernels_batch_rows_equal_each_row_alone(data, n, k):
    f = data.draw(arrays(float, (n, k), elements=LOGITS))
    g = data.draw(arrays(float, (n, k), elements=LOGITS))

    def kernels(f, g):
        a = dmath.alpha_rows(f)
        b = dmath.alpha_rows(g)
        return {
            "alpha": a,
            "jacobian": dmath.alpha_jacobian_rows(f),
            "diff_entropy": dmath.diff_entropy_rows(a),
            "diff_entropy_grad": dmath.diff_entropy_grad_rows(a),
            "kl": dmath.kl_dirichlet_rows(a, b),
            "kl_grad_second": dmath.kl_dirichlet_grad_second_rows(a, b),
            "total_uncertainty": dmath.total_uncertainty_rows(a),
        }

    batch = kernels(f, g)
    for i in range(n):
        alone = kernels(f[i:i + 1], g[i:i + 1])
        for name, want in alone.items():
            assert np.array_equal(batch[name][i], want[0]), name


def test_row_kernels_reject_bad_input():
    with pytest.raises(ValueError):
        dmath.alpha_rows(np.zeros(3))
    with pytest.raises(ValueError):
        dmath.alpha_rows(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        dmath.alpha_rows(np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError):
        dmath.kl_dirichlet_rows(np.ones((2, 3)), np.ones((2, 4)))
