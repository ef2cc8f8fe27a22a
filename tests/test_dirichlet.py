"""Unit tests for the Dirichlet uncertainty module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dul_lab import dirichlet as dmath
from dul_lab.dirichlet import DirichletParams, SimplexVector

EULER_GAMMA = 0.5772156649015329


def random_alpha(rng, k=None):
    if k is None:
        k = int(rng.integers(2, 6))
    return DirichletParams(rng.uniform(0.2, 50.0, size=k))


def test_special_function_values():
    assert abs(dmath.digamma(1.0) + EULER_GAMMA) < 1e-12
    assert abs(dmath.digamma(0.5) + EULER_GAMMA + 2.0 * np.log(2.0)) < 1e-12
    assert abs(dmath.trigamma(1.0) - np.pi**2 / 6.0) < 1e-12


def test_special_function_domain_errors():
    for fn in (dmath.lgamma, dmath.digamma, dmath.trigamma):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(-1.5)
        with pytest.raises(ValueError):
            fn(float("nan"))


def test_digamma_recurrence():
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.5, 100.0, size=200):
        assert abs(dmath.digamma(x + 1.0) - dmath.digamma(x) - 1.0 / x) < 1e-12


def test_trigamma_recurrence():
    rng = np.random.default_rng(1)
    for x in rng.uniform(0.5, 100.0, size=200):
        assert abs(dmath.trigamma(x + 1.0) - dmath.trigamma(x) + 1.0 / x**2) < 1e-12


def test_dirichlet_params_validation():
    with pytest.raises(ValueError):
        DirichletParams(np.array([1.0]))
    with pytest.raises(ValueError):
        DirichletParams(np.array([1.0, -0.2]))
    with pytest.raises(ValueError):
        DirichletParams(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        DirichletParams(np.array([1.0, 2.0]), alpha0=5.0)
    d = DirichletParams(np.array([2.0, 3.0]))
    assert d.alpha0 == 5.0
    assert d.k == 2


def test_simplex_vector_validation():
    with pytest.raises(ValueError):
        SimplexVector(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SimplexVector(np.array([-0.1, 1.1]))
    p = SimplexVector(np.array([0.25, 0.75]))
    assert p.k == 2


def test_alpha_from_logits_mappings():
    f = np.array([2.0, -1.0, 0.0])
    a = dmath.alpha_from_logits(f, "relu_plus_one")
    assert np.allclose(a.alpha, [3.0, 1.0, 1.0])
    b = dmath.alpha_from_logits(f, "exp_relu")
    assert np.allclose(b.alpha, [np.e**2, 1.0, 1.0])
    with pytest.raises(ValueError):
        dmath.alpha_from_logits(f, "softplus")
    with pytest.raises(ValueError):
        dmath.alpha_from_logits(np.array([1.0, np.nan, 0.0]))


def test_uniform_dirichlet_entropy_k3():
    # Dir(1,1,1) is uniform on the 2-simplex of area 1/2
    d = DirichletParams(np.ones(3))
    assert abs(dmath.diff_entropy(d) + np.log(2.0)) < 1e-12


def test_diff_entropy_monte_carlo():
    rng = np.random.default_rng(7)
    for _ in range(5):
        d = random_alpha(rng)
        mu = rng.dirichlet(d.alpha, size=200_000)
        logpdf = (dmath.lgamma(d.alpha0)
                  - np.sum([dmath.lgamma(a) for a in d.alpha])
                  + np.sum((d.alpha - 1.0) * np.log(mu), axis=1))
        est = -logpdf.mean()
        se = logpdf.std(ddof=1) / np.sqrt(mu.shape[0])
        assert abs(dmath.diff_entropy(d) - est) < 4.0 * se + 1e-9


def test_diff_entropy_grad_finite_difference():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(10):
        d = random_alpha(rng)
        g = dmath.diff_entropy_grad(d)
        for i in range(d.k):
            up = d.alpha.copy()
            dn = d.alpha.copy()
            up[i] += h
            dn[i] -= h
            fd = (dmath.diff_entropy(DirichletParams(up))
                  - dmath.diff_entropy(DirichletParams(dn))) / (2.0 * h)
            assert abs(g[i] - fd) < 1e-5 * max(1.0, abs(fd))


def test_expected_categorical_is_mean():
    d = DirichletParams(np.array([2.0, 6.0]))
    assert np.allclose(dmath.expected_categorical(d).p, [0.25, 0.75])


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
    assert dmath.categorical_entropy(SimplexVector(np.array([1.0, 0.0]))) == 0.0
    k = 5
    u = SimplexVector(np.full(k, 1.0 / k))
    assert abs(dmath.categorical_entropy(u) - np.log(k)) < 1e-12


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


def test_kl_dirichlet_properties():
    rng = np.random.default_rng(13)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        a = random_alpha(rng, k)
        b = random_alpha(rng, k)
        assert dmath.kl_dirichlet(a, a) < 1e-10
        assert dmath.kl_dirichlet(a, b) >= -1e-10
    with pytest.raises(ValueError):
        dmath.kl_dirichlet(random_alpha(rng, 2), random_alpha(rng, 3))


def test_kl_dirichlet_monte_carlo():
    rng = np.random.default_rng(17)
    a = random_alpha(rng, k=3)
    b = random_alpha(rng, k=3)
    mu = rng.dirichlet(a.alpha, size=200_000)

    def logpdf(d, mu):
        return (dmath.lgamma(d.alpha0)
                - np.sum([dmath.lgamma(x) for x in d.alpha])
                + np.sum((d.alpha - 1.0) * np.log(mu), axis=1))

    diff = logpdf(a, mu) - logpdf(b, mu)
    se = diff.std(ddof=1) / np.sqrt(mu.shape[0])
    assert abs(dmath.kl_dirichlet(a, b) - diff.mean()) < 4.0 * se + 1e-9


def test_kl_dirichlet_grads_finite_difference():
    rng = np.random.default_rng(19)
    h = 1e-6
    for _ in range(5):
        a = random_alpha(rng, k=4)
        b = random_alpha(rng, k=4)
        ga = dmath.kl_dirichlet_grad_first(a, b)
        gb = dmath.kl_dirichlet_grad_second(a, b)
        for i in range(4):
            up, dn = a.alpha.copy(), a.alpha.copy()
            up[i] += h
            dn[i] -= h
            fd = (dmath.kl_dirichlet(DirichletParams(up), b)
                  - dmath.kl_dirichlet(DirichletParams(dn), b)) / (2.0 * h)
            assert abs(ga[i] - fd) < 1e-5 * max(1.0, abs(fd))
            up, dn = b.alpha.copy(), b.alpha.copy()
            up[i] += h
            dn[i] -= h
            fd = (dmath.kl_dirichlet(a, DirichletParams(up))
                  - dmath.kl_dirichlet(a, DirichletParams(dn))) / (2.0 * h)
            assert abs(gb[i] - fd) < 1e-5 * max(1.0, abs(fd))


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
    d = dmath.alpha_from_logits(np.array(logits))
    assert np.all(d.alpha >= 1.0)
    assert d.alpha0 >= d.k


# logit entries: exactly 0 (the relu kink) or anywhere in [-30, 30]
LOGITS = st.one_of(st.just(0.0), st.floats(min_value=-30.0, max_value=30.0))


@settings(deadline=None, max_examples=100)
@given(st.data(), st.integers(min_value=1, max_value=8),
       st.integers(min_value=2, max_value=6),
       st.sampled_from(["relu_plus_one", "exp_relu"]))
def test_row_kernels_match_scalar_api_row_by_row(data, n, k, mapping):
    f = data.draw(arrays(float, (n, k), elements=LOGITS))
    g = data.draw(arrays(float, (n, k), elements=LOGITS))
    a = dmath.alpha_rows(f, mapping)
    b = dmath.alpha_rows(g, mapping)
    kernels = {
        "jacobian": dmath.alpha_jacobian_rows(f, mapping),
        "diff_entropy": dmath.diff_entropy_rows(a),
        "diff_entropy_grad": dmath.diff_entropy_grad_rows(a),
        "kl": dmath.kl_dirichlet_rows(a, b),
        "kl_grad_first": dmath.kl_dirichlet_grad_first_rows(a, b),
        "kl_grad_second": dmath.kl_dirichlet_grad_second_rows(a, b),
        "total_uncertainty": dmath.total_uncertainty_rows(a),
    }
    for i in range(n):
        da = dmath.alpha_from_logits(f[i], mapping)
        db = dmath.alpha_from_logits(g[i], mapping)
        scalar = {
            "jacobian": dmath.alpha_mapping_jacobian_diag(f[i], mapping),
            "diff_entropy": dmath.diff_entropy(da),
            "diff_entropy_grad": dmath.diff_entropy_grad(da),
            "kl": dmath.kl_dirichlet(da, db),
            "kl_grad_first": dmath.kl_dirichlet_grad_first(da, db),
            "kl_grad_second": dmath.kl_dirichlet_grad_second(da, db),
            "total_uncertainty": dmath.total_uncertainty(da),
        }
        assert np.array_equal(a[i], da.alpha)
        for name, want in scalar.items():
            assert np.array_equal(kernels[name][i], want), name


def test_row_kernels_reject_bad_input():
    with pytest.raises(ValueError):
        dmath.alpha_rows(np.zeros(3))
    with pytest.raises(ValueError):
        dmath.alpha_rows(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        dmath.alpha_rows(np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError):
        dmath.alpha_rows(np.zeros((2, 3)), "softplus")
    with pytest.raises(ValueError):
        dmath.kl_dirichlet_rows(np.ones((2, 3)), np.ones((2, 4)))
