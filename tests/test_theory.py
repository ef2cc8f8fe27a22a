"""Unit tests for the bound machinery: TVD, disparity, inequality checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from dul_lab import theory
from dul_lab.data import LabeledDataset, make_id_blobs, make_semantic_ood
from dul_lab.dirichlet import SimplexVector
from dul_lab.nn import Batch, Mlp, mlp_init
from dul_lab.theory import HypothesisPool


def simplex(rng, k):
    return SimplexVector(rng.dirichlet(np.ones(k)))


def test_tvd_basic_values():
    p = SimplexVector(np.array([1.0, 0.0]))
    q = SimplexVector(np.array([0.0, 1.0]))
    assert theory.tvd(p, q) == 1.0
    assert theory.tvd(p, p) == 0.0
    with pytest.raises(ValueError):
        theory.tvd(p, SimplexVector(np.array([1.0, 0.0, 0.0])))


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_tvd_metric_properties(k, seed):
    rng = np.random.default_rng(seed)
    p, q, r = simplex(rng, k), simplex(rng, k), simplex(rng, k)
    assert 0.0 <= theory.tvd(p, q) <= 1.0
    assert theory.tvd(p, q) == pytest.approx(theory.tvd(q, p), abs=1e-15)
    assert theory.tvd(p, r) <= theory.tvd(p, q) + theory.tvd(q, r) + 1e-12


def test_pinsker_and_bretagnolle_huber_fuzz():
    rng = np.random.default_rng(61)
    for _ in range(2000):
        k = int(rng.integers(2, 6))
        p, q = simplex(rng, k), simplex(rng, k)
        assert theory.pinsker_check(p, q)["holds"]
        assert theory.bretagnolle_huber_check(p, q)["holds"]


def test_bretagnolle_huber_tighter_for_large_kl():
    # for KL > 2 the BH bound beats Pinsker's
    p = SimplexVector(np.array([0.999, 0.001]))
    q = SimplexVector(np.array([0.001, 0.999]))
    pin = theory.pinsker_check(p, q)
    bh = theory.bretagnolle_huber_check(p, q)
    assert bh["bound"] < np.sqrt(pin["kl"] / 2.0)


def test_lemma2_fuzz_and_uniform_case():
    rng = np.random.default_rng(63)
    logits = rng.normal(0.0, 4.0, size=(2000, 5))
    res = theory.lemma2_check(logits)
    assert res["holds"] and res["row_violations"] == 0
    res = theory.lemma2_check(np.zeros((3, 4)))
    assert res["lhs"] == pytest.approx(0.0, abs=1e-15)
    assert res["rhs"] == pytest.approx(0.0, abs=1e-15)


def test_lemma2_row_violations_count_every_failing_row(monkeypatch):
    # halving the uniform-CE slack makes the bound fail on near-uniform rows
    real = theory.oe_per_sample
    monkeypatch.setattr(theory, "oe_per_sample", lambda f: np.log(f.shape[1])
                        + 0.5 * (real(f) - np.log(f.shape[1])))
    logits = np.random.default_rng(65).normal(0.0, 5.0, size=(400, 4))
    logits[:20] *= 0.01
    res = theory.lemma2_check(logits)
    one_row = sum(not theory.lemma2_check(logits[i:i + 1])["holds"]
                  for i in range(len(logits)))
    assert res["holds"]  # the mean check alone misses them
    assert res["row_violations"] == one_row > 0


def test_hypothesis_pool_validation():
    a = mlp_init((2, 4, 3), "tanh", seed=0)
    b = mlp_init((2, 4, 2), "tanh", seed=0)
    with pytest.raises(ValueError):
        HypothesisPool(())
    with pytest.raises(ValueError):
        HypothesisPool((a, b))
    pool = HypothesisPool((a,))
    assert pool.size == 1


def test_perturbed_pool_deterministic():
    base = mlp_init((2, 4, 3), "tanh", seed=1)
    p1 = theory.perturbed_pool([base], n_perturbed=3, seed=5)
    p2 = theory.perturbed_pool([base], n_perturbed=3, seed=5)
    assert p1.size == 4
    for m1, m2 in zip(p1.members, p2.members):
        assert np.array_equal(m1.get_flat(), m2.get_flat())


def test_disparity_properties():
    rng = np.random.default_rng(65)
    x = rng.standard_normal((50, 2))
    f = mlp_init((2, 8, 3), "tanh", seed=2)
    g = mlp_init((2, 8, 3), "tanh", seed=3)
    assert theory.disparity(x, f, f) == 0.0
    d = theory.disparity(x, f, g)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(theory.disparity(x, g, f), abs=1e-15)
    # oracle: mean row TVD computed directly
    pa = softmax(f.forward(Batch(x)), axis=1)
    pb = softmax(g.forward(Batch(x)), axis=1)
    oracle = np.mean(0.5 * np.abs(pa - pb).sum(axis=1))
    assert d == pytest.approx(oracle, abs=1e-15)
    with pytest.raises(ValueError):
        theory.disparity(np.zeros((0, 2)), f, g)


def test_theorem1_bound_holds_on_untrained_models():
    cov = make_id_blobs(3, 100, sigma=0.75, seed=70)
    cov = LabeledDataset(cov.points, cov.labels, "COV")
    sem = make_semantic_ood("test", 200, seed=71, sigma=0.75)
    model = mlp_init((2, 8, 3), "tanh", seed=72)
    pool = theory.perturbed_pool([model], n_perturbed=4, seed=73)
    rep = theory.theorem1_bound(cov, sem, model, pool)
    assert rep.holds
    assert rep.gerror >= rep.lower_bound - 1e-9
    with pytest.raises(ValueError):
        theory.theorem1_bound(
            LabeledDataset(cov.points, None, "SEM_TEST"), sem, model, pool)


def _random_pool(n_members, seed):
    return HypothesisPool(tuple(mlp_init((2, 8, 3), "tanh", seed=seed + s)
                                for s in range(n_members)))


def test_theorem1_bound_d_ff_nonneg_and_zero_on_same_samples():
    rng = np.random.default_rng(67)
    x = rng.standard_normal((30, 2))
    y = rng.standard_normal((30, 2)) + 3.0
    cov = LabeledDataset(x, rng.integers(0, 3, size=30), "COV")
    pool = _random_pool(3, seed=0)
    for model in (pool.members[0], mlp_init((2, 8, 3), "tanh", seed=9)):
        same = theory.theorem1_bound(cov, LabeledDataset(x, None, "SEM_TEST"),
                                     model, pool)
        assert same.d_ff == 0.0
        shifted = theory.theorem1_bound(cov, LabeledDataset(y, None, "SEM_TEST"),
                                        model, pool)
        assert shifted.d_ff >= 0.0


def _bound_terms_reference(cov, sem, members):
    """(d_ff, lambda_const) from the one-pair disparity and per-member forwards."""
    d_ff = 0.0
    for f in members:
        for f2 in members:
            d_ff = max(d_ff, theory.disparity(cov.points, f, f2)
                       - theory.disparity(sem.points, f, f2))
    lam = np.inf
    uniform = np.full((1, 3), 1.0 / 3.0)
    for f in members:
        pc = softmax(f.forward(Batch(cov.points)), axis=1)
        ps = softmax(f.forward(Batch(sem.points)), axis=1)
        lam = min(lam, float(0.5 * np.abs(pc - uniform).sum(axis=1).mean()
                             + 0.5 * np.abs(ps - uniform).sum(axis=1).mean()))
    return d_ff, lam


# scale None: the model is a pool member. Otherwise it is a scaled copy of
# one member and not in the pool: sharpened (2.0) it raises d_ff, damped
# toward uniform (0.2) it lowers lambda_const.
@pytest.mark.parametrize("scale", [None, 2.0, 0.2])
def test_theorem1_bound_terms_equal_pairwise_reference(scale):
    cov = make_id_blobs(3, 60, sigma=0.75, seed=74)
    cov = LabeledDataset(cov.points, cov.labels, "COV")
    sem = make_semantic_ood("test", 90, seed=75, sigma=0.75)
    pool = _random_pool(4, seed=30)
    pool_terms = _bound_terms_reference(cov, sem, pool.members)
    if scale is None:
        model, terms = pool.members[2], pool_terms
    else:
        model = pool.members[1].set_flat(scale * pool.members[1].get_flat())
        terms = _bound_terms_reference(cov, sem, pool.members + (model,))
        assert terms != pool_terms  # the appended model must matter
    rep = theory.theorem1_bound(cov, sem, model, pool)
    assert rep.d_ff > 0.0  # a pair gap, not the identical pair's floor of 0
    assert (rep.d_ff, rep.lambda_const) == terms


def test_theorem1_bound_forward_count_is_linear_in_pool(monkeypatch):
    # one forward per member per sample set; the model's own terms reuse
    # its forwards, whether it is a member or is appended
    cov = make_id_blobs(3, 30, sigma=0.75, seed=77)
    cov = LabeledDataset(cov.points, cov.labels, "COV")
    sem = make_semantic_ood("test", 40, seed=78, sigma=0.75)
    pool = _random_pool(6, seed=40)
    model = mlp_init((2, 8, 3), "tanh", seed=79)
    calls = []
    real = Mlp.forward_cache
    monkeypatch.setattr(Mlp, "forward_cache",
                        lambda self, x: calls.append(1) or real(self, x))
    theory.theorem1_bound(cov, sem, model, pool)
    assert len(calls) == 2 * (pool.size + 1)
    calls.clear()
    theory.theorem1_bound(cov, sem, pool.members[3], pool)
    assert len(calls) == 2 * pool.size
