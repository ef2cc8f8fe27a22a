"""Unit tests for the bound machinery: TVD, disparity, inequality checks."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special as sp
from scipy.special import softmax

from dul_lab import dirichlet as dmath
from dul_lab import theory
from dul_lab.data import make_id_blobs, make_semantic_ood
from dul_lab.dirichlet import DirichletParams, SimplexVector
from dul_lab.losses import softmax as lab_softmax
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


# float.hex of (tvd, kl_categorical, Bretagnolle-Huber bound) and of
# (total_uncertainty, expected_data_entropy, mutual_information) per case of
# _golden_cases, recorded from the plain numpy form of each function
# (np.sum, np.any); a rewrite for speed must keep every value bit for bit.
GOLDEN_HEX = (
    ("0x1.715851482c00cp-2 0x1.ca19a255ca830p-2 0x1.337e5cf06313dp-1",
     "0x1.62c6861cfcd59p-1 0x1.6024936f2cb2ep-1 0x1.50f956e811580p-8"),
    ("0x1.88d3a9ebf675bp-2 0x1.65a5dc85fb4b1p-2 0x1.15fd7993f00cbp-1",
     "0x1.daf7ba8638ffdp-1 0x1.d5aecf1de0e0dp-1 0x1.523ada1607c00p-7"),
    ("0x1.3357a78dfe376p-2 0x1.4cd904adaddfbp-2 0x1.0db73f3638984p-1",
     "0x1.197beb0d867bep+0 0x1.14e2cf99f1ca3p+0 0x1.2646dce52c6c0p-6"),
    ("0x1.57999097a2f4ap-1 0x1.3cd84a0cedf95p+0 0x1.af66bd82a16c2p-1",
     "0x1.63ba628a8ef49p+0 0x1.5fe4467622bc6p+0 0x1.eb0e0a361c180p-7"),
    ("0x1.4e8c9f93c6184p-3 0x1.8771632c3c68ep-4 0x1.3524da746918dp-2",
     "0x1.5942bfe93425bp-1 0x1.545c4c30582e8p-1 0x1.399cee36fdcc0p-7"),
    ("0x1.0923216e7bbd2p-4 0x1.e38316fbd5644p-7 0x1.efb8eee329308p-4",
     "0x1.121b664eae49fp+0 0x1.0f70a55b1da62p+0 0x1.556079c851e80p-7"),
    ("0x1.7bcc43b7623dep-2 0x1.c9637899b8770p-2 0x1.334dda602a561p-1",
     "0x1.52fa8a5bc04f5p+0 0x1.504301e68a872p+0 0x1.5bc43a9ae4180p-7"),
    ("0x1.5ef6d25745b1dp-2 0x1.9078f015d2ef6p-2 0x1.234a6f76dc4d4p-1",
     "0x1.61c6bad8ef5f7p+0 0x1.5eb54adfa8743p+0 0x1.88b7fca375a00p-7"),
    ("0x1.5d5f375f34ff4p-3 0x1.0eae74ba0b09ap-4 0x1.02f2de3173de9p-2",
     "0x1.5f6182450240ap-1 0x1.5c45dc9e68d1fp-1 0x1.8dd2d34cb7580p-8"),
    ("0x1.2197e27c3e951p-3 0x1.0ca0d30d6096fp-3 0x1.6706852268cfap-2",
     "0x1.25ef942604223p-1 0x1.1cd34cb031572p-1 0x1.2388eeba59620p-6"),
    ("0x1.cfa3d61aae987p-3 0x1.0bb263f34e034p-3 0x1.6671404326128p-2",
     "0x1.18b93e2aa13cap+0 0x1.1589150e0aec0p+0 0x1.98148e4b28500p-7"),
    ("0x1.cba52a8991b1dp-4 0x1.0f9a8f7c9f7cap-3 0x1.68e1542cef9ddp-2",
     "0x1.910c1d63bb958p+0 0x1.8d430b6f7678cp+0 0x1.e488fa228e600p-7"),
    ("0x1.ceffb1db2fadcp-2 0x1.34186a56d7d80p-1 0x1.58474ca68a8c8p-1",
     "0x1.5dd3af81bd774p-1 0x1.5acb28cc70dfap-1 0x1.84435aa64bd00p-8"),
    ("0x1.0d263658be371p-1 0x1.7a6b581667310p-1 0x1.72145c543a403p-1",
     "0x1.d9dd670550576p-1 0x1.d3bc9efb8b5bbp-1 0x1.883202713eec0p-7"),
    ("0x1.60796b9c05c78p-3 0x1.13b0fc3ccc1e3p-4 0x1.05414c2d9a1b8p-2",
     "0x1.3db523be73b61p+0 0x1.3143e66f15359p+0 0x1.8e27a9ebd0100p-5"),
    ("0x1.a2aa541a29249p-2 0x1.1b6e1f1a3bbe9p-1 0x1.4dd36e177da83p-1",
     "0x1.8f48b2c018bb6p+0 0x1.8b6b289b1ffc5p+0 0x1.eec5127c5f880p-7"),
    ("0x1.e9eaaba3377bdp-3 0x1.db14e3c958d9ep-4 0x1.52dea27f8474bp-2",
     "0x1.629004bf946e6p-1 0x1.5f79f49cd05ecp-1 0x1.8b08116207d00p-8"),
    ("0x1.c8234565d07dap-3 0x1.6acbad0203841p-3 0x1.9c967d0d3cde3p-2",
     "0x1.19133fd65150cp+0 0x1.1687562f5ebc4p+0 0x1.45f4d3794a400p-7"),
    ("0x1.a905ccfadda27p-2 0x1.46b3d3902f01ep-1 0x1.5fa4c9459e341p-1",
     "0x1.6192409119610p+0 0x1.5f15317d73528p+0 0x1.3e8789d307400p-7"),
    ("0x1.97c924a150995p-3 0x1.b17ae7347fba6p-4 0x1.4480288c14a0bp-2",
     "0x1.5d58317f51db5p+0 0x1.5a639217b75f2p+0 0x1.7a4fb3cd3e180p-7"),
    ("0x1.8a07317f53ca0p-6 0x1.6780a7d994cd0p-10 0x1.2f43ce2824875p-5",
     "0x1.54091296aba1fp-1 0x1.5035ed64edef0p-1 0x1.e99298ded9780p-8"),
    ("0x1.18a84c58f3fb8p-1 0x1.ce84679c91aa6p-1 0x1.8ade505e44a77p-1",
     "0x1.e92987527f308p-1 0x1.e2b302834d03cp-1 0x1.9da133cc8b300p-7"),
    ("0x1.30eaf9031158dp-3 0x1.212a0a17718e7p-4 0x1.0b585f9e26a4cp-2",
     "0x1.3f5d7a078ca54p+0 0x1.3b55279e199c9p+0 0x1.02149a5cc22c0p-6"),
    ("0x1.85125dd96b986p-2 0x1.cf61fde48b842p-2 0x1.34e484b1b2900p-1",
     "0x1.8fbc0747ce5acp+0 0x1.8ce88df447b4dp+0 0x1.69bca9c352f80p-7"),
    ("0x1.be738253bd606p-2 0x1.25362a7308a89p-1 0x1.5211fd5f79279p-1",
     "0x1.58cb39037a8d8p-1 0x1.5532bbf1529f4p-1 0x1.cc3e8913f7200p-8"),
    ("0x1.32a2765d790bap-2 0x1.7bfeaf54c9423p-2 0x1.1d13d5ecd08c8p-1",
     "0x1.17c7793429264p+0 0x1.1454d4c6f01b1p+0 0x1.b952369c85980p-7"),
    ("0x1.95a696b1c654fp-2 0x1.a1c8796fb94d3p-2 0x1.2859245c41701p-1",
     "0x1.584f693a01dbfp+0 0x1.556b810b02dbep+0 0x1.71f4177f80080p-7"),
    ("0x1.e910647911128p-2 0x1.4f3bb04835f89p-1 0x1.62e1f0687fa43p-1",
     "0x1.6eae6b1faed85p+0 0x1.6ab94b674a2b6p+0 0x1.fa8fdc3256780p-7"),
    ("0x1.6d453a4f199eep-2 0x1.0e59a63bdb68ep-2 0x1.ed435e0bbcc4dp-2",
     "0x1.5ae374ab55dfap-1 0x1.57cde8c64746ep-1 0x1.8ac5f2874c600p-8"),
    ("0x1.7e5e6937b88e1p-2 0x1.003475effd5acp-1 0x1.41431054b4b54p-1",
     "0x1.0a78407291672p+0 0x1.069b973149e76p+0 0x1.ee54a0a3bfe00p-7"),
)


def _golden_cases():
    """30 seeded cases, K = 2..5; every third p has a zero entry."""
    rng = np.random.default_rng(2410_11576)
    for i in range(30):
        k = 2 + i % 4
        w = rng.random(k)
        if i % 3 == 0:
            w[i % k] = 0.0
        q = rng.random(k) + 0.01
        yield (SimplexVector(w / w.sum()), SimplexVector(q / q.sum()),
               DirichletParams(0.05 + 50.0 * rng.random(k)))


def test_one_distribution_values_are_bit_identical_to_golden():
    cases = list(_golden_cases())
    assert len(cases) == len(GOLDEN_HEX)
    assert sum(bool((p.p == 0).any()) for p, _, _ in cases) == 10
    for (p, q, d), (want_pq, want_d) in zip(cases, GOLDEN_HEX):
        got_pq = (theory.tvd(p, q), dmath.kl_categorical(p, q),
                  theory.bretagnolle_huber_check(p, q)["bound"])
        got_d = (dmath.total_uncertainty(d), dmath.expected_data_entropy(d),
                 dmath.mutual_information(d))
        assert " ".join(v.hex() for v in got_pq) == want_pq
        assert " ".join(v.hex() for v in got_d) == want_d
        assert dmath.total_uncertainty(d) == dmath.total_uncertainty_rows(d.alpha[None, :])[0]


# The plain numpy forms of the one-distribution values, kept as references:
# the functions sum Python floats in index order, which is numpy's order for
# K < 8, so every value must match these bit for bit.
def _numpy_values(p, q, alpha) -> list:
    """float.hex of TV, KL, the Bretagnolle-Huber bound, TU, AU and MI."""
    tv = float(0.5 * np.abs(p - q).sum())
    sup = p > 0
    kl = float((p[sup] * (np.log(p[sup]) - np.log(q[sup]))).sum())
    bound = float(np.sqrt(1.0 - np.exp(-kl)))
    a0 = float(alpha.sum())
    tu = float(dmath.categorical_entropy_rows((alpha / a0)[None, :])[0])
    au = float(-((alpha / a0) * (sp.digamma(alpha + 1.0) - sp.digamma(a0 + 1.0))).sum())
    return [v.hex() for v in (tv, kl, bound, tu, au, tu - au)]


def _one_distribution_values(p, q, d) -> list:
    return [v.hex() for v in (
        theory.tvd(p, q), dmath.kl_categorical(p, q),
        theory.bretagnolle_huber_check(p, q)["bound"], dmath.total_uncertainty(d),
        dmath.expected_data_entropy(d), dmath.mutual_information(d))]


@st.composite
def _one_distribution_case(draw):
    """(p, q, alpha) with K = 2..5; p may hold zeros, q is positive."""
    k = draw(st.integers(min_value=2, max_value=5))
    w = draw(arrays(float, k, elements=st.one_of(st.just(0.0),
                                                 st.floats(min_value=0.01, max_value=1.0))))
    assume(w.sum() > 0)
    q = draw(arrays(float, k, elements=st.floats(min_value=0.01, max_value=1.0)))
    alpha = draw(arrays(float, k, elements=st.floats(min_value=0.05, max_value=50.0)))
    return w / w.sum(), q / q.sum(), alpha


# near p == q the KL sum can round below 0, and then 1 - exp(-kl) < 0 makes the
# Bretagnolle-Huber bound NaN; both forms must still agree there
@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt:RuntimeWarning")
@settings(deadline=None, max_examples=200)
@given(_one_distribution_case())
def test_one_distribution_values_equal_the_numpy_forms(case):
    w, qv, alpha = case
    want = _numpy_values(w, qv, alpha)
    p, q, d = SimplexVector(w), SimplexVector(qv), DirichletParams(alpha)
    assert _one_distribution_values(p, q, d) == want
    assert _one_distribution_values(p, q, d) == want  # second read, from the cache
    # objects with equal values, built from copies, give the same results
    twins = SimplexVector(w.copy()), SimplexVector(qv.copy()), DirichletParams(alpha.copy())
    assert _one_distribution_values(*twins) == want


def test_one_distribution_values_equal_the_numpy_forms_on_fuzz_inputs():
    # math.log and np.log can differ in the last bit on a fraction of a percent
    # of inputs, too rare for the property test above; the verify fuzz's own
    # draws, 5,000 cases of them, catch a log taken in the wrong library
    rng = np.random.default_rng(2410)
    for _ in range(5000):
        k = int(rng.integers(2, 6))
        w, qv = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        alpha = rng.uniform(0.05, 50.0, size=k)
        got = _one_distribution_values(SimplexVector(w), SimplexVector(qv),
                                       DirichletParams(alpha))
        assert got == _numpy_values(w, qv, alpha)


@settings(deadline=None, max_examples=100)
@given(_one_distribution_case())
def test_inequality_checks_hold_on_the_equality_edge(case):
    # p == q puts both inequalities at equality: TV = KL = bound = 0
    w, _, _ = case
    p, q = SimplexVector(w), SimplexVector(w.copy())
    assert theory.tvd(p, q) == 0.0
    assert dmath.kl_categorical(p, q) == 0.0
    assert theory.pinsker_check(p, q)["holds"]
    bh = theory.bretagnolle_huber_check(p, q)
    assert bh["bound"] == 0.0 and bh["holds"]


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
    res = theory.lemma2_check(np.zeros((3, 4)))  # uniform rows: the equality edge
    assert res["lhs"] == pytest.approx(0.0, abs=1e-15)
    assert res["rhs"] == pytest.approx(0.0, abs=1e-15)
    assert res["holds"] and res["row_violations"] == 0


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
    a = mlp_init((2, 4, 3), seed=0)
    b = mlp_init((2, 4, 2), seed=0)
    with pytest.raises(ValueError):
        HypothesisPool(())
    with pytest.raises(ValueError):
        HypothesisPool((a, b))
    pool = HypothesisPool((a,))
    assert pool.size == 1


def test_perturbed_pool_deterministic():
    base = mlp_init((2, 4, 3), seed=1)
    p1 = theory.perturbed_pool([base], n_perturbed=3, seed=5)
    p2 = theory.perturbed_pool([base], n_perturbed=3, seed=5)
    assert p1.size == 4
    for m1, m2 in zip(p1.members, p2.members):
        assert np.array_equal(m1.get_flat(), m2.get_flat())


def test_perturbed_pool_noise_is_one_percent_of_the_parameter_rms():
    # each perturbed member is theta + sigma z with z ~ N(0, I) and sigma 1% of
    # the parameter RMS, so mean(dev^2) / sigma^2 is chi^2_n / n (mean 1, sd
    # sqrt(2 / n)) and mean(dev) is N(0, sigma^2 / n). theta - sigma z has the
    # same distribution, so these bounds cannot tell the two apart.
    base = mlp_init((2, 64, 64, 3), seed=4)
    theta = base.get_flat()
    n = theta.size
    sigma = 0.01 * np.sqrt(np.mean(theta**2))
    pool = theory.perturbed_pool([base], n_perturbed=8, seed=6)
    assert pool.size == 9 and pool.members[0] is base
    for member in pool.members[1:]:
        dev = member.get_flat() - theta
        assert abs(np.mean(dev**2) / sigma**2 - 1.0) <= 5.0 * np.sqrt(2.0 / n)
        assert abs(dev.mean()) <= 5.0 * sigma / np.sqrt(n)


def test_disparity_properties():
    rng = np.random.default_rng(65)
    x = rng.standard_normal((50, 2))
    f = mlp_init((2, 8, 3), seed=2)
    g = mlp_init((2, 8, 3), seed=3)
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
    # one sample is accepted, and its disparity is that row's TV
    one = x[:1]
    tv = theory.tvd(SimplexVector(lab_softmax(f.forward(Batch(one)))[0]),
                    SimplexVector(lab_softmax(g.forward(Batch(one)))[0]))
    assert tv > 0.0
    assert theory.disparity(one, f, g) == tv


def test_theorem1_bound_holds_on_untrained_models():
    cov = make_id_blobs(3, 100, radius=4.0, sigma=0.75, seed=70)
    sem = make_semantic_ood("test", 200, seed=71, k=3, sigma=0.75)
    model = mlp_init((2, 8, 3), seed=72)
    pool = theory.perturbed_pool([model], n_perturbed=4, seed=73)
    rep = theory.theorem1_bound(cov, sem, model, pool)
    assert rep.holds
    assert rep.gerror >= rep.lower_bound - 1e-9
    with pytest.raises(ValueError):
        theory.theorem1_bound(Batch(cov.points), sem, model, pool)


def _random_pool(n_members, seed):
    return HypothesisPool(tuple(mlp_init((2, 8, 3), seed=seed + s)
                                for s in range(n_members)))


def test_theorem1_bound_d_ff_nonneg_and_zero_on_same_samples():
    rng = np.random.default_rng(67)
    x = rng.standard_normal((30, 2))
    y = rng.standard_normal((30, 2)) + 3.0
    cov = Batch(x, rng.integers(0, 3, size=30))
    pool = _random_pool(3, seed=0)
    for model in (pool.members[0], mlp_init((2, 8, 3), seed=9)):
        same = theory.theorem1_bound(cov, Batch(x), model, pool)
        assert same.d_ff == 0.0
        shifted = theory.theorem1_bound(cov, Batch(y), model, pool)
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
    cov = make_id_blobs(3, 60, radius=4.0, sigma=0.75, seed=74)
    sem = make_semantic_ood("test", 90, seed=75, k=3, sigma=0.75)
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


# float.hex of (gerror, lower_bound, d_ff, lambda_const, c_const), then holds,
# for a pool member and for a sharpened copy of another member outside the
# pool, recorded from the pairwise-loop form of the pool terms; the
# disparity-matrix form must keep every field bit for bit.
GOLDEN_BOUND = (
    ("0x1.8bc7abab0ebf3p+0 -0x1.ac47c9fec70b5p+0 0x1.c946d9a44b160p-5 "
     "0x1.8c0fe99ebe248p-2 -0x1.c2ca7de826f38p-2", True),
    ("0x1.516785fa8dafcp-2 -0x1.eafa275fa0d16p+0 0x1.21c70009996eap-3 "
     "0x1.8c0fe99ebe248p-2 -0x1.c2ca7de826f38p-2", True),
)


def test_theorem1_bound_is_bit_identical_to_golden():
    cov = make_id_blobs(3, 60, radius=4.0, sigma=0.75, seed=74)
    sem = make_semantic_ood("test", 90, seed=75, k=3, sigma=0.75)
    pool = _random_pool(4, seed=30)
    outside = pool.members[1].set_flat(2.0 * pool.members[1].get_flat())
    for model, (want, holds) in zip((pool.members[2], outside), GOLDEN_BOUND):
        rep = theory.theorem1_bound(cov, sem, model, pool)
        assert rep.d_ff > 0.0
        got = (rep.gerror, rep.lower_bound, rep.d_ff, rep.lambda_const, rep.c_const)
        assert " ".join(v.hex() for v in got) == want
        assert rep.holds is holds


def test_theorem1_bound_forward_count_is_linear_in_pool(monkeypatch):
    # one forward per member per sample set; the model's own terms reuse
    # its forwards, whether it is a member or is appended
    cov = make_id_blobs(3, 30, radius=4.0, sigma=0.75, seed=77)
    sem = make_semantic_ood("test", 40, seed=78, k=3, sigma=0.75)
    pool = _random_pool(6, seed=40)
    model = mlp_init((2, 8, 3), seed=79)
    calls = []
    real = Mlp.forward_cache
    monkeypatch.setattr(Mlp, "forward_cache",
                        lambda self, x: calls.append(1) or real(self, x))
    theory.theorem1_bound(cov, sem, model, pool)
    assert len(calls) == 2 * (pool.size + 1)
    calls.clear()
    theory.theorem1_bound(cov, sem, pool.members[3], pool)
    assert len(calls) == 2 * pool.size
    # the pool keeps its terms on both sets, so another member needs none
    calls.clear()
    theory.theorem1_bound(cov, sem, pool.members[0], pool)
    assert calls == []


def _bits(rep):
    return tuple(v.hex() for v in (rep.gerror, rep.lower_bound, rep.d_ff,
                                   rep.lambda_const, rep.c_const)) + (rep.holds,)


def _cache_case():
    cov = make_id_blobs(3, 30, radius=4.0, sigma=0.75, seed=80)
    sem = make_semantic_ood("test", 40, seed=81, k=3, sigma=0.75)
    return cov, sem, _random_pool(5, seed=50)


def test_theorem1_bound_warm_calls_equal_cold_ones():
    cov, sem, pool = _cache_case()
    outside = mlp_init((2, 8, 3), seed=82)
    for _ in range(2):
        for model in pool.members + (outside,):
            cold = theory.theorem1_bound(cov, sem, model, _random_pool(5, seed=50))
            warm = theory.theorem1_bound(cov, sem, model, pool)
            assert warm == cold and _bits(warm) == _bits(cold)


def test_theorem1_bound_recomputes_a_set_written_in_place():
    cov, sem, pool = _cache_case()
    model = pool.members[1]
    before = theory.theorem1_bound(cov, sem, model, pool)
    cov.points[:5] += 1.5
    sem.points[:5] -= 1.5
    after = theory.theorem1_bound(cov, sem, model, pool)
    fresh = theory.theorem1_bound(cov, sem, model, _random_pool(5, seed=50))
    assert _bits(after) == _bits(fresh) != _bits(before)


def test_theorem1_bound_keys_a_set_by_its_labels_too():
    cov, sem, pool = _cache_case()
    relabeled = Batch(cov.points, (cov.labels + 1) % 3)
    model = pool.members[2]
    theory.theorem1_bound(cov, sem, model, pool)
    got = theory.theorem1_bound(relabeled, sem, model, pool)
    fresh = theory.theorem1_bound(relabeled, sem, model, _random_pool(5, seed=50))
    assert _bits(got) == _bits(fresh)


def test_theorem1_bound_with_an_outside_model_leaves_the_pool_as_it_was():
    cov, sem, pool = _cache_case()
    theory.theorem1_bound(cov, sem, pool.members[0], pool)
    kept = dict(pool._terms)
    assert len(kept) == 2
    theory.theorem1_bound(cov, sem, mlp_init((2, 8, 3), seed=83), pool)
    assert pool._terms.keys() == kept.keys()
    assert all(pool._terms[key] is terms for key, terms in kept.items())
    # the cache takes no part in the pool's identity
    assert pool == HypothesisPool(pool.members)
    assert hash(pool) == hash(HypothesisPool(pool.members))
    assert repr(pool) == repr(HypothesisPool(pool.members))
