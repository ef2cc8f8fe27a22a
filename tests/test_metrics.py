"""Unit tests for scoring and detection metrics, with brute-force oracles."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax
from scipy.stats import dirichlet

from dul_lab import metrics
from dul_lab.metrics import EvalReport, ScoreSet


def brute_fpr95(ids, oods):
    ids = np.sort(ids)
    gamma = ids[max(int(np.ceil(0.95 * ids.size)) - 1, 0)]
    return np.mean(oods <= gamma)


def brute_auroc(ids, oods):
    total = 0.0
    for o in oods:
        for i in ids:
            total += 1.0 if o > i else (0.5 if o == i else 0.0)
    return total / (ids.size * oods.size)


def random_scoreset(rng):
    n = int(rng.integers(1, 200))
    m = int(rng.integers(1, 200))
    if rng.random() < 0.5:
        ids = rng.integers(0, 10, size=n).astype(float)  # force ties
        oods = rng.integers(0, 10, size=m).astype(float)
    else:
        ids = rng.normal(0.0, 1.0, size=n)
        oods = rng.normal(0.5, 1.0, size=m)
    return ScoreSet(ids, oods)


def test_scoreset_validation():
    with pytest.raises(ValueError):
        ScoreSet(np.array([]), np.array([1.0]))
    with pytest.raises(ValueError):
        ScoreSet(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ValueError):
        ScoreSet(np.array([1.0]), np.array([1.0]), method="logit")


def test_fpr_and_auroc_against_brute_force():
    rng = np.random.default_rng(51)
    for _ in range(100):
        s = random_scoreset(rng)
        assert metrics.fpr_at_95tpr(s) == brute_fpr95(s.id_scores, s.ood_scores)
        assert abs(metrics.auroc(s) - brute_auroc(s.id_scores, s.ood_scores)) < 1e-12


def test_auroc_extremes():
    s = ScoreSet(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
    assert metrics.auroc(s) == 1.0
    s = ScoreSet(np.array([2.0, 3.0]), np.array([0.0, 1.0]))
    assert metrics.auroc(s) == 0.0


def test_aupr_hand_trace():
    # descending scores: ood(3), id(2), ood(1), id(0)
    s = ScoreSet(np.array([2.0, 0.0]), np.array([3.0, 1.0]))
    # steps: recall 0.5 at precision 1, recall 1.0 at precision 2/3
    assert metrics.aupr(s) == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0))


def test_aupr_with_ties():
    s = ScoreSet(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    # a single threshold block containing everything: precision 0.5, recall 1
    assert metrics.aupr(s) == pytest.approx(0.5)


def test_score_logits_sign_conventions():
    f = np.array([[4.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
    for method in metrics.SCORE_METHODS:
        s = metrics.score_logits(f, method)
        assert s.shape == (2,)
        # the confident row must score less OOD than the weak row
        assert s[0] < s[1], method
    with pytest.raises(ValueError):
        metrics.score_logits(f, "entropy")


def test_each_score_is_its_formula():
    """Each detector against its formula, by scipy, in SCORE_METHODS's
    order, the order evaluate fills a report's detection table in; so a
    swapped, re-signed or reordered entry of metrics.SCORES fails."""
    f = np.array([[2.0, -1.0, 0.5], [0.0, 0.0, 0.0], [-3.0, 4.0, 1.0], [7.0, 6.5, -2.0]])
    alpha = np.maximum(f, 0.0) + 1.0
    want = {
        "msp": -softmax(f, axis=1).max(axis=1),
        "maxlogit": -f.max(axis=1),
        "energy": -logsumexp(f, axis=1),
        "diffent": [dirichlet(a).entropy() for a in alpha],
        "strength": -alpha.sum(axis=1),
    }
    assert metrics.SCORE_METHODS == tuple(want)
    for method, value in want.items():
        np.testing.assert_allclose(metrics.score_logits(f, method), value, rtol=1e-12,
                                   err_msg=method)


def test_accuracy():
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0], [0.5, 0.5]])
    # the tied last row goes to class 0
    assert metrics.accuracy(logits, np.array([0, 1, 1, 0])) == 0.75
    with pytest.raises(ValueError):
        metrics.accuracy(logits, None)


def test_uncertainty_stats_ordering():
    sharp = np.array([[8.0, 0.0]])
    flat = np.array([[0.0, 0.0]])
    du_sharp, tu_sharp = metrics.uncertainty_stats(sharp)
    du_flat, tu_flat = metrics.uncertainty_stats(flat)
    assert du_sharp < du_flat
    assert tu_sharp < tu_flat


REPORT_FIELDS = {"detection": {"msp": (0.1, 0.9, 0.8), "energy": (0.2, 0.8, 0.7)},
                 "id_acc": 0.99, "cov_acc": 0.7,
                 "uncertainty": ((0.1, 0.2), (0.3, 0.4), (0.5, 0.6))}


def test_eval_report_csv_shape():
    lines = EvalReport(**REPORT_FIELDS).to_csv().strip().split("\n")
    assert lines[0] == ",".join(metrics.EVAL_CSV_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("energy,")  # sorted by method name


def test_eval_report_is_built_whole_and_frozen():
    # no field has a default, so no column can print one
    for name in REPORT_FIELDS:
        with pytest.raises(TypeError):
            EvalReport(**{k: v for k, v in REPORT_FIELDS.items() if k != name})
    rep = EvalReport(**REPORT_FIELDS)
    for name, value in REPORT_FIELDS.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, value)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=40),
       st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=40),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_metrics_permutation_invariant(ids, oods, seed):
    rng = np.random.default_rng(seed)
    s1 = ScoreSet(np.array(ids), np.array(oods))
    s2 = ScoreSet(rng.permutation(ids), rng.permutation(oods))
    assert metrics.fpr_at_95tpr(s1) == metrics.fpr_at_95tpr(s2)
    assert metrics.auroc(s1) == pytest.approx(metrics.auroc(s2), abs=1e-12)
    assert metrics.aupr(s1) == pytest.approx(metrics.aupr(s2), abs=1e-12)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40),
       st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40),
       st.integers(min_value=-5, max_value=5))
def test_metrics_shift_invariant(ids, oods, shift):
    # integer scores keep the shift exact, so ties are preserved
    s1 = ScoreSet(np.array(ids, dtype=float), np.array(oods, dtype=float))
    s2 = ScoreSet(s1.id_scores + shift, s1.ood_scores + shift)
    assert metrics.auroc(s1) == pytest.approx(metrics.auroc(s2), abs=1e-12)
    assert metrics.fpr_at_95tpr(s1) == metrics.fpr_at_95tpr(s2)


def test_msp_monotone_with_softmax_confidence():
    rng = np.random.default_rng(53)
    f = rng.normal(0.0, 3.0, size=(50, 4))
    s = metrics.score_logits(f, "msp")
    conf = softmax(f, axis=1).max(axis=1)
    assert np.allclose(s, -conf)


def test_runner_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone more than doubles the import's module count and
    # peak memory; the lab computes AUROC with numpy instead
    src = Path(metrics.__file__).resolve().parents[1]
    code = "import sys, dul_lab.runner; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src)
    assert out.stdout.strip() == "False"
