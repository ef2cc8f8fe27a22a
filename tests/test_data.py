"""Unit tests for the synthetic dataset generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dul_lab import data as datamod
from dul_lab.data import LabeledDataset


def test_labeled_dataset_validation():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((4, 3)), None, "ID")
    with pytest.raises(ValueError):
        LabeledDataset(pts, None, "WILD")
    with pytest.raises(ValueError):
        LabeledDataset(pts, np.zeros(4, dtype=int), "SEM_TRAIN")
    with pytest.raises(ValueError):
        LabeledDataset(pts, np.zeros(3, dtype=int), "ID")
    d = LabeledDataset(pts, np.zeros(4, dtype=int), "ID")
    assert d.n == 4


def test_make_id_blobs_shapes_and_determinism():
    d = datamod.make_id_blobs(3, 50, sigma=0.5, seed=4)
    assert d.points.shape == (150, 2)
    assert np.array_equal(np.sort(np.unique(d.labels)), [0, 1, 2])
    assert d.tag == "ID"
    d2 = datamod.make_id_blobs(3, 50, sigma=0.5, seed=4)
    assert np.array_equal(d.points, d2.points)
    with pytest.raises(ValueError):
        datamod.make_id_blobs(1, 10)


def test_id_blobs_cluster_near_centers():
    d = datamod.make_id_blobs(3, 300, radius=4.0, sigma=0.3, seed=5)
    centers = datamod._blob_centers(3, 4.0)
    for c in range(3):
        mean = d.points[d.labels == c].mean(axis=0)
        assert np.linalg.norm(mean - centers[c]) < 0.2


def test_perturb_covariate():
    d = datamod.make_id_blobs(3, 20, seed=6)
    shifted = datamod.perturb_covariate(d, eps=0.5, seed=7)
    assert shifted.tag == "COV"
    assert np.array_equal(shifted.labels, d.labels)
    assert not np.array_equal(shifted.points, d.points)
    clean = datamod.perturb_covariate(d, eps=0.0, seed=7)
    assert np.array_equal(clean.points, d.points)
    with pytest.raises(ValueError):
        datamod.perturb_covariate(shifted, eps=0.5)


def test_semantic_split_regions_disjoint():
    train_c = datamod.sem_train_centers(3)
    test_c = datamod.sem_test_centers(3)
    dists = np.linalg.norm(train_c[:, None, :] - test_c[None, :, :], axis=2)
    assert dists.min() >= 2.0 - 1e-9


def test_make_semantic_ood_splits():
    tr = datamod.make_semantic_ood("train", 200, seed=8, sigma=0.75)
    te = datamod.make_semantic_ood("test", 200, seed=9, sigma=0.75)
    assert tr.tag == "SEM_TRAIN" and te.tag == "SEM_TEST"
    assert tr.labels is None and te.labels is None
    assert tr.n == te.n == 200
    # train points hug the outer circle; the test split also uses a larger ring
    r_tr = np.linalg.norm(tr.points, axis=1)
    r_te = np.linalg.norm(te.points, axis=1)
    assert abs(np.median(r_tr) - datamod.SEM_RADIUS) < 1.0
    assert r_te.max() > datamod.SEM_TEST_RING_RADIUS - 2.0
    with pytest.raises(ValueError):
        datamod.make_semantic_ood("validation", 10)
    # blobs this wide would let train and test outliers overlap
    with pytest.raises(ValueError, match="too close"):
        datamod.make_semantic_ood("train", 10, sigma=5.0)


def test_semantic_points_far_from_train_support():
    sigma = 0.75
    tr = datamod.make_semantic_ood("train", 2000, seed=10, sigma=sigma)
    te = datamod.make_semantic_ood("test", 2000, seed=11, sigma=sigma)
    train_c = datamod.sem_train_centers(3)
    d = np.linalg.norm(te.points[:, None, :] - train_c[None, :, :], axis=2)
    # nearly all test points sit at least 2 sigma from every training center
    assert np.mean(d.min(axis=1) > 2.0 * sigma) > 0.97
    assert tr.points.shape == te.points.shape == (2000, 2)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=2, max_value=5))
def test_generators_deterministic_property(seed, k):
    a = datamod.make_semantic_ood("train", 20, seed=seed, k=k, sigma=0.5)
    b = datamod.make_semantic_ood("train", 20, seed=seed, k=k, sigma=0.5)
    assert np.array_equal(a.points, b.points)
