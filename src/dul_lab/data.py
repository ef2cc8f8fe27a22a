"""2-D synthetic point sets: in-distribution and outlier.

In-distribution points are Gaussian blobs on a circle. Semantic outliers
live on an outer circle; the train and test splits occupy disjoint regions
(the test split additionally includes a segment of a still-larger ring
never seen in training), so detection cannot succeed by memorizing the
training outliers.
"""

from __future__ import annotations

import numpy as np

from .nn import Batch

SEM_RADIUS = 8.0
SEM_TEST_RING_RADIUS = 12.0


def _blob_centers(k: int, radius: float, angle_offset: float = 0.0) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(k) / k + angle_offset
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def make_id_blobs(k: int, n_per_class: int, radius: float, sigma: float,
                  seed: int) -> Batch:
    """K isotropic Gaussian blobs centered on a circle."""
    if k < 2:
        raise ValueError("need at least two classes")
    rng = np.random.Generator(np.random.Philox(key=seed))
    centers = _blob_centers(k, radius)
    points = np.concatenate(
        [c + sigma * rng.standard_normal((n_per_class, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(k), n_per_class)
    return Batch(points, labels)


def sem_train_centers(k: int) -> np.ndarray:
    return _blob_centers(k, SEM_RADIUS, angle_offset=np.pi / k)


SEM_TEST_RING_HALF_ARC = np.pi / 9.0


def sem_test_centers(k: int) -> np.ndarray:
    """Outer blobs at the complementary (midway) angles, plus ring-segment
    centers at a larger radius that the train split never visits."""
    midway = _blob_centers(k, SEM_RADIUS, angle_offset=7.0 * np.pi / (12 * k))
    ring = _blob_centers(k, SEM_TEST_RING_RADIUS, angle_offset=np.pi / k)
    return np.concatenate([midway, ring])


def check_sem_separation(k: int, sigma: float) -> None:
    """Raise ValueError unless every semantic train center is at least
    max(4 sigma, 2) from every test center, which keeps the splits disjoint."""
    train_c = sem_train_centers(k)
    test_c = sem_test_centers(k)
    dists = np.linalg.norm(train_c[:, None, :] - test_c[None, :, :], axis=2)
    min_dist = float(dists.min())
    if min_dist < max(4.0 * sigma, 2.0) - 1e-9:
        raise ValueError(f"semantic train/test centers too close for sigma={sigma}: "
                         f"{min_dist:.3f} < max(4 sigma, 2)")


def make_semantic_ood(split: str, n: int, seed: int, k: int,
                      sigma: float) -> Batch:
    """Semantic outlier blobs; train and test supports are region-disjoint."""
    if split == "train":
        centers = sem_train_centers(k)
    elif split == "test":
        centers = sem_test_centers(k)
    else:
        raise ValueError("split must be 'train' or 'test'")
    check_sem_separation(k, sigma)
    rng = np.random.Generator(np.random.Philox(key=seed))
    if split == "train":
        idx = rng.integers(0, len(centers), size=n)
        points = centers[idx] + sigma * rng.standard_normal((n, 2))
    else:
        n_blob = n // 2
        blob_centers = centers[:k]
        idx = rng.integers(0, k, size=n_blob)
        blobs = blob_centers[idx] + sigma * rng.standard_normal((n_blob, 2))
        arc = np.pi / k + 2.0 * np.pi * rng.integers(0, k, size=n - n_blob) / k
        arc = arc + rng.uniform(-SEM_TEST_RING_HALF_ARC, SEM_TEST_RING_HALF_ARC,
                                size=n - n_blob)
        ring = SEM_TEST_RING_RADIUS * np.stack([np.cos(arc), np.sin(arc)], axis=1)
        ring = ring + sigma * rng.standard_normal((n - n_blob, 2))
        points = np.concatenate([blobs, ring])
    return Batch(points)

