"""2-D synthetic datasets for the three distribution roles.

In-distribution points are Gaussian blobs on a circle. Covariate shift adds
isotropic noise while keeping labels. Semantic outliers live on an outer
circle; the train and test splits occupy disjoint regions (the test split
additionally includes a segment of a still-larger ring never seen in
training), so detection cannot succeed by memorizing the training outliers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

TAGS = ("ID", "COV", "SEM_TRAIN", "SEM_TEST")

ID_RADIUS = 4.0
SEM_RADIUS = 8.0
SEM_TEST_RING_RADIUS = 12.0


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray
    labels: np.ndarray | None
    tag: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("points must be an n x 2 matrix with n >= 1")
        object.__setattr__(self, "points", pts)
        if self.tag not in TAGS:
            raise ValueError(f"tag must be one of {TAGS}")
        if self.tag.startswith("SEM") and self.labels is not None:
            raise ValueError("semantic outlier datasets carry no class labels")
        if self.labels is not None:
            y = np.asarray(self.labels, dtype=int)
            if y.shape != (pts.shape[0],):
                raise ValueError("labels must be a vector of length n")
            object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _blob_centers(k: int, radius: float, angle_offset: float = 0.0) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(k) / k + angle_offset
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def make_id_blobs(k: int, n_per_class: int, radius: float = ID_RADIUS,
                  sigma: float = 1.0, seed: int = 0) -> LabeledDataset:
    """K isotropic Gaussian blobs centered on a circle."""
    if k < 2:
        raise ValueError("need at least two classes")
    rng = np.random.Generator(np.random.Philox(key=seed))
    centers = _blob_centers(k, radius)
    points = np.concatenate(
        [c + sigma * rng.standard_normal((n_per_class, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(k), n_per_class)
    return LabeledDataset(points, labels, "ID")


def perturb_covariate(d: LabeledDataset, eps: float, seed: int = 0) -> LabeledDataset:
    """Additive N(0, eps^2) per coordinate; labels preserved, tag becomes COV."""
    if d.tag != "ID":
        raise ValueError("covariate shift applies to ID data only")
    rng = np.random.Generator(np.random.Philox(key=seed))
    noisy = d.points + eps * rng.standard_normal(d.points.shape)
    return LabeledDataset(noisy, d.labels, "COV")


def sem_train_centers(k: int = 3) -> np.ndarray:
    return _blob_centers(k, SEM_RADIUS, angle_offset=np.pi / k)


SEM_TEST_RING_HALF_ARC = np.pi / 9.0


def sem_test_centers(k: int = 3) -> np.ndarray:
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


def make_semantic_ood(split: str, n: int, seed: int = 0, k: int = 3,
                      sigma: float = 0.75) -> LabeledDataset:
    """Semantic outlier blobs; train and test supports are region-disjoint."""
    if split == "train":
        centers = sem_train_centers(k)
        tag = "SEM_TRAIN"
    elif split == "test":
        centers = sem_test_centers(k)
        tag = "SEM_TEST"
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
    return LabeledDataset(points, None, tag)


CSV_HEADER = ["x1", "x2", "label", "tag"]


def write_dataset_csv(path, d: LabeledDataset) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        labels = d.labels if d.labels is not None else np.full(d.n, -1, dtype=int)
        for (x1, x2), y in zip(d.points, labels):
            writer.writerow([repr(float(x1)), repr(float(x2)), int(y), d.tag])


def read_dataset_csv(path) -> LabeledDataset:
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    if rows[0] != CSV_HEADER:
        raise ValueError(f"{path}: line 1: expected header {','.join(CSV_HEADER)}")
    if len(rows) < 2:
        raise ValueError(f"{path}: no data rows")
    points, labels, tags = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise ValueError(f"{path}: line {lineno}: expected 4 columns, got {len(row)}")
        try:
            points.append((float(row[0]), float(row[1])))
            labels.append(int(row[2]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        tags.append(row[3])
    tag = tags[0]
    if any(t != tag for t in tags):
        raise ValueError(f"{path}: mixed tags in one file")
    y = np.array(labels)
    return LabeledDataset(np.array(points), None if np.all(y == -1) else y, tag)
