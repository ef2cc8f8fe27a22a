"""OOD scoring functions and detection/classification metrics.

Sign convention: every scoring method is normalized so that a higher score
means "more likely out-of-distribution".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dirichlet as dmath
from .losses import energy_scores, softmax

# each score of a batch of logit rows; the lambdas look their callees up
# at call time, so a rebound name (the benchmark's tracer) is the one called
SCORES = {
    "msp": lambda f: -softmax(f).max(axis=1),
    "maxlogit": lambda f: -f.max(axis=1),
    "energy": lambda f: energy_scores(f),
    "diffent": lambda f: dmath.diff_entropy_rows(dmath.alpha_rows(f)),
    "strength": lambda f: -dmath.alpha_rows(f).sum(axis=1),
}
SCORE_METHODS = tuple(SCORES)


@dataclass(frozen=True)
class ScoreSet:
    id_scores: np.ndarray
    ood_scores: np.ndarray
    method: str = "msp"

    def __post_init__(self):
        for name in ("id_scores", "ood_scores"):
            s = np.asarray(getattr(self, name), dtype=float)
            if s.ndim != 1 or s.size < 1 or not np.all(np.isfinite(s)):
                raise ValueError(f"{name} must be a nonempty finite vector")
            object.__setattr__(self, name, s)
        if self.method not in SCORE_METHODS:
            raise ValueError(f"method must be one of {SCORE_METHODS}")


def score_logits(logits, method: str) -> np.ndarray:
    """OOD scores for a batch of logit rows."""
    f = np.atleast_2d(np.asarray(logits, dtype=float))
    if method not in SCORES:
        raise ValueError(f"unknown scoring method: {method}")
    return SCORES[method](f)


def fpr_at_95tpr(s: ScoreSet) -> float:
    """Fraction of outliers at or below the threshold that keeps 95% of ID
    inside. Threshold: 95th percentile of ID scores, ceiling index on the
    sorted multiset (no interpolation)."""
    ids = np.sort(s.id_scores)
    n = ids.size
    idx = int(np.ceil(0.95 * n)) - 1
    gamma = ids[max(idx, 0)]
    return float(np.mean(s.ood_scores <= gamma))


def auroc(s: ScoreSet) -> float:
    """P(ood > id) + half credit for ties: for each outlier score, the ID
    scores strictly below it count 1 and those equal to it count 1/2."""
    ids = np.sort(s.id_scores)
    below = np.searchsorted(ids, s.ood_scores, side="left")
    not_above = np.searchsorted(ids, s.ood_scores, side="right")
    u = (below.sum() + not_above.sum()) / 2.0
    return float(u / (ids.size * s.ood_scores.size))


def aupr(s: ScoreSet) -> float:
    """Area under precision-recall, outliers positive, step-wise over
    descending score thresholds (precision at each recall step)."""
    scores = np.concatenate([s.ood_scores, s.id_scores])
    positive = np.concatenate([
        np.ones(s.ood_scores.size, dtype=bool),
        np.zeros(s.id_scores.size, dtype=bool),
    ])
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    positive = positive[order]
    tp = np.cumsum(positive)
    fp = np.cumsum(~positive)
    # evaluate only at the last index of each tied-score block
    last = np.flatnonzero(np.diff(scores, append=-np.inf))
    tp, fp = tp[last], fp[last]
    precision = tp / (tp + fp)
    recall = tp / s.ood_scores.size
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def accuracy(logits, labels) -> float:
    """Fraction of logit rows whose argmax is the label; ties go to the
    lowest class."""
    if labels is None:
        raise ValueError("accuracy needs labels")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def csv_table(columns, rows) -> str:
    """CSV text of a header line and one line per row: floats as %.6f,
    other cells with str."""
    lines = [",".join(columns)]
    lines += [",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


EVAL_CSV_COLUMNS = [
    "method", "fpr95", "auroc", "aupr", "id_acc", "cov_acc",
    "mean_du_id", "mean_du_cov", "mean_du_sem",
    "mean_total_id", "mean_total_cov", "mean_total_sem",
]


@dataclass(frozen=True)
class EvalReport:
    """Per-scoring-method detection metrics plus shared accuracy and
    uncertainty statistics."""

    detection: dict  # score method -> (fpr95, auroc, aupr)
    id_acc: float
    cov_acc: float
    uncertainty: tuple  # (mean_du, mean_total) on the ID, COV and SEM_TEST sets

    def to_csv(self) -> str:
        return csv_table(EVAL_CSV_COLUMNS, (
            [method, *self.detection[method], self.id_acc, self.cov_acc,
             *(u[0] for u in self.uncertainty), *(u[1] for u in self.uncertainty)]
            for method in sorted(self.detection)))


def uncertainty_stats(logits):
    """(mean differential entropy, mean total uncertainty) over logit rows."""
    alpha = dmath.alpha_rows(logits)
    return (float(dmath.diff_entropy_rows(alpha).mean()),
            float(dmath.total_uncertainty_rows(alpha).mean()))
