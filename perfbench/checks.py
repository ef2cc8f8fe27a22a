"""Output checks for the benchmark workloads.

A check is a ``(name, ok, detail)`` triple. Every check runs outside the
timed region; ``error_rate`` is failed checks over checks attempted.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.special import softmax

from dul_lab import losses, nn
from dul_lab.config import TrainConfig

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
FD_BOUND = 1e-4  # the acceptance gate's criterion-4 bound
FD_STEP = 1e-6
FD_COORDS = 24  # parameter axes probed
FD_DIRS = 2  # random unit directions probed
# Reference keys ending in one of these compare with an absolute tolerance;
# every other float key compares to THEORY_REL relative.
ABS_TOLERANCE = {"auroc": 1e-3, "cov_acc": 1e-3}
# With no recorded value (an unrecorded seed), a trained model's accuracy
# must still beat chance. AUROC has no such floor: the oe candidate's
# strength score reads 0.10-0.36 on some recorded seeds.
CHANCE_ACCURACY = 1.0 / TrainConfig().k
THEORY_REL = 1e-9


def check(name: str, ok, detail: str = ""):
    return (name, bool(ok), detail)


def fd_rel_error(model, spec, id_batch, rng, ood_batch=None, frozen=None):
    """Central finite differences of ``loss_backward``'s value against its
    gradient, along ``FD_COORDS`` parameter axes and ``FD_DIRS`` random unit
    directions drawn from ``rng``. Returns the worst error normalised as in
    criterion 4: max |g - fd| / max(1, max |fd|)."""

    def value(theta):
        return losses.loss_backward(model.set_flat(theta), id_batch, spec,
                                    ood_batch=ood_batch, frozen=frozen)[0]

    _, grads = losses.loss_backward(model, id_batch, spec,
                                    ood_batch=ood_batch, frozen=frozen)
    g = nn.grads_flat(grads)
    theta = model.get_flat()
    dirs = []
    for i in rng.choice(theta.size, FD_COORDS, replace=False):
        axis = np.zeros(theta.size)
        axis[i] = 1.0
        dirs.append(axis)
    for _ in range(FD_DIRS):
        v = rng.standard_normal(theta.size)
        dirs.append(v / np.linalg.norm(v))
    analytic = np.array([g @ v for v in dirs])
    fd = np.array([(value(theta + FD_STEP * v) - value(theta - FD_STEP * v))
                   / (2.0 * FD_STEP) for v in dirs])
    return float(np.max(np.abs(analytic - fd)) / max(1.0, float(np.max(np.abs(fd)))))


def brute_force_auroc(id_scores, ood_scores) -> float:
    """P(ood > id) + half the ties, by comparing every pair."""
    diff = np.asarray(ood_scores)[:, None] - np.asarray(id_scores)[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def bound_terms_reference(cov, sem, model, pool):
    """(d_ff, lambda_const) of ``theory.theorem1_bound`` recomputed with
    each pool member's softmax on P and Q evaluated once, as an independent
    check of the lab's pairwise loop."""
    members = pool.members if model in pool.members else pool.members + (model,)
    pc = [softmax(f.forward(nn.Batch(cov.points)), axis=1) for f in members]
    ps = [softmax(f.forward(nn.Batch(sem.points)), axis=1) for f in members]
    k = pc[0].shape[1]
    lam = min(float(0.5 * np.abs(a - 1.0 / k).sum(axis=1).mean()
                    + 0.5 * np.abs(b - 1.0 / k).sum(axis=1).mean())
              for a, b in zip(pc, ps))
    d_ff = 0.0
    for i in range(len(members)):
        for j in range(len(members)):
            dp = float((0.5 * np.abs(pc[i] - pc[j]).sum(axis=1)).mean())
            dq = float((0.5 * np.abs(ps[i] - ps[j]).sum(axis=1)).mean())
            d_ff = max(d_ff, dp - dq)
    return d_ff, lam


def close_rel(a: float, b: float) -> bool:
    return abs(a - b) <= THEORY_REL * max(abs(a), abs(b)) + 1e-15


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_checks(workload: str, seed: int, values: dict, reference: dict):
    """Compare a pass's reference values with those recorded at the
    baseline commit. A recorded seed is compared key by key. For a seed
    that was not recorded, accuracy must beat chance; theorem terms are
    left to the independent recomputation checks."""
    table = reference[workload]
    recorded = table.get(str(seed))
    out = []
    for key, got in sorted(values.items()):
        tol = ABS_TOLERANCE.get(key.rsplit(".", 1)[-1])
        if recorded is not None:
            want = recorded.get(key)
            if want is None:
                ok = False
            elif isinstance(want, bool):
                ok = got is want
            elif tol is not None:
                ok = abs(got - want) <= tol
            else:
                ok = close_rel(got, want)
            out.append(check(f"reference.{key}", ok, f"{got!r} vs recorded {want!r}"))
        elif key.endswith(".cov_acc"):
            out.append(check(f"above_chance.{key}", got > CHANCE_ACCURACY,
                             f"{got!r} > {CHANCE_ACCURACY:.4f} (seed {seed} not recorded)"))
    return out
