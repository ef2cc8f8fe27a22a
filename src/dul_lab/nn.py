"""Minimal dense feed-forward classifier with hand-derived gradients.

Everything is float64. Models are treated as immutable: sgd_step returns a
new model. Checkpoints are a flat text format using hex floats so that a
write/read round-trip is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import atomic_open

ACTIVATION = "tanh"  # the hidden activation; checkpoint line 2 names it


@dataclass(frozen=True)
class Batch:
    """n x d points with optional integer class labels, one per point: a
    dataset, a minibatch or any point set forwarded through a model."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.points, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("points must be an n x d matrix with n >= 1")
        object.__setattr__(self, "points", x)
        if self.labels is not None:
            y = np.asarray(self.labels, dtype=int)
            if y.shape != (x.shape[0],):
                raise ValueError("labels must be a vector of length n")
            object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def inputs(self) -> np.ndarray:
        """`points`, for the benchmark's tracer under perfbench/, which keys
        forwards on it. No lab code reads it; it goes with ROADMAP item 6(a)."""
        return self.points


class Mlp:
    """Dense network: affine layers with tanh between them."""

    def __init__(self, layers):
        self.layers = []
        prev_out = None
        for w, b in layers:
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float)
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError("each layer needs an out x in matrix and out bias")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")
            if prev_out is not None and w.shape[1] != prev_out:
                raise ValueError("consecutive layer dimensions must chain")
            prev_out = w.shape[0]
            self.layers.append((w, b))
        if not self.layers:
            raise ValueError("need at least one layer")

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def forward(self, batch: Batch) -> np.ndarray:
        """Logits for a point set; raises on input-width mismatch."""
        logits, _ = self.forward_cache(batch.points)
        return logits

    def forward_cache(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        if x.shape[1] != self.in_dim:
            raise ValueError(
                f"input width {x.shape[1]} != first layer width {self.in_dim}"
            )
        # the cache holds each layer's input, then the logits
        cache = [x]
        for i, (w, b) in enumerate(self.layers):
            z = cache[-1] @ w.T + b
            cache.append(np.tanh(z) if i < len(self.layers) - 1 else z)
        return cache[-1], cache

    def backward(self, cache, dlogits: np.ndarray):
        """Parameter gradients given d loss / d logits. Returns a ParamGrads list."""
        grads = [None] * len(self.layers)
        delta = np.asarray(dlogits, dtype=float)
        for i in range(len(self.layers) - 1, -1, -1):
            a = cache[i]  # layer i's input
            grads[i] = (delta.T @ a, delta.sum(axis=0))
            if i > 0:  # a = tanh(z), and tanh'(z) = 1 - a^2
                delta = (delta @ self.layers[i][0]) * (1.0 - a * a)
        return grads

    # parameter-vector helpers, used by gradient checks and pool perturbation
    def get_flat(self) -> np.ndarray:
        return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in self.layers])

    def set_flat(self, theta: np.ndarray) -> "Mlp":
        theta = np.asarray(theta, dtype=float)
        layers = []
        i = 0
        for w, b in self.layers:
            nw, nb = w.size, b.size
            layers.append((theta[i : i + nw].reshape(w.shape), theta[i + nw : i + nw + nb]))
            i += nw + nb
        if i != theta.size:
            raise ValueError("parameter vector has wrong length")
        return Mlp(layers)


def grads_flat(grads) -> np.ndarray:
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])


def grads_zeros_like(m: Mlp):
    return [(np.zeros_like(w), np.zeros_like(b)) for w, b in m.layers]


def mlp_init(layer_sizes, activation: str = ACTIVATION, seed: int = 0) -> Mlp:
    """Deterministic init: weights ~ N(0, 1/fan_in), biases zero.

    `activation` can only be ACTIVATION; it stays a parameter because the
    benchmark under perfbench/ passes it."""
    if activation != ACTIVATION:
        raise ValueError(f"activation must be {ACTIVATION!r}")
    sizes = list(layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("need at least input and output sizes, all >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        layers.append((w, np.zeros(fan_out)))
    return Mlp(layers)


def sgd_step(m: Mlp, grads, velocity, lr: float, momentum: float):
    """v <- momentum v + g; theta <- theta - lr v. Returns (model, velocity)."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must be in [0, 1)")
    if velocity is None:
        velocity = grads_zeros_like(m)
    new_v = []
    new_layers = []
    for (w, b), (gw, gb), (vw, vb) in zip(m.layers, grads, velocity):
        vw = momentum * vw + gw
        vb = momentum * vb + gb
        new_v.append((vw, vb))
        new_layers.append((w - lr * vw, b - lr * vb))
    return Mlp(new_layers), new_v


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    if not 0 <= epoch <= total_epochs:
        raise ValueError("epoch out of range")
    if lr0 <= 0:
        raise ValueError("lr0 must be positive")
    return lr0 * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs))


CHECKPOINT_MAGIC = "dul-mlp-v1"


def save_checkpoint(m: Mlp, path) -> None:
    lines = [CHECKPOINT_MAGIC, ACTIVATION, str(len(m.layers))]
    for w, b in m.layers:
        lines.append(f"{w.shape[0]} {w.shape[1]}")
        lines.append(" ".join(v.hex() for v in w.ravel()))
        lines.append(" ".join(v.hex() for v in b))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> Mlp:
    """Read a checkpoint. A missing file raises FileNotFoundError; a
    truncated or garbled one raises a ValueError that names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != CHECKPOINT_MAGIC:
            raise ValueError("not a recognized checkpoint file")
        if lines[1] != ACTIVATION:
            raise ValueError(f"hidden activation {lines[1]!r} is not {ACTIVATION!r}")
        n_layers = int(lines[2])
        layers = []
        pos = 3
        for _ in range(n_layers):
            rows, cols = (int(t) for t in lines[pos].split())
            if min(rows, cols) < 1:
                raise ValueError("layer dimensions must be >= 1")
            w = np.array([float.fromhex(t) for t in lines[pos + 1].split()]).reshape(rows, cols)
            b = np.array([float.fromhex(t) for t in lines[pos + 2].split()])
            layers.append((w, b))
            pos += 3
        if any(line.strip() for line in lines[pos:]):
            raise ValueError("data after the last layer")
        return Mlp(layers)
    except IndexError:
        raise ValueError(f"{path}: checkpoint ends early") from None
    except ValueError as exc:
        raise ValueError(f"{path}: bad checkpoint: {exc}") from None
