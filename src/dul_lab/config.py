"""Run configuration: a flat key = value file with [train], [data], and
[loss] sections. TrainConfig is the schema: each field names its section,
and its default's type is the type its value is parsed as. Unknown keys are
errors, so typos fail loudly.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, NamedTuple

import numpy as np

from .data import check_sem_separation
from .losses import LossSpec
from .nn import ACTIVATION

# The largest eps_grid value: noise that large carries no class signal. It
# guards no overflow, since tanh bounds every hidden unit by 1 and so keeps
# the logits finite whenever the first layer's sums are.
EPS_MAX = 1e6


class Method(NamedTuple):
    kind: str  # its objective, a LossSpec kind
    detector: str  # its natural detector, a metrics score


# each method's row; "none" is the pretrained model, which the others finetune
METHODS = {
    "none": Method("ce", "msp"),
    "oe": Method("oe", "strength"),
    "energy": Method("energy_margin", "energy"),
    "dpn": Method("dpn", "diffent"),
    "dul": Method("dul", "diffent"),
}

# substream purposes for the counter-based RNG (Philox, key = stream_key)
STREAM_INIT = 0
STREAM_ID_DATA = 1
STREAM_SEM_TRAIN = 2
STREAM_SEM_TEST = 3
STREAM_BATCH = 4
STREAM_COV = 5
STREAM_FUZZ = 6
STREAM_EVAL_ID = 7
STREAM_POOL = 8


def stream_key(seed: int, purpose: int) -> int:
    """Philox key of a substream; distinct for each (seed, purpose < 256)."""
    return seed * 256 + purpose


def substream(seed: int, purpose: int) -> np.random.Generator:
    """Philox counter-based generator; substreams are disjoint by key."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, purpose)))


def _dpn_t_min(finetune_lr0: float, layers: int) -> float:
    """The least dpn target concentration t that loads, for `layers` weight
    layers. The smallest t gives each off-label logit the gradient
    -digamma(t) ~ 1/t, so before tanh saturates a step moves the top layer
    by about lr/t and each layer below by lr/t times the ones above: within
    L steps the bottom of L layers by (lr/t)^(2^(L-1)). That and 1/t must
    fit in half of float64's exponent range (README)."""
    big = np.finfo(float).max
    return max(finetune_lr0 * big ** -(0.5 ** layers), big ** -0.5)


def _key(section: str, default):
    """A config key: its default and the [section] it is read from."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class TrainConfig:
    # not a key: the benchmark under perfbench/ reads it to build a model
    activation: ClassVar[str] = ACTIVATION
    arch: tuple = _key("train", (2, 64, 64, 3))
    seed: int = _key("train", 1)
    pretrain_epochs: int = _key("train", 200)
    finetune_epochs: int = _key("train", 60)
    lr0: float = _key("train", 0.05)
    finetune_lr0: float = _key("train", 0.01)
    momentum: float = _key("train", 0.9)
    batch_id: int = _key("train", 128)
    batch_ood: int = _key("train", 256)
    method: str = _key("train", "none")
    lam: float = _key("loss", LossSpec.lam)
    gamma: float = _key("loss", LossSpec.gamma)
    m_in: float = _key("loss", LossSpec.m_in)
    m_out: float = _key("loss", LossSpec.m_out)
    dul_margin: float = _key("loss", LossSpec.dul_margin)
    target_alpha0: float = _key("loss", LossSpec.target_alpha0)
    smoothing: float = _key("loss", LossSpec.smoothing)
    k: int = _key("data", 3)
    n_per_class: int = _key("data", 500)
    radius: float = _key("data", 4.0)
    sigma: float = _key("data", 0.75)
    n_sem_train: int = _key("data", 1500)
    n_sem_test: int = _key("data", 1500)
    n_eval_id: int = _key("data", 1500)
    eps_grid: tuple = _key("data", (0.0, 0.625, 1.25, 1.875, 2.5, 3.125))

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if any(isinstance(x, float) and not math.isfinite(x)
                   for x in (v if isinstance(v, tuple) else (v,))):
                raise ValueError(f"{f.name} must be finite")
        if not 0 <= self.seed < 2**120:
            raise ValueError("seed must be in [0, 2**120), so that stream keys fit Philox")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if len(self.arch) < 2 or any(s < 1 for s in self.arch):
            raise ValueError("arch needs at least input and output sizes, all >= 1")
        if self.arch[0] != 2:
            raise ValueError("arch must start with 2, the width of the 2-D data")
        if self.arch[-1] != self.k:
            raise ValueError("arch must end with k, one logit per class")
        if self.batch_id < 1 or self.batch_ood < 1:
            raise ValueError("batch_id and batch_ood must be >= 1")
        if self.pretrain_epochs < 1 or self.finetune_epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr0 <= 0 or self.finetune_lr0 <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 <= self.momentum < 1.0:  # sgd_step's rule
            raise ValueError("momentum must be in [0, 1)")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}")
        if min(self.n_per_class, self.n_sem_train, self.n_sem_test) < 1:
            raise ValueError("n_per_class, n_sem_train and n_sem_test must be >= 1")
        if self.n_eval_id < 1 or self.n_eval_id % self.k:
            raise ValueError("n_eval_id must be a positive multiple of k")
        grid = self.eps_grid
        if not grid or grid[0] != 0.0 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("eps_grid must increase strictly from 0.0, the clean ID "
                             "set; evaluate reads its last value as the strongest shift")
        if grid[-1] > EPS_MAX:
            raise ValueError(f"eps_grid values must be at most {EPS_MAX:g}: noise "
                             "that large carries no class signal")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        check_sem_separation(self.k, self.sigma)
        self.loss_spec("ce")  # LossSpec checks the [loss] keys, whatever the kind
        # dilemma_table and the full verify run dpn whatever method says
        if self.target_alpha0 <= self.k:
            raise ValueError("target_alpha0 must exceed k")
        t = self.target_alpha0 * self.smoothing / self.k
        t_min = _dpn_t_min(self.finetune_lr0, len(self.arch) - 1)
        if t < t_min:
            raise ValueError(f"target_alpha0 * smoothing / k = {t:.3g}, dpn's smallest "
                             f"target concentration, must be at least {t_min:.3g}")

    def with_(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)

    def loss_spec(self, kind: str) -> LossSpec:
        """The objective kind with this config's [loss] keys, by LossSpec's names."""
        return LossSpec(kind, **{f.name: getattr(self, f.name) for f in fields(LossSpec)[1:]})


def _parse(default, raw: str):
    """raw as the type of a field's default; a tuple's items take the type
    of the default's first item."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(p) for p in raw.replace(",", " ").split())
    return type(default)(raw)


def load_config(path) -> TrainConfig:
    """Parse and validate a config file. Any error (unreadable file, syntax,
    unknown key, bad value, failed TrainConfig check) is a one-line
    ValueError that starts with the path."""
    schema = {f.name: f for f in fields(TrainConfig)}
    sections = {f.metadata["section"] for f in schema.values()}
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        if parser.defaults():  # configparser would copy them into every section
            raise ValueError("unknown section [DEFAULT]")
        values = {}
        for section in parser.sections():
            if section not in sections:
                raise ValueError(f"unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in schema or schema[key].metadata["section"] != section:
                    raise ValueError(f"unknown key {key!r} in [{section}]")
                values[key] = _parse(schema[key].default, raw)
        return TrainConfig(**values)
    except OSError as exc:  # missing, a directory, unreadable
        raise ValueError(f"{path}: {exc.strerror}") from None
    except (ValueError, configparser.Error) as exc:
        # configparser messages span lines; keep the error to one line
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from None

