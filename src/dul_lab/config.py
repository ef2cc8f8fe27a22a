"""Run configuration: a flat key = value file with [train], [data], and
[loss] sections. TrainConfig is the schema: each field names its section,
and its default's type is the type its value is parsed as. Unknown keys are
errors, so typos fail loudly.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from .data import check_sem_separation
from .fileio import atomic_open
from .losses import LossSpec
from .nn import ACTIVATION

# The largest eps_grid value: noise that large carries no class signal. It
# guards no overflow, since tanh bounds every hidden unit by 1 and so keeps
# the logits finite whenever the first layer's sums are.
EPS_MAX = 1e6
METHODS = ("none", "oe", "energy", "dpn", "dul")

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


def _key(section: str, default):
    """A config key: its default and the [section] it is saved under."""
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
    dul_margin: float = _key("loss", 0.4)
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
    cov_eval_eps: float = _key("data", 3.125)

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
            raise ValueError(f"method must be one of {METHODS}")
        if min(self.n_per_class, self.n_sem_train, self.n_sem_test) < 1:
            raise ValueError("n_per_class, n_sem_train and n_sem_test must be >= 1")
        if self.n_eval_id < 1 or self.n_eval_id % self.k:
            raise ValueError("n_eval_id must be a positive multiple of k")
        if not self.eps_grid or self.eps_grid[0] != 0.0:
            raise ValueError("eps_grid must start at 0.0, the clean ID set "
                             "that noise_sweep measures shifted_du from")
        if min(self.eps_grid) < 0:
            raise ValueError("eps_grid must be nonnegative")
        if len(set(self.eps_grid)) != len(self.eps_grid):
            raise ValueError("eps_grid values must be distinct")
        if max(self.eps_grid) > EPS_MAX:
            raise ValueError(f"eps_grid values must be at most {EPS_MAX:g}: noise "
                             "that large carries no class signal")
        if self.cov_eval_eps not in self.eps_grid:
            raise ValueError("cov_eval_eps must be one of eps_grid")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        check_sem_separation(self.k, self.sigma)
        # the loss rules live in LossSpec; every method's spec shares these
        LossSpec(kind="dul", lam=self.lam, gamma=self.gamma,
                 smoothing=self.smoothing)
        # dilemma_table and the full verify run dpn whatever method says
        if self.target_alpha0 <= self.k:
            raise ValueError("target_alpha0 must exceed k")

    def with_(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)


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


def save_config(cfg: TrainConfig, path) -> None:
    sections = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        sections.setdefault(f.metadata["section"], {})[f.name] = (
            " ".join(str(x) for x in v) if isinstance(v, tuple) else v)
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    with atomic_open(path) as fh:
        parser.write(fh)
