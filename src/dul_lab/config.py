"""Run configuration: a flat key = value file with [train], [data], and
[loss] sections. Unknown keys are errors, so typos fail loudly.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

import numpy as np

SCHEDULES = ("constant", "cosine")
METHODS = ("none", "oe", "energy", "dpn", "dul")

# substream purposes for the counter-based RNG (Philox, key = seed*256 + purpose)
STREAM_INIT = 0
STREAM_ID_DATA = 1
STREAM_SEM_TRAIN = 2
STREAM_SEM_TEST = 3
STREAM_BATCH = 4
STREAM_COV = 5
STREAM_POOL = 6
STREAM_EVAL_ID = 7


def substream(seed: int, purpose: int) -> np.random.Generator:
    """Philox counter-based generator; substreams are disjoint by key."""
    return np.random.Generator(np.random.Philox(key=seed * 256 + purpose))


@dataclass(frozen=True)
class TrainConfig:
    # [train]
    arch: tuple = (2, 64, 64, 3)
    activation: str = "tanh"
    seed: int = 1
    pretrain_epochs: int = 200
    finetune_epochs: int = 60
    lr0: float = 0.05
    finetune_lr0: float = 0.01
    momentum: float = 0.9
    schedule: str = "cosine"
    batch_id: int = 128
    batch_ood: int = 256
    method: str = "none"
    # [loss]
    lam: float = 3.0
    gamma: float = 30.0
    m_in: float = -12.0
    m_out: float = -4.0
    tau: int = 1
    dul_margin: float = 0.4
    target_alpha0: float = 15.0
    smoothing: float = 0.01
    alpha_mapping: str = "relu_plus_one"
    # [data]
    k: int = 3
    n_per_class: int = 500
    radius: float = 4.0
    sigma: float = 0.75
    n_sem_train: int = 1500
    n_sem_test: int = 1500
    n_eval_id: int = 1500
    eps_grid: tuple = (0.0, 0.625, 1.25, 1.875, 2.5, 3.125)
    cov_eval_eps: float = 3.125

    def __post_init__(self):
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
        if self.activation not in ("relu", "tanh"):
            raise ValueError("activation must be 'relu' or 'tanh'")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not self.eps_grid or self.eps_grid[0] != 0.0:
            raise ValueError("eps_grid must start at 0.0, the clean ID set "
                             "that noise_sweep measures shifted_du from")
        # dilemma_table and the full verify run dpn whatever method says
        if self.target_alpha0 <= self.k:
            raise ValueError("target_alpha0 must exceed k")

    def with_(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)


_SECTION_KEYS = {
    "train": ("arch", "activation", "seed", "pretrain_epochs", "finetune_epochs", "lr0",
              "finetune_lr0", "momentum", "schedule", "batch_id", "batch_ood",
              "method"),
    "loss": ("lam", "gamma", "m_in", "m_out", "tau", "dul_margin",
             "target_alpha0", "smoothing", "alpha_mapping"),
    "data": ("k", "n_per_class", "radius", "sigma", "n_sem_train",
             "n_sem_test", "n_eval_id", "eps_grid", "cov_eval_eps"),
}

def _parse_value(key: str, raw: str):
    if key in ("arch", "eps_grid"):
        parts = [p for p in raw.replace(",", " ").split() if p]
        return tuple(int(p) for p in parts) if key == "arch" else tuple(
            float(p) for p in parts)
    if key in ("schedule", "method", "alpha_mapping", "activation"):
        return raw.strip()
    if key in ("seed", "pretrain_epochs", "finetune_epochs", "batch_id",
               "batch_ood", "tau", "k", "n_per_class", "n_sem_train",
               "n_sem_test", "n_eval_id"):
        return int(raw)
    return float(raw)


def load_config(path) -> TrainConfig:
    """Parse and validate a config file. Any error (syntax, unknown key, bad
    value, failed TrainConfig check) is a one-line ValueError that starts
    with the path."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        values = {}
        for section in parser.sections():
            if section not in _SECTION_KEYS:
                raise ValueError(f"unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in _SECTION_KEYS[section]:
                    raise ValueError(f"unknown key {key!r} in [{section}]")
                values[key] = _parse_value(key, raw)
        return TrainConfig(**values)
    except (ValueError, configparser.Error) as exc:
        # configparser messages span lines; keep the error to one line
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from None


def save_config(cfg: TrainConfig, path) -> None:
    parser = configparser.ConfigParser()
    for section, keys in _SECTION_KEYS.items():
        parser[section] = {}
        for key in keys:
            v = getattr(cfg, key)
            if isinstance(v, tuple):
                v = " ".join(str(x) for x in v)
            parser[section][key] = str(v)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        parser.write(fh)
