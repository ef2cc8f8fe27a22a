"""Command-line entry point.

Subcommands: gen-data, pretrain, finetune, eval, sweep, verify,
repro-dilemma. Artifacts are written under --out (default: the DUL_OUT
environment variable, else ./out). Exit codes: 0 success, 1 verification
violation or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import data as datamod
from . import runner
from .config import METHODS, TrainConfig, load_config
from .nn import load_checkpoint, save_checkpoint


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a value parsed before the subcommand from being
    # overwritten by the subparser's default
    common.add_argument("--config", type=str, default=argparse.SUPPRESS,
                        help="run config file (key = value with sections)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the config seed")
    common.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="output directory (default: $DUL_OUT or ./out)")
    parser = argparse.ArgumentParser(
        prog="dul", description="Desk-scale OOD detection/generalization lab",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-data", parents=[common],
                   help="write the synthetic datasets as CSV")
    sub.add_parser("pretrain", parents=[common],
                   help="train the base classifier on ID data")
    ft = sub.add_parser("finetune", parents=[common],
                        help="finetune a pretrained checkpoint")
    ft.add_argument("--method", choices=METHODS[1:], default=None,
                    help="override the config method")
    ft.add_argument("--checkpoint", type=str, default=None,
                    help="pretrained checkpoint (default: <out>/pretrained.ckpt)")
    ev = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", type=str, required=True)
    sw = sub.add_parser("sweep", parents=[common],
                        help="uncertainty-vs-noise sweep")
    sw.add_argument("--checkpoint", type=str, required=True)
    vf = sub.add_parser("verify", parents=[common],
                        help="run the inequality/oracle suite")
    vf.add_argument("--quick", action="store_true",
                    help="shorter training inside the theorem check")
    sub.add_parser("repro-dilemma", parents=[common],
                   help="pretrain + every finetuning method + evaluation table")
    return parser


def _load_cfg(args) -> TrainConfig:
    config = getattr(args, "config", None)
    if config is not None and not os.path.exists(config):
        print(f"error: config file not found: {config}", file=sys.stderr)
        raise SystemExit(2)
    seed = getattr(args, "seed", None)
    try:
        cfg = TrainConfig() if config is None else load_config(config)
        return cfg if seed is None else cfg.with_(seed=seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


class _UsageError(Exception):
    """A bad argument or input file found after config load (exit 2)."""


def _load_model(path):
    try:
        return load_checkpoint(path)
    except FileNotFoundError:
        raise _UsageError(f"checkpoint not found: {path}") from None
    except (ValueError, OSError) as exc:  # damaged, or a directory
        raise _UsageError(str(exc)) from None


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("DUL_OUT") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _save(model, path) -> int:
    save_checkpoint(model, path)
    print(f"wrote {path}")
    return 0


def _run(args, cfg: TrainConfig) -> int:
    out = _out_dir(args)
    if args.command == "gen-data":
        id_train, sem_train = runner.make_datasets(cfg)
        id_eval, cov, sem_test = runner.make_eval_datasets(cfg)
        datamod.write_dataset_csv(out / "id_train.csv", id_train)
        datamod.write_dataset_csv(out / "sem_train.csv", sem_train)
        datamod.write_dataset_csv(out / "id_eval.csv", id_eval)
        datamod.write_dataset_csv(out / "sem_test.csv", sem_test)
        for eps, d in cov.items():
            # the shortest decimal that round-trips, so distinct eps never share a file
            name = np.format_float_positional(eps, trim="-")
            datamod.write_dataset_csv(out / f"cov_eps{name}.csv", d)
        print(f"wrote datasets to {out}")
        return 0
    if args.command == "pretrain":
        return _save(runner.pretrain(cfg), out / "pretrained.ckpt")
    if args.command == "finetune":
        if args.method is not None:
            cfg = cfg.with_(method=args.method)
        if cfg.method == "none":
            raise _UsageError("finetune needs --method or a config method")
        base = _load_model(args.checkpoint or out / "pretrained.ckpt")
        return _save(runner.finetune(cfg, base), out / f"finetuned_{cfg.method}.ckpt")
    if args.command == "verify":
        checks = runner.verify(cfg, quick=args.quick)
        (out / "verify.csv").write_text(runner.verify_csv(checks), encoding="utf-8")
        for name, lhs, rhs, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name} (lhs={lhs}, rhs={rhs})")
        return 0 if all(ok for *_, ok in checks) else 1
    if args.command == "eval":
        name, csv_text = "eval_report.csv", runner.evaluate(
            cfg, _load_model(args.checkpoint)).to_csv()
    elif args.command == "sweep":
        name, csv_text = "sweep.csv", runner.sweep_csv(
            runner.noise_sweep(cfg, _load_model(args.checkpoint)))
    else:  # repro-dilemma
        rows, models = runner.dilemma_table(cfg)
        for method, model in models.items():
            save_checkpoint(model, out / f"dilemma_{method}.ckpt")
        name, csv_text = "dilemma.csv", runner.dilemma_csv(rows)
    (out / name).write_text(csv_text, encoding="utf-8")
    print(csv_text, end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _load_cfg(args)
    try:
        return _run(args, cfg)
    except (_UsageError, ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
