"""Command-line entry point.

Subcommands: pretrain, finetune, eval, sweep, verify, repro-dilemma.
Artifacts are written under --out (default: the DUL_OUT environment
variable, else ./out). Exit codes: 0 success, 1 verification violation or
runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import runner
from .config import METHODS, TrainConfig, load_config
from .fileio import atomic_open
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
    seed = getattr(args, "seed", None)
    try:
        cfg = TrainConfig() if config is None else load_config(config)
        return cfg if seed is None else cfg.with_(seed=seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


class _UsageError(Exception):
    """A bad argument or input file found after config load (exit 2)."""


def _load_model(path, cfg: TrainConfig):
    try:
        model = load_checkpoint(path)
    except FileNotFoundError:
        raise _UsageError(f"checkpoint not found: {path}") from None
    except (ValueError, OSError) as exc:  # damaged, or a directory
        raise _UsageError(str(exc)) from None
    if (model.in_dim, model.out_dim) != (cfg.arch[0], cfg.k):
        raise _UsageError(
            f"{path}: checkpoint maps {model.in_dim} inputs to {model.out_dim} "
            f"classes, the config {cfg.arch[0]} inputs to {cfg.k} classes")
    return model


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("DUL_OUT") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _save(model, path) -> int:
    save_checkpoint(model, path)
    print(f"wrote {path}")
    return 0


def _write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _run(args, cfg: TrainConfig) -> int:
    out = _out_dir(args)
    if args.command == "pretrain":
        return _save(runner.pretrain(cfg), out / "pretrained.ckpt")
    if args.command == "finetune":
        if args.method is not None:
            cfg = cfg.with_(method=args.method)
        if cfg.method == "none":
            raise _UsageError("finetune needs --method or a config method")
        base = _load_model(args.checkpoint or out / "pretrained.ckpt", cfg)
        return _save(runner.finetune(cfg, base), out / f"finetuned_{cfg.method}.ckpt")
    if args.command == "verify":
        checks = runner.verify(cfg, quick=args.quick)
        _write_text(out / "verify.csv", runner.verify_csv(checks))
        for name, lhs, rhs, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name} (lhs={lhs}, rhs={rhs})")
        return 0 if all(ok for *_, ok in checks) else 1
    if args.command == "eval":
        name, csv_text = "eval_report.csv", runner.evaluate(
            cfg, _load_model(args.checkpoint, cfg)).to_csv()
    elif args.command == "sweep":
        name, csv_text = "sweep.csv", runner.sweep_csv(
            runner.noise_sweep(cfg, _load_model(args.checkpoint, cfg)))
    else:  # repro-dilemma
        rows, models, _ = runner.dilemma_table(cfg)
        for method, model in models.items():
            save_checkpoint(model, out / f"dilemma_{method}.ckpt")
        name, csv_text = "dilemma.csv", runner.dilemma_csv(rows)
    _write_text(out / name, csv_text)
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
