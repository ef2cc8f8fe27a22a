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

from . import data as datamod
from . import runner
from .config import TrainConfig, load_config
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
    ft.add_argument("--method", type=str, default=None,
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
    if config is not None:
        if not os.path.exists(config):
            print(f"error: config file not found: {config}", file=sys.stderr)
            raise SystemExit(2)
        try:
            cfg = load_config(config)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
    else:
        cfg = TrainConfig()
    seed = getattr(args, "seed", None)
    if seed is not None:
        cfg = cfg.with_(seed=seed)
    return cfg


def _load_model(path):
    """The checkpoint's model, or None after one error line on stderr."""
    try:
        return load_checkpoint(path)
    except FileNotFoundError:
        print(f"error: checkpoint not found: {path}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("DUL_OUT") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _load_cfg(args)
    out = _out_dir(args)

    if args.command == "gen-data":
        id_train, sem_train = runner.make_datasets(cfg)
        id_eval, cov, sem_test = runner.make_eval_datasets(cfg)
        datamod.write_dataset_csv(out / "id_train.csv", id_train)
        datamod.write_dataset_csv(out / "sem_train.csv", sem_train)
        datamod.write_dataset_csv(out / "id_eval.csv", id_eval)
        datamod.write_dataset_csv(out / "sem_test.csv", sem_test)
        for eps, d in cov.items():
            datamod.write_dataset_csv(out / f"cov_eps{eps:g}.csv", d)
        print(f"wrote datasets to {out}")
        return 0

    if args.command == "pretrain":
        model = runner.pretrain(cfg)
        path = out / "pretrained.ckpt"
        save_checkpoint(model, path)
        print(f"wrote {path}")
        return 0

    if args.command == "finetune":
        if args.method is not None:
            cfg = cfg.with_(method=args.method)
        if cfg.method == "none":
            print("error: finetune needs --method or a config method",
                  file=sys.stderr)
            return 2
        base = _load_model(args.checkpoint or out / "pretrained.ckpt")
        if base is None:
            return 2
        model = runner.finetune(cfg, base)
        path = out / f"finetuned_{cfg.method}.ckpt"
        save_checkpoint(model, path)
        print(f"wrote {path}")
        return 0

    if args.command == "eval":
        model = _load_model(args.checkpoint)
        if model is None:
            return 2
        report = runner.evaluate(cfg, model)
        csv_text = report.to_csv()
        (out / "eval_report.csv").write_text(csv_text, encoding="utf-8")
        print(csv_text, end="")
        return 0

    if args.command == "sweep":
        model = _load_model(args.checkpoint)
        if model is None:
            return 2
        csv_text = runner.sweep_csv(runner.noise_sweep(cfg, model))
        (out / "sweep.csv").write_text(csv_text, encoding="utf-8")
        print(csv_text, end="")
        return 0

    if args.command == "verify":
        checks = runner.verify(cfg, quick=args.quick)
        csv_text = runner.verify_csv(checks)
        (out / "verify.csv").write_text(csv_text, encoding="utf-8")
        failures = 0
        for name, lhs, rhs, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name} (lhs={lhs}, rhs={rhs})")
            failures += not ok
        return 1 if failures else 0

    if args.command == "repro-dilemma":
        rows, models = runner.dilemma_table(cfg)
        csv_text = runner.dilemma_csv(rows)
        (out / "dilemma.csv").write_text(csv_text, encoding="utf-8")
        for method, model in models.items():
            save_checkpoint(model, out / f"dilemma_{method}.ckpt")
        print(csv_text, end="")
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
