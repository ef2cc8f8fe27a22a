"""Record the benchmark's baseline: untraced runs on several seeds per
workload, and one traced run per workload on the first seed.

    python3 perfbench/baseline.py --seeds 1-10

Run from the repository root. Each run is its own ``run.py`` process, as
the benchmark command is run, and the workloads run one after another. For
every end-to-end metric it writes the values, their median, the quartiles
of ``statistics.quantiles(n=4)`` and the spread (q3 - q1) / median; it also
writes each part's median time and how long each run took. The summary goes
to ``perfbench/baseline.json`` (or ``--out``); the medians and spreads are
printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from record_reference import seed_range

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("finetune-dirichlet", "train-softmax", "certify")


def summary(values: list, unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def run(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run; (result line, run record, seconds the run took)."""
    t0 = time.perf_counter()
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    record = OUT / f"{workload}.seed{seed}.trace{trace}.json"
    return (json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(record.read_text()),
            time.perf_counter() - t0)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="repeatable; default every workload")
    p.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    out = {"about": f"untraced runs on seeds {args.seeds[0]}-{args.seeds[-1]} per workload, "
                    f"--seconds {seconds}, one workload after another; spread = (q3 - q1) / "
                    "median; per_layer is one traced run on the first seed. Compare only "
                    "with runs on the same machine.",
           "run_seconds": seconds, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        results, records, took = [], [], []
        for seed in args.seeds:
            result, record, run_s = run(workload, seed, seconds, 0)
            results.append(result)
            records.append(record)
            took.append(run_s)
            print(workload, seed, f"{run_s:.1f}s",
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        names = results[0]["metrics"]
        row = {"seeds": args.seeds,
               "all_correct": all(r["correct"] for r in results),
               "work": records[0]["work"],
               "run_s": summary(took, "s"),
               "end_to_end": {k: summary([r["metrics"][k]["value"] for r in results],
                                         names[k]["unit"]) for k in names}}
        if "steps_per_s" in records[0]["extra"]:
            row["steps_per_s"] = summary([r["extra"]["steps_per_s"] for r in records], "1/s")
        parts = sorted({p["part"] for p in records[0]["parts"]})
        row["part_wall_s"] = {
            str(part): summary([statistics.median(p["wall_s"] for p in r["parts"]
                                                  if p["part"] == part) for r in records], "s")
            for part in parts}
        traced, record, _ = run(workload, args.seeds[0], seconds, 1)
        row["all_correct"] = row["all_correct"] and traced["correct"]
        row["per_layer"] = record["metrics"]
        out.setdefault("environment", record["environment"])
        out["workloads"][workload] = row
        for k, v in row["end_to_end"].items():
            print(f"SPREAD {workload} {k} median={v['median']:.4f} spread={v['spread']:.4f}",
                  flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
