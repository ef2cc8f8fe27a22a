"""Record the per-seed reference values that the output checks compare with.

    python3 perfbench/record_reference.py --seeds 0-39

Run from the repository root at the commit whose outputs are the reference.
For each workload and seed it builds the inputs, runs one pass, and stores
the values ``checks`` reports (natural-score AUROC and cov_acc of each
finetuned model; each theorem1 bound's holds, d_ff and lambda_const) in
``perfbench/reference.json``. It refuses to record a pass whose own checks
fail.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy is imported


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    run.import_lab()
    import checks as ck
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-39")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="repeatable; default every workload")
    args = p.parse_args(argv)
    path = ck.REFERENCE_PATH
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name in args.workload or list(WORKLOADS):
            for seed in args.seeds:
                workload = WORKLOADS[name]()
                workload.setup(seed, Path(tmp))
                # a warm-up part, then one whole pass, as a run does
                first = workload.run_part()
                parts = [workload.run_part() for _ in range(workload.PARTS)]
                found, values = workload.checks(parts[-1], first)
                failed = [c for c in found if not c[1]]
                if failed:
                    print(f"{name} seed {seed}: checks failed: {failed}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = values
                print(f"{name} seed {seed}: {values}", flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
