"""dul-lab benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the repository root. The lab is imported from ``src/``. With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
times every call into each lab module from outside and reports per-layer
metrics. The last line of stdout is one JSON object; the lines before it
name each metric with its unit. A run record goes to ``perfbench/out/``.

Exit codes: 0 every output check passed, 1 a check failed (the result is
still printed), 2 usage error or no lab to run (nothing printed on stdout).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import time

# One BLAS thread (<= nproc) keeps runs on a shared 2-CPU machine steady and
# makes a change that adds threads show as cpu_s > wall_s. Set before numpy
# is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3
# glibc gives freed arrays above its mmap threshold back to the system and
# trims the top of the heap, so a certify part page-faults ~45,000 times.
# On the reference VM the cost of those faults swings with host memory load;
# ten certify runs spread 0.40 without the setting (0.13 with it, in another
# half hour). The benchmark has glibc keep freed memory in the process
# instead, unless the environment sets a glibc.malloc tunable, which then
# applies as given. A change that saves allocations gains less here than
# under glibc's defaults.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters of <malloc.h>
TRIM_THRESHOLD, MMAP_THRESHOLD = 2**31 - 1, 2**30


def keep_freed_memory() -> str:
    """Raise glibc's trim and mmap thresholds; returns the setting in force."""
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if "glibc.malloc." in tunables:
        return f"GLIBC_TUNABLES={tunables}"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return "allocator defaults (no glibc mallopt)"
    if mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) and mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        return f"mallopt trim_threshold={TRIM_THRESHOLD} mmap_threshold={MMAP_THRESHOLD}"
    return "mallopt refused a threshold; allocator partly at its defaults"


class NoLab(Exception):
    pass


def import_lab() -> float:
    """Import dul_lab from this checkout's src/; seconds taken. numpy and
    scipy are first imported here, so their cost counts as lab set-up."""
    t0 = time.perf_counter()
    if not (SRC / "dul_lab" / "__init__.py").is_file():
        raise NoLab(f"no dul_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dul_lab.runner  # noqa: F401

    if Path(sys.modules["dul_lab"].__file__).resolve().parent != SRC / "dul_lab":
        raise NoLab(f"dul_lab was imported from outside {SRC}")
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_part(workload):
    """One part of a pass, garbage collected beforehand;
    (outputs, wall_s, cpu_s)."""
    gc.collect()
    c0, t0 = cpu_seconds(), time.perf_counter()
    outputs = workload.run_part()
    return outputs, time.perf_counter() - t0, cpu_seconds() - c0


def passes_for(workload, seconds: float):
    """Whole passes, each a run of every part in turn, back to back until
    ``seconds`` have elapsed (at least one pass); one sample per part."""
    deadline = time.perf_counter() + seconds
    samples = []
    while True:
        samples += [timed_part(workload) for _ in range(workload.PARTS)]
        if time.perf_counter() >= deadline:
            return samples


def per_pass(samples, column: int) -> float:
    """Time of one pass: the sum over parts of each part's median, so that
    every run times the same work."""
    by_part = defaultdict(list)
    for sample in samples:
        by_part[sample[0]["part"]].append(sample[column])
    return sum(statistics.median(v) for v in by_part.values())


def part_times(samples) -> list:
    return [{"part": s[0]["part"], "wall_s": s[1], "cpu_s": s[2]} for s in samples]


def run_untraced(workload, seed, seconds, workdir, import_s):
    """setup_s = lab import + the median of SETUP_REPS set-ups, each a
    build of the fixed inputs and one untimed warm-up part."""
    builds, warmups = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup(seed, workdir)
        t1 = time.perf_counter()
        first = workload.run_part()
        builds.append(t1 - t0)
        warmups.append(time.perf_counter() - t1)
    samples = passes_for(workload, seconds)
    outputs = samples[-1][0]
    metrics = {
        "setup_s": import_s + statistics.median(b + w for b, w in zip(builds, warmups)),
        "wall_s": per_pass(samples, 1),
        "cpu_s": per_pass(samples, 2),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {}
    if "steps" in outputs:
        extra["steps_per_s"] = statistics.median(
            s[0]["steps"] / s[0]["train_s"] for s in samples)
    record = {"import_s": import_s, "setup_build_s": builds, "setup_warmup_s": warmups,
              "parts": part_times(samples)}
    return outputs, first, metrics, extra, [], record


def run_traced(workload, seed, seconds, workdir):
    """Half the time untraced, half traced, in one process, so that
    trace.overhead_frac compares like with like."""
    from tracer import Tracer

    workload.setup(seed, workdir)
    first = workload.run_part()
    plain = passes_for(workload, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = passes_for(workload, seconds / 2)
    finally:
        tracer.uninstall()
    n = len(traced) // workload.PARTS
    metrics = tracer.layer_metrics(n)
    untraced_wall = per_pass(plain, 1)
    metrics["trace.overhead_frac"] = (per_pass(traced, 1) - untraced_wall) / untraced_wall
    counts = tracer.counts(n)
    expected = workload.expected_counts()
    count_checks = [
        (f"count.{name}", counts.get(name) == want,
         f"{counts.get(name)} per pass, expected {want}")
        for name, want in expected.items()]
    record = {"untraced_parts": part_times(plain),
              "traced_parts": part_times(traced),
              "spans": [{"name": k[0], "parent": k[1], "entries": v[0],
                         "total_s": v[1], "self_s": v[2], "rows": v[3]}
                        for k, v in sorted(tracer.spans.items())],
              "counts_per_pass": counts}
    return traced[-1][0], first, metrics, {}, count_checks, record


def environment(malloc: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the benchmark checkout need not be a git repository
    digest = hashlib.sha256()
    for path in sorted((SRC / "dul_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "malloc": malloc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description="dul-lab benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    malloc = keep_freed_memory()
    try:
        import_s = import_lab()
    except (NoLab, ImportError) as exc:
        print(f"perfbench: cannot import the lab: {exc}", file=sys.stderr)
        return 2
    import checks as ck
    from workloads import WORKLOADS

    try:
        args = parse_args(argv, WORKLOADS)
    except SystemExit as exc:
        return int(exc.code or 0)
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            outputs, first, metrics, extra, results, record = run_traced(
                workload, args.seed, args.seconds, Path(tmp))
        else:
            outputs, first, metrics, extra, results, record = run_untraced(
                workload, args.seed, args.seconds, Path(tmp), import_s)
        found, ref = workload.checks(outputs, first)
        results += found + ck.reference_checks(workload.name, args.seed, ref,
                                               ck.load_reference())
    failed = [r for r in results if not r[1]]
    error_rate = len(failed) / len(results)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    record.update({
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "work": workload.work(),
        "environment": environment(malloc), "metrics": metrics, "extra": extra,
        "error_rate": error_rate,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
    })
    path = OUT / f"{workload.name}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, ok, detail in failed:
        print(f"FAILED {name}: {detail}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if "steps_per_s" in extra:
        print(f"steps_per_s {extra['steps_per_s']:.6g} 1/s")
    print(f"error_rate {error_rate:.6g} ratio ({len(failed)}/{len(results)} checks failed)")
    print(f"run record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed, "attempted": len(results), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
