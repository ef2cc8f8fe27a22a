"""The statements under src/ that no CLI subcommand runs, against an allowlist."""

import re
import subprocess
import sys
from pathlib import Path

TRAFFIC = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"

# (file, function, statement) of each statement that tools/traffic.py may
# list; ROADMAP aim 2 deletes any other statement that only tests reach
UNREACHED_ALLOWED = sorted([
    # error paths: a bad config or a failed command, and a failed or
    # colliding atomic write
    ("src/dul_lab/cli.py", "_load_cfg", 'print(f"error: {exc}", file=sys.stderr)'),
    ("src/dul_lab/cli.py", "main",
     "print(f\"error: {' '.join(str(exc).split())}\", file=sys.stderr)"),
    ("src/dul_lab/cli.py", "main", "return 2 if isinstance(exc, _UsageError) else 1"),
    ("src/dul_lab/fileio.py", "_create_beside", "continue"),
    ("src/dul_lab/fileio.py", "atomic_open", "with suppress(FileNotFoundError):"),
    ("src/dul_lab/fileio.py", "atomic_open", "os.remove(tmp)"),
    # kept branches: a row with a tied maximum, and a model outside the pool
    ("src/dul_lab/losses.py", "_logsumexp", "m = top.sum(axis=1, keepdims=True)"),
    ("src/dul_lab/losses.py", "_logsumexp", 'with np.errstate(invalid="ignore", divide="ignore"):'),
    ("src/dul_lab/losses.py", "_logsumexp",
     "s = np.where(top, 0.0, np.exp(f - mx)).sum(axis=1, keepdims=True)"),
    ("src/dul_lab/losses.py", "_logsumexp", "return np.log1p(s / m) + np.log(m) + mx"),
    ("src/dul_lab/theory.py", "theorem1_bound",
     "pool = HypothesisPool(pool.members + (model,))"),
    # names only the benchmark under perfbench/ uses (ROADMAP item 6(a))
    ("src/dul_lab/nn.py", "Batch.inputs", "return self.points"),
    ("src/dul_lab/theory.py", "HypothesisPool.size", "return len(self.members)"),
    ("src/dul_lab/theory.py", "disparity", "x = np.asarray(samples, dtype=float)"),
    ("src/dul_lab/theory.py", "disparity", "if x.shape[0] < 1:"),
    ("src/dul_lab/theory.py", "disparity", "pa = softmax(f.forward(Batch(x)))"),
    ("src/dul_lab/theory.py", "disparity", "pb = softmax(f2.forward(Batch(x)))"),
    ("src/dul_lab/theory.py", "disparity", "return float(_tvd_rows(pa, pb).mean())"),
])


def test_only_allowed_statements_go_unreached():
    """Code that only tests reach fails this, and so does an allowlisted
    statement that the subcommands now run or that is gone."""
    out = subprocess.run([sys.executable, str(TRAFFIC)], capture_output=True, text=True,
                         check=True, timeout=300).stdout.splitlines()
    assert out[-1] == f"{len(out) - 1} statements never ran"
    listed = sorted(re.fullmatch(r"(\S+):\d+ (\S+): (.*)", line).groups() for line in out[:-1])
    assert listed == UNREACHED_ALLOWED
