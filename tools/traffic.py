"""List the statements under src/ that no CLI subcommand reaches.

Runs every `dul` subcommand once, in process and on a tiny config, under a
line tracer (`sys.settrace`), and prints each statement of `src/dul_lab`
that never ran, as `file:line function: source`. `raise` statements are left
out: they are the boundary checks, which the tests reach. So are `global` and
`nonlocal` declarations, which run no code. A function whose statements all
show up here has no caller outside the tests, unless the benchmark under
perfbench/ calls it (tests/test_bench_surface.py checks the names that
benchmark uses).

It sees statements, not values. An option whose other value lives inside
a one-line expression, such as the branch of a conditional expression or
an exponent read from the config, runs that line on every path, so no
line is listed for the value that no run sets. Options like those have to
be found by reading the code.

Uses the standard library only. Run it from anywhere:

    python3 tools/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dul_lab"

TINY_CONFIG = """\
[train]
arch = 2 8 3
pretrain_epochs = 3
finetune_epochs = 2
batch_id = 32
batch_ood = 32

[data]
n_per_class = 40
n_sem_train = 60
n_sem_test = 60
n_eval_id = 60
"""


def _commands(out: Path):
    """One argument list per subcommand; the later ones read the checkpoints
    the earlier ones write."""
    common = ["--config", str(out / "tiny.ini"), "--out", str(out)]
    ckpt = str(out / "finetuned_dul.ckpt")
    return [common + ["pretrain"],
            common + ["finetune", "--method", "dul"],
            common + ["eval", "--checkpoint", ckpt],
            common + ["sweep", "--checkpoint", ckpt],
            common + ["verify", "--quick"],
            common + ["repro-dilemma"]]


def run_cli(out: Path) -> set:
    """Run every subcommand as `python -m dul_lab.cli` would; returns the
    (file, line) pairs that ran under src/dul_lab."""
    seen = set()
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    (out / "tiny.ini").write_text(TINY_CONFIG, encoding="utf-8")
    sys.path.insert(0, str(PACKAGE.parent))
    argv = sys.argv
    sys.settrace(on_call)
    try:
        for args in _commands(out):
            sys.argv = ["dul"] + args
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    runpy.run_module("dul_lab.cli", run_name="__main__")
                except SystemExit as exc:
                    if exc.code:
                        raise RuntimeError(f"dul {' '.join(args)} exited {exc.code}")
    finally:
        sys.settrace(None)
        sys.argv = argv
    return seen


def statements(tree: ast.Module):
    """(first line, last line, first line of the statement, enclosing
    function) for each statement that can run, docstrings and `raise` left
    out. `global` and `nonlocal` are left out too: they are declarations,
    which never emit a line event. A compound statement spans its decorators
    and header, not its body."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.stmt) and not isinstance(
                    child, (ast.Raise, ast.Global, ast.Nonlocal)) and not (
                    isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)):
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", [])])
                body = getattr(child, "body", None)
                last = body[0].lineno - 1 if body else child.end_lineno
                yield first, max(last, child.lineno), child.lineno, scope or "<module>"
            yield from walk(child, inner)
    yield from walk(tree, "")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        seen = run_cli(Path(tmp))
    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = {line for name, line in seen if name == str(path)}
        for first, last, line, scope in statements(ast.parse(source)):
            if not ran.intersection(range(first, last + 1)):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{line} {scope}: {lines[line - 1].strip()}")
    print(f"{unreached} statements never ran")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
