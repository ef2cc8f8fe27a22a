"""Mutation testing of one src/dul_lab module against its test files.

Each mutant changes one spot of the module: it swaps `<` and `<=` (and `>`
and `>=`), `+` and `-`, `*` and `/` (in augmented assignments too), min and
max (the builtins, numpy's `minimum`/`maximum` and the `.min()`/`.max()`
methods), or doubles a float constant. The mutated module is written into a
fresh copy of `src/` and `tests/`, and the test files given after the
module name (by default its own, `tests/test_<module>.py`) run on it under
`pytest -x`. A mutant that fails no test survived: either a test is missing,
or the mutant computes the same thing as the original. A mutant whose tests
run longer than TIMEOUT_S seconds counts as timed out.

The module is rewritten from its syntax tree (`ast.unparse`), so comments
and layout differ in the copy; nothing else does. Bytecode caches are off,
so two mutants of equal size never share a stale `.pyc`.

Uses the standard library and pytest; not part of tier 1. Run it from
anywhere, one module at a time, with the test files to run if not the
module's own (paths relative to the repository root):

    python3 tools/mutate.py losses
    python3 tools/mutate.py losses tests/test_losses.py tests/test_runner.py
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dul_lab"

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Add: "+",
           ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
MINMAX = {"min": "max", "max": "min", "minimum": "maximum", "maximum": "minimum"}
TIMEOUT_S = 300.0


class Mutator(ast.NodeTransformer):
    """Numbers the mutation sites in a fixed walk order and applies the one
    numbered `target` (none when target is -1); `sites` describes each."""

    def __init__(self, target: int = -1):
        self.target = target
        self.sites: list = []
        self.scope = ["<module>"]

    def _site(self, node, old: str, new: str) -> bool:
        self.sites.append((node.lineno, self.scope[-1], f"{old} -> {new}"))
        return len(self.sites) - 1 == self.target

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        return node

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Compare(self, node):
        self.generic_visit(node)
        for j, op in enumerate(node.ops):
            swap = SWAPS.get(type(op))
            if swap and self._site(node, SYMBOLS[type(op)], SYMBOLS[swap]):
                node.ops[j] = swap()
        return node

    def _op(self, node):
        self.generic_visit(node)
        swap = SWAPS.get(type(node.op))
        if swap and self._site(node, SYMBOLS[type(node.op)], SYMBOLS[swap]):
            node.op = swap()
        return node

    visit_BinOp = visit_AugAssign = _op

    def visit_Call(self, node):
        self.generic_visit(node)
        func = node.func
        attr = "id" if isinstance(func, ast.Name) else "attr"
        name = getattr(func, attr, None)
        if name in MINMAX and self._site(node, name, MINMAX[name]):
            setattr(func, attr, MINMAX[name])
        return node

    def visit_Constant(self, node):
        v = node.value
        if type(v) is float and 2.0 * v != v and self._site(node, repr(v), repr(2.0 * v)):
            return ast.copy_location(ast.Constant(2.0 * v), node)
        return node


def mutants(source: str) -> list:
    m = Mutator()
    m.visit(ast.parse(source))
    return m.sites


def mutant_source(source: str, index: int) -> str:
    return ast.unparse(Mutator(index).visit(ast.parse(source))) + "\n"


def run_tests(work: Path, tests: list) -> str:
    """'killed', 'survived' or 'timeout' for the copy in `work`."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", help="module name under src/dul_lab, e.g. losses")
    ap.add_argument("tests", nargs="*",
                    help="test files to run (default tests/test_<module>.py)")
    args = ap.parse_args(argv)
    path = PACKAGE / f"{args.module}.py"
    tests = args.tests or [f"tests/test_{args.module}.py"]
    for name in [path.relative_to(ROOT), *tests]:
        if not (ROOT / name).is_file():
            ap.error(f"no file {name}")
    source = path.read_text(encoding="utf-8")
    sites = mutants(source)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work)
        target = work / path.relative_to(ROOT)
        target.write_text(ast.unparse(ast.parse(source)) + "\n", encoding="utf-8")
        if run_tests(work, tests) != "survived":
            print("the tests fail on the unmutated module; nothing to measure")
            return 1
        counts = {"killed": 0, "survived": 0, "timeout": 0}
        t0 = time.monotonic()
        print("| # | line | function | mutant | result |\n|---|---|---|---|---|")
        for i, (line, scope, change) in enumerate(sites):
            target.write_text(mutant_source(source, i), encoding="utf-8")
            result = run_tests(work, tests)
            counts[result] += 1
            if result != "killed":
                print(f"| {i} | {line} | `{scope}` | `{change}` | {result} |", flush=True)
    n = len(sites)
    print(f"\n{path.name}: {n} mutants, {counts['killed']} killed, "
          f"{counts['survived']} survived, {counts['timeout']} timed out "
          f"(survival {counts['survived'] / max(n, 1):.0%}; "
          f"{time.monotonic() - t0:.0f} s; tests: {' '.join(tests)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
