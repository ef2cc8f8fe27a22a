"""The benchmark under perfbench/ uses the lab by name. These tests read its
sources with ast, without importing them, and check that every lab name it
uses still exists: deleting or renaming one fails here, and not only when
the benchmark runs."""

import ast
import importlib
from pathlib import Path

import numpy as np

from dul_lab import data, dirichlet, nn

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
# tracer constants that hold lab names, dotted below the dul_lab package
TRACER_NAMES = ("LAYERS", "FORWARDS", "THEORY_CHECKS", "COUNTED_FUNCTIONS",
                "METRIC_FUNCTIONS")


def _resolves(dotted: str) -> bool:
    """Whether a dotted name under dul_lab names a module or an attribute."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def _dotted(node, aliases):
    """`a.b.c` as a full dotted name when `a` is bound to a lab name."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return base and f"{base}.{node.attr}"
    return None


def _lab_names(tree) -> set:
    """Every lab name a module imports, reads as an attribute chain, or
    patches with setattr(module, "name", ...)."""
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dul_lab"):
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("dul_lab"):
                    aliases[a.asname or a.name.split(".")[0]] = (
                        a.name if a.asname else "dul_lab")
    names.update(aliases.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(_dotted(node, aliases))
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setattr"
              and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
            base = _dotted(node.args[0], aliases)
            names.add(base and f"{base}.{node.args[1].value}")
    names.discard(None)
    return names


def test_every_lab_attribute_the_benchmark_reads_resolves():
    names = set()
    for path in sorted(BENCH.rglob("*.py")):
        names |= _lab_names(ast.parse(path.read_text(encoding="utf-8")))
    # the scan must see the calls it guards
    assert {"dul_lab.theory.theorem1_bound", "dul_lab.nn.Batch",
            "dul_lab.dirichlet.total_uncertainty"} <= names
    assert sorted(n for n in names if not _resolves(n)) == []


def test_every_lab_name_in_the_tracer_resolves():
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in TRACER_NAMES):
            value = ast.literal_eval(node.value)
            names.update(value.values() if isinstance(value, dict) else value)
    # functions whose calls the tracer counts by name: calls["theory.disparity"]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "calls"
                and isinstance(node.slice, ast.Constant)):
            names.add(node.slice.value)
    assert {"theory.theorem1_bound", "theory.disparity", "nn.Mlp.forward_cache"} <= names
    assert sorted(n for n in names if not _resolves(f"dul_lab.{n}")) == []


# tracer functions that read lab attributes through getattr/hasattr with a
# fallback, so a renamed attribute changes their numbers instead of failing
TRACER_READERS = ("_leading_rows", "_rows", "_note_forward")


def _attributes_read(func) -> set:
    """Names a function reads with getattr/hasattr: a string constant, or a
    loop variable over a constant tuple of names."""
    loops = {node.target.id: ast.literal_eval(node.iter) for node in ast.walk(func)
             if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)}
    names = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")):
            arg = node.args[1]
            names.update([arg.value] if isinstance(arg, ast.Constant) else loops[arg.id])
    return names


def test_every_attribute_the_tracer_reads_by_name_exists():
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in TRACER_READERS:
            names |= _attributes_read(node)
    # the lab object each name is read from
    meant_for = {
        "inputs": nn.Batch(np.zeros((1, 2))),
        "points": data.make_id_blobs(k=2, n_per_class=1),
        "alpha": dirichlet.DirichletParams(np.ones(2)),
        "p": dirichlet.SimplexVector(np.array([0.5, 0.5])),
    }
    assert names == set(meant_for)
    assert sorted(n for n, obj in meant_for.items() if not hasattr(obj, n)) == []
