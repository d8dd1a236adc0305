"""The package imports nothing outside the standard library, every name a
module imports is read there, every function and class it defines is named
somewhere else (a module-level one within the package), and every benchmark
span has a function to wrap."""

import ast
import importlib.util
import pathlib
import re
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fieldsimp"
# spans whose function is gone; the tracer reports them as missing
STALE_SPANS = {"poly.derivative"}


def test_imports_are_stdlib_only():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    (path.name, name)


def test_every_import_is_used():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        assert imported <= read, (path.name, sorted(imported - read))


def _name_counts(tree):
    """How often each name is read, taken as an attribute, or is part of a
    dotted-name string (the tracer's spans) in `tree`."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            counts.update(node.value.split("."))
    return counts


def test_every_definition_is_named_elsewhere():
    # a helper left behind by a simplification is named only where it is
    # defined.  A module-level function or class is used only when the
    # package names it outside its own body, so a test helper of the same
    # name does not keep it; a method may be named anywhere in the
    # package, its tests or the benchmark
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    in_src = sum((_name_counts(tree) for tree in trees.values()), Counter())
    anywhere = set(in_src)
    for top in ("tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            anywhere.update(_name_counts(
                ast.parse(path.read_text(encoding="utf-8"))))
    unused, module_level = [], 0
    for name, tree in trees.items():
        top_level = set(tree.body)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or re.fullmatch(r"__\w+__", node.name):
                continue
            if node in top_level:
                module_level += 1
                used = in_src[node.name] > _name_counts(node)[node.name]
            else:
                used = node.name in anywhere
            if not used:
                unused.append((name, node.name))
    assert module_level
    assert unused == []


def test_every_benchmark_span_resolves():
    # perfbench/tracer.py only warns about a span with no function to wrap,
    # so a refactor could drop one silently
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, (module, path) in sorted(tracer.SPANS.items()):
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert set(missing) <= STALE_SPANS, missing
