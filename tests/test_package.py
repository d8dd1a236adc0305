"""The package imports nothing outside the standard library, every name a
module imports is read there, every function and class it defines is named
somewhere else, and every benchmark span has a function to wrap."""

import ast
import importlib.util
import pathlib
import re
import sys

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


def test_every_definition_is_named_elsewhere():
    # a helper left behind by a simplification is named only where it is
    # defined; a read, an attribute, or a dotted-name string (the tracer's
    # spans) anywhere in the package, its tests or the benchmark is a use
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not re.fullmatch(r"__\w+__", node.name):
                defined.add((path.name, node.name))
    named = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                    named.update(node.value.split("."))
    assert defined
    assert sorted(d for d in defined if d[1] not in named) == []


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
