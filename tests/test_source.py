"""Source-level rules the package keeps."""

import ast
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import interdec

PACKAGE = Path(interdec.__file__).parent

# package exports that neither the CLI, the README nor the tests name,
# each kept on purpose
KEPT_EXPORTS = {
    "InterdecError": "the base class of every error callers catch",
    "ProductSpace": "the type build_product_space returns",
}


def test_no_assert_or_assertion_error_in_package():
    # correctness checks raise InternalContradiction: `python -O` strips
    # assert statements, and AssertionError escapes the CLI's exit codes
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_names_the_benchmark_traces_exist():
    # bench/tracing.py binds these names when it wraps the package; a rename
    # would otherwise surface only in the slow traced benchmark self-test
    root = PACKAGE.parents[1]
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", root / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    span_of = {name: qualified for qualified, name in tracing.RENAMED.items()}
    method_of = {name: key for key, name in tracing.METHODS.items()}
    spans = set(span_of) | set(method_of)
    for metric in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]:
        name, _, kind = metric["name"].rpartition(".")
        layer, dot, _ = name.partition(".")
        if kind in ("calls", "self_s") and dot and layer in tracing.MODULES:
            spans.add(name)
    missing = []
    for span in sorted(spans):
        if span in method_of:
            layer, cls, attr = method_of[span]
            owner = getattr(importlib.import_module(f"interdec.{layer}"), cls, None)
            found = owner is not None and inspect.isfunction(vars(owner).get(attr))
        else:
            layer, _, attr = span_of.get(span, span).partition(".")
            module = importlib.import_module(f"interdec.{layer}")
            obj = getattr(module, attr, None)
            found = inspect.isfunction(obj) and obj.__module__ == module.__name__
        if not found:
            missing.append(span)
    assert missing == []


def test_every_export_is_used_or_kept():
    # the public API is what the CLI, the README and the tests use; this
    # file is left out of the search because it holds the keep list
    root = PACKAGE.parents[1]
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    texts = [PACKAGE / "cli.py", root / "README.md"] + [
        path
        for path in sorted((root / "tests").glob("*.py"))
        if path.name != Path(__file__).name
    ]
    corpus = "".join(path.read_text() for path in texts)
    unused = [
        name
        for name in names
        if name not in KEPT_EXPORTS and not re.search(rf"\b{name}\b", corpus)
    ]
    assert unused == []
    assert set(KEPT_EXPORTS) <= set(names)


def test_lowest_bit_walk_has_one_home():
    # posets._bits walks a mask's set bits; only the two per-call hot
    # paths, where a generator's setup cost shows, keep an inline copy
    found = set()

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                scan(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.BinOp)
                and isinstance(child.op, ast.BitAnd)
                and isinstance(child.right, ast.UnaryOp)
                and isinstance(child.right.op, ast.USub)
                and ast.dump(child.left) == ast.dump(child.right.operand)
            ):
                found.add(".".join(scope))
            scan(child, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        scan(ast.parse(path.read_text(), filename=str(path)), (path.stem,))
    assert found == {
        "posets._bits",
        "arrangements.Arrangement._sum_echelon",
        "arrangements._pairwise_lower_set_scan",
    }
