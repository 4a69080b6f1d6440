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


def scopes_where(matches):
    """The dotted module.class.function scopes of the package whose own
    body (not a nested definition) holds a node for which matches holds."""
    found = set()

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                scan(child, scope + (child.name,))
                continue
            if matches(child):
                found.add(".".join(scope))
            scan(child, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        scan(ast.parse(path.read_text(), filename=str(path)), (path.stem,))
    return found


def test_lowest_bit_walk_has_one_home():
    # posets._bits walks a mask's set bits; only the per-call hot path,
    # where a generator's setup cost shows, keeps an inline copy
    def lowest_bit(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.BitAnd)
            and isinstance(node.right, ast.UnaryOp)
            and isinstance(node.right.op, ast.USub)
            and ast.dump(node.left) == ast.dump(node.right.operand)
        )

    assert scopes_where(lowest_bit) == {
        "posets._bits",
        "arrangements.Arrangement._sum_echelon",
    }


def test_section_rule_has_one_home():
    # pre_decompose and the lower-set walk both take their sections of
    # F(x) ↠ F(x)/F(x̂*) from arrangements._section_rows; in linalg only
    # complement_within wraps the greedy rule, and it stays while the
    # benchmark traces its name
    def calls_complement_rows(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "complement_rows"
        )

    assert scopes_where(calls_complement_rows) == {
        "arrangements._section_rows",
        "linalg.complement_within",
    }


def test_rebuild_locator_has_one_caller():
    # the certificate's verdict comes from counting; only
    # verify_decomposition, after a failed count, rebuilds the sums below
    # each element to locate its witness, so decompose never pays for them
    def calls_rebuild_locator(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_first_rebuild_failure"
        )

    assert scopes_where(calls_rebuild_locator) == {"arrangements.verify_decomposition"}


def test_only_the_rational_field_names_fraction():
    # the kernel computes on integer rows; Fraction values are made only
    # where RationalField parses, renders or scales a row to pivot one
    def names_fraction(node):
        return (isinstance(node, ast.Name) and node.id == "Fraction") or (
            isinstance(node, ast.Attribute) and node.attr == "Fraction"
        )

    for scope in scopes_where(names_fraction):
        assert scope == "linalg.RationalField" or scope.startswith(
            "linalg.RationalField."
        ), scope


def test_nothing_in_the_package_calls_rref_or_matrix():
    # rref and Matrix stay only while the benchmark traces rref; deleting
    # them then takes no other change
    def names_rref_or_matrix(node):
        return isinstance(node, ast.Name) and node.id in ("rref", "Matrix")

    assert scopes_where(names_rref_or_matrix) <= {"linalg.rref"}
