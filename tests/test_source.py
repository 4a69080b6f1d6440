"""Source-level rules the package keeps."""

import ast
import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from fractions import Fraction
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


def test_benchmark_entry_point_alias():
    # bench/passrun.py calls interdec.cli.main.main(args=argv,
    # prog_name="interdec") and reads the SystemExit code
    cli = importlib.import_module("interdec.cli")
    assert cli.main.main is cli.main
    inspect.signature(cli.main.main).bind(args=[], prog_name="interdec")


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_importing_the_cli_loads_no_click():
    # a fresh interpreter, so that no other test's imports count; `-c` puts
    # its working directory, the package's parent, first on the path
    code = "import sys, interdec.cli; print('click' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent,
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "False\n"


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


def calls_name(name):
    """A scopes_where matcher for a call of the bare name name."""
    def matches(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
        )
    return matches


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
    # linalg.complement_rows is the one greedy rule.  pre_decompose takes
    # its sections of F(x) ↠ F(x)/F(x̂*) from arrangements._section_rows,
    # and the certificate's walk keeps w(x) of the rows it is given for
    # each element against its running echelon, whether they span F(x) or
    # a given component; in linalg only complement_within wraps the rule,
    # and it stays while the benchmark traces its name
    assert scopes_where(calls_name("complement_rows")) == {
        "arrangements._section_rows",
        "arrangements._certified_sections",
        "linalg.complement_within",
    }


def test_entry_parsing_has_one_home(monkeypatch):
    # each document entry is parsed once, by the field's exact_row, on its
    # way to a kernel row; decomposition_of parses its vector and the sums
    # it hands back, and the loader leaves every entry to exact_row
    def calls_parse(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "parse"
        )

    assert scopes_where(calls_parse) == {
        "linalg.RationalField.exact_row",
        "linalg.PrimeField.exact_row",
        "arrangements.decomposition_of",
    }

    # over ℚ an int goes straight through, as its own numerator, and a
    # field element is not parsed again
    def refuse(self, value):
        raise AssertionError(f"parsed {value!r}")

    linalg = importlib.import_module("interdec.linalg")
    monkeypatch.setattr(linalg.RationalField, "parse", refuse)
    assert linalg.QQ.exact_row([2, -4, 6]) == (1, -2, 3)
    assert linalg.QQ.exact_row([Fraction(-1, 2), 3]) == (1, -6)


def test_rebuild_locator_has_one_caller():
    # the certificate's verdict comes from its walk; only
    # verify_decomposition, after a failed walk on a direct sum, rebuilds
    # the sums below each element to locate its witness, so decompose
    # never pays for them
    assert scopes_where(calls_name("_first_rebuild_failure")) == {
        "arrangements.verify_decomposition"
    }


def test_lower_sets_are_listed_by_one_split():
    # posets._lower_sets unrolls the split that _count_component counts
    # by; enumerate_lower_sets sorts its listing, and lower_set_lattice
    # builds on it without the traced enumerate_lower_sets, so the
    # benchmark counts only the listings of failing scans
    assert scopes_where(calls_name("_lower_sets")) == {
        "posets.enumerate_lower_sets",
        "posets.lower_set_lattice",
    }


def test_the_certificate_walk_is_the_one_certificate():
    # the three checks and decompose walk the section rows of each F(x),
    # and verify_decomposition walks the stored rows of the components it
    # is given; no other scope certifies
    assert scopes_where(calls_name("_certified_sections")) == {
        "arrangements.check_condition_C",
        "arrangements._pairwise_lower_set_scan",
        "arrangements.decompose",
        "arrangements.verify_decomposition",
    }


def test_the_retired_grower_and_count_certificate_stay_gone():
    # lower sets are listed by one split and certified by one walk; no
    # scope defines or names a second lower-set listing or certificate
    retired = {"_grow_lower_sets", "_certificate"}

    def names_retired(node):
        return (isinstance(node, ast.Name) and node.id in retired) or (
            isinstance(node, ast.Attribute) and node.attr in retired
        )

    defined = {
        node.name
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert scopes_where(names_retired) == set()
    assert defined & retired == set()


def test_pair_test_and_witness_rule_have_one_home_each():
    # (C), (I) and (sI) all test the pair identity on lower sets, through
    # _pair_fails, the one reader of the dimension memo; every check builds
    # its witness by one rule, the first canonical basis row of lhs
    # outside rhs, in _witness
    def names_dim_of_mask(node):
        return isinstance(node, ast.Attribute) and node.attr == "dim_of_mask"

    def constructs_witness(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Witness"
        )

    assert scopes_where(names_dim_of_mask) == {"arrangements._pair_fails"}
    assert scopes_where(constructs_witness) == {"arrangements._witness"}


def test_sum_sites_in_arrangements_are_pinned():
    # every lower-set dimension comes from the subset-sum memo behind
    # eval_mask and dim_of_mask, and only the certificate's failure
    # locators sum components; extend_to_lower_sets grows each lower set
    # from its parent by section rows, and no scope copies an echelon
    def calls_copy(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "copy"
        )

    def in_arrangements(scopes):
        return {scope for scope in scopes if scope.split(".")[0] == "arrangements"}

    assert in_arrangements(scopes_where(calls_name("sum_echelon"))) == {
        "arrangements.Arrangement._sum_echelon",
        "arrangements._first_rebuild_failure",
        "arrangements._direct_sum_witness",
    }
    assert in_arrangements(scopes_where(calls_copy)) == set()


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


def test_the_factor_path_eliminates_nothing():
    # interactions writes its spaces and components in closed form; the
    # elimination route is the differential reference in tests/
    def calls_elimination(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("decompose", "new_arrangement", "IntEchelon")
        )

    assert {
        scope for scope in scopes_where(calls_elimination)
        if scope.startswith("interactions")
    } == set()


def test_acceptance_decides_the_scans_by_the_reference_pair_loop():
    # (C), (I), (sI) and decompose read one decomposition certificate, so
    # the acceptance criteria that compare them also decide (I) and (sI)
    # by the full pair scan of tests/scan_reference.py, and criterion 1
    # (C) by its reference (C) scan, from ranks alone
    root = PACKAGE.parents[1]
    tree = ast.parse((root / "tests" / "test_acceptance.py").read_text())
    imported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "scan_reference"
        for alias in node.names
    }

    def callers(reference):
        return {
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == reference
        }

    assert {"full_pair_scan", "full_c_scan"} <= imported
    assert callers("full_pair_scan") >= {
        "test_criterion_1_equivalence_suite",
        "test_criterion_3_interaction_decomposition",
        "test_criterion_4_decomposable_implies_strong_intersection",
    }
    assert "test_criterion_1_equivalence_suite" in callers("full_c_scan")
