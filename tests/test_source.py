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


def test_importing_the_cli_loads_no_click(tmp_path):
    # a fresh interpreter, so that no other test's imports count; `-c` puts
    # its working directory, the package's parent, first on the path.
    # argparse is imported only to print help or a usage error
    doc = tmp_path / "chain.json"
    doc.write_text(json.dumps({
        "field": "rational", "ambient_dim": 1,
        "poset": {"elements": ["x", "y"], "relations": [["x", "y"]]},
        "spaces": {"x": [[1]], "y": [[1]]},
    }))
    code = f"""if True:
        import io, sys
        from contextlib import redirect_stdout
        import interdec.cli
        print('click' in sys.modules, 'argparse' in sys.modules)
        for args in (["check", {str(doc)!r}, "--property", "C"], ["--help"]):
            with redirect_stdout(io.StringIO()):
                try:
                    interdec.cli.main(args=args)
                except SystemExit as ended:
                    code = ended.code
            print(code, 'argparse' in sys.modules)
    """
    done = subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent,
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "False False\n0 False\n0 True\n"


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
    # way to a kernel row; decomposition_of parses the sums it hands back,
    # and the loader leaves every entry to exact_row
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


def test_the_sparse_rule_and_the_eliminations_have_one_home():
    # one density rule decides which pivot rows eliminate on their
    # supports, read where a row enters an echelon: insert and reduced
    # (through _note) and _indicator_subspace, which holds its supports;
    # every elimination step runs inside IntEchelon, the one kernel
    def names_rule_constant(node):
        return isinstance(node, ast.Name) and node.id == "_SPARSE_ZEROS"

    def calls_eliminate(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "eliminate"
        )

    assert scopes_where(names_rule_constant) == {"linalg", "linalg._sparse"}
    assert scopes_where(calls_name("_sparse")) == {
        "linalg.IntEchelon._note",
        "linalg._indicator_subspace",
    }
    assert scopes_where(calls_eliminate) == {
        "linalg.IntEchelon.residue",
        "linalg.IntEchelon.reduced",
    }


def test_reloading_a_factor_export_makes_no_dense_elimination(monkeypatch):
    # the exported (2,)*5 factor arrangement holds 0/1 indicator rows, at
    # least half zeros each; loading it and proving monotonicity on every
    # cover eliminates against their supports only
    interactions = importlib.import_module("interdec.interactions")
    fileio = importlib.import_module("interdec.fileio")
    arrangements = importlib.import_module("interdec.arrangements")
    linalg = importlib.import_module("interdec.linalg")
    product = interactions.ProductSpace(list("abcde"), [2] * 5)
    doc = fileio.arrangement_to_doc(interactions.build_factor_arrangement(product).arrangement)
    counts = {"dense": 0, "sparse": 0}
    original = linalg.RationalField.eliminate

    def counting(self, row, pivot_row, col, *support):
        counts["sparse" if support and support[0] is not None else "dense"] += 1
        return original(self, row, pivot_row, col, *support)

    monkeypatch.setattr(linalg.RationalField, "eliminate", counting)
    loaded = fileio.arrangement_from_doc(json.loads(json.dumps(doc)))
    assert arrangements.check_monotonicity(loaded.poset, loaded.spaces).verdict
    assert counts["dense"] == 0 and counts["sparse"] > 0


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
    # by, listing on the lowest undecided element and counting on the
    # highest; enumerate_lower_sets sorts its listing by size, and
    # lower_set_lattice builds on it without the traced
    # enumerate_lower_sets, so the benchmark counts only the listings of
    # failing scans
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


def test_the_walk_trusts_its_sources_and_verify_proves_containment_first():
    # every source row of the walk lies in its element's space: F(x)'s
    # rows and their mixes by construction, and a given component's rows
    # because verify_decomposition proves s_a ⊆ F(a) before it walks them,
    # so the walk itself tests no containment
    tree = ast.parse((PACKAGE / "arrangements.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def call_lines(scope, name):
        return [
            node.lineno
            for node in ast.walk(defs[scope])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name
        ]

    walk = defs["_certified_sections"]
    assert not any(names_any({"contains_row", "first_outside"})(node) for node in ast.walk(walk))
    proofs = call_lines("verify_decomposition", "first_outside")
    (walked,) = call_lines("verify_decomposition", "_certified_sections")
    assert proofs and min(proofs) < walked


def names_any(names):
    """A scopes_where matcher for a use, import or export of any of names."""
    def matches(node):
        return (
            (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.alias) and {node.name, node.asname} & names)
        )
    return matches


def assert_retired(retired):
    """No scope of the package defines, names, imports or exports any of
    the names retired."""
    defined = {
        node.name
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert scopes_where(names_any(retired)) == set()
    assert defined & retired == set()


def test_the_retired_grower_and_count_certificate_stay_gone():
    # lower sets are listed in scan order by one split and certified by
    # one walk; no scope defines or names a second lower-set listing,
    # order or certificate
    assert_retired({"_grow_lower_sets", "_certificate", "_in_lower_set_order"})


def test_the_retired_dense_matrix_stays_gone():
    # matrices are kernel rows and subspaces are Subspace values; no
    # module defines, names or exports a dense matrix type
    assert_retired({"Matrix"})


def test_the_retired_error_leaves_and_wrappers_stay_gone():
    # each failure exit code has one error class, InputError, CapExceeded
    # or InternalContradiction, and the message tells the failures apart;
    # ProductSpace and eval_mask of the full mask are called directly
    assert_retired({
        "DuplicateLabel", "UnknownLabel", "UnknownElement", "CycleDetected",
        "NotComparable", "DimensionMismatch", "NotContained", "NotMonotoneMap",
        "VectorOutsideArrangement", "EmptyVariableDomain", "UnknownVariable",
        "SizeLimitExceeded", "build_product_space", "full_space_value",
    })


def test_joined_rows_have_one_right_block_reader():
    # linalg._right_block is the one read of the right halves of kernel
    # rows joined as [l | r]: the Zassenhaus rows of U ∩ W, and the one
    # relation of a vector with the components' rows that splits it; the
    # augmented solve it replaced stays gone
    assert scopes_where(calls_name("_right_block")) == {
        "linalg.intersect",
        "arrangements.decomposition_of",
    }
    assert_retired({"solve_exact"})


def test_generator_rows_have_one_reader():
    # subspace_from_generators reads every generator row, naming the row
    # it refuses; _subspace_table reads a table's rows through it, under
    # the arrangements binding the benchmark's tracer wraps, and the loader
    # hands new_arrangement the document's table, so fileio keeps no reader
    # and no kernel
    assert_retired({"_space_from_rows"})
    assert scopes_where(calls_name("subspace_from_generators")) == {
        "arrangements._subspace_table",
        "linalg.rref",
    }
    kernel = scopes_where(names_any({"IntEchelon"}))
    assert {scope for scope in kernel if scope.split(".")[0] == "fileio"} == set()


def test_element_tables_have_one_check():
    # an arrangement's spaces and a decomposition's components are both
    # element tables, checked in one order with one wording by
    # _subspace_table; verify_decomposition keeps no copy of its checks
    assert scopes_where(calls_name("_subspace_table")) == {
        "arrangements.new_arrangement",
        "arrangements.verify_decomposition",
    }


def raises_text(text):
    """A scopes_where matcher for a raise whose message holds text."""
    def matches(node):
        return isinstance(node, ast.Raise) and any(
            isinstance(part, ast.Constant) and text in str(part.value)
            for part in ast.walk(node)
        )
    return matches


def test_poset_and_model_values_have_one_check():
    # build_poset checks every label and relation and ProductSpace every
    # variable label and cardinality, under the location they are given;
    # the document readers check objects and keys only
    for text in ("expected a list of strings", "expected a pair of element labels"):
        assert scopes_where(raises_text(text)) == {"posets.build_poset"}, text
    for text in (".label: expected a string", ".cardinality: expected an integer"):
        assert scopes_where(raises_text(text)) == {"interactions.ProductSpace.__init__"}, text

    def type_test(node):
        if not calls_name("isinstance")(node) or len(node.args) != 2:
            return False
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(isinstance(kind, ast.Name) and kind.id in {"str", "int"} for kind in kinds)

    readers = {"fileio.poset_from_doc", "fileio.model_from_doc"}
    assert scopes_where(type_test) & readers == set()


def test_every_error_has_one_exit_code():
    # the CLI maps InputError to exit 2, CapExceeded to 3 and
    # InternalContradiction to 4, so every other error class of the
    # package must derive from exactly one of them
    errors = importlib.import_module("interdec.errors")
    roots = (errors.InputError, errors.CapExceeded, errors.InternalContradiction)
    classes = [
        cls
        for cls in vars(errors).values()
        if inspect.isclass(cls) and cls.__module__ == errors.__name__
    ]
    assert {cls.__name__ for cls in classes} == {
        "InterdecError", "InputError", "NotMonotone", "CapExceeded", "InternalContradiction",
    }
    for cls in classes:
        if cls is not errors.InterdecError:
            assert sum(issubclass(cls, root) for root in roots) == 1, cls


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


def test_nothing_in_the_package_calls_rref():
    # rref stays only while the benchmark traces the name; deleting it
    # then takes no other change
    def calls_rref(node):
        return isinstance(node, ast.Call) and "rref" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )

    assert scopes_where(calls_rref) == set()


def test_the_number_rule_has_one_home():
    # numbers spelled in documents and flags are read by linalg._read_number
    # alone, which reads the two parts of a "p/q" by int(); every other
    # int() or Fraction() call takes a number, not text
    def names_rule(node):
        return isinstance(node, ast.Name) and node.id == "_NUMBER_TEXT"

    assert scopes_where(names_rule) == {"linalg", "linalg._read_number"}
    assert scopes_where(calls_name("_read_number")) == {
        "linalg.RationalField.parse",
        "fileio.field_from_flag",
        "cli._cap",
        "cli._seed",
    }
    assert scopes_where(calls_name("int")) == {
        "linalg.RationalField.format",
        "linalg._read_number",
    }
    assert scopes_where(calls_name("Fraction")) == {
        "linalg.RationalField.parse",
        "linalg.RationalField.pivot_one",
    }


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
