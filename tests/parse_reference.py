"""The two-pass route from document entries to kernel rows, the
differential reference for the one-pass `exact_row` of `interdec.linalg`.

Every entry is first parsed to a field element (a `Fraction` over ℚ, even
for an integer) and the parsed row then goes to the kernel; the loader
parses a whole document this way before it builds any space, and the
spaces are then built from the parsed rows.  A ℚ text is read by the
number rule's check and then `Fraction(text)`, whatever its form.

It also keeps the poset and model readers that check every label,
relation and cardinality themselves, entry by entry, before `build_poset`
or `ProductSpace` sees them, and check a poset's keys only after its
values: the reference for `fileio`'s readers, which check only objects
and keys and leave the values to the library.
"""

from fractions import Fraction
from math import gcd

from interdec.arrangements import new_arrangement
from interdec.errors import InputError, InterdecError
from interdec.fileio import field_from_doc, poset_from_doc
from interdec.interactions import ProductSpace
from interdec.linalg import _NUMBER_TEXT, IntEchelon, _primitive, _shown
from interdec.posets import build_poset


def reference_parse(field, value):
    """field.parse, but a ℚ text is checked by the number rule and then
    read whole by Fraction(text), as before "p/q" texts were split."""
    if field.kind != "rational" or not isinstance(value, str):
        return field.parse(value)
    if _NUMBER_TEXT.fullmatch(value) is not None:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"not a rational entry: {_shown(value)}")


def old_exact_row(field, row):
    """Kernel row of a row of field elements, as the kernel took them."""
    if field.kind == "modular":
        return tuple(e % field.p for e in row)
    scale = 1
    for e in row:
        d = e.denominator
        scale = scale // gcd(scale, d) * d
    return _primitive([e.numerator * (scale // e.denominator) for e in row])


def reference_exact_row(field, row):
    """Parse every entry, then take the parsed row to the kernel."""
    return old_exact_row(field, [reference_parse(field, e) for e in row])


def reference_kernel_space(ambient_dim, parsed, field):
    """The subspace spanned by rows of field elements, each taken to the
    kernel as the kernel took them, then eliminated."""
    kernel_rows = [old_exact_row(field, r) for r in parsed]
    return IntEchelon(field, kernel_rows).subspace(ambient_dim)


def reference_parse_rows(rows, ambient_dim, field, location):
    """Generator rows parsed to field elements, with the offending location
    in the message of any InputError."""
    if not isinstance(rows, list):
        raise InputError(f"{location}: expected a list of generator rows")
    parsed = []
    for k, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != ambient_dim:
            raise InputError(
                f"{location}[{k}]: expected a row of {ambient_dim} entries"
            )
        try:
            parsed.append([reference_parse(field, x) for x in row])
        except InputError as exc:
            raise InputError(f"{location}[{k}]: {exc}") from None
    return parsed


_ARRANGEMENT_KEYS = ("field", "ambient_dim", "poset", "spaces")


def reference_arrangement_from_doc(doc, field_override=None, location="arrangement"):
    """Validate the document, parse every space's rows, then build the
    spaces from the parsed rows and the arrangement from the spaces."""
    if not isinstance(doc, dict):
        raise InputError(f"{location}: expected an object")
    for key in _ARRANGEMENT_KEYS:
        if key not in doc:
            raise InputError(f"{location}: missing key {key!r}")
    extra = set(doc) - set(_ARRANGEMENT_KEYS)
    if extra:
        raise InputError(f"{location}: unknown keys {sorted(extra)}")
    field = field_override or field_from_doc(doc["field"], f"{location}.field")
    ambient = doc["ambient_dim"]
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 0:
        raise InputError(f"{location}.ambient_dim: expected a count")
    poset = poset_from_doc(doc["poset"], f"{location}.poset")
    spaces_doc = doc["spaces"]
    if not isinstance(spaces_doc, dict):
        raise InputError(f"{location}.spaces: expected an object")
    for lab in poset.labels:
        if lab not in spaces_doc:
            raise InputError(f"{location}.spaces: no entry for element {lab!r}")
    for lab in spaces_doc:
        if lab not in poset:
            raise InputError(f"{location}.spaces: unknown element {lab!r}")
    rows = {
        lab: reference_parse_rows(rows, ambient, field, f"{location}.spaces.{lab}")
        for lab, rows in spaces_doc.items()
    }
    spaces = {
        lab: reference_kernel_space(ambient, rows[lab], field) for lab in poset.labels
    }
    return new_arrangement(poset, ambient, field, spaces)


def reference_poset_from_doc(doc, location="poset"):
    """Every value checked here, then the keys, then build_poset."""
    if not isinstance(doc, dict):
        raise InputError(f"{location}: expected an object")
    elements = doc.get("elements")
    if not isinstance(elements, list) or not all(
        isinstance(e, str) for e in elements
    ):
        raise InputError(f"{location}.elements: expected a list of strings")
    relations = doc.get("relations", [])
    if not isinstance(relations, list):
        raise InputError(f"{location}.relations: expected a list of pairs")
    for k, rel in enumerate(relations):
        if (
            not isinstance(rel, list)
            or len(rel) != 2
            or not all(isinstance(x, str) for x in rel)
        ):
            raise InputError(
                f"{location}.relations[{k}]: expected a pair of element labels"
            )
    extra = set(doc) - {"elements", "relations"}
    if extra:
        raise InputError(f"{location}: unknown keys {sorted(extra)}")
    return build_poset(elements, relations)


def reference_model_from_doc(doc, location="model"):
    """Each variable checked whole, its keys, label and cardinality, before
    the next; then the ProductSpace of the labels and cardinalities."""
    if not isinstance(doc, dict) or "variables" not in doc:
        raise InputError(f'{location}: expected an object with "variables"')
    extra = set(doc) - {"variables"}
    if extra:
        raise InputError(f"{location}: unknown keys {sorted(extra)}")
    variables = doc["variables"]
    if not isinstance(variables, list):
        raise InputError(f"{location}.variables: expected a list")
    labels = []
    cardinalities = []
    for k, entry in enumerate(variables):
        where = f"{location}.variables[{k}]"
        if not isinstance(entry, dict):
            raise InputError(f"{where}: expected an object")
        extra = set(entry) - {"label", "cardinality"}
        if extra:
            raise InputError(f"{where}: unknown keys {sorted(extra)}")
        lab = entry.get("label")
        card = entry.get("cardinality")
        if not isinstance(lab, str):
            raise InputError(f"{where}.label: expected a string")
        if not isinstance(card, int) or isinstance(card, bool):
            raise InputError(f"{where}.cardinality: expected an integer")
        labels.append(lab)
        cardinalities.append(card)
    return ProductSpace(labels, cardinalities)


def outcome(load, *args):
    """What a loader gives: ("ok", field, ambient dim, spaces by label), or
    the type name and message of the documented error it raised."""
    try:
        arrangement = load(*args)
    except InterdecError as exc:
        return type(exc).__name__, str(exc)
    return "ok", arrangement.field, arrangement.ambient_dim, dict(arrangement.spaces)
