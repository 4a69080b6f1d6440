"""The two-pass route from document entries to kernel rows, the
differential reference for the one-pass `exact_row` of `interdec.linalg`.

Every entry is first parsed to a field element (a `Fraction` over ℚ, even
for an integer) and the parsed row then goes to the kernel; the loader
parses a whole document this way before it builds any space, and the
spaces are built by parsing each row once more.
"""

from math import gcd

from interdec.arrangements import new_arrangement
from interdec.errors import DimensionMismatch, InputError, InterdecError
from interdec.fileio import field_from_doc, poset_from_doc
from interdec.linalg import IntEchelon, _primitive


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
    return old_exact_row(field, [field.parse(e) for e in row])


def reference_subspace(ambient_dim, gens, field):
    """Lengths checked first, then every row parsed again and eliminated."""
    rows = [list(r) for r in gens]
    for r in rows:
        if len(r) != ambient_dim:
            raise DimensionMismatch(
                f"generator of length {len(r)}, ambient dim is {ambient_dim}"
            )
    kernel_rows = [reference_exact_row(field, r) for r in rows]
    return IntEchelon(field, kernel_rows).subspace(ambient_dim)


def reference_parse_rows(rows, ambient_dim, field, location):
    """Generator rows parsed to field elements, with the offending location
    in the message of any InputError."""
    if not isinstance(rows, list):
        raise InputError(f"{location}: expected a list of generator rows")
    parsed = []
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ambient_dim:
            raise InputError(
                f"{location}[{k}]: expected a row of {ambient_dim} entries"
            )
        try:
            parsed.append([field.parse(x) for x in row])
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
        lab: reference_subspace(ambient, rows[lab], field) for lab in poset.labels
    }
    return new_arrangement(poset, ambient, field, spaces)


def outcome(load, *args):
    """What a loader gives: ("ok", field, ambient dim, spaces by label), or
    the type name and message of the documented error it raised."""
    try:
        arrangement = load(*args)
    except InterdecError as exc:
        return type(exc).__name__, str(exc)
    return "ok", arrangement.field, arrangement.ambient_dim, dict(arrangement.spaces)
