"""Exception types shared across the package.

Every error raised on purpose derives from InterdecError so callers (and
the CLI) can separate expected failures from genuine bugs.
"""

import json


class InterdecError(Exception):
    pass


class InputError(InterdecError):
    """A document failed to parse or validate; message carries the location."""


# -- poset construction and queries -----------------------------------------

class DuplicateLabel(InputError):
    pass


class UnknownLabel(InputError):
    pass


class UnknownElement(InterdecError):
    pass


class CycleDetected(InputError):
    """The supplied relation pairs close into a cycle, breaking antisymmetry."""


class NotComparable(InterdecError):
    pass


class CapExceeded(InterdecError):
    """A brute-force enumeration grew past its cap; the poset is too large."""


# -- exact linear algebra ----------------------------------------------------

class DimensionMismatch(InterdecError):
    pass


class NotContained(InterdecError):
    pass


# -- arrangements ------------------------------------------------------------

class NotMonotone(InputError):
    """The element map is not monotone: some F(a) is not inside F(b) for a <= b.

    Carries the offending pair and a vector of F(a) that lies outside F(b);
    the message prints the vector in document format (entries like "1/2").
    """

    def __init__(self, lower, upper, vector, field):
        self.lower = lower
        self.upper = upper
        self.vector = vector
        rendered = json.dumps([field.format(x) for x in vector])
        super().__init__(
            f"not monotone: {lower!r} <= {upper!r} but F({lower!r}) is not "
            f"contained in F({upper!r}); witness vector {rendered}"
        )


class NotMonotoneMap(InterdecError):
    pass


class VectorOutsideArrangement(InterdecError):
    pass


class InternalContradiction(InterdecError):
    """A certified mathematical identity failed to hold; indicates a bug."""


# -- product spaces ----------------------------------------------------------

class EmptyVariableDomain(InputError):
    pass


class UnknownVariable(InterdecError):
    pass


class SizeLimitExceeded(InterdecError):
    pass
