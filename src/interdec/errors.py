"""Exception types shared across the package, one per failure exit code.

Every error raised on purpose derives from InterdecError so callers (and
the CLI) can separate expected failures from genuine bugs.  The CLI maps
InputError to exit 2, CapExceeded to exit 3 and InternalContradiction to
exit 4; the message says which input, cap or identity it was.  Errors
and witnesses print a vector by vector_text, in document form.
"""

import json


def vector_text(vector, field):
    """A vector as the JSON text of its document form: [1, "1/2"]."""
    return json.dumps([field.format(x) for x in vector])


class InterdecError(Exception):
    pass


class InputError(InterdecError):
    """An input failed to parse or validate: a malformed document, an
    unknown or repeated label, a cycle, a size or dimension that does not
    fit.  The message carries the location."""


class NotMonotone(InputError):
    """The element map is not monotone: some F(a) is not inside F(b) for a <= b.

    Carries the offending pair and a vector of F(a) that lies outside F(b);
    the message prints the vector in document format (entries like "1/2").
    """

    def __init__(self, lower, upper, vector, field):
        self.lower = lower
        self.upper = upper
        self.vector = vector
        super().__init__(
            f"not monotone: {lower!r} <= {upper!r} but F({lower!r}) is not "
            f"contained in F({upper!r}); witness vector {vector_text(vector, field)}"
        )


class CapExceeded(InterdecError):
    """An enumeration or a size grew past its cap: too many lower sets,
    points, subsets or entries, or a number with too many digits."""


class InternalContradiction(InterdecError):
    """A certified mathematical identity failed to hold; indicates a bug."""
