"""Exception taxonomy and default resource caps shared across gapforge.

Every search in this package is exhaustive and therefore exponential; the
caps below make the desk-scale limits explicit.  Exceeding a cap raises a
dedicated error instead of silently truncating a search.
"""

from __future__ import annotations

import operator

# Max symbols in a code's stored codeword table (size * ell), checked once when
# the code is built: after the table's own checks, before it is packed.
DEFAULT_ENUM_CAP = 1 << 20
# Max subsets probed by exhaustive subset searches (collision number,
# threshold collision property, cover search, PHF verification), and max
# codeword pairs compared by the relative-distance pair scan.
DEFAULT_SUBSET_BUDGET = 10_000_000
# Max labelings enumerated by the exact MaxCover solver.
DEFAULT_LABELING_CAP = 1_000_000
# Max size of a stored universe: a SetCover instance's, a composed one's when
# materialize exports it, and each side of an explicit MaxCover instance.
DEFAULT_UNIVERSE_CAP = 10_000_000
# Max edges materialized for implicit (threshold / composed) graphs.
DEFAULT_EDGE_CAP = 1_000_000


def count_text(n: int) -> str:
    """n in decimal, or a power-of-two bound past the int-to-text digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"2**{n.bit_length() - 1} or more"


def checked_size_cap(cap, what: str) -> int:
    """cap as an int >= 0; a negative or non-integer cap raises CapExceededError."""
    try:
        cap = operator.index(cap)
    except TypeError:
        raise CapExceededError(f"{what} must be an integer, got {cap!r}") from None
    if cap < 0:
        raise CapExceededError(f"{what} must be >= 0, got {cap}")
    return cap


class GapforgeError(Exception):
    """Base class for all gapforge errors."""


class MessageLengthError(GapforgeError):
    """Message length differs from the code's message length."""


class SymbolRangeError(GapforgeError):
    """A symbol lies outside the alphabet [q]."""


class MessageRangeError(GapforgeError):
    """Message rank exceeds the code's codeword count (table-backed codes)."""


class NotPrimeError(GapforgeError):
    """Reed-Solomon alphabet size must be prime."""


class RankRangeError(GapforgeError):
    """Reed-Solomon message length must satisfy 1 <= r <= q."""


class CapExceededError(GapforgeError):
    """An enumeration would exceed a configured cap."""


class BudgetExceededError(GapforgeError):
    """An exhaustive search exceeded its work budget."""


class PhfNotFoundError(GapforgeError):
    """Randomized perfect-hash-family search exhausted ell_max."""

    def __init__(self, ell_max: int):
        super().__init__(f"no perfect hash family found up to ell_max={ell_max}")
        self.ell_max = ell_max


class IndexRangeError(GapforgeError):
    """A vertex or part reference is out of range."""


class NotPseudoProjectionError(GapforgeError):
    """Composition requires the pseudo-projection property."""


class MatchingOverflowError(GapforgeError):
    """A right super-node is larger than the code, so no injective matching exists."""


class DegreeBoundError(GapforgeError):
    """A vertex exceeds the declared per-part neighbourhood bound d."""


class NotTwoPartsError(GapforgeError):
    """The degree-bounded composition is defined only for k = 2."""


class UniverseCapError(CapExceededError):
    """A SetCover universe would exceed the universe cap."""


class InstanceMismatchError(GapforgeError):
    """A certificate's base is not the instance its composition was built from."""


class PartNotIndependentError(GapforgeError):
    """A graph part contains an internal edge."""


class EmptyPartError(GapforgeError):
    """Right super-nodes must be non-empty."""


class OccurrenceBoundError(GapforgeError):
    """A CNF variable occurs in more than three clauses."""


class UnusedVariableError(GapforgeError):
    """A CNF variable occurs in no clause."""


class ClauseWidthError(GapforgeError):
    """A CNF clause has more than three literals."""


class ParseError(GapforgeError):
    """Syntax error in an input file, with a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaVersionError(GapforgeError):
    """A JSON document carries an unsupported format tag."""
