"""Exception vocabulary shared by all opdep modules.

Every error raised by the library derives from :class:`OpdepError`, so
callers can catch one type at an API boundary.  Most errors also derive
from :class:`ValueError` because they signal rejected input rather than
internal failure.
"""

from __future__ import annotations


class OpdepError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteInput(OpdepError, ValueError):
    """A value vector contains NaN or an infinity where finite reals are required."""


class OrderTooSmall(OpdepError, ValueError):
    """Pattern order d is below the supported minimum of 2."""


class OrderTooLarge(OpdepError, ValueError):
    """Pattern order d exceeds the supported maximum of 8."""


class IndexOutOfRange(OpdepError, ValueError):
    """A pattern index lies outside [0, d! - 1]."""


class InvalidPermutation(OpdepError, ValueError):
    """A tuple claimed to be a permutation of 1..d is not one."""


class EmptyInput(OpdepError, ValueError):
    """An input collection that must be nonempty is empty."""


class InvalidParameter(OpdepError, ValueError):
    """A scalar parameter (step, sample count, tolerance, ...) is out of range."""


class SeriesTooShort(OpdepError, ValueError):
    """A time series does not admit a single window of the requested order."""


class DegenerateDistribution(OpdepError, ValueError):
    """The dependence coefficient is undefined because its denominator vanishes.

    This happens exactly when one marginal pattern distribution is a point
    mass and the coincidence probability of an independent copy would be 1.
    """


class ModelStructureError(OpdepError, ValueError):
    """A model object violates a structural constraint of its class."""


class MassNotOne(OpdepError, ValueError):
    """Total mass of a density differs from the expected total.

    Attributes:
        actual: the computed total mass.
        expected: the mass the model was checked against.
    """

    def __init__(self, actual: float, expected: float = 1.0) -> None:
        super().__init__(f"total mass {actual!r} differs from expected {expected!r}")
        self.actual = actual
        self.expected = expected


class OverlappingCells(OpdepError, ValueError):
    """Two cells of a piecewise density overlap on a set of positive measure.

    Attributes:
        first, second: indices of the offending cells in the model's cell tuple.
    """

    def __init__(self, first: int, second: int) -> None:
        super().__init__(f"cells {first} and {second} overlap on a set of positive measure")
        self.first = first
        self.second = second


class AmbiguousBlockOrder(OpdepError, ValueError):
    """Two same-axis blocks of a cell have overlapping interval interiors.

    Pattern probabilities are only defined cell-wise when the blocks of an
    axis occupy almost-surely ordered intervals.
    """


class UnsupportedChainLength(OpdepError, ValueError):
    """Closed-form orthant volumes only cover chain blocks of size 1 or 2.

    Longer chains are still valid models; use Monte Carlo for their
    distribution functions.
    """


class DimensionMismatch(OpdepError, ValueError):
    """A point's length does not match the coordinate dimension of a model."""


class ZeroMassCondition(OpdepError, ValueError):
    """A conditional law was requested given an event of probability zero."""


class InvalidMixture(OpdepError, ValueError):
    """Mixture weights and conditional laws do not form a valid joint law."""


class ModelFormatError(OpdepError, ValueError):
    """A serialized model violates the on-disk schema.

    Attributes:
        field: dotted path of the offending field, e.g. ``cells[0].blocks[1].lo``,
            or ``""`` for the document as a whole, whose message has no path.
    """

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
