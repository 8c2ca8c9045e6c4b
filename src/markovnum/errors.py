"""Exception hierarchy shared by all modules."""


class MarkovNumError(Exception):
    """Base class for all library errors."""


class MixedRadicandError(MarkovNumError):
    """Arithmetic attempted on surds with different (nonzero) radicands."""


class DimensionMismatchError(MarkovNumError):
    """Matrix or vector dimensions are incompatible."""


class ZeroDenominatorError(MarkovNumError):
    """A generalized continued fraction produced a zero denominator."""


class NotReducedError(MarkovNumError):
    """The matrix has no decomposition into positive companion factors."""


class ArityMismatchError(MarkovNumError):
    """Arities disagree: companion specs mixed in one recurrence system,
    or a snake body column deeper than its head or window."""


class TooLargeError(MarkovNumError):
    """Input exceeds the bound of an exponential-time routine."""


class NotCoprimeError(MarkovNumError):
    """A fraction p/q was expected in lowest terms."""


class NotUnimodularError(MarkovNumError):
    """A matrix expected in SL(2, Z) has determinant != 1."""


class NoResidueError(MarkovNumError):
    """The defining congruence of a Markov form has no solution."""


class DecompositionMismatchError(MarkovNumError):
    """A claimed companion decomposition does not multiply to the matrix."""


class EmptyPeriodError(MarkovNumError):
    """An empty period sequence was passed where entries are required."""


class StuckError(MarkovNumError):
    """A subtractive step cannot proceed (both subtrahends are zero)."""


class InvalidTraceError(MarkovNumError):
    """A multidimensional continued-fraction trace is malformed."""


class ZeroVectorError(MarkovNumError):
    """The zero vector has no associated cube sequence."""


class NotUnitStepError(MarkovNumError, ValueError):
    """Neighbouring points of a cube sequence differ by more than one
    standard basis vector."""
