"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract: 2 parse, 3 precondition,
4 hypothesis failure, 5 internal sanity.  Everything derives from KhhError
so callers can catch the whole family at once.
"""


class KhhError(Exception):
    exit_code = 1


class ParseError(KhhError):
    """Malformed input text.  Carries a 1-based line and column."""

    exit_code = 2

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {column})" if column is not None else ")")
        super().__init__(message + where)


class PreconditionError(KhhError):
    """An operation was invoked outside its stated preconditions."""

    exit_code = 3


class HypothesisError(KhhError):
    """A mathematical hypothesis of the computation fails on the input."""

    exit_code = 4


class SanityError(KhhError):
    """An exact internal identity failed: signals an implementation bug."""

    exit_code = 5


class InhomogeneousRelationError(ParseError):
    pass


class ZeroWeightGeneratorError(ParseError):
    pass


class WeightMismatchError(PreconditionError):
    pass


class RelationNotKilledError(PreconditionError):
    pass


class NotSquareError(PreconditionError):
    pass


class SquareInvalidError(PreconditionError):
    pass


class UnsupportedDimensionError(PreconditionError):
    pass


class TorsionPointError(HypothesisError):
    pass


class CompositionNonzeroError(SanityError):
    """d_out . d_in != 0: a differential is wrong."""


class IdempotentSanityError(SanityError):
    """The idempotent table is not complete/orthogonal as exact matrices."""


class OracleDisagreementError(SanityError):
    """Two independent computation paths produced different values."""


class WorkerDiedError(KhhError):
    """A pool worker process ended before answering its task."""
