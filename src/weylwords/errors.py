"""Exception types shared across the package, and the two checks every
module makes the same way: integer arguments and budget refusals."""

from math import log10
from operator import index


class DomainError(ValueError):
    """An argument is outside the domain of the operation."""


class ParseError(DomainError):
    """Malformed textual input; carries the 1-based offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ResourceLimitError(RuntimeError):
    """A computation exceeded its declared budget.

    ``budget`` is the public name of the budget (a module constant such as
    ``MAX_REWRITES``, or a parameter such as ``cap``) and ``limit`` its
    value.  ``partial_count`` reports how far the computation got before
    bailing out (e.g. number of class members materialized so far), or the
    size that was asked for when the refusal comes before any work.  An
    error built elsewhere than :func:`_budget_error` leaves ``budget`` and
    ``limit`` at None.
    """

    budget = None
    limit = None

    def __init__(self, message, partial_count=None):
        super().__init__(message)
        self.partial_count = partial_count


def _as_int(n, name: str) -> int:
    """``n`` as an int, through ``operator.index``; else :class:`DomainError`."""
    try:
        return index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {type(n).__name__}") from None


def _shown(n: int) -> str:
    """``n`` in full below 10^15, else as a mantissa and a power of ten from
    its logarithm, so that no refusal is long, and ``str`` (which refuses
    past 4,300 digits) is never asked for a huge one."""
    if n < 10**15:
        return str(n)
    e = log10(n)
    return f"{10 ** (e % 1):.1f}e{int(e)}"


def _budget_error(
    operation: str, kind: str, name: str, limit: int, unit: str, count: int,
    progress: str = "reached",
) -> ResourceLimitError:
    """The refusal of every budget, in one shape:

        <operation> exceeds the <kind> budget (<name> = <limit> <unit>); <progress> <count>

    ``count`` is the progress so far (``progress`` "reached"), or the size
    asked for when the refusal comes before any work ("asked for", or
    "asked for at least" when only a lower bound is known).  It becomes
    ``partial_count``.  No operand is quoted, so the message stays short
    whatever the input.
    """
    error = ResourceLimitError(
        f"{operation} exceeds the {kind} budget ({name} = {_shown(limit)} {unit});"
        f" {progress} {_shown(count)}",
        partial_count=count,
    )
    error.budget, error.limit = name, limit
    return error
