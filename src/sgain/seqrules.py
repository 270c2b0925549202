"""Finite encodings of infinite coefficient sequences.

Everything indexed by the subsystem number i in {1, 2, 3, ...} is stored
either as an *eventually periodic* rule (explicit preamble, then a cycle
that repeats forever) or as a *closed form* rule (a callable together
with certified lower/upper bounds).  Eventual periodicity is what makes
suprema and infima over the whole index set exactly computable: they
reduce to a maximum or minimum over preamble plus one cycle.

Values are ordinary Python numbers.  When callers supply `fractions.Fraction`
coefficients (the scenario files are parsed that way), all derived
quantities stay exact rationals until a genuinely numerical step (power
iteration, eigensolves, time integration) converts them to floats.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping

from .errors import InvalidIndexError, ParameterError

Real = int | float | Fraction


def _check_index(i: int) -> None:
    try:
        i = operator.index(i)
    except TypeError:
        raise InvalidIndexError(
            f"subsystem index must be a positive integer, got {i!r}") from None
    if isinstance(i, bool) or i < 1:
        raise InvalidIndexError(f"subsystem index must be a positive integer, got {i!r}")


def as_number(x) -> Real:
    """Coerce scenario-file values (int/float/Fraction/str) to a number."""
    if isinstance(x, (int, float, Fraction)):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParameterError(f"not a number: {x!r}")


def as_object(x, what: str) -> Mapping:
    """A JSON object entry of a configuration ({} when absent or null)."""
    if x is not None and not isinstance(x, Mapping):
        raise ParameterError(f"{what} must be a JSON object, got {type(x).__name__}")
    return x or {}


def exact_div(a: Real, b: Real) -> Real:
    """Division that stays rational for int/Fraction operands."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    return Fraction(a) / Fraction(b)


@dataclass(frozen=True)
class _EventuallyPeriodic:
    """``preamble`` then ``cycle`` repeated forever.

    Index convention is 1-based throughout the package.
    """

    preamble: tuple
    cycle: tuple

    def __post_init__(self):
        if len(self.cycle) < 1:
            raise ParameterError("cycle must contain at least one entry")

    @property
    def preamble_len(self) -> int:
        return len(self.preamble)

    @property
    def period(self) -> int:
        return len(self.cycle)

    def at(self, i: int):
        _check_index(i)
        if i <= len(self.preamble):
            return self.preamble[i - 1]
        return self.cycle[(i - len(self.preamble) - 1) % len(self.cycle)]

    def realign(self, preamble_len: int, period: int):
        """Re-express with a longer preamble and a cycle length that is a
        multiple of the current one.  Entries are unchanged."""
        if preamble_len < self.preamble_len or period % self.period != 0:
            raise ParameterError("incompatible realignment")
        return replace(
            self, preamble=tuple(self.at(i) for i in range(1, preamble_len + 1)),
            cycle=tuple(self.at(i) for i in range(preamble_len + 1, preamble_len + period + 1)))


@dataclass(frozen=True)
class PeriodicSeq(_EventuallyPeriodic):
    """Eventually periodic sequence of numbers."""

    preamble: tuple[Real, ...]
    cycle: tuple[Real, ...]

    @staticmethod
    def constant(value: Real) -> "PeriodicSeq":
        return PeriodicSeq(preamble=(), cycle=(as_number(value),))

    def values(self) -> tuple[Real, ...]:
        """All distinct-position values (preamble plus one cycle)."""
        return self.preamble + self.cycle

    def min(self) -> Real:
        """Exact infimum over all i (attained on preamble + cycle)."""
        return min(self.values())

    def max(self) -> Real:
        """Exact supremum over all i."""
        return max(self.values())

    def map(self, fn: Callable[[Real], Real]) -> "PeriodicSeq":
        return PeriodicSeq(tuple(fn(v) for v in self.preamble),
                           tuple(fn(v) for v in self.cycle))

    def lower(self) -> Real:
        return self.min()

    def upper(self) -> Real:
        return self.max()


@dataclass(frozen=True)
class ClosedFormSeq:
    """Closed-form sequence: callable rule plus certified uniform bounds.

    The bounds are user-certified facts about the rule over all of
    {1, 2, ...}; nothing in this class re-derives them.  ``nondecreasing``
    enables exact periodization under a rate cap (see
    :func:`sgain.certificate.cap_decay_rates`).
    """

    fn: Callable[[int], Real]
    inf: Real
    sup: Real
    nondecreasing: bool = False
    label: str = ""

    def at(self, i: int) -> Real:
        _check_index(i)
        return self.fn(i)

    def lower(self) -> Real:
        return self.inf

    def upper(self) -> Real:
        return self.sup


Seq = PeriodicSeq | ClosedFormSeq


@dataclass(frozen=True)
class PeriodicRows(_EventuallyPeriodic):
    """Eventually periodic banded row structure.

    ``row(i)`` is a mapping from neighbor *offset* (j - i) to a nonnegative
    value; offsets are confined to [-bandwidth, bandwidth] \\ {0}.  Rows in
    the cycle must never reference an index below 1, which is validated at
    construction for the smallest index at which each cycle row occurs.
    """

    preamble: tuple[Mapping[int, Real], ...]
    cycle: tuple[Mapping[int, Real], ...]
    bandwidth: int

    def __post_init__(self):
        if self.bandwidth < 1:
            raise ParameterError("bandwidth must be >= 1")
        super().__post_init__()
        for pos, row in enumerate(self.preamble, start=1):
            self._check_row(row, pos)
        for r, row in enumerate(self.cycle):
            self._check_row(row, len(self.preamble) + 1 + r)

    def _check_row(self, row: Mapping[int, Real], first_index: int) -> None:
        for off in row:
            if off == 0 or abs(off) > self.bandwidth:
                raise ParameterError(f"offset {off} outside band ±{self.bandwidth}")
            if first_index + off < 1:
                raise ParameterError(
                    f"row at index {first_index} references index {first_index + off} < 1")

    @staticmethod
    def empty(bandwidth: int = 1) -> "PeriodicRows":
        return PeriodicRows(preamble=(), cycle=({},), bandwidth=bandwidth)

    row = _EventuallyPeriodic.at

    def column(self, j: int) -> dict[int, Real]:
        """All nonzero entries of column j, keyed by row index."""
        _check_index(j)
        out = {}
        for i in range(max(1, j - self.bandwidth), j + self.bandwidth + 1):
            v = self.row(i).get(j - i)
            if v:
                out[i] = v
        return out

    def column_sum(self, j: int) -> Real:
        return sum(self.column(j).values(), start=0)

    def sup_column_sum(self) -> Real:
        """Exact sup over all columns j of the column sum.

        Columns beyond preamble_len + bandwidth repeat with the cycle
        period, so the supremum is attained on a finite window.
        """
        horizon = self.preamble_len + self.bandwidth + self.period
        return max(self.column_sum(j) for j in range(1, horizon + 1))

    def scale_rows(self, factor: Callable[[int], Real]) -> "PeriodicRows":
        """Multiply row i by factor(i); factor must share the periodic
        structure (it is sampled at the first index of each stored row)."""
        pre = tuple({o: v * factor(pos + 1) for o, v in row.items()}
                    for pos, row in enumerate(self.preamble))
        cyc = tuple({o: v * factor(self.preamble_len + 1 + r) for o, v in row.items()}
                    for r, row in enumerate(self.cycle))
        return PeriodicRows(pre, cyc, self.bandwidth)
