"""Finite encodings of infinite coefficient sequences.

Everything indexed by the subsystem number i in {1, 2, 3, ...} is stored
either as an *eventually periodic* rule (explicit preamble, then a cycle
that repeats forever) or as a *closed form* rule (a callable together
with certified lower/upper bounds).  Eventual periodicity is what makes
suprema and infima over the whole index set exactly computable: they
reduce to a maximum or minimum over preamble plus one cycle.  Banded
:class:`PeriodicRows` have eventually periodic columns too (the rows of
:meth:`PeriodicRows.transpose`), so they map a PeriodicSeq to a PeriodicSeq.
Tables are built one way: ``tabulate`` reads a rule at 1..pre+per, over
the structure that :func:`joint` gives several tables, and :func:`positions`
tiles a stored table out to N entries.

Values are ordinary Python numbers.  When callers supply `fractions.Fraction`
coefficients (the scenario files are parsed that way), all derived
quantities stay exact rationals until a genuinely numerical step
(eigensolves, time integration) converts them to floats.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

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


def as_number(x, what: str = "") -> Real:
    """Coerce scenario-file values (int/float/Fraction/str, not bool) to a finite
    number within the float range; an error names the entry ``what`` when given."""
    where = f"{what}: " if what else ""
    if isinstance(x, str):
        try:
            x = Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    if not isinstance(x, (int, float, Fraction)) or isinstance(x, bool):
        raise ParameterError(f"{where}not a number: {x!r}")
    try:
        if math.isfinite(x):
            return x
    except OverflowError:  # an exact decimal beyond the largest float
        raise ParameterError(f"{where}number too large for a float") from None
    raise ParameterError(f"{where}not a finite number: {x!r}")


def as_integer(x, what: str) -> int:
    """An integral number (``3``, ``"3"``, ``3.0``; not ``2.5``) as an int."""
    v = as_number(x, what)
    if v != int(v):
        raise ParameterError(f"{what} must be an integer, got {float(v):g}")
    return int(v)


def load_json(f):
    """A JSON document from an open file, decimals as Fractions; ``NaN`` and
    ``Infinity`` are input errors."""
    def reject(token):
        raise ParameterError(f"non-finite number {token} in {f.name}")
    return json.load(f, parse_float=Fraction, parse_constant=reject)


def as_object(x, what: str) -> Mapping:
    """A JSON object entry of a configuration ({} when absent or null)."""
    if x is not None and not isinstance(x, Mapping):
        raise ParameterError(f"{what} must be a JSON object, got {type(x).__name__}")
    return x or {}


def number_at(section: Mapping, key: str, default=None):
    """The number at ``key`` of a config section, or ``default`` when absent."""
    value = section.get(key)
    return default if value is None else as_number(value, repr(key))


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

    def head(self, n: int) -> list:
        """Entries 1 to n: the preamble, then the cycle repeated."""
        reps = -(-max(0, n - self.preamble_len) // self.period)
        return (list(self.preamble) + list(self.cycle) * reps)[:n]

    @classmethod
    def tabulate(cls, fn: Callable[[int], object], pre: int, per: int, **kw):
        """The entries ``fn(1), ..., fn(pre + per)``, read in that order, as a
        preamble of length ``pre`` and a cycle of length ``per``."""
        vals = [fn(i) for i in range(1, pre + per + 1)]
        return cls(preamble=tuple(vals[:pre]), cycle=tuple(vals[pre:]), **kw)


def joint(pre: int, per: int, *seqs: _EventuallyPeriodic) -> tuple[int, int]:
    """A structure that ``(pre, per)`` and every one of ``seqs`` repeat with:
    the largest preamble and the lcm of the periods."""
    return (max([pre, *(s.preamble_len for s in seqs)]),
            math.lcm(per, *(s.period for s in seqs)))


def positions(pre: int, per: int, n: int) -> np.ndarray:
    """The stored position (0-based) of entries 1..n of a table with
    preamble length ``pre`` and period ``per``."""
    idx = np.arange(n)
    return np.where(idx < pre, idx, pre + (idx - pre) % per)


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

    lower, upper = min, max  # exact here; a ClosedFormSeq declares its own


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
    Rows without a float entry have an :attr:`integer_form`: int rows times a
    common denominator d, so powers apply as int numerators over ``d^k``.
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
    def empty() -> "PeriodicRows":
        return PeriodicRows(preamble=(), cycle=({},), bandwidth=1)

    row = _EventuallyPeriodic.at

    def transpose(self) -> "PeriodicRows":
        """Rows of the transpose, formed once: columns past ``preamble_len +
        bandwidth`` repeat with the period.  A row lists the nonzero entries
        of its column in ascending source-row order."""
        return self._transposed

    @cached_property
    def _transposed(self) -> "PeriodicRows":
        m = self.bandwidth
        n = self.preamble_len + m + self.period
        cols = [{} for _ in range(n)]
        for i, row in enumerate(self.head(n + m), start=1):
            for off, v in row.items():
                if v and i + off <= n:
                    cols[i + off - 1][-off] = v
        return PeriodicRows(tuple(cols[:n - self.period]), tuple(cols[n - self.period:]), m)

    @cached_property
    def integer_form(self) -> tuple["PeriodicRows", int | None]:
        """``(d * self, d)`` with d the lcm of the entry denominators, every
        entry of the first an int; formed once.  ``(self, 1)`` when d = 1, and
        ``(self, None)`` for rows with a float entry, which have no such form."""
        entries = [v for row in self.preamble + self.cycle for v in row.values()]
        if any(isinstance(v, float) for v in entries):
            return self, None
        d = math.lcm(*(v.denominator for v in entries))
        if d == 1:
            return self, 1
        return PeriodicRows.tabulate(
            lambda i: {off: v.numerator * (d // v.denominator) for off, v in self.row(i).items()},
            self.preamble_len, self.period, bandwidth=self.bandwidth), d

    def sup_column_sum(self) -> Real:
        """Exact sup over all columns j of the column sum, formed once."""
        return self._sup_column_sum

    @cached_property
    def _sup_column_sum(self) -> Real:
        t = self.transpose()
        return max(sum(row.values(), start=0) for row in t.preamble + t.cycle)

    def section(self, n: int) -> np.ndarray:
        """Dense leading n-by-n principal submatrix (float entries)."""
        out = np.zeros((n, n))
        for i, row in enumerate(self.head(n)):
            for off, v in row.items():
                if 0 <= i + off < n:
                    out[i, i + off] = float(v)
        return out

    def symbol(self) -> list[list[Real]]:
        """Exact period symbol ``Phi(1)``: the ``period x period`` sum of the
        cycle's block diagonals, with offsets folded mod the period."""
        out = [[0] * self.period for _ in self.cycle]
        for r, row in enumerate(self.cycle):
            for off, v in row.items():
                out[r][(r + off) % self.period] += v
        return out
