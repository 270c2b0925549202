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

A table holds its values (ints, Fractions or floats), or int numerators over
one denominator ``den``, its *integer form*: the exact layer derives gains and
the gain operator from int and `Fraction` coefficients (the scenario files are
parsed that way) in that form, without a `Fraction` per entry.  Its values are
formed as Fractions once, on the first read, and a genuinely numerical step
(eigensolves, time integration) rounds each to float once.  Every input tree
is read by :func:`read`, against a table stated next to the code that uses it.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

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


def as_number(x, path: str = "") -> Real:
    """Coerce an input value (int/float/Fraction/str, not bool) to a finite number
    within the float range; an error names the entry at ``path`` when given."""
    where = f"'{path}': " if path else ""
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


def as_float(x, path: str) -> float:
    """A number (read by :func:`as_number`) rounded to float."""
    return float(as_number(x, path))


def as_flag(x, path: str) -> bool:
    """``true`` or ``false``."""
    if not isinstance(x, bool):
        raise ParameterError(f"'{path}': must be true or false, got {x!r}")
    return x


def as_integer(x, path: str) -> int:
    """An integral number (``3``, ``"3"``, ``3.0``; not ``2.5``) as an int."""
    v = as_number(x, path)
    if v != int(v):
        raise ParameterError(f"'{path}': must be an integer, got {float(v):g}")
    return int(v)


def as_text(x, path: str, choices=None) -> str:
    """A string, one of ``choices`` when given."""
    if not isinstance(x, str) or choices is not None and x not in choices:
        want = "a string" if choices is None else "one of " + ", ".join(choices)
        raise ParameterError(f"'{path}': must be {want}, got {x!r}")
    return x


def as_numbers(x, path: str, n: int | None = None, item: Callable = as_number) -> tuple:
    """A JSON array, of ``n`` entries when given, of numbers or what ``item`` reads."""
    if not isinstance(x, list | tuple) or n not in (None, len(x)):
        raise ParameterError(f"'{path}': must be a list{f' of {n}' if n else ''}, got {x!r}")
    return tuple([item(v, f"{path}.{k}") for k, v in enumerate(x)])


def as_matrix(x, path: str) -> tuple:
    """A JSON array of equally long arrays of numbers, as a tuple of tuples."""
    rows = as_numbers(x, path, item=as_numbers)
    if len({len(row) for row in rows}) > 1:
        raise ParameterError(f"'{path}': rows of unequal lengths")
    return rows


def load_json(f):
    """A JSON document from an open file, decimals as Fractions; ``NaN`` and
    ``Infinity`` are input errors."""
    def reject(token):
        raise ParameterError(f"non-finite number {token} in {f.name}")
    return json.load(f, parse_float=Fraction, parse_constant=reject)


def as_object(x, path: str) -> Mapping:
    """A JSON object entry ({} when absent or null)."""
    if x is not None and not isinstance(x, Mapping):
        where = f"'{path}': " if path else ""
        raise ParameterError(f"{where}must be a JSON object, got {type(x).__name__}")
    return x or {}


def subpath(path: str, key) -> str:
    """The dotted path of entry ``key`` of the entry at ``path``."""
    return f"{path}.{key}" if path else str(key)


# The default of an entry that must be given, and of one that is accepted and not read.
REQUIRED, IGNORED = object(), object()


def read(obj, table: Mapping, path: str = "") -> dict:
    """The entries of the JSON object at ``path`` by ``table``, ``{key: (reader,
    default)}``: ``reader(value, path)`` reads a non-null entry (None: as it is),
    and a null or absent one takes ``default``.  A missing ``REQUIRED`` entry, one
    the table does not name and a bad value are input errors named by their
    dotted path; an ``IGNORED`` entry is accepted and left out."""
    obj = as_object(obj, path)
    for key in obj:
        if key not in table:
            raise ParameterError(f"'{subpath(path, key)}': unknown entry")
    out = {}
    for key, (reader, default) in table.items():
        value = obj.get(key)
        if value is not None and default is not IGNORED:
            out[key] = value if reader is None else reader(value, subpath(path, key))
        elif default is REQUIRED:
            raise ParameterError(f"'{subpath(path, key)}': missing required entry")
        elif default is not IGNORED:
            out[key] = default
    return out


def read_kind(obj, kinds: Mapping[str, Mapping], default: str, path: str) -> tuple[str, dict]:
    """``(kind, entries)`` of a JSON object read by the table ``kinds[kind]`` of
    its ``kind`` entry, ``default`` when null or absent."""
    kind = as_object(obj, path).get("kind")
    kind = default if kind is None else as_text(kind, subpath(path, "kind"), kinds)
    return kind, read(obj, {"kind": (None, IGNORED), **kinds[kind]}, path)


def exact_div(a: Real, b: Real) -> Real:
    """Division that stays rational for int/Fraction operands."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    return Fraction(a) / Fraction(b)


def common_den(quotients) -> tuple[list[int], int]:
    """Quotients ``(p, q)`` of ints, q > 0, as int numerators over their least
    common denominator: the lcm of the q over its gcd with every numerator."""
    quotients = list(quotients)
    den = math.lcm(*(q for _, q in quotients))
    nums = [p * (den // q) for p, q in quotients]
    g = math.gcd(den, *nums)
    return [n // g for n in nums], den // g


def map_numbers(x, f):
    """``x`` with ``f`` applied to each of its numbers, through tuples and dicts."""
    if isinstance(x, dict):
        return {k: f(v) for k, v in x.items()}
    return tuple(map_numbers(v, f) for v in x) if isinstance(x, tuple) else f(x)


def _flat(entries) -> list:
    """The numbers of table entries that are numbers or dicts of numbers."""
    return [v for e in entries for v in (e.values() if isinstance(e, dict) else (e,))]


@dataclass(frozen=True)
class _EventuallyPeriodic:
    """``preamble`` then ``cycle`` repeated forever; in integer form with ``den``:
    each stored number (in an entry's tuples and dicts too) is an int numerator
    over den.  :meth:`entry` reads what is stored, :meth:`at` and :meth:`head`
    the values.  Index convention is 1-based throughout the package.
    """

    preamble: tuple
    cycle: tuple
    den: int | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if len(self.cycle) < 1:
            raise ParameterError("cycle must contain at least one entry")

    @property
    def preamble_len(self) -> int:
        return len(self.preamble)

    @property
    def period(self) -> int:
        return len(self.cycle)

    def entry(self, i: int):
        """The stored entry i."""
        _check_index(i)
        if i <= len(self.preamble):
            return self.preamble[i - 1]
        return self.cycle[(i - len(self.preamble) - 1) % len(self.cycle)]

    def entries(self, n: int) -> list:
        """Stored entries 1 to n: the preamble, then the cycle repeated."""
        reps = -(-max(0, n - self.preamble_len) // self.period)
        return (list(self.preamble) + list(self.cycle) * reps)[:n]

    def at(self, i: int):
        return (self if self.den is None else self.exact).entry(i)

    def head(self, n: int) -> list:
        """The values of entries 1 to n."""
        return (self if self.den is None else self.exact).entries(n)

    @cached_property
    def exact(self) -> "_EventuallyPeriodic":
        """The table in integer form with its values stored, as Fractions; formed once."""
        value = functools.partial(map_numbers, f=lambda n: Fraction(n, self.den))
        return replace(self, preamble=tuple(map(value, self.preamble)),
                       cycle=tuple(map(value, self.cycle)), den=None)

    def value_of(self, n):  # the value of a stored number
        return n if self.den is None else Fraction(n, self.den)

    def ratios(self, n: int) -> list[tuple[int, int]]:
        """Entries 1 to n of a table of numbers as quotients ``(p, q)``, floats read exactly."""
        return [v.as_integer_ratio() if self.den is None else (v, self.den)
                for v in self.entries(n)]

    @classmethod
    def of_quotients(cls, entries: list, pre: int, **kw):
        """The table of ``entries``, quotients ``(p, q)`` of ints (q > 0) or dicts of
        them, in integer form over the least common denominator; ``pre`` entries
        make the preamble."""
        nums, den = common_den(_flat(entries))
        it = iter(nums)
        out = [{k: next(it) for k in e} if isinstance(e, dict) else next(it) for e in entries]
        return cls(tuple(out[:pre]), tuple(out[pre:]), den=den, **kw)

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
        return tuple(self.head(self.preamble_len + self.period))

    def min(self) -> Real:
        """Exact infimum over all i (attained on preamble + cycle)."""
        return self.value_of(min(self.preamble + self.cycle))

    def max(self) -> Real:
        """Exact supremum over all i."""
        return self.value_of(max(self.preamble + self.cycle))

    def map(self, fn: Callable[[Real], Real]) -> "PeriodicSeq":
        return PeriodicSeq.tabulate(lambda i: fn(self.at(i)), self.preamble_len, self.period)

    lower, upper = min, max  # exact here; a ClosedFormSeq declares its own


_RULE = {"preamble": (as_numbers, ()), "cycle": (as_numbers, REQUIRED)}


def as_rule(x, path: str) -> PeriodicSeq:
    """A sequence rule: a number (a constant), a ``{"preamble", "cycle"}`` object of
    numbers, or a PeriodicSeq as it is."""
    if isinstance(x, PeriodicSeq):
        return x
    if not isinstance(x, Mapping):
        return PeriodicSeq((), (as_number(x, path),))
    rule = read(x, _RULE, path)
    if not rule["cycle"]:
        raise ParameterError(f"'{path}.cycle': must not be empty")
    return PeriodicSeq(rule["preamble"], rule["cycle"])


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
    Rows without a float entry have an :attr:`integer_form`: int rows over a
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
        for i, row in enumerate(self.entries(n + m), start=1):
            for off, v in row.items():
                if v and i + off <= n:
                    cols[i + off - 1][-off] = v
        return PeriodicRows(tuple(cols[:n - self.period]), tuple(cols[n - self.period:]), m,
                            den=self.den)

    @cached_property
    def integer_form(self) -> tuple["PeriodicRows", int | None]:
        """``(d * self, d)``, every entry of the first an int, with d the least
        common denominator (rows in integer form give their numerators); formed
        once.  ``(self, None)`` for rows with a float entry, which have no such
        form."""
        stored = self.preamble + self.cycle
        if self.den is None and any(isinstance(v, float) for v in _flat(stored)):
            return self, None
        t = self if self.den is not None else PeriodicRows.of_quotients(
            [map_numbers(row, lambda v: v.as_integer_ratio()) for row in stored],
            self.preamble_len, bandwidth=self.bandwidth)
        return replace(t, den=None), t.den

    def sup_column_sum(self) -> Real:
        """Exact sup over all columns j of the column sum, formed once."""
        return self._sup_column_sum

    @cached_property
    def _sup_column_sum(self) -> Real:
        t = self.transpose()
        return self.value_of(max(sum(row.values(), start=0) for row in t.preamble + t.cycle))

    def section(self, n: int) -> np.ndarray:
        """Dense leading n-by-n principal submatrix (float entries)."""
        out = np.zeros((n, n))
        for i, row in enumerate(self.entries(n)):
            for off, v in row.items():
                if 0 <= i + off < n:
                    out[i, i + off] = float(v) if self.den is None else v / self.den
        return out

    def symbol(self) -> list[list[Real]]:
        """Exact period symbol ``Phi(1)``: the ``period x period`` sum of the
        cycle's block diagonals, with offsets folded mod the period."""
        out = [[0] * self.period for _ in self.cycle]
        for r, row in enumerate(self.cycle):
            for off, v in row.items():
                out[r][(r + off) % self.period] += v
        return [[self.value_of(v) if v else v for v in row] for row in out]
