"""Finite descriptions of countably infinite ODE networks: the exact layer.

Each family is one :class:`Family` subclass registered in :data:`FAMILIES`
(all with banded neighbor coupling):

* ``LinearChain`` — scalar subsystems
  ``dx_i/dt = -b_ii x_i + b_i(i-1) x_(i-1) + b_i(i+1) x_(i+1)``
  with ``b_10 = 0`` (there is no subsystem 0) and uniformly bounded
  coefficients.

* ``LureBanded`` — small dense blocks with a scalar sector channel
  ``dx_i/dt = A_i x_i + E_i phi_i(G_i x_i) + B_i u_i + D_i xbar_i``
  where ``xbar_i`` stacks the left/right neighbor states and ``phi_i``
  satisfies ``(phi(s) - r s)(phi(s) - l s) <= 0`` with ``l < r``.  The
  certificate holds for every such ``phi``; a simulated ``phi`` is linear,
  ``phi(s) = slope * s``, and folded into the diagonal blocks.

* ``Traffic`` — scalar road cells
  ``dx_i/dt = -(v_i/l_i + e_i) x_i + D_i xbar_i + B_i u_i``
  with nine structural cell classes S1..S9 (period 8 beyond the first
  three cells) describing which neighbors feed each cell, which cells
  have exits, and which have controlled entries.

* ``CounterexampleSlow`` / ``CounterexampleGain`` — decoupled scalar
  systems ``dx_i/dt = -(1/i) x_i + u_i`` and ``dx_i/dt = -x_i + i u_i``
  used as negative controls: the first has no uniform decay rate, the
  second no uniform input gain.

A family instance is the network description; its ``V_i`` are quadratic,
so the description reader accepts only the exponents p = q = 2.  An
eventually periodic instance forms its stored blocks (a preamble plus one
cycle) once, in :attr:`Family.block_table`, a scalar family's in integer form
(int numerators over one denominator), and their float rounding once, in
:attr:`Family.float_table`; the derivations and every truncation of the
instance read them there.  Nothing here imports scipy: the truncations of a
family live in :mod:`sgain.network`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Mapping

import numpy as np

from .errors import ParameterError, ShapeError
from .gains import (HALF_SQUARE, GainData, derive_gains_linear_chain,
                    derive_gains_lure, derive_gains_traffic,
                    traffic_small_gain_sufficient)
from .seqrules import (IGNORED, REQUIRED, ClosedFormSeq, PeriodicRows, PeriodicSeq, Real,
                       _EventuallyPeriodic, as_matrix, as_number, as_numbers, as_rule, as_text,
                       common_den, joint, load_json, map_numbers, read, subpath, _check_index)


def _mat(x) -> np.ndarray:
    """A block entry as a float array, each of its numbers rounded once."""
    return np.array(x, dtype=float, ndmin=2)


def round_blocks(blocks: tuple, den: int | None = None) -> tuple:
    """Blocks ``(A_ii, {offset: D}, B_i)`` as float arrays, each number (an int
    numerator over ``den`` when given) rounded once."""
    a, d, b = blocks if den is None else map_numbers(blocks, lambda n: n / den)
    return _mat(a), {off: _mat(x) for off, x in d.items()}, _mat(b)


class Family:
    """One subsystem family: its blocks, description reader and gain data.

    A subclass sets ``name`` (the ``family`` entry of a description) and
    ``bandwidth``, and defines :meth:`blocks` or :attr:`block_table`, and
    :meth:`derive`, which :meth:`derive_gains` calls with the entries of a
    ``derivation`` section read by :attr:`DERIVATION` (calling its function in
    :mod:`sgain.gains` by this module's name for it, so a wrapper put on that
    name, such as the benchmark's tracer, sees the call); one with coefficients
    also defines :attr:`structure` and :attr:`COEFFICIENTS`, the table of its
    description's ``coefficients``.  The derivations read a subsystem's
    dynamics off its blocks, and so does a truncation: neighbors and dimensions too.
    """

    name: ClassVar[str]
    bandwidth: ClassVar[int] = 1
    COEFFICIENTS: ClassVar[dict] = {}  # {key: (reader, default)}, see seqrules.read
    DERIVATION: ClassVar[dict] = {}

    def blocks(self, i: int):
        """``(A_ii, {neighbor offset: D}, B_i)`` of subsystem i, its entries
        exact numbers for a scalar family and float arrays for a Lur'e one,
        ``A_ii`` with any sector channel folded in; read off the block table."""
        return self.block_table.at(i)

    @property
    def structure(self) -> tuple[int, int] | None:
        """(preamble length, period) of the blocks, or None for a closed form."""
        return None

    @functools.cached_property
    def block_table(self) -> _EventuallyPeriodic:
        """The stored blocks of subsystems 1..pre+per, as a preamble and a cycle,
        formed once per instance: ``block_table.at(i)`` is subsystem i's.  A
        closed form has none."""
        return _EventuallyPeriodic.tabulate(self.blocks, *self.structure)

    @functools.cached_property
    def float_table(self) -> _EventuallyPeriodic:
        """:attr:`block_table` with each number rounded to float once."""
        t = self.block_table
        return _EventuallyPeriodic(*(tuple(round_blocks(b, t.den) for b in part)
                                     for part in (t.preamble, t.cycle)))

    @classmethod
    def from_json(cls, coeff: dict) -> "Family":
        """The instance of the ``coefficients`` entries read by :attr:`COEFFICIENTS`."""
        return cls(**coeff)

    def derive_gains(self, derivation: Mapping) -> GainData:
        """The gain data under the entries of a ``derivation`` section."""
        return self.derive(**read(derivation, self.DERIVATION, "derivation"))

    def report_notes(self, gains: GainData) -> dict:
        """Family-specific entries of a report's gain summary, read off the derived gains."""
        return {}


@dataclass(frozen=True)
class LinearChain(Family):
    """Tridiagonally coupled scalar subsystems."""

    name = "linear-chain"

    diag: PeriodicSeq
    sub: PeriodicSeq
    sup: PeriodicSeq
    COEFFICIENTS = dict.fromkeys(("diag", "sub", "sup"), (as_rule, REQUIRED))
    DERIVATION = dict.fromkeys(("eps", "delta"), (as_rule, None))

    def derive(self, **entries):
        return derive_gains_linear_chain(self, **entries)

    def __post_init__(self):
        if self.diag.min() <= 0:
            raise ParameterError("diagonal coefficients b_ii must be positive")

    @functools.cached_property
    def block_table(self):  # (-b_ii, {-1: b_i(i-1), 1: b_i(i+1)} less zeros, B_i = 0)
        pre, per = self.structure
        n = pre + per
        nums, den = common_den(self.diag.ratios(n) + self.sub.ratios(n) + self.sup.ratios(n))
        diag, sub, sup = nums[:n], [0] + nums[n + 1:2 * n], nums[2 * n:]  # b_10 = 0
        blocks = [(-a, {off: v for off, v in ((-1, s), (1, p)) if v}, 0)
                  for a, s, p in zip(diag, sub, sup)]
        return _EventuallyPeriodic(tuple(blocks[:pre]), tuple(blocks[pre:]), den=den)

    @property
    def structure(self) -> tuple[int, int]:
        return joint(1, 1, self.diag, self.sub, self.sup)


_LURE_MATRICES = (("A", "a"), ("E", "e"), ("G", "g"), ("B", "b"),
                  ("D_left", "d_left"), ("D_right", "d_right"))


@dataclass(frozen=True)
class LureBanded(Family):
    """Banded network of identical-size blocks with a sector channel.

    Matrices are stored as nested tuples so the description is hashable
    and exactly comparable; they are converted to float arrays on use.
    ``d_left``/``d_right`` are the per-neighbor coupling blocks; subsystem 1
    has only a right neighbor.  The derivation certifies every ``phi`` in
    the sector ``[l, r]``; ``phi`` names the linear one a truncation
    simulates, ``phi(s) = slope * s``: ``"zero"`` with slope 0,
    ``"midpoint-linear"`` with ``(l+r)/2`` and ``"saturation"`` with
    ``clip(1, l, r)`` (``s`` clipped to between ``l s`` and ``r s``).
    """

    name = "lure-banded"

    a: tuple
    e: tuple
    g: tuple
    b: tuple
    d_left: tuple
    d_right: tuple
    sector_l: Real
    sector_r: Real
    phi: str = "midpoint-linear"
    COEFFICIENTS = {**{key: (as_matrix, REQUIRED) for key, _ in _LURE_MATRICES},
                    "sector": (lambda x, path: as_numbers(x, path, 2), REQUIRED),
                    "phi": (as_text, phi)}  # the field's default
    DERIVATION = {"M": (as_matrix, REQUIRED), "kappa": (as_number, REQUIRED),
                  "eps": (as_number, REQUIRED), "tau": (as_number, None)}

    def derive(self, **entries):
        return derive_gains_lure(self, **entries)

    def __post_init__(self):
        if not self.sector_l < self.sector_r:
            raise ParameterError("sector requires l < r")
        if self.phi not in ("midpoint-linear", "saturation", "zero"):
            raise ParameterError(f"unknown phi {self.phi!r}")
        if self.phi == "zero" and not (self.sector_l <= 0 <= self.sector_r):
            raise ParameterError("phi = 0 lies in the sector only when l <= 0 <= r")
        n = self.n
        if _mat(self.b).shape[0] != n:
            raise ShapeError(f"B must have {n} rows")
        for name, m, shape in (("A", self.a, (n, n)), ("E", self.e, (n, 1)), ("G", self.g, (1, n)),
                               ("D_left", self.d_left, (n, n)), ("D_right", self.d_right, (n, n))):
            if _mat(m).shape != shape:
                raise ShapeError(f"{name} must have shape {shape}")

    @property
    def n(self) -> int:
        return len(self.a)

    def blocks(self, i: int):  # A + slope E G when the channel can act
        _check_index(i)
        d = {off: _mat(m) for off, m in ((1, self.d_right), (-1, self.d_left))
             if i + off >= 1 and np.any(_mat(m))}
        a = _mat(self.a)
        if self.phi != "zero" and np.any(self.e) and np.any(self.g):
            l, r = float(self.sector_l), float(self.sector_r)
            slope = 0.5 * (l + r) if self.phi == "midpoint-linear" else min(max(1.0, l), r)
            a = a + slope * np.outer(_mat(self.e), _mat(self.g))
        return a, d, _mat(self.b)

    @property
    def structure(self) -> tuple[int, int]:
        return 1, 1

    @classmethod
    def from_json(cls, coeff: dict) -> "LureBanded":
        mats = {attr: tuple(tuple(map(float, row)) for row in coeff[key])
                for key, attr in _LURE_MATRICES}
        l, r = coeff["sector"]
        return cls(**mats, sector_l=l, sector_r=r, phi=coeff["phi"])


# Traffic cell classes: neighbor offsets, exit multiplier (times e), and
# entry coefficient (times r / 2).
_TRAFFIC_CLASSES: dict[str, tuple[tuple[int, ...], int, int]] = {
    "S1": ((1,), 0, 0),
    "S2": ((4,), 0, 2),
    "S3": ((-4,), 0, 1),
    "S4": ((-1, 4), 0, 0),
    "S5": ((-4, 1), 1, 0),
    "S6": ((1, 4), 0, 0),
    "S7": ((-4, -1), 0, 0),
    "S8": ((-1, 4), 2, 0),
    "S9": ((-4, 1), 0, 0),
}

_TRAFFIC_RESIDUE = {4: "S2", 5: "S3", 6: "S4", 1: "S5",
                    2: "S6", 7: "S7", 0: "S8", 3: "S9"}


def classify_traffic_cell(i: int) -> str:
    """Unique structural class S1..S9 of road cell i."""
    _check_index(i)
    if i in (1, 3):
        return "S1"
    return _TRAFFIC_RESIDUE[i % 8]


@dataclass(frozen=True)
class Traffic(Family):
    """Road network cells with per-class neighbor structure."""

    name = "traffic"
    bandwidth = 4

    v: PeriodicSeq
    l: PeriodicSeq
    c: Real
    e: Real
    r: Real
    COEFFICIENTS = {"v": (as_rule, REQUIRED), "l": (as_rule, REQUIRED),
                    **dict.fromkeys("cer", (as_number, REQUIRED))}
    DERIVATION = {"eps": (as_rule, None)}

    def derive(self, **entries):
        return derive_gains_traffic(self, **entries)

    def __post_init__(self):
        if not 0 < self.c < Fraction(1, 2):
            raise ParameterError("traffic requires c in (0, 0.5)")
        if not 0 < self.e < 1:
            raise ParameterError("traffic requires e in (0, 1)")
        if self.r <= 0:
            raise ParameterError("traffic requires r > 0")
        if self.v.min() <= 0 or self.l.min() <= 0:
            raise ParameterError("speeds and cell lengths must be positive")

    @functools.cached_property
    def flows(self) -> PeriodicSeq:
        """The outflow rates ``v_j / l_j`` in integer form, formed once per instance."""
        pre, per = joint(0, 1, self.v, self.l)
        return PeriodicSeq.of_quotients([(p * s, q * r) for (p, q), (r, s) in zip(
            self.v.ratios(pre + per), self.l.ratios(pre + per))], pre)

    @functools.cached_property
    def block_table(self):  # (-(v_i/l_i + e_i), {j - i: c v_j/l_j}, B_i) by the class of cell i
        f = self.flows
        (c, e, r), q = common_den(x.as_integer_ratio() for x in (self.c, self.e, self.r))

        def block(i: int):  # over 2 q f.den
            offsets, e_mult, b_halves = _TRAFFIC_CLASSES[classify_traffic_cell(i)]
            return (-2 * (q * f.entry(i) + e_mult * e * f.den),
                    {off: 2 * c * f.entry(i + off) for off in offsets}, b_halves * r * f.den)
        return _EventuallyPeriodic.tabulate(block, *self.structure, den=2 * q * f.den)

    @property
    def structure(self) -> tuple[int, int]:
        # A cell reads the flow of cells up to a bandwidth back, so past the
        # preamble those cells must lie past the preambles of v and l too.
        seq_pre, per = joint(0, 8, self.v, self.l)
        return (seq_pre + self.bandwidth if seq_pre else 3), per

    def report_notes(self, gains):
        return {"traffic_sufficient_condition": traffic_small_gain_sufficient(
            self, gains.free_params["eps"])}


@dataclass(frozen=True)
class _DecoupledScalar(Family):
    """Decoupled scalars ``dx_i/dt = a_i x_i + b_i u_i``.

    A subclass defines ``coefficients(i) -> (a_i, b_i)`` and the gain
    rules ``rules = (lambda_i, gamma_iu)`` for V_i = x_i^2/2 (``HALF_SQUARE``).
    """

    def blocks(self, i: int):
        _check_index(i)
        a_i, b_i = self.coefficients(i)
        return a_i, {}, b_i

    def derive(self):
        lam, gamma_u = self.rules
        return GainData(lam=lam, gamma=PeriodicRows.empty(), gamma_u=gamma_u, vform=HALF_SQUARE)


class CounterexampleSlow(_DecoupledScalar):
    """Decoupled scalars with decay rate 1/i vanishing along the network.

    With V_i = x_i^2/2 the unforced decay rate is exactly 2/i, and any
    Young split that keeps the declared input gain finite degrades the
    rate further, so no choice restores uniformity.  The recorded pair
    (lambda_i = 2/i, gamma_iu = i/2) documents both divergences; the
    assumption checker reports the decay-rate failure first.
    """

    name = "counterexample-slow"
    rules = (ClosedFormSeq(fn=lambda i: Fraction(2, i), inf=0, sup=2),
             ClosedFormSeq(fn=lambda i: Fraction(i, 2), inf=Fraction(1, 2), sup=math.inf,
                           nondecreasing=True))

    def coefficients(self, i: int):
        return Fraction(-1, i), 1


class CounterexampleGain(_DecoupledScalar):
    """Decoupled scalars with input gain i growing along the network."""

    name = "counterexample-gain"
    rules = (PeriodicSeq.constant(Fraction(3, 2)),  # 2 (1 - eps) at eps = 1/4
             ClosedFormSeq(fn=lambda i: 2 * Fraction(i) ** 2, inf=2, sup=math.inf,
                           nondecreasing=True))  # i^2/(2 eps), eps = 1/4

    def coefficients(self, i: int):
        return -1, i


FAMILIES: dict[str, type[Family]] = {
    f.name: f for f in (LinearChain, LureBanded, Traffic, CounterexampleSlow, CounterexampleGain)}


# --------------------------------------------------------------------------
# Description files
# --------------------------------------------------------------------------


# A description; ``schema``, ``mode`` and ``bandwidth`` are informational.
_DESCRIPTION = {"family": (functools.partial(as_text, choices=FAMILIES), REQUIRED),
                "coefficients": (None, {}),
                "p": (as_number, 2), "q": (as_number, 2),
                **dict.fromkeys(("schema", "mode", "bandwidth"), (None, IGNORED))}


def generator_from_dict(obj: Mapping, path: str = "") -> Family:
    """The family of a description at ``path``; its exponents ``p``, ``q`` must be 2."""
    d = read(obj, _DESCRIPTION, path)
    cls = FAMILIES[d["family"]]
    fam = cls.from_json(read(d["coefficients"], cls.COEFFICIENTS, subpath(path, "coefficients")))
    if (d["p"], d["q"]) != (2, 2):
        raise ParameterError("quadratic-form derivations provide gain data for p = q = 2; "
                             f"the generator declares p = {d['p']}, q = {d['q']}")
    return fam


def load_generator(path) -> Family:
    """Read a network description file (JSON, decimals parsed exactly)."""
    with open(path) as f:
        return generator_from_dict(load_json(f))
