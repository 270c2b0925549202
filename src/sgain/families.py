"""Finite descriptions of countably infinite ODE networks: the exact layer.

Each family is one :class:`Family` subclass registered in :data:`FAMILIES`
(all with banded neighbor coupling):

* ``LinearChain`` — scalar subsystems
  ``dx_i/dt = -b_ii x_i + b_i(i-1) x_(i-1) + b_i(i+1) x_(i+1)``
  with ``b_10 = 0`` (there is no subsystem 0) and uniformly bounded
  coefficients.

* ``LureBanded`` — small dense blocks with a scalar sector nonlinearity
  ``dx_i/dt = A_i x_i + E_i phi_i(G_i x_i) + B_i u_i + D_i xbar_i``
  where ``xbar_i`` stacks the left/right neighbor states and ``phi_i``
  satisfies ``(phi(s) - r s)(phi(s) - l s) <= 0`` with ``l < r``.

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
cycle) once, in :attr:`Family.block_table`, and their float rounding once, in
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
from .seqrules import (ClosedFormSeq, PeriodicRows, PeriodicSeq, Real, _EventuallyPeriodic,
                       as_number, exact_div, joint, load_json, _check_index)


def _seq_from_json(obj) -> PeriodicSeq:
    if isinstance(obj, Mapping):
        return PeriodicSeq(tuple(as_number(v) for v in obj.get("preamble", [])),
                           tuple(as_number(v) for v in obj["cycle"]))
    return PeriodicSeq.constant(as_number(obj))


def _mat(x) -> np.ndarray:
    """A block entry as a float array, each of its numbers rounded once."""
    return np.array(x, dtype=float, ndmin=2)


def round_blocks(blocks: tuple) -> tuple:
    """Blocks ``(A_ii, {offset: D}, B_i)`` as float arrays, each number rounded once."""
    a, d, b = blocks
    return _mat(a), {off: _mat(x) for off, x in d.items()}, _mat(b)


class Family:
    """One subsystem family: its blocks, description reader and gain data.

    A subclass sets ``name`` (the ``family`` entry of a description) and
    ``bandwidth``, and defines :meth:`blocks` and :meth:`derive_gains`;
    one with coefficients also defines :attr:`structure` and
    :meth:`from_json`.  The derivations read a subsystem's dynamics off
    its blocks, and so does a truncation: neighbors and dimensions too.
    """

    name: ClassVar[str]
    bandwidth: ClassVar[int] = 1

    def blocks(self, i: int):
        """``(A_ii, {neighbor offset: D}, B_i)`` of subsystem i, its entries as
        the description holds them (numbers of a scalar family, float arrays
        of a Lur'e one), ``A_ii`` with any linear sector channel folded in."""
        raise NotImplementedError

    @property
    def structure(self) -> tuple[int, int] | None:
        """(preamble length, period) of the blocks, or None for a closed form."""
        return None

    @functools.cached_property
    def block_table(self) -> _EventuallyPeriodic:
        """The stored blocks ``blocks(i)``, i = 1..pre+per, as a preamble and a
        cycle, formed once per instance: ``block_table.at(i)`` is subsystem i's.
        A closed form has none."""
        return _EventuallyPeriodic.tabulate(self.blocks, *self.structure)

    @functools.cached_property
    def float_table(self) -> _EventuallyPeriodic:
        """:attr:`block_table` with each number rounded to float once."""
        t = self.block_table
        return _EventuallyPeriodic(tuple(map(round_blocks, t.preamble)),
                                   tuple(map(round_blocks, t.cycle)))

    def nonlinearity(self):
        """``(E row, G row, phi)`` of a nonlinear sector channel that can act,
        ``phi`` a vectorized callable, or None."""
        return None

    @classmethod
    def from_json(cls, coeff: Mapping) -> "Family":
        return cls()

    def derive_gains(self, derivation: Mapping) -> GainData:
        raise NotImplementedError

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

    def __post_init__(self):
        if self.diag.min() <= 0:
            raise ParameterError("diagonal coefficients b_ii must be positive")

    def blocks(self, i: int):  # (-b_ii, {-1: b_i(i-1), 1: b_i(i+1)} less zeros, B_i = 0)
        b_sub = 0 if i == 1 else self.sub.at(i)
        return -self.diag.at(i), {off: v for off, v in ((-1, b_sub), (1, self.sup.at(i))) if v}, 0

    @property
    def structure(self) -> tuple[int, int]:
        return joint(1, 1, self.diag, self.sub, self.sup)

    @classmethod
    def from_json(cls, coeff: Mapping) -> "LinearChain":
        return cls(diag=_seq_from_json(coeff["diag"]), sub=_seq_from_json(coeff["sub"]),
                   sup=_seq_from_json(coeff["sup"]))

    def derive_gains(self, derivation):
        return derive_gains_linear_chain(self, derivation.get("eps"), derivation.get("delta"))


_LURE_MATRICES = (("A", "a"), ("E", "e"), ("G", "g"), ("B", "b"),
                  ("D_left", "d_left"), ("D_right", "d_right"))


@dataclass(frozen=True)
class LureBanded(Family):
    """Banded network of identical-size blocks with sector nonlinearity.

    Matrices are stored as nested tuples so the description is hashable
    and exactly comparable; they are converted to float arrays on use.
    ``d_left``/``d_right`` are the per-neighbor coupling blocks; subsystem 1
    has only a right neighbor.
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

    def __post_init__(self):
        if not self.sector_l < self.sector_r:
            raise ParameterError("sector requires l < r")
        if self.phi not in ("midpoint-linear", "saturation", "zero"):
            raise ParameterError(f"unknown nonlinearity {self.phi!r}")
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

    def blocks(self, i: int):  # A + (l+r)/2 E G when a midpoint-linear channel can act
        _check_index(i)
        d = {off: _mat(m) for off, m in ((1, self.d_right), (-1, self.d_left))
             if i + off >= 1 and np.any(_mat(m))}
        a = _mat(self.a)
        if self.phi == "midpoint-linear" and np.any(self.e) and np.any(self.g):
            slope = 0.5 * (float(self.sector_l) + float(self.sector_r))
            a = a + slope * np.outer(_mat(self.e), _mat(self.g))
        return a, d, _mat(self.b)

    def saturate(self, s):
        """The saturation channel, vectorized: ``s`` clipped to between ``l s`` and ``r s``."""
        s = np.asarray(s, dtype=float)
        lo_s, hi_s = float(self.sector_l) * s, float(self.sector_r) * s
        return np.clip(s, np.minimum(lo_s, hi_s), np.maximum(lo_s, hi_s))

    def nonlinearity(self):
        e, g = _mat(self.e).ravel(), _mat(self.g).ravel()
        if self.phi != "saturation" or not (e.any() and g.any()):
            return None  # phi = 0, E phi = 0, or linear and folded into the blocks
        return e, g, self.saturate

    @property
    def structure(self) -> tuple[int, int]:
        return 1, 1

    @classmethod
    def from_json(cls, coeff: Mapping) -> "LureBanded":
        mats = {attr: tuple(tuple(float(as_number(x)) for x in r) for r in coeff[key])
                for key, attr in _LURE_MATRICES}
        return cls(**mats, sector_l=as_number(coeff["sector"][0]),
                   sector_r=as_number(coeff["sector"][1]),
                   phi=coeff.get("phi", cls.phi))

    def derive_gains(self, derivation):
        try:
            m, kappa, eps = derivation["M"], derivation["kappa"], derivation["eps"]
        except KeyError as exc:
            raise ParameterError(f"missing derivation parameter {exc}") from None
        return derive_gains_lure(self, m, kappa, eps, derivation.get("tau"))


# Traffic cell classes: neighbor offsets, exit multiplier (times e), and
# entry coefficient (times r).
_TRAFFIC_CLASSES: dict[str, tuple[tuple[int, ...], int, Fraction]] = {
    "S1": ((1,), 0, Fraction(0)),
    "S2": ((4,), 0, Fraction(1)),
    "S3": ((-4,), 0, Fraction(1, 2)),
    "S4": ((-1, 4), 0, Fraction(0)),
    "S5": ((-4, 1), 1, Fraction(0)),
    "S6": ((1, 4), 0, Fraction(0)),
    "S7": ((-4, -1), 0, Fraction(0)),
    "S8": ((-1, 4), 2, Fraction(0)),
    "S9": ((-4, 1), 0, Fraction(0)),
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
        """The outflow rates ``v_j / l_j``, each divided once per instance."""
        return PeriodicSeq.tabulate(lambda j: exact_div(self.v.at(j), self.l.at(j)),
                                    *joint(0, 1, self.v, self.l))

    def blocks(self, i: int):  # (-(v_i/l_i + e_i), {j - i: c v_j/l_j}, B_i) by the class of cell i
        offsets, e_mult, b_factor = _TRAFFIC_CLASSES[classify_traffic_cell(i)]
        flow = self.flows.at
        return (-(flow(i) + e_mult * self.e), {off: self.c * flow(i + off) for off in offsets},
                b_factor * self.r)

    @property
    def structure(self) -> tuple[int, int]:
        # A cell reads the flow of cells up to a bandwidth back, so past the
        # preamble those cells must lie past the preambles of v and l too.
        seq_pre, per = joint(0, 8, self.v, self.l)
        return (seq_pre + self.bandwidth if seq_pre else 3), per

    @classmethod
    def from_json(cls, coeff: Mapping) -> "Traffic":
        return cls(v=_seq_from_json(coeff["v"]), l=_seq_from_json(coeff["l"]),
                   c=as_number(coeff["c"]), e=as_number(coeff["e"]), r=as_number(coeff["r"]))

    def derive_gains(self, derivation):
        return derive_gains_traffic(self, derivation.get("eps"))

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

    def derive_gains(self, derivation):
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


def generator_from_dict(obj: Mapping) -> Family:
    """The family of a description; its exponents ``p``, ``q`` must be 2 when given."""
    try:
        name = obj["family"]
        if name not in FAMILIES:
            raise ParameterError(f"unknown family {name!r}")
        fam = FAMILIES[name].from_json(obj.get("coefficients", {}))
        p, q = as_number(obj.get("p", 2)), as_number(obj.get("q", 2))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParameterError(f"malformed network description: {exc}") from exc
    if p != 2 or q != 2:
        raise ParameterError("quadratic-form derivations provide gain data for p = q = 2; "
                             f"the generator declares p = {p}, q = {q}")
    return fam


def load_generator(path) -> Family:
    """Read a network description file (JSON, decimals parsed exactly)."""
    with open(path) as f:
        return generator_from_dict(load_json(f))
