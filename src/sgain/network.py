"""Finite descriptions of countably infinite ODE networks.

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

A :class:`NetworkGenerator` bundles a family with exponents (p, q) and can
materialize any prefix of the network as a :class:`TruncatedNetwork` whose
out-of-range couplings read a zero boundary state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .errors import NumericInputError, ParameterError, ShapeError
from .gains import (HALF_SQUARE, GainData, derive_gains_linear_chain,
                    derive_gains_lure, derive_gains_traffic,
                    traffic_small_gain_sufficient)
from .seqrules import (ClosedFormSeq, PeriodicRows, PeriodicSeq, Real,
                       as_number, exact_div, load_json, _check_index)

# --------------------------------------------------------------------------
# Families
# --------------------------------------------------------------------------


def _seq_to_json(s: PeriodicSeq):
    if s.preamble_len == 0 and s.period == 1:
        return _num_to_json(s.cycle[0])
    return {"preamble": [_num_to_json(v) for v in s.preamble],
            "cycle": [_num_to_json(v) for v in s.cycle]}


def _num_to_json(v: Real):
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else v.numerator
    return v


def _seq_from_json(obj) -> PeriodicSeq:
    if isinstance(obj, Mapping):
        return PeriodicSeq(tuple(as_number(v) for v in obj.get("preamble", [])),
                           tuple(as_number(v) for v in obj["cycle"]))
    return PeriodicSeq.constant(as_number(obj))


def _scalar(v: Real) -> np.ndarray:
    return np.array([[float(v)]])


class Family:
    """One subsystem family: its blocks, description codec and gain data.

    A subclass sets ``name`` (the ``family`` entry of a description) and
    ``bandwidth``, and defines :meth:`blocks` and :meth:`derive_gains`;
    one with coefficients also defines :meth:`to_json` and
    :meth:`from_json`.  Neighbors, dimensions and truncations follow from
    the blocks.
    """

    name: ClassVar[str]
    bandwidth: ClassVar[int] = 1

    def blocks(self, i: int):
        """``(A_ii, {neighbor offset: D}, B_i)`` of subsystem i as float arrays."""
        raise NotImplementedError

    @property
    def structure(self) -> tuple[int, int] | None:
        """(preamble length, period) of the blocks, or None for a closed form."""
        return None

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(i + off for off, d in self.blocks(i)[1].items() if np.any(d)))

    def state_dim(self, i: int) -> int:
        return self.blocks(i)[0].shape[0]

    def input_dim(self, i: int) -> int:
        b = self.blocks(i)[2]
        return b.shape[1] if np.any(b) else 0

    def nonlinearity(self):
        """``(E row, G row, phi)`` of a sector channel that can act, or None.

        ``phi`` is a vectorized callable, or the slope of a linear ``phi``,
        which a truncation folds into its diagonal blocks.
        """
        return None

    def to_json(self) -> dict:
        return {}

    @classmethod
    def from_json(cls, coeff: Mapping) -> "Family":
        return cls()

    def derive_gains(self, gen: NetworkGenerator, derivation: Mapping) -> GainData:
        raise NotImplementedError

    def report_notes(self, gen: NetworkGenerator, derivation: Mapping) -> dict:
        """Family-specific entries of a pipeline report's gain summary."""
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

    @staticmethod
    def uniform(b_diag: Real, b_off: Real) -> "LinearChain":
        off = PeriodicSeq.constant(b_off)
        return LinearChain(diag=PeriodicSeq.constant(b_diag), sub=off, sup=off)

    def coefficients(self, i: int):
        b_sub = 0 if i == 1 else self.sub.at(i)
        return self.diag.at(i), b_sub, self.sup.at(i)

    def blocks(self, i: int):
        b_diag, b_sub, b_sup = self.coefficients(i)
        d = {off: _scalar(v) for off, v in ((-1, b_sub), (1, b_sup)) if v}
        return _scalar(-b_diag), d, np.zeros((1, 0))

    @property
    def structure(self) -> tuple[int, int]:
        pre = max(1, self.diag.preamble_len, self.sub.preamble_len, self.sup.preamble_len)
        return pre, math.lcm(self.diag.period, self.sub.period, self.sup.period)

    def to_json(self) -> dict:
        return {"diag": _seq_to_json(self.diag), "sub": _seq_to_json(self.sub),
                "sup": _seq_to_json(self.sup)}

    @classmethod
    def from_json(cls, coeff: Mapping) -> "LinearChain":
        return cls(diag=_seq_from_json(coeff["diag"]), sub=_seq_from_json(coeff["sub"]),
                   sup=_seq_from_json(coeff["sup"]))

    def derive_gains(self, gen, derivation):
        return derive_gains_linear_chain(gen, derivation.get("eps"), derivation.get("delta"))


def _mat(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


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

    @staticmethod
    def platoon(k0: float, b0: float, coupling_scale: float,
                sector=(-1, 1), phi: str = "zero") -> "LureBanded":
        """Symmetric bidirectional vehicle-string error dynamics.

        Each block is a double integrator closed with position/velocity
        feedback ``A = [[0, 1], [-k0, -b0]]``; neighbor states enter
        through ``coupling_scale * [[0, 0], [k0, b0]]`` on each side, and
        the external input acts on the velocity channel.
        """
        if k0 <= 0 or b0 <= 0:
            raise ParameterError("k0 and b0 must be positive")
        d = tuple((tuple(float(coupling_scale) * x for x in row))
                  for row in ((0.0, 0.0), (float(k0), float(b0))))
        return LureBanded(
            a=((0.0, 1.0), (-float(k0), -float(b0))),
            e=((0.0,), (0.0,)),
            g=((0.0, 0.0),),
            b=((0.0,), (1.0,)),
            d_left=d, d_right=d,
            sector_l=as_number(sector[0]), sector_r=as_number(sector[1]),
            phi=phi,
        )

    @property
    def n(self) -> int:
        return len(self.a)

    def blocks(self, i: int):
        _check_index(i)
        d = {off: _mat(m) for off, m in ((1, self.d_right), (-1, self.d_left))
             if i + off >= 1 and np.any(_mat(m))}
        return _mat(self.a), d, _mat(self.b)

    def phi_eval(self, s):
        """Vectorized nonlinearity; satisfies the sector bound by design."""
        s = np.asarray(s, dtype=float)
        lo_s, hi_s = float(self.sector_l) * s, float(self.sector_r) * s
        if self.phi == "zero":
            return np.zeros_like(s)
        if self.phi == "midpoint-linear":
            return 0.5 * (lo_s + hi_s)
        return np.clip(s, np.minimum(lo_s, hi_s), np.maximum(lo_s, hi_s))

    def nonlinearity(self):
        e, g = _mat(self.e).ravel(), _mat(self.g).ravel()
        if self.phi == "zero" or not (e.any() and g.any()):
            return None  # the channel adds phi(0) = 0 or E phi = 0
        if self.phi == "midpoint-linear":
            return e, g, 0.5 * (float(self.sector_l) + float(self.sector_r))
        return e, g, self.phi_eval

    @property
    def structure(self) -> tuple[int, int]:
        return 1, 1

    def to_json(self) -> dict:
        out = {key: [[float(x) for x in r] for r in getattr(self, attr)]
               for key, attr in _LURE_MATRICES}
        return {**out, "sector": [_num_to_json(self.sector_l), _num_to_json(self.sector_r)],
                "phi": self.phi}

    @classmethod
    def from_json(cls, coeff: Mapping) -> "LureBanded":
        mats = {attr: tuple(tuple(float(as_number(x)) for x in r) for r in coeff[key])
                for key, attr in _LURE_MATRICES}
        return cls(**mats, sector_l=as_number(coeff["sector"][0]),
                   sector_r=as_number(coeff["sector"][1]),
                   phi=coeff.get("phi", "midpoint-linear"))

    def derive_gains(self, gen, derivation):
        try:
            m, kappa, eps = derivation["M"], derivation["kappa"], derivation["eps"]
        except KeyError as exc:
            raise ParameterError(f"missing derivation parameter {exc}") from None
        return derive_gains_lure(gen, m, kappa, eps, derivation.get("tau", 1.0))


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

    def flow(self, i: int) -> Real:
        """v_i / l_i, the cell's outflow rate."""
        return exact_div(self.v.at(i), self.l.at(i))

    def cell(self, i: int):
        """(class name, e_i, {offset: D weight}, B_i) for cell i."""
        name = classify_traffic_cell(i)
        offsets, e_mult, b_factor = _TRAFFIC_CLASSES[name]
        d = {off: self.c * self.flow(i + off) for off in offsets}
        return name, e_mult * self.e, d, b_factor * self.r

    def blocks(self, i: int):
        _, e_i, d, b_i = self.cell(i)
        return (_scalar(-(self.flow(i) + e_i)),
                {off: _scalar(w) for off, w in d.items()}, _scalar(b_i))

    @property
    def structure(self) -> tuple[int, int]:
        # A cell reads the flow of cells up to a bandwidth back, so past the
        # preamble those cells must lie past the preambles of v and l too.
        seq_pre = max(self.v.preamble_len, self.l.preamble_len)
        pre = seq_pre + self.bandwidth if seq_pre else 3
        return pre, math.lcm(8, self.v.period, self.l.period)

    def to_json(self) -> dict:
        return {"v": _seq_to_json(self.v), "l": _seq_to_json(self.l),
                "c": _num_to_json(self.c), "e": _num_to_json(self.e),
                "r": _num_to_json(self.r)}

    @classmethod
    def from_json(cls, coeff: Mapping) -> "Traffic":
        return cls(v=_seq_from_json(coeff["v"]), l=_seq_from_json(coeff["l"]),
                   c=as_number(coeff["c"]), e=as_number(coeff["e"]), r=as_number(coeff["r"]))

    def derive_gains(self, gen, derivation):
        return derive_gains_traffic(gen, derivation.get("eps"))

    def report_notes(self, gen, derivation):
        return {"traffic_sufficient_condition": traffic_small_gain_sufficient(
            gen, derivation.get("eps", Fraction(1, 10)))}


@dataclass(frozen=True)
class _DecoupledScalar(Family):
    """Decoupled scalars ``dx_i/dt = a_i x_i + b_i u_i``.

    A subclass defines ``coefficients(i) -> (a_i, b_i)`` and the gain
    rules ``rules = (lambda_i, gamma_iu)`` for V_i = x_i^2/2.
    """

    def blocks(self, i: int):
        _check_index(i)
        a_i, b_i = self.coefficients(i)
        return _scalar(a_i), {}, _scalar(b_i)

    def derive_gains(self, gen, derivation):
        lam, gamma_u = self.rules
        return GainData(lam=lam, gamma=PeriodicRows.empty(), gamma_u=gamma_u,
                        alpha_lo=PeriodicSeq.constant(Fraction(1, 2)),
                        alpha_hi=PeriodicSeq.constant(Fraction(1, 2)),
                        p=2, q=2, bandwidth=1, vform=HALF_SQUARE)


class CounterexampleSlow(_DecoupledScalar):
    """Decoupled scalars with decay rate 1/i vanishing along the network.

    With V_i = x_i^2/2 the unforced decay rate is exactly 2/i, and any
    Young split that keeps the declared input gain finite degrades the
    rate further, so no choice restores uniformity.  The recorded pair
    (lambda_i = 2/i, gamma_iu = i/2) documents both divergences; the
    assumption checker reports the decay-rate failure first.
    """

    name = "counterexample-slow"
    rules = (ClosedFormSeq(fn=lambda i: Fraction(2, i), inf=0, sup=2, label="2/i"),
             ClosedFormSeq(fn=lambda i: Fraction(i, 2), inf=Fraction(1, 2), sup=math.inf,
                           nondecreasing=True, label="i/2"))

    def coefficients(self, i: int):
        return -1 / i, 1


class CounterexampleGain(_DecoupledScalar):
    """Decoupled scalars with input gain i growing along the network."""

    name = "counterexample-gain"
    rules = (PeriodicSeq.constant(Fraction(3, 2)),  # 2 (1 - eps) at eps = 1/4
             ClosedFormSeq(fn=lambda i: 2 * Fraction(i) ** 2, inf=2, sup=math.inf,
                           nondecreasing=True, label="i^2/(2 eps), eps = 1/4"))

    def coefficients(self, i: int):
        return -1, i


FAMILIES: dict[str, type[Family]] = {
    f.name: f for f in (LinearChain, LureBanded, Traffic, CounterexampleSlow, CounterexampleGain)}


# --------------------------------------------------------------------------
# Generator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkGenerator:
    """Finite, machine-checkable description of the whole infinite network."""

    family: Family
    p: Real = 2
    q: Real = 2

    def __post_init__(self):
        if not (1 <= self.p < math.inf and 1 <= self.q < math.inf):
            raise ParameterError("exponents p, q must lie in [1, inf)")

    @property
    def bandwidth(self) -> int:
        return self.family.bandwidth

    @property
    def structure(self):
        """(preamble length, period), or None for closed-form families."""
        return self.family.structure

    @property
    def family_name(self) -> str:
        return self.family.name


# --------------------------------------------------------------------------
# Truncation
# --------------------------------------------------------------------------


class TruncatedNetwork:
    """First N subsystems with states beyond N held at zero.

    The right-hand side splits into a sparse linear part, a sparse input
    matrix, and (for a family with an active sector channel) a vectorized
    nonlinearity: ``f(x, u) = A x + B u + nl(x)``.  ``linear_matrix`` is
    assembled from the family's blocks, and ``drift_matrix`` is the ``A`` of
    ``f``: ``linear_matrix`` plus a linear sector channel ``E (l+r)/2 G`` on
    the diagonal blocks.  So ``nonlinearity`` is None exactly when the
    truncation is linear time-invariant.  :meth:`rhs` takes the applied
    input ``B u``, so a caller that holds it forms it once.

    Past the preamble the truncation is block-Toeplitz with the cycle as
    its block, so it is tiled from the stored preamble plus one cycle; a
    closed-form family stores all N of its blocks.
    """

    def __init__(self, gen: NetworkGenerator, n_subsystems: int):
        if n_subsystems < 1:
            raise ParameterError("truncation needs at least one subsystem")
        self.generator = gen
        self.n_subsystems = n = n_subsystems
        fam = gen.family
        pre, per = fam.structure or (n, 1)
        stored = [fam.blocks(i) for i in range(1, min(n, pre + per) + 1)]
        offsets = sorted({off for _, d, _ in stored for off in d})
        for off in offsets:
            if not 0 < abs(off) <= fam.bandwidth:
                i = next(i for i, (_, d, _) in enumerate(stored, start=1) if off in d)
                raise ParameterError(f"neighbor set of {i} exceeds bandwidth {fam.bandwidth}")
        idx = np.arange(n)  # subsystem idx + 1 repeats stored block pos[idx]
        pos = np.where(idx < pre, idx, pre + (idx - pre) % per)
        a = np.stack([s[0] for s in stored])[pos]
        b = np.stack([s[2] for s in stored])[pos]
        nb = a.shape[1]
        self.block_dims = np.full(n, nb)
        self.block_offsets = nb * np.arange(n + 1)
        self.dim = nb * n
        self.input_dims = np.where(b.any(axis=(1, 2)), b.shape[2], 0)
        self.input_offsets = np.concatenate(([0], np.cumsum(self.input_dims)))
        self.input_dim = int(self.input_offsets[-1])

        zero = np.zeros((nb, nb))
        parts = [(0, a)] + [(off, np.stack([d.get(off, zero) for _, d, _ in stored])[pos])
                            for off in offsets]
        rows, cols, vals = [], [], []
        for off, blk in parts:
            k, r, c = np.nonzero(blk)
            j = k + off
            keep = (j >= 0) & (j < n)
            rows.append(k[keep] * nb + r[keep])
            cols.append(j[keep] * nb + c[keep])
            vals.append(blk[k[keep], r[keep], c[keep]])
        self.linear_matrix = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, self.dim))
        k, r, c = np.nonzero(b)
        self.input_matrix = sp.csr_matrix((b[k, r, c], (k * nb + r, self.input_offsets[k] + c)),
                                          shape=(self.dim, max(self.input_dim, 1)))
        self.drift_matrix = self.linear_matrix
        self.nonlinearity = fam.nonlinearity()
        if self.nonlinearity is not None and not callable(self.nonlinearity[2]):
            e, g, slope = self.nonlinearity
            fold = sp.kron(sp.identity(n), slope * np.outer(e, g))
            self.drift_matrix = (self.linear_matrix + fold).tocsr()
            self.nonlinearity = None

    def rhs(self, x: np.ndarray, forcing: np.ndarray | None) -> np.ndarray:
        """``A x + forcing + nl(x)``, where ``forcing`` is the applied input ``B u``."""
        out = _matvec(self.drift_matrix, x, np.zeros(self.dim))
        if forcing is not None:
            out += forcing
        if self.nonlinearity is not None:
            e, g, phi = self.nonlinearity
            s = (x.reshape(self.n_subsystems, -1) * g).sum(axis=1)
            out += (e * phi(s)[:, None]).ravel()
        return out

    def block_norms(self, x: np.ndarray) -> np.ndarray:
        """Euclidean norm of every state block, along the last axis of ``x``.

        ``x`` holds one state or a prefix of whole blocks per row.
        """
        nb = int(self.block_dims[0])
        if nb == 1:
            return np.abs(x)
        blocks = x.reshape(*x.shape[:-1], -1, nb)
        return np.sqrt(np.einsum("...i,...i->...", blocks, blocks))


def _matvec(m: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add ``m @ x`` into ``out`` with scipy's compiled CSR kernel; returns ``out``.

    This is the kernel behind ``m @ x`` without its dispatch: from a zero
    ``out`` the result is the same bit for bit.
    """
    csr_matvec(m.shape[0], m.shape[1], m.indptr, m.indices, m.data, x, out)
    return out


def truncate(gen: NetworkGenerator, n_subsystems: int) -> TruncatedNetwork:
    """Materialize the first N subsystems; couplings past N read zero."""
    return TruncatedNetwork(gen, n_subsystems)


def evaluate_rhs(net: TruncatedNetwork, x: np.ndarray, u: np.ndarray,
                 t: float = 0.0) -> np.ndarray:
    """Stacked right-hand side of the truncated interconnection."""
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel() if u is not None else np.zeros(0)
    if x.shape[0] != net.dim:
        raise ShapeError(f"state has dimension {x.shape[0]}, network needs {net.dim}")
    if u.shape[0] != net.input_dim:
        raise ShapeError(f"input has dimension {u.shape[0]}, network needs {net.input_dim}")
    if not np.all(np.isfinite(x)) or (u.size and not np.all(np.isfinite(u))):
        raise NumericInputError("non-finite component in state or input")
    return net.rhs(x, net.input_matrix @ u if net.input_dim else None)


# --------------------------------------------------------------------------
# Network description files
# --------------------------------------------------------------------------


def generator_to_dict(gen: NetworkGenerator) -> dict:
    structure = gen.structure
    mode = ({"eventually_periodic": {"preamble": structure[0], "period": structure[1]}}
            if structure else {"closed_form": {}})
    return {"schema": "sgain/1", "family": gen.family_name, "mode": mode,
            "bandwidth": gen.bandwidth, "p": _num_to_json(gen.p),
            "q": _num_to_json(gen.q), "coefficients": gen.family.to_json()}


def generator_from_dict(obj: Mapping) -> NetworkGenerator:
    try:
        name = obj["family"]
        if name not in FAMILIES:
            raise ParameterError(f"unknown family {name!r}")
        fam = FAMILIES[name].from_json(obj.get("coefficients", {}))
        return NetworkGenerator(family=fam, p=as_number(obj.get("p", 2)),
                                q=as_number(obj.get("q", 2)))
    except (KeyError, TypeError, IndexError) as exc:
        raise ParameterError(f"malformed network description: {exc}") from exc


def load_generator(path) -> NetworkGenerator:
    """Read a network description file (JSON, decimals parsed exactly)."""
    with open(path) as f:
        return generator_from_dict(load_json(f))


def save_generator(gen: NetworkGenerator, path) -> None:
    with open(path, "w") as f:
        json.dump(generator_to_dict(gen), f, indent=2, sort_keys=True)
        f.write("\n")
