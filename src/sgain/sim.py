"""Time integration of finite truncations and empirical validation.

Trajectories are the iterates of the classical fixed-step fourth-order
Runge-Kutta scheme.  Every input signal is separable,
``u(t) = level * unit(t) * shape(net)`` with ``|unit| <= 1``: the applied
input ``B shape`` is formed once per run and scaled by ``level * unit(t)``
at each stage time (no zero-order hold).

A truncation whose sector channel cannot act, or acts linearly
(``"midpoint-linear"``, folded into ``A`` by the truncation), is linear
time-invariant; it is stepped as ``x+ = R x + w`` with RK4's stability
polynomial ``R`` of ``h A``, built once per run, and ``w`` from three fixed
images of ``B shape``.  Only an active ``"saturation"`` channel takes the
RK4 stages over ``TruncatedNetwork.rhs``.  Both are the same iterates up to
rounding: a report is byte-identical from run to run, and
trajectory-derived floats move by about 1e-13 relative against the
stage-wise evaluation.

Steps fill blocks of rows, and each block's block-wise lp norms and
composite Lyapunov values (when a certificate is attached) are recorded
at once, with the instantaneous input norm, so that the dissipation
inequality and the exponential envelopes can be checked sample by sample
with a step-proportional tolerance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from .certificate import CompositeLyapunov, iss_trajectory_bound
from .errors import InsufficientDataError, NumericInputError, ParameterError, ShapeError
from .network import NetworkGenerator, TruncatedNetwork, _matvec, truncate

# --------------------------------------------------------------------------
# Input signals
# --------------------------------------------------------------------------


def _channel_subsystems(net: TruncatedNetwork) -> np.ndarray:
    return np.repeat(np.arange(1, net.n_subsystems + 1), net.input_dims)


@dataclass(frozen=True)
class InputSignal:
    """An input ``u(t) = level * unit(t) * shape(net)`` with ``|unit| <= 1``.

    A kind defines :meth:`shape`, and :meth:`unit` when it varies in time.
    ``level`` is the amplitude, unless the kind's shape carries it.
    """

    kind: ClassVar[str]

    @property
    def level(self) -> float:
        return float(self.amplitude)

    def unit(self, t: float) -> float:
        return 1.0

    def values(self, net: TruncatedNetwork, t: float) -> np.ndarray:
        return self.level * self.unit(t) * self.shape(net)

    def sup_norm_q(self, net: TruncatedNetwork, q: float) -> float:
        return abs(self.level) * lp_norm(self.shape(net), q)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class Zero(InputSignal):
    """No external forcing."""

    kind = "zero"
    level = 0.0

    def shape(self, net):
        return np.zeros(net.input_dim)


@dataclass(frozen=True)
class ConstantOnFirstK(InputSignal):
    """Constant amplitude on every channel of the first K subsystems."""

    kind = "constant-first-k"
    k: int
    amplitude: float

    def shape(self, net):
        return (_channel_subsystems(net) <= self.k).astype(float)


@dataclass(frozen=True)
class GeometricProfile(InputSignal):
    """Time-constant profile u_i = amplitude * ratio^i across channels."""

    kind = "geometric"
    amplitude: float
    ratio: float
    level = 1.0  # the profile carries the amplitude

    def __post_init__(self):
        if not 0 < self.ratio < 1:
            raise ParameterError("geometric ratio must lie in (0, 1)")

    def shape(self, net):
        return float(self.amplitude) * float(self.ratio) ** _channel_subsystems(net).astype(float)


@dataclass(frozen=True)
class SinusoidOnFirstK(ConstantOnFirstK):
    """In-phase sinusoids on the channels of the first K subsystems."""

    kind = "sinusoid-first-k"
    frequency: float

    def unit(self, t):
        return math.sin(2 * math.pi * self.frequency * t)


@dataclass(frozen=True)
class TrafficLights(InputSignal):
    """Square-wave green phases on the controlled entries.

    All controlled channels share the schedule: green (amplitude) for
    ``t_on``, red (zero) for ``t_off``, repeating.
    """

    kind = "traffic-lights"
    t_on: float
    t_off: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.t_on <= 0 or self.t_off < 0:
            raise ParameterError("green phase must be positive, red phase nonnegative")

    def unit(self, t):
        return 1.0 if t % (self.t_on + self.t_off) < self.t_on else 0.0

    def shape(self, net):
        return np.ones(net.input_dim)


SIGNALS: dict[str, type[InputSignal]] = {
    cls.kind: cls for cls in (Zero, ConstantOnFirstK, GeometricProfile, SinusoidOnFirstK,
                              TrafficLights)}


def signal_from_dict(obj: dict) -> InputSignal:
    kind = obj.get("kind", "zero")
    if kind not in SIGNALS:
        raise ParameterError(f"unknown input signal kind {kind!r}")
    cls = SIGNALS[kind]
    return cls(**{f.name: (int if f.name == "k" else float)(obj[f.name])
                  for f in fields(cls) if f.name in obj or f.default is MISSING})


# --------------------------------------------------------------------------
# Norms
# --------------------------------------------------------------------------


def lp_norm(x: np.ndarray, p: float, block_dims=None) -> float:
    """lp aggregation of per-block Euclidean norms (scalar blocks default)."""
    x = np.asarray(x, dtype=float).ravel()
    if block_dims is None:
        blocks = np.abs(x)
    else:
        dims = np.asarray(block_dims)
        if dims.sum() != x.size:
            raise ShapeError("block dimensions do not sum to the vector length")
        offs = np.concatenate(([0], np.cumsum(dims)))
        blocks = np.array([np.linalg.norm(x[a:b]) for a, b in zip(offs[:-1], offs[1:])])
    if math.isinf(p):
        return float(blocks.max()) if blocks.size else 0.0
    if p < 1:
        raise ParameterError("norm exponent must satisfy p >= 1")
    return float(_lp_rows(blocks, p))


def _lp_rows(blocks: np.ndarray, p: float) -> np.ndarray:
    """lp norm along the last axis of nonnegative block norms, for finite p."""
    return (blocks ** p).sum(axis=-1) ** (1.0 / p)


# --------------------------------------------------------------------------
# Initial states
# --------------------------------------------------------------------------


def initial_state(net: TruncatedNetwork, desc) -> np.ndarray:
    """Build x0 from a small descriptor: zero / unit / first-k / explicit."""
    if isinstance(desc, np.ndarray | list | tuple):
        x0 = np.asarray(desc, dtype=float).ravel()
        if x0.size != net.dim:
            raise ShapeError(f"x0 has dimension {x0.size}, network needs {net.dim}")
        return x0
    kind = desc.get("kind", "zero")
    x0 = np.zeros(net.dim)
    if kind == "zero":
        return x0
    if kind == "unit":
        i = int(desc["index"])
        if not 1 <= i <= net.n_subsystems:
            raise ParameterError(f"unit index {i} outside the truncation")
        x0[net.block_offsets[i - 1]] = float(desc.get("value", 1.0))
        return x0
    if kind == "first-k":
        k = int(desc["K"])
        if k < 0:
            raise ParameterError(f"first-k needs K >= 0, got {k}")
        k = min(k, net.n_subsystems)
        x0[: net.block_offsets[k]] = float(desc.get("value", 1.0))
        return x0
    raise ParameterError(f"unknown initial-state kind {kind!r}")


# --------------------------------------------------------------------------
# Integration
# --------------------------------------------------------------------------

# A step loop and its recorder work on blocks of rows of at most this many
# state floats (256 KiB), so the memory of a run does not grow with N.
_BLOCK_FLOATS = 2 ** 15


def _block_rows(dim: int) -> int:
    return max(1, _BLOCK_FLOATS // dim)


@dataclass
class TrajectoryRecord:
    """Sampled trajectory with norm, Lyapunov, and input-norm channels."""

    t: np.ndarray
    states: np.ndarray | None
    norm_p: np.ndarray
    v: np.ndarray | None
    u_norm: np.ndarray
    u_sup_norm: float
    step: float
    diverged: bool


def _stage_levels(signal: InputSignal, n_steps: int, h: float) -> np.ndarray:
    """``level * unit(s)`` at the stage times ``s = t, t + h/2, t + h`` of
    every step ``t = k h``, as three rows."""
    if type(signal).unit is InputSignal.unit:
        return np.full((3, n_steps), signal.level)
    t = np.arange(n_steps) * h
    return signal.level * np.array([[signal.unit(s) for s in stage.tolist()]
                                    for stage in (t, t + 0.5 * h, t + h)])


def _lti_stepper(net: TruncatedNetwork, h: float, forcing, levels: np.ndarray):
    """Steps of ``x+ = R x + w`` for a linear time-invariant truncation.

    ``R = I + M + M^2/2 + M^3/6 + M^4/24`` with ``M = h A`` is RK4's
    stability polynomial, and ``w = sum_s level unit(s) v_s`` over the stage
    times, where ``v_1 = h/6 (I + M + M^2/2 + M^3/4) f``,
    ``v_2 = h/6 (4 I + 2 M + M^2/2) f`` and ``v_4 = h/6 f`` for the applied
    input ``f = B shape``: the RK4 iterates, up to rounding.
    """
    m = (h * net.drift_matrix).tocsr()
    eye = sp.identity(net.dim, format="csr")
    r = (eye + m @ (eye + m @ (0.5 * eye + m @ (eye / 6.0 + m / 24.0)))).tocsr()
    w = np.zeros(net.dim)
    if forcing is not None:
        mf = m @ forcing
        m2f = m @ mf
        images = (h / 6.0) * np.array([forcing + mf + 0.5 * m2f + 0.25 * (m @ m2f),
                                       4.0 * forcing + 2.0 * mf + 0.5 * m2f, forcing])
        w = levels[0, 0] * images.sum(axis=0) if np.all(levels == levels[0, 0]) else None

    def advance(blk: np.ndarray, k: int) -> None:
        nxt = blk[1:]
        if w is not None:
            nxt[:] = w
        else:
            np.dot(levels[:, k:k + len(nxt)].T, images, out=nxt)
        for j in range(len(nxt)):
            _matvec(r, blk[j], blk[j + 1])

    return advance


def _rk4_stepper(net: TruncatedNetwork, h: float, forcing, levels: np.ndarray):
    """Classical RK4 stages over ``net.rhs``, for an active sector channel."""
    def applied(s: int, k: int):
        return None if forcing is None else levels[s, k] * forcing

    def advance(blk: np.ndarray, k0: int) -> None:
        for j in range(len(blk) - 1):
            k, x = k0 + j, blk[j]
            f1, f2, f4 = applied(0, k), applied(1, k), applied(2, k)
            k1 = net.rhs(x, f1)
            k2 = net.rhs(x + 0.5 * h * k1, f2)
            k3 = net.rhs(x + 0.5 * h * k2, f2)
            k4 = net.rhs(x + h * k3, f4)
            blk[j + 1] = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return advance


def integrate(net: TruncatedNetwork, x0, signal: InputSignal | None = None,
              horizon: float = 10.0, step: float = 1e-3,
              lyapunov: CompositeLyapunov | None = None,
              store_states: bool = True, blow_up: float = 1e12) -> TrajectoryRecord:
    """Fixed-step RK4 integration of the truncated interconnection.

    A linear time-invariant truncation (``net.nonlinearity`` is None) is
    stepped as ``x+ = R x + w``; one with an active sector channel by the
    RK4 stages.  Both fill blocks of rows, whose norms and V are recorded
    block by block.  Divergence (block-norm beyond ``blow_up``) flags the
    record and halts integration at that step; it is a reported outcome,
    not an error.
    """
    if step <= 0 or horizon < step:
        raise ParameterError("need step > 0 and horizon >= step")
    signal = signal or Zero()
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != net.dim:
        raise ShapeError(f"x0 has dimension {x.size}, network needs {net.dim}")
    if not np.all(np.isfinite(x)):
        raise NumericInputError("non-finite component in the initial state")

    p, q = float(net.generator.p), float(net.generator.q)
    bound = lyapunov.bind(net) if lyapunov is not None else None
    n_steps = int(round(horizon / step))
    h = step
    shape = signal.shape(net)
    forcing = net.input_matrix @ shape if net.input_dim and signal.level else None
    levels = _stage_levels(signal, n_steps, h)
    stepper = _lti_stepper if net.nonlinearity is None else _rk4_stepper
    advance = stepper(net, h, forcing, levels)

    ts = np.concatenate(([0.0], np.arange(n_steps) * h + h))
    norms = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1) if bound is not None else None
    u_norms = np.abs(np.concatenate((levels[0, :1], levels[2]))) * lp_norm(shape, q)
    rows = _block_rows(net.dim)
    states = np.empty((n_steps + 1, net.dim)) if store_states else None
    buf = states if store_states else np.empty((rows + 1, net.dim))
    buf[0] = x

    def record(k0: int, blk: np.ndarray) -> tuple[int, bool]:
        """Record the rows of ``blk`` as samples ``k0, k0 + 1, ...`` up to the
        first that diverged; returns the last sample kept and whether one did."""
        n = _lp_rows(net.block_norms(blk), p)
        norms[k0:k0 + len(n)] = n
        bad = np.flatnonzero(~np.isfinite(n) | (n > blow_up))
        kept = int(bad[0]) + 1 if bad.size else len(n)
        if vs is not None:
            vs[k0:k0 + kept] = bound.values(blk[:kept])
        return k0 + kept - 1, bool(bad.size)

    # Steps past a blow-up inside a block may overflow; they are discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, buf[:1])
        last, diverged = 0, False
        while last < n_steps and not diverged:
            m = min(rows, n_steps - last)
            blk = buf[last:last + m + 1] if store_states else buf[:m + 1]
            advance(blk, last)
            last, diverged = record(last + 1, blk[1:])
            if not store_states:
                buf[0] = blk[m]
    sl = slice(0, last + 1)
    return TrajectoryRecord(
        t=ts[sl], states=states[sl] if states is not None else None,
        norm_p=norms[sl], v=vs[sl] if vs is not None else None,
        u_norm=u_norms[sl], u_sup_norm=signal.sup_norm_q(net, q),
        step=h, diverged=diverged)


# --------------------------------------------------------------------------
# Checks along trajectories
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ViolationReport:
    name: str
    n_checked: int
    violations: tuple[tuple[float, float], ...]  # (time, margin)
    worst_margin: float
    tol_coefficient: float

    @classmethod
    def of(cls, name: str, t: np.ndarray, margins: np.ndarray,
           tol_coefficient: float) -> "ViolationReport":
        """The report of one margin per sample; a positive margin violates."""
        bad = np.nonzero(margins > 0)[0]
        return cls(name=name, n_checked=int(margins.size),
                   violations=tuple((float(t[i]), float(margins[i])) for i in bad),
                   worst_margin=float(margins.max()) if margins.size else -math.inf,
                   tol_coefficient=tol_coefficient)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "n_checked": self.n_checked,
                "n_violations": len(self.violations),
                "worst_margin": self.worst_margin,
                "tol_coefficient": self.tol_coefficient,
                "violations": [list(v) for v in self.violations[:32]]}


def verify_dissipation(traj: TrajectoryRecord, lyap: CompositeLyapunov,
                       c_tol: float = 20.0) -> ViolationReport:
    """Forward-difference check of the dissipation inequality.

    Each consecutive pair must satisfy
    ``(V(t+h) - V(t))/h <= -lambda_inf V(t) + mu_hi gamma_u_hi ||u||^q + tol``
    with the step-proportional tolerance ``tol = c_tol h (1 + V(t))``.
    """
    if traj.v is None or traj.v.size < 2:
        raise InsufficientDataError("trajectory lacks a Lyapunov channel or samples")
    h = traj.step
    lam_inf = float(lyap.lambda_inf)
    forcing = float(lyap.input_coefficient) * traj.u_sup_norm ** float(lyap.q)
    quotients = np.diff(traj.v) / h
    rhs = -lam_inf * traj.v[:-1] + forcing + c_tol * h * (1.0 + traj.v[:-1])
    return ViolationReport.of("dissipation", traj.t, quotients - rhs, c_tol)


def verify_envelope(traj: TrajectoryRecord, lyap: CompositeLyapunov,
                    eps: float | None = None, c_tol: float = 20.0) -> ViolationReport:
    """Check ``V(t) <= exp(-eps t) V(0) + chi(||u||)`` sample by sample."""
    if traj.v is None or traj.v.size < 1:
        raise InsufficientDataError("trajectory lacks a Lyapunov channel")
    if eps is None:
        eps = 0.5 * float(lyap.lambda_inf)
    bound = iss_trajectory_bound(lyap, eps)
    env = bound.envelope_v(traj.t, float(traj.v[0]), traj.u_sup_norm)
    tol = c_tol * traj.step * (1.0 + env)
    return ViolationReport.of("envelope", traj.t, traj.v - env - tol, c_tol)


@dataclass(frozen=True)
class DecayFit:
    rate: float
    prefactor: float
    n_points: int
    channel: str

    def to_dict(self) -> dict:
        return {"rate": self.rate, "prefactor": self.prefactor,
                "n_points": self.n_points, "channel": self.channel}


def fit_decay(traj: TrajectoryRecord, channel: str = "v",
              floor: float = 1e-10) -> DecayFit:
    """Least-squares exponential rate of V(t) or of the state norm.

    Fits log(value) against t over the samples above ``floor`` and
    returns the slope magnitude (so a pure exponential exp(-a t) gives
    rate a).
    """
    if channel == "v":
        if traj.v is None:
            raise InsufficientDataError("no Lyapunov channel on this trajectory")
        values = traj.v
    elif channel == "norm":
        values = traj.norm_p
    else:
        raise ParameterError(f"unknown channel {channel!r}")
    mask = values > floor
    if mask.sum() < 2 or np.ptp(traj.t[mask]) <= 0:
        raise InsufficientDataError("fewer than two samples above the fit floor")
    t, y = traj.t[mask], np.log(values[mask])
    slope, intercept = np.polyfit(t, y, 1)
    return DecayFit(rate=float(-slope), prefactor=float(np.exp(intercept)),
                    n_points=int(mask.sum()), channel=channel)


def truncation_convergence_probe(gen: NetworkGenerator, x0_desc, signal,
                                 horizon: float, step: float,
                                 n_list, first_k: int) -> list[dict]:
    """Inter-truncation deviation of the first K blocks.

    Integrates the same initial data (supported on the first K
    subsystems) at each truncation size and reports, for consecutive
    sizes, the maximum over time of the lp difference of the retained
    window.  No convergence claim is made; the numbers are the evidence.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ParameterError("truncation sizes must be strictly increasing")
    if n_list[0] < first_k + gen.bandwidth:
        raise ParameterError("smallest truncation must cover the window plus bandwidth")
    p = float(gen.p)
    runs = []
    for n in n_list:
        net = truncate(gen, n)
        traj = integrate(net, initial_state(net, x0_desc), signal, horizon, step)
        runs.append((n, net, traj.states[:, :net.block_offsets[first_k]].copy()))
    out = []
    for (n1, net1, s1), (n2, _, s2) in zip(runs, runs[1:]):
        rows = min(s1.shape[0], s2.shape[0])
        dev = _lp_rows(net1.block_norms(s1[:rows] - s2[:rows]), p).max()
        out.append({"n_small": n1, "n_large": n2, "max_deviation": float(dev)})
    return out


# --------------------------------------------------------------------------
# Export
# --------------------------------------------------------------------------


def export_csv(traj: TrajectoryRecord, path, include_states: bool = False) -> None:
    """Write ``t, norm_p, V, u_norm[, x_1..x_d]`` rows."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["t", "norm_p", "V", "u_norm"]
        if include_states and traj.states is not None:
            header += [f"x_{i}" for i in range(1, traj.states.shape[1] + 1)]
        w.writerow(header)
        for k in range(traj.t.size):
            row = [repr(float(traj.t[k])), repr(float(traj.norm_p[k])),
                   "" if traj.v is None else repr(float(traj.v[k])),
                   repr(float(traj.u_norm[k]))]
            if include_states and traj.states is not None:
                row += [repr(float(v)) for v in traj.states[k]]
            w.writerow(row)
