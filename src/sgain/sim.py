"""Simulation of finite truncations and empirical validation: the numeric layer.

With :mod:`sgain.network`, the only module that imports scipy.  It holds V
on a truncation, the integrator, the checks along trajectories, and the
pipeline stages 3-4 that ``run_pipeline`` and the CLI share.

Trajectories are the iterates of the classical fixed-step fourth-order
Runge-Kutta scheme.  Every input signal is separable,
``u(t) = level * unit(t) * shape(net)`` with ``|unit| <= 1``: the applied
input ``B shape`` is formed once per run and scaled by ``level * unit(t)``
at each stage time (no zero-order hold).

Every truncation is linear time-invariant (a family folds its sector channel
into ``A``), and is stepped as ``x+ = R x + w`` with RK4's stability
polynomial ``R`` of ``h A`` (``TruncatedNetwork.propagator``: built once per
truncation and step, from one period, and shared by the runs on it) and
``w`` from three fixed images of ``B shape``.  These are the RK4 iterates up
to rounding: a report is byte-identical from run to run, and
trajectory-derived floats move by about 1e-13 relative against the
stage-wise evaluation over ``TruncatedNetwork.rhs``.

Steps fill blocks of rows.  The row a block starts from is flushed: its
entries below ``2^-500`` times its largest magnitude, whose squares lie past
the last bit of the row's sum of squares, become zero (as do those of ``B
shape``, once per run), so a decaying far field is not stepped in slow
subnormal floats.  A linear block then steps only its support window: if the
start row is zero from entry ``s`` on, ``w`` from ``sw`` on and ``R`` has
lower bandwidth ``lower``, ``m`` steps leave every entry from ``max(s, sw) +
m lower`` on at zero.  A window that spans every row is stepped ``k`` rows
per kernel call, through a chain of ``k`` copies of ``R`` of at most
``_BLOCK_FLOATS`` entries, laid per run (``R`` itself when ``k`` is 1); a
narrower one a row per call.  Norms and V are per-row einsum sums over the
window.  Only the stored states show the flush, and the recorded floats
depend on neither the block size nor the flush.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import ClassVar, Mapping

import numpy as np

from .certificate import CompositeLyapunov
from .errors import (InsufficientDataError, NumericInputError, ParameterError, ResourceError,
                     ShapeError)
from .families import Family
from .network import TruncatedNetwork, _chained_steps, truncate
from .scenarios import SIM
from .seqrules import (REQUIRED, as_float, as_integer, as_number, as_numbers, positions, read,
                       read_kind)

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


# Each kind's entries are its fields: an int or float, required unless it has a default.
_SIGNAL_ENTRIES = {kind: {f.name: (as_integer if f.type == "int" else as_float,
                                   REQUIRED if f.default is MISSING else f.default)
                          for f in fields(cls)} for kind, cls in SIGNALS.items()}


def signal_from_dict(obj: Mapping, path: str = "input") -> InputSignal:
    """The input signal of a JSON object at ``path`` (null: the zero input)."""
    kind, entries = read_kind(obj, _SIGNAL_ENTRIES, "zero", path)
    return SIGNALS[kind](**entries)


# --------------------------------------------------------------------------
# Initial states
# --------------------------------------------------------------------------


_X0_ENTRIES = {"zero": {}, "unit": {"index": (as_integer, REQUIRED), "value": (as_float, 1.0)},
               "first-k": {"K": (as_integer, REQUIRED), "value": (as_float, 1.0)}}


def initial_state(net: TruncatedNetwork, desc, path: str = "x0") -> np.ndarray:
    """x0 from a descriptor object at ``path`` (zero / unit / first-k; None is the
    zero state) or a list of numbers read by as_number."""
    if isinstance(desc, list | tuple):
        desc = [float(as_number(v, path)) for v in np.asarray(desc, dtype=object).ravel()]
    if isinstance(desc, np.ndarray | list):
        x0 = np.asarray(desc, dtype=float).ravel()
        if x0.size != net.dim:
            raise ShapeError(f"x0 has dimension {x0.size}, network needs {net.dim}")
        return x0
    if desc is not None and not isinstance(desc, Mapping):
        raise ParameterError(f"'{path}': must be an object or a list, got {desc!r}")
    kind, d = read_kind(desc, _X0_ENTRIES, "zero", path)
    x0 = np.zeros(net.dim)
    if kind == "unit":
        if not 1 <= d["index"] <= net.n_subsystems:
            raise ParameterError(f"'{path}.index': {d['index']} outside the truncation")
        x0[net.block_offsets[d["index"] - 1]] = d["value"]
    elif kind == "first-k":
        if d["K"] < 0:
            raise ParameterError(f"'{path}.K': must be >= 0, got {d['K']}")
        x0[: net.block_offsets[min(d["K"], net.n_subsystems)]] = d["value"]
    return x0


# --------------------------------------------------------------------------
# Integration
# --------------------------------------------------------------------------

# A step loop and its recorder work on blocks of rows of at most this many
# state floats (256 KiB), so the memory of a run does not grow with N; a
# linear block's chained propagator holds at most this many entries of R.
_BLOCK_FLOATS = 2 ** 15
# Entries below this fraction of their row's largest magnitude are zeroed before
# they are stepped, which bounds a linear block's window (see the module docstring).
_FLUSH = 2.0 ** -500
# A run records at least seven floats a step: more steps need over 100 GiB.
_STEP_BUDGET = 2 ** 31
# Stored states hold (T/h + 1) x keep floats: more than this (2 GiB) is refused.
_STATE_BUDGET = 2 ** 28
# Recorded windows are whole multiples of this many subsystems: einsum adds a
# row in passes of 16 or 32 doubles, so each entry takes the same pass.
_RECORD_GRAIN = 64
# A state norm beyond this flags the run as diverged and ends it.
_BLOW_UP = 1e12


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of ``x``: the one norm of states and inputs."""
    return np.sqrt((x * x).sum(axis=-1))


def _flush(x: np.ndarray) -> int:
    """Zero, in place, the entries of ``x`` below ``_FLUSH`` times its largest;
    return one past the last entry left nonzero (NaN and ±inf count)."""
    a = np.abs(x)
    floor = _FLUSH * a.max()
    zero = a < floor if floor > 0 else a == 0  # zero once flushed: a 0 or NaN floor flushes none
    if floor > 0:
        x[zero] = 0.0
    last = int(zero[::-1].argmin())  # the last entry left nonzero, from the end
    return 0 if zero[-1 - last] else len(x) - last


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


def _support(x: np.ndarray) -> int:
    """One past the last nonzero entry of ``x``."""
    return int(np.max(np.flatnonzero(x), initial=-1)) + 1


def _lti_stepper(net: TruncatedNetwork, h: float, forcing, levels: np.ndarray):
    """Steps of ``x+ = R x + w`` for a linear time-invariant truncation.

    ``R = I + M + M^2/2 + M^3/6 + M^4/24`` with ``M = h A`` is RK4's
    stability polynomial (``net.propagator(h)``), and ``w = sum_s level
    unit(s) v_s`` over the stage times, where ``v_1 = h/6 (I + M + M^2/2 +
    M^3/4) f``, ``v_2 = h/6 (4 I + 2 M + M^2/2) f`` and ``v_4 = h/6 f`` for the
    applied input ``f = B shape``: the RK4 iterates, up to rounding.
    """
    *r, lower = net.propagator(h)
    steps = _chained_steps(*r, max(1, _BLOCK_FLOATS // max(net.dim, len(r[2]))))
    w, sw = np.zeros(net.dim), 0
    if forcing is not None:
        m = h * net.drift_matrix
        mf = m @ forcing
        m2f = m @ mf
        images = (h / 6.0) * np.array([forcing + mf + 0.5 * m2f + 0.25 * (m @ m2f),
                                       4.0 * forcing + 2.0 * mf + 0.5 * m2f, forcing])
        sw = _support(images.any(axis=0))
        w = levels[0, 0] * images.sum(axis=0) if np.all(levels == levels[0, 0]) else None

    def advance(blk: np.ndarray, k: int, s: int) -> int:
        nxt, n = blk[1:], len(blk) - 1
        win = min(net.dim, max(s, sw) + n * lower)
        if w is not None:
            nxt[:, :win] = w[:win]
        else:
            np.dot(levels[:, k:k + n].T, images, out=nxt)
        nxt[:, win:] = 0.0  # +0, as full stepping leaves it through R's positive diagonal
        steps(blk.ravel(), n, win)
        return win

    return advance


class BoundLyapunov:
    """V restricted to one truncation: ``sum_i mu_i x_i^T P x_i``."""

    def __init__(self, lyap: CompositeLyapunov, net: TruncatedNetwork):
        self.net = net
        mu = lyap.cert.mu
        pos = positions(mu.preamble_len, mu.period, net.n_subsystems)  # mu_i at pos[i - 1]
        self.weights = np.array([float(v) for v in mu.values()])[pos]  # mu_i, i = 1..N
        p = lyap.gains.vform.matrix()
        self._squares = np.kron(self.weights, np.diag(p))  # mu_i P_aa
        self._cross = [(a, b, 2.0 * p[a, b] * self.weights)  # 2 P_ab mu_i, a < b
                       for a, b in zip(*np.triu_indices(len(p), 1)) if p[a, b]]

    def leading(self, x: np.ndarray, sq: np.ndarray) -> np.ndarray:
        """V of rows zero past the columns of ``x`` (whole blocks), given ``sq = x * x``."""
        d, cols = self.net.block_dim, x.shape[1]
        v = np.einsum("ij,j->i", sq, self._squares[:cols])
        for a, b, w in self._cross:
            v += np.einsum("ij,j->i", x[:, a::d] * x[:, b::d], w[:cols // d])
        return v


def integrate(net: TruncatedNetwork, x0, signal: InputSignal | None = None,
              horizon: float = 10.0, step: float = 1e-3,
              lyapunov: CompositeLyapunov | None = None,
              keep: int = 0) -> TrajectoryRecord:
    """Fixed-step RK4 integration of the truncated interconnection.

    The truncation is stepped as ``x+ = R x + w`` on its support window, in
    one rolling block of rows, whose norms and V are recorded and whose leading
    ``keep`` state columns are stored.  Divergence (norm beyond ``_BLOW_UP``)
    flags the record and halts integration at that step; it is a reported
    outcome, not an error.
    """
    if step <= 0 or horizon < step:
        raise ParameterError("need step > 0 and horizon >= step")
    if not horizon / step < _STEP_BUDGET:
        raise ResourceError(f"T/h = {horizon / step:.3g} steps, over the budget of "
                            f"{_STEP_BUDGET} steps")
    n_steps = int(round(horizon / step))
    if type(keep) is bool or not (isinstance(keep, int | np.integer) and 0 <= keep <= net.dim):
        raise ParameterError(f"keep must be a column count in [0, {net.dim}], got {keep!r}")
    if (n_steps + 1) * keep > _STATE_BUDGET:
        raise ResourceError(f"{n_steps + 1} x {keep} stored floats, over the budget of "
                            f"{_STATE_BUDGET}")
    signal = signal or Zero()
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != net.dim:
        raise ShapeError(f"x0 has dimension {x.size}, network needs {net.dim}")
    if not np.all(np.isfinite(x)):
        raise NumericInputError("non-finite component in the initial state")

    bound = BoundLyapunov(lyapunov, net) if lyapunov is not None else None
    shape = signal.shape(net)
    forcing = net.input_matrix @ shape if net.input_dim and signal.level else None
    if forcing is not None:
        _flush(forcing)
    levels = _stage_levels(signal, n_steps, step)
    advance = _lti_stepper(net, step, forcing, levels)

    ts = np.concatenate(([0.0], np.arange(n_steps) * step + step))
    norms = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1) if bound is not None else None
    shape_norm = _norm(shape)  # the input norm at waveform 1
    u_norms = np.abs(np.concatenate((levels[0, :1], levels[2]))) * shape_norm
    rows = max(1, _BLOCK_FLOATS // net.dim)
    states = np.empty((n_steps + 1, keep))
    buf = np.empty((rows + 1, net.dim))
    buf[0] = x

    grain = _RECORD_GRAIN * net.block_dim

    def record(k0: int, blk: np.ndarray, win: int) -> tuple[int, bool]:
        """Record rows ``blk``, zero from column ``win`` on, as samples ``k0, ...`` up to
        the first that diverged; returns the last sample kept and whether one did."""
        x = blk[:, :min(net.dim, -(-win // grain) * grain)]
        sq = x * x
        n = np.sqrt(np.einsum("ij->i", sq))
        norms[k0:k0 + len(n)] = n
        bad = np.flatnonzero(~np.isfinite(n) | (n > _BLOW_UP))
        kept = int(bad[0]) + 1 if bad.size else len(n)
        if vs is not None:
            vs[k0:k0 + kept] = bound.leading(x[:kept], sq[:kept])
        return k0 + kept - 1, bool(bad.size)

    # Steps past a blow-up inside a block may overflow; they are discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, buf[:1], net.dim)
        last, diverged = 0, False
        while last < n_steps and not diverged:
            m = min(rows, n_steps - last)
            blk = buf[:m + 1]
            win = advance(blk, last, _flush(blk[0]))
            states[last:last + m + 1] = blk[:, :keep]  # a start row as flushed, the last not
            last, diverged = record(last + 1, blk[1:], win)
            buf[0] = blk[m]
    sl = slice(0, last + 1)
    return TrajectoryRecord(
        t=ts[sl], states=states[sl] if keep else None,
        norm_p=norms[sl], v=vs[sl] if vs is not None else None,
        u_norm=u_norms[sl], u_sup_norm=abs(signal.level) * float(shape_norm),
        step=step, diverged=diverged)


# --------------------------------------------------------------------------
# Checks along trajectories
# --------------------------------------------------------------------------


TOL_COEFFICIENT = 20.0  # c of the step-proportional tolerance c h (1 + V) of the checks
ROUNDING_ULPS = 4  # ulps of max(V(t), V(t+h)) in the dissipation check's rounding term


@dataclass(frozen=True)
class ViolationReport:
    name: str
    n_checked: int
    violations: tuple[tuple[float, float], ...]  # (time, margin)
    worst_margin: float
    n_rounding: int = 0  # samples whose tolerance is the rounding term

    @classmethod
    def of(cls, name: str, t: np.ndarray, margins: np.ndarray,
           n_rounding: int = 0) -> "ViolationReport":
        """The report of one margin per sample; a positive margin violates."""
        bad = np.nonzero(margins > 0)[0]
        return cls(name=name, n_checked=int(margins.size),
                   violations=tuple((float(t[i]), float(margins[i])) for i in bad),
                   worst_margin=float(margins.max()) if margins.size else -math.inf,
                   n_rounding=n_rounding)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        rounding = {"ulps": ROUNDING_ULPS, "n_samples": self.n_rounding}
        return {"name": self.name, "ok": self.ok, "n_checked": self.n_checked,
                "n_violations": len(self.violations),
                "worst_margin": self.worst_margin,
                "tol_coefficient": TOL_COEFFICIENT,
                "violations": [list(v) for v in self.violations[:32]],
                **({"rounding": rounding} if self.n_rounding else {})}


def verify_dissipation(traj: TrajectoryRecord, lyap: CompositeLyapunov) -> ViolationReport:
    """Forward-difference check of the dissipation inequality.

    Each consecutive pair must satisfy
    ``(V(t+h) - V(t))/h <= -lambda_inf V(t) + mu_hi sup gamma_iu ||u||^2 + tol``
    with ``tol`` the larger of the step term ``c h (1 + V(t))`` and the
    rounding term ``ROUNDING_ULPS`` ulps of ``max(V(t), V(t+h))`` over ``h``,
    which does not shrink with ``h``.  The report's ``rounding`` entry, absent
    when there are none, counts the samples whose tolerance is the latter.
    """
    if traj.v is None or traj.v.size < 2:
        raise InsufficientDataError("trajectory lacks a Lyapunov channel or samples")
    h, v, v_next = traj.step, traj.v[:-1], traj.v[1:]
    forcing = float(lyap.input_coefficient) * traj.u_sup_norm ** 2.0
    step_tol = TOL_COEFFICIENT * h * (1.0 + v)
    rounding_tol = ROUNDING_ULPS * np.spacing(np.maximum(v, v_next)) / h
    rhs = -float(lyap.cert.lambda_inf) * v + forcing + np.maximum(step_tol, rounding_tol)
    return ViolationReport.of("dissipation", traj.t, (v_next - v) / h - rhs,
                              int(np.count_nonzero(rounding_tol > step_tol)))


def verify_envelope(traj: TrajectoryRecord, lyap: CompositeLyapunov) -> ViolationReport:
    """Check ``V(t) <= exp(-eps t) V(0) + chi(||u||)`` sample by sample, at the
    margin ``eps = lambda_inf / 2``."""
    if traj.v is None or traj.v.size < 1:
        raise InsufficientDataError("trajectory lacks a Lyapunov channel")
    eps = 0.5 * float(lyap.cert.lambda_inf)
    env = lyap.envelope_v(traj.t, float(traj.v[0]), traj.u_sup_norm, eps)
    tol = TOL_COEFFICIENT * traj.step * (1.0 + env)
    return ViolationReport.of("envelope", traj.t, traj.v - env - tol)


@dataclass(frozen=True)
class DecayFit:
    rate: float
    prefactor: float
    n_points: int
    channel: str


def fit_decay(traj: TrajectoryRecord, channel: str = "v") -> DecayFit:
    """Least-squares exponential rate of V(t) or of the state norm.

    Fits log(value) against t over the samples above 1e-10 and
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
    mask = values > 1e-10
    if mask.sum() < 2 or np.ptp(traj.t[mask]) <= 0:
        raise InsufficientDataError("fewer than two samples above the fit floor")
    t, y = traj.t[mask], np.log(values[mask])
    if not (t * t).sum() > 0:  # the column scale of the least-squares fit
        raise InsufficientDataError("sample times too small to fit: their squares underflow")
    slope, intercept = np.polyfit(t, y, 1)
    return DecayFit(rate=float(-slope), prefactor=float(np.exp(intercept)),
                    n_points=int(mask.sum()), channel=channel)


def truncation_convergence_probe(fam: Family, x0_desc, signal,
                                 horizon: float, step: float,
                                 n_list, first_k: int) -> list[dict]:
    """Inter-truncation deviation of the first K blocks.

    Integrates the same initial data (supported on the first K
    subsystems) at each truncation size and reports, for consecutive
    sizes, the maximum over time of the Euclidean norm of the difference
    of the retained window.  No convergence claim is made; the numbers are
    the evidence.
    """
    n_list = as_numbers(list(n_list), "n_list", item=as_integer)
    if not n_list:
        raise ParameterError("the probe needs at least one truncation size")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ParameterError("truncation sizes must be strictly increasing")
    first_k = as_integer(first_k, "first_k")
    if not 1 <= first_k <= n_list[0] - fam.bandwidth:
        raise ParameterError("the window needs first_k >= 1, and the smallest "
                             "truncation must cover it plus the bandwidth")
    runs = []
    for n in n_list:
        net = truncate(fam, n)
        runs.append((n, integrate(net, initial_state(net, x0_desc), signal, horizon, step,
                                  keep=net.block_offsets[first_k]).states))
    return [{"n_small": n1, "n_large": n2,
             "max_deviation": float(_norm(s1[:len(s2)] - s2[:len(s1)]).max())}
            for (n1, s1), (n2, s2) in zip(runs, runs[1:])]


# --------------------------------------------------------------------------
# Pipeline stages 3-4
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SimSetup:
    """One truncation with its input signal, initial state and step sizes."""

    net: TruncatedNetwork
    signal: InputSignal
    x0: np.ndarray
    horizon: float
    step: float
    csv_states: bool = False  # whether ``sgain simulate`` writes the states

    def to_dict(self) -> dict:
        return {"N": self.net.n_subsystems, "T": self.horizon, "h": self.step}


def build_sim(fam: Family, sim: Mapping) -> SimSetup:
    """Stage 3: the truncation, input signal and ``x0`` of a ``sim`` section
    (read by :data:`sgain.scenarios.SIM`)."""
    s = read(sim, SIM, "sim")
    net = truncate(fam, s["N"])
    return SimSetup(net=net, signal=signal_from_dict(s["input"], "sim.input"),
                    x0=initial_state(net, s["x0"], "sim.x0"), horizon=s["T"], step=s["h"],
                    csv_states=s["csv_states"])


def check_run(setup: SimSetup, lyap: CompositeLyapunov, signal: InputSignal):
    """Stage 4: integrate ``signal`` with the Lyapunov channel; returns the
    trajectory and its dissipation and ISS envelope checks.  The envelope
    check is None when ``lambda_inf <= 0``: no decay, no envelope."""
    traj = integrate(setup.net, setup.x0, signal, setup.horizon, setup.step, lyapunov=lyap)
    envelope = verify_envelope(traj, lyap) if lyap.cert.lambda_inf > 0 else None
    return traj, verify_dissipation(traj, lyap), envelope


# --------------------------------------------------------------------------
# Export
# --------------------------------------------------------------------------


def export_csv(traj: TrajectoryRecord, path) -> None:
    """Write ``t, norm_p, V, u_norm[, x_1..x_keep]`` rows: the states the record holds.

    Every cell is the shortest round-trip ``repr`` of its float (``V`` empty
    when absent), and rows end in ``\\r\\n``: the bytes ``csv.writer`` writes.
    """
    states = np.empty((traj.t.size, 0)) if traj.states is None else traj.states
    v = [""] * traj.t.size if traj.v is None else map(repr, traj.v.tolist())
    names = [f"x_{i}" for i in range(1, states.shape[1] + 1)]
    with open(path, "w", newline="") as f:
        f.write(",".join(["t", "norm_p", "V", "u_norm"] + names) + "\r\n")
        for t, n, vk, u, x in zip(traj.t.tolist(), traj.norm_p.tolist(), v,
                                  traj.u_norm.tolist(), states.tolist()):
            f.write(",".join([repr(t), repr(n), vk, repr(u), *map(repr, x)]) + "\r\n")
