"""Integration, norms, dissipation/envelope checks, decay fits, probe."""

import csv
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import sgain
from sgain import (InsufficientDataError, LinearChain, ParameterError, Zero, fit_decay,
                   initial_state, integrate, truncate,
                   truncation_convergence_probe, verify_dissipation)
from sgain.certificate import CompositeLyapunov
from sgain.errors import ResourceError
from sgain.network import csr_matvec
from sgain.sim import (BoundLyapunov, ConstantOnFirstK, GeometricProfile, SinusoidOnFirstK,
                       TrafficLights, _flush, _norm, _stage_levels, _support, export_csv,
                       signal_from_dict, verify_envelope)


def chain_gen(b_diag=1, b_off=Fraction(1, 10)):
    off = sgain.PeriodicSeq.constant(b_off)
    return LinearChain(diag=sgain.PeriodicSeq.constant(b_diag), sub=off, sup=off)


def scalar_net():
    return truncate(chain_gen(b_off=0), 1)


class TestRk4:
    def test_scalar_exponential_accuracy(self):
        net = scalar_net()
        traj = integrate(net, np.array([1.0]), Zero(), horizon=1.0, step=0.01)
        assert traj.norm_p[-1] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_order_four_halving_factor(self):
        net = scalar_net()
        errors = {}
        for h in (0.02, 0.01):
            traj = integrate(net, np.array([1.0]), Zero(), horizon=1.0, step=h)
            errors[h] = abs(traj.norm_p[-1] - math.exp(-1.0))
        factor = errors[0.02] / errors[0.01]
        assert 12.0 <= factor <= 20.0

    def test_determinism(self):
        net = truncate(chain_gen(), 20)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        a = integrate(net, x0, Zero(), 2.0, 1e-2, keep=net.dim)
        b = integrate(net, x0, Zero(), 2.0, 1e-2, keep=net.dim)
        assert np.array_equal(a.states, b.states)

    def test_divergence_flagged_not_raised(self):
        gen = LinearChain(
            diag=sgain.seqrules.PeriodicSeq.constant(Fraction(-3, 1) * -1),
            sub=sgain.seqrules.PeriodicSeq.constant(4),
            sup=sgain.seqrules.PeriodicSeq.constant(4))
        net = truncate(gen, 10)  # strong coupling dominates the diagonal
        x0 = initial_state(net, {"kind": "first-k", "K": 10, "value": 1.0})
        traj = integrate(net, x0, Zero(), horizon=40.0, step=1e-2)
        assert traj.diverged
        assert traj.t[-1] < 40.0

    def test_parameter_validation(self):
        net = scalar_net()
        with pytest.raises(ParameterError):
            integrate(net, np.array([1.0]), Zero(), horizon=1.0, step=0.0)


class TestInitialState:
    def test_list_entries_are_read_as_numbers_and_an_array_passes(self):
        net = truncate(chain_gen(), 3)
        x0 = initial_state(net, [Fraction(1, 3), "1/2", 2])
        assert x0.tolist() == [1 / 3, 0.5, 2.0]
        big = np.array([1e300, -0.0, 5e-324])
        assert np.array_equal(initial_state(net, big).view(np.int64), big.view(np.int64))
        for bad in ([True, 0, 0], [1, "x", 0], (math.nan, 0, 0)):
            with pytest.raises(ParameterError, match="'x0'"):
                initial_state(net, bad)
        with pytest.raises(ParameterError, match=r"^'x0\.value': number too large for a float$"):
            initial_state(net, {"kind": "unit", "index": 2, "value": Fraction(10) ** 400})

    def test_null_and_absent_entries_take_their_defaults(self):
        net = truncate(chain_gen(), 3)
        for desc in (None, {}, {"kind": None}):
            assert initial_state(net, desc).tolist() == [0.0] * 3
        assert initial_state(net, {"kind": "first-k", "K": 2, "value": None}).tolist() == [1, 1, 0]
        for bad in (0, False, "", "zero", 1.5):
            with pytest.raises(ParameterError,
                               match=rf"^'x0': must be an object or a list, got {bad!r}$"):
                initial_state(net, bad)


class TestNorms:
    def test_examples(self):
        assert _norm(np.array([1.0, 0.0, 0.0])) == 1.0
        assert _norm(np.array([3.0, -4.0])) == 5.0
        assert _norm(np.zeros(0)) == 0.0
        assert np.array_equal(_norm(np.array([[3.0, 4.0], [0.0, -2.0]])), [5.0, 2.0])

    def test_block_aggregation(self):
        net = truncate(sgain.make_scenario("lure-platoon").family, 2)
        assert net.block_dim == 2
        x = np.array([3.0, 4.0, 0.0, 1.0])
        assert _norm(x) == pytest.approx(math.sqrt(26.0))
        traj = integrate(net, x, Zero(), horizon=1e-3, step=1e-3)
        assert traj.norm_p[0] == pytest.approx(math.sqrt(26.0), rel=1e-15)

    def test_summation_oracle(self):
        rng = np.random.default_rng(11)
        xs = rng.standard_normal((5, 64))
        for x, n in zip(xs, _norm(xs)):
            assert n == pytest.approx(math.sqrt(sum(float(v) ** 2 for v in x)), rel=1e-12)


class TestSignals:
    @pytest.mark.parametrize("make", [
        lambda: ConstantOnFirstK(5, 2.0),
        lambda: GeometricProfile(1.0, 0.5),
        lambda: SinusoidOnFirstK(8, 1.5, 0.7),
        lambda: TrafficLights(1.0, 2.0, 1.0),
    ])
    def test_reported_norm_dominates_samples(self, make):
        gen = sgain.make_scenario("counter-gain").family  # one channel per subsystem
        net = truncate(gen, 12)
        sig = make()
        sup = integrate(net, np.zeros(net.dim), sig, horizon=1e-3, step=1e-3).u_sup_norm
        for t in np.linspace(0.0, 7.0, 113):
            assert np.linalg.norm(sig.level * sig.unit(float(t)) * sig.shape(net)) <= sup + 1e-12

    def test_traffic_channels_only_on_controlled_cells(self):
        net = truncate(sgain.make_scenario("traffic").family, 16)
        assert net.input_dim == 4  # cells 4, 5, 12, 13
        sig = ConstantOnFirstK(16, 1.0)
        traj = integrate(net, np.zeros(net.dim), sig, horizon=1e-3, step=1e-3)
        assert traj.u_sup_norm == pytest.approx(2.0)

    @pytest.mark.parametrize("make", [Zero, lambda: GeometricProfile(1.0, 0.5),
                                      lambda: TrafficLights(1.0, 2.0, 1.0)])
    def test_one_shape_per_run(self, monkeypatch, make):
        """A run forms its signal's shape once: the applied input and every
        input norm, u_sup_norm included, are read off that one array."""
        sig, calls = make(), []
        shape = type(sig).shape
        monkeypatch.setattr(type(sig), "shape",
                            lambda self, net: calls.append(net) or shape(self, net))
        net = truncate(sgain.make_scenario("traffic").family, 16)
        integrate(net, np.zeros(net.dim), sig, horizon=0.01, step=1e-3)
        assert len(calls) == 1

    def test_null_entries_take_their_defaults(self):
        assert signal_from_dict({"kind": None}) == Zero()
        lights = {"kind": "traffic-lights", "t_on": 1, "t_off": 2}
        assert signal_from_dict({**lights, "amplitude": None}) == signal_from_dict(lights)

    def test_round_trip(self):
        for obj in ({"kind": "zero"},
                    {"kind": "constant-first-k", "k": 3, "amplitude": 1.0},
                    {"kind": "geometric", "amplitude": 1.0, "ratio": 0.5},
                    {"kind": "sinusoid-first-k", "k": 2, "amplitude": 1.0, "frequency": 1.0},
                    {"kind": "traffic-lights", "t_on": 1.0, "t_off": 1.0, "amplitude": 1.0}):
            assert signal_from_dict(obj).to_dict() == obj

    @pytest.mark.parametrize("obj", [
        {"kind": "constant-first-k", "amplitude": 1.0},  # a missing field
        {"kind": "constant-first-k", "k": "three", "amplitude": 1.0},
        {"kind": "constant-first-k", "k": 2.5, "amplitude": 1.0},  # not truncated to 2
        {"kind": "constant-first-k", "k": True, "amplitude": 1.0},
        {"kind": "geometric", "amplitude": "big", "ratio": 0.5},
        {"kind": ["zero"]},
        [1, 2],
        "zero",
    ])
    def test_malformed_descriptions_are_parameter_errors(self, obj):
        with pytest.raises(ParameterError):
            signal_from_dict(obj)

    def test_integral_fields_accept_integral_spellings(self):
        for k in (3, "3", 3.0, Fraction(3)):
            assert signal_from_dict({"kind": "constant-first-k", "k": k, "amplitude": 1}).k == 3

    def test_geometric_ratio_validated(self):
        with pytest.raises(ParameterError):
            GeometricProfile(1.0, 1.5)


SIGNAL_KINDS = [Zero(), ConstantOnFirstK(7, 1.7), GeometricProfile(1.3, 0.7),
                SinusoidOnFirstK(9, 0.9, 1.3), TrafficLights(0.03, 0.02, -1.1)]
ACTIVE_SECTOR = {"E": [[0.0], [0.1]], "G": [[0.2, 0.1]]}
# (scenario, overrides): every truncation steps as x+ = R x + w, an acting
# sector channel folded into A; all agree with the stage-wise reference.
FORCED_NETWORKS = [
    ("traffic", {}),
    ("lure-platoon", {}),
    ("lure-platoon", {"coefficients": {"phi": "saturation", **ACTIVE_SECTOR}}),
    ("lure-platoon", {"coefficients": {"phi": "midpoint-linear", **ACTIVE_SECTOR}}),
    ("counter-gain", {}),
]


def _rhs(net, x, u):
    """The stacked right-hand side at state ``x`` and input ``u``."""
    return net.rhs(x, net.input_matrix @ u if net.input_dim else None)


def _stagewise_rk4(net, x0, sig, horizon, h, blow_up=math.inf):
    """Classical RK4 over ``_rhs`` with u sampled at every stage,
    stopped after the first step whose block-norm exceeds ``blow_up``."""
    x = np.asarray(x0, dtype=float)
    out = [x]
    for k in range(int(round(horizon / h))):
        t = k * h
        u1, u2, u4 = (sig.level * sig.unit(s) * sig.shape(net) for s in (t, t + 0.5 * h, t + h))
        k1 = _rhs(net, x, u1)
        k2 = _rhs(net, x + 0.5 * h * k1, u2)
        k3 = _rhs(net, x + 0.5 * h * k2, u2)
        k4 = _rhs(net, x + h * k3, u4)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
        if np.linalg.norm(x) > blow_up:
            break
    return np.array(out)


@dataclasses.dataclass(frozen=True)
class _UnsampledSinusoid(SinusoidOnFirstK):
    def values(self, net, t):
        raise AssertionError("the input vector was sampled during integration")


class _CountingMatrix:
    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, v):
        self.products += 1
        return self.matrix @ v


class TestSeparableForcing:
    """``integrate`` applies ``B u`` once per run and scales it per stage."""

    @pytest.mark.parametrize("name, overrides", FORCED_NETWORKS)
    @pytest.mark.parametrize("sig", SIGNAL_KINDS, ids=lambda s: s.kind)
    def test_matches_stagewise_sampling(self, name, overrides, sig):
        net = truncate(sgain.make_scenario(name, overrides).family, 20)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        traj = integrate(net, x0, sig, horizon=0.2, step=0.004, keep=net.dim)
        ref = _stagewise_rk4(net, x0, sig, 0.2, 0.004)
        assert traj.states.shape == ref.shape
        assert np.abs(traj.states - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.all(traj.u_norm <= traj.u_sup_norm * (1 + 1e-12))

    def test_step_loop_forms_no_input_vector(self):
        net = truncate(sgain.make_scenario("traffic").family, 20)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        plain = integrate(net, x0, SinusoidOnFirstK(9, 0.9, 1.3), 0.2, 0.004, keep=net.dim)
        net.input_matrix = _CountingMatrix(net.input_matrix)
        traj = integrate(net, x0, _UnsampledSinusoid(9, 0.9, 1.3), 0.2, 0.004, keep=net.dim)
        assert net.input_matrix.products == 1
        assert np.array_equal(traj.states, plain.states)


class TestBlocks:
    """Steps and records run a block of rows at a time."""

    def test_divergence_across_a_block_boundary(self, monkeypatch):
        monkeypatch.setattr(sgain.sim, "_BLOCK_FLOATS", 4000)  # 400 rows of 10 states
        monkeypatch.setattr(sgain.sim, "_BLOW_UP", 1e100)
        net = truncate(chain_gen(1, 10), 10)
        x0 = initial_state(net, {"kind": "first-k", "K": 10, "value": 1e-300})
        ref = _stagewise_rk4(net, x0, Zero(), 100.0, 0.1, blow_up=1e100)
        assert 400 < len(ref) - 1 < 800  # the blow-up falls in the second block,
        with np.errstate(over="ignore", invalid="ignore"):
            over = _stagewise_rk4(net, x0, Zero(), 80.0, 0.1)  # whose last steps overflow
        assert len(over) == 801 and not np.isfinite(over[-1]).all()
        traj = integrate(net, x0, Zero(), 100.0, 0.1, keep=net.dim)
        assert traj.diverged and traj.states.shape == ref.shape
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(traj.states - ref) <= 1e-12 * scale)
        assert traj.norm_p[-2] <= 1e100 < traj.norm_p[-1] < math.inf

    @pytest.mark.parametrize("keep", [10, 0])
    def test_partial_last_block(self, monkeypatch, chain_certified, keep):
        cert, g = chain_certified
        lyap = CompositeLyapunov(cert, g)
        net = truncate(chain_gen(), 10)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        whole = integrate(net, x0, SinusoidOnFirstK(3, 0.5, 2.0), 1.0, 1e-2, lyapunov=lyap,
                          keep=net.dim)
        monkeypatch.setattr(sgain.sim, "_BLOCK_FLOATS", 70)  # 7 rows: 100 = 14 * 7 + 2
        traj = integrate(net, x0, SinusoidOnFirstK(3, 0.5, 2.0), 1.0, 1e-2, lyapunov=lyap,
                         keep=keep)
        assert verify_dissipation(traj, lyap).n_checked == 100
        for name in ("t", "norm_p", "v", "u_norm"):
            assert np.array_equal(getattr(traj, name), getattr(whole, name))
        if keep:
            assert np.array_equal(traj.states, whole.states)

    def test_far_field_flush_moves_no_recorded_float(self, monkeypatch, platoon_gains):
        cert, g = sgain.certify(platoon_gains)
        lyap = CompositeLyapunov(cert, g)
        net = truncate(sgain.make_scenario("lure-platoon").family, 1200)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        args = (net, x0, GeometricProfile(1.0, 0.45), 0.1, 1e-3)
        flushed = integrate(*args, lyapunov=lyap)
        monkeypatch.setattr(sgain.sim, "_FLUSH", 0.0)
        plain = integrate(*args, lyapunov=lyap)
        for name in ("t", "norm_p", "v", "u_norm"):
            assert np.array_equal(getattr(flushed, name), getattr(plain, name))

    @pytest.mark.parametrize("overrides", [{}, {"coefficients": {"phi": "saturation",
                                                                 **ACTIVE_SECTOR}}])
    def test_no_block_starts_from_a_subnormal(self, monkeypatch, overrides):
        monkeypatch.setattr(sgain.sim, "_BLOCK_FLOATS", 8000)  # 10 rows of 800 states
        net = truncate(sgain.make_scenario("lure-platoon", overrides).family, 400)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        traj = integrate(net, x0, GeometricProfile(1.0, 0.1), 0.05, 1e-3, keep=net.dim)
        starts = np.abs(traj.states[:-1:10])  # a block steps from its stored first row
        assert len(starts) == 5 and np.all((starts == 0) | (starts >= np.finfo(float).tiny))

    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.0 ** -600, -1.5, 1e300,
                                     math.inf, -math.inf, math.nan]) | st.floats(),
                    min_size=1, max_size=40))
    def test_flush_returns_the_support_it_leaves(self, row):
        x = np.array(row)
        a = np.abs(x)
        ref = x.copy()
        ref[a < sgain.sim._FLUSH * a.max()] = 0.0
        assert _flush(x) == _support(x)
        assert np.array_equal(x.view(np.int64), ref.view(np.int64))


def _propagator(net, h):
    """``M = h A`` and RK4's stability polynomial ``R`` of ``M``, as CSR."""
    m = (h * net.drift_matrix).tocsr()
    eye = sp.identity(net.dim, format="csr")
    return m, (eye + m @ (eye + m @ (0.5 * eye + m @ (eye / 6.0 + m / 24.0)))).tocsr()


def _full_stepping(net, x0, sig, horizon, h, rows):
    """``x+ = R x + w`` on every row, one kernel call per step, each block of
    ``rows`` steps starting from its flushed first row: the stepper's steps
    without a window or a chain."""
    m, r = _propagator(net, h)
    n_steps = int(round(horizon / h))
    levels = _stage_levels(sig, n_steps, h)
    f = net.input_matrix @ sig.shape(net) if net.input_dim and sig.level else np.zeros(net.dim)
    _flush(f)
    mf = m @ f
    m2f = m @ mf
    images = (h / 6.0) * np.array([f + mf + 0.5 * m2f + 0.25 * (m @ m2f),
                                   4.0 * f + 2.0 * mf + 0.5 * m2f, f])
    states = np.empty((n_steps + 1, net.dim))
    states[0] = x0
    for k in range(0, n_steps, rows):
        blk = states[k:k + rows + 1]
        _flush(blk[0])
        if np.all(levels == levels[0, 0]):
            blk[1:] = levels[0, 0] * images.sum(axis=0)
        else:
            np.dot(levels[:, k:k + len(blk) - 1].T, images, out=blk[1:])
        for j in range(len(blk) - 1):
            csr_matvec(net.dim, net.dim, r.indptr, r.indices, r.data, blk[j], blk[j + 1])
    return states


def _chained_floats(net, h, fits=lambda rows, k: True):
    """A block size whose chain holds ``k >= 3`` copies of ``R`` (so a middle
    copy reads and writes states its neighbours write and read) and whose block
    of ``rows`` steps is not a multiple of ``k``: ``(floats, rows, k)``."""
    nnz = _propagator(net, h)[1].nnz
    for floats in range(3 * nnz, 40 * nnz):
        rows, k = floats // net.dim, floats // nnz
        if k >= 3 and rows % k and rows // k >= 2 and fits(rows, k):
            return floats, rows, k
    raise AssertionError("no block size leaves a partial chained group")


class _CountingKernel:
    def __init__(self, kernel):
        self.kernel, self.calls, self.rows = kernel, 0, 0

    def __call__(self, *args):
        self.calls += 1
        self.rows += args[0]  # the rows of the product this call forms
        return self.kernel(*args)


class TestChainedSteps:
    """A block whose window spans every row steps ``k`` rows per kernel call."""

    @pytest.mark.parametrize("name, n", [("chain-a", 20), ("traffic", 25), ("lure-platoon", 30)])
    @pytest.mark.parametrize("sig", [Zero(), GeometricProfile(-1.0, 0.3),
                                     SinusoidOnFirstK(4, -0.8, 3.0)], ids=lambda s: s.kind)
    def test_chain_steps_what_one_step_calls_do(self, monkeypatch, name, n, sig):
        s = sgain.make_scenario(name)
        cert, g = sgain.certify(s.family.derive_gains(s.derivation))
        lyap = CompositeLyapunov(cert, g)
        net = truncate(s.family, n)
        floats, rows, k = _chained_floats(net, 1e-3)
        monkeypatch.setattr(sgain.sim, "_BLOCK_FLOATS", floats)
        kernel = _CountingKernel(sgain.network.csr_matvec)
        monkeypatch.setattr(sgain.network, "csr_matvec", kernel)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.3})
        traj = integrate(net, x0, sig, 0.2, 1e-3, lyapunov=lyap, keep=net.dim)
        blocks = [min(rows, 200 - b) for b in range(0, 200, rows)]
        assert kernel.calls == sum(-(-m // k) for m in blocks) < 200
        ref = _full_stepping(net, x0, sig, 0.2, 1e-3, rows=rows)
        assert np.array_equal(traj.states.view(np.int64), ref.view(np.int64))
        assert np.array_equal(traj.norm_p, np.sqrt(np.einsum("ij->i", ref * ref)))
        bound = sgain.sim.BoundLyapunov(lyap, net)
        assert np.array_equal(traj.v, bound.leading(ref, ref * ref))

    def test_divergence_inside_a_chained_group(self, monkeypatch):
        net = truncate(chain_gen(1, 10), 10)
        x0 = initial_state(net, {"kind": "first-k", "K": 10, "value": 1e-300})
        args = (net, x0, Zero(), 100.0, 0.1)  # a RuntimeWarning fails the suite
        monkeypatch.setattr(sgain.sim, "_BLOW_UP", 1e100)
        with monkeypatch.context() as one_step:
            one_step.setattr(sgain.sim, "_chained_steps", lambda indptr, indices, data, k:
                             sgain.network._chained_steps(indptr, indices, data, 1))
            single = integrate(*args, keep=net.dim)
        stop = len(single.t) - 1  # step ``stop`` is row (stop - 1) % rows of its block
        floats, rows, k = _chained_floats(net, 0.1, lambda rows, k: 0 < (stop - 1) % rows % k
                                          < k - 1 and rows < stop)
        monkeypatch.setattr(sgain.sim, "_BLOCK_FLOATS", floats)
        chained = integrate(*args, keep=net.dim)
        assert single.diverged and chained.diverged and len(chained.t) == stop + 1
        assert np.array_equal(chained.states.view(np.int64), single.states.view(np.int64))
        assert np.array_equal(chained.norm_p, single.norm_p)


class TestOnePropagator:
    """``R`` is built once per truncation and step, and every run on it shares it."""

    @staticmethod
    def _count_builds(monkeypatch):
        sizes, build = [], sgain.network._rk4_polynomial
        monkeypatch.setattr(sgain.network, "_rk4_polynomial",
                            lambda dim, *m: sizes.append(dim) or build(dim, *m))
        return sizes

    @pytest.mark.parametrize("name", ["lure-platoon", "traffic"])
    def test_pipeline_builds_one_for_its_two_runs(self, monkeypatch, name):
        sizes = self._count_builds(monkeypatch)
        report = sgain.run_pipeline(sgain.make_scenario(name))
        assert {"dissipation_zero_input", "dissipation_forced"} <= report["simulation"].keys()
        assert len(sizes) == 1

    def test_probe_builds_one_per_size(self, monkeypatch):
        sizes = self._count_builds(monkeypatch)
        fam = sgain.make_scenario("lure-platoon").family
        truncation_convergence_probe(fam, {"kind": "first-k", "K": 5, "value": 1.0},
                                     GeometricProfile(1.0, 0.5), 0.05, 1e-3, [20, 40, 80], 5)
        assert len(sizes) == 3

    @pytest.mark.parametrize("phi", ["zero", "saturation", "midpoint-linear"])
    def test_every_sector_channel_steps_by_the_propagator(self, monkeypatch, phi):
        """An acting channel is folded into ``A``: ``integrate`` never evaluates
        the stage-wise right-hand side."""
        def refuse(self, x, forcing):
            raise AssertionError("integrate evaluated TruncatedNetwork.rhs")

        sizes = self._count_builds(monkeypatch)
        monkeypatch.setattr(sgain.network.TruncatedNetwork, "rhs", refuse)
        coeff = {"phi": phi, **ACTIVE_SECTOR}
        net = truncate(sgain.make_scenario("lure-platoon", {"coefficients": coeff}).family, 10)
        integrate(net, np.ones(net.dim), GeometricProfile(1.0, 0.5), 0.02, 0.004)
        assert len(sizes) == 1

    def test_one_per_step(self, monkeypatch):
        sizes = self._count_builds(monkeypatch)
        net = truncate(chain_gen(), 300)
        assert net.propagator(1e-3) is net.propagator(1e-3)
        assert net.propagator(2e-3) is not net.propagator(1e-3)
        assert len(sizes) == 2 and max(sizes) < net.dim  # a core, tiled to N


class TestSupportWindow:
    """A linear block steps only the rows that can be nonzero."""

    @pytest.mark.parametrize("name, n, sig", [
        ("lure-platoon", 1200, GeometricProfile(1.0, 0.3)),
        ("traffic", 1200, GeometricProfile(-1.0, 0.3)),
        ("lure-platoon", 1200, SinusoidOnFirstK(9, -0.8, 3.0)),
        ("traffic", 1200, ConstantOnFirstK(7, -0.7)),
        ("chain-a", 2500, Zero()),
    ], ids=lambda v: getattr(v, "kind", str(v)))
    def test_window_steps_what_full_stepping_does(self, monkeypatch, name, n, sig):
        net = truncate(sgain.make_scenario(name).family, n)
        monkeypatch.setattr(sgain.sim, "_BLOCK_FLOATS", 5 * net.dim)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.3})
        ref = _full_stepping(net, x0, sig, 0.2, 1e-3, rows=5)
        norms = np.sqrt(np.einsum("ij->i", ref * ref))
        for keep in (net.dim, int(net.block_offsets[5]), 0):  # all, a leading window, none
            traj = integrate(net, x0, sig, 0.2, 1e-3, keep=keep)
            assert np.array_equal(traj.norm_p, norms)
            if keep:
                assert np.array_equal(traj.states.view(np.int64), ref[:, :keep].view(np.int64))
            else:
                assert traj.states is None

    @pytest.mark.parametrize("name, n, sig", [
        ("lure-platoon", 1200, GeometricProfile(1.0, 0.45)),
        ("traffic", 2500, GeometricProfile(1.0, 0.6)),
        ("chain-a", 2500, Zero()),
        *(pytest.param(name, 2500, GeometricProfile(1.0, 0.7), id=f"{name}-2500-0.7")
          for name in ("lure-platoon", "traffic")),  # where the floor narrows the window
    ], ids=lambda v: getattr(v, "kind", str(v)))
    def test_recorded_floats_ignore_blocking_and_flush(self, monkeypatch, name, n, sig):
        s = sgain.make_scenario(name)
        cert, g = sgain.certify(s.family.derive_gains(s.derivation))
        lyap = CompositeLyapunov(cert, g)
        net = truncate(s.family, n)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        runs, floors = [], (sgain.sim._FLUSH, 2.0 ** -900, 0.0)
        for floats in (2 ** 15, 7 * net.dim, 3 * net.dim):
            for floor in floors:
                monkeypatch.setattr(sgain.sim, "_BLOCK_FLOATS", floats)
                monkeypatch.setattr(sgain.sim, "_FLUSH", floor)
                runs.append(integrate(net, x0, sig, 0.2, 1e-3, lyapunov=lyap))
        for traj in runs[1:]:
            assert np.array_equal(traj.norm_p, runs[0].norm_p)
            assert np.array_equal(traj.v, runs[0].v)

    def test_probe_ignores_the_floor(self, monkeypatch):
        fam = sgain.make_scenario("traffic").family
        args = (fam, {"kind": "first-k", "K": 5, "value": 1.0}, GeometricProfile(1.0, 0.7),
                0.2, 1e-3, [1250, 2500], 5)
        rows = truncation_convergence_probe(*args)
        monkeypatch.setattr(sgain.sim, "_FLUSH", 2.0 ** -900)
        assert truncation_convergence_probe(*args) == rows

    def test_floor_narrows_the_window(self, monkeypatch):
        """Lure-platoon at N = 2500 with input ratio 0.5 multiplies 21.2% of its
        n_steps x dim rows at the floor 2^-500, and 37.2% at 2^-900."""
        kernel = _CountingKernel(sgain.network.csr_matvec)
        monkeypatch.setattr(sgain.network, "csr_matvec", kernel)
        net = truncate(sgain.make_scenario("lure-platoon").family, 2500)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        integrate(net, x0, GeometricProfile(1.0, 0.5), 0.5, 1e-3)
        assert kernel.rows < 0.25 * 500 * net.dim

    def test_stored_states_within_a_budget(self, monkeypatch):
        net = truncate(chain_gen(), 10)
        monkeypatch.setattr(sgain.sim, "_STATE_BUDGET", 1000)  # 101 states of 10 need 1010
        with pytest.raises(ResourceError, match="over the budget of 1000"):
            integrate(net, np.ones(10), Zero(), 1.0, 1e-2, keep=10)
        assert integrate(net, np.ones(10), Zero(), 1.0, 1e-2).t.size == 101
        assert integrate(net, np.ones(10), Zero(), 0.99, 1e-2, keep=10).states.shape == (100, 10)

    @pytest.mark.parametrize("keep", [-1, 11, True, 2.5, None])
    def test_keep_outside_the_columns(self, keep):
        with pytest.raises(ParameterError, match="keep must be a column count in \\[0, 10\\]"):
            integrate(truncate(chain_gen(), 10), np.ones(10), Zero(), 1.0, 1e-2, keep=keep)


class TestDissipation:
    def test_certified_chain_no_violations(self, chain_certified):
        cert, g = chain_certified
        lyap = CompositeLyapunov(cert, g)
        net = truncate(chain_gen(), 50)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        traj = integrate(net, x0, Zero(), 5.0, 1e-3, lyapunov=lyap)
        rep = verify_dissipation(traj, lyap)
        assert rep.ok and rep.n_checked == 5000

    def test_zero_input_v_nonincreasing(self, chain_certified):
        cert, g = chain_certified
        lyap = CompositeLyapunov(cert, g)
        net = truncate(chain_gen(), 50)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        traj = integrate(net, x0, Zero(), 5.0, 1e-3, lyapunov=lyap)
        assert np.all(np.diff(traj.v) <= 1e-12)

    def test_corrupted_rate_reports_violations(self, chain_certified):
        cert, g = chain_certified
        lyap = CompositeLyapunov(cert, g)
        net = truncate(chain_gen(), 30)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        traj = integrate(net, x0, Zero(), 3.0, 1e-3, lyapunov=lyap)
        bad_cert = dataclasses.replace(cert, lambda_inf=10 * cert.lambda_inf)
        bad = CompositeLyapunov(bad_cert, g)
        rep = verify_dissipation(traj, bad)
        assert not rep.ok and rep.worst_margin > 0

    @pytest.mark.parametrize("n, step", [(50, 1e-15), (400, 1e-15), (50, 1e-14)])
    def test_survives_rounding_at_tiny_steps(self, platoon_gains, n, step):
        """One ulp of V over h does not shrink with h: the rounding term
        keeps a certified network from failing the check at tiny steps."""
        s = sgain.make_scenario("lure-platoon")
        lyap = CompositeLyapunov(*sgain.certify(platoon_gains))
        net = truncate(s.family, n)
        x0 = initial_state(net, s.sim["x0"])
        sig = signal_from_dict(s.sim["input"])
        traj = integrate(net, x0, sig, 200 * step, step, lyapunov=lyap)
        rep = verify_dissipation(traj, lyap)
        assert rep.ok, rep.violations
        assert rep.to_dict()["rounding"] == {"ulps": 4, "n_samples": rep.n_rounding}
        assert 0 < rep.n_rounding <= 200

    def test_rounding_term_absent_at_ordinary_steps(self, chain_certified):
        cert, g = chain_certified
        lyap = CompositeLyapunov(cert, g)
        net = truncate(chain_gen(), 20)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        rep = verify_dissipation(integrate(net, x0, Zero(), 1.0, 1e-3, lyapunov=lyap), lyap)
        assert rep.n_rounding == 0 and "rounding" not in rep.to_dict()
        assert rep.to_dict()["tol_coefficient"] == 20.0

    def test_forced_traffic_envelope_and_dissipation(self, traffic_certified):
        cert, g = traffic_certified
        lyap = CompositeLyapunov(cert, g)
        net = truncate(sgain.make_scenario("traffic").family, 60)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        sig = GeometricProfile(1.0, 0.5)
        traj = integrate(net, x0, sig, 6.0, 1e-3, lyapunov=lyap)
        assert verify_dissipation(traj, lyap).ok
        assert verify_envelope(traj, lyap).ok

    def test_norm_level_envelope(self, traffic_certified):
        cert, g = traffic_certified
        lyap = CompositeLyapunov(cert, g)
        net = truncate(sgain.make_scenario("traffic").family, 60)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        sig = GeometricProfile(1.0, 0.5)
        traj = integrate(net, x0, sig, 6.0, 1e-3, lyapunov=lyap)
        env = lyap.envelope_norm(traj.t, traj.norm_p[0], traj.u_sup_norm,
                                 0.5 * float(cert.lambda_inf))
        assert np.all(traj.norm_p <= env + 20.0 * traj.step * (1.0 + env))


class TestCoercivity:
    """V's sandwich on a truncation, read off V itself: over ``|x| = 1`` the
    extremes of ``V = sum_i mu_i x_i'P x_i`` are ``min_i mu_i lambda_min(P)``
    and ``max_i mu_i lambda_max(P)``, attained at ``e_i`` times P's eigenvectors."""

    @pytest.mark.parametrize("n", [1, 3, 16, 40])
    def test_interval_of_the_truncations_own_mu(self, traffic_scenario, traffic_certified, n):
        cert, g = traffic_certified
        lyap = CompositeLyapunov(cert, g)
        bound = BoundLyapunov(lyap, truncate(traffic_scenario.family, n))
        v = bound.leading(np.eye(n), np.eye(n)).tolist()  # V(e_i) = mu_i / 2
        head = [float(m) for m in cert.mu.head(n)]
        assert [min(v), max(v)] == [0.5 * min(head), 0.5 * max(head)]
        bounds = [lyap.coercivity_lo, lyap.coercivity_hi]
        assert bounds == [0.5 * float(cert.mu_lo), 0.5 * float(cert.mu_hi)]
        assert bounds[0] <= min(v) and max(v) <= bounds[1]
        assert g.vform.alpha == (0.5, 0.5)

    def test_lure_interval_meets_its_bounds(self, platoon_scenario, platoon_gains):
        lyap = CompositeLyapunov(*sgain.certify(platoon_gains))
        bound = BoundLyapunov(lyap, truncate(platoon_scenario.family, 10))
        alpha_lo, alpha_hi = platoon_gains.vform.alpha
        _, vecs = np.linalg.eigh(platoon_gains.vform.matrix())
        xs = (np.kron(np.eye(10), vec) for vec in vecs.T[[0, -1]])  # rows e_i (x) vec
        lo, hi = (bound.leading(x, x * x) for x in xs)
        assert min(lo) == pytest.approx(lyap.coercivity_lo, rel=1e-12)
        assert max(hi) == pytest.approx(lyap.coercivity_hi, rel=1e-12)
        assert alpha_lo < alpha_hi


class TestLureSectorEndToEnd:
    """Sector-active blocks: the derived gains certify every ``phi`` in the
    sector, so they must dissipate along the trajectories of each simulated
    one, its slope folded into the blocks."""

    @pytest.mark.parametrize("phi", ["saturation", "midpoint-linear"])
    def test_certified_dissipation_under_sector_nonlinearity(self, phi):
        from sgain.families import LureBanded
        fam = LureBanded(a=((-2.0,),), e=((1.0,),), g=((1.0,),), b=((1.0,),),
                         d_left=((0.1,),), d_right=((0.1,),),
                         sector_l=Fraction(-1, 2), sector_r=Fraction(1, 2),
                         phi=phi)
        g = sgain.derive_gains_lure(fam, [[0.5]], kappa=2.5, eps=0.25, tau=1.0)
        cert, g_used = sgain.certify(g)
        lyap = CompositeLyapunov(cert, g_used)
        net = truncate(fam, 30)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 2.0})
        traj = integrate(net, x0, ConstantOnFirstK(5, 0.3), 5.0, 1e-3,
                         lyapunov=lyap)
        assert verify_dissipation(traj, lyap).ok
        assert verify_envelope(traj, lyap).ok


class TestFitDecay:
    def test_scalar_rate_two(self):
        net = scalar_net()
        # V = x^2/2 decays at rate 2 for dx/dt = -x
        traj = integrate(net, np.array([1.0]), Zero(), 3.0, 1e-3)
        fake_v = dataclasses.replace(traj, v=0.5 * traj.norm_p ** 2)
        fit = fit_decay(fake_v, "v")
        assert fit.rate == pytest.approx(2.0, rel=1e-2)

    def test_counter_slow_rate_at_index_200(self):
        gen = sgain.make_scenario("counter-slow").family
        net = truncate(gen, 200)
        x0 = initial_state(net, {"kind": "unit", "index": 200})
        traj = integrate(net, x0, Zero(), 10.0, 1e-2)
        fit = fit_decay(traj, "norm")
        assert fit.rate == pytest.approx(1.0 / 200.0, rel=0.2)

    def test_counter_gain_steady_states(self):
        gen = sgain.make_scenario("counter-gain").family
        n = 50
        net = truncate(gen, n)
        traj = integrate(net, np.zeros(n), ConstantOnFirstK(n, 1.0), 7.0, 1e-3, keep=n)
        final = traj.states[-1]
        expected = np.arange(1, n + 1, dtype=float)
        assert np.all(np.abs(final - expected) <= 0.01 * expected)

    def test_insufficient_data(self):
        net = scalar_net()
        traj = integrate(net, np.array([0.0]), Zero(), 1.0, 0.5)  # identically zero
        with pytest.raises(InsufficientDataError):
            fit_decay(traj, "norm")


class TestTruncationProbe:
    def test_decoupled_exactly_zero(self):
        gen = chain_gen(b_off=0)
        rows = truncation_convergence_probe(
            gen, {"kind": "first-k", "K": 3, "value": 1.0}, Zero(),
            horizon=2.0, step=1e-2, n_list=(8, 16, 32), first_k=3)
        assert all(r["max_deviation"] == 0.0 for r in rows)

    def test_chain_deviations_shrink(self):
        # strong coupling so the wavefront actually reaches the boundary
        gen = chain_gen(b_off=1)
        rows = truncation_convergence_probe(
            gen, {"kind": "first-k", "K": 3, "value": 1.0}, Zero(),
            horizon=10.0, step=1e-2, n_list=(8, 16, 32), first_k=3)
        devs = [r["max_deviation"] for r in rows]
        assert devs[1] < devs[0]

    def test_weak_chain_deviations_vanish(self):
        gen = chain_gen()
        rows = truncation_convergence_probe(
            gen, {"kind": "first-k", "K": 5, "value": 1.0}, Zero(),
            horizon=5.0, step=1e-2, n_list=(20, 40, 80), first_k=5)
        devs = [r["max_deviation"] for r in rows]
        assert all(d <= 1e-14 for d in devs)  # front never reaches index 20

    def test_window_validation(self):
        with pytest.raises(ParameterError):
            truncation_convergence_probe(
                chain_gen(), {"kind": "first-k", "K": 5}, Zero(),
                1.0, 1e-2, n_list=(4, 8), first_k=5)

    @pytest.mark.parametrize("first_k", [-3, 0, 5, 2.5])
    def test_window_outside_the_smallest_truncation(self, first_k):
        with pytest.raises(ParameterError, match="first_k"):
            truncation_convergence_probe(chain_gen(), {"kind": "first-k", "K": 3}, Zero(),
                                         1.0, 1e-2, n_list=(5, 8), first_k=first_k)

    def test_empty_size_list(self):
        with pytest.raises(ParameterError, match="at least one truncation size"):
            truncation_convergence_probe(
                chain_gen(), {"kind": "first-k", "K": 5}, Zero(), 1.0, 1e-2, n_list=[], first_k=5)

    def test_budget_counts_the_window_not_the_truncation(self, monkeypatch):
        """A truncation stores (T/h + 1) x first-K columns: 501 x 10 here, where
        storing the N = 400 run's every state would take 501 x 800."""
        fam = sgain.make_scenario("lure-platoon").family
        args = ({"kind": "first-k", "K": 5, "value": 1.0}, GeometricProfile(1.0, 0.5), 0.5, 1e-3)
        windows = []
        for n in (20, 400):
            net = truncate(fam, n)
            traj = integrate(net, initial_state(net, args[0]), *args[1:], keep=net.dim)
            windows.append(traj.states[:, :10])
        monkeypatch.setattr(sgain.sim, "_STATE_BUDGET", 501 * 10)
        rows = truncation_convergence_probe(fam, *args, n_list=[20, 400], first_k=5)
        dev = float(np.sqrt(((windows[0] - windows[1]) ** 2).sum(axis=1)).max())
        assert rows == [{"n_small": 20, "n_large": 400, "max_deviation": dev}]
        with pytest.raises(ResourceError, match="501 x 12 stored floats"):
            truncation_convergence_probe(fam, *args, n_list=[20, 400], first_k=6)

    def test_unstable_chain_reported_without_judgment(self):
        # gain-condition-violating chain: the probe still returns rows
        gen = chain_gen(1, 2)
        rows = truncation_convergence_probe(
            gen, {"kind": "first-k", "K": 3, "value": 1e-6}, Zero(),
            horizon=3.0, step=1e-2, n_list=(8, 16), first_k=3)
        assert len(rows) == 1 and rows[0]["max_deviation"] >= 0.0


def _csv_writer_export(traj, path):
    """The rows ``csv.writer`` writes from every cell's ``repr``."""
    states = np.empty((traj.t.size, 0)) if traj.states is None else traj.states
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "norm_p", "V", "u_norm"]
                   + [f"x_{i}" for i in range(1, states.shape[1] + 1)])
        for k in range(traj.t.size):
            w.writerow([repr(float(traj.t[k])), repr(float(traj.norm_p[k])),
                        "" if traj.v is None else repr(float(traj.v[k])),
                        repr(float(traj.u_norm[k]))] + [repr(float(v)) for v in states[k]])


class TestExport:
    @pytest.mark.parametrize("with_v", [True, False])
    @pytest.mark.parametrize("keep", [0, 4])
    def test_bytes_of_csv_writer(self, tmp_path, with_v, keep):
        rng = np.random.default_rng(5)
        cells = rng.standard_normal((6, 7)) * 10.0 ** rng.integers(-320, 300, (6, 7))
        cells[1, :] = [-0.0, 0.0, 5e-324, -2.5e-310, np.finfo(float).tiny, 1e-300, -1e22]
        traj = sgain.sim.TrajectoryRecord(
            t=cells[:, 0], states=cells[:, 3:3 + keep] if keep else None,
            norm_p=np.abs(cells[:, 1]), v=cells[:, 2] if with_v else None,
            u_norm=np.abs(cells[:, 3]), u_sup_norm=1.0, step=0.1, diverged=False)
        export_csv(traj, tmp_path / "fast.csv")
        _csv_writer_export(traj, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_csv_columns(self, tmp_path, chain_certified):
        cert, g = chain_certified
        lyap = CompositeLyapunov(cert, g)
        net = truncate(chain_gen(), 5)
        x0 = initial_state(net, {"kind": "first-k", "K": 2, "value": 1.0})
        traj = integrate(net, x0, Zero(), 0.1, 0.01, lyapunov=lyap, keep=net.dim)
        path = tmp_path / "traj.csv"
        export_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t, norm_p, V, u_norm, x_1, x_2, x_3, x_4, x_5".replace(", ", ",")
        assert len(lines) == traj.t.size + 1
