"""Integration, norms, dissipation/envelope checks, decay fits, probe."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import sgain
from sgain import (InsufficientDataError, LinearChain, NetworkGenerator,
                   NumericInputError, ParameterError, Zero, fit_decay,
                   initial_state, integrate, lp_norm, truncate,
                   truncation_convergence_probe, verify_dissipation)
from sgain.certificate import assemble_lyapunov
from sgain.network import evaluate_rhs
from sgain.sim import (ConstantOnFirstK, GeometricProfile, SinusoidOnFirstK,
                       TrafficLights, export_csv, signal_from_dict,
                       verify_envelope)


def chain_gen(b_diag=1, b_off=Fraction(1, 10)):
    return NetworkGenerator(family=LinearChain.uniform(b_diag, b_off))


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
        a = integrate(net, x0, Zero(), 2.0, 1e-2)
        b = integrate(net, x0, Zero(), 2.0, 1e-2)
        assert np.array_equal(a.states, b.states)

    def test_divergence_flagged_not_raised(self):
        gen = NetworkGenerator(family=LinearChain(
            diag=sgain.seqrules.PeriodicSeq.constant(Fraction(-3, 1) * -1),
            sub=sgain.seqrules.PeriodicSeq.constant(4),
            sup=sgain.seqrules.PeriodicSeq.constant(4)))
        net = truncate(gen, 10)  # strong coupling dominates the diagonal
        x0 = initial_state(net, {"kind": "first-k", "K": 10, "value": 1.0})
        traj = integrate(net, x0, Zero(), horizon=40.0, step=1e-2, blow_up=1e6)
        assert traj.diverged
        assert traj.t[-1] < 40.0

    def test_parameter_validation(self):
        net = scalar_net()
        with pytest.raises(ParameterError):
            integrate(net, np.array([1.0]), Zero(), horizon=1.0, step=0.0)


class TestNorms:
    def test_examples(self):
        assert lp_norm(np.array([1.0, 0.0, 0.0]), 2) == 1.0
        assert lp_norm(np.ones(17), 1) == pytest.approx(17.0)
        assert lp_norm(np.array([3.0, 4.0]), 2) == pytest.approx(5.0)
        assert lp_norm(np.array([3.0, -4.0]), math.inf) == 4.0

    def test_block_aggregation(self):
        x = np.array([3.0, 4.0, 0.0, 1.0])
        assert lp_norm(x, 2, block_dims=[2, 2]) == pytest.approx(math.sqrt(26.0))

    def test_summation_oracle(self):
        rng = np.random.default_rng(11)
        for p in (1.0, 2.0, 3.5):
            x = rng.standard_normal(64)
            direct = sum(abs(float(v)) ** p for v in x) ** (1.0 / p)
            assert lp_norm(x, p) == pytest.approx(direct, rel=1e-12)

    def test_invalid_exponent(self):
        with pytest.raises(ParameterError):
            lp_norm(np.ones(3), 0.5)


class TestSignals:
    @pytest.mark.parametrize("make", [
        lambda: ConstantOnFirstK(5, 2.0),
        lambda: GeometricProfile(1.0, 0.5),
        lambda: SinusoidOnFirstK(8, 1.5, 0.7),
        lambda: TrafficLights(1.0, 2.0, 1.0),
    ])
    def test_reported_norm_dominates_samples(self, make):
        gen = sgain.make_scenario("counter-gain").generator  # one channel per subsystem
        net = truncate(gen, 12)
        sig = make()
        sup = sig.sup_norm_q(net, 2.0)
        for t in np.linspace(0.0, 7.0, 113):
            assert lp_norm(sig.values(net, float(t)), 2.0) <= sup + 1e-12

    def test_traffic_channels_only_on_controlled_cells(self):
        net = truncate(sgain.make_scenario("traffic").generator, 16)
        assert net.input_dim == 4  # cells 4, 5, 12, 13
        sig = ConstantOnFirstK(16, 1.0)
        assert sig.sup_norm_q(net, 2.0) == pytest.approx(2.0)

    def test_round_trip(self):
        for obj in ({"kind": "zero"},
                    {"kind": "constant-first-k", "k": 3, "amplitude": 1.0},
                    {"kind": "geometric", "amplitude": 1.0, "ratio": 0.5},
                    {"kind": "sinusoid-first-k", "k": 2, "amplitude": 1.0, "frequency": 1.0},
                    {"kind": "traffic-lights", "t_on": 1.0, "t_off": 1.0, "amplitude": 1.0}):
            assert signal_from_dict(obj).to_dict() == obj

    def test_geometric_ratio_validated(self):
        with pytest.raises(ParameterError):
            GeometricProfile(1.0, 1.5)


SIGNAL_KINDS = [Zero(), ConstantOnFirstK(7, 1.7), GeometricProfile(1.3, 0.7),
                SinusoidOnFirstK(9, 0.9, 1.3), TrafficLights(0.03, 0.02, -1.1)]
ACTIVE_SECTOR = {"E": [[0.0], [0.1]], "G": [[0.2, 0.1]]}
# (scenario, overrides): linear truncations step as x+ = R x + w, the
# saturation one by RK4 stages; all agree with the stage-wise reference.
FORCED_NETWORKS = [
    ("traffic", {}),
    ("lure-platoon", {}),
    ("lure-platoon", {"coefficients": {"phi": "saturation", **ACTIVE_SECTOR}}),
    ("lure-platoon", {"coefficients": {"phi": "midpoint-linear", **ACTIVE_SECTOR}}),
    ("counter-gain", {}),
]


def _stagewise_rk4(net, x0, sig, horizon, h, blow_up=math.inf):
    """Classical RK4 over ``evaluate_rhs`` with u sampled at every stage,
    stopped after the first step whose block-norm exceeds ``blow_up``."""
    x = np.asarray(x0, dtype=float)
    out = [x]
    for k in range(int(round(horizon / h))):
        t = k * h
        u1, u2, u4 = (sig.values(net, s) for s in (t, t + 0.5 * h, t + h))
        k1 = evaluate_rhs(net, x, u1)
        k2 = evaluate_rhs(net, x + 0.5 * h * k1, u2)
        k3 = evaluate_rhs(net, x + 0.5 * h * k2, u2)
        k4 = evaluate_rhs(net, x + h * k3, u4)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
        if lp_norm(net.block_norms(x), float(net.generator.p)) > blow_up:
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
        net = truncate(sgain.make_scenario(name, overrides).generator, 20)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        traj = integrate(net, x0, sig, horizon=0.2, step=0.004)
        ref = _stagewise_rk4(net, x0, sig, 0.2, 0.004)
        assert traj.states.shape == ref.shape
        assert np.abs(traj.states - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.all(traj.u_norm <= traj.u_sup_norm * (1 + 1e-12))

    def test_step_loop_forms_no_input_vector(self):
        net = truncate(sgain.make_scenario("traffic").generator, 20)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        plain = integrate(net, x0, SinusoidOnFirstK(9, 0.9, 1.3), 0.2, 0.004)
        net.input_matrix = _CountingMatrix(net.input_matrix)
        traj = integrate(net, x0, _UnsampledSinusoid(9, 0.9, 1.3), 0.2, 0.004)
        assert net.input_matrix.products == 1
        assert np.array_equal(traj.states, plain.states)

    def test_inactive_sector_channel_is_never_evaluated(self, monkeypatch):
        from sgain.network import LureBanded

        def refuse(self, s):
            raise AssertionError("an inactive sector channel was evaluated")

        monkeypatch.setattr(LureBanded, "phi_eval", refuse)
        for phi in ("zero", "saturation", "midpoint-linear"):
            gen = sgain.make_scenario("lure-platoon", {"coefficients": {"phi": phi}}).generator
            net = truncate(gen, 10)
            x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
            integrate(net, x0, GeometricProfile(1.0, 0.5), 0.02, 0.004)
        active = {"coefficients": {"phi": "saturation", **ACTIVE_SECTOR}}
        net = truncate(sgain.make_scenario("lure-platoon", active).generator, 10)
        with pytest.raises(AssertionError, match="inactive sector"):
            integrate(net, np.ones(net.dim), Zero(), 0.02, 0.004)


class TestBlocks:
    """Steps and records run a block of rows at a time."""

    def test_divergence_across_a_block_boundary(self, monkeypatch):
        monkeypatch.setattr(sgain.sim, "_BLOCK_FLOATS", 4000)  # 400 rows of 10 states
        net = truncate(NetworkGenerator(family=LinearChain.uniform(1, 10)), 10)
        x0 = initial_state(net, {"kind": "first-k", "K": 10, "value": 1e-300})
        ref = _stagewise_rk4(net, x0, Zero(), 100.0, 0.1, blow_up=1e100)
        assert 400 < len(ref) - 1 < 800  # the blow-up falls in the second block,
        with np.errstate(over="ignore"), pytest.raises(NumericInputError):
            _stagewise_rk4(net, x0, Zero(), 80.0, 0.1)  # whose last steps overflow
        traj = integrate(net, x0, Zero(), 100.0, 0.1, blow_up=1e100)
        assert traj.diverged and traj.states.shape == ref.shape
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(traj.states - ref) <= 1e-12 * scale)
        assert traj.norm_p[-2] <= 1e100 < traj.norm_p[-1] < math.inf

    @pytest.mark.parametrize("store_states", [True, False])
    def test_partial_last_block(self, monkeypatch, chain_certified, store_states):
        cert, g, *_ = chain_certified
        lyap = assemble_lyapunov(cert, g)
        net = truncate(chain_gen(), 10)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        whole = integrate(net, x0, SinusoidOnFirstK(3, 0.5, 2.0), 1.0, 1e-2, lyapunov=lyap)
        monkeypatch.setattr(sgain.sim, "_BLOCK_FLOATS", 70)  # 7 rows: 100 = 14 * 7 + 2
        traj = integrate(net, x0, SinusoidOnFirstK(3, 0.5, 2.0), 1.0, 1e-2, lyapunov=lyap,
                         store_states=store_states)
        assert verify_dissipation(traj, lyap).n_checked == 100
        for name in ("t", "norm_p", "v", "u_norm"):
            assert np.array_equal(getattr(traj, name), getattr(whole, name))
        if store_states:
            assert np.array_equal(traj.states, whole.states)


class TestDissipation:
    def test_certified_chain_no_violations(self, chain_certified):
        cert, g, *_ = chain_certified
        lyap = assemble_lyapunov(cert, g)
        net = truncate(chain_gen(), 50)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        traj = integrate(net, x0, Zero(), 5.0, 1e-3, lyapunov=lyap)
        rep = verify_dissipation(traj, lyap)
        assert rep.ok and rep.n_checked == 5000

    def test_zero_input_v_nonincreasing(self, chain_certified):
        cert, g, *_ = chain_certified
        lyap = assemble_lyapunov(cert, g)
        net = truncate(chain_gen(), 50)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        traj = integrate(net, x0, Zero(), 5.0, 1e-3, lyapunov=lyap)
        assert np.all(np.diff(traj.v) <= 1e-12)

    def test_corrupted_rate_reports_violations(self, chain_certified):
        cert, g, *_ = chain_certified
        lyap = assemble_lyapunov(cert, g)
        net = truncate(chain_gen(), 30)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        traj = integrate(net, x0, Zero(), 3.0, 1e-3, lyapunov=lyap)
        bad_cert = dataclasses.replace(cert, lambda_inf=10 * cert.lambda_inf)
        bad = assemble_lyapunov(bad_cert, g)
        rep = verify_dissipation(traj, bad)
        assert not rep.ok and rep.worst_margin > 0

    def test_forced_traffic_envelope_and_dissipation(self, traffic_certified):
        cert, g, *_ = traffic_certified
        lyap = assemble_lyapunov(cert, g)
        net = truncate(sgain.make_scenario("traffic").generator, 60)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        sig = GeometricProfile(1.0, 0.5)
        traj = integrate(net, x0, sig, 6.0, 1e-3, lyapunov=lyap)
        assert verify_dissipation(traj, lyap).ok
        assert verify_envelope(traj, lyap).ok

    def test_norm_level_envelope(self, traffic_certified):
        cert, g, *_ = traffic_certified
        lyap = assemble_lyapunov(cert, g)
        net = truncate(sgain.make_scenario("traffic").generator, 60)
        x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
        sig = GeometricProfile(1.0, 0.5)
        traj = integrate(net, x0, sig, 6.0, 1e-3, lyapunov=lyap)
        bound = sgain.iss_trajectory_bound(lyap, 0.5 * float(cert.lambda_inf))
        env = bound.envelope_norm(traj.t, traj.norm_p[0], traj.u_sup_norm)
        assert np.all(traj.norm_p <= env + 20.0 * traj.step * (1.0 + env))


class TestLureSectorEndToEnd:
    """Sector-active blocks: derived gains must dissipate along nonlinear
    trajectories for any admissible nonlinearity."""

    @pytest.mark.parametrize("phi", ["saturation", "midpoint-linear"])
    def test_certified_dissipation_under_sector_nonlinearity(self, phi):
        from sgain.network import LureBanded
        fam = LureBanded(a=((-2.0,),), e=((1.0,),), g=((1.0,),), b=((1.0,),),
                         d_left=((0.1,),), d_right=((0.1,),),
                         sector_l=Fraction(-1, 2), sector_r=Fraction(1, 2),
                         phi=phi)
        gen = NetworkGenerator(family=fam)
        g = sgain.derive_gains_lure(gen, [[0.5]], kappa=2.5, eps=0.25, tau=1.0)
        cert, g_used, *_ = sgain.certify(g)
        lyap = assemble_lyapunov(cert, g_used)
        net = truncate(gen, 30)
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
        gen = sgain.make_scenario("counter-slow").generator
        net = truncate(gen, 200)
        x0 = initial_state(net, {"kind": "unit", "index": 200})
        traj = integrate(net, x0, Zero(), 10.0, 1e-2)
        fit = fit_decay(traj, "norm")
        assert fit.rate == pytest.approx(1.0 / 200.0, rel=0.2)

    def test_counter_gain_steady_states(self):
        gen = sgain.make_scenario("counter-gain").generator
        n = 50
        net = truncate(gen, n)
        traj = integrate(net, np.zeros(n), ConstantOnFirstK(n, 1.0), 7.0, 1e-3)
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

    def test_unstable_chain_reported_without_judgment(self):
        # gain-condition-violating chain: the probe still returns rows
        gen = chain_gen(1, 2)
        rows = truncation_convergence_probe(
            gen, {"kind": "first-k", "K": 3, "value": 1e-6}, Zero(),
            horizon=3.0, step=1e-2, n_list=(8, 16), first_k=3)
        assert len(rows) == 1 and rows[0]["max_deviation"] >= 0.0


class TestExport:
    def test_csv_columns(self, tmp_path, chain_certified):
        cert, g, *_ = chain_certified
        lyap = assemble_lyapunov(cert, g)
        net = truncate(chain_gen(), 5)
        x0 = initial_state(net, {"kind": "first-k", "K": 2, "value": 1.0})
        traj = integrate(net, x0, Zero(), 0.1, 0.01, lyapunov=lyap)
        path = tmp_path / "traj.csv"
        export_csv(traj, path, include_states=True)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t, norm_p, V, u_norm, x_1, x_2, x_3, x_4, x_5".replace(", ", ",")
        assert len(lines) == traj.t.size + 1
