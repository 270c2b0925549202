"""Gain derivations, the banded operator, and the spectral bracket."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

import sgain
from sgain import (DerivationError, InvalidCertificateError, LinearChain,
                   NetworkGenerator, ResourceError,
                   build_gain_operator, check_assumptions, check_lure_lmi,
                   derive_gains_linear_chain, derive_gains_lure,
                   derive_gains_traffic, gamma_norm,
                   operator_power_column_sums, spectral_bracket)
from sgain.network import LureBanded
from sgain.seqrules import PeriodicSeq


def chain_gen(b_diag=1, b_off=Fraction(1, 10)):
    return NetworkGenerator(family=LinearChain.uniform(b_diag, b_off))


def dense_psi(op, n):
    return op.truncation(n)


class TestChainDerivation:
    def test_reference_values_exact(self, chain_gains):
        g = chain_gains
        assert g.lam.at(1) == Fraction(8, 5)
        assert g.lam.at(17) == Fraction(8, 5)
        assert g.gamma.row(1) == {1: Fraction(1, 20)}
        assert g.gamma.row(9) == {-1: Fraction(1, 20), 1: Fraction(1, 20)}
        assert g.alpha_lo_bound == Fraction(1, 2) == g.alpha_hi_bound
        assert (g.p, g.q) == (2, 2)

    def test_decoupled(self):
        g = derive_gains_linear_chain(chain_gen(b_off=0), Fraction(1, 10), Fraction(1, 10))
        assert gamma_norm(g) == 0
        op = build_gain_operator(g)
        assert op.norm_1() == 0

    def test_precondition_boundary(self):
        with pytest.raises(DerivationError):
            derive_gains_linear_chain(chain_gen(), Fraction(1, 2), Fraction(1, 2))

    def test_default_grid_search_is_feasible(self):
        g = derive_gains_linear_chain(chain_gen())
        assert g.lam.min() > 0
        op = build_gain_operator(g)
        assert float(op.norm_1()) < 1


class TestLureLmi:
    def test_pure_linear_stable_case(self):
        # A'M + MA = -2 kappa M makes the block matrix -kappa M (+) 0
        m = np.array([[2.0, 0.0], [0.0, 1.0]])
        kappa = 0.8
        a = -kappa * np.eye(2)  # A'M + MA = -2 kappa M for diagonal M
        ok, worst = check_lure_lmi(a, m, np.zeros((2, 1)), np.zeros((1, 2)),
                                   kappa, -1.0, 1.0, 0.0)
        assert ok and worst <= 1e-9 * 10

    def test_excessive_decay_rate_fails(self):
        m = np.eye(2)
        a = np.array([[0.0, 1.0], [-1.0, -2.0]])
        ok, worst = check_lure_lmi(a, m, np.zeros((2, 1)), np.zeros((1, 2)),
                                   50.0, -1.0, 1.0, 0.0)
        assert not ok and worst > 0

    def test_block_matrix_against_independent_assembly(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = rng.integers(1, 4)
            a = rng.standard_normal((n, n))
            m = rng.standard_normal((n, n))
            m = m @ m.T + np.eye(n)
            e = rng.standard_normal((n, 1))
            g = rng.standard_normal((1, n))
            kappa, tau = float(rng.uniform(0.1, 2)), float(rng.uniform(0, 2))
            l, r = sorted(rng.uniform(-2, 2, size=2))
            if r - l < 1e-3:
                r = l + 1.0
            ok, worst = check_lure_lmi(a, m, e, g, kappa, l, r, tau)
            blk = np.zeros((n + 1, n + 1))
            blk[:n, :n] = a.T @ m + m @ a + kappa * m - r * l * np.outer(g.ravel(), g.ravel())
            blk[:n, n] = (m @ e).ravel() + tau * 0.5 * (r + l) * g.ravel()
            blk[n, :n] = blk[:n, n]
            blk[n, n] = -tau
            oracle_worst = float(np.linalg.eigvalsh(blk).max())
            assert worst == pytest.approx(oracle_worst, abs=1e-10)
            assert ok == (oracle_worst <= 1e-9 * (1 + np.abs(blk).max()))

    def test_certified_lmi_implies_sampled_decay(self):
        # scalar sector system: a = -2, e = 1, g = 1, sector (-1/2, 1/2)
        a, m, e, g = -2.0, 0.5, 1.0, 1.0
        kappa, tau = 2.5, 1.0
        ok, _ = check_lure_lmi([[a]], [[m]], [[e]], [[g]], kappa, -0.5, 0.5, tau)
        assert ok
        for x in np.linspace(-3, 3, 61):
            s = g * x
            for phi in (-0.5 * s, 0.0, 0.3 * s, 0.5 * s):  # sector samples
                lhs = 2 * x * m * (a * x + e * phi)
                assert lhs <= -kappa * m * x * x + 1e-9

    def test_platoon_instance_accepted(self, platoon_scenario, platoon_gains):
        d = platoon_scenario.derivation
        fam = platoon_scenario.generator.family
        ok, worst = check_lure_lmi(fam.a, d["M"], fam.e, fam.g, d["kappa"],
                                   fam.sector_l, fam.sector_r, d["tau"])
        assert ok
        m = np.array(d["M"], dtype=float)
        eigs = np.linalg.eigvalsh(m)
        assert platoon_gains.alpha_lo_bound == pytest.approx(eigs[0])
        assert platoon_gains.alpha_hi_bound == pytest.approx(eigs[-1])

    def test_indefinite_m_rejected(self, platoon_scenario):
        with pytest.raises(InvalidCertificateError):
            derive_gains_lure(platoon_scenario.generator,
                              [[1.0, 0.0], [0.0, -1.0]], 0.5, 0.125)


class TestLureDerivation:
    def test_scalar_reduction_matches_chain(self):
        # scalar blocks A = -b, D = (b_off, b_off): the Lur'e route with
        # split eps equals the chain route with eps/2 on each side except
        # that both neighbor gains aggregate the full D norm.
        b, b_off, eps = 1.0, 0.1, 0.2
        fam = LureBanded(a=((-b,),), e=((0.0,),), g=((0.0,),), b=((0.0,),),
                         d_left=((b_off,),), d_right=((b_off,),),
                         sector_l=-1, sector_r=1, phi="zero")
        gen = NetworkGenerator(family=fam)
        g_lure = derive_gains_lure(gen, [[0.5]], kappa=2 * b, eps=eps)
        g_chain = derive_gains_linear_chain(chain_gen(b, b_off),
                                            eps / 2, eps / 2)
        assert float(g_lure.lam.at(3)) == pytest.approx(float(g_chain.lam.at(3)))
        chain_row = g_chain.gamma.row(3)
        lure_row = g_lure.gamma.row(3)
        total_chain = float(chain_row[-1] + chain_row[1])
        assert float(lure_row[-1]) == pytest.approx(total_chain)
        assert float(lure_row[1]) == pytest.approx(total_chain)

    def test_isolated_blocks(self):
        fam = LureBanded(a=((-1.0,),), e=((0.0,),), g=((0.0,),), b=((0.0,),),
                         d_left=((0.0,),), d_right=((0.0,),),
                         sector_l=-1, sector_r=1, phi="zero")
        g = derive_gains_lure(NetworkGenerator(family=fam), [[1.0]], 1.0, 0.1)
        assert gamma_norm(g) == 0
        assert float(g.gamma_u_hi) == 0


class TestTrafficDerivation:
    def test_two_neighbor_cell_gain(self, traffic_gains):
        # S4 cell with v = l = 1, c = 1/10, eps = 1/10:
        # ||D||^2 = 2 c^2 = 1/50, gamma = (1/50) / (1/5) = 1/10
        row6 = traffic_gains.gamma.row(6)
        assert set(row6) == {-1, 4}
        assert row6[-1] == Fraction(1, 10) == row6[4]

    def test_single_neighbor_cell_and_entry_gain(self, traffic_gains):
        row4 = traffic_gains.gamma.row(4)  # S2: single neighbor at +4
        assert set(row4) == {4}
        assert row4[4] == Fraction(1, 20)
        assert traffic_gains.gamma_u.at(4) == Fraction(5, 1)  # r^2/(2 eps)
        assert traffic_gains.gamma_u.at(5) == Fraction(5, 4)  # (r/2)^2/(2 eps)
        assert traffic_gains.gamma_u.at(6) == 0

    def test_decoupling_limit(self):
        s = sgain.make_scenario("traffic", {"coefficients": {"c": "0.0001"}})
        g = derive_gains_traffic(s.generator, Fraction(1, 10))
        assert float(gamma_norm(g)) < 1e-6

    def test_class_gain_consistency_200_indices(self, traffic_gains):
        fam = sgain.make_scenario("traffic").generator.family
        eps = Fraction(1, 10)
        for i in range(1, 201):
            _, e_i, d, b_i = fam.cell(i)
            lam_expected = 2 * (fam.flow(i) + e_i - 2 * eps)
            assert traffic_gains.lam.at(i) == lam_expected
            dsq = sum(w * w for w in d.values())
            for off in d:
                assert traffic_gains.gamma.row(i)[off] == dsq / (2 * eps)
            assert traffic_gains.gamma_u.at(i) == b_i * b_i / (2 * eps)

    def test_uniform_decay_precondition(self):
        with pytest.raises(DerivationError):
            derive_gains_traffic(sgain.make_scenario("traffic").generator,
                                 Fraction(1, 2))


class TestGainOperator:
    def test_chain_entries_exact(self, chain_operator):
        assert chain_operator.rows.row(1) == {1: Fraction(1, 32)}
        assert chain_operator.rows.row(5) == {-1: Fraction(1, 32), 1: Fraction(1, 32)}
        assert chain_operator.norm_1() == Fraction(1, 16)

    def test_traffic_sparsity_matches_adjacency(self, traffic_gains):
        op = build_gain_operator(traffic_gains)
        fam = sgain.make_scenario("traffic").generator.family
        for i in range(1, 201):
            offsets = tuple(sorted(op.rows.row(i)))
            assert offsets == tuple(sorted(fam.cell(i)[2]))

    def test_gamma_norm_chain(self, chain_gains):
        assert gamma_norm(chain_gains) == Fraction(1, 10)

    def test_gamma_norm_brute_force_traffic(self, traffic_gains):
        cols = [float(traffic_gains.gamma.column_sum(j)) for j in range(1, 201)]
        assert float(gamma_norm(traffic_gains)) == pytest.approx(max(cols), rel=1e-15)

    def test_lemma3_norm_bound(self, chain_gains, traffic_gains):
        for g in (chain_gains, traffic_gains):
            op = build_gain_operator(g)
            assert float(op.norm_1()) <= float(gamma_norm(g)) / float(g.lam_lo) + 1e-15


class TestOperatorPowers:
    def test_k1_equals_column_sums(self, chain_operator):
        assert operator_power_column_sums(chain_operator, 1)[1] == chain_operator.norm_1()

    def test_zero_operator(self):
        g = derive_gains_linear_chain(chain_gen(b_off=0), Fraction(1, 10), Fraction(1, 10))
        op = build_gain_operator(g)
        for k in (1, 2, 5):
            assert operator_power_column_sums(op, k)[k] == 0

    @pytest.mark.parametrize("fixture,k", [("chain", 2), ("chain", 5), ("traffic", 3)])
    def test_dense_oracle(self, fixture, k, chain_gains, traffic_gains):
        g = chain_gains if fixture == "chain" else traffic_gains
        op = build_gain_operator(g)
        n = 64
        pad = n + (k + 1) * op.bandwidth
        dense = np.linalg.matrix_power(dense_psi(op, pad), k)
        interior = dense[:, :n].sum(axis=0)
        mine = float(operator_power_column_sums(op, k)[k])
        horizon = op.preamble_len + k * op.bandwidth + op.period
        assert horizon <= n
        assert mine == pytest.approx(interior[:horizon].max(), rel=1e-12)

    def test_submultiplicativity(self, chain_gains, traffic_gains):
        for g in (chain_gains, traffic_gains):
            op = build_gain_operator(g)
            norms = [float(x) for x in operator_power_column_sums(op, 6)]
            for j in range(1, 4):
                for k in range(1, 4):
                    assert norms[j + k] <= norms[j] * norms[k] * (1 + 1e-12)

    def test_one_table_matches_separate_runs(self, chain_gains, traffic_gains):
        ops = [build_gain_operator(g) for g in (chain_gains, traffic_gains,
                                                TestNontrivialPeriodicStructures.make_gains())]
        for op in ops:
            table = operator_power_column_sums(op, 6)
            assert len(table) == 7 and table[0] == 1
            for k in range(1, 7):
                assert table[k] == operator_power_column_sums(op, k)[k]

    def test_band_budget(self, chain_operator):
        with pytest.raises(ResourceError):
            operator_power_column_sums(chain_operator, 10_000)
        with pytest.raises(ResourceError):
            sgain.neumann_eta(chain_operator, Fraction(1, 10), terms=100_000)


class TestSpectralBracket:
    def test_chain_toeplitz_oracle(self, chain_operator):
        br = spectral_bracket(chain_operator, k_max=6)
        assert br.lower == br.upper == Fraction(1, 16)
        assert br.satisfied

    def test_lower_monotone_in_n(self, chain_operator):
        # Psi dominates its leading sections, so the section Collatz-Wielandt
        # bound grows with the section size and stays under the bracket's lower.
        from sgain.gains import _collatz_wielandt, _perron_vector
        m = chain_operator.bandwidth
        lowers = []
        for n in (8, 16, 32, 64):
            v = _perron_vector(chain_operator.truncation(n).T)
            lowers.append(_collatz_wielandt(chain_operator, v + [0] * m, 0, n))
        assert all(b >= a - 1e-9 for a, b in zip(lowers, lowers[1:]))
        assert lowers[-1] <= spectral_bracket(chain_operator, k_max=2).lower

    def test_bracket_contains_dense_perron_root(self, chain_gains, traffic_gains):
        for g in (chain_gains, traffic_gains):
            op = build_gain_operator(g)
            br = spectral_bracket(op, k_max=8)
            for n in (8, 16, 24, 48, 64):
                eigs = np.linalg.eigvals(dense_psi(op, n))
                r = float(np.abs(eigs).max())
                assert r <= br.lower + 1e-9
                assert r <= float(br.upper) + 1e-9

    def test_failing_chain(self):
        g = derive_gains_linear_chain(chain_gen(1, 1), Fraction(1, 4), Fraction(1, 4))
        assert g.lam.at(2) == 1 and g.gamma.row(2)[1] == 2
        op = build_gain_operator(g)
        br = spectral_bracket(op, k_max=4)
        assert br.lower > 1 and not br.satisfied

    def test_underflowing_powers_keep_a_true_upper_bound(self):
        g = derive_gains_linear_chain(chain_gen(1, Fraction(1, 10 ** 16)),
                                      Fraction(1, 10), Fraction(1, 10))
        op = build_gain_operator(g)
        br = spectral_bracket(op, k_max=12)
        assert br.lower <= br.upper
        norm = operator_power_column_sums(op, br.k_used)[br.k_used]
        assert Fraction(br.upper) ** br.k_used >= norm

    def test_overflowing_powers_keep_a_true_upper_bound(self):
        # ||Psi|| = 4 * 10^6, so ||Psi^k|| no longer fits a float near k = 47.
        g = derive_gains_linear_chain(chain_gen(1, 1000), Fraction(1, 4), Fraction(1, 4))
        br = spectral_bracket(build_gain_operator(g), k_max=60)
        assert br.upper == 4_000_000
        assert br.lower > 1 and not br.satisfied

    def test_reducible_chains(self):
        def op(diag, sub, sup, eps):
            fam = LinearChain(diag=PeriodicSeq.constant(diag), sub=PeriodicSeq.constant(sub),
                              sup=PeriodicSeq((), sup))
            return build_gain_operator(
                derive_gains_linear_chain(NetworkGenerator(family=fam), eps, eps))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = spectral_bracket(op(Fraction(1, 5), 1, (0, 1), Fraction(1, 12)))
            one_sided = spectral_bracket(op(1, Fraction(1, 2), (0,), Fraction(1, 4)))
        assert found.lower <= found.upper
        assert found.lower >= 0.999 * found.upper
        assert one_sided.lower == one_sided.upper == Fraction(1, 2)

    def test_zero_operator_bracket(self):
        g = derive_gains_linear_chain(chain_gen(b_off=0), Fraction(1, 10), Fraction(1, 10))
        br = spectral_bracket(build_gain_operator(g), k_max=3)
        assert br.lower == 0 and br.upper == 0 and br.satisfied

    def test_scaling_covariance(self, chain_gains):
        import dataclasses
        s = Fraction(3, 2)
        scaled = dataclasses.replace(
            chain_gains, gamma=chain_gains.gamma.scale_rows(lambda i: s))
        op0 = build_gain_operator(chain_gains)
        op1 = build_gain_operator(scaled)
        for k in (1, 2, 4):
            a = operator_power_column_sums(op0, k)[k]
            b = operator_power_column_sums(op1, k)[k]
            assert b == s ** k * a
        br0 = spectral_bracket(op0, k_max=3)
        br1 = spectral_bracket(op1, k_max=3)
        assert float(br1.upper) == pytest.approx(float(s) * float(br0.upper), rel=1e-12)
        assert br1.lower == pytest.approx(float(s) * br0.lower, rel=1e-6)


class TestAssumptions:
    def test_chain_all_pass(self, chain_gains):
        rep = check_assumptions(chain_gains)
        assert rep.ok and not rep.failed and not rep.conservative

    def test_counter_slow_fails_decay_first(self):
        g = sgain.derive_scenario_gains(sgain.make_scenario("counter-slow"))
        rep = check_assumptions(g)
        assert not rep.ok
        assert rep.first_failed == "lambda_lo"
        assert rep.conservative

    def test_counter_gain_fails_input_gain_only(self):
        g = sgain.derive_scenario_gains(sgain.make_scenario("counter-gain"))
        rep = check_assumptions(g)
        assert rep.failed == ("gamma_u",)


class TestExponentGuard:
    def test_non_quadratic_exponents_rejected(self):
        gen = NetworkGenerator(family=LinearChain.uniform(1, Fraction(1, 10)), p=3, q=2)
        with pytest.raises(sgain.ParameterError, match="p = q = 2"):
            derive_gains_linear_chain(gen, Fraction(1, 10), Fraction(1, 10))


class TestNontrivialPeriodicStructures:
    """Preamble plus cycle rules with mismatched periods (lcm alignment)."""

    @staticmethod
    def make_gains():
        fam = LinearChain(
            diag=PeriodicSeq((2,), (1, Fraction(3, 2))),          # preamble 1, period 2
            sub=PeriodicSeq((), (Fraction(1, 10), Fraction(1, 5))),
            sup=PeriodicSeq((), (Fraction(1, 5),)),
        )
        eps = PeriodicSeq((), (Fraction(1, 10), Fraction(1, 20), Fraction(1, 10)))
        delta = Fraction(1, 10)                                    # period 3 vs 2
        return derive_gains_linear_chain(NetworkGenerator(family=fam), eps, delta)

    def test_rates_follow_the_combined_cycle(self):
        g = self.make_gains()
        period = g.lam.period
        assert period % 6 == 0  # lcm of coefficient period 2 and eps period 3
        for i in range(g.lam.preamble_len + 1, g.lam.preamble_len + 30):
            assert g.lam.at(i) == g.lam.at(i + period)
            assert g.gamma.row(i) == g.gamma.row(i + period)

    def test_operator_power_against_dense(self):
        g = self.make_gains()
        op = build_gain_operator(g)
        for k in (1, 2, 4):
            pad = 80
            dense = np.linalg.matrix_power(op.truncation(pad), k)
            horizon = op.preamble_len + k * op.bandwidth + op.period
            interior = dense[:, :horizon].sum(axis=0)
            mine = float(operator_power_column_sums(op, k)[k])
            assert mine == pytest.approx(interior.max(), rel=1e-12)

    def test_certificate_brute_force_scan(self):
        g = self.make_gains()
        cert, g_used, op, bracket = sgain.certify(g)
        assert bracket.satisfied
        worst = -float("inf")
        for i in range(1, 400):
            incoming = sum(float(cert.mu.at(j)) * float(g.gamma.row(j).get(i - j, 0))
                           for j in range(max(1, i - 1), i + 2))
            margin = (-float(g.lam.at(i)) * float(cert.mu.at(i)) + incoming
                      + float(cert.lambda_inf) * float(cert.mu.at(i)))
            worst = max(worst, margin)
        assert worst <= 1e-12


class TestGainDataExtras:
    def test_free_params_recorded(self, chain_gains, traffic_gains):
        assert chain_gains.free_params["eps"].at(3) == Fraction(1, 10)
        assert chain_gains.free_params["delta"].at(3) == Fraction(1, 10)
        assert traffic_gains.free_params["eps"].at(1) == Fraction(1, 10)

    def test_gamma_hi_exact(self, chain_gains, traffic_gains):
        assert chain_gains.gamma_hi == Fraction(1, 20)
        assert traffic_gains.gamma_hi == Fraction(1, 10)  # two-neighbor cells
        g = derive_gains_linear_chain(chain_gen(b_off=0), Fraction(1, 10), Fraction(1, 10))
        assert g.gamma_hi == 0


class TestErrorPaths:
    def test_lmi_shape_mismatch(self):
        with pytest.raises(sgain.ShapeError):
            check_lure_lmi(np.eye(2), np.eye(3), np.zeros((2, 1)),
                           np.zeros((1, 2)), 1.0, -1.0, 1.0, 0.0)
        with pytest.raises(sgain.ShapeError):
            check_lure_lmi(np.eye(2), np.eye(2), np.zeros((3, 1)),
                           np.zeros((1, 2)), 1.0, -1.0, 1.0, 0.0)

    def test_lure_derivation_fails_on_unsupported_rate(self, platoon_scenario):
        d = platoon_scenario.derivation
        with pytest.raises(DerivationError, match="matrix inequality"):
            derive_gains_lure(platoon_scenario.generator, d["M"], kappa=50.0,
                              eps=0.125, tau=1.0)

    def test_chain_error_names_index_class(self):
        fam = LinearChain(diag=PeriodicSeq((), (1, Fraction(1, 5))),
                          sub=PeriodicSeq.constant(Fraction(1, 10)),
                          sup=PeriodicSeq.constant(Fraction(1, 10)))
        with pytest.raises(DerivationError, match="residue"):
            derive_gains_linear_chain(NetworkGenerator(family=fam),
                                      Fraction(1, 10), Fraction(1, 10))
