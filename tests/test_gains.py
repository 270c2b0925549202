"""Gain derivations, the banded operator, and the spectral bracket."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgain
from sgain import (DerivationError, InvalidCertificateError, LinearChain,
                   ParameterError, ResourceError,
                   build_gain_operator, check_assumptions, check_lure_lmi,
                   classify_traffic_cell, derive_gains_linear_chain, derive_gains_lure,
                   derive_gains_traffic,
                   operator_power_column_sums, spectral_bracket)
from sgain.families import LureBanded
from sgain.gains import _certified_root, _perron_vector, _start_vector
from sgain.seqrules import PeriodicRows, PeriodicSeq, common_den
from test_families import chains, fractions, reference_perron, rules, traffics


def chain_gen(b_diag=1, b_off=Fraction(1, 10)):
    off = PeriodicSeq.constant(b_off)
    return LinearChain(diag=PeriodicSeq.constant(b_diag), sub=off, sup=off)


def dense_psi(op, n):
    return op.section(n)


def weighted_column_max(power, start, horizon):
    """``max_j (w^T P)_j / w_j`` over the first ``horizon`` columns of the
    dense power P, w the start vector: the table's weighted norm."""
    w = np.array([float(x) for x in start.head(power.shape[0])])
    return ((w @ power)[:horizon] / w[:horizon]).max()


class TestChainDerivation:
    def test_reference_values_exact(self, chain_gains):
        g = chain_gains
        assert g.lam.at(1) == Fraction(8, 5)
        assert g.lam.at(17) == Fraction(8, 5)
        assert g.gamma.row(1) == {1: Fraction(1, 20)}
        assert g.gamma.row(9) == {-1: Fraction(1, 20), 1: Fraction(1, 20)}
        assert g.vform.alpha == (0.5, 0.5)

    def test_decoupled(self):
        g = derive_gains_linear_chain(chain_gen(b_off=0), Fraction(1, 10), Fraction(1, 10))
        assert g.gamma.sup_column_sum() == 0
        op = build_gain_operator(g)
        assert op.sup_column_sum() == 0

    def test_precondition_boundary(self):
        with pytest.raises(DerivationError):
            derive_gains_linear_chain(chain_gen(), Fraction(1, 2), Fraction(1, 2))

    @staticmethod
    def sup_row_sum(g):
        """``sup_i (gamma_i(i-1) + gamma_i(i+1)) / lambda_i``: the split's objective."""
        n = g.lam.preamble_len + g.lam.period
        return max(sum(g.gamma.row(i).values()) / g.lam.at(i) for i in range(1, n + 1))

    @pytest.mark.parametrize("b, off, value", [(1, Fraction(1, 10), Fraction(1, 25)),
                                               (1, Fraction(3, 10), Fraction(9, 25)),
                                               (2, Fraction(9, 10), Fraction(81, 100))])
    def test_default_split_in_closed_form(self, b, off, value):
        g = derive_gains_linear_chain(chain_gen(b, off))
        assert all(type(v) is Fraction for rule in (g.free_params["eps"], g.free_params["delta"])
                   for v in rule.values())
        assert self.sup_row_sum(g) == value
        assert build_gain_operator(g).sup_column_sum() == value

    def test_default_split_no_worse_than_a_grid(self):
        """Against the best constant (eps, delta) of a 24 x 24 grid, on a
        period-6 chain whose sub-diagonal coupling vanishes at every other index."""
        fam = LinearChain(diag=PeriodicSeq((), (1, Fraction(3, 2), 2)),
                          sub=PeriodicSeq((), (Fraction(1, 10), 0)),
                          sup=PeriodicSeq((), (Fraction(1, 5), Fraction(1, 10), Fraction(3, 10))))
        g = derive_gains_linear_chain(fam)
        assert g.lam.period == 6
        pre, per = fam.structure
        coeffs = [[float(-a), float(d.get(-1, 0)), float(d.get(1, 0))]  # b_ii, b_i(i-1), b_i(i+1)
                  for a, d, _ in map(fam.blocks, range(1, pre + per + 1))]
        fracs = [float(fam.diag.min()) * (k + 1) / 50.0 for k in range(24)]
        best = min(max((bs * bs / (2 * e) + bp * bp / (2 * d)) / (2 * (bd - e - d))
                       for bd, bs, bp in coeffs)
                   for e in fracs for d in fracs if all(bd > e + d for bd, _, _ in coeffs))
        assert self.sup_row_sum(g) <= best


_QUARTERS = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def _lmi_instances(draw):
    """``(A, M, E, G, l, r, tau, kappa)`` of a 1- or 2-state block: ``A`` a
    decaying diagonal plus quarter-grid entries, ``M = P P' + I``, and a sector
    that mostly straddles zero."""
    n = draw(st.integers(1, 2))

    def mat(rows, cols):
        return np.array(draw(st.lists(_QUARTERS, min_size=rows * cols,
                                      max_size=rows * cols))).reshape(rows, cols)

    a = mat(n, n) - draw(st.sampled_from([0.5, 2.0, 10.0])) * np.eye(n)
    p = mat(n, n)
    l = draw(st.sampled_from([-2, -1, Fraction(-1, 2), 0, Fraction(1, 2)]))
    r = l + draw(st.sampled_from([Fraction(1, 2), 1, 2]))
    return (a.tolist(), (p @ p.T + np.eye(n)).tolist(), mat(n, 1).tolist(), mat(1, n).tolist(),
            l, r, draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 10.0, 1000.0])),
            draw(st.sampled_from([0.1, 0.5, 1.0, 4.0, 18.9])))


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
            blk[:n, :n] = a.T @ m + m @ a + kappa * m - tau * r * l * np.outer(g.ravel(), g.ravel())
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

    @settings(max_examples=300, deadline=None)
    @example(inst=([[-10.0]], [[1.0]], [[2.0]], [[1.0]], -1, 1, 1000.0, 18.9),
             x=[1.0, 0.0], t=1.0)  # accepted when tau did not scale the r l G'G term
    @given(inst=_lmi_instances(), x=st.lists(_QUARTERS, min_size=2, max_size=2),
           t=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    def test_accepted_lmi_implies_sampled_decay_for_every_tau(self, inst, x, t):
        """Whenever the S-procedure block is accepted, at any multiplier tau, every
        sector point ``phi`` between ``l s`` and ``r s`` (``s = G x``) satisfies
        ``2 x'M(Ax + E phi) <= -kappa x'Mx``, up to the accepted largest
        eigenvalue times ``|x|^2 + phi^2`` and rounding."""
        a, m, e, g, l, r, tau, kappa = inst
        ok, worst = check_lure_lmi(a, m, e, g, kappa, l, r, tau)
        if not ok:
            return
        a, m, e, g = (np.array(v, dtype=float) for v in (a, m, e, g))
        x = np.array(x[:len(a)])
        s = float((g @ x)[0])
        phi = ((1 - t) * float(l) + t * float(r)) * s
        mx = m @ x
        terms = (2 * mx @ (a @ x), 2 * float(mx @ e.ravel()) * phi, kappa * (x @ mx))
        slack = max(worst, 0.0) * (x @ x + phi * phi) + 1e-12 * (1 + sum(map(abs, terms)))
        assert terms[0] + terms[1] <= -terms[2] + slack

    def test_platoon_instance_accepted(self, platoon_scenario, platoon_gains):
        d = platoon_scenario.derivation
        fam = platoon_scenario.family
        ok, worst = check_lure_lmi(fam.a, d["M"], fam.e, fam.g, d["kappa"],
                                   fam.sector_l, fam.sector_r, d["tau"])
        assert ok
        m = np.array(d["M"], dtype=float)
        eigs = np.linalg.eigvalsh(m)
        assert platoon_gains.vform.alpha == pytest.approx((eigs[0], eigs[-1]))

    def test_indefinite_m_rejected(self, platoon_scenario):
        with pytest.raises(InvalidCertificateError):
            derive_gains_lure(platoon_scenario.family,
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
        g_lure = derive_gains_lure(fam, [[0.5]], kappa=2 * b, eps=eps)
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
        g = derive_gains_lure(fam, [[1.0]], 1.0, 0.1)
        assert g.gamma.sup_column_sum() == 0
        assert float(g.gamma_u.upper()) == 0

    def test_gains_do_not_depend_on_phi(self):
        """The S-procedure accounts for an acting sector channel itself, so
        ``"zero"`` and the two slopes folded into the diagonal blocks give the
        same gains.  At sector [0, 2] both folds have slope 1: the LMI holds for
        the family's own ``A`` and fails for the folded one (largest eigenvalues
        -0.026 and 0.029)."""
        acting = {"E": [[0.0], [0.25]], "G": [[0.1, 0.2]], "sector": [0, 2]}
        zero, lin, sat = (
            sgain.make_scenario("lure-platoon", {"coefficients": {"phi": phi, **acting}})
            for phi in ("zero", "midpoint-linear", "saturation"))
        assert np.array_equal(lin.family.blocks(1)[0], sat.family.blocks(1)[0])
        assert not np.array_equal(zero.family.blocks(1)[0], lin.family.blocks(1)[0])
        assert (zero.family.derive_gains(zero.derivation)
                == lin.family.derive_gains(lin.derivation)
                == sat.family.derive_gains(sat.derivation))


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
        g = derive_gains_traffic(s.family, Fraction(1, 10))
        assert float(g.gamma.sup_column_sum()) < 1e-6

    def test_class_gain_consistency_200_indices(self, traffic_gains):
        fam = sgain.make_scenario("traffic").family
        eps = Fraction(1, 10)
        for i in range(1, 201):
            a, d, b_i = fam.blocks(i)
            lam_expected = 2 * (-a - 2 * eps)  # A_ii = -(v_i/l_i + e_i)
            assert traffic_gains.lam.at(i) == lam_expected
            dsq = sum(w * w for w in d.values())
            for off in d:
                assert traffic_gains.gamma.row(i)[off] == dsq / (2 * eps)
            assert traffic_gains.gamma_u.at(i) == b_i * b_i / (2 * eps)

    def test_uniform_decay_precondition(self):
        with pytest.raises(DerivationError):
            derive_gains_traffic(sgain.make_scenario("traffic").family,
                                 Fraction(1, 2))


class TestGainOperator:
    def test_chain_entries_exact(self, chain_operator):
        assert chain_operator.row(1) == {1: Fraction(1, 32)}
        assert chain_operator.row(5) == {-1: Fraction(1, 32), 1: Fraction(1, 32)}
        assert chain_operator.sup_column_sum() == Fraction(1, 16)

    def test_traffic_sparsity_matches_adjacency(self, traffic_gains):
        op = build_gain_operator(traffic_gains)
        fam = sgain.make_scenario("traffic").family
        for i in range(1, 201):
            offsets = tuple(sorted(op.row(i)))
            assert offsets == tuple(sorted(fam.blocks(i)[1]))

    def test_gamma_norm_chain(self, chain_gains):
        assert chain_gains.gamma.sup_column_sum() == Fraction(1, 10)

    def test_gamma_norm_brute_force_traffic(self, traffic_gains):
        columns = traffic_gains.gamma.transpose()
        cols = [float(sum(columns.row(j).values())) for j in range(1, 201)]
        assert float(traffic_gains.gamma.sup_column_sum()) == pytest.approx(max(cols), rel=1e-15)

    def test_lemma3_norm_bound(self, chain_gains, traffic_gains):
        for g in (chain_gains, traffic_gains):
            op = build_gain_operator(g)
            bound = float(g.gamma.sup_column_sum()) / float(g.lam.lower())
            assert float(op.sup_column_sum()) <= bound + 1e-15


class TestOperatorPowers:
    def test_k1_equals_column_sums(self, chain_operator):
        assert operator_power_column_sums(chain_operator, 1).norms[1] == chain_operator.sup_column_sum()
        s = sgain.make_scenario("traffic")
        traffic = build_gain_operator(s.family.derive_gains(s.derivation))
        ones = operator_power_column_sums(traffic, 1, PeriodicSeq.constant(1))
        assert ones.norms[1] == traffic.sup_column_sum()

    def test_zero_operator(self):
        g = derive_gains_linear_chain(chain_gen(b_off=0), Fraction(1, 10), Fraction(1, 10))
        op = build_gain_operator(g)
        for k in (1, 2, 5):
            assert operator_power_column_sums(op, k).norms[k] == 0

    @pytest.mark.parametrize("fixture,k", [("chain", 2), ("chain", 5), ("traffic", 3)])
    def test_dense_oracle(self, fixture, k, chain_gains, traffic_gains):
        g = chain_gains if fixture == "chain" else traffic_gains
        op = build_gain_operator(g)
        n = 64
        pad = n + (k + 1) * op.bandwidth
        dense = np.linalg.matrix_power(dense_psi(op, pad), k)
        table = operator_power_column_sums(op, k)
        horizon = op.preamble_len + k * op.bandwidth + op.period
        assert horizon <= n
        assert float(table.norms[k]) == pytest.approx(
            weighted_column_max(dense, table.start, horizon), rel=1e-12)

    def test_submultiplicativity(self, chain_gains, traffic_gains):
        for g in (chain_gains, traffic_gains):
            op = build_gain_operator(g)
            norms = [float(x) for x in operator_power_column_sums(op, 6).norms]
            for j in range(1, 4):
                for k in range(1, 4):
                    assert norms[j + k] <= norms[j] * norms[k] * (1 + 1e-12)

    def test_one_table_matches_separate_runs(self, chain_gains, traffic_gains):
        ops = [build_gain_operator(g) for g in (chain_gains, traffic_gains,
                                                TestNontrivialPeriodicStructures.make_gains())]
        for op in ops:
            table = operator_power_column_sums(op, 6).norms
            assert len(table) == 7 and table[0] == 1
            for k in range(1, 7):
                assert table[k] == operator_power_column_sums(op, k).norms[k]

    def test_band_budget(self, chain_operator):
        with pytest.raises(ResourceError):
            operator_power_column_sums(chain_operator, 10_000)

    @pytest.mark.parametrize("start", [PeriodicSeq((1, 0), (1,)), PeriodicSeq((), (2, -1))])
    def test_start_vector_must_be_positive(self, chain_operator, start):
        with pytest.raises(ParameterError, match="positive"):
            operator_power_column_sums(chain_operator, 0, start)

    def test_norm_types(self, chain_operator):
        """Rational norms are Fractions; a float table's ``norms[0]``, a quotient
        of the int start vector by itself, is ``Fraction(1)`` and the rest floats."""
        s = sgain.make_scenario("lure-platoon")
        floats = operator_power_column_sums(
            build_gain_operator(s.family.derive_gains(s.derivation)), 3)
        assert floats.d == 1 and floats.norms[0] == 1 and type(floats.norms[0]) is Fraction
        assert all(type(x) is float for x in floats.norms[1:])
        exact = operator_power_column_sums(chain_operator, 3)
        assert exact.d > 1 and all(type(x) is Fraction for x in exact.norms)


class TestSpectralBracket:
    def test_chain_toeplitz_oracle(self, chain_operator):
        br = spectral_bracket(chain_operator, k_max=6)
        assert br.lower == br.upper == Fraction(1, 16)
        assert br.satisfied

    def test_lower_monotone_in_n(self, chain_operator):
        # Psi dominates its leading sections, so the section Collatz-Wielandt
        # bound grows with the section size and stays under the bracket's lower.
        from sgain.gains import _collatz_wielandt, _perron_vector
        rows, d = chain_operator.transpose().integer_form
        lowers = []
        for n in (8, 16, 32, 64):
            v = _perron_vector(chain_operator.section(n).T)[0]
            lowers.append(_collatz_wielandt(enumerate(rows.head(n)),
                                            lambda j: v[j] if j < n else 0, d))
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
        norm = operator_power_column_sums(op, br.k_used).norms[br.k_used]
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
                derive_gains_linear_chain(fam, eps, eps))

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
        s, gamma = Fraction(3, 2), chain_gains.gamma
        scaled = dataclasses.replace(chain_gains, gamma=PeriodicRows.tabulate(
            lambda i: {off: v * s for off, v in gamma.row(i).items()},
            gamma.preamble_len, gamma.period, bandwidth=gamma.bandwidth))
        op0 = build_gain_operator(chain_gains)
        op1 = build_gain_operator(scaled)
        for k in (1, 2, 4):
            a = operator_power_column_sums(op0, k).norms[k]
            b = operator_power_column_sums(op1, k).norms[k]
            assert b == s ** k * a
        br0 = spectral_bracket(op0, k_max=3)
        br1 = spectral_bracket(op1, k_max=3)
        assert float(br1.upper) == pytest.approx(float(s) * float(br0.upper), rel=1e-12)
        assert br1.lower == pytest.approx(float(s) * br0.lower, rel=1e-6)


def reference_root(s, k):
    """The k-th root of s rounded up, each candidate checked as a Fraction power."""
    try:
        x = float(s) ** (1.0 / k)
        for _ in range(9):
            if Fraction(x) ** k >= s:
                return x
            x = math.nextafter(x, math.inf)
    except OverflowError:
        pass
    return math.inf


# Norms from 0 to far past either end of the float range, as Fractions,
# floats and ints.
norms = st.one_of(
    st.builds(lambda n, q, e: Fraction(n, q) * Fraction(10) ** e,
              st.integers(0, 10 ** 20), st.integers(1, 10 ** 20), st.integers(-400, 400)),
    st.floats(0, 1e308), st.integers(0, 10 ** 400))


class TestIntegerBracket:
    """The bracket's int arithmetic against Fraction references."""

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    @example(a=[[1.0, 0.0], [1e-13, 0.5]])  # the Perron vector (1, 2e-13): one entry below the floor
    def test_perron_vector_is_the_eigensolve_exactly(self, a):
        """Over a power of two, each numerator is the max-normalised float entry
        scaled exactly, or 0 below 1e-12."""
        a = np.array(a)
        num, den = _perron_vector(a)
        assert den >= 1 and den & (den - 1) == 0
        assert [Fraction(p, den) for p in num] == reference_perron(a)

    @pytest.mark.parametrize("name", ["chain-a", "lure-platoon", "traffic"])
    def test_start_vector_keeps_the_old_rounding(self, name):
        """On the shipped operators the start vector from the exact Perron vector
        is the one from its entries rounded by ``limit_denominator(10 ** 12)``."""
        s = sgain.make_scenario(name)
        psi = build_gain_operator(s.family.derive_gains(s.derivation))
        a = np.array(psi.symbol(), dtype=float).T
        rounded = common_den(f.limit_denominator(10 ** 12).as_integer_ratio()
                             for f in reference_perron(a))
        assert _start_vector(psi, *_perron_vector(a)) == _start_vector(psi, *rounded)

    @settings(max_examples=300, deadline=None)
    @given(s=norms, k=st.integers(2, 60))
    @example(s=Fraction(1, 10 ** 400), k=2)  # float(s) underflows to 0
    @example(s=Fraction(4_000_000) ** 60, k=60)  # float(s) overflows
    def test_certified_root_matches_fraction_reference(self, s, k):
        root = _certified_root(s, k)
        assert root == reference_root(s, k)
        assert math.isinf(root) or Fraction(root) ** k >= s

    def test_certified_root_inf_cases(self):
        assert _certified_root(Fraction(1, 10 ** 400), 2) == math.inf
        assert _certified_root(Fraction(4_000_000) ** 60, 60) == math.inf


class TestAssumptions:
    def test_chain_all_pass(self, chain_gains):
        rep = check_assumptions(chain_gains)
        assert rep.ok and not rep.failed and not rep.conservative

    def test_counter_slow_fails_decay_first(self):
        s = sgain.make_scenario("counter-slow")
        g = s.family.derive_gains(s.derivation)
        rep = check_assumptions(g)
        assert not rep.ok
        assert rep.failed[0] == "lambda_lo"
        assert rep.conservative

    def test_counter_gain_fails_input_gain_only(self):
        s = sgain.make_scenario("counter-gain")
        g = s.family.derive_gains(s.derivation)
        rep = check_assumptions(g)
        assert rep.failed == ("gamma_u",)


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
        return derive_gains_linear_chain(fam, eps, delta)

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
            dense = np.linalg.matrix_power(op.section(pad), k)
            horizon = op.preamble_len + k * op.bandwidth + op.period
            table = operator_power_column_sums(op, k)
            assert float(table.norms[k]) == pytest.approx(
                weighted_column_max(dense, table.start, horizon), rel=1e-12)

    def test_certificate_brute_force_scan(self):
        g = self.make_gains()
        cert, g_used = sgain.certify(g)
        assert cert.bracket.satisfied
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
            derive_gains_lure(platoon_scenario.family, d["M"], kappa=50.0,
                              eps=0.125, tau=1.0)

    def test_chain_error_names_index_class(self):
        fam = LinearChain(diag=PeriodicSeq((), (1, Fraction(1, 5))),
                          sub=PeriodicSeq.constant(Fraction(1, 10)),
                          sup=PeriodicSeq.constant(Fraction(1, 10)))
        with pytest.raises(DerivationError, match="residue"):
            derive_gains_linear_chain(fam,
                                      Fraction(1, 10), Fraction(1, 10))

    @pytest.mark.parametrize("k_max, message", [
        (2.5, "'k_max': must be an integer, got 2.5"), (True, "'k_max': not a number: True"),
        ("x", "'k_max': not a number: 'x'")])
    def test_k_max_is_read_as_a_count(self, chain_gains, chain_operator, k_max, message):
        for run in (lambda: spectral_bracket(chain_operator, k_max),
                    lambda: operator_power_column_sums(chain_operator, k_max),
                    lambda: sgain.certify(chain_gains, k_max=k_max)):
            with pytest.raises(ParameterError) as exc:
                run()
            assert str(exc.value) == message

    def test_integral_k_max_reads_as_its_int(self, chain_operator):
        br = spectral_bracket(chain_operator, 4)
        assert spectral_bracket(chain_operator, 4.0) == spectral_bracket(chain_operator, "4") == br


# The documented cell classes of a traffic network: neighbor offsets, exit
# multiplier (times e) and entry coefficient (times r).
_CELLS = {"S1": ((1,), 0, 0), "S2": ((4,), 0, 1), "S3": ((-4,), 0, Fraction(1, 2)),
          "S4": ((-1, 4), 0, 0), "S5": ((-4, 1), 1, 0), "S6": ((1, 4), 0, 0),
          "S7": ((-4, -1), 0, 0), "S8": ((-1, 4), 2, 0), "S9": ((-4, 1), 0, 0)}


def _chain_reference(fam, eps, delta, i):
    """``(lambda_i, {offset: gamma_ij}, gamma_iu)`` of the chain derivation in
    Fraction arithmetic, from the formulas of its docstrings."""
    b, bp = Fraction(fam.diag.at(i)), fam.sup.at(i)
    bs = 0 if i == 1 else fam.sub.at(i)
    if eps is None:  # the default split: b_ii / 2 in the ratio |b_i(i-1)| : |b_i(i+1)|
        e = b / 100 if bs == 0 else b / 2 - b / 100 if bp == 0 else b / 2 * abs(bs) / (
            abs(bs) + abs(bp))
        d = b / 2 - e
    else:
        e, d = eps.at(i), delta.at(i)
    gamma = {off: c * c / (2 * s) for off, c, s in ((-1, bs, e), (1, bp, d)) if c}
    return 2 * (b - e - d), gamma, 0


def _traffic_reference(fam, eps, i):
    """The same of the traffic derivation, its blocks formed from the coefficients."""
    def flow(j):
        return Fraction(fam.v.at(j)) / fam.l.at(j)

    offsets, exits, entry = _CELLS[classify_traffic_cell(i)]
    e = Fraction(1, 10) if eps is None else eps.at(i)
    gain = sum((fam.c * flow(i + off)) ** 2 for off in offsets) / (2 * e)
    return (2 * (flow(i) + exits * fam.e - 2 * e), dict.fromkeys(offsets, gain),
            (entry * fam.r) ** 2 / (2 * e))


@st.composite
def _described_gains(draw):
    """A random rational chain or traffic network, with preambles and cycles, and
    its derivation: split rules small enough to keep every decay rate positive,
    or the default."""
    kind = draw(st.sampled_from(["chain", "traffic"]))
    fam = draw(chains if kind == "chain" else traffics)
    room = fam.diag.min() if kind == "chain" else Fraction(fam.v.min()) / fam.l.max()
    split = rules(fractions("1/12", 1)).map(lambda r: r.map(lambda x: x * room / 4))
    default_ok = kind == "chain" or room > Fraction(1, 5)  # traffic's default eps is 1/10
    eps = draw(st.one_of(st.none(), split) if default_ok else split)
    if kind == "chain":
        delta = None if eps is None else draw(split)
        return fam, derive_gains_linear_chain(fam, eps, delta), (
            lambda i: _chain_reference(fam, eps, delta, i))
    return fam, derive_gains_traffic(fam, eps), lambda i: _traffic_reference(fam, eps, i)


@settings(max_examples=80, deadline=None)
@given(described=_described_gains())
def test_integer_derivations_match_fraction_reference(described):
    """Every lambda_i, gamma_ij and gamma_iu of the integer-form derivations is
    the Fraction value of the documented formulas, and Theta's integer form
    ``(rows, d)`` holds ``Psi^T`` entry by entry as int numerators over d."""
    fam, g, reference = described
    n = g.lam.preamble_len + 2 * g.lam.period + g.gamma.bandwidth
    refs = {i: reference(i) for i in range(1, n + 1)}
    for i, (lam, gamma, gamma_u) in refs.items():
        assert (g.lam.at(i), g.gamma.row(i), g.gamma_u.at(i)) == (lam, gamma, gamma_u)
    rows, d = build_gain_operator(g).transpose().integer_form
    m = g.gamma.bandwidth
    theta = {(i + off, i): v / lam for i, (lam, gamma, _) in refs.items()
             for off, v in gamma.items() if v}
    for j in range(1, n - m + 1):
        row = rows.row(j)
        assert all(type(v) is int for v in row.values())
        assert {(j, j + off): Fraction(v, d) for off, v in row.items()} == {
            key: v for key, v in theta.items() if key[0] == j}
