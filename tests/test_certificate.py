"""Scaling-vector construction, certificate verification, Lyapunov data."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import sgain
from sgain import (CannotCertifyError, LinearChain,
                   ParameterError, ShapeError, SmallGainViolatedError,
                   build_certificate, build_gain_operator, cap_decay_rates,
                   certify, derive_gains_linear_chain,
                   neumann_eta,
                   operator_power_column_sums, spectral_bracket,
                   verify_certificate)
from sgain.certificate import CompositeLyapunov
from sgain.gains import HALF_SQUARE, GainData
from sgain.seqrules import ClosedFormSeq, PeriodicRows, PeriodicSeq
from sgain.sim import BoundLyapunov


def chain_gen(b_diag=1, b_off=Fraction(1, 10)):
    off = PeriodicSeq.constant(b_off)
    return LinearChain(diag=PeriodicSeq.constant(b_diag), sub=off, sup=off)


def unbounded_rate_gains(gamma=Fraction(1, 20)):
    """Tridiagonal gains with decay rates 1 + i (no uniform upper bound)."""
    return GainData(
        lam=ClosedFormSeq(fn=lambda i: 1 + i, inf=2, sup=math.inf,
                          nondecreasing=True),
        gamma=PeriodicRows(({1: gamma},), ({-1: gamma, 1: gamma},), bandwidth=1),
        gamma_u=PeriodicSeq.constant(1),
        vform=HALF_SQUARE)


class TestCapDecayRates:
    def test_inactive_cap(self, chain_gains):
        capped = cap_decay_rates(chain_gains, 2)
        assert capped.lam.at(5) == Fraction(8, 5)

    def test_chain_capped_at_one(self, chain_gains):
        capped = cap_decay_rates(chain_gains, 1)
        assert capped.lam.at(5) == 1
        op = build_gain_operator(capped)
        assert op.row(5)[1] == Fraction(1, 20)  # gamma / min(lam, 1)

    def test_unbounded_rule_capped(self):
        g = unbounded_rate_gains()
        capped = cap_decay_rates(g, 10)
        assert isinstance(capped.lam, PeriodicSeq)
        for i in range(1, 40):
            assert capped.lam.at(i) == min(1 + i, 10)

    @pytest.mark.parametrize("lam", [
        ClosedFormSeq(fn=lambda i: 1 + i, inf=2, sup=math.inf),  # not marked nondecreasing
        ClosedFormSeq(fn=lambda i: 2 - Fraction(1, i), inf=1, sup=2, nondecreasing=True),
    ])
    def test_rule_that_stays_aperiodic_raises(self, lam):
        g = dataclasses.replace(unbounded_rate_gains(), lam=lam)
        with pytest.raises(CannotCertifyError, match="closed-form"):
            cap_decay_rates(g, 10)

    def test_certify_on_a_rule_not_marked_nondecreasing_raises(self):
        """Every cap of the schedule (4, 8, ...) leaves ``1 + i`` aperiodic."""
        lam = ClosedFormSeq(fn=lambda i: 1 + i, inf=2, sup=math.inf)
        with pytest.raises(CannotCertifyError, match="closed-form"):
            certify(dataclasses.replace(unbounded_rate_gains(), lam=lam))

    def test_bounded_nondecreasing_rule_is_capped_below_its_sup(self):
        """The default first cap 2 max(1, ceil(inf)) = 2 equals the sup of
        2 - 1/i; the schedule starts at the midpoint 3/2 of inf and sup."""
        lam = ClosedFormSeq(fn=lambda i: 2 - Fraction(1, i), inf=1, sup=2, nondecreasing=True)
        cert, g_used = certify(dataclasses.replace(unbounded_rate_gains(), lam=lam))
        assert cert.h_cap == Fraction(3, 2)
        assert g_used.lam == PeriodicSeq((1,), (Fraction(3, 2),))
        assert cert.lambda_inf > 0 and cert.scan.ok

    def test_cap_must_be_positive(self, chain_gains):
        with pytest.raises(ParameterError):
            cap_decay_rates(chain_gains, 0)


def dense_partial_sum(psi, start, shift, k_last, n=200):
    """``sum_{k <= k_last} Theta^k w / (max w * shift^(k+1))`` on the dense
    leading n-row section, in floats."""
    theta = psi.section(n).T
    v = np.array([float(x) for x in start.head(n)])
    coef = 1.0 / (float(max(start.values())) * float(shift))
    out = coef * v
    for _ in range(k_last):
        v = theta @ v
        coef /= float(shift)
        out += coef * v
    return out


class TestNeumannEta:
    def test_zero_operator_unit_shift(self):
        g = derive_gains_linear_chain(chain_gen(b_off=0), Fraction(1, 10), Fraction(1, 10))
        op = build_gain_operator(g)
        eta = neumann_eta(operator_power_column_sums(op, 4), 1)
        assert all(v == 1 for v in eta.eta.values())

    def test_floor_one_over_shift(self, chain_operator):
        table = operator_power_column_sums(chain_operator, 12)
        for shift in (Fraction(1, 10), Fraction(5, 32)):
            eta = neumann_eta(table, shift)
            floor = 1 / shift
            assert all(v >= floor for v in eta.eta.values())
            assert eta.worst_residual <= 0

    def test_componentwise_contraction(self, chain_operator):
        shift = Fraction(1, 10)
        ev = neumann_eta(operator_power_column_sums(chain_operator, 12), shift)
        # direct application of Theta to the stored eta, independent route
        m = chain_operator.bandwidth
        for i in range(1, ev.eta.preamble_len + 2 * ev.eta.period - m):
            theta_eta = sum(
                chain_operator.row(j).get(i - j, 0) * ev.eta.at(j)
                for j in range(max(1, i - m), i + m + 1))
            assert float(theta_eta) <= float(shift * ev.eta.at(i)) + 1e-15

    @pytest.mark.parametrize("name", ["chain-a", "traffic"])
    def test_matches_dense_partial_sum(self, name):
        """The series from the start vector equals the same partial sum on a
        dense section, for shifts at and a little above the upper bound."""
        s = sgain.make_scenario(name)
        psi = build_gain_operator(s.family.derive_gains(s.derivation))
        bracket = spectral_bracket(psi)
        for shift in (bracket.upper, bracket.upper + (1 - bracket.upper) / 10):
            ev = neumann_eta(bracket.table, shift)
            assert ev.terms_used < bracket.k_used
            oracle = dense_partial_sum(psi, bracket.table.start, shift, ev.terms_used)
            for i in range(1, 101):
                assert float(ev.eta.at(i)) == pytest.approx(oracle[i - 1], rel=1e-12)

    def test_no_witness_raises(self):
        g = derive_gains_linear_chain(chain_gen(1, 1), Fraction(1, 4), Fraction(1, 4))
        op = build_gain_operator(g)  # norm 4, radius ~4
        with pytest.raises(CannotCertifyError):
            neumann_eta(operator_power_column_sums(op, 20), Fraction(1, 2))


class TestBuildCertificate:
    def test_near_critical_traffic_certifies(self):
        """At c = 0.323 the radius is about 0.98; the table from the symbol's
        Perron vector brings the upper bound under one."""
        s = sgain.make_scenario("traffic", {"coefficients": {"c": Fraction("0.323")}})
        g = s.family.derive_gains(s.derivation)
        cert, g_used = certify(g)
        assert 0.98 < cert.bracket.lower <= cert.bracket.upper < 1
        assert cert.scan.ok and verify_certificate(cert, g).ok

    def test_chain_reference_certificate(self, chain_certified):
        cert, g_used = chain_certified
        assert cert.r_tilde == Fraction(5, 32)
        assert cert.lambda_inf == Fraction(27, 20)
        assert cert.h_cap is None

    def test_explicit_rho_lemma_lower_bound(self, chain_gains, chain_operator):
        bracket = spectral_bracket(chain_operator, k_max=4)
        rho = Fraction(1, 5)
        cert = build_certificate(chain_gains, bracket, rho)
        target = (1 - bracket.upper) * chain_gains.lam.lower() - rho
        assert cert.lambda_inf >= target
        assert float(cert.lambda_inf) >= 1.3

    def test_decoupled_certificate(self):
        g = derive_gains_linear_chain(chain_gen(b_off=0), Fraction(1, 10), Fraction(1, 10))
        cert, _ = certify(g)
        assert float(cert.r_tilde) <= 0.1 + 1e-12
        assert cert.lambda_inf == (1 - cert.r_tilde) * g.lam.lower()
        # mu proportional to 1/lambda for uniform rates
        assert cert.mu_lo == pytest.approx(cert.mu_hi)

    def test_small_gain_violation_raises(self):
        g = derive_gains_linear_chain(chain_gen(1, 1), Fraction(1, 4), Fraction(1, 4))
        with pytest.raises(SmallGainViolatedError):
            certify(g)

    def test_mu_floor_bound(self, chain_certified):
        cert, g_used = chain_certified
        lam_hi = g_used.lam.max()
        floor = (1 / cert.r_tilde) / lam_hi
        assert cert.mu_lo >= floor


class TestVerifyCertificate:
    def test_emitted_certificate_passes(self, chain_certified):
        cert, g_used = chain_certified
        rep = verify_certificate(cert, g_used)
        assert rep.ok and rep.exhaustive and rep.worst_margin <= rep.tol

    def test_brute_force_scan_500_indices(self, chain_certified):
        cert, g = chain_certified
        m = g.gamma.bandwidth
        worst = -math.inf
        for i in range(1, 501):
            incoming = sum(
                float(cert.mu.at(j)) * float(g.gamma.row(j).get(i - j, 0))
                for j in range(max(1, i - m), i + m + 1))
            margin = (-float(g.lam.at(i)) * float(cert.mu.at(i)) + incoming
                      + float(cert.lambda_inf) * float(cert.mu.at(i)))
            worst = max(worst, margin)
        assert worst <= 1e-12

    def test_fresh_certificate_is_scanned_once(self, traffic_gains, monkeypatch):
        from sgain import scenarios
        cert, g_used = certify(traffic_gains)
        assert cert.scan.ok and cert.scan == verify_certificate(cert, g_used)
        scans = []
        monkeypatch.setattr(scenarios, "verify_certificate",
                            lambda *a, **k: scans.append(a) or verify_certificate(*a, **k))
        report = {}
        scenarios.certify_gains(traffic_gains, {"check_horizon": 7}, report)  # an unread key
        assert scans == [] and report["verification"] == dataclasses.asdict(cert.scan)
        stored = sgain.certificate_from_dict(cert.to_dict())
        assert stored.scan is None
        scenarios.certify_gains(traffic_gains, {"check_horizon": 7}, report, stored)
        assert len(scans) == 1  # a stored certificate is scanned

    def test_tampered_certificate_fails(self, chain_certified):
        cert, g_used = chain_certified
        bad = dataclasses.replace(cert, lambda_inf=2 * cert.lambda_inf)
        rep = verify_certificate(bad, g_used)
        assert not rep.ok and rep.worst_margin > 0

    @pytest.mark.parametrize("tamper", [
        lambda c: dataclasses.replace(c, mu=PeriodicSeq.constant(2 * c.mu_hi)),
        lambda c: dataclasses.replace(c, mu=PeriodicSeq.constant(c.mu_lo / 2)),
    ])
    def test_mu_outside_its_bounds_fails_the_scan(self, chain_certified, tamper):
        """V's coercivity rests on ``mu_lo <= mu_i <= mu_hi``: the scan refuses
        a mu outside the bounds its certificate states."""
        cert, g = chain_certified
        assert not verify_certificate(tamper(cert), g).ok

    def test_exact_scan_has_no_tolerance(self, chain_certified):
        # Raise lambda_inf until the largest exact margin is +6e-10: an exact
        # certificate is scanned with tolerance 0, so the scan must fail.
        cert, g = chain_certified
        assert isinstance(cert.lambda_inf, Fraction)
        m, target = g.gamma.bandwidth, Fraction(6, 10 ** 10)

        def base(i):
            incoming = sum(cert.mu.at(j) * g.gamma.row(j).get(i - j, 0)
                           for j in range(max(1, i - m), i + m + 1))
            return -g.lam.at(i) * cert.mu.at(i) + incoming

        horizon = verify_certificate(cert, g).n_checked
        lam_inf = min((target - base(i)) / cert.mu.at(i) for i in range(1, horizon + 1))
        raised = dataclasses.replace(cert, lambda_inf=lam_inf)
        rep = verify_certificate(raised, g)
        assert rep.tol == 0 and not rep.ok
        assert rep.worst_margin == pytest.approx(6e-10, rel=1e-9)
        # The same certificate read back as floats keeps the float tolerance.
        floats = verify_certificate(sgain.certificate_from_dict(raised.to_dict()), g)
        assert floats.tol > rep.worst_margin and floats.ok

    def test_hand_built_decoupled_certificate(self):
        # With no coupling, constant mu and lambda_inf = lam_lo / 2 satisfy
        # the scaling inequality with margin -lam_lo mu / 2 at every index.
        g = derive_gains_linear_chain(chain_gen(b_off=0), Fraction(1, 10), Fraction(1, 10))
        op = build_gain_operator(g)
        bracket = spectral_bracket(op, k_max=2)
        cert = sgain.SmallGainCertificate(
            mu=PeriodicSeq.constant(1), mu_lo=1, mu_hi=1,
            lambda_inf=g.lam.lower() / 2, r_tilde=Fraction(1, 2),
            rho=Fraction(1, 10), bracket=bracket)
        rep = verify_certificate(cert, g)
        assert rep.ok
        assert rep.worst_margin == pytest.approx(-float(g.lam.lower()) / 2)


class TestStepFiveCap:
    def test_unbounded_rates_certify_and_transfer(self):
        g = unbounded_rate_gains()
        cert, g_capped = certify(g)
        assert cert.h_cap is not None
        assert isinstance(g_capped.lam, PeriodicSeq)
        assert g_capped.lam.max() <= cert.h_cap
        # certificate also valid against the original unbounded rates
        rep = verify_certificate(cert, g)
        assert rep.ok
        assert not rep.exhaustive  # closed-form rates: finite scan plus monotonicity

    def test_capped_rates_pointwise(self):
        g = unbounded_rate_gains()
        cert, g_capped = certify(g)
        h = cert.h_cap
        for i in range(1, 50):
            assert g_capped.lam.at(i) == min(1 + i, h)


class TestRandomizedSoundness:
    def test_no_emitted_certificate_fails_verification(self):
        rng = np.random.default_rng(20240817)
        emitted, rejected = 0, 0
        for _ in range(200):
            period = int(rng.integers(1, 4))
            diag = PeriodicSeq((), tuple(Fraction(int(v), 100)
                                         for v in rng.integers(50, 250, period)))
            off = PeriodicSeq((), tuple(Fraction(int(v), 100)
                                        for v in rng.integers(0, 120, period)))
            fam = LinearChain(diag=diag, sub=off, sup=off)
            f1, f2 = rng.uniform(0.05, 0.42, 2)
            eps = Fraction(int(f1 * 1000), 1000) * diag.min()
            delta = Fraction(int(f2 * 1000), 1000) * diag.min()
            g = derive_gains_linear_chain(fam, eps, delta)
            op = build_gain_operator(g)
            bracket = spectral_bracket(op, k_max=4)
            if not bracket.satisfied:
                rejected += 1
                continue
            cert = build_certificate(g, bracket)
            rep = verify_certificate(cert, g)
            assert rep.ok, f"emitted certificate failed: margin {rep.worst_margin}"
            emitted += 1
        assert emitted > 20 and rejected > 0


class TestCompositeLyapunov:
    def test_zero_state(self, chain_certified):
        cert, g = chain_certified
        lyap = CompositeLyapunov(cert, g)
        net = sgain.truncate(chain_gen(), 10)
        x = np.zeros((1, 10))
        assert BoundLyapunov(lyap, net).leading(x, x * x)[0] == 0.0

    def test_unit_vector_value(self, chain_certified):
        cert, g = chain_certified
        lyap = CompositeLyapunov(cert, g)
        net = sgain.truncate(chain_gen(), 10)
        e1 = np.zeros((1, 10))
        e1[0, 0] = 1.0
        v = BoundLyapunov(lyap, net).leading(e1, e1 * e1)[0]
        assert v == pytest.approx(float(cert.mu.at(1)) * 0.5)

    def test_coercivity_on_unit_sphere(self, chain_certified):
        cert, g = chain_certified
        lyap = CompositeLyapunov(cert, g)
        net = sgain.truncate(chain_gen(), 20)
        rng = np.random.default_rng(5)
        lo, hi = float(cert.mu_lo) / 2, float(cert.mu_hi) / 2
        bound = BoundLyapunov(lyap, net)
        x = rng.standard_normal((200, 20))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        v = bound.leading(x, x * x)
        assert np.all((lo - 1e-12 <= v) & (v <= hi + 1e-12))

    @pytest.mark.parametrize("name", ["chain-a", "traffic", "lure-platoon"])
    def test_quadratic_form_matches_block_diagonal(self, name):
        s = sgain.make_scenario(name)
        cert, g = certify(s.family.derive_gains(s.derivation))
        lyap, m = CompositeLyapunov(cert, g), g.vform.matrix()
        rng = np.random.default_rng(17)
        for n in (1, 7, 100):
            bound = BoundLyapunov(lyap, sgain.truncate(s.family, n))
            mu = [float(cert.mu.at(i)) for i in range(1, n + 1)]
            assert np.array_equal(bound.weights, mu), n
            ref = sp.block_diag([w * m for w in mu], format="csr")
            for _ in range(20):
                x = rng.standard_normal((1, n * m.shape[0]))
                assert bound.leading(x, x * x)[0] == pytest.approx(
                    x[0] @ (ref @ x[0]), rel=4e-15, abs=0), n

    def test_dimension_mismatch(self, chain_certified):
        """V is only taken along a run, and a run refuses a state of the wrong size."""
        cert, g = chain_certified
        lyap = CompositeLyapunov(cert, g)
        net = sgain.truncate(chain_gen(), 10)
        with pytest.raises(ShapeError):
            sgain.integrate(net, np.zeros(7), horizon=1e-3, step=1e-3, lyapunov=lyap)


class TestEnvelope:
    def test_zero_input_envelope(self, chain_certified):
        cert, g = chain_certified
        lyap, eps = CompositeLyapunov(cert, g), float(cert.lambda_inf) / 2
        assert lyap.chi(0.0, eps) == 0.0
        assert lyap.envelope_v(0.0, 3.0, 0.0, eps) == pytest.approx(3.0)

    def test_gain_blows_up_toward_lambda_inf(self, traffic_certified):
        cert, g = traffic_certified
        lyap = CompositeLyapunov(cert, g)
        lam = float(cert.lambda_inf)
        chis = [lyap.chi(1.0, f * lam) for f in (0.5, 0.9, 0.99, 0.999)]
        assert all(b > a for a, b in zip(chis, chis[1:]))
        for eps in (lam, 0.0):
            with pytest.raises(ParameterError):
                lyap.chi(1.0, eps)
            with pytest.raises(ParameterError):
                lyap.envelope_norm(0.0, 1.0, 0.0, eps)

    def test_traffic_chi_formula(self, traffic_certified):
        cert, g = traffic_certified
        lyap = CompositeLyapunov(cert, g)
        lam = float(cert.lambda_inf)
        expected = 2 * float(cert.mu_hi) * float(g.gamma_u.upper()) / lam
        assert lyap.chi(1.0, lam / 2) == pytest.approx(expected)


class TestSerialization:
    def test_round_trip_verifies(self, traffic_certified):
        import json
        from sgain import certificate_from_dict
        cert, g = traffic_certified
        back = certificate_from_dict(json.loads(json.dumps(cert.to_dict())))
        rep = verify_certificate(back, g)
        assert rep.ok
        assert back.lambda_inf == pytest.approx(float(cert.lambda_inf))

    def test_certificate_without_lower_from_still_loads(self, traffic_certified):
        import json
        from sgain import certificate_from_dict
        cert, g = traffic_certified
        old = json.loads(json.dumps(cert.to_dict()))
        del old["bracket"]["lower_from"]
        old["bracket"].update(n_used=64, lower_converged=True)
        back = certificate_from_dict(old)
        assert back.bracket.lower_from == "section"
        assert verify_certificate(back, g).ok

    def test_bracket_ordering_invariant(self, chain_certified, traffic_certified):
        for cert, *_ in (chain_certified, traffic_certified):
            br = cert.bracket
            assert br.lower <= float(br.upper) + 1e-12
