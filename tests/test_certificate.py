"""Scaling-vector construction, certificate verification, Lyapunov data."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import sgain
from sgain import (CannotCertifyError, LinearChain, NetworkGenerator,
                   ParameterError, ShapeError, SmallGainViolatedError,
                   build_certificate, build_gain_operator, cap_decay_rates,
                   certify, derive_gains_linear_chain,
                   iss_trajectory_bound, neumann_eta, spectral_bracket,
                   verify_certificate)
from sgain.certificate import assemble_lyapunov
from sgain.gains import HALF_SQUARE, GainData
from sgain.seqrules import ClosedFormSeq, PeriodicRows, PeriodicSeq


def chain_gen(b_diag=1, b_off=Fraction(1, 10)):
    return NetworkGenerator(family=LinearChain.uniform(b_diag, b_off))


def unbounded_rate_gains(gamma=Fraction(1, 20)):
    """Tridiagonal gains with decay rates 1 + i (no uniform upper bound)."""
    return GainData(
        lam=ClosedFormSeq(fn=lambda i: 1 + i, inf=2, sup=math.inf,
                          nondecreasing=True, label="1 + i"),
        gamma=PeriodicRows(({1: gamma},), ({-1: gamma, 1: gamma},), bandwidth=1),
        gamma_u=PeriodicSeq.constant(1),
        alpha_lo=PeriodicSeq.constant(Fraction(1, 2)),
        alpha_hi=PeriodicSeq.constant(Fraction(1, 2)),
        p=2, q=2, bandwidth=1, vform=HALF_SQUARE)


class TestCapDecayRates:
    def test_inactive_cap(self, chain_gains):
        capped = cap_decay_rates(chain_gains, 2)
        assert capped.lam.at(5) == Fraction(8, 5)

    def test_chain_capped_at_one(self, chain_gains):
        capped = cap_decay_rates(chain_gains, 1)
        assert capped.lam.at(5) == 1
        op = build_gain_operator(capped)
        assert op.rows.row(5)[1] == Fraction(1, 20)  # gamma / min(lam, 1)

    def test_unbounded_rule_capped(self):
        g = unbounded_rate_gains()
        capped = cap_decay_rates(g, 10)
        assert isinstance(capped.lam, PeriodicSeq)
        for i in range(1, 40):
            assert capped.lam.at(i) == min(1 + i, 10)

    def test_cap_must_be_positive(self, chain_gains):
        with pytest.raises(ParameterError):
            cap_decay_rates(chain_gains, 0)


class TestNeumannEta:
    def test_zero_operator_unit_shift(self):
        g = derive_gains_linear_chain(chain_gen(b_off=0), Fraction(1, 10), Fraction(1, 10))
        op = build_gain_operator(g)
        eta = neumann_eta(op, 1, terms=10)
        assert all(v == 1 for v in eta.eta.values())

    def test_floor_one_over_shift(self, chain_operator):
        for shift in (Fraction(1, 10), Fraction(5, 32)):
            eta = neumann_eta(chain_operator, shift, terms=40)
            floor = 1 / shift
            assert all(v >= floor for v in eta.eta.values())
            assert eta.worst_residual <= 0

    def test_componentwise_contraction(self, chain_operator):
        shift = Fraction(1, 10)
        ev = neumann_eta(chain_operator, shift, terms=60)
        # direct application of Theta to the stored eta, independent route
        m = chain_operator.bandwidth
        for i in range(1, ev.checked_len - m):
            theta_eta = sum(
                chain_operator.rows.row(j).get(i - j, 0) * ev.eta.at(j)
                for j in range(max(1, i - m), i + m + 1))
            assert float(theta_eta) <= float(shift * ev.eta.at(i)) + 1e-15

    def test_matches_dense_resolvent_solve(self, chain_operator):
        shift = Fraction(1, 10)
        ev = neumann_eta(chain_operator, shift, terms=60)
        n = 200
        theta = chain_operator.truncation(n).T
        oracle = np.linalg.solve(float(shift) * np.eye(n) - theta, np.ones(n))
        for i in range(1, 101):
            assert abs(float(ev.eta.at(i)) - oracle[i - 1]) <= ev.tail_bound + 1e-10
        interior = 1.0 / (0.1 - 0.0625)
        assert float(ev.eta.at(50)) == pytest.approx(interior, abs=ev.tail_bound + 1e-9)

    def test_no_witness_raises(self):
        g = derive_gains_linear_chain(chain_gen(1, 1), Fraction(1, 4), Fraction(1, 4))
        op = build_gain_operator(g)  # norm 4, radius ~4
        with pytest.raises(CannotCertifyError):
            neumann_eta(op, Fraction(1, 2), terms=20)


class TestBuildCertificate:
    def test_chain_reference_certificate(self, chain_certified):
        cert, g_used, op, bracket = chain_certified
        assert cert.r_tilde == Fraction(5, 32)
        assert cert.lambda_inf == Fraction(27, 20)
        assert cert.h_cap is None

    def test_explicit_rho_lemma_lower_bound(self, chain_gains, chain_operator):
        bracket = spectral_bracket(chain_operator, k_max=4)
        rho = Fraction(1, 5)
        cert = build_certificate(chain_gains, bracket, rho)
        target = (1 - bracket.upper) * chain_gains.lam_lo - rho
        assert cert.lambda_inf >= target
        assert float(cert.lambda_inf) >= 1.3

    def test_decoupled_certificate(self):
        g = derive_gains_linear_chain(chain_gen(b_off=0), Fraction(1, 10), Fraction(1, 10))
        cert, *_ = certify(g)
        assert float(cert.r_tilde) <= 0.1 + 1e-12
        assert cert.lambda_inf == (1 - cert.r_tilde) * g.lam_lo
        # mu proportional to 1/lambda for uniform rates
        assert cert.mu_lo == pytest.approx(cert.mu_hi)

    def test_small_gain_violation_raises(self):
        g = derive_gains_linear_chain(chain_gen(1, 1), Fraction(1, 4), Fraction(1, 4))
        with pytest.raises(SmallGainViolatedError):
            certify(g)

    def test_mu_floor_bound(self, chain_certified):
        cert, g_used, *_ = chain_certified
        lam_hi = g_used.lam.max()
        floor = (1 / cert.r_tilde) / lam_hi
        assert cert.mu_lo >= floor


class TestVerifyCertificate:
    def test_emitted_certificate_passes(self, chain_certified):
        cert, g_used, *_ = chain_certified
        rep = verify_certificate(cert, g_used)
        assert rep.ok and rep.exhaustive and rep.worst_margin <= rep.tol

    def test_brute_force_scan_500_indices(self, chain_certified):
        cert, g, *_ = chain_certified
        m = g.bandwidth
        worst = -math.inf
        for i in range(1, 501):
            incoming = sum(
                float(cert.mu.at(j)) * float(g.gamma.row(j).get(i - j, 0))
                for j in range(max(1, i - m), i + m + 1))
            margin = (-float(g.lam.at(i)) * float(cert.mu.at(i)) + incoming
                      + float(cert.lambda_inf) * float(cert.mu.at(i)))
            worst = max(worst, margin)
        assert worst <= 1e-12

    def test_tampered_certificate_fails(self, chain_certified):
        cert, g_used, *_ = chain_certified
        bad = dataclasses.replace(cert, lambda_inf=2 * cert.lambda_inf)
        rep = verify_certificate(bad, g_used)
        assert not rep.ok and rep.worst_margin > 0

    def test_hand_built_decoupled_certificate(self):
        # With no coupling, constant mu and lambda_inf = lam_lo / 2 satisfy
        # the scaling inequality with margin -lam_lo mu / 2 at every index.
        g = derive_gains_linear_chain(chain_gen(b_off=0), Fraction(1, 10), Fraction(1, 10))
        op = build_gain_operator(g)
        bracket = spectral_bracket(op, k_max=2)
        cert = sgain.SmallGainCertificate(
            mu=PeriodicSeq.constant(1), mu_lo=1, mu_hi=1,
            lambda_inf=g.lam_lo / 2, r_tilde=Fraction(1, 2),
            rho=Fraction(1, 10), bracket=bracket)
        rep = verify_certificate(cert, g)
        assert rep.ok
        assert rep.worst_margin == pytest.approx(-float(g.lam_lo) / 2)


class TestStepFiveCap:
    def test_unbounded_rates_certify_and_transfer(self):
        g = unbounded_rate_gains()
        cert, g_capped, op, bracket = certify(g)
        assert cert.h_cap is not None
        assert isinstance(g_capped.lam, PeriodicSeq)
        assert g_capped.lam.max() <= cert.h_cap
        # certificate also valid against the original unbounded rates
        rep = verify_certificate(cert, g)
        assert rep.ok
        assert not rep.exhaustive  # closed-form rates: finite scan plus monotonicity

    def test_capped_rates_pointwise(self):
        g = unbounded_rate_gains()
        cert, g_capped, *_ = certify(g)
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
            g = derive_gains_linear_chain(NetworkGenerator(family=fam), eps, delta)
            op = build_gain_operator(g)
            bracket = spectral_bracket(op, k_max=4)
            if not bracket.satisfied:
                rejected += 1
                continue
            cert = build_certificate(g, bracket, terms=24)
            rep = verify_certificate(cert, g)
            assert rep.ok, f"emitted certificate failed: margin {rep.worst_margin}"
            emitted += 1
        assert emitted > 20 and rejected > 0


class TestCompositeLyapunov:
    def test_zero_state(self, chain_certified):
        cert, g, *_ = chain_certified
        lyap = assemble_lyapunov(cert, g)
        net = sgain.truncate(chain_gen(), 10)
        assert lyap.bind(net).value(np.zeros(10)) == 0.0

    def test_unit_vector_value(self, chain_certified):
        cert, g, *_ = chain_certified
        lyap = assemble_lyapunov(cert, g)
        net = sgain.truncate(chain_gen(), 10)
        e1 = np.zeros(10)
        e1[0] = 1.0
        assert lyap.bind(net).value(e1) == pytest.approx(float(cert.mu.at(1)) * 0.5)

    def test_coercivity_on_unit_sphere(self, chain_certified):
        cert, g, *_ = chain_certified
        lyap = assemble_lyapunov(cert, g)
        net = sgain.truncate(chain_gen(), 20)
        rng = np.random.default_rng(5)
        lo, hi = float(cert.mu_lo) / 2, float(cert.mu_hi) / 2
        bound = lyap.bind(net)
        for _ in range(200):
            x = rng.standard_normal(20)
            x /= np.linalg.norm(x)
            v = bound.value(x)
            assert lo - 1e-12 <= v <= hi + 1e-12

    def test_dimension_mismatch(self, chain_certified):
        cert, g, *_ = chain_certified
        lyap = assemble_lyapunov(cert, g)
        net = sgain.truncate(chain_gen(), 10)
        with pytest.raises(ShapeError):
            lyap.bind(net).value(np.zeros(7))


class TestTrajectoryBound:
    def test_zero_input_envelope(self, chain_certified):
        cert, g, *_ = chain_certified
        lyap = assemble_lyapunov(cert, g)
        bound = iss_trajectory_bound(lyap, float(cert.lambda_inf) / 2)
        assert bound.chi(0.0) == 0.0
        assert bound.envelope_v(0.0, 3.0, 0.0) == pytest.approx(3.0)

    def test_gain_blows_up_toward_lambda_inf(self, traffic_certified):
        cert, g, *_ = traffic_certified
        lyap = assemble_lyapunov(cert, g)
        lam = float(cert.lambda_inf)
        chis = [iss_trajectory_bound(lyap, f * lam).chi(1.0)
                for f in (0.5, 0.9, 0.99, 0.999)]
        assert all(b > a for a, b in zip(chis, chis[1:]))
        with pytest.raises(ParameterError):
            iss_trajectory_bound(lyap, lam)
        with pytest.raises(ParameterError):
            iss_trajectory_bound(lyap, 0.0)

    def test_traffic_chi_formula(self, traffic_certified):
        cert, g, *_ = traffic_certified
        lyap = assemble_lyapunov(cert, g)
        lam = float(cert.lambda_inf)
        bound = iss_trajectory_bound(lyap, lam / 2)
        expected = 2 * float(cert.mu_hi) * float(g.gamma_u_hi) / lam
        assert bound.chi(1.0) == pytest.approx(expected)


class TestSerialization:
    def test_round_trip_verifies(self, traffic_certified):
        import json
        from sgain import certificate_from_dict
        cert, g, *_ = traffic_certified
        back = certificate_from_dict(json.loads(json.dumps(cert.to_dict())))
        rep = verify_certificate(back, g)
        assert rep.ok
        assert back.lambda_inf == pytest.approx(float(cert.lambda_inf))

    def test_certificate_without_lower_from_still_loads(self, traffic_certified):
        import json
        from sgain import certificate_from_dict
        cert, g, *_ = traffic_certified
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
