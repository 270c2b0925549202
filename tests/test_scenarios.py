"""Shipped scenarios reach their expected outcomes; overrides behave."""

import dataclasses
from fractions import Fraction

import pytest

import sgain
from sgain import (ParameterError, UnknownScenarioError,
                   build_gain_operator, make_scenario,
                   run_pipeline)

FAST_SIM = {"N": 30, "T": 3.0, "h": 0.002}


class TestMakeScenario:
    def test_unknown_name(self):
        with pytest.raises(UnknownScenarioError):
            make_scenario("chain-z")

    def test_out_of_range_override_cites_range(self):
        with pytest.raises(ParameterError, match=r"c in \(0, 0.5\)"):
            make_scenario("traffic", {"coefficients": {"c": "0.9"}})

    def test_defaults_are_exact_fractions(self):
        s = make_scenario("chain-a")
        assert s.family.sup.at(1) == Fraction(1, 10)
        assert s.derivation["eps"] == Fraction(1, 10)

    def test_override_changes_coefficients(self):
        s = make_scenario("chain-a", {"coefficients": {"sub": 1, "sup": 1},
                                      "derivation": {"eps": "0.25", "delta": "0.25"}})
        assert s.family.sup.at(2) == 1
        # the derivation reads the override exactly, as it reads any config
        eps = s.family.derive_gains(s.derivation).free_params["eps"]
        assert eps == sgain.seqrules.PeriodicSeq.constant(Fraction(1, 4))


class TestExpectedOutcomes:
    @pytest.mark.parametrize("name,kind,which", [
        ("chain-a", "certify", None),
        ("traffic", "certify", None),
        ("lure-platoon", "certify", None),
        ("counter-slow", "reject-assumption", "lambda_lo"),
        ("counter-gain", "reject-assumption", "gamma_u"),
    ])
    def test_pipeline_matches_expected(self, name, kind, which):
        s = make_scenario(name, {"sim": FAST_SIM})
        rep = run_pipeline(s)
        assert rep["outcome"] == {"kind": kind, "which": which}
        assert rep["matches_expected"]
        assert rep["expected_outcome"] == dataclasses.asdict(s.expected_outcome)

    def test_certified_reports_have_zero_empirical_violations(self):
        for name in ("chain-a", "traffic"):
            rep = run_pipeline(make_scenario(name, {"sim": FAST_SIM}))
            assert rep["empirical_violations"] == 0
            assert rep["verification"]["ok"]

    @pytest.mark.parametrize("name", ["chain-a", "lure-platoon", "traffic"])
    def test_empirical_violations_count_the_trajectory_checks(self, name):
        rep = run_pipeline(make_scenario(name, {"sim": FAST_SIM}))
        sim = rep["simulation"]
        checks = [sim[k] for k in ("dissipation_zero_input", "dissipation_forced",
                                   "envelope_forced") if k in sim]
        assert "coercivity" not in sim and checks
        assert rep["empirical_violations"] == sum(c["n_violations"] for c in checks)

    def test_raised_coupling_violates_small_gain(self):
        s = make_scenario("chain-a", {"coefficients": {"sub": 1, "sup": 1},
                                      "derivation": {"eps": "0.25", "delta": "0.25"},
                                      "sim": FAST_SIM})
        rep = run_pipeline(s)
        assert rep["outcome"] == {"kind": "small-gain-violated", "which": None}
        assert rep["bracket"]["lower"] > 1


class TestChainScalingFamily:
    def test_off_diagonal_scaling_squares_psi(self):
        s = make_scenario("chain-a")
        base = s.family.derive_gains(s.derivation)
        psi0 = build_gain_operator(base).row(5)[1]
        for s in (2, 3):
            sc = make_scenario("chain-a", {"coefficients": {
                "sub": Fraction(s, 10), "sup": Fraction(s, 10)}})
            g = sc.family.derive_gains(sc.derivation)
            psi = build_gain_operator(g).row(5)[1]
            assert psi == s * s * psi0


class TestTrafficSufficientCondition:
    def test_reported_value(self):
        rep = run_pipeline(make_scenario("traffic", {"sim": FAST_SIM}))
        # 2 (c v)^2/(eps l^2) / (v/l - 2 eps) = (2/100/(1/10)) / (8/10) = 1/4
        assert rep["gains"]["traffic_sufficient_condition"] == pytest.approx(0.25)
        assert rep["gains"]["traffic_sufficient_condition"] < 1


class TestCounterexampleGainRules:
    def test_counter_slow_rule_is_two_over_i(self):
        s = make_scenario("counter-slow")
        g = s.family.derive_gains(s.derivation)
        for i in (1, 7, 50, 1000):
            assert g.lam.at(i) == Fraction(2, i)
        assert g.lam.lower() == 0

    def test_counter_gain_rule_is_quadratic(self):
        s = make_scenario("counter-gain")
        g = s.family.derive_gains(s.derivation)
        for i in (1, 3, 10):
            assert g.gamma_u.at(i) == 2 * i * i
        assert float(g.gamma_u.upper()) == float("inf")
