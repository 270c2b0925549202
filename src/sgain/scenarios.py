"""Shipped end-to-end scenarios and the analysis pipeline.

Five named scenarios cover the supported families:

* ``chain-a``       — weakly coupled uniform chain; certifies.
* ``lure-platoon``  — bidirectional vehicle-string error dynamics with a
                      user-supplied quadratic certificate; certifies.
* ``traffic``       — the nine-class road network; certifies.
* ``counter-slow``  — decay rates 2/i with infimum zero; rejected at the
                      uniform-decay assumption.
* ``counter-gain``  — input gains growing like i^2; rejected at the
                      uniform-input-gain assumption.

Default parameters live in packaged JSON files (decimal literals are
parsed exactly); ``make_scenario`` applies validated overrides on top.
``run_pipeline`` executes derive -> assumption checks -> spectral
bracket -> certificate -> simulation checks and aggregates one report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping

import numpy as np

from . import sim as simmod
from .certificate import assemble_lyapunov, certify, verify_certificate
from .errors import (CannotCertifyError, SgainError,
                     SmallGainViolatedError, UnknownScenarioError)
from .gains import GainData, check_assumptions, gamma_norm
from .network import NetworkGenerator, generator_from_dict, truncate
from .seqrules import PeriodicSeq, as_number

SCENARIO_NAMES = ("chain-a", "lure-platoon", "traffic", "counter-slow", "counter-gain")

_FILES = {name: name.replace("-", "_") + ".json" for name in SCENARIO_NAMES}


@dataclass(frozen=True)
class Outcome:
    """Pipeline verdict: certify, reject-assumption (with the failed
    uniformity check), or small-gain-violated."""

    kind: str
    which: str | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "which": self.which}


@dataclass(frozen=True)
class ExampleScenario:
    name: str
    generator: NetworkGenerator
    derivation: dict
    sim: dict
    expected_outcome: Outcome
    notes: str = ""


def _deep_merge(base: dict, overrides: Mapping) -> dict:
    out = dict(base)
    for k, v in overrides.items():
        if isinstance(v, Mapping) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def make_scenario(name: str, overrides: Mapping | None = None) -> ExampleScenario:
    """Load a shipped scenario and apply overrides.

    Override keys mirror the scenario file: ``coefficients`` (merged into
    the network description), ``derivation``, ``sim``, ``p``, ``q``.
    Out-of-range values are rejected by the family constructors with the
    documented range in the message.
    """
    if name not in _FILES:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}")
    raw = resources.files("sgain").joinpath("scenarios", _FILES[name]).read_text()
    obj = json.loads(raw, parse_float=Fraction)
    if overrides:
        net_keys = ("coefficients", "p", "q")
        obj = _deep_merge(obj, {k: v for k, v in overrides.items() if k not in net_keys})
        obj["network"] = _deep_merge(obj["network"],
                                     {k: v for k, v in overrides.items() if k in net_keys})
    gen = generator_from_dict(obj["network"])
    derivation = {k: as_number(v) if isinstance(v, (str, int, float, Fraction)) else v
                  for k, v in obj.get("derivation", {}).items()}
    return ExampleScenario(
        name=name, generator=gen,
        derivation=derivation,
        sim={k: v for k, v in obj.get("sim", {}).items()},
        expected_outcome=Outcome(obj["expected_outcome"]["kind"],
                                 obj["expected_outcome"].get("which")),
        notes=obj.get("notes", ""))


def derive_scenario_gains(s: ExampleScenario) -> GainData:
    """The family's gain derivation with the scenario's parameters."""
    return s.generator.family.derive_gains(s.generator, s.derivation)


# --------------------------------------------------------------------------
# Pipeline
# --------------------------------------------------------------------------


def _gain_summary(g: GainData) -> dict:
    def fin(x):
        x = float(x)
        return None if math.isinf(x) else x

    def param(v):
        if isinstance(v, PeriodicSeq):
            return {"preamble": [float(x) for x in v.preamble],
                    "cycle": [float(x) for x in v.cycle]}
        if isinstance(v, (int, float, Fraction)):
            return float(v)
        return [[float(x) for x in row] for row in v]  # small matrices

    return {"p": float(g.p), "q": float(g.q), "bandwidth": g.bandwidth,
            "lam_lo": fin(g.lam_lo), "lam_hi": fin(g.lam_hi),
            "gamma_u_hi": fin(g.gamma_u_hi), "gamma_hi": float(g.gamma_hi),
            "gamma_norm": float(gamma_norm(g)),
            "alpha_lo": float(g.alpha_lo_bound), "alpha_hi": float(g.alpha_hi_bound),
            "free_params": {k: param(v) for k, v in sorted(g.free_params.items())},
            "conservative": g.conservative}


def _coercivity_sweep(lyap, net, samples: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    bound = lyap.bind(net)
    p = float(lyap.p)
    lo, hi = float(lyap.coercivity_lo), float(lyap.coercivity_hi)
    bad = 0
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(net.dim) * rng.choice([1e-3, 1.0, 1e3])
        v = bound.value(x)
        npow = simmod.lp_norm(net.block_norms(x), p) ** p
        lo_gap = lo * npow - v
        hi_gap = v - hi * npow
        gap = max(lo_gap, hi_gap)
        worst = max(worst, gap / max(npow, 1e-300))
        if gap > 1e-9 * (1.0 + abs(v)):
            bad += 1
    return {"samples": samples, "violations": bad, "worst_relative_excess": worst}


def run_pipeline(s: ExampleScenario, sim_overrides: Mapping | None = None,
                 seed: int = 0, coercivity_samples: int = 1000) -> dict:
    """Derive, check, bracket, certify, simulate, and aggregate a report.

    Module errors become report outcomes rather than exceptions; the
    report's ``outcome`` equals the scenario's ``expected_outcome`` for
    every shipped scenario at default parameters.
    """
    sim_cfg = {**s.sim, **(sim_overrides or {})}
    report: dict = {"schema": "sgain/1", "scenario": s.name, "seed": seed,
                    "expected_outcome": s.expected_outcome.to_dict(),
                    "notes": s.notes}
    try:
        g = derive_scenario_gains(s)
    except SgainError as exc:
        report["outcome"] = Outcome("error", None).to_dict()
        report["error"] = str(exc)
        report["matches_expected"] = False
        return report

    report["gains"] = _gain_summary(g)
    assumptions = check_assumptions(g)
    report["assumptions"] = assumptions.to_dict()
    report["gains"].update(s.generator.family.report_notes(s.generator, s.derivation))

    if not assumptions.ok:
        outcome = Outcome("reject-assumption", assumptions.first_failed)
        report["outcome"] = outcome.to_dict()
        report["matches_expected"] = outcome == s.expected_outcome
        return report

    try:
        cert, g_used, op, bracket = certify(g)
    except (SmallGainViolatedError, CannotCertifyError) as exc:
        outcome = Outcome("small-gain-violated")
        report["outcome"] = outcome.to_dict()
        report["error"] = str(exc)
        if getattr(exc, "bracket", None) is not None:
            report["bracket"] = exc.bracket.to_dict()
        report["matches_expected"] = outcome == s.expected_outcome
        return report

    report["bracket"] = bracket.to_dict()
    report["certificate"] = cert.to_dict()
    report["verification"] = verify_certificate(cert, g_used).to_dict()

    lyap = assemble_lyapunov(cert, g_used)
    n = int(sim_cfg.get("N", 100))
    horizon = float(sim_cfg.get("T", 10.0))
    step = float(sim_cfg.get("h", 1e-3))
    net = truncate(s.generator, n)
    x0 = simmod.initial_state(net, sim_cfg.get("x0", {"kind": "first-k", "K": 5}))
    simrep: dict = {"N": n, "T": horizon, "h": step}

    decay_traj = simmod.integrate(net, x0, simmod.Zero(), horizon, step,
                                  lyapunov=lyap, store_states=False)
    simrep["decay_fit"] = simmod.fit_decay(decay_traj, "v").to_dict()
    simrep["dissipation_zero_input"] = simmod.verify_dissipation(decay_traj, lyap).to_dict()

    input_cfg = sim_cfg.get("input", {"kind": "zero"})
    signal = simmod.signal_from_dict(dict(input_cfg)) if isinstance(input_cfg, Mapping) else input_cfg
    if not isinstance(signal, simmod.Zero) and net.input_dim:
        forced = simmod.integrate(net, x0, signal, horizon, step,
                                  lyapunov=lyap, store_states=False)
        simrep["input"] = signal.to_dict()
        simrep["u_sup_norm"] = forced.u_sup_norm
        simrep["dissipation_forced"] = simmod.verify_dissipation(forced, lyap).to_dict()
        simrep["envelope_forced"] = simmod.verify_envelope(forced, lyap).to_dict()
    simrep["coercivity"] = _coercivity_sweep(lyap, net, coercivity_samples, seed)
    report["simulation"] = simrep

    outcome = Outcome("certify")
    report["outcome"] = outcome.to_dict()
    violations = (simrep["dissipation_zero_input"]["n_violations"]
                  + simrep.get("dissipation_forced", {}).get("n_violations", 0)
                  + simrep.get("envelope_forced", {}).get("n_violations", 0)
                  + simrep["coercivity"]["violations"])
    report["empirical_violations"] = violations
    report["matches_expected"] = (outcome == s.expected_outcome) and violations == 0
    return report
