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
``run_pipeline`` runs the four pipeline stages that the CLI subcommands
also call: ``derive_and_check``, ``certify_gains``, ``build_sim`` and
``check_run``.
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
from .certificate import (CompositeLyapunov, SmallGainCertificate,
                          assemble_lyapunov, certify, verify_certificate)
from .errors import (CannotCertifyError, ParameterError, SgainError,
                     SmallGainViolatedError, UnknownScenarioError)
from .gains import AssumptionReport, GainData, check_assumptions, gamma_norm
from .network import (NetworkGenerator, TruncatedNetwork, generator_from_dict,
                      truncate)
from .seqrules import PeriodicSeq, as_number, as_object

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
    overrides = as_object(overrides, "scenario overrides")
    if not isinstance(name, str) or name not in _FILES:
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
    expected = as_object(obj.get("expected_outcome"), "'expected_outcome'")
    if not isinstance(expected.get("kind"), str):
        raise ParameterError("'expected_outcome' needs a string 'kind'")
    derivation = {k: as_number(v) if isinstance(v, (str, int, float, Fraction)) else v
                  for k, v in as_object(obj.get("derivation"), "'derivation'").items()}
    return ExampleScenario(
        name=name, generator=gen, derivation=derivation,
        sim=dict(as_object(obj.get("sim"), "'sim'")),
        expected_outcome=Outcome(expected["kind"], expected.get("which")),
        notes=obj.get("notes", ""))


def derive_scenario_gains(s: ExampleScenario) -> GainData:
    """The family's gain derivation with the scenario's parameters."""
    return s.generator.family.derive_gains(s.generator, s.derivation)


# --------------------------------------------------------------------------
# Pipeline stages
# --------------------------------------------------------------------------

COERCIVITY_SAMPLES = 1000


def _number(section: Mapping, key: str, default=None):
    """The number at ``key`` of a config section, or ``default`` when absent."""
    value = section.get(key)
    return default if value is None else as_number(value)


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


def derive_and_check(gen: NetworkGenerator, derivation: Mapping,
                     report: dict) -> tuple[GainData, AssumptionReport]:
    """Stage 1: the family's gains and the uniformity assumption checks,
    written into ``report`` as ``gains`` and ``assumptions``."""
    g = gen.family.derive_gains(gen, derivation)
    assumptions = check_assumptions(g)
    report["gains"] = _gain_summary(g)
    report["assumptions"] = assumptions.to_dict()
    return g, assumptions


def certify_gains(g: GainData, analysis: Mapping, report: dict,
                  stored: SmallGainCertificate | None = None) -> CompositeLyapunov | None:
    """Stage 2: certify ``g`` with the settings of an ``analysis`` section
    (or scan a ``stored`` certificate against ``g``) and return the composite
    Lyapunov function.  Writes the ``bracket``, ``certificate`` and its scan
    ``verification`` into ``report``; with no certificate, the ``error`` and
    its ``bracket`` instead, and returns None."""
    cert, g_used = stored, g
    if stored is None:
        try:
            cert, g_used, _, bracket = certify(
                g, rho=_number(analysis, "rho"), k_max=int(_number(analysis, "k_max", 12)),
                terms=int(_number(analysis, "K", 60)), h_start=_number(analysis, "h_start"),
                h_doublings=int(_number(analysis, "h_doublings", 40)))
        except (SmallGainViolatedError, CannotCertifyError) as exc:
            report["error"] = str(exc)
            if getattr(exc, "bracket", None) is not None:
                report["bracket"] = exc.bracket.to_dict()
            return None
        report["bracket"] = bracket.to_dict()
        report["certificate"] = cert.to_dict()
    report["verification"] = verify_certificate(
        cert, g_used, check_horizon=int(_number(analysis, "check_horizon", 0))).to_dict()
    return assemble_lyapunov(cert, g_used)


@dataclass(frozen=True)
class SimSetup:
    """One truncation with its input signal, initial state and step sizes."""

    net: TruncatedNetwork
    signal: simmod.InputSignal
    x0: np.ndarray
    horizon: float
    step: float
    c_tol: float

    def to_dict(self) -> dict:
        return {"N": self.net.n_subsystems, "T": self.horizon, "h": self.step}


def build_sim(gen: NetworkGenerator, sim: Mapping) -> SimSetup:
    """Stage 3: the truncation, input signal and ``x0`` of a ``sim`` section."""
    net = truncate(gen, int(_number(sim, "N", 100)))
    try:
        signal = simmod.signal_from_dict(as_object(sim.get("input"), "'sim.input'"))
        x0 = simmod.initial_state(net, sim.get("x0") or {"kind": "zero"})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed 'sim' entry: {exc}") from None
    return SimSetup(net=net, signal=signal, x0=x0, horizon=float(_number(sim, "T", 10.0)),
                    step=float(_number(sim, "h", 1e-3)), c_tol=float(_number(sim, "c_tol", 20.0)))


def check_run(setup: SimSetup, lyap: CompositeLyapunov, signal: simmod.InputSignal):
    """Stage 4: integrate ``signal`` with the Lyapunov channel; returns the
    trajectory and its dissipation and ISS envelope checks."""
    traj = simmod.integrate(setup.net, setup.x0, signal, setup.horizon, setup.step,
                            lyapunov=lyap, store_states=False)
    return (traj, simmod.verify_dissipation(traj, lyap, c_tol=setup.c_tol),
            simmod.verify_envelope(traj, lyap, c_tol=setup.c_tol))


def _coercivity_sweep(lyap, net, samples: int, seed: int) -> dict:
    """Compare V with its coercivity bounds on random states, drawn one per
    row in a fixed order and evaluated a block of rows at a time."""
    rng = np.random.default_rng(seed)
    bound = lyap.bind(net)
    p = float(lyap.p)
    lo, hi = float(lyap.coercivity_lo), float(lyap.coercivity_hi)
    bad = 0
    worst = 0.0
    block = np.empty((simmod._block_rows(net.dim), net.dim))
    for start in range(0, samples, len(block)):
        xs = block[:min(len(block), samples - start)]
        for x in xs:
            rng.standard_normal(out=x)
            x *= rng.choice([1e-3, 1.0, 1e3])
        v = bound.values(xs)
        npow = simmod._lp_rows(net.block_norms(xs), p) ** p
        gap = np.maximum(lo * npow - v, v - hi * npow)
        worst = max(worst, float((gap / np.maximum(npow, 1e-300)).max()))
        bad += int(np.count_nonzero(gap > 1e-9 * (1.0 + np.abs(v))))
    return {"samples": samples, "violations": bad, "worst_relative_excess": worst}


def _conclude(report: dict, s: ExampleScenario, outcome: Outcome, violations: int = 0) -> dict:
    report["outcome"] = outcome.to_dict()
    report["matches_expected"] = outcome == s.expected_outcome and violations == 0
    return report


def run_pipeline(s: ExampleScenario, seed: int = 0) -> dict:
    """Run the four stages on a scenario and aggregate one report.

    Module errors become report outcomes rather than exceptions: a failed
    stage gives the outcome ``error`` and keeps what earlier stages wrote.
    The report's ``outcome`` equals the scenario's ``expected_outcome`` for
    every shipped scenario at default parameters.
    """
    report: dict = {"schema": "sgain/1", "scenario": s.name, "seed": seed,
                    "expected_outcome": s.expected_outcome.to_dict(),
                    "notes": s.notes}
    try:
        g, assumptions = derive_and_check(s.generator, s.derivation, report)
        report["gains"].update(s.generator.family.report_notes(s.generator, s.derivation))
        if not assumptions.ok:
            return _conclude(report, s, Outcome("reject-assumption", assumptions.first_failed))
        lyap = certify_gains(g, {}, report)
        if lyap is None:
            return _conclude(report, s, Outcome("small-gain-violated"))

        setup = build_sim(s.generator, s.sim)
        simrep = setup.to_dict()
        decay, dissipation, _ = check_run(setup, lyap, simmod.Zero())
        simrep["decay_fit"] = simmod.fit_decay(decay, "v").to_dict()
        simrep["dissipation_zero_input"] = dissipation.to_dict()
        violations = len(dissipation.violations)
        if not isinstance(setup.signal, simmod.Zero) and setup.net.input_dim:
            forced, dissipation, envelope = check_run(setup, lyap, setup.signal)
            simrep["input"] = setup.signal.to_dict()
            simrep["u_sup_norm"] = forced.u_sup_norm
            simrep["dissipation_forced"] = dissipation.to_dict()
            simrep["envelope_forced"] = envelope.to_dict()
            violations += len(dissipation.violations) + len(envelope.violations)
        simrep["coercivity"] = _coercivity_sweep(lyap, setup.net, COERCIVITY_SAMPLES, seed)
    except SgainError as exc:
        report["error"] = str(exc)
        return _conclude(report, s, Outcome("error"))
    report["simulation"] = simrep
    report["empirical_violations"] = violations + simrep["coercivity"]["violations"]
    return _conclude(report, s, Outcome("certify"), report["empirical_violations"])
