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
also call: ``derive_and_check`` and ``certify_gains`` here, ``build_sim``
and ``check_run`` in :mod:`sgain.sim`, imported once there is a certificate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping

from .certificate import (CompositeLyapunov, SmallGainCertificate, certify,
                          verify_certificate)
from .errors import (CannotCertifyError, ParameterError, SgainError,
                     SmallGainViolatedError, UnknownScenarioError)
from .families import Family, generator_from_dict
from .gains import K_MAX, AssumptionReport, GainData, check_assumptions
from .seqrules import PeriodicSeq, as_integer, as_object, load_json, number_at

SCENARIO_NAMES = ("chain-a", "lure-platoon", "traffic", "counter-slow", "counter-gain")

_DIR = Path(__file__).with_name("scenarios")
_FILES = {name: name.replace("-", "_") + ".json" for name in SCENARIO_NAMES}


@dataclass(frozen=True)
class Outcome:
    """Pipeline verdict: certify, reject-assumption (with the failed
    uniformity check), or small-gain-violated."""

    kind: str
    which: str | None = None


@dataclass(frozen=True)
class ExampleScenario:
    name: str
    family: Family
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
    with open(_DIR / _FILES[name]) as f:
        obj = load_json(f)
    if overrides:
        net_keys = ("coefficients", "p", "q")
        obj = _deep_merge(obj, {k: v for k, v in overrides.items() if k not in net_keys})
        obj["network"] = _deep_merge(obj["network"],
                                     {k: v for k, v in overrides.items() if k in net_keys})
    fam = generator_from_dict(obj["network"])
    expected = as_object(obj.get("expected_outcome"), "'expected_outcome'")
    if not isinstance(expected.get("kind"), str):
        raise ParameterError("'expected_outcome' needs a string 'kind'")
    return ExampleScenario(
        name=name, family=fam, derivation=dict(as_object(obj.get("derivation"), "'derivation'")),
        sim=dict(as_object(obj.get("sim"), "'sim'")),
        expected_outcome=Outcome(expected["kind"], expected.get("which")),
        notes=obj.get("notes", ""))


# --------------------------------------------------------------------------
# Pipeline stages
# --------------------------------------------------------------------------

def _gain_summary(g: GainData) -> dict:
    def fin(x):
        x = float(x)
        return None if math.isinf(x) else x

    def param(v):
        if isinstance(v, PeriodicSeq):
            return {"preamble": [float(x) for x in v.preamble],
                    "cycle": [float(x) for x in v.cycle]}
        return float(v)

    return {"p": 2.0, "q": 2.0, "bandwidth": g.gamma.bandwidth,
            "lam_lo": fin(g.lam.lower()), "lam_hi": fin(g.lam.upper()),
            "gamma_u_hi": fin(g.gamma_u.upper()), "gamma_hi": float(g.gamma_hi),
            "gamma_norm": float(g.gamma.sup_column_sum()),
            "alpha_lo": g.vform.alpha[0], "alpha_hi": g.vform.alpha[1],
            "free_params": {k: param(v) for k, v in sorted(g.free_params.items())},
            "conservative": g.conservative}


def derive_and_check(fam: Family, derivation: Mapping,
                     report: dict) -> tuple[GainData, AssumptionReport]:
    """Stage 1: the family's gains and the uniformity assumption checks,
    written into ``report`` as ``gains`` and ``assumptions``."""
    g = fam.derive_gains(derivation)
    assumptions = check_assumptions(g)
    report["gains"] = _gain_summary(g)
    report["assumptions"] = assumptions.to_dict()
    return g, assumptions


def certify_gains(g: GainData, analysis: Mapping, report: dict,
                  stored: SmallGainCertificate | None = None) -> CompositeLyapunov | None:
    """Stage 2: certify ``g`` with the settings of an ``analysis`` section
    (or scan a ``stored`` certificate against ``g``) and return the composite
    Lyapunov function.  Writes the ``bracket``, ``certificate`` and its scan
    ``verification`` (the build's own scan for a fresh certificate) into
    ``report``; with no certificate, the ``error`` and its ``bracket``
    instead, and returns None."""
    if stored is None:
        try:
            cert, g_used = certify(
                g, rho=number_at(analysis, "rho"),
                k_max=as_integer(number_at(analysis, "k_max", K_MAX), "'analysis.k_max'"))
        except (SmallGainViolatedError, CannotCertifyError) as exc:
            report["error"] = str(exc)
            if getattr(exc, "bracket", None) is not None:
                report["bracket"] = exc.bracket.to_dict()
            return None
        report["bracket"] = cert.bracket.to_dict()
        report["certificate"] = cert.to_dict()
        scan = cert.scan  # the build's own scan
    else:
        cert, g_used = stored, g
        scan = verify_certificate(cert, g_used)
    report["verification"] = asdict(scan)
    return CompositeLyapunov(cert, g_used)


def _conclude(report: dict, s: ExampleScenario, outcome: Outcome, violations: int = 0) -> dict:
    report["outcome"] = asdict(outcome)
    report["matches_expected"] = outcome == s.expected_outcome and violations == 0
    return report


def run_pipeline(s: ExampleScenario, seed: int = 0) -> dict:
    """Run the four stages on a scenario and aggregate one report.

    Module errors become report outcomes rather than exceptions: a failed
    stage gives the outcome ``error`` and keeps what earlier stages wrote.
    The report's ``outcome`` equals the scenario's ``expected_outcome`` for
    every shipped scenario at default parameters; ``seed`` is only echoed.
    """
    report: dict = {"schema": "sgain/1", "scenario": s.name, "seed": seed,
                    "expected_outcome": asdict(s.expected_outcome),
                    "notes": s.notes}
    try:
        g, assumptions = derive_and_check(s.family, s.derivation, report)
        report["gains"].update(s.family.report_notes(g))
        if not assumptions.ok:
            return _conclude(report, s, Outcome("reject-assumption", assumptions.failed[0]))
        lyap = certify_gains(g, {}, report)
        if lyap is None:
            return _conclude(report, s, Outcome("small-gain-violated"))

        from . import sim as simmod
        setup = simmod.build_sim(s.family, s.sim)
        simrep = setup.to_dict()
        decay, dissipation, _ = simmod.check_run(setup, lyap, simmod.Zero())
        simrep["decay_fit"] = asdict(simmod.fit_decay(decay, "v"))
        simrep["dissipation_zero_input"] = dissipation.to_dict()
        violations = len(dissipation.violations)
        if not isinstance(setup.signal, simmod.Zero) and setup.net.input_dim:
            forced, dissipation, envelope = simmod.check_run(setup, lyap, setup.signal)
            simrep["input"] = setup.signal.to_dict()
            simrep["u_sup_norm"] = forced.u_sup_norm
            simrep["dissipation_forced"] = dissipation.to_dict()
            simrep["envelope_forced"] = envelope.to_dict()
            violations += len(dissipation.violations) + len(envelope.violations)
    except SgainError as exc:
        report["error"] = str(exc)
        return _conclude(report, s, Outcome("error"))
    report["simulation"] = simrep
    report["empirical_violations"] = violations
    return _conclude(report, s, Outcome("certify"), report["empirical_violations"])
