"""Command-line entry point.

Subcommands wire JSON run configurations to the analysis pipeline:

    sgain analyze  --config cfg.json --out DIR      # gains + assumption verdicts
    sgain certify  --config cfg.json --out DIR      # certificate construction
    sgain simulate --config cfg.json --out DIR      # trajectory CSV + summary
    sgain verify   --config cfg.json --out DIR      # dissipation/envelope checks
    sgain scenario NAME [--config overrides] --out DIR

Exit codes: 0 success, 1 input error, 2 assumption rejection,
3 small-gain violated, 4 verification violations.  Reports are JSON with
sorted keys, so identical configurations and seeds reproduce byte-identical
files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .certificate import certificate_from_dict
from .errors import DerivationError, InvalidCertificateError, ParameterError, SgainError
from .families import generator_from_dict
from .scenarios import certify_gains, derive_and_check, make_scenario, run_pipeline
from .seqrules import as_object, load_json

# The exit code of each outcome kind a subcommand returns.
EXIT_CODES = {"ok": 0, "certify": 0, "error": 1, "reject-assumption": 2,
              "small-gain-violated": 3, "violations": 4}


def _json_default(o):
    if isinstance(o, Fraction):
        return float(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write_report(out_dir: Path, name: str, report: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(json.dumps(report, indent=2, sort_keys=True,
                                           default=_json_default) + "\n")


def _load_config(path) -> dict:
    """A JSON object from a file, decimals parsed exactly."""
    if not isinstance(path, str):
        raise ParameterError(f"expected a file path, got {path!r}")
    try:
        with open(path) as f:
            return as_object(load_json(f), f"the content of {path}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"malformed JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc


def _resolve(cfg: dict):
    """(family, derivation, analysis, sim) of a run configuration."""
    net = cfg.get("network")
    if net is None:
        raise ParameterError("config lacks a 'network' entry")
    scenario = None
    if isinstance(net, str):
        fam = generator_from_dict(_load_config(net))
    elif "scenario" in as_object(net, "'network'"):
        scenario = make_scenario(net["scenario"], net.get("overrides"))
        fam = scenario.family
    else:
        fam = generator_from_dict(net)
    derivation, analysis, sim = (as_object(cfg.get(key), repr(key))
                                 for key in ("derivation", "analysis", "sim"))
    if scenario is not None:
        derivation, sim = derivation or scenario.derivation, {**scenario.sim, **sim}
    return fam, derivation, analysis, sim


def _gains(args, cfg):
    """(gains, assumption report, analysis, report) of analyze and certify."""
    fam, derivation, analysis, _ = _resolve(cfg)
    report = {"schema": "sgain/1", "command": args.command, "seed": args.seed,
              "network_family": fam.name}
    return (*derive_and_check(fam, derivation, report), analysis, report)


def cmd_analyze(args, cfg) -> str:
    _, assumptions, _, report = _gains(args, cfg)
    _write_report(Path(args.out), "gains.json", report)
    return "ok" if assumptions.ok else "reject-assumption"


def cmd_certify(args, cfg) -> str:
    g, assumptions, analysis, report = _gains(args, cfg)
    kind = "reject-assumption"
    if assumptions.ok:
        kind = "ok" if certify_gains(g, analysis, report) else "small-gain-violated"
    _write_report(Path(args.out), "certificate.json", report)
    return kind


def cmd_simulate(args, cfg) -> str:
    from . import sim as simmod
    fam, derivation, analysis, sim = _resolve(cfg)
    csv_states = sim.get("csv_states")
    if csv_states is not None and not isinstance(csv_states, bool):
        raise ParameterError(f"'sim.csv_states' must be true or false, got {csv_states!r}")
    setup = simmod.build_sim(fam, sim)
    try:  # without gains, assumptions or a certificate: no V channel
        g, assumptions = derive_and_check(fam, derivation, {})
        ok = assumptions.ok
    except (DerivationError, InvalidCertificateError):
        ok = False
    lyap = certify_gains(g, analysis, {}) if ok else None
    traj = simmod.integrate(setup.net, setup.x0, setup.signal, setup.horizon, setup.step,
                            lyapunov=lyap, keep=setup.net.dim if csv_states else 0)
    summary = {"schema": "sgain/1", "command": "simulate", "seed": args.seed,
               **setup.to_dict(), "input": setup.signal.to_dict(),
               "diverged": traj.diverged, "u_sup_norm": traj.u_sup_norm,
               "final_norm_p": float(traj.norm_p[-1]),
               "final_V": None if traj.v is None else float(traj.v[-1]),
               "samples": int(traj.t.size)}
    try:
        summary["decay_fit"] = asdict(simmod.fit_decay(
            traj, "v" if traj.v is not None else "norm"))
    except SgainError:
        summary["decay_fit"] = None
    _write_report(Path(args.out), "summary.json", summary)
    simmod.export_csv(traj, Path(args.out) / "trajectory.csv")
    return "ok"


def cmd_verify(args, cfg) -> str:
    from . import sim as simmod
    fam, derivation, analysis, sim = _resolve(cfg)
    head: dict = {}
    g, assumptions = derive_and_check(fam, derivation, head)
    report = {"schema": "sgain/1", "command": "verify", "assumptions": head["assumptions"]}
    if not assumptions.ok:
        _write_report(Path(args.out), "verification.json", report)
        return "reject-assumption"
    obj = _load_config(cfg["certificate"]) if cfg.get("certificate") else None
    stored = None if obj is None else certificate_from_dict(obj.get("certificate", obj))
    lyap = certify_gains(g, analysis, head, stored)
    if lyap is None:
        print(f"error: {head['error']}", file=sys.stderr)
        return "small-gain-violated"
    setup = simmod.build_sim(fam, sim)
    _, dissipation, envelope = simmod.check_run(setup, lyap, setup.signal)
    scan = head["verification"]
    bad = int(not scan["ok"]) + sum(len(c.violations) for c in (dissipation, envelope) if c)
    report.update({"certificate_scan": scan, "dissipation": dissipation.to_dict(),
                   "envelope": envelope and envelope.to_dict(), "n_violations": bad,
                   "seed": args.seed, "sim": {**setup.to_dict(), "input": setup.signal.to_dict()}})
    _write_report(Path(args.out), "verification.json", report)
    return "violations" if bad else "ok"


def cmd_scenario(args, cfg) -> str:
    report = run_pipeline(make_scenario(args.name, cfg), seed=args.seed)
    out = Path(args.out)
    _write_report(out, "report.json", report)
    if report.get("certificate"):
        _write_report(out, "certificate.json",
                      {"schema": "sgain/1", "certificate": report["certificate"]})
    kind = report["outcome"]["kind"]
    if kind == "error":
        print(f"error: {report['error']}", file=sys.stderr)
    return "violations" if report.get("empirical_violations") else kind


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="sgain",
        description="Stability certification for infinite networks of ODE subsystems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("analyze", cmd_analyze), ("certify", cmd_certify),
                     ("simulate", cmd_simulate), ("verify", cmd_verify),
                     ("scenario", cmd_scenario)):
        p = sub.add_parser(name)
        if name == "scenario":
            p.add_argument("name")
        p.add_argument("--config", required=name != "scenario")
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        kind = args.fn(args, None if args.config is None else _load_config(args.config))
    except (SgainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        kind = "error"
    return EXIT_CODES[kind]


if __name__ == "__main__":
    sys.exit(main())
