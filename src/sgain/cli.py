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
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import sim as simmod
from .certificate import (assemble_lyapunov, certificate_from_dict, certify,
                          verify_certificate)
from .errors import (CannotCertifyError, ParameterError, SgainError,
                     SmallGainViolatedError)
from .gains import check_assumptions
from .network import generator_from_dict, truncate
from .scenarios import make_scenario, run_pipeline, _gain_summary

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ASSUMPTION = 2
EXIT_SMALL_GAIN = 3
EXIT_VIOLATIONS = 4


def _json_default(o):
    if isinstance(o, Fraction):
        return float(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write_report(out_dir: Path, name: str, report: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")
    return path


def _load_config(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"malformed JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc


def _resolve(cfg: dict):
    """(generator, derivation params, sim config)."""
    net = cfg.get("network")
    if net is None:
        raise ParameterError("config lacks a 'network' entry")
    scenario = None
    if isinstance(net, str):
        gen = generator_from_dict(_load_config(net))
    elif "scenario" in net:
        scenario = make_scenario(net["scenario"], net.get("overrides"))
        gen = scenario.generator
    else:
        gen = generator_from_dict(net)
    derivation = cfg.get("derivation") or (scenario.derivation if scenario else {})
    sim_cfg = {**(scenario.sim if scenario else {}), **cfg.get("sim", {})}
    return gen, derivation, sim_cfg


def _analysis(args):
    """(config, gains, assumption report, report head) of analyze and certify."""
    cfg = _load_config(args.config)
    gen, derivation, _ = _resolve(cfg)
    g = gen.family.derive_gains(gen, derivation)
    assumptions = check_assumptions(g)
    report = {"schema": "sgain/1", "command": args.command, "seed": args.seed,
              "network_family": gen.family_name, "gains": _gain_summary(g),
              "assumptions": assumptions.to_dict()}
    return cfg, g, assumptions, report


def cmd_analyze(args) -> int:
    _, _, assumptions, report = _analysis(args)
    _write_report(Path(args.out), "gains.json", report)
    return EXIT_OK if assumptions.ok else EXIT_ASSUMPTION


def cmd_certify(args) -> int:
    cfg, g, assumptions, report = _analysis(args)
    out = Path(args.out)
    if not assumptions.ok:
        _write_report(out, "certificate.json", report)
        return EXIT_ASSUMPTION
    analysis = cfg.get("analysis", {})
    try:
        cert, g_used, _, bracket = certify(
            g, rho=analysis.get("rho"),
            k_max=int(analysis.get("k_max", 12)),
            n_max=int(analysis.get("N_max", 64)),
            terms=int(analysis.get("K", 60)),
            h_start=analysis.get("h_start"),
            h_doublings=int(analysis.get("h_doublings", 40)))
    except (SmallGainViolatedError, CannotCertifyError) as exc:
        report["error"] = str(exc)
        if getattr(exc, "bracket", None) is not None:
            report["bracket"] = exc.bracket.to_dict()
        _write_report(out, "certificate.json", report)
        return EXIT_SMALL_GAIN
    report["bracket"] = bracket.to_dict()
    report["certificate"] = cert.to_dict()
    report["verification"] = verify_certificate(
        cert, g_used, check_horizon=int(analysis.get("check_horizon", 0))).to_dict()
    _write_report(out, "certificate.json", report)
    return EXIT_OK


def _build_sim(gen, sim_cfg):
    n = int(sim_cfg.get("N", 100))
    net = truncate(gen, n)
    signal = simmod.signal_from_dict(dict(sim_cfg.get("input", {"kind": "zero"})))
    x0 = simmod.initial_state(net, sim_cfg.get("x0", {"kind": "zero"}))
    horizon = float(sim_cfg.get("T", 10.0))
    step = float(sim_cfg.get("h", 1e-3))
    return net, signal, x0, horizon, step


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    gen, derivation, sim_cfg = _resolve(cfg)
    net, signal, x0, horizon, step = _build_sim(gen, sim_cfg)
    lyap = None
    try:
        g = gen.family.derive_gains(gen, derivation)
        if check_assumptions(g).ok:
            cert, g_used, _, _ = certify(g)
            lyap = assemble_lyapunov(cert, g_used)
    except SgainError:
        lyap = None  # simulate without a Lyapunov channel
    csv_states = bool(sim_cfg.get("csv_states", False))
    store = bool(sim_cfg.get("store_states", False)) or csv_states
    traj = simmod.integrate(net, x0, signal, horizon, step, lyapunov=lyap,
                            store_states=store)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    simmod.export_csv(traj, out / "trajectory.csv", include_states=csv_states)
    summary = {"schema": "sgain/1", "command": "simulate", "seed": args.seed,
               "N": net.n_subsystems, "T": horizon, "h": step,
               "input": signal.to_dict(), "diverged": traj.diverged,
               "u_sup_norm": traj.u_sup_norm,
               "final_norm_p": float(traj.norm_p[-1]),
               "final_V": None if traj.v is None else float(traj.v[-1]),
               "samples": int(traj.t.size)}
    try:
        summary["decay_fit"] = simmod.fit_decay(
            traj, "v" if traj.v is not None else "norm").to_dict()
    except SgainError:
        summary["decay_fit"] = None
    _write_report(out, "summary.json", summary)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    gen, derivation, sim_cfg = _resolve(cfg)
    g = gen.family.derive_gains(gen, derivation)
    assumptions = check_assumptions(g)
    if not assumptions.ok:
        _write_report(Path(args.out), "verification.json",
                      {"schema": "sgain/1", "command": "verify",
                       "assumptions": assumptions.to_dict()})
        return EXIT_ASSUMPTION
    cert_path = cfg.get("certificate")
    if cert_path:
        with open(cert_path) as f:
            obj = json.load(f)
        cert = certificate_from_dict(obj.get("certificate", obj))
        g_used = g
    else:
        cert, g_used, _, _ = certify(g)
    scan = verify_certificate(cert, g_used)
    lyap = assemble_lyapunov(cert, g_used)
    net, signal, x0, horizon, step = _build_sim(gen, sim_cfg)
    c_tol = float(sim_cfg.get("c_tol", 20.0))
    traj = simmod.integrate(net, x0, signal, horizon, step, lyapunov=lyap,
                            store_states=False)
    dissipation = simmod.verify_dissipation(traj, lyap, c_tol=c_tol)
    envelope = simmod.verify_envelope(traj, lyap, c_tol=c_tol)
    n_violations = ((0 if scan.ok else 1) + len(dissipation.violations)
                    + len(envelope.violations))
    report = {"schema": "sgain/1", "command": "verify", "seed": args.seed,
              "assumptions": assumptions.to_dict(),
              "certificate_scan": scan.to_dict(),
              "dissipation": dissipation.to_dict(),
              "envelope": envelope.to_dict(),
              "n_violations": n_violations,
              "sim": {"N": net.n_subsystems, "T": horizon, "h": step,
                      "input": signal.to_dict()}}
    _write_report(Path(args.out), "verification.json", report)
    return EXIT_OK if n_violations == 0 else EXIT_VIOLATIONS


def cmd_scenario(args) -> int:
    overrides = _load_config(args.config) if args.config else None
    scenario = make_scenario(args.name, overrides)
    report = run_pipeline(scenario, seed=args.seed)
    out = Path(args.out)
    _write_report(out, "report.json", report)
    if report.get("certificate"):
        _write_report(out, "certificate.json",
                      {"schema": "sgain/1", "certificate": report["certificate"]})
    kind = report["outcome"]["kind"]
    if kind == "certify" and report.get("empirical_violations", 0):
        return EXIT_VIOLATIONS
    return {"certify": EXIT_OK, "reject-assumption": EXIT_ASSUMPTION,
            "small-gain-violated": EXIT_SMALL_GAIN}.get(kind, EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgain",
        description="Stability certification for infinite networks of ODE subsystems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (("analyze", cmd_analyze, True),
                                   ("certify", cmd_certify, True),
                                   ("simulate", cmd_simulate, True),
                                   ("verify", cmd_verify, True)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=fn)
    p = sub.add_parser("scenario")
    p.add_argument("name")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SgainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (SmallGainViolatedError, CannotCertifyError)):
            return EXIT_SMALL_GAIN
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
