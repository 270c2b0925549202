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
from pathlib import Path

from .certificate import certificate_from_dict
from .errors import DerivationError, InvalidCertificateError, ParameterError, SgainError
from .families import generator_from_dict
from .scenarios import (ANALYSIS, SIM, ExampleScenario, _deep_merge, certify_gains,
                        derive_and_check, make_scenario, run_pipeline)
from .seqrules import IGNORED, REQUIRED, as_object, as_text, load_json, read

# The exit code of each outcome kind a subcommand returns.
EXIT_CODES = {"ok": 0, "certify": 0, "error": 1, "reject-assumption": 2,
              "small-gain-violated": 3, "violations": 4}


def _write_report(out_dir: Path, name: str, report: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _load_config(path: str) -> dict:
    """A JSON object from a file, decimals parsed exactly."""
    try:
        with open(path) as f:
            return as_object(load_json(f), path)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"malformed JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc


_SCENARIO_REF = {"scenario": (None, REQUIRED), "overrides": (None, None)}


def _network(x, path: str):
    """A ``network`` entry: a description file's path, a scenario or a description."""
    if isinstance(x, str):
        return generator_from_dict(_load_config(x))
    if "scenario" in as_object(x, path):
        ref = read(x, _SCENARIO_REF, path)
        return make_scenario(ref["scenario"], ref["overrides"])
    return generator_from_dict(x, path)


# A run configuration: ``analysis`` is read here and ``sim`` by ``_resolve``
# (after any merge over a scenario's), whatever the command, and
# ``derivation`` by the family; ``schema`` and ``seed`` are informational.
_CONFIG = {"network": (_network, REQUIRED), "derivation": (as_object, {}),
           "analysis": (lambda x, path: read(x, ANALYSIS, path), {}),
           "sim": (as_object, {}), "certificate": (as_text, None),
           "schema": (None, IGNORED), "seed": (None, IGNORED)}


def _resolve(cfg: dict) -> dict:
    """The entries of a run configuration, its ``network`` a family; over a scenario,
    the ``derivation`` and ``sim`` are deep-merged as ``sgain scenario`` overrides are."""
    run = read(cfg, _CONFIG)
    s = run["network"]
    if isinstance(s, ExampleScenario):
        run.update(network=s.family, derivation=_deep_merge(s.derivation, run["derivation"]),
                   sim=_deep_merge(s.sim, run["sim"]))
    run["sim"] = read(run["sim"], SIM, "sim")
    return run


def _gains(args, run):
    """(gains, assumption report, report) of analyze and certify."""
    report = {"schema": "sgain/1", "command": args.command, "seed": args.seed,
              "network_family": run["network"].name}
    return (*derive_and_check(run["network"], run["derivation"], report), report)


def cmd_analyze(args, run) -> str:
    _, assumptions, report = _gains(args, run)
    _write_report(Path(args.out), "gains.json", report)
    return "ok" if assumptions.ok else "reject-assumption"


def cmd_certify(args, run) -> str:
    g, assumptions, report = _gains(args, run)
    kind = "reject-assumption"
    if assumptions.ok:
        kind = "ok" if certify_gains(g, run["analysis"], report) else "small-gain-violated"
    _write_report(Path(args.out), "certificate.json", report)
    return kind


def cmd_simulate(args, run) -> str:
    from . import sim as simmod
    setup = simmod.build_sim(run["network"], run["sim"])
    try:  # without gains, assumptions or a certificate: no V channel
        g, assumptions = derive_and_check(run["network"], run["derivation"], {})
        ok = assumptions.ok
    except (DerivationError, InvalidCertificateError):
        ok = False
    lyap = certify_gains(g, run["analysis"], {}) if ok else None
    traj = simmod.integrate(setup.net, setup.x0, setup.signal, setup.horizon, setup.step,
                            lyapunov=lyap, keep=setup.net.dim if setup.csv_states else 0)
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


def cmd_verify(args, run) -> str:
    from . import sim as simmod
    head: dict = {}
    g, assumptions = derive_and_check(run["network"], run["derivation"], head)
    report = {"schema": "sgain/1", "command": "verify", "assumptions": head["assumptions"]}
    if not assumptions.ok:
        _write_report(Path(args.out), "verification.json", report)
        return "reject-assumption"
    obj = _load_config(run["certificate"]) if run["certificate"] else None
    stored = None if obj is None else certificate_from_dict(obj)
    lyap = certify_gains(g, run["analysis"], head, stored)
    if lyap is None:
        print(f"error: {head['error']}", file=sys.stderr)
        return "small-gain-violated"
    setup = simmod.build_sim(run["network"], run["sim"])
    _, dissipation, envelope = simmod.check_run(setup, lyap, setup.signal)
    scan = head["verification"]
    bad = int(not scan["ok"]) + sum(len(c.violations) for c in (dissipation, envelope) if c)
    report.update({"certificate_scan": scan, "dissipation": dissipation.to_dict(),
                   "envelope": envelope and envelope.to_dict(), "n_violations": bad,
                   "seed": args.seed, "sim": {**setup.to_dict(), "input": setup.signal.to_dict()}})
    _write_report(Path(args.out), "verification.json", report)
    return "violations" if bad else "ok"


def cmd_scenario(args, overrides) -> str:
    report = run_pipeline(make_scenario(args.name, overrides), seed=args.seed)
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
        cfg = None if args.config is None else _load_config(args.config)
        kind = args.fn(args, cfg if args.command == "scenario" else _resolve(cfg))
    except (SgainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        kind = "error"
    return EXIT_CODES[kind]


if __name__ == "__main__":
    sys.exit(main())
