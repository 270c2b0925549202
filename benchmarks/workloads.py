"""The three workloads: seeded job streams and the checks on their outputs.

A workload hands out *rounds*: fixed-composition lists of jobs whose
parameters are drawn from the workload seed.  Every round has the same
mix of job types, so the work per round hardly depends on the seed and a
run's medians are comparable across seeds.  Jobs reach the program only
through its stable entry points: ``sgain.cli.main(argv)`` on generated
config files, and ``sgain.truncation_convergence_probe`` on a generator
loaded from a generated description file.

Job ``family`` groups jobs for the per-family timings: ``linear-chain``,
``lure-banded`` and ``traffic`` are the families of the shipped
scenarios ``chain-a``, ``lure-platoon`` and ``traffic``; the negative
controls are ``counter``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle

EXIT_OK, EXIT_ASSUMPTION, EXIT_SMALL_GAIN, EXIT_VIOLATIONS = 0, 2, 3, 4

# Golden-ratio stride: successive slots spread a band's targets evenly.
_STRIDE = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Job:
    kind: str                    # scenario | certify | verify | probe
    family: str                  # linear-chain | lure-banded | traffic | counter
    label: str                   # what the trace breakdown groups by
    argv: list | None = None     # cli.main arguments, without --out
    probe: dict | None = None    # truncation_convergence_probe arguments
    expect: dict = field(default_factory=dict)


@dataclass
class Verdict:
    failures: list
    decided: bool


def run_job(sgain, job: Job, out: Path):
    """Execute one job through the program's entry points."""
    if job.probe is None:
        return sgain.cli.main(job.argv + ["--out", str(out)])
    p = job.probe
    gen = sgain.load_generator(p["network"])
    return sgain.truncation_convergence_probe(
        gen, p["x0"], sgain.signal_from_dict(p["input"]), p["T"], p["h"],
        p["n_list"], p["first_k"])


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True))
    return str(path)


# --------------------------------------------------------------------------
# Random eventually periodic descriptions
# --------------------------------------------------------------------------


def _num(x: Fraction):
    """JSON form of an exact rational: an integer or a ``"p/q"`` string."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else str(x)


def _rule(rng: random.Random, values, preamble: int, cycle: int, first: int) -> dict:
    """A rule over values[first], values[first + 1], ... in a seeded order.

    The multiset of values is fixed by the job's slot and only its order is
    random: exact-arithmetic cost grows with the number and size of
    distinct rationals, so drawing each entry independently made the work
    of a run depend on the seed.
    """
    entries = [values[(first + i) % len(values)] for i in range(preamble + cycle)]
    rng.shuffle(entries)
    return {"preamble": entries[:preamble], "cycle": entries[preamble:]}


def _map_rule(rule: dict, fn) -> dict:
    return {k: [fn(v) for v in rule[k]] for k in ("preamble", "cycle")}


def _rule_json(rule: dict) -> dict:
    return _map_rule(rule, _num)


def _network(family: str, bandwidth: int, coefficients: dict) -> dict:
    return {"schema": "sgain/1", "family": family, "bandwidth": bandwidth,
            "p": 2, "q": 2, "coefficients": coefficients}


class _Shape:
    """A description with a free coupling scale s: every Psi entry is
    proportional to s**2, so ``radius(s) = s**2 * radius(1)``.

    The ``slot`` of a job within its round fixes the preamble and cycle
    lengths of the coefficient rules and the values they use, so every
    round has the same mix of structures; the seed orders the values.
    """

    def __init__(self, unit_radius: oracle.Radius):
        self.unit = unit_radius

    def scale_for(self, target: float, which: str) -> float:
        return math.sqrt(target / getattr(self.unit, which))

    def valid(self, s) -> bool:
        return True


class _ChainShape(_Shape):
    def __init__(self, rng: random.Random, slot: int):
        diag_vals = [Fraction(1), Fraction(6, 5), Fraction(5, 4), Fraction(3, 2), Fraction(2)]
        off_vals = [Fraction(k, 10) for k in range(2, 11)]
        self.diag = _rule(rng, diag_vals, slot % 3, 1 + slot % 3, slot)
        self.sub = _rule(rng, off_vals, (slot + 1) % 3, 1 + slot % 2, 2 * slot)
        self.sup = _rule(rng, off_vals, (slot + 2) % 3, 2 - slot % 2, 2 * slot + 5)
        quarter = min(self.diag["preamble"] + self.diag["cycle"]) / 4
        self.derivation = {"eps": _num(quarter), "delta": _num(quarter)}
        super().__init__(oracle.radius(self.network(Fraction(1)), self.derivation))

    def quantize(self, s: float) -> Fraction:
        return Fraction(max(1, round(s * 32)), 32)

    def network(self, s: Fraction) -> dict:
        return _network("linear-chain", 1, {
            "diag": _rule_json(self.diag),
            "sub": _rule_json(_map_rule(self.sub, lambda v: v * s)),
            "sup": _rule_json(_map_rule(self.sup, lambda v: v * s))})


class _TrafficShape(_Shape):
    C_UNIT = Fraction(1, 10)

    def __init__(self, rng: random.Random, slot: int):
        self.v = _rule(rng, [Fraction(1), Fraction(5, 4), Fraction(3, 2)], slot % 3,
                       (1, 2, 4)[slot % 3], slot)
        self.l = _rule(rng, [Fraction(1), Fraction(5, 4)], (slot + 1) % 3,
                       (1, 2, 4)[(slot + 2) % 3], slot)
        self.e = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))[slot % 3]
        self.r = (Fraction(1, 2), Fraction(1), Fraction(2))[(slot + 1) % 3]
        flow_lo = (min(self.v["preamble"] + self.v["cycle"])
                   / max(self.l["preamble"] + self.l["cycle"]))
        self.derivation = {"eps": _num(flow_lo / 8)}
        super().__init__(oracle.radius(self.network(Fraction(1)), self.derivation))

    def quantize(self, s: float) -> Fraction:
        c = Fraction(max(1, round(float(self.C_UNIT) * s * 1000)), 1000)
        return c / self.C_UNIT

    def network(self, s: Fraction) -> dict:
        return _network("traffic", 4, {
            "v": _rule_json(self.v), "l": _rule_json(self.l),
            "c": _num(self.C_UNIT * s), "e": _num(self.e), "r": _num(self.r)})

    def valid(self, s: Fraction) -> bool:
        return self.C_UNIT * s < Fraction(1, 2)  # the family requires c < 1/2


class _LureShape(_Shape):
    def __init__(self, rng: random.Random, slot: int):
        k0 = rng.choice([1.0, 1.5, 2.0])
        b0 = rng.choice([2.0, 2.5, 3.0])
        a = np.array([[0.0, 1.0], [-k0, -b0]])
        # M solves A^T M + M A = -I; then A^T M + M A + kappa M <= 0 for
        # kappa <= 1 / lambda_max(M), which is the sector-free S-procedure test.
        eye = np.eye(2)
        lhs = np.kron(eye, a.T) + np.kron(a.T, eye)
        m = np.linalg.solve(lhs, -eye.reshape(-1)).reshape(2, 2)
        m = 0.5 * (m + m.T)
        kappa = round(0.9 / float(np.linalg.eigvalsh(m)[-1]), 6)
        self.a = a.tolist()
        self.coupling = np.array([[0.0, 0.0], [k0, b0]])
        self.w_left = rng.choice([0.5, 0.75, 1.0])
        self.w_right = rng.choice([0.5, 0.75, 1.0])
        self.derivation = {"M": m.tolist(), "kappa": kappa,
                           "eps": round(kappa / 8, 8), "tau": 1.0}
        super().__init__(oracle.radius(self.network(1.0), self.derivation))

    def quantize(self, s: float) -> float:
        return round(s, 5)

    def network(self, s: float) -> dict:
        return _network("lure-banded", 1, {
            "A": self.a, "E": [[0.0], [0.0]], "G": [[0.0, 0.0]], "B": [[0.0], [1.0]],
            "D_left": (s * self.w_left * self.coupling).tolist(),
            "D_right": (s * self.w_right * self.coupling).tolist(),
            "sector": [-1, 1], "phi": "zero"})


_SHAPES = {"linear-chain": _ChainShape, "traffic": _TrafficShape,
           "lure-banded": _LureShape}

# Band of a description by the oracle's radius.  A truncation radius of at
# least 1 refutes.  A Gelfand bound at most STABLE_UPPER leaves the
# program's own bracket (the same bound, k <= 12) clearly below 1.  In
# between lies the near-critical band, split by where the Gelfand bound
# falls: below 1 the current bracket can certify ("near-in"); at or above
# 1 it straddles 1 ("near-out").
STABLE_UPPER = 0.9


def band_of(r: oracle.Radius) -> str:
    if r.lower >= 1.0:
        return "unstable"
    if r.upper <= STABLE_UPPER:
        return "stable"
    return "near-in" if r.upper < 1.0 else "near-out"


# Where each band's targets are drawn, and which radius they aim at.
_TARGETS = {"stable": ("upper", 0.3, 0.85),
            "near-in": ("upper", 0.92, 0.985),
            "near-out": ("upper", 1.005, 1.05),
            "unstable": ("lower", 1.05, 1.5)}


def draw_description(rng: random.Random, family: str, band: str, position: float,
                     slot: int = 0):
    """A description of ``family`` whose oracle radius falls in ``band``.

    ``position`` in [0, 1) picks the target inside the band's range.
    Returns ``(network, derivation, radius)``.
    """
    which, lo, hi = _TARGETS[band]
    target = lo + (hi - lo) * position
    for _ in range(50):
        shape = _SHAPES[family](rng, slot)
        s = shape.quantize(shape.scale_for(target, which))
        if not shape.valid(s):
            continue
        r = shape.unit.scaled(float(s) ** 2)
        if band_of(r) == band:
            return shape.network(s), shape.derivation, r
    raise RuntimeError(f"no {family} description found in band {band}")


COUNTERS = {"counterexample-slow": "lambda_lo", "counterexample-gain": "gamma_u"}


def _counter_network(family: str) -> dict:
    return _network(family, 1, {})


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, sgain, work: Path, seed: int, short: bool):
        self.sgain = sgain
        self.work = work
        self.seed = seed
        self.short = short
        self.rng = random.Random(f"{self.name}:{seed}")
        self._files = 0

    def config(self, stem: str, obj) -> str:
        """Write a generated input file under a name no other job uses."""
        self._files += 1
        return _write_json(self.work / f"{stem}-{self._files:05d}.json", obj)

    @staticmethod
    def position(slot: int) -> float:
        """Target position inside a band for a job's slot in its round.

        It depends on nothing else, so every round, on every seed, does
        the same work whatever the number of rounds a run completes.
        """
        return (0.5 + slot * _STRIDE) % 1.0

    def round(self, r: int) -> list:
        raise NotImplementedError

    def check(self, job: Job, out: Path, result) -> Verdict:
        raise NotImplementedError


SHIPPED = (("chain-a", "linear-chain", EXIT_OK),
           ("lure-platoon", "lure-banded", EXIT_OK),
           ("traffic", "traffic", EXIT_OK),
           ("counter-slow", "counter", EXIT_ASSUMPTION),
           ("counter-gain", "counter", EXIT_ASSUMPTION))
_EXIT_OF_OUTCOME = {"certify": EXIT_OK, "reject-assumption": EXIT_ASSUMPTION,
                    "small-gain-violated": EXIT_SMALL_GAIN}


class Shipped(Workload):
    """The five packaged scenarios end to end, in a fixed order."""

    name = "shipped"

    def __init__(self, *args):
        super().__init__(*args)
        self.reference: dict[str, bytes] = {}
        self.extra = []
        if self.short:
            small = {"sim": {"N": 20, "T": 0.2}}
            self.extra = ["--config", self.config("short", small)]

    def round(self, r: int) -> list:
        return [Job("scenario", family, name,
                    argv=["scenario", name, "--seed", str(self.seed)] + self.extra,
                    expect={"exit": code})
                for name, family, code in SHIPPED]

    def check(self, job, out, result):
        failures = []
        if result != job.expect["exit"]:
            failures.append(f"exit {result}, expected {job.expect['exit']}")
        path = out / "report.json"
        try:
            raw = path.read_bytes()
            report = json.loads(raw)
        except (OSError, ValueError):
            return Verdict(failures + ["report.json missing or malformed"], False)
        kind = report.get("outcome", {}).get("kind")
        if _EXIT_OF_OUTCOME.get(report.get("expected_outcome", {}).get("kind")) != job.expect["exit"]:
            failures.append("expected_outcome disagrees with the scenario's known verdict")
        if report.get("matches_expected") is not True:
            failures.append("matches_expected is not true")
        if report.get("empirical_violations", 0) != 0:
            failures.append(f"{report['empirical_violations']} empirical violations")
        ref = self.reference.setdefault(job.label, raw)
        if raw != ref:
            failures.append("report.json differs from the first run with this seed")
        refuted = (report.get("bracket") or {}).get("lower", 0) >= 1
        decided = kind in ("certify", "reject-assumption") or refuted
        return Verdict(failures, decided)


class CertifyMix(Workload):
    """Generated descriptions in four bands plus the negative controls,
    through ``certify`` only."""

    name = "certify-mix"
    # Bands per family and round; a pair alternates from round to round.
    # A Lur'e gain operator is symmetric, so its bracket is tight and it has
    # no near-out band.  The counts keep the fast jobs (Lur'e, near-out,
    # unstable, counters) near a third of a round, so the median of all job
    # times falls inside the cluster of stable chain jobs, not at its edge.
    BANDS = {"linear-chain": ["stable"] * 6 + ["near-in", "near-out", "unstable"],
             "traffic": ["stable"] * 2 + ["near-in", "near-out", "unstable"],
             "lure-banded": ["stable", ("near-in", "unstable")]}

    def round(self, r: int) -> list:
        jobs = []
        for family, slots in self.BANDS.items():
            bands = [b[r % 2] if isinstance(b, tuple) else b for b in slots]
            if self.short:
                names = [n for b in slots for n in (b if isinstance(b, tuple) else (b,))]
                bands = sorted(set(names), key=names.index)
            for slot, band in enumerate(bands):
                net, deriv, rad = draw_description(self.rng, family, band,
                                                   self.position(slot), slot)
                jobs.append(self._job(family, band, net, deriv,
                                      {"band": band, "lower": rad.lower, "upper": rad.upper}))
        family, failed = list(COUNTERS.items())[r % len(COUNTERS)]
        jobs.append(self._job("counter", "counter", _counter_network(family), {},
                              {"band": "counter", "failed": failed}))
        self.rng.shuffle(jobs)
        return jobs

    def _job(self, family, band, net, deriv, expect):
        path = self.config("certify", {
            "schema": "sgain/1", "network": net, "derivation": deriv,
            "seed": self.seed})
        expect = {**expect, "config": path}
        return Job("certify", family, f"{family}/{band}",
                   argv=["certify", "--config", path, "--seed", str(self.seed)],
                   expect=expect)

    def check(self, job, out, result):
        band = job.expect["band"]
        report = _read_json(out / "certificate.json")
        if report is None:
            return Verdict([f"exit {result} without a readable certificate.json"], False)
        failures = []
        if band == "counter":
            failed = report.get("assumptions", {}).get("failed", [])
            if result != EXIT_ASSUMPTION or failed[:1] != [job.expect["failed"]]:
                failures.append(f"exit {result}, failed {failed}; expected rejection "
                                f"at {job.expect['failed']}")
            return Verdict(failures, result == EXIT_ASSUMPTION)
        certified = result == EXIT_OK
        refuted = result == EXIT_SMALL_GAIN and (report.get("bracket") or {}).get("lower", 0) >= 1
        if result not in (EXIT_OK, EXIT_SMALL_GAIN):
            failures.append(f"exit {result}")
        if band == "stable" and not certified:
            failures.append(f"stable description (Gelfand {job.expect['upper']:.4f}) "
                            "did not certify")
        if job.expect["lower"] >= 1 and certified:
            failures.append(f"certified although the truncation radius is "
                            f"{job.expect['lower']:.4f}")
        if certified:
            failures += self._rescan(job, out, report)
        return Verdict(failures, certified or refuted)

    def _rescan(self, job, out, report) -> list:
        """Re-scan the emitted certificate file with ``verify_certificate``
        through ``sgain verify`` (one RK4 step on the smallest truncation)."""
        if "certificate" not in report:
            return ["exit 0 without a certificate"]
        cfg = json.loads(Path(job.expect["config"]).read_text())
        cfg["certificate"] = str(out / "certificate.json")
        cfg["sim"] = {"N": 5, "T": 0.001, "h": 0.001}
        rescan_out = out / "rescan"
        code = self.sgain.cli.main(["verify", "--config", _write_json(out / "rescan.json", cfg),
                                    "--out", str(rescan_out)])
        scan = (_read_json(rescan_out / "verification.json") or {}).get("certificate_scan")
        if scan is None:
            return [f"re-scan produced no certificate_scan (exit {code})"]
        if not scan["worst_margin"] <= 0:
            return [f"emitted certificate re-scans to margin {scan['worst_margin']:g} "
                    f"at index {scan['worst_index']}"]
        return []


class SimSweep(Workload):
    """Certificate checks and truncation probes on growing truncations."""

    name = "sim-sweep"
    FAMILIES = ("linear-chain", "traffic", "lure-banded")

    def __init__(self, *args):
        super().__init__(*args)
        if self.short:
            self.sizes, self.horizon = (30, 60), 0.05
            self.probe_sizes, self.probe_horizon = [20, 40, 80], 0.05
        else:
            self.sizes, self.horizon = (100, 400, 1000, 2500), 0.5
            self.probe_sizes, self.probe_horizon = [100, 200, 400, 800], 0.25
        # One stable description per family, certified before timing starts.
        self.described = {}
        for k, family in enumerate(self.FAMILIES):
            net, deriv, _ = draw_description(self.rng, family, "stable",
                                             0.5 * self.position(k), k)
            net_path = self.config("network", net)
            cfg = {"schema": "sgain/1", "network": net, "derivation": deriv}
            cfg_path = self.config("certify", cfg)
            cert_dir = self.work / f"cert-{family}"
            code = self.sgain.cli.main(["certify", "--config", cfg_path, "--out", str(cert_dir)])
            if code != EXIT_OK:
                raise RuntimeError(f"set-up: certify exited {code} on a stable {family} network")
            self.described[family] = (net_path, cfg, str(cert_dir / "certificate.json"))

    def _x0_input(self, family):
        rng = self.rng
        x0 = {"kind": "first-k", "K": rng.randint(3, 8), "value": round(rng.uniform(0.5, 2.0), 3)}
        if family == "linear-chain":
            return x0, {"kind": "zero"}
        return x0, {"kind": "geometric", "amplitude": round(rng.uniform(0.5, 1.5), 3),
                    "ratio": round(rng.uniform(0.3, 0.7), 3)}

    def round(self, r: int) -> list:
        jobs = []
        for family in self.FAMILIES:
            net_path, cfg, cert_path = self.described[family]
            for n in self.sizes:
                x0, signal = self._x0_input(family)
                run_cfg = {**cfg, "certificate": cert_path, "seed": self.seed,
                           "sim": {"N": n, "T": self.horizon, "h": 0.001,
                                   "x0": x0, "input": signal}}
                path = self.config("verify", run_cfg)
                jobs.append(Job("verify", family, f"{family}/verify-N{n}",
                                argv=["verify", "--config", path, "--seed", str(self.seed)]))
            x0, signal = self._x0_input(family)
            x0["K"] = 5
            jobs.append(Job("probe", family, f"{family}/probe", probe={
                "network": net_path, "x0": x0, "input": signal, "T": self.probe_horizon,
                "h": 0.001, "n_list": self.probe_sizes, "first_k": 5}))
        self.rng.shuffle(jobs)
        return jobs

    def check(self, job, out, result):
        if job.kind == "probe":
            rows = result if isinstance(result, list) else []
            if len(rows) != len(job.probe["n_list"]) - 1:
                return Verdict([f"probe returned {len(rows)} rows"], False)
            bad = [row for row in rows if not math.isfinite(row.get("max_deviation", math.nan))]
            return Verdict([f"non-finite probe deviation {bad[0]}"] if bad else [], True)
        report = _read_json(out / "verification.json") or {}
        failures = []
        if result != EXIT_OK:
            failures.append(f"verify exited {result}")
        if report.get("n_violations") != 0:
            failures.append(f"{report.get('n_violations')} violations")
        return Verdict(failures, result in (EXIT_OK, EXIT_VIOLATIONS))


WORKLOADS = {w.name: w for w in (Shipped, CertifyMix, SimSweep)}
