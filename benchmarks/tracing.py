"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of the layer modules
(``sgain.gains``, ``certificate``, ``network``, ``sim``, ``scenarios``,
``cli``) in every ``sgain`` namespace that binds it by name, so a call
through ``sgain.certify``, ``sgain.scenarios.certify`` or
``sgain.cli.certify`` is seen alike.  Spans (name, start, end, parent,
job) stay in memory; self time is a span's duration minus its child spans.
Per-element helpers are counted but not timed, so their time stays in the
caller's self time.

Metrics name the functions they read.  When a later change removes or
renames one, the metric is reported as an absent layer with value 0
instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("gains", "certificate", "network", "sim", "scenarios", "cli")

# Called once per matrix row, subsystem, sample or RK4 step.
COUNT_ONLY = frozenset({"gains.adjoint_apply", "network.generate_spec",
                        "network.classify_traffic_cell", "network.evaluate_rhs",
                        "sim.lp_norm", "sim.lq_input_norm"})

DERIVE = ("gains.derive_gains_linear_chain", "gains.derive_gains_traffic",
          "gains.derive_gains_lure", "gains.optimize_chain_free_params",
          "gains.check_lure_lmi", "gains.traffic_small_gain_sufficient")
CHECKS = ("sim.verify_dissipation", "sim.verify_envelope", "sim.fit_decay")

# What each traced function's return value contributes, by value name.
_HOOKS = {
    "gains.spectral_bracket":
        lambda args, r: [("bracket_width", float(r.upper) - float(r.lower))],
    "certificate.neumann_eta": lambda args, r: [("neumann_terms", int(r.terms_used))],
    "network.truncate": lambda args, r: [("subsystems", int(r.n_subsystems))],
    "sim.integrate": lambda args, r: [("traj_steps", r.t.size - 1),
                                      ("state_steps", (r.t.size - 1) * int(args[0].dim))],
}

# (metric, unit, functions it reads).  Units ending in /job are totals
# over the traced jobs divided by their number.
PER_LAYER = (
    ("gains.self_s", "s/job", ("gains",)),
    ("gains.derive_s", "s/job", DERIVE),
    ("gains.gelfand_s", "s/job", ("gains.operator_power_column_sums",)),
    ("gains.gelfand_calls", "calls/job", ("gains.operator_power_column_sums",)),
    ("gains.perron_s", "s/job", ("gains.spectral_bracket",)),
    ("gains.bracket_width", "1", ("gains.spectral_bracket",)),
    ("certificate.self_s", "s/job", ("certificate",)),
    ("certificate.neumann_s", "s/job", ("certificate.neumann_eta",)),
    ("certificate.neumann_terms", "terms/job", ("certificate.neumann_eta",)),
    ("certificate.adjoint_calls", "calls/job", ("certificate.neumann_eta", "gains.adjoint_apply")),
    ("certificate.scan_s", "s/job", ("certificate.verify_certificate",)),
    ("network.self_s", "s/job", ("network",)),
    ("network.truncate_s", "s/job", ("network.truncate",)),
    ("network.subsystems_per_s", "1/s", ("network.truncate",)),
    ("sim.self_s", "s/job", ("sim",)),
    ("sim.integrate_s", "s/job", ("sim.integrate",)),
    ("sim.traj_steps_per_s", "1/s", ("sim.integrate",)),
    ("sim.state_steps_per_s", "1/s", ("sim.integrate",)),
    ("sim.checks_s", "s/job", CHECKS),
    ("sim.probe_s", "s/job", ("sim.truncation_convergence_probe",)),
    ("scenarios.self_s", "s/job", ("scenarios",)),
    ("scenarios.pipeline_self_s", "s/job", ("scenarios.run_pipeline",)),
    ("scenarios.make_s", "s/job", ("scenarios.make_scenario",)),
    ("cli.self_s", "s/job", ("cli",)),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (helper, innermost span name)
        self.values: dict[str, list] = defaultdict(list)
        self.installed: set[str] = set()
        self.job = -1
        self.recording = False
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "sgain" or n.startswith("sgain."))]
        for layer in LAYERS:
            mod = sys.modules.get(f"sgain.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._counter(name, fn) if name in COUNT_ONLY else self._span(name, fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, bound, wrapper)
                            self._patched.append((ns, bound, fn))
                self.installed.add(name)

    def uninstall(self) -> None:
        for ns, bound, fn in reversed(self._patched):
            setattr(ns, bound, fn)
        self._patched.clear()

    def _span(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job])
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = start, end
            if hook is not None:
                try:
                    for key, value in hook(args, result):
                        self.values[key].append(value)
                except (AttributeError, TypeError, IndexError, ValueError):
                    pass  # a changed return type leaves the value unrecorded
            return result

        return traced

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.recording:
                caller = self.spans[self.stack[-1]][0] if self.stack else ""
                self.counts[(name, caller)] += 1
            return fn(*args, **kwargs)

        return counted

    # -- analysis -----------------------------------------------------------

    def self_times(self, scale):
        """Self time per (function, job), times the job's factor in ``scale``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple, float] = defaultdict(float)
        for (name, start, end, parent, job), inner in zip(self.spans, child):
            out[(name, job)] += ((end - start) - inner) * scale[job]
        return out

    def metrics(self, scale: list):
        """``{metric: (value, unit)}`` and the metrics none of whose
        functions exist (reported as 0)."""
        n_jobs = len(scale)
        selfs = self.self_times(scale)
        by_fn: dict[str, float] = defaultdict(float)
        for (name, _), t in selfs.items():
            by_fn[name] += t
        calls = Counter(span[0] for span in self.spans)

        def self_of(fns):
            return sum(t for name, t in by_fn.items()
                       if name in fns or name.split(".")[0] in fns)

        def rate(key, fn):
            busy = by_fn.get(fn, 0.0)
            return sum(self.values[key]) / busy if busy > 0 else 0.0

        special = {
            "gains.gelfand_calls": lambda: calls["gains.operator_power_column_sums"] / n_jobs,
            "gains.bracket_width": lambda: (statistics.median(self.values["bracket_width"])
                                            if self.values["bracket_width"] else 0.0),
            "certificate.neumann_terms": lambda: sum(self.values["neumann_terms"]) / n_jobs,
            "certificate.adjoint_calls": lambda: self.counts[
                ("gains.adjoint_apply", "certificate.neumann_eta")] / n_jobs,
            "network.subsystems_per_s": lambda: rate("subsystems", "network.truncate"),
            "sim.traj_steps_per_s": lambda: rate("traj_steps", "sim.integrate"),
            "sim.state_steps_per_s": lambda: rate("state_steps", "sim.integrate"),
        }
        out, absent = {}, []
        for metric, unit, fns in PER_LAYER:
            if not any(self._present(f) for f in fns):
                absent.append(metric)
                out[metric] = (0.0, unit)
            else:
                value = special[metric]() if metric in special else self_of(fns) / n_jobs
                out[metric] = (value, unit)
        return out, absent

    def missing(self) -> list[str]:
        """Functions or layers named by a metric that the program lacks."""
        return sorted({f for _, _, fns in PER_LAYER for f in fns if not self._present(f)})

    def _present(self, fn: str) -> bool:
        return fn in self.installed or any(i.startswith(fn + ".") for i in self.installed)

    def breakdown(self, labels: list[str], times: list[float], scale: list):
        """Mean job time and mean self time per layer, by job label."""
        per_job: dict[int, Counter] = defaultdict(Counter)
        for (name, job), t in self.self_times(scale).items():
            per_job[job][name.split(".")[0]] += t
        rows: dict[str, list] = defaultdict(list)
        for job, (label, t) in enumerate(zip(labels, times)):
            rows[label].append((t, per_job[job]))
        table = {}
        for label, entries in sorted(rows.items()):
            n = len(entries)
            layers = Counter()
            for _, c in entries:
                layers.update(c)
            table[label] = (n, sum(t for t, _ in entries) / n,
                            {k: v / n for k, v in sorted(layers.items())})
        return table
