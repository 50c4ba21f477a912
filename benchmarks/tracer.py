"""Spans around calls into each duosurv layer, and the per-layer metrics
computed from them.

The package itself is not instrumented.  Instead a shim replaces each layer
function at the place its caller looks the name up (``duosurv.harness``
calls ``simulate_cohort`` through its own module globals, ``duosurv.testing``
calls ``solve_inflation`` through its globals, and so on).  A shim records
one span per call: name, start, end, parent span and replication.  Spans
stay in memory until the run ends.  A shim whose target no longer exists is
listed as an unobserved layer, and its metrics read 0.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

PROCEDURES = ("bon", "rec", "ex_last", "ex_first", "bon_gs", "rec_gs",
              "ex_gs_last", "ex_gs_first", "os")

# (module or class path, attribute, span name); order is irrelevant
SHIMS = (
    ("duosurv.cli", "run_experiment", "harness.run_experiment"),
    ("duosurv.cli", "fwer_sweep", "harness.fwer_sweep"),
    ("duosurv.cli", "plan_events", "harness.plan_events"),
    ("duosurv.harness", "run_experiment", "harness.run_experiment"),
    ("duosurv.harness", "simulate_replication", "harness.simulate_replication"),
    ("duosurv.harness", "simulate_cohort", "multistate.simulate_cohort"),
    ("duosurv.harness", "event_cutoff", "trialdata.event_cutoff"),
    ("duosurv.harness", "snapshot", "trialdata.snapshot"),
    ("duosurv.harness", "logrank", "logrank.logrank"),
    ("duosurv.harness", "covariance_matrix", "logrank.covariance_matrix"),
    ("duosurv.harness", "run_procedure", "testing.run_procedure"),
    ("duosurv.testing", "solve_inflation", "mvnorm.solve_inflation"),
    ("duosurv.mvnorm", "mvn_upper_orthant", "mvnorm.mvn_upper_orthant"),
    ("duosurv.spending.SpendingFunction", "spend", "spending.spend"),
)

# per-layer metrics: name -> unit
METRIC_UNITS = {
    "multistate.simulate_cohort.calls_per_rep": "calls/rep",
    "multistate.simulate_cohort.ms_per_rep": "ms/rep",
    "trialdata.event_cutoff.ms_per_rep": "ms/rep",
    "trialdata.snapshot.ms_per_rep": "ms/rep",
    "logrank.logrank.ms_per_rep": "ms/rep",
    "logrank.covariance_matrix.ms_per_rep": "ms/rep",
    "mvnorm.solve_inflation.calls_per_rep": "calls/rep",
    "mvnorm.solve_inflation.ms_per_rep": "ms/rep",
    "mvnorm.solve_inflation.evals_per_solve": "evals/solve",
    "mvnorm.solve_inflation.repeat_share": "ratio",
    "mvnorm.mvn_upper_orthant.calls_per_rep": "calls/rep",
    "mvnorm.mvn_upper_orthant.ms_per_rep": "ms/rep",
    "mvnorm.orthant_d1.us_per_call": "us",
    "mvnorm.orthant_d2.us_per_call": "us",
    "mvnorm.orthant_d3.us_per_call": "us",
    "spending.spend.calls_per_rep": "calls/rep",
    "spending.spend.ms_per_rep": "ms/rep",
    **{f"testing.run_procedure.{p}.ms_per_rep": "ms/rep" for p in PROCEDURES},
    "testing.self_ms_per_rep": "ms/rep",
    "harness.run_experiment.calls": "calls/cmd",
    "harness.self_ms_per_rep": "ms/rep",
    "cli.self_ms": "ms/cmd",
    "trace.overhead_pct": "%",
    "trace.unobserved_layers": "count",
}

_NAME, _START, _END, _PARENT, _REP, _TAG = range(6)


def _resolve(path: str):
    import importlib

    module_path, _, last = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        owner = importlib.import_module(module_path)
        return getattr(owner, last, None)


def solve_key(problem) -> tuple:
    """The exact inputs of an inflation solve."""
    return (tuple(float(a) for a in problem.base_levels),
            tuple(float(f) for f in problem.fixed_thresholds),
            np.asarray(problem.corr, dtype=float).tobytes(),
            float(problem.target))


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.rep = -1
        self.experiment = -1
        self.paused = False
        self.unobserved = []
        self._solve_keys = set()
        self._installed = []

    # -- tags computed at call time -------------------------------------
    def _tag_experiment(self, args, kwargs):
        self.experiment += 1
        self.rep = -1
        return self.experiment

    def _tag_replication(self, args, kwargs):
        replication = kwargs.get("replication", args[2] if len(args) > 2
                                 else None)
        self.rep = self.experiment * 1_000_000 + int(replication)
        self._solve_keys = set()
        return int(replication)

    def _tag_procedure(self, args, kwargs):
        design = kwargs.get("design", args[0] if args else None)
        return design.procedure

    def _tag_solve(self, args, kwargs):
        key = solve_key(kwargs.get("problem", args[0] if args else None))
        repeat = key in self._solve_keys
        self._solve_keys.add(key)
        return int(repeat)

    def _tag_orthant(self, args, kwargs):
        query = kwargs.get("query", args[0] if args else None)
        return sum(1 for v in query.lower_z if math.isfinite(v))

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        tags = {
            "harness.run_experiment": self._tag_experiment,
            "harness.simulate_replication": self._tag_replication,
            "testing.run_procedure": self._tag_procedure,
            "mvnorm.solve_inflation": self._tag_solve,
            "mvnorm.mvn_upper_orthant": self._tag_orthant,
        }
        for path, attr, name in SHIMS:
            owner = _resolve(path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.unobserved.append(f"{path}.{attr}")
                continue
            setattr(owner, attr, self.wrap(original, name, tags.get(name)))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def wrap(self, original, name, tag=None):
        spans, stack = self.spans, self.stack

        def shim(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            label = tag(args, kwargs) if tag is not None else None
            rep = self.rep
            stack.append(index)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, rep, label)

        return shim

    def span(self, name, func, *args):
        """Record a span around a call made by the benchmark itself."""
        return self.wrap(func, name)(*args)

    # -- output -----------------------------------------------------------
    def write(self, path: str) -> None:
        """Spans as CSV: times in microseconds from the first span."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_us,end_us,parent,rep,tag\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[_NAME]},{(s[_START] - origin) * 1e6:.1f},"
                         f"{(s[_END] - origin) * 1e6:.1f},{s[_PARENT]},"
                         f"{s[_REP]},{'' if s[_TAG] is None else s[_TAG]}\n")

    def metrics(self, requested_reps: int, commands: int) -> dict:
        """Per-layer metrics, normalised per requested replication."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]

        total = {}
        calls = {}
        by_proc = dict.fromkeys(PROCEDURES, 0.0)
        orthant_us = {1: [], 2: [], 3: []}
        self_ms = {"cli": 0.0, "harness": 0.0, "testing": 0.0}
        solve_evals = repeats = 0
        for i, s in enumerate(spans):
            name, dur = s[_NAME], s[_END] - s[_START]
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            if layer in self_ms:
                self_ms[layer] += dur - child[i]
            if name == "testing.run_procedure":
                by_proc[s[_TAG]] = by_proc.get(s[_TAG], 0.0) + dur
            elif name == "mvnorm.mvn_upper_orthant":
                orthant_us.setdefault(s[_TAG], []).append(dur * 1e6)
                parent = s[_PARENT]
                if parent >= 0 and spans[parent][_NAME] == \
                        "mvnorm.solve_inflation":
                    solve_evals += 1
            elif name == "mvnorm.solve_inflation":
                repeats += s[_TAG]

        reps = max(requested_reps, 1)

        def per_rep_ms(name):
            return total.get(name, 0.0) * 1e3 / reps

        def per_rep_calls(name):
            return calls.get(name, 0) / reps

        solves = calls.get("mvnorm.solve_inflation", 0)
        out = {
            "multistate.simulate_cohort.calls_per_rep":
                per_rep_calls("multistate.simulate_cohort"),
            "multistate.simulate_cohort.ms_per_rep":
                per_rep_ms("multistate.simulate_cohort"),
            "trialdata.event_cutoff.ms_per_rep":
                per_rep_ms("trialdata.event_cutoff"),
            "trialdata.snapshot.ms_per_rep": per_rep_ms("trialdata.snapshot"),
            "logrank.logrank.ms_per_rep": per_rep_ms("logrank.logrank"),
            "logrank.covariance_matrix.ms_per_rep":
                per_rep_ms("logrank.covariance_matrix"),
            "mvnorm.solve_inflation.calls_per_rep":
                per_rep_calls("mvnorm.solve_inflation"),
            "mvnorm.solve_inflation.ms_per_rep":
                per_rep_ms("mvnorm.solve_inflation"),
            "mvnorm.solve_inflation.evals_per_solve":
                solve_evals / solves if solves else 0.0,
            "mvnorm.solve_inflation.repeat_share":
                repeats / solves if solves else 0.0,
            "mvnorm.mvn_upper_orthant.calls_per_rep":
                per_rep_calls("mvnorm.mvn_upper_orthant"),
            "mvnorm.mvn_upper_orthant.ms_per_rep":
                per_rep_ms("mvnorm.mvn_upper_orthant"),
            **{f"mvnorm.orthant_d{d}.us_per_call":
               statistics.median(orthant_us[d]) if orthant_us[d] else 0.0
               for d in (1, 2, 3)},
            "spending.spend.calls_per_rep": per_rep_calls("spending.spend"),
            "spending.spend.ms_per_rep": per_rep_ms("spending.spend"),
            **{f"testing.run_procedure.{p}.ms_per_rep": by_proc[p] * 1e3 / reps
               for p in PROCEDURES},
            "testing.self_ms_per_rep": self_ms["testing"] * 1e3 / reps,
            "harness.run_experiment.calls":
                calls.get("harness.run_experiment", 0) / max(commands, 1),
            "harness.self_ms_per_rep": self_ms["harness"] * 1e3 / reps,
            "cli.self_ms": self_ms["cli"] * 1e3 / max(commands, 1),
            "trace.unobserved_layers": float(len(self.unobserved)),
        }
        return out
