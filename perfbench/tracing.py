"""Traced run: wrappers at gradcert's public call sites, spans and counters.

``Tracer.install()`` replaces each traced name where the code looks it up
(a module global, a package attribute or a class attribute) with a wrapper
that records a span (name, start, end, parent) and the counts for its
layer; ``restore()`` puts every original back. A name that no longer exists
in the program is skipped and listed in ``missing``, so a later refactor
leaves its metrics at zero instead of breaking the run.

``layer_metrics()`` turns the spans and counts into the per-layer metrics.
A busy time is the summed duration of a layer's outermost spans; a self
time is that minus the durations of its direct child spans. Counts and
times there are totals over the traced items; ``per_round()`` divides them
by the number of rounds for the reported metrics (see ``TOTAL_UNITS``).
"""

from __future__ import annotations

import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

CLI_COMMANDS = ("gen", "run", "certify", "identities", "perturb")

# (metric, unit) for every per-layer metric, in report order.
LAYER_METRICS = [
    ("rng.gaussians", "count"),
    ("rng.busy_s", "s"),
    ("rng.ns_per_gaussian", "ns"),
    ("generate.problems", "count"),
    ("generate.busy_s", "s"),
    ("generate.ms_per_problem", "ms"),
    ("generate.arrays_s", "s"),
    ("generate.minimizer_s", "s"),
    ("objective.quadratic_init.calls", "count"),
    ("objective.quadratic_init_s", "s"),
    ("objective.factorizations", "count"),
    ("objective.factorizations_per_problem", "ratio"),
    ("solvers.cg.steps", "count"),
    ("solvers.cg.busy_s", "s"),
    ("solvers.cg.us_per_step", "us"),
    ("solvers.ag.steps", "count"),
    ("solvers.ag.busy_s", "s"),
    ("solvers.ag.us_per_step", "us"),
    ("solvers.grad_calls_per_ag_step", "ratio"),
    ("solvers.non_gap_stops", "count"),
    ("potential.certify.calls", "count"),
    ("potential.certify.busy_s", "s"),
    ("potential.certify.us_per_iterate", "us"),
    ("potential.chain_violations", "count"),
    ("potential.identities.busy_s", "s"),
    ("perturb.detect.busy_s", "s"),
    ("perturb.detect.self_s", "s"),
    ("perturb.noisy_matvec.calls", "count"),
    ("perturb.noisy_matvec.us_per_call", "us"),
    ("traces.write.busy_s", "s"),
    ("traces.write.rows", "count"),
    ("traces.write.bytes", "bytes"),
    ("traces.read.busy_s", "s"),
    ("traces.read.rows", "count"),
    ("problems.save.busy_s", "s"),
    ("problems.save.bytes", "bytes"),
    ("problems.load.busy_s", "s"),
    *[(f"cli.{cmd}.{kind}", unit) for cmd in CLI_COMMANDS
      for kind, unit in (("calls", "count"), ("busy_s", "s"))],
    ("cli.nonzero_exits", "count"),
]


# Units of run totals. A run lasts a fixed time, so a total grows with
# throughput as well as with cost; divided by the run's whole rounds, each a
# fixed set of inputs, it reads as work per round, where lower is better.
TOTAL_UNITS = ("count", "s", "bytes")


def reported_unit(unit: str) -> str:
    return f"{unit}/round" if unit in TOTAL_UNITS else unit


def per_round(layers: dict, rounds: int) -> dict:
    """Layer metrics as reported: totals per round, ratios as they are."""
    units = dict(LAYER_METRICS)
    return {k: v / rounds if units[k] in TOTAL_UNITS else v for k, v in layers.items()}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, outermost of its name)
        self.counts = Counter()
        self.missing = []
        self._stack = []  # (span index, name) of open spans
        self._patches = []

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, name, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            outer = all(open_name != span_name for _, open_name in stack)
            parent = stack[-1][0] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((idx, span_name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[idx] = (span_name, start, end, parent, outer)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, counter, inside=None):
        """Count calls of fn; with inside, only those made directly in that span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if inside is None or (tracer._stack and tracer._stack[-1][1] == inside):
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, make):
        where = f"{getattr(owner, '__name__', owner)}.{attr}"
        if not hasattr(owner, attr):
            self.missing.append(where)
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- install / restore ---------------------------------------------

    def install(self):
        mod = importlib.import_module
        pkg = mod("gradcert")
        gen = mod("gradcert.generate")  # gradcert.generate is the function
        problems = mod("gradcert.problems")
        perturb = mod("gradcert.perturb")
        cli = mod("gradcert.cli")
        c = self.counts

        def span(name, after=None):
            return lambda fn: self._wrap(fn, name, after)

        def on_draw(args, kwargs, result):
            c["rng.gaussians"] += len(result)

        self._patch(pkg.SplitMix64, "gaussian_vector", span("rng", on_draw))

        def on_problem(args, kwargs, result):
            c["generate.problems"] += 1

        for owner in (pkg, problems):
            self._patch(owner, "generate_with_start", span("generate", on_problem))
        self._patch(gen, "generate_arrays", span("generate.arrays"))
        self._patch(gen, "reference_minimizer", span("generate.minimizer"))
        self._patch(gen, "cho_factor", lambda fn: self._count(fn, "objective.factorizations"))
        self._patch(np.linalg, "cholesky", lambda fn: self._count(fn, "objective.factorizations"))
        self._patch(pkg.QuadraticObjective, "__init__", span("objective.quadratic_init"))
        self._patch(pkg.QuadraticObjective, "grad",
                    lambda fn: self._count(fn, "solvers.ag.grad_calls", inside="solvers.ag"))

        def solver_name(args, kwargs):
            method = args[1] if len(args) > 1 else kwargs["method"]
            return "solvers.cg" if method.startswith("cg") else "solvers.ag"

        def on_run(args, kwargs, trace):
            family = "cg" if solver_name(args, kwargs) == "solvers.cg" else "ag"
            c[f"solvers.{family}.steps"] += len(trace) - 1
            if trace.stop_reason != "gap":
                c["solvers.non_gap_stops"] += 1

        for owner in (pkg, cli):
            self._patch(owner, "run", span(solver_name, on_run))
        # detect_inexactness drives the CG loop directly with its noisy operator.
        self._patch(perturb, "_run_cg", span("solvers.cg", on_run))

        def on_certify(args, kwargs, report):
            c["potential.certify.iterates"] += len(report.psis)
            if report.first_violation is not None:
                c["potential.chain_violations"] += 1

        for owner in (pkg, cli, perturb):
            self._patch(owner, "certify", span("potential.certify", on_certify))
        for attr in ("hs_identity_battery", "rho_optimality_check"):
            self._patch(cli, attr, span("potential.identities"))

        for owner in (pkg, perturb):
            self._patch(owner, "detect_inexactness", span("perturb.detect"))
        self._patch(perturb, "noisy_matvec", span("perturb.noisy_matvec"))

        def on_write(args, kwargs, result):
            c["traces.write.rows"] += len(args[1])
            c["traces.write.bytes"] += os.path.getsize(args[0])

        def on_read(args, kwargs, columns):
            c["traces.read.rows"] += len(columns["k"])

        self._patch(cli, "write_trace_csv", span("traces.write", on_write))
        self._patch(cli, "read_trace_csv", span("traces.read", on_read))

        def on_save(args, kwargs, result):
            c["problems.save.bytes"] += os.path.getsize(args[1])

        self._patch(pkg.ProblemSpec, "save", span("problems.save", on_save))
        self._patch(cli, "load_problem", span("problems.load"))

        def cli_name(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            return f"cli.{argv[0]}" if argv else "cli.unknown"

        def on_main(args, kwargs, code):
            if code != 0:
                c["cli.nonzero_exits"] += 1

        self._patch(cli, "main", span(cli_name, on_main))
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -------------------------------------------------------

    def totals(self):
        """(busy seconds of outermost spans, span count, self seconds) per name."""
        busy = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for name, start, end, parent, outer in self.spans:
            calls[name] += 1
            if outer:
                busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, outer) in enumerate(self.spans):
            if outer:
                self_s[name] += end - start - child[i]
        return busy, calls, self_s

    def layer_metrics(self) -> dict:
        busy, calls, self_s = self.totals()
        c = self.counts
        m = {
            "rng.gaussians": c["rng.gaussians"],
            "rng.busy_s": busy["rng"],
            "rng.ns_per_gaussian": _ratio(busy["rng"], c["rng.gaussians"], 1e9),
            "generate.problems": c["generate.problems"],
            "generate.busy_s": busy["generate"],
            "generate.ms_per_problem": _ratio(busy["generate"], c["generate.problems"], 1e3),
            "generate.arrays_s": busy["generate.arrays"],
            "generate.minimizer_s": busy["generate.minimizer"],
            "objective.quadratic_init.calls": calls["objective.quadratic_init"],
            "objective.quadratic_init_s": busy["objective.quadratic_init"],
            "objective.factorizations": c["objective.factorizations"],
            "objective.factorizations_per_problem": _ratio(
                c["objective.factorizations"], c["generate.problems"]),
        }
        for family in ("cg", "ag"):
            steps = c[f"solvers.{family}.steps"]
            m[f"solvers.{family}.steps"] = steps
            m[f"solvers.{family}.busy_s"] = busy[f"solvers.{family}"]
            m[f"solvers.{family}.us_per_step"] = _ratio(busy[f"solvers.{family}"], steps, 1e6)
        m["solvers.grad_calls_per_ag_step"] = _ratio(c["solvers.ag.grad_calls"], c["solvers.ag.steps"])
        m["solvers.non_gap_stops"] = c["solvers.non_gap_stops"]
        m.update({
            "potential.certify.calls": calls["potential.certify"],
            "potential.certify.busy_s": busy["potential.certify"],
            "potential.certify.us_per_iterate": _ratio(
                busy["potential.certify"], c["potential.certify.iterates"], 1e6),
            "potential.chain_violations": c["potential.chain_violations"],
            "potential.identities.busy_s": busy["potential.identities"],
            "perturb.detect.busy_s": busy["perturb.detect"],
            "perturb.detect.self_s": self_s["perturb.detect"],
            "perturb.noisy_matvec.calls": calls["perturb.noisy_matvec"],
            "perturb.noisy_matvec.us_per_call": _ratio(
                busy["perturb.noisy_matvec"], calls["perturb.noisy_matvec"], 1e6),
            "traces.write.busy_s": busy["traces.write"],
            "traces.write.rows": c["traces.write.rows"],
            "traces.write.bytes": c["traces.write.bytes"],
            "traces.read.busy_s": busy["traces.read"],
            "traces.read.rows": c["traces.read.rows"],
            "problems.save.busy_s": busy["problems.save"],
            "problems.save.bytes": c["problems.save.bytes"],
            "problems.load.busy_s": busy["problems.load"],
        })
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}.calls"] = calls[f"cli.{cmd}"]
            m[f"cli.{cmd}.busy_s"] = busy[f"cli.{cmd}"]
        m["cli.nonzero_exits"] = c["cli.nonzero_exits"]
        return m

    def write_spans(self, path) -> None:
        """Spans as CSV: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
