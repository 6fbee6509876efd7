"""One traced ``fairpace run``, in-process, with the output checks.

Usage: ``python traced.py CONFIG OUT RESULT_JSON [--checks]``, with the
checkout's ``src`` on ``PYTHONPATH``.  It wraps the public functions the
harness calls, at the names the harness calls them by, records a span
around each call, runs ``fairpace.cli.main(["run", CONFIG, "--out",
OUT])`` and writes the per-layer metrics to RESULT_JSON.  With
``--checks`` it then runs every check in ``checks.py`` on the captured
instances, traces and benchmark solutions, outside the spans.

A name the program no longer has is listed under ``absent`` and its
metrics are left out; a name that exists but was not called on this
workload measures zero.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np
import yaml

import checks

VARIANT_TYPES = ("pace", "constrained", "seeded", "setaside", "greedy", "proportional")

# span name -> layer whose high-water RSS is read when its first span ends
RSS_LAYER = {
    "inputs.gen": "inputs",
    "model.load_csv": "inputs",
    "eg.hindsight_prefix": "eg",
    "dynamics.run": "dynamics",
    "metrics.relative_regret_trajectory": "metrics",
    "metrics.build_report": "metrics",
    "svgplot.write_line_svg": "svgplot",
    "harness.run_experiment": "harness",
}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans kept in memory; parents come from the stack of open spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.rss_mb: Dict[str, float] = {}
        self.absent: List[str] = []

    def wrap(self, module, attr: str, name: str, on_result: Optional[Callable] = None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(name)
            return

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(Span(name, 0.0, self.stack[-1] if self.stack else None))
            self.stack.append(idx)
            span = self.spans[idx]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                layer = RSS_LAYER.get(name)
                if layer is not None and layer not in self.rss_mb:
                    self.rss_mb[layer] = _max_rss_mb()
            if on_result is not None:
                on_result(span, args, result)
            return result

        setattr(module, attr, wrapper)

    def of(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.of(name))


@dataclass
class Rep:
    """What one repetition handed to and got back from the layers."""

    values: Any = None
    weights: Any = None
    prefixes: Any = None
    traces: List[Any] = field(default_factory=list)


def install(rec: Recorder, reps: List[Rep]):
    import fairpace.cli as cli
    import fairpace.eg as eg
    import fairpace.harness as harness

    def on_prefix(span, args, result):
        reps.append(Rep(values=args[0], weights=args[1], prefixes=result))

    def on_solve(span, args, result):
        span.attrs["iterations"] = int(result.iterations)

    def on_run(span, args, result):
        span.attrs["type"] = getattr(args[2], "name", type(args[2]).__name__)
        span.attrs["items"] = int(args[0].t)
        if not reps or reps[-1].values is not args[0]:
            reps.append(Rep(values=args[0], weights=args[1]))
        reps[-1].traces.append(result)

    rec.wrap(cli, "run_experiment", "harness.run_experiment")
    rec.wrap(harness, "gen", "inputs.gen")
    rec.wrap(harness, "load_csv", "model.load_csv")
    rec.wrap(harness, "hindsight_prefix", "eg.hindsight_prefix", on_prefix)
    rec.wrap(eg, "solve_eg", "eg.solve_eg", on_solve)
    rec.wrap(harness, "run", "dynamics.run", on_run)
    rec.wrap(harness, "relative_regret_trajectory", "metrics.relative_regret_trajectory")
    rec.wrap(harness, "build_report", "metrics.build_report")
    rec.wrap(harness, "write_line_svg", "svgplot.write_line_svg")
    return cli


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Per-layer metrics from the spans; names follow the benchmark's list."""
    def have(*names: str) -> bool:
        return not any(n in rec.absent for n in names)

    m: Dict[str, float] = {}
    if have("dynamics.run"):
        runs = rec.of("dynamics.run")
        m["dynamics.run_s"] = rec.total("dynamics.run")
        for typ in VARIANT_TYPES:
            m[f"dynamics.run_s.{typ}"] = sum(s.duration for s in runs if s.attrs.get("type") == typ)
        items = sum(s.attrs.get("items", 0) for s in runs)
        if m["dynamics.run_s"] > 0:
            m["dynamics.item_steps_per_s"] = items / m["dynamics.run_s"]
    if have("eg.hindsight_prefix"):
        m["eg.prefix_s"] = rec.total("eg.hindsight_prefix")
    if have("eg.hindsight_prefix", "eg.solve_eg"):
        solves = rec.of("eg.solve_eg")
        m["eg.solve_calls"] = len(solves)
        m["eg.solver_iterations"] = sum(s.attrs.get("iterations", 0) for s in solves)
        prefix_ids = [i for i, s in enumerate(rec.spans) if s.name == "eg.hindsight_prefix"]
        finals = []
        for pid in prefix_ids:
            inner = [s for s in solves if s.parent == pid]
            if inner:
                finals.append(inner[-1])
        m["eg.final_iterations"] = sum(s.attrs.get("iterations", 0) for s in finals)
        m["eg.final_solve_s"] = sum(s.duration for s in finals)
    if have("inputs.gen"):
        m["inputs.gen_s"] = rec.total("inputs.gen")
    if have("model.load_csv"):
        m["model.load_csv_s"] = rec.total("model.load_csv")
    if have("metrics.relative_regret_trajectory", "metrics.build_report"):
        m["metrics.report_s"] = rec.total("metrics.relative_regret_trajectory") + rec.total(
            "metrics.build_report"
        )
    if have("svgplot.write_line_svg"):
        m["svgplot.write_s"] = rec.total("svgplot.write_line_svg")
    roots = [i for i, s in enumerate(rec.spans) if s.name == "harness.run_experiment"]
    if roots:
        root = roots[0]
        covered = sum(s.duration for s in rec.spans if s.parent == root)
        m["harness.self_s"] = rec.spans[root].duration - covered
    for layer, rss in rec.rss_mb.items():
        m[f"{layer}.rss_mb"] = rss
    return m


def run_checks(reps: List[Rep], config: dict, out_dir: str, solve_eg: Callable) -> Dict[str, Any]:
    """Every output check; returns counts of checks run and the failures.

    ``solve_eg`` is the program's solver as it was before wrapping, so
    the re-solve records no span.  The re-solve starts cold; its
    iterations and seconds are returned beside the warm-started final
    checkpoint's figures for comparison.
    """
    tol = float(config["tolerance"])
    counts: Dict[str, int] = {}
    failures: List[str] = []
    cold = {"iterations": 0, "seconds": 0.0}

    def record(name: str, found: List[str], where: str) -> None:
        counts[name] = counts.get(name, 0) + 1
        failures.extend(f"{where}: {name}: {f}" for f in found)

    for r, rep in enumerate(reps):
        v = np.asarray(rep.values.matrix)
        b = np.asarray(rep.weights.array)
        t = v.shape[0]
        for trace in rep.traces:
            typ = getattr(trace.variant, "name", type(trace.variant).__name__)
            where = f"rep {r}, {typ}"
            if typ == "pace":
                found, rebuilt = checks.replay_pace(v, b, trace.winners)
                if not found and not np.array_equal(rebuilt, trace.final_utilities):
                    found = ["replayed final utilities differ from the recorded ones"]
                record("pace-replay", found, where)
            record(
                "allocation-utilities",
                checks.check_allocation_utilities(typ, v, b, trace.winners, trace.final_utilities),
                where,
            )
            cps = {tau: k for k, tau in enumerate(trace.checkpoints)}
            found = []
            for sol in rep.prefixes or ():
                u = trace.final_utilities if sol.tau == t else trace.checkpoint_utilities[cps[sol.tau]]
                found += checks.check_prefix_welfare(
                    v, b, sol.tau, sol.avg_utilities * sol.tau, sol.flagged, u, tol, typ
                )
            record("prefix-welfare", found, where)
        found = []
        for sol in rep.prefixes or ():
            found += checks.check_prefix_certificate(v, b, sol.tau, sol.avg_utilities * sol.tau, tol)
        record("prefix-certificate", found, f"rep {r}")
        start = time.perf_counter()
        eq = solve_eg(rep.values, rep.weights, tol, include_allocation=True)
        cold["iterations"] += int(eq.iterations)
        cold["seconds"] += time.perf_counter() - start
        record(
            "hindsight-solution",
            checks.check_hindsight_solution(v, b, eq.allocation, eq.utilities, tol),
            f"rep {r}",
        )
        if v.shape[1] == 2:
            found = checks.check_exact_n2(v, b, eq.utilities, tol)
            if rep.prefixes:
                found += checks.check_exact_n2(v, b, rep.prefixes[-1].avg_utilities * t, tol)
            record("exact-n2", found, f"rep {r}")
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    rep_files = sorted(f for f in os.listdir(os.path.join(out_dir, "reps")) if f.endswith(".csv"))
    record(
        "report-inventory",
        checks.check_report_inventory(
            summary, rep_files, int(config["repetitions"]), len(config["variants"])
        ),
        "outputs",
    )
    if len(reps) != int(config["repetitions"]):
        failures.append(f"traced {len(reps)} repetitions, the config has {config['repetitions']}")
    share = float(np.mean([checks.duplicate_share(np.asarray(rep.values.matrix)) for rep in reps]))
    return {
        "counts": counts,
        "failures": failures,
        "duplicate_share": share,
        "cold_final_iterations": cold["iterations"],
        "cold_final_solve_s": cold["seconds"],
    }


def main(argv: List[str]) -> int:
    config_path, out_dir, result_path = argv[:3]
    with_checks = "--checks" in argv[3:]
    from fairpace.eg import solve_eg

    rec = Recorder()
    reps: List[Rep] = []
    cli = install(rec, reps)
    code = cli.main(["run", config_path, "--out", out_dir])
    t_end = time.perf_counter()
    result: Dict[str, Any] = {
        "exit_code": code,
        "metrics": layer_metrics(rec),
        "absent": rec.absent,
        "root_s": sum(s.duration for s in rec.of("harness.run_experiment")),
    }
    if with_checks and code == 0:
        with open(config_path) as fh:
            config = yaml.safe_load(fh)
        result["checks"] = run_checks(reps, config, out_dir, solve_eg)
    result["post_s"] = time.perf_counter() - t_end
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
