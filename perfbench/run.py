"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper-compare --seed 0 --seconds 30 --trace 0

The library is imported from ``src/`` of the same checkout. ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` records spans around the
calls into each layer and prints the per-layer metrics instead, writing the
spans to ``perfbench/out/``. A run makes a fixed number of passes, worked
out from ``--seconds``, so every count repeats exactly for a given seed.
Only process-local timers are used: no system tracing, no cache dropping.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_CHILD_S, REFERENCE_S, SpeedSampler

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

#: Expected seconds per pass, probes and checks included, on a 2-core
#: x86-64 machine; sets how many passes fill ``--seconds``.
NOMINAL_PASS_S = {"paper-compare": 1.9, "interior-search": 1.1, "figures": 1.0}
MIN_PASSES = 4
SETUP_PROBES = 9          # fresh interpreters timed for setup_s, spread over the run
TRACED_SETUP_PROBES = 3
ALGOS = ("disc-pso", "pso", "ga", "de")
TIME_UNITS = ("s", "ms", "us")
TIMERS_NOTE = ("time.perf_counter in this process and its set-up and reference children only; "
               "no system-wide tracing, no cache dropping")


def _import_library():
    start = time.perf_counter()
    try:
        import edgeprice
    except ImportError as exc:
        raise SystemExit(f"cannot import edgeprice from {ROOT / 'src'}: {exc}") from exc
    seconds = time.perf_counter() - start
    source = Path(edgeprice.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"edgeprice imported from {source}, not from this checkout's src/")
    return seconds


def setup_probe(workload: str, seed: int) -> None:
    """Body of one fresh-interpreter setup sample: import, build inputs, warm up."""
    import_s = _import_library()
    import workloads
    workdir = OUT / f"tmp-setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.WORKLOADS[workload](seed, 0, workdir)
        warm_up(workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": import_s}))


def warm_up(workloads, workdir: Path) -> None:
    """Run the small fixed probes once: every searcher and both CLI figures."""
    for op in workloads.search_probe_ops() + workloads.figure_probe_ops(workdir):
        op.run(None)


def _child(args: list[str]) -> tuple[float, object]:
    """Run one fresh interpreter; its wall time and its last stdout line as JSON."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"child {args} failed:\n{proc.stderr}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


class SetupProbes:
    """Set-up children, each between two library-free reference children.

    A probe's scaled time is its wall time times ``REFERENCE_CHILD_S`` over
    the mean wall time of the reference children run right before and after
    it; the machine can change speed within a second.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.args = [str(Path(__file__).resolve()), "--workload", workload,
                     "--seed", str(seed), "--setup-probe"]
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.reference_walls: list[float] = []
        self.kernel_s: list[float] = []

    def probe(self) -> None:
        before, kernel_before = _child([str(BENCH / "speed.py")])
        wall, out = _child(self.args)
        after, kernel_after = _child([str(BENCH / "speed.py")])
        self.walls.append(wall)
        self.imports.append(out["import_s"])
        self.reference_walls.append((before + after) / 2)
        self.kernel_s += kernel_before + kernel_after

    def median(self, name: str, scaled: bool) -> float:
        """Median of ``setup_s`` or ``scenario.import_s`` over the probes."""
        values = self.walls if name == "setup_s" else self.imports
        if scaled:
            values = [v * REFERENCE_CHILD_S / r for v, r in zip(values, self.reference_walls)]
        return statistics.median(values)

    def clean_factor(self) -> float:
        """Speed factor from the kernel in children that never import the library."""
        return REFERENCE_S / statistics.fmean(self.kernel_s)


def probe_schedule(loops: int, probes: int) -> list[int]:
    """Loop indices before which a set-up probe runs, spread evenly over the run."""
    return [k * loops // probes for k in range(probes)]


class Tally:
    """Per-run operation counts and timings, keyed by operation kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.kinds: dict[str, dict] = {}
        self.pass_s: list[float] = []
        self.op_s: dict[str, list[float]] = {}
        self.rounds = {a: 0 for a in ALGOS}
        self.converged = {a: 0 for a in ALGOS}
        self.searches = {a: 0 for a in ALGOS}

    def record(self, op, seconds: float, problems: list[str], output) -> None:
        self.attempted += 1
        kind = self.kinds.setdefault(op.kind, {"attempted": 0, "failed": 0})
        kind["attempted"] += 1
        if problems:
            self.failed += 1
            kind["failed"] += 1
            # an operation with a known fault may report that one problem only
            unexplained = [p for p in problems
                           if not (op.known_fault and p.startswith(op.known_fault))]
            if unexplained:
                self.unexpected.append(f"{op.kind}: {unexplained[0]}")
        if op.kind.startswith("search:") and output is not None:
            algo = op.tags["algo"]
            self.rounds[algo] += output.iterations_used
            self.converged[algo] += bool(output.converged)
            self.searches[algo] += 1
        if not op.known_fault:
            self.op_s.setdefault(op.kind, []).append(seconds)

    def mean_op_s(self, kind: str) -> float:
        return statistics.fmean(self.op_s[kind])


def run_pass(ops, tally: Tally, tracer, sampler: SpeedSampler) -> None:
    total = 0.0
    for op in ops:
        sampler.tick()
        start = time.perf_counter()
        try:
            output = op.run(tracer)
        except Exception as exc:  # an operation that raises counts as failed
            output, problems = None, [f"raised {exc!r}"]
        else:
            problems = []
        seconds = time.perf_counter() - start
        if output is not None:
            try:
                problems = op.check(output)
                if tracer is not None and op.decompose is not None:
                    problems += op.decompose(tracer)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        tally.record(op, seconds, problems, output)
        if op.in_pass:
            total += seconds
    tally.pass_s.append(total)


def end_to_end_metrics(tally: Tally) -> dict:
    metrics = {"pass_s": (statistics.fmean(tally.pass_s), "s")}
    for algo in ALGOS:
        metrics[f"solve_ms.{algo}"] = (1e3 * tally.mean_op_s(f"search:{algo}"), "ms")
    for figure in ("surface", "sweep"):
        metrics[f"figure_ms.{figure}"] = (1e3 * tally.mean_op_s(f"figure:{figure}"), "ms")
    # the benchmark process's own peak, checker included
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else values[0]


def pricing_micro() -> dict:
    """Microseconds per call of the three scalar closed forms, median of batches."""
    from edgeprice.offload import Allocation
    from edgeprice.pricing import (derive_coefficients, dynamic_utility_objective,
                                   linear_user_utility_value, user_utility)
    from edgeprice.scenario import default_scenario
    import numpy as np

    s = default_scenario()
    rng = np.random.default_rng(0)
    allocs = [Allocation(float(f), float(b)) for f, b in
              zip(rng.uniform(*s.f_range, 1000), rng.uniform(*s.b_range, 1000))]
    objective = dynamic_utility_objective(s)
    pc = derive_coefficients(s, 3.5e9, 0.55e6)

    def per_call(fn, allocs, batches):
        times = []
        for _ in range(batches):
            start = time.perf_counter()
            for a in allocs:
                fn(a)
            times.append(time.perf_counter() - start)
        return 1e6 * statistics.median(times) / len(allocs)

    return {
        "pricing.objective_us": (per_call(objective, allocs, 21), "us"),
        "pricing.linear_us": (per_call(lambda a: linear_user_utility_value(s, pc, a), allocs, 21), "us"),
        "pricing.summary_us": (per_call(lambda a: user_utility(s, a), allocs[:200], 21), "us"),
    }


def per_layer_metrics(tracer, tally: Tally, plain: Tally,
                      svg_kb: list[float], csv_kb: list[float]) -> dict:
    metrics = pricing_micro()
    for algo in ALGOS:
        spans = [r for r in tracer.spans
                 if r["name"] == f"optimizers.{algo}" and r["attrs"]["kind"].startswith("search")]
        runs = [(r["end_ns"] - r["start_ns"]) / 1e9 for r in spans]
        metrics[f"optimizers.rounds.{algo}"] = (_mean([r["attrs"]["rounds"] for r in spans]), "count")
        metrics[f"optimizers.evals.{algo}"] = (_mean([r["attrs"]["evals"] for r in spans]), "count")
        metrics[f"optimizers.self_ms.{algo}"] = (
            1e3 * _mean([t - r["attrs"]["eval_s"] for t, r in zip(runs, spans)]), "ms")
        metrics[f"optimizers.solve_ms_p90.{algo}"] = (1e3 * _p90(plain.op_s[f"search:{algo}"]), "ms")
        metrics[f"optimizers.converged.{algo}"] = (
            sum(bool(r["attrs"]["converged"]) for r in spans), "count")
    metrics["harness.compare_s"] = (_mean(tracer.seconds("harness.compare_optimizers")), "s")
    metrics["verification.anchors_s"] = (_mean(tracer.seconds("verification.run_anchor_suite")), "s")
    surface = _mean(tracer.seconds("harness.surface_grid"))
    sweep = _mean(tracer.seconds("harness.sweep"))
    heatmap = _mean(tracer.seconds("svgplot.heatmap"))
    line = _mean(tracer.seconds("svgplot.line"))
    metrics["harness.surface_ms"] = (1e3 * surface, "ms")
    metrics["harness.sweep_ms"] = (1e3 * sweep, "ms")
    metrics["svgplot.heatmap_ms"] = (1e3 * heatmap, "ms")
    metrics["svgplot.line_ms"] = (1e3 * line, "ms")
    metrics["svgplot.svg_kb"] = (_mean(svg_kb), "KB")
    metrics["cli.self_ms.surface"] = (
        1e3 * (_mean(tracer.seconds("cli.surface")) - surface - heatmap), "ms")
    metrics["cli.self_ms.sweep"] = (1e3 * (_mean(tracer.seconds("cli.sweep")) - sweep - line), "ms")
    metrics["cli.csv_kb"] = (_mean(csv_kb), "KB")
    overhead = statistics.fmean(tally.pass_s) / statistics.fmean(plain.pass_s) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def file_sizes(ops, suffix: str) -> list[float]:
    return [path.stat().st_size / 1024.0 for op in ops for path in op.tags.get("files", ())
            if path.suffix == suffix and path.exists()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-compare", "interior-search", "figures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    started = time.perf_counter()
    _import_library()
    import numpy
    import workloads
    from spans import Tracer

    traced = bool(args.trace)
    passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    run_speed = SpeedSampler()
    setup = SetupProbes(args.workload, args.seed)
    loops = max(2, passes // 2) if traced else passes
    schedule = probe_schedule(loops, TRACED_SETUP_PROBES if traced else SETUP_PROBES)

    build = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally, plain, probes = Tally(), Tally(), Tally()
    tracer = Tracer() if traced else None
    svg_kb, csv_kb = [], []
    try:
        warm_up(workloads, workdir)
        if traced:
            # untraced and traced passes alternate on the same inputs; the
            # untraced ones give the tracing overhead and the p90 times
            for pass_id in range(loops):
                for _ in range(schedule.count(pass_id)):
                    setup.probe()
                run_pass(build(args.seed, pass_id, workdir), plain, None, run_speed)
                tracer.pass_id = pass_id
                ops = build(args.seed, pass_id, workdir)
                run_pass(ops, tally, tracer, run_speed)
                svg_kb += file_sizes(ops, ".svg")
                csv_kb += file_sizes(ops, ".csv")
            tracer.pass_id = -1
            if "anchors" not in tally.kinds:
                run_pass(workloads.layer_probe_ops(), probes, tracer, run_speed)
        else:
            for pass_id in range(loops):
                for _ in range(schedule.count(pass_id)):
                    setup.probe()
                run_pass(build(args.seed, pass_id, workdir), tally, None, run_speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        metrics = per_layer_metrics(tracer, tally, plain, svg_kb, csv_kb)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
    else:
        metrics = end_to_end_metrics(tally)
    setup_name = "scenario.import_s" if traced else "setup_s"
    metrics = {setup_name: (setup.median(setup_name, scaled=False), "s"), **metrics}
    factors = {"run": run_speed.factor(), "clean": setup.clean_factor()}
    scaled = {name: (value * factors["run"] if unit in TIME_UNITS else value, unit)
              for name, (value, unit) in metrics.items()}
    scaled[setup_name] = (setup.median(setup_name, scaled=True), "s")

    counted = [tally] + ([plain, probes] if traced else [])
    attempted = sum(t.attempted for t in counted)
    failed = sum(t.failed for t in counted)
    unexpected = [u for t in counted for u in t.unexpected]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(tally.pass_s),
        "elapsed_s": time.perf_counter() - started,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "timers": TIMERS_NOTE,
        "counts": {
            "attempted": attempted,
            "failed": failed,
            "kinds": tally.kinds,
            "rounds": tally.rounds,
            "converged": tally.converged,
            "searches": tally.searches,
        },
        "unexpected_failures": unexpected[:20],
        "pass_s": tally.pass_s,
        "setup_walls_s": setup.walls,
        "reference_walls_s": setup.reference_walls,
        "speed": {"factors": factors, "factor_gap": factors["run"] / factors["clean"] - 1.0,
                  "reference_s": REFERENCE_S, "run_kernel_s": run_speed.samples,
                  "clean_kernel_s": setup.kernel_s},
        "unscaled_metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in scaled.items()},
    }
    if traced:
        report["counts"]["evals"] = {a: metrics[f"optimizers.evals.{a}"][0] for a in ALGOS}
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    for problem in unexpected[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
