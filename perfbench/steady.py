"""Check that the benchmark is steady: two sets of runs of the same code.

    python3 perfbench/steady.py --workload figures [--traced-seeds 1]

Each of the two sets runs ``run.py`` once per seed 0-9 at ``run_seconds``,
one process at a time. For every end-to-end metric it reports, per set, the
median and the spread (third minus first quartile, as a share of the
median), and how far the second set's median moved from the first's in the
worse direction; both must stay within the metric's bound in
``BENCHMARK.json``. Every count (attempted, failed, operations per kind,
search rounds and converged runs, and with ``--traced-seeds`` the objective
calls per search) must be identical between the sets seed by seed. The
median over each set of the gap between the speed factor sampled among the
library's operations and the library-free one must stay within the time
metrics' bound, or the scaled times cannot be trusted to show a change.
Exits 0 only if all of that holds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import TIME_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SEEDS = range(10)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}, trace {trace}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads(
        (OUT / f"report-{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    return {"result": result, "counts": report["counts"],
            "factor_gap": report["speed"]["factor_gap"], "environment": {
                key: report[key] for key in ("python", "numpy", "nproc", "machine", "timers")}}


def spread(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--traced-seeds", type=int, default=0,
                        help="also compare traced counts for this many seeds per set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    sets = []
    for set_index in range(SETS):
        runs = {}
        for seed in SEEDS:
            runs[seed] = run_once(args.workload, seed, seconds, 0)
            if seed < args.traced_seeds:
                runs[seed]["traced_counts"] = run_once(args.workload, seed, seconds, 1)["counts"]
            metrics = runs[seed]["result"]["metrics"]
            print(f"set {set_index + 1} seed {seed}: " + ", ".join(
                f"{name}={m['value']:.4g}" for name, m in metrics.items()), flush=True)
        sets.append(runs)

    ok = True
    rows = []
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        stats = [spread([runs[seed]["result"]["metrics"][name]["value"] for seed in SEEDS])
                 for runs in sets]
        first, last = stats[0][0], stats[-1][0]
        worse = (last - first) / first if lower else (first - last) / first
        row = {"metric": name, "bound": bound,
               "sets": [{"median": m, "q1": q1, "spread": sp} for m, q1, sp in stats],
               "spread_ok": all(sp <= bound for _, _, sp in stats),
               "spread_below_third": all(sp < bound / 3 for _, _, sp in stats),
               "second_worse_by": worse,
               "median_ok": worse <= bound}
        ok &= row["spread_ok"] and row["median_ok"]
        rows.append(row)
        print(f"{name:<20} bound {bound:<5} " + " | ".join(
            f"median {m:.5g} spread {sp:.3f}" for m, _, sp in stats)
            + f" | second worse by {worse:+.3f}"
            + ("" if row["spread_ok"] and row["median_ok"] else "  FAIL"))

    gap_limit = min(m["bound"] for m in spec["end_to_end"] if m["unit"] in TIME_UNITS)
    factor_gaps = [statistics.median(runs[seed]["factor_gap"] for seed in SEEDS)
                   for runs in sets]
    gaps_ok = all(abs(gap) <= gap_limit for gap in factor_gaps)
    ok &= gaps_ok
    print("speed factor among the library's operations over the library-free one, "
          "median per set: " + " | ".join(f"{gap:+.3f}" for gap in factor_gaps)
          + ("" if gaps_ok else f"  FAIL (limit {gap_limit})"))

    count_problems = []
    for seed in SEEDS:
        reference = sets[0][seed]
        for other in sets[1:]:
            for key in ("counts", "traced_counts"):
                if reference.get(key) != other[seed].get(key):
                    count_problems.append(f"seed {seed}: {key} differ between sets")
    shares = {runs[seed]["result"]["failed"] / runs[seed]["result"]["attempted"]
              for runs in sets for seed in SEEDS}
    if len(shares) != 1:
        count_problems.append(f"failed shares differ between runs: {sorted(shares)}")
    for problem in count_problems:
        print(problem)
    ok &= not count_problems
    print(f"counts identical across sets: {not count_problems}; failed share {sorted(shares)}")

    summary = {
        "workload": args.workload,
        "seeds": list(SEEDS),
        "seconds": seconds,
        "environment": sets[0][SEEDS[0]]["environment"],
        "metrics": rows,
        "factor_gaps": factor_gaps,
        "count_problems": count_problems,
        "failed_share": sorted(shares),
        "ok": ok,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"steady-{args.workload}.json").write_text(json.dumps(summary, indent=1),
                                                      encoding="utf-8")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
