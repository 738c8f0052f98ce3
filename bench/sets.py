"""Repeat benchmark runs and report their spread.

Run from the root of a source checkout:

    python3 bench/sets.py --runs 10 --groups 2

Each group makes ``--runs`` sets; a set runs every workload of
``BENCHMARK.json`` once, untraced and for its ``run_seconds``, in
interleaved order, with the set's own seed (seed i in set i), so both
groups see the same seeds. For every workload and end-to-end metric it
prints each group's median and its quartile spread (Q3 - Q1 over the
median, from ``statistics.quantiles(values, n=4)``), the change of the
median from the first group to each later one, and the bound that
``BENCHMARK.json`` fixes for the metric. It also checks that two runs
with the same seed produced the same trained parameters (theta digest).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({' '.join(cmd)}):\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report_line = next(line for line in lines if line.strip().startswith("report: "))
    with open(report_line.split("report: ", 1)[1]) as fh:
        report = json.load(fh)
    return json.loads(lines[-1]), report


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--groups", type=int, default=1)
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    # values[workload][metric][group] -> list over runs
    values: dict = {w: {} for w in workloads}
    digests: dict = {}
    failed = 0
    for group in range(args.groups):
        for i in range(args.runs):
            order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
            for w in order:
                result, report = run_once(w, i, bench["run_seconds"])
                failed += result["failed"] + (not result["correct"])
                digests.setdefault((w, i), set()).add(report["theta_digest"])
                for name, m in result["metrics"].items():
                    values[w].setdefault(name, [[] for _ in range(args.groups)])[group].append(
                        m["value"])
                print(f"group {group} run {i} {w}: correct={result['correct']} "
                      f"failed={result['failed']} wall={report['wall_s']:.1f}s", flush=True)

    print(f"\n{'workload':26s} {'metric':30s} {'median':>12s} {'spread':>8s} "
          f"{'drift':>8s} {'bound':>6s}")
    worst = 0.0
    for w in workloads:
        for name, groups in values[w].items():
            base = statistics.median(groups[0])
            for g, vals in enumerate(groups):
                med = statistics.median(vals)
                s = spread(vals) if len(vals) >= 2 else float("nan")
                drift = (med - base) / base if base else float("nan")
                bound = bounds.get(name)
                if bound:
                    worst = max(worst, s / bound)
                print(f"{w:26s} {name:30s} {med:12.6g} {s:8.2%} {drift:8.2%} "
                      f"{bound if bound is not None else '-':>6}" + (f"  (group {g})" if g else ""))
    mismatched = [key for key, d in digests.items() if len(d) != 1]
    print(f"\nfailed operations or incorrect runs: {failed}")
    print(f"seeds whose runs disagree on the theta digest: {mismatched or 'none'}")
    print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
