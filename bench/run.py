"""Erasure-vs-retrain benchmark: one run of one workload.

Run from the root of a source checkout:

    python3 bench/run.py --workload readme-multiclass --seed 0 --seconds 30 --trace 0

The run starts fresh interpreters only; nothing is installed. It first
starts one discarded warm-up probe (it fills the file cache for the
package import), then the worker (``worker.py``), which repeats rounds of
the erasure pipeline until ``--seconds`` have passed since the run began.
Setup probes, each a fresh worker that imports ``ssse``, generates the
workload's data, builds its splits and exits, run within every round. Every output is checked;
each check and each erasure request is one operation.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of the traced rounds, their self times and the tracing overhead. The
lines before it are a readable report: every metric with its unit and
sample count, the derived erase-vs-retrain ratio and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from worker import WorkerError, start_worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# BLAS threads of every process the benchmark starts (never more than nproc).
BLAS_THREADS = 1
# The worker is stopped if it runs this much longer than --seconds (a traced
# run always makes two rounds, whatever --seconds says).
WORKER_GRACE_S = 100

# End-to-end times are reported at this reference speed: each time measured in
# a run is scaled by REFERENCE_S / (median time of the worker's Reference work
# in that run). The shared machines this runs on swing in speed by up to half
# over minutes; the scaling cancels that drift, while a change to ssse moves
# the times and not the reference. 0.028 s is the reference's typical time on
# the 2-core Xeon this benchmark was tuned on, so there scaled and measured
# times agree. The report keeps the measured times too.
REFERENCE_S = 0.028
# On a workload whose requests are bound by memory traffic, erase_ms_p50 and
# erase_ms_p95 are scaled by STREAM_REFERENCE_S / (median time of the worker's
# StreamReference) instead: the CPU-bound reference does not follow the memory
# traffic of the shared host. The value is its typical time on the same Xeon.
STREAM_REFERENCE_S = 0.052

END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("retrain_s", "s"),
    ("fisher_s", "s"),
    ("sweep_s", "s"),
    ("erase_ms_p50", "ms"),
    ("erase_ms_p95", "ms"),
    ("cli_erase_s", "s"),
    ("peak_rss_mb", "MB"),
)


def median(values):
    return statistics.median(values) if values else float("nan")


def p95(values):
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(setups, worker, scale: float = 1.0, latency_scale: float = 1.0) -> dict:
    """The end-to-end metrics: request latencies multiplied by ``latency_scale``,
    every other time by ``scale``."""
    s = worker["samples"]
    lat = s["request_ms"]
    return {
        "setup_s": median(setups) * scale,
        "train_s": median(s["train"]) * scale,
        "retrain_s": median(s["retrain"]) * scale,
        "fisher_s": median(s["fisher"]) * scale,
        "sweep_s": median(s["sweep"]) * scale,
        "erase_ms_p50": median(lat) * latency_scale,
        "erase_ms_p95": p95(lat) * latency_scale,
        "cli_erase_s": median(s["cli_erase"]) * scale,
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def per_layer(probes, worker) -> dict:
    """Per-layer metrics of a traced run: name -> (value, unit)."""
    plain, traced, counts = worker["samples"], worker["traced_samples"], worker["counts"]
    spans = worker["spans"]
    rounds = worker["traced_rounds"]

    def med(name, scale=1.0):
        return median(traced[name]) * scale

    def self_p50(name, scale=1.0):
        return spans[name]["self_p50_s"] * scale

    train_s, fisher_s = median(plain["train"]), median(plain["fisher"])
    e2e_untraced = sum(median(plain[p]) for p in ("train", "retrain", "fisher", "sweep"))
    e2e_traced = sum(median(traced[p]) for p in ("train", "retrain", "fisher", "sweep"))
    m = {
        "cli.import_s": (median([p["setup"]["import"] for p in probes]), "s"),
        "data.generate_s": (median([p["setup"]["generate"] for p in probes]), "s"),
        "data.splits_s": (median([p["setup"]["splits"] for p in probes]), "s"),
        "models.grad_matrix_batch_ms": (med("models.grad_matrix_batch", 1e3), "ms"),
        "models.grad_matrix_rows_per_s": (
            counts["data.train_rows"] / med("models.grad_matrix_all_rows"), "rows/s"),
        "models.subset_ms": (med("models.subset", 1e3), "ms"),
        "models.predict_proba_ms": (med("models.predict_proba", 1e3), "ms"),
        "models.loss_ms": (med("models.loss", 1e3), "ms"),
        "splitmix.shuffle_ms": (med("splitmix.shuffle", 1e3), "ms"),
        "splitmix.shuffles": (worker["shuffles_per_train"], "count"),
        "training.epochs_run": (counts["training.epochs_run"], "count"),
        "training.steps": (counts["training.steps"], "count"),
        "training.step_ms": (train_s * 1e3 / counts["training.steps"], "ms"),
        "training.cpu_s": (median(plain["train.cpu"]), "s"),
        "training.wait_s": (train_s - median(plain["train.cpu"]), "s"),
        "training.self_s": (self_p50("train"), "s"),
        "fisher.rank_one_terms": (counts["fisher.rank_one_terms"], "count"),
        "fisher.blocks": (counts["fisher.blocks"], "count"),
        "fisher.max_block_side": (counts["fisher.max_block_side"], "count"),
        "fisher.step_ms": (fisher_s * 1e3 / counts["fisher.rank_one_terms"], "ms"),
        "fisher.cpu_s": (median(plain["fisher.cpu"]), "s"),
        "fisher.wait_s": (fisher_s - median(plain["fisher.cpu"]), "s"),
        "fisher.self_s": (self_p50("fisher"), "s"),
        "fisher.bytes_computed": (counts["fisher.bytes_computed"], "bytes"),
        "fisher.peak_rss_mb": (median(plain["fisher.rss_mb"]), "MB"),
        "fisher.apply_ms": (med("fisher.apply", 1e3), "ms"),
        "fisher.save_s": (med("fisher.save"), "s"),
        "fisher.load_s": (med("fisher.load"), "s"),
        "fisher.file_bytes": (counts["fisher.file_bytes"], "bytes"),
        "erasure.requests": (counts["erasure.requests"], "count"),
        "erasure.grad_rows": (counts["erasure.grad_rows"] / counts["erasure.requests"], "count"),
        "erasure.grad_ms_p50": (med("erasure.grad", 1e3), "ms"),
        "erasure.request_self_ms_p50": (self_p50("request", 1e3), "ms"),
        "evaluation.points": (counts["evaluation.points"], "count"),
        "evaluation.eval_ms": (med("evaluation.eval", 1e3), "ms"),
        "evaluation.score_ms": (med("evaluation.score", 1e3), "ms"),
        "evaluation.sweep_self_s": (self_p50("sweep"), "s"),
        "evaluation.best_epsilon": (worker["best_epsilon"], "1"),
        "evaluation.best_score": (worker["best_score"], "1"),
        "cli.erase_load_s": (med("cli.erase_load"), "s"),
        "container.model_save_ms": (med("container.model_save", 1e3), "ms"),
        "trace.spans": (sum(s["count"] for s in spans.values()) / rounds, "count"),
        "trace.overhead_s": (e2e_traced - e2e_untraced, "s"),
        "trace.overhead_pct": (100.0 * (e2e_traced - e2e_untraced) / e2e_untraced, "%"),
    }
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Erasure-vs-retrain benchmark, one run.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at a tenth of its size (self-tests)")
    args = parser.parse_args(argv)
    args.seed %= 2**32  # numpy seeds must be non-negative

    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ssse", "__init__.py")):
        print("error: run from the root of an ssse source checkout (src/ssse is missing)",
              file=sys.stderr)
        return 2
    out_base = os.path.join(root, ".bench_out")
    run_dir = os.path.join(out_base, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    # Inherited by the worker and every process it starts.
    os.environ.update(PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS=threads,
                      OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", run_dir]
    if args.tiny:
        common.append("--tiny")

    try:
        # Discarded warm-up: fills the file cache for the package import.
        start_worker([*common, "--setup-only", "--result", os.path.join(run_dir, "warmup.json")])
        worker = start_worker(
            [*common, "--trace", str(args.trace), "--deadline", repr(start + args.seconds),
             "--result", os.path.join(run_dir, "worker.json")], timeout=args.seconds + WORKER_GRACE_S)
        if args.trace:
            shutil.move(os.path.join(run_dir, "trace.jsonl"),
                        os.path.join(out_base, f"trace-{args.workload}-s{args.seed}.jsonl"))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    expected_pkg = os.path.join(root, "src", "ssse", "__init__.py")
    if os.path.realpath(worker["package"]) != os.path.realpath(expected_pkg):
        print(f"error: imported {worker['package']}, not the checkout's package", file=sys.stderr)
        return 1
    probes = [worker, *worker["probes"]]
    checks = worker["checks"]
    n_requests = len(worker["samples"]["request_ms"]) + len(
        worker["traced_samples"].get("request_ms", []))
    attempted = checks["attempted"] + n_requests
    failed = checks["failed"] + worker["requests_failed"]

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": worker["rounds"], "traced_rounds": worker["traced_rounds"],
        "requests": n_requests, "checks": checks, "theta_digest": worker["theta_digest"],
        "facts": worker["facts"],
        "wall_s": time.monotonic() - start,
    }
    if args.trace:
        metrics = per_layer(probes, worker)
        report["spans"] = worker["spans"]
    else:
        setups = [p["setup"]["setup"] for p in probes]
        reference_s = median(worker["samples"]["reference"])
        scale = REFERENCE_S / reference_s
        stream_s = worker["samples"].get("stream_reference")
        latency_scale = STREAM_REFERENCE_S / median(stream_s) if stream_s else scale
        values = end_to_end(setups, worker, scale, latency_scale)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        report["reference_s"] = reference_s
        report["stream_reference_s"] = median(stream_s) if stream_s else None
        report["measured"] = end_to_end(setups, worker)
        # Derived, and deliberately not an end-to-end metric: a faster retrain
        # raises this ratio, so gating it would flag a retrain speed-up as a
        # regression. The north-star bar is erasure cheaper than retraining.
        ratio = (values["fisher_s"] + values["erase_ms_p50"] / 1e3) / values["retrain_s"]
        report["erase_vs_retrain"] = ratio
        report["north_star_met"] = ratio < 1.0
        report["samples"] = {k: len(v) for k, v in worker["samples"].items()}
        report["samples"]["setup"] = len(probes)
        report["phase_samples"] = {k: v for k, v in worker["samples"].items() if k != "request_ms"}
    report_path = os.path.join(out_base, f"report-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(report_path, "w") as fh:
        json.dump({**report, "metrics": metrics}, fh, indent=1)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {worker['rounds']} rounds, "
          f"{n_requests} requests, {attempted} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  erase_vs_retrain (derived, not gated) {report['erase_vs_retrain']:.3f}: "
              f"north-star bar < 1 {'met' if report['north_star_met'] else 'NOT met'}")
        print(f"  times scaled to the reference speed: reference work took {reference_s:.4f} s "
              f"in this run against {REFERENCE_S} s; measured times are in the report")
        if stream_s:
            print(f"  request latencies scaled to the stream reference: {median(stream_s):.4f} s "
                  f"in this run against {STREAM_REFERENCE_S} s")
        print("  cpu/wall per phase: " + ", ".join(
            f"{p} {median(worker['samples'][p + '.cpu']) / median(worker['samples'][p]):.2f}"
            for p in ("train", "retrain", "fisher", "sweep")))
    for failure in checks["failures"]:
        print(f"  FAILED: {failure}")
    print("  machine: " + json.dumps(worker["facts"], sort_keys=True))
    print(f"  report: {report_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
