"""Benchmark worker: one fresh interpreter that times calls into ``ssse``.

``run.py`` starts this file once per setup probe (``--setup-only``: import
the package, generate the data, build the splits, report the times) and
once for the measured run. The measured run repeats rounds of the whole
erasure pipeline until its deadline:

    train -> retrain_scratch -> build_inverse_fisher -> epsilon_sweep
          -> one ``ssse erase`` command in a fresh interpreter
          -> setup probes
          with batches of closed-loop erasure requests (one caller) between
          the steps after the sweep

and writes every sample, count and check to a JSON result file. In trace
mode the rounds alternate between untraced and traced, so the tracing
overhead is the difference of the two. A traced round does a fixed amount
of work (each phase once, MIN_REQUESTS requests), so the counts taken from
its spans depend on the seed only, never on how fast the calls ran.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

import checks
from tracing import Tracer
from workloads import CLI_GRID, REQUEST_K, SWEEP_GRID, WORKLOADS

# Each phase is called repeatedly within a round until this much time has
# passed. Every call is one sample, and the run reports the median over all
# of them: on a shared machine, one call in a slow stretch then moves the
# result much less than it would as one of a few samples.
MIN_PHASE_S = 1.0
# Per round, requests run for at least REQUEST_SECONDS and MIN_REQUESTS times,
# in batches between the later phases, so that latencies sample the whole run
# and not one stretch of it. With 600 requests in every round, at least 30 of
# a run's request latencies lie beyond its p95.
REQUEST_SECONDS = 1.5
MIN_REQUESTS = 600
# Each per-layer kernel in a traced round is timed for at least this long.
MIN_KERNEL_S = 0.2
# Setup probes per round. Spread over the run rather than back to back, so
# that one slow stretch of the machine does not set every sample of setup_s.
SETUP_PROBES_PER_ROUND = 2
REQUEST_BATCHES = 2 + SETUP_PROBES_PER_ROUND


class Reference:
    """A fixed piece of work that never touches ``ssse``.

    It mixes the three kinds of work the workloads do: a Python loop, small
    numpy calls, and passes over a 16 MB array. Timed between the phases of
    a run, its median says how fast the machine ran during that run.
    """

    def __init__(self) -> None:
        self.small = np.random.default_rng(0).standard_normal((64, 64))
        self.large = np.ones(2_000_000)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for j in range(120_000):
            acc += j * j
        for _ in range(600):
            self.small @ self.small[0]
        for _ in range(16):
            self.large.sum()
        return time.perf_counter() - t0


class StreamReference:
    """Matrix-vector products over a matrix as large as mlp-batched-fisher's big
    Fisher block (3200 x 3200, 82 MB), which never touch ``ssse``.

    The host's shared last-level cache and memory bus set how fast such a
    block streams, and their load drifts over tens of seconds. Timed around
    the request batches of a workload whose requests stream such a block, its
    median says how fast memory ran during the run. In one process over
    150 s, scaling 40-request medians of those requests by it cut the
    quartile spread of 600-request windows from 27 % (15 % with the CPU-bound
    Reference) to 6 %. It scales nothing on workloads whose requests are
    CPU-bound, where it spread them more than the Reference did.
    """

    SIDE = 3200

    def __init__(self) -> None:
        self.matrix = np.random.default_rng(1).standard_normal((self.SIDE, self.SIDE))
        self.vector = np.ones(self.SIDE)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(10):
            self.matrix @ self.vector
        return time.perf_counter() - t0


def rss_mb(resident_overhead: float) -> float:
    """Peak RSS of this process in MB, less memory the benchmark keeps resident."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - resident_overhead


class Run:
    """One measured run: the workload's data and models plus every sample taken."""

    def __init__(self, ssse, wl, seed, train_ds, test_ds, splits, out_dir, tracer, probe_args):
        self.ssse = ssse
        self.wl = wl
        self.seed = seed
        self.train_ds = train_ds
        self.test_ds = test_ds
        self.splits = splits
        self.out_dir = out_dir
        self.tracer = tracer
        self.probe_args = probe_args
        self.probes: list[dict] = []
        self.log = checks.CheckLog()
        # Samples of untraced and traced rounds are kept apart: end-to-end
        # metrics come from untraced rounds only.
        self.by_mode: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
        self.samples = self.by_mode[False]
        self.counts: dict[str, float] = {}
        self.requests_failed = 0
        self.digests: set[str] = set()
        self.rounds = 0
        self.traced_rounds = 0
        self.one_off_s = 0.0  # time of the first round's one-off checks

        self.loss_cfg = ssse.LossConfig(l2_coeff=wl.l2_coeff)
        self.train_cfg = ssse.TrainConfig(**wl.train)
        self.shape = model_shape(ssse, wl, train_ds)
        self.spec = ssse.BlockSpec.from_shape(self.shape)
        self.request_rng = None  # seeded per round by round()
        self.reference = Reference()
        self.stream = StreamReference() if wl.memory_bound_requests else None
        # The stream matrix stays resident from here to the end of the run, so
        # every later peak of RSS includes it exactly once.
        self.overhead_mb = self.stream.matrix.nbytes / 2**20 if self.stream else 0.0

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def timed(self, name: str, fn, min_total: float = 0.0):
        """Call ``fn`` until ``min_total`` seconds pass (at least once).

        Records the wall and CPU time of every call under ``name`` and
        ``name.cpu``, and returns the last result.
        """
        self.reference_sample()
        total = 0.0
        while True:
            c0 = time.process_time()
            w0 = time.perf_counter()
            with self.tracer.span(name):
                result = fn()
            wall = time.perf_counter() - w0
            self.add(name, wall)
            self.add(name + ".cpu", time.process_time() - c0)
            total += wall
            if total >= min_total:
                return result

    def reference_sample(self) -> None:
        self.add("reference", self.reference.seconds())

    def trained(self, result):
        self.digests.add(self.ssse.params_digest(result.params).hex())
        return result

    # -- one round of the pipeline -------------------------------------------

    def round(self, traced: bool) -> None:
        ssse, wl = self.ssse, self.wl
        self.tracer.enabled = traced
        self.samples = self.by_mode[traced]
        # Fresh request ids in every round; the same ids for a given seed and
        # round, however many requests earlier rounds made.
        self.request_rng = np.random.default_rng([self.seed, 23, self.rounds])
        # A traced round calls each phase once: its span counts are per call.
        min_phase = 0.0 if traced else MIN_PHASE_S
        if traced:
            self.patch_layers()
        try:
            star = self.timed("train", lambda: self.trained(ssse.train(
                self.train_ds, self.shape, self.loss_cfg, self.train_cfg)), min_phase)
            theta = star.params
            with warnings.catch_warnings():
                # Removing a whole class or attribute is the point of the task.
                warnings.simplefilter("ignore", UserWarning)
                retrain = self.timed("retrain", lambda: ssse.retrain_scratch(
                    self.train_ds, self.splits.removed, self.shape, self.loss_cfg,
                    self.train_cfg), min_phase)
            finv = self.timed("fisher", lambda: ssse.build_inverse_fisher(
                theta, self.train_ds, self.loss_cfg, wl.dampening, self.spec, wl.fisher_batch),
                min_phase)
            self.add("fisher.rss_mb", rss_mb(self.overhead_mb))
            sweep = self.timed("sweep", lambda: ssse.epsilon_sweep(
                theta, finv, self.train_ds, self.test_ds, self.splits, SWEEP_GRID,
                wl.criterion, retrain.params, self.loss_cfg), min_phase)
            if self.rounds == 0:
                t0 = time.monotonic()
                self.first_round_checks(star, retrain, finv, sweep)
                self.one_off_s = time.monotonic() - t0
            eps = sweep.best_epsilon
            self.requests(theta, finv, eps)
            self.cli_erase()
            self.requests(theta, finv, eps)
            for _ in range(SETUP_PROBES_PER_ROUND):
                self.setup_probe()
                self.requests(theta, finv, eps)
        finally:
            self.tracer.unpatch_all()
            self.tracer.enabled = False
        self.rounds += 1
        if traced:
            self.traced_rounds += 1
            self.kernels(star, retrain, finv, sweep)

    def first_round_checks(self, star, retrain, finv, sweep) -> None:
        ssse, log = self.ssse, self.log
        theta = star.params
        self.best_epsilon = sweep.best_epsilon
        score = checks.check_sweep_quality(log, sweep)
        # Distance from the retrain on every workload: delta, or 1 - gamma.
        self.best_score = 1.0 - score if sweep.criterion == "max_gamma" else score
        checks.check_inverse_fisher(log, ssse, finv, theta, self.train_ds, self.loss_cfg,
                                    self.seed)
        self.counts.update({
            "training.epochs_run": star.epochs_run,
            "training.steps": star.epochs_run * math.ceil(self.train_ds.n / self.train_cfg.batch_size),
            "fisher.rank_one_terms": finv.rank_one_count,
            "fisher.blocks": len(finv.blocks),
            "fisher.max_block_side": max(b.shape[0] for b in finv.blocks),
            "fisher.bytes_computed": 8 * finv.rank_one_count * sum(b.size for b in finv.blocks),
            "evaluation.points": len(SWEEP_GRID),
            "data.train_rows": self.train_ds.n,
        })
        ssse.save_model(theta, self.loss_cfg, os.path.join(self.out_dir, "model.bin"))
        ssse.save_inverse_fisher(finv, os.path.join(self.out_dir, "fisher.bin"))
        with open(os.path.join(self.out_dir, "erase.cfg"), "w") as fh:
            fh.write(self.wl.config_text(self.seed))
        # What the CLI must reproduce: the in-process update at each grid point.
        self.cli_expected = []
        for eps in CLI_GRID:
            req = ssse.ErasureRequest(removed_ids=self.splits.removed, epsilon=eps,
                                      grad_source=self.wl.grad_source)
            values = ssse.ssse_update(theta, finv, self.train_ds, req, self.loss_cfg).values
            log.record(f"erase eps={eps} finite", bool(np.all(np.isfinite(values))))
            self.cli_expected.append(values)

    def cli_erase(self) -> None:
        """One ``ssse erase`` in a fresh interpreter; checks its outputs."""
        out = os.path.join(self.out_dir, "cli_out")
        shutil.rmtree(out, ignore_errors=True)
        self.reference_sample()
        cmd = [sys.executable, "-m", "ssse.cli", "erase",
               "--config", os.path.join(self.out_dir, "erase.cfg"), "--out", out,
               "--model", os.path.join(self.out_dir, "model.bin"),
               "--fisher", os.path.join(self.out_dir, "fisher.bin")]
        log = self.log
        with self.tracer.span("cli_erase"):
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, capture_output=True, timeout=120)
            except subprocess.TimeoutExpired:
                log.record("ssse erase exit code", False, "no exit within 120 s")
                return
            self.add("cli_erase", time.perf_counter() - t0)
        if not log.record("ssse erase exit code", proc.returncode == 0,
                          f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"):
            return
        try:
            with open(os.path.join(out, "erase_manifest.json")) as fh:
                outputs = json.load(fh)["outputs"]
            ok = len(outputs) == len(CLI_GRID) and all(
                np.array_equal(self.ssse.load_model(os.path.join(out, o["file"]))[0].values, want)
                for o, want in zip(outputs, self.cli_expected))
        except (OSError, ValueError, KeyError, self.ssse.SsseError) as exc:
            log.record("ssse erase outputs", False, repr(exc))
            return
        log.record("ssse erase outputs", ok,
                   "expected one model per grid point equal to the in-process update")

    def setup_probe(self) -> None:
        """Launch a setup-only worker; it reports when its data and splits were ready."""
        path = os.path.join(self.out_dir, "probe.json")
        self.reference_sample()
        with self.tracer.span("setup_probe"):
            self.probes.append(start_worker(self.probe_args + ["--setup-only", "--result", path]))

    def request_ids(self) -> tuple[str, ...]:
        k = int(self.request_rng.integers(REQUEST_K[0], REQUEST_K[1] + 1))
        rows = self.request_rng.choice(self.train_ds.n, size=k, replace=False)
        return tuple(self.train_ds.ids[i] for i in np.sort(rows))

    def requests(self, theta, finv, epsilon: float) -> None:
        """One batch of requests in a closed loop with one caller.

        Each request erases a fresh seeded id set from theta*. A traced batch
        makes exactly its share of MIN_REQUESTS; an untraced one also runs
        for its share of REQUEST_SECONDS.
        """
        ssse = self.ssse
        traced = self.tracer.enabled
        self.reference_sample()
        min_seconds = 0.0 if traced else REQUEST_SECONDS / REQUEST_BATCHES
        self.stream_sample()
        start = time.perf_counter()
        done = 0
        while (done < MIN_REQUESTS / REQUEST_BATCHES
               or time.perf_counter() - start < min_seconds):
            ids = self.request_ids()
            t0 = time.perf_counter()
            try:
                with self.tracer.span("request"):
                    req = ssse.ErasureRequest(removed_ids=ids, epsilon=epsilon,
                                              grad_source=self.wl.grad_source)
                    values = ssse.ssse_update(theta, finv, self.train_ds, req,
                                              self.loss_cfg).values
                self.add("request_ms", (time.perf_counter() - t0) * 1e3)
                ok = bool(np.all(np.isfinite(values)))
            except self.ssse.SsseError:
                ok = False
            if not ok:
                self.requests_failed += 1
            if traced and self.traced_rounds == 0:
                self.counts["erasure.requests"] = self.counts.get("erasure.requests", 0) + 1
                rows = len(ids) if self.wl.grad_source == "removed" else self.train_ds.n - len(ids)
                self.counts["erasure.grad_rows"] = self.counts.get("erasure.grad_rows", 0) + rows
            done += 1
        self.stream_sample()

    def stream_sample(self) -> None:
        if self.stream is not None:
            self.add("stream_reference", self.stream.seconds())

    # -- traced rounds only ----------------------------------------------------

    def patch_layers(self) -> None:
        """Child spans for the calls one layer makes into the next."""
        t = self.tracer
        from ssse import _splitmix, erasure, evaluation, fisher, models, training

        t.patch(training, "grad_matrix", "models.grad_matrix")
        t.patch(training, "loss", "models.loss")
        t.patch(training, "grad_mean", "models.grad_mean")
        t.patch(_splitmix.SplitMix64, "shuffle", "splitmix.shuffle")
        t.patch(fisher, "grad_matrix", "models.grad_matrix")
        t.patch(fisher, "sherman_morrison_step", "fisher.rank_one_step")
        t.patch(erasure, "grad_sum", "models.grad_sum")
        t.patch(erasure, "apply_inverse", "fisher.apply")
        t.patch(models.Dataset, "subset", "models.subset")
        t.patch(models.Dataset, "without", "models.subset")
        t.patch(evaluation, "ssse_update", "erasure.ssse_update")
        t.patch(evaluation, "evaluate_erasure", "evaluation.evaluate")
        t.patch(evaluation, "roc_auc", "evaluation.auc")
        t.patch(evaluation, "confusion_matrix", "evaluation.confusion")

    def kernels(self, star, retrain, finv, sweep) -> None:
        """Per-layer kernels, each timed by calling the public function directly."""
        ssse, ds, wl = self.ssse, self.train_ds, self.wl
        from ssse import _splitmix

        theta, cfg = star.params, self.loss_cfg
        b = self.train_cfg.batch_size
        order = np.random.default_rng([self.seed, 5]).permutation(ds.n)[:b]
        batch_x, batch_y = ds.features[order], ds.labels[order]
        self.timed("models.grad_matrix_batch", lambda: ssse.grad_matrix(
            theta, batch_x, batch_y, cfg), MIN_KERNEL_S)

        def all_rows():
            for lo in range(0, ds.n, 512):
                ssse.grad_matrix(theta, ds.features[lo:lo + 512], ds.labels[lo:lo + 512], cfg)

        self.timed("models.grad_matrix_all_rows", all_rows, MIN_KERNEL_S)
        ids = self.request_ids()
        if wl.grad_source == "removed":
            self.timed("models.subset", lambda: ds.subset(ids), MIN_KERNEL_S)
            self.timed("erasure.grad", lambda: ssse.grad_sum(theta, ds, ids, cfg), MIN_KERNEL_S)
        else:
            self.timed("models.subset", lambda: ds.without(ids), MIN_KERNEL_S)
            remaining = ds.without(ids)
            self.timed("erasure.grad", lambda: ssse.grad_sum(
                theta, remaining, remaining.ids, cfg), MIN_KERNEL_S)
        self.timed("models.predict_proba", lambda: ssse.predict_proba(
            theta, self.test_ds.features), MIN_KERNEL_S)
        self.timed("models.loss", lambda: (ssse.loss(theta, ds, cfg),
                                           ssse.grad_mean(theta, ds, cfg)), MIN_KERNEL_S)
        self.timed("splitmix.shuffle", lambda: _splitmix.SplitMix64(self.seed).shuffle(
            np.arange(ds.n, dtype=np.int64)), MIN_KERNEL_S)
        g = ssse.grad_sum(theta, ds, self.splits.removed, cfg)
        self.timed("fisher.apply", lambda: ssse.apply_inverse(finv, g), MIN_KERNEL_S)

        best = next(r for r in sweep.reports if r.epsilon == sweep.best_epsilon)
        req = ssse.ErasureRequest(removed_ids=self.splits.removed, epsilon=best.epsilon,
                                  grad_source=wl.grad_source)
        theta_hat = ssse.ssse_update(theta, finv, ds, req, cfg)
        split_data = ssse.SplitData.from_splits(ds, self.test_ds, self.splits)
        self.timed("evaluation.eval", lambda: ssse.evaluate_erasure(
            theta_hat, best.epsilon, theta, retrain.params, split_data, cfg), MIN_KERNEL_S)
        score = (ssse.similarity_ratio if wl.criterion == "max_gamma"
                 else ssse.normalized_confusion_distance)
        self.timed("evaluation.score", lambda: score(
            theta_hat, theta, retrain.params, split_data.removed), MIN_KERNEL_S)

        path_m = os.path.join(self.out_dir, "kernel_model.bin")
        path_f = os.path.join(self.out_dir, "kernel_fisher.bin")
        self.timed("container.model_save", lambda: ssse.save_model(theta, cfg, path_m),
                   MIN_KERNEL_S)
        self.timed("fisher.save", lambda: ssse.save_inverse_fisher(finv, path_f), MIN_KERNEL_S)
        self.counts["fisher.file_bytes"] = os.path.getsize(path_f)
        self.timed("fisher.load", lambda: ssse.load_inverse_fisher(path_f), MIN_KERNEL_S)
        self.timed("cli.erase_load", lambda: (
            ssse.load_model(os.path.join(self.out_dir, "model.bin")),
            ssse.load_inverse_fisher(os.path.join(self.out_dir, "fisher.bin"))), MIN_KERNEL_S)
        os.remove(path_m)
        os.remove(path_f)


def start_worker(args: list[str], timeout: float = 60) -> dict:
    """Run this file in a fresh interpreter; returns the JSON it wrote to --result.

    The launch time is taken just before the process starts, so the
    child's setup time covers interpreter start-up.
    """
    result_path = args[args.index("--result") + 1]
    cmd = [sys.executable, os.path.abspath(__file__), *args, "--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout} s: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


class WorkerError(Exception):
    pass


def model_shape(ssse, wl, train_ds):
    family = wl.model["family"]
    m = train_ds.n_features
    if family == "multi_attr_linear":
        return ssse.MultiAttrLinear(n_attrs=train_ds.n_attrs, n_features=m)
    n_classes = int(train_ds.labels.max())
    if family == "multinomial_linear":
        return ssse.MultinomialLinear(n_classes=n_classes, n_features=m)
    return ssse.MLP(n_features=m, n_hidden=wl.model["n_hidden"], n_classes=n_classes)


def make_data(ssse, wl, seed):
    generator = {"gaussian_classes": ssse.make_gaussian_classes,
                 "attributes": ssse.make_attributes}[wl.generator]
    train_seed, test_seed = wl.data_seeds(seed)
    return (generator(train_seed, id_prefix="tr", **wl.data),
            generator(test_seed, id_prefix="te", **wl.data))


def machine_facts(out_dir: str) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    fs, best = "unknown", ""
    real = os.path.realpath(out_dir)
    with open("/proc/self/mounts") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1]
            if (real == mount or real.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                fs, best = parts[2], mount
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "out_dir_fs": fs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() at which the parent started this process")
    parser.add_argument("--deadline", type=float, default=0.0,
                        help="time.monotonic() after which no new round starts")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for this run's files")
    parser.add_argument("--result", required=True, help="JSON result file")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    import ssse

    t_import = time.monotonic()
    wl = WORKLOADS[args.workload].tiny() if args.tiny else WORKLOADS[args.workload]
    train_ds, test_ds = make_data(ssse, wl, args.seed)
    t_data = time.monotonic()
    splits = ssse.build_splits(train_ds, test_ds, ssse.RemovalSpec(
        kind=wl.removal_kind, index=wl.removal_index, fraction=1.0, seed=0))
    t_ready = time.monotonic()
    result = {
        "package": ssse.__file__,
        "setup": {"setup": t_ready - args.launched, "import": t_import - t0,
                  "generate": t_data - t_import, "splits": t_ready - t_data},
    }
    if not args.setup_only:
        os.makedirs(args.out, exist_ok=True)
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        probe_args = ["--workload", args.workload, "--seed", str(args.seed), "--out", args.out]
        if args.tiny:
            probe_args.append("--tiny")
        run = Run(ssse, wl, args.seed, train_ds, test_ds, splits, args.out, tracer, probe_args)
        while True:
            r0 = time.monotonic()
            run.round(traced=bool(args.trace) and run.rounds % 2 == 1)
            # The next round is expected to take as long as this one, less
            # the checks that only the first round makes.
            expected = time.monotonic() - r0 - (run.one_off_s if run.rounds == 1 else 0.0)
            if args.trace and run.traced_rounds == 0:
                continue
            if time.monotonic() + expected > args.deadline:
                break
        result.update(worker_result(run, tracer))
        result["peak_rss_mb"] = rss_mb(run.overhead_mb)
        result["facts"] = machine_facts(args.out)
        if args.trace:
            tracer.write(os.path.join(args.out, "trace.jsonl"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def worker_result(run: Run, tracer: Tracer) -> dict:
    log = run.log
    log.record("theta* digest identical across train calls", len(run.digests) == 1,
               f"{len(run.digests)} distinct digests")
    timed_requests = len(run.by_mode[False].get("request_ms", []))
    log.record(f"at least {MIN_REQUESTS} timed requests", timed_requests >= MIN_REQUESTS,
               f"{timed_requests} requests")
    spans = {}
    for name, d in tracer.by_name().items():
        spans[name] = {"count": len(d["dur"]), "total_s": sum(d["dur"]),
                       "self_s": sum(d["self"]),
                       "self_p50_s": statistics.median(d["self"])}
    return {
        "probes": run.probes,
        "samples": run.by_mode[False],
        "traced_samples": run.by_mode[True],
        "counts": run.counts,
        "requests_failed": run.requests_failed,
        "checks": {"attempted": log.attempted, "failed": log.failed, "failures": log.failures},
        "theta_digest": sorted(run.digests)[0] if run.digests else None,
        "best_epsilon": run.best_epsilon,
        "best_score": run.best_score,
        "rounds": run.rounds,
        "traced_rounds": run.traced_rounds,
        "spans": spans,
        "shuffles_per_train": tracer.children_per_parent("train", "splitmix.shuffle")
        if run.traced_rounds else None,
    }


if __name__ == "__main__":
    sys.exit(main())
