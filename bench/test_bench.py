"""Self-tests of the benchmark. Run from the checkout root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import ssse  # noqa: E402
from worker import make_data, model_shape  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def _tiny_fisher(name="readme-multiclass"):
    wl = WORKLOADS[name].tiny()
    train_ds, _ = make_data(ssse, wl, 0)
    shape = model_shape(ssse, wl, train_ds)
    loss_cfg = ssse.LossConfig(l2_coeff=wl.l2_coeff)
    star = ssse.train(train_ds, shape, loss_cfg, ssse.TrainConfig(**wl.train))
    finv = ssse.build_inverse_fisher(star.params, train_ds, loss_cfg, wl.dampening,
                                     ssse.BlockSpec.from_shape(shape), wl.fisher_batch)
    return finv, star.params, train_ds, loss_cfg


@pytest.mark.parametrize("name", ["readme-multiclass", "mlp-batched-fisher"])
def test_probe_accepts_the_built_inverse_fisher(name):
    finv, params, train_ds, loss_cfg = _tiny_fisher(name)
    log = checks.CheckLog()
    checks.check_inverse_fisher(log, ssse, finv, params, train_ds, loss_cfg, seed=0)
    assert log.attempted == len(finv.blocks)
    assert log.failed == 0, log.failures


def test_probe_counts_a_scaled_block_as_a_failed_operation():
    finv, params, train_ds, loss_cfg = _tiny_fisher()
    blocks = list(finv.blocks)
    blocks[2] = blocks[2] * 1.01
    bad = ssse.InverseFisher(blocks=tuple(blocks), spec=finv.spec, dampening=finv.dampening,
                             n_samples=finv.n_samples, batch_size=finv.batch_size,
                             built_at_digest=finv.built_at_digest)
    log = checks.CheckLog()
    checks.check_inverse_fisher(log, ssse, bad, params, train_ds, loss_cfg, seed=0)
    assert log.attempted == len(finv.blocks)
    assert log.failed == 1
    assert log.failures[0].startswith("fisher-probe block 2")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_seed_changes_the_generated_inputs(name):
    wl = WORKLOADS[name].tiny()
    a_train, a_test = make_data(ssse, wl, 0)
    b_train, b_test = make_data(ssse, wl, 1)
    again_train, _ = make_data(ssse, wl, 0)
    assert np.array_equal(a_train.features, again_train.features)
    assert not np.array_equal(a_train.features, b_train.features)
    assert not np.array_equal(a_test.features, b_test.features)


def test_seed_zero_uses_the_acceptance_seeds():
    assert WORKLOADS["readme-multiclass"].data_seeds(0) == (31, 32)
    assert WORKLOADS["rare-attribute-remaining"].data_seeds(0) == (41, 42)


def test_run_fails_without_a_source_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "readme-multiclass",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
