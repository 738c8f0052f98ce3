"""The three benchmark workloads: the north-star tasks of the roadmap.

Each workload is a complete erasure task: how to generate its data, the
model, the training settings, what to remove, how to build the inverse
Fisher and which evaluation criterion judges the result. A workload also
renders the INI config that ``ssse erase`` reads, so the benchmark's
in-process pipeline and the command-line request see the same data.

Data seeds derive from the benchmark's ``--seed``: seed 0 gives the
seeds of the acceptance tests, and seed s shifts the sample-noise seeds
by 1000 * s. Class centers and attribute directions stay fixed (they
use the acceptance seeds), so every seed draws a fresh sample of the
same task and the work per run does not depend on the seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

SEED_STRIDE = 1000

# 2^-4 ... 2^4 in half powers of two.
SWEEP_GRID = tuple(2.0 ** (k / 2) for k in range(-8, 9))
CLI_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)

# Requests erase a fresh seeded set of k ids, k drawn uniformly from this range.
REQUEST_K = (1, 100)


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # "gaussian_classes" or "attributes"
    data: dict  # generator keyword arguments shared by train and test
    size_key: str  # the data key giving the sample count, for tiny variants
    train_seed: int
    test_seed: int
    model: dict  # [model] section of the CLI config
    l2_coeff: float
    train: dict  # TrainConfig keyword arguments (seed included)
    removal_kind: str
    removal_index: int
    dampening: float
    fisher_batch: int
    grad_source: str  # which gradients feed a request: "removed" or "remaining"
    # Requests stream a block far larger than the L2 cache, so their latency
    # follows the machine's memory traffic rather than its CPU speed.
    memory_bound_requests: bool = False

    @property
    def criterion(self) -> str:
        return "max_gamma" if self.generator == "attributes" else "min_delta"

    def data_seeds(self, seed: int) -> tuple[int, int]:
        return self.train_seed + SEED_STRIDE * seed, self.test_seed + SEED_STRIDE * seed

    def tiny(self) -> "Workload":
        """The same task at a size that runs in a few seconds (self-tests)."""
        data = dict(self.data)
        data[self.size_key] = max(20, data[self.size_key] // 10)
        train = dict(self.train, epochs=3)
        return dataclasses.replace(self, data=data, train=train)

    def config_text(self, seed: int, grid=CLI_GRID) -> str:
        """INI config for ``ssse erase`` describing this workload at ``seed``."""
        train_seed, test_seed = self.data_seeds(seed)
        data = dict(self.data)
        if "frequencies" in data:
            data["frequencies"] = ", ".join(repr(f) for f in data["frequencies"])
        sections = {
            "data": {"source": self.generator, "seed": train_seed, "test_seed": test_seed, **data},
            "model": self.model,
            "loss": {"l2_coeff": self.l2_coeff},
            "train": self.train,
            "removal": {"kind": self.removal_kind, "index": self.removal_index,
                        "fraction": 1.0, "seed": 0},
            "fisher": {"dampening": self.dampening, "batch_size": self.fisher_batch},
            "sweep": {"grid": ", ".join(repr(e) for e in grid), "grad_source": self.grad_source},
        }
        lines = []
        for section, values in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
            lines.append("")
        return "\n".join(lines)


_GAUSSIAN_10x50 = dict(
    n_per_class=200, n_features=50, n_classes=10, center_scale=3.0, spread=2.0, center_seed=31
)

WORKLOADS = {
    w.name: w
    for w in (
        # README softmax task. Training is most of the work; the Fisher build is
        # 20 000 rank-one steps on 50x50 blocks, so it measures call overhead.
        Workload(
            name="readme-multiclass",
            generator="gaussian_classes",
            data=_GAUSSIAN_10x50,
            size_key="n_per_class",
            train_seed=31,
            test_seed=32,
            model={"family": "multinomial_linear"},
            l2_coeff=0.01,
            train=dict(lr=0.2, epochs=150, batch_size=100, seed=5, momentum=0.9, grad_tol=1e-7),
            removal_kind="class",
            removal_index=3,
            dampening=0.01,
            fisher_batch=1,
            grad_source="removed",
        ),
        # 50-64-10 MLP on the same data. Its batched Fisher folds 20 terms into a
        # 3200-wide block (82 MB each pass), so the build is bound by memory
        # bandwidth and costs more than retraining; requests stream that block.
        Workload(
            name="mlp-batched-fisher",
            generator="gaussian_classes",
            data=_GAUSSIAN_10x50,
            size_key="n_per_class",
            train_seed=31,
            test_seed=32,
            model={"family": "mlp", "n_hidden": 64},
            l2_coeff=0.01,
            train=dict(lr=0.1, epochs=30, batch_size=100, seed=5, momentum=0.9, grad_tol=1e-7),
            removal_kind="class",
            removal_index=3,
            dampening=0.01,
            fisher_batch=100,
            grad_source="removed",
            memory_bound_requests=True,
        ),
        # The only sigmoid-head and Mann-Whitney AUC path. Requests take their
        # gradients over the n - k retained rows instead of the k removed ones.
        Workload(
            name="rare-attribute-remaining",
            generator="attributes",
            data=dict(
                n=1500, n_features=20, n_attrs=8, frequencies=(0.15,) + (0.4,) * 7,
                overlap=0.4, direction_seed=41,
            ),
            size_key="n",
            train_seed=41,
            test_seed=42,
            model={"family": "multi_attr_linear"},
            l2_coeff=0.005,
            train=dict(lr=0.3, epochs=300, batch_size=200, seed=5, momentum=0.9, grad_tol=1e-7),
            removal_kind="attribute",
            removal_index=1,
            dampening=0.005,
            fisher_batch=1,
            grad_source="remaining",
        ),
    )
}
