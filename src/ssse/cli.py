"""Command-line pipelines: train, fisher, erase, sweep, demo, baselines.

Every command reads one sectioned key=value config file (INI syntax,
grammar documented in the README) plus an output directory, and writes
deterministic files: rerunning a command with an identical config
produces byte-identical outputs. Nothing here depends on wall-clock
time, and all files are written atomically (unique temp file plus rename).

Exit codes: 0 success, 2 configuration or input errors, 3 numeric
failures such as divergence or a failed factorization.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import os
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import data as data_mod
from ._container import write_atomic
from .erasure import (
    _GRAD_SOURCES,
    ErasureRequest,
    check_epsilon_grid,
    diag_scrub_update,
    gradient_ascent_step,
    influence_update,
    ssse_grid,
    ssse_update,
)
from .errors import InputError, NumericError, SsseError
from .fisher import (
    InverseFisher,
    build_inverse_fisher,
    diagonal_inverse_fisher,
    load_inverse_fisher,
    save_inverse_fisher,
)
from .models import (
    Dataset,
    LossConfig,
    MLP,
    ModelParams,
    MultiAttrLinear,
    MultinomialLinear,
    Shape,
    _real,
    _whole,
    predict_labels,
)
from .training import TrainConfig, load_model, retrain_scratch, save_model, train

if TYPE_CHECKING:  # evaluation loads only in the commands that evaluate
    from .evaluation import SweepResult

log = logging.getLogger("ssse")


# ---------------------------------------------------------------------------
# Config access
# ---------------------------------------------------------------------------

MISSING = object()


def whole_number(text: str) -> int:
    """A count, index or seed: an integer, or a float with no fraction (40.0 reads as 40).

    ``int`` comes first, so a 64-bit seed stays exact.
    """
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def float_list(text: str) -> list[float]:
    """Comma-separated numbers; empty cells are skipped."""
    return [float(cell) for cell in text.split(",") if cell.strip()]


def float_pairs(text: str) -> list[tuple[float, float]]:
    """Semicolon-separated pairs, each pair comma or colon separated."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p for p in chunk.split(":" if ":" in chunk else ",") if p.strip()]
        if len(parts) != 2:
            raise ValueError(f"expected pairs, got {chunk!r}")
        pairs.append((float(parts[0]), float(parts[1])))
    if not pairs:
        raise ValueError("no pairs given")
    return pairs


class ConfigView:
    """Typed access to one parsed config file with section.key error messages."""

    def __init__(self, path: str) -> None:
        # One read: the digest describes exactly the bytes that were parsed.
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read config {path}: {exc}") from exc
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(raw.decode("utf-8"), source=path)
        except UnicodeDecodeError as exc:
            raise InputError(f"config {path} is not UTF-8 text: {exc}") from exc
        except configparser.Error as exc:
            raise InputError(f"config {path}: {exc}") from exc
        self._parser = parser
        self.digest = hashlib.sha256(raw).hexdigest()

    def get(self, section: str, key: str, parse=str, default=MISSING):
        """``parse`` of the stripped value; ``default`` when the key is absent."""
        if not self._parser.has_option(section, key):
            if default is MISSING:
                raise InputError(f"config is missing {section}.{key}")
            return default
        raw = self._parser.get(section, key).strip()
        try:
            return parse(raw)
        except ValueError as exc:
            raise InputError(f"{section}.{key}: bad value {raw!r} ({exc})") from None


def _config_real(cfg: ConfigView, section: str, key: str, default=MISSING, **bounds) -> float:
    """A real number under ``_real``'s rule, named ``section.key`` when it is refused."""
    return _real(cfg.get(section, key, float, default), f"{section}.{key}", **bounds)


# ---------------------------------------------------------------------------
# Pipeline assembly from config
# ---------------------------------------------------------------------------

# Marks a generator key whose default is data.seed, so the train and test
# draws share their class centers or attribute directions.
_DATA_SEED = object()

# source -> (generator, size key, test-size key defaulting to the size,
#            keyword arguments shared by both draws as key -> (parse, default))
_SOURCES = {
    "blobs": (
        data_mod.make_blobs, "n_per_class", "test_n_per_class",
        {"centers": (float_pairs, MISSING), "spread": (float, 1.0)},
    ),
    "gaussian_classes": (
        data_mod.make_gaussian_classes, "n_per_class", "test_n_per_class",
        {"n_features": (whole_number, MISSING), "n_classes": (whole_number, MISSING),
         "center_scale": (float, 3.0), "spread": (float, 1.0),
         "center_seed": (whole_number, _DATA_SEED)},
    ),
    "attributes": (
        data_mod.make_attributes, "n", "test_n",
        {"n_features": (whole_number, MISSING), "n_attrs": (whole_number, MISSING),
         "frequencies": (float_list, MISSING), "overlap": (float, 0.3),
         "direction_seed": (whole_number, _DATA_SEED)},
    ),
}


def build_dataset(cfg: ConfigView, test: bool = False) -> Dataset:
    """The training set, or with ``test`` the test set; id prefixes tr/te keep them disjoint."""
    source = cfg.get("data", "source")
    pre, tag = ("test_", "te") if test else ("", "tr")
    if source == "csv":
        kind = cfg.get("data", "kind")
        return data_mod.load_csv(cfg.get("data", f"{pre}features"),
                                 cfg.get("data", f"{pre}labels"), kind, id_prefix=tag)
    if source not in _SOURCES:
        raise InputError(f"unknown data.source: {source!r}")
    generator, size_key, test_size_key, shared = _SOURCES[source]
    seed = cfg.get("data", "seed", whole_number)
    kwargs = {
        key: cfg.get("data", key, parse, seed if default is _DATA_SEED else default)
        for key, (parse, default) in shared.items()
    }
    n = cfg.get("data", size_key, whole_number)
    if test:
        seed = cfg.get("data", "test_seed", whole_number)
        n = cfg.get("data", test_size_key, whole_number, n)
    return generator(seed, n, id_prefix=tag, **kwargs)


def build_datasets(cfg: ConfigView) -> tuple[Dataset, Dataset]:
    """The training and the test set."""
    return build_dataset(cfg), build_dataset(cfg, test=True)


def model_shape(cfg: ConfigView, train_ds: Dataset, test_ds: Dataset) -> Shape:
    family = cfg.get("model", "family")
    m = train_ds.n_features
    if family == "multi_attr_linear":
        if train_ds.kind != "binary":
            raise InputError("multi_attr_linear requires binary attribute data")
        return MultiAttrLinear(n_attrs=train_ds.n_attrs, n_features=m)
    if train_ds.kind != "multinomial":
        raise InputError(f"{family} requires multinomial class data")
    inferred = int(max(train_ds.labels.max(), test_ds.labels.max()))
    n_classes = cfg.get("model", "n_classes", whole_number, inferred)
    if family == "multinomial_linear":
        return MultinomialLinear(n_classes=n_classes, n_features=m)
    if family == "mlp":
        n_hidden = cfg.get("model", "n_hidden", whole_number)
        return MLP(n_features=m, n_hidden=n_hidden, n_classes=n_classes)
    raise InputError(f"unknown model.family: {family!r}")


def loss_config(cfg: ConfigView) -> LossConfig:
    return LossConfig(l2_coeff=cfg.get("loss", "l2_coeff", float, 0.0))


def train_config(cfg: ConfigView) -> TrainConfig:
    return TrainConfig(
        lr=cfg.get("train", "lr", float),
        epochs=cfg.get("train", "epochs", whole_number),
        batch_size=cfg.get("train", "batch_size", whole_number),
        seed=cfg.get("train", "seed", whole_number),
        momentum=cfg.get("train", "momentum", float, 0.0),
        grad_tol=cfg.get("train", "grad_tol", float, 1e-5),
        lr_schedule=cfg.get("train", "lr_schedule", float_pairs, ()),
    )


def removal_spec(cfg: ConfigView) -> data_mod.RemovalSpec:
    return data_mod.RemovalSpec(
        kind=cfg.get("removal", "kind"),
        index=cfg.get("removal", "index", whole_number),
        fraction=cfg.get("removal", "fraction", float),
        seed=cfg.get("removal", "seed", whole_number),
    )


def fisher_settings(cfg: ConfigView, loss_cfg: LossConfig) -> tuple[float, int]:
    dampening = _config_real(cfg, "fisher", "dampening", loss_cfg.l2_coeff, gt=0)
    batch_size = cfg.get("fisher", "batch_size", whole_number, 1)
    return dampening, _whole(batch_size, "fisher.batch_size", 1)


def _grad_source(text: str) -> str:
    """``sweep.grad_source`` for ``erase``, checked before any file is read."""
    if text not in _GRAD_SOURCES:
        raise ValueError(f"expected one of {', '.join(_GRAD_SOURCES)}")
    return text


def _removed_only(text: str) -> str:
    """``sweep.grad_source`` for sweep and demo-boundary, which evaluate only
    the removed-gradient update; ``erase`` also accepts ``remaining``."""
    if text != "removed":
        raise ValueError("sweep and demo-boundary support only 'removed'")
    return text


def sweep_settings(cfg: ConfigView, train_ds: Dataset) -> tuple[list[float], str]:
    """The validated epsilon grid and the selection criterion the task implies."""
    grid = check_epsilon_grid(cfg.get("sweep", "grid", float_list))
    return grid, "max_gamma" if train_ds.kind == "binary" else "min_delta"


@dataclass(frozen=True)
class Pipeline:
    """One fit of a config, shared by sweep, demo-boundary and compare-baselines.

    Holds theta*, the retrain-from-scratch reference, the removal splits and
    the inverse Fisher built at theta*. Commands read their own config
    sections before :meth:`fit`, so a bad value fails before any training.
    """

    train_ds: Dataset
    test_ds: Dataset
    loss_cfg: LossConfig
    theta_star: ModelParams
    retrain: ModelParams
    splits: data_mod.SplitSet
    finv: InverseFisher

    @staticmethod
    def fit(cfg: ConfigView, train_ds: Dataset, test_ds: Dataset) -> "Pipeline":
        shape = model_shape(cfg, train_ds, test_ds)
        loss_cfg = loss_config(cfg)
        tcfg = train_config(cfg)
        spec = removal_spec(cfg)
        dampening, batch_size = fisher_settings(cfg, loss_cfg)
        theta_star = train(train_ds, shape, loss_cfg, tcfg).params
        splits = data_mod.build_splits(train_ds, test_ds, spec)
        with warnings.catch_warnings(record=True) as caught:
            # retrain_scratch warns when the removal empties a class or an
            # attribute, which a whole-target removal does on purpose
            warnings.simplefilter("always", UserWarning)
            retrain = retrain_scratch(train_ds, splits.removed, shape, loss_cfg, tcfg).params
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        finv = build_inverse_fisher(theta_star, train_ds, loss_cfg, dampening,
                                    batch_size=batch_size)
        return Pipeline(train_ds, test_ds, loss_cfg, theta_star, retrain, splits, finv)

    def sweep(self, grid: list[float], criterion: str) -> SweepResult:
        from .evaluation import epsilon_sweep

        return epsilon_sweep(
            self.theta_star, self.finv, self.train_ds, self.test_ds, self.splits, grid,
            criterion, self.retrain, self.loss_cfg,
        )


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_text(out_dir: str, name: str, text: str) -> None:
    write_atomic(_out_path(out_dir, name), text.encode())


def _write_json(out_dir: str, name: str, payload: dict) -> None:
    _write_text(out_dir, name, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = ConfigView(args.config)
    train_ds, test_ds = build_datasets(cfg)
    shape = model_shape(cfg, train_ds, test_ds)
    loss_cfg = loss_config(cfg)
    result = train(train_ds, shape, loss_cfg, train_config(cfg))
    log.info("trained: loss %.6g grad norm %.3g after %d epochs",
             result.final_loss, result.final_grad_norm, result.epochs_run)
    save_model(result.params, loss_cfg, _out_path(args.out, "model.bin"))
    _write_json(args.out, "manifest.json", {
        "config_digest": cfg.digest,
        "seed": result.params.seed,
        "final_loss": result.final_loss,
        "final_grad_norm": result.final_grad_norm,
        "epochs_run": result.epochs_run,
    })
    return 0


def cmd_fisher(args) -> int:
    cfg = ConfigView(args.config)
    train_ds = build_dataset(cfg)
    params, loss_cfg = load_model(args.model)
    dampening, batch_size = fisher_settings(cfg, loss_cfg)
    finv = build_inverse_fisher(params, train_ds, loss_cfg, dampening, batch_size=batch_size)
    dual = sum(b.shape[0] < hi - lo for b, (lo, hi) in zip(finv.blocks, finv.spec.ranges))
    log.info("built inverse Fisher: %d primal and %d dual blocks, %d bytes stored, "
             "dampening %g, batch %d", len(finv.blocks) - dual, dual,
             sum(b.nbytes for b in finv.blocks), dampening, batch_size)
    save_inverse_fisher(finv, _out_path(args.out, "fisher.bin"))
    return 0


def cmd_erase(args) -> int:
    cfg = ConfigView(args.config)
    train_ds = build_dataset(cfg)
    grad_source = cfg.get("sweep", "grad_source", _grad_source, "removed")
    params, loss_cfg = load_model(args.model)
    finv = load_inverse_fisher(args.fisher)
    removed = data_mod.draw_removed(train_ds, removal_spec(cfg))
    grid, _ = sweep_settings(cfg, train_ds)
    req = ErasureRequest(removed_ids=removed, epsilon=grid[-1], grad_source=grad_source)
    # Every update is computed, from one erasure direction, before the first
    # file is written, so a failing grid point leaves --out untouched.
    erased = ssse_grid(params, finv, train_ds, req, loss_cfg, grid)
    written = []
    for i, (eps, (theta, step_norm)) in enumerate(zip(grid, erased)):
        name = f"erased_{i:03d}_eps_{eps!r}.bin"
        save_model(theta, loss_cfg, _out_path(args.out, name))
        written.append({"epsilon": eps, "file": name, "step_norm": step_norm})
    _write_json(args.out, "erase_manifest.json",
                {"config_digest": cfg.digest, "outputs": written, "removed": len(removed)})
    log.info("wrote %d erased models", len(written))
    return 0


def cmd_sweep(args) -> int:
    from . import evaluation as eval_mod

    cfg = ConfigView(args.config)
    train_ds, test_ds = build_datasets(cfg)
    grid, criterion = sweep_settings(cfg, train_ds)
    cfg.get("sweep", "grad_source", _removed_only, "removed")
    run = Pipeline.fit(cfg, train_ds, test_ds)
    sweep = run.sweep(grid, criterion)
    log.info("sweep done: best epsilon %g by %s", sweep.best_epsilon, sweep.criterion)
    save_model(run.theta_star, run.loss_cfg, _out_path(args.out, "model.bin"))
    save_model(run.retrain, run.loss_cfg, _out_path(args.out, "retrain.bin"))
    save_inverse_fisher(run.finv, _out_path(args.out, "fisher.bin"))
    _write_text(args.out, "sweep_report.txt", eval_mod.sweep_report_text(sweep))
    _write_text(args.out, "sweep_report.csv", eval_mod.sweep_csv_text(sweep))
    return 0


def cmd_demo_boundary(args) -> int:
    from . import evaluation as eval_mod

    cfg = ConfigView(args.config)
    train_ds, test_ds = build_datasets(cfg)
    if train_ds.n_features != 2:
        raise InputError(
            f"demo-boundary requires 2-feature data, got {train_ds.n_features} features"
        )
    grid, criterion = sweep_settings(cfg, train_ds)
    cfg.get("sweep", "grad_source", _removed_only, "removed")
    gspec = eval_mod.GridSpec(
        x_min=cfg.get("boundary", "x_min", float, -6.0),
        x_max=cfg.get("boundary", "x_max", float, 6.0),
        y_min=cfg.get("boundary", "y_min", float, -6.0),
        y_max=cfg.get("boundary", "y_max", float, 6.0),
        nx=cfg.get("boundary", "nx", whole_number, 161),
        ny=cfg.get("boundary", "ny", whole_number, 161),
    )
    run = Pipeline.fit(cfg, train_ds, test_ds)
    sweep = run.sweep(grid, criterion)
    theta, loss_cfg = run.theta_star, run.loss_cfg
    best_req = ErasureRequest(removed_ids=run.splits.removed, epsilon=sweep.best_epsilon)
    influence_req = ErasureRequest(removed_ids=run.splits.removed)
    variants = {
        "original": theta,
        "retrain": run.retrain,
        "ssse": ssse_update(theta, run.finv, train_ds, best_req, loss_cfg),
        "influence_full": influence_update(theta, train_ds, influence_req, loss_cfg, "full"),
        "influence_lko": influence_update(theta, train_ds, influence_req, loss_cfg, "lko"),
    }

    pts = gspec.points()
    preds = {name: predict_labels(p, pts) for name, p in variants.items()}
    lines = ["x,y," + ",".join(f"pred_{name}" for name in variants)]
    for i in range(pts.shape[0]):
        cells = [repr(float(pts[i, 0])), repr(float(pts[i, 1]))]
        cells.extend(str(int(preds[name][i])) for name in variants)
        lines.append(",".join(cells))
    _write_text(args.out, "boundary_grid.csv", "\n".join(lines) + "\n")

    summary = {"best_epsilon": sweep.best_epsilon, "criterion": sweep.criterion}
    for name in ("original", "ssse", "influence_full", "influence_lko"):
        summary[f"disagreement_{name}"] = eval_mod.boundary_disagreement(
            variants[name], run.retrain, gspec
        )
    _write_json(args.out, "demo_summary.json", summary)
    log.info("boundary demo written: best epsilon %g", sweep.best_epsilon)
    return 0


def cmd_compare_baselines(args) -> int:
    from . import evaluation as eval_mod

    cfg = ConfigView(args.config)
    eps = _config_real(cfg, "baselines", "ssse_epsilon", 1.0, ge=0)
    ga_lr = _config_real(cfg, "baselines", "ga_lr", ge=0)
    scrub_eps = _config_real(cfg, "baselines", "scrub_epsilon", eps, ge=0)
    noise = dict(
        noise_sigma=_config_real(cfg, "baselines", "scrub_noise_sigma", 0.0, ge=0),
        noise_seed=_whole(cfg.get("baselines", "scrub_noise_seed", whole_number, 0),
                          "baselines.scrub_noise_seed", 0),
    )
    run = Pipeline.fit(cfg, *build_datasets(cfg))
    theta, train_ds, loss_cfg = run.theta_star, run.train_ds, run.loss_cfg
    removed = run.splits.removed

    req, ga_req, scrub_req = (ErasureRequest(removed_ids=removed, epsilon=e)
                              for e in (eps, ga_lr, scrub_eps))
    diag_finv = diagonal_inverse_fisher(theta, train_ds, loss_cfg, run.finv.dampening)
    rows = {
        "original": theta,
        "retrain": run.retrain,
        "ssse": ssse_update(theta, run.finv, train_ds, req, loss_cfg),
        "gradient_ascent": gradient_ascent_step(theta, train_ds, ga_req, loss_cfg),
        "diag_scrub": diag_scrub_update(theta, diag_finv, train_ds, scrub_req, loss_cfg,
                                        **noise),
    }

    split_sets = vars(eval_mod.SplitData.from_splits(train_ds, run.test_ds, run.splits))
    accs = {method: [eval_mod.accuracy(params, ds) for ds in split_sets.values()]
            for method, params in rows.items()}
    header = ["method", *(f"acc_{s}" for s in split_sets), *(f"d_{s}" for s in split_sets)]
    lines = [",".join(header)]
    for method, row in accs.items():
        deltas = [abs(a - r) for a, r in zip(row, accs["retrain"])]
        lines.append(",".join([method] + [repr(v) for v in row + deltas]))
    _write_text(args.out, "baselines.csv", "\n".join(lines) + "\n")
    text = ["# baseline comparison (accuracy deltas vs retrain)"]
    text += [line.replace(",", "  ") for line in lines]
    _write_text(args.out, "baselines.txt", "\n".join(text) + "\n")
    log.info("baseline comparison written")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssse",
        description="Single-step sample erasure: train, build Fisher, erase, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, needs_model=False, needs_fisher=False):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="sectioned key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        if needs_model:
            p.add_argument("--model", required=True, help="model container file")
        if needs_fisher:
            p.add_argument("--fisher", required=True, help="inverse-Fisher container file")
        p.add_argument("--verbose", action="store_true")
        p.set_defaults(func=func)

    add("train", cmd_train)
    add("fisher", cmd_fisher, needs_model=True)
    add("erase", cmd_erase, needs_model=True, needs_fisher=True)
    add("sweep", cmd_sweep)
    add("demo-boundary", cmd_demo_boundary)
    add("compare-baselines", cmd_compare_baselines)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except SsseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
