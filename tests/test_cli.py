"""Exit codes, file outputs, and determinism of the command pipelines."""

import configparser
import hashlib
import json
import logging
import os
import re
import struct
import textwrap
import warnings

import numpy as np
import pytest

import ssse
from helpers import random_params, run_fresh
from ssse import BlockSpec, load_model, params_digest
from ssse.cli import main, whole_number

BASE_CONFIG = textwrap.dedent(
    """
    [data]
    source = blobs
    seed = 7
    test_seed = 8
    n_per_class = 20
    centers = -2,0; 2,0
    spread = 1.0

    [model]
    family = multinomial_linear

    [loss]
    l2_coeff = 0.01

    [train]
    lr = 0.4
    epochs = 40
    batch_size = 10
    seed = 1

    [removal]
    kind = class
    index = 2
    fraction = 0.5
    seed = 11

    [sweep]
    grid = 0.5, 1, 2
    criterion = min_delta

    [baselines]
    ga_lr = 0.05
    """
)


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------

def test_train_writes_model_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "model.bin"))
    manifest = json.loads(read_bytes(os.path.join(out, "manifest.json")))
    assert manifest["seed"] == 1
    assert manifest["epochs_run"] >= 1
    assert len(manifest["config_digest"]) == 64


def test_full_command_chain(tmp_path, caplog):
    cfg = write_config(tmp_path)
    t, f, e = (str(tmp_path / d) for d in ("t", "f", "e"))
    assert main(["train", "--config", cfg, "--out", t]) == 0
    model = os.path.join(t, "model.bin")
    with caplog.at_level(logging.INFO, logger="ssse"):
        assert main(["fisher", "--config", cfg, "--out", f, "--model", model, "--verbose"]) == 0
    # two class rows of 2 weights and 40 gradient rows: two primal 2 x 2 factors
    assert "2 primal and 0 dual blocks, 64 bytes stored" in caplog.text
    fisher = os.path.join(f, "fisher.bin")
    assert main(["erase", "--config", cfg, "--out", e, "--model", model, "--fisher", fisher]) == 0
    names = sorted(os.listdir(e))
    assert names == [
        "erase_manifest.json",
        "erased_000_eps_0.5.bin",
        "erased_001_eps_1.0.bin",
        "erased_002_eps_2.0.bin",
    ]
    manifest = json.loads(read_bytes(os.path.join(e, "erase_manifest.json")))
    assert [o["epsilon"] for o in manifest["outputs"]] == [0.5, 1.0, 2.0]


def test_erase_manifest_records_each_step_norm(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("grid = 0.5, 1, 2", "grid = 0, 0.5, 1, 2"))
    t, f = str(tmp_path / "t"), str(tmp_path / "f")
    assert main(["train", "--config", cfg, "--out", t]) == 0
    model = os.path.join(t, "model.bin")
    assert main(["fisher", "--config", cfg, "--out", f, "--model", model]) == 0
    fisher = os.path.join(f, "fisher.bin")
    manifests = []
    for out in (str(tmp_path / "a"), str(tmp_path / "b")):
        assert main(["erase", "--config", cfg, "--out", out, "--model", model,
                     "--fisher", fisher]) == 0
        manifests.append(read_bytes(os.path.join(out, "erase_manifest.json")))
    assert manifests[0] == manifests[1]
    outputs = json.loads(manifests[0])["outputs"]
    norms = [o["step_norm"] for o in outputs]
    assert [o["epsilon"] for o in outputs] == [0.0, 0.5, 1.0, 2.0]
    assert norms[0] == 0.0
    assert norms == sorted(norms) and norms[1] > 0.0
    # the step is the applied update, so its norm is the distance from theta*
    theta = load_model(model)[0].values
    for o in outputs:
        erased = load_model(os.path.join(str(tmp_path / "a"), o["file"]))[0].values
        assert o["step_norm"] == pytest.approx(float(np.linalg.norm(erased - theta)), rel=1e-12)


def test_erase_reads_no_test_data(tmp_path):
    """A CSV config's test files are not needed to erase, and do not change what erase writes."""
    files = {}
    for pre, seed, tag in (("", 7, "tr"), ("test_", 8, "te")):
        ds = ssse.make_blobs(seed, 20, [(-2.0, 0.0), (2.0, 0.0)], 1.0, id_prefix=tag)
        for key in ("features", "labels"):
            files[pre + key] = str(tmp_path / f"{pre}{key}.csv")
        ssse.save_csv(ds, files[pre + "features"], files[pre + "labels"])
    source = "\n".join(["source = csv", "kind = multinomial",
                        *(f"{key} = {path}" for key, path in files.items())])
    cfg = write_config(tmp_path, BASE_CONFIG.replace("source = blobs", source))
    t, f = str(tmp_path / "t"), str(tmp_path / "f")
    assert main(["train", "--config", cfg, "--out", t]) == 0
    model = os.path.join(t, "model.bin")
    assert main(["fisher", "--config", cfg, "--out", f, "--model", model]) == 0
    erase = ["erase", "--config", cfg, "--model", model, "--fisher", os.path.join(f, "fisher.bin")]
    assert main(erase + ["--out", str(tmp_path / "with_test")]) == 0
    os.remove(files["test_features"])
    os.remove(files["test_labels"])
    assert main(erase + ["--out", str(tmp_path / "without_test")]) == 0
    names = sorted(os.listdir(tmp_path / "with_test"))
    assert names == sorted(os.listdir(tmp_path / "without_test")) and len(names) == 4
    for name in names:
        assert (read_bytes(tmp_path / "with_test" / name)
                == read_bytes(tmp_path / "without_test" / name))


def test_sweep_outputs_are_byte_identical_across_reruns(tmp_path):
    cfg = write_config(tmp_path)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["sweep", "--config", cfg, "--out", a]) == 0
    assert main(["sweep", "--config", cfg, "--out", b]) == 0
    for name in ("model.bin", "retrain.bin", "fisher.bin", "sweep_report.txt", "sweep_report.csv"):
        assert read_bytes(os.path.join(a, name)) == read_bytes(os.path.join(b, name)), name


@pytest.mark.parametrize("command", ["sweep", "compare-baselines"])
def test_whole_class_removal_prints_one_warning_line(tmp_path, capsys, command):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("fraction = 0.5", "fraction = 1.0"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == "warning: removal leaves no samples of class 2\n"


def test_compare_baselines_rows(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "bl")
    assert main(["compare-baselines", "--config", cfg, "--out", out]) == 0
    rows = read_bytes(os.path.join(out, "baselines.csv")).decode().splitlines()
    methods = [r.split(",")[0] for r in rows[1:]]
    assert methods == ["original", "retrain", "ssse", "gradient_ascent", "diag_scrub"]
    # the retrain row is its own reference, so its deltas are zero
    retrain_cells = rows[2].split(",")
    assert retrain_cells[5:] == ["0.0", "0.0", "0.0", "0.0"]


def test_demo_boundary_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        BASE_CONFIG + "\n[boundary]\nnx = 21\nny = 21\n",
    )
    out = str(tmp_path / "demo")
    assert main(["demo-boundary", "--config", cfg, "--out", out]) == 0
    summary = json.loads(read_bytes(os.path.join(out, "demo_summary.json")))
    assert set(summary) >= {
        "best_epsilon",
        "disagreement_original",
        "disagreement_ssse",
        "disagreement_influence_full",
        "disagreement_influence_lko",
    }
    grid_rows = read_bytes(os.path.join(out, "boundary_grid.csv")).decode().splitlines()
    assert grid_rows[0] == "x,y,pred_original,pred_retrain,pred_ssse,pred_influence_full,pred_influence_lko"
    assert len(grid_rows) == 1 + 21 * 21


@pytest.mark.parametrize("l2, code", [("0.01", 0), ("0.001", 3)])
def test_demo_boundary_on_an_mlp(tmp_path, capsys, l2, code):
    """The influence baselines take the MLP's exact Hessian; an indefinite one exits 3."""
    text = BASE_CONFIG.replace("family = multinomial_linear", "family = mlp\nn_hidden = 3")
    text = text.replace("l2_coeff = 0.01", f"l2_coeff = {l2}") + "\n[boundary]\nnx = 21\nny = 21\n"
    out = str(tmp_path / "demo")
    assert main(["demo-boundary", "--config", write_config(tmp_path, text), "--out", out]) == code
    if code:
        assert capsys.readouterr().err == (
            "numeric failure: Hessian solve failed: Hessian is not positive definite\n")
        assert not os.path.exists(out)
        return
    summary = json.loads(read_bytes(os.path.join(out, "demo_summary.json")))
    assert 0 <= summary["disagreement_influence_lko"] <= 1
    assert len(read_bytes(os.path.join(out, "boundary_grid.csv")).decode().splitlines()) == 442


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------

def test_missing_config_exits_two(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_config_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(BASE_CONFIG.replace("[model]", "# caf\xe9\n[model]").encode("latin-1"))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_config_digest_covers_the_parsed_bytes(tmp_path):
    text = BASE_CONFIG.replace("[model]", "# caf\u00e9\n[model]")
    out = str(tmp_path / "out")
    assert main(["train", "--config", write_config(tmp_path, text), "--out", out]) == 0
    manifest = json.loads(read_bytes(os.path.join(out, "manifest.json")))
    assert manifest["config_digest"] == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_missing_csv_exits_two_naming_the_path(tmp_path, capsys):
    text = BASE_CONFIG.replace("source = blobs", "source = csv\nkind = multinomial\n"
                               f"features = {tmp_path / 'absent_x.csv'}\n"
                               f"labels = {tmp_path / 'absent_y.csv'}")
    assert main(["train", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
    assert "absent_x.csv" in capsys.readouterr().err


def test_missing_key_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "[data]\nsource = blobs\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "data." in capsys.readouterr().err


def test_corrupt_model_file_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"not a container")
    code = main(["fisher", "--config", cfg, "--out", str(tmp_path / "o"), "--model", str(bad)])
    assert code == 2
    assert "magic" in capsys.readouterr().err


def test_stale_fisher_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    other_cfg = write_config(tmp_path, BASE_CONFIG.replace("seed = 1", "seed = 2"), "other.cfg")
    t1, t2, f = (str(tmp_path / d) for d in ("t1", "t2", "f"))
    main(["train", "--config", cfg, "--out", t1])
    main(["train", "--config", other_cfg, "--out", t2])
    main(["fisher", "--config", cfg, "--out", f, "--model", os.path.join(t1, "model.bin")])
    code = main([
        "erase", "--config", cfg, "--out", str(tmp_path / "e"),
        "--model", os.path.join(t2, "model.bin"),
        "--fisher", os.path.join(f, "fisher.bin"),
    ])
    assert code == 2
    assert "different parameters" in capsys.readouterr().err


def test_erase_refuses_a_version_1_fisher_file(tmp_path, capsys):
    cfg = write_config(tmp_path)
    t, e = str(tmp_path / "t"), str(tmp_path / "e")
    assert main(["train", "--config", cfg, "--out", t]) == 0
    model = os.path.join(t, "model.bin")
    params, _ = load_model(model)
    # version 1 stored each block as its explicit inverse: the side s, then s * s entries
    spec = BlockSpec.from_shape(params.shape)
    blob = b"SSSEFISH" + bytes([1]) + struct.pack("<dQQ", 0.01, 40, 1) + params_digest(params)
    blob += struct.pack("<Q", len(spec.ranges))
    for lo, hi in spec.ranges:
        blob += struct.pack("<Q", hi - lo) + (np.eye(hi - lo) / 0.01).astype("<f8").tobytes()
    fisher = tmp_path / "v1.bin"
    fisher.write_bytes(blob)
    code = main(["erase", "--config", cfg, "--out", e, "--model", model, "--fisher", str(fisher)])
    assert code == 2
    err = capsys.readouterr().err
    assert "version 1" in err and "ssse fisher" in err
    assert not os.path.exists(e)


def test_erase_names_the_invalid_stored_factor_and_exits_three(tmp_path, capsys):
    cfg = write_config(tmp_path)
    t, e = str(tmp_path / "t"), str(tmp_path / "e")
    assert main(["train", "--config", cfg, "--out", t]) == 0
    model = os.path.join(t, "model.bin")
    params, _ = load_model(model)
    # one sample makes both blocks of side 2 dual, one factor row each; Z Z^T of
    # the second overflows
    blob = b"SSSEFISH" + bytes([2]) + struct.pack("<dQQ", 0.01, 1, 1) + params_digest(params)
    blob += struct.pack("<Q", 2)
    for z in ([0.5, 0.0], [1e200, 0.0]):
        blob += struct.pack("<QQ", 1, 2) + np.array(z, dtype="<f8").tobytes()
    fisher = tmp_path / "bad.bin"
    fisher.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["erase", "--config", cfg, "--out", e, "--model", model,
                     "--fisher", str(fisher)])
    assert code == 3
    assert capsys.readouterr().err == (
        f"numeric failure: {fisher}: inverse Fisher factor of block 1 (parameters 2:4): "
        "I - Z Z^T has non-finite entries\n")
    assert not os.path.exists(e)


def _attribute_text(attrs):
    """BASE_CONFIG on ``attrs`` attributes of 4 features, 60 training rows."""
    data = ("[data]\nsource = attributes\nseed = 7\ntest_seed = 8\nn = 60\ntest_n = 20\n"
            f"n_features = 4\nn_attrs = {attrs}\nfrequencies = {', '.join(['0.4'] * attrs)}\n\n")
    text = data + BASE_CONFIG[BASE_CONFIG.index("[model]"):]
    text = text.replace("multinomial_linear", "multi_attr_linear")
    return text.replace("kind = class\nindex = 2", "kind = attribute\nindex = 1")


def _attribute_config(tmp_path, attrs):
    return write_config(tmp_path, _attribute_text(attrs), f"attrs_{attrs}.cfg")


@pytest.mark.parametrize("command", ["fisher", "erase"])
def test_a_model_with_fewer_heads_than_the_data_has_attributes_exits_two(tmp_path, capsys,
                                                                         command):
    one, three = _attribute_config(tmp_path, 1), _attribute_config(tmp_path, 3)
    f, o = str(tmp_path / "f"), str(tmp_path / "o")
    model = str(tmp_path / "model.bin")
    ssse.save_model(random_params(ssse.MultiAttrLinear(n_attrs=1, n_features=4), 1),
                    ssse.LossConfig(0.01), model)
    # an erase needs an inverse Fisher built at the model on as many rows: the 1-attribute set's
    assert main(["fisher", "--config", one, "--out", f, "--model", model]) == 0
    extra = ["--fisher", os.path.join(f, "fisher.bin")] if command == "erase" else []
    assert main([command, "--config", three, "--out", o, "--model", model] + extra) == 2
    assert capsys.readouterr().err == (
        "error: labels have 3 attribute columns, the model expects 1\n")
    assert not os.path.exists(o)


@pytest.mark.parametrize("shape, found, expected", [
    (ssse.MultiAttrLinear(n_attrs=1, n_features=4), 0, 1),
    (ssse.MultinomialLinear(n_classes=2, n_features=4), 3, 0),
], ids=["binary-model-class-data", "softmax-model-attribute-data"])
def test_fisher_with_a_model_of_the_other_label_kind_exits_two(tmp_path, capsys, shape, found,
                                                              expected):
    four_features = "source = gaussian_classes\nn_features = 4\nn_classes = 2"
    cfg = (write_config(tmp_path, BASE_CONFIG.replace("source = blobs", four_features))
           if found == 0 else _attribute_config(tmp_path, 3))
    model = str(tmp_path / "model.bin")
    ssse.save_model(random_params(shape, 1), ssse.LossConfig(0.01), model)
    o = str(tmp_path / "o")
    assert main(["fisher", "--config", cfg, "--out", o, "--model", model]) == 2
    assert capsys.readouterr().err == (
        f"error: labels have {found} attribute columns, the model expects {expected}\n")
    assert not os.path.exists(o)


@pytest.mark.parametrize("spread", ["0", "-1", "nan"])
def test_gaussian_classes_with_a_spread_that_is_not_positive_exits_two(tmp_path, capsys, spread):
    source = f"source = gaussian_classes\nn_features = 3\nn_classes = 2\nspread = {spread}"
    cfg = write_config(tmp_path, BASE_CONFIG.replace("source = blobs", source)
                       .replace("spread = 1.0\n", ""))
    out = str(tmp_path / "o")
    assert main(["train", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == (f"error: spread must be a finite number > 0, "
                                       f"got {float(spread)}\n")
    assert not os.path.exists(out)


def test_a_nan_attribute_frequency_exits_two_naming_its_key(tmp_path, capsys):
    text = _attribute_text(2).replace("frequencies = 0.4, 0.4", "frequencies = nan, 0.5")
    out = str(tmp_path / "o")
    assert main(["train", "--config", write_config(tmp_path, text), "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: frequencies entry must be a finite number > 0 and < 1, got nan\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("extent", ["x_min = nan", "y_max = nan", "x_max = inf", "y_min = -inf"])
def test_demo_boundary_with_a_non_finite_extent_exits_two_before_training(tmp_path, capsys,
                                                                          extent):
    # this training run would diverge with exit 3; the bad extent must fail first
    text = BASE_CONFIG.replace("lr = 0.4", "lr = 1e150") + f"\n[boundary]\n{extent}\n"
    out = str(tmp_path / "demo")
    assert main(["demo-boundary", "--config", write_config(tmp_path, text), "--out", out]) == 2
    name, value = extent.split(" = ")
    assert capsys.readouterr().err == f"error: {name} must be a finite number, got {value}\n"
    assert not os.path.exists(out)


def test_divergence_exits_three(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("lr = 0.4", "lr = 1e150"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, old, new, key",
    [
        ("train", "n_per_class = 20", "n_per_class = twenty", "data.n_per_class"),
        ("train", "spread = 1.0", "spread = wide", "data.spread"),
        ("train", "centers = -2,0; 2,0", "centers = -2,0; 2", "data.centers"),
        ("sweep", "grid = 0.5, 1, 2", "grid = 0.5, one, 2", "sweep.grid"),
    ],
    ids=["int", "float", "pair", "list"],
)
def test_malformed_value_exits_two_naming_the_key(tmp_path, capsys, command, old, new, key):
    cfg = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, old, new, named",
    [
        ("train", "seed = 7", "seed = -7", "seed"),
        ("train", "test_seed = 8", "test_seed = -7", "seed"),
        ("sweep", "seed = 11", "seed = -1", "removal seed"),
        ("compare-baselines", "ga_lr = 0.05",
         "ga_lr = 0.05\nscrub_noise_sigma = 0.1\nscrub_noise_seed = -1",
         "baselines.scrub_noise_seed"),
    ],
    ids=["data", "test", "removal", "scrub-noise"],
)
def test_negative_seed_exits_two_before_training(tmp_path, capsys, command, old, new, named):
    # this training run would diverge with exit 3; the bad seed must fail first
    text = BASE_CONFIG.replace("lr = 0.4", "lr = 1e150").replace(old, new)
    out = str(tmp_path / "o")
    assert main([command, "--config", write_config(tmp_path, text), "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: {named} must be a whole number >= 0, got -" in err
    assert "Traceback" not in err and not os.path.exists(out)


@pytest.mark.parametrize(
    "command, old, new, refusal",
    [
        ("train", "n_per_class = 20", "n_per_class = 0",
         "n_per_class must be a whole number >= 1, got 0"),
        ("train", "family = multinomial_linear", "family = mlp\nn_hidden = 0",
         "MLP.n_hidden must be a whole number >= 1, got 0"),
        ("train", "epochs = 40", "epochs = 0", "epochs must be a whole number >= 1, got 0"),
        ("sweep", "index = 2", "index = 0", "removal index must be a whole number >= 1, got 0"),
        ("sweep", "[baselines]", "[fisher]\nbatch_size = 0\n\n[baselines]",
         "fisher.batch_size must be a whole number >= 1, got 0"),
        ("demo-boundary", "[baselines]", "[boundary]\nnx = 1\n\n[baselines]",
         "nx must be a whole number >= 2, got 1"),
    ],
    ids=["data", "shape", "train", "removal", "fisher", "boundary"],
)
def test_count_below_its_least_exits_two_before_training(tmp_path, capsys, command, old, new,
                                                         refusal):
    # this training run would diverge with exit 3; the bad count must fail first
    text = BASE_CONFIG.replace("lr = 0.4", "lr = 1e150").replace(old, new)
    out = str(tmp_path / "o")
    assert main([command, "--config", write_config(tmp_path, text), "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: {refusal}\n" in err
    assert "Traceback" not in err and not os.path.exists(out)


@pytest.mark.parametrize("schedule", ["nan:0.5", "inf:0.5", "2.7:0.5"])
def test_lr_schedule_epoch_that_is_not_a_whole_number_exits_two(tmp_path, capsys, schedule):
    out = str(tmp_path / "o")
    text = BASE_CONFIG.replace("batch_size = 10\n", f"batch_size = 10\nlr_schedule = {schedule}\n")
    cfg = write_config(tmp_path, text)
    assert main(["train", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    epoch = float(schedule.split(":")[0])
    assert f"error: lr_schedule epoch must be a whole number, got {epoch}\n" in err
    assert "Traceback" not in err and not os.path.exists(out)


def _outputs(out):
    """Each output file's bytes; a JSON manifest's without the config digest it records,
    which hashes the config file's own bytes."""
    files = {}
    for name in sorted(os.listdir(out)):
        data = read_bytes(os.path.join(out, name))
        if name.endswith(".json"):
            data = re.sub(rb'"config_digest": "[0-9a-f]{64}"', b"", data)
        files[name] = data
    return files


@pytest.mark.parametrize("command, old, new, value", [
    ("train", "epochs = 40", "epochs = {}", 40),
    ("fisher", "[baselines]", "[fisher]\nbatch_size = {}\n\n[baselines]", 3),
    ("demo-boundary", "[baselines]", "[boundary]\nnx = {}\nny = 3\n\n[baselines]", 41),
], ids=["train-epochs", "fisher-batch_size", "boundary-nx"])
def test_a_whole_float_count_in_a_config_reads_as_its_int(tmp_path, command, old, new, value):
    model = str(tmp_path / "model")
    extra = []
    if command == "fisher":
        assert main(["train", "--config", write_config(tmp_path), "--out", model]) == 0
        extra = ["--model", os.path.join(model, "model.bin")]
    outputs = []
    for text in (str(value), f"{value}.0"):
        cfg = write_config(tmp_path, BASE_CONFIG.replace(old, new.format(text)), f"{text}.cfg")
        out = str(tmp_path / text)
        assert main([command, "--config", cfg, "--out", out, *extra]) == 0
        outputs.append(_outputs(out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("epochs", ["2.5", "nan", "inf"])
def test_a_count_that_is_not_a_whole_number_exits_two_naming_the_key(tmp_path, capsys, epochs):
    out = str(tmp_path / "o")
    cfg = write_config(tmp_path, BASE_CONFIG.replace("epochs = 40", f"epochs = {epochs}"))
    assert main(["train", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: train.epochs: bad value '{epochs}' (not a whole number)\n" in err
    assert "Traceback" not in err and not os.path.exists(out)


@pytest.mark.parametrize("text, value", [
    ("40", 40), ("40.0", 40), ("-3.0", -3), ("1e3", 1000),
    ("9007199254740993", 2**53 + 1), ("18446744073709551615", 2**64 - 1),
])
def test_whole_number_reads_an_int_or_a_float_with_no_fraction(text, value):
    # An int literal never passes through float, so a 64-bit seed keeps every bit.
    result = whole_number(text)
    assert result == value and type(result) is int


@pytest.mark.parametrize("text", ["2.5", "nan", "inf", "-inf", "1e400", "forty"])
def test_whole_number_refuses_a_fraction_or_a_non_finite_value(text):
    with pytest.raises(ValueError):
        whole_number(text)


_BASES = {
    "blobs": BASE_CONFIG + "\n[fisher]\nbatch_size = 3\n",
    "gaussian": BASE_CONFIG.replace(
        "source = blobs", "source = gaussian_classes\nn_features = 2\nn_classes = 2"),
    "mlp": BASE_CONFIG.replace("family = multinomial_linear", "family = mlp\nn_hidden = 3"),
    "attributes": _attribute_text(2),
    "boundary": BASE_CONFIG + "\n[boundary]\nnx = 21\nny = 21\n",
    "scrub": BASE_CONFIG.replace("ga_lr = 0.05", "ga_lr = 0.05\nscrub_noise_sigma = 0.1"),
}

# Every count, index and seed the CLI reads: (command, base config, key, a valid value).
_WHOLE_KEYS = [
    ("compare-baselines", "blobs", "data.seed", 7),
    ("compare-baselines", "blobs", "data.test_seed", 8),
    ("compare-baselines", "blobs", "data.n_per_class", 20),
    ("compare-baselines", "blobs", "data.test_n_per_class", 10),
    ("compare-baselines", "gaussian", "data.n_features", 2),
    ("compare-baselines", "gaussian", "data.n_classes", 2),
    ("compare-baselines", "gaussian", "data.center_seed", 5),
    ("compare-baselines", "attributes", "data.n", 60),
    ("compare-baselines", "attributes", "data.test_n", 20),
    ("compare-baselines", "attributes", "data.n_features", 4),
    ("compare-baselines", "attributes", "data.n_attrs", 2),
    ("compare-baselines", "attributes", "data.direction_seed", 5),
    ("compare-baselines", "blobs", "model.n_classes", 2),
    ("compare-baselines", "mlp", "model.n_hidden", 3),
    ("compare-baselines", "blobs", "train.epochs", 40),
    ("compare-baselines", "blobs", "train.batch_size", 10),
    ("compare-baselines", "blobs", "train.seed", 1),
    ("compare-baselines", "blobs", "removal.index", 2),
    ("compare-baselines", "blobs", "removal.seed", 11),
    ("compare-baselines", "blobs", "fisher.batch_size", 3),
    ("demo-boundary", "boundary", "boundary.nx", 21),
    ("demo-boundary", "boundary", "boundary.ny", 21),
    ("compare-baselines", "scrub", "baselines.scrub_noise_seed", 4),
]


@pytest.mark.parametrize("command, base, key, value", _WHOLE_KEYS,
                         ids=[f"{base}-{key}" for _, base, key, _ in _WHOLE_KEYS])
def test_every_count_key_reads_a_whole_float_and_refuses_a_fraction(tmp_path, capsys, command,
                                                                     base, key, value):
    section, option = key.split(".")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(_BASES[base])
    outputs, codes = [], []
    for text in (str(value), f"{value}.0", "2.5"):
        parser.set(section, option, text)
        cfg = tmp_path / f"{text}.cfg"
        with open(cfg, "w") as fh:
            parser.write(fh)
        out = str(tmp_path / text)
        codes.append(main([command, "--config", str(cfg), "--out", out]))
        outputs.append(_outputs(out) if os.path.exists(out) else None)
    assert codes == [0, 0, 2]
    assert outputs[0] == outputs[1] and outputs[2] is None
    assert f"error: {key}: bad value '2.5' (not a whole number)\n" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [",", "1, -1"], ids=["empty", "negative"])
def test_erase_rejects_bad_grid_before_writing(tmp_path, capsys, grid):
    cfg = write_config(tmp_path)
    t, f, e = (str(tmp_path / d) for d in ("t", "f", "e"))
    assert main(["train", "--config", cfg, "--out", t]) == 0
    model = os.path.join(t, "model.bin")
    assert main(["fisher", "--config", cfg, "--out", f, "--model", model]) == 0
    bad_text = BASE_CONFIG.replace("grid = 0.5, 1, 2", f"grid = {grid}")
    bad = write_config(tmp_path, bad_text, "bad.cfg")
    code = main([
        "erase", "--config", bad, "--out", e, "--model", model,
        "--fisher", os.path.join(f, "fisher.bin"),
    ])
    assert code == 2
    assert "epsilon grid" in capsys.readouterr().err
    assert not os.path.exists(e) or os.listdir(e) == []


@pytest.mark.parametrize(
    "command, old, new, named",
    [
        ("sweep", "grid = 0.5, 1, 2", "grid = ,", "epsilon grid"),
        ("demo-boundary", "grid = 0.5, 1, 2", "grid = ,", "epsilon grid"),
        ("compare-baselines", "ga_lr = 0.05", "", "baselines.ga_lr"),
        ("sweep", "criterion", "grad_source = remaining\ncriterion", "sweep.grad_source"),
        ("demo-boundary", "criterion", "grad_source = remaining\ncriterion", "sweep.grad_source"),
        ("compare-baselines", "ga_lr = 0.05", "ga_lr = 0.05\nssse_epsilon = -1",
         "baselines.ssse_epsilon must be a finite number >= 0, got -1.0\n"),
        ("compare-baselines", "ga_lr = 0.05", "ga_lr = 0.05\nscrub_epsilon = nan",
         "baselines.scrub_epsilon must be a finite number >= 0, got nan\n"),
        ("compare-baselines", "ga_lr = 0.05", "ga_lr = -0.1",
         "baselines.ga_lr must be a finite number >= 0, got -0.1\n"),
        ("compare-baselines", "ga_lr = 0.05", "ga_lr = 0.05\nscrub_noise_sigma = inf",
         "baselines.scrub_noise_sigma must be a finite number >= 0, got inf\n"),
        *((command, "[baselines]", "[fisher]\ndampening = nan\n\n[baselines]",
           "fisher.dampening must be a finite number > 0, got nan\n")
          for command in ("sweep", "demo-boundary", "compare-baselines")),
    ],
    ids=["sweep", "demo-boundary", "compare-baselines", "sweep-grad_source",
         "demo-boundary-grad_source", "ssse_epsilon", "scrub_epsilon", "ga_lr",
         "scrub_noise_sigma", "sweep-dampening", "demo-boundary-dampening",
         "compare-baselines-dampening"],
)
def test_command_sections_are_checked_before_training(
    tmp_path, capsys, command, old, new, named
):
    # this training run would diverge with exit 3; the bad section must fail first
    text = BASE_CONFIG.replace("lr = 0.4", "lr = 1e150").replace(old, new)
    out = str(tmp_path / "o")
    assert main([command, "--config", write_config(tmp_path, text), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and named in err
    assert not os.path.exists(out)


def test_erase_checks_grad_source_before_reading_the_model_or_fisher(tmp_path, capsys):
    text = BASE_CONFIG.replace("criterion = min_delta", "grad_source = bogus")
    missing = str(tmp_path / "missing.bin")
    out = str(tmp_path / "o")
    code = main(["erase", "--config", write_config(tmp_path, text), "--out", out,
                 "--model", missing, "--fisher", missing])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: sweep.grad_source: bad value 'bogus' (expected one of removed, remaining)\n"
    assert not os.path.exists(out)


def test_demo_boundary_rejects_non_2d_data_without_writing(tmp_path, capsys):
    three_features = "source = gaussian_classes\nn_features = 3\nn_classes = 2"
    cfg = write_config(tmp_path, BASE_CONFIG.replace("source = blobs", three_features))
    out = str(tmp_path / "demo")
    assert main(["demo-boundary", "--config", cfg, "--out", out]) == 2
    assert "2-feature" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_unknown_command_raises_system_exit(tmp_path):
    with pytest.raises(SystemExit):
        main(["polish", "--config", "x", "--out", "y"])


def test_package_and_cli_import_without_scipy():
    code = "import sys, ssse, ssse.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_fresh(code).strip() == "[]"


def test_cli_import_and_an_erase_never_load_evaluation(tmp_path):
    cfg = write_config(tmp_path)
    t, f = str(tmp_path / "t"), str(tmp_path / "f")
    commands = [
        ["train", "--config", cfg, "--out", t],
        ["fisher", "--config", cfg, "--out", f, "--model", os.path.join(t, "model.bin")],
        ["erase", "--config", cfg, "--out", str(tmp_path / "e"),
         "--model", os.path.join(t, "model.bin"), "--fisher", os.path.join(f, "fisher.bin")],
        ["sweep", "--config", cfg, "--out", str(tmp_path / "s")],
    ]
    code = textwrap.dedent(f"""
        import sys
        from ssse.cli import main
        seen = ["ssse.evaluation" in sys.modules]
        for argv in {commands!r}:
            assert main(argv) == 0
            seen.append("ssse.evaluation" in sys.modules)
        print(seen)
    """)
    # after import, train, fisher and erase: not loaded; the sweep loads it
    assert run_fresh(code).strip() == "[False, False, False, False, True]"
