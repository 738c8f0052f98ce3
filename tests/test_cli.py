"""Exit codes, file outputs, and determinism of the command pipelines."""

import hashlib
import json
import logging
import os
import struct
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import ssse
from ssse import BlockSpec, load_model, params_digest
from ssse.cli import main

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


def test_sweep_outputs_are_byte_identical_across_reruns(tmp_path):
    cfg = write_config(tmp_path)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["sweep", "--config", cfg, "--out", a]) == 0
    assert main(["sweep", "--config", cfg, "--out", b]) == 0
    for name in ("model.bin", "retrain.bin", "fisher.bin", "sweep_report.txt", "sweep_report.csv"):
        assert read_bytes(os.path.join(a, name)) == read_bytes(os.path.join(b, name)), name


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
        "numeric failure: inverse Fisher factor of block 1 (parameters 2:4): "
        "I - Z Z^T has non-finite entries\n")
    assert not os.path.exists(e)


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
    ],
    ids=["sweep", "demo-boundary", "compare-baselines", "sweep-grad_source",
         "demo-boundary-grad_source"],
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
    src = os.path.dirname(os.path.dirname(ssse.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ssse, ssse.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
