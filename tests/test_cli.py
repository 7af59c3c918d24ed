import json
import os

import numpy as np
import pytest

from strandseg.cli import main
from strandseg.formats import (encode_ppm, read_pgm, read_tensors, write_pgm, write_ppm,
                               write_tensors)
from strandseg.network import PARAM_ORDER, init_params
from strandseg.render import render_overlay
from strandseg.synth import InstanceSet, SceneSpec, generate_scene

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESK_CONFIG = os.path.join(ROOT, "configs", "desk64.json")
DESK_CHECKPOINT = os.path.join(ROOT, "perfbench", "data", "desk64.segt")

CONFIG = {
    "seed": 3,
    "scene": {"height": 32, "width": 32},
    "optim": {"epochs": 2, "batch_size": 2, "learning_rate": 0.001},
}


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def _synth(cfg_path, out, count=6):
    assert main(["synth", "--config", cfg_path, "--count", str(count),
                 "--out", out]) == 0


def _tree_bytes(root):
    digest = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, root)] = fh.read()
    return digest


def test_synth_outputs_and_reproducibility(tmp_path, cfg_path):
    out1 = str(tmp_path / "d1")
    out2 = str(tmp_path / "d2")
    _synth(cfg_path, out1)
    _synth(cfg_path, out2)
    manifest = json.loads((tmp_path / "d1" / "manifest.json").read_text())
    assert manifest["count"] == 6
    assert len(manifest["scenes"]) == 6
    for entry in manifest["scenes"]:
        img = read_pgm(os.path.join(out1, entry["image"]))
        assert img.shape == (32, 32)
        masks = read_tensors(os.path.join(out1, entry["masks"]))
        assert len(masks) == entry["instances"]
        assert os.path.exists(os.path.join(out1, entry["annotation"]))
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_seed_override_changes_data(tmp_path, cfg_path):
    out1 = str(tmp_path / "d1")
    out2 = str(tmp_path / "d2")
    _synth(cfg_path, out1, count=2)
    assert main(["synth", "--config", cfg_path, "--seed", "99",
                 "--count", "2", "--out", out2]) == 0
    a = json.loads((tmp_path / "d1" / "manifest.json").read_text())
    b = json.loads((tmp_path / "d2" / "manifest.json").read_text())
    assert a["seed"] == 3 and b["seed"] == 99
    assert a["scenes"][0]["seed"] != b["scenes"][0]["seed"]


def test_eval_reruns_are_byte_identical_on_real_masks(tmp_path):
    # A trained checkpoint, so that both methods score real, non-empty masks.
    data = str(tmp_path / "data")
    _synth(DESK_CONFIG, data)
    outputs = {}
    for method in ("cc", "embedding"):
        runs = []
        for rerun in range(2):
            out = str(tmp_path / f"{method}{rerun}")
            assert main(["eval", "--config", DESK_CONFIG, "--dataset", data,
                         "--checkpoint", DESK_CHECKPOINT, "--method", method,
                         "--out", out]) == 0
            runs.append(_tree_bytes(out))
        assert runs[0] == runs[1]
        assert set(runs[0]) == {"report.json", "per_image.json"}
        outputs[method] = runs[0]
    cc_rows = json.loads(outputs["cc"]["per_image.json"])
    assert len(cc_rows) == 6
    assert all(row["pred_instances"] >= 1 for row in cc_rows)
    assert json.loads(outputs["embedding"]["report.json"])["ap"] > 0


def test_infer_reruns_are_byte_identical_on_real_masks(tmp_path):
    # A trained checkpoint on a scene where it separates the strands, so the
    # reruns compare real masks and crossing scores, not an empty result.
    image = tmp_path / "scene.pgm"
    write_pgm(image, generate_scene(SceneSpec(), 1).image)
    runs = []
    for rerun in range(2):
        out = str(tmp_path / f"out{rerun}")
        assert main(["infer", "--config", DESK_CONFIG, "--checkpoint", DESK_CHECKPOINT,
                     "--image", str(image), "--out", out]) == 0
        runs.append(_tree_bytes(out))
    assert set(runs[0]) == {"instances.segt", "min_similarity.segt", "overlay.ppm",
                            "diagnostics.json"}
    diags = [json.loads(run.pop("diagnostics.json")) for run in runs]
    assert runs[0] == runs[1]
    # timings_ms is the one wall-clock field
    for diag in diags:
        assert diag.pop("timings_ms")
    assert diags[0] == diags[1]
    assert diags[0]["clusters"] >= 2 and diags[0]["multi_assigned_pixels"] > 0
    assert len(read_tensors(str(tmp_path / "out0" / "instances.segt"))) >= 2


def test_masks_of_another_size_than_their_image_exit_2(tmp_path, cfg_path, capsys):
    data = tmp_path / "data"
    _synth(cfg_path, str(data), count=2)  # 32 x 32 scenes
    write_pgm(data / "scene_0001.pgm", generate_scene(SceneSpec(), 1).image)  # 64 x 64
    capsys.readouterr()
    assert main(["eval", "--dataset", str(data), "--checkpoint", DESK_CHECKPOINT,
                 "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "scene_0001_masks.segt" in err


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_images_the_network_cannot_take_exit_2_naming_the_file(tmp_path, cfg_path, command,
                                                               capsys):
    scene = generate_scene(SceneSpec(height=34, width=34), 1)
    odd_image, odd_masks = scene.image[:33, :33], scene.instances.masks[:, :33, :33]
    if command == "infer":
        path = str(tmp_path / "odd.pgm")
        argv = ["infer", "--image", path]
    else:  # a dataset whose second scene is 33 x 33, masks included
        data = tmp_path / "data"
        _synth(cfg_path, str(data), count=2)
        path = os.path.join(str(data), "scene_0001.pgm")
        argv = ["eval", "--dataset", str(data)]
        write_tensors(data / "scene_0001_masks.segt",
                      {f"mask_{k:03d}": m.astype(np.float32)
                       for k, m in enumerate(odd_masks)})
    write_pgm(path, odd_image)
    capsys.readouterr()
    assert main(argv + ["--checkpoint", DESK_CHECKPOINT, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: image dims must be even"), err


def test_synth_rejects_odd_scene_sides_naming_the_key(tmp_path, capsys):
    # the network takes only even sides, so synth must not write such a dataset
    path = tmp_path / "odd.json"
    path.write_text('{"scene": {"height": 33, "width": 33}}')
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(path), "--count", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {path}: scene.height must be even and >= 8\n"
    assert not out.exists()


def test_train_eval_infer_render_flow(tmp_path, cfg_path):
    data = str(tmp_path / "data")
    _synth(cfg_path, data)

    run1 = str(tmp_path / "run1")
    run2 = str(tmp_path / "run2")
    assert main(["train", "--config", cfg_path, "--dataset", data,
                 "--out", run1]) == 0
    assert main(["train", "--config", cfg_path, "--dataset", data,
                 "--out", run2]) == 0
    assert _tree_bytes(run1) == _tree_bytes(run2)

    ckpt = os.path.join(run1, "checkpoint.segt")
    entries = read_tensors(ckpt)
    assert set(entries) == set(PARAM_ORDER)
    sidecar = json.loads((tmp_path / "run1" / "checkpoint.json").read_text())
    assert sidecar["architecture"]["channels"] == entries["conv1_w"].shape[-1]
    assert sidecar["architecture"]["emb_dim"] == entries["emb_w"].shape[-1]
    assert sidecar["epochs_run"] == 2
    assert 1 <= sidecar["best_epoch"] <= 2
    csv_lines = (tmp_path / "run1" / "loss_log.csv").read_text().splitlines()
    assert csv_lines[0] == "epoch,train_loss,val_loss"
    assert len(csv_lines) == 3

    ev1 = str(tmp_path / "ev1")
    ev2 = str(tmp_path / "ev2")
    assert main(["eval", "--config", cfg_path, "--dataset", data,
                 "--checkpoint", ckpt, "--out", ev1]) == 0
    assert main(["eval", "--config", cfg_path, "--dataset", data,
                 "--checkpoint", ckpt, "--out", ev2]) == 0
    assert _tree_bytes(ev1) == _tree_bytes(ev2)
    report = json.loads((tmp_path / "ev1" / "report.json").read_text())
    assert report["method"] == "embedding"
    assert report["images"] == 6
    for key in ("iou", "dice", "ap", "ar", "per_threshold", "macro_ap"):
        assert key in report
    rows = json.loads((tmp_path / "ev1" / "per_image.json").read_text())
    assert [r["index"] for r in rows] == list(range(6))

    evcc = str(tmp_path / "evcc")
    assert main(["eval", "--config", cfg_path, "--dataset", data,
                 "--checkpoint", ckpt, "--method", "cc", "--out", evcc]) == 0
    cc_report = json.loads((tmp_path / "evcc" / "report.json").read_text())
    assert cc_report["method"] == "cc"
    # the two methods threshold the same probability map
    assert cc_report["iou"] == report["iou"]
    assert cc_report["dice"] == report["dice"]

    inf = str(tmp_path / "inf")
    image_path = os.path.join(data, "scene_0000.pgm")
    assert main(["infer", "--config", cfg_path, "--checkpoint", ckpt,
                 "--image", image_path, "--out", inf]) == 0
    for name in ("instances.segt", "min_similarity.segt", "diagnostics.json",
                 "overlay.ppm"):
        assert os.path.exists(os.path.join(inf, name))
    diag = json.loads((tmp_path / "inf" / "diagnostics.json").read_text())
    assert diag["fg_pixels"] >= 0
    assert "timings_ms" in diag
    sim = read_tensors(os.path.join(inf, "min_similarity.segt"))["min_similarity"]
    assert sim.shape == (32, 32)
    image = read_pgm(image_path)

    def overlay_bytes(masks_path):
        entries = read_tensors(masks_path)
        masks = InstanceSet(32, 32, [entries[name] >= 0.5 for name in sorted(entries)])
        return encode_ppm(render_overlay(image, masks))

    with open(os.path.join(inf, "overlay.ppm"), "rb") as fh:
        assert fh.read() == overlay_bytes(os.path.join(inf, "instances.segt"))

    rendered = str(tmp_path / "gt_overlay.ppm")
    gt_masks = os.path.join(data, "scene_0000_masks.segt")
    assert main(["render", "--image", image_path, "--masks", gt_masks, "--out", rendered]) == 0
    with open(rendered, "rb") as fh:
        assert fh.read() == overlay_bytes(gt_masks)


def test_train_epochs_override(tmp_path, cfg_path):
    data = str(tmp_path / "data")
    _synth(cfg_path, data, count=4)
    run = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--dataset", data,
                 "--seed", "5", "--epochs", "1", "--out", run]) == 0
    sidecar = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
    assert sidecar["epochs_run"] == 1
    assert sidecar["config"]["seed"] == 5
    assert sidecar["config"]["optim"]["epochs"] == 1
    assert sidecar["config"]["optim"]["learning_rate"] == CONFIG["optim"]["learning_rate"]


def test_gradcheck_subcommand(capsys):
    assert main(["gradcheck", "--fixtures", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "gradient check passed" in out


@pytest.mark.parametrize("fixtures", ["0", "-3"])
def test_gradcheck_without_fixtures_exits_2(fixtures, capsys):
    # zero fixtures would check nothing and report a pass
    assert main(["gradcheck", "--fixtures", fixtures]) == 2
    assert "gradient check passed" not in capsys.readouterr().out


@pytest.mark.parametrize("target", ["config", "manifest"])
def test_deeply_nested_json_exits_2(tmp_path, cfg_path, target, capsys):
    # json.load raises RecursionError, not JSONDecodeError, on such a document
    deep = "[" * 100000
    if target == "config":
        path = tmp_path / "deep.json"
        path.write_text(deep)
        args = ["synth", "--config", str(path), "--count", "1", "--out", str(tmp_path / "o")]
    else:
        data = tmp_path / "data"
        _synth(cfg_path, str(data), count=2)
        path = data / "manifest.json"
        path.write_text(deep)
        args = ["train", "--config", cfg_path, "--dataset", str(data),
                "--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert main(args) == 2
    assert f"{path}: invalid JSON" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["synth", "--config", str(bad), "--count", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    bad.write_text(json.dumps({"optim": {"epochs": -1}}))
    assert main(["synth", "--config", str(bad), "--count", "1",
                 "--out", str(tmp_path / "o")]) == 2


def test_missing_paths_exit_3(tmp_path, cfg_path):
    assert main(["train", "--config", cfg_path,
                 "--dataset", str(tmp_path / "absent"),
                 "--out", str(tmp_path / "run")]) == 3
    assert main(["infer", "--config", cfg_path,
                 "--checkpoint", str(tmp_path / "absent.segt"),
                 "--image", str(tmp_path / "absent.pgm"),
                 "--out", str(tmp_path / "out")]) == 3


def test_tiny_dataset_rejected(tmp_path, cfg_path):
    data = str(tmp_path / "data")
    _synth(cfg_path, data, count=1)
    assert main(["train", "--config", cfg_path, "--dataset", data,
                 "--out", str(tmp_path / "run")]) == 2


def test_malformed_manifest_exits_2(tmp_path, cfg_path, capsys):
    data = tmp_path / "data"
    _synth(cfg_path, str(data), count=3)
    manifest_path = data / "manifest.json"
    no_image = json.loads(manifest_path.read_text())
    del no_image["scenes"][1]["image"]
    int_image = json.loads(manifest_path.read_text())
    int_image["scenes"][1]["image"] = 3
    for manifest, where in ((no_image, "entry 1"), ([1, 2], "manifest.json"),
                            (int_image, "entry 1")):
        manifest_path.write_text(json.dumps(manifest))
        assert main(["train", "--config", cfg_path, "--dataset", str(data),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert str(manifest_path) in err and where in err


def test_corrupt_checkpoint_exits_2(tmp_path, cfg_path):
    data = str(tmp_path / "data")
    _synth(cfg_path, data, count=2)
    ckpt = tmp_path / "ckpt.segt"
    ckpt.write_bytes(b"SEGT\x01\x00\x00\x00\x00 garbage")
    assert main(["eval", "--config", cfg_path, "--dataset", data,
                 "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "ev")]) == 2
    # right container, wrong tensor inventory
    write_tensors(ckpt, {"welp": np.zeros((2, 2), np.float32)})
    assert main(["eval", "--config", cfg_path, "--dataset", data,
                 "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "ev")]) == 2


def test_cluster_overrides_apply(tmp_path, cfg_path):
    data = str(tmp_path / "data")
    _synth(cfg_path, data, count=2)
    run = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--dataset", data,
                 "--epochs", "1", "--out", run]) == 0
    ckpt = os.path.join(run, "checkpoint.segt")
    # absurd bandwidth collapses everything to one cluster per image
    ev = str(tmp_path / "ev")
    assert main(["eval", "--config", cfg_path, "--dataset", data,
                 "--checkpoint", ckpt, "--bandwidth", "1000.0",
                 "--out", ev]) == 0
    rows = json.loads((tmp_path / "ev" / "per_image.json").read_text())
    assert all(r["clusters"] <= 1 for r in rows)
    # invalid override value surfaces as a config error
    assert main(["eval", "--config", cfg_path, "--dataset", data,
                 "--checkpoint", ckpt, "--threshold-a", "0.4",
                 "--out", ev]) == 2


@pytest.fixture()
def infer_args(tmp_path):
    """An `infer` command line over freshly initialized weights and one 32 px scene."""
    ckpt = tmp_path / "ckpt.segt"
    write_tensors(ckpt, {name: arr.astype(np.float32) for name, arr in init_params(0).items()})
    image = tmp_path / "scene.pgm"
    write_pgm(image, generate_scene(SceneSpec(height=32, width=32), 3).image)
    return ["infer", "--checkpoint", str(ckpt), "--image", str(image),
            "--out", str(tmp_path / "out")]


def test_truncated_files_exit_2_naming_the_file(tmp_path, infer_args, capsys):
    ckpt, image = infer_args[2], infer_args[4]
    masks = str(tmp_path / "masks.segt")
    write_tensors(masks, {"mask_000": np.ones((32, 32), np.float32)})
    render_args = ["render", "--image", image, "--masks", masks,
                   "--out", str(tmp_path / "overlay.ppm")]
    for path, keep, argv in ((ckpt, 4, infer_args), (image, 100, infer_args),
                             (masks, 12, render_args)):
        with open(path, "rb") as fh:
            whole = fh.read()
        with open(path, "wb") as fh:
            fh.write(whole[:keep])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: truncated"), err
        assert "unpack_from" not in err and "Traceback" not in err
        with open(path, "wb") as fh:
            fh.write(whole)


def test_infer_on_a_ppm_exits_2_naming_the_file(tmp_path, infer_args, capsys):
    path = str(tmp_path / "x.ppm")
    write_ppm(path, np.zeros((32, 32, 3), dtype=np.uint8))
    infer_args[4] = path
    assert main(infer_args) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: not a P5 file")


def test_infer_warns_when_mean_shift_hits_iteration_cap(tmp_path, infer_args, capsys):
    assert main(infer_args) == 0
    assert "warning" not in capsys.readouterr().err
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["mean_shift"]["hit_max_iterations"] is False
    path = tmp_path / "capped.json"
    path.write_text('{"mean_shift": {"max_iterations": 1}}')
    assert main(infer_args + ["--config", str(path)]) == 0
    assert "warning: mean shift stopped at max_iterations (1)" in capsys.readouterr().err
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["mean_shift"]["hit_max_iterations"] is True
    assert diag["mean_shift"]["iterations"][0] == 1


def test_infer_warns_when_every_pixel_is_its_own_cluster(tmp_path, capsys):
    # embeddings scaled far beyond the bandwidth leave every pixel alone
    params = read_tensors(DESK_CHECKPOINT)
    image = tmp_path / "scene.pgm"
    write_pgm(image, generate_scene(SceneSpec(), 5).image)
    args = ["--image", str(image), "--out", str(tmp_path / "out")]
    assert main(["infer", "--checkpoint", DESK_CHECKPOINT] + args) == 0
    assert "warning" not in capsys.readouterr().err
    params["emb_w"] = params["emb_w"] * np.float32(1e30)
    scaled = tmp_path / "scaled.segt"
    write_tensors(scaled, params)
    assert main(["infer", "--checkpoint", str(scaled)] + args) == 0
    assert "clusters are single pixels" in capsys.readouterr().err
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["clusters"] == diag["fg_pixels"] >= 2


def test_infer_warns_when_most_clusters_are_single_pixels(tmp_path, capsys):
    # saturated weights: a few pixels still share a cluster, the rest are alone
    params = read_tensors(DESK_CHECKPOINT)
    saturated = tmp_path / "saturated.segt"
    write_tensors(saturated, {name: np.sign(arr) * np.float32(3.4e38)
                              for name, arr in params.items()})
    image = tmp_path / "scene.pgm"
    write_pgm(image, generate_scene(SceneSpec(), 1).image)
    assert main(["infer", "--checkpoint", str(saturated), "--image", str(image),
                 "--out", str(tmp_path / "out")]) == 0
    assert "clusters are single pixels" in capsys.readouterr().err
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert 2 <= diag["clusters"] < diag["fg_pixels"]


@pytest.mark.parametrize("flag,value", [("--bandwidth", "nan"), ("--bandwidth", "inf"),
                                        ("--beta", "nan")])
def test_non_finite_override_exits_2(infer_args, flag, value, capsys):
    assert main(infer_args) == 0
    capsys.readouterr()
    assert main(infer_args + [flag, value]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,names", [
    ("--seed", "-1", ["seed"]),
    ("--epochs", "-1", ["optim.epochs"]),
    ("--bandwidth", "0", ["mean_shift.bandwidth"]),
    ("--beta", "inf", ["resolve.beta"]),
    ("--threshold-a", "0.4", ["resolve.threshold_a"]),
])
def test_invalid_override_exits_2(tmp_path, cfg_path, infer_args, flag, value, names, capsys):
    # flags are checked by the same validator as config values, and name the same key
    if flag in ("--seed", "--epochs"):
        data = str(tmp_path / "data")
        _synth(cfg_path, data, count=2)
        args = ["train", "--config", cfg_path, "--dataset", data, "--out", str(tmp_path / "run")]
    else:
        args = infer_args
    capsys.readouterr()
    assert main(args + [flag, value]) == 2
    err = capsys.readouterr().err
    # the message leads with the one key that was rejected
    assert err.startswith(f"config error: {names[0]} ")


@pytest.mark.parametrize("text,key", [
    ('{"mean_shift": {"bandwidth": NaN}}', "mean_shift.bandwidth"),
    ('{"resolve": {"beta": Infinity}}', "resolve.beta"),
    ('{"augment": {"rotation_degrees": Infinity}}', "augment.rotation_degrees"),
    ('{"optim": {"learning_rate": -Infinity}}', "optim.learning_rate"),
    # integers beyond float range: float() raises OverflowError on them
    ('{"mean_shift": {"bandwidth": 1%s}}' % ("0" * 400), "mean_shift.bandwidth"),
    ('{"mean_shift": {"seed_cap": 1%s}}' % ("0" * 400), "mean_shift.seed_cap"),
], ids=["bandwidth-NaN", "beta-Infinity", "rotation_degrees-Infinity", "learning_rate--Infinity",
        "bandwidth-401-digits", "seed_cap-401-digits"])
def test_non_finite_config_value_exits_2(tmp_path, infer_args, text, key, capsys):
    # json.load accepts these literals; the config loader must not
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    assert main(infer_args + ["--config", str(path)]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command,text,key", [
    ("infer", '{"mean_shift": {"seed_cap": 1.5}}', "mean_shift.seed_cap"),
    ("infer", '{"mean_shift": {"max_iterations": 2.5}}', "mean_shift.max_iterations"),
    ("train", '{"optim": {"epochs": 1.5}}', "optim.epochs"),
    ("synth", '{"scene": {"height": 64.5}}', "scene.height"),
], ids=["seed_cap-1.5", "max_iterations-2.5", "epochs-1.5", "height-64.5"])
def test_non_integer_config_value_exits_2(tmp_path, cfg_path, infer_args, command, text, key,
                                          capsys):
    if command == "infer":
        args = infer_args
    elif command == "train":
        data = str(tmp_path / "data")
        _synth(cfg_path, data, count=2)
        args = ["train", "--dataset", data, "--out", str(tmp_path / "run")]
    else:
        args = ["synth", "--count", "1", "--out", str(tmp_path / "synth")]
    path = tmp_path / "fractional.json"
    path.write_text(text)
    capsys.readouterr()
    assert main(args + ["--config", str(path)]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
