"""Command-line entry points.

Subcommands: synth | train | eval | infer | render | gradcheck. Exit codes:
0 success, 2 configuration error, 3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import (ConfigError, RunConfig, load_run_config, read_json,
                     run_config_from_dict, run_config_to_dict)
from .formats import (atomic_write_bytes, read_pgm, read_tensors, write_pgm,
                      write_ppm, write_tensors)
from .gradcheck import run_suite
from .metrics import evaluate_dataset
from .network import EMB_DIM, PARAM_ORDER, TRUNK_CHANNELS, _check_image, validate_params
from .optim import DivergenceError
from .pipeline import infer, infer_cc_baseline
from .render import render_overlay
from .synth import (GenerationError, InstanceSet, Scene, annotations_to_document,
                    generate_scene, scene_seeds)
from .training import train


def _write_json(path, doc):
    payload = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    atomic_write_bytes(path, payload)


def _mask_entries(instances: InstanceSet) -> dict:
    return {f"mask_{k:03d}": m.astype(np.float32)
            for k, m in enumerate(instances.masks)}


def _read_image(path) -> np.ndarray:
    try:
        return read_pgm(path)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_network_image(path) -> np.ndarray:
    """An image of a size the network takes, or a ConfigError naming its file."""
    image = _read_image(path)
    try:
        return _check_image(image)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_instances(path, height: int, width: int) -> InstanceSet:
    """The masks of a container, which must have its image's dimensions."""
    try:
        entries = read_tensors(path)
        return InstanceSet(height, width, [entries[name] >= 0.5 for name in sorted(entries)])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_config(args) -> RunConfig:
    """The run config with the command-line overrides set in its document.

    The flags then pass `run_config_from_dict` like any file value, so they
    meet the same checks and their errors name the same keys.
    """
    doc = run_config_to_dict(load_run_config(args.config) if args.config else RunConfig())
    for section, key in ((None, "seed"), ("optim", "epochs"), ("mean_shift", "bandwidth"),
                         ("resolve", "beta"), ("resolve", "threshold_a")):
        value = getattr(args, key, None)
        if value is not None:
            (doc[section] if section else doc)[key] = value
    return run_config_from_dict(doc)


def _load_checkpoint(path) -> dict:
    try:
        entries = read_tensors(path)
        params = {name: np.asarray(arr, dtype=np.float64) for name, arr in entries.items()}
        validate_params(params)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return params


def _load_dataset(dataset_dir) -> list:
    manifest_path = os.path.join(dataset_dir, "manifest.json")
    manifest = read_json(manifest_path)
    entries = manifest.get("scenes", []) if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise ConfigError(f"{manifest_path}: expected an object with a \"scenes\" list")
    scenes = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("image"), str)
                and isinstance(entry.get("masks"), str)):
            raise ConfigError(f"{manifest_path}: scene entry {i} needs string "
                              "\"image\" and \"masks\" paths")
        image = _read_network_image(os.path.join(dataset_dir, entry["image"]))
        masks_path = os.path.join(dataset_dir, entry["masks"])
        scenes.append(Scene(image, _read_instances(masks_path, *image.shape)))
    return scenes


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    seeds = scene_seeds(cfg.seed, args.count)
    entries = []
    for i in range(args.count):
        scene = generate_scene(cfg.scene, int(seeds[i]))
        image_name = f"scene_{i:04d}.pgm"
        ann_name = f"scene_{i:04d}.json"
        masks_name = f"scene_{i:04d}_masks.segt"
        write_pgm(os.path.join(args.out, image_name), scene.image)
        _write_json(os.path.join(args.out, ann_name),
                    annotations_to_document(cfg.scene.height, cfg.scene.width,
                                            scene.annotations))
        write_tensors(os.path.join(args.out, masks_name),
                      _mask_entries(scene.instances))
        entries.append({"image": image_name, "annotation": ann_name,
                        "masks": masks_name, "seed": int(seeds[i]),
                        "instances": len(scene.instances)})
    _write_json(os.path.join(args.out, "manifest.json"),
                {"count": args.count, "seed": cfg.seed, "scenes": entries})
    print(f"wrote {args.count} scene(s) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    scenes = _load_dataset(args.dataset)
    if len(scenes) < 2:
        raise ConfigError(f"dataset {args.dataset!r} has {len(scenes)} scene(s); "
                          "need at least 2 for an 80/20 split")
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(scenes))
    n_val = max(1, round(0.2 * len(scenes)))
    val = [scenes[i] for i in perm[:n_val]]
    tr = [scenes[i] for i in perm[n_val:]]

    def progress(epoch, train_loss, val_loss):
        print(f"epoch {epoch:3d}  train {train_loss:.5f}  val {val_loss:.5f}")

    result = train(tr, val, cfg.loss, cfg.optim, cfg.augment, cfg.seed,
                   progress=progress)
    os.makedirs(args.out, exist_ok=True)
    write_tensors(os.path.join(args.out, "checkpoint.segt"),
                  {name: result.params[name].astype(np.float32)
                   for name in PARAM_ORDER})
    _write_json(os.path.join(args.out, "checkpoint.json"), {
        "architecture": {"channels": TRUNK_CHANNELS, "emb_dim": EMB_DIM,
                         "downsample": 2},
        "best_epoch": result.best_epoch,
        "epochs_run": cfg.optim.epochs,
        "config": run_config_to_dict(cfg),
    })
    lines = ["epoch,train_loss,val_loss"]
    lines += [f"{row['epoch']},{row['train_loss']!r},{row['val_loss']!r}"
              for row in result.log]
    atomic_write_bytes(os.path.join(args.out, "loss_log.csv"),
                       ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"best epoch {result.best_epoch}; checkpoint written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    pipe = _load_config(args).pipeline
    params = _load_checkpoint(args.checkpoint)
    scenes = _load_dataset(args.dataset)
    if not scenes:
        raise ConfigError(f"dataset {args.dataset!r} is empty")
    pred_sets, gt_sets, pred_fgs, gt_fgs, rows = [], [], [], [], []
    for i, scene in enumerate(scenes):
        if args.method == "cc":
            instances, fg = infer_cc_baseline(params, scene.image, pipe.seg_threshold)
            clusters = len(instances)
        else:
            instances, fg, diag = infer(params, scene.image, pipe)
            clusters = diag.clusters
        pred_sets.append(instances)
        gt_sets.append(scene.instances)
        pred_fgs.append(fg)
        gt_fgs.append(scene.instances.union())
        rows.append({"index": i, "clusters": clusters,
                     "pred_instances": len(instances),
                     "gt_instances": len(scene.instances)})
    report = evaluate_dataset(pred_sets, gt_sets, pred_fgs, gt_fgs)
    os.makedirs(args.out, exist_ok=True)
    doc = {"method": args.method, "images": len(scenes)}
    doc.update(report.to_dict())
    _write_json(os.path.join(args.out, "report.json"), doc)
    _write_json(os.path.join(args.out, "per_image.json"), rows)
    print(f"method={args.method}  iou={report.iou:.4f}  dice={report.dice:.4f}  "
          f"ap={report.ap:.4f}  ar={report.ar:.4f}")
    return 0


def cmd_infer(args) -> int:
    pipe = _load_config(args).pipeline
    params = _load_checkpoint(args.checkpoint)
    image = _read_network_image(args.image)
    instances, fg, diag = infer(params, image, pipe)
    os.makedirs(args.out, exist_ok=True)
    write_tensors(os.path.join(args.out, "instances.segt"), _mask_entries(instances))
    write_tensors(os.path.join(args.out, "min_similarity.segt"),
                  {"min_similarity": diag.min_similarity.astype(np.float32)})
    _write_json(os.path.join(args.out, "diagnostics.json"), diag.to_dict())
    write_ppm(os.path.join(args.out, "overlay.ppm"), render_overlay(image, instances))
    if diag.mean_shift.hit_max_iterations:
        print(f"warning: mean shift stopped at max_iterations "
              f"({pipe.mean_shift.max_iterations}) with starts still moving; "
              f"clusters may be unreliable", file=sys.stderr)
    singletons = int((instances.masks.sum(axis=(1, 2)) == 1).sum())
    if len(instances) >= 2 and 2 * singletons >= len(instances):
        print(f"warning: {singletons} of the {len(instances)} clusters are single pixels; "
              f"the checkpoint's embeddings may be degenerate", file=sys.stderr)
    print(f"{len(instances)} instance(s), {diag.multi_assigned_pixels} "
          f"multi-assigned pixel(s); outputs in {args.out}")
    return 0


def cmd_render(args) -> int:
    image = _read_image(args.image)
    instances = _read_instances(args.masks, *image.shape)
    write_ppm(args.out, render_overlay(image, instances))
    print(f"overlay written to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    def progress(k, worst_disc, worst_total):
        print(f"fixture {k:2d}  disc {worst_disc:.3e}  total {worst_total:.3e}")

    report = run_suite(seed=args.seed, fixtures=args.fixtures, progress=progress)
    print(f"max relative error: discriminative {report['max_rel_err_disc']:.3e}, "
          f"total {report['max_rel_err_total']:.3e} (tol {report['tol']:.0e})")
    if not report["passed"]:
        print("gradient check FAILED", file=sys.stderr)
        return 4
    print("gradient check passed")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strandseg",
        description="Instance segmentation of thin crossing strands via pixel embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run config path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")

    def pipeline_overrides(p):
        p.add_argument("--threshold-a", type=float, dest="threshold_a")
        p.add_argument("--beta", type=float)
        p.add_argument("--bandwidth", type=float)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--count", type=int, required=True, help="number of scenes")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the embedding network")
    common(p)
    p.add_argument("--dataset", required=True, help="dataset directory (from synth)")
    p.add_argument("--epochs", type=int, help="override epoch count")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--method", choices=("embedding", "cc"), default="embedding")
    pipeline_overrides(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="run the pipeline on one image")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="input PGM image")
    pipeline_overrides(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("render", help="render an instance overlay PPM")
    p.add_argument("--image", required=True, help="input PGM image")
    p.add_argument("--masks", required=True, help="instance mask container")
    p.add_argument("--out", required=True, help="output PPM path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixtures", type=int, default=10)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GenerationError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
