"""Command-line entry point: synth / train / eval / audit / ablate.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Every command
writes a manifest.json next to its outputs with the effective config, the
artifact paths, the tool version, and the wall-clock duration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import data as dat
from . import harness as hz
from . import model as mdl


def _atomic_write_json(path, doc):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _write_manifest(out_dir, config: hz.TrainConfig | None, artifacts: dict,
                    started: float, extra: dict | None = None):
    doc = {
        "tool_version": __version__,
        "config": config.to_dict() if config else None,
        "artifacts": artifacts,
        "duration_seconds": round(time.time() - started, 3),
    }
    if extra:
        doc.update(extra)
    _atomic_write_json(os.path.join(out_dir, "manifest.json"), doc)


def _load_config(args) -> hz.TrainConfig:
    """Config file values first, then CLI flag overrides."""
    base = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            base = json.load(f)
        if not isinstance(base, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    for key in ("t", "mode", "lr", "total_iters", "d_embed", "seed_init", "seed_sample"):
        val = getattr(args, key, None)
        if val is not None:
            base[key] = val
    return hz.TrainConfig.from_dict(base)


def cmd_synth(args) -> int:
    started = time.time()
    if not dat.scene_size_ok(args.size):
        raise ValueError(f"--size {args.size} is unusable: synth needs a multiple of "
                         f"{mdl.BACKBONE_STRIDE} that is at least {dat.MIN_SCENE_SIZE}")
    records = dat.generate_benchmark(args.images, args.size, args.drop_rate,
                                     seed=args.seed)
    dat.save_dataset(args.out, records)
    _write_manifest(args.out, None, {
        "images_dir": "images",
        "train_annotations": "train.json",
        "dropped_sidecar": "dropped.json",
    }, started, extra={"synth": {"images": args.images, "size": args.size,
                                 "drop_rate": args.drop_rate, "seed": args.seed}})
    print(f"wrote {len(records)} images to {args.out}")
    return 0


def cmd_train(args) -> int:
    started = time.time()
    config = _load_config(args)
    records = dat.load_dataset(args.data)
    params, log = hz.train(config, records)
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "checkpoint.srpn")
    mdl.save_checkpoint(ckpt, params, meta={"config": config.to_dict()})
    hz.write_metric_log(os.path.join(args.out, "train_log.jsonl"), log)
    _write_manifest(args.out, config, {
        "checkpoint": "checkpoint.srpn",
        "metric_log": "train_log.jsonl",
        "dataset": os.path.abspath(args.data),
    }, started)
    print(f"trained {config.total_iters} iterations (mode={config.mode}, "
          f"t={config.t}); checkpoint at {ckpt}")
    return 0


def _load_checkpoint_config(path) -> tuple[dict, hz.TrainConfig]:
    params, meta = mdl.load_checkpoint(path)
    try:
        config = hz.TrainConfig.from_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise mdl.CheckpointError(f"{path}: no valid meta.config ({e!r})") from e
    expected = mdl.init_params(config.d_embed, mdl.N_ANCHORS, np.random.default_rng(0))
    for name, tensor in expected.items():
        if name not in params:
            raise mdl.CheckpointError(f"checkpoint is missing tensor {name}")
        if params[name].shape != tensor.shape:
            raise mdl.CheckpointError(
                f"checkpoint tensor {name} has shape {params[name].shape}, "
                f"config implies {tensor.shape}")
    return params, config


def _load_for_report(args) -> tuple[dict, hz.TrainConfig, list[dat.ImageRecord]]:
    """Checkpoint, config and dataset, once --report's directory is known."""
    report_dir = os.path.dirname(os.path.abspath(args.report))
    if not os.path.isdir(report_dir):
        raise ValueError(f"--report {args.report}: directory {report_dir} does not exist")
    params, config = _load_checkpoint_config(args.checkpoint)
    return params, config, dat.load_dataset(args.data)


def cmd_eval(args) -> int:
    started = time.time()
    params, config, records = _load_for_report(args)
    report = hz.evaluate(params, records, config)
    _atomic_write_json(args.report, report.to_dict())
    _write_manifest(os.path.dirname(os.path.abspath(args.report)), config,
                    {"report": os.path.abspath(args.report),
                     "checkpoint": os.path.abspath(args.checkpoint)}, started)
    print(json.dumps(report.to_dict(), indent=1))
    return 0


def cmd_audit(args) -> int:
    started = time.time()
    params, config, records = _load_for_report(args)
    flags = hz.audit_flags(params, records, config, t=args.t)
    doc = {
        "t": args.t if args.t is not None else config.t,
        "flags": [{"image_id": records[f.image_index].image_id,
                   "box": f.box.tolist(),
                   "attention_score": f.score} for f in flags],
    }
    if any(len(rec.dropped) for rec in records):
        fn = hz.score_fn_detection(flags, records)
        doc["fn_precision"], doc["fn_recall"] = fn.precision, fn.recall
    _atomic_write_json(args.report, doc)
    _write_manifest(os.path.dirname(os.path.abspath(args.report)), config,
                    {"report": os.path.abspath(args.report),
                     "checkpoint": os.path.abspath(args.checkpoint)}, started)
    print(f"{len(flags)} regions flagged; report at {args.report}")
    return 0


def cmd_ablate(args) -> int:
    started = time.time()
    config = _load_config(args)
    thresholds = [float(v) for v in args.thresholds.split(",") if v]
    for t in thresholds:
        mdl.check_threshold(t)
    records = dat.load_dataset(args.data)
    rows = hz.ablate_threshold(config, records, thresholds)
    os.makedirs(args.out, exist_ok=True)
    _atomic_write_json(os.path.join(args.out, "ablation.json"), rows)
    table = hz.format_ablation_table(rows)
    with open(os.path.join(args.out, "ablation.txt"), "w") as f:
        f.write(table + "\n")
    _write_manifest(args.out, config, {"table_json": "ablation.json",
                                       "table_text": "ablation.txt",
                                       "dataset": os.path.abspath(args.data)},
                    started, extra={"thresholds": thresholds})
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softrpn",
        description="Region-proposal training with attention-based "
                    "false-negative detection under missing annotations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--images", type=int, default=200)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--drop-rate", dest="drop_rate", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--mode", choices=["baseline", "soft_label"])
    p.add_argument("--t", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--total-iters", dest="total_iters", type=int)
    p.add_argument("--d-embed", dest="d_embed", type=int)
    p.add_argument("--seed-init", dest="seed_init", type=int)
    p.add_argument("--seed-sample", dest="seed_sample", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint against full ground truth")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("audit", help="rank suspected missing annotations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--t", type=float)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("ablate", help="train+evaluate across attention thresholds")
    p.add_argument("--data", required=True)
    p.add_argument("--thresholds", required=True, help="comma list, e.g. 0.6,0.8,0.9")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config file; flags override it")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, mdl.CheckpointError, dat.CocoFormatError,
            hz.DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
