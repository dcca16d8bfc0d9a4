"""Command-line entry point: synth / train / eval / audit / compare.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Every command
writes a manifest with the effective config, the artifact paths, the tool
version, and the wall-clock duration: synth, train and compare a
manifest.json in their output directory, eval and audit a
<report>.manifest.json beside their report, so reports that share a
directory keep one manifest each. Outputs other than synth's dataset are
replaced atomically through model.write_file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from . import data as dat
from . import harness as hz
from . import model as mdl


def _atomic_write_json(path, doc):
    mdl.write_file(path, [json.dumps(doc, indent=1, sort_keys=True).encode()])


# One flag of an audit report as json.dumps(..., indent=1) lays it out.
_FLAG_JSON = ('  {\n   "attention_score": %r,\n   "box": [\n    %r,\n    %r,\n    %r,\n'
              '    %r\n   ],\n   "image_id": %r\n  }')


def _audit_json(doc) -> str:
    """json.dumps(doc, indent=1, sort_keys=True) of an audit report, without
    indent's pure-Python encoder for the flags (~5x slower on hundreds): their
    floats are finite and image ids ints, so %r in a template writes them."""
    flags = ",\n".join([_FLAG_JSON % (f["attention_score"], *f["box"], f["image_id"])
                        for f in doc["flags"]])
    text = json.dumps({**doc, "flags": []}, indent=1, sort_keys=True)
    return text.replace('"flags": []', f'"flags": [\n{flags}\n ]') if flags else text


def _write_manifest(path, config: hz.TrainConfig | None, artifacts: dict,
                    started: float, extra: dict | None = None):
    doc = {
        "tool_version": __version__,
        "config": config.to_dict() if config else None,
        "artifacts": artifacts,
        "duration_seconds": round(time.time() - started, 3),
    }
    if extra:
        doc.update(extra)
    _atomic_write_json(path, doc)


def _load_config(args) -> hz.TrainConfig:
    """Config file values first, then CLI flag overrides."""
    base = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            try:
                base = json.load(f)
            except RecursionError as e:
                raise ValueError(f"{args.config}: config nested too deeply") from e
            except ValueError as e:        # not JSON, or not UTF-8
                raise ValueError(f"{args.config}: {e}") from e
        if not isinstance(base, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    for key in ("t", "mode", "lr", "total_iters", "d_embed", "seed_init", "seed_sample"):
        val = getattr(args, key, None)
        if val is not None:
            base[key] = val
    return hz.TrainConfig.from_dict(base)


def _check_out(args):
    """Refuse an --out whose nearest existing ancestor (or itself, if it
    exists) is not a directory, before any work; a dangling symlink exists
    as a link, and is refused too."""
    out = path = os.path.abspath(args.out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        below = "" if path == out else f" is below {path}, which"
        what = ("exists and is not a directory" if os.path.exists(path)
                else "is a symlink to a missing path")
        raise ValueError(f"--out {args.out}{below} {what}")


def cmd_synth(args) -> int:
    started = time.time()
    _check_out(args)
    if args.images < 1:
        raise ValueError(f"--images must be at least 1, got {args.images}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if not dat.scene_size_ok(args.size):
        raise ValueError(f"--size {args.size} is unusable: synth needs a multiple of "
                         f"{mdl.BACKBONE_STRIDE} that is at least {dat.MIN_SCENE_SIZE}")
    dat.check_drop_rate(args.drop_rate, "--drop-rate")
    records = dat.generate_benchmark(args.images, args.size, args.drop_rate,
                                     seed=args.seed)
    dat.save_dataset(args.out, records)
    _write_manifest(os.path.join(args.out, "manifest.json"), None, {
        "images_dir": "images",
        "train_annotations": "train.json",
        "dropped_sidecar": "dropped.json",
    }, started, extra={"synth": {"images": args.images, "size": args.size,
                                 "drop_rate": args.drop_rate, "seed": args.seed}})
    print(f"wrote {len(records)} images to {args.out}")
    return 0


def _load_data(directory) -> list[dat.ImageRecord]:
    """The dataset under directory (--data). The first image that
    model.forward_rpn cannot run is refused here, by its PGM's path, before
    any work starts."""
    records = dat.load_dataset(directory)
    for rec in records:
        if not mdl.extent_ok(*(extent := rec.image.shape[:2])):
            raise ValueError(f"{os.path.join(directory, 'images', rec.file_name)} is "
                             f"{extent[0]}x{extent[1]}; {mdl.EXTENT_RULE}")
    return records


def cmd_train(args) -> int:
    started = time.time()
    _check_out(args)
    config = _load_config(args)
    records = _load_data(args.data)
    params, log = hz.train(config, records)
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "checkpoint.srpn")
    mdl.save_checkpoint(ckpt, params, meta={"config": config.to_dict()})
    hz.write_metric_log(os.path.join(args.out, "train_log.jsonl"), log)
    _write_manifest(os.path.join(args.out, "manifest.json"), config, {
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
    for name, shape in mdl.param_shapes(config.d_embed, mdl.N_ANCHORS).items():
        if name not in params:
            raise mdl.CheckpointError(f"{path}: missing tensor {name}")
        if params[name].shape != shape:
            raise mdl.CheckpointError(f"{path}: tensor {name} has shape "
                                      f"{params[name].shape}, config implies {shape}")
    return params, config


def _load_for_report(args) -> tuple[dict, hz.TrainConfig, list[dat.ImageRecord]]:
    """Checkpoint, config and dataset, once --report's directory is known."""
    report_dir = os.path.dirname(os.path.abspath(args.report))
    if not os.path.isdir(report_dir):
        what = ("exists and is not a directory" if os.path.exists(report_dir)
                else "does not exist")
        raise ValueError(f"--report {args.report}: directory {report_dir} {what}")
    if os.path.isdir(args.report):
        raise ValueError(f"--report {args.report} is a directory, not a file")
    params, config = _load_checkpoint_config(args.checkpoint)
    return params, config, _load_data(args.data)


def _write_report(args, config: hz.TrainConfig, text: str, started: float):
    """The report of eval or audit, then <report>.manifest.json naming it."""
    mdl.write_file(args.report, [text.encode()])
    _write_manifest(args.report + ".manifest.json", config,
                    {"report": os.path.abspath(args.report),
                     "checkpoint": os.path.abspath(args.checkpoint)}, started)


def cmd_eval(args) -> int:
    started = time.time()
    params, config, records = _load_for_report(args)
    report = hz.evaluate(params, records, config)
    _write_report(args, config, json.dumps(report.to_dict(), indent=1, sort_keys=True), started)
    print(json.dumps(report.to_dict(), indent=1))
    return 0


def cmd_audit(args) -> int:
    started = time.time()
    if args.t is not None:
        mdl.check_threshold(args.t)
    params, config, records = _load_for_report(args)
    flags = hz.audit_flags(params, records, config, t=args.t)
    doc = {
        "t": args.t if args.t is not None else config.t,
        "flags": [{"image_id": records[i].image_id, "box": box, "attention_score": score}
                  for i, box, score in zip(flags.image_index.tolist(), flags.boxes.tolist(),
                                           flags.scores.tolist())],
    }
    fn = hz.score_fn_detection(flags, records)
    if not fn.vacuous:
        doc["fn_precision"], doc["fn_recall"] = fn.precision, fn.recall
    _write_report(args, config, _audit_json(doc), started)
    print(f"{len(flags)} regions flagged; report at {args.report}")
    return 0


# The acceptance tests' benchmark (images, size, drop rate): synth's defaults,
# and what compare without --data generates for each seed (generate_benchmark).
COMPARE_DATA = (200, 64, 0.3)


def _parse_list(flag: str, text: str, parse, what: str) -> list:
    """The comma-separated values of a list flag, each through parse; one
    error naming the flag when none is given or one is unusable or repeated."""
    try:
        values = [parse(v) for v in text.split(",") if v]
        if not values:
            raise ValueError(f"no {what} given")
        for k, value in enumerate(values):
            if value in values[:k]:
                raise ValueError(f"{what} {value} given twice")
    except ValueError as e:
        raise ValueError(f"--{flag} {text!r}: {e}") from e
    return values


def _seed(text: str) -> int:
    if (seed := int(text)) < 0:
        raise ValueError(f"seeds must be non-negative, got {seed}")
    return seed


def _compare_table(doc: dict) -> str:
    """Every row of a comparison, then each arm's means over the seeds."""
    arm_width = max(len(m["arm"]) for m in doc["means"])
    widths = [max(len(m), 7) for m in hz.COMPARE_METRICS]

    def line(row, seed="seed"):
        cells = (f"{row[m]:.4f}" if isinstance(row.get(m), float) else str(row.get(m, "-"))
                 for m in hz.COMPARE_METRICS)
        return f"{row['arm']:<{arm_width}}  {seed:>4}  " + "  ".join(
            f"{c:>{w}}" for c, w in zip(cells, widths))

    header = line({"arm": "arm", **{m: m for m in hz.COMPARE_METRICS}})
    rule = "-" * len(header)
    return "\n".join([header, rule, *(line(r, r["seed"]) for r in doc["rows"]), rule,
                      *(line(m, "mean") for m in doc["means"])])


def cmd_compare(args) -> int:
    started = time.time()
    _check_out(args)
    seeds = _parse_list("seeds", args.seeds, _seed, "seed")
    thresholds = _parse_list("thresholds", args.thresholds,
                             lambda v: mdl.check_threshold(float(v)), "threshold")
    config = _load_config(args)
    if args.data:
        records = _load_data(args.data)
        datasets = ((seed, records) for seed in seeds)
    else:
        datasets = ((seed, dat.generate_benchmark(*COMPARE_DATA, seed=seed)) for seed in seeds)
    generated = None if args.data else dict(zip(("images", "size", "drop_rate"), COMPARE_DATA))
    doc = hz.compare(config, datasets, thresholds)
    table = _compare_table(doc)
    os.makedirs(args.out, exist_ok=True)
    _atomic_write_json(os.path.join(args.out, "compare.json"), doc)
    mdl.write_file(os.path.join(args.out, "compare.txt"), [(table + "\n").encode()])
    _write_manifest(os.path.join(args.out, "manifest.json"), config, {
        "table_json": "compare.json",
        "table_text": "compare.txt",
        "dataset": os.path.abspath(args.data) if args.data else None,
    }, started, extra={"seeds": seeds, "thresholds": thresholds, "generated": generated})
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
    p.add_argument("--images", type=int, default=COMPARE_DATA[0])
    p.add_argument("--size", type=int, default=COMPARE_DATA[1])
    p.add_argument("--drop-rate", dest="drop_rate", type=float, default=COMPARE_DATA[2])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--mode", choices=hz.MODES)
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

    p = sub.add_parser("compare", help="baseline vs soft-label arms over seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma list of seeds")
    p.add_argument("--thresholds", default="0.8", help="comma list, e.g. 0.6,0.8,0.9")
    p.add_argument("--data", help="one dataset for every seed (default: each "
                                  "seed's synthetic benchmark)")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_compare)
    return parser


# The failures main reports as one `error:` line and exit 1.
ERRORS = (OSError, ValueError, mdl.CheckpointError, dat.CocoFormatError, hz.DivergenceError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
