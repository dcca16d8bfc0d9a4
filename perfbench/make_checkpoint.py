#!/usr/bin/env python3
"""Produce the fixed checkpoints that the workloads evaluate and audit.

The checkpoints are committed, so eval and audit see the same model
whatever the training code does: a change of training numerics moves the
training fingerprint, not the eval and audit work. Each is trained with
fixed seeds on the seed-0 dataset of its image size:

- ckpt64.srpn: the default 1000-iteration soft-label model, 200 images 64x64;
- ckpt128.srpn: a 400-iteration baseline model, 60 images 128x128.

Regenerate them only together with the sha256 values in run.py and the
recorded fingerprints:

    python3 perfbench/make_checkpoint.py
"""

import contextlib
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402  (sets the BLAS thread count first)

RECIPES = {
    "ckpt64.srpn": (["--images", "200", "--size", "64"], {"mode": "soft_label"}),
    # The config sets image_size: 128 and rescales the milestones, working
    # around the two CLI defects described in run.py.
    "ckpt128.srpn": (["--images", "60", "--size", "128"],
                     {"mode": "baseline", "image_size": 128, "total_iters": 400,
                      "milestones": [200, 320]}),
}


def main() -> int:
    cli = bench.import_softrpn()
    for name, (synth_args, config) in RECIPES.items():
        work = os.path.join(bench.WORK_ROOT, "make_checkpoint")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        data, out = os.path.join(work, "data"), os.path.join(work, "train")
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w") as f:
            json.dump({**config, "seed_init": 0, "seed_sample": 0}, f)
        try:
            for argv in (["synth", "--out", data, "--drop-rate", "0.3", "--seed", "0",
                          *synth_args],
                         ["train", "--data", data, "--out", out, "--config", config_path]):
                if cli.main(argv) != 0:
                    return 1
            target = os.path.join(bench.HERE, name)
            shutil.copyfile(os.path.join(out, "checkpoint.srpn"), target)
            print(f"{name} sha256 {bench._file_sha256(target)}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(bench.WORK_ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
