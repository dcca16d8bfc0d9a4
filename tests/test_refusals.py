"""The CLI's refusal contract, one table run twice.

Each row of REFUSALS is a command line that softrpn must refuse: exit 1,
exactly one stderr line, which starts `error: ` and matches the row's
pattern, nothing on stdout, and the work directory as it was before, so no
output, partial file or `*.tmp` is left. `test_refused_in_process` calls
cli.main with each of the row's `before` functions replaced by a stub that
raises, which shows that the refusal comes before that work.
`test_refused_as_a_process` runs `python -m softrpn.cli`, where a traceback
the interpreter prints, an import-time warning or a broken entry point
would show.

Usage errors (exit 2, argparse's multi-line message) are another contract,
checked in test_cli.py.
"""

import json
import os
import pathlib
import re
import shlex
import shutil
import struct
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest

import softrpn
from softrpn import cli
from softrpn import data as dat
from softrpn import harness as hz
from softrpn import model as mdl

# a warning would be a second stderr line in a real process
pytestmark = pytest.mark.filterwarnings("error")

# the shared dataset: four 64x64 images, with withheld boxes in the sidecar
RECORDS = dat.generate_benchmark(4, 64, 0.5, seed=3)
N_KEPT = sum(len(r.kept) for r in RECORDS)
PLACES = ("{data}", "{ckpt}", "{tmp}")


class Row(NamedTuple):
    id: str
    argv: str                     # shell words; {data}, {ckpt} and {tmp} are filled in
    pattern: str                  # searched in the error line; placeholders filled in
    edit: Callable | None = None  # edit(tmp, data, ckpt) makes the bad input under tmp
    before: tuple = ()            # (module, attr): work that must not start


def fixed(text: str) -> str:
    """A regex matching text literally; the placeholders stay placeholders."""
    parts = re.split("(%s)" % "|".join(map(re.escape, PLACES)), text)
    return "".join(part if k % 2 else re.escape(part) for k, part in enumerate(parts))


def says(text: str) -> str:
    """The error line is exactly `error: text`."""
    return f"^error: {fixed(text)}$"


def starts(text: str) -> str:
    """The error line starts with `error: text`."""
    return f"^error: {fixed(text)}"


def fill(text: str, places: dict) -> str:
    for place, value in places.items():
        text = text.replace(place, value)
    return text


# -- edits: each makes one bad input under the work directory --------

def write(name: str, content):
    """{tmp}/name holding content: bytes, a string, or a document as JSON."""
    def edit(tmp, data, ckpt):
        raw = content if isinstance(content, bytes) else \
            content.encode() if isinstance(content, str) else json.dumps(content).encode()
        (tmp / name).write_bytes(raw)
    return edit


def dangling_link(tmp, data, ckpt):
    (tmp / "brokenlink").symlink_to(tmp / "missing")


def mkdir(tmp, data, ckpt):
    (tmp / "reports").mkdir()


def in_data(change, *names):
    """{data} copied to {tmp}/data, each named file's bytes put through change."""
    def edit(tmp, data, ckpt):
        shutil.copytree(data, tmp / "data")
        for name in names:
            path = tmp / "data" / name
            path.write_bytes(change(path.read_bytes()))
    return edit


def coco(fn, *names):
    """{data} copied to {tmp}/data, fn editing each named document."""
    return in_data(lambda raw: json.dumps(fn(json.loads(raw))).encode(), *names)


MISSING = object()


def edited(doc, *path_and_value):
    """doc with the value at path replaced (or deleted, for MISSING)."""
    *path, key, value = path_and_value
    node = doc
    for k in path:
        node = node[k]
    if value is MISSING:
        del node[key]
    else:
        node[key] = value
    return doc


def stray_sidecar(doc):
    """doc with every annotation moved onto an added image 999."""
    doc["images"].append({"id": 999, "file_name": "img_000999.pgm", "height": 64,
                          "width": 64})
    for ann in doc["annotations"]:
        ann["image_id"] = 999
    return doc


def repeat_kept_box(tmp, data, ckpt):
    """{tmp}/data whose sidecar repeats train.json's first box."""
    kept = json.loads((data / "train.json").read_text())["annotations"][0]
    coco(lambda d: {**d, "annotations": [*d["annotations"], {**kept, "id": 1000}]},
         "dropped.json")(tmp, data, ckpt)


def extent60(tmp, data, ckpt):
    """{tmp}/data60: two 60x60 images, not a multiple of the backbone stride."""
    records = dat.generate_benchmark(2, 64, 0.3, seed=3)
    for rec in records:
        rec.image = rec.image[:60, :60]
    dat.save_dataset(tmp / "data60", records)


def header(text: bytes):
    """A checkpoint whose header, after the magic and version, is text."""
    return write("bad.srpn", mdl.CHECKPOINT_MAGIC + struct.pack(
        "<II", mdl.CHECKPOINT_VERSION, len(text)) + text)


def resaved(change):
    """{ckpt} saved again as {tmp}/bad.srpn with the meta change(params, meta) returns."""
    def edit(tmp, data, ckpt):
        params, meta = mdl.load_checkpoint(ckpt)
        mdl.save_checkpoint(tmp / "bad.srpn", params, meta=change(params, meta))
    return edit


def nan_tensor(params, meta):
    params["rpn.cls.b"].data[0] = np.nan
    return meta


def drop_embed(params, meta):
    del params["rpn.embed.w"]
    return meta


# -- the table ----------------------------------------------------------

SYNTH = ((dat, "generate_benchmark"),)
READ = ((dat, "load_dataset"),)
TRAIN = ((hz, "train"),)
EVAL = ((hz, "evaluate"),)
REPORT_WORK = {"eval": (hz, "evaluate"), "audit": (hz, "audit_flags")}
OUT_ARGV = {"synth": ("synth", SYNTH),
            "train": ("train --data {data}", TRAIN),
            "compare": ("compare --data {data} --seeds 0", ((hz, "compare"),))}
TRAIN_ARGV = "train --data {data} --out {tmp}/out"
EVAL_BAD = "eval --checkpoint {tmp}/bad.srpn --data {data} --report {tmp}/r.json"
EVAL_DATA = "eval --checkpoint {ckpt} --data {tmp}/data --report {tmp}/r.json"
TRAIN_DATA = "train --data {tmp}/data --out {tmp}/out"
NOT_FINITE = "training diverged: a value overflowed, or the mean loss exceeded 1e+06 " \
             "or became non-finite at iteration "
TOO_SMALL = "{tmp}/data60/images/img_000000.pgm is 60x60; both extents must be multiples of 8 " \
            "and at least 16"
BBOX = "field 'bbox' must be four finite numbers [x, y, width, height], width and height >= 0, " \
       "got "
NOT_IN_TRAIN = "field 'images' must list the images of {tmp}/data/train.json (id, file_name, " \
               "height, width), but differs at images[4]"
REPEATS = starts(f"{{tmp}}/data/dropped.json: image {RECORDS[0].image_id}: the box with corners [") \
    + r"[^]]+\]" + fixed(" repeats a kept box of {tmp}/data/train.json") + "$"
CUT = "truncated PGM, 64x64 needs 8192 bytes of samples, found 85"

REFUSALS = [
    *(Row(f"synth-size-{size}", f"synth --out {{tmp}}/out --size {size}",
          says(f"--size {size} is unusable: synth needs a multiple of 8 that is at least 24"),
          before=SYNTH) for size in (16, 20, 60)),
    Row("synth-size-unallocatable", "synth --out {tmp}/out --images 1 --size 4000000",
        starts("scene extent 4000000x4000000: Unable to allocate ")),
    *(Row(f"synth-images-{n}", f"synth --out {{tmp}}/out --images {n}",
          says(f"--images must be at least 1, got {n}"), before=SYNTH) for n in (0, -1)),
    Row("synth-seed-negative", "synth --out {tmp}/out --seed -1",
        says("--seed must be non-negative, got -1"), before=SYNTH),
    *(Row(f"synth-drop-rate-{rate}", f"synth --out {{tmp}}/out --drop-rate {rate}",
          says(f"--drop-rate must lie in [0, 1), got {float(rate)}"), before=SYNTH)
      for rate in ("1.0", "-0.1", "nan")),

    Row("train-data-missing", "train --data {tmp}/nope --out {tmp}/out",
        says("[Errno 2] No such file or directory: '{tmp}/nope/train.json'")),
    Row("train-config-directory", TRAIN_ARGV + " --config {tmp}",
        says("[Errno 21] Is a directory: '{tmp}'"), before=READ),
    Row("train-data-regular-file", "train --data {tmp}/data.txt --out {tmp}/out",
        says("[Errno 20] Not a directory: '{tmp}/data.txt/train.json'"),
        write("data.txt", "not a dataset")),
    *(Row(f"train-flag-{flag}-{value}", f"{TRAIN_ARGV} --{flag} {value}", says(needle),
          before=READ) for flag, value, needle in [
        ("total-iters", "0", "total_iters must be at least 1, got 0"),
        ("total-iters", "-3", "total_iters must be at least 1, got -3"),
        ("lr", "inf", "lr must be finite and positive, got inf"),
        ("lr", "nan", "lr must be finite and positive, got nan"),
        ("lr", "0", "lr must be finite and positive, got 0.0"),
        ("seed-init", "-1", "seed_init must be non-negative, got -1"),
        ("seed-sample", "-1", "seed_sample must be non-negative, got -1")]),
    Row("train-diverged", TRAIN_ARGV + " --lr 1e30 --total-iters 12",
        f"^error: {fixed(NOT_FINITE)}[0-9]+$"),
    Row("compare-diverged", "compare --data {data} --out {tmp}/out --config {tmp}/cfg.json "
        "--seeds 0", f"^error: {fixed(NOT_FINITE)}[0-9]+$", write("cfg.json", {"lr": 1e30})),
    Row("train-extent-60", "train --data {tmp}/data60 --out {tmp}/out", says(TOO_SMALL),
        extent60, TRAIN),
    *(Row(f"train-config-{name}", TRAIN_ARGV + " --config {tmp}/cfg.json", says(needle),
          write("cfg.json", doc), READ) for name, doc, needle in [
        ("bogus", {"bogus": 1}, "unknown config key 'bogus'"),
        ("t-string", {"t": "x"}, "config key 't' must be float, got 'x'"),
        ("list", [1, 2], "{tmp}/cfg.json: config must be a JSON object"),
        ("mode", {"mode": "softlabel"}, "unknown mode 'softlabel'"),
        ("t-1.5", {"t": 1.5}, "t must lie in (0, 1), got 1.5"),
        ("d-embed-0", {"d_embed": 0}, "d_embed must be at least 1, got 0"),
        ("top-k", {"top_k": 100}, "config key 'top_k' must be 50, its fixed value, got 100"),
        ("stride", {"stride": 16}, "config key 'stride' must be 8, its fixed value, got 16"),
        ("inverted-thresholds", {"pos_thresh": 0.3, "neg_thresh": 0.7},
         "config key 'pos_thresh' must be 0.7, its fixed value, got 0.3"),
        ("lr-0", {"lr": 0}, "lr must be finite and positive, got 0"),
        ("milestones", {"milestones": [-1]}, "milestones must be at least 1, got -1"),
        ("seed-init", {"seed_init": -1}, "seed_init must be non-negative, got -1"),
        ("batch-images-0", {"total_iters": 12, "batch_images": 0},
         "config key 'batch_images' must be 4, its fixed value, got 0"),
        ("n-anchors-2", {"n_anchors": 2}, "config key 'n_anchors' must be 3, its fixed value, "
                                          "got 2"),
        ("nested", "[" * 100_000 + "]" * 100_000, "{tmp}/cfg.json: config nested too deeply")]),
    *(Row(f"{command}-config-{name}", f"{command} --data {{data}} --out {{tmp}}/out "
          f"--config {path}" + (" --seeds 0" if command == "compare" else ""),
          says(f"{path}: {needle}"), None if content is None else write("cfg.json", content),
          READ)
      for command in ("train", "compare") for name, path, content, needle in [
        ("dev-null", "/dev/null", None, "Expecting value: line 1 column 1 (char 0)"),
        ("not-json", "{tmp}/cfg.json", b"{oops",
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("not-utf8", "{tmp}/cfg.json", b'{"t": "\xff"}',
         "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte")]),
    Row("train-d-embed-unallocatable", TRAIN_ARGV + " --d-embed 100000000000",
        starts("d_embed 100000000000: rpn.embed.w: Unable to allocate ")),
    Row("compare-d-embed-unallocatable",
        "compare --data {data} --out {tmp}/out --config {tmp}/cfg.json --seeds 0",
        starts("d_embed 100000000000: rpn.embed.w: Unable to allocate "),
        write("cfg.json", {"d_embed": 10**11, "total_iters": 12})),

    Row("eval-ckpt-not-a-checkpoint", EVAL_BAD, says("{tmp}/bad.srpn: not a checkpoint file"),
        write("bad.srpn", b"not a checkpoint"), READ),
    Row("eval-ckpt-magic-only", EVAL_BAD, says("{tmp}/bad.srpn: truncated checkpoint header"),
        write("bad.srpn", mdl.CHECKPOINT_MAGIC), READ),
    Row("eval-ckpt-bad-json", EVAL_BAD, says("{tmp}/bad.srpn: malformed checkpoint header "
                                             "(JSONDecodeError('Expecting property name enclosed "
                                             "in double quotes: line 1 column 2 (char 1)'))"),
        header(b"{oops"), READ),
    Row("eval-ckpt-infinite-shape", EVAL_BAD,
        says("{tmp}/bad.srpn: malformed shape [inf] for tensor w"),
        header(b'{"tensors": [{"name": "w", "shape": [Infinity]}]}'), READ),
    Row("eval-ckpt-oversized-shape", EVAL_BAD,
        says("{tmp}/bad.srpn: malformed shape [0, 1000000000000000019884624838656] for tensor w"),
        header(b'{"tensors": [{"name": "w", "shape": [0, 1e30]}]}'), READ),
    Row("eval-ckpt-nested-header", EVAL_BAD,
        starts("{tmp}/bad.srpn: malformed checkpoint header (RecursionError("),
        header(b"[" * 100_000 + b"]" * 100_000), READ),
    Row("eval-ckpt-no-config", EVAL_BAD,
        says("{tmp}/bad.srpn: no valid meta.config (KeyError('config'))"),
        resaved(lambda params, meta: {}), READ),
    Row("eval-ckpt-nan-tensor", EVAL_BAD,
        says("{tmp}/bad.srpn: tensor rpn.cls.b holds a value that is not finite"),
        resaved(nan_tensor), READ),
    Row("eval-ckpt-missing-tensor", EVAL_BAD, says("{tmp}/bad.srpn: missing tensor rpn.embed.w"),
        resaved(drop_embed), READ),
    *(Row(f"{command}-ckpt-d-embed-mismatch",
          f"{command} --checkpoint {{tmp}}/bad.srpn --data {{data}} --report {{tmp}}/r.json",
          says("{tmp}/bad.srpn: tensor rpn.embed.w has shape (1, 1, 32, 96), config implies "
               "(1, 1, 32, 300000000000)"),
          resaved(lambda params, meta: {"config": {**meta["config"], "d_embed": 10**11}}),
          READ) for command in ("eval", "audit")),
    *(Row(f"{command}-extent-60",
          f"{command} --checkpoint {{ckpt}} --data {{tmp}}/data60 --report {{tmp}}/r.json",
          says(TOO_SMALL), extent60, (REPORT_WORK[command],)) for command in ("eval", "audit")),

    *(Row(f"{command}-report-{name}",
          f"{command} --checkpoint {{ckpt}} --data {{data}} --report {report}", says(needle),
          edit, ((mdl, "load_checkpoint"), REPORT_WORK[command]))
      for command in ("eval", "audit") for name, report, needle, edit in [
        ("dir-missing", "{tmp}/nodir/r.json",
         "--report {tmp}/nodir/r.json: directory {tmp}/nodir does not exist", None),
        ("below-file", "{tmp}/rfile/r.json",
         "--report {tmp}/rfile/r.json: directory {tmp}/rfile exists and is not a directory",
         write("rfile", "kept")),
        ("is-directory", "{tmp}/reports", "--report {tmp}/reports is a directory, not a file",
         mkdir)]),

    *(Row(f"{command}-out-{name}", f"{OUT_ARGV[command][0]} --out {out}", says(needle), edit,
          (*OUT_ARGV[command][1], *READ))
      for command in OUT_ARGV for name, out, needle, edit in [
        ("file", "{tmp}/outfile", "--out {tmp}/outfile exists and is not a directory",
         write("outfile", "kept")),
        ("below-file", "{tmp}/outfile/sub", "--out {tmp}/outfile/sub is below {tmp}/outfile, "
                                            "which exists and is not a directory",
         write("outfile", "kept")),
        ("dangling-link", "{tmp}/brokenlink",
         "--out {tmp}/brokenlink is a symlink to a missing path", dangling_link),
        ("below-dangling-link", "{tmp}/brokenlink/sub", "--out {tmp}/brokenlink/sub is below "
                                                        "{tmp}/brokenlink, which is a symlink "
                                                        "to a missing path",
         dangling_link)]),

    *(Row(f"audit-t-{t}", f"audit --checkpoint {{ckpt}} --data {{data}} --t {t} "
          "--report {tmp}/audit.json", says(f"t must lie in (0, 1), got {float(t)}"),
          before=((mdl, "load_checkpoint"), *READ)) for t in ("1.5", "0", "-0.2")),
    Row("audit-t-before-missing-inputs", "audit --checkpoint {tmp}/none.srpn --data {tmp}/nope "
        "--t 1.5 --report {tmp}/audit.json", says("t must lie in (0, 1), got 1.5"),
        before=((mdl, "load_checkpoint"), *READ)),

    *(Row(f"compare-{name}-{kind}", f"compare --out {{tmp}}/out {flag} {shlex.quote(value)}"
          + (" --data {data}" if kind == "data" else ""), says(f"{flag} {value!r}: {needle}"),
          before=(*SYNTH, *READ))
      for kind in ("data", "generated") for name, flag, value, needle in [
        ("comma", "--thresholds", ",", "no threshold given"),
        ("empty", "--thresholds", "", "no threshold given"),
        ("not-a-number", "--thresholds", "0.5,x", "could not convert string to float: 'x'"),
        ("out-of-range", "--thresholds", "0.6,1.5", "t must lie in (0, 1), got 1.5"),
        ("zero", "--thresholds", "0", "t must lie in (0, 1), got 0.0"),
        ("seeds-comma", "--seeds", ",", "no seed given"),
        ("seeds-empty", "--seeds", "", "no seed given"),
        ("seeds-not-a-number", "--seeds", "0,x", "invalid literal for int() with base 10: 'x'"),
        ("seeds-fraction", "--seeds", "1.5", "invalid literal for int() with base 10: '1.5'"),
        ("seeds-negative", "--seeds", "0,-1", "seeds must be non-negative, got -1"),
        ("repeated", "--thresholds", "0.5,0.5", "threshold 0.5 given twice"),
        ("repeated-spelled-apart", "--thresholds", "0.6,0.8,0.80", "threshold 0.8 given twice"),
        ("seeds-repeated", "--seeds", "0,1,0", "seed 0 given twice")]),
    Row("compare-data-missing", "compare --data {tmp}/nope --out {tmp}/out",
        says("[Errno 2] No such file or directory: '{tmp}/nope/train.json'")),

    *(Row(f"train-{name}", TRAIN_DATA, says(f"{{tmp}}/data/{file}: {needle}"),
          coco(fn, file), TRAIN) for name, file, fn, needle in [
        ("top-level-list", "train.json", lambda d: [d], "the top level must be a JSON object"),
        ("images-int", "train.json", lambda d: edited(d, "images", 5),
         "'images' must be a list of objects"),
        ("image-not-object", "train.json", lambda d: edited(d, "images", [5]),
         "'images' must be a list of objects"),
        ("annotations-object", "train.json", lambda d: edited(d, "annotations", {"id": 1}),
         "'annotations' must be a list of objects"),
        ("bbox-missing", "train.json", lambda d: edited(d, "annotations", 0, "bbox", MISSING),
         "annotations[0] (id 1): missing field 'bbox'"),
        ("file-name-missing", "train.json",
         lambda d: edited(d, "images", 0, "file_name", MISSING),
         "images[0]: missing field 'file_name'"),
        ("id-string", "train.json", lambda d: edited(d, "images", 0, "id", "0"),
         "images[0]: field 'id' must be an integer, got '0'"),
        ("height-float", "train.json", lambda d: edited(d, "images", 0, "height", 64.0),
         "images[0]: field 'height' must be an integer, got 64.0"),
        ("id-duplicate", "train.json",
         lambda d: edited(d, "images", 1, "id", d["images"][0]["id"]),
         "images[1]: duplicate id 0"),
        ("file-name-duplicate", "train.json",
         lambda d: edited(d, "images", 1, "file_name", d["images"][0]["file_name"]),
         "images[1]: duplicate file_name 'img_000000.pgm'"),
        ("sidecar-annotation-id-duplicate", "dropped.json",
         lambda d: edited(d, "annotations", 1, "id", d["annotations"][0]["id"]),
         "annotations[1]: duplicate id 1"),
        ("image-id-bool", "train.json",
         lambda d: edited(d, "annotations", 0, "image_id", True),
         "annotations[0] (id 1): field 'image_id' must be an integer, got True"),
        ("file-name-outside", "train.json",
         lambda d: edited(d, "images", 0, "file_name", "../../x.pgm"),
         "images[0]: field 'file_name' must be a plain file name inside images/, "
         "got '../../x.pgm'"),
        ("file-name-dotdot", "train.json", lambda d: edited(d, "images", 0, "file_name", ".."),
         "images[0]: field 'file_name' must be a plain file name inside images/, got '..'"),
        ("bbox-string", "train.json",
         lambda d: edited(d, "annotations", 0, "bbox", [1, 2, "x", 4]),
         f"annotations[0] (id 1): {BBOX}[1, 2, 'x', 4]"),
        ("bbox-nan", "train.json",
         lambda d: edited(d, "annotations", 0, "bbox", [1, 2, float("nan"), 4]),
         f"annotations[0] (id 1): {BBOX}[1, 2, nan, 4]"),
        ("sidecar-bbox-inf", "dropped.json",
         lambda d: edited(d, "annotations", 0, "bbox", [1, 2, float("inf"), 4]),
         f"annotations[0] (id 1): {BBOX}[1, 2, inf, 4]"),
        ("bbox-negative-width", "train.json",
         lambda d: edited(d, "annotations", 0, "bbox", [1, 2, -1, 4]),
         f"annotations[0] (id 1): {BBOX}[1, 2, -1, 4]"),
        ("bbox-three-numbers", "train.json",
         lambda d: edited(d, "annotations", 0, "bbox", [1, 2, 3]),
         f"annotations[0] (id 1): {BBOX}[1, 2, 3]"),
        ("category-id-bool", "train.json",
         lambda d: edited(d, "annotations", 0, "category_id", True),
         "annotations[0] (id 1): field 'category_id' must be an integer, got True"),
        ("bbox-area-overflow", "train.json",
         lambda d: edited(d, "annotations", 0, "bbox", [1e300] * 4),
         f"annotations[0] (id 1): {BBOX}[1e+300, 1e+300, 1e+300, 1e+300]"),
        ("bbox-zero-width", "train.json",
         lambda d: edited(d, "annotations", 0, "bbox", [1, 2, 0, 4]),
         "annotations[0] (id 1): bbox [1, 2, 0, 4] has no area: its width and height must be "
         "above 0"),
        *((f"{side}bbox-outside-image", file,
           lambda d: edited(d, "annotations", 0, "bbox", [0, 0, 1e154, 1e154]),
           "annotations[0] (id 1): bbox [0, 0, 1e+154, 1e+154] does not lie inside image 0, "
           "which declares width 64 and height 64")
          for side, file in (("sidecar-", "dropped.json"), ("", "train.json"))),
        ("sidecar-image-not-in-train", "dropped.json", stray_sidecar, NOT_IN_TRAIN)]),
    Row("train-declared-height", TRAIN_DATA,
        says("{tmp}/data/train.json: images[1] (id 1) declares height 4096 and width 64, but "
             "{tmp}/data/images/img_000001.pgm is 64x64"),
        coco(lambda d: edited(d, "images", 1, "height", 4096), "train.json", "dropped.json"),
        TRAIN),
    Row("train-sidecar-repeats-kept-box", TRAIN_DATA, REPEATS, repeat_kept_box, TRAIN),
    Row("train-pgm-header-number-too-long", TRAIN_DATA,
        says("{tmp}/data/images/img_000001.pgm: not a binary PGM file"),
        in_data(lambda raw: b"P5\n" + b"9" * 5000 + raw[raw.index(b" "):],
                "images/img_000001.pgm"), TRAIN),
    Row("train-pgm-truncated", TRAIN_DATA, says("{tmp}/data/images/img_000001.pgm: " + CUT),
        in_data(lambda raw: raw[:100], "images/img_000001.pgm"), TRAIN),

    Row("eval-declared-height", EVAL_DATA,
        says("{tmp}/data/train.json: images[0] (id 0) declares height 72 and width 64, but "
             "{tmp}/data/images/img_000000.pgm is 64x64"),
        coco(lambda d: edited(d, "images", 0, "height", d["images"][0]["height"] + 8),
             "train.json", "dropped.json"), EVAL),
    Row("eval-sidecar-image-not-in-train", EVAL_DATA,
        says("{tmp}/data/dropped.json: " + NOT_IN_TRAIN), coco(stray_sidecar, "dropped.json"),
        EVAL),
    Row("eval-sidecar-repeats-kept-box", EVAL_DATA, REPEATS, repeat_kept_box, EVAL),
    Row("eval-file-name-duplicate", EVAL_DATA,
        says("{tmp}/data/train.json: images[1]: duplicate file_name 'img_000000.pgm'"),
        coco(lambda d: edited(d, "images", 1, "file_name", d["images"][0]["file_name"]),
             "train.json"), EVAL),
    Row("eval-bbox-negative-width-late", EVAL_DATA,
        starts(f"{{tmp}}/data/train.json: annotations[{N_KEPT - 2}] (id {N_KEPT - 1}): {BBOX}[")
        + r"[^],]+, [^],]+, -1, [^],]+\]$",
        coco(lambda d: edited(d, "annotations", N_KEPT - 2, "bbox", 2, -1), "train.json"),
        EVAL),
    Row("eval-pgm-truncated", EVAL_DATA, says("{tmp}/data/images/img_000003.pgm: " + CUT),
        in_data(lambda raw: raw[:100], "images/img_000003.pgm"), EVAL),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The dataset and a checkpoint of the default config that every row reads."""
    root = tmp_path_factory.mktemp("inputs")
    dat.save_dataset(root / "data", RECORDS)
    params = mdl.init_params(hz.TrainConfig().d_embed, mdl.N_ANCHORS, np.random.default_rng(0))
    mdl.save_checkpoint(root / "ckpt.srpn", params, meta={"config": hz.TrainConfig().to_dict()})
    return root / "data", root / "ckpt.srpn"


def snapshot(root) -> dict:
    """Every path under root: a link's target, a file's bytes, None for a directory."""
    state = {}
    for dirpath, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(dirpath, name)
            state[os.path.relpath(path, root)] = (
                os.readlink(path) if os.path.islink(path) else
                None if os.path.isdir(path) else pathlib.Path(path).read_bytes())
    return state


def prepared(row: Row, inputs, tmp):
    """The row's argv and pattern for this work directory, and its snapshot
    once the row's bad input is in place."""
    data, ckpt = inputs
    if row.edit:
        row.edit(tmp, data, ckpt)
    places = dict(zip(PLACES, map(str, (data, ckpt, tmp))))
    argv = [fill(word, places) for word in shlex.split(row.argv)]
    pattern = fill(row.pattern, {k: re.escape(v) for k, v in places.items()})
    return argv, pattern, snapshot(tmp)


def assert_refused(code, out, err, pattern, tmp, before):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert re.search(pattern, lines[0]), (pattern, lines[0])
    assert (code, out) == (1, "")
    after = snapshot(tmp)
    assert after == before and not [p for p in after if p.endswith(".tmp")]


def no_work(*args, **kwargs):
    raise AssertionError("work started before the refusal")


@pytest.mark.parametrize("row", REFUSALS, ids=[row.id for row in REFUSALS])
def test_refused_in_process(row, inputs, tmp_path, capsys, monkeypatch):
    argv, pattern, before = prepared(row, inputs, tmp_path)
    for module, attr in row.before:
        monkeypatch.setattr(module, attr, no_work)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert_refused(code, out, err, pattern, tmp_path, before)


# the directory that holds the softrpn package these tests import
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(softrpn.__file__)))


@pytest.mark.parametrize("row", REFUSALS, ids=[row.id for row in REFUSALS])
def test_refused_as_a_process(row, inputs, tmp_path):
    argv, pattern, before = prepared(row, inputs, tmp_path)
    done = subprocess.run([sys.executable, "-m", "softrpn.cli", *argv], capture_output=True,
                          text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
                          timeout=120)
    assert_refused(done.returncode, done.stdout, done.stderr, pattern, tmp_path, before)
