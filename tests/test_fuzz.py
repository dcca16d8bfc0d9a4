"""Bounded fuzzing of every reader of user input: checkpoint bytes, PGM
bytes, COCO-lite documents and configs. Each mutated input is read as a
valid value or refused with one of the exceptions cli.main reports as a
single `error:` line (cli.ERRORS); a few eval runs on mutated inputs check
that line, and that nothing is left behind."""

import contextlib
import copy
import io
import json
import math
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from softrpn import cli
from softrpn import data as dat
from softrpn import harness as hz
from softrpn import model as mdl
from softrpn.autograd import Tensor

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# bytes that keep a mutated JSON header or PGM header nearly well-formed
SYNTAX = b'0123456789-+.eE[]{}",: \n'
byte_values = st.one_of(st.integers(0, 255), st.sampled_from(SYNTAX))


def byte_edits(size: int):
    """Up to four single-byte edits (set, insert or delete at a position),
    then a cut to a length; positions past the end act at the end."""
    edit = st.tuples(st.integers(0, size), st.sampled_from(["set", "insert", "delete"]),
                     byte_values)
    return st.tuples(st.lists(edit, min_size=1, max_size=4), st.integers(0, size + 4))


def mutated(raw: bytes, edits) -> bytes:
    changes, keep = edits
    out = bytearray(raw)
    for pos, op, value in changes:
        pos = min(pos, len(out))
        if op == "insert":
            out.insert(pos, value)
        elif pos < len(out):
            if op == "set":
                out[pos] = value
            else:
                del out[pos]
    return bytes(out[:keep])


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as root:
        yield root


def write(path, raw: bytes):
    with open(path, "wb") as f:
        f.write(raw)


# -- the four readers ----------------------------------------------------------

def small_checkpoint() -> bytes:
    """The bytes of a two-tensor checkpoint with a config in its meta."""
    params = {"a": Tensor(np.arange(6.0).reshape(2, 3)), "b": Tensor(np.array([0.5, -1.0]))}
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "small.srpn")
        mdl.save_checkpoint(path, params, meta={"config": hz.TrainConfig().to_dict()})
        with open(path, "rb") as f:
            return f.read()


CHECKPOINT = small_checkpoint()


@FUZZ
@given(edits=byte_edits(len(CHECKPOINT)))
def test_checkpoint_reader(workdir, edits):
    path = os.path.join(workdir, "fuzz.srpn")
    write(path, mutated(CHECKPOINT, edits))
    try:
        params, meta = mdl.load_checkpoint(path)
    except cli.ERRORS:
        return
    assert isinstance(meta, dict)
    for name, p in params.items():
        assert isinstance(name, str) and p.data.dtype == np.float64
        assert np.isfinite(p.data).all()


PGM = b"P5\n3 4\n65535\n" + bytes(range(24))


@FUZZ
@given(edits=byte_edits(len(PGM)))
def test_pgm_reader(workdir, edits):
    path = os.path.join(workdir, "fuzz.pgm")
    write(path, mutated(PGM, edits))
    try:
        q = dat.read_pgm(path)
    except cli.ERRORS:
        return
    assert q.dtype == np.uint16 and q.ndim == 2


JSON_VALUES = [None, True, False, 0, -1, 7, 1.5, -2.5, 1e308, 10 ** 400, math.nan,
               math.inf, "", "x", "../x.pgm", [], [1], [0, 0, 1, 1], [0, 0, "1", 1], {},
               {"id": 1}]


def paths(node, at=()):
    """The path of every value in a JSON document, the root's first."""
    yield at
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from paths(child, at + (key,))


def edited(doc, data):
    """doc with up to four values, at paths data draws, dropped or retyped."""
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.sampled_from(list(paths(doc))))
        value = data.draw(st.sampled_from(["drop"] + JSON_VALUES))
        if not at:
            doc = copy.deepcopy(value) if value != "drop" else {}
            continue
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        if value == "drop":
            del parent[at[-1]]
        else:
            parent[at[-1]] = copy.deepcopy(value)
    return doc


def cocolite_doc() -> dict:
    return {"images": [{"id": 0, "file_name": "a.pgm", "height": 16, "width": 24},
                       {"id": 5, "file_name": "b.pgm", "height": 32, "width": 16}],
            "annotations": [{"id": 1, "image_id": 0, "bbox": [1, 2, 3, 4], "category_id": 1},
                            {"id": 2, "image_id": 5, "bbox": [0.5, 0, 10, 31.5]},
                            {"id": 3, "image_id": 0, "bbox": [20, 10, 4, 6]}],
            "categories": [{"id": 1, "name": "flake"}]}


@FUZZ
@given(data=st.data())
def test_cocolite_reader(workdir, data):
    path = os.path.join(workdir, "fuzz.json")
    with open(path, "w") as f:
        json.dump(edited(cocolite_doc(), data), f)
    try:
        images, boxes = dat.read_cocolite(path)
    except cli.ERRORS:
        return
    extents = {}
    for image_id, file_name, height, width in images:
        assert all(type(v) is int for v in (image_id, height, width))
        assert isinstance(file_name, str)
        extents[image_id] = (width, height)
    for image_id, b in boxes.items():
        assert b.dtype == np.float64 and b.ndim == 2 and b.shape[1] == 4
        assert (b[:, :2] >= 0).all() and (b[:, 2:] > b[:, :2]).all()
        assert (b[:, 2:] <= extents[image_id]).all()


@FUZZ
@given(data=st.data())
def test_config_reader(data):
    doc = {**hz.TrainConfig().to_dict(), "stride": 8, "image_size": 64}
    doc["milestones"] = list(doc["milestones"])
    try:
        config = hz.TrainConfig.from_dict(edited(doc, data))
    except cli.ERRORS:
        return
    assert hz.TrainConfig.from_dict(config.to_dict()) == config


# -- through cli.main ----------------------------------------------------------

@pytest.fixture(scope="module")
def eval_inputs(workdir):
    """A two-image dataset and a checkpoint eval accepts, as bytes of each file."""
    data = os.path.join(workdir, "data")
    dat.save_dataset(data, dat.generate_benchmark(2, 64, 0.5, seed=3))
    config = hz.TrainConfig(d_embed=2)
    ckpt = os.path.join(workdir, "checkpoint.srpn")
    mdl.save_checkpoint(ckpt, mdl.init_params(config.d_embed, mdl.N_ANCHORS,
                                              np.random.default_rng(0)),
                        meta={"config": config.to_dict()})
    files = {name: os.path.join(data, name) for name in ("train.json", "dropped.json")}
    files["image"] = os.path.join(data, "images", "img_000001.pgm")
    files["checkpoint"] = ckpt
    originals = {}
    for name, path in files.items():
        with open(path, "rb") as f:
            originals[name] = f.read()
    return files, originals


def refused_eval(files, originals, name, raw):
    """Run eval with file name's bytes replaced by raw, then restore them:
    exit 1, one `error:` line, and no report, manifest or .tmp file."""
    report = os.path.join(os.path.dirname(files["checkpoint"]), "out", "report.json")
    os.makedirs(os.path.dirname(report), exist_ok=True)
    write(files[name], raw)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            # a real process prints a warning as a second stderr line
            warnings.simplefilter("error")
            code = cli.main(["eval", "--checkpoint", files["checkpoint"],
                             "--data", os.path.dirname(files["train.json"]),
                             "--report", report])
    finally:
        write(files[name], originals[name])
    lines = err.getvalue().splitlines()
    left = os.listdir(os.path.dirname(report))
    shutil.rmtree(os.path.dirname(report))
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines
    assert left == [], left


CLI = settings(max_examples=15, deadline=None,
               suppress_health_check=[HealthCheck.function_scoped_fixture])


@CLI
@given(cut=st.floats(0.0, 1.0, exclude_max=True), name=st.sampled_from(["checkpoint", "image"]))
def test_eval_refuses_a_truncated_file(eval_inputs, cut, name):
    files, originals = eval_inputs
    raw = originals[name]
    refused_eval(files, originals, name, raw[:int(cut * len(raw))])


@CLI
@given(data=st.data())
def test_eval_refuses_a_missing_field(eval_inputs, data):
    files, originals = eval_inputs
    name = data.draw(st.sampled_from(["train.json", "dropped.json"]))
    doc = json.loads(originals[name])
    table = data.draw(st.sampled_from(["images", "annotations"]))
    if not doc[table]:
        table = "images"
    rec = doc[table][data.draw(st.integers(0, len(doc[table]) - 1))]
    del rec[data.draw(st.sampled_from(
        ["id", "file_name", "height", "width"] if table == "images"
        else ["id", "image_id", "bbox"]))]
    refused_eval(files, originals, name, json.dumps(doc).encode())
