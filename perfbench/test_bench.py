"""Tests of the benchmark's own arithmetic, wrapping and checks.

    python3 -m pytest perfbench/test_bench.py
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_checks as bc  # noqa: E402
import bench_trace as bt  # noqa: E402
import run as bench  # noqa: E402
import softrpn.cli  # noqa: E402,F401  (tracing patches every softrpn module)
from softrpn import autograd as ag  # noqa: E402
from softrpn import data as dat  # noqa: E402
from softrpn import harness as hz  # noqa: E402
from softrpn import model as mdl  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = bt.Tracer(clock)
    root = tr.begin("root")            # 0 .. 10
    clock.now = 1.0
    a = tr.begin("a")                  # 1 .. 4
    clock.now = 2.0
    g = tr.begin("grandchild")         # 2 .. 3
    clock.now = 3.0
    tr.end(g)
    clock.now = 4.0
    tr.end(a)
    clock.now = 6.0
    b = tr.begin("b")                  # 6 .. 8.5
    clock.now = 8.5
    tr.end(b)
    clock.now = 10.0
    tr.end(root)
    assert tr.parents == [-1, root, a, root]
    assert tr.durations() == [10.0, 3.0, 1.0, 2.5]
    assert tr.self_times() == [10.0 - 3.0 - 2.5, 3.0 - 1.0, 1.0, 2.5]


def _bindings():
    """Every (module, attribute) -> object binding of the softrpn modules,
    plus the Tensor.backward method."""
    out = {(m, k): v for m in bt.SOFTRPN_MODULES for k, v in vars(sys.modules[m]).items()}
    out[("Tensor", "backward")] = vars(ag.Tensor)["backward"]
    return out


def test_install_wraps_names_where_they_are_looked_up_and_restores_them():
    before = _bindings()
    tracer = bt.Tracer()
    patches = bt.install(tracer)
    try:
        import softrpn.geometry as geo
        assert hz.iou_matrix is not before[("softrpn.harness", "iou_matrix")]
        assert geo.iou_matrix is not before[("softrpn.geometry", "iou_matrix")]
        assert hz.iou_matrix is geo.iou_matrix
        assert vars(ag.Tensor)["backward"] is not before[("Tensor", "backward")]
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [1.0, 1.0, 11.0, 11.0],
                          [30.0, 30.0, 40.0, 40.0]])
        keep = hz.nms(boxes, np.array([0.9, 0.8, 0.7]), 0.5)
    finally:
        patches.restore()
    assert list(keep) == [0, 2]
    assert tracer.names[0] == "harness.nms"
    assert tracer.names.count("geometry.iou_matrix") == 2
    assert all(tracer.parents[i] == 0 for i, n in enumerate(tracer.names)
               if n == "geometry.iou_matrix")
    assert (tracer.nms_in, tracer.nms_kept) == (3, 2)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_install_failure_leaves_no_wrapper(monkeypatch):
    before = _bindings()
    monkeypatch.setattr(bt, "TRACED_FUNCTIONS",
                        bt.TRACED_FUNCTIONS + (("softrpn.model", "no_such_fn", "x", bt._plain),))
    with pytest.raises(AttributeError):
        bt.install(bt.Tracer())
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_predict_attributes_conv_layers_and_nested_calls():
    records = dat.generate_benchmark(1, 64, 0.3, seed=0)
    config = hz.TrainConfig()
    params = mdl.init_params(config.d_embed, config.n_anchors, np.random.default_rng(0))
    tracer = bt.Tracer()
    patches = bt.install(tracer)
    try:
        hz.predict(params, records[0], config)
    finally:
        patches.restore()
    m = bt.layer_metrics(tracer, bt.replay_conv_backward(tracer.conv_shapes, reps=2))
    assert m["harness.predict.calls"] == 1
    assert m["autograd.conv2d.calls"] == 6
    assert set(tracer.conv_shapes) == set(bt.CONV_LAYERS)
    assert tracer.conv_shapes["backbone.conv0"] == ((64, 64, 1), (3, 3, 1, 8), 2, 1)
    assert all(m[f"autograd.conv2d.{layer}.fwd_us_p50"] > 0 for layer in bt.CONV_LAYERS)
    assert all(m[f"autograd.conv2d.{layer}.bwd_us_p50"] > 0 for layer in bt.CONV_LAYERS)
    assert m["geometry.iou_matrix.calls"] == tracer.names.count("geometry.iou_matrix") > 0
    # Method work outside training is not counted as training work.
    assert m["model.attention_map.calls"] == 0 and m["model.attention_ratio"] == 0.0


def test_graph_bytes_counts_each_tensor_once():
    x = ag.Tensor(np.ones(10), requires_grad=True)
    y = ag.add(x, x)                   # x reached twice
    loss = ag.tsum(y)
    assert bt.graph_bytes(loss) == 80 + 80 + 8


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def test_reported_metric_names_match_benchmark_json():
    doc = _benchmark_json()
    assert [m["name"] for m in doc["end_to_end"]] == list(bench.END_TO_END_UNITS)
    assert all(m["unit"] == bench.END_TO_END_UNITS[m["name"]] for m in doc["end_to_end"])
    assert [m["name"] for m in doc["per_layer"]] == bench.layer_metric_names()
    assert all(m["unit"] == bt.metric_unit(m["name"]) for m in doc["per_layer"])
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)


def test_flag_scores_match_the_documented_rule():
    dropped = {0: [(0.0, 0.0, 10.0, 10.0), (20.0, 20.0, 30.0, 30.0)], 1: []}
    flags = [{"image_id": 0, "box": [0.0, 0.0, 10.0, 12.0]},     # IoU 10/12: hit
             {"image_id": 0, "box": [0.0, 0.0, 10.0, 20.1]},     # IoU < 0.5: miss
             {"image_id": 1, "box": [0.0, 0.0, 10.0, 10.0]}]     # nothing withheld
    precision, recall = bc.flag_scores(flags, dropped)
    assert precision == pytest.approx(1 / 3)
    assert recall == pytest.approx(1 / 2)


def test_fingerprint_diff_tolerates_rounding_only():
    want = {"loss": {"0": 2.5}, "audit_flags": 7}
    assert bc.fingerprint_diff({"loss": {"0": 2.5 * (1 + 1e-12)}, "audit_flags": 7}, want) == []
    assert bc.fingerprint_diff({"loss": {"0": 2.5 * (1 + 1e-6)}, "audit_flags": 7}, want)
    assert bc.fingerprint_diff({"loss": {"0": 2.5}, "audit_flags": 8}, want)
    assert bc.fingerprint_diff({"audit_flags": 7}, want)
