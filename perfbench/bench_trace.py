"""Span tracing for the softrpn benchmark.

The tracer wraps public softrpn functions from outside the package. Every
call of a wrapped function records one span (name, start, end, parent) in
memory; per-layer metrics are derived from the spans after the traced run.

A function is wrapped under every name it is bound to in a softrpn module,
not only where it is defined: ``harness`` imports ``iou_matrix`` by name,
so patching ``softrpn.geometry.iou_matrix`` alone would miss every call made
from ``harness``. ``Patches.restore`` puts every original binding back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

SOFTRPN_MODULES = ("softrpn.autograd", "softrpn.geometry", "softrpn.model",
                   "softrpn.data", "softrpn.harness", "softrpn.cli")

# The six convolutions of model.forward_rpn, by parameter-name prefix.
CONV_LAYERS = ("backbone.conv0", "backbone.conv1", "backbone.conv2",
               "rpn.share", "rpn.reg", "rpn.embed")


class Tracer:
    """In-memory span store. Spans are kept as parallel lists, indexed by
    span id; ``parents[i]`` is the id of the span open when span i began,
    or -1 for a root span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        # Observations made by individual wrappers.
        self.param_names: dict[int, str] = {}        # id(kernel Tensor) -> layer
        self.conv_shapes: dict[str, tuple] = {}      # layer -> (x shape, k shape, stride, pad)
        self.nms_in = 0
        self.nms_kept = 0
        self.iou_out_bytes_max = 0
        self.graph_bytes_max = 0

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int):
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of begin/end, for call sites in the benchmark."""
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def __len__(self):
        return len(self.names)

    # -- derived quantities --------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.
        Spans come from one thread, so children never overlap: their
        durations sum to the time they cover."""
        out = self.durations()
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= self.ends[i] - self.starts[i]
        return out

    def has_ancestor(self, idx: int, name: str) -> bool:
        p = self.parents[idx]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False


class Patches:
    """Replaces function bindings in loaded softrpn modules and restores
    them. ``bind_everywhere`` rebinds every module attribute that *is* the
    original function object, which covers names imported with
    ``from .geometry import iou_matrix``."""

    def __init__(self):
        self.modules = [sys.modules[m] for m in SOFTRPN_MODULES]
        self._saved: list[tuple[object, str, object]] = []

    def bind_everywhere(self, original, replacement):
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def set(self, owner, attr: str, replacement):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _plain(tracer: Tracer, name: str, fn):
    begin, end = tracer.begin, tracer.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            end(idx)
    return wrapper


def _conv2d(tracer: Tracer, name: str, fn):
    """Names each conv span after the parameter its kernel is, and records
    the first call's shapes per layer for the backward replay."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        kernel = args[1] if len(args) > 1 else kwargs["kernel"]
        layer = tracer.param_names.get(id(kernel), "other")
        if layer not in tracer.conv_shapes:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            tracer.conv_shapes[layer] = (a["x"].shape, a["kernel"].shape,
                                         a["stride"], a["pad"])
        idx = tracer.begin(f"{name}.{layer}")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _forward_rpn(tracer: Tracer, name: str, fn):
    """Learns which kernel tensor belongs to which layer from the params."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        params = args[1] if len(args) > 1 else kwargs["params"]
        tracer.param_names = {id(params[layer + ".w"]): layer
                              for layer in CONV_LAYERS if layer + ".w" in params}
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _iou_matrix(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if out.nbytes > tracer.iou_out_bytes_max:
            tracer.iou_out_bytes_max = out.nbytes
        return out
    return wrapper


def _nms(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(boxes, *args, **kwargs):
        idx = tracer.begin(name)
        try:
            keep = fn(boxes, *args, **kwargs)
        finally:
            tracer.end(idx)
        tracer.nms_in += len(boxes)
        tracer.nms_kept += len(keep)
        return keep
    return wrapper


def graph_bytes(root) -> int:
    """Bytes of array data held by every tensor reachable from ``root``
    through the autograd tape (activations, parameters and constants)."""
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        total += node.data.nbytes
        stack.extend(node._prev)
    return total


def _backward(tracer: Tracer, name: str, fn):
    """Measures the tape's size before the sweep; the walk happens outside
    the span, so it lands in the caller's self time and in the overhead."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        size = graph_bytes(self)
        if size > tracer.graph_bytes_max:
            tracer.graph_bytes_max = size
        idx = tracer.begin(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


# (module, attribute, span name, wrapper factory). Tensor.backward is a
# method and is patched on the class instead.
TRACED_FUNCTIONS = (
    ("softrpn.autograd", "conv2d", "autograd.conv2d", _conv2d),
    ("softrpn.autograd", "anchor_scores", "autograd.anchor_scores", _plain),
    ("softrpn.geometry", "iou_matrix", "geometry.iou_matrix", _iou_matrix),
    ("softrpn.geometry", "generate_anchors", "geometry.generate_anchors", _plain),
    ("softrpn.geometry", "match_anchors", "geometry.match_anchors", _plain),
    ("softrpn.model", "forward_rpn", "model.forward_rpn", _forward_rpn),
    ("softrpn.model", "attention_map", "model.attention_map", _plain),
    ("softrpn.model", "whitening_stats", "model.whitening_stats", _plain),
    ("softrpn.model", "soft_label_loss", "model.soft_label_loss", _plain),
    ("softrpn.model", "sample_proposals", "model.sample_proposals", _plain),
    ("softrpn.model", "save_checkpoint", "model.save_checkpoint", _plain),
    ("softrpn.model", "load_checkpoint", "model.load_checkpoint", _plain),
    ("softrpn.data", "generate_benchmark", "data.generate_benchmark", _plain),
    ("softrpn.data", "save_dataset", "data.save_dataset", _plain),
    ("softrpn.data", "load_dataset", "data.load_dataset", _plain),
    ("softrpn.data", "read_pgm", "data.read_pgm", _plain),
    ("softrpn.harness", "train", "harness.train", _plain),
    ("softrpn.harness", "match_dataset", "harness.match_dataset", _plain),
    ("softrpn.harness", "predict", "harness.predict", _plain),
    ("softrpn.harness", "nms", "harness.nms", _nms),
    ("softrpn.harness", "average_precision", "harness.average_precision", _plain),
    ("softrpn.harness", "evaluate", "harness.evaluate", _plain),
    ("softrpn.harness", "audit_flags", "harness.audit_flags", _plain),
    ("softrpn.harness", "score_fn_detection", "harness.score_fn_detection", _plain),
)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced function wherever it is bound; returns the
    patches, which the caller must restore."""
    patches = Patches()
    try:
        for module, attr, name, factory in TRACED_FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            patches.bind_everywhere(original, factory(tracer, name, original))
        tensor = sys.modules["softrpn.autograd"].Tensor
        patches.set(tensor, "backward",
                    _backward(tracer, "autograd.backward", vars(tensor)["backward"]))
    except BaseException:
        patches.restore()
        raise
    return patches


# -- per-layer metrics ------------------------------------------------------------

def _p50_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def layer_metrics(tracer: Tracer, conv_backward_s: dict[str, list[float]]
                  ) -> dict[str, float]:
    """Per-layer numbers of one traced cycle. ``conv_backward_s`` holds the
    replayed backward times per conv layer (see replay_conv_backward)."""
    dur = tracer.durations()
    own = tracer.self_times()
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, n in enumerate(tracer.names):
        by_name[n].append(i)

    def calls(n):
        return len(by_name.get(n, ()))

    def total_ms(n):
        return sum(dur[i] for i in by_name.get(n, ())) * 1e3

    def self_ms(n):
        return sum(own[i] for i in by_name.get(n, ())) * 1e3

    def p50_us(n):
        return _p50_us([dur[i] for i in by_name.get(n, ())])

    def within(n, ancestor):
        """Durations of the spans named n that run inside an ancestor span."""
        return [dur[i] for i in by_name.get(n, ()) if tracer.has_ancestor(i, ancestor)]

    m: dict[str, float] = {}
    for cmd in ("train", "eval", "audit"):
        m[f"cli.{cmd}.self_ms"] = self_ms(f"cli.{cmd}")
    for fn in ("generate_benchmark", "save_dataset", "load_dataset"):
        m[f"data.{fn}.ms"] = total_ms(f"data.{fn}")
    m["data.read_pgm.calls"] = calls("data.read_pgm")
    m["data.read_pgm.us_p50"] = p50_us("data.read_pgm")
    for fn in ("iou_matrix", "generate_anchors", "match_anchors"):
        m[f"geometry.{fn}.calls"] = calls(f"geometry.{fn}")
        m[f"geometry.{fn}.self_ms"] = self_ms(f"geometry.{fn}")
    m["geometry.iou_matrix.out_kb_max"] = tracer.iou_out_bytes_max / 1024
    conv_spans = [n for n in by_name if n.startswith("autograd.conv2d.")]
    m["autograd.conv2d.calls"] = sum(calls(n) for n in conv_spans)
    for layer in CONV_LAYERS:
        m[f"autograd.conv2d.{layer}.fwd_us_p50"] = p50_us(f"autograd.conv2d.{layer}")
        m[f"autograd.conv2d.{layer}.bwd_us_p50"] = _p50_us(conv_backward_s.get(layer, []))
    m["autograd.backward.calls"] = calls("autograd.backward")
    m["autograd.backward.self_ms"] = self_ms("autograd.backward")
    m["autograd.backward.graph_mb_max"] = tracer.graph_bytes_max / 2**20
    m["autograd.anchor_scores.fwd_us_p50"] = p50_us("autograd.anchor_scores")
    m["model.forward_rpn.self_ms"] = self_ms("model.forward_rpn")
    # The method's training-time work is counted inside harness.train only:
    # eval and audit also build attention maps, and count separately.
    for fn in ("attention_map", "whitening_stats", "soft_label_loss", "sample_proposals"):
        in_train = within(f"model.{fn}", "harness.train")
        m[f"model.{fn}.calls"] = len(in_train)
        m[f"model.{fn}.us_p50"] = _p50_us(in_train)
    in_audit = within("model.attention_map", "harness.audit_flags")
    m["model.attention_map.audit_calls"] = len(in_audit)
    m["model.attention_map.audit_us_p50"] = _p50_us(in_audit)
    fwd_in_train = len(within("model.forward_rpn", "harness.train"))
    m["model.attention_ratio"] = (m["model.attention_map.calls"] / fwd_in_train
                                  if fwd_in_train else 0.0)
    m["model.save_checkpoint.ms"] = total_ms("model.save_checkpoint")
    m["model.load_checkpoint.ms"] = total_ms("model.load_checkpoint")
    m["harness.train.self_ms"] = self_ms("harness.train")
    m["harness.match_dataset.ms"] = total_ms("harness.match_dataset")
    for fn in ("predict", "nms"):
        m[f"harness.{fn}.calls"] = calls(f"harness.{fn}")
        m[f"harness.{fn}.us_p50"] = p50_us(f"harness.{fn}")
    m["harness.nms.kept_ratio"] = tracer.nms_kept / tracer.nms_in if tracer.nms_in else 0.0
    m["harness.average_precision.calls"] = calls("harness.average_precision")
    m["harness.average_precision.ms"] = total_ms("harness.average_precision")
    m["harness.evaluate.self_ms"] = self_ms("harness.evaluate")
    m["harness.audit_flags.self_ms"] = self_ms("harness.audit_flags")
    m["harness.score_fn_detection.ms"] = total_ms("harness.score_fn_detection")
    m["trace.spans"] = len(tracer)
    return m


_UNITS = {"calls": "count", "spans": "count", "self_ms": "ms", "ms": "ms",
          "overhead_ms": "ms", "us_p50": "us", "fwd_us_p50": "us", "bwd_us_p50": "us",
          "audit_calls": "count", "audit_us_p50": "us",
          "out_kb_max": "KiB", "graph_mb_max": "MiB"}


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its last name component; ratios
    and scores are unitless."""
    return _UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def replay_conv_backward(conv_shapes: dict[str, tuple], reps: int,
                         seed: int = 0) -> dict[str, list[float]]:
    """Backward time of each conv layer, measured through public calls:
    conv2d on random inputs of the layer's recorded shapes, summed to a
    scalar, then Tensor.backward. Call with the tracer uninstalled."""
    import numpy as np
    ag = sys.modules["softrpn.autograd"]
    rng = np.random.default_rng(seed)
    out: dict[str, list[float]] = {}
    for layer, (x_shape, k_shape, stride, pad) in conv_shapes.items():
        times = []
        for _ in range(reps):
            x = ag.Tensor(rng.standard_normal(x_shape), requires_grad=True)
            k = ag.Tensor(rng.standard_normal(k_shape), requires_grad=True)
            loss = ag.tsum(ag.conv2d(x, k, stride=stride, pad=pad))
            t0 = time.perf_counter()
            loss.backward()
            times.append(time.perf_counter() - t0)
        out[layer] = times
    return out
