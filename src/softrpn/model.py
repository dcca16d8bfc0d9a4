"""Backbone, RPN heads, per-anchor embeddings, attention between negative
and positive proposals, false-negative flagging, and the soft-label loss.

The network is four heads over a shared feature map:

    F_s   = backbone(image)            three 3x3/stride-2 convs, 1->8->16->32
    F_c   = relu(conv3x3(F_s))         shared RPN trunk
    deltas = conv1x1(F_c) -> na*4      box regression
    F_e   = conv1x1(F_c) -> na*D       per-anchor embeddings
    logits = grouped 1x1 over F_e -> na  objectness, one score per embedding

Attention rows are negatives, columns positives: each negative's row is the
softmax of its similarity to every positive embedding, computed on whitened
embeddings (see attention_map). A negative whose best similarity clears the
threshold is treated as a suspected missing annotation and supervised with
that similarity as a soft target instead of a hard zero. The map is a
constant of the loss: no gradient flows through it into the embeddings.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import struct
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import autograd as ag
from .autograd import Tensor

BACKBONE_STRIDE = 8
MIN_EXTENT = 16
BACKBONE_CHANNELS = (8, 16, 32)

# Anchors of each BACKBONE_STRIDE cell: one per scale, at ratio ANCHOR_ASPECT.
ANCHOR_SCALES = (16.0, 32.0, 64.0)
ANCHOR_ASPECT = 1.0
N_ANCHORS = len(ANCHOR_SCALES)


@dataclass
class AttentionMap:
    a: np.ndarray             # (N_neg, N_pos), rows sum to 1
    row_max: np.ndarray       # (N_neg,)


@dataclass
class ProposalBatch:
    """Flat per-anchor model outputs for one image in row-major (gy, gx,
    anchor) order, index-aligned with harness.anchors_for on that image; a
    block forward adds a leading axis of one entry per image."""
    probs: Tensor        # (N,) objectness
    deltas: Tensor       # (N, 4)
    embeddings: Tensor   # (N, D)


@dataclass
class RpnLosses:
    l_pos: Tensor
    l_neg: Tensor
    l_reg: Tensor
    total: Tensor
    flagged: np.ndarray  # indices into the negative subset whose soft label fired


def init_params(d_embed: int, n_anchors: int, rng: np.random.Generator) -> dict[str, Tensor]:
    """He-initialized parameter dict keyed by stable names."""
    def conv(name, k, cin, cout):
        fan_in = k * k * cin
        w = rng.standard_normal((k, k, cin, cout)) * np.sqrt(2.0 / fan_in)
        params[name + ".w"] = Tensor(w, requires_grad=True)
        params[name + ".b"] = Tensor(np.zeros(cout), requires_grad=True)

    params: dict[str, Tensor] = {}
    c = 1
    for i, cout in enumerate(BACKBONE_CHANNELS):
        conv(f"backbone.conv{i}", 3, c, cout)
        c = cout
    conv("rpn.share", 3, c, c)
    conv("rpn.reg", 1, c, n_anchors * 4)
    conv("rpn.embed", 1, c, n_anchors * d_embed)
    params["rpn.cls.w"] = Tensor(
        rng.standard_normal((n_anchors, d_embed)) * np.sqrt(1.0 / d_embed),
        requires_grad=True)
    params["rpn.cls.b"] = Tensor(np.zeros(n_anchors), requires_grad=True)
    return params


def extent_ok(h: int, w: int) -> bool:
    """Whether forward_rpn runs on an h x w image: both extents multiples of
    BACKBONE_STRIDE and at least MIN_EXTENT."""
    return not (h % BACKBONE_STRIDE or w % BACKBONE_STRIDE
                or h < MIN_EXTENT or w < MIN_EXTENT)


def forward_rpn(image: Tensor, params: dict[str, Tensor]) -> ProposalBatch:
    """Run backbone + heads on an (H, W, 1) image; see extent_ok. The anchor
    count and the embedding width are read from the shape of rpn.cls.w.

    image may also be a (B, H, W, 1) block of images of one extent; every
    output then has a leading block axis, and image i's outputs equal those
    of forwarding it alone. One backward through a block gives each
    parameter the gradients of one backward per image, accumulated in block
    order, float for float (see autograd.conv2d)."""
    if image.data.ndim not in (3, 4):
        raise ag.GraphError(f"image must be (H, W, 1) or (B, H, W, 1), got {image.shape}")
    *lead, h, w, _ = image.shape
    if not extent_ok(h, w):
        raise ag.GraphError(f"image extent {h}x{w} must be >= {MIN_EXTENT} and "
                            f"divisible by {BACKBONE_STRIDE}")

    def layer(x, name, stride=1, pad=0, relu=False):
        return ag.conv2d(x, params[name + ".w"], stride, pad,
                         bias=params[name + ".b"], relu=relu)

    x = image
    for i in range(len(BACKBONE_CHANNELS)):
        x = layer(x, f"backbone.conv{i}", stride=2, pad=1, relu=True)
    fc = layer(x, "rpn.share", pad=1, relu=True)
    freg = layer(fc, "rpn.reg")
    fe = layer(fc, "rpn.embed")
    logits = ag.anchor_scores(fe, params["rpn.cls.w"], params["rpn.cls.b"])
    n = math.prod(logits.shape[-3:])
    return ProposalBatch(
        probs=ag.reshape(ag.sigmoid(logits), (*lead, n)),
        deltas=ag.reshape(freg, (*lead, n, 4)),
        embeddings=ag.reshape(fe, (*lead, n, params["rpn.cls.w"].shape[1])),
    )


# Logit magnitude for the attention softmax. The cosine logits lie in
# [-SCALE, SCALE], so no row max can exceed 1/(1 + exp(-2*SCALE)); with
# SCALE = 10 that bound is 1 - 2.06e-9, keeping a threshold of 1 - 1e-9
# unreachable for every embedding dimension (the soft loss then collapses
# exactly to the baseline loss).
ATTENTION_LOGIT_SCALE = 10.0

# Shrinkage mixed into the batch covariance before inversion, as a fraction
# of the mean eigenvalue; keeps the whitening transform well-conditioned
# for small or rank-deficient batches.
ATTENTION_SHRINKAGE = 0.01


def whitening_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and shrinkage-regularized ZCA transform of a row batch."""
    d = rows.shape[1]
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / len(rows)
    cov += (ATTENTION_SHRINKAGE * np.trace(cov) / d + 1e-12) * np.eye(d)
    evals, evecs = np.linalg.eigh(cov)
    transform = evecs @ ((evals ** -0.5)[:, None] * evecs.T)
    return mean, transform


def _standardize_rows(x: np.ndarray) -> np.ndarray:
    """Each row shifted to zero mean and scaled to unit variance."""
    centered = x - x.mean(axis=1, keepdims=True)
    return centered / np.sqrt((centered * centered).mean(axis=1, keepdims=True) + 1e-12)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Each row scaled to unit L2 norm; a row of norm below 1e-12 becomes zeros."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    tiny = norms < 1e-12
    return np.where(tiny, 0.0, x / np.where(tiny, 1.0, norms))


def attention_map(neg_embeddings: np.ndarray, pos_embeddings: np.ndarray
                  ) -> AttentionMap:
    """Row-stochastic similarity attention between (n, D) negative and
    positive embeddings.

    Each embedding row is standardized (zero mean, unit variance across its
    features), the joint batch is whitened with a shrinkage-regularized ZCA
    transform, and the whitened rows are L2-normalized so the logits are
    cosines in [-1, 1], scaled by ATTENTION_LOGIT_SCALE. Whitening equalizes
    the variance of every embedding direction: without it the few directions
    the objectness head trains dominate every similarity and all rows go
    flat. Per-row standardization first makes the map invariant to positive
    rescaling (and shifting) of any single embedding.

    The map is a constant of the loss: soft_label_loss reads only its row
    maxima as fixed targets, so it is computed on plain arrays, off the
    autograd tape."""
    if pos_embeddings.shape[0] == 0:
        raise ag.GraphError("attention map needs at least one positive proposal")
    if neg_embeddings.shape[0] == 0:
        raise ag.GraphError("attention map needs at least one negative proposal")
    zn = _standardize_rows(neg_embeddings)
    zp = _standardize_rows(pos_embeddings)
    mean, transform = whitening_stats(np.concatenate([zn, zp]))
    cn = _unit_rows((zn - mean) @ transform)
    cp = _unit_rows((zp - mean) @ transform)
    # A contiguous copy of cp.T, not the strided view: BLAS rounds the two
    # products differently, and the copy reproduces the training logs,
    # checkpoints and audits of earlier versions bit for bit.
    logits = (cn @ cp.T.copy()) * ATTENTION_LOGIT_SCALE
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    return AttentionMap(a=a, row_max=a.max(axis=1))


def check_threshold(t: float):
    """Refuse an attention threshold outside (0, 1)."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")


def detect_false_negatives(amap: AttentionMap, t: float) -> np.ndarray:
    """Sorted indices of the negatives whose row max is >= t."""
    check_threshold(t)
    return np.flatnonzero(amap.row_max >= t)


def soft_label_loss(pos_probs: Tensor, neg_probs: Tensor,
                    pos_deltas: Tensor, pos_delta_targets: np.ndarray,
                    amap: Optional[AttentionMap], t: float) -> RpnLosses:
    """Classification + regression losses over a sampled proposal set.

    L_pos averages bce(p, 1) over positives; L_reg averages smooth-L1 of the
    positive delta predictions; L_neg averages bce(p, target) over negatives
    where the target is max(A_i) for rows clearing the threshold and 0
    otherwise. Soft targets are constants: no gradient flows through them,
    so the attention cannot lower the loss by inflating itself.

    With amap None (no positives exist) L_pos and L_reg are zero and every
    negative keeps its hard zero target.
    """
    check_threshold(t)
    n_pos = pos_probs.shape[0]
    n_neg = neg_probs.shape[0]
    targets = np.zeros(n_neg)
    flagged = np.zeros(0, dtype=np.intp)
    if amap is not None and n_neg:
        flagged = detect_false_negatives(amap, t)
        targets[flagged] = amap.row_max[flagged]
    if n_neg:
        l_neg = ag.scale(ag.tsum(ag.bce_loss(neg_probs, targets)), 1.0 / n_neg)
    else:
        l_neg = Tensor(0.0)
    if n_pos:
        l_pos = ag.scale(ag.tsum(ag.bce_loss(pos_probs, np.ones(n_pos))), 1.0 / n_pos)
        l_reg = ag.scale(ag.tsum(ag.smooth_l1(pos_deltas, pos_delta_targets)), 1.0 / n_pos)
    else:
        l_pos = Tensor(0.0)
        l_reg = Tensor(0.0)
    total = ag.add(ag.add(l_pos, l_neg), l_reg)
    return RpnLosses(l_pos=l_pos, l_neg=l_neg, l_reg=l_reg, total=total, flagged=flagged)


def sample_proposals(labels: np.ndarray, n_total: int, pos_fraction: float,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Subsample anchor indices for one loss step: up to
    floor(n_total * pos_fraction) positives, remainder negatives, without
    replacement, deterministic given the generator state.

    labels is an int array with 1 = positive, 0 = negative, -1 = ignore.
    """
    if n_total < 1 or not 0.0 < pos_fraction < 1.0:
        raise ValueError("need n_total >= 1 and pos_fraction in (0, 1)")
    pos = np.nonzero(labels == 1)[0]
    neg = np.nonzero(labels == 0)[0]
    quota = max(1, int(n_total * pos_fraction))
    if len(pos) > quota:
        pos = np.sort(rng.choice(pos, size=quota, replace=False))
    n_neg = min(len(neg), n_total - len(pos))
    if len(neg) > n_neg:
        neg = np.sort(rng.choice(neg, size=n_neg, replace=False))
    return pos, neg


# -- output and checkpoint io -------------------------------------------------

CHECKPOINT_MAGIC = b"SRPN"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    pass


def _open_if_regular(path) -> int | None:
    """A read-only descriptor on the regular file at path, or None. O_NONBLOCK
    keeps a FIFO from blocking the open; any OSError means nothing is held."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError:
        return None
    if stat.S_ISREG(os.fstat(fd).st_mode):
        return fd
    os.close(fd)
    return None


def _close_old(fd: int):
    os.close(fd)


def write_file(path, chunks: Iterable[bytes]):
    """Replace path atomically with the concatenation of chunks: write
    <path>.tmp, then rename it over path, so a failed write (including an
    exception raised while producing the chunks) never leaves a partial file
    at path. Chunks are written as they come, so a caller can stream a large
    output without building it in memory.

    Dropping the last reference to a file whose blocks are allocated frees
    them, which on ext4 mounted with `discard` stalls for tens of
    milliseconds. So the file path names before the rename is held open
    across it and closed on a daemon thread: the rename is as atomic as
    before, and the caller does not wait for the blocks to be freed."""
    tmp = str(path) + ".tmp"
    f = open(tmp, "wb")   # outside the try: a failed open created nothing to remove
    old = None
    try:
        with f:
            f.writelines(chunks)
        old = _open_if_regular(path)
        os.replace(tmp, path)
    except BaseException:
        if old is not None:
            os.close(old)
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    if old is not None:
        threading.Thread(target=_close_old, args=(old,), daemon=True).start()


def save_checkpoint(path, params: dict[str, Tensor], meta: dict | None = None):
    """Binary checkpoint: magic, version, JSON header (names, shapes, meta),
    then the raw float64 little-endian payload in header order. Written
    through write_file, so a failed save never leaves a partial file at
    path."""
    header = {
        "version": CHECKPOINT_VERSION,
        "tensors": [{"name": k, "shape": list(v.shape)} for k, v in sorted(params.items())],
        "meta": meta or {},
    }
    hb = json.dumps(header).encode("utf-8")

    def chunks():
        yield CHECKPOINT_MAGIC
        yield struct.pack("<II", CHECKPOINT_VERSION, len(hb))
        yield hb
        for k in sorted(params):
            yield params[k].data.astype("<f8").tobytes()

    write_file(path, chunks())


def _read_header(f, path) -> tuple[list[tuple[str, tuple[int, ...]]], dict]:
    """(name, shape) of each tensor in payload order, and the meta dict."""
    if f.read(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    fixed = f.read(8)
    if len(fixed) != 8:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    version, hlen = struct.unpack("<II", fixed)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(f.read(hlen).decode("utf-8"))
        tensors = [(str(rec["name"]), tuple(int(d) for d in rec["shape"]))
                   for rec in header["tensors"]]
        meta = header.get("meta", {})
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint header ({e!r})") from e
    if not isinstance(meta, dict) or any(d < 0 for _, shape in tensors for d in shape):
        raise CheckpointError(f"{path}: malformed checkpoint header")
    return tensors, meta


def load_checkpoint(path) -> tuple[dict[str, Tensor], dict]:
    with open(path, "rb") as f:
        tensors, meta = _read_header(f, path)
        params: dict[str, Tensor] = {}
        for name, shape in tensors:
            count = int(np.prod(shape)) if shape else 1
            raw = f.read(count * 8)
            if len(raw) != count * 8:
                raise CheckpointError(f"{path}: truncated payload for tensor {name}")
            params[name] = Tensor(
                np.frombuffer(raw, dtype="<f8").reshape(shape).copy(),
                requires_grad=True)
    return params, meta
