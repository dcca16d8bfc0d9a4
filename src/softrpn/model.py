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
that similarity as a soft target instead of a hard zero.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Optional

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
    a: Tensor                 # (N_neg, N_pos), rows sum to 1
    row_max: np.ndarray       # (N_neg,)


@dataclass
class ProposalBatch:
    """Flat per-anchor model outputs for one image in row-major (gy, gx,
    anchor) order, index-aligned with harness.anchors_for on that image."""
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
    count and the embedding width are read from the shape of rpn.cls.w."""
    h, w = image.shape[0], image.shape[1]
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
    n = logits.size
    return ProposalBatch(
        probs=ag.reshape(ag.sigmoid(logits), (n,)),
        deltas=ag.reshape(freg, (n, 4)),
        embeddings=ag.reshape(fe, (n, params["rpn.cls.w"].shape[1])),
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


def whitening_stats(rows: np.ndarray,
                    shrinkage: float = ATTENTION_SHRINKAGE
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Mean and shrinkage-regularized ZCA transform of a row batch."""
    d = rows.shape[1]
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / len(rows)
    cov += (shrinkage * np.trace(cov) / d + 1e-12) * np.eye(d)
    evals, evecs = np.linalg.eigh(cov)
    transform = evecs @ ((evals ** -0.5)[:, None] * evecs.T)
    return mean, transform


def attention_map(neg_embeddings: Tensor, pos_embeddings: Tensor,
                  stats: Optional[tuple[np.ndarray, np.ndarray]] = None
                  ) -> AttentionMap:
    """Row-stochastic similarity attention between negative and positive
    embeddings.

    Each embedding row is standardized (zero mean, unit variance across its
    features), the joint batch is whitened with a shrinkage-regularized ZCA
    transform, and the whitened rows are L2-normalized so the logits are
    cosines in [-1, 1], scaled by ATTENTION_LOGIT_SCALE. Whitening equalizes
    the variance of every embedding direction: without it the few directions
    the objectness head trains dominate every similarity and all rows go
    flat. The whitening statistics (mean and transform) are computed from
    the batch and treated as constants, like inference-time batch-norm
    statistics; gradients still flow into both embedding sets through the
    whitened coordinates. Per-row standardization first makes the map
    invariant to positive rescaling (and shifting) of any single embedding.

    `stats` overrides the batch whitening statistics with a precomputed
    (mean, transform) pair, which keeps the map a fixed function of its
    inputs under finite-difference probing."""
    if pos_embeddings.shape[0] == 0:
        raise ag.GraphError("attention map needs at least one positive proposal")
    if neg_embeddings.shape[0] == 0:
        raise ag.GraphError("attention map needs at least one negative proposal")
    zn = ag.standardize_rows(neg_embeddings)
    zp = ag.standardize_rows(pos_embeddings)
    if stats is None:
        stats = whitening_stats(np.concatenate([zn.data, zp.data]))
    mean, transform = stats
    shift = Tensor(-mean)
    white = Tensor(transform)
    cn = ag.l2_normalize_rows(ag.matmul(ag.add(zn, shift), white))
    cp = ag.l2_normalize_rows(ag.matmul(ag.add(zp, shift), white))
    logits = ag.scale(ag.matmul(cn, ag.transpose(cp)), ATTENTION_LOGIT_SCALE)
    a = ag.softmax_rows(logits)
    return AttentionMap(a=a, row_max=a.data.max(axis=1))


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


# -- checkpoint io ------------------------------------------------------------

CHECKPOINT_MAGIC = b"SRPN"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(path, params: dict[str, Tensor], meta: dict | None = None):
    """Binary checkpoint: magic, version, JSON header (names, shapes, meta),
    then the raw float64 little-endian payload in header order. Written to
    a temporary file and renamed, so a failed save never leaves a partial
    file at path."""
    header = {
        "version": CHECKPOINT_VERSION,
        "tensors": [{"name": k, "shape": list(v.shape)} for k, v in sorted(params.items())],
        "meta": meta or {},
    }
    hb = json.dumps(header).encode("utf-8")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(hb)))
        f.write(hb)
        for k in sorted(params):
            f.write(params[k].data.astype("<f8").tobytes())
    os.replace(tmp, path)


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
