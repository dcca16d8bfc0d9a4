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
import itertools
import json
import math
import os
import stat
import struct
import threading
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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
    a: np.ndarray             # (..., N_neg, N_pos), rows sum to 1
    row_max: np.ndarray       # (..., N_neg)


@dataclass
class ProposalBatch:
    """Flat per-anchor model outputs for one image in row-major (gy, gx,
    anchor) order, index-aligned with harness.anchors_for on that image; a
    block forward adds a leading axis of one entry per image. The tape ends
    at logits and regression (None in the arrays eval and audit get). The
    attention reduces a block's embeddings to one row-max array
    (block_attention), in which an image without a map contributes 0."""
    probs: np.ndarray        # (N,) objectness
    deltas: np.ndarray       # (N, 4)
    embeddings: np.ndarray   # (N, D)
    logits: Optional[Tensor] = None       # (H, W, na), the scoring head's output
    regression: Optional[Tensor] = None   # (H, W, na*4), rpn.reg's output


@dataclass
class RpnLosses:
    """One image's loss values, the negatives it flagged, and the gradient
    of weight * total (see soft_label_loss) with respect to each input."""
    l_pos: float
    l_neg: float
    l_reg: float
    total: float
    flagged: np.ndarray       # indices into the negative subset whose soft label fired
    grad_pos: np.ndarray      # (n_pos,), with respect to pos_probs
    grad_neg: np.ndarray      # (n_neg,), with respect to neg_probs
    grad_deltas: np.ndarray   # (n_pos, 4), with respect to pos_deltas


def param_shapes(d_embed: int, n_anchors: int) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter, keyed by its stable name, in the order
    init_params draws them; computing them allocates nothing."""
    c = BACKBONE_CHANNELS
    convs = [(f"backbone.conv{i}", 3, cin, cout)
             for i, (cin, cout) in enumerate(zip((1,) + c, c))]
    convs += [("rpn.share", 3, c[-1], c[-1]), ("rpn.reg", 1, c[-1], n_anchors * 4),
              ("rpn.embed", 1, c[-1], n_anchors * d_embed)]
    shapes = {}
    for name, k, cin, cout in convs:
        shapes[name + ".w"], shapes[name + ".b"] = (k, k, cin, cout), (cout,)
    return {**shapes, "rpn.cls.w": (n_anchors, d_embed), "rpn.cls.b": (n_anchors,)}


def init_params(d_embed: int, n_anchors: int, rng: np.random.Generator) -> dict[str, Tensor]:
    """He-initialized parameters of param_shapes, drawn in its order; the
    biases start at zero. A d_embed too large to allocate is a ValueError."""
    params: dict[str, Tensor] = {}
    try:
        for name, shape in param_shapes(d_embed, n_anchors).items():
            if name.endswith(".b"):
                data = np.zeros(shape)
            elif name == "rpn.cls.w":
                data = rng.standard_normal(shape) * np.sqrt(1.0 / d_embed)
            else:                                       # a (k, k, Cin, Cout) kernel
                data = rng.standard_normal(shape) * np.sqrt(2.0 / math.prod(shape[:3]))
            params[name] = Tensor(data, requires_grad=True)
    except MemoryError as e:
        raise ValueError(f"d_embed {d_embed}: {name}: {e}") from e
    return params


def extent_ok(h: int, w: int) -> bool:
    """Whether forward_rpn runs on an h x w image: both extents multiples of
    BACKBONE_STRIDE and at least MIN_EXTENT."""
    return not (h % BACKBONE_STRIDE or w % BACKBONE_STRIDE
                or h < MIN_EXTENT or w < MIN_EXTENT)


def forward_rpn(image: np.ndarray, params: dict[str, Tensor]) -> ProposalBatch:
    """Run backbone + heads on an (H, W, 1) image array (see extent_ok); the
    anchor count and embedding width come from the shape of rpn.cls.w. The
    outputs are arrays; a loss joins the tape through heads_loss_node.

    image may also be a (B, H, W, 1) block of images of one extent; every
    output then has a leading block axis, and image i's outputs equal those
    of forwarding it alone. One backward through a block gives each parameter
    the gradients of one backward per image in block order, float for float."""
    if image.ndim not in (3, 4):
        raise ag.GraphError(f"image must be (H, W, 1) or (B, H, W, 1), got {image.shape}")
    *lead, h, w, _ = image.shape
    if not extent_ok(h, w):
        raise ag.GraphError(f"image extent {h}x{w} must be >= {MIN_EXTENT} and "
                            f"divisible by {BACKBONE_STRIDE}")

    def layer(x, name, stride=1, pad=0, relu=False):
        return ag.conv2d(x, params[name + ".w"], stride, pad,
                         bias=params[name + ".b"], relu=relu)

    x = Tensor(image)
    for i in range(len(BACKBONE_CHANNELS)):
        x = layer(x, f"backbone.conv{i}", stride=2, pad=1, relu=True)
    fc = layer(x, "rpn.share", pad=1, relu=True)
    freg = layer(fc, "rpn.reg")
    fe = layer(fc, "rpn.embed")
    logits = ag.anchor_scores(fe, params["rpn.cls.w"], params["rpn.cls.b"])
    return ProposalBatch(
        probs=_sigmoid(logits.data).reshape(*lead, -1),
        deltas=freg.data.reshape(*lead, -1, 4),
        embeddings=fe.data.reshape(*lead, -1, params["rpn.cls.w"].shape[1]),
        logits=logits, regression=freg)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), as e / (1 + e) with e = exp(x) where x < 0."""
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def heads_loss_node(batch: ProposalBatch, value: float, g_probs: np.ndarray,
                    g_deltas: np.ndarray) -> Tensor:
    """The loss_node of a loss computed from batch.probs and batch.deltas,
    whose gradients g_probs and g_deltas it carries to the logits through
    the sigmoid's backward, and to the regression output."""
    p = batch.probs
    g_logits = (g_probs * p * (1.0 - p)).reshape(batch.logits.shape)
    return ag.loss_node(value, (batch.logits, batch.regression),
                        (g_logits, g_deltas.reshape(batch.regression.shape)))


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


# The attention's row statistics are sums divided by counts, and its norms
# square roots of sums of squares: the floats of mean() and linalg.norm(),
# without their Python-level wrappers, which cost more than the arithmetic
# on rows of 32 features.

def whitening_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and shrinkage-regularized ZCA transform of an (n, D) row batch,
    or of each batch of a (..., n, D) stack: (..., D) and (..., D, D). Each
    batch's products, trace and eigh are those of its own call."""
    *lead, n, d = rows.shape
    mean = rows.sum(axis=-2) / n
    centered = rows - mean[..., None, :]
    cov = (centered.swapaxes(-1, -2) @ centered / n).reshape(-1, d, d)
    shrink = np.array([ATTENTION_SHRINKAGE * np.trace(c) / d + 1e-12 for c in cov])
    cov += shrink[:, None, None] * np.eye(d)
    evals, evecs = np.linalg.eigh(cov)
    transform = evecs @ ((evals ** -0.5)[..., None] * evecs.swapaxes(-1, -2))
    return mean, transform.reshape(*lead, d, d)


def _standardize_rows(x: np.ndarray) -> np.ndarray:
    """Each row shifted to zero mean and scaled to unit variance."""
    d = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / d
    return centered / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / d + 1e-12)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Each row scaled to unit L2 norm; a row of norm below 1e-12 becomes zeros."""
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    tiny = norms < 1e-12
    return np.where(tiny, 0.0, x / np.where(tiny, 1.0, norms))


def _project(zn: np.ndarray, zp: np.ndarray, mean: np.ndarray, transform: np.ndarray
             ) -> AttentionMap:
    """The attention of standardized (..., n, D) negatives to (..., m, D)
    positives under their joint whitening_stats. Each half is projected in
    its own product, as one image's call makes it: a product over the
    joint rows rounds some rows differently."""
    mean = mean[..., None, :]
    cn = _unit_rows((zn - mean) @ transform)
    cp = _unit_rows((zp - mean) @ transform)
    # A contiguous copy of cp.T, not the strided view: BLAS rounds the two
    # products differently, and the copy reproduces the training logs,
    # checkpoints and audits of earlier versions bit for bit.
    logits = (cn @ cp.swapaxes(-1, -2).copy()) * ATTENTION_LOGIT_SCALE
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    return AttentionMap(a=a, row_max=a.max(axis=-1))


def attention_map(neg_embeddings: np.ndarray, pos_embeddings: np.ndarray
                  ) -> AttentionMap:
    """Row-stochastic similarity attention between (n, D) negative and
    (m, D) positive embeddings: a is (n, m).

    Each embedding row is standardized (zero mean, unit variance across its
    features), the joint batch is whitened with a shrinkage-regularized ZCA
    transform, and the whitened rows are L2-normalized so the logits are
    cosines in [-1, 1], scaled by ATTENTION_LOGIT_SCALE. Whitening equalizes
    the variance of every embedding direction: without it the few directions
    the objectness head trains dominate every similarity and all rows go
    flat. Per-row standardization first makes the map invariant to positive
    rescaling (and shifting) of any single embedding.

    (..., n, D) and (..., m, D) stacks give (..., n, m) maps, each slice
    that of its own call, float for float."""
    if pos_embeddings.shape[-2] == 0:
        raise ag.GraphError("attention map needs at least one positive proposal")
    if neg_embeddings.shape[-2] == 0:
        raise ag.GraphError("attention map needs at least one negative proposal")
    zn = _standardize_rows(neg_embeddings)
    zp = _standardize_rows(pos_embeddings)
    return _project(zn, zp, *whitening_stats(np.concatenate([zn, zp], axis=-2)))


def block_attention(embeddings: np.ndarray,
                    picks: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The attention row max of every sampled negative of a block: images in
    block order, rows in pick order, for a (B, N, D) block of embeddings and
    each image's (pos_idx, neg_idx) rows. Each value is the row_max of that
    image's own attention_map call, float for float; an image below two
    positives (one makes every row max 1, the softmax of one logit) gets
    0.0, which flag_mask never flags. Training and the audit both attend
    through it.

    The images whose [negative; positive] row sets have one count are
    standardized and whitened as one stack; those that also share a
    negative count are projected as one."""
    at = [0, *itertools.accumulate(len(neg) for _, neg in picks)]
    row_max = np.zeros(at[-1])
    by_count: dict[int, list[int]] = {}
    for j, (pos, neg) in enumerate(picks):
        if len(pos) >= 2 and len(neg):
            by_count.setdefault(len(pos) + len(neg), []).append(j)
    for members in by_count.values():
        # by negative count, so the images of each count are one slice of the stack
        members.sort(key=lambda j: len(picks[j][1]))
        rows = np.array([np.concatenate(picks[j][::-1]) for j in members])
        z = _standardize_rows(embeddings[np.array(members)[:, None], rows])
        mean, transform = whitening_stats(z)
        start = 0
        for n_neg, run in itertools.groupby(members, key=lambda j: len(picks[j][1])):
            run = list(run)
            s = slice(start, start + len(run))
            start = s.stop
            amap = _project(z[s, :n_neg], z[s, n_neg:], mean[s], transform[s])
            for j, r in zip(run, amap.row_max):
                row_max[at[j]:at[j + 1]] = r
    return row_max


def check_threshold(t: float) -> float:
    """t, refusing an attention threshold outside (0, 1)."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    return t


def flag_mask(row_max: np.ndarray, t: float) -> np.ndarray:
    """Whether each negative's row max is >= t: the one flag rule of the
    audit and of the soft labels."""
    return row_max >= check_threshold(t)


BCE_EPS = 1e-7


def _bce(p: np.ndarray, target: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binary cross-entropy of each probability in p against constant
    targets in [0, 1], and w (per row) times its gradient. p is clamped to
    [BCE_EPS, 1 - BCE_EPS], where the gradient is zero, as for the clamped
    value."""
    pc = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    value = -(target * np.log(pc) + (1.0 - target) * np.log1p(-pc))
    inside = (p > BCE_EPS) & (p < 1.0 - BCE_EPS)
    return value, w * inside * (pc - target) / (pc * (1.0 - pc))


def _smooth_l1(pred: np.ndarray, target: np.ndarray, w: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Smooth-L1 of each (row, coordinate) d = pred - target (0.5 d^2 for
    |d| < 1, else |d| - 0.5) against constant targets, and w (per row)
    times its gradient."""
    d = pred - target
    ad = np.abs(d)
    value = np.where(ad < 1.0, 0.5 * d * d, ad - 0.5)
    return value, w[:, None] * np.clip(d, -1.0, 1.0)


def concat_rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The rows of arrays, concatenated in order; one array is returned as
    it is, not copied, so a block of one image costs no concatenation."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class _Rows:
    """The consecutive rows of each image of a block: image i holds rows
    at[i]:at[i + 1]. inv[i] is 1 / its row count (1.0 without rows), and
    weights holds weight * inv[i] for each of its rows."""

    def __init__(self, counts: Sequence[int], weight: float):
        self.at = [0, *itertools.accumulate(counts)]
        self.inv = [1.0 / k if k else 1.0 for k in counts]
        self.weights = concat_rows([np.full(k, weight * i) for k, i in zip(counts, self.inv)])

    def means(self, term, x: np.ndarray, target) -> tuple[list[float], np.ndarray]:
        """term's mean over each image's rows of x (0.0 without rows), and
        the weights times its gradient. Each image's terms are summed on
        their own slice, as a call on its rows alone sums them."""
        value, grad = term(x, target, self.weights)
        # add.reduce over every axis: the pairwise sum of .sum(), without its wrapper
        return [float(np.add.reduce(value[a:b], axis=None) * i) if b > a else 0.0
                for a, b, i in zip(self.at, self.at[1:], self.inv)], grad


def block_soft_label_loss(pos_probs: np.ndarray, neg_probs: np.ndarray,
                          pos_deltas: np.ndarray, pos_delta_targets: np.ndarray,
                          n_pos: Sequence[int], n_neg: Sequence[int],
                          row_max: np.ndarray, t: float, weight: float = 1.0
                          ) -> tuple[dict[str, list[float]], np.ndarray, tuple[np.ndarray, ...]]:
    """soft_label_loss of each image of a block, computed at once. The
    inputs are the images' sampled rows concatenated in block order, image i
    holding n_pos[i] positives and n_neg[i] negatives; row_max is the
    block's one attention array (block_attention), a row max per negative,
    0.0 for the negatives of an image without a map. Returns each image's
    l_pos, l_neg, l_reg and total, as lists keyed by those names; the fires
    mask (flag_mask of row_max); and (grad_pos, grad_neg, grad_deltas). Each
    value and image slice equals that of the image's own soft_label_loss."""
    pos, neg = _Rows(n_pos, weight), _Rows(n_neg, weight)
    fires = flag_mask(row_max, t)
    # 1.0 as a scalar target gives the floats of an array of ones
    l_neg, grad_neg = neg.means(_bce, neg_probs, np.where(fires, row_max, 0.0))
    l_pos, grad_pos = pos.means(_bce, pos_probs, 1.0)
    l_reg, grad_deltas = pos.means(_smooth_l1, pos_deltas, pos_delta_targets)
    values = {"l_pos": l_pos, "l_neg": l_neg, "l_reg": l_reg,
              "total": [(p + n) + r for p, n, r in zip(l_pos, l_neg, l_reg)]}
    return values, fires, (grad_pos, grad_neg, grad_deltas)


def soft_label_loss(pos_probs: np.ndarray, neg_probs: np.ndarray,
                    pos_deltas: np.ndarray, pos_delta_targets: np.ndarray,
                    amap: Optional[AttentionMap], t: float,
                    weight: float = 1.0) -> RpnLosses:
    """Classification + regression losses over a sampled proposal set, and
    their gradients, on plain arrays.

    L_pos averages bce(p, 1) over positives; L_reg averages smooth-L1 of the
    positive delta predictions; L_neg averages bce(p, target) over negatives
    where the target is max(A_i) for rows clearing the threshold and 0
    otherwise; total is (L_pos + L_neg) + L_reg. Soft targets are constants:
    no gradient flows through them, so the attention cannot lower the loss
    by inflating itself.

    The gradients are those of weight * total with respect to pos_probs,
    neg_probs and pos_deltas: training passes each image's share of the
    iteration's loss, 1 / BATCH_IMAGES.

    This is block_soft_label_loss on a block of one image, with amap's row
    maxima as its row-max array. With amap None (an image without a map)
    that array is zeros: every negative keeps its hard zero target, and
    without positives L_pos and L_reg are zero.
    """
    values, fires, grads = block_soft_label_loss(
        pos_probs, neg_probs, pos_deltas, pos_delta_targets, [len(pos_probs)], [len(neg_probs)],
        np.zeros(len(neg_probs)) if amap is None else amap.row_max, t, weight)
    return RpnLosses(*(v[0] for v in values.values()), fires.nonzero()[0], *grads)


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
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError,
            RecursionError) as e:     # overflow: an infinite dimension
        raise CheckpointError(f"{path}: malformed checkpoint header ({e!r})") from e
    if not isinstance(meta, dict) or any(d < 0 for _, shape in tensors for d in shape):
        raise CheckpointError(f"{path}: malformed checkpoint header")
    return tensors, meta


def load_checkpoint(path) -> tuple[dict[str, Tensor], dict]:
    """Parameters and meta dict of a checkpoint. In a regular file, a tensor
    larger than the bytes left is refused before its bytes are read; a tensor
    holding a value that is not finite is refused."""
    with open(path, "rb") as f:
        tensors, meta = _read_header(f, path)
        st = os.fstat(f.fileno())
        left = st.st_size - f.tell() if stat.S_ISREG(st.st_mode) else math.inf
        params: dict[str, Tensor] = {}
        for name, shape in tensors:
            nbytes = math.prod(shape) * 8
            raw = f.read(nbytes) if nbytes <= left else b""
            if len(raw) != nbytes:
                raise CheckpointError(f"{path}: truncated payload for tensor {name}")
            left -= nbytes
            try:              # a dimension no array has, such as [0, 1e30], fails here
                data = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            except ValueError as e:
                raise CheckpointError(f"{path}: malformed shape {list(shape)} "
                                      f"for tensor {name}") from e
            if not np.isfinite(data).all():
                raise CheckpointError(f"{path}: tensor {name} holds a value that is not finite")
            params[name] = Tensor(data, requires_grad=True)
    return params, meta
