"""Training loop, proposal-AP evaluation, false-negative audit scoring,
and the baseline vs soft-label comparison over seeds."""

from __future__ import annotations

import itertools
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import autograd as ag
from . import model as mdl
from .autograd import Tensor
from .data import ImageRecord
from .geometry import decode_deltas, generate_anchors, iou_matrix, match_anchors, pad_boxes


# Mean total loss above which training has diverged (lr 1e30 reaches 6.7e151
# at iteration 1). Each BCE term is clamped at -log(model.BCE_EPS) ~ 16.1, so
# l_pos + l_neg stay below 33 and a total this large is all regression error:
# a positive's four encoded deltas off by ~2.5e5 each. 200-iteration runs of
# either mode on the 64x64 benchmark of seeds 0-4 peak below 2.9.
DIVERGENCE_LOSS = 1e6


class DivergenceError(Exception):
    def __init__(self, iteration: int):
        super().__init__(f"training diverged: a value overflowed, or the mean loss "
                         f"exceeded {DIVERGENCE_LOSS:g} or became non-finite at "
                         f"iteration {iteration}")
        self.iteration = iteration


# The fixed Faster R-CNN RPN recipe (anchors: model.py); a run varies TrainConfig.
MOMENTUM = 0.9
LR_DECAY = 0.1          # LR factor at each milestone
BATCH_IMAGES = 4        # images per iteration
MINIBATCH_SIZE = 64     # anchors sampled per image
POS_FRACTION = 0.25     # at most this share of them positive
POS_THRESH = 0.7        # anchor-box IoU from which an anchor is positive
NEG_THRESH = 0.3        # and below which it is negative
NMS_IOU = 0.7
TOP_K = 50              # proposals kept per image

# Keys of earlier TrainConfig versions. An older config or checkpoint loads
# with a FIXED_CONFIG key only at its value, with IGNORED_CONFIG_KEYS at any
# (the image extent comes from the data, the rest from the dataset manifest).
FIXED_CONFIG = dict(
    stride=mdl.BACKBONE_STRIDE, n_anchors=mdl.N_ANCHORS, anchor_scales=mdl.ANCHOR_SCALES,
    anchor_aspect=mdl.ANCHOR_ASPECT, momentum=MOMENTUM, lr_decay=LR_DECAY,
    batch_images=BATCH_IMAGES, minibatch_size=MINIBATCH_SIZE, pos_fraction=POS_FRACTION,
    pos_thresh=POS_THRESH, neg_thresh=NEG_THRESH, nms_iou=NMS_IOU, top_k=TOP_K)
IGNORED_CONFIG_KEYS = ("image_size", "n_images", "drop_rate", "seed_data")
MODES = ("baseline", "soft_label")    # TrainConfig.mode's values


@dataclass
class TrainConfig:
    """What a run varies; serializable, and sufficient (with the dataset)
    to reproduce a run exactly. The rest of the recipe is fixed above."""
    t: float = 0.8
    d_embed: int = 32
    mode: str = "soft_label"           # one of MODES
    lr: float = 0.02 * BATCH_IMAGES / 48   # reference LR scaled linearly to the batch
    total_iters: int = 1000
    milestones: Optional[tuple[int, ...]] = None   # None: half and 4/5 of total_iters
    seed_init: int = 0
    seed_sample: int = 0

    def __post_init__(self):
        mdl.check_threshold(self.t)
        for name in ("total_iters", "d_embed"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 < self.lr <= sys.float_info.max:     # refuses nan
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        for name in ("seed_init", "seed_sample"):
            if (value := getattr(self, name)) < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.milestones is None:
            # LR decays at half and four fifths of the run, (500, 800) of 1000.
            self.milestones = sorted({self.total_iters // 2,
                                      self.total_iters * 4 // 5} - {0})
        self.milestones = ms = tuple(self.milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])) or (ms and ms[-1] >= self.total_iters):
            raise ValueError("milestones must be strictly increasing and < total_iters")
        if ms and ms[0] < 1:
            raise ValueError(f"milestones must be at least 1, got {ms[0]}")

    @property
    def n_anchors(self) -> int:
        """model.N_ANCHORS; kept for callers that read it from a config."""
        return mdl.N_ANCHORS

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Build from a JSON object, checking every key and value type. A key
        of an older config or checkpoint is dropped: one of FIXED_CONFIG only
        at its value (a list read as a tuple), IGNORED_CONFIG_KEYS at any."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        hints = typing.get_type_hints(cls)
        kept = {}
        for key, value in d.items():
            if key in FIXED_CONFIG:
                fixed = FIXED_CONFIG[key]
                tupled = isinstance(fixed, tuple)
                if not (_conforms(value, tuple[float, ...] if tupled else type(fixed))
                        and (tuple(value) if tupled else value) == fixed):
                    raise ValueError(f"config key {key!r} must be {fixed!r}, its fixed "
                                     f"value, got {value!r}")
            elif key not in IGNORED_CONFIG_KEYS:
                if key not in hints:
                    raise ValueError(f"unknown config key {key!r}")
                if not _conforms(value, hints[key]):
                    raise ValueError(f"config key {key!r} must be "
                                     f"{cls.__annotations__[key]}, got {value!r}")
                kept[key] = value
        return cls(**kept)


def _conforms(value, hint) -> bool:
    """Whether a JSON value fits a type annotation; a bool fits none."""
    if isinstance(value, bool):
        return False
    if typing.get_origin(hint) is typing.Union:          # Optional[X]
        return value is None or _conforms(value, typing.get_args(hint)[0])
    if typing.get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(
            _conforms(v, typing.get_args(hint)[0]) for v in value)
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass
class EvalReport:
    ap50: float
    ap75: float
    ap: float
    recall50: float
    fn_precision: float
    fn_recall: float
    fn_vacuous: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MatchedImage:
    """Static per-image matching state, computed once per run."""
    record: ImageRecord
    anchors: np.ndarray         # (N, 4), one array shared by every image of this extent
    labels: np.ndarray          # 1 pos, 0 neg, -1 ignore
    delta_targets: np.ndarray   # (N, 4); rows valid only where labels == 1


def anchors_for(image: np.ndarray) -> np.ndarray:
    """The (N, 4) anchors of an (H, W, 1) image, index-aligned with the
    outputs of model.forward_rpn on it."""
    stride = mdl.BACKBONE_STRIDE
    return generate_anchors(image.shape[0] // stride, image.shape[1] // stride, stride,
                            mdl.ANCHOR_SCALES, mdl.ANCHOR_ASPECT)


def _anchor_grids(records: Sequence[ImageRecord]) -> dict[tuple[int, ...], np.ndarray]:
    """One read-only anchor grid per distinct image extent of records. The
    first image that model.forward_rpn cannot run is refused here, so every
    caller refuses it before any image is matched or forwarded."""
    grids: dict[tuple[int, ...], np.ndarray] = {}
    for rec in records:
        if (extent := rec.image.shape[:2]) not in grids:
            if not mdl.extent_ok(*extent):
                raise ValueError(f"image {rec.file_name} is {extent[0]}x{extent[1]}; "
                                 f"{mdl.EXTENT_RULE}")
            grids[extent] = grid = anchors_for(rec.image)
            grid.flags.writeable = False      # shared: no image may edit it
    return grids


# Anchor-box IoUs per matching block: match_dataset labels as many images of
# one extent together as keep anchors x images x their largest box count
# within this many elements, so a larger grid takes fewer images per block
# and the block's temporaries stay below 128 KiB each.
MATCH_BLOCK = 2 ** 14


def match_dataset(records: Sequence[ImageRecord]) -> list[MatchedImage]:
    """Label every image's anchors; each distinct extent's anchor grid is
    built once and shared by its images. The images of an extent are
    labelled in the blocks of _iou_blocks, fewest boxes first, so padding
    each image to its block's largest box count costs little."""
    grids = _anchor_grids(records)
    by_extent: dict[tuple[int, ...], list[int]] = {}
    for i, rec in enumerate(records):
        by_extent.setdefault(rec.image.shape[:2], []).append(i)
    out: list[Optional[MatchedImage]] = [None] * len(records)
    for extent, indices in by_extent.items():
        anchors = grids[extent]
        for run in _iou_blocks([(len(records[i].kept), len(anchors)) for i in indices]):
            block = [indices[k] for k in run]
            labels, targets = match_anchors(anchors, [records[i].kept for i in block],
                                            POS_THRESH, NEG_THRESH)
            for i, lab, tgt in zip(block, labels, targets):
                out[i] = MatchedImage(record=records[i], anchors=anchors, labels=lab,
                                      delta_targets=tgt)
    return out


def _iou_blocks(shapes: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Runs of the indices of (rows, cols) IoU matrices, fewest rows first
    (a stable sort: a run's last matrix has its most rows), each padding its
    matrices to at most MATCH_BLOCK IoUs or holding one matrix."""
    runs: list[list[int]] = []
    cols = 0
    for k, (n_rows, n_cols) in sorted(enumerate(shapes), key=lambda item: item[1][0]):
        if not runs or (len(runs[-1]) + 1) * n_rows * max(cols, n_cols) > MATCH_BLOCK:
            runs.append([])
            cols = 0
        runs[-1].append(k)
        cols = max(cols, n_cols)
    return runs


def _block(images: Sequence[np.ndarray]) -> np.ndarray:
    """The (B, H, W, 1) block of same-extent images; one image is a view of
    itself with a block axis, not a copy."""
    return np.stack(images) if len(images) > 1 else images[0][None]


# Image pixels per forward block (see _blocks): 4 images at 64x64, 2 at
# 80x80 and 1 at 128x128, in training, evaluate and audit_flags alike. A
# forward block's temporaries take about 1 MB at this size; larger blocks
# save little more per image and make glibc more likely to hand the freed
# heap back to the kernel, to be faulted in again by the next block.
INFER_BLOCK = 4 * 64 * 64


def _blocks(matched: Sequence[MatchedImage]
            ) -> Iterator[tuple[list[int], list[MatchedImage]]]:
    """The positions in matched and the images of each forward block, in
    order: every run of consecutive same-extent images cut into blocks of at
    most INFER_BLOCK pixels (or of one image). The tape adds each image's
    gradients in order (Tensor._accumulate), so training in these blocks
    gives the floats of one image at a time, wherever they end."""
    runs = itertools.groupby(enumerate(matched), key=lambda p: p[1].record.image.shape)
    for (h, w, _), run in runs:
        run = list(run)
        per_block = max(1, INFER_BLOCK // (h * w))
        for start in range(0, len(run), per_block):
            indices, block = zip(*run[start:start + per_block])
            yield list(indices), list(block)


def _block_losses(params: dict[str, Tensor], block: Sequence[MatchedImage],
                  config: TrainConfig, rng: np.random.Generator
                  ) -> tuple[Tensor, dict[str, list[float]], np.ndarray]:
    """Forward a block of same-extent images on one tape, sample every
    image's proposal minibatch in block order, then attend
    (model.block_attention, soft_label mode) and compute the losses
    (model.block_soft_label_loss) once for the whole block. Returns the loss's
    per-image values and fires mask, after the node (model.heads_loss_node)
    whose backward() carries its gradients into the tape: three adds into
    zeros at the sampled (image, anchor) rows. A head no sampled anchor
    reached gets a zero gradient, so its momentum still decays."""
    batch = mdl.forward_rpn(_block([mi.record.image for mi in block]), params)
    # the flat (B * N,) probabilities and (B * N, 4) deltas, and their gradients
    probs, deltas = batch.probs.reshape(-1), batch.deltas.reshape(-1, 4)
    g_probs, g_deltas = np.zeros_like(probs), np.zeros_like(deltas)
    picks = [mdl.sample_proposals(mi.labels, MINIBATCH_SIZE, POS_FRACTION, rng)
             for mi in block]
    n = batch.probs.shape[-1]     # anchors per image
    pos = mdl.concat_rows([p + j * n for j, (p, _) in enumerate(picks)])
    neg = mdl.concat_rows([q + j * n for j, (_, q) in enumerate(picks)])
    row_max = (mdl.block_attention(batch.embeddings, picks) if config.mode == "soft_label"
               else np.zeros(len(neg)))
    values, fires, (grad_pos, grad_neg, grad_deltas) = mdl.block_soft_label_loss(
        probs[pos], probs[neg], deltas[pos],
        mdl.concat_rows([mi.delta_targets[p] for mi, (p, _) in zip(block, picks)]),
        [len(p) for p, _ in picks], [len(q) for _, q in picks], row_max, config.t,
        1.0 / BATCH_IMAGES)
    g_probs[pos] += grad_pos
    g_probs[neg] += grad_neg
    g_deltas[pos] += grad_deltas
    root = mdl.heads_loss_node(batch, sum(values["total"]) / BATCH_IMAGES,
                               g_probs.reshape(batch.probs.shape), g_deltas)
    return root, values, fires


def train(config: TrainConfig, records: Sequence[ImageRecord]
          ) -> tuple[dict[str, Tensor], list[dict]]:
    """SGD with momentum over per-image sampled RPN losses. Returns the
    final parameters and a per-iteration metric log. An iteration's picks
    are forwarded and backpropagated in the blocks of _blocks, with every
    float that of one forward and one backward per image, in pick order."""
    return _train(config, match_dataset(records))


def _train(config: TrainConfig, matched: Sequence[MatchedImage]
           ) -> tuple[dict[str, Tensor], list[dict]]:
    """train on images already matched (match_dataset)."""
    if not matched:
        raise ValueError("dataset is empty")
    params = mdl.init_params(config.d_embed, mdl.N_ANCHORS,
                             np.random.default_rng(config.seed_init))
    velocity = {k: np.zeros_like(p.data) for k, p in params.items()}
    rng = np.random.default_rng(config.seed_sample)
    log: list[dict] = []
    lr = config.lr
    for it in range(config.total_iters):
        if it in config.milestones:
            lr *= LR_DECAY
        # A run can blow up while every value stays finite, so an overflow
        # anywhere in the step is divergence, and so is a loss past DIVERGENCE_LOSS.
        try:
            with np.errstate(over="raise"):
                for p in params.values():
                    p.zero_grad()
                picks = rng.integers(0, len(matched), size=BATCH_IMAGES)
                sums = {"l_pos": 0.0, "l_neg": 0.0, "l_reg": 0.0, "total": 0.0}
                n_flagged = 0
                for _, block in _blocks([matched[k] for k in picks]):
                    # Rebinding root frees the previous block's tape here,
                    # after this block's forward and before its backward, as
                    # training one image at a time did. Freed before the
                    # forward, the tape leaves the top of the heap free for
                    # glibc to hand back to the kernel, and the forward and
                    # backward fault it in again: ~180 minor faults per
                    # iteration at 64x64 and ~1,100 at 128x128, against tens.
                    root, values, fires = _block_losses(params, block, config, rng)
                    root.backward()
                    for key, per_image in values.items():
                        for value in per_image:
                            sums[key] += value
                    n_flagged += int(fires.sum())
                means = {k: v / BATCH_IMAGES for k, v in sums.items()}
                if not means["total"] <= DIVERGENCE_LOSS:     # also refuses nan
                    raise DivergenceError(it)
                for k, p in params.items():
                    # in place: the products and sums of
                    # MOMENTUM * velocity[k] + p.grad, without two temporaries
                    velocity[k] *= MOMENTUM
                    velocity[k] += p.grad
                    p.data -= lr * velocity[k]
        except FloatingPointError as e:
            raise DivergenceError(it) from e
        log.append({"iter": it, "lr": lr, "flagged": n_flagged, **means})
    return params, log


# -- inference / evaluation ----------------------------------------------------

# Ranked boxes per NMS block: the kept boxes usually run out (top_k) within
# the first block, and larger blocks spend more on IoUs never read. On
# perfbench/ckpt64.srpn the first block keeps 61-64 of its 64 boxes, so every
# image of a 64x64 forward block ends inside it, and its fixed point takes at
# most two passes.
NMS_BLOCK = 64


def nms(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float,
        top_k: Optional[int] = None):
    """Greedy suppression by descending score (stable on ties) of one
    image's (N, 4) boxes and (N,) scores: kept indices in rank order, at
    most top_k of them (the same prefix an unlimited run keeps). Given a
    block's (B, N, 4) boxes and (B, N) scores, the list of each image's.

    Exact greedy NMS, taken NMS_BLOCK ranked boxes at a time, all images of
    a block together. A box is suppressed only by higher-ranked kept boxes,
    and every one of those is either kept in an earlier NMS block or earlier
    in its own. So each NMS block needs two IoU stacks: one against the
    boxes each image kept so far (padded with (0, 0, 0, 0) rows, masked out),
    which seeds which of its boxes are still alive, and one within the
    block. The greedy set of the block is then the fixed point of "kept iff
    alive and no kept, higher-ranked box of the block overlaps it by more
    than iou_thresh", iterated from the alive set: a box's value depends
    only on the boxes ranked above it, so after k passes the first k are
    final and the fixed point is unique. The suppressing box is always
    iou_matrix's first argument, as in a per-box loop, so every IoU is the
    same float."""
    single = boxes.ndim == 2
    if single:
        boxes, scores = boxes[None], scores[None]
    n_img, n = scores.shape
    limit = n if top_k is None else top_k
    order = np.argsort(-scores, axis=1, kind="stable")
    keep = [np.zeros(0, dtype=np.intp) for _ in range(n_img)]
    rows = np.arange(n_img)[:, None]
    for start in range(0, n, NMS_BLOCK):
        active = [i for i in range(n_img) if len(keep[i]) < limit]
        if not active:
            break
        block = order[active, start:start + NMS_BLOCK]            # (A, b)
        ranked = boxes[rows[active], block]                       # (A, b, 4)
        kept_boxes = pad_boxes([boxes[i, keep[i]] for i in active])      # (A, K, 4)
        real = np.arange(kept_boxes.shape[1]) < np.array([len(keep[i]) for i in active])[:, None]
        alive = ~((iou_matrix(kept_boxes, ranked) > iou_thresh)
                  & real[:, :, None]).any(axis=1)
        # over[a, i, j]: box i of image a suppresses box j if kept, i ranked above j
        over = iou_matrix(ranked, ranked) > iou_thresh
        over &= np.arange(block.shape[1])[:, None] < np.arange(block.shape[1])
        kept = alive
        while True:
            nxt = alive & ~(over & kept[:, :, None]).any(axis=1)
            if np.array_equal(nxt, kept):
                break
            kept = nxt
        for r, i in enumerate(active):
            keep[i] = np.concatenate([keep[i], block[r][kept[r]]])[:limit]
    return keep[0] if single else keep


def _forward_each(params: dict[str, Tensor], matched: Sequence[MatchedImage],
                  fn: Callable[[list[int], list[MatchedImage], mdl.ProposalBatch], typing.Any]
                  ) -> list:
    """fn(indices, matched images, their outputs) of every forward block
    (_blocks), one entry per block, in order. fn gets the block's (B, ...)
    output arrays, without the tape's outputs, and must not keep them: as
    in a loop over single images, a block's outputs are freed before the
    next forward."""
    out = []
    for indices, chunk in _blocks(matched):
        with ag.no_grad():
            block = mdl.forward_rpn(_block([mi.record.image for mi in chunk]), params)
        out.append(fn(indices, chunk,
                      mdl.ProposalBatch(block.probs, block.deltas, block.embeddings)))
        del block
    return out


def _proposals(probs: np.ndarray, deltas: np.ndarray, anchors: np.ndarray,
               image: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Decoded, image-clipped, suppressed (NMS_IOU), top-k (TOP_K) proposals
    of a forward block's (B, N) probs and (B, N, 4) deltas, as one, given
    their anchors and (one) image extent: each image's (boxes, scores)."""
    boxes = decode_deltas(anchors, deltas)
    h, w = image.shape[:2]
    boxes[..., [0, 2]] = boxes[..., [0, 2]].clip(0.0, float(w))
    boxes[..., [1, 3]] = boxes[..., [1, 3]].clip(0.0, float(h))
    keep = nms(boxes, probs, NMS_IOU, TOP_K)
    return [(b[k], p[k]) for b, p, k in zip(boxes, probs, keep)]


def predict(params: dict[str, Tensor], record: ImageRecord, config: TrainConfig
            ) -> tuple[np.ndarray, np.ndarray]:
    """Proposals of one image (_proposals); config is kept for perfbench/test_bench.py."""
    with ag.no_grad():
        batch = mdl.forward_rpn(record.image, params)
    return _proposals(batch.probs[None], batch.deltas[None], anchors_for(record.image),
                      record.image)[0]


def _greedy_match(ious: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Greedy matching of C images' detections against their ground truth at
    every threshold at once, the images in lockstep over detection rank.
    ``ious`` is the (C, D, G) stack of their IoU matrices, rows in rank
    order, padded with -1.0, the value a matched box is masked to. A padding
    column never beats a real box and loses ties to it, as argmax keeps the
    first of tied indices; padding rows follow an image's real rows, so they
    change none of its hits. (An image without boxes, all padding, hits
    nothing at thresholds above -1; average_precisions leaves it out.) Each
    detection takes its best still-unmatched box when that IoU reaches the
    threshold. Returns (T, C, D) true-positive flags; those of padding rows
    mean nothing."""
    n_img, n_rows, n_gt = ious.shape
    hits = np.zeros((len(thresholds), n_img, n_rows), dtype=bool)
    if n_gt == 0:
        return hits
    matched = np.zeros((len(thresholds), n_img, n_gt), dtype=bool)
    t_idx, c_idx = np.arange(len(thresholds))[:, None], np.arange(n_img)
    for d in range(n_rows):
        cand = np.where(matched, -1.0, ious[:, d])
        j = cand.argmax(axis=2)
        hit = cand[t_idx, c_idx, j] >= thresholds[:, None]
        matched[t_idx, c_idx, j] |= hit
        hits[:, :, d] = hit
    return hits


def average_precisions(image_ids: np.ndarray, scores: np.ndarray,
                       ious: dict[int, np.ndarray], n_gt: int,
                       thresholds: Sequence[float]) -> np.ndarray:
    """Single-class AP at each threshold. Detections are ranked globally by
    descending score, then image id, then index; ``ious[img]`` is the (D, G)
    IoU matrix of image img's detections, rows in index order, against its
    ground truth. The images are matched (_greedy_match) in stacks of at
    most MATCH_BLOCK IoUs (or of one image), fewest boxes first. Integrates
    precision over recall with all-points interpolation, summing terms from
    the last rank to the first."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n = len(scores)
    if n_gt == 0 or n == 0:
        return np.zeros(len(thresholds))
    order = np.lexsort((np.arange(n), image_ids, -scores))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    # each image's detections in index order, the rows of its IoU matrix
    by_image = np.argsort(image_ids, kind="stable")
    starts = np.searchsorted(image_ids[by_image], list(ious))
    # Each image's rows that reach some threshold, in rank order, with their
    # ranks: masking only lowers IoUs, so the other rows never match.
    rows = []
    for m, start in zip(ious.values(), starts):
        if m.size:
            r = rank[by_image[start:start + len(m)]]
            by_rank = np.argsort(r)
            live = by_rank[m.max(axis=1)[by_rank] >= thresholds.min()]
            if len(live):
                rows.append((r[live], m[live]))
    tp = np.zeros((len(thresholds), n), dtype=bool)
    for run in _iou_blocks([m.shape[::-1] for _, m in rows]):
        run = [rows[k] for k in run]
        n_det = np.array([len(r) for r, _ in run])
        stack = np.full((len(run), n_det.max(), run[-1][1].shape[1]), -1.0)
        for c, (_, m) in enumerate(run):
            stack[c, :len(m), :m.shape[1]] = m
        # the real rows in row-major order: each image's ranks in turn
        real = np.arange(stack.shape[1]) < n_det[:, None]
        tp[:, np.concatenate([r for r, _ in run])] = _greedy_match(stack, thresholds)[:, real]
    # One threshold at a time keeps the float temporaries at O(n).
    aps = np.empty(len(thresholds))
    for t, hits in enumerate(tp):
        cum_tp = np.cumsum(hits)
        recall = cum_tp / n_gt
        precision = cum_tp / np.arange(1, n + 1)
        envelope = np.maximum.accumulate(precision[::-1])
        steps = np.diff(recall, prepend=0.0)[::-1]
        # add.accumulate sums sequentially, so the float order is fixed
        aps[t] = np.add.accumulate(steps * envelope)[-1]
    return aps


def average_precision(detections: Sequence[tuple[int, float, np.ndarray]],
                      gt_boxes: dict[int, np.ndarray], iou_thresh: float) -> float:
    """Single-class AP: detections are (image_id, score, box corner-form),
    ranked globally by score, greedily matched (each gt at most once) at the
    given IoU threshold, integrated with all-points interpolation."""
    image_ids = np.array([d[0] for d in detections], dtype=np.int64)
    scores = np.array([d[1] for d in detections], dtype=np.float64)
    boxes = np.array([d[2] for d in detections], dtype=np.float64).reshape(-1, 4)
    ious = {img: iou_matrix(boxes[image_ids == img], gts)
            for img, gts in gt_boxes.items() if len(gts)}
    n_gt = sum(len(b) for b in gt_boxes.values())
    return float(average_precisions(image_ids, scores, ious, n_gt, (iou_thresh,))[0])


COCO_IOU_THRESHOLDS = tuple(np.round(np.arange(0.50, 1.00, 0.05), 2))


def evaluate(params: dict[str, Tensor], records: Sequence[ImageRecord],
             config: TrainConfig) -> EvalReport:
    """Score proposals single-class against the full (undropped) ground
    truth: COCO-convention AP plus proposal recall at IoU 0.5. The same
    forward pass feeds the audit at config.t (fn_*, see audit_flags)."""
    mdl.check_threshold(config.t)
    return _evaluate(params, match_dataset(records), config)[0]


def _evaluate(params: dict[str, Tensor], matched: Sequence[MatchedImage],
              config: TrainConfig) -> tuple[EvalReport, Flags]:
    """evaluate's report on the matched images, and the flags its pass
    audited: audit_flags' at config.t. Each forward block's proposals are
    decoded, clipped and suppressed as one (_proposals), and scored against
    the full ground truth as one (B, K_max, G_max) IoU stack, each image's
    proposals and boxes padded with (0, 0, 0, 0) rows, whose IoU with every
    box is exactly 0. Each block appends to one running record."""
    scores, ious, n_hit, audited = [], {}, [], []

    def each(indices, block, batch):
        props = _proposals(batch.probs, batch.deltas, block[0].anchors, block[0].record.image)
        fulls = [mi.record.full for mi in block]
        stack = iou_matrix(pad_boxes([boxes for boxes, _ in props]), pad_boxes(fulls))
        n_hit.append(int((stack.max(axis=1) >= 0.5).sum()) if stack.shape[1] else 0)
        ious.update((idx, stack[j, :len(props[j][0]), :len(gts)])
                    for j, (idx, gts) in enumerate(zip(indices, fulls)) if len(gts))
        scores.extend(s for _, s in props)
        audited.append(_audit_block(batch, indices, block, config, config.t))

    _forward_each(params, matched, each)
    flags = _collect_flags(audited)
    n_gt = sum(len(mi.record.full) for mi in matched)
    image_ids = np.repeat(np.arange(len(scores)), [len(s) for s in scores])
    aps = dict(zip(COCO_IOU_THRESHOLDS, average_precisions(
        image_ids, np.concatenate([np.zeros(0)] + scores), ious, n_gt,
        COCO_IOU_THRESHOLDS).tolist()))
    fn = score_fn_detection(flags, [mi.record for mi in matched])
    return EvalReport(
        ap50=aps[0.5], ap75=aps[0.75],
        ap=float(np.mean([aps[t] for t in COCO_IOU_THRESHOLDS])),
        recall50=(sum(n_hit) / n_gt) if n_gt else 0.0,
        fn_precision=fn.precision, fn_recall=fn.recall, fn_vacuous=fn.vacuous,
    ), flags


# -- false-negative audit -------------------------------------------------------

@dataclass
class Flags:
    """Suspected false negatives as parallel arrays, one entry per flag, best first."""
    image_index: np.ndarray   # (F,) index of the image in the dataset
    anchor_index: np.ndarray  # (F,) index of the anchor in its image's grid
    boxes: np.ndarray         # (F, 4) the corner-form anchors
    scores: np.ndarray        # (F,) attention row maxima

    def __len__(self) -> int:
        return len(self.scores)


def _audit_block(batch: mdl.ProposalBatch, indices: Sequence[int],
                 block: Sequence[MatchedImage], config: TrainConfig, t: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The flags of a forward block, dataset image indices[j] at block row
    j, as the flat arrays of Flags in block and pick order: image index,
    anchor row, box (of the block's one anchor grid) and score."""
    picks = [mdl.sample_proposals(mi.labels, MINIBATCH_SIZE, POS_FRACTION,
                                  np.random.default_rng([config.seed_sample, idx, 0xA0D17]))
             for idx, mi in zip(indices, block)]
    row_max = mdl.block_attention(batch.embeddings, picks)
    fires = mdl.flag_mask(row_max, t)
    image_index = np.repeat(indices, [len(q) for _, q in picks])
    rows = mdl.concat_rows([q for _, q in picks])[fires]
    return image_index[fires], rows, block[0].anchors[rows], row_max[fires]


def _collect_flags(audited: Sequence[tuple[np.ndarray, ...]]) -> Flags:
    """The Flags of every forward block's arrays from _audit_block, best
    first; the stable sort keeps dataset and row order among equal scores."""
    none = (np.zeros(0, dtype=np.intp),) * 2 + (np.zeros((0, 4)), np.zeros(0))
    columns = [np.concatenate(c) for c in zip(none, *audited)]
    best = np.argsort(-columns[-1], kind="stable")
    return Flags(*(c[best] for c in columns))


def audit_flags(params: dict[str, Tensor], records: Sequence[ImageRecord],
                config: TrainConfig, t: Optional[float] = None) -> Flags:
    """Suspected false negatives of every image at threshold t (default
    config.t), best first. Each image's minibatch is sampled from its own
    generator, and each forward block is attended as one, by the code
    training uses (model.block_attention), so the row-softmax scale
    matches training's."""
    t = config.t if t is None else t
    mdl.check_threshold(t)
    matched = match_dataset(records)
    return _collect_flags(_forward_each(
        params, matched,
        lambda indices, block, batch: _audit_block(batch, indices, block, config, t)))


@dataclass
class FnScore:
    precision: float
    recall: float
    vacuous: bool = False


def flag_hits(flag_boxes: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """(..., F, D) whether each flagged box hits each withheld box: IoU >=
    0.5, of (..., F, 4) against (..., D, 4) boxes. score_fn_detection scores
    flags by this rule, and expected_random_recall its random baseline, so
    the two stay comparable."""
    return iou_matrix(flag_boxes, dropped) >= 0.5


def score_fn_detection(flags: Flags, records: Sequence[ImageRecord]) -> FnScore:
    """Precision/recall of flagged anchors against withheld (dropped) boxes:
    a flag is a true positive when it hits (flag_hits) some dropped box of
    its image. With no dropped boxes anywhere recall is vacuous, reported as
    1 with the vacuous marker; precision is then 0 if anything was flagged.

    The flagged images with dropped boxes are scored in stacks of at most
    MATCH_BLOCK IoUs (or of one image), fewest dropped boxes first, each
    image's flags and dropped boxes padded with (0, 0, 0, 0) rows, which hit
    nothing."""
    n_dropped = sum(len(rec.dropped) for rec in records)
    if n_dropped == 0:
        return FnScore(precision=0.0 if len(flags) else 1.0, recall=1.0, vacuous=True)
    if not len(flags):
        return FnScore(precision=1.0, recall=0.0)
    by_image = np.argsort(flags.image_index, kind="stable")
    flagged, starts, n_flags = np.unique(flags.image_index[by_image], return_index=True,
                                         return_counts=True)
    scored = [(records[i].dropped, flags.boxes[by_image[s:s + n]])
              for i, s, n in zip(flagged, starts, n_flags) if len(records[i].dropped)]
    tp = n_hit = 0
    for run in _iou_blocks([(len(d), len(f)) for d, f in scored]):
        hits = flag_hits(pad_boxes([scored[k][1] for k in run]),
                         pad_boxes([scored[k][0] for k in run]))     # (R, F_max, D_max)
        tp += int(hits.any(axis=2).sum())
        n_hit += int(hits.any(axis=1).sum())
    return FnScore(precision=tp / len(flags), recall=n_hit / n_dropped)


def expected_random_recall(flags: Flags, records: Sequence[ImageRecord]) -> float:
    """Expected dropped-box recall of a size-matched uniformly random anchor
    flag set, computed in closed form per image from the hypergeometric
    no-hit probability (math.comb gives 0 when the flags outnumber the
    anchors that miss a box)."""
    counts = np.bincount(flags.image_index, minlength=len(records))
    grids = _anchor_grids(records)
    total, expected = 0, 0.0
    for idx, rec in enumerate(records):
        if not len(rec.dropped):
            continue
        anchors = grids[rec.image.shape[:2]]
        n = len(anchors)
        m = min(int(counts[idx]), n)
        covers = flag_hits(anchors, rec.dropped).sum(axis=0)
        total += len(covers)
        for c in covers:
            expected += 1.0 - math.comb(n - int(c), m) / math.comb(n, m)
    return expected / total if total else 0.0


# -- comparison -----------------------------------------------------------------

# The metrics compare averages over seeds; only soft-label arms have the last two.
COMPARE_METRICS = ("ap50", "ap75", "ap", "recall50", "fn_precision", "fn_recall",
                   "flags", "expected_random_recall")


def compare(config: TrainConfig, datasets: Iterable[tuple[int, Sequence[ImageRecord]]],
            thresholds: Sequence[float]) -> dict:
    """Train and evaluate, on each (seed, records) of datasets, a baseline
    arm and one soft_label@t arm per threshold t: config's recipe with
    seed_init = seed_sample = seed, and the arm's mode and t. Returns
    {"rows": one per seed and arm, in that order, "means": one per arm, of
    its COMPARE_METRICS over the seeds}. A row holds the arm, seed, t and
    evaluate's fields; a soft-label arm's also the count of the flags that
    evaluate's pass audited at t (audit_flags' count) and their
    expected_random_recall. Each seed's records are matched once, for
    every arm's training and evaluation."""
    arms = [("baseline", {"mode": "baseline"})] + [
        (f"soft_label@{t}", {"mode": "soft_label", "t": t}) for t in thresholds]
    rows = []
    for seed, records in datasets:
        matched = match_dataset(records)
        for arm, over in arms:
            cfg = replace(config, seed_init=seed, seed_sample=seed, **over)
            params, _ = _train(cfg, matched)
            report, flags = _evaluate(params, matched, cfg)
            rows.append({"arm": arm, "seed": seed, "t": cfg.t, **report.to_dict()})
            if cfg.mode == "soft_label":
                rows[-1].update(flags=len(flags),
                                expected_random_recall=expected_random_recall(flags, records))
    means = [{"arm": arm, **{m: float(np.mean([r[m] for r in rows[k::len(arms)]]))
                             for m in COMPARE_METRICS if m in rows[k]}}
             for k, (arm, _) in enumerate(arms)]
    return {"rows": rows, "means": means}


def write_metric_log(path, log: Sequence[dict]):
    """One JSON object per line, replacing path atomically."""
    mdl.write_file(path, ((json.dumps(rec) + "\n").encode() for rec in log))
