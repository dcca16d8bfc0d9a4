"""Training loop, proposal-AP evaluation, false-negative audit scoring,
and the attention-threshold ablation."""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import typing
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import autograd as ag
from . import model as mdl
from .autograd import Tensor
from .data import ImageRecord
from .geometry import decode_deltas, generate_anchors, iou_matrix, match_anchors


class DivergenceError(Exception):
    def __init__(self, iteration: int):
        super().__init__(f"training diverged: a value overflowed or the loss "
                         f"became non-finite at iteration {iteration}")
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


@dataclass
class TrainConfig:
    """What a run varies; serializable, and sufficient (with the dataset)
    to reproduce a run exactly. The rest of the recipe is fixed above."""
    t: float = 0.8
    d_embed: int = 32
    mode: str = "soft_label"           # "baseline" | "soft_label"
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
        if self.mode not in ("baseline", "soft_label"):
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
    """One read-only anchor grid per distinct image extent of records."""
    grids: dict[tuple[int, ...], np.ndarray] = {}
    for rec in records:
        if rec.image.shape[:2] not in grids:
            grids[rec.image.shape[:2]] = grid = anchors_for(rec.image)
            grid.flags.writeable = False      # shared: no image may edit it
    return grids


def check_extents(records: Sequence[ImageRecord]):
    """Refuse, before any work, an image that model.forward_rpn cannot run."""
    for rec in records:
        h, w = rec.image.shape[:2]
        if not mdl.extent_ok(h, w):
            raise ValueError(
                f"image {rec.file_name} is {h}x{w}; both extents must be multiples "
                f"of {mdl.BACKBONE_STRIDE} and at least {mdl.MIN_EXTENT}")


# Anchor-box IoUs per matching block: match_dataset labels as many images of
# one extent together as keep anchors x images x their largest box count
# within this many elements, so a larger grid takes fewer images per block
# and the block's temporaries stay below 128 KiB each.
MATCH_BLOCK = 2 ** 14


def match_dataset(records: Sequence[ImageRecord]) -> list[MatchedImage]:
    """Label every image's anchors; each distinct extent's anchor grid is
    built once and shared by its images. The images of an extent are
    labelled in blocks of at most MATCH_BLOCK IoUs (or of one image), fewest
    boxes first, so a block's last image has its largest box count and
    padding to it costs little."""
    grids = _anchor_grids(records)
    by_extent: dict[tuple[int, ...], list[int]] = {}
    for i, rec in enumerate(records):
        by_extent.setdefault(rec.image.shape[:2], []).append(i)
    out: list[Optional[MatchedImage]] = [None] * len(records)
    for extent, indices in by_extent.items():
        anchors = grids[extent]
        indices.sort(key=lambda i: len(records[i].kept))
        blocks: list[list[int]] = [[]]
        for i in indices:
            if len(anchors) * (len(blocks[-1]) + 1) * len(records[i].kept) > MATCH_BLOCK:
                blocks.append([])
            blocks[-1].append(i)
        for block in filter(None, blocks):
            labels, targets = match_anchors(anchors, [records[i].kept for i in block],
                                            POS_THRESH, NEG_THRESH)
            for i, lab, tgt in zip(block, labels, targets):
                out[i] = MatchedImage(record=records[i], anchors=anchors, labels=lab,
                                      delta_targets=tgt)
    return out


def _attend(embeddings: np.ndarray, pos_idx: np.ndarray, neg_idx: np.ndarray
            ) -> Optional[mdl.AttentionMap]:
    """Attention of sampled negatives to sampled positives among one image's
    (N, D) embeddings, for training and the audit alike; None below two
    positives (one makes every row max 1, the softmax of one logit, flagging
    all negatives) or without a negative."""
    if len(pos_idx) < 2 or not len(neg_idx):
        return None
    return mdl.attention_map(embeddings[neg_idx], embeddings[pos_idx])


def _block(images: Sequence[np.ndarray]) -> np.ndarray:
    """The (B, H, W, 1) block of same-extent images; one image is a view of
    itself with a block axis, not a copy."""
    return np.stack(images) if len(images) > 1 else images[0][None]


def _train_blocks(picks: np.ndarray, matched: Sequence[MatchedImage]
                  ) -> list[list[MatchedImage]]:
    """The blocks an iteration's picks are trained in: all of them together
    when they share one extent and INFER_BLOCK holds BATCH_IMAGES images of
    it, else one at a time. Never a partial block: p.grad adds up one
    gradient per backward, so blocks of 2 + 2 would give (g0 + g1) + (g2 +
    g3), not the ((g0 + g1) + g2) + g3 of one image at a time."""
    chosen = [matched[k] for k in picks]
    h, w, _ = shape = chosen[0].record.image.shape
    if (INFER_BLOCK // (h * w) >= BATCH_IMAGES
            and all(mi.record.image.shape == shape for mi in chosen)):
        return [chosen]
    return [[mi] for mi in chosen]


def _block_losses(params: dict[str, Tensor], block: Sequence[MatchedImage],
                  config: TrainConfig, rng: np.random.Generator) -> list[mdl.RpnLosses]:
    """Forward a block of same-extent images on one tape, then sample each
    image's proposal minibatch and build its loss, in block order."""
    batch = mdl.forward_rpn(Tensor(_block([mi.record.image for mi in block])), params)
    n = batch.probs.shape[-1]
    # image j's anchors are rows j*n ... j*n + n - 1 of the flattened outputs
    probs = ag.reshape(batch.probs, (len(block) * n,))
    deltas = ag.reshape(batch.deltas, (len(block) * n, 4))
    per_image = []
    for j, mi in enumerate(block):
        pos_idx, neg_idx = mdl.sample_proposals(mi.labels, MINIBATCH_SIZE, POS_FRACTION, rng)
        amap = (_attend(batch.embeddings.data[j], pos_idx, neg_idx)
                if config.mode == "soft_label" else None)
        pos, neg = j * n + pos_idx, j * n + neg_idx
        per_image.append(mdl.soft_label_loss(
            ag.gather_rows(probs, pos), ag.gather_rows(probs, neg), ag.gather_rows(deltas, pos),
            mi.delta_targets[pos_idx], amap, config.t))
    return per_image


def train(config: TrainConfig, records: Sequence[ImageRecord]
          ) -> tuple[dict[str, Tensor], list[dict]]:
    """SGD with momentum over per-image sampled RPN losses. Returns the
    final parameters and a per-iteration metric log.

    An iteration's images are forwarded and backpropagated as one block
    when they fit (see _train_blocks). Every float is that of one forward
    and one backward per image: the block's forward equals each image's
    alone, conv2d and anchor_scores add the images' gradients in pick order,
    and minibatches are still sampled image by image in that order."""
    if not records:
        raise ValueError("dataset is empty")
    check_extents(records)
    matched = match_dataset(records)
    params = mdl.init_params(config.d_embed, mdl.N_ANCHORS,
                             np.random.default_rng(config.seed_init))
    velocity = {k: np.zeros_like(p.data) for k, p in params.items()}
    rng = np.random.default_rng(config.seed_sample)
    log: list[dict] = []
    lr = config.lr
    for it in range(config.total_iters):
        if it in config.milestones:
            lr *= LR_DECAY
        # A run can blow up while every value stays finite (|param| ~1e209
        # under lr 1e30), so an overflow anywhere in the step is divergence.
        try:
            with np.errstate(over="raise"):
                for p in params.values():
                    p.zero_grad()
                picks = rng.integers(0, len(matched), size=BATCH_IMAGES)
                sums = {"l_pos": 0.0, "l_neg": 0.0, "l_reg": 0.0, "total": 0.0}
                n_flagged = 0
                for block in _train_blocks(picks, matched):
                    # Rebinding losses frees the previous block's tape here,
                    # after this block's forward and before its backward, as
                    # training one image at a time did. Freed before the
                    # forward, the tape leaves the top of the heap free for
                    # glibc to hand back to the kernel, and the forward and
                    # backward fault it in again: ~180 minor faults per
                    # iteration at 64x64 and ~1,100 at 128x128, against tens.
                    losses = _block_losses(params, block, config, rng)
                    functools.reduce(ag.add, [ag.scale(image.total, 1.0 / BATCH_IMAGES)
                                              for image in losses]).backward()
                    # comprehensions: no loop name holds this tape into the next backward
                    for key in sums:
                        for value in [getattr(image, key).item() for image in losses]:
                            sums[key] += value
                    n_flagged += sum(len(image.flagged) for image in losses)
                means = {k: v / BATCH_IMAGES for k, v in sums.items()}
                if not math.isfinite(means["total"]):
                    raise DivergenceError(it)
                for k, p in params.items():
                    if p.grad is not None:
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
# the first block, and larger blocks spend more on IoUs never read.
NMS_BLOCK = 64


def nms(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float,
        top_k: Optional[int] = None) -> np.ndarray:
    """Greedy suppression by descending score (stable on ties); returns kept
    indices in rank order, at most top_k of them (the same prefix an
    unlimited run keeps).

    Exact greedy NMS, taken NMS_BLOCK ranked boxes at a time. A box is
    suppressed only by higher-ranked kept boxes, and every one of those is
    either kept in an earlier block or earlier in its own block. So each
    block needs two IoU matrices: one against the boxes kept so far, which
    seeds which of its boxes are still alive, and one within the block, which
    the greedy walk reads row by row. The suppressing box is always
    iou_matrix's first argument, as in a per-box loop, so every IoU is the
    same float."""
    order = np.argsort(-scores, kind="stable")
    keep: list[int] = []
    for start in range(0, len(order), NMS_BLOCK):
        block = order[start:start + NMS_BLOCK]
        ranked = boxes[block]
        kept = boxes[np.array(keep, dtype=np.intp)]
        alive = ~(iou_matrix(kept, ranked) > iou_thresh).any(axis=0)
        over = iou_matrix(ranked, ranked) > iou_thresh
        for j in range(len(block)):
            if alive[j]:
                keep.append(block[j])
                if len(keep) == top_k:
                    return np.array(keep, dtype=np.intp)
                alive &= ~over[j]
    return np.array(keep, dtype=np.intp)


# Image pixels per block: evaluate and audit_flags forward runs of
# consecutive same-extent images together, 4 images at 64x64 and 1 at
# 128x128, and train forwards and backpropagates an iteration's
# BATCH_IMAGES images as one block when they fit (see _train_blocks). A
# forward block's temporaries take about 1 MB at this size; larger blocks
# save little more per image and make glibc more likely to hand the freed
# heap back to the kernel, to be faulted in again by the next block.
INFER_BLOCK = 4 * 64 * 64


def _infer(params: dict[str, Tensor], images: np.ndarray) -> mdl.ProposalBatch:
    """One forward pass without a tape, over an (H, W, 1) image or a
    (B, H, W, 1) block of images (see model.forward_rpn)."""
    with ag.no_grad():
        return mdl.forward_rpn(Tensor(images), params)


def _forward_each(params: dict[str, Tensor], matched: Sequence[MatchedImage],
                  fn: Callable[[int, MatchedImage, mdl.ProposalBatch], object]) -> list:
    """[fn(index, matched image, its forward outputs)] of every image, in
    order. Each run of consecutive same-extent images is forwarded in blocks
    of at most INFER_BLOCK pixels (or of one image). fn gets views of its
    block's outputs and must not keep them: as in a loop over single images,
    a block's outputs are freed before the next forward."""
    out = []
    runs = itertools.groupby(enumerate(matched), key=lambda p: p[1].record.image.shape)
    for (h, w, _), run in runs:
        run = list(run)
        per_block = max(1, INFER_BLOCK // (h * w))
        for start in range(0, len(run), per_block):
            chunk = run[start:start + per_block]
            block = _infer(params, _block([mi.record.image for _, mi in chunk]))
            out += [fn(idx, mi, mdl.ProposalBatch(probs=Tensor(block.probs.data[j]),
                                                  deltas=Tensor(block.deltas.data[j]),
                                                  embeddings=Tensor(block.embeddings.data[j])))
                    for j, (idx, mi) in enumerate(chunk)]
            del block
    return out


def _proposals(batch: mdl.ProposalBatch, anchors: np.ndarray, image: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Decoded, image-clipped, suppressed (NMS_IOU), top-k (TOP_K) proposals
    of a forward pass over image, whose anchors are given: (boxes, scores)."""
    boxes = decode_deltas(anchors, batch.deltas.data)
    h, w = image.shape[:2]
    boxes[:, [0, 2]] = boxes[:, [0, 2]].clip(0.0, float(w))
    boxes[:, [1, 3]] = boxes[:, [1, 3]].clip(0.0, float(h))
    scores = batch.probs.data
    keep = nms(boxes, scores, NMS_IOU, TOP_K)
    return boxes[keep], scores[keep]


def predict(params: dict[str, Tensor], record: ImageRecord, config: TrainConfig
            ) -> tuple[np.ndarray, np.ndarray]:
    """Proposals of one image (_proposals); config is kept for perfbench/test_bench.py."""
    return _proposals(_infer(params, record.image), anchors_for(record.image),
                      record.image)


def _greedy_match(ious: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Greedy matching of one image's detections against its ground truth at
    every threshold at once. ``ious`` is (D, G) with rows in rank order; each
    detection takes its best still-unmatched box when that IoU reaches the
    threshold. Returns (T, D) true-positive flags."""
    n_det, n_gt = ious.shape
    hits = np.zeros((len(thresholds), n_det), dtype=bool)
    if n_gt == 0:
        return hits
    matched = np.zeros((len(thresholds), n_gt), dtype=bool)
    rows = np.arange(len(thresholds))
    # Masking only lowers IoUs, so a row below every threshold never matches.
    for d in np.flatnonzero(ious.max(axis=1) >= thresholds.min()):
        cand = np.where(matched, -1.0, ious[d])
        j = cand.argmax(axis=1)
        hit = cand[rows, j] >= thresholds
        matched[rows[hit], j[hit]] = True
        hits[:, d] = hit
    return hits


def average_precisions(image_ids: np.ndarray, scores: np.ndarray,
                       ious: dict[int, np.ndarray], n_gt: int,
                       thresholds: Sequence[float]) -> np.ndarray:
    """Single-class AP at each threshold. Detections are ranked globally by
    descending score, then image id, then index; ``ious[img]`` is the (D, G)
    IoU matrix of image img's detections, rows in index order, against its
    ground truth. Integrates precision over recall with all-points
    interpolation, summing terms from the last rank to the first."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n = len(scores)
    if n_gt == 0 or n == 0:
        return np.zeros(len(thresholds))
    order = np.lexsort((np.arange(n), image_ids, -scores))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    tp = np.zeros((len(thresholds), n), dtype=bool)
    for img, m in ious.items():
        ranks = rank[image_ids == img]
        by_rank = np.argsort(ranks)
        tp[:, ranks[by_rank]] = _greedy_match(m[by_rank], thresholds)
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
    check_extents(records)
    mdl.check_threshold(config.t)
    counts, scores, ious, flags = [], [np.zeros(0)], {}, []
    n_gt = n_hit = 0
    matched = match_dataset(records)
    per_image = _forward_each(params, matched, lambda idx, mi, batch: (
        _proposals(batch, mi.anchors, mi.record.image),
        _audit_image(batch, mi, idx, config, config.t)))
    for idx, (mi, ((boxes, s), image_flags)) in enumerate(zip(matched, per_image)):
        flags += image_flags
        counts.append(len(s))
        scores.append(s)
        gts = mi.record.full
        n_gt += len(gts)
        if len(gts):
            ious[idx] = m = iou_matrix(boxes, gts)
            if len(boxes):
                n_hit += int((m.max(axis=0) >= 0.5).sum())
    image_ids = np.repeat(np.arange(len(counts)), counts)
    aps = dict(zip(COCO_IOU_THRESHOLDS, average_precisions(
        image_ids, np.concatenate(scores), ious, n_gt, COCO_IOU_THRESHOLDS).tolist()))
    fn = score_fn_detection(flags, records)
    return EvalReport(
        ap50=aps[0.5], ap75=aps[0.75],
        ap=float(np.mean([aps[t] for t in COCO_IOU_THRESHOLDS])),
        recall50=(n_hit / n_gt) if n_gt else 0.0,
        fn_precision=fn.precision, fn_recall=fn.recall, fn_vacuous=fn.vacuous,
    )


# -- false-negative audit -------------------------------------------------------

@dataclass
class Flag:
    image_index: int
    anchor_index: int
    box: np.ndarray          # (4,) corner-form anchor
    score: float


def _audit_image(batch: mdl.ProposalBatch, mi: MatchedImage, idx: int,
                 config: TrainConfig, t: float) -> list[Flag]:
    """Flags of image idx from one forward pass over it; see audit_flags."""
    rng = np.random.default_rng([config.seed_sample, idx, 0xA0D17])
    pos_idx, neg_idx = mdl.sample_proposals(mi.labels, MINIBATCH_SIZE, POS_FRACTION, rng)
    amap = _attend(batch.embeddings.data, pos_idx, neg_idx)
    if amap is None:
        return []
    flagged = mdl.detect_false_negatives(amap, t)
    rows = neg_idx[flagged]
    # a writable copy of the flagged rows only, not a view of the shared grid
    boxes = mi.anchors[rows]
    return [Flag(image_index=idx, anchor_index=int(ai), box=box, score=float(score))
            for ai, box, score in zip(rows, boxes, amap.row_max[flagged])]


def audit_flags(params: dict[str, Tensor], records: Sequence[ImageRecord],
                config: TrainConfig, t: Optional[float] = None) -> list[Flag]:
    """Suspected false negatives of every image at threshold t (default
    config.t), best first. Each image's minibatch is sampled from its own
    generator and attended by the code training uses (_attend), so the
    row-softmax scale matches training's."""
    t = config.t if t is None else t
    check_extents(records)
    mdl.check_threshold(t)
    flags = [f for image_flags in _forward_each(
                 params, match_dataset(records),
                 lambda idx, mi, batch: _audit_image(batch, mi, idx, config, t))
             for f in image_flags]
    flags.sort(key=lambda f: -f.score)
    return flags


@dataclass
class FnScore:
    precision: float
    recall: float
    vacuous: bool = False


def score_fn_detection(flags: Sequence[Flag], records: Sequence[ImageRecord]
                       ) -> FnScore:
    """Precision/recall of flagged anchors against withheld (dropped) boxes:
    a flag is a true positive when it has IoU >= 0.5 with some dropped box of
    its image. With no dropped boxes anywhere recall is vacuous, reported as
    1 with the vacuous marker; precision is then 0 if anything was flagged."""
    n_dropped = sum(len(rec.dropped) for rec in records)
    if n_dropped == 0:
        return FnScore(precision=0.0 if flags else 1.0, recall=1.0, vacuous=True)
    if not flags:
        return FnScore(precision=1.0, recall=0.0)
    by_image: dict[int, list[np.ndarray]] = {}
    for f in flags:
        by_image.setdefault(f.image_index, []).append(f.box)
    tp = n_hit = 0
    for idx, boxes in by_image.items():
        dropped = records[idx].dropped
        if len(dropped):
            close = iou_matrix(np.stack(boxes), dropped) >= 0.5
            tp += int(close.any(axis=1).sum())
            n_hit += int(close.any(axis=0).sum())
    return FnScore(precision=tp / len(flags), recall=n_hit / n_dropped)


def expected_random_recall(flags: Sequence[Flag], records: Sequence[ImageRecord]
                           ) -> float:
    """Expected dropped-box recall of a size-matched uniformly random anchor
    flag set, computed in closed form per image from the hypergeometric
    no-hit probability (math.comb gives 0 when the flags outnumber the
    anchors that miss a box)."""
    counts = Counter(f.image_index for f in flags)
    grids = _anchor_grids(records)
    total, expected = 0, 0.0
    for idx, rec in enumerate(records):
        if not len(rec.dropped):
            continue
        anchors = grids[rec.image.shape[:2]]
        n = len(anchors)
        m = min(counts[idx], n)
        covers = (iou_matrix(rec.dropped, anchors) >= 0.5).sum(axis=1)
        total += len(covers)
        for c in covers:
            expected += 1.0 - math.comb(n - int(c), m) / math.comb(n, m)
    return expected / total if total else 0.0


# -- ablation -------------------------------------------------------------------

def ablate_threshold(config: TrainConfig, records: Sequence[ImageRecord],
                     thresholds: Sequence[float]) -> list[dict]:
    """Train + evaluate once per threshold with identical seeds; returns
    one table row per threshold."""
    rows = []
    for t in thresholds:
        cfg = replace(config, t=t, mode="soft_label")
        params, _ = train(cfg, records)
        rows.append({"t": t, **evaluate(params, records, cfg).to_dict()})
    return rows


def format_ablation_table(rows: Sequence[dict]) -> str:
    cols = ["t", "ap50", "ap75", "ap", "recall50", "fn_precision", "fn_recall"]
    header = "  ".join(f"{c:>12}" for c in cols)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(f"{r[c]:>12.4f}" for c in cols))
    return "\n".join(lines)


def write_metric_log(path, log: Sequence[dict]):
    """One JSON object per line, replacing path atomically."""
    mdl.write_file(path, ((json.dumps(rec) + "\n").encode() for rec in log))
