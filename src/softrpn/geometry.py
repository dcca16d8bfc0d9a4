"""Boxes, anchor grids, IoU, ground-truth matching, and delta coding.

Boxes are (N, 4) float64 corner-form arrays (x1, y1, x2, y2); iou_matrix
and decode_deltas also take stacks of them, (..., N, 4)."""

from __future__ import annotations

from typing import Sequence

import numpy as np


class GeometryError(Exception):
    pass


def generate_anchors(feat_h: int, feat_w: int, stride: int,
                     scales: Sequence[float], aspect: float = 1.0) -> np.ndarray:
    """(N, 4) corner-form anchors centered at (grid + 0.5) * stride, width
    s * sqrt(aspect) and height s / sqrt(aspect) for each scale s, ordered
    row-major (gy, gx, anchor) with the anchor index fastest."""
    if stride < 1:
        raise GeometryError("stride must be >= 1")
    gy, gx, s = (g.ravel() for g in np.meshgrid(
        np.arange(feat_h), np.arange(feat_w), np.asarray(scales, dtype=np.float64),
        indexing="ij"))
    cy, cx = (gy + 0.5) * stride, (gx + 0.5) * stride
    half_w, half_h = s * np.sqrt(aspect) / 2, s / np.sqrt(aspect) / 2
    return np.stack([cx - half_w, cy - half_h, cx + half_w, cy + half_h], axis=1)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (..., N, 4) against (..., M, 4) corner-form boxes:
    (..., N, M), the leading axes broadcast. Every op is elementwise, so each
    slice is byte for byte the IoU of a 2-D call on its two slices."""
    if a.shape[-2] == 0 or b.shape[-2] == 0:
        return np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                        + (a.shape[-2], b.shape[-2]))
    # in place where the result is the operand's own float: fewer (..., N, M)
    # temporaries, the same IoUs
    iw = np.minimum(a[..., :, None, 2], b[..., None, :, 2])
    iw -= np.maximum(a[..., :, None, 0], b[..., None, :, 0])
    ih = np.minimum(a[..., :, None, 3], b[..., None, :, 3])
    ih -= np.maximum(a[..., :, None, 1], b[..., None, :, 1])
    inter = np.clip(iw, 0, None, out=iw)
    inter *= np.clip(ih, 0, None, out=ih)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a[..., :, None] + area_b[..., None, :]
    union -= inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def pad_boxes(boxes: Sequence[np.ndarray]) -> np.ndarray:
    """The (B, G_max, 4) stack of B (G_i, 4) box arrays, each padded to the
    largest count with (0, 0, 0, 0) rows. A padding box has IoU exactly 0
    with every box (iou_matrix): its intersection is empty and, where the
    other box has no area either, the union is 0 and so is the IoU."""
    out = np.zeros((len(boxes), max(map(len, boxes), default=0), 4))
    for row, b in enumerate(boxes):
        out[row, :len(b)] = b
    return out


def match_anchors(anchors: np.ndarray, gts: Sequence[np.ndarray], pos_thresh: float,
                  neg_thresh: float) -> tuple[np.ndarray, np.ndarray]:
    """Label (N, 4) anchors against the (G_i, 4) ground truth of each of B
    images that share them: returns labels (B, N), 1 positive / 0 negative /
    -1 ignore, and (B, N, 4) delta targets, zero except on positive rows.

    Positive when max-IoU >= pos_thresh, or when the anchor is (within 1e-9
    of) the best anchor for some gt box, so every annotated object owns at
    least one positive; a positive regresses to its best box, or to the last
    box it is forced by. Negative when max-IoU < neg_thresh. An image with
    no gt is all negative.

    The annotated images are labelled together: their boxes are padded to
    the largest count with (0, 0, 0, 0), whose IoU with every anchor (all of
    positive area) is exactly 0, so a padding box is never forced, never
    beats a real box and, as argmax keeps the first of tied indices, is
    never assigned. Every IoU and every target is the float a one-image call
    computes.
    """
    if pos_thresh <= neg_thresh:
        raise GeometryError("pos_thresh must exceed neg_thresh")
    if any(g.ndim != 2 or g.shape[1] != 4 for g in gts):
        raise GeometryError("each image's ground truth must be a (G, 4) array")
    labels = np.zeros((len(gts), len(anchors)), dtype=np.int64)
    targets = np.zeros((len(gts), len(anchors), 4))
    counts = np.array([len(g) for g in gts], dtype=np.intp)
    annotated = np.flatnonzero(counts)
    if not len(annotated):
        return labels, targets
    g_max = int(counts.max())
    padded = pad_boxes([gts[b] for b in annotated])
    # (B', G_max, N): image by box by anchor. IoU is symmetric float for
    # float (+, min and max commute), so this is iou_matrix(anchors, gt).T.
    m = iou_matrix(padded.reshape(-1, 4), anchors).reshape(len(annotated), g_max, -1)
    best_iou = m.max(axis=1)
    lab = np.zeros(best_iou.shape, dtype=np.int64)
    lab[best_iou >= pos_thresh] = 1
    lab[(best_iou >= neg_thresh) & (best_iou < pos_thresh)] = -1
    gt_best = m.max(axis=2)
    # forced: within 1e-9 of its box's best IoU, when that best is above 0
    floor = np.where(gt_best > 0, gt_best - 1e-9, np.inf)[:, :, None]
    lab[(m >= floor).any(axis=1)] = 1
    image_row, anchor_idx = np.nonzero(lab == 1)
    ious = m[image_row, :, anchor_idx]                    # (P, G_max)
    forced = ious >= floor[image_row, :, 0]
    # index of the last box forcing each positive, -1 where none does
    last_forced = (forced * np.arange(1, g_max + 1)).max(axis=1) - 1
    assigned = np.where(last_forced >= 0, last_forced, ious.argmax(axis=1))
    labels[annotated] = lab
    targets[annotated[image_row], anchor_idx] = encode_deltas(
        anchors[anchor_idx], padded[image_row, assigned])
    return labels, targets


def _centers_and_sizes(boxes: np.ndarray) -> tuple[np.ndarray, ...]:
    w = boxes[..., 2] - boxes[..., 0]
    h = boxes[..., 3] - boxes[..., 1]
    return (boxes[..., 0] + boxes[..., 2]) / 2, (boxes[..., 1] + boxes[..., 3]) / 2, w, h


def encode_deltas(anchors: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """(N, 4) regression targets (dx, dy, dw, dh) of corner-form gt boxes
    relative to their anchors, row by row; both must have positive extent."""
    ax, ay, aw, ah = _centers_and_sizes(anchors)
    gx, gy, gw, gh = _centers_and_sizes(gt)
    if (gw <= 0).any() or (gh <= 0).any():
        raise GeometryError("ground-truth box has non-positive extent")
    if (aw <= 0).any() or (ah <= 0).any():
        raise GeometryError("anchor has non-positive extent")
    return np.stack([(gx - ax) / aw, (gy - ay) / ah,
                     np.log(gw / aw), np.log(gh / ah)], axis=1)


def decode_deltas(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Inverse of encode_deltas: anchors (N, 4) corner form, deltas
    (..., N, 4), such as a block's (B, N, 4), the anchors broadcast over the
    leading axes. Every op is elementwise, so each slice is byte for byte
    that slice's own 2-D call."""
    ax, ay, aw, ah = _centers_and_sizes(anchors)
    cx = ax + deltas[..., 0] * aw
    cy = ay + deltas[..., 1] * ah
    w = aw * np.exp(deltas[..., 2])
    h = ah * np.exp(deltas[..., 3])
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1)
