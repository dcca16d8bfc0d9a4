"""Boxes, anchor grids, IoU, ground-truth matching, and delta coding.

Boxes are (N, 4) float64 corner-form arrays (x1, y1, x2, y2)."""

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
    """Pairwise IoU of (N, 4) against (M, 4) corner-form boxes."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(ix2 - ix1, 0, None) * np.clip(iy2 - iy1, 0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def match_anchors(anchors: np.ndarray, gt: np.ndarray, pos_thresh: float,
                  neg_thresh: float) -> tuple[np.ndarray, np.ndarray]:
    """Label (N, 4) anchors against (G, 4) ground truth: returns labels
    (N,), 1 positive / 0 negative / -1 ignore, and (N, 4) delta targets,
    zero except on positive rows.

    Positive when max-IoU >= pos_thresh, or when the anchor is (within 1e-9
    of) the best anchor for some gt box, so every annotated object owns at
    least one positive; a positive regresses to its best box, or to the last
    box it is forced by. Negative when max-IoU < neg_thresh. With no gt,
    everything is negative.
    """
    if pos_thresh <= neg_thresh:
        raise GeometryError("pos_thresh must exceed neg_thresh")
    labels = np.zeros(len(anchors), dtype=np.int64)
    targets = np.zeros((len(anchors), 4))
    if not len(gt):
        return labels, targets
    m = iou_matrix(anchors, gt)
    best_iou = m.max(axis=1)
    labels[best_iou >= pos_thresh] = 1
    labels[(best_iou >= neg_thresh) & (best_iou < pos_thresh)] = -1
    gt_best = m.max(axis=0)
    forced = (m >= gt_best - 1e-9) & (gt_best > 0)
    is_forced = forced.any(axis=1)
    assigned = np.where(is_forced, len(gt) - 1 - forced[:, ::-1].argmax(axis=1),
                        m.argmax(axis=1))
    labels[is_forced] = 1
    pos = labels == 1
    targets[pos] = encode_deltas(anchors[pos], gt[assigned[pos]])
    return labels, targets


def _centers_and_sizes(boxes: np.ndarray) -> tuple[np.ndarray, ...]:
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    return (boxes[:, 0] + boxes[:, 2]) / 2, (boxes[:, 1] + boxes[:, 3]) / 2, w, h


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
    (N, 4)."""
    ax, ay, aw, ah = _centers_and_sizes(anchors)
    cx = ax + deltas[:, 0] * aw
    cy = ay + deltas[:, 1] * ah
    w = aw * np.exp(deltas[:, 2])
    h = ah * np.exp(deltas[:, 3])
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
