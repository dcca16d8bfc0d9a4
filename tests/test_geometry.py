import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softrpn.geometry import (GeometryError, decode_deltas, encode_deltas,
                              generate_anchors, iou_matrix, match_anchors)

from conftest import match_one_image


def coord_boxes(max_extent=100.0):
    coord = st.floats(0.0, max_extent, allow_nan=False)
    side = st.floats(0.1, max_extent)
    return st.builds(lambda x, y, w, h: np.array([x, y, x + w, y + h]),
                     coord, coord, side, side)


# -- scalar oracles, written out per box ---------------------------------------

def iou_oracle(a, b) -> float:
    """IoU of two corner-form boxes (x1, y1, x2, y2)."""
    iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def encode_oracle(anchor, gt) -> list[float]:
    aw, ah = anchor[2] - anchor[0], anchor[3] - anchor[1]
    gw, gh = gt[2] - gt[0], gt[3] - gt[1]
    # np.log, like the vectorised encode, so results compare exactly
    return [((gt[0] + gt[2]) / 2 - (anchor[0] + anchor[2]) / 2) / aw,
            ((gt[1] + gt[3]) / 2 - (anchor[1] + anchor[3]) / 2) / ah,
            float(np.log(gw / aw)), float(np.log(gh / ah))]


def match_oracle(anchors, gt, pos_thresh, neg_thresh):
    """match_anchors one anchor at a time: positive at IoU >= pos_thresh or
    when within 1e-9 of some box's best IoU (regressing to the last such
    box, else to the first best box), ignore between the thresholds."""
    labels = np.zeros(len(anchors), dtype=np.int64)
    targets = np.zeros((len(anchors), 4))
    ious = [[iou_oracle(a, g) for g in gt] for a in anchors]
    gt_best = [max(row[j] for row in ious) for j in range(len(gt))]
    for i, row in enumerate(ious):
        forced = [j for j, v in enumerate(row) if gt_best[j] > 0 and v >= gt_best[j] - 1e-9]
        best = max(row, default=0.0)
        if forced or best >= pos_thresh:
            labels[i] = 1
            targets[i] = encode_oracle(anchors[i], gt[forced[-1] if forced else row.index(best)])
        elif best >= neg_thresh:
            labels[i] = -1
    return labels, targets


def decode_oracle(anchor, d) -> list[float]:
    aw, ah = anchor[2] - anchor[0], anchor[3] - anchor[1]
    cx = (anchor[0] + anchor[2]) / 2 + d[0] * aw
    cy = (anchor[1] + anchor[3]) / 2 + d[1] * ah
    w, h = aw * math.exp(d[2]), ah * math.exp(d[3])
    return [cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2]


def iou(a, b) -> float:
    """IoU of two corner-form boxes through iou_matrix."""
    return float(iou_matrix(np.array([a], dtype=np.float64),
                            np.array([b], dtype=np.float64))[0, 0])


class TestGenerateAnchors:
    def test_count_is_cells_times_na(self):
        anchors = generate_anchors(2, 2, 8, [16, 32, 64])
        assert anchors.shape == (12, 4)

    def test_single_cell_center_and_side(self):
        assert generate_anchors(1, 1, 8, [8.0]).tolist() == [[0, 0, 8, 8]]

    def test_deterministic(self):
        assert np.array_equal(generate_anchors(3, 4, 8, [16, 32]),
                              generate_anchors(3, 4, 8, [16, 32]))

    def test_row_major_ordering(self):
        grid = generate_anchors(2, 3, 8, [16, 32]).reshape(2, 3, 2, 4)
        cx = (grid[..., 0] + grid[..., 2]) / 2
        cy = (grid[..., 1] + grid[..., 3]) / 2
        side = grid[..., 2] - grid[..., 0]
        gy, gx, ai = np.meshgrid(np.arange(2), np.arange(3), np.arange(2),
                                 indexing="ij")
        assert np.array_equal(cy, (gy + 0.5) * 8)
        assert np.array_equal(cx, (gx + 0.5) * 8)
        assert np.array_equal(side, np.array([16, 32])[ai])

    def test_aspect_changes_shape_not_area(self):
        (x1, y1, x2, y2), = generate_anchors(1, 1, 8, [16.0], aspect=2.0)
        assert (x2 - x1) / (y2 - y1) == pytest.approx(2.0)
        assert (x2 - x1) * (y2 - y1) == pytest.approx(256.0)


class TestIou:
    def test_identical(self):
        b = (1, 2, 5, 7)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_half_overlapping_unit_squares(self):
        assert iou((0, 0, 1, 1), (0.5, 0, 1.5, 1)) == pytest.approx(1 / 3)

    @given(coord_boxes(), coord_boxes())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(iou(b, a), abs=1e-12)
        assert v == pytest.approx(iou_oracle(a, b), abs=1e-12)

    def test_zero_area_boxes(self):
        z = (1, 1, 1, 1)
        assert iou(z, z) == 0.0


def match_one(anchors, gt, pos_thresh, neg_thresh):
    """match_anchors on one image (B = 1): labels (N,) and targets (N, 4)."""
    labels, targets = match_anchors(anchors, [gt], pos_thresh, neg_thresh)
    assert labels.shape == (1, len(anchors)) and targets.shape == (1, len(anchors), 4)
    return labels[0], targets[0]


class TestMatchAnchors:
    def test_empty_gt_all_negative(self):
        anchors = generate_anchors(2, 2, 8, [16, 32, 64])
        labels, targets = match_one(anchors, np.zeros((0, 4)), 0.7, 0.3)
        assert labels.tolist() == [0] * 12
        assert not targets.any() and targets.shape == (12, 4)

    def test_exact_match_is_positive(self):
        anchors = generate_anchors(2, 2, 8, [16, 32, 64])
        labels, targets = match_one(anchors, anchors[5:6], pos_thresh=0.99,
                                    neg_thresh=0.3)
        assert labels[5] == 1
        assert targets[5].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_matches_brute_force_oracle(self):
        anchors = generate_anchors(2, 2, 8, [16, 32, 64])
        gt = np.array([[2.0, 3.0, 15.0, 13.0]])
        labels, targets = match_one(anchors, gt, 0.7, 0.3)
        # independent per-anchor IoU computation
        ious = [iou_oracle(a, gt[0]) for a in anchors]
        best = max(ious)
        for i, lab in enumerate(labels):
            if ious[i] >= 0.7 or abs(ious[i] - best) < 1e-9:
                assert lab == 1
                np.testing.assert_allclose(targets[i], encode_oracle(anchors[i], gt[0]),
                                           rtol=0, atol=1e-12)
            elif ious[i] < 0.3:
                assert lab == 0 and not targets[i].any()
            else:
                assert lab == -1 and not targets[i].any()

    def test_every_anchor_gets_exactly_one_label(self):
        anchors = generate_anchors(4, 4, 8, [16, 32, 64])
        gt = np.array([[1.0, 1, 17, 15], [10, 12, 30, 29]])
        labels, targets = match_one(anchors, gt, 0.7, 0.3)
        assert labels.shape == (len(anchors),) and targets.shape == (len(anchors), 4)
        assert set(labels.tolist()) <= {-1, 0, 1}
        assert not targets[labels != 1].any()

    def test_argmax_rule_guarantees_a_positive_per_gt(self):
        anchors = generate_anchors(4, 4, 8, [16, 32, 64])
        gt = np.array([[3.0, 3.0, 9.0, 8.0]])  # awkward small box, no anchor reaches 0.7
        labels, _ = match_one(anchors, gt, 0.7, 0.3)
        assert (labels == 1).any()

    def test_iou_exactly_at_a_threshold(self):
        """IoU 0.7 is positive and IoU 0.3 is ignored (both exact in float)."""
        anchors = np.array([[0.0, 0.0, 16.0, 16.0], [0.0, 0.0, 16.0, 4.8],
                            [0.0, 0.0, 16.0, 11.2]])
        assert iou_matrix(anchors, anchors[:1])[:, 0].tolist() == [1.0, 0.3, 0.7]
        labels, _ = match_one(anchors, anchors[:1], 0.7, 0.3)
        assert labels.tolist() == [1, -1, 1]

    def test_box_no_anchor_overlaps_forces_no_positive(self):
        anchors = generate_anchors(2, 2, 8, [16.0])
        labels, targets = match_one(anchors, np.array([[100.0, 100.0, 110.0, 110.0]]),
                                    0.7, 0.3)
        assert not labels.any() and not targets.any()

    def test_anchor_forced_by_two_boxes_regresses_to_the_later(self):
        anchors = generate_anchors(1, 1, 8, [16.0, 64.0])
        gt = np.array([[-4.0, -4.0, 12.0, 12.0], [-3.0, -4.0, 12.0, 12.0]])
        labels, targets = match_one(anchors, gt, 0.9, 0.3)
        assert labels.tolist() == [1, 0]
        np.testing.assert_array_equal(targets[0], encode_oracle(anchors[0], gt[1]))

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.5, 0.7, 0.9]),
           st.sampled_from([1.0, 0.5, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_anchor_loop(self, seed, pos_thresh, aspect):
        gen = np.random.default_rng(seed)
        fh, fw = gen.integers(1, 5, size=2)
        anchors = generate_anchors(fh, fw, 8, [16.0, 32.0, 64.0], aspect)
        xy = gen.uniform(-4, 8 * fw, size=(int(gen.integers(0, 5)), 2))
        gt = np.concatenate([xy, xy + gen.uniform(0.5, 50, size=xy.shape)], axis=1)
        copies = anchors[gen.integers(0, len(anchors), size=int(gen.integers(0, 3)))]
        gt = np.concatenate([gt, copies])              # exact copies give IoU ties
        labels, targets = match_one(anchors, gt, pos_thresh, 0.3)
        want_labels, want_targets = match_oracle(anchors, gt, pos_thresh, 0.3)
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(targets, want_targets)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.45, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_positive_count_monotone_in_pos_thresh(self, seed, thresh):
        gen = np.random.default_rng(seed)
        anchors = generate_anchors(3, 3, 8, [16, 32])
        x, y, w, h = gen.uniform(2, 12, size=(4, 3))
        gt = np.stack([x, y, x + w, y + h], axis=1)
        lo = (match_one(anchors, gt, thresh, 0.3)[0] == 1).sum()
        hi = (match_one(anchors, gt, min(thresh + 0.04, 0.99), 0.3)[0] == 1).sum()
        assert hi <= lo

    def test_threshold_ordering_enforced(self):
        with pytest.raises(GeometryError):
            match_anchors(np.zeros((0, 4)), [], pos_thresh=0.3, neg_thresh=0.3)


def box_set(kind, gen, anchors, extent):
    """One image's (G, 4) ground truth of the given kind."""
    def boxes(n):
        xy = gen.uniform(-4, extent, size=(n, 2))
        return np.concatenate([xy, xy + gen.uniform(0.5, 40, size=xy.shape)], axis=1)
    if kind == "empty":
        return np.zeros((0, 4))
    if kind == "one":
        return boxes(1)
    if kind == "many":
        return boxes(int(gen.integers(2, 12)))
    if kind == "ties":         # exact anchor copies, one of them twice
        copies = anchors[gen.integers(0, len(anchors), size=int(gen.integers(1, 4)))]
        return np.concatenate([boxes(int(gen.integers(0, 3))), copies, copies[:1]])
    # "same_anchor": two nudged copies of one anchor, which is usually the
    # best anchor of both, so two boxes force it
    a = anchors[int(gen.integers(0, len(anchors)))]
    return np.stack([a + gen.uniform(-0.5, 0.5, 4), a + gen.uniform(-0.5, 0.5, 4)])


class TestMatchBlocks:
    """match_anchors over several images equals match_one_image, the
    one-image matcher, on each of them, byte for byte."""

    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.sampled_from(["empty", "one", "many", "ties", "same_anchor"]),
                    min_size=1, max_size=7),
           st.sampled_from([0.5, 0.7, 0.9]), st.sampled_from([0.3, 0.0]),
           st.sampled_from([1.0, 0.5]))
    @settings(max_examples=80, deadline=None)
    def test_equals_one_image_matcher(self, seed, kinds, pos_thresh, neg_thresh, aspect):
        gen = np.random.default_rng(seed)
        fh, fw = gen.integers(1, 6, size=2)
        anchors = generate_anchors(fh, fw, 8, [16.0, 32.0, 64.0], aspect)
        gts = [box_set(kind, gen, anchors, 8 * max(fh, fw)) for kind in kinds]
        labels, targets = match_anchors(anchors, gts, pos_thresh, neg_thresh)
        assert labels.shape == (len(gts), len(anchors)) and labels.dtype == np.int64
        assert targets.shape == (len(gts), len(anchors), 4)
        for b, gt in enumerate(gts):
            want_labels, want_targets = match_one_image(anchors, gt, pos_thresh, neg_thresh)
            assert labels[b].tobytes() == want_labels.tobytes()
            assert targets[b].tobytes() == want_targets.tobytes()

    def test_no_images(self):
        labels, targets = match_anchors(generate_anchors(2, 2, 8, [16.0]), [], 0.7, 0.3)
        assert labels.shape == (0, 4) and targets.shape == (0, 4, 4)

    def test_only_empty_images_are_all_negative(self):
        anchors = generate_anchors(2, 2, 8, [16.0])
        labels, targets = match_anchors(anchors, [np.zeros((0, 4))] * 3, 0.7, 0.3)
        assert not labels.any() and not targets.any() and labels.shape == (3, 4)

    def test_one_box_array_is_not_a_block(self):
        """A bare (G, 4) array reads as G images of one (4,) row each, which
        is refused, not labelled."""
        anchors = generate_anchors(2, 2, 8, [16.0])
        with pytest.raises(GeometryError, match=r"\(G, 4\)"):
            match_anchors(anchors, np.array([[0.0, 0.0, 8.0, 8.0]]), 0.7, 0.3)


class TestDeltaCoding:
    def test_identical_boxes_zero_delta(self):
        b = np.array([[3.0, 4.0, 19.0, 20.0]])
        assert encode_deltas(b, b).tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_double_width_log2(self):
        anchor = np.array([[0.0, 0.0, 16.0, 16.0]])
        gt = np.array([[-8.0, 0.0, 24.0, 16.0]])
        d = encode_deltas(anchor, gt)[0]
        assert d[2] == pytest.approx(np.log(2))
        assert d[3] == 0.0

    def test_round_trip_100_random_pairs(self):
        """encode -> decode returns every ground-truth box."""
        gen = np.random.default_rng(7)
        a_xy, a_wh = gen.uniform(0, 50, (100, 2)), gen.uniform(4, 40, (100, 2))
        g_xy, g_wh = gen.uniform(0, 50, (100, 2)), gen.uniform(1, 60, (100, 2))
        anchors = np.concatenate([a_xy, a_xy + a_wh], axis=1)
        gt = np.concatenate([g_xy, g_xy + g_wh], axis=1)
        back = decode_deltas(anchors, encode_deltas(anchors, gt))
        np.testing.assert_allclose(back, gt, atol=1e-9)

    def test_degenerate_gt_rejected(self):
        with pytest.raises(GeometryError):
            encode_deltas(np.array([[0.0, 0.0, 8.0, 8.0]]),
                          np.array([[2.0, 2.0, 2.0, 5.0]]))

    def test_vectorized_encode_matches_scalar(self):
        gen = np.random.default_rng(5)
        xy = gen.uniform(0, 30, size=(2, 10, 2))
        boxes = np.concatenate([xy, xy + gen.uniform(2, 20, size=(2, 10, 2))], axis=2)
        got = encode_deltas(boxes[0], boxes[1])
        for i in range(10):
            np.testing.assert_allclose(got[i], encode_oracle(boxes[0][i], boxes[1][i]),
                                       rtol=0, atol=1e-12)

    def test_vectorized_decode_matches_scalar(self):
        gen = np.random.default_rng(3)
        x, y, w, h = gen.uniform(2, 20, size=(4, 10))
        anchors = np.stack([x, y, x + w, y + h], axis=1)
        deltas = gen.standard_normal((10, 4)) * 0.3
        got = decode_deltas(anchors, deltas)
        for i in range(10):
            np.testing.assert_allclose(got[i], decode_oracle(anchors[i], deltas[i]),
                                       rtol=0, atol=1e-12)
