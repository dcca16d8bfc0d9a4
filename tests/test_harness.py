import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softrpn import autograd as ag
from softrpn import data as dat
from softrpn import harness as hz
from softrpn import model as mdl
from softrpn.geometry import iou_matrix

from conftest import attend_one_image, image_loss, match_one_image, train_per_image


# A small config and dataset for fast training tests.
def tiny_config(**over):
    base = dict(total_iters=20, milestones=(8, 14), seed_init=0, seed_sample=0)
    base.update(over)
    return hz.TrainConfig(**base)


def tiny_records(n_images=12, size=64, drop_rate=0.3, seed=0):
    return dat.generate_benchmark(n_images, size, drop_rate, seed=seed)


class TestTrainConfig:
    def test_defaults_valid(self):
        hz.TrainConfig()

    @pytest.mark.parametrize("bad", [
        dict(t=0.0), dict(t=1.0), dict(t=-0.2),
        dict(mode="softlabel"),
        dict(milestones=(800, 500)),
        dict(milestones=(500, 1000)),          # not < total_iters
        dict(n_anchors=2),                     # retired; must equal the 3 default scales
        dict(stride=16),                       # retired key; the backbone stride is 8
        dict(total_iters=12, milestones=(6, 12)),
        dict(total_iters=0), dict(total_iters=-3), dict(batch_images=0),
        dict(pos_thresh=0.3, neg_thresh=0.7), dict(pos_thresh=0.5, neg_thresh=0.5),
        dict(d_embed=0), dict(top_k=0), dict(minibatch_size=0),
        dict(n_anchors=0, anchor_scales=()),
        dict(nms_iou=-1.0), dict(nms_iou=1.5), dict(nms_iou=float("nan")),
        dict(anchor_aspect=-1.0), dict(anchor_aspect=0.0),
        dict(anchor_aspect=float("inf")),
        dict(anchor_scales=(16.0, 0.0, 64.0)), dict(anchor_scales=(-16.0, 32.0, 64.0)),
        dict(pos_fraction=0.0), dict(pos_fraction=1.0), dict(pos_fraction=1.5),
        dict(n_anchors=3, anchor_scales=(16.0, 32.0)),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            hz.TrainConfig.from_dict(bad)

    @pytest.mark.parametrize("doc, message", [
        ({"bogus": 1}, "unknown config key 'bogus'"),
        ({"t": "x"}, "config key 't' must be"),
        ({"total_iters": 12.5}, "config key 'total_iters' must be"),
        ({"top_k": True}, "config key 'top_k' must be"),
        ({"anchor_scales": [16, "32", 64]}, "config key 'anchor_scales' must be"),
        ({"milestones": 5}, "config key 'milestones' must be"),
        ([1, 2], "config must be a JSON object"),
        ({"total_iters": -3}, "total_iters must be at least 1, got -3"),
        ({"mode": "softlabel"}, "unknown mode 'softlabel'"),
        ({"milestones": [8, 4]}, "milestones must be strictly increasing"),
        ({"d_embed": 0}, "d_embed must be at least 1, got 0"),
        ({"lr": 0}, "lr must be finite and positive, got 0"),
        ({"lr": -0.01}, "lr must be finite and positive, got -0.01"),
        ({"lr": float("inf")}, "lr must be finite and positive, got inf"),
        ({"lr": float("nan")}, "lr must be finite and positive, got nan"),
        ({"lr": 10 ** 400}, "lr must be finite and positive, got 1000"),
        ({"milestones": [-1]}, "milestones must be at least 1, got -1"),
        ({"milestones": [0, 5]}, "milestones must be at least 1, got 0"),
        ({"seed_init": -1}, "seed_init must be non-negative, got -1"),
        ({"seed_sample": -2}, "seed_sample must be non-negative, got -2"),
    ])
    def test_from_dict_names_the_bad_key(self, doc, message):
        with pytest.raises(ValueError, match=message):
            hz.TrainConfig.from_dict(doc)

    def test_retired_keys_accepted_and_dropped(self):
        retired = {"image_size": 128, "stride": 8, "n_images": 60, "drop_rate": 0.3,
                   "seed_data": 4}
        cfg = hz.TrainConfig.from_dict({**retired, "t": 0.6, "milestones": None})
        assert cfg == hz.TrainConfig(t=0.6)
        assert not set(retired) & set(cfg.to_dict())

    @pytest.mark.parametrize("doc", [{"n_anchors": 3},
                                     {"n_anchors": 3, "anchor_scales": [16, 32, 64]}])
    def test_retired_n_anchors_equal_to_scale_count_loads(self, doc):
        cfg = hz.TrainConfig.from_dict(doc)
        assert cfg.n_anchors == doc["n_anchors"] == len(mdl.ANCHOR_SCALES)
        assert "n_anchors" not in cfg.to_dict()

    def test_anchor_count_is_the_scale_count(self):
        assert len(fields(hz.TrainConfig)) == 8
        assert hz.TrainConfig().n_anchors == mdl.N_ANCHORS == len(mdl.ANCHOR_SCALES) == 3

    @pytest.mark.parametrize("key", sorted(hz.FIXED_CONFIG))
    def test_fixed_key_loads_only_at_its_value(self, key):
        """An older config's fixed key loads, and is dropped, at its fixed
        value (a list as JSON gives it); any other value, a value of the
        wrong type or a bool (True equals anchor_aspect's 1.0) is refused
        with a line naming the key and its value."""
        fixed = hz.FIXED_CONFIG[key]
        as_json = list(fixed) if isinstance(fixed, tuple) else fixed
        cfg = hz.TrainConfig.from_dict({key: as_json, "t": 0.6})
        assert cfg == hz.TrainConfig(t=0.6) and key not in cfg.to_dict()
        other = [2 * v for v in fixed] if isinstance(fixed, tuple) else 2 * fixed
        for bad in (other, "x", True, None):
            with pytest.raises(ValueError, match=re.escape(
                    f"config key {key!r} must be {fixed!r}, its fixed value, got {bad!r}")):
                hz.TrainConfig.from_dict({key: bad})

    def test_parent_format_config_loads_to_the_eight_fields(self):
        """Every key of the committed checkpoints' meta.config, at the
        values they hold, loads to the config the eight fields give."""
        doc = {"t": 0.8, "d_embed": 32, "n_anchors": 3, "mode": "baseline",
               "lr": 0.0016666666666666668, "momentum": 0.9, "total_iters": 400,
               "milestones": [200, 320], "lr_decay": 0.1, "batch_images": 4,
               "minibatch_size": 64, "pos_fraction": 0.25, "drop_rate": 0.3,
               "image_size": 128, "n_images": 200, "anchor_scales": [16.0, 32.0, 64.0],
               "anchor_aspect": 1.0, "stride": 8, "pos_thresh": 0.7, "neg_thresh": 0.3,
               "nms_iou": 0.7, "top_k": 50, "seed_data": 0, "seed_init": 0,
               "seed_sample": 0}
        cfg = hz.TrainConfig.from_dict(doc)
        assert cfg == hz.TrainConfig(mode="baseline", total_iters=400, milestones=(200, 320))
        assert cfg.to_dict() == {"t": 0.8, "d_embed": 32, "mode": "baseline",
                                 "lr": 0.0016666666666666668, "total_iters": 400,
                                 "milestones": (200, 320), "seed_init": 0, "seed_sample": 0}

    @pytest.mark.parametrize("total_iters, milestones", [
        (1000, (500, 800)), (12, (6, 9)), (3, (1, 2)), (2, (1,)), (1, ()),
    ])
    def test_default_milestones_scale_with_total_iters(self, total_iters, milestones):
        assert hz.TrainConfig(total_iters=total_iters).milestones == milestones

    def test_explicit_milestones_kept(self):
        assert hz.TrainConfig(total_iters=12, milestones=[2, 5]).milestones == (2, 5)

    def test_dict_round_trip(self):
        cfg = hz.TrainConfig(t=0.6, mode="baseline", milestones=(100, 200),
                             total_iters=300)
        again = hz.TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_to_dict_is_json_serializable(self):
        import json
        json.dumps(hz.TrainConfig().to_dict())


def nms_oracle(boxes, scores, iou_thresh, top_k=None):
    """Greedy NMS one kept box at a time: each kept box suppresses every box
    it overlaps by more than iou_thresh."""
    order = np.argsort(-scores, kind="stable")
    keep = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    for i in order:
        if suppressed[i]:
            continue
        keep.append(i)
        if len(keep) == top_k:
            break
        suppressed |= iou_matrix(boxes[i:i + 1], boxes)[0] > iou_thresh
    return np.array(keep, dtype=np.intp)


def nms_instance(gen, n, pitch=4):
    """n boxes on a coarse grid of the given pitch, so exact duplicates and
    zero-area boxes are common, with a few rows copied outright; scores on a
    0.1 grid (ties)."""
    xy = gen.integers(0, 12, (n, 2)) * float(pitch)
    wh = gen.integers(0, 6, (n, 2)) * float(pitch)
    boxes = np.concatenate([xy, xy + wh], axis=1)
    if n > 1:
        boxes[gen.integers(0, n, n // 8)] = boxes[gen.integers(0, n, n // 8)]
    return boxes, np.round(gen.random(n), 1)


class TestNms:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 300),
           st.sampled_from([0.0, 0.5, 1.0]),
           st.sampled_from(["none", 1, hz.NMS_BLOCK - 1, hz.NMS_BLOCK,
                            hz.NMS_BLOCK + 1, "more"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_box_oracle(self, seed, n, iou_thresh, top_k):
        """Runs of 0-300 boxes cross zero or more block boundaries."""
        top_k = {"none": None, "more": n + 1}.get(top_k, top_k)
        boxes, scores = nms_instance(np.random.default_rng(seed), n)
        keep = hz.nms(boxes, scores, iou_thresh, top_k)
        assert keep.dtype == np.intp
        assert np.array_equal(keep, nms_oracle(boxes, scores, iou_thresh, top_k))

    @pytest.mark.parametrize("size", [64, 128])
    def test_evaluate_equals_evaluate_with_oracle(self, size, monkeypatch):
        """A trained model's report is unchanged with the per-box oracle,
        applied to each image of a forward block, in place of nms, at the
        fixed TOP_K and with (nearly) no limit."""
        records = tiny_records(6, size=size)
        cfg = tiny_config()
        params, _ = hz.train(cfg, records)

        def per_image_oracle(boxes, scores, iou_thresh, top_k):
            assert boxes.ndim == 3
            return [nms_oracle(b, s, iou_thresh, top_k) for b, s in zip(boxes, scores)]

        for top_k in (hz.TOP_K, 1000):
            monkeypatch.setattr(hz, "TOP_K", top_k)
            report = hz.evaluate(params, records, cfg)
            with monkeypatch.context() as m:
                m.setattr(hz, "nms", per_image_oracle)
                assert hz.evaluate(params, records, cfg) == report
            assert report.recall50 > 0.0

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(0, 200),
           st.sampled_from([0.0, 0.5, 1.0]),
           st.sampled_from(["none", 1, hz.NMS_BLOCK - 1, hz.NMS_BLOCK, hz.NMS_BLOCK + 1,
                            2 * hz.NMS_BLOCK + 5, "more"]))
    @settings(max_examples=150, deadline=None)
    def test_block_equals_per_box_oracle_image_by_image(self, seed, n_img, n, iou_thresh,
                                                        top_k):
        """A block of B images with n boxes each keeps, image by image, what
        the per-box oracle keeps. The images' boxes lie on grids of different
        pitch, so their kept counts differ and the images reach top_k in
        different NMS blocks, or never."""
        top_k = {"none": None, "more": n + 1}.get(top_k, top_k)
        gen = np.random.default_rng(seed)
        boxes, scores = map(np.stack, zip(*(nms_instance(gen, n, int(gen.integers(1, 5)))
                                            for _ in range(n_img))))
        keep = hz.nms(boxes, scores, iou_thresh, top_k)
        assert isinstance(keep, list) and len(keep) == n_img
        for b, s, k in zip(boxes, scores, keep):
            assert k.dtype == np.intp
            assert np.array_equal(k, nms_oracle(b, s, iou_thresh, top_k))

    def test_suppression_chain_equals_per_box_oracle(self):
        """Worst case of the fixed point: a chain of NMS_BLOCK boxes, each
        overlapping only its neighbours, ranked along the chain, so greedy
        keeps every other box and each pass settles one more box. The second
        image is the chain ranked the other way round."""
        x = 4.0 * np.arange(hz.NMS_BLOCK)
        chain = np.stack([x, 0 * x, x + 10.0, 0 * x + 10.0], axis=1)   # neighbours: IoU 3/7
        scores = 1.0 - np.arange(hz.NMS_BLOCK) / 100
        boxes, scores = np.stack([chain, chain]), np.stack([scores, scores[::-1]])
        keep = hz.nms(boxes, scores, 0.3)
        assert keep[0].tolist() == list(range(0, hz.NMS_BLOCK, 2))
        assert keep[1].tolist() == list(range(hz.NMS_BLOCK - 1, -1, -2))
        for b, s, k in zip(boxes, scores, keep):
            assert np.array_equal(k, nms_oracle(b, s, 0.3))

    def test_disjoint_boxes_all_kept(self):
        boxes = np.array([[0, 0, 10, 10], [20, 20, 30, 30]], float)
        keep = hz.nms(boxes, np.array([0.9, 0.8]), 0.5)
        assert sorted(keep) == [0, 1]

    def test_duplicate_suppressed_keeps_higher_score(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11], [0, 0, 10, 10]], float)
        keep = hz.nms(boxes, np.array([0.5, 0.9, 0.7]), 0.5)
        assert list(keep) == [1]

    def test_chain_not_transitively_suppressed(self):
        # a overlaps b, b overlaps c, but a and c are disjoint: greedy keeps
        # a and c when a scores highest
        boxes = np.array([[0, 0, 10, 10], [4, 0, 14, 10], [8, 0, 18, 10]], float)
        keep = hz.nms(boxes, np.array([0.9, 0.8, 0.7]), 0.3)
        assert sorted(keep) == [0, 2]

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_limit_keeps_prefix_of_unlimited(self, seed, top_k):
        gen = np.random.default_rng(seed)
        xy = gen.random((40, 2)) * 30
        boxes = np.concatenate([xy, xy + 2 + gen.random((40, 2)) * 12], axis=1)
        scores = np.round(gen.random(40), 1)            # ties exercise stability
        full = hz.nms(boxes, scores, 0.5)
        assert np.array_equal(hz.nms(boxes, scores, 0.5, top_k), full[:top_k])

    def test_kept_in_descending_score_order(self, rng):
        boxes = rng.random((20, 2)) * 40
        boxes = np.concatenate([boxes, boxes + 5.0], axis=1)
        scores = rng.random(20)
        keep = hz.nms(boxes, scores, 0.7)
        assert (np.diff(scores[keep]) <= 0).all()


# -- brute-force AP oracle -------------------------------------------------------

def ap_oracle(detections, gt_boxes, iou_thresh):
    """AP recomputed from scratch at every confidence cutoff: for each prefix
    of the globally ranked detection list, greedy-match that prefix against
    the ground truth and record (precision, recall); integrate with the
    all-points precision envelope."""
    n_gt = sum(len(b) for b in gt_boxes.values())
    if n_gt == 0:
        return 0.0
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i][1], detections[i][0], i))
    precisions, recalls = [], []
    for cutoff in range(1, len(order) + 1):
        matched = {img: np.zeros(len(b), dtype=bool) for img, b in gt_boxes.items()}
        tp = 0
        for i in order[:cutoff]:
            img, _, box = detections[i]
            gts = gt_boxes.get(img)
            if gts is None or not len(gts):
                continue
            ious = iou_matrix(box[None, :], gts)[0]
            ious[matched[img]] = -1.0
            j = int(np.argmax(ious))
            if ious[j] >= iou_thresh:
                matched[img][j] = True
                tp += 1
        precisions.append(tp / cutoff)
        recalls.append(tp / n_gt)
    ap = 0.0
    best = 0.0
    for k in range(len(order) - 1, -1, -1):
        best = max(best, precisions[k])
        r_prev = recalls[k - 1] if k > 0 else 0.0
        ap += (recalls[k] - r_prev) * best
    return float(ap)


def random_ap_instance(gen):
    """Up to 8 detections and up to 5 gt boxes spread over 1-3 images."""
    n_img = int(gen.integers(1, 4))
    gt_boxes = {}
    for img in range(n_img):
        n = int(gen.integers(0, 3))
        b = gen.random((n, 2)) * 30
        gt_boxes[img] = np.concatenate([b, b + 4 + gen.random((n, 2)) * 12], axis=1)
    detections = []
    for _ in range(int(gen.integers(0, 9))):
        img = int(gen.integers(0, n_img))
        xy = gen.random(2) * 30
        wh = 4 + gen.random(2) * 12
        box = np.array([xy[0], xy[1], xy[0] + wh[0], xy[1] + wh[1]])
        # duplicate scores occur with prob ~1/2 to exercise tie-breaking
        score = round(float(gen.random()), 1)
        detections.append((img, score, box))
    return detections, gt_boxes


def multi_image_instance(gen):
    """Detections over 3-5 images with scores on a 0.1 grid, so ties across
    images are common. Image 0 has no detections, the last image has no
    ground truth, and some detections fall on an image absent from gt_boxes."""
    n_img = int(gen.integers(3, 6))
    gt_boxes = {}
    for img in range(n_img):
        n = int(gen.integers(1, 4)) if img < n_img - 1 else 0
        b = gen.random((n, 2)) * 30
        gt_boxes[img] = np.concatenate([b, b + 4 + gen.random((n, 2)) * 12], axis=1)
    detections = []
    for _ in range(int(gen.integers(0, 16))):
        img = int(gen.integers(1, n_img + 1))
        gts = gt_boxes.get(img, np.zeros((0, 4)))
        if len(gts) and gen.random() < 0.5:         # jittered copy of a gt box
            box = gts[int(gen.integers(0, len(gts)))] + gen.normal(0, 1.5, 4)
        else:
            xy = gen.random(2) * 30
            box = np.concatenate([xy, xy + 4 + gen.random(2) * 12])
        detections.append((img, round(float(gen.random()), 1), box))
    return detections, gt_boxes


class TestAveragePrecision:
    def test_perfect_predictions_give_one(self, rng):
        b = rng.random((4, 2)) * 30
        gts = np.concatenate([b, b + 5], axis=1)
        gt_boxes = {0: gts}
        detections = [(0, 1.0, box.copy()) for box in gts]
        for thr in (0.5, 0.75, 0.95):
            assert hz.average_precision(detections, gt_boxes, thr) == 1.0

    def test_no_predictions_give_zero(self, rng):
        gt_boxes = {0: np.array([[0.0, 0.0, 10.0, 10.0]])}
        assert hz.average_precision([], gt_boxes, 0.5) == 0.0

    def test_five_predictions_three_gt_matches_oracle(self):
        gt_boxes = {0: np.array([[0, 0, 10, 10], [20, 0, 30, 10], [40, 0, 50, 10]],
                                float)}
        detections = [
            (0, 0.9, np.array([0.0, 0.0, 10.0, 10.0])),    # hit
            (0, 0.8, np.array([1.0, 1.0, 11.0, 11.0])),    # dup of gt 0
            (0, 0.7, np.array([60.0, 0.0, 70.0, 10.0])),   # miss
            (0, 0.6, np.array([20.0, 0.0, 30.0, 10.0])),   # hit
            (0, 0.5, np.array([41.0, 0.0, 50.0, 10.0])),   # hit at 0.5 only
        ]
        for thr in (0.5, 0.75):
            assert hz.average_precision(detections, gt_boxes, thr) == \
                ap_oracle(detections, gt_boxes, thr)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_random_instances(self, seed):
        gen = np.random.default_rng(seed)
        detections, gt_boxes = random_ap_instance(gen)
        for thr in (0.5, 0.75):
            assert hz.average_precision(detections, gt_boxes, thr) == \
                ap_oracle(detections, gt_boxes, thr)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_all_thresholds_at_once_match_oracle(self, seed):
        gen = np.random.default_rng(seed)
        detections, gt_boxes = multi_image_instance(gen)
        image_ids = np.array([d[0] for d in detections], dtype=np.int64)
        scores = np.array([d[1] for d in detections])
        boxes = np.array([d[2] for d in detections]).reshape(-1, 4)
        ious = {img: iou_matrix(boxes[image_ids == img], gts)
                for img, gts in gt_boxes.items() if len(gts)}
        n_gt = sum(len(b) for b in gt_boxes.values())
        got = hz.average_precisions(image_ids, scores, ious, n_gt,
                                    hz.COCO_IOU_THRESHOLDS)
        assert got.shape == (len(hz.COCO_IOU_THRESHOLDS),)
        for thr, ap in zip(hz.COCO_IOU_THRESHOLDS, got):
            assert ap == ap_oracle(detections, gt_boxes, thr), f"AP@{thr}"

    def test_iou_equal_to_threshold_is_a_hit(self):
        gt_boxes = {0: np.array([[0.0, 0.0, 10.0, 10.0], [40.0, 0.0, 50.0, 10.0]])}
        detections = [(0, 0.9, np.array([0.0, 0.0, 10.0, 20.0])),     # IoU 0.5
                      (0, 0.8, np.array([40.0, 0.0, 50.0, 7.5]))]     # IoU 0.75
        ious = {0: iou_matrix(np.array([d[2] for d in detections]), gt_boxes[0])}
        got = hz.average_precisions(np.zeros(2, dtype=np.int64), np.array([0.9, 0.8]),
                                    ious, 2, (0.5, 0.75, 0.8))
        assert got.tolist() == [1.0, 0.5 * 0.5, 0.0]

    def test_hundred_detection_instance_matches_oracle(self):
        """Long enough that summing the area terms pairwise (np.sum) rather
        than in the oracle's sequential order changes AP at five of these
        six thresholds."""
        gen = np.random.default_rng(4)
        gt_boxes = {}
        for img in range(4):
            b = gen.random((6, 2)) * 40
            gt_boxes[img] = np.concatenate([b, b + 4 + gen.random((6, 2)) * 12], axis=1)
        detections = []
        for _ in range(100):
            img = int(gen.integers(0, 4))
            if gen.random() < 0.5:
                box = gt_boxes[img][int(gen.integers(0, 6))] + gen.normal(0, 1.5, 4)
            else:
                xy = gen.random(2) * 40
                box = np.concatenate([xy, xy + 4 + gen.random(2) * 12])
            detections.append((img, float(gen.random()), box))
        for thr in hz.COCO_IOU_THRESHOLDS[:6]:
            assert hz.average_precision(detections, gt_boxes, thr) == \
                ap_oracle(detections, gt_boxes, thr)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_ap_at_most_ap50(self, seed):
        gen = np.random.default_rng(seed)
        detections, gt_boxes = random_ap_instance(gen)
        aps = [hz.average_precision(detections, gt_boxes, t)
               for t in hz.COCO_IOU_THRESHOLDS]
        assert np.mean(aps) <= aps[0] + 1e-12


def greedy_match_oracle(ious, thresholds):
    """Greedy matching of one image's (D, G) IoUs, rows in rank order, at
    every threshold, one detection at a time: each takes its best
    still-unmatched box when that IoU reaches the threshold. (T, D) hits."""
    hits = np.zeros((len(thresholds), len(ious)), dtype=bool)
    for t, thr in enumerate(thresholds):
        matched = np.zeros(ious.shape[1], dtype=bool)
        for d, row in enumerate(ious):
            if not len(row):
                continue
            cand = np.where(matched, -1.0, row)
            j = int(cand.argmax())
            if cand[j] >= thr:
                matched[j] = hits[t, d] = True
    return hits


class TestLockstepMatching:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_equals_per_image_matching_on_ragged_stacks(self, seed, n_img):
        """Images of 0-8 detections and 0-5 boxes, padded with -1.0 into one
        stack, match as each does alone, at any threshold if it has boxes.
        IoUs lie on a 0.1 grid, so ties between boxes and IoUs equal to a
        threshold are common."""
        gen = np.random.default_rng(seed)
        thresholds = np.array(hz.COCO_IOU_THRESHOLDS + (0.0, -1.0, -2.0))
        mats = [gen.integers(0, 11, (gen.integers(0, 9), gen.integers(0, 6))) / 10
                for _ in range(n_img)]
        stack = np.full((n_img, max(map(len, mats)), max(m.shape[1] for m in mats)), -1.0)
        for c, m in enumerate(mats):
            stack[c, :m.shape[0], :m.shape[1]] = m
        hits = hz._greedy_match(stack, thresholds)
        assert hits.shape == (len(thresholds),) + stack.shape[:2]
        for c, m in enumerate(mats):
            if m.shape[1]:
                assert np.array_equal(hits[:, c, :len(m)], greedy_match_oracle(m, thresholds))
            else:       # only padding columns: no hit at any threshold above -1
                assert not hits[thresholds > -1, c].any()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_any_chunking_gives_the_oracle_ap(self, seed):
        """average_precisions matches in stacks of at most MATCH_BLOCK IoUs;
        stacks of one image, of a few, and of all give the oracle's AP."""
        gen = np.random.default_rng(seed)
        detections, gt_boxes = multi_image_instance(gen)
        image_ids = np.array([d[0] for d in detections], dtype=np.int64)
        scores = np.array([d[1] for d in detections])
        boxes = np.array([d[2] for d in detections]).reshape(-1, 4)
        ious = {img: iou_matrix(boxes[image_ids == img], gts)
                for img, gts in gt_boxes.items() if len(gts)}
        n_gt = sum(len(b) for b in gt_boxes.values())
        want = [ap_oracle(detections, gt_boxes, t) for t in hz.COCO_IOU_THRESHOLDS]
        for block in (1, 12, 2 ** 40):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(hz, "MATCH_BLOCK", block)
                got = hz.average_precisions(image_ids, scores, ious, n_gt,
                                            hz.COCO_IOU_THRESHOLDS)
            assert got.tolist() == want


class HiddenDropped(dat.ImageRecord):
    """An ImageRecord whose withheld boxes raise on access."""

    def __getattribute__(self, name):
        if name == "dropped":
            raise AssertionError("the withheld boxes were read")
        return super().__getattribute__(name)


class TestTrain:
    def test_deterministic(self):
        cfg = tiny_config()
        records = tiny_records()
        p1, log1 = hz.train(cfg, records)
        p2, log2 = hz.train(cfg, records)
        for k in p1:
            np.testing.assert_array_equal(p1[k].data, p2[k].data)
        assert log1 == log2

    def test_baseline_equals_soft_with_unreachable_threshold(self):
        records = dat.generate_benchmark(12, 64, 0.3, seed=0)
        base_cfg = tiny_config(mode="baseline")
        soft_cfg = tiny_config(mode="soft_label", t=1.0 - 1e-9)
        pb, logb = hz.train(base_cfg, records)
        ps, logs = hz.train(soft_cfg, records)
        for rb, rs in zip(logb, logs):
            assert abs(rb["total"] - rs["total"]) <= 1e-9
            assert rs["flagged"] == 0
        for k in pb:
            np.testing.assert_allclose(pb[k].data, ps[k].data, atol=1e-9)

    def test_lr_decays_tenfold_at_each_milestone(self):
        cfg = tiny_config()
        records = tiny_records()
        _, log = hz.train(cfg, records)
        lrs = [r["lr"] for r in log]
        assert lrs[0] == cfg.lr
        assert lrs[cfg.milestones[0]] == pytest.approx(cfg.lr * 0.1)
        assert lrs[cfg.milestones[1]] == pytest.approx(cfg.lr * 0.01)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            hz.train(tiny_config(), [])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_iteration(self):
        cfg = tiny_config(total_iters=5, milestones=(4,))
        records = tiny_records(2)
        # an overflowing input drives the regression loss to infinity
        records[0].image[...] = 1e200
        records[1].image[...] = 1e200
        with pytest.raises(hz.DivergenceError) as e:
            hz.train(cfg, records)
        assert 0 <= e.value.iteration < cfg.total_iters
        assert str(e.value.iteration) in str(e.value)

    def test_finite_blow_up_raises_at_its_iteration(self):
        """Under lr 1e30 every value stays finite while the mean total
        jumps from 2.43 to ~6.7e151 at iteration 1: the run stops there, on
        DIVERGENCE_LOSS and not on an overflow."""
        cfg = hz.TrainConfig(lr=1e30, total_iters=12)
        with pytest.raises(hz.DivergenceError) as e:
            hz.train(cfg, dat.generate_benchmark(12, 64, 0.3, seed=0))
        assert e.value.iteration == 1
        assert e.value.__cause__ is None
        assert "exceeded 1e+06" in str(e.value)

    @pytest.mark.parametrize("mode", ["baseline", "soft_label"])
    def test_never_reads_the_withheld_boxes(self, mode):
        """Training sees only the kept boxes: records whose withheld boxes
        raise on access train to the same parameters and log."""
        records = tiny_records()
        hidden = [HiddenDropped(rec.image_id, rec.file_name, rec.image, rec.kept, rec.dropped)
                  for rec in records]
        with pytest.raises(AssertionError, match="withheld"):
            hidden[0].full
        cfg = tiny_config(mode=mode)
        want_params, want_log = hz.train(cfg, records)
        params, log = hz.train(cfg, hidden)
        assert log == want_log
        assert any(rec["flagged"] for rec in log) == (mode == "soft_label")
        for k, p in params.items():
            assert p.data.tobytes() == want_params[k].data.tobytes(), k

    def test_log_records_loss_components(self):
        cfg = tiny_config(total_iters=3, milestones=(2,))
        records = tiny_records()
        _, log = hz.train(cfg, records)
        assert len(log) == 3
        for rec in log:
            for key in ("iter", "lr", "flagged", "l_pos", "l_neg", "l_reg", "total"):
                assert key in rec
            assert rec["total"] == pytest.approx(
                rec["l_pos"] + rec["l_neg"] + rec["l_reg"], abs=1e-9)


class TestEvaluate:
    def test_learning_happens(self):
        """Trained AP50 on the training set (no drops) beats untrained."""
        cfg = tiny_config(total_iters=150, milestones=(100, 130))
        records = tiny_records(16, drop_rate=0.0)
        trained, _ = hz.train(cfg, records)
        untrained = mdl.init_params(cfg.d_embed, cfg.n_anchors,
                                    np.random.default_rng(cfg.seed_init))
        ap_trained = hz.evaluate(trained, records, cfg).ap50
        ap_untrained = hz.evaluate(untrained, records, cfg).ap50
        assert ap_trained > ap_untrained

    def test_metrics_in_unit_interval(self):
        cfg = tiny_config()
        records = dat.generate_benchmark(4, 64, 0.3, seed=1)
        params = mdl.init_params(cfg.d_embed, cfg.n_anchors,
                                 np.random.default_rng(0))
        rep = hz.evaluate(params, records, cfg)
        for v in (rep.ap50, rep.ap75, rep.ap, rep.recall50):
            assert 0.0 <= v <= 1.0
        assert rep.ap <= rep.ap50 + 1e-12


    def test_report_equals_oracle_on_multi_image_instance(self, monkeypatch):
        monkeypatch.setattr(hz, "TOP_K", 20)
        cfg = tiny_config()
        params, _ = hz.train(cfg, tiny_records())
        records = dat.generate_benchmark(4, 64, 0.3, seed=4)
        records.insert(2, make_record(99, [], []))          # no ground truth
        detections, gt_boxes = [], {}
        for idx, rec in enumerate(records):
            boxes, scores = hz.predict(params, rec, cfg)
            detections += [(idx, float(s), b) for b, s in zip(boxes, scores)]
            gt_boxes[idx] = rec.full
        aps = [ap_oracle(detections, gt_boxes, t) for t in hz.COCO_IOU_THRESHOLDS]
        gts = [(idx, g) for idx, rec in enumerate(records) for g in rec.full]
        hits = sum(any(img == idx and iou_matrix(g[None], box[None])[0, 0] >= 0.5
                       for img, _, box in detections) for idx, g in gts)
        fn = hz.score_fn_detection(hz.audit_flags(params, records, cfg), records)
        want = hz.EvalReport(ap50=aps[0], ap75=aps[5], ap=float(np.mean(aps)),
                             recall50=hits / len(gts), fn_precision=fn.precision,
                             fn_recall=fn.recall, fn_vacuous=fn.vacuous)
        assert want.ap50 > 0.0 and want.recall50 > 0.0
        assert hz.evaluate(params, records, cfg) == want

    @pytest.mark.parametrize("drop_rate", [0.3, 0.0])
    def test_fn_fields_equal_the_audit_at_config_t(self, drop_rate):
        """evaluate's fn_* come from the same sampling and attention as
        audit_flags at config.t; with nothing withheld they are vacuous."""
        cfg = tiny_config(t=0.5)
        records = tiny_records(drop_rate=drop_rate)
        params, _ = hz.train(cfg, records)
        flags = hz.audit_flags(params, records, cfg)
        fn = hz.score_fn_detection(flags, records)
        report = hz.evaluate(params, records, cfg)
        assert (report.fn_precision, report.fn_recall, report.fn_vacuous) == \
            (fn.precision, fn.recall, fn.vacuous)
        assert flags and fn.vacuous == (drop_rate == 0.0)
        if drop_rate:
            assert 0.0 < fn.recall < 1.0

    @pytest.mark.parametrize("t", [0.5, 0.8])
    @pytest.mark.parametrize("name", ["9x64", "64-and-32x48"])
    def test_flags_equal_audit_flags_at_config_t(self, name, t, audited_model):
        """The flags evaluate's forward pass audits, which compare counts,
        are audit_flags' at config.t, array for array."""
        params, cfg = audited_model
        cfg = replace(cfg, t=t)
        records = BLOCK_DATASETS[name]()
        report, flags = hz._evaluate(params, hz.match_dataset(records), cfg)
        assert report == hz.evaluate(params, records, cfg)
        assert_flags_equal(flags, hz.audit_flags(params, records, cfg))
        assert len(flags)


class TestCollectFlags:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_order_of_a_stable_sort_of_per_flag_entries(self, seed):
        """_collect_flags ranks as list.sort(key=-score) over per-flag
        entries in dataset and row order: best first, ties kept in order.
        Scores are drawn from a few values, so ties across and within
        images are common; some images flag nothing."""
        gen = np.random.default_rng(seed)
        matched = hz.match_dataset(tiny_records(int(gen.integers(1, 6)), seed=seed % 7)
                                   + tiny_records(int(gen.integers(0, 3)), size=32, seed=1))
        per_image, entries = [], []
        for idx, mi in enumerate(matched):
            k = int(gen.integers(0, 6))
            rows = np.sort(gen.choice(len(mi.anchors), size=k, replace=False))
            scores = gen.choice([0.5, 0.75, 0.9, 1.0], size=k)
            per_image.append((np.full(k, idx, dtype=np.intp), rows, mi.anchors[rows], scores))
            entries += [(idx, r, mi.anchors[r], score)
                        for r, score in zip(rows.tolist(), scores.tolist())]
        entries.sort(key=lambda e: -e[3])
        # the images in blocks of 1 to 3, each block's arrays in image order
        cuts = np.cumsum([0, *gen.integers(1, 4, size=len(matched))])
        audited = [tuple(np.concatenate(c) for c in zip(*per_image[a:b]))
                   for a, b in zip(cuts, cuts[1:]) if a < len(matched)]
        flags = hz._collect_flags(audited)
        assert_flags_equal(flags, as_flags(entries))
        assert len(flags) == len(entries)
        assert not any(np.shares_memory(flags.boxes, mi.anchors) for mi in matched)


def per_image_reference(params, records, config):
    """The report of evaluate and the flags of audit_flags, computed from one
    forward pass, one minibatch from the image's own generator and one
    attention_map call per (H, W, 1) image: the oracle of the block forward
    and of the block attention."""
    counts, scores, ious, flags = [], [np.zeros(0)], {}, []
    n_gt = n_hit = 0
    for idx, mi in enumerate(hz.match_dataset(records)):
        with ag.no_grad():
            batch = mdl.forward_rpn(mi.record.image, params)
        (boxes, s), = hz._proposals(batch.probs[None], batch.deltas[None], mi.anchors,
                                    mi.record.image)
        rng = np.random.default_rng([config.seed_sample, idx, 0xA0D17])
        pos_idx, neg_idx = mdl.sample_proposals(mi.labels, hz.MINIBATCH_SIZE,
                                                hz.POS_FRACTION, rng)
        amap = attend_one_image(batch.embeddings, pos_idx, neg_idx)
        if amap is not None:
            flagged = np.flatnonzero(mdl.flag_mask(amap.row_max, config.t))
            flags += [(idx, r, mi.anchors[r], score) for r, score in
                      zip(neg_idx[flagged].tolist(), amap.row_max[flagged].tolist())]
        counts.append(len(s))
        scores.append(s)
        gts = mi.record.full
        n_gt += len(gts)
        if len(gts):
            ious[idx] = m = iou_matrix(boxes, gts)
            if len(boxes):
                n_hit += int((m.max(axis=0) >= 0.5).sum())
    aps = hz.average_precisions(np.repeat(np.arange(len(counts)), counts),
                                np.concatenate(scores), ious, n_gt,
                                hz.COCO_IOU_THRESHOLDS).tolist()
    fn = hz.score_fn_detection(as_flags(flags), records)
    report = hz.EvalReport(ap50=aps[0], ap75=aps[5], ap=float(np.mean(aps)),
                           recall50=(n_hit / n_gt) if n_gt else 0.0,
                           fn_precision=fn.precision, fn_recall=fn.recall,
                           fn_vacuous=fn.vacuous)
    flags.sort(key=lambda f: -f[3])       # best first, stable on ties
    return report, as_flags(flags)


def as_flags(entries):
    """The Flags of (image index, anchor index, box, score) entries, in order."""
    image_index, anchor_index, boxes, scores = zip(*entries) if entries else ((),) * 4
    return hz.Flags(np.array(image_index, dtype=np.intp), np.array(anchor_index, dtype=np.intp),
                    np.array(boxes, dtype=np.float64).reshape(-1, 4),
                    np.array(scores, dtype=np.float64))


def assert_flags_equal(got, want):
    """Every array of two Flags equal in dtype, shape and bytes."""
    for field in fields(hz.Flags):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
        assert a.tobytes() == b.tobytes(), field.name


def cropped(records, h, w):
    """The top-left h x w corner of each record, with the boxes inside it."""
    def inside(boxes):
        return boxes[(boxes[:, 2] <= w) & (boxes[:, 3] <= h)]

    return [dat.ImageRecord(rec.image_id, rec.file_name, rec.image[:h, :w].copy(),
                            inside(rec.kept), inside(rec.dropped)) for rec in records]


def interleaved_extents():
    """64x64 and 32x48 images in runs of 1 to 5, so blocks end both where
    they fill and where the extent changes."""
    big = tiny_records(11, seed=21)
    small = cropped(tiny_records(7, seed=22), 32, 48)
    order = "BBS" + "B" + "SS" + "BBBBB" + "S" + "BB" + "SSS" + "B"
    its = {"B": iter(big), "S": iter(small)}
    return [next(its[c]) for c in order]


def one_labelled(records):
    """records with every kept box but the first image's withheld, so many
    iterations sample no positive and the regression head gets a zero
    gradient."""
    return records[:1] + [dat.ImageRecord(rec.image_id, rec.file_name, rec.image,
                                          np.zeros((0, 4)), rec.full) for rec in records[1:]]


BLOCK_DATASETS = {f"{n}x64": (lambda n=n: tiny_records(n, seed=n)) for n in (1, 3, 4, 5, 9)}
BLOCK_DATASETS["64-and-32x48"] = interleaved_extents


@pytest.fixture(scope="module")
def audited_model():
    """Parameters trained briefly, and a threshold at which they flag."""
    cfg = tiny_config(t=0.5)
    params, _ = hz.train(cfg, tiny_records())
    return params, cfg


class TestBlockInference:
    """evaluate and audit_flags forward blocks of consecutive same-extent
    images; every report and flag field equals that of one forward pass per
    image, wherever the blocks end."""

    @pytest.mark.parametrize("block", [None, 1, 2 ** 40],
                             ids=["default", "one-image", "whole-runs"])
    @pytest.mark.parametrize("name", list(BLOCK_DATASETS))
    def test_equals_per_image_reference(self, name, block, audited_model, monkeypatch):
        params, cfg = audited_model
        records = BLOCK_DATASETS[name]()
        want_report, want_flags = per_image_reference(params, records, cfg)
        if block is not None:
            monkeypatch.setattr(hz, "INFER_BLOCK", block)
        report = hz.evaluate(params, records, cfg)
        flags = hz.audit_flags(params, records, cfg)
        assert report == want_report
        assert_flags_equal(flags, want_flags)
        if len(records) >= 5:
            assert flags and report.recall50 > 0.0

    @pytest.mark.parametrize("entry", ["evaluate", "audit_flags", "train"])
    def test_blocks_keep_order_fill_and_break_at_extent_changes(self, entry,
                                                                monkeypatch):
        """Each image is forwarded once, in dataset order (train: each
        iteration's picks, in the order one image at a time forwards them);
        a block holds one extent and at most INFER_BLOCK pixels (or one
        image), and is cut short only where the extent changes or the
        dataset (the iteration's picks) ends."""
        records = interleaved_extents()
        cfg = tiny_config()
        params = mdl.init_params(cfg.d_embed, cfg.n_anchors, np.random.default_rng(0))
        blocks = []
        forward_rpn = mdl.forward_rpn

        def recording(image, params):
            blocks.append(image.copy())
            return forward_rpn(image, params)

        monkeypatch.setattr(mdl, "forward_rpn", recording)
        if entry == "train":
            train_per_image(cfg, records)
            want, blocks = [b[None] for b in blocks], []
            hz.train(cfg, records)
            ends = set(range(hz.BATCH_IMAGES, len(want) + 1, hz.BATCH_IMAGES))
        else:
            getattr(hz, entry)(params, records, cfg)
            want, ends = [rec.image for rec in records], {len(records)}
        assert all(b.ndim == 4 for b in blocks)
        forwarded = np.concatenate([b.reshape(-1) for b in blocks])
        assert forwarded.tobytes() == np.concatenate([w.reshape(-1) for w in want]).tobytes()
        capacity = [max(1, hz.INFER_BLOCK // (b.shape[1] * b.shape[2])) for b in blocks]
        assert all(len(b) <= c for b, c in zip(blocks, capacity))
        assert max(map(len, blocks)) > 1
        stops = np.cumsum([len(b) for b in blocks])
        # no block spans two iterations
        assert ends <= set(stops.tolist())
        for b, c, stop, nxt in zip(blocks, capacity, stops, blocks[1:]):
            assert len(b) == c or b.shape[1:] != nxt.shape[1:] or stop in ends

    @pytest.mark.parametrize("extent", [(64, 64), (16, 16), (16, 24)])
    def test_block_attention_equals_per_image_maps(self, extent, audited_model):
        """The block attention of a forward block's sampled minibatches is
        each image's own attention_map: in full 64x64 blocks (joint row
        count 64), in 16x16 and 16x24 blocks (12 and 18 anchors, so joint
        counts below 64 that differ between images), and with one image
        left one positive (no map) and one left no negative (no map)."""
        params, _ = audited_model
        records = cropped(tiny_records(5, seed=11), *extent)
        with ag.no_grad():
            batch = mdl.forward_rpn(np.stack([rec.image for rec in records]), params)
        rng = np.random.default_rng(3)
        n_anchors = batch.probs.shape[1]
        # labels with positives to spare, so every image samples at least two
        picks = [mdl.sample_proposals(rng.choice([1, 1, 0, 0, 0, -1], n_anchors),
                                      hz.MINIBATCH_SIZE, hz.POS_FRACTION, rng)
                 for _ in records]
        picks[1] = (picks[1][0][:1], picks[1][1])
        picks[3] = (picks[3][0], picks[3][1][:0])
        row_max = mdl.block_attention(batch.embeddings, picks)
        assert row_max.shape == (sum(len(neg) for _, neg in picks),)
        counts, unattended, at = set(), [], 0
        for j, (emb, (pos, neg)) in enumerate(zip(batch.embeddings, picks)):
            got, at = row_max[at:at + len(neg)], at + len(neg)
            want = attend_one_image(emb, pos, neg)
            if want is None:
                assert got.tobytes() == np.zeros(len(neg)).tobytes()
                unattended.append(j)
                continue
            counts.add(len(pos) + len(neg))
            assert got.tobytes() == want.row_max.tobytes()
        assert unattended == [1, 3] and counts
        assert max(counts) == 64 if extent == (64, 64) else max(counts) < 64

    def test_fn_gets_its_whole_block_and_no_tensor(self, monkeypatch):
        """_forward_each hands fn each forward block at once: the dataset
        indices and matched images of its images, in order, and the block's
        (B, ...) output arrays themselves, not copies, with no tape output.
        fn's entries, one per block, make up the result, in order."""
        records = interleaved_extents()
        cfg = tiny_config()
        params = mdl.init_params(cfg.d_embed, cfg.n_anchors, np.random.default_rng(0))
        blocks = []
        forward_rpn = mdl.forward_rpn

        def recording(image, params):
            blocks.append(forward_rpn(image, params))
            return blocks[-1]

        monkeypatch.setattr(mdl, "forward_rpn", recording)
        matched = hz.match_dataset(records)
        calls = []

        def fn(indices, block, batch):
            # kept here only to compare with the blocks, which recording keeps alive
            calls.append((indices, block, batch))
            return indices

        got = hz._forward_each(params, matched, fn)
        assert len(calls) == len(blocks) and max(len(b.probs) for b in blocks) > 1
        assert got == [indices for indices, _, _ in calls]
        assert [idx for indices, _, _ in calls for idx in indices] == list(range(len(records)))
        for (indices, block, batch), whole in zip(calls, blocks):
            assert len(block) == len(indices) == len(whole.probs)
            assert all(mi is matched[i] for mi, i in zip(block, indices))
            assert batch.logits is None and batch.regression is None
            for name in ("probs", "deltas", "embeddings"):
                arr = getattr(batch, name)
                assert type(arr) is np.ndarray and arr is getattr(whole, name)


# name: (dataset, TrainConfig fields, the block sizes train forwards)
TRAIN_DATASETS = {
    "soft-64": (tiny_records, {}, {4}),
    "baseline-64": (tiny_records, {"mode": "baseline"}, {4}),
    "soft-128": (lambda: tiny_records(4, size=128), {"total_iters": 8, "milestones": (4,)}, {1}),
    # picks of both extents: runs of 1 to 4 images, each one block
    "64-and-32x48": (interleaved_extents, {}, {1, 2, 3, 4}),
    # a block without positives sends deltas a zero gradient, so an
    # iteration without them still decays the regression head's velocity
    "64-one-labelled": (lambda: one_labelled(tiny_records(8)), {}, {4}),
    # INFER_BLOCK holds two such images, not four: blocks of 2 + 2
    "64x128": (lambda: cropped(tiny_records(4, size=128, seed=3), 64, 128),
               {"total_iters": 8, "milestones": (4,)}, {2}),
    "80x80": (lambda: tiny_records(6, size=80, seed=4),
              {"total_iters": 8, "milestones": (4,)}, {2}),
    # and three 72x72 images: blocks of 3 + 1
    "72x72": (lambda: tiny_records(6, size=72, seed=5),
              {"total_iters": 8, "milestones": (4,)}, {1, 3}),
}


class TestBlockTraining:
    """train forwards and backpropagates each iteration's picks in the
    blocks of harness._blocks, as evaluate and audit_flags forward the
    dataset; wherever the blocks end, its parameters and log are, bit for
    bit, those of one forward and one backward per image (train_per_image)."""

    @pytest.mark.parametrize("name", list(TRAIN_DATASETS))
    def test_equals_per_image_training(self, name, monkeypatch):
        make, over, block_sizes = TRAIN_DATASETS[name]
        records = make()
        cfg = tiny_config(**over)
        want_params, want_log = train_per_image(cfg, records)
        blocks = []
        forward_rpn = mdl.forward_rpn

        def recording(image, params):
            blocks.append(image)
            return forward_rpn(image, params)

        monkeypatch.setattr(mdl, "forward_rpn", recording)
        params, log = hz.train(cfg, records)
        assert log == want_log
        assert params.keys() == want_params.keys()
        for k, p in params.items():
            assert p.data.tobytes() == want_params[k].data.tobytes(), k
        assert {len(b) for b in blocks} == block_sizes
        # a lone image is forwarded as a view of itself, not a copy
        for b in blocks:
            assert len(b) > 1 or any(np.shares_memory(b, rec.image) for rec in records)

    def test_iteration_without_positive_decays_regression_velocity(self, monkeypatch):
        """An iteration that samples no positive sends rpn.reg a zero
        gradient, so its step is MOMENTUM times the one before (velocity
        MOMENTUM * velocity), as SGD with momentum gives, not none."""
        starts = []
        forward_rpn = mdl.forward_rpn

        def recording(image, params):
            starts.append(params["rpn.reg.w"].data.copy())
            return forward_rpn(image, params)

        monkeypatch.setattr(mdl, "forward_rpn", recording)
        _, log = hz.train(tiny_config(), one_labelled(tiny_records(8)))
        assert len(starts) == len(log)     # one block, so one forward, per iteration
        k = next(k for k in range(1, len(log) - 1)
                 if log[k]["l_reg"] == 0.0 and log[k]["lr"] == log[k - 1]["lr"])
        before, step = starts[k] - starts[k - 1], starts[k + 1] - starts[k]
        assert before.any()
        np.testing.assert_allclose(step, hz.MOMENTUM * before, rtol=1e-9)

    @pytest.mark.parametrize("mode", ["soft_label", "baseline"])
    def test_block_samples_in_block_order(self, mode):
        """_block_losses samples every image's minibatch in block order
        before it attends: its generator ends where sampling the images one
        at a time leaves it, and each image's losses are those of
        forwarding, sampling and attending it alone."""
        matched = hz.match_dataset(tiny_records(4, seed=2))
        cfg = tiny_config(mode=mode, t=0.5)
        params = mdl.init_params(cfg.d_embed, cfg.n_anchors, np.random.default_rng(0))
        rng, alone = np.random.default_rng(7), np.random.default_rng(7)
        _, losses = hz._block_losses(params, matched, cfg, rng)
        want = [image_loss(params, mi, cfg, alone)[0] for mi in matched]
        assert rng.bit_generator.state == alone.bit_generator.state
        for got, image in zip(losses, want):
            assert (got.l_pos, got.l_neg, got.l_reg, got.total) == \
                (image.l_pos, image.l_neg, image.l_reg, image.total)
            assert got.flagged.tobytes() == image.flagged.tobytes()
        assert any(len(image.flagged) for image in want) == (mode == "soft_label")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_at_the_per_image_iteration(self):
        cfg = tiny_config(lr=1e30)
        records = tiny_records(8)
        with pytest.raises(hz.DivergenceError) as want:
            train_per_image(cfg, records)
        with pytest.raises(hz.DivergenceError) as got:
            hz.train(cfg, records)
        assert got.value.iteration == want.value.iteration > 0


class TestImageSizeCheck:
    @staticmethod
    def _no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    @pytest.mark.parametrize("entry", ["train", "evaluate", "audit_flags",
                                       "expected_random_recall"])
    def test_mismatch_raises_before_any_work(self, entry, monkeypatch):
        """A 60x60 image, last in the dataset, stops every entry point
        before the first forward pass, anchor match or IoU (the check lives
        in _anchor_grids, which each of them calls first)."""
        records = tiny_records(2) + [make_record(7, [], [], size=60)]
        cfg = tiny_config()
        params = mdl.init_params(cfg.d_embed, cfg.n_anchors,
                                 np.random.default_rng(0))
        monkeypatch.setattr(mdl, "forward_rpn", self._no_work)
        monkeypatch.setattr(hz, "match_anchors", self._no_work)
        monkeypatch.setattr(hz, "iou_matrix", self._no_work)
        args = {"train": (cfg, records), "expected_random_recall": (flags_at(), records)
                }.get(entry, (params, records, cfg))
        with pytest.raises(ValueError, match="img_7.pgm is 60x60; both extents must "
                                             "be multiples of 8 and at least 16"):
            getattr(hz, entry)(*args)

    @pytest.mark.parametrize("entry", ["evaluate", "audit_flags"])
    def test_bad_threshold_raises_before_any_work(self, entry, monkeypatch):
        """A threshold outside (0, 1) stops evaluate (config.t, changed
        after construction) and audit_flags (t=) before the first forward
        pass, even when no image would reach the attention map."""
        records = tiny_records(2)
        cfg = tiny_config()
        params = mdl.init_params(cfg.d_embed, cfg.n_anchors,
                                 np.random.default_rng(0))
        monkeypatch.setattr(mdl, "forward_rpn", self._no_work)
        monkeypatch.setattr(hz, "match_dataset", self._no_work)
        with pytest.raises(ValueError, match=r"t must lie in \(0, 1\), got 1.5"):
            if entry == "evaluate":
                cfg.t = 1.5
                hz.evaluate(params, records, cfg)
            else:
                hz.audit_flags(params, records, cfg, t=1.5)

    @pytest.mark.parametrize("shape", [(60, 60), (8, 8), (64, 60), (12, 16), (16, 0)])
    def test_bad_extents_rejected(self, shape):
        record = dat.ImageRecord(image_id=0, file_name="x.pgm",
                                 image=np.zeros((*shape, 1)), kept=box_array(),
                                 dropped=box_array())
        with pytest.raises(ValueError, match=f"is {shape[0]}x{shape[1]}"):
            hz._anchor_grids([record])

    @pytest.mark.parametrize("shape", [(16, 16), (64, 64), (128, 128), (64, 128)])
    def test_good_extents_accepted(self, shape):
        record = dat.ImageRecord(image_id=0, file_name="x.pgm",
                                 image=np.zeros((*shape, 1)), kept=box_array(),
                                 dropped=box_array())
        assert list(hz._anchor_grids([record])) == [shape]


class TestMatchDataset:
    """match_dataset labels blocks of images; every image's labels and
    targets are those of the one-image matcher, byte for byte."""

    @staticmethod
    def assert_equals_one_image_matcher(records):
        matched = hz.match_dataset(records)
        assert [mi.record for mi in matched] == list(records)
        for mi in matched:
            assert mi.anchors.tobytes() == hz.anchors_for(mi.record.image).tobytes()
            labels, targets = match_one_image(mi.anchors, mi.record.kept,
                                              hz.POS_THRESH, hz.NEG_THRESH)
            assert mi.labels.tobytes() == labels.tobytes()
            assert mi.delta_targets.tobytes() == targets.tobytes()

    @pytest.mark.parametrize("size, n_images", [(24, 30), (64, 40), (72, 20), (128, 12)])
    def test_synth_datasets(self, size, n_images):
        self.assert_equals_one_image_matcher(tiny_records(n_images, size=size, seed=size))

    def test_two_extents_interleaved(self):
        a, b = tiny_records(9, size=64, seed=3), tiny_records(9, size=72, seed=4)
        self.assert_equals_one_image_matcher([r for pair in zip(a, b) for r in pair])

    @pytest.mark.parametrize("block", [1, None, 2 ** 40], ids=["one-image", "default", "all"])
    def test_blocks_bounded_and_exact(self, block, monkeypatch):
        """Blocks stay within MATCH_BLOCK IoUs unless they hold one image,
        and where the blocks end does not change a byte."""
        if block is not None:
            monkeypatch.setattr(hz, "MATCH_BLOCK", block)
        records = tiny_records(60, drop_rate=0.0) + tiny_records(5, size=128, seed=1)
        records[7] = dat.ImageRecord(records[7].image_id, records[7].file_name,
                                     records[7].image, box_array(), box_array())
        shapes = []
        match_anchors = hz.match_anchors

        def recording(anchors, gts, *args):
            shapes.append((len(anchors), len(gts), max(len(g) for g in gts)))
            return match_anchors(anchors, gts, *args)

        monkeypatch.setattr(hz, "match_anchors", recording)
        self.assert_equals_one_image_matcher(records)
        assert sum(b for _, b, _ in shapes) == len(records)
        assert all(b == 1 or n * b * g <= hz.MATCH_BLOCK for n, b, g in shapes)
        if block is None:        # more than one block, of more than one image
            assert len(shapes) > 2 and max(b for _, b, _ in shapes) > 1


class TestAnchorsFromImage:
    @pytest.mark.parametrize("shape", [(64, 64), (128, 128), (64, 128), (16, 40)])
    def test_anchor_count_equals_forward_output_count(self, shape):
        cfg = hz.TrainConfig()
        params = mdl.init_params(cfg.d_embed, cfg.n_anchors, np.random.default_rng(0))
        image = np.zeros((*shape, 1))
        batch = mdl.forward_rpn(image, params)
        anchors = hz.anchors_for(image)
        assert anchors.shape == (batch.probs.shape[0], 4)
        assert len(anchors) == (shape[0] // 8) * (shape[1] // 8) * 3
        # the last anchor sits on the bottom-right cell, at the largest scale
        assert anchors[-1].tolist() == [shape[1] - 36, shape[0] - 36,
                                        shape[1] + 28, shape[0] + 28]

    def test_mixed_extents_train_evaluate_and_audit(self):
        records = tiny_records(4) + tiny_records(2, size=128, seed=1)
        cfg = tiny_config(total_iters=8, milestones=(4,))
        params, log = hz.train(cfg, records)
        assert len(log) == 8 and all(np.isfinite(r["total"]) for r in log)
        report = hz.evaluate(params, records, cfg)
        for v in (report.ap50, report.ap75, report.ap, report.recall50):
            assert 0.0 <= v <= 1.0
        flags = hz.audit_flags(params, records, cfg, t=0.5)
        assert len(flags)
        for i, ai, box in zip(flags.image_index, flags.anchor_index, flags.boxes):
            size = records[i].image.shape[0]
            np.testing.assert_array_equal(box, hz.anchors_for(records[i].image)[ai])
            assert ai < 3 * (size // 8) ** 2
        assert flags.boxes.flags.writeable      # a copy, not a view of the shared grid

    @pytest.mark.parametrize("entry", ["evaluate", "audit_flags", "expected_random_recall"])
    def test_anchors_built_once_per_extent(self, entry, monkeypatch):
        """Matching, proposals, the audit and the random-flag baseline share
        one anchor grid per distinct image extent."""
        records = tiny_records(3) + tiny_records(2, size=128, seed=1) + tiny_records(1)
        cfg = tiny_config()
        params = mdl.init_params(cfg.d_embed, cfg.n_anchors, np.random.default_rng(0))
        extents = []
        generate_anchors = hz.generate_anchors

        def counting_generate(feat_h, feat_w, *args, **kwargs):
            extents.append((feat_h, feat_w))
            return generate_anchors(feat_h, feat_w, *args, **kwargs)

        monkeypatch.setattr(hz, "generate_anchors", counting_generate)
        if entry == "expected_random_recall":
            assert all(len(rec.dropped) for rec in records)
            hz.expected_random_recall(flags_at((0, (0, 0, 8, 8))), records)
        else:
            getattr(hz, entry)(params, records, cfg)
        assert sorted(extents) == [(8, 8), (16, 16)]

    def test_predict_clips_x_to_width_and_y_to_height(self, monkeypatch):
        monkeypatch.setattr(hz, "TOP_K", 1000)
        cfg = tiny_config()
        params = mdl.init_params(cfg.d_embed, cfg.n_anchors, np.random.default_rng(0))
        record = dat.ImageRecord(image_id=0, file_name="wide.pgm",
                                 image=np.random.default_rng(1).random((32, 96, 1)),
                                 kept=box_array(), dropped=box_array())
        boxes, _ = hz.predict(params, record, cfg)
        assert boxes.min() >= 0.0
        assert boxes[:, [0, 2]].max() <= 96.0 and boxes[:, [1, 3]].max() <= 32.0
        assert boxes[:, 2].max() > 32.0


def box_array(*rows):
    """A (G, 4) float64 box array, (0, 4) without rows."""
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def make_record(image_id, kept, dropped, size=64):
    return dat.ImageRecord(image_id=image_id, file_name=f"img_{image_id}.pgm",
                           image=np.zeros((size, size, 1)), kept=box_array(*kept),
                           dropped=box_array(*dropped))


def flags_at(*flags):
    """The Flags of (image index, box) pairs, at anchor 0 and score 0.9."""
    return as_flags([(i, 0, box, 0.9) for i, box in flags])


def score_oracle(flags, records):
    """score_fn_detection one flag and one withheld box at a time."""
    n_dropped = sum(len(r.dropped) for r in records)
    flags = list(zip(flags.image_index.tolist(), flags.boxes))
    if n_dropped == 0:
        return hz.FnScore(precision=0.0 if flags else 1.0, recall=1.0, vacuous=True)
    if not flags:
        return hz.FnScore(precision=1.0, recall=0.0)
    def close(box, g):
        return iou_matrix(box[None], g[None])[0, 0] >= 0.5
    tp = sum(any(close(box, g) for g in records[i].dropped) for i, box in flags)
    found = sum(any(j == i and close(box, g) for j, box in flags)
                for i, r in enumerate(records) for g in r.dropped)
    return hz.FnScore(precision=tp / len(flags), recall=found / n_dropped)


class TestScoreFnDetection:
    def test_hand_computed_counts(self):
        dropped = [(8, 8, 24, 24), (40, 40, 56, 56)]
        records = [make_record(0, [(0, 0, 8, 8)], dropped)]
        flags = flags_at(
            (0, (8, 8, 24, 24)),     # exact hit on dropped 0
            (0, (9, 9, 25, 25)),     # IoU 0.77 with dropped 0: hit
            (0, (0, 0, 8, 8)),       # miss (kept, not dropped)
            (0, (30, 30, 38, 38)),   # miss
        )
        score = hz.score_fn_detection(flags, records)
        assert score.precision == pytest.approx(2 / 4)
        assert score.recall == pytest.approx(1 / 2)
        assert not score.vacuous

    def test_perfect_flags(self):
        dropped = [(8, 8, 24, 24)]
        records = [make_record(0, [], dropped)]
        score = hz.score_fn_detection(flags_at((0, dropped[0])), records)
        assert score.precision == 1.0 and score.recall == 1.0

    def test_vacuous_no_dropped(self):
        records = [make_record(0, [(0, 0, 8, 8)], [])]
        empty = hz.score_fn_detection(flags_at(), records)
        assert empty.vacuous and empty.recall == 1.0 and empty.precision == 1.0
        flagged = hz.score_fn_detection(flags_at((0, (0, 0, 8, 8))), records)
        assert flagged.vacuous and flagged.precision == 0.0

    def test_no_flags_zero_recall(self):
        records = [make_record(0, [], [(8, 8, 24, 24)])]
        score = hz.score_fn_detection(flags_at(), records)
        assert score.precision == 1.0 and score.recall == 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_flag_oracle(self, seed):
        """Generated anchor flags on images with and without withheld boxes
        score exactly as a per-flag, per-box scan does."""
        gen = np.random.default_rng(seed)
        anchors = hz.anchors_for(np.zeros((64, 64, 1)))
        records, flags = [], []
        for i in range(int(gen.integers(1, 4))):
            # withheld boxes near anchors, so hits and misses both occur
            picks = anchors[gen.integers(0, len(anchors), size=int(gen.integers(0, 4)))]
            records.append(make_record(i, [], picks + gen.uniform(-4, 4, picks.shape)))
            for ai in gen.integers(0, len(anchors), size=int(gen.integers(0, 12))):
                flags.append((i, int(ai), anchors[ai], 0.9))
        flags += [(0, 0, r.dropped[0], 0.9) for r in records[:1] if len(r.dropped)]
        flags = as_flags(flags)
        assert hz.score_fn_detection(flags, records) == score_oracle(flags, records)

    @pytest.mark.parametrize("block", [1, None], ids=["one-image", "default"])
    def test_stacks_bounded_beside_a_crowded_image(self, block, monkeypatch):
        """One image with many withheld boxes among many with one: each
        flag_hits stack pads only its own images' flags and boxes, holds at
        most MATCH_BLOCK IoUs unless it holds one image, and the score is
        the per-flag scan's."""
        if block is not None:
            monkeypatch.setattr(hz, "MATCH_BLOCK", block)
        gen = np.random.default_rng(5)
        anchors = hz.anchors_for(np.zeros((64, 64, 1)))
        records, flags = [], []
        for i in range(40):
            crowded = i == 17
            picks = anchors[gen.integers(0, len(anchors), size=150 if crowded else 1)]
            records.append(make_record(i, [], picks + gen.uniform(-4, 4, picks.shape)))
            for ai in gen.integers(0, len(anchors), size=64 if crowded else 6):
                flags.append((i, int(ai), anchors[ai], 0.9))
            flags.append((i, 0, records[-1].dropped[0], 0.9))
        flags = as_flags(flags)
        shapes = []
        flag_hits = hz.flag_hits

        def recording(boxes, dropped):
            shapes.append(boxes.shape[:2] + dropped.shape[1:2])
            return flag_hits(boxes, dropped)

        monkeypatch.setattr(hz, "flag_hits", recording)
        assert hz.score_fn_detection(flags, records) == score_oracle(flags, records)
        assert sum(b for b, _, _ in shapes) == len(records)
        assert all(b == 1 or b * f * d <= hz.MATCH_BLOCK for b, f, d in shapes)
        assert max(b * f * d for b, f, d in shapes) <= 150 * 65
        if block is None:        # the small images share stacks
            assert len(shapes) < len(records) // 2


class TestFlagHits:
    def test_iou_of_one_half_hits(self):
        dropped = box_array((0.0, 0.0, 16.0, 16.0))
        hits = hz.flag_hits(box_array((0.0, 0.0, 16.0, 8.0), (0.0, 0.0, 16.0, 7.99)), dropped)
        assert hits.tolist() == [[True], [False]]

    def test_score_and_random_baseline_count_by_it(self, monkeypatch):
        """Both count a hit by flag_hits alone: where it lets every flag hit
        every withheld box, a flag far from the box scores recall 1, and so
        does a random flag set."""
        records = [make_record(0, [], [(6.0, 6.0, 22.0, 22.0)])]
        flags = flags_at((0, (40, 40, 56, 56)))
        assert hz.score_fn_detection(flags, records).recall == 0.0
        assert hz.expected_random_recall(flags, records) < 1.0
        monkeypatch.setattr(hz, "flag_hits",
                            lambda a, b: np.ones(a.shape[:-1] + b.shape[-2:-1], bool))
        assert hz.score_fn_detection(flags, records).recall == 1.0
        assert hz.expected_random_recall(flags, records) == 1.0


class TestExpectedRandomRecall:
    def test_matches_monte_carlo(self):
        """Closed-form hypergeometric expectation vs simulation."""
        dropped = box_array((6.0, 6.0, 22.0, 22.0), (38.0, 38.0, 54.0, 54.0))
        records = [make_record(0, [], dropped)]
        anchors = hz.anchors_for(records[0].image)
        n = len(anchors)
        m = 10
        flags = flags_at(*[(0, (0, 0, 8, 8))] * m)
        analytic = hz.expected_random_recall(flags, records)
        covers = (iou_matrix(dropped, anchors) >= 0.5).sum(axis=1)
        assert covers.min() > 0, "toy boxes must match some anchor"
        gen = np.random.default_rng(7)
        trials = 4000
        hits = 0
        for _ in range(trials):
            chosen = gen.choice(n, size=m, replace=False)
            sel = np.zeros(n, dtype=bool)
            sel[chosen] = True
            iou = iou_matrix(dropped, anchors[sel])
            hits += int((iou.max(axis=1) >= 0.5).sum())
        mc = hits / (trials * len(dropped))
        assert analytic == pytest.approx(mc, abs=0.02)

    def test_zero_flags_zero_recall(self):
        records = [make_record(0, [], [(6.0, 6.0, 22.0, 22.0)])]
        assert hz.expected_random_recall(flags_at(), records) == 0.0

    def test_flagging_everything_gives_full_recall(self):
        records = [make_record(0, [], [(6.0, 6.0, 22.0, 22.0)])]
        n = len(hz.anchors_for(records[0].image))
        flags = flags_at(*[(0, (0, 0, 8, 8))] * n)
        assert hz.expected_random_recall(flags, records) == pytest.approx(1.0)


class TestCompare:
    """compare on a tiny setting: 2 seeds, 8 images, 6 iterations."""

    @pytest.fixture(scope="class")
    def study(self):
        config = tiny_config(total_iters=6, milestones=(4,))
        datasets = [(seed, tiny_records(8, seed=seed)) for seed in (3, 5)]
        return config, datasets, hz.compare(config, iter(datasets), (0.6, 0.8))

    def test_each_row_equals_direct_calls(self, study):
        """Seed-major rows, a baseline arm then one soft-label arm per
        threshold, each equal (==) to train + evaluate, and for a soft
        arm audit_flags' count and expected_random_recall, at its seeds."""
        config, datasets, doc = study
        want = []
        for seed, records in datasets:
            for arm, mode, t in (("baseline", "baseline", config.t),
                                 ("soft_label@0.6", "soft_label", 0.6),
                                 ("soft_label@0.8", "soft_label", 0.8)):
                cfg = hz.TrainConfig(total_iters=6, milestones=(4,), mode=mode, t=t,
                                     seed_init=seed, seed_sample=seed)
                params, _ = hz.train(cfg, records)
                row = {"arm": arm, "seed": seed, "t": t,
                       **hz.evaluate(params, records, cfg).to_dict()}
                if mode == "soft_label":
                    flags = hz.audit_flags(params, records, cfg)
                    row.update(flags=len(flags),
                               expected_random_recall=hz.expected_random_recall(flags, records))
                want.append(row)
        assert doc["rows"] == want
        assert any(row.get("flags") for row in want)

    def test_forwards_each_image_once_per_arm(self, monkeypatch):
        """Training forwards BATCH_IMAGES images per iteration; then each
        arm's evaluate forwards every image once, and its pass also yields
        a soft-label arm's flags, so no second audit forwards them again."""
        config = tiny_config(total_iters=6, milestones=(4,))
        records = tiny_records(6, seed=3)
        forwarded = []
        forward_rpn = mdl.forward_rpn

        def recording(image, params):
            forwarded.append(len(image))
            return forward_rpn(image, params)

        monkeypatch.setattr(mdl, "forward_rpn", recording)
        rows = hz.compare(config, [(0, records), (1, records)], (0.6, 0.8))["rows"]
        assert len(rows) == 2 * 3 and all(r["flags"] for r in rows if r["arm"] != "baseline")
        assert sum(forwarded) == len(rows) * (6 * hz.BATCH_IMAGES + len(records))

    def test_matches_each_seed_once(self, monkeypatch):
        """Each seed's records are labelled by one match_dataset call, which
        every arm's training and evaluation share."""
        config = tiny_config(total_iters=6, milestones=(4,))
        datasets = [(0, tiny_records(6, seed=3)), (1, tiny_records(5, seed=4))]
        matched = []
        match_dataset = hz.match_dataset

        def counting(records):
            matched.append(records)
            return match_dataset(records)

        monkeypatch.setattr(hz, "match_dataset", counting)
        rows = hz.compare(config, datasets, (0.6, 0.8))["rows"]
        assert len(rows) == 2 * 3
        assert len(matched) == 2
        assert all(got is records for got, (_, records) in zip(matched, datasets))

    def test_means_are_numpy_means_over_the_seeds(self, study):
        _, _, doc = study
        assert [m["arm"] for m in doc["means"]] == [
            "baseline", "soft_label@0.6", "soft_label@0.8"]
        for mean in doc["means"]:
            rows = [r for r in doc["rows"] if r["arm"] == mean["arm"]]
            metrics = hz.COMPARE_METRICS[:6 if mean["arm"] == "baseline" else 8]
            assert [r["seed"] for r in rows] == [3, 5]
            assert mean == {"arm": mean["arm"],
                            **{m: float(np.mean([r[m] for r in rows])) for m in metrics}}

    def test_unreachable_threshold_row_equals_baseline(self):
        base, soft = hz.compare(tiny_config(), [(0, tiny_records())], [1.0 - 1e-9])["rows"]
        assert soft["flags"] == 0
        assert soft["ap50"] == pytest.approx(base["ap50"], abs=1e-9)


class TestWriteMetricLog:
    def test_one_json_object_per_line_replacing_old_log(self, tmp_path):
        path = tmp_path / "train_log.jsonl"
        path.write_text("a longer log that the new one replaces entirely\n" * 4)
        hz.write_metric_log(path, [{"iter": 1, "loss": 0.5, "lr": 0.001},
                                   {"iter": 2, "loss": float("nan"), "lr": 0.001}])
        assert path.read_text() == ('{"iter": 1, "loss": 0.5, "lr": 0.001}\n'
                                    '{"iter": 2, "loss": NaN, "lr": 0.001}\n')
        assert os.listdir(tmp_path) == ["train_log.jsonl"]
