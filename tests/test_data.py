import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softrpn import data as dat
from softrpn.data import CocoFormatError, EllipseSpec, SceneSpec
from softrpn.geometry import iou_matrix


def iou(a, b) -> float:
    """IoU of two corner-form boxes through iou_matrix."""
    return float(iou_matrix(np.array([a], dtype=np.float64),
                            np.array([b], dtype=np.float64))[0, 0])


def scene_with(objects, seed=0, size=64, noise=0.03):
    return SceneSpec(height=size, width=size, objects=objects,
                     noise_sigma=noise, seed=seed)


class TestSynthesizeScene:
    def test_zero_objects_pure_noise(self):
        img, boxes = dat.synthesize_scene(scene_with([]))
        assert boxes.shape == (0, 4) and boxes.dtype == np.float64
        assert img.shape == (64, 64, 1)
        assert abs(img.mean() - dat.BACKGROUND) < 0.02

    def test_axis_aligned_ellipse_box(self):
        e = EllipseSpec(cy=32, cx=32, ay=8, ax=8, theta=0.0, intensity=0.9)
        _, (box,) = dat.synthesize_scene(scene_with([e]))
        x1, y1, x2, y2 = box
        assert x2 - x1 == pytest.approx(16.0, abs=1.0)
        assert y2 - y1 == pytest.approx(16.0, abs=1.0)
        assert (x1 + x2) / 2 == pytest.approx(32.0, abs=0.5)

    def test_deterministic_per_seed(self):
        e = EllipseSpec(cy=20, cx=40, ay=6, ax=9, theta=0.7, intensity=0.2)
        a, _ = dat.synthesize_scene(scene_with([e], seed=5))
        b, _ = dat.synthesize_scene(scene_with([e], seed=5))
        assert a.tobytes() == b.tobytes()

    def test_extent_must_divide_by_8(self):
        with pytest.raises(ValueError):
            dat.synthesize_scene(SceneSpec(60, 60, [], 0.0, 0))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_box_matches_pixel_scan(self, seed):
        """Analytic tight bounds agree (IoU >= 0.9) with a brute-force scan
        of the noiseless render at subpixel resolution. The scan is built
        directly from the ellipse membership test, independent of the
        renderer's coverage code; at whole-pixel resolution the +-1 px
        discretization bias alone would dominate for ~12 px objects."""
        spec = dat.random_scene(64, 64, seed=seed, noise_sigma=0.0)
        _, boxes = dat.synthesize_scene(spec)
        sub = 8
        coords = (np.arange(64 * sub) + 0.5) / sub
        for e, box in zip(spec.objects, boxes):
            yy, xx = np.meshgrid(coords - e.cy, coords - e.cx, indexing="ij")
            c, s = np.cos(e.theta), np.sin(e.theta)
            u = (xx * c + yy * s) / e.ax
            v = (-xx * s + yy * c) / e.ay
            ys, xs = np.nonzero(u * u + v * v <= 1.0)
            scan = (coords[xs.min()], coords[ys.min()],
                    coords[xs.max()], coords[ys.max()])
            assert iou(box, scan) >= 0.9
            # whole-pixel scan of the actual render stays consistent too
            solo = dat.render_noiseless(scene_with([e], noise=0.0))
            hit = np.abs(solo - dat.BACKGROUND) > abs(e.intensity - dat.BACKGROUND) / 2
            py, px = np.nonzero(hit)
            coarse = (px.min(), py.min(), px.max() + 1, py.max() + 1)
            assert iou(box, coarse) >= 0.7

    def test_values_in_unit_interval(self):
        spec = dat.random_scene(64, 64, seed=3, noise_sigma=0.2)
        img, _ = dat.synthesize_scene(spec)
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestDropAnnotations:
    BOXES = np.array([[i, i, i + 5, i + 5] for i in range(10)], dtype=np.float64)

    def test_zero_rate_drops_nothing(self):
        kept, dropped = dat.drop_annotations(self.BOXES, 0.0, rng_seed=1)
        np.testing.assert_array_equal(kept, self.BOXES)
        assert dropped.shape == (0, 4)

    def test_partition(self):
        kept, dropped = dat.drop_annotations(self.BOXES, 0.5, rng_seed=1)
        both = np.concatenate([kept, dropped])
        np.testing.assert_array_equal(both[np.argsort(both[:, 0])], self.BOXES)

    def test_same_draws_as_a_per_box_split(self):
        """One mask keeps box order and makes the rng draws a per-box loop
        would: the first draw at which some box survives decides the split."""
        for seed in range(20):
            kept, dropped = dat.drop_annotations(self.BOXES, 0.7, rng_seed=seed)
            rng = np.random.default_rng(seed)
            while True:
                u = rng.random(len(self.BOXES))
                if any(v >= 0.7 for v in u):
                    break
            want_kept = [b for b, v in zip(self.BOXES.tolist(), u) if v >= 0.7]
            want_dropped = [b for b, v in zip(self.BOXES.tolist(), u) if v < 0.7]
            assert kept.tolist() == want_kept and dropped.tolist() == want_dropped

    def test_binomial_concentration(self):
        boxes = np.tile([0.0, 0.0, 1.0, 1.0], (10000, 1))
        kept, _ = dat.drop_annotations(boxes, 0.5, rng_seed=9)
        assert abs(len(kept) / 10000 - 0.5) < 0.02

    def test_at_least_one_kept(self):
        for seed in range(50):
            kept, _ = dat.drop_annotations(self.BOXES[:2], 0.9, rng_seed=seed)
            assert len(kept) >= 1

    def test_deterministic(self):
        a = dat.drop_annotations(self.BOXES, 0.4, rng_seed=7)
        b = dat.drop_annotations(self.BOXES, 0.4, rng_seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_empty_input(self):
        kept, dropped = dat.drop_annotations(np.zeros((0, 4)), 0.5, rng_seed=0)
        assert kept.shape == dropped.shape == (0, 4)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            dat.drop_annotations(self.BOXES, 1.0, rng_seed=0)


class TestPgm:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        q = (rng.random((32, 48)) * 65535).astype(np.uint16)
        path = tmp_path / "img.pgm"
        dat.write_pgm(path, q)
        back = dat.read_pgm(path)
        assert back.tobytes() == q.tobytes()

    def test_file_round_trip_byte_exact(self, tmp_path, rng):
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        dat.write_pgm(p1, rng.random((16, 16)))
        dat.write_pgm(p2, dat.read_pgm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_quantize_dequantize_stable(self, rng):
        img = rng.random((16, 16))
        once = dat.dequantize_image(dat.quantize_image(img))
        twice = dat.dequantize_image(dat.quantize_image(once))
        np.testing.assert_array_equal(once, twice)

    def test_reject_non_pgm(self, tmp_path):
        path = tmp_path / "junk.pgm"
        path.write_bytes(b"P6 2 2 255 junkjunkjunk")
        with pytest.raises(ValueError):
            dat.read_pgm(path)


def random_boxes(gen) -> np.ndarray:
    """Up to five corner-form boxes with non-integer corners."""
    xy = gen.uniform(0, 40, (int(gen.integers(0, 6)), 2))
    return np.concatenate([xy, xy + gen.uniform(1, 20, xy.shape)], axis=1)


def random_dataset(seed) -> list[dat.ImageRecord]:
    """Up to four records of random extent with random kept and withheld
    boxes; some records have none of either."""
    gen = np.random.default_rng(seed)
    return [dat.ImageRecord(image_id=3 * i + 1, file_name=f"img_{i:06d}.pgm",
                            image=np.zeros((8 * int(gen.integers(1, 5)),
                                            8 * int(gen.integers(1, 5)), 1)),
                            kept=random_boxes(gen), dropped=random_boxes(gen))
            for i in range(int(gen.integers(0, 5)))]


SPLITS = (("train", "kept"), ("dropped", "dropped"))


def written_oracle(records, attr: str) -> list[dict]:
    """The annotations save_dataset must write for one box set, built box by
    box: ids from 1 across images, bbox = [x1, y1, x2 - x1, y2 - y1]."""
    out = []
    for rec in records:
        for x1, y1, x2, y2 in getattr(rec, attr).tolist():
            out.append({"id": len(out) + 1, "image_id": rec.image_id,
                        "bbox": [x1, y1, x2 - x1, y2 - y1], "category_id": 1})
    return out


def filter_oracle(doc: dict, image_id: int) -> np.ndarray:
    """The corner boxes [x, y, x + w, y + h] of one image by a scan of every
    annotation of a COCO-lite document, in file order."""
    rows = [[x, y, x + w, y + h] for a in doc["annotations"] if a["image_id"] == image_id
            for x, y, w, h in [a["bbox"]]]
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def literal_records() -> list[dat.ImageRecord]:
    """Fixed boxes: an image with no boxes, a non-square one with none
    withheld, and non-integer corners."""
    def rec(image_id, h, w, kept, dropped):
        return dat.ImageRecord(
            image_id=image_id, file_name=f"img_{image_id:06d}.pgm",
            image=np.full((h, w, 1), 0.5),
            kept=np.array(kept, dtype=np.float64).reshape(-1, 4),
            dropped=np.array(dropped, dtype=np.float64).reshape(-1, 4))
    return [rec(0, 16, 16, [], []),
            rec(3, 16, 24, [[1.0, 2.0, 9.5, 7.25], [0.1, 0.2, 0.3, 0.7]], []),
            rec(7, 32, 32, [[10.0, 11.0, 20.0, 21.0]],
                [[3.3333333333333335, 4.1, 15.9, 12.0], [0.0, 0.0, 32.0, 32.0]])]


class TestCocolite:
    def test_empty_dataset_shape(self, tmp_path):
        dat.save_dataset(tmp_path, [])
        for name, _ in SPLITS:
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            assert doc["images"] == [] and doc["annotations"] == []
            assert doc["categories"]
            assert dat.read_cocolite(tmp_path / f"{name}.json") == ([], {})

    def test_bbox_corner_conversion(self, tmp_path):
        """Corner boxes go to disk as [x, y, width, height] and come back."""
        rec = dat.ImageRecord(image_id=0, file_name="a.pgm", image=np.zeros((16, 16, 1)),
                              kept=np.array([[10.0, 20.0, 40.0, 60.0]]),
                              dropped=np.zeros((0, 4)))
        dat.save_dataset(tmp_path, [rec])
        doc = json.loads((tmp_path / "train.json").read_text())
        assert [a["bbox"] for a in doc["annotations"]] == [[10, 20, 30, 40]]
        (back,) = dat.load_dataset(tmp_path)
        assert back.kept.tolist() == [[10, 20, 40, 60]]
        assert back.dropped.shape == (0, 4)

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_identity(self, tmp_path, seed):
        """Every image comes back from each written file as it went in. Boxes
        pass through two float operations, so each is checked against its own
        oracle: written as [x1, y1, x2 - x1, y2 - y1], read as
        [x, y, x + w, y + h]."""
        records = random_dataset(seed)
        dat.save_dataset(tmp_path, records)
        for name, attr in SPLITS:
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            assert doc["annotations"] == written_oracle(records, attr)
            images, boxes = dat.read_cocolite(tmp_path / f"{name}.json")
            assert images == [(r.image_id, r.file_name, *r.image.shape[:2])
                              for r in records]
            for rec in records:
                want = filter_oracle(doc, rec.image_id)
                got = boxes.get(rec.image_id, np.zeros((0, 4)))
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_written_bytes_pinned(self, tmp_path):
        """The on-disk format does not drift. The train.json digest was
        recorded with the per-annotation object writer that save_dataset
        replaced; the dropped.json digest with the writer that stopped
        marking each withheld annotation "dropped": true."""
        dat.save_dataset(tmp_path, literal_records())
        digests = {name: hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest()
                   for name in ("train", "dropped")}
        assert digests == {
            "train": "6e4b518eae283ac1664254544d991d5ab85f2eeefe21c45ca6eb7df58b59ec42",
            "dropped": "0e24a0417fa38529280782ad498c7ad5fa1e457769997ddc930969b590303bdd",
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["dropped.json", "images", "train.json"]

    def test_older_layout_still_loads(self, tmp_path):
        """Datasets written with a full.json and a "dropped": true mark on
        every sidecar annotation load as they did: neither is read."""
        records = dat.generate_benchmark(3, 64, 0.5, seed=2)
        dat.save_dataset(tmp_path, records)
        want = dat.load_dataset(tmp_path)
        sidecar = json.loads((tmp_path / "dropped.json").read_text())
        assert sidecar["annotations"]
        for ann in sidecar["annotations"]:
            ann["dropped"] = True
        (tmp_path / "dropped.json").write_text(json.dumps(sidecar))
        (tmp_path / "full.json").write_text("not read")
        for rec, got in zip(want, dat.load_dataset(tmp_path)):
            assert got.kept.tobytes() == rec.kept.tobytes()
            assert got.dropped.tobytes() == rec.dropped.tobytes()

    @pytest.mark.parametrize("edit, at", [
        (lambda imgs: imgs.append({"id": 999, "file_name": "x.pgm", "height": 64,
                                   "width": 64}), 3),
        (lambda imgs: imgs.pop(), 2),
        (lambda imgs: imgs.reverse(), 0),
        (lambda imgs: imgs[1].update(height=72), 1),
        (lambda imgs: imgs[2].update(file_name="other.pgm"), 2),
    ], ids=["extra-image", "missing-image", "reordered", "height", "file-name"])
    def test_sidecar_images_must_match_train(self, tmp_path, edit, at):
        dat.save_dataset(tmp_path, dat.generate_benchmark(3, 64, 0.5, seed=2))
        path = tmp_path / "dropped.json"
        doc = json.loads(path.read_text())
        edit(doc["images"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoFormatError,
                           match=rf"dropped\.json: field 'images' .* images\[{at}\]"):
            dat.load_dataset(tmp_path)

    def test_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "ds.json"
        doc = {"images": [{"id": 1, "file_name": "a.pgm", "height": 8,
                           "width": 8, "license": 99}],
               "annotations": [], "categories": [], "info": {"year": 2026}}
        path.write_text(json.dumps(doc))
        assert dat.read_cocolite(path) == ([(1, "a.pgm", 8, 8)], {})

    def test_dangling_image_id_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "images": [], "categories": [],
            "annotations": [{"id": 77, "image_id": 5, "bbox": [0, 0, 1, 1],
                             "category_id": 1}]}))
        with pytest.raises(CocoFormatError, match="77"):
            dat.read_cocolite(path)

    def test_negative_extent_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "a", "height": 8, "width": 8}],
            "categories": [],
            "annotations": [{"id": 3, "image_id": 1, "bbox": [0, 0, -1, 1],
                             "category_id": 1}]}))
        with pytest.raises(CocoFormatError, match="3"):
            dat.read_cocolite(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CocoFormatError):
            dat.read_cocolite(path)


class TestBenchmarkDataset:
    def test_generate_is_deterministic(self):
        a = dat.generate_benchmark(3, 64, 0.3, seed=11)
        b = dat.generate_benchmark(3, 64, 0.3, seed=11)
        for ra, rb in zip(a, b):
            assert ra.image.tobytes() == rb.image.tobytes()
            np.testing.assert_array_equal(ra.kept, rb.kept)
            np.testing.assert_array_equal(ra.dropped, rb.dropped)

    def test_save_load_round_trip(self, tmp_path):
        records = dat.generate_benchmark(4, 64, 0.3, seed=2)
        dat.save_dataset(tmp_path, records)
        loaded = dat.load_dataset(tmp_path)
        assert len(loaded) == 4
        for orig, back in zip(records, loaded):
            assert back.image.tobytes() == orig.image.tobytes()
            for bo, bb in ((orig.kept, back.kept), (orig.dropped, back.dropped)):
                assert bb.shape == bo.shape and bb.dtype == np.float64
                np.testing.assert_allclose(bb, bo, atol=1e-9)

    @pytest.mark.parametrize("size", [16, 20, 60])
    def test_unusable_size_refused(self, size):
        with pytest.raises(ValueError, match=rf"image size {size} .* at least "
                                             rf"{dat.MIN_SCENE_SIZE}"):
            dat.generate_benchmark(1, size, 0.3, seed=0)

    def test_drop_rate_zero_sidecar_empty(self, tmp_path):
        records = dat.generate_benchmark(3, 64, 0.0, seed=2)
        assert all(r.dropped.shape == (0, 4) for r in records)


bbox_rows = st.tuples(st.integers(0, 5), st.booleans(),
                      *[st.floats(0, 50, allow_nan=False)] * 4)


class TestLoadGrouping:
    @given(n_images=st.integers(0, 5), anns=st.lists(bbox_rows, max_size=25),
           id_offset=st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_group_by_equals_per_image_filter(self, n_images, anns, id_offset):
        """load_dataset's one-pass grouping gives each image exactly the boxes
        of a per-image filter, in file order, and (0, 4) where it has none."""
        ids = [7 * i + id_offset for i in range(n_images)]
        images = [{"id": i, "file_name": f"im{i}.pgm", "height": 8, "width": 8}
                  for i in ids]
        train = {"images": images, "annotations": []}
        sidecar = {"images": images, "annotations": []}
        for k, (img, to_sidecar, x, y, w, h) in enumerate(anns):
            if not ids:
                break
            target = sidecar if to_sidecar else train
            target["annotations"].append({
                "id": k + 1, "image_id": ids[img % len(ids)], "bbox": [x, y, w, h],
                "category_id": 1, **({"dropped": True} if to_sidecar else {})})
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "images"))
            for im in images:
                dat.write_pgm(os.path.join(root, "images", im["file_name"]),
                              np.zeros((8, 8)))
            for name, doc in (("train.json", train), ("dropped.json", sidecar)):
                with open(os.path.join(root, name), "w") as f:
                    json.dump(doc, f)
            records = dat.load_dataset(root)
        assert [r.image_id for r in records] == ids
        for rec in records:
            for got, doc in ((rec.kept, train), (rec.dropped, sidecar)):
                want = filter_oracle(doc, rec.image_id)
                assert got.shape == want.shape and got.dtype == np.float64
                assert got.tobytes() == want.tobytes()
