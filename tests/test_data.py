import hashlib
import json
import math
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


def coverage_oracle(e: EllipseSpec, height: int, width: int) -> np.ndarray:
    """Full-frame supersampled coverage as the renderer once computed it:
    a frame-sized array, two meshgrids and a 4-D mean."""
    ss = dat.SUPERSAMPLE
    bx1, by1, bx2, by2 = dat.ellipse_bounds(e)
    y0, y1 = max(0, int(by1) - 1), min(height, int(by2) + 2)
    x0, x1 = max(0, int(bx1) - 1), min(width, int(bx2) + 2)
    cov = np.zeros((height, width))
    if y0 >= y1 or x0 >= x1:
        return cov
    ys = (np.arange(y0 * ss, y1 * ss) + 0.5) / ss
    xs = (np.arange(x0 * ss, x1 * ss) + 0.5) / ss
    yy, xx = np.meshgrid(ys - e.cy, xs - e.cx, indexing="ij")
    c, s = math.cos(e.theta), math.sin(e.theta)
    u = (xx * c + yy * s) / e.ax
    v = (-xx * s + yy * c) / e.ay
    inside = (u * u + v * v <= 1.0).astype(np.float64)
    cov[y0:y1, x0:x1] = inside.reshape(y1 - y0, ss, x1 - x0, ss).mean(axis=(1, 3))
    return cov


def render_oracle(spec: SceneSpec) -> np.ndarray:
    """Whole-frame blend of every ellipse, in list order."""
    img = np.full((spec.height, spec.width), dat.BACKGROUND)
    for e in spec.objects:
        cov = coverage_oracle(e, spec.height, spec.width)
        img = img * (1.0 - cov) + e.intensity * cov
    return img


def random_scene_oracle(height: int, width: int, seed: int,
                        noise_sigma: float = 0.04) -> SceneSpec:
    """random_scene as seven scalar draws per ellipse."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(dat.N_OBJECTS_RANGE[0], dat.N_OBJECTS_RANGE[1] + 1))
    objects = []
    for _ in range(n):
        a1 = float(rng.uniform(*dat.AXES_RANGE))
        a2 = float(rng.uniform(*dat.AXES_RANGE))
        margin = max(a1, a2) + dat.EDGE_GAP
        contrast = float(rng.uniform(*dat.CONTRAST_RANGE))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        objects.append(EllipseSpec(
            cy=float(rng.uniform(margin, height - margin)),
            cx=float(rng.uniform(margin, width - margin)),
            ay=a1, ax=a2,
            theta=float(rng.uniform(0.0, math.pi)),
            intensity=float(np.clip(dat.BACKGROUND + sign * contrast, 0.02, 0.98)),
        ))
    return SceneSpec(height=height, width=width, objects=objects,
                     noise_sigma=noise_sigma, seed=seed)


@st.composite
def edge_scenes(draw):
    """Ellipses with centres near and past every frame edge, any axes in and
    beyond AXES_RANGE, any angle, plus one ellipse wholly above the frame."""
    height, width = draw(st.sampled_from([(24, 24), (64, 64), (72, 72), (48, 96)]))
    pad = 2 * dat.AXES_RANGE[1]
    ellipse = st.builds(
        EllipseSpec,
        cy=st.floats(-pad, height + pad), cx=st.floats(-pad, width + pad),
        ay=st.floats(0.5, pad), ax=st.floats(0.5, pad),
        theta=st.floats(0.0, math.pi), intensity=st.floats(0.0, 1.0))
    objects = draw(st.lists(ellipse, max_size=8))
    outside = EllipseSpec(cy=-(pad + 3.0), cx=draw(st.floats(0.0, width)),
                          ay=pad, ax=pad, theta=draw(st.floats(0.0, math.pi)),
                          intensity=0.9)
    objects.insert(draw(st.integers(0, len(objects))), outside)
    return SceneSpec(height=height, width=width, objects=objects,
                     noise_sigma=0.0, seed=0), outside


class TestRenderOracle:
    @given(case=edge_scenes())
    @settings(max_examples=150, deadline=None)
    def test_window_render_equals_full_frame_blend(self, case):
        """Blending each ellipse only inside its window gives every pixel the
        float the full-frame blend gives it, edges and empty windows too."""
        spec, outside = case
        assert not coverage_oracle(outside, spec.height, spec.width).any()
        got = dat.render_noiseless(spec)
        want = render_oracle(spec)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()

    @pytest.mark.parametrize("height,width", [(24, 24), (64, 64), (128, 128), (48, 96)])
    def test_scene_draws_equal_scalar_draws(self, height, width):
        """Drawing every ellipse's uniforms at once returns the same specs,
        float for float, as seven scalar draws per ellipse."""
        for seed in range(150):
            got = dat.random_scene(height, width, seed=seed)
            want = random_scene_oracle(height, width, seed=seed)
            assert got == want, seed
            assert all(type(v) is float for e in got.objects
                       for v in vars(e).values())


# sha256 of the image, kept-box and dropped-box bytes of every record of
# generate_benchmark(images, size, 0.3, seed), concatenated in record order;
# recorded with the full-frame renderer and scalar scene draws
GENERATED_DIGESTS = {
    (24, 30, 5): ("f791c6def605bfcd75b50095d02ae6e4911d7e58a96bcb06e3833ef3d3e4da8f",
                  "1861b598473c872c9cf0ad8cc0f69ec60adbda615461242c72267467ea2d94fd",
                  "ae009b8a63b56f950473984204d8ec8e563b8bfd7397a0acd66d31f83d4d6241"),
    (64, 40, 1000003): ("da685aaea15d058382f1997c0e40438580975b0259afbc7ce11ec10fcb57ba45",
                        "6bc09a9b7f96841633dad2fcb35ccd3440548cf4b832e5d3900f145f38a2a446",
                        "7f4d46b0439deb1094ba69a56016e61251db66fa9515ba34d738bcaab9a44e18"),
    (72, 10, 7): ("bcb4b70a222ba0a87df2e47ee5b796100ae223b48b27e77a66934426fdf981eb",
                  "6bb23edc13019e8104e5c679aedfe7f355735e3f8b429182e29e573d157d507d",
                  "465152fecd6451e540968551b79795a5bacf9123fc68d80b0997afdab67b7745"),
    (128, 12, 2): ("3244253d258fd80c24ce1509386b81c0f2965a9c2a8f2d3deb10753de85963fd",
                   "c2d92198b625bb7e3b92a4cde9bcc0e8327270c337b0787fdd5bbc274af81953",
                   "6ce9fb3ba2376c983e7124587ddb414ab3ae946c7082bc806f92669e1597aa83"),
}


@pytest.mark.parametrize("size,images,seed", sorted(GENERATED_DIGESTS))
def test_generated_data_pinned(size, images, seed):
    """The generated benchmark does not drift, on square scenes of 24, 64,
    72 (not a multiple of 16) and 128 px."""
    records = dat.generate_benchmark(images, size, 0.3, seed=seed)
    digests = []
    for attr in ("image", "kept", "dropped"):
        h = hashlib.sha256()
        for rec in records:
            h.update(getattr(rec, attr).tobytes())
        digests.append(h.hexdigest())
    assert tuple(digests) == GENERATED_DIGESTS[(size, images, seed)]


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

    @pytest.mark.parametrize("header", [b"P5\n" + b"9" * 5000 + b" 2\n65535\n",
                                        b"P5\n2 2\n" + b"6" * 19 + b"\n"],
                             ids=["width-5000-digits", "maxval-19-digits"])
    def test_header_number_too_long_names_the_file(self, tmp_path, header):
        """A number int() refuses (over 4,300 digits) or no array could
        have is refused as not PGM, by a message that names the file."""
        path = tmp_path / "long.pgm"
        path.write_bytes(header + bytes(8))
        with pytest.raises(ValueError, match="not a binary PGM file") as e:
            dat.read_pgm(path)
        assert str(e.value).startswith(f"{path}: ")


class TestRewriteInPlace:
    def test_shorter_content_leaves_exactly_its_bytes(self, tmp_path):
        path = tmp_path / "f.bin"
        with dat.rewrite_in_place(path) as f:
            f.write(b"0123456789" * 100)
        with dat.rewrite_in_place(path) as f:
            f.write(b"abc")
        assert path.read_bytes() == b"abc"
        with dat.rewrite_in_place(path, "w") as f:
            f.write("xy")
        assert path.read_bytes() == b"xy"

    def test_smaller_pgm_over_larger(self, tmp_path, rng):
        path, fresh = tmp_path / "img.pgm", tmp_path / "fresh.pgm"
        dat.write_pgm(path, rng.random((64, 64)))
        small = rng.random((24, 32))
        dat.write_pgm(path, small)
        dat.write_pgm(fresh, small)
        assert path.read_bytes() == fresh.read_bytes()

    def test_save_dataset_opens_every_file_without_truncating(self, tmp_path,
                                                              monkeypatch):
        """Each image and both COCO-lite files are overwritten, never
        truncated on open: a truncating open of an allocated file waits for
        its blocks to be freed."""
        records = dat.generate_benchmark(2, 64, 0.3, seed=1)
        opened = {}
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            opened[os.path.relpath(path, tmp_path)] = flags
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        dat.save_dataset(tmp_path, records)
        assert sorted(opened) == sorted(
            ["train.json", "dropped.json"]
            + [os.path.join("images", rec.file_name) for rec in records])
        assert not any(flags & os.O_TRUNC for flags in opened.values())


def random_boxes(gen, h, w) -> np.ndarray:
    """Up to five corner-form boxes with non-integer corners, each inside an
    h x w image with room to spare, so reading them back keeps them inside."""
    half = np.array([w, h]) / 2
    xy = gen.uniform(0, half, (int(gen.integers(0, 6)), 2))
    return np.concatenate([xy, xy + gen.uniform(0.5, half - 0.5, xy.shape)], axis=1)


def random_dataset(seed) -> list[dat.ImageRecord]:
    """Up to four records of random extent with random kept and withheld
    boxes; some records have none of either."""
    gen = np.random.default_rng(seed)
    records = []
    for i in range(int(gen.integers(0, 5))):
        h, w = 8 * gen.integers(1, 5, 2)
        records.append(dat.ImageRecord(
            image_id=3 * i + 1, file_name=f"img_{i:06d}.pgm", image=np.zeros((h, w, 1)),
            kept=random_boxes(gen, h, w), dropped=random_boxes(gen, h, w)))
    return records


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


MISSING = object()


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
        rec = dat.ImageRecord(image_id=0, file_name="a.pgm", image=np.zeros((64, 64, 1)),
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

    def test_withheld_box_repeating_a_kept_box_is_refused(self, tmp_path):
        """A dropped.json box whose four corners equal a train.json box of
        its own image is refused, naming dropped.json, the image id and the
        box; the same box on another image is no repeat."""
        dat.save_dataset(tmp_path, dat.generate_benchmark(3, 64, 0.5, seed=2))
        kept = json.loads((tmp_path / "train.json").read_text())["annotations"][-1]
        path = tmp_path / "dropped.json"
        doc = json.loads(path.read_text())
        other = next(r.image_id for r in dat.load_dataset(tmp_path)
                     if r.image_id != kept["image_id"])
        doc["annotations"].append({**kept, "id": 1000, "image_id": other})
        path.write_text(json.dumps(doc))
        dat.load_dataset(tmp_path)
        doc["annotations"].append({**kept, "id": 1001})
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoFormatError) as e:
            dat.load_dataset(tmp_path)
        x, y, w, h = kept["bbox"]
        assert str(e.value) == (
            f"{path}: image {kept['image_id']}: the box with corners {[x, y, x + w, y + h]} "
            f"repeats a kept box of {tmp_path / 'train.json'}")

    @pytest.mark.parametrize("edit, needle", [
        (lambda doc, train: doc["images"].pop(), "field 'images' must list"),
        (lambda doc, train: doc["annotations"].append({**train["annotations"][0], "id": 1000}),
         "repeats a kept box"),
    ], ids=["images-differ", "repeated-box"])
    def test_bad_sidecar_is_named_before_any_pgm_is_read(self, tmp_path, monkeypatch,
                                                          edit, needle):
        dat.save_dataset(tmp_path, dat.generate_benchmark(3, 64, 0.5, seed=2))
        path = tmp_path / "dropped.json"
        doc = json.loads(path.read_text())
        edit(doc, json.loads((tmp_path / "train.json").read_text()))
        path.write_text(json.dumps(doc))

        def no_read(path):
            raise AssertionError(f"read {path} before the sidecar was checked")

        monkeypatch.setattr(dat, "read_pgm", no_read)
        with pytest.raises(CocoFormatError, match=needle) as e:
            dat.load_dataset(tmp_path)
        assert str(e.value).startswith(f"{path}: ")

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

    @staticmethod
    def fifty_annotations():
        """A COCO-lite doc of 5 images and 50 annotations, ids from 100."""
        images = [{"id": i, "file_name": f"im{i}.pgm", "height": 64, "width": 64}
                  for i in range(5)]
        annotations = [{"id": 100 + k, "image_id": k % 5, "bbox": [k, 2.5, 3, 4.25],
                        "category_id": 1} for k in range(50)]
        return {"images": images, "annotations": annotations, "categories": []}

    BBOX_WANT = "four finite numbers [x, y, width, height], width and height >= 0"

    @pytest.mark.parametrize("k", [0, 31, 49])
    @pytest.mark.parametrize("key, value, message", [
        ("id", "7", "annotations[{k}]: field 'id' must be an integer, got '7'"),
        ("id", MISSING, "annotations[{k}]: missing field 'id'"),
        ("image_id", 5, "annotations[{k}] (id {id}): dangling image_id 5"),
        ("image_id", 2.0, "annotations[{k}] (id {id}): field 'image_id' must be an "
                          "integer, got 2.0"),
        ("bbox", True, f"annotations[{{k}}] (id {{id}}): field 'bbox' must be "
                       f"{BBOX_WANT}, got True"),
        ("bbox", [1, True, 3, 4], "got [1, True, 3, 4]"),
        ("bbox", "1 2 3 4", "got '1 2 3 4'"),
        ("bbox", [1, "2", 3, 4], "got [1, '2', 3, 4]"),
        ("bbox", [1, 2, float("inf"), 4], "got [1, 2, inf, 4]"),
        ("bbox", [float("nan"), 2, 3, 4], "got [nan, 2, 3, 4]"),
        ("bbox", [1, 2, -0.5, 4], "got [1, 2, -0.5, 4]"),
        ("bbox", [1, 2, 3, -4], "got [1, 2, 3, -4]"),
        ("bbox", [1, 2, 10 ** 400, 4], "must be " + BBOX_WANT),
        ("bbox", [1, 2, 3], "got [1, 2, 3]"),
        ("bbox", [1, 2, 3, 4, 5], "got [1, 2, 3, 4, 5]"),
        ("bbox", [1e308, 2, 1e308, 4], "got [1e+308, 2, 1e+308, 4]"),
        ("bbox", [1, -1e308, 3, -1e308], "got [1, -1e+308, 3, -1e+308]"),
        ("bbox", [1e300] * 4, "got [1e+300, 1e+300, 1e+300, 1e+300]"),
        ("bbox", MISSING, "annotations[{k}] (id {id}): missing field 'bbox'"),
        ("bbox", [1, 2, 0, 4], "annotations[{k}] (id {id}): bbox [1, 2, 0, 4] has no area: "
                               "its width and height must be above 0"),
        ("bbox", [1, 2, 3, 0.0], "bbox [1, 2, 3, 0.0] has no area"),
        ("bbox", [2 ** 60, 2, 1, 4], "has no area"),      # x + width rounds to x
        ("bbox", [-1, 2, 3, 4], "annotations[{k}] (id {id}): bbox [-1, 2, 3, 4] does not lie "
                                "inside image {img}, which declares width 64 and height 64"),
        ("bbox", [1, -0.5, 3, 4], "bbox [1, -0.5, 3, 4] does not lie inside image {img}"),
        ("bbox", [60, 2, 4.5, 4], "bbox [60, 2, 4.5, 4] does not lie inside image {img}"),
        ("bbox", [1, 60, 3, 4.5], "bbox [1, 60, 3, 4.5] does not lie inside image {img}"),
        ("bbox", [0, 0, 1e154, 1e154], "does not lie inside image {img}"),
        ("category_id", 1.0, "annotations[{k}] (id {id}): field 'category_id' must be "
                             "an integer, got 1.0"),
        ("category_id", False, "field 'category_id' must be an integer, got False"),
    ])
    def test_first_bad_annotation_named(self, tmp_path, k, key, value, message):
        """Each field rule, whether the loop over the records checks it (a
        type, a dangling image_id) or the bulk check of the bbox numbers does,
        names the first bad annotation, though a later one is bad too."""
        doc = self.fifty_annotations()
        if value is MISSING:
            del doc["annotations"][k][key]
        else:
            doc["annotations"][k][key] = value
        if k < 49:
            doc["annotations"][49]["bbox"] = [0, 0, -1, 1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoFormatError) as e:
            dat.read_cocolite(path)
        where = f"{path}: annotations[{k}]"
        assert str(e.value).startswith(where), str(e.value)
        assert message.format(k=k, id=100 + k, img=k % 5) in str(e.value)

    @pytest.mark.parametrize("flat_at, bad_at, named", [
        (3, 40, 3), (40, 3, 3), (3, None, 3)], ids=["before", "after", "alone"])
    @pytest.mark.parametrize("breach", [[1, 2, 0, 4], [62, 2, 3, 4]], ids=["flat", "outside"])
    def test_box_without_area_or_outside_named_in_file_order(self, tmp_path, breach,
                                                             flat_at, bad_at, named):
        """A box without area or outside its image is named when it comes
        before a bad bbox and before a type fault (id "7" at annotations[31]
        in the "alone" case), not when a bad bbox comes first."""
        doc = self.fifty_annotations()
        doc["annotations"][flat_at]["bbox"] = breach
        if bad_at is None:
            doc["annotations"][31]["id"] = "7"
        else:
            doc["annotations"][bad_at]["bbox"] = [0, 0, -1, 1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoFormatError) as e:
            dat.read_cocolite(path)
        assert str(e.value).startswith(f"{path}: annotations[{named}] (id {100 + named}): "
                                       + ("field 'bbox'" if named == bad_at else "bbox ["))

    def test_box_on_the_image_edge_reads(self, tmp_path):
        """A box may touch every edge of its image: x + width equal to the
        declared width is inside."""
        doc = self.fifty_annotations()
        doc["annotations"][7]["bbox"] = [0, 0, 64, 64]
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(doc))
        _, boxes = dat.read_cocolite(path)
        assert boxes[2][1].tolist() == [0, 0, 64, 64]

    def test_bad_bbox_named_before_a_later_type_fault(self, tmp_path):
        """The bulk check of the bbox numbers finds annotations[3], which
        comes before the type fault at annotations[31] that stops the loop."""
        doc = self.fifty_annotations()
        doc["annotations"][3]["bbox"] = [3, 2.5, -0.5, 4.25]
        doc["annotations"][31]["id"] = "7"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoFormatError) as e:
            dat.read_cocolite(path)
        assert str(e.value) == (f"{path}: annotations[3] (id 103): field 'bbox' must be "
                                f"{self.BBOX_WANT}, got [3, 2.5, -0.5, 4.25]")

    def test_bad_bbox_named_before_its_own_category_id(self, tmp_path):
        """Within one annotation, the bbox is checked before category_id."""
        doc = self.fifty_annotations()
        doc["annotations"][3].update(bbox=[3, 2.5, -0.5, 4.25], category_id=None)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoFormatError, match=r"annotations\[3\] \(id 103\): field 'bbox'"):
            dat.read_cocolite(path)

    def test_int_bbox_numbers_read_as_floats_up_to_the_float_range(self, tmp_path):
        """Ints beyond int64 but within the float range read as floats, also
        when a later bbox holds an int beyond it, which alone is refused; the
        images declare a width beyond the float range, which holds them."""
        limit = 2 ** 1024 - 2 ** 970            # the least int float() refuses
        doc = self.fifty_annotations()
        for image in doc["images"]:
            image["width"] = 2 ** 1100
        doc["annotations"][2]["bbox"] = [2 ** 70, 0, 2 ** 70, 1]
        doc["annotations"][4]["bbox"] = [0, 0, limit - 1, 1]
        doc["annotations"][6]["bbox"] = [0, 0, limit, 1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoFormatError, match=r"annotations\[6\] \(id 106\): field 'bbox'"):
            dat.read_cocolite(path)
        del doc["annotations"][6]
        path.write_text(json.dumps(doc))
        _, boxes = dat.read_cocolite(path)
        assert boxes[2][0].tolist() == [2.0 ** 70, 0, 2.0 ** 71, 1]
        assert boxes[4][0].tolist() == [0, 0, np.finfo(np.float64).max, 1]

    def test_annotation_without_category_reads(self, tmp_path):
        doc = self.fifty_annotations()
        del doc["annotations"][3]["category_id"]
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(doc))
        _, boxes = dat.read_cocolite(path)
        assert boxes[3].tolist()[0] == [3, 2.5, 6, 6.75]

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("key, value, message", [
        ("id", True, "images[{k}]: field 'id' must be an integer, got True"),
        ("id", [1], "images[{k}]: field 'id' must be an integer, got [1]"),
        ("file_name", "a/b.pgm", "images[{k}]: field 'file_name' must be a plain file "
                                 "name inside images/, got 'a/b.pgm'"),
        ("height", 64.0, "images[{k}]: field 'height' must be an integer, got 64.0"),
        ("width", MISSING, "images[{k}]: missing field 'width'"),
    ])
    def test_first_bad_image_named(self, tmp_path, k, key, value, message):
        doc = self.fifty_annotations()
        if value is MISSING:
            del doc["images"][k][key]
        else:
            doc["images"][k][key] = value
        doc["images"][4]["height"] = "64"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoFormatError) as e:
            dat.read_cocolite(path)
        assert str(e.value) == f"{path}: " + message.format(k=k), str(e.value)

    @pytest.mark.parametrize("key, value, message", [
        ("id", 1, "duplicate id 1"),
        ("file_name", "im1.pgm", "duplicate file_name 'im1.pgm'"),
    ], ids=["id", "file_name"])
    def test_duplicate_image_named(self, tmp_path, key, value, message):
        doc = self.fifty_annotations()
        doc["images"][3][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoFormatError) as e:
            dat.read_cocolite(path)
        assert str(e.value) == f"{path}: images[3]: {message}"

    @pytest.mark.parametrize("bad_bbox_at, named", [
        (None, "annotations[31]: duplicate id 103"),
        (3, "annotations[3] (id 103): field 'bbox'"),
        (40, "annotations[31]: duplicate id 103"),
    ], ids=["alone", "bad-bbox-before", "bad-bbox-after"])
    def test_duplicate_annotation_id_named_in_file_order(self, tmp_path, bad_bbox_at, named):
        """A repeated annotation id is named at its second use, after a bad
        bbox that comes earlier and before one that comes later."""
        doc = self.fifty_annotations()
        doc["annotations"][31]["id"] = 103
        if bad_bbox_at is not None:
            doc["annotations"][bad_bbox_at]["bbox"] = [0, 0, -1, 1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoFormatError) as e:
            dat.read_cocolite(path)
        assert str(e.value).startswith(f"{path}: {named}"), str(e.value)

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


# x, y, width and height of a box with area inside an 8x8 image
bbox_rows = st.tuples(st.integers(0, 5), st.booleans(), *[st.floats(0, 4)] * 2,
                      *[st.floats(0.25, 4)] * 2)


class TestLoadGrouping:
    @given(n_images=st.integers(0, 5), anns=st.lists(bbox_rows, max_size=25),
           id_offset=st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_group_by_equals_per_image_filter(self, n_images, anns, id_offset):
        """load_dataset's one-pass grouping gives each image exactly the boxes
        of a per-image filter, in file order, and (0, 4) where it has none;
        a dataset in which a withheld box repeats a kept box of its image
        is refused instead."""
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
            if any(set(map(tuple, filter_oracle(sidecar, i).tolist()))
                   & set(map(tuple, filter_oracle(train, i).tolist())) for i in ids):
                with pytest.raises(CocoFormatError, match="repeats a kept box"):
                    dat.load_dataset(root)
                return
            records = dat.load_dataset(root)
        assert [r.image_id for r in records] == ids
        for rec in records:
            for got, doc in ((rec.kept, train), (rec.dropped, sidecar)):
                want = filter_oracle(doc, rec.image_id)
                assert got.shape == want.shape and got.dtype == np.float64
                assert got.tobytes() == want.tobytes()
