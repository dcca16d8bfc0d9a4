"""Synthetic dense-ellipse scenes, controlled annotation dropping, and the
on-disk formats (COCO-lite JSON, binary PGM images).

Scenes are grayscale: ellipses of varying intensity, some brighter and some
darker than the mid-gray background, painted with 4x supersampled coverage
and finished with Gaussian noise. Intensity contrast is the only object
cue, which keeps flakes distinguishable from background but mutually
similar — the regime where dropped annotations look just like kept ones.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

BACKGROUND = 0.5
SUPERSAMPLE = 4


@dataclass(frozen=True)
class EllipseSpec:
    cy: float
    cx: float
    ay: float          # semi-axis along y before rotation
    ax: float          # semi-axis along x before rotation
    theta: float       # rotation, radians
    intensity: float   # absolute paint value in [0, 1]


@dataclass
class SceneSpec:
    height: int
    width: int
    objects: list[EllipseSpec]
    noise_sigma: float
    seed: int


def ellipse_bounds(e: EllipseSpec) -> tuple[float, float, float, float]:
    """Tight axis-aligned bounds (x1, y1, x2, y2) of a rotated ellipse, in
    closed form."""
    c, s = math.cos(e.theta), math.sin(e.theta)
    half_x = math.sqrt((e.ax * c) ** 2 + (e.ay * s) ** 2)
    half_y = math.sqrt((e.ax * s) ** 2 + (e.ay * c) ** 2)
    return e.cx - half_x, e.cy - half_y, e.cx + half_x, e.cy + half_y


def _coverage(e: EllipseSpec, height: int, width: int) -> np.ndarray:
    """Per-pixel area fraction covered by the ellipse (supersampled)."""
    ss = SUPERSAMPLE
    bx1, by1, bx2, by2 = ellipse_bounds(e)
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


def render_noiseless(spec: SceneSpec) -> np.ndarray:
    """Paint ellipses over the background in list order; overlaps are opaque."""
    img = np.full((spec.height, spec.width), BACKGROUND)
    for e in spec.objects:
        cov = _coverage(e, spec.height, spec.width)
        img = img * (1.0 - cov) + e.intensity * cov
    return img


def synthesize_scene(spec: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Render a scene and return (image (H, W, 1) float64 in [0, 1], tight
    (K, 4) boxes in object order). Deterministic per spec.seed."""
    if spec.height % 8 or spec.width % 8:
        raise ValueError("scene extents must be divisible by 8")
    rng = np.random.default_rng(spec.seed)
    img = render_noiseless(spec)
    if spec.noise_sigma > 0:
        img = img + rng.normal(0.0, spec.noise_sigma, size=img.shape)
    img = np.clip(img, 0.0, 1.0)
    boxes = np.array([ellipse_bounds(e) for e in spec.objects], dtype=np.float64)
    return img[..., None], boxes.reshape(-1, 4)


def random_scene(height: int, width: int, seed: int,
                 n_objects_range: tuple[int, int] = (6, 14),
                 axes_range: tuple[float, float] = (5.0, 9.0),
                 contrast_range: tuple[float, float] = (0.18, 0.38),
                 noise_sigma: float = 0.04) -> SceneSpec:
    """Draw a random dense scene: each ellipse is randomly brighter or
    darker than the background by a contrast drawn from contrast_range."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_objects_range[0], n_objects_range[1] + 1))
    objects = []
    for _ in range(n):
        a1 = float(rng.uniform(*axes_range))
        a2 = float(rng.uniform(*axes_range))
        margin = max(a1, a2) + 1.0
        contrast = float(rng.uniform(*contrast_range))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        objects.append(EllipseSpec(
            cy=float(rng.uniform(margin, height - margin)),
            cx=float(rng.uniform(margin, width - margin)),
            ay=a1, ax=a2,
            theta=float(rng.uniform(0.0, math.pi)),
            intensity=float(np.clip(BACKGROUND + sign * contrast, 0.02, 0.98)),
        ))
    return SceneSpec(height=height, width=width, objects=objects,
                     noise_sigma=noise_sigma, seed=seed)


def drop_annotations(boxes: np.ndarray, drop_rate: float, rng_seed: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Split (K, 4) boxes into (kept, dropped), withholding each box
    independently with probability drop_rate and re-sampling until at least
    one box survives (training needs positives). Both keep box order."""
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError(f"drop_rate must lie in [0, 1), got {drop_rate}")
    if not len(boxes):
        return boxes, boxes
    rng = np.random.default_rng(rng_seed)
    while True:
        mask = rng.random(len(boxes)) >= drop_rate
        if mask.any():
            break
    return boxes[mask], boxes[~mask]


# -- benchmark datasets ---------------------------------------------------------

@dataclass
class ImageRecord:
    """One benchmark image with its split annotations. ``kept`` is what
    training sees; ``dropped`` is the withheld ground truth (sidecar only);
    the full set is their union. Each box set is a (G, 4) float64 corner-form
    array, (0, 4) when empty."""
    image_id: int
    file_name: str
    image: np.ndarray          # (H, W, 1) float64 in [0, 1]
    kept: np.ndarray
    dropped: np.ndarray

    @property
    def full(self) -> np.ndarray:
        return np.concatenate([self.kept, self.dropped])


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def generate_benchmark(n_images: int, image_size: int, drop_rate: float,
                       seed: int, **scene_kwargs) -> list[ImageRecord]:
    """Deterministic synthetic benchmark. Images go through the on-disk
    quantization grid so in-memory and reloaded datasets are identical."""
    records = []
    for i in range(n_images):
        spec = random_scene(image_size, image_size,
                            seed=_derived_seed(seed, i, 0), **scene_kwargs)
        img, boxes = synthesize_scene(spec)
        img = dequantize_image(quantize_image(img[..., 0]))[..., None]
        kept, dropped = drop_annotations(boxes, drop_rate,
                                         rng_seed=_derived_seed(seed, i, 1))
        records.append(ImageRecord(image_id=i, file_name=f"img_{i:06d}.pgm",
                                   image=img, kept=kept, dropped=dropped))
    return records


def _records_to_coco(records: Sequence[ImageRecord], which: str) -> CocoDataset:
    ds = CocoDataset()
    ann_id = 1
    for rec in records:
        h, w = rec.image.shape[0], rec.image.shape[1]
        ds.images.append(CocoImage(id=rec.image_id, file_name=rec.file_name,
                                   height=h, width=w))
        groups = {"train": [(rec.kept, False)],
                  "full": [(rec.kept, False), (rec.dropped, False)],
                  "dropped": [(rec.dropped, True)]}[which]
        for boxes, mark in groups:
            sizes = boxes[:, 2:] - boxes[:, :2]
            for x, y, w, h in np.concatenate([boxes[:, :2], sizes], axis=1).tolist():
                ds.annotations.append(CocoAnnotation(
                    id=ann_id, image_id=rec.image_id, bbox=(x, y, w, h),
                    dropped=mark))
                ann_id += 1
    return ds


def save_dataset(directory, records: Sequence[ImageRecord]):
    """Write PGM images plus three COCO-lite files: train.json (kept boxes
    only), full.json (complete ground truth for evaluation), and the
    dropped.json sidecar marking every withheld box."""
    directory = str(directory)
    os.makedirs(os.path.join(directory, "images"), exist_ok=True)
    for rec in records:
        write_pgm(os.path.join(directory, "images", rec.file_name), rec.image)
    for name, which in (("train", "train"), ("full", "full"), ("dropped", "dropped")):
        write_cocolite(os.path.join(directory, f"{name}.json"),
                       _records_to_coco(records, which))


def _boxes_by_image(ds: CocoDataset) -> dict[int, np.ndarray]:
    """Corner-form (G, 4) boxes of each annotated image id, in file order."""
    grouped: dict[int, list] = {}
    for a in ds.annotations:
        grouped.setdefault(a.image_id, []).append(a.bbox)
    out = {}
    for image_id, bboxes in grouped.items():
        b = np.array(bboxes, dtype=np.float64)
        out[image_id] = np.concatenate([b[:, :2], b[:, :2] + b[:, 2:]], axis=1)
    return out


def load_dataset(directory) -> list[ImageRecord]:
    """Records of every image in train.json, with its kept boxes from there
    and its withheld boxes from the dropped.json sidecar."""
    directory = str(directory)
    train = read_cocolite(os.path.join(directory, "train.json"))
    sidecar = read_cocolite(os.path.join(directory, "dropped.json"))
    kept, dropped = _boxes_by_image(train), _boxes_by_image(sidecar)
    empty = np.zeros((0, 4))
    records = []
    for im in train.images:
        img = dequantize_image(read_pgm(os.path.join(directory, "images", im.file_name)))
        records.append(ImageRecord(
            image_id=im.id, file_name=im.file_name, image=img[..., None],
            kept=kept.get(im.id, empty), dropped=dropped.get(im.id, empty)))
    return records


# -- PGM ---------------------------------------------------------------------

PGM_MAXVAL = 65535


def quantize_image(img: np.ndarray) -> np.ndarray:
    """Map float [0, 1] grayscale to uint16 grid used on disk."""
    return np.round(np.clip(img, 0.0, 1.0) * PGM_MAXVAL).astype(np.uint16)


def dequantize_image(q: np.ndarray) -> np.ndarray:
    return q.astype(np.float64) / PGM_MAXVAL


def write_pgm(path, img: np.ndarray):
    """Binary P5 graymap, 16-bit big-endian samples."""
    img = np.asarray(img)
    if img.ndim == 3:
        img = img[..., 0]
    q = img.astype(np.uint16) if img.dtype == np.uint16 else quantize_image(img)
    h, w = q.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii"))
        f.write(q.astype(">u2").tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 graymap back as uint16 (H, W)."""
    with open(path, "rb") as f:
        raw = f.read()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if not m:
        raise ValueError(f"{path}: not a binary PGM file")
    w, h, maxval = (int(m.group(i)) for i in (1, 2, 3))
    payload = raw[m.end():]
    if maxval != PGM_MAXVAL:
        raise ValueError(f"{path}: expected maxval {PGM_MAXVAL}, got {maxval}")
    if len(payload) < 2 * h * w:
        raise ValueError(f"{path}: truncated PGM, {w}x{h} needs {2 * h * w} bytes "
                         f"of samples, found {len(payload)}")
    img = np.frombuffer(payload, dtype=">u2", count=h * w).reshape(h, w)
    return img.astype(np.uint16)


# -- COCO-lite ----------------------------------------------------------------

class CocoFormatError(Exception):
    pass


@dataclass(frozen=True)
class CocoImage:
    id: int
    file_name: str
    height: int
    width: int


@dataclass(frozen=True)
class CocoAnnotation:
    id: int
    image_id: int
    bbox: tuple[float, float, float, float]  # x, y, width, height
    category_id: int = 1
    dropped: bool = False


@dataclass
class CocoDataset:
    images: list[CocoImage] = field(default_factory=list)
    annotations: list[CocoAnnotation] = field(default_factory=list)
    categories: list[dict] = field(default_factory=lambda: [{"id": 1, "name": "flake"}])


def write_cocolite(path, dataset: CocoDataset):
    doc = {
        "images": [{"id": im.id, "file_name": im.file_name,
                    "height": im.height, "width": im.width}
                   for im in dataset.images],
        "annotations": [
            {**{"id": a.id, "image_id": a.image_id, "bbox": list(a.bbox),
                "category_id": a.category_id},
             **({"dropped": True} if a.dropped else {})}
            for a in dataset.annotations],
        "categories": dataset.categories,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:          # an int beyond the float range
        return False


def _is_plain_name(v) -> bool:
    return isinstance(v, str) and os.path.basename(v) == v and v not in ("", ".", "..")


def _is_bbox(v) -> bool:
    if not (isinstance(v, list) and len(v) == 4 and all(_is_finite(c) for c in v)):
        return False
    x, y, w, h = (float(c) for c in v)
    return w >= 0 and h >= 0 and math.isfinite(x + w) and math.isfinite(y + h)


def _objects(path, doc: dict, key: str) -> list[dict]:
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(isinstance(r, dict) for r in items):
        raise CocoFormatError(f"{path}: {key!r} must be a list of objects")
    return items


def _field(path, where: str, rec: dict, key: str, ok, want: str):
    if key not in rec:
        raise CocoFormatError(f"{path}: {where}: missing field {key!r}")
    if not ok(rec[key]):
        raise CocoFormatError(f"{path}: {where}: field {key!r} must be {want}, "
                              f"got {rec[key]!r}")
    return rec[key]


_INT = "an integer"


def read_cocolite(path) -> CocoDataset:
    """Read a COCO-lite file, checking every field the dataset uses; any
    failure is a CocoFormatError naming the file and the field."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (ValueError, RecursionError) as e:
        raise CocoFormatError(f"{path}: malformed JSON ({e})") from e
    if not isinstance(doc, dict):
        raise CocoFormatError(f"{path}: the top level must be a JSON object")
    images, image_ids = [], set()
    for i, rec in enumerate(_objects(path, doc, "images")):
        where = f"images[{i}]"
        image = CocoImage(
            id=_field(path, where, rec, "id", _is_int, _INT),
            file_name=_field(path, where, rec, "file_name", _is_plain_name,
                             "a plain file name inside images/"),
            height=_field(path, where, rec, "height", _is_int, _INT),
            width=_field(path, where, rec, "width", _is_int, _INT))
        if image.id in image_ids:     # its boxes would go to both images
            raise CocoFormatError(f"{path}: {where}: duplicate id {image.id}")
        image_ids.add(image.id)
        images.append(image)
    annotations = []
    for i, rec in enumerate(_objects(path, doc, "annotations")):
        ann_id = _field(path, f"annotations[{i}]", rec, "id", _is_int, _INT)
        where = f"annotations[{i}] (id {ann_id})"
        image_id = _field(path, where, rec, "image_id", _is_int, _INT)
        if image_id not in image_ids:
            raise CocoFormatError(f"{path}: {where}: dangling image_id {image_id}")
        bbox = _field(path, where, rec, "bbox", _is_bbox,
                      "four finite numbers [x, y, width, height], width and height >= 0")
        annotations.append(CocoAnnotation(
            id=ann_id, image_id=image_id, bbox=tuple(float(v) for v in bbox),
            category_id=_field(path, where, {"category_id": 1, **rec}, "category_id",
                               _is_int, _INT),
            dropped=bool(rec.get("dropped", False))))
    return CocoDataset(images=images, annotations=annotations,
                       categories=doc.get("categories",
                                          [{"id": 1, "name": "flake"}]))
