"""Synthetic dense-ellipse scenes, controlled annotation dropping, and the
on-disk formats: binary PGM images, and COCO-lite JSON read and written
straight from (G, 4) corner-form box arrays.

Scenes are grayscale: ellipses of varying intensity, some brighter and some
darker than the mid-gray background, painted with 4x supersampled coverage
and finished with Gaussian noise. Intensity contrast is the only object
cue, which keeps flakes distinguishable from background but mutually
similar — the regime where dropped annotations look just like kept ones.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model as mdl

BACKGROUND = 0.5
SUPERSAMPLE = 4
# random_scene draws an object count, two semi-axes (px) per ellipse and its
# contrast to the background uniformly from these ranges, and keeps each
# centre its larger semi-axis plus EDGE_GAP px from every edge
N_OBJECTS_RANGE = (6, 14)
AXES_RANGE = (5.0, 9.0)
CONTRAST_RANGE = (0.18, 0.38)
EDGE_GAP = 1.0


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


def _coverage(e: EllipseSpec, height: int, width: int
              ) -> tuple[int, int, int, int, np.ndarray]:
    """Per-pixel area fraction covered by the ellipse (supersampled), over
    its clipped bounding window (y0, y1, x0, x1) only; every pixel outside
    the window has coverage 0. The window may be empty."""
    ss = SUPERSAMPLE
    bx1, by1, bx2, by2 = ellipse_bounds(e)
    y0, y1 = max(0, int(by1) - 1), min(height, int(by2) + 2)
    x0, x1 = max(0, int(bx1) - 1), min(width, int(bx2) + 2)
    if y0 >= y1 or x0 >= x1:
        return y0, y0, x0, x0, np.zeros((0, 0))
    dy = (np.arange(y0 * ss, y1 * ss) + 0.5) / ss - e.cy
    dx = (np.arange(x0 * ss, x1 * ss) + 0.5) / ss - e.cx
    c, s = math.cos(e.theta), math.sin(e.theta)
    # rotated sample coordinates from 1-D row and column terms; each sample
    # gets the same two products and the same sum as on a 2-D grid
    u = np.add.outer(dy * s, dx * c)
    u /= e.ax
    v = np.subtract.outer(dy * c, dx * s)
    v /= e.ay
    u *= u
    v *= v
    u += v
    inside = u <= 1.0
    # each sample is 0 or 1, so its count over the ss x ss block is exact in
    # any order: sum each pixel's rows of samples, then its columns
    h, w = y1 - y0, x1 - x0
    count = inside.reshape(h, ss, w * ss).sum(axis=1, dtype=np.uint8)
    count = count.reshape(h, w, ss).sum(axis=2)
    return y0, y1, x0, x1, count / (ss * ss)


def render_noiseless(spec: SceneSpec) -> np.ndarray:
    """Paint ellipses over the background in list order; overlaps are opaque.
    Each ellipse blends only its own window: outside it the coverage is 0,
    which would leave every pixel as it is."""
    img = np.full((spec.height, spec.width), BACKGROUND)
    for e in spec.objects:
        y0, y1, x0, x1, cov = _coverage(e, spec.height, spec.width)
        win = img[y0:y1, x0:x1]
        win *= 1.0 - cov
        win += e.intensity * cov
    return img


def synthesize_scene(spec: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Render a scene and return (image (H, W, 1) float64 in [0, 1], tight
    (K, 4) boxes in object order). Deterministic per spec.seed. An extent
    too large to allocate is a ValueError."""
    if not mdl.extent_ok(spec.height, spec.width):
        raise ValueError(f"scene extent {spec.height}x{spec.width} must be >= "
                         f"{mdl.MIN_EXTENT} and divisible by {mdl.BACKBONE_STRIDE}")
    rng = np.random.default_rng(spec.seed)
    try:
        img = render_noiseless(spec)
        if spec.noise_sigma > 0:
            img = img + rng.normal(0.0, spec.noise_sigma, size=img.shape)
        img = np.clip(img, 0.0, 1.0)
    except MemoryError as e:
        raise ValueError(f"scene extent {spec.height}x{spec.width}: {e}") from e
    boxes = np.array([ellipse_bounds(e) for e in spec.objects], dtype=np.float64)
    return img[..., None], boxes.reshape(-1, 4)


def scene_size_ok(size: int) -> bool:
    """Whether random_scene can centre any ellipse in a size x size scene
    and model.forward_rpn runs on it."""
    return size >= 2 * (AXES_RANGE[1] + EDGE_GAP) and mdl.extent_ok(size, size)


MIN_SCENE_SIZE = next(s for s in itertools.count(1) if scene_size_ok(s))


def _uniform(low, high, u):
    """Map standard uniforms u onto [low, high) as Generator.uniform does."""
    return low + (high - low) * u


def random_scene(height: int, width: int, seed: int,
                 noise_sigma: float = 0.04) -> SceneSpec:
    """Draw a random dense scene: each ellipse is randomly brighter or
    darker than the background by a contrast drawn from CONTRAST_RANGE."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(N_OBJECTS_RANGE[0], N_OBJECTS_RANGE[1] + 1))
    # one draw of all seven uniforms per ellipse, each mapped as
    # Generator.uniform maps it: the same stream and the same floats as
    # seven scalar draws in turn
    a1, a2, contrast, sign_u, cy, cx, theta = rng.random((n, 7)).T
    a1, a2 = _uniform(*AXES_RANGE, a1), _uniform(*AXES_RANGE, a2)
    margin = np.maximum(a1, a2) + EDGE_GAP
    contrast = _uniform(*CONTRAST_RANGE, contrast)
    sign = np.where(sign_u < 0.5, 1.0, -1.0)
    cy = _uniform(margin, height - margin, cy)
    cx = _uniform(margin, width - margin, cx)
    theta = _uniform(0.0, math.pi, theta)
    intensity = np.clip(BACKGROUND + sign * contrast, 0.02, 0.98)
    fields = np.stack([cy, cx, a1, a2, theta, intensity], axis=1)
    objects = [EllipseSpec(*row) for row in fields.tolist()]
    return SceneSpec(height=height, width=width, objects=objects,
                     noise_sigma=noise_sigma, seed=seed)


def check_drop_rate(drop_rate: float, name: str = "drop_rate"):
    """Refuse a drop rate outside [0, 1), calling it name."""
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {drop_rate}")


def drop_annotations(boxes: np.ndarray, drop_rate: float, rng_seed: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Split (K, 4) boxes into (kept, dropped), withholding each box
    independently with probability drop_rate and re-sampling until at least
    one box survives (training needs positives). Both keep box order."""
    check_drop_rate(drop_rate)
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
                       seed: int) -> list[ImageRecord]:
    """Deterministic synthetic benchmark. Images go through the on-disk
    quantization grid so in-memory and reloaded datasets are identical."""
    if not scene_size_ok(image_size):
        raise ValueError(f"image size {image_size} is unusable: scenes need a multiple "
                         f"of {mdl.BACKBONE_STRIDE} that is at least {MIN_SCENE_SIZE}")
    records = []
    for i in range(n_images):
        img, boxes = synthesize_scene(
            random_scene(image_size, image_size, seed=_derived_seed(seed, i, 0)))
        img = dequantize_image(quantize_image(img[..., 0]))[..., None]
        kept, dropped = drop_annotations(boxes, drop_rate,
                                         rng_seed=_derived_seed(seed, i, 1))
        records.append(ImageRecord(image_id=i, file_name=f"img_{i:06d}.pgm",
                                   image=img, kept=kept, dropped=dropped))
    return records


@contextlib.contextmanager
def rewrite_in_place(path, mode: str = "wb"):
    """Open path for writing without truncating it, and on a clean exit cut
    it to what was written. An existing file keeps the blocks its new content
    overwrites: on ext4 mounted with `discard`, a truncating open of an
    allocated file waits tens of milliseconds for its blocks to be freed,
    while a rewrite of the same length frees none. Like a truncating open,
    a failure part-way leaves a partial file."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), mode) as f:
        yield f
        f.truncate()


def save_dataset(directory, records: Sequence[ImageRecord]):
    """Write PGM images plus two COCO-lite files: train.json (kept boxes)
    and the dropped.json sidecar (withheld boxes); their union is the full
    ground truth. Each file lists every image and numbers its
    [x, y, width, height] annotations from 1. Files of an earlier dataset in
    directory are rewritten in place (see rewrite_in_place)."""
    directory = str(directory)
    os.makedirs(os.path.join(directory, "images"), exist_ok=True)
    for rec in records:
        write_pgm(os.path.join(directory, "images", rec.file_name), rec.image)
    images = [{"id": rec.image_id, "file_name": rec.file_name,
               "height": rec.image.shape[0], "width": rec.image.shape[1]}
              for rec in records]
    for name, attr in (("train", "kept"), ("dropped", "dropped")):
        annotations = []
        for rec in records:
            boxes = getattr(rec, attr)
            xywh = np.concatenate([boxes[:, :2], boxes[:, 2:] - boxes[:, :2]], axis=1)
            for bbox in xywh.tolist():
                annotations.append({"id": len(annotations) + 1, "image_id": rec.image_id,
                                    "bbox": bbox, "category_id": 1})
        with rewrite_in_place(os.path.join(directory, f"{name}.json"), "w") as f:
            json.dump({"images": images, "annotations": annotations,
                       "categories": [{"id": 1, "name": "flake"}]}, f, indent=1)


def load_dataset(directory) -> list[ImageRecord]:
    """Records of every image in train.json, with its kept boxes from there
    and its withheld boxes from the dropped.json sidecar. Before any PGM is
    read, the sidecar must list train.json's images, and no box of it repeat
    a kept box of its image (the full annotation would count it twice)."""
    directory = str(directory)
    train_path = os.path.join(directory, "train.json")
    images, kept = read_cocolite(train_path)
    sidecar_path = os.path.join(directory, "dropped.json")
    sidecar_images, dropped = read_cocolite(sidecar_path)
    if sidecar_images != images:
        at = next((i for i, (a, b) in enumerate(zip(sidecar_images, images)) if a != b),
                  min(len(sidecar_images), len(images)))
        raise CocoFormatError(
            f"{sidecar_path}: field 'images' must list the images of {train_path} "
            f"(id, file_name, height, width), but differs at images[{at}]")
    kept_boxes = {(image_id, *box) for image_id, boxes in kept.items() for box in boxes.tolist()}
    for image_id, boxes in dropped.items():
        for box in boxes.tolist():
            if (image_id, *box) in kept_boxes:
                raise CocoFormatError(f"{sidecar_path}: image {image_id}: the box with corners "
                                      f"{box} repeats a kept box of {train_path}")
    empty = np.zeros((0, 4))
    records = []
    for i, (image_id, file_name, height, width) in enumerate(images):
        pgm_path = os.path.join(directory, "images", file_name)
        q = read_pgm(pgm_path)
        if q.shape != (height, width):
            raise CocoFormatError(
                f"{train_path}: images[{i}] (id {image_id}) declares height {height} "
                f"and width {width}, but {pgm_path} is {q.shape[0]}x{q.shape[1]}")
        records.append(ImageRecord(
            image_id=image_id, file_name=file_name, image=dequantize_image(q)[..., None],
            kept=kept.get(image_id, empty), dropped=dropped.get(image_id, empty)))
    return records


# -- PGM ---------------------------------------------------------------------

PGM_MAXVAL = 65535


def quantize_image(img: np.ndarray) -> np.ndarray:
    """Map float [0, 1] grayscale to uint16 grid used on disk."""
    return np.round(np.clip(img, 0.0, 1.0) * PGM_MAXVAL).astype(np.uint16)


def dequantize_image(q: np.ndarray) -> np.ndarray:
    return q.astype(np.float64) / PGM_MAXVAL


def write_pgm(path, img: np.ndarray):
    """Binary P5 graymap, 16-bit big-endian samples; an existing file is
    rewritten in place (see rewrite_in_place)."""
    img = np.asarray(img)
    if img.ndim == 3:
        img = img[..., 0]
    q = img.astype(np.uint16) if img.dtype == np.uint16 else quantize_image(img)
    h, w = q.shape
    with rewrite_in_place(path) as f:
        f.write(f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii"))
        f.write(q.astype(">u2").tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 graymap back as uint16 (H, W). A header number of more
    than 18 digits, beyond any array and int()'s digit limit, is not PGM."""
    with open(path, "rb") as f:
        raw = f.read()
    m = re.match(rb"P5\s+(\d{1,18})\s+(\d{1,18})\s+(\d{1,18})\s", raw)
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


# what a field must hold, where that is not an integer
_WANT = {"file_name": "a plain file name inside images/",
         "bbox": "four finite numbers [x, y, width, height], width and height >= 0"}
_NUMBERS = {int, float}       # the types JSON gives a number; a bool is neither


def _is_plain_name(v) -> bool:
    return isinstance(v, str) and os.path.basename(v) == v and v not in ("", ".", "..")


def _objects(path, doc: dict, key: str) -> list[dict]:
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(isinstance(r, dict) for r in items):
        raise CocoFormatError(f"{path}: {key!r} must be a list of objects")
    return items


def _field_error(path, where: str, rec: dict, key: str) -> CocoFormatError:
    """The error for field key of rec, the record at where: missing, or not what it must be."""
    if key not in rec:
        return CocoFormatError(f"{path}: {where}: missing field {key!r}")
    return CocoFormatError(f"{path}: {where}: field {key!r} must be "
                           f"{_WANT.get(key, 'an integer')}, got {rec[key]!r}")


def _read_images(path, items: list[dict]) -> tuple[list[tuple[int, str, int, int]],
                                                  dict[int, int]]:
    """(id, file_name, height, width) of each image in file order, and each
    id's position in it; the first image with a bad field, a repeated id or
    a repeated file_name is refused."""
    images, image_ids, file_names = [], {}, set()
    for i, rec in enumerate(items):
        image = image_id, file_name, height, width = tuple(
            map(rec.get, ("id", "file_name", "height", "width")))
        key = ("id" if type(image_id) is not int else
               "file_name" if not _is_plain_name(file_name) else
               "height" if type(height) is not int else
               "width" if type(width) is not int else None)
        if key:
            raise _field_error(path, f"images[{i}]", rec, key)
        if image_id in image_ids:     # its boxes would go to both images
            raise CocoFormatError(f"{path}: images[{i}]: duplicate id {image_id}")
        if file_name in file_names:   # one PGM would be read as two images
            raise CocoFormatError(f"{path}: images[{i}]: duplicate file_name {file_name!r}")
        image_ids[image_id] = len(images)
        file_names.add(file_name)
        images.append(image)
    return images, image_ids


def _leading_boxes(coords: list) -> tuple[int, np.ndarray]:
    """The index of the first bad [x, y, width, height] box in coords, four
    numbers each (the number of boxes if none is bad), and the corner-form
    boxes before it. A good box holds four JSON numbers, width and height
    >= 0, and finite x + width, y + height and width * height."""
    number = np.fromiter(map(_NUMBERS.__contains__, map(type, coords)), bool, len(coords))
    number = number.reshape(-1, 4).all(axis=1)
    n = len(number) if number.all() else int(number.argmin())
    try:
        xywh = np.array(coords[:4 * n], dtype=np.float64).reshape(-1, 4)
    except OverflowError:     # an int float() refuses, from 2**1024 - 2**970 on: not finite
        xywh = np.array([c if abs(c) < 2 ** 1024 - 2 ** 970 else math.nan
                         for c in coords[:4 * n]], dtype=np.float64).reshape(-1, 4)
    xy, wh = xywh[:, :2], xywh[:, 2:]
    with np.errstate(over="ignore", invalid="ignore"):     # checked just below
        corners = np.concatenate([xy, xy + wh], axis=1)
        area = wh[:, 0] * wh[:, 1]
    bad = np.flatnonzero(~(np.isfinite(corners).all(axis=1) & np.isfinite(area)
                           & (wh >= 0).all(axis=1)))
    n = int(bad[0]) if len(bad) else n
    return n, corners[:n]


def read_cocolite(path) -> tuple[list[tuple[int, str, int, int]], dict[int, np.ndarray]]:
    """Read a COCO-lite file, checking every field the dataset uses and
    that no two images share an id or a file_name and no two annotations an
    id; any failure is a CocoFormatError naming the file and the field (the
    first failing annotation, for annotations). Returns the images in file
    order as (id, file_name, height, width) and, per annotated image id, its
    corner-form (G, 4) boxes in file order."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (ValueError, RecursionError) as e:
        raise CocoFormatError(f"{path}: malformed JSON ({e})") from e
    if not isinstance(doc, dict):
        raise CocoFormatError(f"{path}: the top level must be a JSON object")
    images, image_ids = _read_images(path, _objects(path, doc, "images"))
    annotations = _objects(path, doc, "annotations")
    # each annotation's field types in turn up to the first fault; bbox numbers in bulk
    owners, coords, ids, key = [], [], set(), None
    for i, rec in enumerate(annotations):
        ann_id, image_id, bbox = rec.get("id"), rec.get("image_id"), rec.get("bbox")
        key = ("id" if type(ann_id) is not int else
               "duplicate" if ann_id in ids else
               "image_id" if type(image_id) is not int else
               "dangling" if image_id not in image_ids else
               "bbox" if type(bbox) is not list or len(bbox) != 4 else
               "category_id" if type(rec.get("category_id", 0)) is not int else None)
        if key:
            if key == "category_id":      # checked after the bbox, numbers and all
                owners.append(image_id)
                coords += bbox
            break
        ids.add(ann_id)
        owners.append(image_id)
        coords += bbox
    n, corners = _leading_boxes(coords)
    if n < len(coords) // 4:      # a bad bbox comes before the type fault, if any
        i, key = n, "bbox"
    # A box can be trained and scored only with area and inside its image's
    # declared extent. The leading good boxes all come before a number or
    # type fault, so the first of them to break either rule is named.
    extent = [(width, height) for _, _, height, width in images]
    try:
        extents = np.array(extent, dtype=np.float64).reshape(-1, 2)
    except OverflowError:     # an extent beyond the float range holds every finite box
        far = sys.float_info.max
        extents = np.array([[min(max(v, -far), far) for v in wh] for wh in extent])
    lo, hi = corners[:, :2], corners[:, 2:]
    bounds = extents[np.fromiter(map(image_ids.__getitem__, owners[:n]), np.intp, n)]
    if len(bad := np.flatnonzero(((hi <= lo) | (lo < 0) | (hi > bounds)).any(axis=1))):
        i = int(bad[0])
        key = "flat" if (hi[i] <= lo[i]).any() else "outside"
    if key:
        rec = annotations[i]
        if key == "duplicate":
            raise CocoFormatError(f"{path}: annotations[{i}]: duplicate id {rec['id']}")
        where = f"annotations[{i}]" if key == "id" else f"annotations[{i}] (id {rec['id']})"
        if key == "dangling":
            raise CocoFormatError(f"{path}: {where}: dangling image_id {rec['image_id']}")
        if key == "flat":
            raise CocoFormatError(f"{path}: {where}: bbox {rec['bbox']!r} has no area: "
                                  f"its width and height must be above 0")
        if key == "outside":
            _, _, height, width = images[image_ids[rec["image_id"]]]
            raise CocoFormatError(
                f"{path}: {where}: bbox {rec['bbox']!r} does not lie inside image "
                f"{rec['image_id']}, which declares width {width} and height {height}")
        raise _field_error(path, where, rec, key)
    rows: dict[int, list[int]] = {}
    for row, image_id in enumerate(owners):
        rows.setdefault(image_id, []).append(row)
    return images, {image_id: corners[r] for image_id, r in rows.items()}
