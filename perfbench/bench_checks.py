"""Output checks for the softrpn benchmark.

Every CLI call the benchmark makes is checked here. A check returns a list
of problems (empty when the output is correct) and the call's part of the
behaviour fingerprint. The checks use only the files the CLI wrote and the
benchmark's own arithmetic, never softrpn code.
"""

from __future__ import annotations

import json
import math
import os

# Fingerprint floats are compared with this relative tolerance: tight
# enough to catch any change of behaviour, loose enough for a change of
# floating-point summation order (which moves a loss by ~1e-15).
FINGERPRINT_REL_TOL = 1e-9


def loss_checkpoints(total_iters: int) -> list[int]:
    """The training iterations whose loss enters the fingerprint."""
    return sorted({0, total_iters // 4, total_iters // 2,
                   3 * total_iters // 4, total_iters - 1})


def check_train_log(path, config: dict) -> tuple[list[str], dict]:
    problems: list[str] = []
    with open(path) as f:
        log = [json.loads(line) for line in f if line.strip()]
    total = config["total_iters"]
    if [rec["iter"] for rec in log] != list(range(total)):
        return [f"{path}: expected iterations 0..{total - 1}"], {}
    lr = None
    for rec in log:
        for key in ("l_pos", "l_neg", "l_reg", "total", "lr"):
            if not math.isfinite(rec[key]):
                problems.append(f"iteration {rec['iter']}: {key} is not finite")
        if lr is not None and rec["iter"] not in config["milestones"] and rec["lr"] != lr:
            problems.append(f"iteration {rec['iter']}: lr changed off a milestone")
        lr = rec["lr"]
        if config["mode"] == "baseline" and rec["flagged"]:
            problems.append(f"iteration {rec['iter']}: baseline mode flagged proposals")
    fingerprint = {
        "loss": {str(i): log[i]["total"] for i in loss_checkpoints(total)},
        "train_flags": sum(rec["flagged"] for rec in log),
    }
    return problems, fingerprint


def check_eval_report(path) -> tuple[list[str], dict]:
    with open(path) as f:
        report = json.load(f)
    problems = [f"{key} = {report[key]!r} is outside [0, 1]"
                for key in ("ap50", "ap75", "ap", "recall50", "fn_precision", "fn_recall")
                if not 0.0 <= report[key] <= 1.0]
    return problems, {"ap50": report["ap50"], "recall50": report["recall50"],
                      "eval_fn_recall": report["fn_recall"]}


def _iou(a, b) -> float:
    """IoU of corner-form boxes, with the operation order of
    geometry.iou_matrix so that thresholds compare identically."""
    iw = max(min(a[2], b[2]) - max(a[0], b[0]), 0.0)
    ih = max(min(a[3], b[3]) - max(a[1], b[1]), 0.0)
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def dropped_boxes(dataset_dir) -> dict[int, list[tuple]]:
    """Withheld boxes per image id, from the dropped.json sidecar."""
    with open(os.path.join(dataset_dir, "dropped.json")) as f:
        doc = json.load(f)
    out: dict[int, list[tuple]] = {im["id"]: [] for im in doc["images"]}
    for ann in doc["annotations"]:
        x, y, w, h = ann["bbox"]
        out[ann["image_id"]].append((x, y, x + w, y + h))
    return out


def flag_scores(flags: list[dict], dropped: dict[int, list[tuple]]) -> tuple[float, float]:
    """Precision and recall of flags against withheld boxes: a flag is a hit
    when its IoU with some withheld box of its image is at least 0.5."""
    hits = {img: [False] * len(boxes) for img, boxes in dropped.items()}
    tp = 0
    for flag in flags:
        ious = [_iou(flag["box"], b) for b in dropped[flag["image_id"]]]
        if ious and max(ious) >= 0.5:
            tp += 1
            for j, v in enumerate(ious):
                hits[flag["image_id"]][j] |= v >= 0.5
    n_dropped = sum(len(b) for b in dropped.values())
    precision = tp / len(flags) if flags else 1.0
    recall = sum(sum(h) for h in hits.values()) / n_dropped
    return precision, recall


def check_audit_report(path, dataset_dir, t: float) -> tuple[list[str], dict]:
    with open(path) as f:
        doc = json.load(f)
    flags = doc["flags"]
    dropped = dropped_boxes(dataset_dir)
    problems = []
    scores = [fl["attention_score"] for fl in flags]
    if scores != sorted(scores, reverse=True):
        problems.append("audit flags are not ranked by descending score")
    if any(not t <= s < 1.0 for s in scores):
        problems.append(f"an audit flag scores outside [{t}, 1)")
    if any(fl["image_id"] not in dropped for fl in flags):
        problems.append("an audit flag names an unknown image")
        return problems, {}
    precision, recall = flag_scores(flags, dropped)
    for key, want in (("fn_precision", precision), ("fn_recall", recall)):
        if not math.isclose(doc[key], want, rel_tol=0.0, abs_tol=1e-12):
            problems.append(f"audit {key} {doc[key]!r} != {want!r} recomputed "
                            f"from the flags and the dropped.json sidecar")
    return problems, {"audit_flags": len(flags), "flag_recall": recall,
                      "flag_precision": precision}


def _same(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=FINGERPRINT_REL_TOL, abs_tol=1e-12)
    return a == b


def fingerprint_diff(got: dict, want: dict) -> list[str]:
    """Keys of ``want`` whose value ``got`` does not reproduce."""
    return [f"fingerprint {key}: got {got.get(key)!r}, recorded {want[key]!r}"
            for key in want if key not in got or not _same(got[key], want[key])]
