"""End-to-end acceptance checks, one test per shipping requirement.

The method-effect and detection-signal tests share one set of full-scale
training runs (module-scoped fixture), so this file takes several minutes.
"""

import dataclasses
import json
import os
import re
import time

import numpy as np
import pytest

from softrpn import autograd as ag
from softrpn import cli
from softrpn import data as dat
from softrpn import harness as hz
from softrpn import model as mdl

from conftest import numeric_grad, sampled_loss
from test_data import SPLITS, filter_oracle, written_oracle
from test_harness import ap_oracle, random_ap_instance


# -- gradient correctness of the full loss -------------------------

class TestFullLossGradients:
    def test_full_loss_matches_finite_differences(self):
        """Every parameter gradient of L_pos + L_neg + L_reg on a 16x16 image
        (D=8, na=3) matches central finite differences within relative 1e-3,
        in under a minute.

        The soft negative targets are constants by design (no gradient flows
        through the attention values into the targets), so the check freezes
        them at their unperturbed values: finite differences then probe the
        same function that backprop differentiates.
        """
        started = time.time()
        gen = np.random.default_rng(7)
        params = mdl.init_params(8, 3, gen)
        image = gen.random((16, 16, 1))
        pos_idx = np.array([1, 7])
        neg_idx = np.array([0, 2, 3, 4, 5, 6, 8, 9, 10, 11])
        delta_targets = gen.standard_normal((len(pos_idx), 4)) * 0.5

        with ag.no_grad():
            batch = mdl.forward_rpn(image, params)
            amap = mdl.attention_map(batch.embeddings[neg_idx], batch.embeddings[pos_idx])
        assert (amap.row_max >= 0.5).any()   # the soft path must be exercised

        def loss():
            # the frozen map at t = 0.5 gives every call the same soft targets
            return sampled_loss(mdl.forward_rpn(image, params),
                                pos_idx, neg_idx, delta_targets, amap, 0.5)[1]

        for p in params.values():
            p.zero_grad()
        loss().backward()
        for name, p in params.items():
            got = p.grad if p.grad is not None else np.zeros_like(p.data)
            want = numeric_grad(lambda: float(loss().data), p, step=1e-5)
            np.testing.assert_allclose(
                got, want, rtol=1e-3, atol=1e-7,
                err_msg=f"gradient mismatch for parameter {name}")
        assert time.time() - started < 60.0


# -- attention invariants -------------------------------------------

class TestAttentionInvariants:
    def test_hundred_random_embedding_sets(self):
        gen = np.random.default_rng(42)
        for _ in range(100):
            n_neg = int(gen.integers(2, 40))
            n_pos = int(gen.integers(2, 9))
            d = int(gen.integers(4, 33))
            neg = gen.standard_normal((n_neg, d)) * gen.uniform(0.2, 5.0)
            pos = gen.standard_normal((n_pos, d)) * gen.uniform(0.2, 5.0)
            amap = mdl.attention_map(neg, pos)

            np.testing.assert_allclose(amap.a.sum(axis=1), 1.0,
                                       rtol=0.0, atol=1e-9)

            scaled_neg, scaled_pos = neg.copy(), pos.copy()
            factor = float(gen.uniform(0.05, 20.0))
            if gen.random() < 0.5:
                scaled_neg[int(gen.integers(0, n_neg))] *= factor
            else:
                scaled_pos[int(gen.integers(0, n_pos))] *= factor
            rescaled = mdl.attention_map(scaled_neg, scaled_pos)
            assert np.abs(rescaled.a - amap.a).max() <= 1e-9

            strict = np.flatnonzero(mdl.flag_mask(amap.row_max, 0.9))
            loose = np.flatnonzero(mdl.flag_mask(amap.row_max, 0.6))
            assert np.isin(strict, loose).all()


# -- baseline degradation -------------------------------------------

class TestBaselineDegradation:
    def test_soft_mode_with_unreachable_threshold_is_baseline(self):
        records = dat.generate_benchmark(16, 64, 0.3, seed=5)
        common = dict(total_iters=100, milestones=(50, 80))
        base_cfg = hz.TrainConfig(mode="baseline", **common)
        soft_cfg = hz.TrainConfig(mode="soft_label", t=1.0 - 1e-9, **common)
        _, base_log = hz.train(base_cfg, records)
        _, soft_log = hz.train(soft_cfg, records)
        assert len(base_log) == len(soft_log) == 100
        for rb, rs in zip(base_log, soft_log):
            assert rs["flagged"] == 0
            for key in ("l_pos", "l_neg", "l_reg", "total"):
                assert abs(rb[key] - rs[key]) <= 1e-9, (
                    f"iteration {rb['iter']}: {key} differs by "
                    f"{abs(rb[key] - rs[key]):.3e}")


# -- average-precision oracle equivalence ---------------------------

class TestApOracleEquivalence:
    def test_two_hundred_random_instances_exact(self):
        gen = np.random.default_rng(2024)
        for _ in range(200):
            detections, gt_boxes = random_ap_instance(gen)
            for thr in hz.COCO_IOU_THRESHOLDS:
                got = hz.average_precision(detections, gt_boxes, thr)
                want = ap_oracle(detections, gt_boxes, thr)
                assert got == want, (
                    f"AP@{thr} = {got!r} but all-cutoffs oracle gives {want!r}")


# -- full-scale method effect and detection signal -------------

SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def benchmark_runs():
    """`softrpn compare`'s study: baseline and soft-label models trained on the
    default benchmark for five seeds, evaluated against the complete
    (undropped) ground truth, one run per seed."""
    started = time.time()
    doc = hz.compare(hz.TrainConfig(), ((s, dat.generate_benchmark(200, 64, 0.3, seed=s))
                                        for s in SEEDS), (0.8,))

    def report(row):
        return hz.EvalReport(**{f.name: row[f.name] for f in dataclasses.fields(hz.EvalReport)})

    runs = [{"seed": base["seed"], "base": report(base), "soft": report(soft),
             "fn_recall": soft["fn_recall"], "random_recall": soft["expected_random_recall"],
             "flags": soft["flags"]}
            for base, soft in zip(doc["rows"][0::2], doc["rows"][1::2])]
    return runs, time.time() - started


class TestMethodEffect:
    def test_soft_label_beats_baseline_on_mean_ap50_and_recall50(self, benchmark_runs):
        runs, elapsed = benchmark_runs
        assert elapsed < 1800.0
        base_ap50 = float(np.mean([r["base"].ap50 for r in runs]))
        soft_ap50 = float(np.mean([r["soft"].ap50 for r in runs]))
        base_rec = float(np.mean([r["base"].recall50 for r in runs]))
        soft_rec = float(np.mean([r["soft"].recall50 for r in runs]))
        detail = (f"mean over seeds {SEEDS}: AP50 baseline {base_ap50:.4f} vs "
                  f"soft {soft_ap50:.4f}; recall50 baseline {base_rec:.4f} vs "
                  f"soft {soft_rec:.4f}")
        assert soft_rec > base_rec, detail
        # Known red: on this synthetic benchmark the baseline never learns to
        # suppress anchors over withheld objects (identical-looking kept
        # objects supervise them through the shared convolutions), so the
        # soft-label path has nothing to rescue and its ~5%-precision flags
        # only soften true negatives. See README "Known limitations".
        assert soft_ap50 > base_ap50, detail


class TestDetectionSignal:
    def test_flag_recall_beats_size_matched_random_in_most_seeds(self, benchmark_runs):
        runs, _ = benchmark_runs
        wins = sum(1 for r in runs if r["fn_recall"] > r["random_recall"])
        detail = "; ".join(f"seed {r['seed']}: {r['fn_recall']:.4f} vs random "
                           f"{r['random_recall']:.4f}" for r in runs)
        assert wins >= 4, detail


# -- the README's quoted numbers -------------------------------------

def known_limitations() -> str:
    """The README's "Known limitations" section."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        return f.read().split("\n## Known limitations\n", 1)[1].split("\n## ", 1)[0]


def quoted(pattern: str, text: str) -> tuple[str, ...]:
    """The groups of pattern's one match in text, whitespace runs read as one space."""
    found = re.findall(pattern, " ".join(text.split()))
    assert len(found) == 1, f"README: {pattern!r} matches {len(found)} times"
    return found[0]


class TestReadmeNumbers:
    """Every number in the README's "Known limitations" that the
    benchmark_runs fixture computes equals it at the README's printed
    precision."""

    def test_mean_rows(self, benchmark_runs):
        runs, _ = benchmark_runs
        table = known_limitations().split("```")[1].strip().splitlines()
        columns = table[0].split()[2:]      # after "arm" and "seed"
        rows = {cells[0]: dict(zip(columns, cells[2:]))
                for cells in map(str.split, table[1:]) if cells[1:2] == ["mean"]}
        assert set(rows) == {"baseline", "soft_label@0.8"}
        soft_only = {"flags": "flags", "expected_random_recall": "random_recall"}
        checked = 0
        for arm, report in (("baseline", "base"), ("soft_label@0.8", "soft")):
            for column, printed in rows[arm].items():
                values = [r[soft_only[column]] if column in soft_only
                          else getattr(r[report], column) for r in runs]
                want = "-" if arm == "baseline" and column in soft_only else \
                    f"{float(np.mean(values)):.4f}"
                assert printed == want, f"{arm} {column}: README {printed}, computed {want}"
                checked += printed != "-"
        assert checked == 14

    def test_prose(self, benchmark_runs):
        runs, _ = benchmark_runs
        text = known_limitations()

        def mean(report, name):
            return f"{float(np.mean([getattr(r[report], name) for r in runs])):.4f}"

        assert quoted(r"win on recall50 \((\S+) vs (\S+)\) and lose on AP50 \((\S+) vs (\S+)\)",
                      text) == (mean("soft", "recall50"), mean("base", "recall50"),
                                mean("soft", "ap50"), mean("base", "ap50"))
        precision = [r["soft"].fn_precision for r in runs]
        assert quoted(r"`fn_precision` (\S+)–(\S+) per seed", text) == \
            (f"{min(precision):.4f}", f"{max(precision):.4f}")
        ratio = [r["fn_recall"] / r["random_recall"] for r in runs]
        assert quoted(r"`fn_recall` is (\S+)–(\S+) times the `expected_random_recall`", text) == \
            (f"{min(ratio):.1f}", f"{max(ratio):.1f}")
        seed0 = runs[SEEDS.index(0)]
        assert quoted(r"\((\S+) vs (\S+) for seed 0\)", text) == \
            (f"{seed0['fn_recall']:.4f}", f"{seed0['random_recall']:.4f}")


# -- ablation shape --------------------------------------------------

class TestAblationShape:
    def test_three_threshold_ablation_completes_and_is_well_formed(self):
        records = dat.generate_benchmark(16, 64, 0.3, seed=9)
        config = hz.TrainConfig(total_iters=60, milestones=(30, 45))
        thresholds = (0.6, 0.8, 0.9)
        doc = hz.compare(config, [(0, records)], thresholds)
        rows = doc["rows"]
        assert [r["arm"] for r in rows] == ["baseline"] + [f"soft_label@{t}" for t in thresholds]
        assert [r["t"] for r in rows[1:]] == list(thresholds)
        for row in rows:
            for col in ("ap50", "ap75", "ap", "recall50",
                        "fn_precision", "fn_recall"):
                assert 0.0 <= row[col] <= 1.0
        for row in rows[1:]:
            assert row["flags"] >= 0 and 0.0 <= row["expected_random_recall"] <= 1.0
        lines = cli._compare_table(doc).splitlines()
        assert len(lines) == 3 + 2 * len(rows)     # header, rules, rows, means
        assert all(c in lines[0] for c in ("arm", "ap50", "recall50", "fn_recall"))
        # A middle threshold of 0.8 winning on ap50 is the expected trend at
        # full scale, but is not asserted: at this run length the ordering is
        # dominated by sampling noise.


# -- format round-trips ----------------------------------------------

class TestFormatRoundTrips:
    def test_cocolite_read_write_identity_on_fifty_datasets(self, tmp_path):
        """save_dataset then load_dataset on fifty random datasets: each image
        comes back bit-exact with its id and file name, in order. Boxes pass
        through two float operations, so each is checked exactly against its
        own oracle: written as [x1, y1, x2 - x1, y2 - y1], loaded as
        [x, y, x + w, y + h] of the written values."""
        gen = np.random.default_rng(77)
        for k in range(50):
            records = []
            for i in range(int(gen.integers(1, 6))):
                image = dat.dequantize_image(dat.quantize_image(
                    gen.random((int(gen.integers(2, 17)), int(gen.integers(2, 17))))))
                # boxes with area, inside the image with room to spare
                half = np.array(image.shape[::-1]) / 2
                boxes = []
                for _ in range(2):
                    xy = gen.random((int(gen.integers(0, 5)), 2)) * half
                    wh = (0.1 + 0.8 * gen.random(xy.shape)) * half
                    boxes.append(np.concatenate([xy, xy + wh], axis=1))
                records.append(dat.ImageRecord(
                    image_id=5 * i - 3, file_name=f"im_{i}.pgm", image=image[..., None],
                    kept=boxes[0], dropped=boxes[1]))
            root = tmp_path / f"ds_{k}"
            dat.save_dataset(root, records)
            docs = {name: json.loads((root / f"{name}.json").read_text())
                    for name, _ in SPLITS}
            for name, attr in SPLITS:
                assert docs[name]["annotations"] == written_oracle(records, attr)
            back = dat.load_dataset(root)
            assert [(r.image_id, r.file_name) for r in back] == \
                [(r.image_id, r.file_name) for r in records]
            for rec, got in zip(records, back):
                assert got.image.tobytes() == rec.image.tobytes()
                for boxes, doc in ((got.kept, docs["train"]), (got.dropped, docs["dropped"])):
                    want = filter_oracle(doc, rec.image_id)
                    assert boxes.shape == want.shape and boxes.tobytes() == want.tobytes()

    def test_checkpoint_restores_every_parameter_bit_exactly(self, tmp_path):
        params = mdl.init_params(16, 3, np.random.default_rng(3))
        path = tmp_path / "model.srpn"
        mdl.save_checkpoint(path, params, meta={"note": "round-trip"})
        back, meta = mdl.load_checkpoint(path)
        assert meta == {"note": "round-trip"}
        assert set(back) == set(params)
        for name, p in params.items():
            assert back[name].data.dtype == p.data.dtype
            assert np.array_equal(back[name].data, p.data)

    def test_pgm_round_trip_bit_exact(self, tmp_path):
        gen = np.random.default_rng(11)
        for k in range(10):
            img = gen.integers(0, dat.PGM_MAXVAL + 1,
                               size=(int(gen.integers(8, 70)),
                                     int(gen.integers(8, 70)))).astype(np.uint16)
            path = tmp_path / f"im_{k}.pgm"
            dat.write_pgm(path, img)
            back = dat.read_pgm(path)
            assert back.dtype == np.uint16
            assert np.array_equal(back, img)
            dat.write_pgm(tmp_path / f"im_{k}_again.pgm", back)
            assert (tmp_path / f"im_{k}_again.pgm").read_bytes() == path.read_bytes()
