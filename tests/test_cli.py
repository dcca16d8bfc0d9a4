import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softrpn import cli
from softrpn import data as dat
from softrpn import harness as hz
from softrpn import model as mdl
from softrpn.cli import main

# a real process prints a warning as a second stderr line, which capsys never sees
pytestmark = pytest.mark.filterwarnings("error")

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def tree_digest(root):
    """Digest of every file under root except manifests (which hold wall-clock
    durations)."""
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name == "manifest.json":
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


FAST = ["--total-iters", "12"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "bench"
    assert main(["synth", "--out", str(out), "--images", "10", "--seed", "3"]) == 0
    return str(out)


@pytest.fixture(scope="module")
def dataset128(tmp_path_factory):
    out = tmp_path_factory.mktemp("data128") / "bench"
    assert main(["synth", "--out", str(out), "--images", "2", "--size", "128",
                 "--seed", "3"]) == 0
    return str(out)


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    path.write_text(json.dumps({"total_iters": 12, "milestones": [6, 9]}))
    return str(path)


@pytest.fixture(scope="module")
def checkpoint(dataset, fast_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["train", "--data", dataset, "--out", str(out),
                 "--config", fast_config]) == 0
    return str(out / "checkpoint.srpn")


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        """Also when synth runs again into a directory it already wrote."""
        a, b = tmp_path / "a", tmp_path / "b"
        digests = []
        for out in (a, b, a):
            assert main(["synth", "--out", str(out), "--images", "6",
                         "--seed", "11"]) == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1] == digests[2]

    def test_smaller_synth_over_larger_loads_the_new_dataset(self, tmp_path):
        """Rewriting in place leaves no stale tail: a second synth with
        another seed and fewer images loads back as that dataset."""
        out = tmp_path / "bench"
        assert main(["synth", "--out", str(out), "--images", "8", "--seed", "0"]) == 0
        assert main(["synth", "--out", str(out), "--images", "3", "--seed", "5"]) == 0
        want = dat.generate_benchmark(3, 64, 0.3, seed=5)
        got = dat.load_dataset(out)
        assert [r.file_name for r in got] == [r.file_name for r in want]
        for a, b in zip(got, want):
            assert a.image.tobytes() == b.image.tobytes()
            np.testing.assert_allclose(a.kept, b.kept, atol=1e-9)
            np.testing.assert_allclose(a.dropped, b.dropped, atol=1e-9)

    def test_drop_rate_zero_train_equals_full(self, tmp_path):
        """With nothing withheld the sidecar is empty, so train.json alone is
        the full ground truth."""
        out = tmp_path / "nodrop"
        assert main(["synth", "--out", str(out), "--images", "6",
                     "--drop-rate", "0", "--seed", "1"]) == 0
        train = json.loads((out / "train.json").read_text())
        sidecar = json.loads((out / "dropped.json").read_text())
        assert train["annotations"] and sidecar["annotations"] == []
        assert sidecar["images"] == train["images"]

    def test_drop_rate_sidecar_binomial_bound(self, tmp_path):
        out = tmp_path / "dropped"
        assert main(["synth", "--out", str(out), "--images", "200",
                     "--drop-rate", "0.3", "--seed", "0"]) == 0
        train = json.loads((out / "train.json").read_text())
        sidecar = json.loads((out / "dropped.json").read_text())
        dropped = len(sidecar["annotations"])
        frac = dropped / (dropped + len(train["annotations"]))
        # the at-least-one-kept resampling skews slightly below the raw rate
        assert abs(frac - 0.3) < 0.04

    def test_smallest_usable_size_works(self, tmp_path):
        assert dat.MIN_SCENE_SIZE == 24
        out = tmp_path / "bench"
        assert main(["synth", "--out", str(out), "--images", "20",
                     "--size", str(dat.MIN_SCENE_SIZE)]) == 0
        assert all(r.image.shape == (24, 24, 1) for r in dat.load_dataset(out))

    def test_manifest_written(self, dataset):
        with open(os.path.join(dataset, "manifest.json")) as f:
            doc = json.load(f)
        assert doc["tool_version"]
        assert doc["artifacts"] == {"images_dir": "images",
                                    "train_annotations": "train.json",
                                    "dropped_sidecar": "dropped.json"}
        assert doc["synth"]["seed"] == 3
        assert doc["duration_seconds"] >= 0


class TestTrainCmd:
    def test_produces_checkpoint_log_manifest(self, checkpoint):
        out = os.path.dirname(checkpoint)
        assert os.path.exists(checkpoint)
        with open(os.path.join(out, "train_log.jsonl")) as f:
            lines = f.read().splitlines()
        assert len(lines) == 12
        json.loads(lines[0])
        with open(os.path.join(out, "manifest.json")) as f:
            doc = json.load(f)
        assert doc["config"]["total_iters"] == 12

    def test_rerun_into_same_out_rewrites_identical_outputs(self, dataset, fast_config,
                                                           tmp_path):
        out = tmp_path / "run"
        argv = ["train", "--data", dataset, "--out", str(out), "--config", fast_config]
        assert main(argv) == 0
        first = {name: (out / name).read_bytes()
                 for name in ("checkpoint.srpn", "train_log.jsonl")}
        assert main(argv) == 0
        assert {name: (out / name).read_bytes() for name in first} == first
        assert sorted(os.listdir(out)) == ["checkpoint.srpn", "manifest.json",
                                          "train_log.jsonl"]

    def test_flags_override_config_file(self, dataset, fast_config, tmp_path):
        out = tmp_path / "ovr"
        assert main(["train", "--data", dataset, "--out", str(out),
                     "--config", fast_config, "--t", "0.65",
                     "--mode", "baseline"]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["t"] == 0.65
        assert doc["config"]["mode"] == "baseline"
        assert doc["config"]["total_iters"] == 12   # from file

    def test_baseline_equals_soft_with_unreachable_t(self, dataset, fast_config,
                                                     tmp_path):
        logs = []
        for mode, t in (("baseline", None), ("soft_label", "0.999999999")):
            out = tmp_path / mode
            argv = ["train", "--data", dataset, "--out", str(out),
                    "--config", fast_config, "--mode", mode]
            if t:
                argv += ["--t", t]
            assert main(argv) == 0
            logs.append((out / "train_log.jsonl").read_text())
        a = [json.loads(l) for l in logs[0].splitlines()]
        b = [json.loads(l) for l in logs[1].splitlines()]
        for ra, rb in zip(a, b):
            assert abs(ra["total"] - rb["total"]) <= 1e-9

    def test_missing_data_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["train", "--out", str(tmp_path)])
        assert e.value.code == 2

    def test_total_iters_flag_alone_scales_milestones(self, dataset, tmp_path):
        out = tmp_path / "short"
        assert main(["train", "--data", dataset, "--out", str(out), *FAST]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["milestones"] == [6, 9]
        assert len((out / "train_log.jsonl").read_text().splitlines()) == 12

    def test_128_images_with_default_config_label_every_output(self, dataset128,
                                                                tmp_path, monkeypatch):
        """The anchor grid follows the image: labels line up with the 768
        outputs of a 128x128 forward pass (not the 192 of a 64x64 grid),
        forwarded as blocks of one image."""
        label_counts, output_counts = [], []
        match_dataset, forward_rpn = hz.match_dataset, mdl.forward_rpn

        def counting_match(records):
            matched = match_dataset(records)
            label_counts.extend(len(mi.labels) for mi in matched)
            return matched

        def counting_forward(*args, **kwargs):
            batch = forward_rpn(*args, **kwargs)
            output_counts.append(batch.probs.shape)
            return batch

        monkeypatch.setattr(hz, "match_dataset", counting_match)
        monkeypatch.setattr(mdl, "forward_rpn", counting_forward)
        out = tmp_path / "run128"
        assert main(["train", "--data", dataset128, "--out", str(out), *FAST]) == 0
        assert (out / "checkpoint.srpn").exists()
        assert label_counts == [768, 768]
        assert set(output_counts) == {(1, 768)} and len(output_counts) == 12 * 4

    def test_retired_config_keys_still_load(self, dataset, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"total_iters": 12, "image_size": 64, "stride": 8,
                                    "n_anchors": 3, "n_images": 10, "drop_rate": 0.3,
                                    "seed_data": 0}))
        out = tmp_path / "old"
        assert main(["train", "--data", dataset, "--out", str(out),
                     "--config", str(path)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert len(config) == 8 and not {"image_size", "n_anchors"} & set(config)


class TestEvalCmd:
    def test_writes_report(self, dataset, checkpoint, tmp_path):
        report = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", checkpoint, "--data", dataset,
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        for key in ("ap50", "ap75", "ap", "recall50", "fn_precision",
                    "fn_recall"):
            assert key in doc
            assert 0.0 <= doc[key] <= 1.0
        assert doc["ap"] <= doc["ap50"] + 1e-12

    def test_rerun_with_same_report_rewrites_identical_bytes(self, dataset, checkpoint,
                                                             tmp_path):
        report = tmp_path / "report.json"
        argv = ["eval", "--checkpoint", checkpoint, "--data", dataset,
                "--report", str(report)]
        assert main(argv) == 0
        first = report.read_bytes()
        assert first.decode() == json.dumps(json.loads(first), indent=1, sort_keys=True)
        assert main(argv) == 0
        assert report.read_bytes() == first
        assert sorted(os.listdir(tmp_path)) == ["report.json", "report.json.manifest.json"]

    def test_one_forward_pass_per_image(self, dataset, checkpoint, tmp_path,
                                        monkeypatch):
        """Proposals and the fn_* audit share each image's forward pass:
        every image is forwarded exactly once, whatever the blocks."""
        forwarded = []
        forward_rpn = mdl.forward_rpn

        def recording_forward(image, params):
            forwarded.extend(image.reshape(-1, *image.shape[-3:]))
            return forward_rpn(image, params)

        monkeypatch.setattr(mdl, "forward_rpn", recording_forward)
        assert main(["eval", "--checkpoint", checkpoint, "--data", dataset,
                     "--report", str(tmp_path / "r.json")]) == 0
        records = dat.load_dataset(dataset)
        assert len(forwarded) == len(records) == 10
        for rec in records:
            assert sum(np.array_equal(image, rec.image) for image in forwarded) == 1

    def test_reports_in_one_directory_keep_one_manifest_each(self, dataset, checkpoint,
                                                             tmp_path):
        """eval and then audit into one directory: each report has its own
        <report>.manifest.json, and each manifest names its report."""
        for cmd in ("eval", "audit"):
            assert main([cmd, "--checkpoint", checkpoint, "--data", dataset,
                         "--report", str(tmp_path / f"{cmd}.json")]) == 0
        assert sorted(os.listdir(tmp_path)) == ["audit.json", "audit.json.manifest.json",
                                                "eval.json", "eval.json.manifest.json"]
        for cmd in ("eval", "audit"):
            doc = json.loads((tmp_path / f"{cmd}.json.manifest.json").read_text())
            assert doc["artifacts"] == {"report": str(tmp_path / f"{cmd}.json"),
                                        "checkpoint": os.path.abspath(checkpoint)}

    def test_fn_fields_equal_audit_report(self, dataset, checkpoint, tmp_path):
        assert main(["eval", "--checkpoint", checkpoint, "--data", dataset,
                     "--report", str(tmp_path / "r.json")]) == 0
        assert main(["audit", "--checkpoint", checkpoint, "--data", dataset,
                     "--report", str(tmp_path / "a.json")]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        audit = json.loads((tmp_path / "a.json").read_text())
        assert (report["fn_precision"], report["fn_recall"]) == \
            (audit["fn_precision"], audit["fn_recall"])

    @pytest.mark.parametrize("name, data", [("ckpt64.srpn", "dataset"),
                                            ("ckpt128.srpn", "dataset128")])
    def test_committed_benchmark_checkpoints_evaluate(self, name, data, request,
                                                      tmp_path):
        """Checkpoints whose meta.config carries the retired keys still load
        and evaluate on data of their image size."""
        path = os.path.join(PERFBENCH, name)
        _, config = cli._load_checkpoint_config(path)
        assert config.milestones and config.total_iters > 1
        report = tmp_path / "r.json"
        assert main(["eval", "--checkpoint", path, "--data",
                     request.getfixturevalue(data), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert all(0.0 <= doc[k] <= 1.0 for k in ("ap50", "ap", "recall50"))


class TestAuditCmd:
    def test_report_sorted_by_score(self, dataset, checkpoint, tmp_path):
        report = tmp_path / "audit.json"
        assert main(["audit", "--checkpoint", checkpoint, "--data", dataset,
                     "--t", "0.5", "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["t"] == 0.5
        scores = [f["attention_score"] for f in doc["flags"]]
        assert scores == sorted(scores, reverse=True)
        assert "fn_precision" in doc and "fn_recall" in doc
        assert doc["flags"]
        assert report.read_text() == json.dumps(doc, indent=1, sort_keys=True)

    def test_threshold_above_all_scores_empty(self, dataset, checkpoint,
                                              tmp_path):
        report = tmp_path / "audit.json"
        assert main(["audit", "--checkpoint", checkpoint, "--data", dataset,
                     "--t", "0.9999999", "--report", str(report)]) == 0
        assert json.loads(report.read_text())["flags"] == []


class TestReportWriter:
    def test_bytes_equal_json_dumps(self, tmp_path):
        """A report's bytes are those of json.dumps with indent 1 and sorted
        keys, unicode and nesting included."""
        doc = {"t": 0.8, "flags": [{"anchor_index": i, "box": [i, 0.5, i + 16.25, 16.5],
                                    "image_index": i % 7, "attention_score": 1 / (i + 3),
                                    "note": "\u00e9\n" if i % 50 == 0 else ""}
                                   for i in range(300)],
               "empty": {}, "none": None, "nested": [[], [{}], True]}
        want = json.dumps(doc, indent=1, sort_keys=True).encode()
        (tmp_path / "r.json").write_text("an older, longer report" * 10_000)
        cli._atomic_write_json(tmp_path / "r.json", doc)
        assert (tmp_path / "r.json").read_bytes() == want
        assert os.listdir(tmp_path) == ["r.json"]

    @given(st.lists(st.tuples(st.integers(0, 2 ** 63 - 1),
                              st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                       min_size=4, max_size=4),
                              st.floats(0.0, 1.0)),
                    max_size=400),
           st.sampled_from([0.5, 0.8, 1e-9]), st.booleans())
    @example([], 0.8, True)
    @example([(0, [0.0, -0.0, 63.5, 64.0], 1.0)], 0.8, False)
    @example([(2 ** 63 - 1, [5e-324, 0.1 + 0.2, 1e16, 1.0], 5e-324),
              (7, [1.0, 2.0, 3.0, 4.0], 0.1 + 0.2)] * 150, 0.5, True)
    @settings(max_examples=60, deadline=None)
    def test_audit_bytes_equal_json_dumps(self, flags, t, with_fn):
        """An audit report, written through one template per flag, has the
        bytes of json.dumps(doc, indent=1, sort_keys=True): 0, 1 or hundreds
        of flags, scores such as 5e-324, 0.1 + 0.2 and 1.0, large image ids,
        with and without the fn_* fields."""
        doc = {"t": t, "flags": [{"image_id": i, "box": box, "attention_score": score}
                                 for i, box, score in flags]}
        if with_fn:
            doc["fn_precision"], doc["fn_recall"] = 0.1 + 0.2, 1.0
        assert cli._audit_json(doc) == json.dumps(doc, indent=1, sort_keys=True)


class TestCompareCmd:
    def test_rows_means_table_and_manifest(self, dataset, fast_config, tmp_path, capsys):
        """--data: every seed trains on that dataset; compare.json holds
        harness.compare's document, and compare.txt the printed table."""
        out = tmp_path / "cmp"
        assert main(["compare", "--data", dataset, "--out", str(out), "--config", fast_config,
                     "--seeds", "0,2", "--thresholds", "0.6,0.8,0.9"]) == 0
        doc = json.loads((out / "compare.json").read_text())
        records = dat.load_dataset(dataset)
        config = hz.TrainConfig(total_iters=12, milestones=(6, 9))
        assert doc == hz.compare(config, [(0, records), (2, records)], [0.6, 0.8, 0.9])
        table = (out / "compare.txt").read_text()
        assert capsys.readouterr().out == table
        lines = table.splitlines()
        assert len(lines) == 3 + 2 * 4 + 4     # header, rule, rows, rule, means
        assert lines[0].split() == ["arm", "seed", *hz.COMPARE_METRICS]
        assert lines[-1].split()[:3] == ["soft_label@0.9", "mean",
                                         f"{doc['means'][-1]['ap50']:.4f}"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [0, 2] and manifest["thresholds"] == [0.6, 0.8, 0.9]
        assert manifest["artifacts"]["dataset"] == os.path.abspath(dataset)
        assert manifest["generated"] is None

    def test_without_data_each_seed_gets_its_benchmark(self, fast_config, tmp_path,
                                                       monkeypatch):
        """Seed s trains on generate_benchmark(200, 64, 0.3, seed=s), the
        acceptance tests' data; here 8 of those images stand in for 200."""
        calls = []
        generate = dat.generate_benchmark

        def recording(n_images, image_size, drop_rate, seed):
            calls.append((n_images, image_size, drop_rate, seed))
            return generate(8, image_size, drop_rate, seed=seed)

        monkeypatch.setattr(dat, "generate_benchmark", recording)
        out = tmp_path / "cmp"
        assert main(["compare", "--out", str(out), "--config", fast_config,
                     "--seeds", "1,4"]) == 0
        assert calls == [(200, 64, 0.3, 1), (200, 64, 0.3, 4)]
        config = hz.TrainConfig(total_iters=12, milestones=(6, 9))
        want = hz.compare(config, [(s, generate(8, 64, 0.3, seed=s)) for s in (1, 4)], [0.8])
        assert json.loads((out / "compare.json").read_text()) == want
        assert json.loads((out / "manifest.json").read_text())["generated"] == {
            "images": 200, "size": 64, "drop_rate": 0.3}

    @pytest.mark.parametrize("command", ["frobnicate", "ablate"])
    def test_unknown_command_exit_2(self, command):
        with pytest.raises(SystemExit) as e:
            main([command])
        assert e.value.code == 2
