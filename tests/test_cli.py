import hashlib
import json
import os
import re
import struct
import warnings

import numpy as np
import pytest

from softrpn import cli
from softrpn import data as dat
from softrpn import harness as hz
from softrpn import model as mdl
from softrpn.cli import main

# a real process prints a warning as a second stderr line, which capsys never sees
pytestmark = pytest.mark.filterwarnings("error")

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def run(argv):
    return main(argv)


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
    assert run(["synth", "--out", str(out), "--images", "10", "--seed", "3"]) == 0
    return str(out)


@pytest.fixture(scope="module")
def dataset128(tmp_path_factory):
    out = tmp_path_factory.mktemp("data128") / "bench"
    assert run(["synth", "--out", str(out), "--images", "2", "--size", "128",
                "--seed", "3"]) == 0
    return str(out)


@pytest.fixture(scope="module")
def dataset60(tmp_path_factory):
    """Two 60x60 images: not a multiple of the backbone stride."""
    records = dat.generate_benchmark(2, 64, 0.3, seed=3)
    for rec in records:
        rec.image = rec.image[:60, :60]
    out = tmp_path_factory.mktemp("data60") / "bench"
    dat.save_dataset(out, records)
    return str(out)


def single_error_line(capsys) -> str:
    """The captured stderr, asserted to be exactly one `error:` line."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    path.write_text(json.dumps({"total_iters": 12, "milestones": [6, 9]}))
    return str(path)


@pytest.fixture(scope="module")
def checkpoint(dataset, fast_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run(["train", "--data", dataset, "--out", str(out),
                "--config", fast_config]) == 0
    return str(out / "checkpoint.srpn")


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        """Also when synth runs again into a directory it already wrote."""
        a, b = tmp_path / "a", tmp_path / "b"
        digests = []
        for out in (a, b, a):
            assert run(["synth", "--out", str(out), "--images", "6",
                        "--seed", "11"]) == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1] == digests[2]

    def test_smaller_synth_over_larger_loads_the_new_dataset(self, tmp_path):
        """Rewriting in place leaves no stale tail: a second synth with
        another seed and fewer images loads back as that dataset."""
        out = tmp_path / "bench"
        assert run(["synth", "--out", str(out), "--images", "8", "--seed", "0"]) == 0
        assert run(["synth", "--out", str(out), "--images", "3", "--seed", "5"]) == 0
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
        assert run(["synth", "--out", str(out), "--images", "6",
                    "--drop-rate", "0", "--seed", "1"]) == 0
        train = json.loads((out / "train.json").read_text())
        sidecar = json.loads((out / "dropped.json").read_text())
        assert train["annotations"] and sidecar["annotations"] == []
        assert sidecar["images"] == train["images"]

    def test_drop_rate_sidecar_binomial_bound(self, tmp_path):
        out = tmp_path / "dropped"
        assert run(["synth", "--out", str(out), "--images", "200",
                    "--drop-rate", "0.3", "--seed", "0"]) == 0
        train = json.loads((out / "train.json").read_text())
        sidecar = json.loads((out / "dropped.json").read_text())
        dropped = len(sidecar["annotations"])
        frac = dropped / (dropped + len(train["annotations"]))
        # the at-least-one-kept resampling skews slightly below the raw rate
        assert abs(frac - 0.3) < 0.04

    @pytest.mark.parametrize("size", [16, 20, 60])
    def test_unusable_size_refused_before_any_work(self, size, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run(["synth", "--out", str(out), "--size", str(size)]) == 1
        line = single_error_line(capsys)
        assert f"--size {size}" in line and f"at least {dat.MIN_SCENE_SIZE}" in line, line
        assert not out.exists()

    def test_unallocatable_size_gives_one_error_line(self, tmp_path, capsys):
        """A size whose first image (116 TiB) numpy refuses to allocate at
        once: one error line naming the extent, no output directory."""
        out = tmp_path / "bench"
        assert run(["synth", "--out", str(out), "--images", "1", "--size", "4000000"]) == 1
        line = single_error_line(capsys)
        assert line.startswith("error: scene extent 4000000x4000000: Unable to allocate"), line
        assert not out.exists()

    @pytest.mark.parametrize("images", [0, -1])
    def test_no_images_refused_before_any_work(self, images, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run(["synth", "--out", str(out), "--images", str(images)]) == 1
        assert f"--images must be at least 1, got {images}" in single_error_line(capsys)
        assert not out.exists()

    def test_negative_seed_refused_by_name_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run(["synth", "--out", str(out), "--seed", "-1"]) == 1
        assert "--seed must be non-negative, got -1" in single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["1.0", "-0.1", "nan"])
    def test_unusable_drop_rate_refused_by_name_before_any_work(self, rate, tmp_path,
                                                                capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a scene was generated before the check")

        monkeypatch.setattr(dat, "generate_benchmark", no_work)
        out = tmp_path / "bench"
        assert run(["synth", "--out", str(out), "--drop-rate", rate]) == 1
        line = single_error_line(capsys)
        assert line == f"error: --drop-rate must lie in [0, 1), got {float(rate)}", line
        assert not out.exists()

    def test_smallest_usable_size_works(self, tmp_path):
        assert dat.MIN_SCENE_SIZE == 24
        out = tmp_path / "bench"
        assert run(["synth", "--out", str(out), "--images", "20",
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
        assert run(argv) == 0
        first = {name: (out / name).read_bytes()
                 for name in ("checkpoint.srpn", "train_log.jsonl")}
        assert run(argv) == 0
        assert {name: (out / name).read_bytes() for name in first} == first
        assert sorted(os.listdir(out)) == ["checkpoint.srpn", "manifest.json",
                                          "train_log.jsonl"]

    def test_flags_override_config_file(self, dataset, fast_config, tmp_path):
        out = tmp_path / "ovr"
        assert run(["train", "--data", dataset, "--out", str(out),
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
            assert run(argv) == 0
            logs.append((out / "train_log.jsonl").read_text())
        a = [json.loads(l) for l in logs[0].splitlines()]
        b = [json.loads(l) for l in logs[1].splitlines()]
        for ra, rb in zip(a, b):
            assert abs(ra["total"] - rb["total"]) <= 1e-9

    def test_missing_data_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            run(["train", "--out", str(tmp_path)])
        assert e.value.code == 2

    def test_missing_dataset_is_runtime_error(self, tmp_path, capsys):
        assert run(["train", "--data", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "out"), *FAST]) == 1
        assert str(tmp_path / "nope") in single_error_line(capsys)

    def test_config_directory_is_runtime_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["train", "--data", dataset, "--out", str(out),
                    "--config", str(tmp_path)]) == 1
        assert str(tmp_path) in single_error_line(capsys)
        assert not out.exists()

    def test_data_regular_file_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("not a dataset")
        out = tmp_path / "out"
        assert run(["train", "--data", str(path), "--out", str(out), *FAST]) == 1
        assert str(path) in single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv, needle", [
        (["--total-iters", "0"], "total_iters must be at least 1, got 0"),
        (["--total-iters", "-3"], "total_iters must be at least 1, got -3"),
    ])
    def test_run_length_below_one_fails_before_training(self, argv, needle, dataset,
                                                        tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["train", "--data", dataset, "--out", str(out), *argv]) == 1
        assert needle in single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv, needle", [
        (["--lr", "inf"], "lr must be finite and positive, got inf"),
        (["--lr", "nan"], "lr must be finite and positive, got nan"),
        (["--lr", "0"], "lr must be finite and positive, got 0.0"),
        (["--seed-init", "-1"], "seed_init must be non-negative, got -1"),
        (["--seed-sample", "-1"], "seed_sample must be non-negative, got -1"),
    ])
    def test_unrunnable_flag_fails_before_training(self, argv, needle, dataset,
                                                   tmp_path, capsys, monkeypatch):
        """Refused before the dataset is read, with no NumPy warning first."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was checked")

        monkeypatch.setattr(dat, "load_dataset", no_work)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["train", "--data", dataset, "--out", str(out), *FAST,
                        *argv]) == 1
        assert needle in single_error_line(capsys)
        assert not out.exists()

    def test_zero_batch_images_in_config_fails_before_training(self, dataset, tmp_path,
                                                                capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"total_iters": 12, "batch_images": 0}))
        out = tmp_path / "out"
        assert run(["train", "--data", dataset, "--out", str(out),
                    "--config", str(path)]) == 1
        assert ("config key 'batch_images' must be 4, its fixed value, got 0"
                in single_error_line(capsys))
        assert not out.exists()

    def test_divergence_gives_one_error_line(self, dataset, tmp_path, capsys,
                                             monkeypatch):
        def diverge(config, records):
            raise hz.DivergenceError(3)

        monkeypatch.setattr(hz, "train", diverge)
        out = tmp_path / "out"
        assert run(["train", "--data", dataset, "--out", str(out), *FAST]) == 1
        assert "non-finite at iteration 3" in single_error_line(capsys)
        assert not out.exists()

    def test_finite_blow_up_is_divergence(self, dataset, tmp_path, capsys):
        # lr 1e30 drives the parameters to ~1e200 while every value stays
        # finite for several iterations; the first overflow stops the run
        out = tmp_path / "out"
        assert run(["train", "--data", dataset, "--out", str(out),
                    "--lr", "1e30", *FAST]) == 1
        assert re.search(r"diverged: .* at iteration \d+$", single_error_line(capsys))
        assert not out.exists()

    def test_total_iters_flag_alone_scales_milestones(self, dataset, tmp_path):
        out = tmp_path / "short"
        assert run(["train", "--data", dataset, "--out", str(out), *FAST]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["milestones"] == [6, 9]
        assert len((out / "train_log.jsonl").read_text().splitlines()) == 12

    def test_image_size_mismatch_fails_before_training(self, dataset60, tmp_path,
                                                       capsys):
        out = tmp_path / "run60"
        assert run(["train", "--data", dataset60, "--out", str(out), *FAST]) == 1
        err = single_error_line(capsys)
        assert "60x60" in err and "multiples of 8" in err
        assert not out.exists()

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
        assert run(["train", "--data", dataset128, "--out", str(out), *FAST]) == 0
        assert (out / "checkpoint.srpn").exists()
        assert label_counts == [768, 768]
        assert set(output_counts) == {(1, 768)} and len(output_counts) == 12 * 4

    @pytest.mark.parametrize("doc, needle", [
        ({"bogus": 1}, "unknown config key 'bogus'"),
        ({"t": "x"}, "config key 't' must be"),
        ([1, 2], "config must be a JSON object"),
        ({"mode": "softlabel"}, "unknown mode 'softlabel'"),
        ({"t": 1.5}, "t must lie in (0, 1), got 1.5"),
        ({"d_embed": 0}, "d_embed must be at least 1, got 0"),
        ({"top_k": 100}, "config key 'top_k' must be 50, its fixed value, got 100"),
        ({"stride": 16}, "config key 'stride' must be 8, its fixed value, got 16"),
        ({"pos_thresh": 0.3, "neg_thresh": 0.7},
         "config key 'pos_thresh' must be 0.7, its fixed value, got 0.3"),
        ({"lr": 0}, "lr must be finite and positive, got 0"),
        ({"milestones": [-1]}, "milestones must be at least 1, got -1"),
        ({"seed_init": -1}, "seed_init must be non-negative, got -1"),
    ])
    def test_bad_config_file_gives_one_error_line(self, doc, needle, dataset,
                                                  tmp_path, capsys):
        """An unrunnable config is refused before any work: no traceback,
        no output directory."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["train", "--data", dataset, "--out", str(out),
                    "--config", str(path), *FAST]) == 1
        assert needle in single_error_line(capsys)
        assert not out.exists()

    def test_deeply_nested_config_gives_one_error_line(self, dataset, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "out"
        assert run(["train", "--data", dataset, "--out", str(out),
                    "--config", str(path), *FAST]) == 1
        assert "nested too deeply" in single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("content, says", [
        (None, "Expecting value: line 1 column 1 (char 0)"),
        (b"{oops", "Expecting property name enclosed in double quotes"),
        (b'{"t": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["dev-null", "not-json", "not-utf8"])
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_malformed_config_names_the_file(self, command, content, says, dataset,
                                             tmp_path, capsys):
        """One error line that names the config file, before any work."""
        path = "/dev/null"
        if content is not None:
            path = str(tmp_path / "bad.json")
            with open(path, "wb") as f:
                f.write(content)
        out = tmp_path / "out"
        argv = [command, "--data", dataset, "--out", str(out), "--config", path]
        assert run(argv + (["--seeds", "0"] if command == "compare" else [])) == 1
        assert single_error_line(capsys).startswith(f"error: {path}: {says}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_unallocatable_d_embed_gives_one_error_line(self, command, dataset, tmp_path,
                                                        capsys):
        """A d_embed whose embedding layer (~70 TiB) cannot be allocated,
        which numpy refuses at once: one error line naming it, no output
        directory."""
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--data", dataset, "--out", str(out), "--d-embed", "100000000000"]
        else:
            path = tmp_path / "wide.json"
            path.write_text(json.dumps({"d_embed": 10**11, "total_iters": 12}))
            argv = ["compare", "--data", dataset, "--out", str(out), "--config", str(path),
                    "--seeds", "0"]
        assert run(argv) == 1
        line = single_error_line(capsys)
        assert line.startswith("error: d_embed 100000000000: rpn.embed.w: Unable to "
                               "allocate"), line
        assert not out.exists()

    def test_retired_config_keys_still_load(self, dataset, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"total_iters": 12, "image_size": 64, "stride": 8,
                                    "n_anchors": 3, "n_images": 10, "drop_rate": 0.3,
                                    "seed_data": 0}))
        out = tmp_path / "old"
        assert run(["train", "--data", dataset, "--out", str(out),
                    "--config", str(path)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert len(config) == 8 and not {"image_size", "n_anchors"} & set(config)


class TestEvalCmd:
    def test_writes_report(self, dataset, checkpoint, tmp_path):
        report = tmp_path / "report.json"
        assert run(["eval", "--checkpoint", checkpoint, "--data", dataset,
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
        assert run(argv) == 0
        first = report.read_bytes()
        assert first.decode() == json.dumps(json.loads(first), indent=1, sort_keys=True)
        assert run(argv) == 0
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
        assert run(["eval", "--checkpoint", checkpoint, "--data", dataset,
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
            assert run([cmd, "--checkpoint", checkpoint, "--data", dataset,
                        "--report", str(tmp_path / f"{cmd}.json")]) == 0
        assert sorted(os.listdir(tmp_path)) == ["audit.json", "audit.json.manifest.json",
                                                "eval.json", "eval.json.manifest.json"]
        for cmd in ("eval", "audit"):
            doc = json.loads((tmp_path / f"{cmd}.json.manifest.json").read_text())
            assert doc["artifacts"] == {"report": str(tmp_path / f"{cmd}.json"),
                                        "checkpoint": os.path.abspath(checkpoint)}

    def test_fn_fields_equal_audit_report(self, dataset, checkpoint, tmp_path):
        assert run(["eval", "--checkpoint", checkpoint, "--data", dataset,
                    "--report", str(tmp_path / "r.json")]) == 0
        assert run(["audit", "--checkpoint", checkpoint, "--data", dataset,
                    "--report", str(tmp_path / "a.json")]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        audit = json.loads((tmp_path / "a.json").read_text())
        assert (report["fn_precision"], report["fn_recall"]) == \
            (audit["fn_precision"], audit["fn_recall"])

    def test_corrupt_checkpoint_is_runtime_error(self, dataset, tmp_path):
        bad = tmp_path / "bad.srpn"
        bad.write_bytes(b"not a checkpoint")
        assert run(["eval", "--checkpoint", str(bad), "--data", dataset,
                    "--report", str(tmp_path / "r.json")]) == 1

    @pytest.mark.parametrize("kind", ["magic_only", "bad_json", "infinite_shape",
                                      "oversized_shape", "nested_header", "no_config",
                                      "nan_tensor"])
    def test_malformed_checkpoint_gives_one_error_line(self, kind, dataset,
                                                       checkpoint, tmp_path, capsys):
        bad = tmp_path / "bad.srpn"
        headers = {"bad_json": b"{oops",
                   "infinite_shape": b'{"tensors": [{"name": "w", "shape": [Infinity]}]}',
                   "oversized_shape": b'{"tensors": [{"name": "w", "shape": [0, 1e30]}]}',
                   "nested_header": b"[" * 100_000 + b"]" * 100_000}
        if kind == "magic_only":
            bad.write_bytes(mdl.CHECKPOINT_MAGIC)
        elif kind in headers:
            bad.write_bytes(mdl.CHECKPOINT_MAGIC + struct.pack(
                "<II", mdl.CHECKPOINT_VERSION, len(headers[kind])) + headers[kind])
        elif kind == "no_config":
            params, _ = mdl.load_checkpoint(checkpoint)
            mdl.save_checkpoint(bad, params, meta={})
        else:                 # one NaN in an otherwise valid checkpoint
            params, meta = mdl.load_checkpoint(checkpoint)
            params["rpn.cls.b"].data[0] = np.nan
            mdl.save_checkpoint(bad, params, meta=meta)
        report = tmp_path / "r.json"
        assert run(["eval", "--checkpoint", str(bad), "--data", dataset,
                    "--report", str(report)]) == 1
        line = single_error_line(capsys)
        assert str(bad) in line
        assert kind != "nan_tensor" or "tensor rpn.cls.b" in line, line
        assert not report.exists()

    @pytest.mark.parametrize("command", ["eval", "audit"])
    def test_huge_d_embed_names_the_mismatched_tensor(self, command, dataset, checkpoint,
                                                      tmp_path, capsys):
        """A meta.config whose d_embed implies a 10**11-wide embedding layer
        is checked against the tensors' shapes without allocating that
        layer."""
        params, meta = mdl.load_checkpoint(checkpoint)
        bad = tmp_path / "wide.srpn"
        mdl.save_checkpoint(bad, params, meta={"config": {**meta["config"], "d_embed": 10**11}})
        report = tmp_path / "r.json"
        assert run([command, "--checkpoint", str(bad), "--data", dataset,
                    "--report", str(report)]) == 1
        assert "rpn.embed.w" in single_error_line(capsys)
        assert not report.exists()

    def test_image_size_mismatch_is_runtime_error(self, dataset60, checkpoint,
                                                  tmp_path, capsys):
        report = tmp_path / "r.json"
        assert run(["eval", "--checkpoint", checkpoint, "--data", dataset60,
                    "--report", str(report)]) == 1
        assert "60x60" in single_error_line(capsys)
        assert not report.exists()

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
        assert run(["eval", "--checkpoint", path, "--data",
                    request.getfixturevalue(data), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert all(0.0 <= doc[k] <= 1.0 for k in ("ap50", "ap", "recall50"))


class TestReportDirectory:
    @pytest.mark.parametrize("command, work", [("eval", "evaluate"),
                                               ("audit", "audit_flags")])
    def test_missing_directory_refused_before_any_work(self, command, work, dataset,
                                                       checkpoint, tmp_path, capsys,
                                                       monkeypatch):
        """A --report inside a missing directory gives one error line naming
        --report and that directory, before the checkpoint is even read."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --report was checked")

        monkeypatch.setattr(hz, work, no_work)
        monkeypatch.setattr(mdl, "load_checkpoint", no_work)
        report = tmp_path / "nodir" / "r.json"
        assert run([command, "--checkpoint", checkpoint, "--data", dataset,
                    "--report", str(report)]) == 1
        err = single_error_line(capsys)
        assert f"--report {report}" in err and str(tmp_path / "nodir") in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, work", [("eval", "evaluate"),
                                               ("audit", "audit_flags")])
    def test_report_below_a_regular_file_refused_before_any_work(
            self, command, work, dataset, checkpoint, tmp_path, capsys, monkeypatch):
        """A --report whose directory is a regular file gives one error line
        naming --report and saying that the file exists and is not a
        directory, before the checkpoint is read; the file is left as it was."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --report was checked")

        monkeypatch.setattr(hz, work, no_work)
        monkeypatch.setattr(mdl, "load_checkpoint", no_work)
        rfile = tmp_path / "rfile"
        rfile.write_text("kept")
        report = rfile / "r.json"
        assert run([command, "--checkpoint", checkpoint, "--data", dataset,
                    "--report", str(report)]) == 1
        assert (f"--report {report}: directory {rfile} exists and is not a directory"
                == single_error_line(capsys).removeprefix("error: "))
        assert os.listdir(tmp_path) == ["rfile"] and rfile.read_text() == "kept"

    @pytest.mark.parametrize("command, work", [("eval", "evaluate"),
                                               ("audit", "audit_flags")])
    def test_directory_report_refused_before_any_work(self, command, work, dataset,
                                                      checkpoint, tmp_path, capsys,
                                                      monkeypatch):
        """A --report that names an existing directory gives one error line
        naming --report, before the checkpoint is read, and leaves no
        temporary file."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --report was checked")

        monkeypatch.setattr(hz, work, no_work)
        monkeypatch.setattr(mdl, "load_checkpoint", no_work)
        report = tmp_path / "reports"
        report.mkdir()
        assert run([command, "--checkpoint", checkpoint, "--data", dataset,
                    "--report", str(report)]) == 1
        assert f"--report {report} is a directory" in single_error_line(capsys)
        assert os.listdir(tmp_path) == ["reports"] and os.listdir(report) == []


OUT_COMMANDS = {
    "synth": (["synth"], (dat, "generate_benchmark")),
    "train": (["train", "--data", "DATA"], (hz, "train")),
    "compare": (["compare", "--data", "DATA", "--seeds", "0"], (hz, "compare")),
}


class TestOutFile:
    @pytest.mark.parametrize("name, sub", [(n, sub) for sub in ("", "sub") for n in OUT_COMMANDS],
                             ids=[*OUT_COMMANDS, *(f"{n}-below" for n in OUT_COMMANDS)])
    def test_regular_file_out_refused_before_any_work(self, name, sub, dataset, tmp_path,
                                                      capsys, monkeypatch):
        """An --out that exists and is not a directory, or lies below a
        regular file, gives one error line naming --out, before the dataset
        is read or made, and the file is left as it was."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        argv, work = OUT_COMMANDS[name]
        monkeypatch.setattr(*work, no_work)
        monkeypatch.setattr(dat, "load_dataset", no_work)
        out = tmp_path / "outfile"
        out.write_text("kept")
        argv = [dataset if a == "DATA" else a for a in argv]
        below = f" is below {out}, which" if sub else ""
        assert run([*argv, "--out", str(out / sub)]) == 1
        assert (f"--out {out / sub}{below} exists and is not a directory"
                in single_error_line(capsys))
        assert os.listdir(tmp_path) == ["outfile"] and out.read_text() == "kept"

    @pytest.mark.parametrize("name, sub", [(n, sub) for sub in ("", "sub") for n in OUT_COMMANDS],
                             ids=[*OUT_COMMANDS, *(f"{n}-below" for n in OUT_COMMANDS)])
    def test_dangling_symlink_out_refused_before_any_work(self, name, sub, dataset, tmp_path,
                                                          capsys, monkeypatch):
        """An --out that is, or lies below, a symlink to a missing path gives
        one error line naming --out before the dataset is read or made, and
        the link is left dangling."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        argv, work = OUT_COMMANDS[name]
        monkeypatch.setattr(*work, no_work)
        monkeypatch.setattr(dat, "load_dataset", no_work)
        link = tmp_path / "brokenlink"
        link.symlink_to(tmp_path / "missing")
        argv = [dataset if a == "DATA" else a for a in argv]
        below = f" is below {link}, which" if sub else ""
        assert run([*argv, "--out", str(link / sub)]) == 1
        assert (f"--out {link / sub}{below} is a symlink to a missing path"
                in single_error_line(capsys))
        assert os.listdir(tmp_path) == ["brokenlink"] and not link.exists()


class TestAuditCmd:
    def test_report_sorted_by_score(self, dataset, checkpoint, tmp_path):
        report = tmp_path / "audit.json"
        assert run(["audit", "--checkpoint", checkpoint, "--data", dataset,
                    "--t", "0.5", "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["t"] == 0.5
        scores = [f["attention_score"] for f in doc["flags"]]
        assert scores == sorted(scores, reverse=True)
        assert "fn_precision" in doc and "fn_recall" in doc

    def test_bad_extents_give_one_error_line(self, dataset60, checkpoint, tmp_path,
                                             capsys):
        report = tmp_path / "audit.json"
        assert run(["audit", "--checkpoint", checkpoint, "--data", dataset60,
                    "--report", str(report)]) == 1
        assert "60x60" in single_error_line(capsys)
        assert not report.exists()

    @pytest.mark.parametrize("t", ["1.5", "0", "-0.2"])
    def test_threshold_outside_unit_interval_gives_one_error_line(
            self, t, dataset, checkpoint, tmp_path, capsys):
        report = tmp_path / "audit.json"
        assert run(["audit", "--checkpoint", checkpoint, "--data", dataset,
                    "--t", t, "--report", str(report)]) == 1
        assert "t must lie in (0, 1)" in single_error_line(capsys)
        assert not report.exists()
        assert not (tmp_path / "audit.json.manifest.json").exists()

    def test_bad_threshold_refused_before_any_work(self, tmp_path, capsys,
                                                   monkeypatch):
        """--t is checked before the checkpoint and the dataset are read: a
        missing --data or checkpoint is not what gets reported."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --t was checked")

        monkeypatch.setattr(mdl, "load_checkpoint", no_work)
        monkeypatch.setattr(dat, "load_dataset", no_work)
        assert run(["audit", "--checkpoint", str(tmp_path / "none.srpn"),
                    "--data", str(tmp_path / "nope"), "--t", "1.5",
                    "--report", str(tmp_path / "audit.json")]) == 1
        assert "t must lie in (0, 1), got 1.5" in single_error_line(capsys)
        assert os.listdir(tmp_path) == []

    def test_threshold_above_all_scores_empty(self, dataset, checkpoint,
                                              tmp_path):
        report = tmp_path / "audit.json"
        assert run(["audit", "--checkpoint", checkpoint, "--data", dataset,
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


def no_generator(*args, **kwargs):
    raise AssertionError("compare generated data")


class TestCompareCmd:
    def test_rows_means_table_and_manifest(self, dataset, fast_config, tmp_path, capsys):
        """--data: every seed trains on that dataset; compare.json holds
        harness.compare's document, and compare.txt the printed table."""
        out = tmp_path / "cmp"
        assert run(["compare", "--data", dataset, "--out", str(out), "--config", fast_config,
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
        assert run(["compare", "--out", str(out), "--config", fast_config,
                    "--seeds", "1,4"]) == 0
        assert calls == [(200, 64, 0.3, 1), (200, 64, 0.3, 4)]
        config = hz.TrainConfig(total_iters=12, milestones=(6, 9))
        want = hz.compare(config, [(s, generate(8, 64, 0.3, seed=s)) for s in (1, 4)], [0.8])
        assert json.loads((out / "compare.json").read_text()) == want
        assert json.loads((out / "manifest.json").read_text())["generated"] == {
            "images": 200, "size": 64, "drop_rate": 0.3}

    @pytest.mark.parametrize("flag, value, says", [
        ("--thresholds", ",", "no threshold given"),
        ("--thresholds", "", "no threshold given"),
        ("--thresholds", "0.5,x", "could not convert string to float: 'x'"),
        ("--thresholds", "0.6,1.5", "t must lie in (0, 1), got 1.5"),
        ("--thresholds", "0", "t must lie in (0, 1), got 0.0"),
        ("--seeds", ",", "no seed given"),
        ("--seeds", "", "no seed given"),
        ("--seeds", "0,x", "invalid literal for int() with base 10: 'x'"),
        ("--seeds", "1.5", "invalid literal for int() with base 10: '1.5'"),
        ("--seeds", "0,-1", "seeds must be non-negative, got -1"),
        ("--thresholds", "0.5,0.5", "threshold 0.5 given twice"),
        ("--thresholds", "0.6,0.8,0.80", "threshold 0.8 given twice"),
        ("--seeds", "0,1,0", "seed 0 given twice"),
    ], ids=["comma", "empty", "not-a-number", "out-of-range", "zero", "seeds-comma",
            "seeds-empty", "seeds-not-a-number", "seeds-fraction", "seeds-negative",
            "repeated", "repeated-spelled-apart", "seeds-repeated"])
    @pytest.mark.parametrize("data", [True, False], ids=["data", "generated"])
    def test_unusable_list_refused_by_name_before_any_work(self, flag, value, says, data,
                                                           tmp_path, capsys, monkeypatch):
        """Before the dataset is read (it does not exist here) or generated,
        and before any output directory or manifest is written."""
        monkeypatch.setattr(dat, "generate_benchmark", no_generator)
        out = tmp_path / "x"
        argv = ["compare", "--out", str(out), flag, value]
        assert run(argv + (["--data", str(tmp_path / "nope")] if data else [])) == 1
        assert single_error_line(capsys) == f"error: {flag} {value!r}: {says}"
        assert not out.exists()

    def test_missing_data_refused_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["compare", "--data", str(tmp_path / "nope"), "--out", str(out)]) == 1
        assert "nope" in single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["frobnicate", "ablate"])
    def test_unknown_command_exit_2(self, command):
        with pytest.raises(SystemExit) as e:
            run([command])
        assert e.value.code == 2


MISSING = object()


def stray_sidecar(doc):
    """doc with every annotation moved onto an added image 999."""
    doc["images"].append({"id": 999, "file_name": "img_000999.pgm", "height": 64,
                          "width": 64})
    for ann in doc["annotations"]:
        ann["image_id"] = 999
    return doc


def edited(doc, *path_and_value):
    """doc with the value at path replaced (or deleted, for MISSING)."""
    *path, key, value = path_and_value
    node = doc
    for k in path:
        node = node[k]
    if value is MISSING:
        del node[key]
    else:
        node[key] = value
    return doc


class TestMalformedInput:
    """Malformed COCO-lite or PGM input exits 1 with one error line that
    names the file, before any training."""

    @pytest.fixture
    def data(self, tmp_path):
        out = tmp_path / "data"
        dat.save_dataset(out, dat.generate_benchmark(2, 64, 0.5, seed=3))
        assert json.loads((out / "dropped.json").read_text())["annotations"]
        return out

    def assert_refused(self, data, bad_file, capsys, needle):
        out = data.parent / "run"
        assert run(["train", "--data", str(data), "--out", str(out), *FAST]) == 1
        line = single_error_line(capsys)
        assert str(bad_file) in line and needle in line, line
        assert not out.exists()

    @pytest.mark.parametrize("name, edit, needle", [
        ("train.json", lambda d: [d], "top level"),
        ("train.json", lambda d: edited(d, "images", 5), "'images'"),
        ("train.json", lambda d: edited(d, "images", [5]), "'images'"),
        ("train.json", lambda d: edited(d, "annotations", {"id": 1}), "'annotations'"),
        ("train.json", lambda d: edited(d, "annotations", 0, "bbox", MISSING), "'bbox'"),
        ("train.json", lambda d: edited(d, "images", 0, "file_name", MISSING),
         "'file_name'"),
        ("train.json", lambda d: edited(d, "images", 0, "id", "0"), "'id'"),
        ("train.json", lambda d: edited(d, "images", 0, "height", 64.0), "'height'"),
        ("train.json", lambda d: edited(d, "images", 1, "id", d["images"][0]["id"]),
         "duplicate id"),
        ("train.json", lambda d: edited(d, "images", 1, "file_name",
                                        d["images"][0]["file_name"]),
         "images[1]: duplicate file_name 'img_000000.pgm'"),
        ("dropped.json", lambda d: edited(d, "annotations", 1, "id",
                                          d["annotations"][0]["id"]),
         "annotations[1]: duplicate id 1"),
        ("train.json", lambda d: edited(d, "annotations", 0, "image_id", True),
         "'image_id'"),
        ("train.json", lambda d: edited(d, "images", 0, "file_name", "../../x.pgm"),
         "'file_name'"),
        ("train.json", lambda d: edited(d, "images", 0, "file_name", ".."), "'file_name'"),
        ("train.json", lambda d: edited(d, "annotations", 0, "bbox", [1, 2, "x", 4]),
         "'bbox'"),
        ("train.json", lambda d: edited(d, "annotations", 0, "bbox", [1, 2, float("nan"), 4]),
         "'bbox'"),
        ("dropped.json", lambda d: edited(d, "annotations", 0, "bbox",
                                          [1, 2, float("inf"), 4]), "'bbox'"),
        ("train.json", lambda d: edited(d, "annotations", 0, "bbox", [1, 2, -1, 4]),
         "'bbox'"),
        ("train.json", lambda d: edited(d, "annotations", 0, "bbox", [1, 2, 3]), "'bbox'"),
        ("train.json", lambda d: edited(d, "annotations", 0, "category_id", True),
         "'category_id'"),
        ("train.json", lambda d: edited(d, "annotations", 0, "bbox", [1e300] * 4), "'bbox'"),
        ("train.json", lambda d: edited(d, "annotations", 0, "bbox", [1, 2, 0, 4]),
         "annotations[0] (id 1): bbox [1, 2, 0, 4] has no area"),
        ("dropped.json", lambda d: edited(d, "annotations", 0, "bbox", [0, 0, 1e154, 1e154]),
         "annotations[0] (id 1): bbox [0, 0, 1e+154, 1e+154] does not lie inside image"),
        ("train.json", lambda d: edited(d, "images", 1, "height", 4096),
         "images[1] (id 1) declares height 4096 and width 64"),
        ("dropped.json", stray_sidecar, "field 'images' must list the images of"),
    ], ids=["top-level-list", "images-int", "image-not-object", "annotations-object",
            "bbox-missing", "file-name-missing", "id-string", "height-float", "id-duplicate",
            "file-name-duplicate", "sidecar-annotation-id-duplicate",
            "image-id-bool", "file-name-outside", "file-name-dotdot", "bbox-string",
            "bbox-nan", "sidecar-bbox-inf", "bbox-negative-width", "bbox-three-numbers",
            "category-id-bool", "bbox-area-overflow", "bbox-zero-width",
            "sidecar-bbox-outside-image", "height-differs-from-pgm",
            "sidecar-image-not-in-train"])
    def test_malformed_cocolite(self, name, edit, needle, data, capsys):
        path = data / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        self.assert_refused(data, path, capsys, needle)

    def test_truncated_pgm(self, data, capsys):
        path = data / "images" / "img_000001.pgm"
        path.write_bytes(path.read_bytes()[:100])
        self.assert_refused(data, path, capsys, "truncated")
