#!/usr/bin/env python3
"""softrpn benchmark: drives ``softrpn.cli.main`` in-process on seeded
synthetic workloads and prints one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload train-soft64 --seed 0 --seconds 40 --trace 0

``--trace 0`` times the CLI commands untraced and reports the end-to-end
metrics of BENCHMARK.json. ``--trace 1`` runs one untraced and one traced
cycle of the workload's commands and reports the per-layer metrics. Every
CLI call's output is checked (bench_checks.py); a failed call or a check
that does not hold counts in ``failed``. See perfbench/README.md.
"""

import os
import sys

# BLAS threads are fixed before NumPy loads. One thread (at most nproc on
# any machine) keeps the many tiny matrix products free of thread hand-offs
# and makes runs repeatable on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import dataclasses
import glob
import hashlib
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import time
import traceback

import bench_checks as bc
import bench_trace as bt

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

BACKWARD_REPLAYS = 30   # replayed backward passes per conv layer (--trace 1)
BATCH_IMAGES = 4        # TrainConfig.batch_images; images per training iteration

# The end-to-end metrics of every --trace 0 run, with their units.
END_TO_END_UNITS = {"setup_s": "s", "train_img_per_s": "img/s", "eval_img_per_s": "img/s",
                    "audit_img_per_s": "img/s", "peak_rss_mb": "MB", "recall50": "ratio"}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    images: int                 # training/audit dataset size
    size: int                   # image extent
    train: dict                 # --config for `softrpn train`
    # The committed checkpoint (see make_checkpoint.py) that eval and audit
    # use. A trained model's outputs vary with the seed and with training
    # numerics, and NMS and AP cost vary with them; a fixed model keeps the
    # eval and audit work a function of the dataset alone.
    checkpoint: str
    checkpoint_sha256: str
    # One round of the timed phase: a sequence of (step, CLI calls per
    # sample, the same wherever the step appears). "setup" repeats the
    # set-up's dataset generation. Short steps appear more than once, so
    # each metric gets several samples per round.
    round: tuple
    eval_images: int = 0        # >0: eval on a separate, smaller set of this size


# Workaround for a known CLI defect: `softrpn train --total-iters N` fails
# for N <= 800 because the default milestones (500, 800) are not rescaled,
# so every workload drives `train` with a --config file that scales them.
def _train_config(mode: str, total_iters: int, **extra) -> dict:
    return {"mode": mode, "total_iters": total_iters,
            "milestones": [total_iters // 2, total_iters * 4 // 5],
            "seed_init": 0, "seed_sample": 0, **extra}


CKPT64 = ("ckpt64.srpn", "1b60434ecc21877b049e56325ed4804e8b432fbd088ba31161d24f0b0d35acdd")
CKPT128 = ("ckpt128.srpn", "c8d8a7db781b50813e7663d134172f3c4d18785dd586c4028cacf8d649cf2771")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-soft64", images=200, size=64,
        train=_train_config("soft_label", 100),
        checkpoint=CKPT64[0], checkpoint_sha256=CKPT64[1],
        round=(("train", 1), ("audit", 1), ("setup", 1), ("eval", 1), ("train", 1),
               ("audit", 1)),
        eval_images=40),
    Workload(
        name="eval-audit64", images=200, size=64,
        train=_train_config("soft_label", 60),
        checkpoint=CKPT64[0], checkpoint_sha256=CKPT64[1],
        round=(("eval", 1), ("train", 1), ("audit", 1), ("setup", 1), ("audit", 1),
               ("train", 1), ("audit", 1))),
    Workload(
        # Workaround for a known defect: TrainConfig.image_size defaults to
        # 64, and with 128-pixel images training would then build anchors
        # for an 8x8 grid under a 16x16 output and run on wrong labels.
        name="pipeline-base128", images=60, size=128,
        train=_train_config("baseline", 60, image_size=128),
        checkpoint=CKPT128[0], checkpoint_sha256=CKPT128[1],
        round=(("train", 1), ("eval", 1), ("audit", 2), ("setup", 1), ("eval", 1),
               ("train", 1), ("audit", 2))),
)}


def import_softrpn():
    """Import softrpn from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "softrpn", "cli.py")):
        raise SystemExit(f"error: {SRC}/softrpn not found; run from a full checkout")
    sys.path.insert(0, SRC)
    import softrpn.cli
    found = os.path.realpath(softrpn.cli.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: softrpn was imported from {found}, not {SRC}")
    return softrpn.cli


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": _openblas_threads(np),
    }


def _openblas_threads(np):
    """Thread count reported by the OpenBLAS that NumPy loaded, or None."""
    import ctypes
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# -- machine-speed calibration ---------------------------------------------------
#
# On a shared host the speed of one core drifts by tens of percent over
# minutes, and every timed sample drifts with it. A fixed calibration
# workload, run right before and right after each timed sample, drifts the
# same way (measured on a 2-vCPU x86-64 VM over five minutes: 10-second
# medians of a training call varied with a coefficient of variation of
# 0.135, their ratios to the calibration by 0.027). Each timing metric is therefore reported as the median of
# sample / calibration, times CALIBRATION_REF_S: the time the sample would
# take on a machine whose calibration takes CALIBRATION_REF_S. The raw
# times and the calibration times are in the detail line.

CALIBRATION_REF_S = 0.2


def calibrate() -> float:
    """Wall time of a fixed mix of small NumPy calls (a 3x3 conv as softrpn
    computes it) and interpreter work, like softrpn's own mix."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 16, 8))
    k = rng.standard_normal((3, 3, 8, 16))
    t0 = time.perf_counter()
    for _ in range(800):
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(0, 1))
        np.einsum("hwcij,ijco->hwo", win, k, optimize=True)
    acc = 0
    for i in range(400_000):
        acc += (i * 7) % 13
    table: dict[int, int] = {}
    for i in range(70_000):
        table[i % 1000] = table.get(i % 1000, 0) + i
    return time.perf_counter() - t0


def _tree_digest(directory) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames.sort()
        for name in sorted(filenames):
            if name == "manifest.json":     # holds a wall-clock duration
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _file_sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Run:
    """One benchmark run: set-up, the CLI calls, their checks and counts."""

    def __init__(self, cli, workload: Workload, seed: int, work_dir: str):
        self.cli = cli
        self.w = workload
        self.seed = seed
        self.dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprint: dict = {}
        self.tracer = None
        self.data_dir = os.path.join(work_dir, "data")
        self.eval_dir = os.path.join(work_dir, "evalset") if workload.eval_images else self.data_dir
        self.config_path = os.path.join(work_dir, "train_config.json")
        self.train_out = os.path.join(work_dir, "train")
        self.report_dir = os.path.join(work_dir, "reports")
        self.checkpoint = os.path.join(work_dir, workload.checkpoint)
        self.setup_digest = ""

    # -- calls ---------------------------------------------------------------

    def call(self, argv: list[str]) -> float:
        """One CLI call; returns its wall time. A non-zero exit, an
        exception or an unexpected SystemExit counts as a failed call."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer
                else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = self.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            code = "exception: " + traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            self.problems.append(f"softrpn {' '.join(argv)} -> {code} {err.getvalue().strip()}")
        return elapsed

    def checked_call(self, argv: list[str], check) -> float:
        """A CLI call followed by its output check; a check that fails (or
        raises) marks the call failed. Each call's fingerprint part must
        equal that of every earlier call of the run."""
        failed_before = self.failed
        elapsed = self.call(argv)
        if self.failed != failed_before:
            return elapsed
        try:
            problems, part = check()
        except Exception:
            problems, part = ["check raised: " + traceback.format_exc(limit=3)], {}
        for key, value in part.items():
            if key in self.fingerprint and self.fingerprint[key] != value:
                problems.append(f"{key} differs between calls: "
                                f"{self.fingerprint[key]!r} vs {value!r}")
            self.fingerprint.setdefault(key, value)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed

    def synth(self, out_dir, images: int, seed: int) -> float:
        return self.call(["synth", "--out", out_dir, "--images", str(images),
                          "--size", str(self.w.size), "--drop-rate", "0.3",
                          "--seed", str(seed)])

    def evalset_seed(self) -> int:
        return 1_000_000 + self.seed

    def train(self) -> float:
        return self.checked_call(
            ["train", "--data", self.data_dir, "--out", self.train_out,
             "--config", self.config_path],
            lambda: bc.check_train_log(os.path.join(self.train_out, "train_log.jsonl"),
                                       self.w.train))

    def eval(self) -> float:
        report = os.path.join(self.report_dir, "eval.json")
        return self.checked_call(
            ["eval", "--checkpoint", self.checkpoint, "--data", self.eval_dir,
             "--report", report],
            lambda: bc.check_eval_report(report))

    def audit(self) -> float:
        report = os.path.join(self.report_dir, "audit.json")
        t = self.w.train.get("t", 0.8)
        return self.checked_call(
            ["audit", "--checkpoint", self.checkpoint, "--data", self.data_dir,
             "--report", report],
            lambda: bc.check_audit_report(report, self.data_dir, t))

    # -- phases ----------------------------------------------------------------

    def make_datasets(self, out_dir) -> float:
        """`softrpn synth` of the workload's dataset (and eval set) into
        out_dir; returns the wall time."""
        t = self.synth(os.path.join(out_dir, "data"), self.w.images, self.seed)
        if self.w.eval_images:
            t += self.synth(os.path.join(out_dir, "evalset"), self.w.eval_images,
                            self.evalset_seed())
        return t

    def setup(self) -> float:
        """Generate the datasets and stage the config and checkpoint.
        Returns the set-up time."""
        t0 = time.perf_counter()
        self.make_datasets(self.dir)
        os.makedirs(self.report_dir, exist_ok=True)
        with open(self.config_path, "w") as f:
            json.dump(self.w.train, f)
        source = os.path.join(HERE, self.w.checkpoint)
        shutil.copyfile(source, self.checkpoint)
        if _file_sha256(self.checkpoint) != self.w.checkpoint_sha256:
            self.failed += 1
            self.problems.append(f"{source} does not match its recorded sha256")
        self.setup_digest = _tree_digest(self.data_dir)
        return time.perf_counter() - t0

    def resetup(self) -> float:
        """Repeat the set-up's dataset generation into a scratch directory;
        the files must equal the set-up's. Returns its wall time."""
        scratch = os.path.join(self.dir, "resetup")
        shutil.rmtree(scratch, ignore_errors=True)
        t = self.make_datasets(scratch)
        if _tree_digest(os.path.join(scratch, "data")) != self.setup_digest:
            self.failed += 1
            self.problems.append("synth wrote different files for the same seed")
        return t

    def timed(self, seconds: float) -> tuple[dict, dict, list[float]]:
        """Set up, then make the round's steps over and over while the next
        step is expected to end within ``seconds`` (the first round always
        completes), so the samples of every metric spread over the whole
        run. Returns each step's raw sample times, the same samples divided
        by their bracketing calibrations, and every calibration time."""
        steps = {"setup": self.resetup, "train": self.train, "eval": self.eval,
                 "audit": self.audit}
        raw: dict[str, list[float]] = {name: [] for name in steps}
        scaled: dict[str, list[float]] = {name: [] for name in steps}
        calibration = [calibrate()]

        def sample(name, fn, calls=1):
            t = sum(fn() for _ in range(calls))
            calibration.append(calibrate())
            raw[name].append(t)
            scaled[name].append(t / ((calibration[-2] + calibration[-1]) / 2))

        start = time.perf_counter()
        sample("setup", self.setup)
        for k in itertools.count():
            name, calls = self.w.round[k % len(self.w.round)]
            expected = statistics.median(raw[name]) + calibration[-1] if raw[name] else 0.0
            if k >= len(self.w.round) and time.perf_counter() - start + expected > seconds:
                break
            sample(name, steps[name], calls)
        return raw, scaled, calibration

    def cycle(self) -> float:
        """One of each command: synth, train, eval, audit. Returns the wall
        time of the four calls."""
        return self.resetup() + self.train() + self.eval() + self.audit()

    # -- results --------------------------------------------------------------

    def images_per_call(self, cmd: str) -> int:
        if cmd == "train":
            return self.w.train["total_iters"] * BATCH_IMAGES
        if cmd == "eval":
            return self.w.eval_images or self.w.images
        return self.w.images

    def check_fingerprint(self):
        """Compare with the recorded fingerprint of this workload and seed,
        when one was recorded; cross-check eval against audit."""
        fp = self.fingerprint
        if not self.w.eval_images and "eval_fn_recall" in fp and "flag_recall" in fp:
            if abs(fp["eval_fn_recall"] - fp["flag_recall"]) > 1e-12:
                self.failed += 1
                self.problems.append("eval and audit disagree on the flag recall of one dataset")
        recorded = load_fingerprints().get(self.w.name, {}).get(str(self.seed))
        if recorded is not None:
            diff = bc.fingerprint_diff(fp, recorded)
            if diff:
                self.failed += 1
                self.problems.extend(diff)
        return recorded is not None


def load_fingerprints() -> dict:
    if not os.path.exists(FINGERPRINTS):
        return {}
    with open(FINGERPRINTS) as f:
        return json.load(f)["fingerprints"]


def _summary(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values),
            "samples": [round(v, 4) for v in values]}


def run_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics. setup_s covers the set-up and its repetition in
    every round; every timing is calibrated (see calibrate)."""
    raw, scaled, calibration = run.timed(seconds)
    values = {"setup_s": statistics.median(scaled["setup"]) * CALIBRATION_REF_S}
    calls = dict(run.w.round)
    for cmd in ("train", "eval", "audit"):
        work = run.images_per_call(cmd) * calls[cmd]
        values[f"{cmd}_img_per_s"] = work / (statistics.median(scaled[cmd]) * CALIBRATION_REF_S)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["recall50"] = float(run.fingerprint.get("recall50", 0.0))
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    detail = {f"{name}_raw_s": _summary(v) for name, v in raw.items()}
    detail["calibration_s"] = _summary(calibration)
    return metrics, detail


# Per-layer numbers taken from the checked outputs of the traced cycle.
QUALITY_LAYER_METRICS = (("harness.evaluate.ap50", "ap50"),
                         ("harness.audit_flags.flag_recall", "flag_recall"),
                         ("harness.audit_flags.flag_precision", "flag_precision"))


def layer_metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    return (list(bt.layer_metrics(bt.Tracer(), {}))
            + [name for name, _ in QUALITY_LAYER_METRICS] + ["trace.overhead_ms"])


def run_traced(run: Run) -> tuple[dict, dict]:
    run.setup()
    c0 = calibrate()
    untraced = run.cycle()
    c1 = calibrate()
    tracer = bt.Tracer()
    patches = bt.install(tracer)
    run.tracer = tracer
    try:
        traced = run.cycle()
    finally:
        run.tracer = None
        patches.restore()
    c2 = calibrate()
    replay = bt.replay_conv_backward(tracer.conv_shapes, BACKWARD_REPLAYS)
    values = bt.layer_metrics(tracer, replay)
    for name, key in QUALITY_LAYER_METRICS:
        values[name] = float(run.fingerprint.get(key, 0.0))
    values["trace.overhead_ms"] = (traced / ((c1 + c2) / 2) - untraced / ((c0 + c1) / 2)
                                   ) * CALIBRATION_REF_S * 1e3
    metrics = {name: (value, bt.metric_unit(name)) for name, value in values.items()}
    detail = {"untraced_cycle_s": untraced, "traced_cycle_s": traced,
              "calibration_s": [c0, c1, c2],
              "conv_shapes": {k: [list(v[0]), list(v[1]), v[2], v[3]]
                              for k, v in tracer.conv_shapes.items()}}
    return metrics, detail


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    cli = import_softrpn()
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(WORK_ROOT, f"{workload.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    run = Run(cli, workload, args.seed, work_dir)
    try:
        if args.trace:
            metrics, detail = run_traced(run)
        else:
            metrics, detail = run_untraced(run, args.seconds)
        fingerprint_recorded = run.check_fingerprint()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)     # only when no other run is using it
    print(json.dumps({"detail": {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(), "timings": detail,
        "fingerprint": run.fingerprint, "fingerprint_recorded": fingerprint_recorded,
        "problems": run.problems[:20]}}))
    for message in run.problems[:20]:
        print(f"problem: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
