#!/usr/bin/env python3
"""Record the behaviour fingerprint of each workload for a range of seeds
into perfbench/fingerprints.json.

A fingerprint is what one cycle of a workload's CLI calls (synth, train,
eval, audit) produced: the training loss at fixed iterations, the training
flag count, AP50, recall50, and the audit's flag count, recall and
precision. Every benchmark run whose seed is recorded compares its
outputs with it. Re-record only for a change whose every fingerprint
difference is explained:

    python3 perfbench/record_fingerprints.py --seeds 0-31
"""

import argparse
import contextlib
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402  (sets the BLAS thread count first)


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 0-31")
    p.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS),
                   help="default: every workload")
    args = p.parse_args()
    cli = bench.import_softrpn()
    doc = {"fingerprints": bench.load_fingerprints()}
    for name in args.workload or list(bench.WORKLOADS):
        table = doc["fingerprints"].setdefault(name, {})
        for seed in args.seeds:
            work = os.path.join(bench.WORK_ROOT, f"record-{name}-{seed}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            run = bench.Run(cli, bench.WORKLOADS[name], seed, work)
            try:
                run.setup()
                run.cycle()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if run.failed:
                print(f"{name} seed {seed}: not recorded: {run.problems}", file=sys.stderr)
                return 1
            table[str(seed)] = run.fingerprint
            print(f"{name} seed {seed}: {json.dumps(run.fingerprint)}", flush=True)
    doc["fingerprints"] = {k: dict(sorted(v.items(), key=lambda kv: int(kv[0])))
                           for k, v in doc["fingerprints"].items()}
    with open(bench.FINGERPRINTS, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=False)
        f.write("\n")
    with contextlib.suppress(OSError):
        os.rmdir(bench.WORK_ROOT)     # only when no other run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
