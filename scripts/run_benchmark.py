#!/usr/bin/env python3
"""Train baseline and soft-label models on fresh synthetic benchmarks over
several seeds and print the mean evaluation metrics of each mode.

Usage:
    python3 scripts/run_benchmark.py [--seeds 0,1,2,3,4] [--t 0.8]
                                     [--images 200] [--total-iters 1000]
"""

import argparse

import numpy as np

from softrpn import data as dat
from softrpn import harness as hz


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--t", type=float, default=0.8)
    parser.add_argument("--images", type=int, default=200)
    parser.add_argument("--drop-rate", type=float, default=0.3)
    parser.add_argument("--total-iters", type=int, default=1000)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s]

    results = {"baseline": [], "soft_label": []}
    fn_lines = []
    for seed in seeds:
        records = dat.generate_benchmark(args.images, 64, args.drop_rate, seed=seed)
        for mode in ("baseline", "soft_label"):
            config = hz.TrainConfig(mode=mode, t=args.t, total_iters=args.total_iters,
                                    seed_init=seed, seed_sample=seed)
            params, _ = hz.train(config, records)
            report = hz.evaluate(params, records, config)
            results[mode].append(report)
            if mode == "soft_label":
                flags = hz.audit_flags(params, records, config)
                rand = hz.expected_random_recall(flags, records)
                fn_lines.append(
                    f"  seed {seed}: {len(flags)} flags, precision "
                    f"{report.fn_precision:.4f}, recall {report.fn_recall:.4f} "
                    f"(size-matched random: {rand:.4f})")
            print(f"seed {seed} {mode:>10}: ap50 {report.ap50:.4f} "
                  f"recall50 {report.recall50:.4f}")

    print("\nmeans over seeds", seeds)
    for mode, reports in results.items():
        print(f"  {mode:>10}: ap50 {np.mean([r.ap50 for r in reports]):.4f}  "
              f"ap {np.mean([r.ap for r in reports]):.4f}  "
              f"recall50 {np.mean([r.recall50 for r in reports]):.4f}")
    print("\nfalse-negative audit (soft_label, t={}):".format(args.t))
    print("\n".join(fn_lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
