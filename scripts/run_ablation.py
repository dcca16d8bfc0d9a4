#!/usr/bin/env python3
"""Sweep the attention threshold t on one synthetic benchmark and print the
metric table.

Usage:
    python3 scripts/run_ablation.py [--thresholds 0.6,0.8,0.9] [--seed 0]
                                    [--images 200] [--total-iters 1000]
"""

import argparse

from softrpn import data as dat
from softrpn import harness as hz


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--thresholds", default="0.6,0.8,0.9")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--images", type=int, default=200)
    parser.add_argument("--drop-rate", type=float, default=0.3)
    parser.add_argument("--total-iters", type=int, default=1000)
    args = parser.parse_args()
    thresholds = [float(v) for v in args.thresholds.split(",") if v]
    if not all(0.0 < t < 1.0 for t in thresholds):
        parser.error("thresholds must lie in (0, 1)")

    records = dat.generate_benchmark(args.images, 64, args.drop_rate,
                                     seed=args.seed)
    config = hz.TrainConfig(n_images=args.images, drop_rate=args.drop_rate,
                            total_iters=args.total_iters,
                            seed_data=args.seed, seed_init=args.seed,
                            seed_sample=args.seed)
    rows = hz.ablate_threshold(config, records, thresholds)
    print(hz.format_ablation_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
