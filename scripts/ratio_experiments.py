#!/usr/bin/env python3
"""Sweep random and structured instances, print per-run ratio rows as CSV.

Usage:
  python scripts/ratio_experiments.py --n 200 --seeds 10 --out ratios.csv

Columns: instance, algo, f, cover_ratio, matching_ratio, max_inv1, max_inv2;
each row is the summary of one final-ratio ``run_experiment``.
"""

import argparse
import csv
import sys

from onlinecover.harness import resolve_allocation, resolve_generator, run_experiment


def measure(spec, algo, f_spec="optimal", seed=0):
    """One CSV row from the summary of one simulate run on ``--gen <spec>``."""
    stream = resolve_generator(spec, seed)
    _, summary = run_experiment(stream, algo, resolve_allocation(f_spec))
    return {
        "instance": f"--gen {spec} --seed {seed}",
        "algo": algo,
        "f": summary["f"],
        "cover_ratio": summary["cover_ratio"],
        "matching_ratio": summary.get("matching_ratio", ""),
        "max_inv1": summary["max_inv1_slack"],
        "max_inv2": summary["max_inv2_slack"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--densities", default="0.05,0.1,0.3")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    rows = []
    for p in args.densities.split(","):
        for seed in range(args.seeds):
            spec = f"random:{args.n},{p}"
            rows.append(measure(spec, "primal-dual", seed=seed))
            rows.append(measure(spec, "waterfill", "greedy", seed))
            rows.append(measure(spec, "greedy", seed=seed))
    rows.append(measure(f"triangular:{args.n}", "primal-dual"))
    rows.append(measure(f"two-phase:{args.n}", "primal-dual"))

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        out.close()
        print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
