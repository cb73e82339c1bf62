#!/usr/bin/env python3
"""Adaptive-adversary budget sweep: ratio trends as the budget grows.

The alternation adversaries only certify what they achieve against the
algorithm under test at a finite budget; this prints the trend so the
truncation is visible.

Usage: python scripts/adversary_sweep.py --phases 2 --sizes 40,80,160,320
"""

import argparse

from onlinecover.errors import ValidationError
from onlinecover.harness import (
    AdversaryBudget,
    adaptive_adversary_vc,
    resolve_allocation,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phases", type=int, default=2)
    parser.add_argument("--sizes", default="40,80,160")
    parser.add_argument("--algo", default="waterfill", choices=["waterfill", "primal-dual"])
    parser.add_argument("--f", dest="f_spec", default="optimal",
                        help="any allocation selector, e.g. optimal or family-k:2")
    parser.add_argument("--cap-factor", type=int, default=20)
    parser.add_argument("--threshold", type=float, default=0.999)
    args = parser.parse_args()

    try:
        func = resolve_allocation(args.f_spec)
    except ValidationError as exc:
        parser.error(str(exc))
    print(f"phases={args.phases} algo={args.algo} f={args.f_spec}")
    print("d,ratio,arrivals,phase_sizes,budget_exhausted")
    for d in (int(x) for x in args.sizes.split(",")):
        budget = AdversaryBudget(
            phases=args.phases,
            offline_d=d,
            per_phase_cap=args.cap_factor * d,
            convergence_threshold=args.threshold,
        )
        out = adaptive_adversary_vc(budget, args.algo, func)
        print(
            f"{d},{out.ratio:.6f},{len(out.transcript)},"
            f"{'|'.join(map(str, out.phase_sizes))},{out.budget_exhausted}"
        )


if __name__ == "__main__":
    main()
