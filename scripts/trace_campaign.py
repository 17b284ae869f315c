#!/usr/bin/env python3
"""Chunked trace small-set campaign on the degree-23 demonstration ring.

Distinguishes genuine samples from uniform ones by voting over disjoint
chunks; with 500 samples per trial the decision is essentially always right.
"""

import argparse
import json

from plwe_audit.campaign import config_from_dict, run_campaign
from plwe_audit.instances import TRACE_INSTANCE_B


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--chunk", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--honest-sampling", action="store_true",
                        help="rejection-sample the subring (slow: ~q^2 draws per sample)")
    parser.add_argument("--output", default=None)
    args = parser.parse_args()

    doc = {
        "instance": dict(TRACE_INSTANCE_B["instance"]),
        "attack": {
            "family": "extended_small_set",
            "n": TRACE_INSTANCE_B["extension"]["n"],
            "a": TRACE_INSTANCE_B["extension"]["a"],
            "M": args.samples,
            "M0": args.chunk,
            "trials": args.trials,
        },
        "sampling": {"honest": args.honest_sampling},
        "seed": args.seed,
    }
    report = run_campaign(config_from_dict(doc))
    plan = report.plan_summary
    print(f"table size {plan['sigma_table_size']} "
          f"(analytic bound {plan['sigma_table_analytic_bound']:.1f})")
    for line in plan["preconditions"]:
        print(f"precondition {line}")
    print(f"trials={report.n_trials}  accuracy={report.accuracy:.3f}  "
          f"correct on genuine={report.rate('plwe')}  "
          f"correct on uniform={report.rate('uniform')}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.output}")


if __name__ == "__main__":
    main()
