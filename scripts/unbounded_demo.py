#!/usr/bin/env python3
"""Unbounded small-values attack demo.

Runs the unbounded attack twice and prints both of its statistics per class:
the paper's aggregate count C = sum_g h_g against its threshold T, and the
best per-candidate hit count max_g h_g against tau, which decides.  On a
small modulus zero evaluations of a(x) are frequent enough to move C; on the
large-modulus instance C is frozen at ell*(q+1)/2 (each sample with
invertible a(alpha) contributes a constant number of hits), while the best
candidate still separates the classes.
"""

import argparse

from plwe_audit.campaign import config_from_dict, run_campaign
from plwe_audit.instances import USVA_INSTANCES


def _span(report, truth, key):
    values = [t["outcome"][key] for t in report.trials if t["truth"] == truth]
    return f"{min(values)}..{max(values)}" if values else "-"


def run(name, doc):
    report = run_campaign(config_from_dict(doc))
    outcome = report.trials[0]["outcome"]
    print(f"== {name}")
    print(f"   delta (Monte Carlo) = {report.plan_summary['delta']:.4f}")
    print(f"   aggregate count C: genuine {_span(report, 'plwe', 'votes')}, "
          f"uniform {_span(report, 'uniform', 'votes')} (T = {outcome['threshold']})")
    print(f"   best candidate max_g h_g: genuine {_span(report, 'plwe', 'best_hits')}, "
          f"uniform {_span(report, 'uniform', 'best_hits')} "
          f"(tau = {outcome['hit_threshold']}, decides)")
    print(f"   accuracy {report.accuracy:.3f} over {report.n_trials} trials "
          f"(genuine {report.rate('plwe')}, uniform {report.rate('uniform')})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    small_q = {
        "instance": {
            "N": 8,
            "f": [14, 2, 0, 0, 0, 0, 0, 0, 1],  # x^8 + 2x + 14, root -1 mod 13
            "q": 13,
            "sigma": 1.0,
            "truncated": False,
        },
        "attack": {"family": "unbounded_small_values",
                   "alpha": 12, "ell": 60, "delta": "mc", "trials": args.trials},
        "seed": args.seed,
    }
    run("q = 13 (aggregate count moves)", small_q)

    large_q = {
        "instance": dict(USVA_INSTANCES[1]["instance"]),
        "attack": {"family": "unbounded_small_values",
                   "alpha": USVA_INSTANCES[1]["alpha"], "ell": 50,
                   "delta": "mc", "trials": args.trials},
        "seed": args.seed,
    }
    run("q = 3677 (aggregate count frozen at ell*(q+1)/2)", large_q)


if __name__ == "__main__":
    main()
