#!/usr/bin/env python3
"""Scan the bundled demonstration rings and print what each one exposes."""

import argparse
import json

from plwe_audit.analysis import scan_instance
from plwe_audit.instances import (
    KYBER_STYLE_RING,
    TRACE_INSTANCE_A,
    TRACE_INSTANCE_B,
    USVA_INSTANCES,
)
from plwe_audit.rings import load_ring_doc


def describe(name, instance_doc):
    ctx = load_ring_doc(instance_doc)
    sigma, truncated = instance_doc["sigma"], instance_doc["truncated"]
    report = scan_instance(ctx, sigma, truncated)
    print(f"== {name}: N={ctx.N}, q={ctx.q}, sigma={sigma}, truncated={truncated}")
    if report.is_empty():
        print("   nothing exploitable found")
        return report
    for root in report.roots:
        live = [f.attack for f in root.flags if f.applicable]
        print(f"   root alpha={root.a} (order {root.blocks.order}, {root.to_dict()['case']}, "
              f"sigma_bar={root.blocks.sigma_bar:.4g}) -> {live or 'no attack applies'}")
    for fac in report.factors:
        live = [f.attack for f in fac.flags if f.applicable]
        print(f"   divisor x^{fac.n} - {fac.a} (order {fac.blocks.order}) "
              f"-> {live or 'no attack applies'}")
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None, help="dump all reports here")
    args = parser.parse_args()

    reports = {}
    reports["trace_ring_a"] = describe("trace ring A", TRACE_INSTANCE_A["instance"])
    reports["trace_ring_b"] = describe("trace ring B", TRACE_INSTANCE_B["instance"])
    for i, doc in enumerate(USVA_INSTANCES, start=1):
        reports[f"unbounded_{i}"] = describe(f"unbounded demo {i}", doc["instance"])
    # the bundled cyclotomic-style ring is a bare ring document
    reports["cyclotomic_style"] = describe(
        "cyclotomic-style ring", {**KYBER_STYLE_RING, "sigma": 2.0, "truncated": False})

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({k: v.to_dict() for k, v in reports.items()}, fh, indent=2)
        print(f"reports written to {args.json}")


if __name__ == "__main__":
    main()
