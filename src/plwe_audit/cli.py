"""Command-line front end.

Subcommands:
  scan     enumerate vulnerable roots/divisors of an instance and flag attacks
  attack   run a seeded Monte Carlo attack campaign
  analyze  print the probability report and sample-count tables for a root
  replay   re-run one attack on a recorded sample file

Exit codes: 0 success, 2 malformed configuration, 3 refused precondition.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .analysis import (
    delta_probability,
    f_of_r_table,
    minimal_samples,
    monte_carlo_delta,
    point_keys,
    scan_instance,
    small_set_size,
    small_values_flag,
)
from .campaign import (
    ConfigError,
    PreconditionRefused,
    build_plan,
    check_ring,
    config_from_dict,
    instance_from_dict,
    load_samples,
    point_from_dict,
    read_config,
    resolve_point,
    run_attack_once,
    run_campaign,
    save_samples,
    section,
    seed_from_dict,
    table_cap_from_dict,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUSED = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="plwe-audit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--output", default=None, help="write the report here")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("scan", help="vulnerability scan of an instance")
    common(sp)
    sp.add_argument("--n-max", type=int, default=4, help="max extension degree")

    sp = sub.add_parser("attack", help="run an attack campaign")
    common(sp)
    sp.add_argument("--trials", type=int, default=None, help="override trial count")
    sp.add_argument("--threads", type=int, default=1,
                    help="worker processes, 1 to the CPU count")
    sp.add_argument(
        "--honest-sampling",
        action="store_true",
        help="use rejection sampling for trace campaigns instead of direct construction",
    )
    sp.add_argument(
        "--record-samples", default=None, help="write trial samples to this JSONL file"
    )

    sp = sub.add_parser("analyze", help="probability report and bound tables")
    common(sp)
    sp.add_argument("--min-M", type=float, default=None, metavar="TARGET",
                    help="report the minimal sample count reaching this posterior")
    sp.add_argument("--f-of-r-csv", default=None,
                    help="write a (ratio, value) grid of the series to this CSV")
    sp.add_argument("--mc-check", action="store_true",
                    help="cross-check the series against the Monte Carlo oracle")

    sp = sub.add_parser("replay", help="re-run an attack on recorded samples")
    common(sp)
    sp.add_argument("samples", help="line-JSON sample file")
    return p


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.output:
        if args.format == "json":
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            _write_csv(args.output, doc)


def _flatten(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for k, v in doc.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, key + "."))
        elif isinstance(v, list):
            flat[key] = json.dumps(v)
        else:
            flat[key] = v
    return flat


def _write_csv(path: str, doc: dict) -> None:
    flat = _flatten(doc)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        for k in sorted(flat):
            writer.writerow([k, flat[k]])


def _cmd_scan(args) -> int:
    doc = _read_config(args)
    ring, gauss = instance_from_dict(doc.get("instance", doc))
    check_ring(ring)
    report = scan_instance(
        ring, gauss.sigma, gauss.truncated, n_max=args.n_max,
        table_cap=table_cap_from_dict(doc),
    )
    _emit(report.to_dict(), args)
    return EXIT_OK


def _cmd_attack(args) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.threads <= cpus:
        raise ConfigError(f"--threads: must be in 1..{cpus} (the CPU count), got {args.threads}")
    cfg = config_from_dict(_read_config(args))
    record: list | None = [] if args.record_samples else None
    report = run_campaign(cfg, threads=args.threads, record=record)
    if record is not None:
        save_samples(args.record_samples, record)
    doc = report.to_dict()
    _emit(doc, args)
    return EXIT_OK


def _read_config(args) -> dict:
    """The config file's JSON object with the command-line overrides; every
    command reads its config through here."""
    doc = read_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        section(doc.setdefault("attack", {}), "attack")["trials"] = args.trials
    if getattr(args, "honest_sampling", False):
        section(doc.setdefault("sampling", {}), "sampling")["honest"] = True
    return doc


def _cmd_analyze(args) -> int:
    doc = _read_config(args)
    ring, gauss = instance_from_dict(doc.get("instance", doc))
    sigma, truncated = gauss.sigma, gauss.truncated
    n, a = point_from_dict(section(doc.get("attack", {}), "attack"), ring.N)
    point, blocks = resolve_point(ring, sigma, n, a)
    q = ring.q
    prob = delta_probability(q, blocks.sigma_bar)
    out = {
        "q": q,
        **point_keys(n, point.a.value, blocks),
        "p_event": prob.p_event,
        "delta": prob.delta,
        "big_delta": prob.big_delta,
        "ratio": prob.ratio,
        "warnings": [],
    }
    fits = small_values_flag(q, truncated, blocks.sigma_bar, point.n)
    if fits.applicable:
        out["warnings"].append(
            f"{fits.condition}: the error image fits in the quarter interval, "
            "so the bounded small-values attack applies instead"
        )
    if args.mc_check:
        rng = np.random.default_rng(seed_from_dict(doc))
        mc = monte_carlo_delta(q, blocks.sigma_bar, rng)
        out["delta_mc"] = mc
        if abs(mc - prob.delta) > 2e-3:
            out["warnings"].append(
                f"series delta {prob.delta:.6f} disagrees with the Monte Carlo "
                f"oracle {mc:.6f}; trust the oracle for campaign thresholds"
            )
    if args.min_M is not None:
        out["min_M"] = {
            "target": args.min_M,
            "small_values": minimal_samples(
                "small_values", truncated, args.min_M, q=q
            ),
        }
        size = small_set_size(blocks.r_eff, blocks.blocklen, sigma).analytic
        if blocks.order and size < q:
            out["min_M"]["small_set"] = minimal_samples(
                "small_set", truncated, args.min_M, q=q, sigma_size=size, r=blocks.r_eff
            )
    if args.f_of_r_csv:
        grid = [4.0 * 2.0**0.5 * (i + 1) / 1000.0 for i in range(1000)]
        with open(args.f_of_r_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ratio", "f"])
            for r_val, f_val in f_of_r_table(grid):
                writer.writerow([f"{r_val:.6f}", f"{f_val:.12f}"])
        out["f_of_r_csv"] = args.f_of_r_csv
    _emit(out, args)
    return EXIT_OK


def _cmd_replay(args) -> int:
    cfg = config_from_dict(_read_config(args))
    plan = build_plan(cfg)
    outcome = run_attack_once(plan, load_samples(args.samples, plan).pairs(plan.point))
    _emit(outcome.to_dict(), args)
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "scan": _cmd_scan,
        "attack": _cmd_attack,
        "analyze": _cmd_analyze,
        "replay": _cmd_replay,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
