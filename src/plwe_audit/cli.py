"""Command-line front end.

Subcommands:
  scan     enumerate vulnerable roots/divisors of an instance and flag attacks
  attack   run a seeded Monte Carlo attack campaign
  analyze  print the probability report and sample-count tables for a root
  replay   re-run one attack on a recorded sample file

Exit codes: 0 success, 2 malformed configuration, option value or path, 3
refused precondition, 141 standard output closed before the report was
printed (128 + SIGPIPE; the --output file is written first).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager

from .analysis import (
    PointVuln,
    assess_point,
    f_of_r,
    minimal_samples,
    quarter_count,
    scan_instance,
)
from .campaign import (
    ConfigError,
    PreconditionRefused,
    build_plan,
    check_ring,
    config_from_dict,
    instance_from_dict,
    load_samples,
    mc_delta,
    open_path,
    point_from_dict,
    read_config,
    resolve_point,
    run_attack_once,
    run_campaign,
    section,
    seed_from_dict,
    table_cap_from_dict,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUSED = 3
EXIT_PIPE = 141  # 128 + SIGPIPE


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
                    help="processes that run the trials, 1 to the CPU count")
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
                    help="report the minimal sample count reaching this posterior in (0, 1)")
    sp.add_argument("--f-of-r-csv", default=None,
                    help="write a (ratio, value) grid of the series to this CSV")
    sp.add_argument("--mc-check", action="store_true",
                    help="cross-check the series against the Monte Carlo oracle")

    sp = sub.add_parser("replay", help="re-run an attack on recorded samples")
    common(sp)
    sp.add_argument("samples", help="line-JSON sample file")
    return p


@contextmanager
def _output(args):
    """The --output file (None without the option), opened before the
    command runs, so a path that cannot be written is refused first.  It
    is opened to append, which leaves an existing file as it is until
    _render rewrites it; a file that a failed command created is removed."""
    if not args.output:
        yield None
        return
    existed = os.path.exists(args.output)
    newline = "" if args.format == "csv" else None
    with open_path(args.output, "a", "--output", newline=newline) as fh:
        try:
            yield fh
        except BaseException:
            if not existed:
                os.remove(args.output)
            raise


def _render(doc: dict, args, out) -> str:
    """doc as JSON, for standard output; out, when given, is rewritten in
    args.format first."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if out is not None:
        out.truncate(0)
        if args.format == "json":
            out.write(text + "\n")
        else:
            _write_csv(out, doc)
    return text


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


def _write_csv(out, doc: dict) -> None:
    flat = _flatten(doc)
    writer = csv.writer(out)
    writer.writerow(["key", "value"])
    for k in sorted(flat):
        writer.writerow([k, flat[k]])


def _cmd_scan(args) -> dict:
    if args.n_max < 1:
        raise ConfigError(f"--n-max: must be >= 1, got {args.n_max}")
    doc = _read_config(args)
    ring, gauss = instance_from_dict(doc)
    check_ring(ring)
    report = scan_instance(
        ring, gauss.sigma, gauss.truncated, n_max=args.n_max,
        table_cap=table_cap_from_dict(doc),
    )
    return report.to_dict()


def _cmd_attack(args) -> dict:
    cpus = os.cpu_count() or 1
    if not 1 <= args.threads <= cpus:
        raise ConfigError(f"--threads: must be in 1..{cpus} (the CPU count), got {args.threads}")
    cfg = config_from_dict(_read_config(args))
    report = run_campaign(cfg, threads=args.threads, record=args.record_samples)
    return report.to_dict()


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


def _cmd_analyze(args) -> dict:
    if args.min_M is not None and not 0 < args.min_M < 1:
        raise ConfigError(f"--min-M: must lie in (0, 1), got {args.min_M}")
    doc = _read_config(args)
    ring, gauss = instance_from_dict(doc)
    sigma, truncated = gauss.sigma, gauss.truncated
    n, a = point_from_dict(section(doc.get("attack", {}), "attack"), ring.N)
    point, blocks = resolve_point(ring, sigma, n, a)
    q = ring.q
    flags = assess_point(q, point.n, blocks, sigma, truncated, table_cap_from_dict(doc))
    small_set, small_values, unbounded = flags
    out = {
        "q": q,
        **PointVuln(point.n, point.a, blocks, flags).to_dict(),
        **{k: unbounded.details[k] for k in ("p_event", "delta", "big_delta", "ratio")},
        "warnings": [],
    }
    if small_values.applicable:
        out["warnings"].append(
            f"{small_values.condition}: the error image fits in the quarter interval, "
            "so the bounded small-values attack applies instead"
        )
    if args.mc_check:
        mc = mc_delta(q, blocks.sigma_bar, seed_from_dict(doc))
        out["delta_mc"] = mc
        if abs(mc - out["delta"]) > 2e-3:
            out["warnings"].append(
                f"series delta {out['delta']:.6f} disagrees with the Monte Carlo "
                f"oracle {mc:.6f}; trust the oracle for campaign thresholds"
            )
    if args.min_M is not None:
        out["min_M"] = {
            "target": args.min_M,
            "small_values": minimal_samples(q, quarter_count(q), 1, truncated, args.min_M),
        }
        # the closed form's least M, whether or not the flag holds
        size, r = small_set.details["analytic_bound"], small_set.details["r"]
        if size is not None and size < q:
            out["min_M"]["small_set"] = minimal_samples(q, size, r, truncated, args.min_M)
    if args.f_of_r_csv:
        grid = [4.0 * 2.0**0.5 * (i + 1) / 1000.0 for i in range(1000)]
        with open_path(args.f_of_r_csv, "w", "--f-of-r-csv", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ratio", "f"])
            for ratio in grid:
                writer.writerow([f"{ratio:.6f}", f"{f_of_r(ratio):.12f}"])
        out["f_of_r_csv"] = args.f_of_r_csv
    return out


def _cmd_replay(args) -> dict:
    cfg = config_from_dict(_read_config(args))
    plan = build_plan(cfg)
    outcome = run_attack_once(plan, load_samples(args.samples, plan))
    return outcome.to_dict()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "scan": _cmd_scan,
        "attack": _cmd_attack,
        "analyze": _cmd_analyze,
        "replay": _cmd_replay,
    }
    try:
        if args.format == "csv" and not args.output:
            raise ConfigError("--format: csv needs --output, the file the CSV is written to")
        with _output(args) as out:
            text = _render(handlers[args.command](args), args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the recipe of Python's signal docs: stdout goes to devnull, so
        # the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
