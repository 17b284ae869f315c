#!/usr/bin/env python3
"""Benchmark of plwe-audit: seeded attack campaigns and the ring scan.

    python3 perfbench/run.py --workload trace_n23 --seed 1 --seconds 10 --trace 0

runs one workload from the root of a source checkout, against the package in
./src.  With --trace 0 it measures the end-to-end metrics untraced; with
--trace 1 it makes the traced run that splits the time across the layers and
writes the spans to perfbench/out/.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The lines before
it give every metric with its unit, the checks, the failed share and the
recorded environment (nproc, versions, thread cap, src/ line count, report
digests).

    python3 perfbench/run.py --workload all --seconds 1

is the smoke mode: it runs every workload in both modes, each in its own
process, prints a table, and fails unless every metric named in BENCHMARK.json
is printed with its unit and every check listed in workloads.json ran.

Workloads, their configs, checks and the prediction of which layer metric
should move which end-to-end metric live in perfbench/workloads.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# one BLAS/OpenMP thread per process: the pooled workload then uses exactly
# its worker count in cores and the sequential ones use one
THREAD_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _src_lines() -> int:
    total = 0
    for path in sorted((SRC / "plwe_audit").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_cap": {k: os.environ.get(k) for k in THREAD_CAP},
        "src_lines": _src_lines(),
    }


def run_one(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> int:
    bench = _load(ROOT / "BENCHMARK.json")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{name}.spans.tsv.gz"
        if spec["kind"] == "scan":
            run, metrics, info = workloads.trace_scan_workload(spec, seed, seconds, spans)
        else:
            run, metrics, info = workloads.trace_campaign_workload(spec, seed, seconds, spans)
        declared = bench["per_layer"]
        info["spans_file"] = str(spans.relative_to(ROOT))
    else:
        if spec["kind"] == "scan":
            run, metrics, info = workloads.run_scan_workload(spec, seed, seconds)
        else:
            run, metrics, info = workloads.run_campaign_workload(spec, seed, seconds)
        declared = bench["end_to_end"]

    run.checks["no_exceptions"] = run.raised == 0
    correct = all(run.checks.values())
    failed = run.attempted if not correct else run.raised
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    info.update(
        workload=name,
        seed=seed,
        trace=int(trace),
        checks=run.checks,
        failed_share=failed / run.attempted if run.attempted else 1.0,
        env=_environment(),
    )
    for key, metric in out.items():
        print(f"metric {key} = {metric['value']!r} {metric['unit']}")
    print(f"metric failed_share = {info['failed_share']!r} share")
    print("info " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": out,
            }
        )
    )
    return 0


def smoke(specs: dict, seed: int, seconds: float) -> int:
    """Run every workload in both modes as child processes and check that
    every declared metric and every listed check shows up."""
    bench = _load(ROOT / "BENCHMARK.json")
    problems: list[str] = []
    for name, spec in specs.items():
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            info_line = next((l for l in lines if l.startswith("info ")), "info {}")
            info = json.loads(info_line[5:])
            declared = bench["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = result["metrics"].get(m["name"])
                printed = any(l.startswith(f"metric {m['name']} = ") and l.endswith(f" {m['unit']}") for l in lines)
                if got is None or got["unit"] != m["unit"] or not printed:
                    problems.append(f"{name} trace={trace}: metric {m['name']} [{m['unit']}] missing")
            if set(result["metrics"]) != {m["name"] for m in declared}:
                problems.append(f"{name} trace={trace}: undeclared metrics printed")
            expected = ["no_exceptions"] + spec["checks"] + (spec["trace_checks"] if trace else [])
            missing = [c for c in expected if c not in info.get("checks", {})]
            if missing:
                problems.append(f"{name} trace={trace}: checks not run: {missing}")
            print(f"== {name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_share={info.get('failed_share')} checks={info.get('checks')}")
            for key, metric in result["metrics"].items():
                print(f"   {key:34s} {metric['value']:.6g} {metric['unit']}")
    for p in problems:
        print(f"SMOKE FAILURE: {p}", file=sys.stderr)
    print(f"smoke: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload of perfbench/workloads.json, or 'all' (smoke mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "plwe_audit" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'plwe_audit'}; run from a source checkout",
              file=sys.stderr)
        return 2
    specs = _load(HERE / "workloads.json")["workloads"]
    if args.workload == "all":
        return smoke(specs, args.seed, args.seconds)
    if args.workload not in specs:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(specs)} or 'all'")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return run_one(args.workload, specs[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    os.environ.update(THREAD_CAP)
    sys.exit(main())
