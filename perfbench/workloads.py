"""Workload runners and output checks of the benchmark.

A campaign op is one trial; a scan op is one scan_instance call.  The runners
call only public entry points (config_from_dict, build_plan, run_campaign,
scan_instance, load_ring_doc) and look them up through their modules, so the
tracer can wrap them.  Every check compares the program's output with a value
the benchmark works out on its own; a failed check fails every op of the run.

The host this was written on runs in speed states that last tens of seconds
and differ by up to 1.4x, so every timed call sits between two runs of a
fixed pure-Python probe, and the end-to-end times are scaled by
PROBE_REF_MS / (mean probe).  The unscaled figures go to the info line.
perfbench/README.md gives the measurements behind this.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import multiprocessing
import operator
import os
import random
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager
from time import perf_counter

from plwe_audit import analysis, attacks, campaign, instances, rings, samplers

from tracer import LAYERS, Tracer

MODULES = {
    "campaign": campaign,
    "samplers": samplers,
    "rings": rings,
    "attacks": attacks,
    "analysis": analysis,
}
DETERMINISM_TRIALS = 4
DETERMINISM_THREADS = 2
SETUP_MIN_REPS, SETUP_SHARE = 5, 0.1
# Timing metrics are scaled to a host on which host_probe_ms() reads this.
PROBE_REF_MS = 1.0


def resolve(path: list):
    """["USVA_INSTANCES", 1, "instance"] -> instances.USVA_INSTANCES[1]["instance"]."""
    return functools.reduce(operator.getitem, path[1:], getattr(instances, path[0]))


def campaign_seed(seed: int, call: int) -> int:
    """Master seed of the call-th campaign of a run."""
    return ((seed << 20) + call) % 2**64


def campaign_doc(spec: dict, seed: int, trials: int) -> dict:
    return {
        "instance": dict(resolve(spec["instance"])),
        "attack": {**spec["attack"], "trials": trials},
        "sampling": dict(spec["sampling"]),
        "seed": seed,
    }


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times the largest reaped child.

    Pool workers are forked and share pages with the parent, so the child
    term over-counts: the figure is a ceiling, not an exact sum."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0


def _fixed_count(rate: float, seconds: float) -> int:
    """Fixed op count of a traced run: rate ops per budget second."""
    return max(2, round(rate * seconds))


def _probe_loop_ms() -> float:
    """Fastest of three runs of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        best = min(best, perf_counter() - t0)
    return 1000.0 * best


def host_probe_ms(every_cpu: bool = False) -> float:
    """How fast the host runs at this moment, independent of the program:
    the probe loop where this process runs, or, with every_cpu, its mean
    over the CPUs this process may use (for pooled calls, which use them
    all).  The host's CPUs change speed independently of each other."""
    if not every_cpu:
        return _probe_loop_ms()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_loop_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def _probed(fn, every_cpu: bool = False):
    """fn() between two host probes: its result, its wall time, and the
    factor PROBE_REF_MS / (mean probe) that scales its times to the
    reference host speed."""
    before = host_probe_ms(every_cpu)
    t0 = perf_counter()
    value = fn()
    wall = perf_counter() - t0
    return value, wall, 2.0 * PROBE_REF_MS / (before + host_probe_ms(every_cpu))


def _timed_loop(run: "Run", call, setup, seconds: float, every_cpu: bool = False) -> dict:
    """Repeat call() until `seconds` have passed, at least once and until it
    returns False; call() adds its ops to `run`.  After each call, time
    setup() for SETUP_SHARE of that call's wall time, so the set-up samples
    spread over the run as the ops do.  Each call and each set-up block is
    probed, and its times are kept with their scale factor."""
    setup_raw: list[float] = []
    setup_scaled: list[float] = []
    scales: list[float] = []

    def setup_block(budget_s: float) -> list[float]:
        times = []
        deadline = perf_counter() + budget_s
        while True:
            t0 = perf_counter()
            setup()
            times.append(perf_counter() - t0)
            if perf_counter() >= deadline:
                return times

    def timed_setup(budget_s: float) -> None:
        times, _, scale = _probed(lambda: setup_block(budget_s))
        setup_raw.extend(times)
        setup_scaled.extend(t * scale for t in times)
        scales.append(scale)

    deadline = perf_counter() + seconds
    while True:
        n0, w0 = len(run.op_ms), run.wall_s
        ok, spent, scale = _probed(call, every_cpu)
        run.op_scale.extend([scale] * (len(run.op_ms) - n0))
        run.scaled_wall_s += (run.wall_s - w0) * scale
        scales.append(scale)
        timed_setup(SETUP_SHARE * spent)
        if not ok or perf_counter() >= deadline:
            break
    while len(setup_raw) < SETUP_MIN_REPS:
        timed_setup(0.0)
    return {
        "setup_s": statistics.median(setup_scaled),
        "raw_setup_s": statistics.median(setup_raw),
        "host_probe_ms": PROBE_REF_MS / statistics.median(scales),
    }


def _log_failure(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@contextmanager
def count_plan_builds():
    """Count campaign.build_plan calls, those in forked pool workers included.

    The counter lives in shared memory and the wrapper is bound before the
    pool forks, so workers inherit both; a pool that started its workers by
    spawning would not be counted."""
    counter = multiprocessing.Value(ctypes.c_long, 0)
    original = campaign.build_plan

    @functools.wraps(original)
    def counted(*args, **kwargs):
        with counter.get_lock():
            counter.value += 1
        return original(*args, **kwargs)

    campaign.build_plan = counted
    try:
        yield counter
    finally:
        campaign.build_plan = original


class Run:
    """Ops of one run: per-call rows, per-op wall times, the timed wall,
    attempted and raised op counts, and the checks done."""

    def __init__(self) -> None:
        self.batches: list[tuple[int, list]] = []  # (ops requested, outputs)
        self.op_ms: list[float] = []
        self.op_class: list[str] = []
        self.op_scale: list[float] = []
        self.wall_s = 0.0
        self.scaled_wall_s = 0.0
        self.attempted = 0
        self.raised = 0
        self.checks: dict[str, bool] = {}

    @property
    def rows(self) -> list:
        return [row for _, rows in self.batches for row in rows]

    def absorb(self, other: "Run") -> None:
        self.batches += other.batches
        self.attempted += other.attempted
        self.raised += other.raised

    def end_to_end(self, setup_s: float, rss_mb: float, scaled: bool = True) -> dict:
        """The end-to-end metrics; `scaled` applies each op's probe scale.

        op_ms_p50 is the mean of the per-class medians: a PLWE trial costs
        about twice a uniform one, so the pooled median would jump between
        the two modes with the coin's draw.  op_ms_p90 pools every op; it
        lies inside the slow mode."""
        op_ms = [ms * k for ms, k in zip(self.op_ms, self.op_scale)] if scaled else self.op_ms
        wall = self.scaled_wall_s if scaled else self.wall_s
        by_class: dict[str, list[float]] = {}
        for cls, ms in zip(self.op_class, op_ms):
            by_class.setdefault(cls, []).append(ms)
        p50 = statistics.fmean(statistics.median(v) for v in by_class.values()) if op_ms else 0.0
        p90 = statistics.quantiles(op_ms, n=10)[8] if len(op_ms) >= 2 else p50
        return {
            "ops_per_s": len(op_ms) / wall if wall else 0.0,
            "op_ms_p50": p50,
            "op_ms_p90": p90,
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }


# ---------------------------------------------------------------------------
# campaigns


def _campaign_call(spec: dict, seed: int, call: int, trials: int, threads: int, run: Run):
    """One timed run_campaign call; returns the report, or None if it raised."""
    cfg = campaign.config_from_dict(campaign_doc(spec, campaign_seed(seed, call), trials))
    run.attempted += trials
    t0 = perf_counter()
    try:
        report = campaign.run_campaign(cfg, threads=threads)
    except Exception:
        run.wall_s += perf_counter() - t0
        run.raised += trials
        _log_failure("run_campaign")
        return None
    run.wall_s += perf_counter() - t0
    run.batches.append((trials, report.trials))
    run.op_ms.extend(row["wall_time_ms"] for row in report.trials)
    run.op_class.extend(row["truth"] for row in report.trials)
    return report


def _check_campaign(spec: dict, run: Run) -> dict[str, bool]:
    rows = run.rows
    checks = {
        "rows_complete": bool(run.batches)
        and all([row["trial"] for row in rows_] == list(range(n)) for n, rows_ in run.batches),
        "no_error_rows": not any("error" in row for row in rows),
    }
    rows = [row for row in rows if "error" not in row]
    want = spec["check"]
    if "min_class_rate" in want:
        ok = True
        for truth in ("plwe", "uniform"):
            cls = [row for row in rows if row["truth"] == truth]
            right = sum(row["outcome"]["verdict"] == truth for row in cls)
            ok &= bool(cls) and right >= want["min_class_rate"] * len(cls)
        checks["class_rates"] = ok
    if "min_identity_share" in want:
        # the README's permutation identity: a sample with invertible a(alpha)
        # contributes exactly |quarter interval| hits
        q = resolve(spec["instance"])["q"]
        quarter = sum(1 for v in range(q) if 4 * v < q or 4 * v >= 3 * q)
        expected = spec["attack"]["ell"] * quarter
        same = sum(row["outcome"]["votes"] == expected for row in rows)
        checks["votes_identity"] = bool(rows) and same >= want["min_identity_share"] * len(rows)
    if "calls_per_sample_rel_tol" in want:
        q, n = resolve(spec["instance"])["q"], spec["attack"]["n"]
        calls = sum(row["oracle_invocations"] for row in rows)
        accepted = sum(row["samples_used"] for row in rows)
        expect = q ** (n - 1)
        tol = want["calls_per_sample_rel_tol"]
        checks["oracle_calls_per_sample"] = accepted > 0 and abs(calls / accepted - expect) <= tol * expect
    return checks


def _check_determinism(spec: dict, seed: int) -> tuple[bool, str]:
    """A pooled campaign's digest must equal the sequential one."""
    doc = campaign_doc(spec, campaign_seed(seed, 0), DETERMINISM_TRIALS)
    try:
        pooled = campaign.run_campaign(campaign.config_from_dict(doc), threads=DETERMINISM_THREADS)
        seq = campaign.run_campaign(campaign.config_from_dict(doc), threads=1)
    except Exception:
        _log_failure("determinism check")
        return False, ""
    digest = seq.digest_json()
    return pooled.digest_json() == digest, hashlib.sha256(digest.encode()).hexdigest()


def run_campaign_workload(spec: dict, seed: int, seconds: float):
    """Untraced run: whole campaign calls until `seconds` have passed, with
    set-up timed between them, then the checks outside the timed region."""
    threads, per_call = spec["threads"], spec["trials_per_call"]
    doc = campaign_doc(spec, campaign_seed(seed, 0), per_call)
    run = Run()
    timing = _timed_loop(
        run,
        lambda: _campaign_call(spec, seed, len(run.batches), per_call, threads, run) is not None,
        lambda: campaign.build_plan(campaign.config_from_dict(doc)),
        seconds,
        every_cpu=threads > 1,
    )
    rss = peak_rss_mb(threads)
    metrics = run.end_to_end(timing["setup_s"], rss)
    run.checks = _check_campaign(spec, run)
    run.checks["determinism"], digest = _check_determinism(spec, seed)
    info = {
        "digest_sha256": digest,
        "campaign_calls": len(run.batches),
        "host_probe_ms": timing["host_probe_ms"],
        "unscaled": run.end_to_end(timing["raw_setup_s"], rss, scaled=False),
    }
    return run, metrics, info


def trace_campaign_workload(spec: dict, seed: int, seconds: float, spans_path):
    """Traced run.  Phase A: the workload's own thread count, untraced, with
    plan builds counted.  Phase B: the traced trials untraced with threads=1
    (phase A itself when the workload is sequential).  Phase C: the phase-B
    trials again, in process, under the tracer."""
    threads = spec["threads"]
    n_traced = _fixed_count(spec["traced_trials_per_second"], seconds)
    pooled = threads > 1
    n_a = _fixed_count(spec["pool_trials_per_second"], seconds) if pooled else n_traced

    phase_a = Run()
    with count_plan_builds() as builds:
        _, _, scale_b = _probed(lambda: _campaign_call(spec, seed, 0, n_a, threads, phase_a), pooled)
    phase_b = Run() if pooled else phase_a
    if pooled:
        _, _, scale_b = _probed(lambda: _campaign_call(spec, seed, 1, n_traced, 1, phase_b))

    cfg = campaign.config_from_dict(campaign_doc(spec, campaign_seed(seed, int(pooled)), n_traced))
    phase_c = Run()
    phase_c.attempted = n_traced
    tracer = Tracer()

    def traced_call():
        tracer.install(MODULES)
        t0 = perf_counter()
        try:
            return campaign.run_campaign(cfg, threads=1)
        except Exception:
            _log_failure("traced run_campaign")
            return None
        finally:
            phase_c.wall_s = perf_counter() - t0
            tracer.uninstall()

    traced, _, scale_c = _probed(traced_call)
    tracer.write(spans_path)
    if traced is None:
        phase_c.raised = n_traced
    else:
        phase_c.batches.append((n_traced, traced.trials))

    run = Run()
    for phase in (phase_a, phase_b, phase_c) if pooled else (phase_a, phase_c):
        run.absorb(phase)
    run.checks = _check_campaign(spec, run)
    run.checks["traced_rows_match"] = traced is not None and [
        _strip_time(row) for row in traced.trials
    ] == [_strip_time(row) for row in phase_b.rows]
    run.checks["determinism"], digest = _check_determinism(spec, seed)

    summary = tracer.summary()
    run.checks["self_times_sum"] = _self_sum_ok(summary)
    metrics = _layer_metrics(summary, phase_c.wall_s * scale_c, phase_b.wall_s * scale_b)
    metrics["campaign.plan_builds"] = builds.value
    metrics["campaign.pool_overhead_s"] = phase_a.wall_s - sum(phase_a.op_ms) / 1000.0 / threads
    info = {
        "digest_sha256": digest,
        "layer_calls": summary["layer_calls"],
        "phase_a_trials": n_a,
        "traced_trials": n_traced,
        "spans": len(tracer.spans),
    }
    return run, metrics, info


def _strip_time(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "wall_time_ms"}


# ---------------------------------------------------------------------------
# scan


def _scan_inputs(spec: dict) -> list:
    return [(ring, rings.load_ring_doc(resolve(ring["ring"]))) for ring in spec["rings"]]


def _scan_passes(inputs, shuffle: random.Random, passes: int, run: Run, first: list) -> bool:
    """Scan every ring `passes` times, each pass in an order drawn from
    `shuffle`.  A pass is kept as the digest of its reports, and `first`
    receives the first pass's reports.  False when a scan raised."""
    for _ in range(passes):
        order = list(range(len(inputs)))
        shuffle.shuffle(order)
        reports: list = [None] * len(inputs)
        for i in order:
            ring, ctx = inputs[i]
            run.attempted += 1
            t0 = perf_counter()
            try:
                reports[i] = analysis.scan_instance(ctx, ring["sigma"], False)
            except Exception:
                run.wall_s += perf_counter() - t0
                run.raised += 1
                _log_failure(f"scan_instance({ring['name']})")
                return False
            dt = perf_counter() - t0
            run.wall_s += dt
            run.op_ms.append(1000.0 * dt)
            run.op_class.append("scan")
        if not first:
            first.extend(reports)
        blob = json.dumps([report.to_dict() for report in reports], sort_keys=True)
        run.batches.append((len(inputs), hashlib.sha256(blob.encode()).hexdigest()))
    return True


def _horner(coeffs: list[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _order(a: int, q: int) -> int:
    r, x = 1, a % q
    while x != 1:
        x, r = x * a % q, r + 1
    return r


def _divides_binomial(f: list[int], n: int, a: int, q: int) -> bool:
    """x^n - a divides f mod q: fold f by x^n = a and test the remainder."""
    rem = [0] * n
    power = 1
    for t in range(0, len(f), n):
        for j, c in enumerate(f[t : t + n]):
            rem[j] = (rem[j] + c * power) % q
        power = power * a % q
    return not any(rem)


def _planted_ok(ring: dict, report) -> bool:
    doc, expect = resolve(ring["ring"]), ring["expect"]
    q, f = doc["q"], doc["f"]
    if "root" in expect:
        alpha, order = expect["root"], expect["order"]
        return (
            _horner(f, alpha, q) == 0
            and _order(alpha, q) == order
            and any(rt.alpha == alpha and rt.order == order for rt in report.roots)
        )
    n, a = expect["divisor"]
    order = expect["order"]
    return (
        _divides_binomial(f, n, a, q)
        and _order(a, q) == order
        and any(fc.n == n and fc.a == a and fc.order == order for fc in report.factors)
    )


def _check_scan(spec: dict, run: Run, first: list) -> dict[str, bool]:
    """Planted points against direct evaluation, the cyclotomic-style ring
    against the flags, and every pass against the first."""
    if not first:
        return {name: False for name in spec["checks"]}
    planted, no_attack = True, True
    for ring, report in zip(spec["rings"], first):
        if ring["expect"].get("no_attack"):
            flags = [fl for pt in report.roots + report.factors for fl in pt.flags]
            no_attack = bool(flags) and not any(fl.applicable for fl in flags)
        else:
            planted &= _planted_ok(ring, report)
    return {
        "planted_points": planted,
        "no_attack_on_cyclotomic": no_attack,
        "repeatable": len({digest for _, digest in run.batches}) == 1,
    }


def run_scan_workload(spec: dict, seed: int, seconds: float):
    """Untraced run: calls of passes_per_call passes until `seconds` have
    passed, with set-up (parsing the ring documents) timed between them."""
    inputs = _scan_inputs(spec)
    shuffle = random.Random(seed)
    run, first = Run(), []
    timing = _timed_loop(
        run,
        lambda: _scan_passes(inputs, shuffle, spec["passes_per_call"], run, first),
        lambda: _scan_inputs(spec),
        seconds,
    )
    rss = peak_rss_mb(1)
    metrics = run.end_to_end(timing["setup_s"], rss)
    run.checks = _check_scan(spec, run, first)
    info = {
        "digest_sha256": run.batches[0][1] if run.batches else "",
        "scan_passes": len(run.batches),
        "host_probe_ms": timing["host_probe_ms"],
        "unscaled": run.end_to_end(timing["raw_setup_s"], rss, scaled=False),
    }
    return run, metrics, info


def trace_scan_workload(spec: dict, seed: int, seconds: float, spans_path):
    """Untraced passes, then the same passes in the same order traced."""
    passes = _fixed_count(spec["traced_passes_per_second"], seconds)
    inputs = _scan_inputs(spec)
    plain, traced, first = Run(), Run(), []
    _, _, scale_plain = _probed(lambda: _scan_passes(inputs, random.Random(seed), passes, plain, first))
    tracer = Tracer()

    def traced_passes():
        tracer.install(MODULES)
        try:
            _scan_passes(inputs, random.Random(seed), passes, traced, first)
        finally:
            tracer.uninstall()

    _, _, scale_traced = _probed(traced_passes)
    tracer.write(spans_path)
    run = Run()
    run.absorb(plain)
    run.absorb(traced)
    run.checks = _check_scan(spec, run, first)
    digest = run.batches[0][1] if run.batches else ""
    summary = tracer.summary()
    run.checks["self_times_sum"] = _self_sum_ok(summary)
    metrics = _layer_metrics(summary, traced.wall_s * scale_traced, plain.wall_s * scale_plain)
    metrics["campaign.plan_builds"] = 0
    metrics["campaign.pool_overhead_s"] = 0.0
    info = {
        "digest_sha256": digest,
        "layer_calls": summary["layer_calls"],
        "traced_passes": passes,
        "spans": len(tracer.spans),
    }
    return run, metrics, info


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_sum_ok(summary: dict) -> bool:
    """The layer self times add up to the wall time of the root spans."""
    total = sum(summary["layer_self_s"].values())
    wall = summary["root_wall_s"]
    return wall > 0 and abs(total - wall) <= 1e-6 * wall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(summary: dict, traced_wall: float, untraced_wall: float) -> dict:
    calls, incl, own, counts = summary["calls"], summary["incl_s"], summary["self_s"], summary["counts"]
    out = {f"{layer}.self_s": summary["layer_self_s"][layer] for layer in LAYERS}
    out.update(
        {
            "campaign.run_trial.self_s": own["campaign.run_trial"],
            "campaign.build_plan.s": incl["campaign.build_plan"],
            "samplers.oracle_calls": counts["oracle_calls"],
            "samplers.accept_ratio": _ratio(counts["accepted"], counts["oracle_calls"]),
            "rings.poly.calls": calls["rings.poly"],
            "rings.poly.s": incl["rings.poly"],
            "rings.ring_mul.calls": calls["rings.ring_mul"],
            "rings.ring_mul.s": incl["rings.ring_mul"],
            "rings.rq0_membership.calls": calls["rings.rq0_membership"],
            "rings.rq0_membership.s": incl["rings.rq0_membership"],
            "rings.find_fq_roots.s": incl["rings.find_fq_roots"],
            "rings.find_binomial_factors.s": incl["rings.find_binomial_factors"],
            "attacks.calls": counts["basic_attacks"],
            "attacks.chunks_voting_ratio": _ratio(counts["chunks_voting"], counts["chunks_run"]),
            "analysis.monte_carlo_delta.s": incl["analysis.monte_carlo_delta"],
            "analysis.scan_instance.self_s": own["analysis.scan_instance"],
            "trace.wall_s": summary["root_wall_s"],
            "trace.overhead_share": 1.0 - _ratio(untraced_wall, traced_wall),
        }
    )
    return out
