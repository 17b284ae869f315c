"""Seeded Monte Carlo attack campaigns.

A campaign runs many independent trials against one ring instance.  Each trial
tosses a fair coin for the ground truth (PLWE with a fresh secret, or plain
uniform pairs), derives a private random stream from (master seed, trial
index), generates its samples, runs the configured attack, and records verdict
versus truth.  Reports are deterministic functions of (config, seed): the JSON
digest excludes only wall-clock fields.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np

from . import analysis
from .analysis import (
    block_structure,
    delta_probability,
    magnitude,
    monte_carlo_delta,
    posterior_bounds,
    quarter_mask,
    small_set_budget,
    small_set_size,
    small_values_flag,
    unbounded_flag,
)
from .attacks import (
    AttackVerdict,
    TableTooLarge,
    build_sigma_table_trace,
    extended_attack,
    small_set_attack,
    unbounded_small_values_attack,
)
from .fields import ExtFieldCtx, echo_int
from .rings import (
    RqContext,
    eval_matrix,
    exact_int,
    load_ring_doc,
    require_int64_sums,
    require_table_modulus,
)
from .samplers import (
    DEFAULT_RQ0_BUDGET,
    NORMAL_DRAW_MAX,
    BudgetExhausted,
    GaussianSpec,
    NonMemberSample,
    Pairs,
    SampleBatch,
    p0_of,
    sample_batch,
)


class ConfigError(Exception):
    """Malformed experiment configuration; the message names the field."""


class PreconditionRefused(Exception):
    """An attack precondition failed; the message shows both sides."""


BASIC_FAMILIES = ("small_set", "small_values")
SMALL_SET_FAMILIES = ("small_set", "extended_small_set")
EXTENDED_FAMILIES = ("extended_small_set", "extended_small_values")
FAMILIES = BASIC_FAMILIES + EXTENDED_FAMILIES + ("unbounded_small_values",)


@dataclass(frozen=True)
class AttackSpec:
    family: str
    # point_from_dict's point: the root of y^n - a, an F_q root alpha as (1, alpha)
    n: int
    a: int
    M: int = 0  # samples per trial; attack.ell for the unbounded family
    M0: int = 0
    delta: float | str = "series"
    trials: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    ring: RqContext
    gauss: GaussianSpec
    attack: AttackSpec
    seed: int
    honest_sampling: bool = False
    table_cap: int = analysis.DEFAULT_TABLE_CAP
    rq0_budget: int = DEFAULT_RQ0_BUDGET
    raw: dict = field(default_factory=dict, compare=False, repr=False)


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}.{key}: missing")
    return doc[key]


def section(value, name: str) -> dict:
    """value when it is a JSON object; anything else names the field."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected a JSON object, got {type(value).__name__}")
    return value


def int_field(
    value, name: str, optional: bool = False, low: int | None = None, high: int | None = None
) -> Optional[int]:
    """rings.exact_int(value) within [low, high); a value that is no integer
    or out of range names the field.  Optional fields pass None through."""
    if optional and value is None:
        return None
    try:
        number = exact_int(value, name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if low is not None and number < low:
        raise ConfigError(f"{name}: must be >= {low}, got {echo_int(number)}")
    if high is not None and number >= high:
        raise ConfigError(f"{name}: must be < {high}, got {echo_int(number)}")
    return number


def _is_number(value) -> bool:
    """Whether value is a JSON number: an int or a float, not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def bool_field(value, name: str) -> bool:
    """value when it is a JSON boolean; anything else names the field."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name}: expected true or false, got {value!r}")
    return value


def open_path(path: str, mode: str, name: str, **kw) -> TextIO:
    """The file at path, opened in mode as UTF-8 text; an OSError (a missing
    file, a directory, no permission) is a ConfigError naming the path."""
    try:
        return open(path, mode, encoding="utf-8", **kw)
    except OSError as exc:
        raise ConfigError(f"{name} {path}: {exc.strerror or exc}") from exc


def read_config(path: str) -> dict:
    """The JSON object in a config file; an unreadable file, invalid JSON or
    any other top-level value is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError included
        raise ConfigError(f"config: {exc}") from exc
    return section(doc, "config")


def instance_from_dict(doc: dict) -> tuple[RqContext, GaussianSpec]:
    """The ring and the error distribution of a config's instance section,
    which every command reads."""
    inst = section(_need(doc, "instance", "config"), "instance")
    try:
        ring = load_ring_doc(inst)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"instance: {exc}") from exc
    sigma = _need(inst, "sigma", "instance")
    truncated = bool_field(_need(inst, "truncated", "instance"), "instance.truncated")
    if not _is_number(sigma):
        raise ConfigError(f"instance.sigma: expected a number, got {sigma!r}")
    try:
        gauss = GaussianSpec(float(sigma), truncated)
        # sigma_bar^2 = sigma^2 * sum count*w^2 lies in [sigma^2, sigma^2*N*q^2]
        square = gauss.sigma * gauss.sigma
        if not square > 0:
            raise ValueError(f"need sigma*sigma > 0, got sigma = {gauss.sigma!r}")
        if not math.isfinite(square * ring.N * ring.q * ring.q):
            raise ValueError(f"need sigma*sigma*N*q*q finite, got sigma = {gauss.sigma!r}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"instance.sigma: {exc}") from exc
    return ring, gauss


def seed_from_dict(doc: dict) -> int:
    return int_field(doc.get("seed", 0), "seed", low=0, high=2**64)


def table_cap_from_dict(doc: dict) -> int:
    cap = doc.get("table_cap", analysis.DEFAULT_TABLE_CAP)
    return int_field(cap, "table_cap", low=1, high=2**63)


def _delta(value) -> float | str:
    """attack.delta: "series" when missing (or null), "mc", or a number."""
    if value is None or value in ("series", "mc"):
        return value or "series"
    if not _is_number(value):
        raise ConfigError(f"attack.delta: expected a number, 'series' or 'mc', got {value!r}")
    if not -0.5 <= value <= 0.5:
        # delta = P(error image in quarter interval) - 1/2
        raise ConfigError(f"attack.delta: must lie in [-1/2, 1/2], got {value!r}")
    return float(value)


def point_from_dict(att: dict, N: int) -> tuple[int, int]:
    """The evaluation point of an attack section as the (n, a) of its
    binomial y^n - a for resolve_point: (n, a) with 2 <= n <= N when both
    are given, else (1, alpha), an F_q root being the degree-1 case.  Every
    point field given must be an integer; no other key, attack.mode
    included, names the point."""
    alpha = int_field(att.get("alpha"), "attack.alpha", optional=True)
    n = int_field(att.get("n"), "attack.n", optional=True)
    a = int_field(att.get("a"), "attack.a", optional=True)
    if n is None or a is None:
        if alpha is None:
            raise ConfigError("attack.alpha (or attack.n/attack.a): required")
        return 1, alpha
    if not 2 <= n <= N:
        raise ConfigError(f"attack.n: must satisfy 2 <= n <= {N}")
    return n, a


def config_from_dict(doc: dict) -> ExperimentConfig:
    section(doc, "config")
    ring, gauss = instance_from_dict(doc)
    att = section(_need(doc, "attack", "config"), "attack")
    family = _need(att, "family", "attack")
    if family not in FAMILIES:
        raise ConfigError(f"attack.family: unknown family {family!r}")
    n, a = point_from_dict(att, ring.N)
    # trial indices stay below 2**32, the index of mc_delta's stream
    trials = int_field(att.get("trials", 1), "attack.trials", low=1, high=2**32 + 1)
    M = int_field(att.get("M", 0), "attack.M")
    M0 = int_field(att.get("M0", 0), "attack.M0")
    ell = int_field(att.get("ell", 0), "attack.ell")
    delta = _delta(att.get("delta"))
    if family == "unbounded_small_values":
        if ell < 1:
            raise ConfigError("attack.ell: must be >= 1 for the unbounded family")
        M = ell
    elif M < 1:
        raise ConfigError("attack.M: must be >= 1")
    if family in EXTENDED_FAMILIES:
        if M0 < 1:
            raise ConfigError("attack.M0: must be >= 1 for extended families")
        if M0 > M:
            raise ConfigError("attack.M0: must not exceed attack.M")
    return ExperimentConfig(
        ring=ring,
        gauss=gauss,
        attack=AttackSpec(family, n, a, M, M0, delta, trials),
        seed=seed_from_dict(doc),
        honest_sampling=bool_field(
            section(doc.get("sampling", {}), "sampling").get("honest", False), "sampling.honest"
        ),
        table_cap=table_cap_from_dict(doc),
        rq0_budget=int_field(doc.get("rq0_budget", DEFAULT_RQ0_BUDGET), "rq0_budget", low=1),
        raw=doc,
    )


# ---------------------------------------------------------------------------
# attack plan: resolved parameters, tables and preconditions


@dataclass(frozen=True, eq=False)  # member is an ndarray: plans compare by identity
class AttackPlan:
    cfg: ExperimentConfig
    point: ExtFieldCtx
    blocks: analysis.BlockStructure
    # the filter families' mask: the Sigma table or the quarter interval
    member: Optional[np.ndarray]
    member_r: int  # the mask's classes, len(blocks.counts) for a Sigma table, else 1
    delta: Optional[float]  # the unbounded family's
    preconditions: tuple[str, ...]


def _check(lines: list[str], ok: bool, text: str) -> None:
    if not ok:
        raise PreconditionRefused(text)
    lines.append("ok: " + text)


def resolve_point(
    ring: RqContext, sigma: float, n: int, a: int
) -> tuple[ExtFieldCtx, analysis.BlockStructure]:
    """The root of y^n - a that an attack evaluates at, with its block
    structure; an F_q root alpha is n = 1, a = alpha.  A point that is not
    a root of f mod q (a reducible y^n - a included) is a ConfigError naming
    the field; the test is exact in Python ints at any q."""
    q = ring.q
    try:
        point = ExtFieldCtx(n, a, ring.modulus)
    except ValueError as exc:
        raise ConfigError(f"attack.a: x^{n} - {a % q} is reducible mod {q}") from exc
    # coordinate j of the remainder sums f_k a^(k // n) over k = j mod n
    a, terms = point.a, ring.support
    if any(sum(c * pow(a, k // n, q) for k, c in terms if k % n == j) % q for j in range(n)):
        raise ConfigError(
            f"attack.alpha: {a} is not a root of f mod {q}" if n == 1
            else f"attack.a: x^{n} - {a} does not divide f mod {q}"
        )
    return point, block_structure(point, ring.N, sigma)


def check_ring(ring: RqContext) -> None:
    """Refuse q >= 2**22 and (N+1)*q^2 >= 2**63: candidate loops and the
    divisor fold allocate O(q) arrays, and ring products, evaluations and
    the fold sum N + 1 products of residues in int64."""
    try:
        require_table_modulus(ring.q)
        require_int64_sums(ring.N, ring.q)
    except ValueError as exc:
        raise PreconditionRefused(str(exc)) from exc


# The most coefficients M*N that one trial's sample rows may hold: its A and
# error rows are (M, N) int64 arrays.  This is 327 times the largest bundled
# campaign (ell = 50 at N = 256).
MAX_SAMPLE_ENTRIES = 1 << 22


def check_draws(ring: RqContext, gauss: GaussianSpec, M: int) -> None:
    """Refuse 16*sigma + N*q^2 >= 2**63 for a campaign: a rounded error lies
    within NORMAL_DRAW_MAX * sigma, and it meets int64 in gaussian_coeffs's
    cast and in B = A S + E, whose product term stays below N*q^2.  The
    test is exact: 16*sigma is a float without rounding error, and Python
    compares it with the integer exactly.  Refuse M*N > MAX_SAMPLE_ENTRIES
    too, before any sample matrix is allocated."""
    bound = (1 << 63) - ring.N * ring.q * ring.q
    if not NORMAL_DRAW_MAX * gauss.sigma < bound:
        total = NORMAL_DRAW_MAX * gauss.sigma + ring.N * ring.q * ring.q
        raise PreconditionRefused(
            f"{NORMAL_DRAW_MAX}*sigma + N*q^2 = {total:.6g} < 2**63 = {1 << 63}"
        )
    if M * ring.N > MAX_SAMPLE_ENTRIES:
        raise PreconditionRefused(f"M*N = {M * ring.N} <= 2**22 = {MAX_SAMPLE_ENTRIES}")


def mc_delta(q: int, sigma_bar: float, seed: int) -> float:
    """monte_carlo_delta on the stream [seed, 2**32], apart from every
    trial's [seed, trial_index] (config_from_dict keeps attack.trials at
    most 2**32, so trial_index < 2**32): the delta of a "delta": "mc" plan,
    which analyze --mc-check prints."""
    return monte_carlo_delta(q, sigma_bar, np.random.default_rng([seed, 2**32]))


def build_plan(cfg: ExperimentConfig) -> AttackPlan:
    """Resolve the evaluation point, its block structure and the membership
    mask or delta; refuse when a documented precondition fails."""
    att = cfg.attack
    q = cfg.ring.q
    check_ring(cfg.ring)
    point, blocks = resolve_point(cfg.ring, cfg.gauss.sigma, att.n, att.a)
    lines: list[str] = []
    member, member_r, delta = None, 1, None
    if att.family in SMALL_SET_FAMILIES:
        member_r = len(blocks.counts)
        try:
            member = build_sigma_table_trace(
                point.a, q, blocks.counts, cfg.gauss.sigma, cfg.table_cap
            )
        except TableTooLarge as exc:
            raise PreconditionRefused(str(exc)) from exc
        size = np.count_nonzero(member)
        budget, log_budget = small_set_budget(q, cfg.gauss.truncated, member_r)
        shown = magnitude(budget, log_budget)
        _check(lines, size < budget, f"|Sigma| = {size} < q*p0^r = {shown}")
    elif att.family in ("small_values", "extended_small_values"):
        member = quarter_mask(q)
        flag = small_values_flag(q, cfg.gauss.truncated, blocks.sigma_bar, point.n)
        _check(lines, flag.applicable, flag.condition)
    else:  # unbounded_small_values
        if att.delta == "series":
            delta = delta_probability(q, blocks.sigma_bar).delta
        elif att.delta == "mc":
            delta = mc_delta(q, blocks.sigma_bar, cfg.seed)
        else:
            delta = att.delta
        flag = unbounded_flag(q, delta)
        _check(lines, flag.applicable, flag.condition)
    if att.family in EXTENDED_FAMILIES:
        _check(lines, att.M0 <= att.M, f"M0 = {att.M0} <= M = {att.M}")
    return AttackPlan(cfg, point, blocks, member, member_r, delta, tuple(lines))


# ---------------------------------------------------------------------------
# trial execution


def run_attack_once(plan: AttackPlan, pairs: Pairs):
    """Dispatch the configured attack on the pairs of one sample batch."""
    cfg, att = plan.cfg, plan.cfg.attack
    if att.family == "unbounded_small_values":
        return unbounded_small_values_attack(pairs, plan.delta)
    if att.family in BASIC_FAMILIES:
        return small_set_attack(pairs, plan.member)
    return extended_attack(pairs, att.M0, plan.member, plan.member_r, p0_of(cfg.gauss.truncated))


def run_trial(plan: AttackPlan, trial_index: int, samples: TextIO | None = None) -> dict:
    """One trial of plan's campaign.  Its (A, B) coefficient rows are written
    to samples, one sample {"a": [...], "b": [...]} per line."""
    cfg = plan.cfg
    rng = np.random.default_rng([cfg.seed, trial_index])
    truth_plwe = bool(rng.integers(0, 2))
    t0 = time.perf_counter()
    # the secret is drawn first, as N uniform residues in one integers call,
    # the draw of PlweInstance.generate that the per-sample reference path in
    # tests/reference.py starts with; sample_batch then draws the errors (or
    # b rows) and last the a rows
    secret = rng.integers(0, cfg.ring.q, size=cfg.ring.N) if truth_plwe else None
    try:
        batch, invocations = sample_batch(
            cfg.ring, cfg.gauss, plan.point, cfg.attack.M, rng, secret=secret,
            honest=cfg.honest_sampling, max_invocations=cfg.rq0_budget,
        )
    except BudgetExhausted as exc:
        batch = outcome = None
        invocations, result = exc.invocations, {"error": str(exc)}
    else:
        # evaluated at the root first: B is formed only for a recording, and
        # without one the (M, N) rows are freed before the attack's temporaries
        pairs = batch.pairs(plan.point)
        if samples is None:
            batch = None
        outcome = run_attack_once(plan, pairs)
        result = {"outcome": outcome.to_dict(), "samples_used": len(pairs)}
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    if batch is not None:
        for a, b in zip(batch.A.tolist(), batch.B.tolist()):
            samples.write(json.dumps({"a": a, "b": b}) + "\n")
    row = {
        "trial": trial_index,
        "truth": "plwe" if truth_plwe else "uniform",
        **result,
        "correct": outcome is not None and outcome.is_plwe == truth_plwe,
        "oracle_invocations": invocations,
        "wall_time_ms": wall_ms,
    }
    if truth_plwe and isinstance(outcome, AttackVerdict):
        row["true_value_survives"] = _true_value(plan, secret) in outcome.survivors
    return row


def _true_value(plan: AttackPlan, secret: np.ndarray) -> int:
    """The quantity the basic attacks guess, Tr(s(alpha)), from the
    coefficients of s: in a binomial extension Tr = n * (y^0 coordinate),
    and at an F_q root it is s(alpha)."""
    q = plan.cfg.ring.q
    coord0 = int(secret @ eval_matrix(plan.point, len(secret))[:, 0] % q)
    return plan.point.n * coord0 % q


# ---------------------------------------------------------------------------
# campaign report


@dataclass
class CampaignReport:
    config_echo: dict
    plan_summary: dict
    trials: list[dict]

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    def rate(self, truth: str) -> float | None:
        rows = [t for t in self.trials if t["truth"] == truth]
        if not rows:
            return None
        return sum(1 for t in rows if t["correct"]) / len(rows)

    @property
    def accuracy(self) -> float:
        return sum(1 for t in self.trials if t["correct"]) / len(self.trials)

    def to_dict(self) -> dict:
        invocations = sum(t["oracle_invocations"] for t in self.trials)
        return {
            "config": self.config_echo,
            "plan": self.plan_summary,
            "aggregate": {
                "trials": self.n_trials,
                "accuracy": self.accuracy,
                "correct_on_plwe": self.rate("plwe"),
                "correct_on_uniform": self.rate("uniform"),
                "total_oracle_invocations": invocations,
                "mean_oracle_invocations": invocations / self.n_trials,
            },
            "trials": self.trials,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)

    def digest_json(self) -> str:
        """Deterministic serialization: wall-clock fields stripped."""

        def strip(obj):
            if isinstance(obj, dict):
                return {k: strip(v) for k, v in obj.items() if k != "wall_time_ms"}
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj

        return json.dumps(strip(self.to_dict()), sort_keys=True, allow_nan=False)


def _finite_or_null(value):
    """value with every non-finite float in it replaced by None, which JSON
    writes as null; strict JSON has no Infinity or NaN."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _plan_summary(plan: AttackPlan) -> dict:
    """The plan's report fields; the Sigma table size and its analytic bound
    are worked out here, from the plan's mask."""
    cfg, att, blocks = plan.cfg, plan.cfg.attack, plan.blocks
    n, a = plan.point.n, plan.point.a
    out: dict = {
        "mode": "fq" if n == 1 else "trace",  # a label read off n, kept in pinned digests
        "order": blocks.order,
        "sigma_bar": blocks.sigma_bar,
        "preconditions": list(plan.preconditions),
        **({"alpha": a} if n == 1 else {"n": n, "a": a}),
    }
    if att.family in SMALL_SET_FAMILIES:
        # the power form, where the flag's exp of the log differs in the last bit (ROADMAP item 1)
        analytic = small_set_size(blocks.counts, cfg.gauss.sigma).analytic
        out["sigma_table_size"] = int(np.count_nonzero(plan.member))
        out["sigma_table_analytic_bound"] = analytic
        out["predicted_bounds"] = {
            "M": att.M,
            "vote_posterior": posterior_bounds(
                cfg.ring.q, analytic, plan.member_r, cfg.gauss.truncated, att.M
            ).vote_posterior,
        }
    if plan.delta is not None:
        out["delta"] = plan.delta
    return _finite_or_null(out)


def run_campaign(
    cfg: ExperimentConfig, threads: int = 1, record: str | None = None
) -> CampaignReport:
    """Run cfg's trials; record names a file that receives their samples.
    It is opened only once the plan is built, so a refused campaign leaves
    no file."""
    check_draws(cfg.ring, cfg.gauss, cfg.attack.M)
    plan = build_plan(cfg)
    # trial i runs in process i mod workers, no more processes than trials:
    # this process runs share 0 and a child each other share; the sample
    # file is written from this process, so recording runs every trial here
    workers = 1 if record else min(threads, cfg.attack.trials)
    with open_path(record, "w", "sample file") if record else nullcontext() as fh:
        rows = _run_shares(plan, workers, fh)
    echo = dict(cfg.raw) if cfg.raw else {}
    echo.setdefault("seed", cfg.seed)
    return CampaignReport(echo, _plan_summary(plan), rows)


def _share(plan: AttackPlan, share: int, workers: int, samples: TextIO | None = None,
           cpus: set | None = None) -> list:
    """The rows of trials share, share + workers, share + 2*workers, ...,
    run on cpus unless that is None; this process gets back the CPUs it
    had before once they are done."""
    before = _bind(cpus) if cpus else None
    try:
        return [run_trial(plan, i, samples) for i in range(share, plan.cfg.attack.trials, workers)]
    finally:
        if before:
            _bind(before)


def _run_shares(plan: AttackPlan, workers: int, samples: TextIO | None) -> list:
    """Every trial's row, in trial order.  Share k > 0 runs in a child
    process started with the platform's default method (a fork on Linux,
    which inherits the plan), and comes back through one pipe; this process
    runs share 0 meanwhile, each share on its own CPU (_share_cpus).  A
    child's exception is raised here, and so is an error naming the exit
    code of a child that sent nothing.  Whatever happens, every child has
    ended when this returns or raises."""
    cpus = _share_cpus(workers)
    children = []
    try:
        for k in range(1, workers):
            rows_in, rows_out = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_child_share, args=(rows_out, plan, k, workers, cpus[k]),
                name=f"trial share {k} of {workers}",
            )
            child.start()
            rows_out.close()  # the child holds the one send end, so its exit ends the pipe
            children.append((child, rows_in))
        shares = [_share(plan, 0, workers, samples, cpus[0])]
        shares += [_receive(child, rows_in) for child, rows_in in children]
    finally:
        for child, rows_in in children:
            if child.is_alive():
                child.terminate()
            child.join()
            rows_in.close()
    rows: list = [None] * plan.cfg.attack.trials
    for k, share in enumerate(shares):
        rows[k::workers] = share
    return rows


def _share_cpus(workers: int) -> list:
    """The CPUs each share runs on: share k on the (k mod c)-th of the c
    CPUs this process may use, or None for every share where there is one
    share, one CPU or no affinity call.  A scheduler may leave a forked
    child on its parent's CPU for hundreds of milliseconds, longer than a
    campaign, so unbound shares can take turns on one core while another
    idles."""
    bindable = workers > 1 and hasattr(os, "sched_getaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if bindable else []
    if len(cpus) < 2:
        return [None] * workers
    return [{cpus[k % len(cpus)]} for k in range(workers)]


def _bind(cpus: set) -> set:
    """Run this process on cpus, unless the binding is refused; the CPUs it
    could run on before."""
    before = os.sched_getaffinity(0)
    with suppress(OSError):
        os.sched_setaffinity(0, cpus)
    return before


def _child_share(rows_out, plan: AttackPlan, share: int, workers: int, cpus: set | None) -> None:
    """A child's share, run on cpus: its rows, or the exception that stopped it."""
    try:
        result = (True, _share(plan, share, workers, cpus=cpus))
    except Exception as exc:
        result = (False, exc)
    rows_out.send(result)


def _receive(child, rows_in) -> list:
    """The rows that child sends, once it has exited; its exception is
    raised here."""
    try:
        ok, value = rows_in.recv()
    except EOFError:
        child.join()
        raise RuntimeError(
            f"{child.name} exited with code {child.exitcode} before sending its rows"
        ) from None
    child.join()
    if not ok:
        raise value
    return value


# ---------------------------------------------------------------------------
# sample files (one JSON document per line)


def load_samples(path: str, plan: AttackPlan) -> Pairs:
    """A replay's pairs: a sample file evaluated at plan's point.  A malformed
    line, a component without exactly N coefficients, a coefficient that is
    not a JSON integer, an a outside R_{q,0} or fewer samples than one chunk
    of an extended attack is a ConfigError naming the file and the line."""
    ring, att, q = plan.cfg.ring, plan.cfg.attack, plan.cfg.ring.q
    with open_path(path, "r", "sample file") as fh:
        lines = fh.read().splitlines()
    if not any(line.strip() for line in lines):
        raise ConfigError(f"sample file {path}: empty")
    rows, linenos = [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            sizes = (len(doc["a"]), len(doc["b"]))
            if sizes != (ring.N, ring.N):
                raise ValueError(f"a and b need N = {ring.N} coefficients, got {sizes}")
            coeffs = doc["a"] + doc["b"]
            if bad := [c for c in coeffs if type(c) is not int]:  # int() takes 2.5 and true
                raise ValueError(f"coefficients must be integers, got {bad[0]!r}")
            rows.append([c % q for c in coeffs])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"sample file {path}: line {lineno}: {exc}") from exc
        linenos.append(lineno)
    AB = np.array(rows, dtype=np.int64)
    try:
        pairs = SampleBatch(ring, AB[:, : ring.N], AB[:, ring.N :]).pairs(plan.point)
    except NonMemberSample as exc:  # the R_{q,0} check of the evaluation
        where = f"sample file {path}: line {linenos[exc.row]}"
        raise ConfigError(f"{where}: a lies outside R_q0 (witness k={exc.witness})") from exc
    if att.family in EXTENDED_FAMILIES and len(pairs) < att.M0:
        raise ConfigError(
            f"sample file {path}: {len(pairs)} samples, fewer than attack.M0 = {att.M0}"
        )
    return pairs
