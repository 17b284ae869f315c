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
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analysis
from .analysis import (
    block_structure,
    delta_probability,
    extended_gate,
    monte_carlo_delta,
    posterior_bounds,
    quarter_mask,
    small_values_flag,
    unbounded_flag,
)
from .attacks import (
    VERDICT_NOT_PLWE,
    AttackVerdict,
    Decision,
    SigmaTable,
    TableTooLarge,
    build_sigma_table_trace,
    extended_attack,
    small_set_attack,
    unbounded_small_values_attack,
)
from .fields import ExtFieldCtx
from .rings import (
    EXHAUSTIVE_SCAN_LIMIT,
    RqContext,
    eval_matrix,
    exact_int,
    load_ring_doc,
    rq0_witnesses,
)
from .samplers import (
    DEFAULT_RQ0_BUDGET,
    NORMAL_DRAW_MAX,
    BudgetExhausted,
    GaussianSpec,
    Pairs,
    SampleBatch,
    sample_batch,
)


class ConfigError(Exception):
    """Malformed experiment configuration; the message names the field."""


class PreconditionRefused(Exception):
    """An attack precondition failed; the message shows both sides."""


BASIC_FAMILIES = ("small_set", "small_values")
EXTENDED_FAMILIES = ("extended_small_set", "extended_small_values")
FAMILIES = BASIC_FAMILIES + EXTENDED_FAMILIES + ("unbounded_small_values",)
MODES = ("fq", "trace")


@dataclass(frozen=True)
class AttackSpec:
    family: str
    # point_from_dict's point: the root of y^n - a, an F_q root alpha as (1, alpha)
    n: int
    a: int
    M: int = 0  # samples per trial; attack.ell for the unbounded family
    M0: int = 0
    delta: Optional[float | str] = None
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
        raise ConfigError(f"{name}: must be >= {low}, got {number}")
    if high is not None and number >= high:
        raise ConfigError(f"{name}: must be < {high}, got {number}")
    return number


def bool_field(value, name: str) -> bool:
    """value when it is a JSON boolean; anything else names the field."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name}: expected true or false, got {value!r}")
    return value


def read_config(path: str) -> dict:
    """The JSON object in a config file; an unreadable file, invalid JSON or
    any other top-level value is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError included
        raise ConfigError(f"config: {exc}") from exc
    return section(doc, "config")


def instance_from_dict(inst) -> tuple[RqContext, GaussianSpec]:
    """The ring and the error distribution of an instance section."""
    section(inst, "instance")
    try:
        ring = load_ring_doc(inst)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"instance: {exc}") from exc
    sigma = _need(inst, "sigma", "instance")
    truncated = bool_field(_need(inst, "truncated", "instance"), "instance.truncated")
    try:
        gauss = GaussianSpec(float(sigma), truncated)
        # sigma_bar^2 = sigma^2 * sum L*w^2 lies in [sigma^2, sigma^2*N*q^2]
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
    return int_field(doc.get("table_cap", analysis.DEFAULT_TABLE_CAP), "table_cap", low=1)


def _delta(value) -> Optional[float | str]:
    if value is None or value in ("series", "mc"):
        return value
    try:
        delta = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"attack.delta: expected a number, 'series' or 'mc', got {value!r}"
        ) from exc
    if not -0.5 <= delta <= 0.5:
        # delta = P(error image in quarter interval) - 1/2
        raise ConfigError(f"attack.delta: must lie in [-1/2, 1/2], got {value!r}")
    return delta


def point_from_dict(att: dict, N: int) -> tuple[int, int]:
    """The evaluation point of an attack section as the (n, a) of its
    binomial y^n - a for resolve_point: (1, alpha) in fq mode, an F_q root
    being the degree-1 case, and (n, a) with 2 <= n <= N in trace mode.  A
    section without a mode (analyze's) takes n and a when both are given,
    else alpha.  Every point field given must be an integer."""
    alpha = int_field(att.get("alpha"), "attack.alpha", optional=True)
    n = int_field(att.get("n"), "attack.n", optional=True)
    a = int_field(att.get("a"), "attack.a", optional=True)
    if "mode" in att:
        mode = att["mode"]
    elif alpha is None and (n is None or a is None):
        raise ConfigError("attack.alpha (or attack.n/attack.a): required for analyze")
    else:
        mode = "fq" if n is None or a is None else "trace"
    if mode not in MODES:
        raise ConfigError(f"attack.mode: must be one of {MODES}")
    if mode == "fq":
        if alpha is None:
            raise ConfigError("attack.alpha: required in fq mode")
        return 1, alpha
    if n is None or a is None:
        raise ConfigError("attack.n/attack.a: required in trace mode")
    if not 2 <= n <= N:
        raise ConfigError(f"attack.n: must satisfy 2 <= n <= {N}")
    return n, a


def config_from_dict(doc: dict) -> ExperimentConfig:
    section(doc, "config")
    ring, gauss = instance_from_dict(_need(doc, "instance", "config"))
    att = section(_need(doc, "attack", "config"), "attack")
    family = _need(att, "family", "attack")
    if family not in FAMILIES:
        raise ConfigError(f"attack.family: unknown family {family!r}")
    _need(att, "mode", "attack")
    n, a = point_from_dict(att, ring.N)
    trials = int_field(att.get("trials", 1), "attack.trials", low=1)
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


@dataclass
class AttackPlan:
    cfg: ExperimentConfig
    point: ExtFieldCtx
    blocks: analysis.BlockStructure
    table: Optional[SigmaTable] = None
    # the filter families' mask, the table's or the quarter interval's
    member: Optional[np.ndarray] = None
    member_r: int = 1
    delta: Optional[float] = None
    gate: Optional[analysis.GateReport] = None
    preconditions: list[str] = field(default_factory=list)


def _check(plan: AttackPlan, ok: bool, text: str) -> None:
    plan.preconditions.append(("ok: " if ok else "violated: ") + text)
    if not ok:
        raise PreconditionRefused(text)


def resolve_point(
    ring: RqContext, sigma: float, n: int, a: int
) -> tuple[ExtFieldCtx, analysis.BlockStructure]:
    """The root of y^n - a that an attack evaluates at, with its block
    structure; an F_q root alpha is n = 1, a = alpha.  A point that is not
    a root of f mod q (a reducible y^n - a included) is a ConfigError naming
    the field; the test is exact in Python ints at any q."""
    q = ring.q
    try:
        point = ExtFieldCtx(n, ring.modulus.element(a))
    except ValueError as exc:
        raise ConfigError(f"attack.a: x^{n} - {a % q} is reducible mod {q}") from exc
    # coordinate j of the remainder sums f_k a^(k // n) over k = j mod n
    a = point.a.value
    terms = [(k, c) for k, c in enumerate(ring.f_mod) if c]
    if any(sum(c * pow(a, k // n, q) for k, c in terms if k % n == j) % q for j in range(n)):
        raise ConfigError(
            f"attack.alpha: {a} is not a root of f mod {q}" if n == 1
            else f"attack.a: x^{n} - {a} does not divide f mod {q}"
        )
    return point, block_structure(n, point.a, ring.N, sigma)


def check_ring(ring: RqContext) -> None:
    """Refuse q >= 2**22 and (N+1)*q^2 >= 2**63: candidate loops and the
    divisor fold allocate O(q) arrays, and ring products, evaluations and
    the fold sum N + 1 products of residues in int64."""
    q, N = ring.q, ring.N
    if q >= EXHAUSTIVE_SCAN_LIMIT:
        raise PreconditionRefused(f"q = {q} < 2**22 = {EXHAUSTIVE_SCAN_LIMIT}")
    if (N + 1) * q * q >= 1 << 63:
        raise PreconditionRefused(f"(N+1)*q^2 = {(N + 1) * q * q} < 2**63 = {1 << 63}")


def check_draws(ring: RqContext, gauss: GaussianSpec) -> None:
    """Refuse 16*sigma + N*q^2 >= 2**63 for a campaign: a rounded error lies
    within NORMAL_DRAW_MAX * sigma, and it meets int64 in gaussian_coeffs's
    cast and in B = A S + E, whose product term stays below N*q^2.  The
    test is exact: 16*sigma is a float without rounding error, and Python
    compares it with the integer exactly."""
    bound = (1 << 63) - ring.N * ring.q * ring.q
    if not NORMAL_DRAW_MAX * gauss.sigma < bound:
        total = NORMAL_DRAW_MAX * gauss.sigma + ring.N * ring.q * ring.q
        raise PreconditionRefused(
            f"{NORMAL_DRAW_MAX}*sigma + N*q^2 = {total:.6g} < 2**63 = {1 << 63}"
        )


def build_plan(cfg: ExperimentConfig, rng: np.random.Generator | None = None) -> AttackPlan:
    """Resolve the evaluation point, its block structure, the membership
    mask or delta and the extended gate; refuse when a documented
    precondition fails."""
    att = cfg.attack
    ring = cfg.ring
    q = ring.q
    p0 = cfg.gauss.p0
    check_ring(ring)
    point, blocks = resolve_point(ring, cfg.gauss.sigma, att.n, att.a)
    plan = AttackPlan(cfg, point, blocks)

    if att.family in ("small_set", "extended_small_set"):
        try:
            plan.table = build_sigma_table_trace(
                point.a, blocks.r_eff, blocks.blocklen, cfg.gauss.sigma, cfg.table_cap
            )
        except TableTooLarge as exc:
            raise PreconditionRefused(str(exc)) from exc
        plan.member, plan.member_r = plan.table.mask, blocks.r_eff
        size, budget = plan.table.size, q * p0**blocks.r_eff
        _check(plan, size < budget, f"|Sigma| = {size} < q*p0^r = {budget:.1f}")
    elif att.family in ("small_values", "extended_small_values"):
        plan.member = quarter_mask(q)
        flag = small_values_flag(q, cfg.gauss.truncated, blocks.sigma_bar, point.n)
        _check(plan, flag.applicable, flag.condition)
    else:  # unbounded_small_values
        if att.delta is None or att.delta == "series":
            plan.delta = delta_probability(q, blocks.sigma_bar).delta
        elif att.delta == "mc":
            mc_rng = rng if rng is not None else np.random.default_rng([cfg.seed, 2**32])
            plan.delta = monte_carlo_delta(q, blocks.sigma_bar, mc_rng)
        else:
            plan.delta = float(att.delta)
        flag = unbounded_flag(q, plan.delta)
        _check(plan, flag.applicable, flag.condition)

    if att.family in EXTENDED_FAMILIES:
        _check(plan, att.M0 <= att.M, f"M0 = {att.M0} <= M = {att.M}")
        size = int(np.count_nonzero(plan.member))  # |Sigma| or quarter_count(q)
        plan.gate = extended_gate(size, q, p0, att.M0, plan.member_r)
    return plan


# ---------------------------------------------------------------------------
# trial execution


def _generate_samples(
    plan: AttackPlan, truth_plwe: bool, rng: np.random.Generator
) -> tuple[SampleBatch, int, Optional[np.ndarray]]:
    """Samples for one trial plus the oracle invocation count and the secret
    (None on uniform trials).  The secret is drawn first, as N uniform
    residues in one integers call, the draw of PlweInstance.generate that
    the per-sample reference path in tests/reference.py starts with;
    sample_batch then draws the errors (or b rows) and last the a rows."""
    cfg = plan.cfg
    ring = cfg.ring
    secret = rng.integers(0, ring.q, size=ring.N) if truth_plwe else None
    batch, invocations = sample_batch(
        ring,
        cfg.gauss,
        plan.point,
        cfg.attack.M,
        rng,
        secret=secret,
        honest=cfg.honest_sampling,
        max_invocations=cfg.rq0_budget,
    )
    return batch, invocations, secret


def run_attack_once(plan: AttackPlan, pairs: Pairs):
    """Dispatch the configured attack on the pairs of one sample batch."""
    att = plan.cfg.attack
    if att.family == "unbounded_small_values":
        return unbounded_small_values_attack(pairs, plan.delta)
    if att.family in BASIC_FAMILIES:
        return small_set_attack(pairs, plan.member)
    return extended_attack(pairs, att.M0, plan.member, plan.member_r, plan.cfg.gauss.p0)


def _says_plwe(outcome) -> bool:
    if isinstance(outcome, Decision):
        return outcome.is_plwe
    return outcome.kind != VERDICT_NOT_PLWE


def run_trial(plan: AttackPlan, trial_index: int, record: list | None = None) -> dict:
    rng = np.random.default_rng([plan.cfg.seed, trial_index])
    truth_plwe = bool(rng.integers(0, 2))
    t0 = time.perf_counter()
    try:
        batch, invocations, secret = _generate_samples(plan, truth_plwe, rng)
    except BudgetExhausted as exc:
        return {
            "trial": trial_index,
            "truth": "plwe" if truth_plwe else "uniform",
            "error": str(exc),
            "correct": False,
            "oracle_invocations": plan.cfg.rq0_budget,
            "wall_time_ms": 1000.0 * (time.perf_counter() - t0),
        }
    # evaluated at the root first: B is formed only for a recording
    outcome = run_attack_once(plan, batch.pairs(plan.point))
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    if record is not None:
        record.append((batch.A, batch.B))
    row = {
        "trial": trial_index,
        "truth": "plwe" if truth_plwe else "uniform",
        "outcome": outcome.to_dict(),
        "correct": _says_plwe(outcome) == truth_plwe,
        "oracle_invocations": invocations,
        "samples_used": len(batch),
        "wall_time_ms": wall_ms,
    }
    if truth_plwe and isinstance(outcome, AttackVerdict) and secret is not None:
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
        return {
            "config": self.config_echo,
            "plan": self.plan_summary,
            "aggregate": {
                "trials": self.n_trials,
                "accuracy": self.accuracy,
                "correct_on_plwe": self.rate("plwe"),
                "correct_on_uniform": self.rate("uniform"),
                "total_oracle_invocations": sum(
                    t.get("oracle_invocations", 0) for t in self.trials
                ),
                "mean_oracle_invocations": sum(
                    t.get("oracle_invocations", 0) for t in self.trials
                )
                / self.n_trials,
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
    att = plan.cfg.attack
    n, a = plan.point.n, plan.point.a.value
    out: dict = {
        "mode": "fq" if n == 1 else "trace",
        "order": plan.blocks.order,
        "sigma_bar": plan.blocks.sigma_bar,
        "preconditions": list(plan.preconditions),
        **({"alpha": a} if n == 1 else {"n": n, "a": a}),
    }
    if plan.table is not None:
        out["sigma_table_size"] = plan.table.size
        out["sigma_table_analytic_bound"] = plan.table.analytic_bound
        q, p0 = plan.cfg.ring.q, plan.cfg.gauss.p0
        out["predicted_bounds"] = {
            "M": att.M,
            "vote_posterior": posterior_bounds(
                "small_set",
                plan.cfg.gauss.truncated,
                M=max(att.M, 1),
                q=q,
                sigma_size=plan.table.analytic_bound,
                r=plan.table.r,
                p0=p0,
            ).vote_posterior,
        }
    if plan.delta is not None:
        out["delta"] = plan.delta
    if plan.gate is not None:
        out["extended_gate"] = {
            "lhs": plan.gate.lhs,
            "rhs": plan.gate.rhs,
            "satisfied": plan.gate.satisfied,
        }
    return _finite_or_null(out)


def run_campaign(
    cfg: ExperimentConfig,
    threads: int = 1,
    record: list | None = None,
) -> CampaignReport:
    check_draws(cfg.ring, cfg.gauss)
    plan = build_plan(cfg)
    trials = cfg.attack.trials
    # each worker receives the plan once, and a pool starts all its workers
    # at the first submit, so it has no more workers than trials; recording
    # needs the in-process sample list, so it forces the sequential path
    workers = min(threads, trials)
    if workers > 1 and record is None:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(plan,)
        ) as pool:
            chunk = max(1, trials // (4 * workers))
            rows = list(pool.map(_trial_worker, range(trials), chunksize=chunk))
    else:
        rows = [run_trial(plan, i, record) for i in range(trials)]
    echo = dict(cfg.raw) if cfg.raw else {}
    echo.setdefault("seed", cfg.seed)
    return CampaignReport(echo, _plan_summary(plan), rows)


# The plan of the campaign a pool worker serves; set once per worker process
# by _init_worker, never in the parent.
_worker_plan: Optional[AttackPlan] = None


def _init_worker(plan: AttackPlan) -> None:
    global _worker_plan
    _worker_plan = plan


def _trial_worker(index: int) -> dict:
    return run_trial(_worker_plan, index)


# ---------------------------------------------------------------------------
# sample files (one JSON document per line)


def save_samples(path: str, record: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Write the (A, B) coefficient rows of each recorded trial, one sample
    {"a": [...], "b": [...]} per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for A, B in record:
            for a, b in zip(A.tolist(), B.tolist()):
                fh.write(json.dumps({"a": a, "b": b}) + "\n")


def load_samples(path: str, plan: AttackPlan) -> SampleBatch:
    """Read a sample file for a replay of plan's attack.  A malformed line,
    a component without exactly N coefficients, a coefficient that is not a
    JSON integer, an a outside R_{q,0} or fewer samples than one chunk of an
    extended attack is a ConfigError naming the file and the line."""
    ring, att, q = plan.cfg.ring, plan.cfg.attack, plan.cfg.ring.q
    with open(path, "r", encoding="utf-8") as fh:
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
    batch = SampleBatch(ring, AB[:, : ring.N], AB[:, ring.N :])
    bad = np.argwhere(rq0_witnesses(batch.A, plan.point))
    if bad.size:
        i, k = bad[0]
        raise ConfigError(
            f"sample file {path}: line {linenos[i]}: a lies outside R_q0 (witness k={k + 1})"
        )
    if att.family in EXTENDED_FAMILIES and len(batch) < att.M0:
        raise ConfigError(
            f"sample file {path}: {len(batch)} samples, fewer than attack.M0 = {att.M0}"
        )
    return batch
