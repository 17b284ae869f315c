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
    small_values_attack,
    unbounded_small_values_attack,
)
from .fields import ExtFieldCtx
from .rings import EXHAUSTIVE_SCAN_LIMIT, RingPoly, RqContext, eval_matrix, load_ring_doc
from .samplers import (
    BudgetExhausted,
    GaussianSpec,
    PlweInstance,
    Sample,
    plwe_oracle,
    plwe_oracle_rq0,
    sample_rq0,
    uniform_oracle,
    uniform_oracle_rq0,
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
    mode: str
    M: int = 0
    M0: int = 0
    ell: int = 0
    alpha: Optional[int] = None
    n: Optional[int] = None
    a: Optional[int] = None
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
    rq0_budget: int = 10**8
    raw: dict = field(default_factory=dict, compare=False, repr=False)


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}.{key}: missing")
    return doc[key]


def _int(value, name: str, optional: bool = False) -> Optional[int]:
    """int(value); a failed conversion names the field.  Optional fields
    pass None through."""
    if optional and value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: expected an integer, got {value!r}") from exc


def _delta(value) -> Optional[float | str]:
    if value is None or value in ("series", "mc"):
        return value
    try:
        delta = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"attack.delta: expected a number, 'series' or 'mc', got {value!r}"
        ) from exc
    if not math.isfinite(delta):
        raise ConfigError(f"attack.delta: must be finite, got {value!r}")
    return delta


def config_from_dict(doc: dict) -> ExperimentConfig:
    inst = _need(doc, "instance", "config")
    try:
        ring = load_ring_doc(inst)
    except ValueError as exc:
        raise ConfigError(f"instance: {exc}") from exc
    sigma = _need(inst, "sigma", "instance")
    truncated = bool(_need(inst, "truncated", "instance"))
    try:
        gauss = GaussianSpec(float(sigma), truncated)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"instance.sigma: {exc}") from exc

    att = _need(doc, "attack", "config")
    family = _need(att, "family", "attack")
    if family not in FAMILIES:
        raise ConfigError(f"attack.family: unknown family {family!r}")
    mode = _need(att, "mode", "attack")
    if mode not in MODES:
        raise ConfigError(f"attack.mode: must be one of {MODES}")
    trials = _int(att.get("trials", 1), "attack.trials")
    if trials < 1:
        raise ConfigError("attack.trials: must be >= 1")
    spec = AttackSpec(
        family=family,
        mode=mode,
        M=_int(att.get("M", 0), "attack.M"),
        M0=_int(att.get("M0", 0), "attack.M0"),
        ell=_int(att.get("ell", 0), "attack.ell"),
        alpha=_int(att.get("alpha"), "attack.alpha", optional=True),
        n=_int(att.get("n"), "attack.n", optional=True),
        a=_int(att.get("a"), "attack.a", optional=True),
        delta=_delta(att.get("delta")),
        trials=trials,
    )
    if family == "unbounded_small_values":
        if spec.ell < 1:
            raise ConfigError("attack.ell: must be >= 1 for the unbounded family")
    elif spec.M < 1:
        raise ConfigError("attack.M: must be >= 1")
    if family in EXTENDED_FAMILIES:
        if spec.M0 < 1:
            raise ConfigError("attack.M0: must be >= 1 for extended families")
        if spec.M0 > spec.M:
            raise ConfigError("attack.M0: must not exceed attack.M")
    if mode == "fq" and spec.alpha is None:
        raise ConfigError("attack.alpha: required in fq mode")
    if mode == "trace" and (spec.n is None or spec.a is None):
        raise ConfigError("attack.n/attack.a: required in trace mode")

    seed = _int(doc.get("seed", 0), "seed")
    if not (0 <= seed < 2**64):
        raise ConfigError("seed: must be an unsigned 64-bit integer")
    sampling = doc.get("sampling", {})
    return ExperimentConfig(
        ring=ring,
        gauss=gauss,
        attack=spec,
        seed=seed,
        honest_sampling=bool(sampling.get("honest", False)),
        table_cap=_int(doc.get("table_cap", analysis.DEFAULT_TABLE_CAP), "table_cap"),
        rq0_budget=_int(doc.get("rq0_budget", 10**8), "rq0_budget"),
        raw=doc,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# attack plan: resolved parameters, tables and preconditions


@dataclass
class AttackPlan:
    cfg: ExperimentConfig
    point: ExtFieldCtx
    blocks: analysis.BlockStructure
    table: Optional[SigmaTable] = None
    delta: Optional[float] = None
    gate: Optional[analysis.GateReport] = None
    preconditions: list[str] = field(default_factory=list)

    @property
    def samples_per_trial(self) -> int:
        att = self.cfg.attack
        return att.ell if att.family == "unbounded_small_values" else att.M


def _check(plan: AttackPlan, ok: bool, text: str) -> None:
    plan.preconditions.append(("ok: " if ok else "violated: ") + text)
    if not ok:
        raise PreconditionRefused(text)


def _evaluation_point(cfg: ExperimentConfig) -> ExtFieldCtx:
    """The root alpha of y^n - a the attack evaluates at; an F_q root alpha
    is ExtFieldCtx(1, alpha).  It must be a root of f mod q."""
    att, ring = cfg.attack, cfg.ring
    q = ring.q
    if att.mode == "fq":
        point = ExtFieldCtx(1, ring.modulus.element(att.alpha))
        missed = f"attack.alpha: {point.a.value} is not a root of f mod {q}"
    else:
        n, a = att.n, att.a % q
        if n < 2 or n > ring.N:
            raise ConfigError(f"attack.n: must satisfy 2 <= n <= {ring.N}")
        try:
            point = ExtFieldCtx(n, ring.modulus.element(a))
        except ValueError as exc:
            raise ConfigError(f"attack.a: x^{n} - {a} is reducible mod {q}") from exc
        missed = f"attack.a: x^{n} - {a} does not divide f mod {q}"
    f_at_point = np.array(ring.f_mod, dtype=np.int64) @ eval_matrix(point, ring.N + 1) % q
    if f_at_point.any():
        raise ConfigError(missed)
    return point


def build_plan(cfg: ExperimentConfig, rng: np.random.Generator | None = None) -> AttackPlan:
    """Resolve the evaluation point, tables, variance case and delta; refuse
    when a documented precondition fails."""
    att = cfg.attack
    ring = cfg.ring
    q = ring.q
    p0 = cfg.gauss.p0
    if q >= EXHAUSTIVE_SCAN_LIMIT:
        # candidate loops allocate O(q) arrays and products run in int64
        raise PreconditionRefused(f"q = {q} < 2**22 = {EXHAUSTIVE_SCAN_LIMIT}")
    point = _evaluation_point(cfg)
    blocks = block_structure(point.n, point.a, ring.N, cfg.gauss.sigma)
    plan = AttackPlan(cfg, point, blocks)
    r_eff = blocks.r_eff

    family = att.family
    if family in ("small_set", "extended_small_set"):
        try:
            plan.table = build_sigma_table_trace(
                point.a, r_eff, blocks.blocklen, cfg.gauss.sigma, cfg.table_cap
            )
        except TableTooLarge as exc:
            raise PreconditionRefused(str(exc)) from exc
        budget = q * p0**r_eff
        _check(
            plan,
            plan.table.size < budget,
            f"|Sigma| = {plan.table.size} < q*p0^r = {budget:.1f}",
        )
    elif family in ("small_values", "extended_small_values"):
        lhs, rhs = 2.0 * blocks.sigma_bar, q / 4.0
        if point.n == 1:
            _check(plan, lhs <= rhs, f"2*sigma_bar = {lhs:.2f} <= q/4 = {rhs:.2f}")
        else:
            _check(plan, lhs < rhs, f"2*sigma_bar = {lhs:.2f} < q/4 = {rhs:.2f}")
    else:  # unbounded_small_values
        if att.delta is None or att.delta == "series":
            plan.delta = delta_probability(q, blocks.sigma_bar).delta
        elif att.delta == "mc":
            mc_rng = rng if rng is not None else np.random.default_rng([cfg.seed, 2**32])
            plan.delta = monte_carlo_delta(q, blocks.sigma_bar, mc_rng)
        else:
            plan.delta = float(att.delta)
        big_delta = plan.delta - float(analysis.uniform_offset(q))
        _check(plan, big_delta > 0, f"Delta = {big_delta:.6g} > 0")

    if family in EXTENDED_FAMILIES:
        _check(plan, att.M0 <= att.M, f"M0 = {att.M0} <= M = {att.M}")
        if plan.table is not None:
            plan.gate = extended_gate(plan.table.size, q, p0, att.M0, r_eff)
        else:
            plan.gate = extended_gate(analysis.quarter_count(q), q, p0, att.M0, 1)
    return plan


# ---------------------------------------------------------------------------
# trial execution


def _generate_samples(
    plan: AttackPlan, truth_plwe: bool, rng: np.random.Generator
) -> tuple[list[Sample], int, Optional[RingPoly]]:
    """Samples for one trial plus the oracle invocation count and the secret
    (None on uniform trials).  At an F_q root every sample is a member of
    R_{q,0} = R_q, and both samplers draw the plain oracles' stream."""
    cfg = plan.cfg
    m = plan.samples_per_trial
    ring = cfg.ring
    secret = None
    if truth_plwe:
        inst = PlweInstance.generate(ring, cfg.gauss, rng)
        secret = inst.secret_for_tests()
    if cfg.honest_sampling:
        if truth_plwe:
            source = lambda: plwe_oracle(inst, rng)
        else:
            source = lambda: uniform_oracle(ring, rng)
        draws = [sample_rq0(source, plan.point, cfg.rq0_budget) for _ in range(m)]
        return [d.sample for d in draws], sum(d.count for d in draws), secret
    if truth_plwe:
        samples = [plwe_oracle_rq0(inst, plan.point, rng) for _ in range(m)]
    else:
        samples = [uniform_oracle_rq0(ring, plan.point, rng) for _ in range(m)]
    return samples, m, secret


_BASIC_ATTACKS = {
    "small_set": lambda plan, samples: small_set_attack(samples, plan.table, plan.point),
    "small_values": lambda plan, samples: small_values_attack(samples, plan.point),
    "unbounded_small_values": lambda plan, samples: unbounded_small_values_attack(
        samples, plan.delta, plan.point
    ),
}


def run_attack_once(plan: AttackPlan, samples: list[Sample]):
    """Dispatch the configured attack on one sample batch."""
    att = plan.cfg.attack
    basic = _BASIC_ATTACKS[att.family.removeprefix("extended_")]
    if att.family not in EXTENDED_FAMILIES:
        return basic(plan, samples)
    r_eff = plan.table.r if plan.table is not None else 1
    sub = lambda chunk: basic(plan, chunk)
    return extended_attack(samples, att.M0, sub, r_eff, plan.cfg.gauss.p0)


def _says_plwe(outcome) -> bool:
    if isinstance(outcome, Decision):
        return outcome.is_plwe
    return outcome.kind != VERDICT_NOT_PLWE


def run_trial(plan: AttackPlan, trial_index: int, record: list | None = None) -> dict:
    rng = np.random.default_rng([plan.cfg.seed, trial_index])
    truth_plwe = bool(rng.integers(0, 2))
    t0 = time.perf_counter()
    try:
        samples, invocations, secret = _generate_samples(plan, truth_plwe, rng)
    except BudgetExhausted as exc:
        return {
            "trial": trial_index,
            "truth": "plwe" if truth_plwe else "uniform",
            "error": str(exc),
            "correct": False,
            "oracle_invocations": plan.cfg.rq0_budget,
            "wall_time_ms": 1000.0 * (time.perf_counter() - t0),
        }
    outcome = run_attack_once(plan, samples)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    if record is not None:
        record.extend(samples)
    row = {
        "trial": trial_index,
        "truth": "plwe" if truth_plwe else "uniform",
        "outcome": outcome.to_dict(),
        "correct": _says_plwe(outcome) == truth_plwe,
        "oracle_invocations": invocations,
        "samples_used": len(samples),
        "wall_time_ms": wall_ms,
    }
    if truth_plwe and isinstance(outcome, AttackVerdict) and secret is not None:
        row["true_value_survives"] = _true_value(plan, secret) in outcome.survivors
    return row


def _true_value(plan: AttackPlan, secret: RingPoly) -> int:
    """The quantity the basic attacks guess, Tr(s(alpha)): in a binomial
    extension Tr = n * (y^0 coordinate), and at an F_q root it is s(alpha)."""
    q = plan.cfg.ring.q
    coord0 = int(secret.as_array() @ eval_matrix(plan.point, secret.ctx.N)[:, 0] % q)
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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def digest_json(self) -> str:
        """Deterministic serialization: wall-clock fields stripped."""

        def strip(obj):
            if isinstance(obj, dict):
                return {k: strip(v) for k, v in obj.items() if k != "wall_time_ms"}
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj

        return json.dumps(strip(self.to_dict()), sort_keys=True)


def _plan_summary(plan: AttackPlan) -> dict:
    att = plan.cfg.attack
    out: dict = {
        "mode": att.mode,
        "order": plan.blocks.order,
        "sigma_bar": plan.blocks.sigma_bar,
        "preconditions": list(plan.preconditions),
    }
    if att.mode == "fq":
        out["alpha"] = plan.point.a.value
    else:
        out["n"] = plan.point.n
        out["a"] = plan.point.a.value
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
    return out


def run_campaign(
    cfg: ExperimentConfig,
    threads: int = 1,
    record: list | None = None,
) -> CampaignReport:
    plan = build_plan(cfg)
    trials = cfg.attack.trials
    # workers rebuild the config from the raw document; recording needs the
    # in-process sample list, so it forces the sequential path
    if threads > 1 and cfg.raw and record is None:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(
                pool.map(_trial_worker, [(cfg.raw, i) for i in range(trials)])
            )
    else:
        rows = [run_trial(plan, i, record) for i in range(trials)]
    echo = dict(cfg.raw) if cfg.raw else {}
    echo.setdefault("seed", cfg.seed)
    return CampaignReport(echo, _plan_summary(plan), rows)


def _trial_worker(args: tuple[dict, int]) -> dict:
    doc, index = args
    cfg = config_from_dict(doc)
    return run_trial(build_plan(cfg), index)


# ---------------------------------------------------------------------------
# sample files (one JSON document per line)


def save_samples(path: str, samples: list[Sample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps(s.to_doc()) + "\n")


def load_samples(path: str, ring: RqContext) -> list[Sample]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not any(line.strip() for line in lines):
        raise ConfigError(f"sample file {path}: empty")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            a = ring.poly(doc["a"])
            b = ring.poly(doc["b"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"sample file {path}: line {lineno}: {exc}") from exc
        out.append(Sample(a, b))
    return out
