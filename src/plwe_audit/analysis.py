"""Closed-form calculators behind the attacks: image variances, the erf-series
distinguishing probability, cumulative binomial machinery, posterior and
success bounds, decision thresholds, and the instance vulnerability scanner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import betainc

from .fields import FieldElement, PrimeModulus, centered_value, mult_order
from .rings import RqContext, find_binomial_factors, find_fq_roots
from .samplers import P0_UNTRUNCATED

DEFAULT_SERIES_TOL = 1e-12
DEFAULT_TABLE_CAP = 10**8


class DomainError(ValueError):
    """Argument outside the function's domain."""


def _q_of(q) -> int:
    return q.q if isinstance(q, PrimeModulus) else int(q)


def uniform_offset(q) -> Fraction:
    """The signed deviation of the quarter-interval mass of a uniform residue
    from 1/2: +1/(2q) when q == 1 (mod 4), -1/(2q) when q == 3 (mod 4)."""
    qv = _q_of(q)
    return Fraction(1, 2 * qv) if qv % 4 == 1 else Fraction(-1, 2 * qv)


def quarter_count(q) -> int:
    """Number of residues mod q whose centered form lies in [-q/4, q/4)."""
    qv = _q_of(q)
    return (qv + 1) // 2 if qv % 4 == 1 else (qv - 1) // 2


# ---------------------------------------------------------------------------
# image variance of evaluated errors


@dataclass(frozen=True)
class VarianceCase:
    """How an evaluated error collapses into weighted Gaussian blocks.

    weights are centered representatives of the powers of the evaluation
    weight; block_lengths give how many raw coefficients feed each weight.
    """

    setting: str  # "fq" | "trace"
    case_kind: str  # "pm_one" | "small_order" | "general"
    weights: tuple[int, ...]
    block_lengths: tuple[int, ...]


def classify_variance_case(
    setting: str, w: FieldElement, order: int, n_terms: int
) -> VarianceCase:
    """Pick the variance case for evaluation weight w with n_terms raw
    coefficients in play (the ring degree, or the per-block trace count)."""
    q = w.q
    c = centered_value(w.value, q)
    if c in (1, -1):
        return VarianceCase(setting, "pm_one", (1,), (n_terms,))
    if order and order < n_terms:
        blocklen = max(1, n_terms // order)
        weights = tuple(
            centered_value(pow(w.value, i, q), q) for i in range(order)
        )
        return VarianceCase(setting, "small_order", weights, (blocklen,) * order)
    weights = tuple(centered_value(pow(w.value, i, q), q) for i in range(n_terms))
    return VarianceCase(setting, "general", weights, (1,) * n_terms)


def sigma_bar(case: VarianceCase, sigma: float) -> float:
    """Standard deviation of the collapsed error image:
    sigma_bar^2 = sum_i block_length_i * sigma^2 * weight_i^2."""
    var = sigma * sigma * sum(
        L * wgt * wgt for L, wgt in zip(case.block_lengths, case.weights)
    )
    return math.sqrt(var)


@dataclass(frozen=True)
class BlockStructure:
    """How an error evaluated at a root of y^n - a (n = 1: an F_q root a)
    collapses: r_eff blocks of blocklen raw coefficients weighted by powers
    of a, out of n_terms coefficients per coordinate."""

    order: int  # ord(a); 0 at the root 0
    n_terms: int
    r_eff: int
    blocklen: int
    case: VarianceCase
    sigma_bar: float


def block_structure(n: int, a: FieldElement, N: int, sigma: float) -> BlockStructure:
    """Block structure of the evaluation point shared by plans, scans and
    the analyze report."""
    n_terms = max(1, N // n)
    if a.value == 0:
        # the root 0 kills every coefficient but the constant one
        case = VarianceCase("fq", "general", (1,), (1,))
        return BlockStructure(0, n_terms, 1, 1, case, sigma_bar(case, sigma))
    order = mult_order(a)
    case = classify_variance_case("fq" if n == 1 else "trace", a, order, n_terms)
    blocklen = max(1, n_terms // order)
    return BlockStructure(order, n_terms, order, blocklen, case, sigma_bar(case, sigma))


# ---------------------------------------------------------------------------
# erf series for the quarter-interval probability


@dataclass(frozen=True)
class ProbabilityReport:
    """The quarter-interval event probability under the error distribution and
    its margins over the uniform baseline."""

    p_event: float
    delta: float  # p_event - 1/2
    big_delta: float  # delta - (+-1/(2q))
    ratio: float  # q / (sqrt(2) * sigma_bar)
    terms_used: int


def _erf_series(ratio: float, tol: float) -> tuple[float, int]:
    total = math.erf(ratio / 4.0)
    terms = 0
    j = 0
    while True:
        lo = ratio * (0.75 + j)
        hi = ratio * (1.25 + j)
        term = math.erf(hi) - math.erf(lo)
        total += term
        terms += 1
        j += 1
        if term < tol and lo > 1.0:
            break
        if lo > 8.0:  # erf saturated; nothing left
            break
    return total, terms


def delta_probability(q, sigma_bar_value: float, tol: float = DEFAULT_SERIES_TOL) -> ProbabilityReport:
    """Probability that an evaluated error lands in [-q/4, q/4), via the
    wrapped-Gaussian erf series, plus the derived margins delta and Delta."""
    if not sigma_bar_value > 0:
        raise DomainError("sigma_bar must be positive")
    qv = _q_of(q)
    ratio = qv / (math.sqrt(2.0) * sigma_bar_value)
    p, terms = _erf_series(ratio, tol)
    delta = p - 0.5
    big_delta = delta - float(uniform_offset(qv))
    return ProbabilityReport(p, delta, big_delta, ratio, terms)


def f_of_r(ratio: float, tol: float = DEFAULT_SERIES_TOL) -> float:
    """The one-parameter form of the erf series, as a function of the
    distribution ratio r = q / (sqrt(2) * sigma_bar)."""
    if ratio <= 0:
        raise DomainError(f"ratio must be positive, got {ratio}")
    return _erf_series(ratio, tol)[0]


def f_of_r_table(ratios) -> list[tuple[float, float]]:
    return [(float(r), f_of_r(float(r))) for r in ratios]


def monte_carlo_delta(
    q, sigma_bar_value: float, rng: np.random.Generator, draws: int = 10**6
) -> float:
    """Empirical quarter-interval excess over 1/2 for rounded N(0, sigma_bar^2)
    reduced mod q.  This is the independent oracle for delta_probability."""
    qv = _q_of(q)
    x = np.rint(rng.normal(0.0, sigma_bar_value, size=draws)).astype(np.int64) % qv
    hits = (4 * x < qv) | (4 * x >= 3 * qv)
    return float(hits.mean()) - 0.5


# ---------------------------------------------------------------------------
# binomial machinery and thresholds


def cumulative_binomial(k: int, trials: int, p: float) -> float:
    """F(k, n, p) = P(Bin(n, p) <= k), stable up to n ~ 10^6."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    if k < 0:
        return 0.0
    if k >= trials:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    # regularized incomplete beta: P(Bin(n,p) <= k) = I_{1-p}(n-k, k+1)
    return float(betainc(trials - k, k + 1, 1.0 - p))


def usva_threshold(ell: int, q, delta: float) -> int:
    """Vote threshold of the unbounded attack:
    T = ceil(l(q-1)(1/2 +- 1/(2q)) + l(1/2 + delta)), the sign fixed by q mod 4.

    Evaluated in exact rational arithmetic so both published closed forms agree
    to the integer.
    """
    if ell < 1:
        raise ValueError("need at least one sample")
    qv = _q_of(q)
    base = Fraction(1, 2) + uniform_offset(qv)
    t = ell * (qv - 1) * base + ell * (Fraction(1, 2) + Fraction(delta))
    return math.ceil(t)


def extended_threshold(chunks: int, p0: float, m0: int, r_eff: int) -> int:
    """Vote threshold of the chunked attacks: T = ceil(c * p0^(M0 * r_eff))."""
    return math.ceil(chunks * p0 ** (m0 * r_eff))


@dataclass(frozen=True)
class GateReport:
    """Evaluation of the published applicability inequality for the chunked
    attacks: 1 - (|Sigma|/q)^M0 < p0^(M0 * r_eff).

    The inequality is recorded, never enforced: it fails for every chunk size
    large enough to be useful, including the sizes behind the published
    experiments, so it cannot be a hard run condition.
    """

    lhs: float
    rhs: float
    satisfied: bool


def extended_gate(
    sigma_size: float, q, p0: float, m0: int, r_eff: int
) -> GateReport:
    qv = _q_of(q)
    lhs = 1.0 - (sigma_size / qv) ** m0
    rhs = p0 ** (m0 * r_eff)
    return GateReport(lhs, rhs, lhs < rhs)


# ---------------------------------------------------------------------------
# posterior / success bounds


@dataclass(frozen=True)
class PosteriorBounds:
    """The closed-form lower bounds attached to one attack family.

    vote_posterior      P(PLWE | verdict other than NOT PLWE)
    not_plwe_posterior  P(uniform | NOT PLWE); None when only the asymptotic
                        1/2 statement is available
    success_on_plwe     P(verdict other than NOT PLWE | PLWE)
    success_on_uniform  P(NOT PLWE | uniform)
    """

    family: str
    truncated: bool
    M: int
    vote_posterior: float
    not_plwe_posterior: float | None
    success_on_plwe: float
    success_on_uniform: float


def _one_minus_q_pow(q: int, x: float, m: int) -> float:
    """1 - q * x^M without underflow in the power."""
    if x <= 0.0:
        return 1.0
    return 1.0 - math.exp(math.log(q) + m * math.log(x))


def posterior_bounds(
    family: str,
    truncated: bool,
    *,
    M: int,
    q,
    sigma_size: float | None = None,
    r: int | None = None,
    p0: float | None = None,
) -> PosteriorBounds:
    """Bounds for "small_set" (needs sigma_size and r) or "small_values"."""
    qv = _q_of(q)
    if p0 is None:
        p0 = 1.0 if truncated else P0_UNTRUNCATED
    if family == "small_set":
        if sigma_size is None or r is None:
            raise ValueError("small_set bounds need sigma_size and r")
        x_plain = sigma_size / qv
        x_adj = sigma_size / (qv * p0**r)
        success_plwe = 1.0 if truncated else p0 ** (M * r)
    elif family == "small_values":
        u = float(Fraction(1, 2) + uniform_offset(qv))
        x_plain = u
        x_adj = u / p0
        success_plwe = 1.0 if truncated else p0**M
    else:
        raise ValueError(f"unknown family {family!r}")
    vote_posterior = _one_minus_q_pow(qv, x_plain if truncated else x_adj, M)
    return PosteriorBounds(
        family=family,
        truncated=truncated,
        M=M,
        vote_posterior=vote_posterior,
        not_plwe_posterior=1.0 if truncated else None,
        success_on_plwe=success_plwe,
        success_on_uniform=_one_minus_q_pow(qv, x_plain, M),
    )


def minimal_samples(
    family: str,
    truncated: bool,
    target: float,
    *,
    q,
    sigma_size: float | None = None,
    r: int | None = None,
    p0: float | None = None,
) -> int | None:
    """Smallest M whose vote posterior reaches the target, or None when the
    bound cannot reach it for any M."""
    qv = _q_of(q)
    if p0 is None:
        p0 = 1.0 if truncated else P0_UNTRUNCATED
    if family == "small_set":
        x = (sigma_size / qv) if truncated else sigma_size / (qv * p0 ** (r or 1))
    elif family == "small_values":
        u = float(Fraction(1, 2) + uniform_offset(qv))
        x = u if truncated else u / p0
    else:
        raise ValueError(f"unknown family {family!r}")
    if x >= 1.0 or not (0.0 < target < 1.0):
        return None
    m = math.ceil((math.log(qv) - math.log(1.0 - target)) / -math.log(x))
    return max(m, 1)


# ---------------------------------------------------------------------------
# instance scanner


@dataclass(frozen=True)
class AttackFlag:
    attack: str
    applicable: bool
    condition: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "attack": self.attack,
            "applicable": self.applicable,
            "condition": self.condition,
            "details": self.details,
        }


@dataclass(frozen=True)
class RootVuln:
    alpha: int
    order: int
    case_kind: str
    sigma_bar: float
    flags: tuple[AttackFlag, ...]

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "order": self.order,
            "case": self.case_kind,
            "sigma_bar": self.sigma_bar,
            "attacks": [f.to_dict() for f in self.flags],
        }


@dataclass(frozen=True)
class FactorVuln:
    n: int
    a: int
    order: int
    n_prime: int
    n_second: int
    case_kind: str
    sigma_bar: float
    flags: tuple[AttackFlag, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "order": self.order,
            "n_prime": self.n_prime,
            "n_second": self.n_second,
            "case": self.case_kind,
            "sigma_bar": self.sigma_bar,
            "attacks": [f.to_dict() for f in self.flags],
        }


@dataclass(frozen=True)
class VulnReport:
    q: int
    N: int
    sigma: float
    truncated: bool
    roots: tuple[RootVuln, ...]
    factors: tuple[FactorVuln, ...]

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "N": self.N,
            "sigma": self.sigma,
            "truncated": self.truncated,
            "fq_roots": [r.to_dict() for r in self.roots],
            "binomial_factors": [f.to_dict() for f in self.factors],
        }

    def is_empty(self) -> bool:
        return not self.roots and not self.factors


def _small_set_flag(
    q: int, p0: float, r: int, blocklen: int, sigma: float, table_cap: int
) -> AttackFlag:
    bound_int = math.floor(2.0 * math.sqrt(blocklen) * sigma)
    log10_tuples = r * math.log10(2 * bound_int + 1)
    log_analytic = r * math.log(4.0 * math.sqrt(blocklen) * sigma + 1.0)
    analytic = math.exp(log_analytic) if log_analytic < 700.0 else None
    budget = q * p0**r
    feasible = log10_tuples <= math.log10(table_cap)
    if not feasible:
        cond = (
            f"table infeasible: ({2 * bound_int + 1})^{r} ~ 10^{log10_tuples:.0f} "
            f"> cap {table_cap:.1e} (order too large)"
        )
        ok = False
    else:
        ok = analytic < budget
        rel = "<" if ok else ">="
        cond = f"(4*sqrt({blocklen})*sigma+1)^{r} = {analytic:.1f} {rel} q*p0^{r} = {budget:.1f}"
    details = {
        "r": r,
        "blocklen": blocklen,
        "tuple_count": (2 * bound_int + 1) ** r if log10_tuples < 18 else None,
        "tuple_count_log10": log10_tuples,
        "analytic_bound": analytic,
        "size_budget": budget,
    }
    if ok:
        m99 = minimal_samples(
            "small_set", p0 == 1.0, 0.99, q=q, sigma_size=analytic, r=r, p0=p0
        )
        details["min_M_for_0.99"] = m99
    return AttackFlag("small_set", ok, cond, details)


def _small_values_flag(
    q: int, truncated: bool, sbar: float, strict: bool
) -> AttackFlag:
    lhs = 2.0 * sbar
    rhs = q / 4.0
    ok = lhs < rhs if strict else lhs <= rhs
    rel = "<" if strict else "<="
    shown = rel if ok else (">=" if strict else ">")
    cond = f"2*sigma_bar = {lhs:.2f} {shown} q/4 = {rhs:.2f}"
    details = {"sigma_bar": sbar}
    if ok:
        details["min_M_for_0.99"] = minimal_samples(
            "small_values", truncated, 0.99, q=q
        )
    return AttackFlag("small_values", ok, cond, details)


def _usva_flag(q: int, sbar: float) -> AttackFlag:
    report = delta_probability(q, sbar)
    ok = report.big_delta > 0
    rel = ">" if ok else "<="
    cond = f"Delta = {report.big_delta:.6g} {rel} 0"
    return AttackFlag(
        "unbounded_small_values",
        ok,
        cond,
        {
            "delta": report.delta,
            "big_delta": report.big_delta,
            "ratio": report.ratio,
            "p_event": report.p_event,
        },
    )


def scan_instance(
    ctx: RqContext,
    sigma: float,
    truncated: bool,
    n_max: int = 4,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> VulnReport:
    """Enumerate the vulnerable evaluation points of (f, q, sigma) and flag
    which attacks their preconditions admit.

    Extensions are scanned up to degree n_max (default 4: the look-up work
    grows steeply with the degree, so higher extensions are opt-in).
    """
    q = ctx.q
    p0 = 1.0 if truncated else P0_UNTRUNCATED

    def flags(bs: BlockStructure, strict: bool) -> tuple[AttackFlag, ...]:
        return (
            _small_set_flag(q, p0, bs.r_eff, bs.blocklen, sigma, table_cap),
            _small_values_flag(q, truncated, bs.sigma_bar, strict),
            _usva_flag(q, bs.sigma_bar),
        )

    roots = []
    for alpha, _ in find_fq_roots(ctx):
        bs = block_structure(1, alpha, ctx.N, sigma)
        roots.append(
            RootVuln(
                alpha.value, bs.order, bs.case.case_kind, bs.sigma_bar, flags(bs, False)
            )
        )
    factors = []
    for n in range(2, min(n_max, ctx.N) + 1):
        for a_elt, _ in find_binomial_factors(ctx, n):
            bs = block_structure(n, a_elt, ctx.N, sigma)
            factors.append(
                FactorVuln(
                    n, a_elt.value, bs.order, bs.n_terms, bs.blocklen,
                    bs.case.case_kind, bs.sigma_bar, flags(bs, True),
                )
            )
    return VulnReport(q, ctx.N, sigma, truncated, tuple(roots), tuple(factors))

