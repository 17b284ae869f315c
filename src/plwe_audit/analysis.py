"""Closed-form calculators behind the attacks: image variances, the series of
the distinguishing probability, cumulative binomial machinery, posterior and
success bounds, decision thresholds, and the instance vulnerability scanner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import betainc

from .fields import ExtFieldCtx, centered_value
from .rings import RqContext, binomial_logs, generator_powers, log_orders
from .samplers import p0_of

DEFAULT_SERIES_TOL = 1e-12
DEFAULT_TABLE_CAP = 10**8


class DomainError(ValueError):
    """Argument outside the function's domain."""


def quarter_count(q) -> int:
    """Number of residues mod q in [-q/4, q/4): ceil(q/4) + q - ceil(3q/4), q >= 2.
    A uniform residue lands there with probability quarter_count(q)/q,
    1/2 + 1/(2q) when q == 1 (mod 4) and 1/2 - 1/(2q) when q == 3 (mod 4)."""
    qv = int(q)
    return (qv + 3) // 4 + qv - (3 * qv + 3) // 4


def quarter_interval(q: int) -> tuple[int, int]:
    """(c, w): the quarter residues mod q are the cyclic interval [c, c + w),
    c = ceil(3q/4) mod q, w = quarter_count(q)."""
    return -(-3 * q // 4) % q, quarter_count(q)


def in_quarter_residues(v: np.ndarray, q: int) -> np.ndarray:
    """Whether the centered form of each residue in v, each in [0, q), lies
    in [-q/4, q/4), for every q < 2**62; in_quarter_value in
    tests/reference.py is its scalar oracle.  With d = v - c in (-q, q), v
    lies in [c, c + w) iff 0 <= d < w or d < w - q, and no term leaves
    int64."""
    c, w = quarter_interval(q)
    d = v - c
    return (d >= 0) & (d < w) | (d < w - q)


@lru_cache(maxsize=16)
def quarter_mask(q: int) -> np.ndarray:
    """Read-only mask of the residues mod q whose centered form lies in
    [-q/4, q/4); cached, since every trial of a campaign asks for it."""
    mask = in_quarter_residues(np.arange(q, dtype=np.int64), q)
    mask.flags.writeable = False
    return mask


# ---------------------------------------------------------------------------
# image variance of evaluated errors


@dataclass(frozen=True)
class BlockStructure:
    """How an error evaluated at a root of y^n - a (n = 1: an F_q root a)
    collapses: r_eff blocks of blocklen raw coefficients weighted by powers
    of a, out of n_terms coefficients per coordinate."""

    order: int  # ord(a); 0 at the root 0
    n_terms: int
    r_eff: int
    blocklen: int
    case_kind: str
    sigma_bar: float


def block_structure(point: ExtFieldCtx, N: int, sigma: float) -> BlockStructure:
    """Block structure of one evaluation point, for plans and the analyze
    report; scans take block_structures.

    sigma_bar^2 = sigma^2 * sum_k L*w_k^2: the weights w_k are the centered
    powers a^k, k < order, each fed by L = n_terms // order coefficients
    when the order is below n_terms, else the first n_terms powers with
    L = 1; at a = +-1 the sum is n_terms.  The sum is an exact integer."""
    n_terms = max(1, N // point.n)
    q, a, order = point.q, point.a, point.order
    if a == 0:
        # the root 0 kills every coefficient but the constant one
        return BlockStructure(0, n_terms, 1, 1, "general", math.sqrt(sigma * sigma))
    if centered_value(a, q) in (1, -1):
        kind, total = "pm_one", n_terms
    else:
        kind = "small_order" if order < n_terms else "general"
        count, length = (order, n_terms // order) if order < n_terms else (n_terms, 1)
        total, power = 0, 1
        for _ in range(count):
            total += length * centered_value(power, q) ** 2
            power = power * a % q
    return BlockStructure(
        order, n_terms, order, max(1, n_terms // order), kind, math.sqrt(sigma * sigma * total)
    )


# block_structures gathers at most this many weights at once, so each of its
# int64 temporaries stays near 8 MB however many points share an order.
_GATHER_ENTRIES = 1 << 20


def block_structures(
    n: int, idx: np.ndarray, N: int, sigma: float, G: np.ndarray
) -> list[BlockStructure]:
    """block_structure at the root of y^n - G[i], for every discrete log i
    in idx, G = generator_powers(q), computed together.

    The order of G[i] is (q-1)/gcd(i, q-1).  The points of one order share
    their weight count K and block length L, and their centered weights
    G[i*k mod (q-1)], k < K, come from one gather.  The sums of L*w^2 are
    exact in int64 while (N+1)*q^2 < 2**63, so sigma_bar is the scalar
    path's sqrt(sigma^2 * sum) bit for bit.
    """
    q = len(G) + 1
    n_terms = max(1, N // n)
    orders = log_orders(idx, q)
    sums = np.empty(len(idx), dtype=np.int64)
    for order in np.unique(orders).tolist():
        rows = np.flatnonzero(orders == order)
        count, length = (order, n_terms // order) if order < n_terms else (n_terms, 1)
        k = np.arange(count, dtype=np.int64)
        step = max(1, _GATHER_ENTRIES // count)
        for lo in range(0, len(rows), step):
            part = rows[lo : lo + step]
            w = G[idx[part, None] * k % (q - 1)]
            w -= q * (2 * w > q)
            sums[part] = length * (w * w).sum(axis=1)
    values = G[idx]
    pm_one = (values == 1) | (values == q - 1)
    sums[pm_one] = n_terms
    out = []
    for order, pm, total in zip(orders.tolist(), pm_one.tolist(), sums.tolist()):
        kind = "pm_one" if pm else "small_order" if order < n_terms else "general"
        sbar = math.sqrt(sigma * sigma * total)
        out.append(BlockStructure(order, n_terms, order, max(1, n_terms // order), kind, sbar))
    return out


# ---------------------------------------------------------------------------
# series for the quarter-interval probability


@dataclass(frozen=True)
class ProbabilityReport:
    """The quarter-interval event probability under the error distribution and
    its margins over the uniform baseline."""

    p_event: float
    delta: float  # p_event - 1/2
    big_delta: float  # delta - (+-1/(2q))
    ratio: float  # q / (sqrt(2) * sigma_bar)
    terms_used: int


def _erf_series(ratio: float) -> tuple[float, int]:
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
        if term < DEFAULT_SERIES_TOL and lo > 1.0:
            break
        if lo > 8.0:  # erf saturated; nothing left
            break
    return total, terms


def _dual_series(ratio: float) -> tuple[float, int]:
    """p - 1/2 by the Poisson-dual series of the wrapped Gaussian,
    sum_{k>=1} 2 sin(pi k/2)/(pi k) exp(-pi^2 k^2 / ratio^2): only odd k
    contribute, and the terms shrink with k, so it stops at the first term
    below DEFAULT_SERIES_TOL."""
    total, terms, k = 0.0, 0, 1
    while True:
        term = 2.0 / (math.pi * k) * math.exp(-((math.pi * k / ratio) ** 2))
        total += term if k % 4 == 1 else -term
        terms += 1
        if term < DEFAULT_SERIES_TOL:
            return total, terms
        k += 2


# Below this ratio the dual series needs fewer terms than the erf series,
# which sums about 8/ratio of them (both need 3 at ratio 2).
DUAL_SERIES_BELOW = 2.0


def _quarter_mass(ratio: float) -> tuple[float, float, int]:
    """(p, p - 1/2, terms used): the dual series below DUAL_SERIES_BELOW,
    where it keeps the relative precision of a tiny p - 1/2, and the erf
    series from there on."""
    if ratio < DUAL_SERIES_BELOW:
        delta, terms = _dual_series(ratio)
        return 0.5 + delta, delta, terms
    p, terms = _erf_series(ratio)
    return p, p - 0.5, terms


def delta_probability(q, sigma_bar_value: float) -> ProbabilityReport:
    """Probability that an evaluated error lands in [-q/4, q/4), via the
    wrapped-Gaussian series, plus the derived margins delta and Delta."""
    if not sigma_bar_value > 0:
        raise DomainError("sigma_bar must be positive")
    qv = int(q)
    ratio = qv / (math.sqrt(2.0) * sigma_bar_value)
    p, delta, terms = _quarter_mass(ratio)
    return ProbabilityReport(p, delta, big_delta(qv, delta), ratio, terms)


def big_delta(q, delta: float) -> float:
    """Delta = delta - (+-1/(2q)): the margin of an error image's
    quarter-interval mass 1/2 + delta over a uniform residue's,
    quarter_count(q)/q = 1/2 + (2*quarter_count(q) - q)/(2q)."""
    qv = int(q)
    return delta - (2 * quarter_count(qv) - qv) / (2 * qv)  # int / int is correctly rounded


def f_of_r(ratio: float) -> float:
    """The one-parameter form of the series, as a function of the
    distribution ratio r = q / (sqrt(2) * sigma_bar)."""
    if ratio <= 0:
        raise DomainError(f"ratio must be positive, got {ratio}")
    return _quarter_mass(ratio)[0]


# Monte Carlo draws are made and counted in blocks of this many, so the
# oracle holds 512 KiB of floats, not all its draws, at once.
MC_BLOCK = 1 << 16


def monte_carlo_delta(
    q, sigma_bar_value: float, rng: np.random.Generator, draws: int = 10**6
) -> float:
    """Empirical quarter-interval excess over 1/2 for rounded N(0, sigma_bar^2)
    reduced mod q.  This is the independent oracle for delta_probability.

    The draws are those of rng.normal(0, sigma_bar, draws), made MC_BLOCK at
    a time as standard normals scaled by sigma_bar and counted exactly by
    _block_hits, so the result equals the per-draw count mod q bit for bit
    at every q < 2**62 and every sigma_bar.
    """
    qv = int(q)
    block = np.empty(min(draws, MC_BLOCK))
    hits = 0
    for start in range(0, draws, MC_BLOCK):
        x = block[: min(MC_BLOCK, draws - start)]
        rng.standard_normal(out=x)
        x *= sigma_bar_value
        np.rint(x, out=x)
        hits += _block_hits(x, qv)
    return hits / draws - 0.5


def _block_hits(x: np.ndarray, q: int) -> int:
    """How many rounded draws x (overwritten) lie in the quarter interval
    mod q.  Draws spanning fewer than MC_BLOCK values are counted per value
    with one bincount, and only the distinct values are reduced mod q;
    wider blocks are reduced draw by draw, in int64 as r - r // q * q while
    every |draw| is below 2**62 (each term then stays in int64), and in
    Python ints beyond."""
    lo, hi = x.min(), x.max()
    if max(-lo, hi) >= 2**62:
        r = np.array([int(v) % q for v in x.tolist()], dtype=np.int64)
    elif hi - lo >= MC_BLOCK:
        r = x.astype(np.int64)
        r -= r // q * q
    else:
        x -= lo
        counts = np.bincount(x.astype(np.intp))
        values = np.arange(int(lo), int(lo) + counts.size) % q
        return int(counts[in_quarter_residues(values, q)].sum())
    return int(np.count_nonzero(in_quarter_residues(r, q)))


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


@lru_cache(maxsize=256)
def usva_threshold(ell: int, q, delta: float) -> int:
    """Vote threshold of the unbounded attack:
    T = ceil(l(q-1)(1/2 +- 1/(2q)) + l(1/2 + delta)), the sign fixed by q mod 4.

    Evaluated in exact rational arithmetic so both published closed forms agree
    to the integer.  A campaign asks with the same arguments on every trial,
    so results are cached.
    """
    if ell < 1:
        raise ValueError("need at least one sample")
    qv = int(q)
    t = ell * (qv - 1) * Fraction(quarter_count(qv), qv)
    t += ell * (Fraction(1, 2) + Fraction(delta))
    return math.ceil(t)


@lru_cache(maxsize=256)
def hit_threshold(ell: int, q, delta: float) -> int:
    """Threshold tau on the best per-candidate hit count max_g h_g of the
    unbounded attack, h_g = #{i : t_i - u_i*g in [-q/4, q/4)}.

    tau in 0..ell+1 minimises the union bound on the false-positive rate,
    min(1, q * P(Bin(ell, quarter_count(q)/q) >= tau)), plus the miss rate of
    the true candidate, P(Bin(ell, 1/2 + delta) < tau); ties go to the larger
    tau, so a batch size with no distinguishing power gets ell + 1 and the
    attack always says uniform.  A campaign asks with the same arguments on
    every trial, so results are cached.
    """
    if ell < 1:
        raise ValueError("need at least one sample")
    qv = int(q)
    p_uniform = quarter_count(qv) / qv
    p_true = 0.5 + delta
    best_tau, best_err = 0, math.inf
    for tau in range(ell + 2):
        # P(Bin(ell, p) >= tau) = P(Bin(ell, 1 - p) <= ell - tau)
        false_alarm = min(1.0, qv * cumulative_binomial(ell - tau, ell, 1.0 - p_uniform))
        miss = cumulative_binomial(tau - 1, ell, p_true)
        if false_alarm + miss <= best_err:  # ties go to the larger tau
            best_tau, best_err = tau, false_alarm + miss
    return best_tau


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
    qv = int(q)
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

    vote_posterior: float
    not_plwe_posterior: float | None
    success_on_plwe: float
    success_on_uniform: float


def _one_minus_q_pow(q: int, x: float, m: int) -> float:
    """1 - q * x^M without underflow in the power; -inf when q * x^M
    exceeds a float."""
    if x <= 0.0:
        return 1.0
    try:
        return 1.0 - math.exp(math.log(q) + m * math.log(x))
    except OverflowError:
        return -math.inf


def _per_sample_mass(
    family: str, truncated: bool, qv: int, sigma_size, r
) -> tuple[float, float, float]:
    """(x_plain, x_adj, p0) of one family: the chance x_plain that a wrong
    candidate passes one sample's test, |Sigma|/q or the quarter share u,
    x_adj = x_plain / p0^r (r = 1 for small values), and p0, the truncation
    mode's mass; truncated, p0 = 1 and x_adj is x_plain."""
    p0 = p0_of(truncated)
    if family == "small_set":
        if sigma_size is None or r is None:
            raise ValueError("small_set bounds need sigma_size and r")
        return sigma_size / qv, sigma_size / (qv * p0**r), p0
    if family == "small_values":
        u = quarter_count(qv) / qv
        return u, u / p0, p0
    raise ValueError(f"unknown family {family!r}")


def posterior_bounds(
    family: str,
    truncated: bool,
    *,
    M: int,
    q,
    sigma_size: float | None = None,
    r: int | None = None,
) -> PosteriorBounds:
    """Bounds for "small_set" (needs sigma_size and r) or "small_values"."""
    qv = int(q)
    x_plain, x_adj, p0 = _per_sample_mass(family, truncated, qv, sigma_size, r)
    return PosteriorBounds(
        vote_posterior=_one_minus_q_pow(qv, x_adj, M),
        not_plwe_posterior=1.0 if truncated else None,
        success_on_plwe=p0 ** (M * (r if family == "small_set" else 1)),
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
) -> int | None:
    """Smallest M whose vote posterior reaches the target, or None when the
    bound cannot reach it for any M.

    The closed form can miss by a rounding step where the posterior meets
    the target, so posterior_bounds's own arithmetic settles the last
    samples."""
    qv = int(q)
    x = _per_sample_mass(family, truncated, qv, sigma_size, r)[1]
    if x >= 1.0 or not (0.0 < target < 1.0):
        return None
    m = max(1, math.ceil((math.log(qv) - math.log(1.0 - target)) / -math.log(x)))
    while _one_minus_q_pow(qv, x, m) < target:
        m += 1
    while m > 1 and _one_minus_q_pow(qv, x, m - 1) >= target:
        m -= 1
    return m


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


def point_keys(n: int, a: int, blocks: BlockStructure) -> dict:
    """How scan and analyze reports spell the root of y^n - a: alpha at an
    F_q root (n = 1, alpha = a), else n, a and the block counts n_prime and
    n_second; then order, case and sigma_bar."""
    if n == 1:
        where = {"alpha": a}
    else:
        where = {"n": n, "a": a, "n_prime": blocks.n_terms, "n_second": blocks.blocklen}
    return {
        **where, "order": blocks.order, "case": blocks.case_kind, "sigma_bar": blocks.sigma_bar
    }


@dataclass(frozen=True)
class PointVuln:
    """A point a scan lists, the root of an irreducible divisor y^n - a of f
    mod q (an F_q root alpha = a as n = 1), with its block structure and the
    flags of the attacks there."""

    n: int
    a: int
    blocks: BlockStructure
    flags: tuple[AttackFlag, ...]

    # the names that scripts/scan_rings.py and perfbench read
    @property
    def alpha(self) -> int:
        return self.a

    @property
    def order(self) -> int:
        return self.blocks.order

    def to_dict(self) -> dict:
        return {
            **point_keys(self.n, self.a, self.blocks),
            "attacks": [f.to_dict() for f in self.flags],
        }


@dataclass(frozen=True)
class VulnReport:
    q: int
    N: int
    sigma: float
    truncated: bool
    roots: tuple[PointVuln, ...]  # n = 1
    factors: tuple[PointVuln, ...]  # n >= 2

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


@dataclass(frozen=True)
class SmallSetSize:
    """The Sigma table of r blocks of blocklen error coefficients at width
    sigma, before it is built: the enumeration bound, the tuple count
    against the cap, and the analytic size."""

    bound: int  # floor(2*sqrt(blocklen)*sigma): each block value has |x_j| <= bound
    tuples_log10: float  # log10 of the (2*bound+1)^r enumerated tuples
    tuple_count: int | None  # (2*bound+1)^r, None from 10^18 on
    feasible: bool  # the tuple count is at most the cap
    log_analytic: float  # log of the analytic size
    analytic: float  # (4*sqrt(blocklen)*sigma+1)^r, inf beyond a float


def small_set_size(r: int, blocklen: int, sigma: float, cap=DEFAULT_TABLE_CAP) -> SmallSetSize:
    """The size of the Sigma table, for tables, flags and analyze alike."""
    bound = math.floor(2.0 * math.sqrt(blocklen) * sigma)
    tuples_log10 = r * math.log10(2 * bound + 1)
    tuple_count = (2 * bound + 1) ** r if tuples_log10 < 18 else None
    feasible = tuples_log10 <= math.log10(cap) if tuple_count is None else tuple_count <= cap
    base = 4.0 * math.sqrt(blocklen) * sigma + 1.0
    try:
        analytic = base**r
    except OverflowError:
        analytic = math.inf
    return SmallSetSize(bound, tuples_log10, tuple_count, feasible, r * math.log(base), analytic)


def small_set_flag(
    q: int, truncated: bool, r: int, blocklen: int, sigma: float, table_cap: int
) -> AttackFlag:
    """The small-set precondition: a table feasible under the cap whose
    analytic size stays below q*p0^r."""
    p0 = p0_of(truncated)
    size = small_set_size(r, blocklen, sigma, table_cap)
    # the report takes the size as exp of its log, which may differ from
    # the table's power in the last bit; the pinned scan reports read it so
    analytic = math.exp(size.log_analytic) if math.isfinite(size.analytic) else None
    budget = q * p0**r
    ok = size.feasible and size.log_analytic < math.log(q) + r * math.log(p0)
    if not size.feasible:
        cond = (
            f"table infeasible: ({2 * size.bound + 1})^{r} ~ 10^{size.tuples_log10:.0f} "
            f"> cap {table_cap:.1e} (order too large)"
        )
    else:
        rel = "<" if ok else ">="
        shown = (
            f"{analytic:.1f}" if analytic is not None
            else f"10^{size.log_analytic / math.log(10):.0f}"
        )
        cond = f"(4*sqrt({blocklen})*sigma+1)^{r} = {shown} {rel} q*p0^{r} = {budget:.1f}"
    details = {
        "r": r,
        "blocklen": blocklen,
        "tuple_count": size.tuple_count,
        "tuple_count_log10": size.tuples_log10,
        "analytic_bound": analytic,
        "size_budget": budget,
    }
    if ok:
        details["min_M_for_0.99"] = minimal_samples(
            "small_set", truncated, 0.99, q=q, sigma_size=analytic, r=r
        )
    return AttackFlag("small_set", ok, cond, details)


def small_values_flag(q: int, truncated: bool, sbar: float, n: int) -> AttackFlag:
    """The small-values precondition 2*sigma_bar against q/4 at a root of
    y^n - a: <= at an F_q root (n = 1), < from n = 2 on."""
    lhs, rhs = 2.0 * sbar, q / 4.0
    ok = lhs <= rhs if n == 1 else lhs < rhs
    shown = ("<=" if n == 1 else "<") if ok else (">" if n == 1 else ">=")
    cond = f"2*sigma_bar = {lhs:.2f} {shown} q/4 = {rhs:.2f}"
    details = {"sigma_bar": sbar}
    if ok:
        details["min_M_for_0.99"] = minimal_samples("small_values", truncated, 0.99, q=q)
    return AttackFlag("small_values", ok, cond, details)


def unbounded_flag(q: int, delta: float, **details) -> AttackFlag:
    """The unbounded precondition Delta > 0 for the caller's delta (the
    series, a Monte Carlo estimate or a given value), with extra details."""
    margin = big_delta(q, delta)
    ok = margin > 0
    cond = f"Delta = {margin:.6g} {'>' if ok else '<='} 0"
    details = {"delta": delta, "big_delta": margin, **details}
    return AttackFlag("unbounded_small_values", ok, cond, details)


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
    grows steeply with the degree, so higher extensions are opt-in).  One
    table of generator powers serves the root and divisor search and the
    block structures of every degree, and each distinct (r_eff, blocklen,
    sigma_bar) gets its flags once: all roots of x^N + 1 share them.
    """
    q, N = ctx.q, ctx.N
    G = generator_powers(q)
    seen: dict[tuple, tuple[AttackFlag, ...]] = {}

    def point(n: int, a: int, bs: BlockStructure) -> PointVuln:
        key = (bs.r_eff, bs.blocklen, bs.sigma_bar, n)
        if key not in seen:
            prob = delta_probability(q, bs.sigma_bar)
            seen[key] = (
                small_set_flag(q, truncated, bs.r_eff, bs.blocklen, sigma, table_cap),
                small_values_flag(q, truncated, bs.sigma_bar, n),
                unbounded_flag(q, prob.delta, ratio=prob.ratio, p_event=prob.p_event),
            )
        return PointVuln(n, a, bs, seen[key])

    def points(n: int) -> list[PointVuln]:
        idx = binomial_logs(ctx, n, G)
        structures = block_structures(n, idx, N, sigma, G)
        return [point(n, a, bs) for a, bs in zip(G[idx].tolist(), structures)]

    roots = points(1)
    if ctx.f_mod[0] == 0:
        roots.insert(0, point(1, 0, block_structure(ExtFieldCtx(1, 0, ctx.modulus), N, sigma)))
    factors = [p for n in range(2, min(n_max, N) + 1) for p in points(n)]
    return VulnReport(q, N, sigma, truncated, tuple(roots), tuple(factors))
