"""Closed-form calculators behind the attacks: image variances, the series of
the distinguishing probability, cumulative binomial machinery, posterior and
success bounds, decision thresholds, and the instance vulnerability scanner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .fields import ExtFieldCtx, centered_value
from .rings import RqContext, binomial_logs, generator_powers, log_orders
from .samplers import p0_of

DEFAULT_SERIES_TOL = 1e-12
DEFAULT_TABLE_CAP = 10**8
_LN_2PI = math.log(2 * math.pi)


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


def quarter_mask(q: int) -> np.ndarray:
    """Read-only mask of the residues mod q whose centered form lies in
    [-q/4, q/4); a plan builds it once and holds it for its trials."""
    mask = in_quarter_residues(np.arange(q, dtype=np.int64), q)
    mask.flags.writeable = False
    return mask


# ---------------------------------------------------------------------------
# image variance of evaluated errors


@dataclass(frozen=True)
class BlockStructure:
    """How an error evaluated at a root of y^n - a (n = 1: an F_q root a)
    collapses: counts[k] of the n_terms coefficients per coordinate carry
    the weight a^k (class_counts), and sigma_bar is the width of their sum."""

    order: int  # ord(a); 0 at the root 0
    n_terms: int
    counts: tuple[int, ...]
    sigma_bar: float


@lru_cache(maxsize=256)
def class_counts(order: int, n_terms: int) -> tuple[int, ...]:
    """How many of the n_terms coefficients of a coordinate carry each
    weight a^k at a root of the given order, by the paper's count: the root
    0 keeps the constant coefficient alone; an order that reaches n_terms
    gives each coefficient its own weight; a = +-1 splits all n_terms over
    its one or two classes; a small order r gives r blocks of n_terms // r
    and leaves out the remainder, which ROADMAP item 9 counts."""
    if order == 0:
        return (1,)
    if 2 < order < n_terms:
        return (n_terms // order,) * order
    return tuple(n_terms // order + (k < n_terms % order) for k in range(min(order, n_terms)))


def block_structure(point: ExtFieldCtx, N: int, sigma: float) -> BlockStructure:
    """Block structure of one evaluation point, for plans and the analyze
    report (scans take block_structures): sigma_bar^2 = sigma^2 * sum_k
    counts[k] * w_k^2, w_k the centered powers a^k, an exact integer sum."""
    q, order, n_terms = point.q, point.order, max(1, N // point.n)
    counts = class_counts(order, n_terms)
    total, power = 0, 1
    for count in counts:
        total += count * centered_value(power, q) ** 2
        power = power * point.a % q
    return BlockStructure(order, n_terms, counts, math.sqrt(sigma * sigma * total))


# block_structures gathers at most this many weights at once, so each of its
# int64 temporaries stays near 8 MB however many points share an order.
_GATHER_ENTRIES = 1 << 20


def block_structures(
    n: int, idx: np.ndarray, N: int, sigma: float, G: np.ndarray
) -> list[BlockStructure]:
    """block_structure at the root of y^n - G[i], for every discrete log i
    in idx, G = generator_powers(q), computed together.  The centered
    weights |a^k| at a point a of order o = (q-1)/gcd(i, q-1) repeat with
    period P = o/2 for even o (a^(o/2) = -1), else o, so class_counts folds
    mod P into exact integer sums C and each point gathers at most P weights
    |G[i*k mod (q-1)]|; when the P sums are equal, the a^k, k < P, run over
    the order-o subgroup up to sign, so one row serves every point of that
    order: the 1024 roots of x^1024 + 1 mod 12289, every order below
    n_terms.  The sums of count*w^2 are exact in int64 while (N+1)*q^2 <
    2**63, so sigma_bar is the scalar path's sqrt(sigma^2 * sum) bit for
    bit; points with one order and sum share one BlockStructure."""
    if not idx.size:
        return []
    q = len(G) + 1
    n_terms = max(1, N // n)
    orders = log_orders(idx, q)
    sums = np.empty(len(idx), dtype=np.int64)
    for order in set(orders.tolist()):
        rows = np.flatnonzero(orders == order)
        counts = class_counts(order, n_terms)
        period = order // 2 if order % 2 == 0 else order
        C = np.array(counts[:period], dtype=np.int64)
        if len(counts) > period:  # len(counts) <= order <= 2 * period: one fold
            C[: len(counts) - period] += counts[period:]
        one_sum = C.size == period and (C == C[0]).all()
        gather = rows[:1] if one_sum else rows
        k = np.arange(C.size, dtype=np.int64)
        step = max(1, _GATHER_ENTRIES // C.size)
        for lo in range(0, len(gather), step):
            part = gather[lo : lo + step]
            e = idx[part, None] * k
            w = G.take(e - e // (q - 1) * (q - 1))  # G[e % (q-1)], as in binomial_logs
            w = np.minimum(w, q - w)  # |centered w|
            sums[part] = (w * w) @ C
        if one_sum:
            sums[rows] = sums[rows[0]]
    keys = list(zip(orders.tolist(), sums.tolist()))
    shared = {
        (o, t): BlockStructure(o, n_terms, class_counts(o, n_terms), math.sqrt(sigma * sigma * t))
        for o, t in set(keys)
    }
    return [shared[key] for key in keys]


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


def _erf_series(ratio: float) -> tuple[float, int]:
    """(p, terms used) up to the first term below DEFAULT_SERIES_TOL past
    lo = 1, which comes by lo = 6: erf is 1.0 there, and the term 0.0."""
    total = math.erf(ratio / 4.0)
    j = 0
    while True:
        lo = ratio * (0.75 + j)
        term = math.erf(ratio * (1.25 + j)) - math.erf(lo)
        total += term
        j += 1
        if term < DEFAULT_SERIES_TOL and lo > 1.0:
            return total, j


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


def _quarter_mass(ratio: float) -> tuple[float, float]:
    """(p, p - 1/2): the dual series below DUAL_SERIES_BELOW, where it keeps
    the relative precision of a tiny p - 1/2, and the erf series from there
    on."""
    if ratio < DUAL_SERIES_BELOW:
        delta = _dual_series(ratio)[0]
        return 0.5 + delta, delta
    p = _erf_series(ratio)[0]
    return p, p - 0.5


def delta_probability(q, sigma_bar_value: float) -> ProbabilityReport:
    """Probability that an evaluated error lands in [-q/4, q/4), via the
    wrapped-Gaussian series, plus the derived margins delta and Delta."""
    if not sigma_bar_value > 0:
        raise DomainError("sigma_bar must be positive")
    qv = int(q)
    ratio = qv / (math.sqrt(2.0) * sigma_bar_value)
    p, delta = _quarter_mass(ratio)
    return ProbabilityReport(p, delta, big_delta(qv, delta), ratio)


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


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), n >= 1: lgamma below 16, else
    the Stirling series to n^-9 (Loader 2000)."""
    if n < 16:
        return math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - 0.5 * _LN_2PI
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: int, m: float) -> float:
    """Loader's deviance term x log(x/m) + m - x, as x log1p(d/m) - d with
    d = x - m: its absolute error is a few ulp while |d| <= 1."""
    d = x - m
    return x * math.log1p(d / m) - d


def _binomial_pmf(k: int, n: int, p: float, q: float) -> float:
    """P(Bin(n, p) = k) with q = 1 - p, 0 < p < 1, by Loader's saddle-point
    form, for k within 1 of the mean np."""
    if k == 0:
        return math.exp(n * math.log1p(-p))
    if k == n:
        return math.exp(n * math.log1p(-q))
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
    return math.exp(lc - 0.5 * (_LN_2PI + math.log(k) + math.log1p(-k / n)))


def binomial_cdf(n: int, p: float) -> list[float]:
    """[P(Bin(n, p) <= k) for k in -1..n], n >= 0.

    The pmf at the mode m comes from Loader's saddle-point form, the other
    terms from the ratio recurrence outward from m until they underflow.
    Below m each value sums the terms from the small end; from m on it is one
    minus the upper tail, summed the same way, which is at most about 2/3
    there, so no value cancels.  Relative error at most 1e-12 wherever the
    value is at least 1e-300 (pinned for n <= 2000); smaller values lose
    relative precision and underflow to 0.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    q = 1.0 - p
    m = min(n, int((n + 1) * p))
    terms = [0.0] * (n + 1)
    terms[m] = t = 1.0 if p in (0.0, 1.0) else _binomial_pmf(m, n, p, q)
    for i in range(m, 0, -1):
        t *= i * q / ((n - i + 1) * p)
        if not t:
            break
        terms[i - 1] = t
    t = terms[m]
    for i in range(m, n):
        t *= (n - i) * p / ((i + 1) * q)
        if not t:
            break
        terms[i + 1] = t
    upper = [1.0 - s for s in accumulate(reversed(terms[m + 1 :]), initial=0.0)]
    return list(accumulate(terms[:m], initial=0.0)) + upper[::-1]


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
    # P(Bin(ell, p) >= tau) = P(Bin(ell, 1 - p) <= ell - tau): the uniform
    # cdf read backwards gives every false alarm, tau = 0..ell+1
    false_alarms = reversed(binomial_cdf(ell, 1.0 - quarter_count(qv) / qv))
    misses = binomial_cdf(ell, 0.5 + delta)  # P(Bin(ell, 1/2 + delta) < tau)
    best_tau, best_err = 0, math.inf
    for tau, (false_alarm, miss) in enumerate(zip(false_alarms, misses)):
        err = min(1.0, qv * false_alarm) + miss
        if err <= best_err:  # ties go to the larger tau
            best_tau, best_err = tau, err
    return best_tau


def extended_threshold(chunks: int, p0: float, m0: int, r: int) -> int:
    """Vote threshold of the chunked attacks: T = ceil(c * p0^(M0 * r))."""
    return math.ceil(chunks * p0 ** (m0 * r))


# ---------------------------------------------------------------------------
# posterior / success bounds


@dataclass(frozen=True)
class PosteriorBounds:
    """The closed-form lower bounds of a filtering attack.

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


def _per_sample_mass(q: int, size: float, r: int, truncated: bool) -> tuple[float, float, float]:
    """(x_plain, x_adj, p0) of a filter whose mask holds size residues and
    r classes: the chance x_plain = size/q that a wrong candidate passes
    one sample's test, x_adj = size/(q*p0^r), and p0, the truncation
    mode's mass; truncated, p0 = 1 and x_adj is x_plain."""
    p0 = p0_of(truncated)
    return size / q, size / (q * p0**r), p0


def posterior_bounds(q, size: float, r: int, truncated: bool, M: int) -> PosteriorBounds:
    """Bounds after M samples of a filter whose mask holds size residues
    and r classes: the small-set attack's (|Sigma|, r) or the quarter
    interval's (quarter_count(q), 1)."""
    qv = int(q)
    x_plain, x_adj, p0 = _per_sample_mass(qv, size, r, truncated)
    return PosteriorBounds(
        vote_posterior=_one_minus_q_pow(qv, x_adj, M),
        not_plwe_posterior=1.0 if truncated else None,
        success_on_plwe=p0 ** (M * r),
        success_on_uniform=_one_minus_q_pow(qv, x_plain, M),
    )


def minimal_samples(q, size: float, r: int, truncated: bool, target: float) -> int | None:
    """Smallest M whose vote posterior reaches the target, or None when the
    bound cannot reach it for any M.

    The closed form can miss by a rounding step where the posterior meets
    the target, so posterior_bounds's own arithmetic settles the last
    samples."""
    qv = int(q)
    x = _per_sample_mass(qv, size, r, truncated)[1]
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


@dataclass(frozen=True)
class PointVuln:
    """A point a scan lists, the root of an irreducible divisor y^n - a of f
    mod q (an F_q root alpha = a as n = 1), with its block structure and the
    flags of the attacks there."""

    n: int
    a: int
    blocks: BlockStructure
    flags: tuple[AttackFlag, ...]

    # read by perfbench alone (scripts/scan_rings.py reads a and
    # blocks.order); they go once perfbench reads those too
    @property
    def alpha(self) -> int:
        return self.a

    @property
    def order(self) -> int:
        return self.blocks.order

    def to_dict(self) -> dict:
        """The point as scan and analyze print it: alpha at an F_q root, else n,
        a, n_prime (N // n) and the shortest class n_second; then order, BDNB's
        case of sigma_bar (the root 0 is general), sigma_bar and the flags."""
        bs = self.blocks
        if self.n == 1:
            where = {"alpha": self.a}
        else:
            where = {"n": self.n, "a": self.a, "n_prime": bs.n_terms, "n_second": min(bs.counts)}
        case = ("pm_one" if 0 < bs.order <= 2
                else "small_order" if 0 < bs.order < bs.n_terms else "general")
        return {
            **where, "order": bs.order, "case": case, "sigma_bar": bs.sigma_bar,
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
    """The Sigma table of one class per count, class k summing counts[k]
    error coefficients at width sigma, before it is built: the enumeration
    bounds, the tuple count against the cap, and the analytic size."""

    # (length, how many classes, bound floor(2*sqrt(length)*sigma)) per
    # distinct class length, longest first: a class value has |x| <= bound
    classes: tuple[tuple[int, int, int], ...]
    tuples_log10: float  # log10 of the prod (2*bound+1) enumerated tuples
    tuple_count: int | None  # prod (2*bound+1), None from 10^18 on
    feasible: bool  # the tuple count is at most the cap
    log_analytic: float  # log of the analytic size
    analytic: float  # prod (4*sqrt(length)*sigma+1), inf beyond a float

    @property
    def widths(self) -> str:
        """The enumerated tuples as (2*bound+1)^m per class length, for the
        flag's and TableTooLarge's texts."""
        return "*".join(f"({2 * bound + 1})^{m}" for _, m, bound in self.classes)


def small_set_size(counts: tuple[int, ...], sigma: float, cap=DEFAULT_TABLE_CAP) -> SmallSetSize:
    """The size of the Sigma table of the given class counts, for tables,
    flags and analyze alike."""
    classes = tuple(
        (length, counts.count(length), math.floor(2.0 * math.sqrt(length) * sigma))
        for length in sorted(set(counts), reverse=True)
    )
    tuples_log10 = sum(m * math.log10(2 * bound + 1) for _, m, bound in classes)
    tuple_count = math.prod((2 * b + 1) ** m for _, m, b in classes) if tuples_log10 < 18 else None
    feasible = tuples_log10 <= math.log10(cap) if tuple_count is None else tuple_count <= cap
    bases = [(4.0 * math.sqrt(length) * sigma + 1.0, m) for length, m, _ in classes]
    try:
        analytic = math.prod(base**m for base, m in bases)
    except OverflowError:
        analytic = math.inf
    log_analytic = sum(m * math.log(base) for base, m in bases)
    return SmallSetSize(classes, tuples_log10, tuple_count, feasible, log_analytic, analytic)


def small_set_budget(q: int, truncated: bool, r: int) -> tuple[float, float]:
    """q*p0^r, which a Sigma table of r classes must stay below, and its log."""
    p0 = p0_of(truncated)
    return q * p0**r, math.log(q) + r * math.log(p0)


def magnitude(value: float, log_value: float) -> str:
    """A size or budget in a small-set condition: .1f in [0.05, 2**53), .3g
    below, and 10^x from 2**53 on (inf included), where the .1f digits are
    not significant."""
    if value >= 2**53:
        return f"10^{log_value / math.log(10):.0f}"
    return f"{value:.1f}" if value >= 0.05 else f"{value:.3g}"


def small_set_flag(
    q: int, truncated: bool, counts: tuple[int, ...], sigma: float, table_cap: int
) -> AttackFlag:
    """The small-set precondition: a table feasible under the cap whose
    analytic size stays below q*p0^r, r = len(counts)."""
    r = len(counts)
    size = small_set_size(counts, sigma, table_cap)
    # the report takes the size as exp of its log, which may differ from
    # the table's power in the last bit; the pinned scan reports read it so
    analytic = math.exp(size.log_analytic) if math.isfinite(size.analytic) else None
    budget, log_budget = small_set_budget(q, truncated, r)
    ok = size.feasible and size.log_analytic < log_budget
    if not size.feasible:
        cond = (
            f"table infeasible: {size.widths} ~ 10^{size.tuples_log10:.0f} "
            f"> cap {table_cap:.1e} (order too large)"
        )
    else:
        rel = "<" if ok else ">="
        shown = magnitude(math.inf if analytic is None else analytic, size.log_analytic)
        bases = "*".join(f"(4*sqrt({length})*sigma+1)^{m}" for length, m, _ in size.classes)
        cond = f"{bases} = {shown} {rel} q*p0^{r} = {magnitude(budget, log_budget)}"
    details = {
        "r": r,
        "blocklen": min(counts),  # the report's name for the shortest class
        "tuple_count": size.tuple_count,
        "tuple_count_log10": size.tuples_log10,
        "analytic_bound": analytic,
        "size_budget": budget,
    }
    if ok:
        details["min_M_for_0.99"] = minimal_samples(q, analytic, r, truncated, 0.99)
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
        details["min_M_for_0.99"] = minimal_samples(q, quarter_count(q), 1, truncated, 0.99)
    return AttackFlag("small_values", ok, cond, details)


def unbounded_flag(q: int, delta: float, **details) -> AttackFlag:
    """The unbounded precondition Delta > 0 for the caller's delta (the
    series, a Monte Carlo estimate or a given value), with extra details."""
    margin = big_delta(q, delta)
    ok = margin > 0
    cond = f"Delta = {margin:.6g} {'>' if ok else '<='} 0"
    details = {"delta": delta, "big_delta": margin, **details}
    return AttackFlag("unbounded_small_values", ok, cond, details)


def assess_point(
    q: int, n: int, blocks: BlockStructure, sigma: float, truncated: bool, table_cap: int
) -> tuple[AttackFlag, AttackFlag, AttackFlag]:
    """The small-set, small-values and series unbounded flags at the root of
    y^n - a with these blocks: what scan lists and analyze prints."""
    prob = delta_probability(q, blocks.sigma_bar)
    return (
        small_set_flag(q, truncated, blocks.counts, sigma, table_cap),
        small_values_flag(q, truncated, blocks.sigma_bar, n),
        unbounded_flag(q, prob.delta, ratio=prob.ratio, p_event=prob.p_event),
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
    grows steeply with the degree, so higher extensions are opt-in).  One
    table of generator powers serves the root and divisor search and the
    block structures of every degree, and each distinct (n, order,
    sigma_bar), which fixes the class counts, gets its flags once: all
    roots of x^N + 1 share them.
    """
    q, N = ctx.q, ctx.N
    G = generator_powers(q)
    seen: dict[tuple, tuple[AttackFlag, ...]] = {}

    def point(n: int, a: int, bs: BlockStructure) -> PointVuln:
        key = (n, bs.order, bs.sigma_bar)
        if key not in seen:
            seen[key] = assess_point(q, n, bs, sigma, truncated, table_cap)
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
