"""Reference paths that the fast code is pinned to.

The scalar algebra.  in_quarter_value tests one residue against the
quarter interval, in integers.  The package evaluates samples only through
numpy (eval_matrix, rq0_witnesses, RqContext.mul_matrix, sample_batch and the
generator-power fold); the tests check that path against the scalar forms
kept here: elements of F_q[y]/(y^n - a) and their trace, RingPoly sums and
products, Horner evaluation, the subring witness sums, and the per-sample
oracles that draw one (a, b) pair at a time as a Sample of two RingPolys.
Samples become a SampleBatch through from_samples, and pairs_at evaluates
them at a root as the Pairs that the attacks read.

The per-sample reference path of samplers.sample_batch:

reference_sample_batch consumes a trial's stream in the batch sampler's
order, but builds every sample through the per-sample oracles and ring_mul:
after the secret, all M errors in one gaussian_coeffs call (a uniform trial:
all M b rows in one integers call), then sample i as plwe_oracle with the
forced error E[i], or as (a, B[i]) with a drawn like uniform_oracle's.  Its
a is drawn by uniform_rq0_poly (direct) or by sample_rq0 over such calls
(honest).  The batch is materialised from the oracles' RingPoly samples, so
it has no secret and the attacks read it through B.

The unbounded attack's hit counts on the (ell, q) grid (t_i - u_i*g) mod q,
and the Monte Carlo delta as a per-draw count mod q: the forms that
attacks.unbounded_small_values_attack and analysis.monte_carlo_delta
replaced by the log-domain count and the histogram.  The Monte Carlo delta
with all its draws held at once, the form that monte_carlo_delta replaced
by its blocks.

The Sigma residue set by enumeration, one Python set per round: the form
that attacks.build_sigma_table_trace replaced by its numpy mask.

The block structure as r_eff blocks of blocklen coefficients, each with its
own +-1 and root-0 branch: the form that analysis.class_counts replaced by
the class counts of a point.

The irreducible binomials y^n - a, n <= 4, by factor search: the oracle
for the order criterion that fields.ExtFieldCtx applies.

The posterior bounds and the least sample count keyed by attack family,
"small_set" with its sigma_size and r or "small_values": the forms that
analysis.posterior_bounds and minimal_samples replaced by a mask's size
and class count.

The erf series with a second counter beside j and an exit at lo > 8 that
no ratio reaches: the form that analysis._erf_series replaced by j alone.

The binomial cdf as the regularized incomplete beta of scipy, imported inside
the function so the package never loads scipy, and hit_threshold as 2(ell + 2)
such tails: the forms that analysis.binomial_cdf replaced by one pmf vector
per (n, p).  Beside them, the cdf as exact rational sums in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from plwe_audit.analysis import (
    DEFAULT_SERIES_TOL,
    DomainError,
    PosteriorBounds,
    _one_minus_q_pow,
    in_quarter_residues,
    quarter_count,
)
from plwe_audit.fields import ExtFieldCtx, centered_value
from plwe_audit.rings import RingPoly, RqContext, eval_matrix, require_table_modulus
from plwe_audit.samplers import (
    BudgetExhausted,
    GaussianSpec,
    Pairs,
    PlweInstance,
    SampleBatch,
    gaussian_coeffs,
    p0_of,
    uniform_poly,
)

# ---------------------------------------------------------------------------
# the quarter interval


def in_quarter_value(v: int, q: int) -> bool:
    """True iff the centered representative c of v satisfies -q <= 4c < q:
    membership in [-q/4, q/4), the lower bound inclusive and the upper
    exclusive, in exact integers.  The oracle for
    analysis.in_quarter_residues."""
    v %= q
    return 4 * v < q or 4 * v >= 3 * q


# ---------------------------------------------------------------------------
# the extension field F_q[y]/(y^n - a)


@dataclass(frozen=True)
class ExtFieldElement:
    """An element of F_{q^n}; coordinate i is the coefficient of y^i."""

    coeffs: tuple[int, ...]
    ctx: ExtFieldCtx

    def _same(self, other: ExtFieldElement) -> None:
        if self.ctx != other.ctx:
            raise ValueError("extension contexts differ")

    @property
    def q(self) -> int:
        return self.ctx.q

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def in_base_field(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_base(self) -> int:
        if not self.in_base_field():
            raise ValueError(f"{self.coeffs} does not lie in F_q")
        return self.coeffs[0]

    def __add__(self, other: ExtFieldElement) -> ExtFieldElement:
        self._same(other)
        q = self.q
        return ExtFieldElement(
            tuple((x + y) % q for x, y in zip(self.coeffs, other.coeffs)), self.ctx
        )

    def __sub__(self, other: ExtFieldElement) -> ExtFieldElement:
        self._same(other)
        q = self.q
        return ExtFieldElement(
            tuple((x - y) % q for x, y in zip(self.coeffs, other.coeffs)), self.ctx
        )

    def __neg__(self) -> ExtFieldElement:
        q = self.q
        return ExtFieldElement(tuple(-c % q for c in self.coeffs), self.ctx)

    def scale(self, k: int) -> ExtFieldElement:
        q = self.q
        return ExtFieldElement(tuple(c * k % q for c in self.coeffs), self.ctx)

    def __mul__(self, other: ExtFieldElement) -> ExtFieldElement:
        self._same(other)
        n, q, a = self.ctx.n, self.q, self.ctx.a
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(other.coeffs):
                prod[i + j] += x * y
        # reduce y^n -> a
        for k in range(2 * n - 2, n - 1, -1):
            prod[k - n] += prod[k] * a
        return ExtFieldElement(tuple(c % q for c in prod[:n]), self.ctx)

    def __pow__(self, exponent: int) -> ExtFieldElement:
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = ext_one(self.ctx)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inv(self) -> ExtFieldElement:
        if self.is_zero():
            raise ZeroDivisionError("zero is not invertible")
        return self ** (self.q**self.ctx.n - 2)


def ext_element(ext: ExtFieldCtx, coeffs) -> ExtFieldElement:
    cs = tuple(int(c) % ext.q for c in coeffs)
    if len(cs) != ext.n:
        raise ValueError(f"expected {ext.n} coordinates, got {len(cs)}")
    return ExtFieldElement(cs, ext)


def ext_from_base(ext: ExtFieldCtx, x: int) -> ExtFieldElement:
    return ExtFieldElement((int(x) % ext.q,) + (0,) * (ext.n - 1), ext)


def ext_one(ext: ExtFieldCtx) -> ExtFieldElement:
    return ext_from_base(ext, 1)


def ext_alpha(ext: ExtFieldCtx) -> ExtFieldElement:
    """The class of y, a root of y^n - a."""
    if ext.n == 1:
        return ext_from_base(ext, ext.a)
    return ExtFieldElement((0, 1) + (0,) * (ext.n - 2), ext)


def trace(beta: ExtFieldElement) -> int:
    """The field trace Tr(beta) = sum of beta**(q**i) for i = 0..n-1.

    The Frobenius orbit sum always lands in F_q; a nonzero higher coordinate
    would indicate a broken context and raises.
    """
    ctx = beta.ctx
    acc = beta
    frob = beta
    for _ in range(ctx.n - 1):
        frob = frob ** ctx.q
        acc = acc + frob
    return acc.to_base()


# ---------------------------------------------------------------------------
# R_q = F_q[x]/(f) one element at a time


def _same_ctx(p: RingPoly, s: RingPoly) -> RqContext:
    if p.ctx != s.ctx:
        raise ValueError("ring contexts differ")
    return p.ctx


def ring_add(p: RingPoly, s: RingPoly) -> RingPoly:
    ctx = _same_ctx(p, s)
    q = ctx.q
    return RingPoly(tuple((x + y) % q for x, y in zip(p.coeffs, s.coeffs)), ctx)


def ring_sub(p: RingPoly, s: RingPoly) -> RingPoly:
    ctx = _same_ctx(p, s)
    q = ctx.q
    return RingPoly(tuple((x - y) % q for x, y in zip(p.coeffs, s.coeffs)), ctx)


def ring_mul(p: RingPoly, s: RingPoly) -> RingPoly:
    """Schoolbook product followed by reduction modulo the monic f, top
    degree first, in Python ints: x^k = -x^(k-N) (f_0 + ... + f_(N-1) x^(N-1))."""
    ctx = _same_ctx(p, s)
    q, N = ctx.q, ctx.N
    require_table_modulus(q)
    conv = (np.convolve(p.coeffs, s.coeffs) % q).tolist()
    terms = [(j, c) for j, c in enumerate(ctx.f_mod[:N]) if c]
    for k in range(len(conv) - 1, N - 1, -1):
        top = conv.pop() % q
        for j, c in terms:
            conv[k - N + j] -= top * c
    return RingPoly(tuple(c % q for c in conv), ctx)


def eval_poly(p: RingPoly, point: int | ExtFieldElement):
    """Horner evaluation at a residue of F_q, read mod q, or at a point of
    an extension of F_q."""
    if not isinstance(point, ExtFieldElement):
        q = p.ctx.q
        acc = 0
        for c in reversed(p.coeffs):
            acc = (acc * point + c) % q
        return acc
    if point.ctx.q != p.ctx.q:
        raise ValueError("evaluation point uses a different modulus")
    ectx = point.ctx
    acc = ext_from_base(ectx, 0)
    for c in reversed(p.coeffs):
        acc = acc * point + ext_from_base(ectx, c)
    return acc


@dataclass(frozen=True)
class Rq0Membership:
    """Outcome of the subring test, with its n-1 witness sums."""

    is_member: bool
    witness_sums: tuple[int, ...]


def rq0_membership(p: RingPoly, ext: ExtFieldCtx) -> Rq0Membership:
    """Test p(alpha) in F_q via the witness sums sum_j a^j p_{nj+k}, k=1..n-1.

    Coordinate k of p(alpha) in the y-basis equals exactly that sum, so
    membership holds iff every witness vanishes.
    """
    if ext.q != p.ctx.q:
        raise ValueError("extension context uses a different modulus")
    n, q, a = ext.n, ext.q, ext.a
    sums = []
    for k in range(1, n):
        acc = 0
        power = 1
        j = 0
        while n * j + k < p.ctx.N:
            acc = (acc + power * p.coeffs[n * j + k]) % q
            power = power * a % q
            j += 1
        sums.append(acc)
    return Rq0Membership(all(s == 0 for s in sums), tuple(sums))


# ---------------------------------------------------------------------------
# samples one RingPoly pair at a time


@dataclass(frozen=True)
class Sample:
    """One sample (a(x), b(x))."""

    a: RingPoly
    b: RingPoly


def from_samples(samples: list[Sample]) -> SampleBatch:
    """The samples as a batch without a secret, its X rows the b_i."""
    A = np.array([s.a.coeffs for s in samples], dtype=np.int64)
    B = np.array([s.b.coeffs for s in samples], dtype=np.int64)
    return SampleBatch(samples[0].a.ctx, A, B)


def to_samples(batch: SampleBatch) -> list[Sample]:
    poly = batch.ring.poly
    return [Sample(poly(a), poly(b)) for a, b in zip(batch.A.tolist(), batch.B.tolist())]


def pairs_at(samples: list[Sample], point: int | ExtFieldCtx) -> Pairs:
    """The attack pairs of the samples at a root of y^n - a; an F_q root
    alpha, given as the residue, is the case ExtFieldCtx(1, alpha, modulus).
    NonMemberSample when an a lies outside R_{q,0}."""
    batch = from_samples(samples)
    if not isinstance(point, ExtFieldCtx):
        point = ExtFieldCtx(1, point, batch.ring.modulus)
    return batch.pairs(point)


# ---------------------------------------------------------------------------
# the per-sample oracles


def draw_gaussian(spec: GaussianSpec, rng: np.random.Generator) -> int:
    """Round a continuous N(0, sigma^2) draw; truncation rejects on the
    continuous value before rounding, so the support is [-round(2s), round(2s)].
    """
    bound = 2 * spec.sigma
    while True:
        x = rng.normal(0.0, spec.sigma)
        if not spec.truncated or abs(x) <= bound:
            return int(np.rint(x))


def uniform_oracle(ctx: RqContext, rng: np.random.Generator) -> Sample:
    """Both components independently uniform over R_q."""
    return Sample(uniform_poly(ctx, rng), uniform_poly(ctx, rng))


def plwe_draw(
    inst: PlweInstance,
    rng: np.random.Generator,
    *,
    force_a: RingPoly | None = None,
    force_error: tuple[int, ...] | None = None,
) -> tuple[Sample, tuple[int, ...]]:
    """Draw (a, a*s + e) and return it with the signed error e; the force_*
    hooks exist for tests that need a known component."""
    ctx = inst.ctx
    a = force_a if force_a is not None else uniform_poly(ctx, rng)
    if force_error is not None:
        e = np.array(force_error, dtype=np.int64)
    else:
        e = gaussian_coeffs(inst.gauss, rng, ctx.N)
    b = ring_add(ring_mul(a, inst.secret_for_tests()), ctx.poly(e))
    return Sample(a, b), tuple(int(v) for v in e)


def plwe_oracle(inst: PlweInstance, rng: np.random.Generator, **force) -> Sample:
    """The sample of plwe_draw without its error."""
    return plwe_draw(inst, rng, **force)[0]


@dataclass(frozen=True)
class Rq0Draw:
    """An accepted restricted sample plus the number of oracle invocations
    spent obtaining it (the successful one included)."""

    sample: Sample
    count: int


def sample_rq0(
    source: Callable[[], Sample],
    ext: ExtFieldCtx,
    max_invocations: int = 10**8,
) -> Rq0Draw:
    """Invoke source until the a-component lands in R_{q,0}.

    The returned count includes the successful invocation, so its mean over
    uniform sources is q^(n-1).
    """
    count = 0
    while count < max_invocations:
        sample = source()
        count += 1
        if rq0_membership(sample.a, ext).is_member:
            return Rq0Draw(sample, count)
    raise BudgetExhausted(max_invocations, count)


def uniform_rq0_poly(
    ctx: RqContext, ext: ExtFieldCtx, rng: np.random.Generator
) -> RingPoly:
    """Uniform element of R_{q,0} by direct construction.

    All coefficients are drawn uniformly, then coordinate k (the j = 0 term of
    each witness sum, whose weight is a^0 = 1) is solved so the sum vanishes.
    Fixing a complement of the solution space and solving for the pivots keeps
    the distribution exactly uniform over the subring.  At n = 1 there are no
    pivots, and the draw is uniform_poly's.
    """
    n, q = ext.n, ext.q
    if n > ctx.N:
        raise ValueError("extension degree exceeds the ring degree")
    coeffs = rng.integers(0, q, size=ctx.N)
    coeffs[1:n] = (coeffs[1:n] - coeffs @ eval_matrix(ext, ctx.N)[:, 1:]) % q
    return ctx.poly(coeffs)


def uniform_oracle_rq0(
    ctx: RqContext, ext: ExtFieldCtx, rng: np.random.Generator
) -> Sample:
    return Sample(uniform_rq0_poly(ctx, ext, rng), uniform_poly(ctx, rng))


def plwe_oracle_rq0(
    inst: PlweInstance, ext: ExtFieldCtx, rng: np.random.Generator
) -> Sample:
    a = uniform_rq0_poly(inst.ctx, ext, rng)
    return plwe_oracle(inst, rng, force_a=a)


# ---------------------------------------------------------------------------
# pinned compositions


def reference_samples(ring, gauss, ext, m, rng, secret=None, honest=False,
                      max_invocations=10**8):
    """The samples, the invocation count and, on a PLWE trial, the signed
    error rows the oracle was handed (None on a uniform one); BudgetExhausted
    as sample_rq0 raises it."""
    draws, errors = reference_draws(ring, gauss, ext, m, rng, secret, honest, max_invocations)
    return [d.sample for d in draws], sum(d.count for d in draws), errors


def reference_draws(ring, gauss, ext, m, rng, secret=None, honest=False,
                    max_invocations=10**8):
    """The samples of reference_samples as one Rq0Draw each, so every sample
    keeps its own invocation count (1 under direct construction), and the
    error rows; BudgetExhausted counts the completed rounds' calls and the
    budget of the round that gave up."""
    if secret is None:
        forced, errors = [ring.poly(b) for b in rng.integers(0, ring.q, size=(m, ring.N))], None
        oracle = lambda b, a=None: Sample(uniform_poly(ring, rng) if a is None else a, b)
    else:
        inst = PlweInstance(ring, gauss, ring.poly(secret))
        forced = errors = [tuple(e) for e in gaussian_coeffs(gauss, rng, (m, ring.N)).tolist()]
        oracle = lambda e, a=None: plwe_oracle(inst, rng, force_a=a, force_error=e)
    if not honest:
        return [Rq0Draw(oracle(x, uniform_rq0_poly(ring, ext, rng)), 1) for x in forced], errors
    draws = []
    for x in forced:
        try:
            draws.append(sample_rq0(lambda: oracle(x), ext, max_invocations))
        except BudgetExhausted as exc:
            spent = sum(d.count for d in draws) + exc.invocations
            raise BudgetExhausted(max_invocations, spent) from None
    return draws, errors


def reference_sample_batch(ring, gauss, ext, m, rng, secret=None, honest=False,
                           max_invocations=10**8):
    """A drop-in for samplers.sample_batch: the reference samples as a
    materialised batch, and the invocation count."""
    samples, count, _ = reference_samples(
        ring, gauss, ext, m, rng, secret, honest, max_invocations
    )
    return from_samples(samples), count


def reference_hit_counts(targets, scales, q):
    """h_g = #{i : (t_i - u_i*g) mod q in [-q/4, q/4)} for every g in F_q,
    from the full modular grid."""
    g = np.arange(q, dtype=np.int64)
    grid = (np.asarray(targets)[:, None] - np.multiply.outer(scales, g)) % q
    return ((4 * grid < q) | (4 * grid >= 3 * q)).sum(axis=0)


def reference_monte_carlo_delta(q, sigma_bar_value, rng, draws=10**6):
    """The quarter-interval share of the rounded draws reduced mod q, less 1/2."""
    x = np.rint(rng.normal(0.0, sigma_bar_value, size=draws)).astype(np.int64) % q
    return float(((4 * x < q) | (4 * x >= 3 * q)).mean()) - 0.5


def whole_array_monte_carlo_delta(q, sigma_bar_value, rng, draws=10**6):
    """analysis.monte_carlo_delta with all draws held at once: one
    rng.normal call, one bincount over the whole span when that span is
    below the number of draws, else each draw reduced mod q, by np.fmod on
    the floats below q = 2**53 and in Python ints above."""
    qv = int(q)
    x = np.rint(rng.normal(0.0, sigma_bar_value, size=draws))
    lo, hi = x.min(), x.max()
    if hi - lo < draws:
        x -= lo
        counts = np.bincount(x.astype(np.intp))
        values = np.arange(int(lo), int(lo) + counts.size) % qv
        hits = int(counts[in_quarter_residues(values, qv)].sum())
    else:
        if qv < 1 << 53:
            r = np.fmod(x, qv).astype(np.int64)  # in (-q, q), with the sign of the draw
            r[r < 0] += qv
        else:
            r = np.array([int(v) % qv for v in x.tolist()], dtype=np.int64)
        hits = int(np.count_nonzero(in_quarter_residues(r, qv)))
    return hits / draws - 0.5


def reference_sigma_values(a: int, q: int, counts: tuple[int, ...], sigma: float) -> frozenset:
    """The residues sum_j x_j a^j mod q, j < len(counts), over the integer
    tuples with |x_j| <= floor(2*sqrt(counts[j])*sigma)."""
    values = {0}
    power = 1
    for count in counts:
        bound = math.floor(2.0 * math.sqrt(count) * sigma)
        values = {(v + x * power) % q for v in values for x in range(-bound, bound + 1)}
        power = power * a % q
    return frozenset(values)


@dataclass(frozen=True)
class ReferenceBlocks:
    """A point's error image as r_eff blocks of blocklen coefficients."""

    order: int  # ord(a); 0 at the root 0
    n_terms: int
    r_eff: int
    blocklen: int
    case_kind: str
    sigma_bar: float


def reference_block_structure(point: ExtFieldCtx, N: int, sigma: float) -> ReferenceBlocks:
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
        return ReferenceBlocks(0, n_terms, 1, 1, "general", math.sqrt(sigma * sigma))
    if centered_value(a, q) in (1, -1):
        kind, total = "pm_one", n_terms
    else:
        kind = "small_order" if order < n_terms else "general"
        count, length = (order, n_terms // order) if order < n_terms else (n_terms, 1)
        total, power = 0, 1
        for _ in range(count):
            total += length * centered_value(power, q) ** 2
            power = power * a % q
    return ReferenceBlocks(
        order, n_terms, order, max(1, n_terms // order), kind, math.sqrt(sigma * sigma * total)
    )


@lru_cache(maxsize=None)
def irreducible_constants(q: int, n: int) -> tuple[int, ...]:
    """The a in F_q* with y^n - a irreducible over F_q, 1 <= n <= 4, by
    factor search: such a binomial is reducible iff it has a root, or (n = 4
    only) a quadratic divisor y^2 + by + c."""
    reducible = {pow(x, n, q) for x in range(q)} if n > 1 else set()
    if n == 4:
        # y^4 - a mod (y^2 + by + c) leaves y*(2bc - b^3) + (c^2 - b^2*c - a),
        # whose y term vanishes for b = 0 at every c, else at c = b^2/2 only
        half = (q + 1) // 2
        divisors = [(0, c) for c in range(q)] + [(b, b * b * half % q) for b in range(1, q)]
        reducible |= {(c * c - b * b * c) % q for b, c in divisors}
    return tuple(a for a in range(1, q) if a not in reducible)


# ---------------------------------------------------------------------------
# the closed forms keyed by attack family


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
# the erf series with two counters


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


# ---------------------------------------------------------------------------
# the binomial tail


def reference_cumulative_binomial(k: int, trials: int, p: float) -> float:
    """P(Bin(n, p) <= k) = I_{1-p}(n - k, k + 1).  scipy's betainc loses its
    relative precision below about 1e-250 (at n = 1726, p = 0.34375, k = 29
    it reads 1.79e-261 for 9.06e-262)."""
    from scipy.special import betainc

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
    return float(betainc(trials - k, k + 1, 1.0 - p))


def exact_binomial_cdf(n: int, p: float) -> list[float]:
    """[P(Bin(n, p) <= k) for k in -1..n], 0 < p < 1, each correctly rounded
    from the exact sum at p = a/b: the terms C(n, i) a^i (b - a)^(n - i) are
    integers over b^n."""
    a, b = p.as_integer_ratio()
    c = b - a
    term, total, den = c**n, 0, b**n
    cdf = [0.0]
    for i in range(n + 1):
        total += term
        cdf.append(total / den)  # int / int is correctly rounded
        term = term * (n - i) * a // ((i + 1) * c)
    return cdf


def reference_hit_threshold(ell: int, q: int, delta: float) -> int:
    """hit_threshold with two tail calls per tau."""
    p_uniform = quarter_count(q) / q
    best_tau, best_err = 0, math.inf
    for tau in range(ell + 2):
        false_alarm = min(
            1.0, q * reference_cumulative_binomial(ell - tau, ell, 1.0 - p_uniform)
        )
        miss = reference_cumulative_binomial(tau - 1, ell, 0.5 + delta)
        if false_alarm + miss <= best_err:
            best_tau, best_err = tau, false_alarm + miss
    return best_tau
