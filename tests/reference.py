"""Reference paths that the fast code is pinned to.

The scalar algebra.  The package evaluates samples only through numpy
(eval_matrix, rq0_witnesses, RqContext.mul_matrix, sample_batch and the
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
replaced by the log-domain count and the histogram.

The Sigma residue set by enumeration, one Python set per round: the form
that attacks.build_sigma_table_trace replaced by its numpy mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from plwe_audit.fields import (
    ContextMismatch,
    DivisionByZero,
    ExtFieldCtx,
    FieldElement,
    FieldError,
)
from plwe_audit.rings import RingPoly, RqContext, _require_int64_modulus, eval_matrix
from plwe_audit.samplers import (
    BudgetExhausted,
    GaussianSpec,
    Pairs,
    PlweInstance,
    SampleBatch,
    gaussian_coeffs,
    uniform_poly,
)

# ---------------------------------------------------------------------------
# the extension field F_q[y]/(y^n - a)


@dataclass(frozen=True)
class ExtFieldElement:
    """An element of F_{q^n}; coordinate i is the coefficient of y^i."""

    coeffs: tuple[int, ...]
    ctx: ExtFieldCtx

    def _same(self, other: ExtFieldElement) -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("extension contexts differ")

    @property
    def q(self) -> int:
        return self.ctx.q

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def in_base_field(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_base(self) -> FieldElement:
        if not self.in_base_field():
            raise FieldError(f"{self.coeffs} does not lie in F_q")
        return FieldElement(self.coeffs[0], self.ctx.modulus)

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

    def scale(self, k: FieldElement | int) -> ExtFieldElement:
        v = k.value if isinstance(k, FieldElement) else int(k) % self.q
        q = self.q
        return ExtFieldElement(tuple(c * v % q for c in self.coeffs), self.ctx)

    def __mul__(self, other: ExtFieldElement) -> ExtFieldElement:
        self._same(other)
        n, q, a = self.ctx.n, self.q, self.ctx.a.value
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
            raise DivisionByZero("zero is not invertible")
        return self ** (self.q**self.ctx.n - 2)


def ext_element(ext: ExtFieldCtx, coeffs) -> ExtFieldElement:
    cs = tuple(int(c) % ext.q for c in coeffs)
    if len(cs) != ext.n:
        raise ValueError(f"expected {ext.n} coordinates, got {len(cs)}")
    return ExtFieldElement(cs, ext)


def ext_from_base(ext: ExtFieldCtx, x: FieldElement | int) -> ExtFieldElement:
    v = x.value if isinstance(x, FieldElement) else int(x) % ext.q
    return ExtFieldElement((v,) + (0,) * (ext.n - 1), ext)


def ext_one(ext: ExtFieldCtx) -> ExtFieldElement:
    return ext_from_base(ext, 1)


def ext_alpha(ext: ExtFieldCtx) -> ExtFieldElement:
    """The class of y, a root of y^n - a."""
    if ext.n == 1:
        return ext_from_base(ext, ext.a)
    return ExtFieldElement((0, 1) + (0,) * (ext.n - 2), ext)


def trace(beta: ExtFieldElement) -> FieldElement:
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
        raise ContextMismatch("ring contexts differ")
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
    """Schoolbook product followed by reduction modulo the monic f."""
    ctx = _same_ctx(p, s)
    q, N = ctx.q, ctx.N
    _require_int64_modulus(q)
    conv = np.convolve(p.as_array(), s.as_array()) % q
    low = conv[:N]
    if len(conv) > N:
        high = conv[N:]
        low = (low + high @ ctx._reduction_rows[: len(high)]) % q
    return RingPoly(tuple(int(c) for c in low), ctx)


def eval_poly(p: RingPoly, point: FieldElement | ExtFieldElement):
    """Horner evaluation at a point of F_q or of an extension of it."""
    if isinstance(point, FieldElement):
        if point.q != p.ctx.q:
            raise ContextMismatch("evaluation point uses a different modulus")
        q = p.ctx.q
        acc = 0
        for c in reversed(p.coeffs):
            acc = (acc * point.value + c) % q
        return FieldElement(acc, point.modulus)
    if point.ctx.q != p.ctx.q:
        raise ContextMismatch("evaluation point uses a different modulus")
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
        raise ContextMismatch("extension context uses a different modulus")
    n, q, a = ext.n, ext.q, ext.a.value
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


def pairs_at(samples: list[Sample], point: FieldElement | ExtFieldCtx) -> Pairs:
    """The attack pairs of the samples at a root of y^n - a; an F_q root
    alpha is the case ExtFieldCtx(1, alpha).  NonMemberSample when an a
    lies outside R_{q,0}."""
    ext = point if isinstance(point, ExtFieldCtx) else ExtFieldCtx(1, point)
    return from_samples(samples).pairs(ext)


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
    raise BudgetExhausted(f"no R_q0 sample within {max_invocations} invocations")


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
    error rows."""
    if secret is None:
        forced, errors = [ring.poly(b) for b in rng.integers(0, ring.q, size=(m, ring.N))], None
        oracle = lambda b, a=None: Sample(uniform_poly(ring, rng) if a is None else a, b)
    else:
        inst = PlweInstance(ring, gauss, ring.poly(secret))
        forced = errors = [tuple(e) for e in gaussian_coeffs(gauss, rng, (m, ring.N)).tolist()]
        oracle = lambda e, a=None: plwe_oracle(inst, rng, force_a=a, force_error=e)
    if not honest:
        return [Rq0Draw(oracle(x, uniform_rq0_poly(ring, ext, rng)), 1) for x in forced], errors
    return [sample_rq0(lambda: oracle(x), ext, max_invocations) for x in forced], errors


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


def reference_sigma_values(a: FieldElement, r: int, blocklen: int, sigma: float) -> frozenset:
    """The residues sum_j x_j a^j mod q, j < r, over the integer tuples with
    |x_j| <= floor(2*sqrt(blocklen)*sigma)."""
    q = a.q
    bound = math.floor(2.0 * math.sqrt(blocklen) * sigma)
    values = {0}
    power = 1
    for _ in range(r):
        values = {(v + x * power) % q for v in values for x in range(-bound, bound + 1)}
        power = power * a.value % q
    return frozenset(values)
