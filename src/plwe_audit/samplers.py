"""Randomness sources: discrete Gaussians, uniform ring elements, the two
sample oracles, and samplers restricted to the subring R_{q,0}.

Every function takes an explicit numpy Generator so that campaigns can derive
one private stream per trial and replay any run bit for bit.

The per-sample oracles return RingPoly pairs and are the reference.
sample_batch draws a whole trial's samples as one SampleBatch of (M, N)
arrays: it makes the same generator calls in the same order as the
per-sample path, so both produce the same samples from the same stream, and
only the ring arithmetic runs on whole arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import ExtFieldCtx
from .rings import (
    RingPoly,
    RqContext,
    eval_matrix,
    ring_add,
    ring_mul,
    rq0_membership,
    rq0_witnesses,
)

# Mass of a centered normal on [-2s, 2s]; exact to 1e-6.
P0_UNTRUNCATED = 0.954500


class BudgetExhausted(Exception):
    """The rejection sampler ran past its invocation cap."""


@dataclass(frozen=True)
class GaussianSpec:
    """Width and truncation mode of the error distribution."""

    sigma: float
    truncated: bool

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")

    @property
    def p0(self) -> float:
        return 1.0 if self.truncated else P0_UNTRUNCATED


def draw_gaussian(spec: GaussianSpec, rng: np.random.Generator) -> int:
    """Round a continuous N(0, sigma^2) draw; truncation rejects on the
    continuous value before rounding, so the support is [-floor(2s), floor(2s)].
    """
    bound = 2 * spec.sigma
    while True:
        x = rng.normal(0.0, spec.sigma)
        if not spec.truncated or abs(x) <= bound:
            return int(np.rint(x))


def _gaussian_reals(spec: GaussianSpec, rng: np.random.Generator, size) -> np.ndarray:
    """The continuous draws behind gaussian_coeffs, before rounding."""
    x = rng.normal(0.0, spec.sigma, size=size)
    if spec.truncated:
        bound = 2 * spec.sigma
        bad = np.abs(x) > bound
        while bad.any():
            x[bad] = rng.normal(0.0, spec.sigma, size=int(bad.sum()))
            bad = np.abs(x) > bound
    return x


def gaussian_coeffs(spec: GaussianSpec, rng: np.random.Generator, size) -> np.ndarray:
    """Vectorized draw of signed integer errors with the same law as
    draw_gaussian.  Rejected positions are redrawn in place."""
    return np.rint(_gaussian_reals(spec, rng, size)).astype(np.int64)


def uniform_poly(ctx: RqContext, rng: np.random.Generator) -> RingPoly:
    return ctx.poly(rng.integers(0, ctx.q, size=ctx.N))


@dataclass(frozen=True)
class Sample:
    """One oracle output (a(x), b(x)).  The raw signed error vector, when the
    oracle knows it, rides along for diagnostics only."""

    a: RingPoly
    b: RingPoly
    raw_error: Optional[tuple[int, ...]] = field(default=None, compare=False, repr=False)

    def to_doc(self) -> dict:
        return {"a": list(self.a.coeffs), "b": list(self.b.coeffs)}


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """M samples as the rows of two (M, N) int64 arrays of canonical
    residues: A[i] and B[i] hold the coefficients of a_i and b_i."""

    ring: RqContext
    A: np.ndarray
    B: np.ndarray

    @classmethod
    def from_samples(cls, samples: Sequence[Sample]) -> "SampleBatch":
        ring = samples[0].a.ctx
        A = np.array([s.a.coeffs for s in samples], dtype=np.int64)
        B = np.array([s.b.coeffs for s in samples], dtype=np.int64)
        return cls(ring, A, B)

    def __len__(self) -> int:
        return len(self.A)

    def __getitem__(self, rows: slice) -> "SampleBatch":
        return SampleBatch(self.ring, self.A[rows], self.B[rows])

    def samples(self) -> list[Sample]:
        poly = self.ring.poly
        return [Sample(poly(a), poly(b)) for a, b in zip(self.A.tolist(), self.B.tolist())]


@dataclass(frozen=True)
class Rq0Draw:
    """An accepted restricted sample plus the number of oracle invocations
    spent obtaining it (the successful one included)."""

    sample: Sample
    count: int


class PlweInstance:
    """A PLWE problem instance.  The secret is generated (or injected) at
    construction and deliberately kept off the public surface; tests reach it
    through the explicit accessor."""

    def __init__(self, ctx: RqContext, gauss: GaussianSpec, secret: RingPoly):
        if secret.ctx != ctx:
            raise ValueError("secret must live in the instance ring")
        self.ctx = ctx
        self.gauss = gauss
        self._secret = secret

    @classmethod
    def generate(
        cls,
        ctx: RqContext,
        gauss: GaussianSpec,
        rng: np.random.Generator,
        secret: RingPoly | None = None,
    ) -> "PlweInstance":
        return cls(ctx, gauss, secret if secret is not None else uniform_poly(ctx, rng))

    def secret_for_tests(self) -> RingPoly:
        return self._secret


def uniform_oracle(ctx: RqContext, rng: np.random.Generator) -> Sample:
    """Both components independently uniform over R_q."""
    return Sample(uniform_poly(ctx, rng), uniform_poly(ctx, rng))


def plwe_oracle(
    inst: PlweInstance,
    rng: np.random.Generator,
    *,
    force_a: RingPoly | None = None,
    force_error: tuple[int, ...] | None = None,
) -> Sample:
    """Draw (a, a*s + e); the force_* hooks exist for tests that need a known
    component."""
    ctx = inst.ctx
    a = force_a if force_a is not None else uniform_poly(ctx, rng)
    if force_error is not None:
        e = np.array(force_error, dtype=np.int64)
    else:
        e = gaussian_coeffs(inst.gauss, rng, ctx.N)
    b = ring_add(ring_mul(a, inst._secret), ctx.poly(e))
    return Sample(a, b, raw_error=tuple(int(v) for v in e))


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
# whole-trial batches

# Rows drawn at most per block of honest rejection sampling.
_REJECTION_BLOCK = 1024


def _oracle_draws(
    ring: RqContext,
    gauss: GaussianSpec,
    rng: np.random.Generator,
    calls: int,
    secret: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The raw draws of `calls` oracle invocations, in the per-sample order:
    a, then the rounded error (PLWE, a secret given) or a uniform b.

    Back-to-back integers calls consume the stream like one call of the
    stacked size, so the uniform oracle's draws come in one call.
    """
    q, N = ring.q, ring.N
    if secret is None:
        draws = rng.integers(0, q, size=(calls, 2, N))
        return draws[:, 0], draws[:, 1]
    A = np.empty((calls, N), dtype=np.int64)
    X = np.empty((calls, N))
    integers = rng.integers
    for i in range(calls):
        A[i] = integers(0, q, size=N)
        X[i] = _gaussian_reals(gauss, rng, N)
    return A, np.rint(X).astype(np.int64)


def _rejection_draws(
    ring: RqContext,
    gauss: GaussianSpec,
    ext: ExtFieldCtx,
    m: int,
    rng: np.random.Generator,
    secret: np.ndarray | None,
    max_invocations: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """m calls of sample_rq0 over the plain oracle: the accepted draws and
    the invocation count.

    Oracle calls come in blocks sized by the expected need, q^(n-1) calls
    per sample, or by the budget when it is smaller; membership is tested on
    a whole block at once.  Draws after the m-th acceptance are never used.
    """
    exhausted = f"no R_q0 sample within {max_invocations} invocations"
    per_sample = min(ext.q ** (ext.n - 1), max_invocations)
    kept_a, kept_x = [], []
    invocations = 0
    since = 0  # invocations since the last acceptance
    while m:
        A, X = _oracle_draws(ring, gauss, rng, min(m * per_sample, _REJECTION_BLOCK), secret)
        hits = np.flatnonzero(~rq0_witnesses(A, ext).any(axis=1))[:m]
        counts = np.diff(hits, prepend=-1 - since)
        if (counts > max_invocations).any():
            raise BudgetExhausted(exhausted)
        kept_a.append(A[hits])
        kept_x.append(X[hits])
        invocations += int(counts.sum())
        since = len(A) - 1 - hits[-1] if hits.size else since + len(A)
        m -= hits.size
        if m and since >= max_invocations:
            raise BudgetExhausted(exhausted)
    return np.concatenate(kept_a), np.concatenate(kept_x), invocations


def sample_batch(
    ring: RqContext,
    gauss: GaussianSpec,
    ext: ExtFieldCtx,
    m: int,
    rng: np.random.Generator,
    secret: np.ndarray | None = None,
    honest: bool = False,
    max_invocations: int = 10**8,
) -> tuple[SampleBatch, int]:
    """m samples with a in R_{q,0} and the oracle invocations spent on them.

    With a secret (coefficients of s) the samples are PLWE, else uniform.
    Direct construction (honest=False) draws as m calls of plwe_oracle_rq0
    or uniform_oracle_rq0 and spends m invocations; honest sampling draws as
    m calls of sample_rq0 over plwe_oracle or uniform_oracle.  Either way
    the rows equal those of the per-sample path on the same stream.  PLWE
    rows are B = A @ S + E mod q, S the multiplication matrix of s.
    """
    q = ring.q
    if honest:
        A, X, invocations = _rejection_draws(ring, gauss, ext, m, rng, secret, max_invocations)
    else:
        A, X = _oracle_draws(ring, gauss, rng, m, secret)
        A[:, 1 : ext.n] = (A[:, 1 : ext.n] - rq0_witnesses(A, ext)) % q
        invocations = m
    B = X if secret is None else (A @ ring.mul_matrix(secret) + X) % q
    return SampleBatch(ring, A, B), invocations
