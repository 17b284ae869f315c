"""Randomness sources: discrete Gaussians, uniform ring elements, the two
sample oracles, and samplers restricted to the subring R_{q,0}.

Every function takes an explicit numpy Generator so that campaigns can derive
one private stream per trial and replay any run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fields import ExtFieldCtx
from .rings import (
    RingPoly,
    RqContext,
    eval_matrix,
    ring_add,
    ring_mul,
    rq0_membership,
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
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

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


def gaussian_coeffs(spec: GaussianSpec, rng: np.random.Generator, size) -> np.ndarray:
    """Vectorized draw of signed integer errors with the same law as
    draw_gaussian.  Rejected positions are redrawn in place."""
    x = rng.normal(0.0, spec.sigma, size=size)
    if spec.truncated:
        bound = 2 * spec.sigma
        bad = np.abs(x) > bound
        while bad.any():
            x[bad] = rng.normal(0.0, spec.sigma, size=int(bad.sum()))
            bad = np.abs(x) > bound
    return np.rint(x).astype(np.int64)


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
