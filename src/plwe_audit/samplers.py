"""Randomness sources: discrete Gaussian errors, uniform ring elements and
whole-trial sample batches restricted to the subring R_{q,0}.

Every function takes an explicit numpy Generator so that campaigns can derive
one private stream per trial and replay any run bit for bit.

sample_batch draws a whole trial's samples as one SampleBatch of (M, N)
arrays: after the secret, it draws all M errors (or uniform b rows) in one
call and then the a rows.  A batch evaluates at a root without forming
B = A S + E; B is built only on request.  The per-sample oracles that build
the same samples one RingPoly pair at a time live in tests/reference.py,
which pins this module to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .fields import ExtFieldCtx
from .rings import RingPoly, RqContext, eval_matrix, rq0_witnesses

# Mass of a centered normal on [-2s, 2s]; exact to 1e-6.
P0_UNTRUNCATED = 0.954500

# A bound on |z| for Generator.normal's standard draws: its ziggurat returns
# at most r + x with r < 3.66 and, from 53-bit uniforms, a tail step x < 8.6.
NORMAL_DRAW_MAX = 16

# The oracle invocations a trial may spend on its samples, unless the
# config's rq0_budget says otherwise.
DEFAULT_RQ0_BUDGET = 10**8


def p0_of(truncated: bool) -> float:
    """p0, the error mass inside [-2s, 2s]: 1 for truncated errors."""
    return 1.0 if truncated else P0_UNTRUNCATED


class BudgetExhausted(Exception):
    """The rejection sampler ran past its invocation cap."""


class NonMemberSample(Exception):
    """An a-component outside R_{q,0} reached an evaluation at the root."""


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
        return p0_of(self.truncated)


def gaussian_coeffs(spec: GaussianSpec, rng: np.random.Generator, size) -> np.ndarray:
    """Signed integer errors, rounded N(0, sigma^2) draws: one normal call of
    the whole size, then rejected positions, in row-major order, are redrawn
    in place until none is left.  Rejection reads the continuous values, so
    a truncated error lies in [-round(2s), round(2s)]."""
    x = rng.normal(0.0, spec.sigma, size=size)
    if spec.truncated:
        bound = 2 * spec.sigma
        bad = np.abs(x) > bound
        while redraws := np.count_nonzero(bad):
            x[bad] = rng.normal(0.0, spec.sigma, size=redraws)
            bad = np.abs(x) > bound
    return np.rint(x).astype(np.int64)


def uniform_poly(ctx: RqContext, rng: np.random.Generator) -> RingPoly:
    return ctx.poly(rng.integers(0, ctx.q, size=ctx.N))


@dataclass(frozen=True, eq=False)
class Pairs:
    """What every attack reads of M samples at a root alpha of y^n - a:
    targets_i - scales_i * g is the tentative error (1/n)(Tr(b_i(alpha)) -
    a_i(alpha)*g) of candidate g, all residues mod q."""

    targets: np.ndarray
    scales: np.ndarray
    q: int

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, rows: slice) -> "Pairs":
        return Pairs(self.targets[rows], self.scales[rows], self.q)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """M samples as (M, N) int64 rows: A[i] holds the coefficients of a_i.

    Without a secret, X[i] holds those of b_i.  A PLWE batch from
    sample_batch keeps its secret s (coefficients) and in X the signed
    errors e_i; its B = A S + E mod q, S the multiplication matrix of s, is
    built only when read.
    """

    ring: RqContext
    A: np.ndarray
    X: np.ndarray
    secret: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.A)

    def __getitem__(self, rows: slice) -> "SampleBatch":
        return SampleBatch(self.ring, self.A[rows], self.X[rows], self.secret)

    @cached_property
    def B(self) -> np.ndarray:
        """The canonical coefficient rows of the b_i."""
        if self.secret is None:
            return self.X
        return (self.A @ self.ring.mul_matrix(self.secret) + self.X) % self.ring.q

    def pairs(self, ext: ExtFieldCtx) -> Pairs:
        """The attack pairs at the root alpha of y^n - a.

        Every a_i must lie in R_{q,0}, so u_i = a_i(alpha) is its y^0
        coordinate c0, and Tr = n * (y^0 coordinate) makes the targets the y^0
        coordinates of b_i(alpha).  A batch with a secret evaluates first:
        evaluation is a ring homomorphism and u_i lies in F_q, so the target
        is u_i * c0(s) + c0(e_i) and B is never formed; X - X // q * q reduces
        the errors faster than int64 %, exactly within campaign.check_draws.
        """
        q = self.ring.q
        W = eval_matrix(ext, self.ring.N)
        AW = self.A @ W % q  # column 0: u_i; the others: the witness sums
        if AW[:, 1:].any():
            i, k = np.argwhere(AW[:, 1:])[0]
            raise NonMemberSample(f"sample {i} lies outside R_q0 (witness k={k + 1})")
        coord0, u = W[:, 0], AW[:, 0]
        if self.secret is None:
            targets = self.X @ coord0 % q
        else:
            targets = (u * (self.secret @ coord0 % q) + (self.X - self.X // q * q) @ coord0) % q
        return Pairs(targets, u * pow(ext.n, -1, q) % q, q)


# perfbench/tracer.py patches PlweInstance.generate in every traced run.
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


# ---------------------------------------------------------------------------
# whole-trial batches

# Rows drawn at most per block of honest rejection sampling.
_REJECTION_BLOCK = 1024


def _rejection_rows(
    ext: ExtFieldCtx,
    N: int,
    m: int,
    rng: np.random.Generator,
    max_invocations: int,
) -> tuple[np.ndarray, int]:
    """The a rows that m rounds of rejection sampling accept, and the
    invocation count: each round draws uniform rows until one lies in
    R_{q,0}, as the reference sample_rq0 in tests/reference.py does.

    Candidate rows come in blocks of one integers call, sized by the
    expected need, q^(n-1) calls per sample, or by the budget when it is
    smaller; membership is tested on a whole block at once.  Back-to-back
    integers calls consume the stream like one call of the stacked size, so
    the block sizes do not change which rows are drawn.  Draws after the
    m-th acceptance are never used.

    The invocation counts are read from the hit positions of a block: the
    first accepted row took hits[0] + 1 + since calls, the later ones the
    gaps hits[1:] - hits[:-1], so the block spends hits[-1] + 1 + since in
    all.  A round that needs more than max_invocations calls raises
    BudgetExhausted, as in the reference.
    """
    exhausted = f"no R_q0 sample within {max_invocations} invocations"
    per_sample = min(ext.q ** (ext.n - 1), max_invocations)
    kept = []
    invocations = 0
    since = 0  # invocations since the last acceptance
    while m:
        A = rng.integers(0, ext.q, size=(min(m * per_sample, _REJECTION_BLOCK), N))
        hits = (~rq0_witnesses(A, ext).any(axis=1)).nonzero()[0][:m]
        if hits.size:
            # a gap inside the block is shorter than the block
            if hits[0] + 1 + since > max_invocations or (
                len(A) > max_invocations and (hits[1:] - hits[:-1] > max_invocations).any()
            ):
                raise BudgetExhausted(exhausted)
            kept.append(A.take(hits, axis=0))
            last = int(hits[-1])
            invocations += last + 1 + since
            since = len(A) - 1 - last
            m -= hits.size
        else:
            since += len(A)
        if m and since >= max_invocations:
            raise BudgetExhausted(exhausted)
    return np.concatenate(kept), invocations


def sample_batch(
    ring: RqContext,
    gauss: GaussianSpec,
    ext: ExtFieldCtx,
    m: int,
    rng: np.random.Generator,
    secret: np.ndarray | None = None,
    honest: bool = False,
    max_invocations: int = DEFAULT_RQ0_BUDGET,
) -> tuple[SampleBatch, int]:
    """m samples with a in R_{q,0} and the oracle invocations spent on them.

    With a secret (coefficients of s) the samples are PLWE, else uniform.
    The stream is consumed in a fixed order: all m errors in one normal
    call, with truncation redraws over the whole matrix (a uniform batch:
    all m b rows in one integers call), then the a rows.  Direct
    construction (honest=False) draws the a rows in one integers call,
    solves their R_{q,0} pivots and spends m invocations; honest sampling
    draws uniform a rows and keeps the members (_rejection_rows).  B is not
    formed here.
    """
    q, N = ring.q, ring.N
    X = rng.integers(0, q, size=(m, N)) if secret is None else gaussian_coeffs(gauss, rng, (m, N))
    if honest:
        A, invocations = _rejection_rows(ext, N, m, rng, max_invocations)
    else:
        A = rng.integers(0, q, size=(m, N))
        A[:, 1 : ext.n] = (A[:, 1 : ext.n] - rq0_witnesses(A, ext)) % q
        invocations = m
    return SampleBatch(ring, A, X, secret), invocations
