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
# campaign.check_draws and analysis.monte_carlo_delta (whose threshold
# count is exact only while no draw passes it) rely on it.
NORMAL_DRAW_MAX = 16

# The oracle invocations a trial may spend on its samples, unless the
# config's rq0_budget says otherwise.
DEFAULT_RQ0_BUDGET = 10**8


def p0_of(truncated: bool) -> float:
    """p0, the error mass inside [-2s, 2s]: 1 for truncated errors."""
    return 1.0 if truncated else P0_UNTRUNCATED


class BudgetExhausted(Exception):
    """A round of rejection sampling needed more than budget calls;
    invocations counts the completed rounds' calls plus the budget."""

    def __init__(self, budget: int, invocations: int):
        super().__init__(budget, invocations)  # the args a pickled copy is rebuilt from
        self.budget, self.invocations = budget, invocations

    def __str__(self) -> str:
        return f"no R_q0 sample within {self.budget} invocations"


class NonMemberSample(Exception):
    """An a-component outside R_{q,0} reached an evaluation at the root:
    sample row, whose first nonzero witness sum is witness (k = 1..n-1)."""

    def __init__(self, row: int, witness: int):
        super().__init__(row, witness)  # the args a pickled copy is rebuilt from
        self.row, self.witness = row, witness

    def __str__(self) -> str:
        return f"sample {self.row} lies outside R_q0 (witness k={self.witness})"


@dataclass(frozen=True)
class GaussianSpec:
    """Width and truncation mode of the error distribution."""

    sigma: float
    truncated: bool

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


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
    return np.rint(x, out=x).astype(np.int64)


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
        is u_i * c0(s) + c0(e_i) and B is never formed; X - X // q * q, formed
        in place in one temporary, reduces the errors faster than int64 %,
        exactly within campaign.check_draws.
        """
        q = self.ring.q
        W = eval_matrix(ext, self.ring.N)
        AW = self.A @ W % q  # column 0: u_i; the others: the witness sums
        if AW[:, 1:].any():
            i, k = np.argwhere(AW[:, 1:])[0]
            raise NonMemberSample(int(i), int(k) + 1)
        coord0, u = W[:, 0], AW[:, 0]
        if self.secret is None:
            targets = self.X @ coord0 % q
        else:
            e = self.X // q
            e *= -q
            e += self.X
            targets = (u * (self.secret @ coord0 % q) + e @ coord0) % q
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

# Entries drawn at most per block of honest rejection sampling (2 MiB).
_REJECTION_BLOCK = 2**18


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

    Candidate rows come in blocks of one integers call, sized by the tail
    of the negative binomial count of calls m rounds need, m*k + 1.5 *
    sqrt(m*k*(k-1)) with k = q^(n-1) (or the budget, when smaller), and at
    most m * max_invocations rows and _REJECTION_BLOCK entries (one row at
    least); membership is tested on a whole block at once.  Back-to-back
    integers calls consume the stream like one call of the stacked size, so
    the block sizes do not change which rows are drawn.  Draws after the
    m-th acceptance are never used.

    Invocations are counted by stream position: a round costs its
    accepted row's gap from the last acceptance (position -1 before any),
    the whole run last + 1, and a round that needs more than
    max_invocations calls raises BudgetExhausted, as in the reference,
    after the completed rounds' calls and max_invocations.
    """
    k = min(ext.q ** (ext.n - 1), max_invocations)
    cap = max(1, _REJECTION_BLOCK // N)
    kept = []
    drawn, last = 0, -1  # rows drawn; stream position of the last accepted row
    while m:
        tail = m * k + math.isqrt(9 * m * k * (k - 1) // 4)
        A = rng.integers(0, ext.q, size=(min(tail, m * max_invocations, cap), N))
        hits = (~rq0_witnesses(A, ext).any(axis=1)).nonzero()[0][:m]
        if hits.size:
            # a gap inside the block is shorter than the block
            if drawn + hits[0] - last > max_invocations or (
                len(A) > max_invocations and (hits[1:] - hits[:-1] > max_invocations).any()
            ):
                ends = np.concatenate(([last], drawn + hits))  # stream positions of acceptances
                spent = int(ends[np.argmax(np.diff(ends) > max_invocations)]) + 1
                raise BudgetExhausted(max_invocations, spent + max_invocations)
            kept.append(A.take(hits, axis=0))
            last = drawn + int(hits[-1])
            m -= hits.size
        drawn += len(A)
        if m and drawn - last > max_invocations:
            raise BudgetExhausted(max_invocations, last + 1 + max_invocations)
    return np.concatenate(kept), last + 1


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
    draws uniform a rows in tail-sized blocks and keeps the members
    (_rejection_rows).  B is not formed here.
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
