"""The distinguishing attacks.

Three basic procedures test candidate secrets against a membership predicate:
the small-set attack checks tentative errors against a look-up table Sigma, the
small-values attack checks them against the centered interval [-q/4, q/4), and
the unbounded variant counts interval hits over every candidate at once.  Each
evaluates at a root alpha of an irreducible divisor y^n - a of f: samples are
restricted to the subring R_{q,0} and candidate values folded through the field
trace.  An F_q root alpha is the case n = 1, a = alpha, where the subring is
all of R_q and the trace is the identity.  A chunked driver turns the
three-way basic verdicts into a two-way vote whenever single runs are
unreliable.

Every attack is a pure function of (samples, parameters).  The candidate loop
is evaluated sample-major with a shrinking survivor set, which returns exactly
the survivor set of the naive candidate-major loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import extended_threshold, usva_threshold
from .fields import ExtFieldCtx, FieldElement
from .rings import RqContext, eval_matrix
from .samplers import Sample


class AttackError(Exception):
    """Base class for attack failures."""


class NoSamples(AttackError):
    """The sample set is empty."""


class NonMemberSample(AttackError):
    """A trace attack received an a-component outside R_{q,0}."""


class TableTooLarge(AttackError):
    """The Sigma enumeration would exceed the configured cap."""


class InsufficientSamples(AttackError):
    """The chunk size exceeds the number of samples."""


# ---------------------------------------------------------------------------
# verdicts


VERDICT_GUESS = "guess"
VERDICT_NOT_PLWE = "not_plwe"
VERDICT_NOT_ENOUGH = "not_enough_samples"


@dataclass(frozen=True)
class AttackVerdict:
    """Outcome of a basic attack: the full survivor set, classified three ways.

    An empty set means NOT PLWE; a single survivor is the guess; anything
    larger means more samples are needed (the survivors are kept so a caller
    can retry without discarding information).
    """

    survivors: tuple[int, ...]

    @property
    def kind(self) -> str:
        if not self.survivors:
            return VERDICT_NOT_PLWE
        if len(self.survivors) == 1:
            return VERDICT_GUESS
        return VERDICT_NOT_ENOUGH

    @property
    def guess(self) -> int | None:
        return self.survivors[0] if len(self.survivors) == 1 else None

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.kind}
        if self.kind == VERDICT_GUESS:
            out["guess"] = self.survivors[0]
        elif self.kind == VERDICT_NOT_ENOUGH:
            out["survivors"] = list(self.survivors)
        return out


@dataclass(frozen=True)
class Decision:
    """Two-way outcome of the voting and unbounded attacks."""

    votes: int
    threshold: int

    @property
    def is_plwe(self) -> bool:
        return self.votes >= self.threshold

    @property
    def kind(self) -> str:
        return "plwe" if self.is_plwe else "uniform"

    def to_dict(self) -> dict:
        return {"verdict": self.kind, "votes": self.votes, "threshold": self.threshold}


# ---------------------------------------------------------------------------
# Sigma tables


@dataclass(frozen=True)
class SigmaTable:
    """The set of residues a collapsed error value can plausibly take.

    values holds the exact residue set sum_j x_j w^j mod q over integer tuples
    with |x_j| <= floor(block_sigma); analytic_bound keeps the real-width
    cardinality estimate (4*sqrt(blocklen)*sigma + 1)^r for reporting.
    """

    values: frozenset[int]
    analytic_bound: float
    r: int
    block_sigma: float  # 2*sqrt(blocklen)*sigma
    q: int

    @property
    def size(self) -> int:
        return len(self.values)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.q, dtype=bool)
        m[np.fromiter(self.values, dtype=np.int64, count=len(self.values))] = True
        return m


def build_sigma_table_trace(
    a: FieldElement, r: int, blocklen: int, sigma: float, cap: int = 10**8
) -> SigmaTable:
    """Table for evaluation at a root of the binomial y^n - a, n = 1 included:
    r blocks of blocklen raw error coefficients weighted by the powers of a
    (of order r)."""
    if r < 1 or blocklen < 1:
        raise ValueError("need r >= 1 and block length >= 1")
    q = a.q
    block_sigma = 2.0 * math.sqrt(blocklen) * sigma
    bound = math.floor(block_sigma)
    tuple_count = (2 * bound + 1) ** r
    if tuple_count > cap:
        raise TableTooLarge(
            f"enumeration of {tuple_count} tuples exceeds the cap of {cap}"
        )
    offsets = range(-bound, bound + 1)
    values = {0}
    power = 1
    for _ in range(r):
        values = {(v + x * power) % q for v in values for x in offsets}
        power = power * a.value % q
    analytic = (4.0 * math.sqrt(blocklen) * sigma + 1.0) ** r
    return SigmaTable(frozenset(values), analytic, r, block_sigma, q)


def build_sigma_table_fq(
    alpha: FieldElement, r: int, N: int, sigma: float, cap: int = 10**8
) -> SigmaTable:
    """Table for evaluation at an F_q root of order r; each of the r blocks
    collects floor(N/r) raw error coefficients."""
    return build_sigma_table_trace(alpha, r, max(1, N // r), sigma, cap)


# ---------------------------------------------------------------------------
# shared sample preprocessing


def _coeff_matrices(samples: Sequence[Sample]) -> tuple[np.ndarray, np.ndarray, RqContext]:
    if not samples:
        raise NoSamples("the sample set is empty")
    ctx = samples[0].a.ctx
    A = np.array([s.a.coeffs for s in samples], dtype=np.int64)
    B = np.array([s.b.coeffs for s in samples], dtype=np.int64)
    return A, B, ctx


def _pairs(samples, point: FieldElement | ExtFieldCtx):
    """(targets, scales, q) with targets_i - scales_i * g equal to the
    tentative error (1/n)(Tr(b_i(alpha)) - a_i(alpha)*g).

    The point is a root alpha of y^n - a; an F_q root is coerced to the
    degree-1 case.  Every a_i must lie in R_{q,0}, so a_i(alpha) is its y^0
    coordinate, and Tr = n * (y^0 coordinate) makes the targets the y^0
    coordinates of b_i(alpha).
    """
    A, B, ctx = _coeff_matrices(samples)
    ext = point if isinstance(point, ExtFieldCtx) else ExtFieldCtx(1, point)
    if ext.q != ctx.q:
        raise AttackError("evaluation point and samples use different moduli")
    q = ctx.q
    W = eval_matrix(ext, ctx.N)
    bad = np.argwhere(A @ W[:, 1:] % q)
    if bad.size:
        i, k = bad[0]
        raise NonMemberSample(f"sample {i} lies outside R_q0 (witness k={k + 1})")
    targets = B @ W[:, 0] % q
    scales = (A @ W[:, 0] % q) * pow(ext.n, -1, q) % q
    return targets, scales, q


def _survivors(
    targets: np.ndarray, scales: np.ndarray, member: np.ndarray, q: int
) -> tuple[int, ...]:
    """Candidates g with member[(targets_i - scales_i * g) mod q] for all i.

    Processed sample-major over a shrinking candidate set; the result equals
    the candidate-major loop exactly.
    """
    cand = np.arange(q, dtype=np.int64)
    for t, u in zip(targets, scales):
        cand = cand[member[(int(t) - int(u) * cand) % q]]
        if cand.size == 0:
            break
    return tuple(int(g) for g in cand)


def _quarter_mask(q: int) -> np.ndarray:
    v = np.arange(q, dtype=np.int64)
    return (4 * v < q) | (4 * v >= 3 * q)


# ---------------------------------------------------------------------------
# basic attacks


def small_set_attack(
    samples: Sequence[Sample], table: SigmaTable, point: FieldElement | ExtFieldCtx
) -> AttackVerdict:
    """Keep the candidates g for s(alpha) with b_i(alpha) - a_i(alpha)*g in
    Sigma for every sample.

    At a root of a binomial divisor y^n - a the samples must lie in R_{q,0}
    and g guesses Tr(s(alpha)): the test is (1/n)(Tr(b_i(alpha)) -
    a_i(alpha)*g) in Sigma.  With a_i(alpha) in F_q the trace of the
    tentative error collapses to Tr(b_i(alpha)) - a_i(alpha)*Tr(s(alpha)), so
    looping g over F_q covers all secrets.
    """
    targets, scales, q = _pairs(samples, point)
    if table.q != q:
        raise AttackError("table was built for a different modulus")
    return AttackVerdict(_survivors(targets, scales, table.mask(), q))


def small_values_attack(
    samples: Sequence[Sample], point: FieldElement | ExtFieldCtx
) -> AttackVerdict:
    """Survivor test: the tentative error lands in [-q/4, q/4)."""
    targets, scales, q = _pairs(samples, point)
    return AttackVerdict(_survivors(targets, scales, _quarter_mask(q), q))


# ---------------------------------------------------------------------------
# unbounded attack


def unbounded_small_values_attack(
    samples: Sequence[Sample], delta: float, point: FieldElement | ExtFieldCtx
) -> Decision:
    """Count quarter-interval hits over every candidate at once and compare
    against the expectation threshold T for a genuine PLWE batch.

    delta is the caller's estimate of P(error image in quarter interval) - 1/2;
    it is never derived here.
    """
    targets, scales, q = _pairs(samples, point)
    threshold = usva_threshold(len(samples), q, delta)
    mask = _quarter_mask(q)
    g = np.arange(q, dtype=np.int64)
    votes = 0
    for t, u in zip(targets, scales):
        votes += int(mask[(int(t) - int(u) * g) % q].sum())
    return Decision(votes, threshold)


# ---------------------------------------------------------------------------
# chunked (voting) driver


def extended_attack(
    samples: Sequence[Sample],
    m0: int,
    sub: Callable[[Sequence[Sample]], AttackVerdict],
    r_eff: int,
    p0: float,
) -> Decision:
    """Run a basic attack on floor(M/M0) disjoint, index-ordered chunks of M0
    samples and vote: a chunk counts when its verdict is anything but NOT
    PLWE.  The threshold is the expected count for genuine PLWE input,
    ceil(c * p0^(M0*r_eff)); r_eff is the table order for small-set
    subprocesses and 1 for small-values ones.
    """
    if not samples:
        raise NoSamples("the sample set is empty")
    if m0 < 1:
        raise ValueError("chunk size must be >= 1")
    if m0 > len(samples):
        raise InsufficientSamples(
            f"chunk size {m0} exceeds the {len(samples)} available samples"
        )
    chunks = len(samples) // m0
    threshold = extended_threshold(chunks, p0, m0, r_eff)
    votes = 0
    for j in range(chunks):
        verdict = sub(samples[j * m0 : (j + 1) * m0])
        if verdict.kind != VERDICT_NOT_PLWE:
            votes += 1
    return Decision(votes, threshold)
