"""The quotient ring R_q = F_q[x]/(f(x)).

Polynomials are stored as exactly N coefficients (degree 0..N-1) of canonical
residues.  The defining polynomial keeps its integer coefficients so one ring
description can be rebuilt under several moduli; reduction mod q happens when
the context is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .fields import ExtFieldCtx, PrimeModulus, binomial_order_irreducible, prime_factors

# Below this modulus, roots and binomial divisors come from one fold over a
# table of all q - 1 generator powers, in O(q) memory, and the int64 sums of
# mul_matrix, eval_matrix and the fold stay exact: N + 1 products of two
# residues, (N+1)*q^2 < 2**63, for every N < 2**19 - 1.  Above it, root and
# divisor searches are refused, as campaign.check_ring refuses the ring.
EXHAUSTIVE_SCAN_LIMIT = 1 << 22


def _require_int64_modulus(q: int) -> None:
    if q >= EXHAUSTIVE_SCAN_LIMIT:
        raise ValueError(f"int64 arithmetic needs q < 2**22, got q = {q}")


@dataclass(frozen=True)
class RqContext:
    """Monic f of degree N over Z, together with the working prime q."""

    f_int: tuple[int, ...]
    modulus: PrimeModulus

    def __post_init__(self) -> None:
        if len(self.f_int) < 2:
            raise ValueError("f must have degree >= 1")
        if self.f_int[-1] != 1:
            raise ValueError("f must be monic")

    @property
    def N(self) -> int:
        return len(self.f_int) - 1

    @property
    def q(self) -> int:
        return self.modulus.q

    @cached_property
    def f_mod(self) -> tuple[int, ...]:
        return tuple(c % self.q for c in self.f_int)

    @cached_property
    def _x_to_the_N(self) -> np.ndarray:
        """x^N mod f = -(f_0 + ... + f_(N-1) x^(N-1))."""
        return np.array([-c % self.q for c in self.f_mod[: self.N]], dtype=np.int64)

    def _shift_rows(self, start: np.ndarray, count: int) -> np.ndarray:
        """Rows x^k * start mod f for 0 <= k < count; start is canonical."""
        base, q = self._x_to_the_N, self.q
        rows = np.zeros((count, self.N), dtype=np.int64)
        if count:
            rows[0] = start
        for k in range(1, count):
            prev, row = rows[k - 1], rows[k]
            row[1:] = prev[:-1]
            row += prev[-1] * base
            row %= q
        return rows

    @cached_property
    def _reduction_rows(self) -> np.ndarray:
        """Row k holds the coefficients of x^(N+k) mod f, for 0 <= k < N-1."""
        return self._shift_rows(self._x_to_the_N, max(self.N - 1, 0))

    def mul_matrix(self, s: np.ndarray) -> np.ndarray:
        """The (N, N) matrix S of multiplication by s: row i holds x^i * s
        mod f, so a * s = a @ S mod q for every coefficient row a.  Exact in
        int64 while q < 2**22."""
        _require_int64_modulus(self.q)
        return self._shift_rows(np.asarray(s, dtype=np.int64) % self.q, self.N)

    def poly(self, coeffs: Iterable[int]) -> RingPoly:
        cs = [int(c) % self.q for c in coeffs]
        if len(cs) > self.N:
            raise ValueError(f"too many coefficients for degree-{self.N} ring")
        cs.extend([0] * (self.N - len(cs)))
        return RingPoly(tuple(cs), self)

    def zero(self) -> RingPoly:
        return self.poly([])

    def one(self) -> RingPoly:
        return self.poly([1])

    def monomial(self, degree: int, coeff: int = 1) -> RingPoly:
        if degree >= self.N:
            raise ValueError("monomial degree must be < N")
        return self.poly([0] * degree + [coeff])


@dataclass(frozen=True)
class RingPoly:
    """An element of R_q: exactly N residues indexed by degree."""

    coeffs: tuple[int, ...]
    ctx: RqContext

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.ctx.N:
            raise ValueError("RingPoly must carry exactly N coefficients")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.int64)


@lru_cache(maxsize=64)
def eval_matrix(ext: ExtFieldCtx, length: int) -> np.ndarray:
    """The (length, n) matrix W whose row i holds the y-coordinates of
    alpha^i = a^(i // n) * y^(i mod n), alpha the root of y^n - a.

    A coefficient vector p evaluates as p(alpha) = p @ W mod q.  Column 0
    gives the F_q part, columns 1..n-1 the witness sums of rq0_witnesses.
    An F_q root alpha is the degree-1 case ExtFieldCtx(1, alpha).  The
    result is cached and read-only.
    """
    n, q, a = ext.n, ext.q, ext.a.value
    _require_int64_modulus(q)
    W = np.zeros((length, n), dtype=np.int64)
    power = 1
    for j in range(0, length, n):
        for k in range(min(n, length - j)):
            W[j + k, k] = power
        power = power * a % q
    W.setflags(write=False)
    return W


# ---------------------------------------------------------------------------
# root discovery


def generator_powers(q: int) -> np.ndarray:
    """G[i] = g^i mod q for 0 <= i < q - 1, g the least generator of F_q*,
    in about log2 q doubling steps.  Refused for q >= 2**22, where the
    table would take 32 MB or more."""
    if q >= EXHAUSTIVE_SCAN_LIMIT:
        raise ValueError(f"the generator-power table needs q < 2**22, got q = {q}")
    factors = prime_factors(q - 1)
    g = 2
    while any(pow(g, (q - 1) // p, q) == 1 for p in factors):
        g += 1
    G = np.empty(q - 1, dtype=np.int64)
    G[0] = 1
    size, step = 1, g  # step = g^size
    while size < q - 1:
        take = min(size, q - 1 - size)
        G[size : size + take] = G[:take] * step % q
        size += take
        step = step * step % q
    return G


def log_orders(idx: np.ndarray, q: int) -> np.ndarray:
    """The multiplicative orders (q-1)/gcd(i, q-1) of the g^i, i in idx."""
    return (q - 1) // np.gcd(idx, q - 1)


def _binomial_fold(ctx: RqContext, n: int, G: np.ndarray) -> np.ndarray:
    """The discrete logs i, in increasing order, of the a = G[i] in F_q*
    with x^n - a dividing f mod q; n = 1 gives the nonzero roots.

    With a = g^i, the remainder of f upon division by x^n - a has coordinate
    j = sum_t f_(tn+j) a^t, and a^t = G[i*t mod (q-1)] for every i at once.
    Only the nonzero f_k contribute, and each residue class j only narrows
    the survivors of the previous ones.  Each class sums at most N+1
    products of two residues, exact in int64 while (N+1)*q^2 < 2**63.
    """
    q, N = ctx.q, ctx.N
    if (N + 1) * q * q >= 1 << 63:
        raise ValueError(f"the fold needs (N+1)*q^2 < 2**63, got N = {N}, q = {q}")
    idx = np.arange(q - 1, dtype=np.int64)
    for j in range(n):
        terms = [(t, c) for t, c in enumerate(ctx.f_mod[j::n]) if c]
        if not terms:
            continue
        acc = np.zeros(len(idx), dtype=np.int64)
        for t, c in terms:
            acc += c * G[idx * t % (q - 1)]
        idx = idx[acc % q == 0]
    return idx


def binomial_logs(ctx: RqContext, n: int, G: np.ndarray) -> np.ndarray:
    """The discrete logs i of the a = G[i] with x^n - a irreducible and
    dividing f mod q, in increasing order of a; n = 1 gives the nonzero
    roots.  G is generator_powers(q)."""
    q = ctx.q
    idx = _binomial_fold(ctx, n, G)
    if n > 1 and idx.size:
        orders = log_orders(idx, q)
        keep = [r for r in np.unique(orders).tolist() if binomial_order_irreducible(n, r, q)]
        idx = idx[np.isin(orders, keep)]
    return idx[np.argsort(G[idx])]


# ---------------------------------------------------------------------------
# the subring of polynomials evaluating into F_q


def rq0_witnesses(A: np.ndarray, ext: ExtFieldCtx) -> np.ndarray:
    """The witness sums sum_j a^j A[i, nj+k], k = 1..n-1, of every row of A
    at once: coordinate k of A[i](alpha) in the y-basis.  An (M, n-1)
    array, zero in row i iff A[i] lies in R_{q,0}.

    The sums are formed one witness per row, (n-1, M), and returned as
    the transposed view, so a test of each row of A reduces over
    contiguous rows of M entries."""
    S = eval_matrix(ext, A.shape[-1])[:, 1:].T @ A.T
    S -= S // ext.q * ext.q  # S % q: numpy divides int64 by a scalar faster
    return S.T


def exact_int(value, name: str) -> int:
    """value as an int: an integer, or a float without a fractional part
    such as 23.0.  A boolean, 23.5, a string or anything else is a
    ValueError naming the field."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name}: expected an integer, got {value!r}")


def load_ring_doc(doc: dict) -> RqContext:
    """Build a context from the {"N": int, "f": [c0..cN], "q": int} document;
    N, q and every coefficient are read by exact_int."""
    for key in ("N", "f", "q"):
        if key not in doc:
            raise ValueError(f"ring document is missing {key!r}")
    N, f, q = exact_int(doc["N"], "N"), doc["f"], exact_int(doc["q"], "q")
    if not isinstance(f, Sequence) or len(f) != N + 1:
        raise ValueError(f"f must list N+1 = {N + 1} coefficients")
    coeffs = tuple(c if type(c) is int else exact_int(c, f"f[{k}]") for k, c in enumerate(f))
    return RqContext(coeffs, PrimeModulus(q))
