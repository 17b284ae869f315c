"""The quotient ring R_q = F_q[x]/(f(x)).

Polynomials are stored as exactly N coefficients (degree 0..N-1) of canonical
residues.  The defining polynomial keeps its integer coefficients so one ring
description can be rebuilt under several moduli; reduction mod q happens when
the context is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, isqrt
from typing import Iterable, Sequence

import numpy as np

from .fields import ExtFieldCtx, PrimeModulus, binomial_log_irreducible, echo_int, prime_factors

# Below this modulus, roots and binomial divisors come from one fold over a
# table of all q - 1 generator powers, and candidate loops hold arrays of
# length q, in O(q) memory.  Above it, root and divisor searches are
# refused, as campaign.check_ring refuses the ring.  mul_matrix and
# eval_matrix guard with it too: it keeps their sums of N + 1 products of
# two residues below 2**63 for every N < 2**19 - 1.
EXHAUSTIVE_SCAN_LIMIT = 1 << 22


def require_table_modulus(q: int) -> None:
    """Refuse q >= 2**22, where a table of length q takes 32 MB or more."""
    if q >= EXHAUSTIVE_SCAN_LIMIT:
        raise ValueError(f"q = {q} < 2**22 = {EXHAUSTIVE_SCAN_LIMIT}")


def require_int64_sums(N: int, q: int) -> None:
    """Refuse (N+1)*q^2 >= 2**63, where a sum of N + 1 products of two
    residues can leave int64."""
    if (N + 1) * q * q >= 1 << 63:
        raise ValueError(f"(N+1)*q^2 = {(N + 1) * q * q} < 2**63 = {1 << 63}")


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
        q = self.q
        return tuple(c % q for c in self.f_int)

    @cached_property
    def support(self) -> tuple[tuple[int, int], ...]:
        """The (k, f_k mod q) of the nonzero coefficients of f, by degree."""
        return tuple((k, c) for k, c in enumerate(self.f_mod) if c)

    @cached_property
    def _x_to_the_N(self) -> np.ndarray:
        """x^N mod f = -(f_0 + ... + f_(N-1) x^(N-1))."""
        return np.array([-c % self.q for c in self.f_mod[: self.N]], dtype=np.int64)

    def mul_matrix(self, s: np.ndarray) -> np.ndarray:
        """The (N, N) matrix S of multiplication by s: row i holds x^i * s
        mod f, so a * s = a @ S mod q for every coefficient row a.  Exact in
        int64 while q < 2**22."""
        require_table_modulus(self.q)
        base, q = self._x_to_the_N, self.q
        rows = np.zeros((self.N, self.N), dtype=np.int64)
        rows[0] = np.asarray(s, dtype=np.int64) % q
        for k in range(1, self.N):
            prev, row = rows[k - 1], rows[k]
            row[1:] = prev[:-1]
            row += prev[-1] * base
            row %= q
        return rows

    def poly(self, coeffs: Iterable[int]) -> RingPoly:
        cs = [int(c) % self.q for c in coeffs]
        if len(cs) > self.N:
            raise ValueError(f"too many coefficients for degree-{self.N} ring")
        cs.extend([0] * (self.N - len(cs)))
        return RingPoly(tuple(cs), self)


@dataclass(frozen=True)
class RingPoly:
    """An element of R_q: exactly N residues indexed by degree."""

    coeffs: tuple[int, ...]
    ctx: RqContext

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.ctx.N:
            raise ValueError("RingPoly must carry exactly N coefficients")


@lru_cache(maxsize=64)
def eval_matrix(ext: ExtFieldCtx, length: int) -> np.ndarray:
    """The (length, n) matrix W whose row i holds the y-coordinates of
    alpha^i = a^(i // n) * y^(i mod n), alpha the root of y^n - a.

    A coefficient vector p evaluates as p(alpha) = p @ W mod q.  Column 0
    gives the F_q part, columns 1..n-1 the witness sums of rq0_witnesses.
    An F_q root alpha is the degree-1 case ExtFieldCtx(1, alpha, modulus).  The
    result is cached and read-only.
    """
    n, q, a = ext.n, ext.q, ext.a
    require_table_modulus(q)
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
    as the outer product g^(r*j) * g^k, k < r = ceil(sqrt(q - 1)), cut to
    q - 1 entries; refused from q = 2**22 on.  Built afresh on each call and
    held by no cache: 8(q - 1) bytes, 32 MB at the limit."""
    require_table_modulus(q)
    factors = prime_factors(q - 1)
    g = 2
    while any(pow(g, (q - 1) // p, q) == 1 for p in factors):
        g += 1
    r = isqrt(q - 2) + 1  # r * r >= q - 1
    inner, outer = [1], [1]
    for _ in range(r - 1):
        inner.append(inner[-1] * g % q)
    step = inner[-1] * g % q  # g^r
    for _ in range((q - 2) // r):  # ceil((q - 1) / r) rows in all
        outer.append(outer[-1] * step % q)
    G = np.array(outer, dtype=np.int64)[:, None] * np.array(inner, dtype=np.int64)
    G -= G // q * q  # G % q, as binomial_logs reduces
    return G.ravel()[: q - 1]


def log_orders(idx: np.ndarray, q: int) -> np.ndarray:
    """The multiplicative orders (q-1)/gcd(i, q-1) of the g^i, i in idx."""
    return (q - 1) // np.gcd(idx, q - 1)


def binomial_logs(ctx: RqContext, n: int, G: np.ndarray) -> np.ndarray:
    """The discrete logs i of the a = G[i] with x^n - a irreducible and
    dividing f mod q, in increasing order of a; n = 1 gives the nonzero
    roots.  G is generator_powers(q).

    Coordinate j of the remainder of f by x^n - a is sum_t f_(tn+j) a^t
    over the terms of ctx.support at k = tn + j.  The sparsest class picks
    the candidate logs: none for one term, every log for three or more, and
    for c_s a^s + c_t a^t the d = gcd(t - s, q - 1) solutions of
    (t - s) i = L mod q - 1, L the log of -c_s/c_t, or none when d does not
    divide L.  The ones binomial_log_irreducible keeps are folded through
    the other classes, sparsest first, with a^t = G[i*t mod (q-1)] (a^0 = 1
    needs none), exact in int64 while (N+1)*q^2 < 2**63.
    """
    q, m = ctx.q, ctx.q - 1
    require_int64_sums(ctx.N, q)
    classes: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, c in ctx.support:
        classes[k % n].append((k // n, c))
    classes = sorted(filter(None, classes), key=len)  # f is monic: never empty
    idx = np.arange(m if len(classes[0]) > 2 else 0, dtype=np.int64)
    if len(classes[0]) == 2:
        (s, c_s), (t, c_t) = classes.pop(0)
        L = int(np.argmax(G == -c_s * pow(c_t, -1, q) % q))
        d = gcd(t - s, m)
        if L % d == 0:
            i0 = L // d * pow((t - s) // d, -1, m // d) % (m // d)
            idx = np.arange(i0, m, m // d, dtype=np.int64)
    if not idx.size:
        return idx
    idx = idx[binomial_log_irreducible(n, idx, q)] if n > 1 else idx
    for terms in classes:
        if not idx.size:
            break
        acc = np.zeros(idx.size, dtype=np.int64)
        for t, c in terms:
            if not t:  # a^0 = 1
                acc += c
            else:
                e = idx * t
                e -= e // m * m  # e % m: numpy divides int64 by a scalar faster
                acc += c * G.take(e)
        idx = idx[acc == acc // q * q]
    return idx[np.argsort(G.take(idx))]


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
        raise ValueError(f"f must list N+1 = {echo_int(N + 1)} coefficients")
    coeffs = tuple(c if type(c) is int else exact_int(c, f"f[{k}]") for k, c in enumerate(f))
    return RqContext(coeffs, PrimeModulus(q))
