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

from .fields import (
    ContextMismatch,
    ExtFieldCtx,
    ExtFieldElement,
    FieldElement,
    PrimeModulus,
    is_irreducible_binomial,
    mult_order,
)

# Above this modulus, exhaustive scans over F_q are off the table, and so are
# the int64 products of ring_mul and eval_matrix: below it, a sum of N products
# of two residues stays under 2**63 for every N < 2**19.
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
    def _reduction_rows(self) -> np.ndarray:
        """Row k holds the coefficients of x^(N+k) mod f, for 0 <= k < N-1."""
        N, q = self.N, self.q
        rows = np.zeros((max(N - 1, 0), N), dtype=np.int64)
        base = np.array([-c % q for c in self.f_mod[:N]], dtype=np.int64)
        cur = base
        for k in range(N - 1):
            rows[k] = cur
            nxt = np.zeros(N, dtype=np.int64)
            nxt[1:] = cur[:-1]
            cur = (nxt + cur[N - 1] * base) % q
        return rows

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


@lru_cache(maxsize=64)
def eval_matrix(ext: ExtFieldCtx, length: int) -> np.ndarray:
    """The (length, n) matrix W whose row i holds the y-coordinates of
    alpha^i = a^(i // n) * y^(i mod n), alpha the root of y^n - a.

    A coefficient vector p evaluates as p(alpha) = p @ W mod q.  Column 0
    gives the F_q part, columns 1..n-1 the witness sums of rq0_membership.
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
    acc = ectx.zero()
    for c in reversed(p.coeffs):
        acc = acc * point + ectx.from_base(c)
    return acc


# ---------------------------------------------------------------------------
# root discovery


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], m: list[int], q: int) -> list[int]:
    a = a[:]
    inv_lead = pow(m[-1], q - 2, q)
    while len(a) >= len(m):
        factor = a[-1] * inv_lead % q
        shift = len(a) - len(m)
        if factor:
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - factor * c) % q
        a.pop()
        _poly_trim(a)
        if not a:
            break
    return a


def _poly_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        a, b = b, _poly_mod(a, b, q)
    if a:
        inv_lead = pow(a[-1], q - 2, q)
        a = [c * inv_lead % q for c in a]
    return a


def _poly_mulmod(a: list[int], b: list[int], m: list[int], q: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % q
    return _poly_mod(prod, m, q)


def _poly_powmod(base: list[int], e: int, m: list[int], q: int) -> list[int]:
    result = [1]
    base = _poly_mod(base[:], m, q)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, m, q)
        base = _poly_mulmod(base, base, m, q)
        e >>= 1
    return result


def _roots_by_splitting(g: list[int], q: int) -> list[int]:
    """Roots of a squarefree product of distinct linear factors over F_q."""
    g = _poly_trim(g[:])
    if len(g) <= 1:
        return []
    if len(g) == 2:
        return [(-g[0] * pow(g[1], q - 2, q)) % q]
    shift = 0
    while True:
        shift += 1
        h = _poly_powmod([shift, 1], (q - 1) // 2, g, q)
        h = h[:]
        if h:
            h[0] = (h[0] - 1) % q
        d = _poly_gcd(g, h, q)
        if 0 < len(d) - 1 < len(g) - 1:
            other = _poly_quot(g, d, q)
            return _roots_by_splitting(d, q) + _roots_by_splitting(other, q)


def _poly_quot(a: list[int], d: list[int], q: int) -> list[int]:
    a = a[:]
    out = [0] * (len(a) - len(d) + 1)
    inv_lead = pow(d[-1], q - 2, q)
    while len(a) >= len(d):
        factor = a[-1] * inv_lead % q
        shift = len(a) - len(d)
        out[shift] = factor
        for i, c in enumerate(d):
            a[shift + i] = (a[shift + i] - factor * c) % q
        a.pop()
        _poly_trim(a)
        if not a:
            break
    return out


def find_fq_roots(ctx: RqContext, r_max: int = 0) -> list[tuple[FieldElement, int]]:
    """All roots of f in F_q, annotated with multiplicative orders.

    The root 0 carries the sentinel order 0.  When r_max > 0 the list is
    filtered to orders <= r_max.  Exhaustive evaluation is used for desk-scale
    q; larger moduli go through gcd(f, x^q - x) and equal-degree splitting.
    """
    q = ctx.q
    fm = np.array(ctx.f_mod, dtype=np.int64)
    roots: list[int] = []
    if q < EXHAUSTIVE_SCAN_LIMIT:
        chunk = 1 << 20
        for start in range(0, q, chunk):
            xs = np.arange(start, min(start + chunk, q), dtype=np.int64)
            acc = np.full_like(xs, fm[-1])
            for c in fm[-2::-1]:
                acc = (acc * xs + c) % q
            roots.extend(int(x) for x in xs[acc == 0])
    else:
        f_list = list(ctx.f_mod)
        xq = _poly_powmod([0, 1], q, f_list, q)
        xq_minus_x = xq[:] + [0] * max(0, 2 - len(xq))
        xq_minus_x[1] = (xq_minus_x[1] - 1) % q
        g = _poly_gcd(f_list, xq_minus_x, q)
        roots = sorted(_roots_by_splitting(g, q))
    out = []
    for root in roots:
        elt = ctx.modulus.element(root)
        order = 0 if root == 0 else mult_order(elt)
        if r_max > 0 and order > r_max:
            continue
        out.append((elt, order))
    return out


def find_binomial_factors(ctx: RqContext, n: int) -> list[tuple[FieldElement, int]]:
    """All a in F_q* with x^n - a irreducible and dividing f mod q.

    Divisibility is decided by folding: the remainder of f upon division by
    x^n - a has coordinates sum_t f_{tn+j} a^t for j = 0..n-1.
    """
    if n < 2:
        raise ValueError("binomial factor degree must be >= 2")
    if n > ctx.N:
        return []
    q = ctx.q
    if q >= EXHAUSTIVE_SCAN_LIMIT:
        raise ValueError("binomial divisor search is exhaustive; needs q < 2**22")
    cands = np.arange(1, q, dtype=np.int64)
    rem = np.zeros((n, q - 1), dtype=np.int64)
    power = np.ones(q - 1, dtype=np.int64)
    t = 0
    while t * n <= ctx.N:
        for j in range(n):
            k = t * n + j
            if k <= ctx.N and ctx.f_mod[k]:
                rem[j] = (rem[j] + ctx.f_mod[k] * power) % q
        power = power * cands % q
        t += 1
    hits = cands[np.all(rem == 0, axis=0)]
    out = []
    for a_val in hits:
        elt = ctx.modulus.element(int(a_val))
        if is_irreducible_binomial(n, elt):
            out.append((elt, mult_order(elt)))
    return out


@dataclass(frozen=True)
class RootReport:
    """Vulnerable evaluation points of a ring: F_q roots and binomial divisors."""

    fq_roots: tuple[tuple[FieldElement, int], ...]
    binomial_factors: tuple[tuple[int, FieldElement, int], ...]


def root_report(ctx: RqContext, n_max: int = 4, r_max: int = 0) -> RootReport:
    factors = []
    for n in range(2, min(n_max, ctx.N) + 1):
        for a_elt, order in find_binomial_factors(ctx, n):
            factors.append((n, a_elt, order))
    return RootReport(tuple(find_fq_roots(ctx, r_max)), tuple(factors))


# ---------------------------------------------------------------------------
# the subring of polynomials evaluating into F_q


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


def load_ring_doc(doc: dict) -> RqContext:
    """Build a context from the {"N": int, "f": [c0..cN], "q": int} document."""
    for key in ("N", "f", "q"):
        if key not in doc:
            raise ValueError(f"ring document is missing {key!r}")
    N, f, q = doc["N"], doc["f"], doc["q"]
    if not isinstance(f, Sequence) or len(f) != N + 1:
        raise ValueError(f"f must list N+1 = {N + 1} coefficients")
    return RqContext(tuple(int(c) for c in f), PrimeModulus(int(q)))
