"""The prime modulus q, and the binomial extension fields F_q[y]/(y^n - a)
that the attacks evaluate at.

Residues are plain ints, stored canonically in [0, q).  Primality,
factoring, multiplicative orders, centered representatives and the
irreducibility criterion are exact integer functions; the one float is
echo_int's exponent, which only shortens a message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from math import gcd
from operator import index


class ZeroHasNoOrder(Exception):
    """The multiplicative order of zero is undefined."""


# Products of two residues must fit in 128-bit intermediates.
MAX_MODULUS = 1 << 62

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; the fixed base set is exact below 3.3e24."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


_SMALL_PRIMES = tuple(p for p in range(2, 1 << 10) if is_prime(p))


def _rho_divisor(m: int) -> int:
    """A proper divisor of the odd composite m by Brent's variant of
    Pollard's rho, on the maps x -> x^2 + c mod m for c = 1, 2, ... in turn:
    x keeps the walk's value at each power of two, and y is compared with it
    by a gcd at every later step."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
                g = gcd(x - y, m)
                if g != 1:
                    break
            r *= 2
        if g != m:
            return g


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m in ascending order.

    Trial division by the primes below 2**10 stops once d*d > m, and what
    is left of m is then 1 or prime.  A cofactor with no prime factor
    below 2**10 is split by _rho_divisor until is_prime holds for every
    part, in time about the fourth root of m; is_prime is exact below
    3.3e24, past every q - 1 of a PrimeModulus.
    """
    out: list[int] = []
    for d in _SMALL_PRIMES:
        if d * d > m:
            return out + [m] if m > 1 else out
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
    large, parts = set(), [m] if m > 1 else []
    while parts:
        k = parts.pop()
        if is_prime(k):
            large.add(k)
        else:
            d = _rho_divisor(k)
            parts += [d, k // d]
    return out + sorted(large)


def echo_int(value) -> str:
    """repr(value) for a message, or 10^k (-10^k below zero) for an integer
    from 10**20 on, as analysis.magnitude shows sizes."""
    if not isinstance(value, int) or abs(value) < 10**20:
        return repr(value)
    return f"{'-' * (value < 0)}10^{math.log10(abs(value)):.0f}"


@dataclass(frozen=True)
class PrimeModulus:
    """An odd prime modulus q with 2 < q < 2**62."""

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or not (2 < self.q < MAX_MODULUS):
            raise ValueError(f"q must satisfy 2 < q < 2**62, got {echo_int(self.q)}")
        if not is_prime(self.q):
            raise ValueError(f"q must be prime, got {self.q}")


def centered_value(v: int, q: int) -> int:
    """The unique c with c == v (mod q) and -(q-1)/2 <= c <= (q-1)/2."""
    v %= q
    return v - q if 2 * v > q else v


def mult_order(a: int, q: int) -> int:
    """Least r >= 1 with a**r == 1 mod q, via the factorization of q - 1."""
    if a % q == 0:
        raise ZeroHasNoOrder("the zero element has no multiplicative order")
    order = q - 1
    for p in prime_factors(q - 1):
        while order % p == 0 and pow(a, order // p, q) == 1:
            order //= p
    return order


def binomial_log_irreducible(n: int, i, q: int):
    """Whether y**n - g**i is irreducible over F_q, n >= 1, g a generator
    of F_q* (Lidl-Niederreiter, Finite Fields, Thm 3.75): every prime factor
    of n must divide q - 1 and not i; when 4 | n, additionally q == 1
    (mod 4).  Elementwise over an integer array i when n >= 2."""
    keep = n % 4 != 0 or q % 4 == 1
    for p in prime_factors(n):
        keep = keep & ((q - 1) % p == 0) & (i % p != 0)
    return keep


@dataclass(frozen=True)
class ExtFieldCtx:
    """The extension F_{q^n} presented as F_q[y]/(y^n - a); an F_q root
    alpha is the case n = 1, a = alpha.

    The constructor stores a mod q and checks that the binomial is
    irreducible, so a context is always a genuine field.  Samples are
    evaluated at its root alpha = y in bulk, through rings.eval_matrix;
    tests/reference.py keeps the scalar element arithmetic and the trace.
    """

    n: int
    a: int
    modulus: PrimeModulus

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.n}")
        object.__setattr__(self, "a", index(self.a) % self.q)
        if self.n == 1:
            return
        if self.a == 0:
            raise ValueError("the binomial constant must be nonzero for n >= 2")
        # each log i of a has gcd(i, q - 1) = (q - 1) / ord(a)
        if not binomial_log_irreducible(self.n, (self.q - 1) // self.order, self.q):
            raise ValueError(f"y^{self.n} - {self.a} is reducible mod {self.q}")

    @property
    def q(self) -> int:
        return self.modulus.q

    @cached_property
    def order(self) -> int:
        """The multiplicative order of a mod q; 0 at a = 0."""
        return mult_order(self.a, self.q) if self.a else 0
