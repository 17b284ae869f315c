"""Bundled demonstration instances and published rings.

The demonstration instances are toy-scale rings whose defining polynomials
carry a deliberately planted weakness: an F_q root of small order, or an
irreducible binomial divisor x^n - a with a of small order.  They drive the
example scripts, the CLI walkthroughs in the README, and the regression
suite.  CRYPTO_RINGS holds the rings of published lattice schemes, which the
scanner audits as they are.
"""

from __future__ import annotations


def _coeff_list(N: int, terms: dict[int, int]) -> list[int]:
    f = [0] * (N + 1)
    f[N] = 1
    for deg, c in terms.items():
        f[deg] = c
    return f


def _root_adjusted_ring(N: int, q: int, alpha: int) -> dict:
    """x^N + 2x + m with m chosen so alpha is a root mod q.

    The constant is lifted by q to keep the integer polynomial rootless at
    small arguments, and the linear coefficient 2 keeps the constant term
    nonzero mod q (a zero constant would plant the unrelated root 0).
    """
    m = -(pow(alpha, N, q) + 2 * alpha) % q
    if m == 0:
        raise ValueError(f"alpha={alpha} collides with the ring shape")
    return {"N": N, "f": _coeff_list(N, {1: 2, 0: m + q}), "q": q}


# Degree-23 rings with an irreducible cubic binomial divisor.  In ring A the
# constant 2018 has order 6 mod 4099; in ring B, 2017 has order 3.
TRACE_RING_A = {
    "N": 23,
    "f": _coeff_list(23, {0: 1, 3: 2017, 10: -2018, 13: 1, 20: -2018}),
    "q": 4099,
}
TRACE_RING_B = {
    "N": 23,
    "f": _coeff_list(23, {0: 1, 3: 2018, 10: -2017, 13: 1, 20: -2017}),
    "q": 4099,
}

TRACE_INSTANCE_A = {
    "instance": {**TRACE_RING_A, "sigma": 0.7, "truncated": False},
    "extension": {"n": 3, "a": 2018},
}
TRACE_INSTANCE_B = {
    "instance": {**TRACE_RING_B, "sigma": 2.5, "truncated": False},
    "extension": {"n": 3, "a": 2017},
}

# Degree-256 rings with a planted root for the unbounded attack.  The listed
# root of the first two is -1 (order 2); the other two carry an order-3 root
# whose large centered powers flatten the error image almost to uniform.
USVA_INSTANCES = [
    {"instance": {**_root_adjusted_ring(256, 3329, 3328), "sigma": 8.0, "truncated": False}, "alpha": 3328},
    {"instance": {**_root_adjusted_ring(256, 3677, 3676), "sigma": 8.0, "truncated": False}, "alpha": 3676},
    {"instance": {**_root_adjusted_ring(256, 2887, 698), "sigma": 8.0, "truncated": False}, "alpha": 698},
    {"instance": {**_root_adjusted_ring(256, 4111, 1055), "sigma": 8.0, "truncated": False}, "alpha": 1055},
]

# Rings of published lattice schemes (public parameters), as ring documents.
# x^N + 1 splits into linear factors mod q when 2N | q - 1 (Falcon); mod 3329,
# x^256 + 1 splits into 128 irreducible x^2 - a with a of order 256 (Kyber);
# x^761 - x - 1 stays irreducible mod 4591 (NTRU Prime); Dilithium's modulus
# 8380417 is above the scanner's 2**22 limit.
CRYPTO_RINGS = {
    "kyber": {"N": 256, "f": _coeff_list(256, {0: 1}), "q": 3329},
    "falcon512": {"N": 512, "f": _coeff_list(512, {0: 1}), "q": 12289},
    "falcon1024": {"N": 1024, "f": _coeff_list(1024, {0: 1}), "q": 12289},
    "ntru_prime761": {"N": 761, "f": _coeff_list(761, {0: -1, 1: -1}), "q": 4591},
    "dilithium": {"N": 256, "f": _coeff_list(256, {0: 1}), "q": 8380417},
}

# NIST-style cyclotomic ring: no F_q roots, only order-256 quadratic binomial
# divisors, so every look-up table is infeasible.
KYBER_STYLE_RING = CRYPTO_RINGS["kyber"]

# Small ring for exercising the honest rejection sampler: x^3 - 3 is
# irreducible mod 7 (3 generates F_7*), membership probability 1/49.
REJECTION_REPLICA = {
    "instance": {"N": 3, "f": _coeff_list(3, {0: -3}), "q": 7, "sigma": 1.0, "truncated": True},
    "extension": {"n": 3, "a": 3},
}
