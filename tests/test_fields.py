from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plwe_audit.fields import (
    ExtFieldCtx,
    PrimeModulus,
    ZeroHasNoOrder,
    binomial_log_irreducible,
    centered_value,
    is_prime,
    mult_order,
    prime_factors,
)
from reference import (
    ext_alpha,
    ext_element,
    ext_from_base,
    ext_one,
    in_quarter_value,
    irreducible_constants,
    trace,
)

Q4099 = PrimeModulus(4099)
SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class TestPrimeModulus:
    def test_rejects_composite(self):
        with pytest.raises(ValueError, match="prime"):
            PrimeModulus(4095)

    def test_rejects_two_and_out_of_range(self):
        with pytest.raises(ValueError):
            PrimeModulus(2)
        with pytest.raises(ValueError):
            PrimeModulus(2**62 + 1)

    def test_is_prime_spot_checks(self):
        assert is_prime(4099) and is_prime(3329) and is_prime(4194319)
        assert not is_prime(4097) and not is_prime(1)


def _fq(q: int, v: int):
    """v as an element of F_q: the reference field element of the degree-1
    extension F_q[y]/(y - 1)."""
    return ext_from_base(ExtFieldCtx(1, 1, PrimeModulus(q)), v)


class TestFieldOps:
    """F_q arithmetic, in the reference elements at degree 1."""

    def test_inverse_of_2018(self):
        x = _fq(4099, 2018)
        assert (x * x.inv()).to_base() == 1

    def test_fermat_pow(self):
        assert (_fq(5, 2) ** 4).to_base() == 1

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            _fq(4099, 0).inv()

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="contexts differ"):
            _fq(4099, 1) + _fq(13, 1)

    @given(st.sampled_from(SMALL_PRIMES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, q, data):
        a, b, c = (_fq(q, data.draw(st.integers(0, q - 1))) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert (a * a.inv()).to_base() == 1


class TestExtField:
    def test_cubic_alpha_cubes_to_constant(self):
        ctx = ExtFieldCtx(3, 2018, Q4099)
        alpha = ext_alpha(ctx)
        assert (alpha * (alpha * alpha)).coeffs == (2018, 0, 0)

    def test_reducible_binomial_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            ExtFieldCtx(2, 1, PrimeModulus(5))

    def test_zero_constant_rejected_for_proper_extension(self):
        with pytest.raises(ValueError, match="nonzero"):
            ExtFieldCtx(2, 0, PrimeModulus(5))

    def test_stores_a_mod_q_and_its_order(self):
        # the residue is an int reduced mod q, and ord(a) is worked out once
        ctx = ExtFieldCtx(3, 2018 - 4099, Q4099)
        assert type(ctx.a) is int and ctx.a == 2018
        assert ctx == ExtFieldCtx(3, 2018, Q4099)
        assert ctx.order == 6 and "order" in vars(ctx)
        assert ExtFieldCtx(1, 4099, Q4099).order == 0
        assert ExtFieldCtx(1, np.int64(4098), Q4099).order == 2

    def test_extension_inverse(self):
        ctx = ExtFieldCtx(3, 2017, Q4099)
        rng = np.random.default_rng(5)
        for _ in range(25):
            beta = ext_element(ctx, rng.integers(0, 4099, size=3))
            if beta.is_zero():
                continue
            assert (beta * beta.inv()).coeffs == (1, 0, 0)

    def test_pow_matches_repeated_multiplication(self):
        ctx = ExtFieldCtx(2, 2, PrimeModulus(13))
        beta = ext_element(ctx, [3, 5])
        acc = ext_one(ctx)
        for e in range(10):
            assert beta**e == acc
            acc = acc * beta


class TestMultOrder:
    def test_paper_ring_constants(self):
        assert mult_order(2018, 4099) == 6
        assert mult_order(2017, 4099) == 3

    def test_identity(self):
        for q in SMALL_PRIMES:
            assert mult_order(1, q) == 1

    def test_zero_raises(self):
        with pytest.raises(ZeroHasNoOrder):
            mult_order(0, 4099)

    @given(st.sampled_from(SMALL_PRIMES), st.data())
    @settings(max_examples=80, deadline=None)
    def test_order_is_minimal(self, q, data):
        a = data.draw(st.integers(1, q - 1))
        r = mult_order(a, q)
        assert pow(a, r, q) == 1
        for d in range(1, r):
            if r % d == 0:
                assert pow(a, d, q) != 1


def _trial_division(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + [m] if m > 1 else out


class TestPrimeFactors:
    @pytest.mark.parametrize("q,factors", [
        # a 61-bit safe prime, q - 1 = 2p: trial division ran past 20 s
        (2305843009213691579, [2, 1152921504606845789]),
        # q - 1 = 12 * 472239827 * 323318243, two cofactor primes near 2**28
        (1832205013683167533, [2, 3, 323318243, 472239827]),
    ])
    def test_factors_of_q_minus_one(self, q, factors):
        assert PrimeModulus(q).q == q
        assert prime_factors(q - 1) == factors

    def test_matches_trial_division(self):
        for m in range(3000):
            assert prime_factors(m) == _trial_division(m), m

    @pytest.mark.parametrize("m", [1021**2, 2 * 1021**2, 1021**3, 1021**2 * 1031])
    def test_trial_division_past_its_last_prime(self, m):
        # 1021 is the last prime below 2**10: dividing it out of these leaves
        # 1 or a prime, and no cofactor for the rho step
        assert prime_factors(m) == _trial_division(m)

    @given(st.integers(2**20, 2**31), st.integers(2**10, 2**31), st.integers(1, 2**12))
    @settings(max_examples=30, deadline=None)
    def test_products_of_large_primes(self, x, y, small):
        # cofactors without prime factors below 2**10: prime powers and
        # products of two primes, each split by the rho step
        p, r = (next(k for k in range(v, 2 * v) if is_prime(k)) for v in (x, y))
        cases = [(p * p, {p}), (p**3, {p}), (p * p * r, {p, r}),
                 (p * r * small, {p, r, *_trial_division(small)})]
        for m, factors in cases:
            assert prime_factors(m) == sorted(factors), m


class TestTrace:
    def test_trace_of_one_is_degree(self):
        ctx = ExtFieldCtx(3, 2017, Q4099)
        assert trace(ext_one(ctx)) == 3

    def test_trace_of_alpha_vanishes(self):
        ctx = ExtFieldCtx(3, 2017, Q4099)
        assert trace(ext_alpha(ctx)) == 0

    def test_trace_of_alpha_cubed(self):
        # alpha^3 equals the constant 2017, whose trace is 3 * 2017
        ctx = ExtFieldCtx(3, 2017, Q4099)
        assert trace(ext_alpha(ctx) ** 3) == 3 * 2017 % 4099 == 1952

    @pytest.mark.parametrize("a_val", [2017, 2018])
    def test_power_traces(self, a_val):
        # Tr(alpha^j) = 0 when 3 does not divide j, and 3*a^t at j = 3t
        ctx = ExtFieldCtx(3, a_val, Q4099)
        alpha = ext_alpha(ctx)
        for j in range(1, 16):
            got = trace(alpha**j)
            if j % 3:
                assert got == 0, (a_val, j)
            else:
                assert got == 3 * pow(a_val, j // 3, 4099) % 4099, (a_val, j)

    def test_linearity(self):
        ctx = ExtFieldCtx(3, 2018, Q4099)
        rng = np.random.default_rng(17)
        q = 4099
        for _ in range(1000):
            lam, mu = (int(v) for v in rng.integers(0, q, size=2))
            beta = ext_element(ctx, rng.integers(0, q, size=3))
            gamma = ext_element(ctx, rng.integers(0, q, size=3))
            combo = beta.scale(lam) + gamma.scale(mu)
            expected = (lam * trace(beta) + mu * trace(gamma)) % q
            assert trace(combo) == expected


def _accepts(n: int, a: int, q: int) -> bool:
    """Whether ExtFieldCtx takes y^n - a over F_q as a field."""
    try:
        ExtFieldCtx(n, a, PrimeModulus(q))
    except ValueError:
        return False
    return True


class TestIrreducibleBinomial:
    """ExtFieldCtx's order criterion against the factor search of
    reference.irreducible_constants."""

    def test_paper_ring_cubics(self):
        assert _accepts(3, 2018, 4099)
        assert _accepts(3, 2017, 4099)

    def test_linear_always(self):
        assert _accepts(1, 3, 7)
        assert _accepts(1, 0, 7)

    def test_square_difference(self):
        assert not _accepts(2, 1, 5)

    def test_quartic_with_mod4_condition(self):
        # 733 has order 4 mod 4133 and 4133 == 1 (mod 4)
        assert mult_order(733, 4133) == 4
        assert _accepts(4, 733, 4133)

    @pytest.mark.parametrize("q", SMALL_PRIMES)
    def test_against_brute_force(self, q):
        for n in range(1, 5):
            got = tuple(a for a in range(1, q) if _accepts(n, a, q))
            assert got == irreducible_constants(q, n), (q, n)

    def test_log_form_matches_order_form(self):
        """The log form at every log i of every prime q < 300 and n <= 12
        equals the classical statement of the criterion at ord(g^i) =
        (q-1)/gcd(i, q-1), and the log form at the cofactor (q-1)/ord(g^i)
        that ExtFieldCtx reads, also elementwise over an array of logs."""
        for q in (p for p in range(3, 300) if is_prime(p)):
            for n in range(1, 13):
                primes, want = prime_factors(n), []
                for i in range(q - 1):
                    cofactor = gcd(i, q - 1)
                    order = (q - 1) // cofactor
                    classical = all(order % p == 0 and cofactor % p for p in primes) and (
                        n % 4 != 0 or q % 4 == 1
                    )
                    got = binomial_log_irreducible(n, i, q)
                    assert got == binomial_log_irreducible(n, (q - 1) // order, q) == classical, (
                        q, n, i
                    )
                    want.append(classical)
                if n > 1:
                    assert binomial_log_irreducible(n, np.arange(q - 1), q).tolist() == want


class TestCenteredAndQuarter:
    def test_spec_values(self):
        assert centered_value(3676, 3677) == -1
        assert centered_value(0, 4099) == 0
        assert centered_value(3, 13) == 3

    @given(st.sampled_from(SMALL_PRIMES + [3677, 4099]), st.integers(0, 10**9))
    @settings(max_examples=120, deadline=None)
    def test_centered_properties(self, q, v):
        c = centered_value(v, q)
        assert (c - v) % q == 0
        assert abs(c) <= (q - 1) // 2

    def test_quarter_oracle_q13(self):
        # exact enumeration of [-13/4, 13/4) membership over all residues
        q = 13
        lo, hi = Fraction(-q, 4), Fraction(q, 4)
        for v in range(q):
            c = centered_value(v, q)
            assert in_quarter_value(v, q) == (lo <= Fraction(c) < hi)

    def test_quarter_examples(self):
        assert in_quarter_value(3, 13)
        assert not in_quarter_value(-4 % 13, 13)
        assert in_quarter_value(0, 4099)

    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_uniform_quarter_mass(self, q):
        count = sum(1 for v in range(q) if in_quarter_value(v, q))
        expected = Fraction(1, 2) + (Fraction(1, 2 * q) if q % 4 == 1 else -Fraction(1, 2 * q))
        assert Fraction(count, q) == expected
