from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plwe_audit.fields import (
    ContextMismatch,
    DivisionByZero,
    ExtFieldCtx,
    PrimeModulus,
    ZeroHasNoOrder,
    centered,
    centered_value,
    in_quarter_interval,
    in_quarter_value,
    is_prime,
    mult_order,
    prime_factors,
)
from reference import ext_alpha, ext_element, ext_one, irreducible_constants, trace

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

    def test_q_mod4(self):
        assert PrimeModulus(5).q_mod4 == 1
        assert PrimeModulus(3677).q_mod4 == 1
        assert Q4099.q_mod4 == 3

    def test_is_prime_spot_checks(self):
        assert is_prime(4099) and is_prime(3329) and is_prime(4194319)
        assert not is_prime(4097) and not is_prime(1)


class TestFieldOps:
    def test_inverse_of_2018(self):
        x = Q4099.element(2018)
        assert (x * x.inv()).value == 1

    def test_fermat_pow(self):
        assert (PrimeModulus(5).element(2) ** 4).value == 1

    def test_zero_inverse_raises(self):
        with pytest.raises(DivisionByZero):
            Q4099.element(0).inv()

    def test_modulus_mismatch(self):
        with pytest.raises(ContextMismatch):
            Q4099.element(1) + PrimeModulus(13).element(1)

    @given(st.sampled_from(SMALL_PRIMES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, q, data):
        m = PrimeModulus(q)
        a = m.element(data.draw(st.integers(0, q - 1)))
        b = m.element(data.draw(st.integers(0, q - 1)))
        c = m.element(data.draw(st.integers(0, q - 1)))
        assert ((a + b) + c).value == (a + (b + c)).value
        assert (a * (b + c)).value == (a * b + a * c).value
        if a.value:
            assert (a * a.inv()).value == 1


class TestExtField:
    def test_cubic_alpha_cubes_to_constant(self):
        ctx = ExtFieldCtx(3, Q4099.element(2018))
        alpha = ext_alpha(ctx)
        assert (alpha * (alpha * alpha)).coeffs == (2018, 0, 0)

    def test_reducible_binomial_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            ExtFieldCtx(2, PrimeModulus(5).element(1))

    def test_zero_constant_rejected_for_proper_extension(self):
        with pytest.raises(ValueError, match="nonzero"):
            ExtFieldCtx(2, PrimeModulus(5).element(0))

    def test_extension_inverse(self):
        ctx = ExtFieldCtx(3, Q4099.element(2017))
        rng = np.random.default_rng(5)
        for _ in range(25):
            beta = ext_element(ctx, rng.integers(0, 4099, size=3))
            if beta.is_zero():
                continue
            assert (beta * beta.inv()).coeffs == (1, 0, 0)

    def test_pow_matches_repeated_multiplication(self):
        ctx = ExtFieldCtx(2, PrimeModulus(13).element(2))
        beta = ext_element(ctx, [3, 5])
        acc = ext_one(ctx)
        for e in range(10):
            assert beta**e == acc
            acc = acc * beta


class TestMultOrder:
    def test_paper_ring_constants(self):
        assert mult_order(Q4099.element(2018)) == 6
        assert mult_order(Q4099.element(2017)) == 3

    def test_identity(self):
        for q in SMALL_PRIMES:
            assert mult_order(PrimeModulus(q).element(1)) == 1

    def test_zero_raises(self):
        with pytest.raises(ZeroHasNoOrder):
            mult_order(Q4099.element(0))

    @given(st.sampled_from(SMALL_PRIMES), st.data())
    @settings(max_examples=80, deadline=None)
    def test_order_is_minimal(self, q, data):
        a = data.draw(st.integers(1, q - 1))
        elt = PrimeModulus(q).element(a)
        r = mult_order(elt)
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
        ctx = ExtFieldCtx(3, Q4099.element(2017))
        assert trace(ext_one(ctx)).value == 3

    def test_trace_of_alpha_vanishes(self):
        ctx = ExtFieldCtx(3, Q4099.element(2017))
        assert trace(ext_alpha(ctx)).value == 0

    def test_trace_of_alpha_cubed(self):
        # alpha^3 equals the constant 2017, whose trace is 3 * 2017
        ctx = ExtFieldCtx(3, Q4099.element(2017))
        assert trace(ext_alpha(ctx) ** 3).value == 3 * 2017 % 4099 == 1952

    @pytest.mark.parametrize("a_val", [2017, 2018])
    def test_power_traces(self, a_val):
        # Tr(alpha^j) = 0 when 3 does not divide j, and 3*a^t at j = 3t
        ctx = ExtFieldCtx(3, Q4099.element(a_val))
        alpha = ext_alpha(ctx)
        for j in range(1, 16):
            got = trace(alpha**j).value
            if j % 3:
                assert got == 0, (a_val, j)
            else:
                assert got == 3 * pow(a_val, j // 3, 4099) % 4099, (a_val, j)

    def test_linearity(self):
        ctx = ExtFieldCtx(3, Q4099.element(2018))
        rng = np.random.default_rng(17)
        q = 4099
        for _ in range(1000):
            lam, mu = (int(v) for v in rng.integers(0, q, size=2))
            beta = ext_element(ctx, rng.integers(0, q, size=3))
            gamma = ext_element(ctx, rng.integers(0, q, size=3))
            combo = beta.scale(lam) + gamma.scale(mu)
            expected = (lam * trace(beta).value + mu * trace(gamma).value) % q
            assert trace(combo).value == expected


def _accepts(n: int, a) -> bool:
    """Whether ExtFieldCtx takes y^n - a as a field."""
    try:
        ExtFieldCtx(n, a)
    except ValueError:
        return False
    return True


class TestIrreducibleBinomial:
    """ExtFieldCtx's order criterion against the factor search of
    reference.irreducible_constants."""

    def test_paper_ring_cubics(self):
        assert _accepts(3, Q4099.element(2018))
        assert _accepts(3, Q4099.element(2017))

    def test_linear_always(self):
        assert _accepts(1, PrimeModulus(7).element(3))
        assert _accepts(1, PrimeModulus(7).element(0))

    def test_square_difference(self):
        assert not _accepts(2, PrimeModulus(5).element(1))

    def test_quartic_with_mod4_condition(self):
        # 733 has order 4 mod 4133 and 4133 == 1 (mod 4)
        m = PrimeModulus(4133)
        assert mult_order(m.element(733)) == 4
        assert _accepts(4, m.element(733))

    @pytest.mark.parametrize("q", SMALL_PRIMES)
    def test_against_brute_force(self, q):
        m = PrimeModulus(q)
        for n in range(1, 5):
            got = tuple(a for a in range(1, q) if _accepts(n, m.element(a)))
            assert got == irreducible_constants(q, n), (q, n)


class TestCenteredAndQuarter:
    def test_spec_values(self):
        assert centered(PrimeModulus(3677).element(3676)) == -1
        assert centered(Q4099.element(0)) == 0
        assert centered(PrimeModulus(13).element(3)) == 3

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
        assert in_quarter_interval(PrimeModulus(13).element(3))

    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_uniform_quarter_mass(self, q):
        count = sum(1 for v in range(q) if in_quarter_value(v, q))
        expected = Fraction(1, 2) + (Fraction(1, 2 * q) if q % 4 == 1 else -Fraction(1, 2 * q))
        assert Fraction(count, q) == expected
