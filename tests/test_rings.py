import json
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plwe_audit.analysis import scan_instance
from plwe_audit.campaign import (
    ConfigError,
    _true_value,
    build_plan,
    config_from_dict,
    resolve_point,
)
from plwe_audit.fields import ContextMismatch, ExtFieldCtx, PrimeModulus, is_prime
from plwe_audit.instances import TRACE_RING_A, TRACE_RING_B
from plwe_audit.rings import (
    RqContext,
    binomial_logs,
    eval_matrix,
    generator_powers,
    load_ring_doc,
    log_orders,
    rq0_witnesses,
)
from reference import (
    ext_alpha,
    ext_from_base,
    eval_poly,
    irreducible_constants,
    ring_add,
    ring_mul,
    ring_sub,
    rq0_membership,
    trace,
)

RING_A = load_ring_doc(TRACE_RING_A)
RING_B = load_ring_doc(TRACE_RING_B)


def _slow_mul(p, s, f, q):
    """Independent schoolbook multiply + long division, on plain lists."""
    prod = [0] * (len(p) + len(s) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(s):
            prod[i + j] = (prod[i + j] + x * y) % q
    N = len(f) - 1
    for d in range(len(prod) - 1, N - 1, -1):
        c = prod[d]
        if c:
            for k in range(N + 1):
                prod[d - N + k] = (prod[d - N + k] - c * f[k]) % q
    return prod[:N]


class TestRingMul:
    def test_identity_and_zero(self):
        rng = np.random.default_rng(0)
        p = RING_B.poly(rng.integers(0, 4099, size=23))
        assert ring_mul(p, RING_B.one()) == p
        assert ring_mul(p, RING_B.zero()).is_zero()

    def test_x_squared_is_minus_one(self):
        ctx = RqContext((1, 0, 1), PrimeModulus(5))
        x = ctx.monomial(1)
        assert ring_mul(x, x).coeffs == (4, 0)

    def test_context_mismatch(self):
        other = RqContext((1, 0, 1), PrimeModulus(5))
        with pytest.raises(ContextMismatch):
            ring_mul(other.one(), RING_B.one())

    def test_monic_required(self):
        with pytest.raises(ValueError, match="monic"):
            RqContext((1, 0, 2), PrimeModulus(5))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_against_slow_oracle(self, data):
        q = data.draw(st.sampled_from([3, 5, 13, 4099]))
        N = data.draw(st.integers(1, 8))
        f_low = [data.draw(st.integers(0, q - 1)) for _ in range(N)]
        ctx = RqContext(tuple(f_low) + (1,), PrimeModulus(q))
        p = [data.draw(st.integers(0, q - 1)) for _ in range(N)]
        s = [data.draw(st.integers(0, q - 1)) for _ in range(N)]
        got = ring_mul(ctx.poly(p), ctx.poly(s)).coeffs
        want = tuple(_slow_mul(p, s, list(ctx.f_mod), q))
        assert got == want

    def test_large_modulus_against_python_integers(self):
        # int64 products of unreduced convolution terms overflow here
        q, N = 1048573, 256
        rng = np.random.default_rng(41)
        f_low = [int(c) for c in rng.integers(0, q, size=N)]
        ctx = RqContext(tuple(f_low) + (1,), PrimeModulus(q))
        p = [int(c) for c in rng.integers(0, q, size=N)]
        s = [int(c) for c in rng.integers(0, q, size=N)]
        got = ring_mul(ctx.poly(p), ctx.poly(s)).coeffs
        assert got == tuple(_slow_mul(p, s, list(ctx.f_mod), q))

    def test_int64_modulus_contract(self):
        m = PrimeModulus(4194319)  # prime just above 2**22
        ctx = RqContext((1, 0, 1), m)
        with pytest.raises(ValueError, match="2\\*\\*22"):
            ring_mul(ctx.one(), ctx.one())
        with pytest.raises(ValueError, match="2\\*\\*22"):
            eval_matrix(ExtFieldCtx(1, m.element(2)), 3)


class TestEval:
    def test_monomial_and_constant(self):
        ext = ExtFieldCtx(3, PrimeModulus(4099).element(2017))
        alpha = ext_alpha(ext)
        assert eval_poly(RING_B.monomial(1), alpha) == alpha
        assert eval_poly(RING_B.poly([7]), alpha) == ext_from_base(ext, 7)

    def test_binomial_divisor_vanishes_at_alpha(self):
        ext = ExtFieldCtx(3, PrimeModulus(4099).element(2017))
        g = RING_B.poly([-2017, 0, 0, 1])  # x^3 - 2017
        assert eval_poly(g, ext_alpha(ext)).is_zero()

    def test_fq_point(self):
        m = PrimeModulus(13)
        ctx = RqContext((1, 1, 1), m)
        p = ctx.poly([2, 3])
        assert eval_poly(p, m.element(5)).value == (2 + 3 * 5) % 13

    def test_evaluation_is_ring_homomorphism(self):
        # f(alpha) = 0 in the cubic extension, so eval factors through R_q
        ext = ExtFieldCtx(3, PrimeModulus(4099).element(2017))
        alpha = ext_alpha(ext)
        rng = np.random.default_rng(23)
        for _ in range(1000):
            p = RING_B.poly(rng.integers(0, 4099, size=23))
            s = RING_B.poly(rng.integers(0, 4099, size=23))
            lhs = eval_poly(ring_mul(p, s), alpha)
            rhs = eval_poly(p, alpha) * eval_poly(s, alpha)
            assert lhs == rhs


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_eval_matrix_matches_scalar_oracles(data):
    """p @ W against Horner evaluation, the membership witness sums and,
    through a plan whose point divides f, the field trace of s(alpha)."""
    q = data.draw(st.sampled_from([3, 5, 7, 13]), label="q")
    n = data.draw(st.integers(1, 3), label="n")
    m = PrimeModulus(q)
    if n == 1:
        a = data.draw(st.integers(0, q - 1), label="a")
    else:
        irreducible = irreducible_constants(q, n)
        assume(irreducible)
        a = data.draw(st.sampled_from(irreducible), label="a")
    ext = ExtFieldCtx(n, m.element(a))
    # f = (x^n - a) * g for a random monic g, so the point is a root of f
    g = data.draw(st.lists(st.integers(0, q - 1), max_size=5), label="g") + [1]
    f = np.convolve([-a] + [0] * (n - 1) + [1], g).tolist()
    ctx = RqContext(tuple(f), m)
    W = eval_matrix(ext, ctx.N)
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=ctx.N, max_size=ctx.N))
    p = ctx.poly(coeffs)
    at_point = tuple(int(v) for v in p.as_array() @ W % q)
    assert at_point == eval_poly(p, ext_alpha(ext)).coeffs
    assert at_point[1:] == rq0_membership(p, ext).witness_sums

    attack = {"family": "unbounded_small_values", "ell": 1, "delta": 0.4}
    if n == 1:
        attack.update(mode="fq", alpha=a)
    else:
        attack.update(mode="trace", n=n, a=a)
    plan = build_plan(config_from_dict({
        "instance": {"N": ctx.N, "f": f, "q": q, "sigma": 1.0, "truncated": True},
        "attack": attack,
    }))
    assert _true_value(plan, p.as_array()) == trace(eval_poly(p, ext_alpha(ext))).value


def _fold(ctx, n):
    """The (a, ord(a)) of binomial_logs at degree n, in increasing order of
    a; n = 1 gives the nonzero roots."""
    G = generator_powers(ctx.q)
    idx = binomial_logs(ctx, n, G)
    return list(zip(G[idx].tolist(), log_orders(idx, ctx.q).tolist()))


def _scan_roots(ctx):
    """The scan's (alpha, order) of every root of f in F_q, in increasing
    order; the root 0 carries the order 0."""
    return [(r.alpha, r.order) for r in scan_instance(ctx, 1.0, True, n_max=1).roots]


class TestFindRoots:
    def test_x2_plus_1_mod_5(self):
        ctx = RqContext((1, 0, 1), PrimeModulus(5))
        assert _fold(ctx, 1) == [(2, 4), (3, 4)]

    def test_irreducible_has_none(self):
        # x^5 + 4x + 1 has no roots mod 7
        ctx = RqContext((1, 4, 0, 0, 0, 1), PrimeModulus(7))
        assert _fold(ctx, 1) == []

    def test_minus_one_root_with_order_two(self):
        q = 3677
        m = -(pow(3676, 8, q) + 2 * 3676) % q
        ctx = RqContext((m + q, 2, 0, 0, 0, 0, 0, 0, 1), PrimeModulus(q))
        assert (3676, 2) in _fold(ctx, 1)

    def test_matches_exhaustive_evaluation(self):
        q = RING_A.q
        found = {alpha for alpha, _ in _scan_roots(RING_A)}
        xs = np.arange(q, dtype=np.int64)
        acc = np.full(q, RING_A.f_mod[-1], dtype=np.int64)
        for c in RING_A.f_mod[-2::-1]:
            acc = (acc * xs + c) % q
        assert found == {int(x) for x in xs[acc == 0]}

    def test_refused_from_2_to_the_22(self):
        # f = (x - 2)(x - 7) mod a prime just above 2**22: no root search
        # runs there, as for the binomial divisors
        ctx = RqContext((14, -9, 1), PrimeModulus(4194319))
        with pytest.raises(ValueError, match="q < 2\\*\\*22, got q = 4194319"):
            scan_instance(ctx, 1.0, True)


class TestBinomialFactors:
    def test_ring_a_cubic_divisor(self):
        assert (2018, 6) in _fold(RING_A, 3)

    def test_ring_b_cubic_divisor_unique(self):
        assert _fold(RING_B, 3) == [(2017, 3)]

    def test_small_example(self):
        ctx = RqContext((-2, 0, 1), PrimeModulus(3))
        assert _fold(ctx, 2) == [(2, 2)]

    def test_degree_too_large(self):
        ctx = RqContext((-2, 0, 1), PrimeModulus(3))
        assert _fold(ctx, 5) == []
        factors = scan_instance(ctx, 1.0, True, n_max=5).factors
        assert [(fc.n, fc.a) for fc in factors] == [(2, 2)]

    def test_every_hit_divides_and_is_irreducible(self):
        q = 4099
        for n in (2, 3, 4):
            for a, order in _fold(RING_A, n):
                ExtFieldCtx(n, PrimeModulus(q).element(a))  # refuses a reducible y^n - a
                # remainder of f mod (x^n - a): fold coefficients
                rem = [0] * n
                for k, c in enumerate(RING_A.f_mod):
                    rem[k % n] = (rem[k % n] + c * pow(a, k // n, q)) % q
                assert all(v == 0 for v in rem)

    def test_report_combines_roots_and_factors(self):
        rep = scan_instance(RING_A, 0.7, False, n_max=3)
        assert any(fc.n == 3 and fc.a == 2018 for fc in rep.factors)


# Primes whose q - 1 ranges over powers of two (17, 257), 2 * prime (7, 11,
# 23, 47), smooth (31, 61, 181, 211) and other shapes.
FOLD_PRIMES = [p for p in range(3, 300) if is_prime(p)]


def _brute_order(a, q):
    r, x = 1, a
    while x != 1:
        x, r = x * a % q, r + 1
    return r


@st.composite
def fold_rings(draw):
    """Small rings with sparse or dense f, f_0 = 0 mod q half the time."""
    q = draw(st.sampled_from(FOLD_PRIMES))
    N = draw(st.integers(1, 24))
    coeff = st.integers(-2 * q, 2 * q)
    if draw(st.booleans()):
        f = draw(st.lists(coeff, min_size=N, max_size=N))
    else:
        f = [0] * N
        for k, c in draw(st.dictionaries(st.integers(0, N - 1), coeff, max_size=3)).items():
            f[k] = c
    if draw(st.booleans()):
        f[0] = q * draw(st.integers(-1, 1))
    return RqContext(tuple(f) + (1,), PrimeModulus(q))


@st.composite
def planted_rings(draw):
    """A fold_rings f times a planted x^n - a, n <= 4, whose a has an order
    dividing some d <= 12 half the time, so small orders and divisors show."""
    ctx = draw(fold_rings())
    q = ctx.q
    n = draw(st.integers(1, 4))
    b = draw(st.integers(0, q - 1))
    small = [(q - 1) // d for d in range(2, 13) if (q - 1) % d == 0]
    a = pow(b, draw(st.sampled_from([1] + small)), q)
    f = [0] * (len(ctx.f_int) + n)
    for k, c in enumerate(ctx.f_int):
        f[k] -= a * c
        f[k + n] += c
    return RqContext(tuple(f), ctx.modulus)


class TestFoldOracle:
    """The generator-power fold against per-point evaluation over all of F_q."""

    @settings(max_examples=120, deadline=None)
    @given(fold_rings())
    def test_roots_match_horner(self, ctx):
        q = ctx.q
        want = []
        for x in range(q):
            acc = 0
            for c in reversed(ctx.f_int):
                acc = (acc * x + c) % q
            if acc == 0:
                want.append((x, 0 if x == 0 else _brute_order(x, q)))
        assert _scan_roots(ctx) == want

    @settings(max_examples=120, deadline=None)
    @given(fold_rings())
    def test_binomial_factors_match_per_point_fold(self, ctx):
        q = ctx.q
        for n in (2, 3, 4):
            want = []
            for a in range(1, q):
                rem = [0] * n
                for k, c in enumerate(ctx.f_int):
                    rem[k % n] = (rem[k % n] + c * pow(a, k // n, q)) % q
                if not any(rem) and a in irreducible_constants(q, n):
                    want.append((a, _brute_order(a, q)))
            assert _fold(ctx, n) == want, n

    @settings(max_examples=40, deadline=None)
    @given(planted_rings())
    def test_resolver_accepts_exactly_the_scanned_points(self, ctx):
        """resolve_point, which plans and analyze use, against the scan at
        every a in F_q and every degree n <= min(4, N): its exact divisor
        test accepts (n, a) iff the fold lists it (the root 0 included), and
        its scalar block structure equals the scan's batch one bit for bit."""
        sigma = 1.3
        report = scan_instance(ctx, sigma, True)
        listed = {(p.n, p.a): p.blocks for p in report.roots + report.factors}
        resolved = {}
        for n in range(1, min(4, ctx.N) + 1):
            for a in range(ctx.q):
                try:
                    resolved[n, a] = resolve_point(ctx, sigma, n, a)[1]
                except ConfigError:
                    pass
        assert resolved == listed


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_rq0_witnesses_match_the_membership_oracle(data):
    """Row i of rq0_witnesses is the witness sums of A[i], for n = 1..4 and
    M = 0, 1 or many rows; an F_q root (n = 1) gives the (M, 0) shape."""
    q = data.draw(st.sampled_from([3, 5, 7, 13, 17]), label="q")
    n = data.draw(st.integers(1, 4), label="n")
    m = PrimeModulus(q)
    if n == 1:
        a = data.draw(st.integers(0, q - 1), label="a")
    else:
        irreducible = irreducible_constants(q, n)
        assume(irreducible)
        a = data.draw(st.sampled_from(irreducible), label="a")
    ext = ExtFieldCtx(n, m.element(a))
    g = data.draw(st.lists(st.integers(0, q - 1), max_size=5), label="g") + [1]
    ctx = RqContext(tuple(np.convolve([-a] + [0] * (n - 1) + [1], g).tolist()), m)
    rows = data.draw(st.sampled_from([0, 1, 40]), label="M")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    A = np.random.default_rng(seed).integers(0, q, size=(rows, ctx.N))
    A[1::3, 1:] = 0  # constants are members: keep zero witness rows in play
    got = rq0_witnesses(A, ext)
    assert got.shape == (rows, n - 1)
    want = [rq0_membership(ctx.poly(row), ext).witness_sums for row in A.tolist()]
    assert got.tolist() == [list(w) for w in want]


class TestRq0Membership:
    EXT = ExtFieldCtx(2, PrimeModulus(3).element(2))
    CTX = RqContext((0, 0, 0, 0, 1), PrimeModulus(3))  # x^4 over F_3

    def test_constant_is_member(self):
        assert rq0_membership(self.CTX.poly([2]), self.EXT).is_member

    def test_x_is_not(self):
        res = rq0_membership(self.CTX.monomial(1), self.EXT)
        assert not res.is_member
        assert res.witness_sums == (1,)

    def test_exhaustive_against_eval_oracle(self):
        members = 0
        alpha = ext_alpha(self.EXT)
        for coeffs in product(range(3), repeat=4):
            p = self.CTX.poly(coeffs)
            got = rq0_membership(p, self.EXT)
            want = eval_poly(p, alpha).in_base_field()
            assert got.is_member == want, coeffs
            members += got.is_member
        assert members == 27  # 3^(4-2+1)


class TestRingDoc:
    def test_roundtrip(self):
        doc = {"N": 2, "f": [1, 0, 1], "q": 13}
        ctx = load_ring_doc(doc)
        assert ctx.N == 2 and ctx.q == 13
        assert ctx == load_ring_doc(json.loads(json.dumps(doc)))

    def test_missing_key(self):
        with pytest.raises(ValueError, match="'q'"):
            load_ring_doc({"N": 2, "f": [1, 0, 1]})

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="N\\+1"):
            load_ring_doc({"N": 3, "f": [1, 0, 1], "q": 13})

    def test_composite_modulus(self):
        with pytest.raises(ValueError, match="prime"):
            load_ring_doc({"N": 2, "f": [1, 0, 1], "q": 15})


def test_ring_add_sub_inverse():
    rng = np.random.default_rng(3)
    p = RING_A.poly(rng.integers(0, 4099, size=23))
    s = RING_A.poly(rng.integers(0, 4099, size=23))
    assert ring_sub(ring_add(p, s), s) == p
