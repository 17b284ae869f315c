import json
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plwe_audit.campaign import _true_value, build_plan, config_from_dict
from plwe_audit.fields import (
    ContextMismatch,
    ExtFieldCtx,
    PrimeModulus,
    is_irreducible_binomial,
    trace,
)
from plwe_audit.instances import TRACE_RING_A, TRACE_RING_B
from plwe_audit.rings import (
    RqContext,
    eval_matrix,
    eval_poly,
    find_binomial_factors,
    find_fq_roots,
    load_ring_doc,
    ring_add,
    ring_mul,
    ring_sub,
    root_report,
    rq0_membership,
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
        alpha = ext.alpha()
        assert eval_poly(RING_B.monomial(1), alpha) == alpha
        assert eval_poly(RING_B.poly([7]), alpha) == ext.from_base(7)

    def test_binomial_divisor_vanishes_at_alpha(self):
        ext = ExtFieldCtx(3, PrimeModulus(4099).element(2017))
        g = RING_B.poly([-2017, 0, 0, 1])  # x^3 - 2017
        assert eval_poly(g, ext.alpha()).is_zero()

    def test_fq_point(self):
        m = PrimeModulus(13)
        ctx = RqContext((1, 1, 1), m)
        p = ctx.poly([2, 3])
        assert eval_poly(p, m.element(5)).value == (2 + 3 * 5) % 13

    def test_evaluation_is_ring_homomorphism(self):
        # f(alpha) = 0 in the cubic extension, so eval factors through R_q
        ext = ExtFieldCtx(3, PrimeModulus(4099).element(2017))
        alpha = ext.alpha()
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
        irreducible = [a for a in range(1, q) if is_irreducible_binomial(n, m.element(a))]
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
    assert at_point == eval_poly(p, ext.alpha()).coeffs
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
    assert _true_value(plan, p) == trace(eval_poly(p, ext.alpha())).value


class TestFindRoots:
    def test_x2_plus_1_mod_5(self):
        ctx = RqContext((1, 0, 1), PrimeModulus(5))
        assert find_fq_roots(ctx) == [
            (PrimeModulus(5).element(2), 4),
            (PrimeModulus(5).element(3), 4),
        ]

    def test_irreducible_has_none(self):
        # x^5 + 4x + 1 has no roots mod 7
        ctx = RqContext((1, 4, 0, 0, 0, 1), PrimeModulus(7))
        assert find_fq_roots(ctx) == []

    def test_minus_one_root_with_order_two(self):
        q = 3677
        m = -(pow(3676, 8, q) + 2 * 3676) % q
        ctx = RqContext((m + q, 2, 0, 0, 0, 0, 0, 0, 1), PrimeModulus(q))
        assert (PrimeModulus(q).element(3676), 2) in find_fq_roots(ctx)

    def test_r_max_filter(self):
        ctx = RqContext((1, 0, 1), PrimeModulus(5))
        assert find_fq_roots(ctx, r_max=2) == []
        assert len(find_fq_roots(ctx, r_max=4)) == 2

    def test_matches_exhaustive_evaluation(self):
        q = RING_A.q
        found = {a.value for a, _ in find_fq_roots(RING_A)}
        xs = np.arange(q, dtype=np.int64)
        acc = np.full(q, RING_A.f_mod[-1], dtype=np.int64)
        for c in RING_A.f_mod[-2::-1]:
            acc = (acc * xs + c) % q
        assert found == {int(x) for x in xs[acc == 0]}

    def test_gcd_path_above_desk_scale(self):
        q = 4194319  # prime just above 2**22
        # f = (x - 2)(x - 7): roots recovered without an exhaustive scan
        ctx = RqContext((14, -9, 1), PrimeModulus(q))
        assert {a.value for a, _ in find_fq_roots(ctx)} == {2, 7}

    def test_gcd_path_rootless(self):
        q = 4194319  # q == 3 (mod 4) so x^2 + 1 stays irreducible
        ctx = RqContext((1, 0, 1), PrimeModulus(q))
        assert find_fq_roots(ctx) == []


class TestBinomialFactors:
    def test_ring_a_cubic_divisor(self):
        assert (PrimeModulus(4099).element(2018), 6) in find_binomial_factors(RING_A, 3)

    def test_ring_b_cubic_divisor_unique(self):
        hits = find_binomial_factors(RING_B, 3)
        assert hits == [(PrimeModulus(4099).element(2017), 3)]

    def test_small_example(self):
        ctx = RqContext((-2, 0, 1), PrimeModulus(3))
        assert find_binomial_factors(ctx, 2) == [(PrimeModulus(3).element(2), 2)]

    def test_degree_too_large(self):
        ctx = RqContext((-2, 0, 1), PrimeModulus(3))
        assert find_binomial_factors(ctx, 5) == []

    def test_every_hit_divides_and_is_irreducible(self):
        for n in (2, 3, 4):
            for a_elt, order in find_binomial_factors(RING_A, n):
                assert is_irreducible_binomial(n, a_elt)
                # remainder of f mod (x^n - a): fold coefficients
                q = 4099
                rem = [0] * n
                for k, c in enumerate(RING_A.f_mod):
                    rem[k % n] = (rem[k % n] + c * pow(a_elt.value, k // n, q)) % q
                assert all(v == 0 for v in rem)

    def test_report_combines_roots_and_factors(self):
        rep = root_report(RING_A, n_max=3)
        assert any(n == 3 and a.value == 2018 for n, a, _ in rep.binomial_factors)


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
        alpha = self.EXT.alpha()
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
