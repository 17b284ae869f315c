import numpy as np
import pytest
from scipy.stats import chisquare

from plwe_audit.fields import ExtFieldCtx, PrimeModulus, centered_value
from plwe_audit.rings import RqContext, ring_mul, ring_sub, rq0_membership
from plwe_audit.samplers import (
    BudgetExhausted,
    GaussianSpec,
    PlweInstance,
    Sample,
    draw_gaussian,
    gaussian_coeffs,
    plwe_oracle,
    plwe_oracle_rq0,
    sample_rq0,
    uniform_oracle,
    uniform_oracle_rq0,
    uniform_rq0_poly,
)

CHI2_ALPHA = 0.001


def _chi2_uniform_ok(counts):
    return chisquare(counts).pvalue > CHI2_ALPHA


class TestGaussian:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GaussianSpec(0.0, True)
        assert GaussianSpec(8.0, True).p0 == 1.0
        assert GaussianSpec(8.0, False).p0 == pytest.approx(0.954500, abs=1e-9)

    @pytest.mark.parametrize("sigma", [0.7, 2.5, 8.0])
    def test_truncated_support(self, sigma):
        rng = np.random.default_rng(1)
        draws = gaussian_coeffs(GaussianSpec(sigma, True), rng, 10**5)
        limit = int(2 * sigma)
        assert set(np.unique(draws)) == set(range(-limit, limit + 1))

    def test_untruncated_two_sigma_mass(self):
        rng = np.random.default_rng(2)
        draws = gaussian_coeffs(GaussianSpec(8.0, False), rng, 10**5)
        frac = np.mean(np.abs(draws) <= 16)
        assert abs(frac - 0.9545) < 0.01

    def test_untruncated_mean(self):
        rng = np.random.default_rng(3)
        draws = gaussian_coeffs(GaussianSpec(8.0, False), rng, 10**6)
        assert abs(draws.mean()) < 0.05

    def test_scalar_draw_matches_contract(self):
        rng = np.random.default_rng(4)
        spec = GaussianSpec(0.7, True)
        assert {draw_gaussian(spec, rng) for _ in range(2000)} == {-1, 0, 1}


CTX13 = RqContext((1, 0, 0, 1), PrimeModulus(13))


class TestUniformOracle:
    def test_coefficient_uniformity(self):
        rng = np.random.default_rng(5)
        counts = np.zeros(13, dtype=int)
        for _ in range(10**4):
            s = uniform_oracle(CTX13, rng)
            counts[s.a.coeffs[0]] += 1
        assert _chi2_uniform_ok(counts)

    def test_seed_replay(self):
        a = uniform_oracle(CTX13, np.random.default_rng(99))
        b = uniform_oracle(CTX13, np.random.default_rng(99))
        assert a == b

    def test_distinct_seeds_differ(self):
        a = uniform_oracle(CTX13, np.random.default_rng(1))
        b = uniform_oracle(CTX13, np.random.default_rng(2))
        assert a != b


class TestPlweOracle:
    CTX = RqContext((1, 0, 0, 0, 0, 0, 1), PrimeModulus(4099))

    def _instance(self, seed=7, sigma=0.7):
        rng = np.random.default_rng(seed)
        return PlweInstance.generate(self.CTX, GaussianSpec(sigma, True), rng), rng

    def test_zero_error_gives_exact_product(self):
        inst, rng = self._instance()
        s = plwe_oracle(inst, rng, force_error=(0,) * 6)
        assert s.b == ring_mul(s.a, inst.secret_for_tests())

    def test_zero_a_exposes_error(self):
        inst, rng = self._instance(sigma=2.5)
        s = plwe_oracle(inst, rng, force_a=self.CTX.zero())
        assert all(abs(centered_value(c, 4099)) <= 5 for c in s.b.coeffs)

    def test_residual_is_the_error(self):
        inst, rng = self._instance(sigma=2.5)
        s = plwe_oracle(inst, rng)
        resid = ring_sub(s.b, ring_mul(s.a, inst.secret_for_tests()))
        assert resid == self.CTX.poly(s.raw_error)

    def test_secret_behind_accessor(self):
        inst, _ = self._instance()
        assert not hasattr(inst, "secret")
        assert inst.secret_for_tests().ctx == self.CTX


class TestLinearCombinationsStayUniform:
    def test_lambda_u_plus_u(self):
        q = 31
        rng = np.random.default_rng(11)
        u = rng.integers(0, q, size=10**5)
        v = rng.integers(0, q, size=10**5)
        w = (7 * u + v) % q
        assert _chi2_uniform_ok(np.bincount(w, minlength=q))


EXT5 = ExtFieldCtx(2, PrimeModulus(5).element(2))
CTX5 = RqContext((-2, 0, 1), PrimeModulus(5))


class TestRestrictedSampler:
    def test_count_includes_success(self):
        rng = np.random.default_rng(21)
        draw = sample_rq0(lambda: uniform_oracle(CTX5, rng), EXT5)
        assert draw.count >= 1
        assert rq0_membership(draw.sample.a, EXT5).is_member

    def test_mean_count_is_q(self):
        rng = np.random.default_rng(22)
        total = 0
        runs = 4000
        for _ in range(runs):
            total += sample_rq0(lambda: uniform_oracle(CTX5, rng), EXT5).count
        assert 4.4 < total / runs < 5.6

    def test_acceptance_rate_q3(self):
        ext = ExtFieldCtx(2, PrimeModulus(3).element(2))
        ctx = RqContext((-2, 0, 1), PrimeModulus(3))
        rng = np.random.default_rng(23)
        runs = 10**4
        invocations = sum(
            sample_rq0(lambda: uniform_oracle(ctx, rng), ext).count for _ in range(runs)
        )
        assert abs(runs / invocations - 1 / 3) < 0.02

    def test_degree_one_extension_accepts_everything(self):
        ext = ExtFieldCtx(1, PrimeModulus(5).element(2))
        rng = np.random.default_rng(24)
        for _ in range(50):
            assert sample_rq0(lambda: uniform_oracle(CTX5, rng), ext).count == 1

    def test_budget_exhausted(self):
        bad = Sample(CTX5.monomial(1), CTX5.zero())
        with pytest.raises(BudgetExhausted):
            sample_rq0(lambda: bad, EXT5, max_invocations=10)

    def test_restricted_uniform_keeps_b_uniform(self):
        rng = np.random.default_rng(25)
        counts = np.zeros(5, dtype=int)
        for _ in range(5000):
            draw = sample_rq0(lambda: uniform_oracle(CTX5, rng), EXT5)
            counts[draw.sample.b.coeffs[0]] += 1
        assert _chi2_uniform_ok(counts)

    def test_restricted_plwe_keeps_structure(self):
        rng = np.random.default_rng(26)
        inst = PlweInstance.generate(CTX5, GaussianSpec(0.7, True), rng)
        draw = sample_rq0(lambda: plwe_oracle(inst, rng), EXT5)
        resid = ring_sub(draw.sample.b, ring_mul(draw.sample.a, inst.secret_for_tests()))
        assert all(abs(centered_value(c, 5)) <= 1 for c in resid.coeffs)


class TestDirectConstruction:
    CTX = RqContext((0, 0, 0, 0, 1), PrimeModulus(3))
    EXT = ExtFieldCtx(2, PrimeModulus(3).element(2))

    def test_always_member(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = uniform_rq0_poly(self.CTX, self.EXT, rng)
            assert rq0_membership(p, self.EXT).is_member

    def test_uniform_over_subring(self):
        # q=3, N=4, n=2 has exactly 27 members; direct draws hit them uniformly
        rng = np.random.default_rng(32)
        seen = {}
        for _ in range(10**4):
            p = uniform_rq0_poly(self.CTX, self.EXT, rng)
            seen[p.coeffs] = seen.get(p.coeffs, 0) + 1
        assert len(seen) == 27
        assert _chi2_uniform_ok(np.array(list(seen.values())))

    def test_matches_rejection_distribution(self):
        rng = np.random.default_rng(33)
        seen = {}
        for _ in range(5000):
            draw = sample_rq0(lambda: uniform_oracle(self.CTX, rng), self.EXT)
            key = draw.sample.a.coeffs
            seen[key] = seen.get(key, 0) + 1
        assert len(seen) == 27
        assert _chi2_uniform_ok(np.array(list(seen.values())))

    def test_plwe_direct_keeps_structure(self):
        rng = np.random.default_rng(34)
        inst = PlweInstance.generate(self.CTX, GaussianSpec(0.7, True), rng)
        s = plwe_oracle_rq0(inst, self.EXT, rng)
        assert rq0_membership(s.a, self.EXT).is_member
        resid = ring_sub(s.b, ring_mul(s.a, inst.secret_for_tests()))
        assert all(abs(centered_value(c, 3)) <= 1 for c in resid.coeffs)

    def test_degree_one_draws_the_plain_stream(self):
        # at an F_q root the subring is all of R_q: the direct constructions
        # must consume the plain oracles' random stream draw for draw
        ctx, ext = self.CTX, ExtFieldCtx(1, PrimeModulus(3).element(2))
        inst = PlweInstance.generate(ctx, GaussianSpec(0.7, False), np.random.default_rng(36))
        for direct, plain in (
            (lambda rng: uniform_oracle_rq0(ctx, ext, rng), lambda rng: uniform_oracle(ctx, rng)),
            (lambda rng: plwe_oracle_rq0(inst, ext, rng), lambda rng: plwe_oracle(inst, rng)),
        ):
            rng_d, rng_p = np.random.default_rng(37), np.random.default_rng(37)
            for _ in range(20):
                assert direct(rng_d) == plain(rng_p)

    def test_uniform_oracle_rq0(self):
        rng = np.random.default_rng(35)
        s = uniform_oracle_rq0(self.CTX, self.EXT, rng)
        assert rq0_membership(s.a, self.EXT).is_member
