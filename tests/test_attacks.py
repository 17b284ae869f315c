import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plwe_audit.analysis import monte_carlo_delta, quarter_count, usva_threshold
from plwe_audit.attacks import (
    VERDICT_GUESS,
    VERDICT_NOT_ENOUGH,
    VERDICT_NOT_PLWE,
    AttackVerdict,
    Decision,
    InsufficientSamples,
    NoSamples,
    NonMemberSample,
    TableTooLarge,
    build_sigma_table_fq,
    build_sigma_table_trace,
    extended_attack,
    small_set_attack,
    small_values_attack,
    unbounded_small_values_attack,
)
from plwe_audit.fields import ExtFieldCtx, PrimeModulus, in_quarter_value
from plwe_audit.rings import RqContext, eval_poly, load_ring_doc
from plwe_audit.samplers import (
    GaussianSpec,
    PlweInstance,
    Sample,
    plwe_oracle,
    uniform_oracle,
    uniform_rq0_poly,
)
from plwe_audit.instances import TRACE_RING_B

M4099 = PrimeModulus(4099)
RING_B = load_ring_doc(TRACE_RING_B)
EXT_B = ExtFieldCtx(3, M4099.element(2017))

# degree-6 ring whose root 2018 has order 6, so every table block is a single
# coefficient and truncated errors always stay inside the table
RING_ORDER6 = RqContext((-1, 0, 0, 0, 0, 0, 1), M4099)
ALPHA_2018 = M4099.element(2018)


class TestSigmaTables:
    def test_single_block_is_an_interval(self):
        m = PrimeModulus(13)
        table = build_sigma_table_fq(m.element(1), 1, 4, 1.0)
        assert table.values == frozenset(v % 13 for v in range(-4, 5))
        assert table.size == 9

    def test_trace_table_order6(self):
        table = build_sigma_table_trace(ALPHA_2018, 6, 1, 0.7)
        assert abs(table.analytic_bound - 3.8**6) < 1e-9
        assert table.analytic_bound < 4099 * 0.954500**6
        # oracle: full tuple enumeration
        oracle = set()
        for xs in product(range(-1, 2), repeat=6):
            oracle.add(sum(x * pow(2018, j, 4099) for j, x in enumerate(xs)) % 4099)
        assert table.values == frozenset(oracle)

    def test_trace_table_order3(self):
        a = M4099.element(2017)
        table = build_sigma_table_trace(a, 3, 2, 2.5)
        assert abs(table.analytic_bound - (4 * math.sqrt(2) * 2.5 + 1) ** 3) < 1e-9
        oracle = set()
        for xs in product(range(-7, 8), repeat=3):
            oracle.add(sum(x * pow(2017, j, 4099) for j, x in enumerate(xs)) % 4099)
        assert table.values == frozenset(oracle)
        assert table.size <= 15**3

    def test_block_sigma_recorded(self):
        table = build_sigma_table_trace(M4099.element(2017), 3, 2, 2.5)
        assert table.block_sigma == pytest.approx(2 * math.sqrt(2) * 2.5)

    def test_cap(self):
        with pytest.raises(TableTooLarge):
            build_sigma_table_fq(ALPHA_2018, 6, 6, 8.0, cap=10**4)


def _plwe_samples(ctx, gauss, m, seed, rq0_ext=None):
    rng = np.random.default_rng(seed)
    inst = PlweInstance.generate(ctx, gauss, rng)
    out = []
    for _ in range(m):
        if rq0_ext is None:
            out.append(plwe_oracle(inst, rng))
        else:
            out.append(
                plwe_oracle(inst, rng, force_a=uniform_rq0_poly(ctx, rq0_ext, rng))
            )
    return inst, out


def _uniform_samples(ctx, m, seed):
    rng = np.random.default_rng(seed)
    return [uniform_oracle(ctx, rng) for _ in range(m)]


class TestSmallSetFq:
    TABLE = build_sigma_table_fq(ALPHA_2018, 6, 6, 0.7)

    def test_truncated_true_value_always_survives(self):
        for seed in range(30):
            inst, samples = _plwe_samples(
                RING_ORDER6, GaussianSpec(0.7, True), 8, seed
            )
            verdict = small_set_attack(samples, self.TABLE, ALPHA_2018)
            target = eval_poly(inst.secret_for_tests(), ALPHA_2018).value
            assert verdict.kind in (VERDICT_GUESS, VERDICT_NOT_ENOUGH)
            assert target in verdict.survivors

    def test_singleton_miss_is_not_plwe(self):
        # sigma = 0.1 collapses the table to {0}; a sample with a = 0, b = 1
        # then rejects every guess
        table = build_sigma_table_fq(ALPHA_2018, 6, 6, 0.1)
        assert table.values == frozenset({0})
        sample = Sample(RING_ORDER6.zero(), RING_ORDER6.one())
        verdict = small_set_attack([sample], table, ALPHA_2018)
        assert verdict.kind == VERDICT_NOT_PLWE
        assert verdict.survivors == ()

    def test_uniform_rejection_rate_beats_posterior_bound(self):
        # with M = 5 the survivor bound q*(|Sigma|/q)^M is essentially zero
        q, M, trials = 4099, 5, 200
        bound = 1 - q * (self.TABLE.size / q) ** M
        not_plwe = 0
        for seed in range(trials):
            samples = _uniform_samples(RING_ORDER6, M, 1000 + seed)
            verdict = small_set_attack(samples, self.TABLE, ALPHA_2018)
            not_plwe += verdict.kind == VERDICT_NOT_PLWE
        assert not_plwe / trials >= max(0.0, bound)

    def test_uniform_rejection_bound_exact_vs_analytic(self):
        # the analytic cardinality estimate makes the M = 30 union bound
        # vacuous, but the exact residue set is small enough to salvage it
        table = build_sigma_table_trace(M4099.element(2017), 3, 2, 2.5)
        analytic = 1 - 4099 * (table.analytic_bound / 4099) ** 30
        exact = 1 - 4099 * (table.size / 4099) ** 30
        assert analytic < 0 < 0.999 < exact

    def test_no_samples(self):
        with pytest.raises(NoSamples):
            small_set_attack([], self.TABLE, ALPHA_2018)


class TestSmallSetTrace:
    TABLE = build_sigma_table_trace(M4099.element(2017), 3, 2, 2.5)

    def test_zero_error_survivor_is_trace_of_secret(self):
        from plwe_audit.fields import trace

        rng = np.random.default_rng(77)
        inst = PlweInstance.generate(RING_B, GaussianSpec(2.5, False), rng)
        samples = [
            plwe_oracle(
                inst,
                rng,
                force_a=uniform_rq0_poly(RING_B, EXT_B, rng),
                force_error=(0,) * 23,
            )
            for _ in range(6)
        ]
        verdict = small_set_attack(samples, self.TABLE, EXT_B)
        target = trace(eval_poly(inst.secret_for_tests(), EXT_B.alpha())).value
        assert target in verdict.survivors

    def test_non_member_sample_rejected(self):
        sample = Sample(RING_B.monomial(1), RING_B.zero())
        with pytest.raises(NonMemberSample):
            small_set_attack([sample], self.TABLE, EXT_B)

    def test_degree_one_extension_matches_fq_attack(self):
        # with n = 1 the subring is everything and the trace is the identity,
        # so both procedures must agree verdict for verdict
        ring = RqContext((-1, 0, 1), PrimeModulus(5))  # x^2 - 1, root 4 of order 2
        m5 = PrimeModulus(5)
        alpha = m5.element(4)
        ext1 = ExtFieldCtx(1, alpha)
        table = build_sigma_table_fq(alpha, 2, 2, 0.7)
        for seed in range(20):
            if seed % 2:
                _, samples = _plwe_samples(ring, GaussianSpec(0.7, True), 4, seed)
            else:
                samples = _uniform_samples(ring, 4, seed)
            fq = small_set_attack(samples, table, alpha)
            tr = small_set_attack(samples, table, ext1)
            assert fq == tr


RING_X = RqContext((0, 1), PrimeModulus(13))  # f = x over F_13, root 0


class TestSmallValues:
    def test_exhaustive_single_sample_q5(self):
        ring = RqContext((0, 1), PrimeModulus(5))
        alpha = PrimeModulus(5).element(0)
        for a0, b0 in product(range(5), repeat=2):
            sample = Sample(ring.poly([a0]), ring.poly([b0]))
            verdict = small_values_attack([sample], alpha)
            oracle = tuple(
                g for g in range(5) if in_quarter_value(b0 - a0 * g, 5)
            )
            assert verdict.survivors == oracle

    def test_zero_b_unit_a_survivor_count(self):
        alpha = PrimeModulus(13).element(0)
        sample = Sample(RING_X.poly([1]), RING_X.poly([0]))
        verdict = small_values_attack([sample], alpha)
        assert set(verdict.survivors) == {g for g in range(13) if in_quarter_value(-g, 13)}
        assert len(verdict.survivors) == quarter_count(13)

    def test_trace_zero_error_keeps_true_value(self):
        from plwe_audit.fields import trace

        rng = np.random.default_rng(5)
        inst = PlweInstance.generate(RING_B, GaussianSpec(2.5, True), rng)
        samples = [
            plwe_oracle(
                inst,
                rng,
                force_a=uniform_rq0_poly(RING_B, EXT_B, rng),
                force_error=(0,) * 23,
            )
            for _ in range(5)
        ]
        verdict = small_values_attack(samples, EXT_B)
        target = trace(eval_poly(inst.secret_for_tests(), EXT_B.alpha())).value
        assert target in verdict.survivors

    def test_trace_per_guess_survival_exact(self):
        # q = 5, n = 2: enumerate every member a and every b; each guess must
        # survive exactly (1/2 + 1/(2q)) of the 125 cases
        m5 = PrimeModulus(5)
        ring = RqContext((-2, 0, 1), m5)
        ext = ExtFieldCtx(2, m5.element(2))
        members = [ring.poly([c, 0]) for c in range(5)]
        hits = {g: 0 for g in range(5)}
        total = 0
        for a_poly in members:
            for b0, b1 in product(range(5), repeat=2):
                sample = Sample(a_poly, ring.poly([b0, b1]))
                verdict = small_values_attack([sample], ext)
                for g in verdict.survivors:
                    hits[g] += 1
                total += 1
        assert total == 125
        expected = Fraction(1, 2) + Fraction(1, 10)
        for g in range(5):
            assert Fraction(hits[g], total) == expected


def _usva_ring(N, q, alpha):
    m = -(pow(alpha, N, q) + 2 * alpha) % q
    return RqContext((m + q, 2) + (0,) * (N - 2) + (1,), PrimeModulus(q))


class TestUnbounded:
    def test_threshold_example(self):
        assert usva_threshold(100, 3677, 0.1376) == 183914

    def test_threshold_small(self):
        assert usva_threshold(1, 13, 0.0) == 7

    @given(
        st.integers(1, 500),
        st.sampled_from([5, 13, 3677, 4099]),
        st.floats(-0.4, 0.5, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_threshold_closed_forms_agree(self, ell, q, delta):
        sign = Fraction(1, 2 * q) if q % 4 == 1 else Fraction(-1, 2 * q)
        form_a = math.ceil(
            ell * (q - 1) * (Fraction(1, 2) + sign)
            + ell * (Fraction(1, 2) + Fraction(delta))
        )
        form_b = math.ceil(
            Fraction(1, 2)
            * (ell * q + 2 * ell * Fraction(delta) + 2 * ell * sign * q * Fraction(q - 1, q))
        )
        assert usva_threshold(ell, q, delta) == form_a == form_b

    def test_threshold_monotone_in_delta(self):
        prev = None
        for k in range(50):
            t = usva_threshold(100, 3677, k / 100.0)
            if prev is not None:
                assert t >= prev
            prev = t

    def test_vote_count_is_constant_when_a_never_vanishes(self):
        # for invertible a_i the map g -> b_i - a_i*g is a bijection, so each
        # sample contributes exactly quarter_count(q) votes
        q = 13
        ring = _usva_ring(4, q, q - 1)
        alpha = PrimeModulus(q).element(q - 1)
        rng = np.random.default_rng(9)
        samples = []
        while len(samples) < 11:
            s = uniform_oracle(ring, rng)
            if eval_poly(s.a, alpha).value != 0:
                samples.append(s)
        decision = unbounded_small_values_attack(samples, 0.2, alpha)
        assert decision.votes == 11 * quarter_count(q)

    def test_small_q_distinguishing_accuracy(self):
        # at small q the zero-evaluation samples are frequent enough for the
        # aggregate count to carry signal
        q, N, ell, sigma = 13, 8, 60, 1.0
        ring = _usva_ring(N, q, q - 1)
        alpha = PrimeModulus(q).element(q - 1)
        sbar = math.sqrt(N) * sigma
        delta = monte_carlo_delta(q, sbar, np.random.default_rng(1))
        wins = 0
        trials = 400
        for t in range(trials):
            rng = np.random.default_rng([202, t])
            truth_plwe = bool(rng.integers(0, 2))
            if truth_plwe:
                inst = PlweInstance.generate(ring, GaussianSpec(sigma, False), rng)
                samples = [plwe_oracle(inst, rng) for _ in range(ell)]
            else:
                samples = [uniform_oracle(ring, rng) for _ in range(ell)]
            decision = unbounded_small_values_attack(samples, delta, alpha)
            wins += decision.is_plwe == truth_plwe
        assert wins / trials > 0.58

    def test_trace_mode_matches_fq_for_degree_one(self):
        ring = RqContext((-1, 0, 1), PrimeModulus(5))
        m5 = PrimeModulus(5)
        alpha = m5.element(4)
        ext1 = ExtFieldCtx(1, alpha)
        samples = _uniform_samples(ring, 9, 3)
        d_fq = unbounded_small_values_attack(samples, 0.1, alpha)
        d_tr = unbounded_small_values_attack(samples, 0.1, ext1)
        assert d_fq == d_tr


class TestExtended:
    TABLE = build_sigma_table_fq(ALPHA_2018, 6, 6, 0.7)

    def _sub(self, chunk):
        return small_set_attack(chunk, self.TABLE, ALPHA_2018)

    def test_truncated_threshold_is_chunk_count(self):
        _, samples = _plwe_samples(RING_ORDER6, GaussianSpec(0.7, True), 30, 0)
        decision = extended_attack(samples, 3, self._sub, 6, p0=1.0)
        assert decision.threshold == 10
        assert decision.is_plwe

    def test_untruncated_threshold_value(self):
        _, samples = _plwe_samples(RING_ORDER6, GaussianSpec(0.7, False), 100, 1)
        decision = extended_attack(samples, 5, self._sub, 2, p0=0.954500)
        # ceil(20 * p0^10)
        assert decision.threshold == math.ceil(20 * 0.954500**10) == 13

    def test_remainder_samples_dropped(self):
        _, samples = _plwe_samples(RING_ORDER6, GaussianSpec(0.7, True), 7, 2)
        poisoned = samples[:6] + [Sample(RING_ORDER6.zero(), RING_ORDER6.one())]
        full = extended_attack(poisoned, 3, self._sub, 6, p0=1.0)
        trimmed = extended_attack(samples[:6], 3, self._sub, 6, p0=1.0)
        assert (full.votes, full.threshold) == (trimmed.votes, trimmed.threshold)

    def test_chunking_is_deterministic(self):
        _, samples = _plwe_samples(RING_ORDER6, GaussianSpec(0.7, False), 40, 3)
        d1 = extended_attack(samples, 5, self._sub, 6, p0=0.954500)
        d2 = extended_attack(samples, 5, self._sub, 6, p0=0.954500)
        assert d1 == d2

    def test_insufficient_samples(self):
        _, samples = _plwe_samples(RING_ORDER6, GaussianSpec(0.7, True), 4, 4)
        with pytest.raises(InsufficientSamples):
            extended_attack(samples, 5, self._sub, 6, p0=1.0)

    def test_no_samples(self):
        with pytest.raises(NoSamples):
            extended_attack([], 5, self._sub, 6, p0=1.0)


class TestVerdictShape:
    def test_verdict_classification(self):
        assert AttackVerdict(()).kind == VERDICT_NOT_PLWE
        assert AttackVerdict((3,)).kind == VERDICT_GUESS
        assert AttackVerdict((3,)).guess == 3
        assert AttackVerdict((1, 2)).kind == VERDICT_NOT_ENOUGH
        assert AttackVerdict((1, 2)).guess is None

    def test_serialization(self):
        assert AttackVerdict((3,)).to_dict() == {"verdict": "guess", "guess": 3}
        assert AttackVerdict(()).to_dict() == {"verdict": "not_plwe"}
        assert Decision(5, 3).to_dict() == {
            "verdict": "plwe",
            "votes": 5,
            "threshold": 3,
        }
        assert Decision(2, 3).kind == "uniform"


# degree-8 ring divisible by x^2 + 1 mod 4099 (so a = -1 has order 2)
RING_QUAD = RqContext((-2, 0, -2, 0, 0, 0, 1, 0, 1), M4099)
EXT_QUAD = ExtFieldCtx(2, M4099.element(4098))


class TestTraceSmallValuesSoundness:
    def test_divisor_really_divides(self):
        from plwe_audit.rings import find_binomial_factors

        assert (M4099.element(4098), 2) in find_binomial_factors(RING_QUAD, 2)

    def test_truncated_input_never_rejected(self):
        # sigma_bar = sqrt(4)*2.5 = 5, so 2*sigma_bar < q/4 and the worst
        # traced error magnitude is 4*5 = 20, far inside the quarter interval
        for seed in range(200):
            rng = np.random.default_rng([808, seed])
            inst = PlweInstance.generate(RING_QUAD, GaussianSpec(2.5, True), rng)
            samples = [
                plwe_oracle(inst, rng, force_a=uniform_rq0_poly(RING_QUAD, EXT_QUAD, rng))
                for _ in range(4)
            ]
            verdict = small_values_attack(samples, EXT_QUAD)
            assert verdict.kind != VERDICT_NOT_PLWE


class TestUniformRejectionTrace:
    def test_thirty_samples_reject_uniform_with_exact_table(self):
        # the exact 631-value table drives q*(|Sigma|/q)^30 to ~1e-21, so all
        # 200 uniform batches must come back NOT PLWE
        table = build_sigma_table_trace(M4099.element(2017), 3, 2, 2.5)
        q, M, trials = 4099, 30, 200
        bound = 1 - q * (table.size / q) ** M
        assert bound > 1 - 1e-12
        rejected = 0
        for seed in range(trials):
            rng = np.random.default_rng([909, seed])
            samples = [
                Sample(uniform_rq0_poly(RING_B, EXT_B, rng),
                       RING_B.poly(rng.integers(0, q, size=23)))
                for _ in range(M)
            ]
            verdict = small_set_attack(samples, table, EXT_B)
            rejected += verdict.kind == VERDICT_NOT_PLWE
        assert rejected / trials >= bound


class TestQuarterPassRate:
    def test_uniform_pair_rate_matches_offset(self):
        # Each uniform tentative error passes the quarter test with
        # probability exactly 1/2 +- 1/(2q); check 1e5 draws to 3 SE.
        q = 4099
        rng = np.random.default_rng(515)
        draws = rng.integers(0, q, size=10**5)
        rate = np.mean((4 * draws < q) | (4 * draws >= 3 * q))
        expected = 0.5 - 1 / (2 * q)
        se = math.sqrt(expected * (1 - expected) / 10**5)
        assert abs(rate - expected) <= 3 * se


class TestSigmaTableInvariants:
    def test_size_never_exceeds_analytic_bound(self):
        cases = [
            build_sigma_table_trace(M4099.element(2018), 6, 1, 0.7),
            build_sigma_table_trace(M4099.element(2017), 3, 2, 2.5),
            build_sigma_table_fq(PrimeModulus(13).element(1), 1, 4, 1.0),
        ]
        for table in cases:
            assert table.size <= table.analytic_bound

    def test_unit_weight_trace_table_is_interval(self):
        m = PrimeModulus(4099)
        table = build_sigma_table_trace(m.element(1), 1, 7, 2.5)
        limit = math.floor(2 * math.sqrt(7) * 2.5)
        assert table.values == frozenset(v % 4099 for v in range(-limit, limit + 1))
