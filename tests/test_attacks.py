import math
import pickle
import timeit
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plwe_audit import attacks
from plwe_audit.analysis import (
    block_structure,
    hit_threshold,
    monte_carlo_delta,
    posterior_bounds,
    quarter_count,
    quarter_mask,
    small_set_size,
)
from plwe_audit.attacks import (
    VERDICT_GUESS,
    VERDICT_NOT_ENOUGH,
    VERDICT_NOT_PLWE,
    AttackError,
    AttackVerdict,
    Decision,
    HitCountDecision,
    InsufficientSamples,
    NoSamples,
    TableTooLarge,
    build_sigma_table_trace,
    extended_attack,
    small_set_attack,
    unbounded_small_values_attack,
)
from plwe_audit.fields import ExtFieldCtx, PrimeModulus, centered_value, is_prime
from plwe_audit.rings import RqContext, binomial_logs, generator_powers, load_ring_doc, log_orders
from plwe_audit.samplers import (
    GaussianSpec,
    NonMemberSample,
    Pairs,
    PlweInstance,
    sample_batch,
)
from plwe_audit.instances import TRACE_RING_B
from reference import (
    Sample,
    eval_poly,
    ext_alpha,
    in_quarter_value,
    irreducible_constants,
    pairs_at,
    plwe_oracle,
    reference_hit_counts,
    reference_sigma_values,
    trace,
    uniform_oracle,
    uniform_rq0_poly,
)

M4099 = PrimeModulus(4099)
RING_B = load_ring_doc(TRACE_RING_B)
EXT_B = ExtFieldCtx(3, 2017, M4099)

# degree-6 ring whose root 2018 has order 6, so every table block is a single
# coefficient and truncated errors always stay inside the table
RING_ORDER6 = RqContext((-1, 0, 0, 0, 0, 0, 1), M4099)
ALPHA_2018 = 2018
NO_PAIRS = Pairs(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 4099)


def _residues(mask):
    return frozenset(np.flatnonzero(mask).tolist())


class TestSigmaTables:
    def test_single_block_is_an_interval(self):
        table = build_sigma_table_trace(1, 13, (4,), 1.0)
        assert _residues(table) == frozenset(v % 13 for v in range(-4, 5))
        assert np.count_nonzero(table) == 9

    def test_trace_table_order6(self):
        table = build_sigma_table_trace(ALPHA_2018, 4099, (1,) * 6, 0.7)
        analytic = small_set_size((1,) * 6, 0.7).analytic
        assert abs(analytic - 3.8**6) < 1e-9
        assert analytic < 4099 * 0.954500**6
        # oracle: full tuple enumeration
        oracle = set()
        for xs in product(range(-1, 2), repeat=6):
            oracle.add(sum(x * pow(2018, j, 4099) for j, x in enumerate(xs)) % 4099)
        assert _residues(table) == frozenset(oracle)

    def test_analytic_bound_beyond_a_float_is_inf(self):
        # 7 has order 2048 mod 12289: 1.8^2048 overflows, 1.8^1024 does not
        assert small_set_size((1,) * 2048, 0.2).analytic == math.inf
        assert small_set_size((1,) * 1024, 0.2).analytic == 1.8**1024

    def test_trace_table_order3(self):
        a = 2017
        table = build_sigma_table_trace(a, 4099, (2, 2, 2), 2.5)
        analytic = small_set_size((2, 2, 2), 2.5).analytic
        assert abs(analytic - (4 * math.sqrt(2) * 2.5 + 1) ** 3) < 1e-9
        oracle = set()
        for xs in product(range(-7, 8), repeat=3):
            oracle.add(sum(x * pow(2017, j, 4099) for j, x in enumerate(xs)) % 4099)
        assert _residues(table) == frozenset(oracle)
        assert np.count_nonzero(table) <= 15**3

    def test_block_sigma_recorded(self):
        size = small_set_size((2, 2, 2), 2.5)
        assert size.classes == ((2, 3, math.floor(2 * math.sqrt(2) * 2.5)),) == ((2, 3, 7),)
        assert size.tuple_count == 15**3 and size.feasible

    def test_classes_of_two_lengths(self):
        # a = -1 with 7 coefficients: classes of 4 and 3, bounds 4 and 3
        size = small_set_size((4, 3), 1.0)
        assert size.classes == ((4, 1, 4), (3, 1, 3))
        assert size.tuple_count == 9 * 7
        assert size.analytic == (4 * 2.0 + 1) * (4 * math.sqrt(3) + 1)

    def test_cap(self):
        with pytest.raises(TableTooLarge):
            build_sigma_table_trace(ALPHA_2018, 4099, (1,) * 6, 8.0, cap=10**4)


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
    TABLE = build_sigma_table_trace(ALPHA_2018, 4099, (1,) * 6, 0.7)

    def test_truncated_true_value_always_survives(self):
        for seed in range(30):
            inst, samples = _plwe_samples(
                RING_ORDER6, GaussianSpec(0.7, True), 8, seed
            )
            verdict = small_set_attack(pairs_at(samples, ALPHA_2018), self.TABLE)
            target = eval_poly(inst.secret_for_tests(), ALPHA_2018)
            assert verdict.kind in (VERDICT_GUESS, VERDICT_NOT_ENOUGH)
            assert target in verdict.survivors

    def test_singleton_miss_is_not_plwe(self):
        # sigma = 0.1 collapses the table to {0}; a sample with a = 0, b = 1
        # then rejects every guess
        table = build_sigma_table_trace(ALPHA_2018, 4099, (1,) * 6, 0.1)
        assert _residues(table) == frozenset({0})
        sample = Sample(RING_ORDER6.poly([]), RING_ORDER6.poly([1]))
        verdict = small_set_attack(pairs_at([sample], ALPHA_2018), table)
        assert verdict.kind == VERDICT_NOT_PLWE
        assert verdict.survivors == ()

    def test_uniform_rejection_rate_beats_posterior_bound(self):
        # with M = 5 the survivor bound q*(|Sigma|/q)^M is essentially zero
        q, M, trials = 4099, 5, 200
        bound = 1 - q * (np.count_nonzero(self.TABLE) / q) ** M
        not_plwe = 0
        for seed in range(trials):
            samples = _uniform_samples(RING_ORDER6, M, 1000 + seed)
            verdict = small_set_attack(pairs_at(samples, ALPHA_2018), self.TABLE)
            not_plwe += verdict.kind == VERDICT_NOT_PLWE
        assert not_plwe / trials >= max(0.0, bound)

    @pytest.mark.parametrize("M", [2, 3])
    def test_uniform_survivor_count_matches_the_union_bound(self, M):
        # on uniform pairs with u != 0 each candidate passes a sample with
        # probability |Sigma|/q, so the survivors number q*(|Sigma|/q)^M on
        # average: 1 - vote_posterior of the truncated bound
        q, trials = 4099, 400
        size = int(np.count_nonzero(self.TABLE))
        expected = 1 - posterior_bounds(q, size, 6, True, M).vote_posterior
        rng = np.random.default_rng([4099, M])
        counts = [
            len(small_set_attack(
                Pairs(rng.integers(0, q, size=M), rng.integers(1, q, size=M), q), self.TABLE
            ).survivors)
            for _ in range(trials)
        ]
        se = np.std(counts, ddof=1) / math.sqrt(trials)
        assert abs(np.mean(counts) - expected) <= 4 * se

    def test_uniform_rejection_bound_exact_vs_analytic(self):
        # the analytic cardinality estimate makes the M = 30 union bound
        # vacuous, but the exact residue set is small enough to salvage it
        table = build_sigma_table_trace(2017, 4099, (2, 2, 2), 2.5)
        analytic = 1 - 4099 * (small_set_size((2, 2, 2), 2.5).analytic / 4099) ** 30
        exact = 1 - 4099 * (np.count_nonzero(table) / 4099) ** 30
        assert analytic < 0 < 0.999 < exact

    def test_no_samples(self):
        with pytest.raises(NoSamples):
            small_set_attack(NO_PAIRS, self.TABLE)


class TestSmallSetTrace:
    TABLE = build_sigma_table_trace(2017, 4099, (2, 2, 2), 2.5)

    def test_zero_error_survivor_is_trace_of_secret(self):
        from reference import trace

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
        verdict = small_set_attack(pairs_at(samples, EXT_B), self.TABLE)
        target = trace(eval_poly(inst.secret_for_tests(), ext_alpha(EXT_B)))
        assert target in verdict.survivors

    def test_non_member_sample_rejected(self):
        # 0 is a member; x^2 has only a y^2 coordinate, witness k = 2
        member = Sample(RING_B.poly([]), RING_B.poly([]))
        sample = Sample(RING_B.poly([0, 0, 1]), RING_B.poly([]))
        with pytest.raises(NonMemberSample) as info:
            small_set_attack(pairs_at([member, sample], EXT_B), self.TABLE)
        exc = info.value
        assert (exc.row, exc.witness) == (1, 2)
        assert str(exc) == "sample 1 lies outside R_q0 (witness k=2)"
        # a child process sends its exception through a pipe
        copy = pickle.loads(pickle.dumps(exc))
        assert (copy.row, copy.witness, str(copy)) == (1, 2, str(exc))

    def test_degree_one_extension_matches_fq_attack(self):
        # with n = 1 the subring is everything and the trace is the identity,
        # so the batch's pairs at ExtFieldCtx(1, alpha) and the scalar pairs
        # at alpha must agree verdict for verdict
        ring = RqContext((-1, 0, 1), PrimeModulus(5))  # x^2 - 1, root 4 of order 2
        m5 = PrimeModulus(5)
        alpha = 4
        ext1 = ExtFieldCtx(1, alpha, m5)
        table = build_sigma_table_trace(alpha, 5, (1, 1), 0.7)
        for seed in range(20):
            if seed % 2:
                _, samples = _plwe_samples(ring, GaussianSpec(0.7, True), 4, seed)
            else:
                samples = _uniform_samples(ring, 4, seed)
            fq = small_set_attack(_scalar_pairs(samples, alpha), table)
            tr = small_set_attack(pairs_at(samples, ext1), table)
            assert fq == tr


RING_X = RqContext((0, 1), PrimeModulus(13))  # f = x over F_13, root 0


class TestSmallValues:
    def test_exhaustive_single_sample_q5(self):
        ring = RqContext((0, 1), PrimeModulus(5))
        alpha = 0
        for a0, b0 in product(range(5), repeat=2):
            sample = Sample(ring.poly([a0]), ring.poly([b0]))
            verdict = small_set_attack(pairs_at([sample], alpha), quarter_mask(5))
            oracle = tuple(
                g for g in range(5) if in_quarter_value(b0 - a0 * g, 5)
            )
            assert verdict.survivors == oracle

    def test_zero_b_unit_a_survivor_count(self):
        alpha = 0
        sample = Sample(RING_X.poly([1]), RING_X.poly([0]))
        verdict = small_set_attack(pairs_at([sample], alpha), quarter_mask(13))
        assert set(verdict.survivors) == {g for g in range(13) if in_quarter_value(-g, 13)}
        assert len(verdict.survivors) == quarter_count(13)

    def test_trace_zero_error_keeps_true_value(self):
        from reference import trace

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
        verdict = small_set_attack(pairs_at(samples, EXT_B), quarter_mask(EXT_B.q))
        target = trace(eval_poly(inst.secret_for_tests(), ext_alpha(EXT_B)))
        assert target in verdict.survivors

    def test_trace_per_guess_survival_exact(self):
        # q = 5, n = 2: enumerate every member a and every b; each guess must
        # survive exactly (1/2 + 1/(2q)) of the 125 cases
        m5 = PrimeModulus(5)
        ring = RqContext((-2, 0, 1), m5)
        ext = ExtFieldCtx(2, 2, m5)
        members = [ring.poly([c, 0]) for c in range(5)]
        hits = {g: 0 for g in range(5)}
        total = 0
        for a_poly in members:
            for b0, b1 in product(range(5), repeat=2):
                sample = Sample(a_poly, ring.poly([b0, b1]))
                verdict = small_set_attack(pairs_at([sample], ext), quarter_mask(5))
                for g in verdict.survivors:
                    hits[g] += 1
                total += 1
        assert total == 125
        expected = Fraction(1, 2) + Fraction(1, 10)
        for g in range(5):
            assert Fraction(hits[g], total) == expected


# x^4 + 1 = (x^2 - 2)(x^2 - 3) over F_5, both factors irreducible
RING_X4P1_5 = RqContext((1, 0, 0, 0, 1), PrimeModulus(5))
EXT_X4P1_5 = ExtFieldCtx(2, 2, PrimeModulus(5))


def _usva_ring(N, q, alpha):
    m = -(pow(alpha, N, q) + 2 * alpha) % q
    return RqContext((m + q, 2) + (0,) * (N - 2) + (1,), PrimeModulus(q))


class TestUnbounded:
    def test_vote_count_is_constant_when_a_never_vanishes(self):
        # for invertible a_i the map g -> b_i - a_i*g is a bijection, so each
        # sample contributes exactly quarter_count(q) votes
        q = 13
        ring = _usva_ring(4, q, q - 1)
        alpha = q - 1
        rng = np.random.default_rng(9)
        samples = []
        while len(samples) < 11:
            s = uniform_oracle(ring, rng)
            if eval_poly(s.a, alpha) != 0:
                samples.append(s)
        decision = unbounded_small_values_attack(pairs_at(samples, alpha), 0.2)
        assert decision.votes == 11 * quarter_count(q)

    def test_small_q_distinguishing_accuracy(self):
        # the best candidate's hit count separates the classes; at q = 13
        # the union bound over the candidates is cheap enough for ell = 60
        q, N, ell, sigma = 13, 8, 60, 1.0
        ring = _usva_ring(N, q, q - 1)
        alpha = q - 1
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
            decision = unbounded_small_values_attack(pairs_at(samples, alpha), delta)
            wins += decision.is_plwe == truth_plwe
        assert wins / trials > 0.58

    def test_trace_mode_matches_fq_for_degree_one(self):
        # the batch's pairs at ExtFieldCtx(1, alpha) against scalar evaluation
        ring = RqContext((-1, 0, 1), PrimeModulus(5))
        alpha = 4
        ext1 = ExtFieldCtx(1, alpha, PrimeModulus(5))
        samples = _uniform_samples(ring, 9, 3)
        d_fq = unbounded_small_values_attack(_scalar_pairs(samples, alpha), 0.1)
        d_tr = unbounded_small_values_attack(pairs_at(samples, ext1), 0.1)
        assert d_fq == d_tr

    def test_hit_grid_row_groups_match_one_group(self):
        # at _HIT_GROUP = 0 every group of the hit grid is one row of q - 1
        # entries; at 2(q - 1) groups of two rows leave a short last group
        q = 3677
        ring, alpha = _usva_ring(8, q, q - 1), q - 1
        for samples in (_plwe_samples(ring, GaussianSpec(1.0, False), 25, 31)[1],
                        _uniform_samples(ring, 25, 32)):
            whole = unbounded_small_values_attack(pairs_at(samples, alpha), 0.3)
            for group in (0, 2 * (q - 1)):
                with mock.patch.object(attacks, "_HIT_GROUP", group):
                    assert unbounded_small_values_attack(pairs_at(samples, alpha), 0.3) == whole

    @given(
        st.sampled_from(["fq5", "fq13", "trace5"]),
        st.integers(1, 8),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_hit_counts_match_candidate_major_loop(self, case, ell, plwe, seed):
        # h_g from scalar evaluation and a plain loop over the candidates;
        # the aggregate count is their sum
        rng = np.random.default_rng(seed)
        if case == "trace5":
            ring, point, q, n = RING_X4P1_5, EXT_X4P1_5, 5, 2
            draw_a = lambda: uniform_rq0_poly(ring, point, rng)
        else:
            q, n = int(case[2:]), 1
            ring, point = _usva_ring(4, q, q - 1), q - 1
            draw_a = lambda: uniform_oracle(ring, rng).a
        inst = PlweInstance.generate(ring, GaussianSpec(0.7, True), rng)
        samples = [
            plwe_oracle(inst, rng, force_a=draw_a())
            if plwe
            else Sample(draw_a(), uniform_oracle(ring, rng).b)
            for _ in range(ell)
        ]
        pairs = []
        for s in samples:
            if n == 1:
                pairs.append((eval_poly(s.b, point), eval_poly(s.a, point)))
            else:
                a_val = eval_poly(s.a, ext_alpha(point))
                pairs.append((trace(eval_poly(s.b, ext_alpha(point))), a_val.coeffs[0]))
        n_inv = pow(n, -1, q)
        hits = [
            sum(in_quarter_value(n_inv * (t - u * g), q) for t, u in pairs)
            for g in range(q)
        ]
        for group in (attacks._HIT_GROUP, 0):  # 0: one sample per group
            with mock.patch.object(attacks, "_HIT_GROUP", group):
                decision = unbounded_small_values_attack(pairs_at(samples, point), 0.3)
            assert decision.best_hits == max(hits)
            assert decision.votes == sum(hits)
            assert decision.hit_threshold == hit_threshold(ell, q, 0.3)
            assert decision.is_plwe == (max(hits) >= decision.hit_threshold)


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


class TestLogDomainHitCounts:
    @given(
        st.one_of(
            st.sampled_from([2, 3, 5, 7]),
            st.integers(11, 4000).map(_next_prime),
            st.sampled_from([32749, 32771]),  # the last int16 and first int32 q
        ),
        st.integers(1, 60),
        st.sampled_from([0.0, 0.2, 1.0]),
        st.sampled_from(["default", 0, "2rows"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_modular_grid(self, q, ell, zero_share, group, seed):
        # rows with u = 0 are drawn with the given share; _HIT_GROUP = 0
        # makes every row group one row, 2(q - 1) groups of two rows
        rng = np.random.default_rng(seed)
        targets = rng.integers(0, q, size=ell)
        scales = np.where(rng.random(ell) < zero_share, 0, rng.integers(1, q, size=ell))
        hits = reference_hit_counts(targets, scales, q)
        limit = {"default": attacks._HIT_GROUP, "2rows": 2 * (q - 1)}.get(group, group)
        with mock.patch.object(attacks, "_HIT_GROUP", limit):
            decision = unbounded_small_values_attack(Pairs(targets, scales, q), 0.3)
            h0, by_log = attacks._quarter_hits(Pairs(targets, scales, q))
        assert decision.votes == int(hits.sum())
        assert decision.best_hits == int(hits.max())
        # votes alone is ell * quarter_count(q) on invertible rows, whatever
        # the candidate order: compare every candidate's count
        assert h0 == hits[0]
        assert by_log.tolist() == hits[generator_powers(q)].tolist()

    @pytest.mark.parametrize("q, dtype", [(3677, np.int16), (32749, np.int16), (32771, np.int32)])
    def test_tables_are_narrow_below_2_15(self, q, dtype):
        # (-q, q) fits in int16 exactly when q < 2**15
        windows, logs = attacks._log_tables(q)
        assert windows.dtype == logs.dtype == dtype
        doubled = windows
        while doubled.base is not None:  # the array G || G behind the view
            doubled = doubled.base
        assert doubled.nbytes + logs.nbytes == (3 * q - 2) * np.dtype(dtype).itemsize

    def test_column_sums_stay_inside_int16(self):
        # 33000 rows (1, 1) give g = 1 more than 2**15 - 1 hits at q = 3, so
        # a group of 2**15 rows or more would wrap its int16 column sum
        q = 3
        rng = np.random.default_rng(3)
        targets = np.r_[np.ones(33000, dtype=np.int64), rng.integers(0, q, 7000)]
        scales = np.r_[np.ones(33000, dtype=np.int64), rng.integers(1, q, 7000)]
        hits = reference_hit_counts(targets, scales, q)
        assert hits[1] > 2**15 - 1 and attacks._HIT_GROUP // (q - 1) >= 2**15
        h0, by_log = attacks._quarter_hits(Pairs(targets, scales, q))
        assert h0 == hits[0]
        assert by_log.tolist() == hits[generator_powers(q)].tolist()

    @pytest.mark.parametrize("q, ell", [(3677, 500), (32749, 50), (32771, 50)])
    def test_grid_temporaries_stay_within_the_group_cap(self, q, ell):
        # a group's grid (itemsize bytes per entry) and its two boolean masks
        # hold at most max(q - 1, _HIT_GROUP) entries each; the next group's
        # grid is built before the last one is freed, so at most two groups'
        # worth are live, besides O(q) hit counts and O(ell) row arrays
        rng = np.random.default_rng(q)
        pairs = Pairs(rng.integers(0, q, ell), rng.integers(1, q, ell), q)
        attacks._quarter_hits(pairs)  # builds the cached tables
        _, peak = _peak_bytes(lambda: attacks._quarter_hits(pairs))
        entries = max(q - 1, attacks._HIT_GROUP)
        itemsize = attacks._log_tables(q)[1].itemsize
        assert peak <= 2 * (itemsize + 2) * entries + 16 * q + 64 * ell

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 3677, 4099])
    def test_interval_edges(self, q):
        # targets just inside and outside the cyclic quarter interval
        # [c, c + w), for q = 1 and 3 (mod 4), against every scale for
        # small q and the scales 0, 1, 2, q - 2, q - 1 and five more for large q
        c, w = -(-3 * q // 4) % q, quarter_count(q)
        edges = np.array([c - 1, c, c + w - 1, c + w]) % q
        rng = np.random.default_rng(q)
        if q < 50:
            scales = np.arange(q)
        else:
            scales = np.r_[0, 1, 2, q - 2, q - 1, rng.integers(1, q, 5)]
        targets, scales = np.repeat(edges, scales.size), np.tile(scales, edges.size)
        hits = reference_hit_counts(targets, scales, q)
        h0, by_log = attacks._quarter_hits(Pairs(targets, scales, q))
        assert h0 == hits[0]
        assert by_log.tolist() == hits[generator_powers(q)].tolist()


class TestExtended:
    MASK = build_sigma_table_trace(ALPHA_2018, 4099, (1,) * 6, 0.7)

    def test_truncated_threshold_is_chunk_count(self):
        _, samples = _plwe_samples(RING_ORDER6, GaussianSpec(0.7, True), 30, 0)
        decision = extended_attack(pairs_at(samples, ALPHA_2018), 3, self.MASK, 6, p0=1.0)
        assert decision.threshold == 10
        assert decision.is_plwe

    def test_untruncated_threshold_value(self):
        _, samples = _plwe_samples(RING_ORDER6, GaussianSpec(0.7, False), 100, 1)
        decision = extended_attack(pairs_at(samples, ALPHA_2018), 5, self.MASK, 2, p0=0.954500)
        # ceil(20 * p0^10)
        assert decision.threshold == math.ceil(20 * 0.954500**10) == 13

    def test_remainder_samples_dropped(self):
        _, samples = _plwe_samples(RING_ORDER6, GaussianSpec(0.7, True), 7, 2)
        poisoned = samples[:6] + [Sample(RING_ORDER6.poly([]), RING_ORDER6.poly([1]))]
        full = extended_attack(pairs_at(poisoned, ALPHA_2018), 3, self.MASK, 6, p0=1.0)
        trimmed = extended_attack(pairs_at(samples[:6], ALPHA_2018), 3, self.MASK, 6, p0=1.0)
        assert (full.votes, full.threshold) == (trimmed.votes, trimmed.threshold)

    def test_chunking_is_deterministic(self):
        _, samples = _plwe_samples(RING_ORDER6, GaussianSpec(0.7, False), 40, 3)
        d1 = extended_attack(pairs_at(samples, ALPHA_2018), 5, self.MASK, 6, p0=0.954500)
        d2 = extended_attack(pairs_at(samples, ALPHA_2018), 5, self.MASK, 6, p0=0.954500)
        assert d1 == d2

    def test_insufficient_samples(self):
        _, samples = _plwe_samples(RING_ORDER6, GaussianSpec(0.7, True), 4, 4)
        with pytest.raises(InsufficientSamples):
            extended_attack(pairs_at(samples, ALPHA_2018), 5, self.MASK, 6, p0=1.0)

    def test_no_samples(self):
        with pytest.raises(NoSamples):
            extended_attack(NO_PAIRS, 5, self.MASK, 6, p0=1.0)


_MASK_13 = np.ones(13, dtype=bool)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda pairs: small_set_attack(pairs, _MASK_13), AttackError,
         "membership mask was built for a different modulus"),
        (lambda pairs: extended_attack(pairs, 2, _MASK_13, 6, p0=1.0), AttackError,
         "membership mask was built for a different modulus"),
        (lambda pairs: extended_attack(pairs, 0, TestExtended.MASK, 6, p0=1.0), ValueError,
         "chunk size must be >= 1"),
        (lambda pairs: build_sigma_table_trace(ALPHA_2018, 4099, (), 0.7), ValueError,
         "need at least one class"),
        (lambda pairs: build_sigma_table_trace(ALPHA_2018, 4099, (2, 0), 0.7), ValueError,
         "need at least one class"),
    ],
    ids=["small-set-mask-mod-13", "extended-mask-mod-13", "chunk-size-0", "no-class",
         "empty-class"],
)
def test_malformed_arguments_are_refused(call, error, message):
    _, samples = _plwe_samples(RING_ORDER6, GaussianSpec(0.7, True), 6, 0)
    with pytest.raises(error, match=message):
        call(pairs_at(samples, ALPHA_2018))


# (ring, point) pairs for the filter property: F_q roots, and binomial
# divisors y^2 - 2 of x^4 + 1 over F_5, y^2 - 3 of x^4 - 2 over F_7 and
# y^3 - 2 of x^6 - 4 over F_13
FILTER_POINTS = {
    "fq5": (_usva_ring(4, 5, 4), 4),
    "fq7": (_usva_ring(4, 7, 6), 6),
    "fq13": (_usva_ring(4, 13, 12), 12),
    "trace5": (RING_X4P1_5, EXT_X4P1_5),
    "trace7": (RqContext((-2, 0, 0, 0, 1), PrimeModulus(7)),
               ExtFieldCtx(2, 3, PrimeModulus(7))),
    "trace13": (RqContext((-4, 0, 0, 0, 0, 0, 1), PrimeModulus(13)),
                ExtFieldCtx(3, 2, PrimeModulus(13))),
}


def _scalar_pair(sample, point):
    """(t, u) by scalar evaluation: the tentative error is (t - u*g)/n."""
    if isinstance(point, ExtFieldCtx):
        alpha = ext_alpha(point)
        return trace(eval_poly(sample.b, alpha)), eval_poly(sample.a, alpha).coeffs[0]
    return eval_poly(sample.b, point), eval_poly(sample.a, point)


def _scalar_pairs(samples, point):
    """The Pairs of the samples by scalar evaluation: (t/n, u/n) mod q."""
    q = samples[0].a.ctx.q
    n_inv = pow(point.n if isinstance(point, ExtFieldCtx) else 1, -1, q)
    t, u = np.array([_scalar_pair(s, point) for s in samples], dtype=np.int64).T * n_inv % q
    return Pairs(t, u, q)


@st.composite
def _filter_cases(draw):
    """Samples in chunks of m0 plus a remainder; each chunk's a(alpha) = 0
    pattern is none, leading (the chunk opens with such samples) or all
    (no invertible sample)."""
    ring, point = FILTER_POINTS[draw(st.sampled_from(sorted(FILTER_POINTS)))]
    m0 = draw(st.integers(1, 4))
    patterns = draw(st.lists(st.sampled_from(["none", "leading", "all"]), min_size=1, max_size=5))
    rem = draw(st.integers(0, m0 - 1))
    plwe = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = PlweInstance.generate(ring, GaussianSpec(0.7, True), rng)
    zero_flags = []
    for pattern in patterns:
        lead = {"none": 0, "leading": draw(st.integers(1, m0)), "all": m0}[pattern]
        zero_flags += [i < lead for i in range(m0)]
    zero_flags += [draw(st.booleans()) for _ in range(rem)]
    samples = []
    for zero in zero_flags:
        if isinstance(point, ExtFieldCtx):
            a = uniform_rq0_poly(ring, point, rng)
        else:
            a = uniform_oracle(ring, rng).a
        if zero:
            u = _scalar_pair(Sample(a, a), point)[1]
            a = ring.poly([(a.coeffs[0] - u) % ring.q, *a.coeffs[1:]])
        if plwe:
            samples.append(plwe_oracle(inst, rng, force_a=a))
        else:
            samples.append(Sample(a, uniform_oracle(ring, rng).b))
    return point, m0, len(patterns), samples


def _naive_survivors(pairs, member, n):
    """Candidate-major loop over all of F_q."""
    q = member.size
    n_inv = pow(n, -1, q)
    return {g for g in range(q) if all(member[n_inv * (t - u * g) % q] for t, u in pairs)}


class TestFilterMatchesCandidateMajorLoop:
    @given(case=_filter_cases(), sigma=st.sampled_from([0.3, 0.6, 1.1]))
    @settings(max_examples=150, deadline=None)
    def test_chunked_and_basic_survivors(self, case, sigma):
        point, m0, chunks, samples = case
        n = point.n if isinstance(point, ExtFieldCtx) else 1
        a = point.a if isinstance(point, ExtFieldCtx) else point
        q = samples[0].a.ctx.q
        table = build_sigma_table_trace(a, q, (1, 1), sigma)
        quarter = attacks.quarter_mask(q)
        pairs = [_scalar_pair(s, point) for s in samples]
        for member in (table, quarter):
            expected = [
                _naive_survivors(pairs[c * m0 : (c + 1) * m0], member, n)
                for c in range(chunks)
            ]
            evaluated = pairs_at(samples[: chunks * m0], point)
            full, chunk, g = attacks._filter(
                evaluated.targets.reshape(chunks, m0), evaluated.scales.reshape(chunks, m0), member
            )
            got = [set(range(q)) if full[c] else set(g[chunk == c].tolist())
                   for c in range(chunks)]
            assert got == expected
            votes = sum(1 for survivors in expected if survivors)
            for max_pairs in (attacks._MAX_PAIRS, 0):  # 0: a few chunks per pass
                with mock.patch.object(attacks, "_MAX_PAIRS", max_pairs):
                    decision = extended_attack(pairs_at(samples, point), m0, member, 2, 1.0)
                assert decision.votes == votes
        assert small_set_attack(pairs_at(samples, point), table).survivors == tuple(
            sorted(_naive_survivors(pairs, table, n))
        )
        assert small_set_attack(pairs_at(samples, point), quarter).survivors == tuple(
            sorted(_naive_survivors(pairs, quarter, n))
        )


    @given(case=_filter_cases(), sigma=st.sampled_from([0.3, 0.6, 1.1]))
    @settings(max_examples=100, deadline=None)
    def test_single_sample_chunks_vote_as_the_filter(self, case, sigma):
        # at M0 = 1 the driver votes without a filter pass
        point, _, _, samples = case
        a = point.a if isinstance(point, ExtFieldCtx) else point
        q = samples[0].a.ctx.q
        evaluated = pairs_at(samples, point)
        for member in (build_sigma_table_trace(a, q, (1, 1), sigma), attacks.quarter_mask(q)):
            full, chunk, _ = attacks._filter(
                evaluated.targets[:, None], evaluated.scales[:, None], member
            )
            votes = int(full.sum()) + np.unique(chunk).size
            assert extended_attack(pairs_at(samples, point), 1, member, 2, 1.0).votes == votes


class TestVerdictShape:
    def test_verdict_classification(self):
        assert AttackVerdict(()).kind == VERDICT_NOT_PLWE
        assert AttackVerdict((3,)).kind == VERDICT_GUESS
        assert AttackVerdict((1, 2)).kind == VERDICT_NOT_ENOUGH
        # every outcome answers is_plwe: only an empty survivor set says no
        assert not AttackVerdict(()).is_plwe
        assert AttackVerdict((3,)).is_plwe and AttackVerdict((1, 2)).is_plwe

    def test_serialization(self):
        assert AttackVerdict((3,)).to_dict() == {"verdict": "guess", "guess": 3}
        assert AttackVerdict(()).to_dict() == {"verdict": "not_plwe"}
        assert Decision(5, 3).to_dict() == {
            "verdict": "plwe",
            "votes": 5,
            "threshold": 3,
        }
        assert Decision(2, 3).kind == "uniform"

    def test_hit_count_decision_reads_best_hits(self):
        # the aggregate count C decides nothing: a small C with a best
        # candidate at tau says PLWE, a large C with one below says uniform
        decision = HitCountDecision(10, best_hits=5, hit_threshold=5)
        assert decision.kind == "plwe" and decision.is_plwe
        assert decision.to_dict() == {
            "verdict": "plwe",
            "votes": 10,
            "best_hits": 5,
            "hit_threshold": 5,
        }
        assert HitCountDecision(30, best_hits=4, hit_threshold=5).kind == "uniform"

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 500), st.integers(1, 501))
    @settings(max_examples=200, deadline=None)
    def test_hit_count_decision_ignores_votes(self, votes, other, best_hits, tau):
        # the verdict is best_hits >= hit_threshold whatever C reads
        decision = HitCountDecision(votes, best_hits=best_hits, hit_threshold=tau)
        assert decision.is_plwe == (best_hits >= tau)
        assert decision.kind == HitCountDecision(other, best_hits, tau).kind


# degree-8 ring divisible by x^2 + 1 mod 4099 (so a = -1 has order 2)
RING_QUAD = RqContext((-2, 0, -2, 0, 0, 0, 1, 0, 1), M4099)
EXT_QUAD = ExtFieldCtx(2, 4098, M4099)


class TestTraceSmallValuesSoundness:
    def test_divisor_really_divides(self):
        G = generator_powers(4099)
        idx = binomial_logs(RING_QUAD, 2, G)
        assert (4098, 2) in zip(G[idx].tolist(), log_orders(idx, 4099).tolist())

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
            verdict = small_set_attack(pairs_at(samples, EXT_QUAD), quarter_mask(EXT_QUAD.q))
            assert verdict.kind != VERDICT_NOT_PLWE


# x^n - a irreducible mod q needs n | q - 1
_TRACE_PRIMES = {n: [p for p in range(29, 400) if is_prime(p) and (p - 1) % n == 0] for n in (2, 3)}


@st.composite
def _truncated_trace_cases(draw):
    """f = (x^n - a) h over Z with x^n - a irreducible mod q, and a sigma
    whose truncated errors keep every traced error inside the quarter
    interval.  The traced error (1/n) Tr(e(alpha)) is sum_t e_(nt) a^t, so
    with |e_k| <= E it stays below E * sum_t |c(a^t)| in magnitude.  The
    flag's 2*sigma_bar < q/4 bounds its spread only: with sigma between half
    and all of that limit, the true trace fell out of 574 of 2223 random
    8-sample batches."""
    n = draw(st.sampled_from([2, 3]))
    q = draw(st.sampled_from(_TRACE_PRIMES[n]))
    m = PrimeModulus(q)
    a = draw(st.sampled_from(irreducible_constants(q, n)))
    h = draw(st.lists(st.integers(-q, q), min_size=1, max_size=6)) + [1]
    f = [0] * (n + len(h))
    for j, c in enumerate(h):
        f[j] -= a * c
        f[j + n] += c
    ring = RqContext(tuple(f), m)
    weight = sum(abs(centered_value(pow(a, t, q), q)) for t in range(-(-ring.N // n)))
    bound = (q - 1) // (4 * weight)  # largest E with 4 * E * weight < q
    assume(bound >= 1)
    E = draw(st.integers(1, bound))
    # |x| <= 2*sigma < E + 1/2 before rounding, so |e| <= E
    sigma = (E + draw(st.floats(-0.5, 0.49))) / 2
    ext = ExtFieldCtx(n, a, m)
    assume(2 * block_structure(ext, ring.N, sigma).sigma_bar < q / 4)
    return ring, ext, sigma


class TestTruncatedTraceSoundness:
    @settings(max_examples=80, deadline=None)
    @given(_truncated_trace_cases(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_true_trace_always_survives(self, case, M, seed):
        ring, ext, sigma = case
        rng = np.random.default_rng(seed)
        secret = rng.integers(0, ring.q, size=ring.N)
        batch, _ = sample_batch(ring, GaussianSpec(sigma, True), ext, M, rng, secret=secret)
        verdict = small_set_attack(batch.pairs(ext), quarter_mask(ring.q))
        target = trace(eval_poly(ring.poly(secret.tolist()), ext_alpha(ext)))
        assert target in verdict.survivors
        assert verdict.kind != VERDICT_NOT_PLWE


class TestUniformRejectionTrace:
    def test_thirty_samples_reject_uniform_with_exact_table(self):
        # the exact 631-value table drives q*(|Sigma|/q)^30 to ~1e-21, so all
        # 200 uniform batches must come back NOT PLWE
        table = build_sigma_table_trace(2017, 4099, (2, 2, 2), 2.5)
        q, M, trials = 4099, 30, 200
        bound = 1 - q * (np.count_nonzero(table) / q) ** M
        assert bound > 1 - 1e-12
        rejected = 0
        for seed in range(trials):
            rng = np.random.default_rng([909, seed])
            samples = [
                Sample(uniform_rq0_poly(RING_B, EXT_B, rng),
                       RING_B.poly(rng.integers(0, q, size=23)))
                for _ in range(M)
            ]
            verdict = small_set_attack(pairs_at(samples, EXT_B), table)
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
            (2018, 4099, (1,) * 6, 0.7),
            (2017, 4099, (2, 2, 2), 2.5),
            (1, 13, (4,), 1.0),
            (4098, 4099, (4, 3), 2.5),
        ]
        for a, q, counts, sigma in cases:
            table = build_sigma_table_trace(a, q, counts, sigma)
            assert np.count_nonzero(table) <= small_set_size(counts, sigma).analytic

    def test_unit_weight_trace_table_is_interval(self):
        table = build_sigma_table_trace(1, 4099, (7,), 2.5)
        limit = math.floor(2 * math.sqrt(7) * 2.5)
        assert _residues(table) == frozenset(v % 4099 for v in range(-limit, limit + 1))


def _peak_bytes(build):
    """The result of build() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSigmaMask:
    """The numpy mask of build_sigma_table_trace against the set enumeration
    of reference.reference_sigma_values."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([p for p in range(3, 102) if is_prime(p)]),
        st.one_of(
            # r equal blocks, or the a = -1 classes of an odd coefficient count
            st.tuples(st.integers(1, 4), st.integers(1, 6)).map(lambda lr: (lr[0],) * lr[1]),
            st.integers(1, 4).map(lambda n: (n + 1, n)),
        ),
        st.floats(0.0, 60.0),
        st.sampled_from([None, -1, 0, 1]),
        st.data(),
    )
    def test_matches_set_enumeration(self, q, counts, sigma, near_cap, data):
        # sigma up to 60 takes 2*bound+1 past q for every q here
        a = data.draw(st.integers(0, q - 1))
        tuples = math.prod(2 * math.floor(2.0 * math.sqrt(c) * sigma) + 1 for c in counts)
        cap = 10**8 if near_cap is None else max(1, tuples + near_cap)
        if tuples > cap:
            with pytest.raises(TableTooLarge):
                build_sigma_table_trace(a, q, counts, sigma, cap)
            return
        table = build_sigma_table_trace(a, q, counts, sigma, cap)
        assert _residues(table) == reference_sigma_values(a, q, counts, sigma)
        assert np.count_nonzero(table) == len(reference_sigma_values(a, q, counts, sigma))
        assert not table.flags.writeable

    def test_offsets_past_q_give_the_full_mask_in_o_q_memory(self):
        # q near 2**22, r = 1 and 2*bound+1 = 4400001 > q: the offsets alone
        # would take more than max(q, _MAX_PAIRS) int64 entries
        q = 4194301
        table, peak = _peak_bytes(
            lambda: build_sigma_table_trace(1, q, (1,), 1.1e6)
        )
        assert table.all()
        assert peak <= 8 * max(q, attacks._MAX_PAIRS)

    def test_rounds_hold_bounded_temporaries(self, monkeypatch):
        # round 2 adds 2001 offsets to 2001 residues: 4e6 int64 sums at once
        # unless the residues go in groups of max(q, _MAX_PAIRS) entries
        monkeypatch.setattr(attacks, "_MAX_PAIRS", 2**12)
        q = 4099
        table, peak = _peak_bytes(
            lambda: build_sigma_table_trace(q - 1, q, (1, 1), 500.0)
        )
        assert _residues(table) == frozenset(v % q for v in range(-2000, 2001))
        # a few temporaries of at most max(q, _MAX_PAIRS) int64 entries each
        assert peak <= 6 * 8 * max(q, attacks._MAX_PAIRS)

    def test_zero_bound_rounds_add_nothing(self):
        # Falcon-1024's root 7 has order 2048; at sigma = 0.2 each of the
        # 2048 rounds adds only x = 0, so the mask is {0} at once, no slower
        # than the set enumeration it replaced
        table = build_sigma_table_trace(7, 12289, (1,) * 2048, 0.2)
        assert _residues(table) == frozenset({0})

        def best(build):
            return min(timeit.repeat(build, number=1, repeat=5))

        assert best(lambda: build_sigma_table_trace(7, 12289, (1,) * 2048, 0.2)) <= best(
            lambda: reference_sigma_values(7, 12289, (1,) * 2048, 0.2)
        )
