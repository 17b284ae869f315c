import dataclasses
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plwe_audit import analysis, cli, instances
from plwe_audit.analysis import (
    DUAL_SERIES_BELOW,
    DomainError,
    PointVuln,
    _dual_series,
    _erf_series,
    _hit_bound,
    _per_sample_mass,
    binomial_cdf,
    block_structure,
    block_structures,
    class_counts,
    delta_probability,
    extended_threshold,
    f_of_r,
    hit_threshold,
    in_quarter_residues,
    minimal_samples,
    monte_carlo_delta,
    posterior_bounds,
    quarter_count,
    quarter_mask,
    scan_instance,
)
from plwe_audit.campaign import PreconditionRefused, build_plan, config_from_dict
from plwe_audit.fields import ExtFieldCtx, PrimeModulus, is_prime
from plwe_audit.instances import (
    KYBER_STYLE_RING,
    TRACE_INSTANCE_A,
    TRACE_INSTANCE_B,
    TRACE_RING_A,
    USVA_INSTANCES,
)
from plwe_audit.rings import eval_matrix, generator_powers, load_ring_doc
from plwe_audit.samplers import NORMAL_DRAW_MAX
from reference import (
    _erf_series as two_counter_erf_series,
    _per_sample_mass as family_per_sample_mass,
    exact_binomial_cdf,
    in_quarter_value,
    irreducible_constants,
    minimal_samples as family_minimal_samples,
    posterior_bounds as family_posterior_bounds,
    reference_block_structure,
    reference_cumulative_binomial,
    reference_hit_threshold,
    reference_monte_carlo_delta,
    whole_array_monte_carlo_delta,
)

P0 = 0.954500
FOUR_ROOT_TWO = 4.0 * math.sqrt(2.0)
# monte_carlo_delta against its whole-array form: every sigma_bar at every
# modulus with a last partial block (10**5 + 7 = 65536 + 34471 draws), and
# the campaign's 10**6 draws along both axes
MC_MODULI = (7, 2887, 3677, 4111, 8380417, 2**61 - 1)
MC_SIGMAS = (0.3, 8.0, 128.0, 919.0, 3.3e4, 1e9, 1e15, 1e20)
MC_CASES = (
    [(q, s, 10**5 + 7) for q in MC_MODULI for s in MC_SIGMAS]
    + [(3677, s, 10**6) for s in MC_SIGMAS]
    + [(q, 3.3e4, 10**6) for q in MC_MODULI if q != 3677]
)


def _assert_hit_bound(k, s):
    """_hit_bound(k, s) against round(s*z) <= k over the floats z next to
    (k + 1/2)/s: true up to the bound and false past it."""
    z_star = _hit_bound(k, s)
    if z_star == math.inf:
        assert round(s * NORMAL_DRAW_MAX) <= k
        return
    assert round(s * z_star) <= k < round(s * math.nextafter(z_star, math.inf))
    z = (k + 0.5) / s
    for _ in range(40):
        z = math.nextafter(z, 0.0)
    for _ in range(80):
        assert (round(s * z) <= k) == (z <= z_star), (k, s, z, z_star)
        z = math.nextafter(z, math.inf)


class TestHitBound:
    @pytest.mark.parametrize("k", [0, 1, 918, 919, 1027, 1028])
    def test_ties_round_to_even(self, k):
        # at sigma_bar = 2**e the product (k + 1/2)/s * s is k + 1/2 exactly:
        # an even k keeps that draw, an odd k drops it
        powers = [2.0**e for e in range(-3, 12) if round(2.0**e * NORMAL_DRAW_MAX) > k]
        assert len(powers) >= 5
        for s in powers:
            z = (k + 0.5) / s
            assert s * z == k + 0.5
            assert (_hit_bound(k, s) >= z) == (k % 2 == 0)
            _assert_hit_bound(k, s)

    def test_against_the_neighbouring_floats(self):
        rng = np.random.default_rng(83)
        for _ in range(400):
            k = int(rng.integers(0, 2**21))
            s = float((k + 0.5) / rng.uniform(0.05, NORMAL_DRAW_MAX))
            _assert_hit_bound(k, s)
            _assert_hit_bound(k, float(2.0 ** np.floor(np.log2(s))))

    @pytest.mark.parametrize("k", [0, 1, 919, 1027])
    def test_every_draw_hits_below_the_draw_bound(self, k):
        # round(16 * s) <= k: no standard normal draw leaves [-k, k]
        edge = (k + 0.5) / NORMAL_DRAW_MAX
        for s in (0.0, 5e-324, 1e-300, edge, math.nextafter(edge, 0.0)):
            assert (_hit_bound(k, s) == math.inf) == (round(s * NORMAL_DRAW_MAX) <= k)
            _assert_hit_bound(k, s)
        _assert_hit_bound(k, math.nextafter(edge, math.inf))


class TestOffsets:
    def test_sign_by_residue(self):
        # a uniform residue's quarter mass quarter_count(q)/q is 1/2 +- 1/(2q),
        # the sign fixed by q mod 4; big_delta and hit_threshold read it so
        for q in filter(is_prime, range(3, 400, 2)):
            offset = Fraction(1, 2 * q) if q % 4 == 1 else Fraction(-1, 2 * q)
            assert Fraction(quarter_count(q), q) - Fraction(1, 2) == offset

    def test_quarter_residues_past_two_to_the_61(self):
        # 4*v leaves int64 from v = 2**61 on and wrapped 0.6q into the interval
        q = 2**62 - 57
        assert is_prime(q)
        v = [0, 1, q // 4, q // 4 + 1, q // 2, int(0.6 * q), (3 * q + 3) // 4 - 1,
             (3 * q + 3) // 4, q - 1]
        got = in_quarter_residues(np.array(v, dtype=np.int64), q).tolist()
        assert got == [in_quarter_value(x, q) for x in v]

    def test_quarter_count(self):
        assert quarter_count(13) == 7
        assert quarter_count(4099) == 2049
        # the unbounded attack compares with the cyclic interval [c, c + w),
        # c = ceil(3q/4) mod q, w = quarter_count(q); q = 2 holds only 0
        assert quarter_count(2) == 1
        for q in range(2, 400):
            mask = quarter_mask(q)
            assert quarter_count(q) == np.count_nonzero(mask)
            c = -(-3 * q // 4) % q
            interval = np.zeros(q, dtype=bool)
            interval[(c + np.arange(quarter_count(q))) % q] = True
            assert interval.tolist() == mask.tolist()


class TestSigmaBar:
    def test_minus_one_root(self):
        m = PrimeModulus(3677)
        bs = block_structure(ExtFieldCtx(1, 3676, m), 256, 8.0)
        assert PointVuln(1, 3676, bs, ()).to_dict()["case"] == "pm_one"
        assert bs.sigma_bar == pytest.approx(math.sqrt(256) * 8.0)

    def test_unit_trace_weight(self):
        # y^2 + 1 is irreducible mod 11, and its weights (-1)^k are units
        bs = block_structure(ExtFieldCtx(2, -1, PrimeModulus(11)), 14, 2.0)  # 7 per coordinate
        assert bs.sigma_bar == pytest.approx(math.sqrt(7) * 2.0)

    def test_small_order_uses_centered_powers(self):
        # the centered powers of 698 mod 2887 are 1, 698, -699, 85 apiece
        m = PrimeModulus(2887)
        bs = block_structure(ExtFieldCtx(1, 698, m), 256, 8.0)
        assert PointVuln(1, 698, bs, ()).to_dict()["case"] == "small_order"
        assert (bs.order, bs.counts) == (3, (85, 85, 85))
        expected = math.sqrt(85 * 64 * (1 + 698**2 + 699**2))
        assert bs.sigma_bar == pytest.approx(expected)

    def test_large_order_flattens_probability(self):
        m = PrimeModulus(2887)
        bs = block_structure(ExtFieldCtx(1, 698, m), 256, 8.0)
        rep = delta_probability(2887, bs.sigma_bar)
        assert abs(rep.p_event - 0.5) < 1e-4

    def test_general_case(self):
        # order 12 > N = 4: four weights 1, 2, 4, 8 = -5 mod 13, one apiece
        m = PrimeModulus(13)
        bs = block_structure(ExtFieldCtx(1, 2, m), 4, 1.0)
        assert PointVuln(1, 2, bs, ()).to_dict()["case"] == "general"
        assert bs.counts == (1, 1, 1, 1)
        assert bs.sigma_bar == pytest.approx(math.sqrt(1 + 4 + 16 + 25))


class TestDeltaProbability:
    def test_large_ratio_saturates(self):
        q = 3677
        rep = delta_probability(q, q / (16.0 * math.sqrt(2.0)))
        assert rep.ratio == pytest.approx(16.0)
        assert rep.ratio >= FOUR_ROOT_TWO
        assert abs(rep.p_event - 1.0) < 1e-6

    def test_flat_limit_delta_margin(self):
        # order-3 root at q = 2887: the series sits at 1/2, so the whole
        # margin is the uniform offset 1/(2q)
        rep = delta_probability(2887, 72857.7)
        assert rep.big_delta == pytest.approx(0.000173, abs=2e-5)

    def test_instance_4081_margin(self):
        point = ExtFieldCtx(1, 1055, PrimeModulus(4111))
        rep = delta_probability(4111, block_structure(point, 256, 8.0).sigma_bar)
        assert rep.big_delta == pytest.approx(0.0001216, abs=2e-5)

    def test_against_monte_carlo_oracle(self):
        q = 3677
        sbar = q / 4.0
        rep = delta_probability(q, sbar)
        mc = monte_carlo_delta(q, sbar, np.random.default_rng(41))
        assert abs((rep.p_event - 0.5) - mc) < 2e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            delta_probability(13, 0.0)

    @pytest.mark.parametrize("q", [3677, 4099])
    @pytest.mark.parametrize("sbar", [0.5, 128.0, 1e4, 1e12])
    def test_histogram_equals_count_mod_q(self, q, sbar):
        # the same stream counted per draw mod q; at 1e12 the rounded draws
        # span more values than there are draws, so they are reduced first
        seed = [47, q, int(2 * sbar)]
        got = monte_carlo_delta(q, sbar, np.random.default_rng(seed))
        assert got == reference_monte_carlo_delta(q, sbar, np.random.default_rng(seed))
        x = np.rint(np.random.default_rng(seed).normal(0.0, sbar, size=10**6))
        assert (x.max() - x.min() >= 10**6) == (sbar == 1e12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("q, sbar, draws", MC_CASES)
    def test_blocks_equal_the_whole_array_oracle(self, q, sbar, draws):
        # the bincount, int64 and Python-int reductions of the blocks, and
        # the stream drawn block by block, against one normal call
        seed = [67, q % 10**6, int(sbar) % 10**6, draws]
        got = monte_carlo_delta(q, sbar, np.random.default_rng(seed), draws=draws)
        assert got == whole_array_monte_carlo_delta(q, sbar, np.random.default_rng(seed), draws)

    @pytest.mark.parametrize("sbar", [3.3e4, 128.0])
    def test_draws_are_held_one_block_at_a_time(self, sbar):
        # 10**6 draws as float64 are 8 MB, and the whole-array form peaks near
        # 18 MB; one block of 2**16 draws is 512 KiB, on the wrapped path
        # (3.3e4) and the threshold path (128) alike
        tracemalloc.start()
        try:
            monte_carlo_delta(3677, sbar, np.random.default_rng(71))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_draws_past_int64_are_reduced_exactly(self):
        # at sigma_bar = 1e20 most rounded draws leave int64; the cast of
        # them made the estimate -0.463 where the series gives 0
        q, sbar, seed, draws = 3677, 1e20, [53, 3677], 10**5
        got = monte_carlo_delta(q, sbar, np.random.default_rng(seed), draws=draws)
        x = np.rint(np.random.default_rng(seed).normal(0.0, sbar, size=draws))
        residues = [int(v) % q for v in x.tolist()]
        hits = sum(4 * r < q or 4 * r >= 3 * q for r in residues)
        assert got == hits / draws - 0.5
        assert abs(got - delta_probability(q, sbar).delta) < 0.01

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_draws_are_reduced_exactly_above_two_to_the_53(self):
        # float(q) = 2**61 is not q, so fmod would reduce by the wrong
        # modulus, and a bincount over all q residues asked 8q bytes
        q, sbar, seed, draws = 2**61 - 1, 1e20, [59, 61], 10**4
        got = monte_carlo_delta(q, sbar, np.random.default_rng(seed), draws=draws)
        x = np.rint(np.random.default_rng(seed).normal(0.0, sbar, size=draws))
        hits = sum(in_quarter_value(int(v), q) for v in x.tolist())
        assert got == hits / draws - 0.5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("q", [3677, 4111, 12289, 8380417])
    @pytest.mark.parametrize("side", ["threshold", "wrapped"])
    def test_threshold_path_ends_where_draws_can_wrap(self, monkeypatch, q, side):
        # q = 3677 and 12289 are 1 mod 4, 4111 and 8380417 are 3 mod 4; the
        # threshold path runs while NORMAL_DRAW_MAX * sigma_bar < q - K - 1,
        # and _block_hits counts from that sigma_bar on
        k = (q - 1) // 4
        edge = (q - k - 1) / NORMAL_DRAW_MAX
        assert NORMAL_DRAW_MAX * edge == q - k - 1
        sbar = math.nextafter(edge, 0.0) if side == "threshold" else edge
        calls, block_hits = [], analysis._block_hits
        monkeypatch.setattr(
            analysis, "_block_hits", lambda x, q: calls.append(q) or block_hits(x, q)
        )
        seed, draws = [73, q], 10**5 + 7
        got = monte_carlo_delta(q, sbar, np.random.default_rng(seed), draws=draws)
        assert got == whole_array_monte_carlo_delta(q, sbar, np.random.default_rng(seed), draws)
        assert len(calls) == (0 if side == "threshold" else 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sbar", [1e-300, 5e-324])
    def test_tiny_sigma_bar_hits_every_draw(self, sbar):
        # (K + 1/2) / sigma_bar overflows at 5e-324; every draw rounds to 0
        for q in (3677, 4111):
            seed = [79, q]
            got = monte_carlo_delta(q, sbar, np.random.default_rng(seed), draws=10**5 + 7)
            want = whole_array_monte_carlo_delta(q, sbar, np.random.default_rng(seed), 10**5 + 7)
            assert got == want == 0.5

    def test_dual_and_erf_series_agree(self):
        for ratio in np.geomspace(0.1, 50.0, 80):
            p, _ = _erf_series(ratio)
            delta, _ = _dual_series(ratio)
            assert abs((p - 0.5) - delta) < 1e-12

    @given(st.floats(0.1, 1e300))
    @settings(max_examples=300, deadline=None)
    def test_erf_series_matches_the_two_counter_form(self, ratio):
        # the grid of test_dual_and_erf_series_agree lies in [0.1, 50]
        p, terms = _erf_series(ratio)
        want_p, want_terms = two_counter_erf_series(ratio)
        assert (p.hex(), terms) == (want_p.hex(), want_terms)

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 1.5, 3.0, 6.0])
    def test_both_series_match_monte_carlo(self, ratio):
        q = 4099
        sbar = q / (math.sqrt(2.0) * ratio)
        mc = monte_carlo_delta(q, sbar, np.random.default_rng([43, int(10 * ratio)]))
        assert abs(_dual_series(ratio)[0] - mc) < 2e-3
        assert abs(_erf_series(ratio)[0] - 0.5 - mc) < 2e-3

    def test_crossover_picks_the_shorter_series(self):
        below, above = DUAL_SERIES_BELOW * 0.99, DUAL_SERIES_BELOW
        assert f_of_r(below) == 0.5 + _dual_series(below)[0]
        assert f_of_r(above) == _erf_series(above)[0]

    def test_large_sigma_needs_one_term(self):
        # the erf series sums about 8/ratio terms: 1.6 million here, and
        # 1.6e12 at sigma_bar = 1e12, which never finished
        rep = delta_probability(7, 1e6)
        assert rep.ratio < DUAL_SERIES_BELOW and _dual_series(rep.ratio)[1] == 1
        assert rep.delta == 0.0


class TestFofR:
    def test_upper_endpoint(self):
        assert f_of_r(FOUR_ROOT_TWO) > 0.95

    def test_uniform_limit(self):
        assert abs(f_of_r(1e-3) - 0.5) < 1e-3

    def test_monotone_grid(self):
        grid = [FOUR_ROOT_TWO * (i + 1) / 1000.0 for i in range(1000)]
        values = [f_of_r(r) for r in grid]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            f_of_r(0.0)
        with pytest.raises(DomainError):
            f_of_r(-1.0)


class TestCumulativeBinomial:
    def test_edges(self):
        assert binomial_cdf(5, 0.3)[6] == 1.0
        assert binomial_cdf(5, 0.3)[0] == 0.0
        assert binomial_cdf(2, 0.5)[1] == pytest.approx(0.25)

    def test_large_n_stable(self):
        v = binomial_cdf(1_000_000, 0.5)[500_001]
        assert 0.49 < v < 0.51

    def test_decreasing_in_p(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            k = int(rng.integers(0, n))
            p1, p2 = sorted(rng.uniform(0.01, 0.99, size=2))
            assert binomial_cdf(n, p2)[k + 1] <= binomial_cdf(n, p1)[k + 1] + 1e-12

    @given(st.integers(1, 30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_rational(self, n, data):
        k = data.draw(st.integers(0, n))
        num = data.draw(st.integers(0, 64))
        p = Fraction(num, 64)
        exact = sum(
            Fraction(math.comb(n, i)) * p**i * (1 - p) ** (n - i) for i in range(k + 1)
        )
        assert binomial_cdf(n, float(p))[k + 1] == pytest.approx(
            float(exact), abs=1e-12
        )


def _worst_relative_error(got, want, floor=1e-300):
    return max((abs(g - w) / w for g, w in zip(got, want, strict=True) if w >= floor), default=0.0)


def _binomial_ps(rng, count):
    # p anywhere in (0, 1), on a 1/64 grid, and near either end
    draws = (
        lambda: rng.uniform(0.0, 1.0),
        lambda: int(rng.integers(1, 64)) / 64,
        lambda: rng.uniform(0.0, 1e-3),
        lambda: 1.0 - rng.uniform(0.0, 1e-3),
    )
    return [draws[i % len(draws)]() for i in range(count)]


class TestBinomialCdf:
    """binomial_cdf's contract: relative error at most 1e-12 wherever the
    value is at least 1e-300, against exact rational sums for n <= 2000 and
    scipy's incomplete beta where that stays exact (above 1e-240)."""

    def test_exact_sums_up_to_60(self):
        rng = np.random.default_rng(31)
        for n in range(61):
            for p in _binomial_ps(rng, 8):
                assert _worst_relative_error(binomial_cdf(n, p), exact_binomial_cdf(n, p)) <= 1e-12, (n, p)

    def test_exact_sums_up_to_2000(self):
        # the deep lower tails, down to 1e-300, where betainc is off
        rng = np.random.default_rng(32)
        for n, p in zip((2000, 1726, 1381, 640), (0.5, 0.34375, *_binomial_ps(rng, 2))):
            assert _worst_relative_error(binomial_cdf(n, p), exact_binomial_cdf(n, p)) <= 1e-12, (n, p)

    def test_incomplete_beta_up_to_2000(self):
        rng = np.random.default_rng(33)
        for p in _binomial_ps(rng, 24):
            n = int(rng.integers(61, 2001))
            want = [reference_cumulative_binomial(k, n, p) for k in range(-1, n + 1)]
            assert _worst_relative_error(binomial_cdf(n, p), want, 1e-240) <= 1e-12, (n, p)

    def test_edges(self):
        assert binomial_cdf(0, 0.3) == [0.0, 1.0]
        assert binomial_cdf(3, 0.0) == [0.0, 1.0, 1.0, 1.0, 1.0]
        assert binomial_cdf(3, 1.0) == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert binomial_cdf(1000, 0.5)[-1] == 1.0
        for p in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                binomial_cdf(5, p)

    @given(st.integers(0, 300), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), st.data())
    @settings(max_examples=80, deadline=None)
    def test_cumulative_binomial_matches_the_incomplete_beta(self, n, p, data):
        # equal at k in {-1, n} and at p in {0, 1}, close elsewhere
        k = data.draw(st.integers(-1, n))
        got, want = binomial_cdf(n, p)[k + 1], reference_cumulative_binomial(k, n, p)
        if not (0 <= k < n and 0.0 < p < 1.0):
            assert got == want
        elif want >= 1e-240:
            assert abs(got - want) <= 1e-12 * want

    def test_hit_threshold_equals_the_incomplete_beta_form(self):
        # a seeded sample of the grid: 14 primes, sigma_bar = f q for 13
        # fractions f, ell in 1..79 and 100..1000
        primes = (5, 7, 13, 17, 97, 257, 769, 2887, 3329, 3677, 4099, 4111, 7681, 12289)
        fractions = (0.01, 0.02, 0.05, 0.08, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3, 0.4, 0.6, 1.0)
        ells = (*range(1, 80), *range(100, 1001, 100))
        rng = np.random.default_rng(34)
        for _ in range(300):
            q = int(rng.choice(primes))
            delta = delta_probability(q, float(rng.choice(fractions)) * q).delta
            ell = int(rng.choice(ells))
            want = reference_hit_threshold(ell, q, delta)
            assert hit_threshold(ell, q, delta) == want, (ell, q, delta)


BOUND_MODULI = [5, 13, 3677, 4099, 12289]
# the moduli and targets at which the quarter interval's least M is pinned
# to the family-keyed oracle's
SWEEP_PRIMES = [q for q in range(3, 20000, 2) if is_prime(q)]
SWEEP_TARGETS = (0.5, 0.9, 0.99, 0.999)


def _bits(bounds) -> list:
    return [None if v is None else v.hex() for v in dataclasses.astuple(bounds)]


class TestPosteriorBounds:
    @pytest.mark.parametrize(
        "size,r,M,figure",
        [
            (3010, 6, 350, 0.861),
            (3010, 6, 500, 0.998),
            (3471, 3, 350, 0.629),
            (3471, 3, 500, 0.993),
        ],
    )
    def test_published_vote_posteriors(self, size, r, M, figure):
        b = posterior_bounds(4099, size, r, False, M)
        assert b.vote_posterior == pytest.approx(figure, abs=0.02)

    def test_truncated_not_plwe_is_certain(self):
        b = posterior_bounds(4099, 61, 6, True, 10)
        assert b.not_plwe_posterior == 1.0
        assert b.success_on_plwe == 1.0

    def test_small_values_forms(self):
        b = posterior_bounds(13, quarter_count(13), 1, False, 40)
        u = 0.5 + 1.0 / 26.0
        assert b.vote_posterior == pytest.approx(1 - 13 * (u / P0) ** 40)
        assert b.success_on_uniform == pytest.approx(1 - 13 * u**40)
        assert b.success_on_plwe == pytest.approx(P0**40)

    def test_minimal_samples_brackets_published_run(self):
        m = minimal_samples(4099, 3471, 3, False, 0.99)
        assert 350 < m <= 500
        b = posterior_bounds(4099, 3471, 3, False, m)
        assert b.vote_posterior >= 0.99

    def test_overflowing_union_bound_is_vacuous(self):
        # q * (size/q)^M exceeds a float: the bound reads -inf
        b = posterior_bounds(12289, 1e300, 2048, False, 5)
        assert b.vote_posterior == b.success_on_uniform == -math.inf

    @given(
        st.booleans(),
        st.booleans(),
        st.sampled_from(BOUND_MODULI),
        st.floats(0.01, 0.9999),
        st.floats(0.001, 1.0),
        st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_minimal_samples_is_the_least_m_reaching_the_target(
        self, quarter, truncated, q, target, share, r
    ):
        size, r = (quarter_count(q), 1) if quarter else (share * q, r)
        m = minimal_samples(q, size, r, truncated, target)
        posterior = lambda M: posterior_bounds(q, size, r, truncated, M).vote_posterior
        if m is None:
            # a wrong candidate passes every sample: q * x^M >= q for all M
            assert posterior(1) < target and posterior(10**6) < target
        else:
            assert posterior(m) >= target
            assert m == 1 or posterior(m - 1) < target

    def test_minimal_samples_unreachable(self):
        # |Sigma| = q: a wrong candidate passes every sample, in both modes
        for truncated in (False, True):
            assert minimal_samples(4099, 4099.0, 1, truncated, 0.99) is None

    @given(
        st.booleans(),
        st.sampled_from(SWEEP_PRIMES),
        st.floats(0.001, 1.0),
        st.integers(1, 2048),
        st.integers(1, 2000),
        st.floats(0.01, 0.9999),
    )
    @settings(max_examples=300, deadline=None)
    def test_small_set_forms_equal_the_family_oracle(self, truncated, q, share, r, M, target):
        size = share * q
        old = family_posterior_bounds("small_set", truncated, M=M, q=q, sigma_size=size, r=r)
        assert _bits(posterior_bounds(q, size, r, truncated, M)) == _bits(old)
        assert minimal_samples(q, size, r, truncated, target) == family_minimal_samples(
            "small_set", truncated, target, q=q, sigma_size=size, r=r
        )

    @given(
        st.booleans(),
        st.sampled_from(SWEEP_PRIMES),
        st.integers(1, 2000),
        st.floats(0.01, 0.9999),
    )
    @settings(max_examples=300, deadline=None)
    def test_quarter_forms_match_the_family_oracle(self, truncated, q, M, target):
        # the adjusted share qc/(q*p0) is the oracle's (qc/q)/p0 within one
        # ulp, and the success bounds are the oracle's bit for bit; the
        # union term q*x^M of the vote posterior turns the share's ulp into
        # M of its own, plus the roundings of its log and exp
        new = posterior_bounds(q, quarter_count(q), 1, truncated, M)
        old = family_posterior_bounds("small_values", truncated, M=M, q=q)
        assert _bits(new)[1:] == _bits(old)[1:]
        assert math.isclose(1.0 - new.vote_posterior, 1.0 - old.vote_posterior,
                            rel_tol=M * 2**-48, abs_tol=2**-52)
        x_new = _per_sample_mass(q, quarter_count(q), 1, truncated)
        x_old = family_per_sample_mass("small_values", truncated, q, None, None)
        assert (x_new[0], x_new[2]) == (x_old[0], x_old[2])
        assert abs(x_new[1] - x_old[1]) <= math.ulp(x_old[1])
        assert minimal_samples(q, quarter_count(q), 1, truncated, target) == (
            family_minimal_samples("small_values", truncated, target, q=q)
        )

    def test_quarter_min_m_sweep_equals_the_family_oracle(self):
        # every odd prime below 20000, both modes and four targets: the
        # last-bit change of the adjusted share moves no M
        for q in SWEEP_PRIMES:
            for truncated in (False, True):
                for target in SWEEP_TARGETS:
                    assert minimal_samples(q, quarter_count(q), 1, truncated, target) == (
                        family_minimal_samples("small_values", truncated, target, q=q)
                    ), (q, truncated, target)


class TestThresholds:
    @given(
        st.integers(1, 40),
        st.sampled_from([5, 7, 13, 3677, 4099]),
        st.floats(-0.5, 0.5, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_hit_threshold_is_exact_argmin(self, ell, q, delta):
        # exact rational error sums for every tau, argmin with exact ties to
        # the larger tau; float rounding may only swap taus whose exact sums
        # differ, and by less than 1e-9
        p_uniform = Fraction(quarter_count(q), q)
        p_true = Fraction(1, 2) + Fraction(delta)

        def at_least(p):  # [P(Bin(ell, p) >= tau) for tau in 0..ell+1]
            tails = [Fraction(0)]
            for i in range(ell, -1, -1):
                tails.append(tails[-1] + math.comb(ell, i) * p**i * (1 - p) ** (ell - i))
            return tails[::-1]

        errors = [
            min(Fraction(1), q * fp) + 1 - hit
            for fp, hit in zip(at_least(p_uniform), at_least(p_true))
        ]
        best = min(errors)
        want = max(tau for tau, err in enumerate(errors) if err == best)
        tau = hit_threshold(ell, q, delta)
        assert tau == want or 0 < errors[tau] - best < 1e-9

    @given(st.integers(1, 1000), st.sampled_from([1.0, P0]), st.integers(1, 199), st.data())
    @settings(max_examples=300, deadline=None)
    def test_extended_threshold_is_exact(self, chunks, p0, m0, data):
        r = data.draw(st.integers(1, 199 // m0))
        want = math.ceil(chunks * Fraction(p0) ** (m0 * r))
        assert extended_threshold(chunks, p0, m0, r) == want

    @pytest.mark.parametrize("chunks, m0, r", [(1, 16384, 1), (40, 2700, 6), (10**6, 10**5, 4)])
    def test_extended_threshold_is_at_least_one(self, chunks, m0, r):
        # untruncated, p0^(M0*r) underflows to 0.0 once M0*r passes about
        # 16000; the threshold stays 1, so a vote without a voting chunk
        # reads uniform
        assert P0 ** (m0 * r) == 0.0
        assert extended_threshold(chunks, P0, m0, r) == 1

    @given(
        st.integers(1, 300),
        st.sampled_from([3, 5, 7, 13, 3677, 4099]),
        st.floats(-0.5, 0.5, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_hit_threshold_needs_a_hit(self, ell, q, delta):
        # tau = 0 and tau = ell + 1 both err with total probability 1 (a
        # false alarm for sure, a miss for sure), and the tie goes to ell + 1:
        # a batch with no hit at all is never called PLWE
        assert 1 <= hit_threshold(ell, q, delta) <= ell + 1

    def test_hit_threshold_without_power_is_unreachable(self):
        # every tau errs with total probability >= 1, so the tie rule picks
        # ell + 1 and no batch is called PLWE
        assert hit_threshold(50, 3677, 0.05) == 51
        assert hit_threshold(1, 13, 0.0) == 2
        # criterion 9's instance: the true candidate always hits
        assert hit_threshold(50, 3677, 0.5) == 50

    def test_hit_threshold_domain(self):
        with pytest.raises(DomainError):
            hit_threshold(10, 13, 0.6)
        with pytest.raises(ValueError):
            hit_threshold(0, 13, 0.2)


class TestScanner:
    def test_trace_ring_a_flags_cubic_divisor(self):
        ctx = load_ring_doc(TRACE_RING_A)
        report = scan_instance(ctx, 0.7, truncated=False)
        entry = next(f for f in report.factors if f.n == 3 and f.a == 2018)
        assert entry.order == 6
        assert entry.blocks.n_terms == 7 and entry.blocks.counts == (1,) * 6
        flag = next(f for f in entry.flags if f.attack == "small_set")
        assert flag.applicable
        assert "3010.9" in flag.condition and "<" in flag.condition

    def test_irreducible_ring_yields_empty_report(self):
        ctx = load_ring_doc({"N": 5, "f": [1, 4, 0, 0, 0, 1], "q": 7})
        report = scan_instance(ctx, 1.0, truncated=True)
        assert report.is_empty()

    def test_usva_instance_flags_unbounded_attack(self):
        doc = USVA_INSTANCES[1]  # q = 3677, planted root -1
        ctx = load_ring_doc(doc["instance"])
        report = scan_instance(ctx, 8.0, truncated=False)
        entry = next(r for r in report.roots if r.alpha == 3676)
        assert entry.order == 2 and entry.to_dict()["case"] == "pm_one"
        flag = next(f for f in entry.flags if f.attack == "unbounded_small_values")
        assert flag.applicable
        assert flag.details["big_delta"] > 0

    def test_cyclotomic_style_ring_tables_infeasible(self):
        ctx = load_ring_doc(KYBER_STYLE_RING)
        report = scan_instance(ctx, 2.0, truncated=False)
        assert not report.roots
        assert report.factors and all(f.order == 256 for f in report.factors)
        for entry in report.factors:
            flag = next(f for f in entry.flags if f.attack == "small_set")
            assert not flag.applicable
            assert "infeasible" in flag.condition

    def test_report_serializes(self):
        ctx = load_ring_doc(TRACE_RING_A)
        report = scan_instance(ctx, 0.7, truncated=False)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["q"] == 4099 and doc["binomial_factors"]


SMALL_PRIMES = [p for p in range(3, 2**14) if is_prime(p)]


class TestBlockStructures:
    """The batch path of scans against the scalar one of plans."""

    @settings(max_examples=150, deadline=None)
    @given(
        # primes below 100 half the time, where orders below N are common
        st.one_of(st.sampled_from(SMALL_PRIMES[:24]), st.sampled_from(SMALL_PRIMES)),
        st.integers(1, 4),
        st.integers(1, 64),
        st.floats(0.05, 50.0),
        st.data(),
    )
    def test_matches_block_structure(self, q, n, N, sigma, data):
        G = generator_powers(q)
        idx = data.draw(st.lists(st.integers(0, q - 2), min_size=1, max_size=12))
        # the points +-1 take the pm_one case
        idx += data.draw(st.lists(st.sampled_from([0, (q - 1) // 2]), max_size=2))
        batch = block_structures(n, np.array(idx, dtype=np.int64), N, sigma, G)
        # a point's structure reads n only through its N // n coefficients
        # per coordinate, so degree-1 points stand in for every y^n - a,
        # the reducible ones included
        m = PrimeModulus(q)
        assert batch == [block_structure(ExtFieldCtx(1, int(G[i]), m), N // n, sigma)
                         for i in idx]


    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([p for p in SMALL_PRIMES if p < 2000]),
        st.integers(1, 4),
        st.integers(1, 64),
        st.floats(0.05, 50.0),
    )
    # order 6 at n_terms = 8: six counts of 1 fold mod 3 into three 2s
    @example(7, 1, 8, 1.3)
    # orders 25, 50 and 100 at n_terms = 10: P >= 2 * n_terms, a row per point
    @example(101, 1, 10, 1.3)
    # x^256 + 1 mod 3329 at n = 2: order 256, n_terms = 128, one row for all
    @example(3329, 2, 256, 1.3)
    def test_every_point_of_every_order(self, q, n, N, sigma):
        """All of F_q* at once, so each order's points arrive together and
        any one-row sum is checked at every point it serves."""
        G = generator_powers(q)
        batch = block_structures(n, np.arange(q - 1, dtype=np.int64), N, sigma, G)
        m = PrimeModulus(q)
        assert batch == [block_structure(ExtFieldCtx(1, a, m), N // n, sigma) for a in G.tolist()]

    def test_falcon1024_roots_share_one_structure(self):
        ctx = load_ring_doc(instances.CRYPTO_RINGS["falcon1024"])
        roots = scan_instance(ctx, 1.3, False).roots
        assert len(roots) == 1024
        assert all(r.blocks is roots[0].blocks for r in roots)
        for r in (roots[0], roots[337], roots[-1]):
            want = block_structure(ExtFieldCtx(1, r.a, ctx.modulus), ctx.N, 1.3)
            assert r.blocks == want
            assert r.blocks.sigma_bar.hex() == want.sigma_bar.hex()


class TestClassCounts:
    """class_counts against reference_block_structure, the r_eff blocks of
    blocklen coefficients that it replaced: sigma_bar is the same bit for
    bit everywhere, and the counts are the same blocks wherever the order
    stays within N // n, except at a = -1 with N // n odd."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(SMALL_PRIMES[:24]),
        st.integers(1, 4),
        st.integers(1, 64),
        st.floats(0.05, 50.0),
        st.data(),
    )
    def test_matches_the_block_oracle(self, q, n, N, sigma, data):
        # the root 0 and +-1 among the F_q roots, else an irreducible y^n - a
        constants = range(q) if n == 1 else irreducible_constants(q, n)
        assume(constants)
        point = ExtFieldCtx(n, data.draw(st.sampled_from(constants)), PrimeModulus(q))
        got = block_structure(point, N, sigma)
        want = reference_block_structure(point, N, sigma)
        assert got.sigma_bar == want.sigma_bar
        assert (got.order, got.n_terms) == (want.order, want.n_terms)
        keys = PointVuln(n, point.a, got, ()).to_dict()
        assert keys["case"] == want.case_kind
        assert keys.get("n_second", want.blocklen) == min(got.counts) == want.blocklen
        n_terms = got.n_terms
        if got.order > n_terms:
            assert got.counts == (1,) * n_terms and want.r_eff == got.order
        elif got.order == 2 and n_terms % 2:
            assert got.counts == (n_terms // 2 + 1, n_terms // 2)
            assert want.r_eff * want.blocklen == n_terms - 1
        else:
            assert got.counts == (want.blocklen,) * want.r_eff

    def test_order_beyond_the_coefficients_sums_each_once(self):
        # 2 has order 12 mod 13 and N = 4: sigma_bar sums four weights, and
        # so does the table, where the blocks enumerated twelve
        point = ExtFieldCtx(1, 2, PrimeModulus(13))
        got, want = block_structure(point, 4, 1.0), reference_block_structure(point, 4, 1.0)
        assert got.counts == (1, 1, 1, 1) and (want.r_eff, want.blocklen) == (12, 1)
        assert got.sigma_bar == want.sigma_bar == math.sqrt(1 + 4 + 16 + 25)

    def test_minus_one_with_odd_coefficients_keeps_all(self):
        # 7 coefficients at a = -1: classes of 4 and 3, where the blocks held 3 and 3
        point = ExtFieldCtx(1, 12, PrimeModulus(13))
        got, want = block_structure(point, 7, 2.0), reference_block_structure(point, 7, 2.0)
        assert got.counts == (4, 3) and (want.r_eff, want.blocklen) == (2, 3)
        assert got.sigma_bar == want.sigma_bar == math.sqrt(7) * 2.0

    def test_cases(self):
        assert class_counts(0, 9) == (1,)
        assert class_counts(12, 4) == class_counts(4, 4) == (1, 1, 1, 1)
        assert class_counts(1, 9) == (9,) and class_counts(2, 9) == (5, 4)
        assert class_counts(3, 10) == (3, 3, 3)


def _column0_classes(point: ExtFieldCtx, N: int) -> tuple[int, ...]:
    """How many coefficients carry each weight a^k in c0(e): the rows
    i = 0, n, 2n, ... of eval_matrix's column 0, grouped by (i // n) mod
    order."""
    rows = np.flatnonzero(eval_matrix(point, N)[:, 0])
    sizes = np.bincount(rows // point.n % point.order, minlength=point.order)
    return tuple(sizes[sizes > 0].tolist())


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 9: class_counts takes the paper's N // n coefficients in equal "
    "blocks, where c0(e) sums ceil(N/n) of them with the remainder kept"
))
@pytest.mark.parametrize("inst", [TRACE_INSTANCE_A, TRACE_INSTANCE_B], ids=["ring_a", "ring_b"])
def test_class_counts_are_the_classes_of_the_evaluation(inst):
    # N = 23, n = 3: rows 0, 3, ..., 21 hold eight coefficients, where the
    # paper's count keeps seven; ring A's order 6 splits them 2, 2, 1, 1, 1, 1,
    # ring B's order 3 splits them 3, 3, 2
    point = ExtFieldCtx(inst["extension"]["n"], inst["extension"]["a"], PrimeModulus(4099))
    N = inst["instance"]["N"]
    assert class_counts(point.order, N // point.n) == _column0_classes(point, N)


def test_class_counts_are_the_classes_where_the_blocks_divide():
    # n | N and order | N // n: 36 coefficients, twelve rows in column 0,
    # two per power of 2018 (order 6)
    point = ExtFieldCtx(3, 2018, PrimeModulus(4099))
    assert class_counts(point.order, 36 // 3) == _column0_classes(point, 36) == (2,) * 6


def _falcon_sigma(N):
    # Falcon's published width 1.17 * sqrt(q / 2N)
    return 1.17 * math.sqrt(12289 / (2 * N))


PINNED_SCANS = [
    *(
        (f"bundled{k}", doc, sigma)
        for k, (doc, sigma) in enumerate([
            (instances.TRACE_INSTANCE_A["instance"], 0.7),
            (instances.TRACE_INSTANCE_B["instance"], 2.5),
            *[(inst["instance"], 8.0) for inst in USVA_INSTANCES],
            (KYBER_STYLE_RING, 2.0),
        ])
    ),
    ("kyber", instances.CRYPTO_RINGS["kyber"], 1.0),
    ("falcon512", instances.CRYPTO_RINGS["falcon512"], _falcon_sigma(512)),
    ("falcon1024", instances.CRYPTO_RINGS["falcon1024"], _falcon_sigma(1024)),
    ("ntru_prime761", instances.CRYPTO_RINGS["ntru_prime761"], 1.0),
]

# sha256 of the sorted-key JSON of each scan report, taken from the
# per-point scanner (one mult_order and one Python weight loop per point)
# before scans were batched; the rings with points of order above N // n
# (bundled4-6, kyber, falcon) re-pinned when their small-set flags came to
# count N // n classes there instead of order
SCAN_DIGESTS = {
    "bundled0-False": "e7bd64d3f2a81da0097209973c86d233897815ac4082158ae4f3b1aec6e301af",
    "bundled0-True": "ae5bc18e9f29f50418578b3e6b960adb0b67fbe1d45b6421aa199865e7340e48",
    "bundled1-False": "54f52948d0b03399030dc2f1964488b61cccdc2a6184591262c8b032d414518c",
    "bundled1-True": "c553fab4df9931eaf401d84accae81c36addeb50b5136b064839e7958b926c37",
    "bundled2-False": "ee298652f478031dc46aa6f2e01082e5c455e535afd64ac7ec285b73daaa4d56",
    "bundled2-True": "eb4e293494a5e341524c2523be1a71d65321695b63443d847b2ee26a79530deb",
    "bundled3-False": "d6ed3c7709cef32b71dc4685497b34795b705c0875a4a0bbc7e37bf4ef0e52a6",
    "bundled3-True": "39d2c10a4659c001f3db1925d25e92f8d5dfc92b35de4918717a8e2fb8a91160",
    "bundled4-False": "0b5d53c255ba3bc236211eeee91e7b0058396c726ea443b8c69ab2d80a9d0edb",
    "bundled4-True": "1a0c51ad52d245227e69e28821e3c10f5a57d9116a40954dfce9cf2690e5b506",
    "bundled5-False": "2bba4ae37e538bfbe050b50b1445033d4fc5fca28468a57493ac10cc2239f93b",
    "bundled5-True": "a3fc68233e1b1456058413937fe881d80f592f875a3b82b39ad09701a22d6b57",
    "bundled6-False": "7c391607c6fc31dd4c3864ad412cb7e8371abb9dceb11b97f12c529b1d400365",
    "bundled6-True": "cc110e3c9f4a05a23ac66bbbde00a0ad70bf9bf213499eec2cabd0b5558eb327",
    "kyber-False": "7aba2582d6a1396a747452330484efde677d2e28f7d285f63db7cce5eb821c6d",
    "kyber-True": "debba50b5be3508f39ea508720c63efc34c0cee42a9aae948e71fa6751a09c4f",
    "falcon512-False": "8754da360cfa0e466e20e2966c7d95c346b8bb533f8933ae43a9fb98ecdada6b",
    "falcon512-True": "2dcece77cb50a52a5e7d49cd4388206d31e2c50df2749d9fbd31993cea42814f",
    "falcon1024-False": "63e6ef64b18447f59a339d33451d37c780678f47ce0d649bac57f29cd883cf65",
    "falcon1024-True": "6aec4a1bddc243d2a00b5c12ae2b0353fe2ecb322e4dde28cc020ae39b734454",
    "ntru_prime761-False": "5999f6ebc22f4711a87534b76680b164e8f2943d674107e4816884a35c5d43e2",
    "ntru_prime761-True": "a121ffa8468cef2038f6e6818b28973e8ebafd296a1cf6ce995fba36f9114241",
}


@pytest.mark.parametrize("truncated", [False, True])
@pytest.mark.parametrize("name,doc,sigma", PINNED_SCANS, ids=[c[0] for c in PINNED_SCANS])
def test_scan_reports_are_pinned(name, doc, sigma, truncated):
    report = scan_instance(load_ring_doc(doc), sigma, truncated).to_dict()
    blob = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SCAN_DIGESTS[f"{name}-{truncated}"]


@pytest.mark.parametrize("truncated", [False, True])
def test_scan_min_m_is_minimal_samples_of_the_flag(truncated):
    """Every min_M_for_0.99 a scan prints is minimal_samples recomputed from
    its flag's details, the least M whose vote posterior reaches 0.99."""
    seen = set()
    for _, doc, sigma in PINNED_SCANS[:7]:
        report = scan_instance(load_ring_doc(doc), sigma, truncated)
        for point in report.roots + report.factors:
            for flag in point.flags:
                if "min_M_for_0.99" not in flag.details:
                    continue
                seen.add(flag.attack)
                d, q = flag.details, report.q
                size, r = ((d["analytic_bound"], d["r"]) if flag.attack == "small_set"
                           else (quarter_count(q), 1))
                m = d["min_M_for_0.99"]
                assert m == minimal_samples(q, size, r, truncated, 0.99)
                posterior = lambda M: posterior_bounds(q, size, r, truncated, M).vote_posterior
                assert posterior(m) >= 0.99 and (m == 1 or posterior(m - 1) < 0.99)
    assert seen == {"small_set", "small_values"}


@pytest.mark.parametrize("name,doc,sigma", PINNED_SCANS, ids=[c[0] for c in PINNED_SCANS])
def test_plan_and_scan_agree(name, doc, sigma):
    """At every point a scan lists, build_plan passes the small-values and
    the series unbounded precondition exactly when the scan flags them
    applicable, and records the flag's condition; wherever the scan flags
    small_set applicable, truncated or not, build_plan accepts it."""
    ctx = load_ring_doc(doc)
    report = scan_instance(ctx, sigma, False)
    points = [({"n": p.n, "a": p.a}, p.flags) for p in report.roots + report.factors]
    instance = {**doc, "sigma": sigma, "truncated": False}
    for family, extra in [("small_values", {"M": 1}),
                          ("unbounded_small_values", {"ell": 1, "delta": "series"})]:
        cfg = config_from_dict({"instance": instance, "attack": {
            "family": family, "mode": "fq", "alpha": 1, **extra}})
        for where, flags in points:
            flag = next(f for f in flags if f.attack == family)
            attack = dataclasses.replace(cfg.attack, **where)
            try:
                plan = build_plan(dataclasses.replace(cfg, attack=attack))
            except PreconditionRefused as exc:
                assert not flag.applicable and str(exc) == flag.condition, (where, family)
                continue
            assert flag.applicable, (where, family)
            assert plan.preconditions == ("ok: " + flag.condition,)
    # one way only: the plan counts its real table, which can sit below
    # q*p0^r where the flag's analytic bound does not (the order-2 roots of
    # USVA_INSTANCES[0] and [1] plan |Sigma| = 725 against a bound of 131797)
    for truncated in (False, True):
        cfg = config_from_dict({"instance": {**instance, "truncated": truncated}, "attack": {
            "family": "small_set", "mode": "fq", "alpha": 1, "M": 1}})
        scan = scan_instance(ctx, sigma, truncated)
        for point in scan.roots + scan.factors:
            if next(f for f in point.flags if f.attack == "small_set").applicable:
                attack = dataclasses.replace(cfg.attack, n=point.n, a=point.a)
                build_plan(dataclasses.replace(cfg, attack=attack))


@pytest.mark.parametrize("truncated", [False, True])
def test_analyze_and_scan_agree(tmp_path, capsys, truncated):
    """At every point a scan lists, analyze prints the scan's flags, and its
    flat margins are the unbounded flag's details."""
    cfg = tmp_path / "c.json"
    for _, doc, sigma in PINNED_SCANS[:7]:
        report = scan_instance(load_ring_doc(doc), sigma, truncated)
        instance = {**doc, "sigma": sigma, "truncated": truncated}
        for point in report.roots + report.factors:
            where = {"alpha": point.a} if point.n == 1 else {"n": point.n, "a": point.a}
            cfg.write_text(json.dumps({"instance": instance, "attack": where}))
            assert cli.main(["analyze", "--config", str(cfg)]) == 0
            out = json.loads(capsys.readouterr().out)
            want = json.loads(json.dumps(point.to_dict()))
            assert out["attacks"] == want["attacks"], where
            unbounded = want["attacks"][2]
            assert unbounded["attack"] == "unbounded_small_values"
            for key in ("p_event", "delta", "big_delta", "ratio"):
                assert out[key] == unbounded["details"][key], (where, key)
