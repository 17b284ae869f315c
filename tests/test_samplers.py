import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from plwe_audit import samplers
from plwe_audit.campaign import MAX_SAMPLE_ENTRIES
from plwe_audit.fields import ExtFieldCtx, PrimeModulus, centered_value
from plwe_audit.instances import REJECTION_REPLICA, TRACE_RING_B
from plwe_audit.rings import RqContext, load_ring_doc
from plwe_audit.samplers import (
    BudgetExhausted,
    GaussianSpec,
    PlweInstance,
    SampleBatch,
    gaussian_coeffs,
    p0_of,
    sample_batch,
)

from reference import (
    Sample,
    draw_gaussian,
    from_samples,
    irreducible_constants,
    pairs_at,
    plwe_draw,
    plwe_oracle,
    plwe_oracle_rq0,
    reference_draws,
    reference_samples,
    ring_mul,
    ring_sub,
    rq0_membership,
    sample_rq0,
    to_samples,
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
        assert p0_of(True) == 1.0
        assert p0_of(False) == pytest.approx(0.954500, abs=1e-9)

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

    def test_truncation_redraws_fill_rejects_in_row_major_order(self):
        # the batch sampler draws a trial's errors as one matrix: one normal
        # call, then one call per round for the rejected positions
        spec = GaussianSpec(0.7, True)
        got = gaussian_coeffs(spec, np.random.default_rng(8), (40, 6))
        rng = np.random.default_rng(8)
        x = list(rng.normal(0.0, 0.7, size=240))
        while bad := [i for i, v in enumerate(x) if abs(v) > 1.4]:
            for i, v in zip(bad, rng.normal(0.0, 0.7, size=len(bad))):
                x[i] = v
        assert got.tolist() == np.rint(np.reshape(x, (40, 6))).astype(int).tolist()

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
        s = plwe_oracle(inst, rng, force_a=self.CTX.poly([]))
        assert all(abs(centered_value(c, 4099)) <= 5 for c in s.b.coeffs)

    def test_residual_is_the_error(self):
        inst, rng = self._instance(sigma=2.5)
        s, error = plwe_draw(inst, rng)
        resid = ring_sub(s.b, ring_mul(s.a, inst.secret_for_tests()))
        assert resid == self.CTX.poly(error)

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


EXT5 = ExtFieldCtx(2, 2, PrimeModulus(5))
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
        ext = ExtFieldCtx(2, 2, PrimeModulus(3))
        ctx = RqContext((-2, 0, 1), PrimeModulus(3))
        rng = np.random.default_rng(23)
        runs = 10**4
        invocations = sum(
            sample_rq0(lambda: uniform_oracle(ctx, rng), ext).count for _ in range(runs)
        )
        assert abs(runs / invocations - 1 / 3) < 0.02

    def test_degree_one_extension_accepts_everything(self):
        ext = ExtFieldCtx(1, 2, PrimeModulus(5))
        rng = np.random.default_rng(24)
        for _ in range(50):
            assert sample_rq0(lambda: uniform_oracle(CTX5, rng), ext).count == 1

    def test_budget_exhausted(self):
        bad = Sample(CTX5.poly([0, 1]), CTX5.poly([]))
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
    EXT = ExtFieldCtx(2, 2, PrimeModulus(3))

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
        ctx, ext = self.CTX, ExtFieldCtx(1, 2, PrimeModulus(3))
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


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_sample_batch_matches_per_sample_oracles(data):
    """Row for row, the batch sampler equals the per-sample oracles handed
    the same errors or b rows, and its evaluate-first pairs equal the pairs
    of the materialised batch."""
    q = data.draw(st.sampled_from([3, 5, 7, 13]), label="q")
    n = data.draw(st.integers(1, 3), label="n")
    honest = data.draw(st.booleans(), label="honest")
    assume(not honest or q ** (n - 1) <= 49)
    mod = PrimeModulus(q)
    if n == 1:
        a = data.draw(st.integers(0, q - 1), label="a")
    else:
        irreducible = irreducible_constants(q, n)
        assume(irreducible)
        a = data.draw(st.sampled_from(irreducible), label="a")
    ext = ExtFieldCtx(n, a, mod)
    g = data.draw(st.lists(st.integers(0, q - 1), max_size=4), label="g") + [1]
    ctx = RqContext(tuple(np.convolve([-a] + [0] * (n - 1) + [1], g).tolist()), mod)
    gauss = GaussianSpec(data.draw(st.sampled_from([0.7, 1.6]), label="sigma"),
                         data.draw(st.booleans(), label="truncated"))
    m = data.draw(st.integers(1, 6), label="m")
    plwe = data.draw(st.booleans(), label="plwe")
    budget = data.draw(st.sampled_from([10**8, 1, 3, 2 * q ** (n - 1)]), label="budget")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

    rng_ref = np.random.default_rng(seed)
    inst = PlweInstance.generate(ctx, gauss, rng_ref) if plwe else None
    secret_ref = np.array(inst.secret_for_tests().coeffs) if plwe else None
    rng = np.random.default_rng(seed)
    secret = rng.integers(0, q, size=ctx.N) if plwe else None
    try:
        ref, ref_count, ref_errors = reference_samples(
            ctx, gauss, ext, m, rng_ref, secret_ref, honest, budget)
    except BudgetExhausted as ref_exc:
        with pytest.raises(BudgetExhausted) as exc:
            sample_batch(ctx, gauss, ext, m, rng, secret, honest, budget)
        assert exc.value.invocations == ref_exc.invocations
        return
    batch, count = sample_batch(ctx, gauss, ext, m, rng, secret, honest, budget)
    assert count == ref_count
    assert np.array_equal(batch.A, [s.a.coeffs for s in ref])
    assert np.array_equal(batch.B, [s.b.coeffs for s in ref])
    assert to_samples(batch) == ref
    for sample in ref:
        assert not any(rq0_membership(sample.a, ext).witness_sums)
    materialised = pairs_at(ref, ext)
    pairs = batch.pairs(ext)
    assert np.array_equal(pairs.targets, materialised.targets)
    assert np.array_equal(pairs.scales, materialised.scales)
    if plwe:
        assert np.array_equal(secret, secret_ref)
        assert np.array_equal(batch.X, ref_errors)
        for sample, error in zip(ref, ref_errors):
            resid = ring_sub(sample.b, ring_mul(sample.a, inst.secret_for_tests()))
            assert resid.coeffs == tuple(e % q for e in error)


def test_sample_batch_budget_ends_rejection_sampling():
    # one call in q^2 = 16.8 million lands in R_q0 here; sample_rq0 gives up
    # after the budget, and so must the batch sampler
    ctx = load_ring_doc(TRACE_RING_B)
    ext = ExtFieldCtx(3, 2017, PrimeModulus(4099))
    rng = np.random.default_rng(42)
    secret = rng.integers(0, 4099, size=ctx.N)
    with pytest.raises(BudgetExhausted, match="within 5 invocations") as exc:
        sample_batch(ctx, GaussianSpec(2.5, False), ext, 3, rng, secret,
                     honest=True, max_invocations=5)
    assert exc.value.invocations == 5


REPLICA = load_ring_doc(REJECTION_REPLICA["instance"])
REPLICA_EXT = ExtFieldCtx(3, 3, PrimeModulus(7))


def _replica_trial(seed):
    """The secret, and a generator positioned where a PLWE trial on the
    q = 7 rejection replica starts drawing its errors."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 7, size=REPLICA.N), rng


# block caps in entries: one row of the replica (N = 3), five rows, whose
# blocks end long before the 20th hit, and the default
@pytest.mark.parametrize("block", [REPLICA.N, 5 * REPLICA.N, samplers._REJECTION_BLOCK])
@pytest.mark.parametrize("seed", [3, 7, 16])
def test_rejection_blocks_do_not_change_rows_or_counts(monkeypatch, block, seed):
    # m = 20 at q^(n-1) = 49: a trial needs about 980 rows, and the default
    # block of 980 + 1.5 * 217 rows holds the 20th hit on these seeds, so
    # only the smaller caps split a trial into blocks
    gauss = GaussianSpec(1.0, True)
    secret, rng_ref = _replica_trial(seed)
    ref, ref_count, _ = reference_samples(REPLICA, gauss, REPLICA_EXT, 20, rng_ref, secret,
                                          honest=True)
    monkeypatch.setattr(samplers, "_REJECTION_BLOCK", block)
    _, rng = _replica_trial(seed)
    batch, count = sample_batch(REPLICA, gauss, REPLICA_EXT, 20, rng, secret, honest=True)
    assert count == ref_count
    assert np.array_equal(batch.A, [s.a.coeffs for s in ref])
    assert np.array_equal(batch.B, [s.b.coeffs for s in ref])


@pytest.mark.parametrize("block", [5 * REPLICA.N, samplers._REJECTION_BLOCK])
@pytest.mark.parametrize("plwe", [True, False])
def test_budget_equal_to_the_largest_gap_passes(monkeypatch, block, plwe):
    gauss = GaussianSpec(1.0, True)
    secret, rng_ref = _replica_trial(5)
    secret = secret if plwe else None
    draws, _ = reference_draws(REPLICA, gauss, REPLICA_EXT, 20, rng_ref, secret, honest=True)
    gaps = [d.count for d in draws]
    largest = max(gaps)
    monkeypatch.setattr(samplers, "_REJECTION_BLOCK", block)
    _, rng = _replica_trial(5)
    batch, count = sample_batch(REPLICA, gauss, REPLICA_EXT, 20, rng, secret, honest=True,
                                max_invocations=largest)
    assert count == sum(gaps)
    assert np.array_equal(batch.A, [d.sample.a.coeffs for d in draws])
    _, rng = _replica_trial(5)
    with pytest.raises(BudgetExhausted, match=f"within {largest - 1} invocations") as exc:
        sample_batch(REPLICA, gauss, REPLICA_EXT, 20, rng, secret, honest=True,
                     max_invocations=largest - 1)
    # the rounds before the first of the largest gap, then the whole budget
    assert exc.value.invocations == sum(gaps[: gaps.index(largest)]) + largest - 1


class _RowStream:
    """Stands in for a generator: each integers call returns the next rows
    of a fixed list."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=np.int64)

    def integers(self, low, high, size):
        out, self.rows = self.rows[: size[0]], self.rows[size[0] :]
        return out


@pytest.mark.parametrize("budget", [5, 4])
def test_gap_between_two_hits_of_one_block_meets_the_budget(budget):
    # on the replica a row is a member iff its x and x^2 coefficients
    # vanish; hits at rows 0 and 5 of one block give the second sample a
    # gap of 5 calls.  A budget below q^(n-1) = 49 caps the block at
    # m * budget rows, 10 or 8 here, so both hits fall in the first block
    member, other = [1, 0, 0], [1, 1, 0]
    rows = [member] + [other] * 4 + [member] + [other] * 10
    if budget < 5:
        with pytest.raises(BudgetExhausted, match=f"within {budget} invocations") as exc:
            samplers._rejection_rows(REPLICA_EXT, 3, 2, _RowStream(rows), budget)
        assert exc.value.invocations == 1 + budget  # the first round's call, then the budget
        return
    A, count = samplers._rejection_rows(REPLICA_EXT, 3, 2, _RowStream(rows), budget)
    assert A.tolist() == [member, member] and count == 6


class _FirstBlock(Exception):
    pass


class _SizeStream:
    """Stands in for a generator: records the size of the first integers
    call and raises, so nothing is allocated."""

    def integers(self, low, high, size):
        self.size = size
        raise _FirstBlock


@pytest.mark.parametrize("N", [256, 4096, 65536, 262144])
def test_rejection_block_stays_within_its_entry_cap(N):
    # the most samples campaign.check_draws lets a trial draw at this N
    m = MAX_SAMPLE_ENTRIES // N
    stream = _SizeStream()
    with pytest.raises(_FirstBlock):
        samplers._rejection_rows(REPLICA_EXT, N, m, stream, 10**8)
    rows, cols = stream.size
    assert cols == N and rows * N <= samplers._REJECTION_BLOCK


class _CountingStream:
    """Wraps a generator and counts its integers calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, low, high, size):
        self.calls += 1
        return self.rng.integers(low, high, size=size)


def test_rejection_blocks_are_sized_past_the_expected_need():
    # a block sized by the expected 20 * 49 rows ends before the 20th hit
    # on about 4 trials in 5 (1.83 blocks per trial over these seeds); the
    # tail-sized block does on about 1 in 12 (1.085)
    blocks = 0
    for seed in range(200):
        stream = _CountingStream(np.random.default_rng(seed))
        samplers._rejection_rows(REPLICA_EXT, REPLICA.N, 20, stream, 10**8)
        blocks += stream.calls
    assert blocks / 200 <= 1.25


def test_sample_batch_round_trips():
    rng = np.random.default_rng(41)
    samples = [uniform_oracle(CTX13, rng) for _ in range(5)]
    batch = from_samples(samples)
    assert len(batch) == 5 and to_samples(batch) == samples


@pytest.mark.parametrize("n", [1, 2])
def test_pairs_reduce_errors_exactly_at_the_int64_edge(n):
    # errors of +-(2**63 - N*q^2 - 1), the largest campaign.check_draws
    # admits, must reduce exactly: the targets match Python-int arithmetic.
    # x^N - 17^N has the F_q root 17 (n = 1); y^2 - 2 divides x^N - 2^(N/2)
    # over F_3677, where 2 is a non-residue, and A = 0 lies in R_{q,0}
    N, q = 64, 3677
    a = 17 if n == 1 else 2
    ring = RqContext((-pow(a, N // n, q) % q,) + (0,) * (N - 1) + (1,), PrimeModulus(q))
    ext = ExtFieldCtx(n, a, PrimeModulus(q))
    rng = np.random.default_rng(n)
    edge = 2**63 - N * q * q - 1
    X = np.where(rng.random((6, N)) < 0.5, -edge, edge).astype(np.int64)
    A = rng.integers(0, q, (6, N)) if n == 1 else np.zeros((6, N), dtype=np.int64)
    secret = rng.integers(0, q, N)
    pairs = SampleBatch(ring, A, X, secret).pairs(ext)
    coord0 = [pow(a, k // n, q) if k % n == 0 else 0 for k in range(N)]

    def c0(row):
        return sum(int(v) % q * c for v, c in zip(row, coord0))

    assert pairs.targets.tolist() == [(c0(A[i]) * c0(secret) + c0(X[i])) % q for i in range(6)]
