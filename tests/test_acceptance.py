"""Acceptance suite.

Each test exercises one numbered acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (run with -s to see the lines as they go).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from plwe_audit.analysis import (
    delta_probability,
    monte_carlo_delta,
    posterior_bounds,
    scan_instance,
)
from plwe_audit.attacks import (
    VERDICT_NOT_PLWE,
    build_sigma_table_trace,
    small_set_attack,
    small_values_attack,
)
from plwe_audit import cli
from plwe_audit.campaign import config_from_dict, run_campaign
from plwe_audit.fields import ExtFieldCtx, PrimeModulus, centered_value, in_quarter_value
from plwe_audit.instances import (
    CRYPTO_RINGS,
    REJECTION_REPLICA,
    TRACE_INSTANCE_B,
    USVA_INSTANCES,
)
from plwe_audit.rings import RqContext, load_ring_doc
from plwe_audit.samplers import (
    GaussianSpec,
    PlweInstance,
    sample_batch,
)
from reference import eval_poly, ext_alpha, pairs_at, plwe_oracle, trace


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_quarter_interval_exact_mass():
    """Exact rational quarter-interval mass for six small primes."""
    t0 = time.perf_counter()
    ok = True
    for q in (5, 7, 11, 13, 17, 19):
        count = sum(1 for v in range(q) if in_quarter_value(v, q))
        offset = Fraction(1, 2 * q) if q % 4 == 1 else -Fraction(1, 2 * q)
        ok &= Fraction(count, q) == Fraction(1, 2) + offset
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _criterion(1, ok, f"uniform quarter mass exact for q in 5..19 ({elapsed:.3f}s)")


def test_criterion_02_power_trace_identities():
    """Tr(alpha^j) = 0 off multiples of 3, and 3*a^t at j = 3t, exactly."""
    t0 = time.perf_counter()
    ok = True
    for a_val in (2017, 2018):
        ctx = ExtFieldCtx(3, PrimeModulus(4099).element(a_val))
        alpha = ext_alpha(ctx)
        for j in range(1, 31):
            got = trace(alpha**j).value
            want = 0 if j % 3 else 3 * pow(a_val, j // 3, 4099) % 4099
            ok &= got == want
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _criterion(2, ok, f"power traces exact for a in (2017, 2018), j <= 30 ({elapsed:.3f}s)")


def test_criterion_03_subring_dimension_count():
    """Exactly 27 of the 81 degree-4 polynomials over F_3 evaluate into F_3."""
    from itertools import product

    from reference import rq0_membership

    t0 = time.perf_counter()
    ctx = RqContext((0, 0, 0, 0, 1), PrimeModulus(3))
    ext = ExtFieldCtx(2, PrimeModulus(3).element(2))
    members = sum(
        rq0_membership(ctx.poly(c), ext).is_member for c in product(range(3), repeat=4)
    )
    elapsed = time.perf_counter() - t0
    ok = members == 27 and elapsed < 1.0
    _criterion(3, ok, f"subring members 27/81 == q^(N-n+1) ({elapsed:.3f}s)")


def test_criterion_04_rejection_sampler_mean():
    """Mean invocation count of the restricted sampler at q=5, n=2, counted
    by the campaigns' honest batch sampler over a uniform batch."""
    t0 = time.perf_counter()
    ctx = RqContext((-2, 0, 1), PrimeModulus(5))
    ext = ExtFieldCtx(2, PrimeModulus(5).element(2))
    rng = np.random.default_rng(404)
    runs = 10**4
    _, total = sample_batch(ctx, GaussianSpec(1.0, True), ext, runs, rng, honest=True)
    mean = total / runs
    elapsed = time.perf_counter() - t0
    ok = 4.5 <= mean <= 5.5 and elapsed < 5.0
    _criterion(4, ok, f"mean count {mean:.3f} in [4.5, 5.5] over 1e4 runs ({elapsed:.1f}s)")


def test_criterion_05_published_posterior_figures():
    """The four published vote posteriors from the analytic table bounds."""
    t0 = time.perf_counter()
    q, p0 = 4099, 0.954500
    bound_a = math.floor(build_sigma_table_trace(
        PrimeModulus(q).element(2018), 6, 1, 0.7).analytic_bound)
    bound_b = math.floor(build_sigma_table_trace(
        PrimeModulus(q).element(2017), 3, 2, 2.5).analytic_bound)
    figures = [
        (bound_a, 6, 350, 0.861),
        (bound_a, 6, 500, 0.998),
        (bound_b, 3, 350, 0.629),
        (bound_b, 3, 500, 0.993),
    ]
    ok = bound_a == 3010 and bound_b == 3471
    got = []
    for size, r, M, figure in figures:
        v = posterior_bounds(
            "small_set", False, M=M, q=q, sigma_size=size, r=r, p0=p0
        ).vote_posterior
        got.append(round(v, 4))
        ok &= abs(v - figure) <= 0.02
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _criterion(5, ok, f"vote posteriors {got} match (0.861, 0.998, 0.629, 0.993) +-0.02")


def test_criterion_06_trace_small_set_campaign():
    """End-to-end chunked trace campaign on the degree-23 ring, 200 trials."""
    t0 = time.perf_counter()
    doc = {
        "instance": dict(TRACE_INSTANCE_B["instance"]),
        "attack": {
            "family": "extended_small_set",
            "mode": "trace",
            "n": 3,
            "a": 2017,
            "M": 500,
            "M0": 10,
            "trials": 200,
        },
        "seed": 20260810,
    }
    report = run_campaign(config_from_dict(doc))
    elapsed = time.perf_counter() - t0
    on_plwe = report.rate("plwe")
    on_uniform = report.rate("uniform")
    ok = on_plwe >= 0.95 and on_uniform >= 0.95 and elapsed < 600.0
    _criterion(
        6,
        ok,
        f"correct rates plwe={on_plwe:.3f}, uniform={on_uniform:.3f} "
        f"over 200 trials, M=500 ({elapsed:.1f}s)",
    )


def test_criterion_07_series_matches_monte_carlo():
    """erf series vs 1e6-draw Monte Carlo on the 16-point (q, sigma_bar) grid."""
    t0 = time.perf_counter()
    worst = 0.0
    for q in (2887, 3329, 3677, 4111):
        for div in (32, 16, 8, 4):
            sbar = q / div
            series = delta_probability(q, sbar).p_event
            rng = np.random.default_rng([q, div])
            mc = 0.5 + monte_carlo_delta(q, sbar, rng, draws=10**6)
            worst = max(worst, abs(series - mc))
    elapsed = time.perf_counter() - t0
    ok = worst < 2e-3 and elapsed < 120.0
    _criterion(7, ok, f"max |series - MC| = {worst:.2e} < 2e-3 ({elapsed:.1f}s)")


def test_criterion_08_flat_image_margin():
    """Margin at q = 2887 with the scanner's centered-weight deviation."""
    doc = USVA_INSTANCES[2]
    ctx = load_ring_doc(doc["instance"])
    report = scan_instance(ctx, 8.0, truncated=False)
    entry = next(r for r in report.roots if r.alpha == 698)
    margin = delta_probability(2887, entry.sigma_bar).big_delta
    ok = entry.order == 3 and abs(margin - 0.000173) <= 0.00002
    _criterion(8, ok, f"Delta = {margin:.6f} within 0.000173 +- 0.00002")


def test_criterion_09_unbounded_campaign_margin():
    """Unbounded-attack campaign at q = 3677, N = 256, root -1, ell = 50.

    The attack decides by the best per-candidate hit count max_g h_g against
    hit_threshold, not by the aggregate count C = sum_g h_g.  For every
    sample whose a-evaluation is invertible, g -> b(alpha) - a(alpha)*g is a
    bijection of F_q, so the sample contributes exactly quarter_count(q) votes
    to C no matter which distribution produced it (the unit test
    test_vote_count_is_constant_when_a_never_vanishes pins this identity).
    Then C = ell*quarter_count(q) = 91950 lies below the paper's threshold
    T = C + ceil(ell*Delta) = 91975, so a rule on C says uniform on almost
    every batch (accuracy 0.370 at seed 90).  The true candidate of a
    genuine batch hits with probability 1/2 + delta per sample, any
    candidate of a uniform batch with about 1/2, and the union bound over
    the q candidates sets the threshold.  See the README paragraph on the
    unbounded attack.
    """
    t0 = time.perf_counter()
    inst = USVA_INSTANCES[1]
    doc = {
        "instance": dict(inst["instance"]),
        "attack": {
            "family": "unbounded_small_values",
            "mode": "fq",
            "alpha": inst["alpha"],
            "ell": 50,
            "delta": "mc",
            "trials": 100,
        },
        "seed": 90,
    }
    report = run_campaign(config_from_dict(doc))
    elapsed = time.perf_counter() - t0
    accuracy = report.accuracy
    required = 0.5 + 3.0 * math.sqrt(0.25 / 100)
    ok = accuracy >= required
    _criterion(
        9,
        ok,
        f"accuracy {accuracy:.3f} vs required >= {required:.3f} "
        f"(delta_mc = {report.plan_summary['delta']:.4f}, {elapsed:.1f}s)",
    )


def test_criterion_10_scaled_rejection_replica():
    """Rejection-count replica at q = 7, n = 3: expected 49 invocations,
    counted by the campaigns' honest batch sampler over 10^4 samples."""
    t0 = time.perf_counter()
    ctx = load_ring_doc(REJECTION_REPLICA["instance"])
    ext = ExtFieldCtx(3, PrimeModulus(7).element(3))
    rng = np.random.default_rng(1010)
    runs = 10**4
    _, total = sample_batch(ctx, GaussianSpec(1.0, True), ext, runs, rng, honest=True)
    mean = total / runs
    elapsed = time.perf_counter() - t0
    ok = abs(mean - 49) <= 0.15 * 49
    _criterion(10, ok, f"mean count {mean:.2f} within 15% of 49 ({elapsed:.1f}s)")


def test_criterion_11_truncated_soundness():
    """Truncated input never yields NOT PLWE and always keeps the true value."""
    t0 = time.perf_counter()
    q = 4099
    ring6 = RqContext((-1, 0, 0, 0, 0, 0, 1), PrimeModulus(q))
    alpha6 = PrimeModulus(q).element(2018)
    table = build_sigma_table_trace(alpha6, 6, 1, 0.7)
    gauss6 = GaussianSpec(0.7, True)
    ok = True
    for seed in range(500):
        rng = np.random.default_rng([7000, seed])
        inst = PlweInstance.generate(ring6, gauss6, rng)
        samples = [plwe_oracle(inst, rng) for _ in range(5)]
        verdict = small_set_attack(pairs_at(samples, alpha6), table.mask)
        target = eval_poly(inst.secret_for_tests(), alpha6).value
        ok &= verdict.kind != VERDICT_NOT_PLWE and target in verdict.survivors

    q2 = 3677
    m2 = PrimeModulus(q2)
    ring16 = RqContext((q2, 1) + (0,) * 14 + (1,), m2)  # x^16 + x + q2, root -1
    alpha16 = m2.element(q2 - 1)
    gauss16 = GaussianSpec(2.5, True)
    # 2*sigma_bar = 2*sqrt(16)*2.5 = 20 <= q/4; worst-case |e(-1)| <= 16*5 = 80
    for seed in range(500):
        rng = np.random.default_rng([7500, seed])
        inst = PlweInstance.generate(ring16, gauss16, rng)
        samples = [plwe_oracle(inst, rng) for _ in range(8)]
        verdict = small_values_attack(pairs_at(samples, alpha16))
        target = eval_poly(inst.secret_for_tests(), alpha16).value
        ok &= verdict.kind != VERDICT_NOT_PLWE and target in verdict.survivors
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _criterion(
        11, ok, f"2x500 truncated trials: zero NOT PLWE, true value kept ({elapsed:.1f}s)"
    )


def test_crypto_rings_scan_findings(tmp_path, capsys):
    """The scan of the published rings matches the theory of x^N + 1 and of
    NTRU Prime's irreducible trinomial; Dilithium's modulus is refused."""
    for name in ("falcon512", "falcon1024"):
        ctx = load_ring_doc(CRYPTO_RINGS[name])
        q, N = ctx.q, ctx.N
        assert (q - 1) % (2 * N) == 0
        rep = scan_instance(ctx, 1.0, False)
        # the roots of x^N + 1 are the N primitive 2N-th roots of unity
        assert len(rep.roots) == N and not rep.factors, name
        assert all(rt.order == 2 * N and pow(rt.alpha, N, q) == q - 1 for rt in rep.roots)
        assert [rt.alpha for rt in rep.roots] == sorted({rt.alpha for rt in rep.roots})

    kyber = scan_instance(load_ring_doc(CRYPTO_RINGS["kyber"]), 1.0, False)
    # 512 does not divide 3328, so no roots; x^2 - a divides x^256 + 1 iff
    # a^128 = -1, and the 128 such a of order 256 are non-squares
    assert not kyber.roots and len(kyber.factors) == 128
    assert all(fc.n == 2 and fc.order == 256 for fc in kyber.factors)
    assert len({fc.a for fc in kyber.factors}) == 128

    ntru = scan_instance(load_ring_doc(CRYPTO_RINGS["ntru_prime761"]), 1.0, False)
    assert not ntru.roots and not ntru.factors

    # At each scheme's published error width (Kyber: eta = 2, sigma = 1;
    # Falcon: 1.17*sqrt(q/2N)) no attack applies.  Every point of a ring has
    # order r = 2 * n_terms, so its weights a^t, t < r/2, meet each pair
    # {x, -x} of the subgroup mu_r once: all points share one sigma_bar,
    # sigma * sqrt(1/2 * sum over mu_r of c(x)^2), summed here over mu_r
    # found by brute force.
    for name, sigma in (
        ("kyber", 1.0),
        ("falcon512", 1.17 * math.sqrt(12289 / 1024)),
        ("falcon1024", 1.17 * math.sqrt(12289 / 2048)),
    ):
        ctx = load_ring_doc(CRYPTO_RINGS[name])
        q = ctx.q
        report = scan_instance(ctx, sigma, False)
        points = report.roots + report.factors
        flags = [fl for pt in points for fl in pt.flags]
        assert flags and not any(fl.applicable for fl in flags), name
        (r,) = {pt.order for pt in points}
        mu = [x for x in range(1, q) if pow(x, r, q) == 1]
        assert len(mu) == r
        oracle = sigma * math.sqrt(sum(centered_value(x, q) ** 2 for x in mu) / 2)
        (sigma_bar,) = {pt.sigma_bar for pt in points}
        assert sigma_bar == pytest.approx(oracle, rel=1e-12), name

    cfg = tmp_path / "dilithium.json"
    cfg.write_text(json.dumps(
        {"instance": {**CRYPTO_RINGS["dilithium"], "sigma": 1.0, "truncated": False}}
    ))
    assert cli.main(["scan", "--config", str(cfg)]) == 3
    assert "q = 8380417 < 2**22 = 4194304" in capsys.readouterr().err
