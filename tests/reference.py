"""Reference paths that the fast code is pinned to.

The per-sample reference path of samplers.sample_batch:

reference_sample_batch consumes a trial's stream in the batch sampler's
order, but builds every sample through the per-sample oracles and ring_mul:
after the secret, all M errors in one gaussian_coeffs call (a uniform trial:
all M b rows in one integers call), then sample i as plwe_oracle with the
forced error E[i], or as (a, B[i]) with a drawn like uniform_oracle's.  Its
a is drawn by uniform_rq0_poly (direct) or by sample_rq0 over such calls
(honest).  The batch is materialised from the oracles' RingPoly samples, so
it has no secret and the attacks read it through B.

The unbounded attack's hit counts on the (ell, q) grid (t_i - u_i*g) mod q,
and the Monte Carlo delta as a per-draw count mod q: the forms that
attacks.unbounded_small_values_attack and analysis.monte_carlo_delta
replaced by the log-domain count and the histogram.
"""

import numpy as np

from plwe_audit.samplers import (
    PlweInstance,
    Sample,
    SampleBatch,
    gaussian_coeffs,
    plwe_oracle,
    sample_rq0,
    uniform_poly,
    uniform_rq0_poly,
)


def reference_samples(ring, gauss, ext, m, rng, secret=None, honest=False,
                      max_invocations=10**8):
    """The samples and the invocation count; BudgetExhausted as sample_rq0
    raises it."""
    if secret is None:
        forced = [ring.poly(b) for b in rng.integers(0, ring.q, size=(m, ring.N))]
        oracle = lambda b, a=None: Sample(uniform_poly(ring, rng) if a is None else a, b)
    else:
        inst = PlweInstance(ring, gauss, ring.poly(secret))
        forced = [tuple(e) for e in gaussian_coeffs(gauss, rng, (m, ring.N)).tolist()]
        oracle = lambda e, a=None: plwe_oracle(inst, rng, force_a=a, force_error=e)
    if not honest:
        return [oracle(x, uniform_rq0_poly(ring, ext, rng)) for x in forced], m
    draws = [sample_rq0(lambda: oracle(x), ext, max_invocations) for x in forced]
    return [d.sample for d in draws], sum(d.count for d in draws)


def reference_sample_batch(ring, gauss, ext, m, rng, secret=None, honest=False,
                           max_invocations=10**8):
    """A drop-in for samplers.sample_batch: the reference samples as a
    materialised batch, and the invocation count."""
    samples, count = reference_samples(ring, gauss, ext, m, rng, secret, honest, max_invocations)
    return SampleBatch.from_samples(samples), count


def reference_hit_counts(targets, scales, q):
    """h_g = #{i : (t_i - u_i*g) mod q in [-q/4, q/4)} for every g in F_q,
    from the full modular grid."""
    g = np.arange(q, dtype=np.int64)
    grid = (np.asarray(targets)[:, None] - np.multiply.outer(scales, g)) % q
    return ((4 * grid < q) | (4 * grid >= 3 * q)).sum(axis=0)


def reference_monte_carlo_delta(q, sigma_bar_value, rng, draws=10**6):
    """The quarter-interval share of the rounded draws reduced mod q, less 1/2."""
    x = np.rint(rng.normal(0.0, sigma_bar_value, size=draws)).astype(np.int64) % q
    return float(((4 * x < q) | (4 * x >= 3 * q)).mean()) - 0.5
