"""Root-based distinguishing attacks and parameter auditing for PLWE instances."""

from .analysis import (
    ProbabilityReport,
    VulnReport,
    cumulative_binomial,
    delta_probability,
    f_of_r,
    hit_threshold,
    monte_carlo_delta,
    posterior_bounds,
    scan_instance,
    usva_threshold,
)
from .attacks import (
    AttackVerdict,
    Decision,
    HitCountDecision,
    build_sigma_table_trace,
    extended_attack,
    small_set_attack,
    small_values_attack,
    unbounded_small_values_attack,
)
from .campaign import ExperimentConfig, config_from_dict, run_campaign
from .fields import ExtFieldCtx, PrimeModulus, mult_order
from .rings import RingPoly, RqContext, rq0_witnesses
from .samplers import (
    GaussianSpec,
    PlweInstance,
    SampleBatch,
    sample_batch,
)

__version__ = "0.1.0"
