"""Root-based distinguishing attacks and parameter auditing for PLWE instances."""

from .analysis import (
    ProbabilityReport,
    VulnReport,
    cumulative_binomial,
    delta_probability,
    f_of_r,
    monte_carlo_delta,
    posterior_bounds,
    scan_instance,
    sigma_bar,
    usva_threshold,
)
from .attacks import (
    AttackVerdict,
    Decision,
    SigmaTable,
    build_sigma_table_fq,
    build_sigma_table_trace,
    extended_attack,
    small_set_attack,
    small_values_attack,
    unbounded_small_values_attack,
)
from .campaign import ExperimentConfig, config_from_dict, run_campaign
from .fields import (
    ExtFieldCtx,
    ExtFieldElement,
    FieldElement,
    PrimeModulus,
    centered,
    in_quarter_interval,
    is_irreducible_binomial,
    mult_order,
    trace,
)
from .rings import (
    RingPoly,
    RqContext,
    eval_poly,
    find_binomial_factors,
    find_fq_roots,
    ring_mul,
    rq0_membership,
)
from .samplers import (
    GaussianSpec,
    PlweInstance,
    Rq0Draw,
    Sample,
    draw_gaussian,
    plwe_oracle,
    sample_rq0,
    uniform_oracle,
)

__version__ = "0.1.0"
