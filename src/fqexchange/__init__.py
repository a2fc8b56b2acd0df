"""Basis-exchange machinery over GF(q) with a Monte Carlo verification harness."""

from .gf import FieldSpec, make_field
from .matfq import (
    MatFq,
    alpha,
    beta,
    nonsingular_count,
    random_full_rank,
    rank,
    reduce_against,
    sequential_full_rank,
)
from .exchange import (
    ExchangeInstance,
    OrderedBasis,
    SerialCertificate,
    arrow,
    find_serial_partner,
    greene_woodall,
    serial_check,
    serial_search,
    symmetric_partners,
)
from .randmodel import (
    BlockPartition,
    TrialOutcome,
    alpha_lower,
    block_partition,
    derive_rng,
    run_trial,
    sample_ordered_basis,
    theorem_tail,
    zprime_zero_bound,
)
from .experiments import (
    ExperimentConfig,
    Record,
    Report,
    crosscheck_serial,
    estimate_alpha,
    estimate_beta,
    exhaustive_small,
    trend,
    verify_conditional_bounds,
    verify_zprime_bound,
    wilson_interval,
)

__version__ = "0.1.0"
