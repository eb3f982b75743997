"""riskbn: discrete Bayesian-network engine and risk-profile analysis toolkit.

Core surface: network construction and serialization (:mod:`riskbn.core`),
exact inference and sampling (:mod:`riskbn.inference`), Dirichlet/EM
parameter learning (:mod:`riskbn.learning`), the influence/multi-factor/
rank-comparison analyses (:mod:`riskbn.analysis`) and the schema, ingestion
and synthetic-generator layer (:mod:`riskbn.data`).
"""

__version__ = "0.1.0"

from .core import (
    Cpt,
    DagStructure,
    Distribution,
    Evidence,
    Network,
    VariableSpec,
    build_network,
    parse_model,
    serialize_model,
    topological_order,
)
from .inference import (
    SampleBatch,
    ancestral_sample,
    evidence_probability,
    joint_probability,
    marginal,
    posterior,
)
from .learning import (
    DirichletPrior,
    EmConfig,
    EmTrace,
    default_prior,
    em_fit,
    fit_cpts,
    log_likelihood,
)
from .analysis import (
    MultiFactorResult,
    RankComparison,
    RiskProfileSet,
    StrengthReport,
    bayes_factor,
    bf_threshold_posterior,
    conditional_profile,
    influence_strength,
    multifactor_search,
    risk_profiles,
    spearman,
    strength_ranking,
)
from .data import (
    Dataset,
    FilterConfig,
    GeneratorSpec,
    Schema,
    apply_filters,
    build_default_generator,
    calibration_targets,
    dataset_from_batch,
    default_dag,
    default_schema,
    load_dataset,
    save_dataset,
    simulate_dataset,
    summarize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
