"""riskbn: discrete Bayesian-network engine and risk-profile analysis toolkit.

Core surface: network construction and serialization (:mod:`riskbn.core`),
exact inference and sampling (:mod:`riskbn.inference`), Dirichlet/EM
parameter learning (:mod:`riskbn.learning`), the influence/multi-factor/
rank-comparison analyses (:mod:`riskbn.analysis`) and the schema, ingestion
and synthetic-generator layer (:mod:`riskbn.data`).

``import riskbn`` loads no submodule and not numpy: each name below, and
each submodule, is imported on first access (PEP 562), so a command pays
only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The paper's outcome and its irrelevance control: the built-in schema's
#: variables (:mod:`riskbn.data`) and the CLI's ``--target`` and ``--control``
#: defaults, defined here so that reading them loads no numpy.
DEFAULT_OUTCOME = "Previous_CB_Offending"
DEFAULT_CONTROL = "A1Q1_PhotoSharing"

_EXPORTS = {
    "core": (
        "Cpt", "DagStructure", "Distribution", "Evidence", "Network", "VariableSpec",
        "build_network", "parse_model", "serialize_model", "topological_order",
    ),
    "inference": (
        "SampleBatch", "ancestral_sample", "evidence_probability", "joint_probability",
        "marginal", "posterior",
    ),
    "learning": (
        "DirichletPrior", "EmConfig", "EmTrace", "default_prior", "em_fit", "fit_cpts",
        "log_likelihood",
    ),
    "analysis": (
        "MultiFactorResult", "RankComparison", "RiskProfileSet", "StrengthReport",
        "bayes_factor", "bf_threshold_posterior", "conditional_profile",
        "influence_strength", "multifactor_search", "risk_profiles", "spearman",
        "strength_ranking",
    ),
    "data": (
        "Dataset", "FilterConfig", "GeneratorSpec", "Schema", "apply_filters",
        "build_default_generator", "calibration_targets", "dataset_from_batch",
        "default_dag", "default_schema", "load_dataset", "save_dataset",
        "simulate_dataset", "summarize",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "errors", "charts", "cli"})

__all__ = sorted({*_HOME, *_EXPORTS, "errors"})


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here too
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
