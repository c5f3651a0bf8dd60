"""Ordinal pattern dependence: estimation, exact models, and verification.

The package measures dependence between two time series (or two modeled
windows) through ordinal patterns: the coefficient compares the observed
probability that both windows show the same pattern with the coincidence
an independent pair with the same pattern marginals would produce.

Layers:

* :mod:`opdep.patterns` - patterns, their enumeration, indexing and codes, and
  distributions over them.
* :mod:`opdep.estimator` - the plug-in estimator on sliding windows.
* :mod:`opdep.piecewise` - piecewise-uniform joint densities with exact
  pattern probabilities, distribution functions, concordance grid checks,
  and seeded sampling / Monte Carlo.
* :mod:`opdep.discrete` - finitely supported joint laws, conditionals,
  and the inequality-family checker for dependence ordering.
* :mod:`opdep.records` - the one JSON form of every result record.
* :mod:`opdep.modelio` - lossless JSON serialization of models.
* :mod:`opdep.scenarios` - the built-in model pairs and their verifiers.
* :mod:`opdep.cli` - the ``opdep`` command line tool.
"""

from .errors import (
    AmbiguousBlockOrder,
    DegenerateDistribution,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    InvalidMixture,
    InvalidParameter,
    InvalidPermutation,
    MassNotOne,
    ModelFormatError,
    ModelStructureError,
    NonFiniteInput,
    OpdepError,
    OrderTooLarge,
    OrderTooSmall,
    OverlappingCells,
    SeriesTooShort,
    UnsupportedChainLength,
    ZeroMassCondition,
)
from .estimator import OpdEstimate, TimeSeriesPair, empirical_opd
from .patterns import (
    Pattern,
    PatternDistribution,
    cross_match_probability,
    dependence_from_terms,
    enumerate_patterns,
    index_to_pattern,
    pattern_codes,
    pattern_index,
    pattern_of,
    rank_table,
)
from .piecewise import (
    Block,
    Cell,
    ConcordanceReport,
    LowerOrthant,
    McResult,
    PatternCoincidence,
    PiecewiseUniformDensity,
    UpperOrthant,
    cdf,
    cell_mass,
    concordance_check,
    exact_opd,
    joint_pattern_distribution,
    marginal_pattern_distribution,
    mc_probability,
    pattern_coincidence,
    sample,
    survival,
    total_mass,
    validate,
)
from .discrete import (
    ConditionReport,
    ConditionSkip,
    ConditionViolation,
    DiscreteJoint,
    check_theorem_conditions,
    conditional,
    exact_opd_discrete,
    marginal,
    mixture_from_conditionals,
    product_extend,
)
from .modelio import load_model, model_from_dict, model_from_json, model_to_dict, model_to_json, save_model
from .scenarios import (
    CheckResult,
    ScenarioReport,
    build_counterexample,
    build_example42,
    build_example42_continuous,
    build_example43,
    run_scenario,
    verify_counterexample,
    verify_example42,
    verify_example43,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
