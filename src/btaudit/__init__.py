"""Worst-case data-dropping robustness audits for Bradley-Terry rankings.

Fit pairwise-preference data, rank models, and test whether removing a small,
adversarially chosen subset of evaluations can flip pairwise orderings or
change the top-k set. Candidate subsets come from influence approximations;
every non-robustness verdict is verified by an exact refit.
"""

from .arena import (
    SCHEMA_PRESETS,
    Arena,
    IngestError,
    IngestSchema,
    IngestStats,
    ModelRegistry,
    elo_transform,
    ingest,
)
from .btmodel import (
    BtFit,
    FitError,
    HeadToHead,
    Ranking,
    SolverOptions,
    fit,
    head_to_head,
    ranking,
    refit_without,
)
from .influence import (
    SingularHessianError,
    hessian_factor,
    influence_scores,
    pair_influence,
)
from .oracle import (
    BruteForceResult,
    EnumerationCapError,
    SynthSpec,
    brute_force_pair,
    finite_difference_influence,
    generate,
    random_spec,
)
from .robustness import (
    DropBudget,
    MinDropResult,
    RobustnessReport,
    TopKReport,
    check_pair,
    check_topk,
    involvement_composition,
    min_drop_search,
    select_drop_set,
)

__version__ = "0.1.0"

__all__ = [
    "Arena",
    "BruteForceResult",
    "BtFit",
    "DropBudget",
    "EnumerationCapError",
    "FitError",
    "HeadToHead",
    "IngestError",
    "IngestSchema",
    "IngestStats",
    "MinDropResult",
    "ModelRegistry",
    "Ranking",
    "RobustnessReport",
    "SCHEMA_PRESETS",
    "SingularHessianError",
    "SolverOptions",
    "SynthSpec",
    "TopKReport",
    "brute_force_pair",
    "check_pair",
    "check_topk",
    "elo_transform",
    "finite_difference_influence",
    "fit",
    "generate",
    "head_to_head",
    "hessian_factor",
    "influence_scores",
    "ingest",
    "involvement_composition",
    "min_drop_search",
    "pair_influence",
    "random_spec",
    "ranking",
    "refit_without",
    "select_drop_set",
]
