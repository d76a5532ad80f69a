"""Triangle-Cevian inequality toolkit.

Three layers: a floating-point geometry kernel with slack evaluators for
every inequality, a rigorous interval branch-and-bound certifier over the
normalized parameter domain, and a randomized counterexample search over
general Cevian families.  The ``cevians`` CLI exposes verify / certify /
search / table subcommands.
"""

from .certifier import (
    Certificate,
    CertificationTask,
    Target,
    certify,
    corner_argument_check,
)
from .exceptions import (
    CevianError,
    DegenerateTriangleError,
    DomainError,
    NegativeSqrtDomainError,
    NonPositiveSideError,
    NotScaleneError,
    ZeroWeightsError,
)
from .inequalities import (
    OrderingProducts,
    SlackReport,
    bisector_ratio_slack,
    bisector_sqrt_chain_slack,
    isosceles_slack_case1,
    isosceles_slack_case2,
    key_system_residuals,
    lemma_scalene_slack,
    normalized_slack,
    open_problem_slacks,
    ordering_products,
    slack_main,
    slack_quadratic,
    tolerance_scale,
)
from .intervals import Interval
from .kernel import (
    CevianKind,
    CevianTriple,
    GeneralCevianParams,
    MixedWeights,
    NormalizedTriangle,
    SideTriple,
    TriangleMetrics,
    altitudes,
    bisectors,
    general_cevians,
    medians,
    metrics,
    mixed_cevians,
    normalize,
    validate_sides,
)
from .reports import TOOL_VERSION, RunManifest
from .search import (
    CandidateRecord,
    SearchConfig,
    SearchMode,
    SearchReport,
    constraint_filter,
    evaluate_candidate,
    refine,
    reverify_candidate,
    search,
)

__version__ = TOOL_VERSION

__all__ = [
    "CandidateRecord",
    "Certificate",
    "CertificationTask",
    "CevianError",
    "CevianKind",
    "CevianTriple",
    "DegenerateTriangleError",
    "DomainError",
    "GeneralCevianParams",
    "Interval",
    "MixedWeights",
    "NegativeSqrtDomainError",
    "NonPositiveSideError",
    "NormalizedTriangle",
    "NotScaleneError",
    "OrderingProducts",
    "RunManifest",
    "SearchConfig",
    "SearchMode",
    "SearchReport",
    "SideTriple",
    "SlackReport",
    "Target",
    "TriangleMetrics",
    "ZeroWeightsError",
    "altitudes",
    "bisector_ratio_slack",
    "bisector_sqrt_chain_slack",
    "bisectors",
    "certify",
    "constraint_filter",
    "corner_argument_check",
    "evaluate_candidate",
    "general_cevians",
    "isosceles_slack_case1",
    "isosceles_slack_case2",
    "key_system_residuals",
    "lemma_scalene_slack",
    "medians",
    "metrics",
    "mixed_cevians",
    "normalize",
    "normalized_slack",
    "open_problem_slacks",
    "ordering_products",
    "refine",
    "reverify_candidate",
    "search",
    "slack_main",
    "slack_quadratic",
    "tolerance_scale",
    "validate_sides",
]
