"""Triangle-Cevian inequality toolkit.

Three layers: a floating-point geometry kernel with slack evaluators for
every inequality, a rigorous interval branch-and-bound certifier over the
normalized parameter domain, and a randomized counterexample search over
general Cevian families.  The ``cevians`` CLI exposes verify / certify /
search / table subcommands.

Importing the package loads the kernel layer (``kernel``, ``bulk``,
``inequalities``, ``reports``), which evaluates on Python floats and loads
no NumPy.  ``Interval`` and the names of the two engines, ``certifier``
and ``search``, load with their module on first access (PEP 562), so
``cevians verify`` loads neither engine, nor ``intervals`` and NumPy.  The
certification targets, the search modes and the ``--record-top`` bound
live in ``kernel``, and ``constraint_filter`` in ``inequalities``.
"""

import importlib
import sys
import types

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
    constraint_filter,
    key_system_residuals,
    lemma_scalene_slack,
    open_problem_slacks,
    ordering_products,
    slack_main,
    slack_quadratic,
    tolerance_scale,
)
from .kernel import (
    CevianKind,
    CevianTriple,
    GeneralCevianParams,
    MixedWeights,
    NormalizedTriangle,
    SearchMode,
    SideTriple,
    Target,
    altitudes,
    bisectors,
    general_cevians,
    medians,
    mixed_cevians,
    validate_sides,
)
from .reports import TOOL_VERSION, RunManifest

__version__ = TOOL_VERSION


def _lazy_getattr(namespace: dict, engines: dict):
    """A PEP 562 ``__getattr__`` for the module whose globals are ``namespace``.

    ``engines`` maps a submodule of this package to names it defines; the
    first access to such a name imports the submodule and binds the name in
    ``namespace``, so later lookups (and replacements set on the module)
    never come back here.
    """
    owner = {name: module for module, names in engines.items() for name in names}

    def __getattr__(name):
        if name not in owner:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = importlib.import_module(f"{__name__}.{owner[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), {
    "intervals": ("Interval",),
    "certifier": ("Certificate", "CertificationTask", "certify", "corner_argument_check"),
    "search": ("CandidateRecord", "SearchConfig", "SearchReport", "evaluate_candidate",
               "refine", "reverify_candidate", "search"),
})


class _Package(types.ModuleType):
    """The package module, whose ``search`` stays the function of that name.

    Importing the submodule ``cevians.search`` binds it as the package
    attribute ``search``; the function it defines is bound instead.
    """

    def __setattr__(self, name, value):
        if name == "search" and isinstance(value, types.ModuleType):
            value = value.search
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

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
    "key_system_residuals",
    "lemma_scalene_slack",
    "medians",
    "mixed_cevians",
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
