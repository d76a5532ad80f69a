"""Exception types shared across the package."""


class CevianError(Exception):
    """Base class for every package-specific error."""


class NonPositiveSideError(CevianError, ValueError):
    """A raw side length was zero, negative, or NaN."""


class DegenerateTriangleError(CevianError, ValueError):
    """Sorted sides violate the strict triangle inequality a + b > c."""


class NotScaleneError(CevianError, ValueError):
    """An operation requiring strictly distinct sides received repeated ones."""


class DomainError(CevianError, ValueError):
    """Input lies outside the documented domain of the operation."""


class ZeroWeightsError(CevianError, ValueError):
    """All three mixing weights are zero."""


class NegativeSqrtDomainError(CevianError, ValueError):
    """Interval square root of an interval that is entirely negative."""

