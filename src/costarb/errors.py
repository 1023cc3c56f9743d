"""Exception types shared across the solver and harness."""


class CostarbError(Exception):
    """Base class for solver-specific failures."""


class InfeasibleBudgetError(CostarbError):
    """No solution fits the budget: the cheapest-cost mapping, or the
    cheapest-cost arborescence, exceeds it."""


class SizeLimitError(CostarbError):
    """Exhaustive oracle invoked beyond its enumeration size cap."""


class AmbiguousRegimeError(CostarbError):
    """Parameters fall between the asymptotic regimes' guard bands."""


class LambdaRangeError(CostarbError):
    """Multiplier outside the range where the closed-form expectation is valid."""


class InstanceFormatError(CostarbError):
    """Instance file is missing, truncated, or structurally inconsistent."""
