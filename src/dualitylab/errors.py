"""Exception types shared across the package."""


class DualityLabError(Exception):
    """Base class for every error raised by this package."""


class MalformedTreeError(DualityLabError):
    """Scenario tree structure is invalid (orphans, bad probabilities, ragged times)."""


class PriceError(DualityLabError):
    """Asset prices are missing, nonpositive, or not finite."""


class ClockError(DualityLabError):
    """Clock increments violate the admissible-clock conditions."""


class BudgetError(DualityLabError):
    """A configured size or enumeration budget would be exceeded."""


class InfeasibleMarketError(DualityLabError):
    """No strictly positive martingale density exists: the market has arbitrage.

    Where the arbitrage was located, ``node`` is the id of the node whose
    one-period market admits it and ``holdings`` (one entry per tradable
    asset) gain nothing negative at any of its children and a positive
    amount at one; both are None otherwise.
    """

    def __init__(self, message, node=None, holdings=None):
        super().__init__(message)
        self.node = node
        self.holdings = holdings


class ConvergenceError(DualityLabError):
    """An iterative solver failed to reach its tolerance within the iteration budget.

    ``iterations`` is the number of Newton steps the dual's barrier solve ran
    before it gave up, where that solve raised; None otherwise.
    """

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class ValueDivergenceError(DualityLabError):
    """The objective diverged; the problem is unbounded."""
