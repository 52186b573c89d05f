"""Exception types shared across the package.

Every condition a caller is expected to handle gets its own class so that
CLI commands can map failures to exit codes without string matching.
"""


class BealsearchError(Exception):
    """Base class for all package-specific errors."""


class BudgetExceeded(BealsearchError):
    """Factorization gave up within the configured budget.

    Callers are expected to degrade to gcd-only reporting.
    """

    def __init__(self, n: int, budget: int):
        self.n = n
        self.budget = budget
        super().__init__(f"factorization budget ({budget} rounds) exceeded for {n}")


class NotAdditiveTriple(BealsearchError):
    """The inputs do not satisfy a + b = c."""


class NoRealRoot(BealsearchError):
    """An even-degree root of a negative quantity was requested."""


class DegenerateBeta(BealsearchError):
    """The derived beta parameter is zero (a non-zero value is required)."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"derived beta is degenerate: {value}")


class ZeroDenominator(BealsearchError):
    """A denominator's enclosing interval still contains 0 at maximum precision."""


class Divergent(BealsearchError):
    """The requested series does not converge for these inputs."""


class BoundTooLarge(BealsearchError):
    """The oracle's naive budget or a search's power table refuses the bound."""
