"""Exception types shared across the package."""


class KlsError(Exception):
    """Base class for all package-specific errors."""


class NotCoprime(KlsError):
    """Raised when a modular inverse is requested for n with gcd(n, q) > 1."""

    def __init__(self, n: int, q: int):
        super().__init__(f"{n} is not invertible mod {q} (shared factor)")
        self.n = n
        self.q = q


class DivisibilityFailure(KlsError):
    """Raised when the smoothing-modulus exponent inequality fails.

    This inequality is provable for every valid input, so seeing this
    exception indicates a bug, not a bad argument.
    """


# Default cost ceiling for budgeted operations and the command line's --budget.
DEFAULT_BUDGET = 10**8


class BudgetExceeded(KlsError):
    """Raised when an enumeration or evaluation would exceed the configured budget."""

    def __init__(self, message: str, estimated_cost: int, budget: int):
        super().__init__(f"{message} (estimated cost {estimated_cost}, budget {budget})")
        self.estimated_cost = estimated_cost
        self.budget = budget


class DeltaOutOfRange(KlsError):
    """Raised when the delta parameter lies outside the open interval (0, 0.1)."""


class CertificateFailure(KlsError):
    """Raised when the difference evaluator's stepped phases miss their exact values.

    Every call checks its last step in exact integers, so this indicates
    a bug, not a bad argument; no sum is returned.
    """
