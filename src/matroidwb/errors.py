"""Exception types raised by the workbench modules."""


class MatroidError(Exception):
    """Base class for all workbench-specific errors."""


class EmptyBases(MatroidError):
    pass


class MixedCardinality(MatroidError):
    pass


class ExchangeViolation(MatroidError):
    """Basis exchange axiom fails; carries a violating triple (I, J, a)."""

    def __init__(self, I, J, a):
        self.I = frozenset(I)
        self.J = frozenset(J)
        self.a = a
        super().__init__(
            f"exchange axiom fails: I={sorted(self.I)}, J={sorted(self.J)}, a={a}"
        )


class BasepointIsSeparator(MatroidError):
    pass


class NotCircuitHyperplane(MatroidError):
    pass


class FDisjointFromAllBases(MatroidError):
    pass


class DependentGeneratorSet(MatroidError):
    pass


class UnknownName(MatroidError):
    pass


class PathViolation(MatroidError):
    pass


class WitnessNotVerified(MatroidError):
    """A witness failed exact re-verification after it was lifted."""


class SizeCapExceeded(MatroidError, ValueError):
    """An input is larger than an algorithm's size cap."""
