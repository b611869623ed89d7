"""Exception types shared across the package."""


class Mub6Error(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(Mub6Error, ValueError):
    """Malformed data: wrong shape, non-finite entries, broken invariants."""


class DomainError(Mub6Error, ValueError):
    """A parameter lies outside the admissible domain of a family."""


class SolveError(Mub6Error, RuntimeError):
    """An entry solver failed to produce a solution within tolerance."""
