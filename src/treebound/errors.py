"""Exception types shared across the library."""


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class CapacityError(RuntimeError):
    """A requested computation would exceed a configured size cap."""


class InfeasibleGridError(ValidationError):
    """A parameter search grid contains no admissible point."""


class AmplitudeError(RuntimeError):
    """A sampled field value fell outside its amplitude bound ``[-C, C]``."""
