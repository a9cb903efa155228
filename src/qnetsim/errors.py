"""Exception types shared across the simulator."""

from __future__ import annotations


class CapacityError(ValueError):
    """Register or resource size outside the supported range."""


class RenormalizationError(ArithmeticError):
    """A measurement branch with vanishing probability was selected."""


class ConsumedResourceError(RuntimeError):
    """An entangled resource was used after it had already been consumed."""


class DecodeAmbiguityError(RuntimeError):
    """Joint state is too far from every Bell state to decode reliably."""

    def __init__(self, message: str, best_guess: tuple[int, int]):
        super().__init__(message)
        self.best_guess = best_guess


class UnreachableError(RuntimeError):
    """No classical route exists between the requested endpoints."""


class SchedulingError(ValueError):
    """Attempt to schedule an event before the current simulation time."""


class UnsupportedDimensionError(ValueError):
    """Operation is only defined for qubit-sized inputs."""


class EngineAborted(RuntimeError):
    """An event handler raised; the trace records up to the abort are kept."""

    def __init__(self, cause: BaseException, trace: tuple):
        super().__init__(f"engine aborted: {cause!r}")
        self.cause = cause
        self.trace = trace


class ConfigError(ValueError):
    """Experiment configuration failed validation.

    Carries the full list of violations so callers can report all of
    them at once instead of stopping at the first.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
