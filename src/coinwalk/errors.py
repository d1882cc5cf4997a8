"""Exception hierarchy shared across the package."""


class CoinWalkError(Exception):
    """Base class for all package errors."""


class ParseError(CoinWalkError):
    """A text input (program, schedule, distribution, calibration) is malformed."""


class NormalizationError(CoinWalkError, ValueError):
    """Amplitudes or probabilities do not satisfy the required normalization."""


class DomainError(CoinWalkError, ValueError):
    """An argument lies outside its valid domain (position, step, phase, ...)."""


class IncompleteLayerError(CoinWalkError):
    """A coin layer is missing an entry for an occupied position."""


class InfeasibleScheduleError(CoinWalkError):
    """No nonnegative amplitude flow can realize the target schedule.

    ``cell`` names the first (t, x) where the sweep failed.
    """

    def __init__(self, message: str, cell: tuple[int, int] | None = None):
        super().__init__(message)
        self.cell = cell


class ClosureError(InfeasibleScheduleError):
    """The right-edge closure of the amplitude sweep missed the target row."""


class InconsistentPlanError(CoinWalkError):
    """A synthesized coin violates cos^2 + sin^2 = 1 beyond tolerance.

    Indicates the amplitude plan broke flux conservation upstream.
    """


class ZeroCellError(CoinWalkError):
    """A zero-probability cell feeds nonzero children; no coin can realize it."""


class UnsupportedStateError(CoinWalkError):
    """The operation requires real amplitudes but got complex ones."""


class UnsupportedCoinError(CoinWalkError):
    """The compiler only handles angle-parametrized coins in stepped layers."""


class CollisionError(CoinWalkError):
    """Two electrical pulses overlap at the modulator.

    ``collisions`` lists pairs of colliding (step, position, arm) tags.
    """

    def __init__(self, message: str, collisions: list | None = None):
        super().__init__(message)
        self.collisions = collisions or []


class OrphanEventError(CoinWalkError):
    """A pulse schedule contains a cell with only one of its two arm events."""


class AlignmentError(CoinWalkError):
    """An event time does not match any (step, position, arm) slot."""


class MustDisentangleError(CoinWalkError):
    """Purity analysis requires the coin factored to |0> first."""
