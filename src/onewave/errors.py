"""Exception types shared across the package."""


class OnewaveError(Exception):
    """Base class for all package errors."""


class NonFinite(OnewaveError):
    """An evaluation produced inf or nan."""


class EmptyBox(OnewaveError):
    """A sampling box has no sample points."""


class InsufficientSweep(OnewaveError):
    """An epsilon sweep is too short or too narrow for a regression verdict."""


class BadEps(OnewaveError):
    """Regularization parameter outside (0, 1)."""


class GridMismatch(OnewaveError):
    """Grid functions defined on incompatible grids."""


class UnsupportedRoughKind(OnewaveError):
    """Rough coefficient kind not supported by the mollification machinery."""


class DimensionMismatch(OnewaveError):
    """Symbol and grid dimensions disagree."""


class TooLarge(OnewaveError):
    """A dense table, the matrix oracle, or the snapshots and per-step
    ledgers of a solve, of a stack of solves or of a sweep's members beyond
    its size guard (quantization.DENSE_GUARD nodes, or the bytes of
    DENSE_GUARD**2 complex entries)."""


class BoxTooSmall(OnewaveError):
    """Truncated integral tail estimate exceeds the requested tolerance."""


class UnstableStep(OnewaveError):
    """Time stepper norm growth exceeded the predicted bound."""


class InsufficientOrders(OnewaveError):
    """Sweep report does not cover the derivative orders a check needs."""


class ConfigInvalid(OnewaveError):
    """Scenario configuration failed schema validation."""
