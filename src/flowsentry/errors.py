"""Exception taxonomy shared across the toolkit.

Offline commands fail loudly (strictness over availability); the monitor
catches row-level errors and skips, but never operational ones.
"""


class FlowSentryError(Exception):
    """Base class for every toolkit-raised error."""


class SchemaError(FlowSentryError):
    """Header or column structure is unusable (missing Label, duplicates, ...)."""


class RowError(FlowSentryError):
    """A single data row is malformed; carries the 1-based data row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row, self.message = row, message

    def __reduce__(self):               # pickle rebuilds it from (row, message)
        return type(self), (self.row, self.message)


class UnknownLabelError(FlowSentryError):
    """A raw label matched no grouping rule; message lists the offending text."""


class EmptyDatasetError(FlowSentryError):
    """No rows survive an operation that requires at least one."""


class EmptyFeatureError(FlowSentryError):
    """No feature columns survive an operation that requires at least one."""


class ParameterError(FlowSentryError):
    """A numeric or structural parameter is out of its documented range."""


class InsufficientSamplesError(FlowSentryError):
    """Too few rows for a neighbour-based operation (needs k+1 per class)."""


class StratificationError(FlowSentryError):
    """A class is too small to appear in both sides of a stratified split."""


class ShapeError(FlowSentryError):
    """Tensor shapes are incompatible with the requested operation."""


class InputError(FlowSentryError):
    """Array contents violate a precondition (not one-hot, rows not normalised, ...)."""


class ConfigError(FlowSentryError):
    """A configuration is internally inconsistent (e.g. feature count too small)."""


class ModelFormatError(FlowSentryError):
    """A model file is not in the expected container format."""


class ModelVersionError(ModelFormatError):
    """The model container's checksum holds but its version is not
    MODEL_VERSION, the one version this reader reads."""


class ChecksumError(ModelFormatError):
    """Stored checksum does not match the payload, or the payload is truncated."""
