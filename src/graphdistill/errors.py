"""Exception types shared across the package."""


class GraphDistillError(Exception):
    """Base class for all package errors."""


class FormatError(GraphDistillError):
    """A file or serialized artifact does not match its expected layout."""


class IntegrityError(GraphDistillError):
    """Data is internally inconsistent (dangling references, mismatched shapes)."""


class ConfigError(GraphDistillError):
    """A configuration value is invalid or incompatible with the data."""


class ShapeError(GraphDistillError):
    """Tensor operands have incompatible shapes."""


class NumericError(GraphDistillError):
    """An operation or a training loss produced a non-finite value."""


class ContractError(GraphDistillError):
    """An operation was called outside its contract."""


class ArtifactMissingError(GraphDistillError):
    """An expected input artifact (file or directory) does not exist."""

    def __init__(self, path):
        self.path = path
        super().__init__(f"expected input artifact not found: {path}")
