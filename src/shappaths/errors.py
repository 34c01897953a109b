"""Exception types shared across the package.

The CLI maps these onto exit codes: config/validation problems exit 2,
missing upstream artifacts exit 3, numerical failures exit 4.
"""


class ShappathsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpecError(ShappathsError):
    """A spec object (simulation, split, plot, ...) violates its invariants."""


class DataError(ShappathsError):
    """Malformed input data: bad CSV cells, IDX magic mismatch, empty datasets."""


class ModelIOError(ShappathsError):
    """Model (de)serialization failed: corrupt file or schema version mismatch."""


class ConfigError(ShappathsError):
    """Bad run configuration, unknown keys, or config-hash mismatch on resume."""


class MissingArtifactError(ShappathsError):
    """A pipeline stage needs an artifact that has not been produced yet."""

    def __init__(self, expected_path, hint=""):
        self.expected_path = str(expected_path)
        msg = f"missing artifact: expected {self.expected_path}"
        if hint:
            msg += f" ({hint})"
        super().__init__(msg)


class NumericalError(ShappathsError):
    """Training diverged or a linear system could not be solved."""
