"""Exception taxonomy shared across the package."""


class SpecGraftError(Exception):
    """Base class for all package errors."""


class InputError(SpecGraftError, ValueError):
    """Bad caller-supplied value (token out of range, invalid distribution, ...)."""


class StructureError(SpecGraftError):
    """Malformed tree (empty frontier, mismatched roots, ...)."""


class ConfigError(SpecGraftError):
    """Invalid or inconsistent configuration."""


class AnalysisError(SpecGraftError):
    """Inconsistent traces handed to metrics/analysis code."""
