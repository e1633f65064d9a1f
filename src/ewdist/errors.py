"""Exception types shared across the package.

The CLI maps these onto exit codes: domain/regime/size/config errors are
usage problems (exit 2), NumericError is a convergence failure (exit 4).
"""


class EwdistError(Exception):
    """Base class for all package errors."""


class DomainError(EwdistError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RegimeError(DomainError):
    """Parameters violate the validity regime required by an operation."""


class RankError(EwdistError, ValueError):
    """A matrix that must be full rank is (numerically) singular."""


class SizeError(EwdistError, ValueError):
    """A requested enumeration exceeds the configured size cap."""


class ConfigError(EwdistError, ValueError):
    """Invalid configuration input (e.g. a config-file line that is not key=value)."""


class NumericError(EwdistError, ArithmeticError):
    """A numerical routine failed to converge; carries diagnostics."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)
