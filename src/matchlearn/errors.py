"""Exception and warning taxonomy shared across the package.

Exit-code mapping used by the CLI lives in :mod:`matchlearn.harness`;
library code raises these types and never calls ``sys.exit`` itself.
"""
from __future__ import annotations


class MatchlearnError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(MatchlearnError, ValueError):
    """A caller-supplied argument violates a documented precondition.

    ``period`` is the offending period when the argument is a batch.
    """

    def __init__(self, message: str = "", period: int | None = None):
        self.period = period
        super().__init__(message)


class ConfigError(MatchlearnError, ValueError):
    """A configuration file or CLI flag set is invalid.

    Carries the full list of violations so a bad config is reported
    in one shot rather than one field at a time.
    """

    def __init__(self, problems: list[str] | str):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DataFormatError(MatchlearnError, ValueError):
    """A data file (batch, matrix, linear form, matching) failed to parse."""


class NumericalError(MatchlearnError, RuntimeError):
    """A numerical procedure could not produce a trustworthy result."""


class DegenerateInitError(NumericalError):
    """The spectral initializer received an identically zero aggregate."""


class SingularCoreError(NumericalError):
    """The r-by-r core matrix is numerically singular and cannot be inverted."""


class RankDeficientDesignError(NumericalError):
    """The least-squares design for the core refit is rank deficient."""

    def __init__(self, message: str, condition: float | None = None):
        self.condition = condition
        super().__init__(message)


class InternalConsistencyError(NumericalError):
    """An internal identity that should hold numerically was violated."""


class UndefinedVarianceError(NumericalError):
    """No residuals were available to estimate the noise variance."""


class NonFiniteResultError(NumericalError):
    """A computation on finite inputs overflowed to non-finite values."""


class DegenerateTestError(NumericalError):
    """A test statistic is undefined because its standard error is zero."""


class InfeasibleTruncationError(ArgumentError):
    """A two-sided truncation region holds no arrival counts; raised before any draw."""


class ReplicationFailureError(NumericalError):
    """Too many replications of a simulation study failed."""


class MatchlearnWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class DegenerateSpectrumWarning(MatchlearnWarning):
    """A rank-r truncation cut through a (numerically) tied singular pair."""


class RemainderDroppedWarning(MatchlearnWarning):
    """Observations beyond the last full batch were dropped."""


class EmptyMatchingWarning(MatchlearnWarning):
    """Records with empty matchings were skipped in an aggregate."""


class OutsideTheoryWarning(MatchlearnWarning):
    """A parameter combination is allowed but not covered by the theory."""
