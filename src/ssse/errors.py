"""Exception hierarchy shared across the package.

Two broad failure classes matter to callers: bad inputs (rejected
configuration, malformed files, mismatched dimensions) and numeric
failures (divergence, non-finite intermediates, singular solves).
The CLI maps them to exit codes 2 and 3 respectively.
"""

from __future__ import annotations


class SsseError(Exception):
    """Base class for all package-specific errors."""


class InputError(SsseError):
    """Rejected input: bad config, malformed file, dimension mismatch."""


class ContainerError(InputError):
    """Binary container could not be parsed; message carries the byte offset."""


class StaleFisherError(InputError):
    """Inverse Fisher was built at other parameters or on another sample count."""


class NumericError(SsseError):
    """Numeric failure: non-finite values, singular or indefinite solves."""


class TrainingError(NumericError):
    """Optimization diverged; message names the epoch where loss went non-finite."""
