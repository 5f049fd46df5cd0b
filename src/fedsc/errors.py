"""Named error types shared across the package, one class per failure kind.

Every error carries a stable kebab-case ``code`` so the CLI can report
failures in a machine-greppable form (``fedsc: <code>: message``).
"""

from __future__ import annotations

from dataclasses import fields
from numbers import Integral


class FedscError(Exception):
    """Base class for all package errors."""

    code = "error"


class InvalidArgumentError(FedscError, ValueError):
    code = "invalid-argument"


class DimensionMismatchError(FedscError, ValueError):
    code = "dimension-mismatch"


class MalformedHeaderError(FedscError, ValueError):
    code = "malformed-header"


class TruncatedFileError(FedscError, ValueError):
    code = "truncated-file"


class NonfiniteGradientError(FedscError, FloatingPointError):
    code = "nonfinite-gradient"


class DegeneratePrototypeError(FedscError, ValueError):
    code = "degenerate-prototype"


class DegenerateVectorError(FedscError, ValueError):
    code = "degenerate-vector"


class NoPositivePrototypeError(FedscError, ValueError):
    code = "no-positive-prototype"


class NoNegativePrototypeError(FedscError, ValueError):
    code = "no-negative-prototype"


class LabelOutOfRangeError(FedscError, ValueError):
    code = "label-out-of-range"


class EmptyDatasetError(FedscError, ValueError):
    code = "empty-dataset"


class InvalidConstantsError(FedscError, ValueError):
    code = "invalid-constants"


class NoFeasibleRateError(FedscError, ValueError):
    code = "no-feasible-rate"


class InfeasibleConfigurationError(FedscError, ValueError):
    code = "infeasible-configuration"


class InsufficientTraceError(FedscError, ValueError):
    code = "insufficient-trace"


class InvalidConfigError(FedscError, ValueError):
    code = "invalid-config"


class MalformedCsvError(FedscError, ValueError):
    code = "malformed-csv"


def check_int(name: str, value, error=InvalidArgumentError) -> None:
    """Reject anything but a Python or numpy integer (``3.0``, ``"3"`` and
    ``True`` included) with ``error``, naming the argument."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")


def check_int_fields(obj, error=InvalidArgumentError) -> None:
    """Apply :func:`check_int` to every ``int``-annotated dataclass field."""
    for f in fields(obj):
        if f.type in ("int", int):
            check_int(f.name, getattr(obj, f.name), error)
