"""Exception types shared across the package, and its integer and real
number checks.

Everything raised on a caller-facing contract violation derives from
:class:`GGPrivacyError`, so the CLI can map the whole family to exit code 1.
"""

from __future__ import annotations

import numpy as np


class GGPrivacyError(Exception):
    """Base class for all domain errors raised by this package."""


class ParameterError(GGPrivacyError, ValueError):
    """A parameter is outside its documented domain."""


class InputError(GGPrivacyError, ValueError):
    """An input array violates a precondition (non-finite values, bad shape)."""


class ConfigError(GGPrivacyError, ValueError):
    """An accountant configuration is internally inconsistent."""


class GridMismatchError(ConfigError):
    """Discrete privacy-loss distributions on different grids cannot compose."""


class TruncationError(GGPrivacyError, RuntimeError):
    """The truncation window captures too little of the loss distribution."""


class RangeError(GGPrivacyError, ValueError):
    """A requested target is outside the representable range; the message
    names the attainable range."""


class SolverError(GGPrivacyError, RuntimeError):
    """A calibration search exhausted its iteration budget."""


class AccountingInconsistencyError(GGPrivacyError, RuntimeError):
    """Accountant outputs violated an expected monotonicity beyond tolerance."""


class BudgetExhaustedError(GGPrivacyError, RuntimeError):
    """A privacy budget does not admit even a single step/composition."""


class IngestionError(GGPrivacyError, ValueError):
    """A data file violates its schema; the message carries the row number."""


class ConstructionError(GGPrivacyError, RuntimeError):
    """A randomized construction failed to produce a valid instance."""


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int.  A bool, a value of any other type than an
    integer, or one below ``least`` raises a `ParameterError` that names
    ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a float.  A bool, or a value of any other type than a
    real number (an int, a float or a numpy integer or float), raises a
    `ParameterError` that names ``name``.  Its range is the caller's to
    check."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    return float(value)
