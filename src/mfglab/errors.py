"""Typed exceptions shared across the package."""

from __future__ import annotations


class MfgError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(MfgError):
    """Invalid, inconsistent, or unknown run configuration."""


class InvalidMeasureError(MfgError):
    """A particle measure violates a structural invariant."""


class DomainEscapeError(MfgError):
    """A query point or particle left the computational box.

    Carries the offending point and, for transport, the time index at which
    it escaped.
    """

    def __init__(self, message: str, point=None, time_index: int | None = None):
        super().__init__(message)
        self.point = point
        self.time_index = time_index


class SizeCapError(MfgError):
    """Support size exceeds the exact-transport cap; downsample first."""


class SolverError(MfgError):
    """An iterative solver failed to produce a usable answer."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class StaticResidualError(SolverError):
    """A static-equilibrium precondition failed; carries the residual."""

    def __init__(self, message: str, residual: float, tol: float):
        super().__init__(message, residual=residual)
        self.tol = tol
