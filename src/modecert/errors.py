"""Exception types shared across the package.

All errors raised by the numerical machinery derive from :class:`ModeCertError`
so callers can catch everything from one base.  Diagnostic payloads (offending
frequency, sub-box, candidate list) ride along as attributes.
"""

from __future__ import annotations


class ModeCertError(Exception):
    """Base class for all package errors."""


class DomainError(ModeCertError):
    """Input outside the mathematical domain of an operation (e.g. omega == 0)."""


class BranchPointError(ModeCertError):
    """A cladding wavenumber sits exactly at k_z = 0, where the branch is undefined."""

    def __init__(self, message, omega=None):
        super().__init__(message)
        self.omega = omega


class ThicknessOverflowError(ModeCertError):
    """|Im k_z| * thickness exceeds the double-precision exponential range."""


class NearPoleError(ModeCertError):
    """Green's function requested at (or numerically at) a pole.

    Attributes
    ----------
    omega : complex or ndarray
        The offending frequency value(s).
    """

    def __init__(self, message, omega=None):
        super().__init__(message)
        self.omega = omega


class AmbiguityError(ModeCertError):
    """Feature extraction found zero or multiple candidates where one was required.

    Attributes
    ----------
    candidates : list
        The candidate locations found (possibly empty).
    """

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = list(candidates) if candidates is not None else []


class UnresolvedRegionError(ModeCertError):
    """Pole search could not validate a sub-box within the subdivision budget.

    Attributes
    ----------
    box : tuple
        (re_lo, re_hi, im_lo, im_hi) of the unresolved sub-box.
    """

    def __init__(self, message, box=None):
        super().__init__(message)
        self.box = box


class ExceptionalPointError(ModeCertError):
    """A higher-order pole / non-diagonalizable mode matrix was detected.

    Simple-pole machinery does not apply; the case is rejected, not handled.
    """


class AccuracyError(ModeCertError):
    """A quadrature error estimate exceeded the requested tolerance."""


class RegionTooSmallError(ModeCertError):
    """Requested truncation tolerance is unreachable with the poles found.

    Advises enlarging the scan region.

    Attributes
    ----------
    errors : list
        The truncation error of each N-pole sum over the last region.
    """

    def __init__(self, message, errors=None):
        super().__init__(message)
        self.errors = list(errors) if errors is not None else []


class ConfigurationError(ModeCertError):
    """Invalid or incomplete configuration input (scenario file, material table)."""
