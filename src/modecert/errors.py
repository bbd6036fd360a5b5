"""Exception types shared across the package.

All errors raised by the numerical machinery derive from :class:`ModeCertError`
so callers can catch everything from one base.  Diagnostic payloads (offending
frequency, sub-box, candidate list, error table) are keyword arguments of the
constructor and ride along as attributes of the same names.
"""

from __future__ import annotations


class ModeCertError(Exception):
    """Base class for all package errors.

    ``ModeCertError(message, **payload)`` stores each payload entry as an
    attribute; each subclass names its payload and the defaults it keeps.
    """

    def __init__(self, message, **payload):
        super().__init__(message)
        self.__dict__.update(payload)


class DomainError(ModeCertError):
    """Input outside the mathematical domain of an operation (e.g. omega == 0)."""


class BranchPointError(ModeCertError):
    """A cladding wavenumber sits exactly at k_z = 0, where the branch is undefined.

    Payload: ``omega``, the offending frequency value(s).
    """


class ThicknessOverflowError(ModeCertError):
    """|Im k_z| * thickness exceeds the double-precision exponential range."""


class NearPoleError(ModeCertError):
    """Green's function requested at (or numerically at) a pole.

    Payload: ``omega``, the offending frequency value(s).
    """


class AmbiguityError(ModeCertError):
    """Feature extraction found zero or multiple candidates where one was required.

    Payload: ``candidates``, the candidate locations found (empty by default),
    and from a failed window search ``zero_counts``, each window's Delta sign changes.
    """

    candidates = ()


class UnresolvedRegionError(ModeCertError):
    """Pole search could not validate a sub-box within the subdivision budget.

    Payload: ``box``, (re_lo, re_hi, im_lo, im_hi) of the unresolved sub-box.
    """


class ExceptionalPointError(ModeCertError):
    """A higher-order pole / non-diagonalizable mode matrix was detected.

    Simple-pole machinery does not apply; the case is rejected, not handled.
    """


class AccuracyError(ModeCertError):
    """A quadrature error estimate exceeded the requested tolerance."""


class RegionTooSmallError(ModeCertError):
    """Requested truncation tolerance is unreachable with the poles found.

    Raised by ``certify.classify`` after its last region growth, and by a
    ``ClassificationReport`` given such an error table.  Advises enlarging
    the scan region.  Payload: ``errors``, the truncation error of each
    N-mode sum over the last region (empty by default).
    """

    errors = ()


class ConfigurationError(ModeCertError):
    """Invalid or incomplete configuration input (scenario file, material table)."""
