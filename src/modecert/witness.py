"""The witness observable delta(omega) = Delta - i Gamma / 2.

``levshift_exact``, the one witness function, evaluates the witness of a
problem's own emitter from the exact cavity Green's function: the sampled
curves call it, and bound to its problem it is the pole-search evaluator (inf
on a pole; an exact omega = 0, a removable point, is moved to 1e-30).  The
feature extractors locate the probed reflectance minimum omega_min and the
zero crossing omega_a0 of Delta.  A sampled curve is its uniform grid,
evaluated in one call; a minimum scan refines its minimum on a
``_REFINE``-times denser local grid over two cells either side of it.

Normalization: the witness is calibrated once against the analytic free-space
Green's function so that a homogeneous environment gives exactly
delta = -i gamma / 2 (Delta = 0, Gamma = gamma) at every test frequency.
All dipole constants fold into the emitter's free-space width gamma, making
curves directly comparable across scenarios in units of gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import AmbiguityError
from .layered import WaveProblem, green_function

_REFINE = 10    # the local grid around a scanned minimum is this many times denser


# ---------------------------------------------------------------------------
# exact witness from the Green's function
# ---------------------------------------------------------------------------

def levshift_exact(problem: WaveProblem, omega):
    """Witness observable delta(omega) of the problem's emitter, from the exact G.

    delta(omega) = gamma * k_free(omega) * G(x_a, x_a, omega), where the
    k_free factor is the one-time calibration against the analytic free-space
    G = 1/(2 i k_free): a homogeneous environment returns exactly
    -i gamma / 2 at every omega.  Analytic in omega away from poles, so the
    same function, bound to its problem, is the pole-search evaluator at
    complex frequencies.  Like the kernel, an array ``omega`` reads inf on a
    pole (Newton steps onto one, the correct limit for h = 1/f).  omega = 0
    is a removable point of the witness (delta ~ gamma omega G) that
    symmetric search contours may sample, so an exact 0 is moved to 1e-30.
    """
    emitter = problem.emitter
    zero = np.equal(omega, 0)
    if zero.any():
        omega = np.where(zero, 1e-30, omega)[()]
    g = green_function(problem, emitter.x_a, emitter.x_a, omega)
    k_free = np.asarray(omega, dtype=complex) if np.ndim(omega) else complex(omega)
    if not problem.normal_incidence:
        k_free = np.sqrt(k_free * k_free - problem.k_par ** 2)
    return emitter.gamma * k_free * g


# ---------------------------------------------------------------------------
# sampled curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelShiftCurve:
    """Witness samples on a strictly increasing grid over a stated window."""

    omega: np.ndarray
    delta: np.ndarray
    provenance: str
    window: tuple

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        de = np.asarray(self.delta, dtype=complex)
        if om.ndim != 1 or om.size < 2 or np.any(np.diff(om) <= 0):
            raise ValueError("omega grid must be 1D and strictly increasing")
        if de.shape != om.shape:
            raise ValueError("delta and omega shapes differ")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "delta", de)
        object.__setattr__(self, "window", (float(self.window[0]), float(self.window[1])))

    @property
    def Delta(self) -> np.ndarray:
        return self.delta.real

    def __len__(self):
        return self.omega.size


def _local_grid(omega, x):
    """Two cells of the uniform grid ``omega`` either side of ``x``, ``_REFINE`` times denser.

    ``4 * _REFINE + 1`` points, clipped to the grid's span.
    """
    h = (omega[-1] - omega[0]) / (len(omega) - 1)
    return np.linspace(max(omega[0], x - 2 * h), min(omega[-1], x + 2 * h), 4 * _REFINE + 1)


def levshift_curve(problem: WaveProblem, window, n: int = 2001) -> LevelShiftCurve:
    """The exact witness of the problem's emitter on ``n`` uniform points of the window.

    One kernel call; the grid is that of the window's reflectance scan in
    :func:`modecert.certify.classify`, so both observables share it.
    """
    om = np.linspace(window[0], window[1], n)
    return LevelShiftCurve(om, levshift_exact(problem, om), "exact-green", tuple(window))


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def find_omega_min(omega, values) -> float:
    """Parabolic-refined location of the single interior minimum of ``values``.

    Raises AmbiguityError when the samples hold zero or several interior
    local minima, or when the global minimum touches the first or last one.
    """
    om = np.asarray(omega, dtype=float)
    va = np.asarray(values, dtype=float)
    if om.size < 3:
        raise AmbiguityError("not enough samples in window")
    interior = local_minima(va)
    if len(interior) != 1:
        raise AmbiguityError(
            f"{len(interior)} interior minima in window (need exactly 1)",
            candidates=[float(om[i]) for i in interior])
    if int(np.argmin(va)) in (0, om.size - 1):
        raise AmbiguityError("minimum touches the window boundary",
                             candidates=[float(om[int(np.argmin(va))])])
    return parabola_vertex(om, va, interior[0])


def parabola_vertex(x, y, i: int) -> float:
    """Vertex of the parabola through samples i - 1, i, i + 1; x[i] if not convex."""
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    # vertex of the Newton-form parabola through three (unevenly spaced) points
    d1 = (y1 - y0) / (x1 - x0)
    d2 = (y2 - y1) / (x2 - x1)
    curv = (d2 - d1) / (x2 - x0)
    if curv <= 0:
        return float(x1)
    return float(0.5 * (x0 + x1) - d1 / (2.0 * curv))


def local_minima(values) -> np.ndarray:
    """Indices i of interior samples with values[i-1] > values[i] <= values[i+1]."""
    v = np.asarray(values)
    return np.nonzero((v[1:-1] < v[:-2]) & (v[1:-1] <= v[2:]))[0] + 1


def find_omega_min_refined(fn, omega, values) -> float:
    """Minimum of a given coarse scan, refined on a ``_REFINE``-times denser local scan.

    ``values`` (e.g. reflectance) are sampled on the uniform grid ``omega``;
    ``fn`` maps a frequency array to the same values and is called once, on
    the local grid, which spans two coarse cells around the coarse minimum.
    That makes the final parabolic refinement accurate to O(h_fine^3).
    """
    om2 = _local_grid(omega, find_omega_min(omega, values))
    return find_omega_min(om2, np.asarray(fn(om2), dtype=float))


def zero_bracket(omega, values) -> tuple:
    """Samples ``(lo, hi)`` around the one zero of ``values``; AmbiguityError otherwise.

    A zero is a sign change between nonzero neighbours; a lone exact zero
    sample counts only when there is none, and then ``lo == hi``.
    """
    sign = np.sign(values)
    nz = sign != 0
    crossings = np.nonzero(nz[:-1] & nz[1:] & (sign[1:] != sign[:-1]))[0] + 1
    exact_zeros = np.nonzero(~nz)[0]
    if len(exact_zeros) == 1 and len(crossings) == 0:
        return float(omega[exact_zeros[0]]), float(omega[exact_zeros[0]])
    if len(crossings) != 1:
        raise AmbiguityError(
            f"{len(crossings)} sign changes of Delta in window (need exactly 1)",
            candidates=[float(omega[i]) for i in crossings])
    i = crossings[0]
    return float(omega[i - 1]), float(omega[i])


# Chebyshev-Lobatto nodes of the degree-8 interpolant on [-1, 1], the
# matrix that maps the values there to its coefficients, highest power first
# (column j holds the Lagrange polynomial of node j), and the rows that map
# them to its two highest Chebyshev coefficients.  Built and applied without
# BLAS or LAPACK, whose first call costs about 0.6 MB of peak memory
_LOBATTO = np.cos(np.pi * np.arange(9) / 8)
_TO_POWERS = np.array([np.poly(np.delete(_LOBATTO, j)) / np.prod(x - np.delete(_LOBATTO, j))
                       for j, x in enumerate(_LOBATTO)]).T
_TO_TAIL = np.array([np.cos(np.pi * k * np.arange(9) / 8) * np.r_[0.5, np.ones(7), 0.5]
                     * (2.0 if k < 8 else 1.0) / 8 for k in (7, 8)])


def find_zero_of_delta(curve: LevelShiftCurve, exact) -> float:
    """Root omega_a0 of Delta on the curve's window; requires one sign change.

    The sign change is bracketed on the curve's own samples
    (:func:`zero_bracket`), so the window is sampled once for the
    certificate and for its zero.  ``exact`` (the complex witness of a
    frequency or a frequency array) is then called once, on the 9
    Chebyshev-Lobatto nodes of the bracketing cell, and the root is that of
    the degree-8 interpolant of Delta there.  The root is kept when its error
    estimate, the larger of the interpolant's two highest Chebyshev
    coefficients over its slope at the root, is within 1e-10 of the window
    width plus 4 eps relative, the larger term on narrow windows far from
    omega = 0 (X-ray energies).  Otherwise, as when a pole closer to the
    axis than the cell width leaves Delta a jump there, brentq polishes the
    bracket on ``exact`` to that tolerance.
    """
    a, b = zero_bracket(curve.omega, curve.Delta)
    if a == b:
        return a
    lo, hi = curve.window
    eps = np.finfo(float).eps
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    values = np.real(exact(mid + half * _LOBATTO))
    if values[0] * values[-1] < 0:   # the ends are a and b, evaluated anew
        coef = np.sum(_TO_POWERS * values, axis=1)
        t = brentq(lambda t: np.polyval(coef, t), -1.0, 1.0, xtol=1e-14)
        tail = np.max(np.abs(np.sum(_TO_TAIL * values, axis=1)))
        root = mid + half * t
        if half * tail <= (1e-10 * (hi - lo) + 4 * eps * abs(root)) * abs(
                np.polyval(np.polyder(coef), t)):
            return float(root)
    return float(brentq(lambda w: float(np.real(exact(w))), a, b,
                        xtol=1e-10 * (hi - lo), rtol=4 * eps))
