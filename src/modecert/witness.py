"""The witness observable delta(omega) = Delta - i Gamma / 2.

``levshift_exact`` evaluates the witness from the exact cavity Green's
function; the closed-form single-mode model supplies the reference behavior
(reflection line and level shift), and the feature extractors locate the
probed reflectance minimum omega_min and the zero crossing omega_a0 of Delta.

Normalization: the witness is calibrated once against the analytic free-space
Green's function so that a homogeneous environment gives exactly
delta = -i gamma / 2 (Delta = 0, Gamma = gamma) at every test frequency.
All dipole constants fold into the emitter's free-space width gamma, making
curves directly comparable across scenarios in units of gamma.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq, least_squares

from .errors import AmbiguityError
from .layered import EmitterSpec, WaveProblem, green_function

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# single-mode closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleModeParams:
    """Lossy single-mode model: frequency, loss, probed-channel coupling, atom.

    The probed-channel loss 2 pi kappa_R^2 cannot exceed the total loss kappa.
    """

    omega1: float
    kappa: float
    kappa_R: float = 0.0
    g: complex = 0.0
    omega_a: float = 0.0

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")
        if self.kappa_R < 0:
            raise ValueError("kappa_R must be >= 0")
        if TWO_PI * self.kappa_R ** 2 > self.kappa * (1 + 1e-12):
            raise ValueError("2 pi kappa_R^2 exceeds total loss kappa")


def single_mode_levshift(p: SingleModeParams, omega):
    """Complex level shift of the single-mode model, g g* / (omega - omega1 + i kappa/2)."""
    return (p.g * np.conj(p.g)) / (omega - p.omega1 + 0.5j * p.kappa)


def single_mode_reflection(p: SingleModeParams, omega):
    """Empty-cavity reflection 1 - 2 pi i kappa_R^2 / (omega - omega1 + i kappa/2)."""
    return 1.0 - TWO_PI * 1j * p.kappa_R ** 2 / (omega - p.omega1 + 0.5j * p.kappa)


def single_mode_atom_reflection(p: SingleModeParams, omega):
    """Reflection with the coupled atom, exact within the linear regime.

    Uses the un-separated form with frequency-dependent cavity factors,

        r = r_cav(omega) - 2 pi i [|kappa_R g|^2 / D^2] / [omega - omega_a - gg*/D],
        D = omega - omega1 + i kappa / 2,

    which reduces to the separated Lorentzian-on-background form when the
    cavity factors are frozen at omega_a (weak coupling).
    """
    gg = p.g * np.conj(p.g)
    if gg == 0:
        return single_mode_reflection(p, omega)
    d = omega - p.omega1 + 0.5j * p.kappa
    num = (p.kappa_R ** 2) * gg / (d * d)
    return single_mode_reflection(p, omega) - TWO_PI * 1j * num / (omega - p.omega_a - gg / d)


# ---------------------------------------------------------------------------
# exact witness from the Green's function
# ---------------------------------------------------------------------------

def _free_space_wavenumber(problem: WaveProblem, omega):
    """Vacuum longitudinal wavenumber at the problem's parallel wavevector."""
    w = np.asarray(omega, dtype=complex) if np.ndim(omega) else complex(omega)
    if problem.k_par == 0.0:
        return w
    return np.sqrt(w * w - problem.k_par ** 2)


def levshift_exact(problem: WaveProblem, emitter: EmitterSpec | None = None,
                   omega_test=None):
    """Witness observable delta(omega_test) from the exact Green's function.

    delta(omega) = gamma * k_free(omega) * G(x_a, x_a, omega), where the
    k_free factor is the one-time calibration against the analytic free-space
    G = 1/(2 i k_free): a homogeneous environment returns exactly
    -i gamma / 2 at every omega_test.  Analytic in omega away from poles, so
    it doubles as the pole-search evaluator at complex frequencies.
    """
    if emitter is None:
        emitter = problem.stack.emitter
    if emitter is None:
        raise ValueError("no emitter on the stack and none supplied")
    g = green_function(problem, emitter.x_a, emitter.x_a, omega_test)
    return emitter.gamma * _free_space_wavenumber(problem, omega_test) * g


# ---------------------------------------------------------------------------
# sampled curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelShiftSample:
    """One witness sample; Delta = Re delta, Gamma = -2 Im delta."""

    omega: float
    delta: complex

    @property
    def Delta(self) -> float:
        return self.delta.real

    @property
    def Gamma(self) -> float:
        return -2.0 * self.delta.imag


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

    @property
    def Gamma(self) -> np.ndarray:
        return -2.0 * self.delta.imag

    def __len__(self):
        return self.omega.size

    def sample(self, i: int) -> LevelShiftSample:
        return LevelShiftSample(float(self.omega[i]), complex(self.delta[i]))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["omega", "delta_re", "delta_im", "provenance"])
        for om, de in zip(self.omega, self.delta):
            w.writerow([repr(float(om)), repr(float(de.real)), repr(float(de.imag)),
                        self.provenance])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, window=None) -> "LevelShiftCurve":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["omega", "delta_re", "delta_im", "provenance"]:
            raise ValueError("unexpected CSV header")
        om = np.array([float(r[0]) for r in rows[1:]])
        de = np.array([float(r[1]) + 1j * float(r[2]) for r in rows[1:]])
        prov = rows[1][3] if len(rows) > 1 else "unknown"
        win = window if window is not None else (om[0], om[-1])
        return cls(om, de, prov, win)

    def to_json(self) -> str:
        return json.dumps({
            "window": list(self.window),
            "provenance": self.provenance,
            "omega": self.omega.tolist(),
            "delta_re": self.delta.real.tolist(),
            "delta_im": self.delta.imag.tolist(),
        })


def _refined_grid(window, n, fn_values, base_omega, refine):
    """Insert refine-times denser points around local extrema of |values|."""
    om = base_omega
    slope = np.diff(np.abs(fn_values))
    idx = np.nonzero(slope[:-1] * slope[1:] < 0)[0] + 1
    extra = []
    h = (window[1] - window[0]) / (n - 1)
    for i in idx:
        lo = max(window[0], om[i] - 2 * h)
        hi = min(window[1], om[i] + 2 * h)
        extra.append(np.linspace(lo, hi, 4 * refine + 1))
    if not extra:
        return om
    allom = np.unique(np.concatenate([om] + extra))
    return allom


def levshift_curve(problem: WaveProblem, window, n: int = 2001,
                   refine: int = 10) -> LevelShiftCurve:
    """Sample the exact witness of the problem's emitter, refining around extrema.

    The base grid has ``n`` points; detected extrema of Re and Im get a
    ``refine``-times denser local grid, which is what the root finders need
    to resolve shifts much smaller than the mode width.
    """
    om = np.linspace(window[0], window[1], n)
    de = levshift_exact(problem, omega_test=om)
    if refine > 1:
        om2 = np.unique(np.concatenate([
            _refined_grid(window, n, de.real, om, refine),
            _refined_grid(window, n, de.imag, om, refine)]))
        de = levshift_exact(problem, omega_test=om2)
        om = om2
    return LevelShiftCurve(om, de, "exact-green", tuple(window))


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def find_omega_min(omega, values, window=None) -> float:
    """Parabolic-refined location of the single interior minimum of ``values``.

    Raises AmbiguityError when the window holds zero or several interior
    local minima, or when the global minimum touches the window boundary.
    """
    om = np.asarray(omega, dtype=float)
    va = np.asarray(values, dtype=float)
    if window is not None:
        mask = (om >= window[0]) & (om <= window[1])
        om, va = om[mask], va[mask]
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
    i = interior[0]
    x0, x1, x2 = om[i - 1], om[i], om[i + 1]
    y0, y1, y2 = va[i - 1], va[i], va[i + 1]
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


def find_omega_min_refined(fn, window, n: int = 2001, refine: int = 10) -> float:
    """Two-stage minimum search: coarse scan, then a refine-times denser local scan.

    ``fn`` maps a frequency array to the scanned values (e.g. reflectance).
    The local stage spans two coarse cells around the coarse minimum, which
    makes the final parabolic refinement accurate to O(h_fine^3).
    """
    om = np.linspace(window[0], window[1], n)
    coarse = find_omega_min(om, np.asarray(fn(om), dtype=float))
    h = (window[1] - window[0]) / (n - 1)
    lo = max(window[0], coarse - 2 * h)
    hi = min(window[1], coarse + 2 * h)
    om2 = np.linspace(lo, hi, 4 * refine + 1)
    return find_omega_min(om2, np.asarray(fn(om2), dtype=float))


def find_zero_of_delta(source, window, n: int = 2001) -> float:
    """Root omega_a0 of Delta(omega) in the window; requires one sign change.

    ``source`` is a LevelShiftCurve (interpolated with a monotone cubic) or a
    callable returning the complex witness (or real Delta) at a frequency.
    Bracketing root refinement reaches 1e-10 of the window width.
    """
    lo, hi = float(window[0]), float(window[1])
    if callable(source):
        om = np.linspace(lo, hi, n)
        vals = np.asarray(source(om))
        delta_fn = lambda w: float(np.real(source(w)))
        dvals = vals.real
    else:
        mask = (source.omega >= lo) & (source.omega <= hi)
        om = source.omega[mask]
        dvals = source.Delta[mask]
        if om.size < 4:
            raise AmbiguityError("not enough curve samples in window")
        interp = PchipInterpolator(om, dvals)
        delta_fn = lambda w: float(interp(w))

    sign = np.sign(dvals)
    nz = sign != 0
    crossings = np.nonzero(nz[:-1] & nz[1:] & (sign[1:] != sign[:-1]))[0] + 1
    exact_zeros = np.nonzero(~nz)[0]
    if len(exact_zeros) == 1 and len(crossings) == 0:
        return float(om[exact_zeros[0]])
    if len(crossings) != 1:
        raise AmbiguityError(
            f"{len(crossings)} sign changes of Delta in window (need exactly 1)",
            candidates=[float(om[i]) for i in crossings])
    i = crossings[0]
    return float(brentq(delta_fn, om[i - 1], om[i],
                        xtol=1e-10 * (hi - lo), rtol=4 * np.finfo(float).eps))


# ---------------------------------------------------------------------------
# Kramers-Kronig reconstruction and line-shape fitting
# ---------------------------------------------------------------------------

def kk_reconstruct_delta(omega, gamma_vals) -> np.ndarray:
    """Reconstruct Delta from Gamma via the dispersion relation.

    Delta(omega) = (1/2 pi) PV int Gamma(w') / (omega - w') dw' on a uniform
    grid, using the symmetric principal-value sum with the local-derivative
    correction for the singular cell.  Accuracy O(h^2); tails outside the
    window are neglected, so only the interior is trustworthy.
    """
    om = np.asarray(omega, dtype=float)
    ga = np.asarray(gamma_vals, dtype=float)
    h = om[1] - om[0]
    if not np.allclose(np.diff(om), h, rtol=1e-9):
        raise ValueError("uniform grid required")
    dga = np.gradient(ga, om)
    weights = np.ones_like(ga)
    weights[0] = weights[-1] = 0.5
    out = np.empty_like(ga)
    for i in range(om.size):
        diff = om[i] - om
        diff[i] = 1.0  # excluded below
        terms = weights * ga / diff
        terms[i] = 0.0
        out[i] = h * np.sum(terms) - h * dga[i]
    return out / TWO_PI


def fit_complex_lorentzian(omega, values, with_offset: bool = True):
    """Least-squares fit of values ~ A / (omega - center + i width/2) + C.

    Returns (A, center, width, C); the fit is linear in (A, C) and nonlinear
    in (center, width).  Initial guesses come from the peak of |values - median|.
    """
    om = np.asarray(omega, dtype=float)
    va = np.asarray(values, dtype=complex)
    base = np.median(va.real) + 1j * np.median(va.imag) if with_offset else 0.0
    dev = np.abs(va - base)
    i0 = int(np.argmax(dev))
    center0 = om[i0]
    half = dev > 0.5 * dev[i0]
    width0 = max((om[half][-1] - om[half][0]), 4 * (om[1] - om[0]))
    a0 = va[i0] - base
    p0 = [a0.real * width0 / 2, a0.imag * width0 / 2, center0, width0]
    if with_offset:
        p0 += [base.real, base.imag]

    def resid(p):
        a = p[0] + 1j * p[1]
        c = (p[4] + 1j * p[5]) if with_offset else 0.0
        model = a / (om - p[2] + 0.5j * p[3]) + c
        r = model - va
        return np.concatenate([r.real, r.imag])

    sol = least_squares(resid, p0, method="lm", xtol=1e-14, ftol=1e-14)
    p = sol.x
    a = p[0] + 1j * p[1]
    c = (p[4] + 1j * p[5]) if with_offset else 0.0
    return a, float(p[2]), float(abs(p[3])), c
