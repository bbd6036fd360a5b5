"""Closed forms and fits that the paper-limit tests compare the witness against.

* The lossy single-mode model: its level shift, empty-cavity reflection and
  reflection with the coupled atom.
* ``kk_reconstruct_delta``: Delta from Gamma through the dispersion relation.
* ``fit_complex_lorentzian``: a least-squares complex Lorentzian line.

None of them is part of the certificate, which reads the exact witness.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

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
