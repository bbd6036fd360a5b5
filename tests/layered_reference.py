"""Reference layered kernels that the tests compare ``modecert.layered`` against.

* The per-medium kernel: k_z of every medium, claddings included, and every
  interface factor and layer phase formed afresh in each march.  The library
  forms each distinct medium's k_z and each distinct factor once per call
  with the same formulas in the same element order, so ``green_function``,
  ``reflection``, ``reflectance_vs_angle`` and ``field_profile`` here must
  agree with it bit for bit.
* The scalar transfer matrix, ``transfer_matrix`` composed of
  ``interface_matrix`` and ``propagation_matrix`` factors, which the
  property tests compare the march against.
"""

import numpy as np

from modecert import layered as ly
from modecert.errors import (
    BranchPointError, DomainError, NearPoleError, ThicknessOverflowError)


def _check_exponent(k, d):
    """Bound the whole march: |Im k_z| * thickness summed over the layer axis 0."""
    ex = np.sum(np.abs(np.imag(k)) * d, axis=0)
    if np.any(ex > ly._MAX_EXPONENT):
        raise ThicknessOverflowError(
            f"sum of |Im k_z| * thickness = {float(np.max(ex)):.3g} exceeds {ly._MAX_EXPONENT:g}")


def wavenumbers(problem, omega):
    """k_z of every medium (claddings included), stacked along a first axis."""
    w = np.asarray(omega, dtype=complex)
    if np.any(w == 0):
        raise DomainError("zero frequency is outside the Helmholtz domain")
    kp = problem.k_par
    normal = not np.any(kp)
    if not normal and np.ndim(kp):
        w = np.broadcast_to(w, np.broadcast_shapes(w.shape, np.shape(kp)))
    stack = problem.stack
    media = stack.media()
    if any(m.n_const is None for m in media):
        n = np.array([np.broadcast_to(m.index(w), w.shape) for m in media])
    else:
        n = np.array([m.n_const for m in media]).reshape((-1,) + (1,) * w.ndim)
    if normal:
        ks = n * w
    else:
        nw2 = n * n * w * w
        kz2 = nw2 - kp * kp
        floor = np.abs(nw2)
        del nw2
        floor += kp * kp
        floor *= 1e-14
        near = np.abs(kz2) < floor
        if np.any(near):
            j = int(np.argmax(near.reshape(len(near), -1).any(axis=1)))
            raise BranchPointError(
                f"k_z = 0 in medium {media[j].name!r}: branch point", omega=omega)
        ks = np.sqrt(kz2, out=kz2)
    ds = np.array([d for _, d in stack.layers])
    _check_exponent(ks[1:-1], ds.reshape((-1,) + (1,) * (ks.ndim - 1)))
    return ks


def march(ks, ds, keep=(), stop=0):
    """The right-outgoing march of ``ly._march``, each factor formed where it is used."""
    n_lay = len(ds)
    right = (1.0, 0.0)
    kept = {n_lay + 1: right} if n_lay + 1 in keep else {}
    for j in range(n_lay, stop - 1, -1):
        inv = 0.5 / ks[j]
        p, m_ = (ks[j] + ks[j + 1]) * inv, (ks[j] - ks[j + 1]) * inv
        a, b = (p, m_) if j == n_lay else (p * a + m_ * b, m_ * a + p * b)
        right = (a, b)
        if j and (j > stop or j in keep):
            ph = np.exp(-1j * ks[j] * ds[j - 1])
            a, b = a * ph, b / ph
        if j in keep:
            kept[j] = (a, b)
    return right, kept


def thicknesses(stack):
    return np.array([d for _, d in stack.layers])


def reflection(problem, omega):
    (a0, b0), _ = march(wavenumbers(problem, omega), thicknesses(problem.stack))
    return b0 / a0


def reflectance_vs_angle(stack, omega, thetas):
    kp = omega * np.cos(np.asarray(thetas, dtype=float))
    return np.abs(reflection(ly.WaveProblem(stack, k_par=kp), omega)) ** 2


def green_function(problem, x, xp, omega):
    ks = wavenumbers(problem, omega)
    ds = thicknesses(problem.stack)
    x_lo, x_hi = (x, xp) if x <= xp else (xp, x)
    j_lo, ref_lo = ly._locate(problem.stack, x_lo)
    j_hi, ref_hi = ly._locate(problem.stack, x_hi)
    _, er = march(ks, ds, keep={j_lo, j_hi}, stop=j_lo)
    (bl, al), _ = march(ks[::-1], ds[::-1], stop=len(ks) - 1 - j_lo)
    ar, br = er[j_lo]
    w = 2j * ks[j_lo] * (bl * ar - al * br)
    bad = w == 0
    if np.ndim(bad) == 0 and bad:
        raise NearPoleError(f"Wronskian vanishes: omega at a pole ({omega})", omega=omega)
    with np.errstate(divide="ignore", invalid="ignore"):
        ph_lo = np.exp(1j * ks[j_lo] * (x_lo - ref_lo))
        ph_hi = ph_lo if x_hi == x_lo else np.exp(1j * ks[j_hi] * (x_hi - ref_hi))
        g = ly._eval_amp((al, bl), ph_lo) * ly._eval_amp(er[j_hi], ph_hi) / w
    return np.where(bad, complex(np.inf, 0.0), g) if np.any(bad) else g


def field_profile(problem, omega, xs):
    ks = wavenumbers(problem, complex(omega))
    xs_flat = [float(x) for x in np.atleast_1d(xs)]
    where = [ly._locate(problem.stack, x) for x in xs_flat]
    (a0, _), er = march(ks, thicknesses(problem.stack), keep={j for j, _ in where})
    out = [ly._eval_amp(er[j], np.exp(1j * ks[j] * (x - ref))) / a0
           for x, (j, ref) in zip(xs_flat, where)]
    return np.array(out, dtype=complex).reshape(np.shape(xs))


def interface_matrix(k_a, k_b) -> np.ndarray:
    """2x2 matrix mapping (A, B) just right of an interface to just left.

    Continuity of the field and its derivative gives
    I = 1/(2 k_a) [[k_a + k_b, k_a - k_b], [k_a - k_b, k_a + k_b]];
    det I = k_b / k_a.  Direct division keeps I(k, k) an exact identity.
    """
    den = 2.0 * k_a
    p = (k_a + k_b) / den
    m = (k_a - k_b) / den
    return np.array([[p, m], [m, p]], dtype=complex)


def propagation_matrix(k, d) -> np.ndarray:
    """2x2 matrix mapping right-edge-referenced to left-edge-referenced amplitudes."""
    _check_exponent([k], d)
    ph = np.exp(-1j * k * d)
    return np.array([[ph, 0.0], [0.0, 1.0 / ph]], dtype=complex)


def transfer_matrix(problem, omega: complex) -> np.ndarray:
    """Transfer matrix of the whole stack at a single (possibly complex) omega.

    Maps (forward, backward) amplitudes in the right cladding (referenced to
    the last interface) to those in the left cladding (referenced to the
    first interface):  M = I_0 P_1 I_1 P_2 ... P_N I_N, composed left to
    right.  det M equals k_right / k_left.
    """
    ks = wavenumbers(problem, complex(omega))
    ds = [d for _, d in problem.stack.layers]
    m = interface_matrix(ks[0], ks[1])
    for j, d in enumerate(ds, start=1):
        m = m @ propagation_matrix(ks[j], d)
        m = m @ interface_matrix(ks[j], ks[j + 1])
    return m
