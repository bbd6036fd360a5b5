"""Reference optics written apart from modecert, used to check its outputs.

The fields here are propagated as (u, du/dx) pairs through characteristic
matrices, where modecert marches (forward, backward) wave amplitudes, so a
fault shared by the two would have to be a fault in the physics, not in the
bookkeeping.  Everything is vectorised over real or complex omega.

Conventions match modecert's documented ones: c = 1, fields solve
u'' + k_z^2 u = 0 with k_z = n omega at k_par = 0 and the principal root of
n^2 omega^2 - k_par^2 otherwise, the left cladding holds
exp(i k x) + r exp(-i k x) referenced at x = 0, and the witness is
delta = gamma * k_free * G(x_a, x_a) with G'' + k^2 G = delta(x - x').
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# 14.4 keV Fe-57 line (keV), its natural width (keV) and hbar*c (keV nm)
OMEGA_NUC_KEV = 14.4125
GAMMA_NUC_KEV = 4.66e-12
HBARC_KEV_NM = 0.19732698

# grazing-incidence cavity: (material, thickness in nm), Fe-57 layer marked
XRAY_LAYERS = (("Pt", 3.0), ("C", 3.5), ("Fe", 3.0), ("C", 7.5), ("Fe", 1.0),
               ("Fe57", 1.0), ("Fe", 1.0), ("C", 27.0), ("Pt", 10.0))


@dataclass(frozen=True)
class Stack:
    """Constant-index layers between two claddings, probed at fixed k_par."""

    n_left: complex
    layers: tuple          # ((n, thickness), ...)
    n_right: complex
    x_a: float             # emitter position from the left edge
    gamma: float
    k_par: float = 0.0

    @property
    def length(self) -> float:
        return float(sum(d for _, d in self.layers))


def fabry_perot(L: float, n_mirror: complex, gamma: float = 1.0) -> Stack:
    """Mirror(L/100) | vacuum(L) | mirror(L/100) in vacuum, emitter at the centre."""
    t = L / 100.0
    return Stack(1.0, ((complex(n_mirror), t), (1.0, L), (complex(n_mirror), t)),
                 1.0, t + L / 2.0, gamma)


def load_xray_table(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        mats = json.load(fh)["materials"]
    return {k: complex(1.0 - v["delta"], v["beta"]) for k, v in mats.items()}


def xray_cavity(table: dict, theta: float, gamma: float = GAMMA_NUC_KEV) -> Stack:
    layers, x_a, x = [], None, 0.0
    for key, d_nm in XRAY_LAYERS:
        d = d_nm / HBARC_KEV_NM
        if key == "Fe57":
            key, x_a = "Fe", x + d / 2.0
        layers.append((table[key], d))
        x += d
    return Stack(1.0, tuple(layers), table["Si"], x_a, gamma,
                 k_par=OMEGA_NUC_KEV * math.cos(theta))


def _kz(n, omega, k_par):
    if np.ndim(k_par) == 0 and k_par == 0.0:
        return n * omega
    return np.sqrt(n * n * omega * omega - k_par * k_par + 0j)


def _step(u, du, k, d):
    """Carry (u, u') a signed distance d through a medium of wavenumber k."""
    c, s = np.cos(k * d), np.sin(k * d)
    return c * u + (s / k) * du, -k * s * u + c * du


def _reflection(stack: Stack, om, k_par):
    k0 = _kz(stack.n_left, om, k_par)
    kr = _kz(stack.n_right, om, k_par)
    # the two independent starts u = 1, u' = 0 and u = 0, u' = 1 at x = 0
    shape = np.broadcast(om, k_par).shape
    a, c = np.ones(shape, complex), np.zeros(shape, complex)
    b, d = np.zeros(shape, complex), np.ones(shape, complex)
    for n, t in stack.layers:
        k = _kz(n, om, k_par)
        a, c = _step(a, c, k, t)
        b, d = _step(b, d, k, t)
    # right cladding holds only t exp(i kr x): u' = i kr u at the right edge
    num = c + 1j * k0 * d - 1j * kr * a + k0 * kr * b
    den = -c + 1j * k0 * d + 1j * kr * a + k0 * kr * b
    return num / den


def reflection(stack: Stack, omega):
    """Reflection amplitude for a wave incident from the left cladding."""
    return _reflection(stack, np.asarray(omega, dtype=complex), stack.k_par)


def reflectance_vs_angle(stack: Stack, omega: float, thetas):
    """|r|^2 over grazing angles at fixed omega (k_par = omega cos theta)."""
    k_par = omega * np.cos(np.asarray(thetas, dtype=float))
    return np.abs(_reflection(stack, complex(omega), k_par)) ** 2


def _fields_at_emitter(stack: Stack, om):
    """(u, u') at x_a of the left-outgoing, right-outgoing and incident solutions."""
    k0 = _kz(stack.n_left, om, stack.k_par)
    kr = _kz(stack.n_right, om, stack.k_par)
    r = reflection(stack, om)
    ones = np.ones_like(om)
    left = (ones, -1j * k0 * ones)               # exp(-i k0 x) at x = 0
    inc = (1.0 + r, 1j * k0 * (1.0 - r))         # exp(i k0 x) + r exp(-i k0 x)
    x = 0.0
    for n, t in stack.layers:
        k = _kz(n, om, stack.k_par)
        step = min(t, stack.x_a - x)
        left = _step(*left, k, step)
        inc = _step(*inc, k, step)
        x += step
        if x >= stack.x_a:
            break
    right = (ones, 1j * kr * ones)                # exp(i kr (x - X)) at x = X
    x = stack.length
    for n, t in reversed(stack.layers):
        k = _kz(n, om, stack.k_par)
        step = min(t, x - stack.x_a)
        right = _step(*right, k, -step)
        x -= step
        if x <= stack.x_a:
            break
    return left, right, inc


def green_at_emitter(stack: Stack, omega):
    """Outgoing G(x_a, x_a, omega) = u_L u_R / (u_L u_R' - u_L' u_R)."""
    om = np.asarray(omega, dtype=complex)
    (ul, dul), (ur, dur), _ = _fields_at_emitter(stack, om)
    return ul * ur / (ul * dur - dul * ur)


def witness(stack: Stack, omega):
    """delta(omega) = gamma k_free G(x_a, x_a, omega); -i gamma/2 in free space."""
    om = np.asarray(omega, dtype=complex)
    return stack.gamma * _kz(1.0, om, stack.k_par) * green_at_emitter(stack, om)


def field_at_emitter(stack: Stack, omega):
    """Field at x_a for a unit wave incident from the left."""
    om = np.asarray(omega, dtype=complex)
    return _fields_at_emitter(stack, om)[2][0]
