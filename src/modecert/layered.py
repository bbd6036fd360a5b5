"""1D layered dielectric structures and the scalar Helmholtz problem.

Solves piece-wise constant index profiles at real and complex frequency:
transfer matrices, reflection amplitudes, internal fields and the outgoing
Green's function G(x, x', omega).

Conventions
-----------
* Internal units set c = 1.  Fabry-Perot scenarios measure frequency in
  units of pi/L, X-ray scenarios in keV; conversions live at the
  configuration boundary (see :func:`build_xray_cavity`).
* Fields in medium j are A_j exp(+i k_j (x - x_ref)) + B_j exp(-i k_j (x - x_ref))
  with x_ref the left edge of the layer (the left/right cladding reference
  their inner boundary).  A is right-moving, B left-moving.
* The per-layer longitudinal wavenumber obeys k_z^2 = n(omega)^2 omega^2 - k_par^2.
  At normal incidence (k_par = 0) we use k_z = n omega directly, which is
  entire in omega.  For k_par != 0 the principal square root is taken; on the
  real axis this is the physical branch (Im k_z >= 0) for passive media, and
  in the open lower half-plane to the right of the cladding branch points it
  is the continuous continuation from the real axis, which is what the pole
  search needs.
* The Green's function solves (d^2/dx^2 + k_z(x)^2) G = delta(x - x') with
  outgoing conditions in both claddings, so dG/dx jumps by +1 at x = x' and
  free space gives G = exp(i k |x - x'|) / (2 i k).
* One vectorized march (:func:`_march`) carries the right-outgoing solution
  from the right cladding to the left, broadcasting over omega and k_par.
  ``reflection`` and ``reflectance_vs_angle`` read r = B_0/A_0 from it, and
  ``green_function`` takes its left-outgoing solution as the right-outgoing
  one of the mirrored stack with A and B swapped.  ``transfer_matrix`` with
  ``interface_matrix`` and ``propagation_matrix`` is the scalar reference.
* Evaluator contract: where the Wronskian falls below its numerical floor
  (omega on a pole), ``green_function`` returns inf at those entries of an
  array omega and raises NearPoleError for a scalar omega.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BranchPointError,
    ConfigurationError,
    DomainError,
    NearPoleError,
    ThicknessOverflowError,
)

# hbar*c in keV*nm: converts nanometre thicknesses to 1/keV lengths (c = 1)
HBARC_KEV_NM = 0.19732698

# 14.4 keV Moessbauer transition of Fe-57: energy and natural line width (keV)
OMEGA_NUC_KEV = 14.4125
GAMMA_NUC_KEV = 4.66e-12

# exp overflow guard: double precision overflows just above exp(709)
_MAX_EXPONENT = 700.0


# ---------------------------------------------------------------------------
# materials and geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Material:
    """Optical medium with a constant or single-Lorentzian complex index.

    Constant materials store ``n_const``; dispersive materials store the
    Lorentz-oscillator parameters and evaluate

        n(omega)^2 = n_bg^2 + f_res / (omega_res^2 - omega^2 - i gamma_res omega)

    which is passive (Im n >= 0 on the real axis) for f_res >= 0, gamma_res > 0.
    """

    name: str
    n_const: complex | None = None
    n_bg: complex = 1.0
    omega_res: float = 0.0
    gamma_res: float = 0.0
    f_res: float = 0.0

    def __post_init__(self):
        if self.n_const is not None:
            if complex(self.n_const).imag < 0:
                raise ValueError(f"material {self.name!r}: Im n < 0 (gain medium)")
        else:
            if complex(self.n_bg).imag < 0:
                raise ValueError(f"material {self.name!r}: Im n_bg < 0 (gain medium)")
            if self.f_res < 0 or self.gamma_res <= 0 or self.omega_res <= 0:
                raise ValueError(f"material {self.name!r}: invalid Lorentzian parameters")

    @classmethod
    def constant(cls, name: str, n: complex) -> "Material":
        return cls(name=name, n_const=complex(n))

    @classmethod
    def lorentzian(cls, name: str, n_bg: complex, omega_res: float,
                   gamma_res: float, f_res: float) -> "Material":
        return cls(name=name, n_const=None, n_bg=complex(n_bg), omega_res=omega_res,
                   gamma_res=gamma_res, f_res=f_res)

    @classmethod
    def from_xray_constants(cls, name: str, delta: float, beta: float) -> "Material":
        """Material from X-ray optical constants, n = 1 - delta + i beta."""
        return cls.constant(name, 1.0 - delta + 1j * beta)

    def index(self, omega):
        """Complex refractive index n(omega); accepts scalars or arrays."""
        if self.n_const is not None:
            if np.isscalar(omega) or np.ndim(omega) == 0:
                return complex(self.n_const)
            return np.full(np.shape(omega), complex(self.n_const))
        w = np.asarray(omega, dtype=complex) if np.ndim(omega) else complex(omega)
        eps = self.n_bg ** 2 + self.f_res / (
            self.omega_res ** 2 - w * w - 1j * self.gamma_res * w)
        return np.sqrt(eps)


VACUUM = Material.constant("vacuum", 1.0)


@dataclass(frozen=True)
class EmitterSpec:
    """Point dipole probe inside the finite region.

    ``x_a`` is measured from the left edge of the finite region.  ``gamma``
    is the free-space radiative width and serves as the normalization unit
    of the witness observable; the dipole orientation of the 1D problem is
    absorbed into it.
    """

    x_a: float
    omega_a: float
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("emitter gamma must be > 0")
        if self.omega_a <= 0:
            raise ValueError("emitter omega_a must be > 0")


@dataclass(frozen=True)
class LayerStack:
    """Ordered 1D geometry: left cladding | finite layers | right cladding."""

    left: Material
    layers: tuple  # ((Material, thickness), ...)
    right: Material
    emitter: EmitterSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple((m, float(d)) for m, d in self.layers))
        for m, d in self.layers:
            if not (d > 0) or not math.isfinite(d):
                raise ValueError(f"layer {m.name!r}: thickness must be finite and > 0")
        if self.emitter is not None:
            if not self.layers:
                raise ValueError("emitter requires a finite region")
            if not (0.0 < self.emitter.x_a < self.total_thickness):
                raise ValueError("emitter position must lie strictly inside the finite region")

    @property
    def total_thickness(self) -> float:
        return float(sum(d for _, d in self.layers))

    @property
    def boundaries(self) -> np.ndarray:
        """Interface coordinates x_0 = 0, ..., x_N = total thickness."""
        return np.concatenate(([0.0], np.cumsum([d for _, d in self.layers])))

    def media(self) -> list:
        """All media left to right, claddings included."""
        return [self.left] + [m for m, _ in self.layers] + [self.right]

    # constants of the kernel, computed on first use
    @functools.cached_property
    def _thicknesses(self) -> np.ndarray:
        return np.array([d for _, d in self.layers])

    @functools.cached_property
    def _bounds(self) -> tuple:
        return tuple(self.boundaries.tolist())

    @functools.cached_property
    def _n_const(self):
        """Index of every medium when none of them disperses, else None."""
        media = self.media()
        if any(m.n_const is None for m in media):
            return None
        return np.array([m.n_const for m in media])


@dataclass(frozen=True)
class WaveProblem:
    """A stack probed at fixed parallel wavevector.

    ``k_par = 0`` is normal incidence; grazing incidence at angle ``theta``
    from the surface maps to ``k_par = (omega/c) cos(theta)``.  An array
    ``k_par`` broadcasts against ``omega`` in the kernel (angle scans).
    """

    stack: LayerStack
    k_par: float = 0.0


# ---------------------------------------------------------------------------
# wavenumbers and elementary matrices
# ---------------------------------------------------------------------------

def _check_omega(omega):
    w = np.asarray(omega, dtype=complex)
    if np.any(w == 0):
        raise DomainError("zero frequency is outside the Helmholtz domain")
    return w


def _wavenumbers(problem: WaveProblem, omega):
    """k_z of every medium (claddings included), stacked along a first axis.

    Row j holds medium j at the shape of ``omega`` broadcast against k_par.
    """
    w = _check_omega(omega)
    kp = problem.k_par
    normal = not np.any(kp)
    if not normal and np.ndim(kp) > w.ndim:
        w = np.broadcast_to(w, np.broadcast_shapes(w.shape, np.shape(kp)))
    stack = problem.stack
    n = stack._n_const
    if n is None:
        n = np.array([np.broadcast_to(m.index(w), w.shape) for m in stack.media()])
    else:
        n = n.reshape((-1,) + (1,) * w.ndim)
    if normal:
        return n * w  # entire in omega, no branch cut
    nw2 = n * n * w * w
    kz2 = nw2 - kp * kp
    floor = np.abs(nw2)
    del nw2   # every medium at once: keep few full-size temporaries alive
    floor += kp * kp
    floor *= 1e-14
    near = np.abs(kz2) < floor
    if np.any(near):
        j = int(np.argmax(near.reshape(len(near), -1).any(axis=1)))
        raise BranchPointError(
            f"k_z = 0 in medium {stack.media()[j].name!r}: branch point", omega=omega)
    return np.sqrt(kz2, out=kz2)


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
    _check_exponent(k, d)
    ph = np.exp(-1j * k * d)
    return np.array([[ph, 0.0], [0.0, 1.0 / ph]], dtype=complex)


def _check_exponent(k, d):
    ex = np.abs(np.imag(k)) * d
    if np.any(ex > _MAX_EXPONENT):
        raise ThicknessOverflowError(
            f"|Im k_z| * thickness = {float(np.max(ex)):.3g} exceeds {_MAX_EXPONENT:g}")


def transfer_matrix(problem: WaveProblem, omega: complex) -> np.ndarray:
    """Transfer matrix of the whole stack at a single (possibly complex) omega.

    Maps (forward, backward) amplitudes in the right cladding (referenced to
    the last interface) to those in the left cladding (referenced to the
    first interface):  M = I_0 P_1 I_1 P_2 ... P_N I_N, composed left to
    right.  det M equals k_right / k_left.
    """
    ks = _wavenumbers(problem, complex(omega))
    ds = [d for _, d in problem.stack.layers]
    m = interface_matrix(ks[0], ks[1])
    for j, d in enumerate(ds, start=1):
        m = m @ propagation_matrix(ks[j], d)
        m = m @ interface_matrix(ks[j], ks[j + 1])
    return m


# ---------------------------------------------------------------------------
# the march: reflection, outgoing solutions and the Green's function
# ---------------------------------------------------------------------------

def _march(ks, ds, keep=()):
    """March the right-outgoing solution from the right cladding to the left.

    ``ks`` stacks the wavenumbers of every medium along its first axis (see
    :func:`_wavenumbers`) and ``ds`` is the thickness array of the layers.
    Starts from (A, B) = (1, 0) in the right cladding and applies the factors
    of :func:`transfer_matrix` right to left (I_N, P_N, ..., P_1, I_0), so the
    left cladding ends with (A_0, B_0) = (m11, m21) and r = B_0 / A_0.
    Broadcasts over whatever shape the wavenumbers have (omega, k_par or
    both); the exponent guard runs once for all layers.  Returns (A_0, B_0,
    kept) where ``kept`` maps each medium index in ``keep`` to its amplitudes
    referenced to the medium's right and left edge, ((A, B)_right,
    (A, B)_left); the claddings use their inner boundary for both.  Only the
    kept media are stored.
    """
    n_lay = len(ds)
    _check_exponent(ks[1:-1], ds.reshape((-1,) + (1,) * (ks.ndim - 1)))
    a, b = 1.0, 0.0
    kept = {n_lay + 1: ((a, b), (a, b))} if n_lay + 1 in keep else {}
    for j in range(n_lay, -1, -1):
        inv = 0.5 / ks[j]
        p, m_ = (ks[j] + ks[j + 1]) * inv, (ks[j] - ks[j + 1]) * inv
        a, b = p * a + m_ * b, m_ * a + p * b      # right-edge referenced
        right = (a, b)
        if j:
            ph = np.exp(-1j * ks[j] * ds[j - 1])
            a, b = a * ph, b / ph                   # shift reference to left edge
        if j in keep:
            kept[j] = (right, (a, b))
    return a, b, kept


def reflection(problem: WaveProblem, omega):
    """Complex reflection amplitude for a wave incident from the left cladding.

    Accepts scalar or array omega; |r|^2 <= 1 for real omega in passive stacks.
    """
    a0, b0, _ = _march(_wavenumbers(problem, omega), problem.stack._thicknesses)
    return b0 / a0


def reflectance_vs_angle(stack: LayerStack, omega: float, thetas) -> np.ndarray:
    """|r|^2 versus grazing angle theta (radians) at fixed real omega.

    Vectorized over the angle array; k_par = omega cos(theta) per point.
    """
    kp = omega * np.cos(np.asarray(thetas, dtype=float))
    return np.abs(reflection(WaveProblem(stack, k_par=kp), omega)) ** 2


def _locate(stack: LayerStack, x: float):
    """Medium index (0 = left cladding) and reference coordinate for x."""
    bounds = stack._bounds
    if x < bounds[0]:
        return 0, bounds[0]
    if x >= bounds[-1]:
        return len(bounds), bounds[-1]
    j = bisect.bisect_right(bounds, x)  # in layer j, 1-based
    return j, bounds[j - 1]


def _eval_amp(amps, k, x, ref):
    a, b = amps
    ph = np.exp(1j * k * (x - ref))
    return a * ph + b / ph


def green_function(problem: WaveProblem, x: float, xp: float, omega):
    """Outgoing Green's function G(x, x', omega); vectorized over omega.

    Built from the left- and right-outgoing solutions divided by their
    Wronskian, G = E_L(x_<) E_R(x_>) / W, which is analytic in omega away
    from the resonator poles and therefore usable at complex omega.  E_R
    comes from :func:`_march`; E_L is the right-outgoing solution of the
    mirrored stack with A and B swapped, whose right-edge amplitudes are
    referenced to the left edges of the original layers.

    Where the Wronskian falls below its numerical floor (omega at a pole)
    an array ``omega`` gets ``inf`` at those entries.

    Raises
    ------
    NearPoleError
        If ``omega`` is a scalar and the Wronskian falls below the floor.
    """
    ks = _wavenumbers(problem, omega)
    ds = problem.stack._thicknesses
    x_lo, x_hi = (x, xp) if x <= xp else (xp, x)
    j_lo, ref_lo = _locate(problem.stack, x_lo)
    j_hi, ref_hi = _locate(problem.stack, x_hi)
    mirror = len(ks) - 1 - j_lo
    _, _, er = _march(ks, ds, keep={j_lo, j_hi})
    _, _, el = _march(ks[::-1], ds[::-1], keep={mirror})
    bl, al = el[mirror][0]

    # Wronskian in the layer of x_<; constant across layers analytically
    ar, br = er[j_lo][1]
    w = 2j * ks[j_lo] * (bl * ar - al * br)
    floor = 1e-13 * np.abs(2.0 * ks[j_lo]) * (np.abs(bl * ar) + np.abs(al * br))
    bad = np.abs(w) <= floor
    if np.ndim(bad) == 0 and bad:
        raise NearPoleError(f"Wronskian vanishes: omega at/near a pole ({omega})",
                            omega=omega)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (_eval_amp((al, bl), ks[j_lo], x_lo, ref_lo)
             * _eval_amp(er[j_hi][1], ks[j_hi], x_hi, ref_hi) / w)
    return np.where(bad, complex(np.inf, 0.0), g) if np.any(bad) else g


def field_profile(problem: WaveProblem, omega, xs):
    """Field psi(x) for a unit-amplitude wave incident from the left.

    Normalized so that the left cladding holds exp(i k x) + r exp(-i k x);
    in free space psi(x) = exp(i k x).  ``omega`` scalar, ``xs`` array.
    """
    ks = _wavenumbers(problem, complex(omega))
    xs_flat = [float(x) for x in np.atleast_1d(xs)]
    where = [_locate(problem.stack, x) for x in xs_flat]
    a0, _, er = _march(ks, problem.stack._thicknesses, keep={j for j, _ in where})
    out = [_eval_amp(er[j][1], ks[j], x, ref) / a0 for x, (j, ref) in zip(xs_flat, where)]
    return np.array(out, dtype=complex).reshape(np.shape(xs))


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------

def build_fabry_perot(L: float, n_mirror: float, gamma: float = 1.0) -> LayerStack:
    """Symmetric Fabry-Perot-like cavity with thin high-index mirrors.

    Geometry: vacuum claddings, mirror(L/100) | vacuum(L) | mirror(L/100),
    probe emitter at the cavity center x_a = L/100 + L/2, tuned to the
    fundamental omega_a = pi/L.
    """
    if L <= 0:
        raise ValueError("cavity length L must be > 0")
    if n_mirror < 1:
        raise ValueError("n_mirror must be >= 1")
    t = L / 100.0
    mirror = Material.constant(f"mirror(n={n_mirror:g})", complex(n_mirror))
    emitter = EmitterSpec(x_a=t + L / 2.0, omega_a=math.pi / L, gamma=gamma)
    return LayerStack(
        left=VACUUM,
        layers=((mirror, t), (VACUUM, L), (mirror, t)),
        right=VACUUM,
        emitter=emitter,
    )


# layer sequence of the X-ray cavity: (material key, thickness in nm)
XRAY_LAYER_SEQUENCE = (
    ("Pt", 3.0),
    ("C", 3.5),
    ("Fe", 3.0),
    ("C", 7.5),
    ("Fe", 1.0),
    ("Fe57", 1.0),
    ("Fe", 1.0),
    ("C", 27.0),
    ("Pt", 10.0),
)


def load_material_table(source) -> dict:
    """Load an X-ray material table (JSON file path or pre-parsed dict).

    Schema: {"version": 1, "energy_keV": ..., "materials":
    {name: {"delta": ..., "beta": ...}, ...}}.  Returns name -> Material.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    if "version" not in data:
        raise ConfigurationError("material table: missing 'version' field")
    if "materials" not in data:
        raise ConfigurationError("material table: missing 'materials' field")
    table = {}
    for name, entry in data["materials"].items():
        try:
            table[name] = Material.from_xray_constants(
                name, float(entry["delta"]), float(entry["beta"]))
        except KeyError as exc:
            raise ConfigurationError(
                f"material {name!r}: missing optical constant {exc}") from exc
    return table


def default_material_table_path() -> Path:
    return Path(__file__).parent / "data" / "xray_materials.json"


def build_xray_cavity(material_table, theta: float,
                      gamma: float = GAMMA_NUC_KEV) -> WaveProblem:
    """Grazing-incidence thin-film X-ray cavity probed at angle theta (radians).

    Thicknesses are converted from nm to internal 1/keV lengths; the parallel
    wavevector is fixed at k_par = omega_nuc cos(theta).  The emitter sits at
    the center of the Fe-57 layer, whose index is the electronic Fe index.
    """
    table = (material_table if isinstance(material_table, dict)
             else load_material_table(material_table))
    for key in ("Pt", "C", "Fe", "Si"):
        if key not in table:
            raise ConfigurationError(f"material table: missing entry for {key!r}")

    layers = []
    x_fe57 = None
    x_cursor = 0.0
    for key, d_nm in XRAY_LAYER_SEQUENCE:
        d = d_nm / HBARC_KEV_NM
        if key == "Fe57":
            x_fe57 = x_cursor + d / 2.0
        layers.append((table["Fe" if key == "Fe57" else key], d))
        x_cursor += d

    emitter = EmitterSpec(x_a=x_fe57, omega_a=OMEGA_NUC_KEV, gamma=gamma)
    stack = LayerStack(left=VACUUM, layers=tuple(layers), right=table["Si"],
                       emitter=emitter)
    return WaveProblem(stack=stack, k_par=OMEGA_NUC_KEV * math.cos(theta))
