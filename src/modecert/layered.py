"""1D layered dielectric structures and the scalar Helmholtz problem.

Solves piece-wise constant index profiles at real and complex frequency:
reflection amplitudes, internal fields and the outgoing Green's function
G(x, x', omega).

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
  leftwards from the right cladding, broadcasting over omega and k_par, only
  as far as the medium it is read in.  ``reflection`` and
  ``reflectance_vs_angle`` march to the left cladding and read r = B_0/A_0;
  ``green_function`` marches to the medium of x_< and takes its left-outgoing
  solution as the right-outgoing one of the mirrored stack with A and B
  swapped, marched to the same medium.  A call forms each distinct k_z,
  interface factor and layer phase once, held until its last use (:func:`_plan`).
* Evaluator contract: where the Wronskian is exactly 0, ``green_function``
  returns inf at those entries of an array omega and raises NearPoleError
  for a scalar omega.  There is no floor: next to a pole G is large and
  finite, and so is the witness at a zero that sits on a pole the emitter
  does not see.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass
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
        n = complex(self.n_bg if self.n_const is None else self.n_const)
        if not np.isfinite(n):
            raise ValueError(f"material {self.name!r}: index {n} is not finite")
        if n.imag < 0:
            raise ValueError(f"material {self.name!r}: Im n < 0 (gain medium)")
        if self.n_const is None and (self.f_res < 0 or self.gamma_res <= 0 or self.omega_res <= 0):
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
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"emitter gamma must be finite and > 0, not {self.gamma!r}")
        if not 0 < self.omega_a < math.inf:
            raise ValueError(f"emitter omega_a must be finite and > 0, not {self.omega_a!r}")


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
    def _bounds(self) -> tuple:
        return tuple(self.boundaries.tolist())

    @functools.cached_property
    def _rows(self) -> tuple:
        """Each medium's row: media whose optics have one repr (-0.0 is not 0.0) share one."""
        row = {}
        return tuple(row.setdefault(repr((m.n_const, m.n_bg, m.omega_res, m.gamma_res, m.f_res)),
                                    len(row)) for m in self.media())

    @functools.cached_property
    def _distinct(self) -> tuple:   # the first medium of each row
        return tuple(self.media()[self._rows.index(r)] for r in range(max(self._rows) + 1))

    @functools.cached_property
    def _depth(self) -> np.ndarray:   # summed layer thickness of each distinct medium
        return np.bincount(self._rows[1:-1], [d for _, d in self.layers], len(self._distinct))

    _plans = functools.cached_property(lambda self: {})   # see _plan

    @functools.cached_property
    def _n_const(self):
        """Index of every distinct medium when none of them disperses, else None."""
        n = [m.n_const for m in self._distinct]
        return None if None in n else np.array(n)


@dataclass(frozen=True)
class WaveProblem:
    """A stack probed at fixed parallel wavevector.

    ``k_par = 0`` is normal incidence; grazing incidence at angle ``theta``
    from the surface maps to ``k_par = (omega/c) cos(theta)``.  An array
    ``k_par`` broadcasts against ``omega`` in the kernel (angle scans).
    """

    stack: LayerStack
    k_par: float = 0.0

    @property
    def emitter(self) -> EmitterSpec:
        """The probe emitter of the stack; a stack without one has no witness."""
        if self.stack.emitter is None:
            raise ConfigurationError("no emitter on the stack")
        return self.stack.emitter

    @functools.cached_property
    def normal_incidence(self) -> bool:
        """k_par = 0: a zero scalar, or an angle array of zeros only."""
        return not np.any(self.k_par)

    @property
    def conjugate_symmetric(self) -> bool:
        """G(-omega*) = G(omega)*: normal incidence and every index constant and real.

        The witness then obeys f(-z*) = -f(z)*, so its poles come in mirror
        pairs -p*, p.  Dispersive media do not qualify.
        """
        n = self.stack._n_const
        return self.normal_incidence and n is not None and not n.imag.any()


# ---------------------------------------------------------------------------
# wavenumbers and the factors of the march
# ---------------------------------------------------------------------------

def _wavenumbers(problem: WaveProblem, omega):
    """k_z of each distinct medium (``LayerStack._distinct``), stacked along a first axis.

    Row r holds distinct medium r at the shape of ``omega`` broadcast against
    k_par.  The exponent guard bounds the sum of |Im k_z| times ``_depth``.
    """
    w = np.asarray(omega, dtype=complex)
    if (w == 0).any():
        raise DomainError("zero frequency is outside the Helmholtz domain")
    kp = problem.k_par
    normal = problem.normal_incidence
    if not normal and np.ndim(kp):
        w = np.broadcast_to(w, np.broadcast_shapes(w.shape, np.shape(kp)))
    stack = problem.stack
    n = stack._n_const
    if n is None:
        n = np.array([np.broadcast_to(m.index(w), w.shape) for m in stack._distinct])
    else:
        n = n.reshape((-1,) + (1,) * w.ndim)
    if normal:
        kz = n * w  # entire in omega, no branch cut
    else:
        nw2 = n * n * w * w
        kz2 = nw2 - kp * kp
        floor = np.abs(nw2)
        del nw2   # every medium at once: keep few full-size temporaries alive
        floor += kp * kp
        floor *= 1e-14
        near = np.abs(kz2) < floor
        if near.any():
            r = int(np.argmax(near.reshape(len(near), -1).any(axis=1)))
            raise BranchPointError(
                f"k_z = 0 in medium {stack._distinct[r].name!r}: branch point", omega=omega)
        kz = np.sqrt(kz2, out=kz2)
    ex = (np.abs(kz.imag) * stack._depth.reshape((-1,) + (1,) * w.ndim)).sum(axis=0)
    if (ex > _MAX_EXPONENT).any():
        raise ThicknessOverflowError(
            f"sum of |Im k_z| * thickness = {float(np.max(ex)):.3g} exceeds {_MAX_EXPONENT:g}")
    return kz


def _plan(stack: LayerStack, marches: tuple) -> list:
    """The steps of the marches of a kernel call, made once per stack and call shape.

    ``marches`` holds a (mirrored, keep, stop) per march.  A step (j, I key,
    hold, P key, hold) takes the interface to medium j + 1, ("I", row_j,
    row_j+1), and the phase of layer j, ("P", row_j, d_j) or None (``stop``
    unless kept); ``hold`` marks a factor that a later step takes again.
    """
    plan = stack._plans.get(marches)
    if plan is None:
        plan, later = [], set()
        for mirrored, keep, stop in marches[::-1]:
            rows, ds, steps = stack._rows, [d for _, d in stack.layers], []
            if mirrored:
                rows, ds, stop = rows[::-1], ds[::-1], len(rows) - 1 - stop
            for j in range(stop, len(ds) + 1):
                i_key = ("I", rows[j], rows[j + 1])
                p_key = ("P", rows[j], ds[j - 1]) if j and (j > stop or j in keep) else None
                steps.insert(0, (j, i_key, i_key in later, p_key, p_key in later))
                later |= {i_key, p_key}
            plan.insert(0, steps)
        stack._plans[marches] = plan
    return plan


def _factor(kz, held, key, hold):
    """Factor ``key`` of :func:`_plan`, formed once and held while ``hold``: (p, m) =
    (k_a +- k_b) / (2 k_a) of I = [[p, m], [m, p]], or ph = exp(-i k d) of diag(ph, 1/ph)."""
    value = held.pop(key, None)
    if value is None:
        kind, r, s = key
        if kind == "I":
            inv = 0.5 / kz[r]
            value = (kz[r] + kz[s]) * inv, (kz[r] - kz[s]) * inv
        else:
            value = np.exp(-1j * kz[r] * s)
    if hold:
        held[key] = value
    return value


# ---------------------------------------------------------------------------
# the march: reflection, outgoing solutions and the Green's function
# ---------------------------------------------------------------------------

def _march(kz, steps, held, keep=()):
    """March the right-outgoing solution from the right cladding along ``steps``.

    ``steps`` is a march of a :func:`_plan` and ``held`` the call's factors
    that later steps take.  From (A, B) = (1, 0) it applies I_N, P_N, ...,
    P_stop+1, I_stop of M = I_0 P_1 I_1 ... P_N I_N, so ``stop = 0`` ends with
    (A_0, B_0) = (M_11, M_21) and r = B_0 / A_0.  Returns (A, B) where the
    march ends and, for each medium in ``keep``, its (A, B) at its left edge
    (a cladding's inner one).
    """
    a, b = 1.0, 0.0
    kept = dict.fromkeys(keep, (a, b))      # the right cladding keeps (1, 0)
    for n, (j, i_key, i_hold, p_key, p_hold) in enumerate(steps):
        p, m_ = _factor(kz, held, i_key, i_hold)
        a, b = (p * a + m_ * b, m_ * a + p * b) if n else (p, m_)
        if p_key:
            ph = _factor(kz, held, p_key, p_hold)
            a, b = a * ph, b / ph                   # shift reference to left edge
        if j in keep:
            kept[j] = (a, b)
    return (a, b), kept


def reflection(problem: WaveProblem, omega):
    """Complex reflection amplitude for a wave incident from the left cladding.

    Accepts scalar or array omega; |r|^2 <= 1 for real omega in passive stacks.
    """
    (steps,) = _plan(problem.stack, ((False, (), 0),))
    (a0, b0), _ = _march(_wavenumbers(problem, omega), steps, {})
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


def _eval_amp(amps, ph):
    a, b = amps
    return a * ph + b / ph


def green_function(problem: WaveProblem, x: float, xp: float, omega):
    """Outgoing Green's function G(x, x', omega); vectorized over omega.

    Built from the left- and right-outgoing solutions divided by their
    Wronskian, G = E_L(x_<) E_R(x_>) / W, which is analytic in omega away
    from the resonator poles and therefore usable at complex omega.  E_R
    comes from :func:`_march`; E_L is the right-outgoing solution of the
    mirrored stack with A and B swapped, whose right-edge amplitudes are
    referenced to the left edges of the original layers.  Both marches stop
    in the medium of x_<, so together they cross every interface once.

    Where the Wronskian is exactly 0 an array ``omega`` gets ``inf`` at
    those entries; next to a pole G is large and finite.

    Raises
    ------
    NearPoleError
        If ``omega`` is a scalar and the Wronskian is exactly 0.
    """
    kz = _wavenumbers(problem, omega)
    x_lo, x_hi = (x, xp) if x <= xp else (xp, x)
    j_lo, ref_lo = _locate(problem.stack, x_lo)
    j_hi, ref_hi = _locate(problem.stack, x_hi)
    k_lo, k_hi = kz[problem.stack._rows[j_lo]], kz[problem.stack._rows[j_hi]]
    right, left = _plan(problem.stack, ((False, (j_lo, j_hi), j_lo), (True, (), j_lo)))
    held = {}
    _, er = _march(kz, right, held, (j_lo, j_hi))
    (bl, al), _ = _march(kz, left, held)

    # Wronskian in the layer of x_<; constant across layers analytically
    ar, br = er[j_lo]
    w = 2j * k_lo * (bl * ar - al * br)
    bad = w == 0
    if np.ndim(bad) == 0 and bad:
        raise NearPoleError(f"Wronskian vanishes: omega at a pole ({omega})",
                            omega=omega)
    with np.errstate(divide="ignore", invalid="ignore"):
        ph_lo = np.exp(1j * k_lo * (x_lo - ref_lo))
        ph_hi = ph_lo if x_hi == x_lo else np.exp(1j * k_hi * (x_hi - ref_hi))
        g = _eval_amp((al, bl), ph_lo) * _eval_amp(er[j_hi], ph_hi) / w
    return np.where(bad, complex(np.inf, 0.0), g) if bad.any() else g


def field_profile(problem: WaveProblem, omega, xs):
    """Field psi(x) for a unit-amplitude wave incident from the left.

    Normalized so that the left cladding holds exp(i k x) + r exp(-i k x);
    in free space psi(x) = exp(i k x).  ``omega`` scalar, ``xs`` array.
    """
    stack = problem.stack
    kz = _wavenumbers(problem, complex(omega))
    xs_flat = [float(x) for x in np.atleast_1d(xs)]
    where = [_locate(stack, x) for x in xs_flat]
    keep = tuple(sorted({j for j, _ in where}))
    (steps,) = _plan(stack, ((False, keep, 0),))
    (a0, _), er = _march(kz, steps, {}, keep)
    out = [_eval_amp(er[j], np.exp(1j * kz[stack._rows[j]] * (x - ref))) / a0
           for x, (j, ref) in zip(xs_flat, where)]
    return np.array(out, dtype=complex).reshape(np.shape(xs))


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------

def build_fabry_perot(L: float, n_mirror: float) -> LayerStack:
    """Symmetric Fabry-Perot-like cavity with thin high-index mirrors.

    Geometry: vacuum claddings, mirror(L/100) | vacuum(L) | mirror(L/100),
    probe emitter of unit width gamma at the cavity center x_a = L/100 + L/2,
    tuned to the fundamental omega_a = pi/L.
    """
    if not 0 < L < math.inf:
        raise ValueError(f"cavity length L must be finite and > 0, not {L!r}")
    if not 1 <= n_mirror < math.inf:
        raise ValueError(f"n_mirror must be finite and >= 1, not {n_mirror!r}")
    t = L / 100.0
    mirror = Material.constant(f"mirror(n={n_mirror:g})", complex(n_mirror))
    emitter = EmitterSpec(x_a=t + L / 2.0, omega_a=math.pi / L, gamma=1.0)
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


def build_xray_cavity(table: dict, theta: float) -> WaveProblem:
    """Grazing-incidence thin-film X-ray cavity probed at angle theta (radians).

    ``table`` is a loaded material table (:func:`load_material_table`).
    Thicknesses are converted from nm to internal 1/keV lengths; the parallel
    wavevector is fixed at k_par = omega_nuc cos(theta).  The emitter, the
    57Fe line, sits at the center of the Fe-57 layer, whose index is the
    electronic Fe index.
    """
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

    emitter = EmitterSpec(x_a=x_fe57, omega_a=OMEGA_NUC_KEV, gamma=GAMMA_NUC_KEV)
    stack = LayerStack(left=VACUUM, layers=tuple(layers), right=table["Si"],
                       emitter=emitter)
    return WaveProblem(stack=stack, k_par=OMEGA_NUC_KEV * math.cos(theta))
