"""The decision tree: certify and classify multi-mode behavior.

A classification measures, for the probed cavity mode,

* omega_min, the empty-cavity reflectance minimum (off-resonant feature),
* the witness pole expansion (main pole, residue phase, truncation order N*),
* omega_a0, the zero crossing of the Lamb shift Delta(omega_a),

and sets the flags

* multi_pole_mm       iff N* > 1 at the convergence tolerance,
* complex_residue_mm  iff |arg r_main| exceeds the residue phase tolerance,
* off_resonant_mm     iff |Re omega_main - omega_min| exceeds the shift
                      tolerance in units of the main pole width,
* single_mode         iff none of the above.

The quantitative shift decomposition splits omega_a0 - omega_min into
off-resonant, complex-residue and multi-pole contributions that close
exactly by construction.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .errors import AmbiguityError, ConfigurationError, ModeCertError, RegionTooSmallError
from .layered import (
    GAMMA_NUC_KEV,
    OMEGA_NUC_KEV,
    WaveProblem,
    build_fabry_perot,
    build_xray_cavity,
    field_profile,
    load_material_table,
    reflectance_vs_angle,
    reflection,
)
from .qnm import (
    ScanRegion,
    build_expansion,
    convergence_report,
    counted_poles,
    witness_evaluator,
)
from .witness import (
    find_omega_min_refined,
    find_zero_of_delta,
    levshift_curve,
    levshift_exact,
    local_minima,
)


@dataclass(frozen=True)
class Thresholds:
    """Decision-tree tolerances and window; echoed into every report.

    The flag thresholds are artifact configuration (the underlying effects
    are qualitative); the defaults below are used throughout.  A report
    echoes the window it certified, so passing its thresholds back to
    :func:`classify` reproduces it.
    """

    residue_phase_tol: float = 0.05     # rad on |arg r_main|
    convergence_tol: float = 0.05       # relative sup-norm for N*
    shift_tol: float = 0.02             # |Re omega_main - omega_min| in units of kappa_main
    window: tuple | None = None         # frequency interval; None derives one FSR

    def __post_init__(self):
        if min(self.residue_phase_tol, self.convergence_tol, self.shift_tol) <= 0:
            raise ValueError("all tolerances must be > 0")
        if self.window is not None:
            window = tuple(float(w) for w in self.window)
            if len(window) != 2 or not -math.inf < window[0] < window[1] < math.inf:
                raise ValueError(f"window must be two finite numbers lo < hi, not {self.window}")
            object.__setattr__(self, "window", window)

    def to_dict(self) -> dict:
        return {"residue_phase_tol": self.residue_phase_tol,
                "convergence_tol": self.convergence_tol,
                "shift_tol": self.shift_tol,
                "window": list(self.window) if self.window else None}


@dataclass
class ClassificationReport:
    """Decision-tree outcome with the quantitative shift decomposition.

    The three shifts satisfy off_resonant + complex_residue + multi_pole =
    omega_a0_full - omega_min up to the root-finder tolerances
    (``closure_residual`` records the actual mismatch).
    """

    single_mode: bool
    off_resonant_mm: bool
    complex_residue_mm: bool
    multi_pole_mm: bool
    omega_min: float
    omega_a_zero: float
    re_main_pole: float
    kappa_main: float
    main_residue: complex
    main_residue_phase: float
    n_star: int
    constant_term_magnitude: float
    off_resonant_shift: float
    complex_residue_shift: float
    multi_pole_shift: float
    closure_residual: float
    delta_at_min: float
    gamma_at_min: float
    gamma_unit: float
    thresholds: Thresholds
    n_poles_region: int
    convergence_errors: list = field(default_factory=list)

    def flags(self) -> dict:
        return {"single_mode": self.single_mode,
                "off_resonant_mm": self.off_resonant_mm,
                "complex_residue_mm": self.complex_residue_mm,
                "multi_pole_mm": self.multi_pole_mm}

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "flags": self.flags(),
            "metrics": {
                "omega_min": self.omega_min,
                "omega_a_zero": self.omega_a_zero,
                "re_main_pole": self.re_main_pole,
                "kappa_main": self.kappa_main,
                "main_residue_re": self.main_residue.real,
                "main_residue_im": self.main_residue.imag,
                "main_residue_phase": self.main_residue_phase,
                "n_star": self.n_star,
                "constant_term_magnitude": self.constant_term_magnitude,
                "delta_at_min": self.delta_at_min,
                "gamma_at_min": self.gamma_at_min,
                "gamma_unit": self.gamma_unit,
                "n_poles_region": self.n_poles_region,
            },
            "shifts": {
                "off_resonant": self.off_resonant_shift,
                "complex_residue": self.complex_residue_shift,
                "multi_pole": self.multi_pole_shift,
                "closure_residual": self.closure_residual,
            },
            "convergence_errors": list(self.convergence_errors),
            "thresholds": self.thresholds.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        f = self.flags()
        lines = ["classification: " + ", ".join(k for k, v in f.items() if v)]
        lines.append(f"  omega_min          = {self.omega_min!r}")
        lines.append(f"  omega_a_zero       = {self.omega_a_zero!r}")
        lines.append(f"  Re main pole       = {self.re_main_pole!r}")
        lines.append(f"  kappa main         = {self.kappa_main!r}")
        lines.append(f"  arg r_main         = {self.main_residue_phase!r}")
        lines.append(f"  N*                 = {self.n_star}")
        lines.append(f"  shifts (off-res, complex-res, multi-pole) = "
                     f"({self.off_resonant_shift!r}, {self.complex_residue_shift!r}, "
                     f"{self.multi_pole_shift!r})")
        lines.append(f"  Delta at minimum   = {self.delta_at_min!r} "
                     f"(in units of gamma = {self.gamma_unit!r})")
        # each decision over its threshold: 1 is where a flag flips
        th, errs = self.thresholds, self.convergence_errors
        margins = [("err(N*)/tol", errs[self.n_star - 1] / th.convergence_tol)]
        if self.n_star > 1:
            margins.append(("err(N*-1)/tol", errs[self.n_star - 2] / th.convergence_tol))
        margins += [("|arg r|/tol", abs(self.main_residue_phase) / th.residue_phase_tol),
                    ("|off|/(tol*kappa)",
                     abs(self.off_resonant_shift) / (th.shift_tol * self.kappa_main))]
        for name, ratio in margins:
            near = "  <- within 5% of threshold" if abs(ratio - 1.0) < 0.05 else ""
            lines.append(f"  {name:<18} = {ratio:.4g}{near}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# feature scan helpers
# ---------------------------------------------------------------------------

def _reflectance_dips(problem: WaveProblem, span, n: int = 4000):
    """Interior minima of |r|^2 over a real frequency span."""
    om = np.linspace(span[0], span[1], n)
    r2 = np.abs(reflection(problem, om)) ** 2
    return om, r2, om[local_minima(r2)].tolist()


def _probed_minimum(problem: WaveProblem, window) -> float:
    fn = lambda w: np.abs(reflection(problem, w)) ** 2
    return find_omega_min_refined(fn, window)


def single_pole_zero(residue: complex, omega_pole: complex) -> float:
    """Zero of Re[r / (omega - omega_pole)] in closed form.

    For r = a + i b and omega_pole = Omega - i kappa/2 the real part vanishes
    at Omega - (b/a)(kappa/2); a purely imaginary residue has no zero.
    """
    a, b = residue.real, residue.imag
    if a == 0:
        raise AmbiguityError("purely imaginary main residue: single-pole zero undefined")
    kappa = -2.0 * omega_pole.imag
    return float(omega_pole.real - (b / a) * (kappa / 2.0))


def shift_decomposition(main_residue: complex, main_pole: complex,
                        omega_min: float, omega_a_zero: float,
                        gamma: float = 1.0) -> dict:
    """Split omega_a_zero - omega_min into the three multi-mode shifts.

    off_resonant = Re omega_pole - omega_min (empty-cavity displacement),
    complex_residue = single-pole zero minus Re omega_pole (closed form
    -(Im r / Re r) kappa/2), multi_pole = full zero minus single-pole zero.
    The three sum to omega_a_zero - omega_min exactly by construction; the
    result also carries copies in units of gamma and of the main pole width.
    """
    kappa = -2.0 * main_pole.imag
    z_sp = single_pole_zero(main_residue, main_pole)
    shifts = {
        "off_resonant": float(main_pole.real - omega_min),
        "complex_residue": float(z_sp - main_pole.real),
        "multi_pole": float(omega_a_zero - z_sp),
    }
    total = sum(shifts.values())
    return {
        **shifts,
        "closure_residual": float(abs(total - (omega_a_zero - omega_min))),
        "in_units_of_gamma": {k: v / gamma for k, v in shifts.items()},
        "in_units_of_kappa": {k: v / kappa for k, v in shifts.items()},
    }


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

_MAX_REGION_GROWTH = 4   # region growths before RegionTooSmallError stands

def classify(problem: WaveProblem, region: ScanRegion | None = None,
             thresholds: Thresholds = Thresholds()) -> ClassificationReport:
    """Run the decision tree on the emitter of one cavity problem.

    The probed emitter is ``problem.stack.emitter``.  Without
    ``thresholds.window`` the window is one free spectral range around the
    reflectance minimum nearest the emitter frequency (see
    :func:`_default_window_region`); the report's thresholds echo the window
    used.  With ``region=None`` a symmetric default region is derived from
    the same scan (probed minimum +- 2.5 free spectral ranges, mirror half
    included); a given ``region`` is searched as it is.  The region is
    doubled, up to ``_MAX_REGION_GROWTH`` times, when the truncation
    tolerance is unreachable with the poles found (slowly decaying mode
    ladders need wide regions); each growth searches only the area it adds
    and keeps the poles already found.  At ``k_par != 0`` growth keeps the
    left edge, so the region stays clear of the cladding light-line branch
    points, where the witness stops being meromorphic.
    """
    emitter = problem.stack.emitter
    if emitter is None:
        raise ValueError("no emitter on the stack")

    window = thresholds.window
    if window is None or region is None:
        window, default_region = _default_window_region(problem, window)
        region = region or default_region
    thresholds = replace(thresholds, window=window)
    omega_min = _probed_minimum(problem, window)

    curve = levshift_curve(problem, window, n=2001, refine=10)

    f = witness_evaluator(problem)
    expansion = None
    conv = None
    for attempt in range(_MAX_REGION_GROWTH + 1):
        expansion = build_expansion(f, region, previous=expansion)
        if not expansion.poles:
            raise AmbiguityError("no poles found in the scan region")
        try:
            conv = convergence_report(expansion, curve, thresholds.convergence_tol,
                                      omega_min)
            break
        except RegionTooSmallError:
            if attempt == _MAX_REGION_GROWTH:
                raise
            region = _grow(region, pinned=problem.k_par != 0)

    main = counted_poles(expansion, omega_min)[0]   # the pole nearest omega_min
    kappa_main = -2.0 * main.omega_pole.imag
    phase = float(np.angle(main.residue))

    # zero of the full Delta, polished on the exact evaluator
    omega_a0 = find_zero_of_delta(lambda w: levshift_exact(problem, emitter, w), window)

    # single-pole zero: closed form, cross-checked by a numeric root
    z_sp = single_pole_zero(main.residue, main.omega_pole)
    z_sp_num = _single_pole_zero_numeric(main.residue, main.omega_pole, window)
    if z_sp_num is not None and abs(z_sp_num - z_sp) > 1e-6 * (window[1] - window[0]):
        raise AmbiguityError(
            f"single-pole zero mismatch: closed form {z_sp}, numeric {z_sp_num}")

    shifts = shift_decomposition(main.residue, main.omega_pole, omega_min,
                                 omega_a0, gamma=emitter.gamma)
    off_resonant = shifts["off_resonant"]
    complex_residue = shifts["complex_residue"]
    multi_pole = shifts["multi_pole"]
    closure = shifts["closure_residual"]

    multi_pole_mm = bool(conv.n_star > 1)
    complex_residue_mm = bool(abs(phase) > thresholds.residue_phase_tol)
    off_resonant_mm = bool(abs(off_resonant) > thresholds.shift_tol * kappa_main)
    single = not (multi_pole_mm or complex_residue_mm or off_resonant_mm)

    delta_min = levshift_exact(problem, emitter, omega_min)
    return ClassificationReport(
        single_mode=single,
        off_resonant_mm=off_resonant_mm,
        complex_residue_mm=complex_residue_mm,
        multi_pole_mm=multi_pole_mm,
        omega_min=float(omega_min),
        omega_a_zero=float(omega_a0),
        re_main_pole=float(main.omega_pole.real),
        kappa_main=float(kappa_main),
        main_residue=complex(main.residue),
        main_residue_phase=phase,
        n_star=int(conv.n_star),
        constant_term_magnitude=float(abs(conv.offset)),
        off_resonant_shift=off_resonant,
        complex_residue_shift=complex_residue,
        multi_pole_shift=multi_pole,
        closure_residual=float(closure),
        delta_at_min=float(np.real(delta_min)),
        gamma_at_min=float(-2.0 * np.imag(delta_min)),
        gamma_unit=float(emitter.gamma),
        thresholds=thresholds,
        n_poles_region=len(expansion.poles),
        convergence_errors=[float(e) for e in conv.errors],
    )


def _grow(region: ScanRegion, pinned: bool = False) -> ScanRegion:
    if not pinned:
        c = 0.5 * (region.omega_lo + region.omega_hi)
        half = 0.5 * region.width
        lo, hi, depth = c - 2.003 * half, c + 2.001 * half, region.depth
    else:
        # left edge pinned (branch point): extend right and dig deeper
        lo = region.omega_lo
        hi = region.omega_hi + 1.001 * region.width
        depth = 1.6 * region.depth
    return ScanRegion(lo, hi, depth, im_top=region.im_top)


def _single_pole_zero_numeric(residue, omega_pole, window):
    fn = lambda w: (residue / (w - omega_pole)).real
    span = 20.0 * abs(omega_pole.imag) + (window[1] - window[0])
    lo, hi = omega_pole.real - span, omega_pole.real + span
    om = np.linspace(lo, hi, 4001)
    sgn = np.sign(fn(om))
    idx = np.nonzero(sgn[1:] * sgn[:-1] < 0)[0] + 1
    if len(idx) != 1:
        return None
    i = idx[0]
    return float(brentq(fn, om[i - 1], om[i], xtol=1e-12 * span))


def _default_window_region(problem: WaveProblem, window=None):
    """One-FSR window on the probed dip plus a symmetric scan region.

    The reflectance is scanned over (0.25, 3.4) omega_a of the problem's
    emitter.  The probed dip is the minimum nearest omega_a, within
    (0.55, 1.55) omega_a; the free spectral range is the median spacing of
    the scanned dips.  A given ``window`` is kept and centres the region.
    """
    scale = problem.stack.emitter.omega_a
    _, _, dips = _reflectance_dips(problem, (0.25 * scale, 3.4 * scale))
    if not dips:
        raise AmbiguityError("no reflectance minima found for the default window")
    fsr = float(np.median(np.diff(dips))) if len(dips) > 1 else scale
    if window is None:
        near = [d for d in dips if 0.55 * scale <= d <= 1.55 * scale]
        if not near:
            raise AmbiguityError("no reflectance minimum near the fundamental window",
                                 candidates=dips)
        c = min(near, key=lambda d: abs(d - scale))
        window = (c - 0.5 * fsr, c + 0.5 * fsr)
    else:
        c = 0.5 * (window[0] + window[1])
    span = c + 2.5 * fsr
    region = ScanRegion(-(span + 0.017 * fsr), span + 0.031 * fsr, depth=1.2 * fsr)
    return tuple(map(float, window)), region


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def scan_mirror_index(L: float, n_values, thresholds: Thresholds = Thresholds(),
                      gamma: float = 1.0) -> list:
    """Classify a Fabry-Perot cavity for each mirror index; failures recorded.

    Returns a list of (n_mirror, ClassificationReport | ModeCertError); a
    failing row never suppresses the others.
    """
    rows = []
    for n in n_values:
        try:
            stack = build_fabry_perot(L, float(n), gamma=gamma)
            report = classify(WaveProblem(stack), thresholds=thresholds)
            rows.append((float(n), report))
        except ModeCertError as exc:
            rows.append((float(n), exc))
    return rows


def scan_table_csv(rows) -> str:
    """CSV table for a mirror-index scan, one row per parameter value.

    A failed row keeps its error type and message in ``status``
    (``error:<Type>: <message>``, quoted by the CSV writer when needed) and
    leaves the other fields empty.
    """
    header = ["n_mirror", "status", "single_mode", "off_resonant_mm",
              "complex_residue_mm", "multi_pole_mm", "omega_min", "omega_a_zero",
              "re_main_pole", "kappa_main", "main_residue_phase", "n_star",
              "off_resonant_shift", "complex_residue_shift", "multi_pole_shift"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for n, res in rows:
        if isinstance(res, Exception):
            fields = [f"error:{type(res).__name__}: {res}"] + [""] * (len(header) - 2)
        else:
            f = res.flags()
            fields = (["ok"] + [str(int(f[k])) for k in header[2:6]]
                      + [repr(getattr(res, k)) for k in header[6:11]]
                      + [str(res.n_star)]
                      + [repr(getattr(res, k)) for k in header[12:]])
        writer.writerow([repr(n)] + fields)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# X-ray cavity reports
# ---------------------------------------------------------------------------

def xray_angle_minima(material_table):
    """Grazing angles (radians) of the 14.4 keV reflectance minima, 0.03-0.6 deg."""
    table = (material_table if isinstance(material_table, dict)
             else load_material_table(material_table))
    stack = build_xray_cavity(table, math.radians(0.1)).stack
    th = np.radians(np.linspace(0.03, 0.6, 4001))
    r2 = reflectance_vs_angle(stack, OMEGA_NUC_KEV, th)
    out = []
    for i in local_minima(r2):
        # parabolic refinement in angle
        d1 = (r2[i] - r2[i - 1]) / (th[i] - th[i - 1])
        d2 = (r2[i + 1] - r2[i]) / (th[i + 1] - th[i])
        curv = (d2 - d1) / (th[i + 1] - th[i - 1])
        t = 0.5 * (th[i - 1] + th[i]) - d1 / (2 * curv) if curv > 0 else th[i]
        out.append(float(t))
    return out


def xray_mode_report(material_table, mode_index: int,
                     thresholds: Thresholds = Thresholds(),
                     gamma: float | None = None,
                     spectrum_halfwidth: float = 40.0):
    """Classification at the m-th reflectance-vs-angle minimum plus the nuclear line.

    The incidence angle is fixed operationally at the ``mode_index``-th
    minimum of the angle scan; the witness and pole expansion are then
    studied versus energy at the corresponding fixed parallel wavevector.
    The energy window, one bracket of a single Delta zero around the probed
    energy-scan minimum, is set in the report's thresholds.  The returned
    spectrum is the weak-coupling emitter line on the exact cavity
    background, with the local-field modulation calibrated against the
    free-space limit.

    Returns (report, spectrum) where spectrum is a dict of arrays.
    """
    table = (material_table if isinstance(material_table, dict)
             else load_material_table(material_table))
    minima = xray_angle_minima(table)
    if len(minima) < mode_index:
        raise ConfigurationError(
            f"only {len(minima)} reflectance minima found, need {mode_index}")
    theta = minima[mode_index - 1]
    problem = build_xray_cavity(table, theta,
                                gamma=gamma if gamma is not None else GAMMA_NUC_KEV)
    emitter = problem.stack.emitter

    # energy window: one local FSR around the probed energy-scan minimum
    omega_bp = _xray_branch_point(problem)
    e_off = OMEGA_NUC_KEV - omega_bp
    span = (omega_bp + 0.02 * e_off, OMEGA_NUC_KEV + 2.5 * e_off)
    _, _, dips = _reflectance_dips(problem, span, n=6000)
    if not dips:
        raise AmbiguityError("no energy-scan reflectance minima at this angle")
    probed = min(dips, key=lambda d: abs(d - OMEGA_NUC_KEV))
    below = [d for d in dips if d < probed]
    above = [d for d in dips if d > probed]
    fsr_lo = probed - below[-1] if below else (above[0] - probed if above else e_off)
    fsr_hi = above[0] - probed if above else fsr_lo
    # widest fraction of the local gaps that still brackets exactly one zero
    # of Delta; strongly dispersing neighbor modes add crossings at the edges
    window = None
    factor = 0.35
    while factor > 0.08:
        cand = (probed - factor * fsr_lo, probed + factor * fsr_hi)
        om_w = np.linspace(cand[0], cand[1], 801)
        sgn = np.sign(np.real(levshift_exact(problem, emitter, om_w)))
        if int(np.sum(sgn[1:] != sgn[:-1])) == 1:
            window = cand
            break
        factor *= 0.8
    if window is None:
        raise AmbiguityError(
            "no window fraction brackets a single Delta zero at this minimum")
    region = ScanRegion(omega_bp + 0.02 * e_off, OMEGA_NUC_KEV + 2.5 * e_off,
                        depth=1.2 * e_off)
    report = classify(problem, region, thresholds=replace(thresholds, window=window))

    # weak-coupling nuclear line on the cavity background
    g_eff = emitter.gamma
    delta_nuc = levshift_exact(problem, emitter, OMEGA_NUC_KEV)
    gamma_eff = -2.0 * delta_nuc.imag
    half = spectrum_halfwidth * max(gamma_eff, g_eff)
    om = np.linspace(OMEGA_NUC_KEV - half, OMEGA_NUC_KEV + half, 801)
    r_cav = reflection(problem, om)
    psi = field_profile(problem, OMEGA_NUC_KEV, np.array([emitter.x_a]))[0]
    dl = levshift_exact(problem, emitter, om)
    r_tot = r_cav - 0.5j * g_eff * psi * psi / (om - emitter.omega_a - dl)
    spectrum = {"omega": om, "r_total": r_tot, "r_cav": r_cav,
                "reflectance": np.abs(r_tot) ** 2,
                "delta_at_resonance": complex(delta_nuc), "theta": float(theta)}
    return report, spectrum


def _xray_branch_point(problem: WaveProblem) -> float:
    """Largest cladding light-line frequency Re(c k_par / n) at the problem's k_par."""
    kp = problem.k_par
    vals = [kp]  # vacuum cladding
    n_sub = problem.stack.right.index(OMEGA_NUC_KEV)
    vals.append((kp / n_sub).real)
    return float(max(vals))
