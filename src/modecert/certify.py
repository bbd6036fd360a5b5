"""The decision tree: certify and classify multi-mode behavior.

:func:`classify` only measures, for the probed cavity mode,

* omega_min, the empty-cavity reflectance minimum (off-resonant feature),
* the witness pole expansion (the main pole nearest omega_min, N-mode errors),
* omega_a0, the zero crossing of the Lamb shift Delta(omega_a),

and its :class:`ClassificationReport` derives from the main pole, the error
table, omega_min, omega_a0 and the thresholds N*, the main-pole metrics, the
shift decomposition and the flags

* multi_pole_mm       iff N* > 1 at the convergence tolerance,
* complex_residue_mm  iff |arg r_main| exceeds the residue phase tolerance,
* off_resonant_mm     iff |Re omega_main - omega_min| exceeds the shift
                      tolerance in units of the main pole width,
* single_mode         iff none of the above.

The decomposition's single-pole zero is a closed form, which the tests check
against a numeric root.  :func:`classify` is the one certificate path at
every ``k_par``; an X-ray cavity is a plain wave problem (:func:`xray_problem`).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import AmbiguityError, ConfigurationError, ModeCertError, RegionTooSmallError
from .layered import (
    OMEGA_NUC_KEV,
    WaveProblem,
    build_xray_cavity,
    default_material_table_path,
    field_profile,
    load_material_table,
    reflectance_vs_angle,
    reflection,
)
from .qnm import Pole, ScanRegion, build_expansion, convergence_report
from .witness import (
    LevelShiftCurve,
    find_omega_min_refined,
    find_zero_of_delta,
    levshift_curve,
    levshift_exact,
    local_minima,
    parabola_vertex,
    zero_bracket,
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
    window: tuple | None = None         # frequency interval; None: classify picks one

    def __post_init__(self):
        if not all(0 < tol < math.inf for tol in
                   (self.residue_phase_tol, self.convergence_tol, self.shift_tol)):
            raise ValueError("all tolerances must be finite numbers > 0")
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


# the report's names, each written once: flags() and to_dict() read them and
# the sweep table's columns are built from them; shift <s> is attribute <s>_shift
_FLAGS = ("single_mode", "off_resonant_mm", "complex_residue_mm", "multi_pole_mm")
_SWEEP_METRICS = ("omega_min", "omega_a_zero", "re_main_pole", "kappa_main",
                  "main_residue_phase", "n_star")
_METRICS = _SWEEP_METRICS + ("constant_term_magnitude", "delta_at_min", "gamma_at_min",
                             "gamma_unit", "n_poles_region")
_SHIFTS = ("off_resonant", "complex_residue", "multi_pole")
_SWEEP_COLUMNS = _FLAGS + _SWEEP_METRICS + tuple(f"{s}_shift" for s in _SHIFTS)


@dataclass
class ClassificationReport:
    """Decision-tree outcome with the quantitative shift decomposition.

    Built from what :func:`classify` measures: omega_min, omega_a0, the main
    pole with its residue, the error of each N-mode sum and the witness
    ``levshift_at_min`` at omega_min.  N* (:func:`_n_star`), the main-pole
    metrics, flags and shifts are derived and cannot be passed in; an error
    table that never meets the convergence tolerance raises
    RegionTooSmallError.  The shifts split omega_a0 - omega_min into
    off_resonant = Re omega_main - omega_min (empty-cavity displacement),
    complex_residue = z_sp - Re omega_main, with z_sp the single-pole zero
    (:func:`single_pole_zero`), and multi_pole = omega_a0 - z_sp; they close
    by construction and ``closure_residual`` records the floating-point
    mismatch.  ``curve`` holds the witness samples the certificate was
    checked on and ``reflectance`` the ``(omega, r)`` window scan on the
    curve's grid that located omega_min; neither is serialised.
    """

    omega_min: float
    omega_a_zero: float
    main_pole: Pole
    constant_term_magnitude: float
    levshift_at_min: complex
    gamma_unit: float
    thresholds: Thresholds
    n_poles_region: int
    convergence_errors: list
    curve: LevelShiftCurve | None = field(default=None, repr=False, compare=False)
    reflectance: tuple | None = field(default=None, repr=False, compare=False)
    # derived in __post_init__
    n_star: int = field(init=False)
    single_mode: bool = field(init=False)
    off_resonant_mm: bool = field(init=False)
    complex_residue_mm: bool = field(init=False)
    multi_pole_mm: bool = field(init=False)
    re_main_pole: float = field(init=False)
    kappa_main: float = field(init=False)
    main_residue: complex = field(init=False)
    main_residue_phase: float = field(init=False)
    off_resonant_shift: float = field(init=False)
    complex_residue_shift: float = field(init=False)
    multi_pole_shift: float = field(init=False)
    closure_residual: float = field(init=False)
    delta_at_min: float = field(init=False)
    gamma_at_min: float = field(init=False)

    def __post_init__(self):
        pole, th = self.main_pole, self.thresholds
        self.n_star = _n_star(self.convergence_errors, th.convergence_tol)
        if self.n_star is None:
            raise _region_too_small(self.convergence_errors, th.convergence_tol,
                                    self.n_poles_region)
        self.re_main_pole = float(pole.omega_pole.real)
        self.kappa_main = float(-2.0 * pole.omega_pole.imag)
        self.main_residue = complex(pole.residue)
        self.main_residue_phase = float(np.angle(pole.residue))
        z_sp = single_pole_zero(pole.residue, pole.omega_pole)
        shifts = (float(self.re_main_pole - self.omega_min), float(z_sp - self.re_main_pole),
                  float(self.omega_a_zero - z_sp))
        self.off_resonant_shift, self.complex_residue_shift, self.multi_pole_shift = shifts
        self.closure_residual = float(abs(sum(shifts) - (self.omega_a_zero - self.omega_min)))
        self.delta_at_min = float(np.real(self.levshift_at_min))
        self.gamma_at_min = float(-2.0 * np.imag(self.levshift_at_min))
        self.multi_pole_mm = bool(self.n_star > 1)
        self.complex_residue_mm = bool(abs(self.main_residue_phase) > th.residue_phase_tol)
        self.off_resonant_mm = bool(abs(self.off_resonant_shift)
                                    > th.shift_tol * self.kappa_main)
        self.single_mode = not (self.multi_pole_mm or self.complex_residue_mm
                                or self.off_resonant_mm)

    def flags(self) -> dict:
        return {k: getattr(self, k) for k in _FLAGS}

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "flags": self.flags(),
            "metrics": {**{k: getattr(self, k) for k in _METRICS},
                        "main_residue_re": self.main_residue.real,
                        "main_residue_im": self.main_residue.imag},
            "shifts": {**{s: getattr(self, f"{s}_shift") for s in _SHIFTS},
                       "closure_residual": self.closure_residual},
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

def _reflectance_dips(problem: WaveProblem, span, n: int = 4000) -> list:
    """Interior minima of |r|^2 over a real frequency span."""
    om = np.linspace(span[0], span[1], n)
    return om[local_minima(np.abs(reflection(problem, om)) ** 2)].tolist()


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


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

_MAX_REGION_GROWTH = 4   # region growths before RegionTooSmallError stands


def _n_star(errors, tol: float) -> int | None:
    """Smallest N whose N-mode sum meets the tolerance, None when no N does."""
    return next((n for n, err in enumerate(errors, 1) if err < tol), None)


def _region_too_small(errors, tol: float, n_poles: int, **payload) -> RegionTooSmallError:
    """The error of an error table that never meets ``tol``; the table joins its payload."""
    return RegionTooSmallError(
        f"tolerance {tol:g} unreachable with {len(errors)} modes of {n_poles} poles "
        f"(best {min(errors, default=math.inf):.3g}); enlarge the scan region",
        errors=errors, **payload)


def classify(problem: WaveProblem, region: ScanRegion | None = None,
             thresholds: Thresholds = Thresholds()) -> ClassificationReport:
    """Run the decision tree on the emitter of one cavity problem.

    The probed emitter is ``problem.emitter``.  The witness curve is sampled on
    the widest of the windows about the probed dip that
    :func:`_default_window_region` gives at every ``k_par`` (a given
    ``thresholds.window`` is the only one); the widest whose samples bracket
    one Delta zero is certified, sampled again if narrower, and echoed in the
    report's thresholds.  With ``region=None`` the default region of the same
    function is searched (symmetric at ``k_par = 0``, right of the cladding
    light-line branch points otherwise); a given ``region`` is searched as it
    is.  The region is doubled, up to ``_MAX_REGION_GROWTH`` times, while no
    N-mode sum meets the truncation tolerance (slowly decaying mode ladders
    need wide regions), and after the last one RegionTooSmallError carries the
    error table and the last region.  Each grown region is searched from
    scratch, so the certificate depends on the final region only, not on the
    growth that reached it.  A conjugate-symmetric problem
    (:attr:`WaveProblem.conjugate_symmetric`) searches only the right part of
    the region and mirrors its poles.  At ``k_par != 0`` growth keeps the left
    edge, clear of the branch points.  The report carries the witness curve
    its certificate was checked on and the reflectance scan of its window,
    both on the window's one 2001-point grid.
    """
    emitter = problem.emitter
    check_region(problem, region)

    candidates = [thresholds.window]
    if thresholds.window is None or region is None:
        candidates, default_region = _default_window_region(problem, thresholds.window)
        region = region or default_region
    curve = levshift_curve(problem, candidates[0], n=2001)
    window = _one_zero_window(curve, candidates)
    if window != candidates[0]:
        curve = levshift_curve(problem, window, n=2001)
    thresholds = replace(thresholds, window=window)
    # the window's one grid: the reflectance is read on the witness curve's
    r = reflection(problem, curve.omega)
    omega_min = find_omega_min_refined(lambda w: np.abs(reflection(problem, w)) ** 2,
                                       curve.omega, np.abs(r) ** 2)

    # the one witness evaluator: pole search, Delta-zero polish, delta(omega_min)
    exact = partial(levshift_exact, problem)
    for attempt in range(_MAX_REGION_GROWTH + 1):
        expansion = build_expansion(exact, region, mirror=problem.conjugate_symmetric)
        if not expansion.poles:
            raise AmbiguityError("no poles found in the scan region")
        conv = convergence_report(expansion, curve, omega_min)
        if _n_star(conv.errors, thresholds.convergence_tol) is not None:
            break
        if attempt == _MAX_REGION_GROWTH:
            raise _region_too_small(conv.errors, thresholds.convergence_tol,
                                    len(expansion.poles), region=region)
        region = _grow(region, pinned=problem.k_par != 0)

    # zero of the full Delta, bracketed on the curve, polished on the exact witness
    omega_a0 = find_zero_of_delta(curve, exact)
    return ClassificationReport(
        omega_min=float(omega_min),
        omega_a_zero=float(omega_a0),
        main_pole=conv.modes[0][0],   # first in truncation order: the head nearest c
        constant_term_magnitude=float(abs(conv.offset)),
        levshift_at_min=complex(exact(omega_min)),
        gamma_unit=float(emitter.gamma),
        thresholds=thresholds,
        n_poles_region=len(expansion.poles),
        convergence_errors=[float(e) for e in conv.errors],
        curve=curve,
        reflectance=(curve.omega, r),
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
    return ScanRegion(lo, hi, depth)


def _one_zero_window(curve: LevelShiftCurve, candidates) -> tuple:
    """First of ``candidates`` whose samples of ``curve`` bracket one Delta zero;
    failing that, the error counts each one's Delta sign changes (``zero_counts``)."""
    zero_counts = []
    for cand in candidates:
        inside = (curve.omega >= cand[0]) & (curve.omega <= cand[1])
        try:
            zero_bracket(curve.omega[inside], curve.Delta[inside])
        except AmbiguityError as exc:
            zero_counts.append(len(exc.candidates))
            continue
        return cand
    raise AmbiguityError("no candidate window brackets a single Delta zero",
                         candidates=candidates, zero_counts=zero_counts)


def _default_window_region(problem: WaveProblem, window=None):
    """Candidate windows about the probed dip, widest first, and the default region.

    The probed dip is the reflectance minimum nearest omega_a within
    (0.55, 1.55) omega_a.  The candidates are the fractions 0.49, 0.39, ...
    (> 0.08) of the gaps to the neighbouring dips, so each holds the probed
    dip and no other; strongly dispersing neighbour modes add Delta zeros to
    the wider ones.  A given ``window`` is the one candidate.  At
    ``k_par = 0`` the dips are scanned over (0.25, 3.4) omega_a and the
    region is the probed dip +- 2.5 free spectral ranges (the median dip
    spacing), mirror half included.  At ``k_par != 0`` the region spans
    :func:`_light_line_span` at depth 1.2 e, right of the branch point where
    the witness stops being meromorphic, and a given window needs no scan.
    """
    scale = problem.emitter.omega_a
    if problem.k_par != 0:
        span, size = _light_line_span(problem)
        region = ScanRegion(*span, depth=1.2 * size)
        if window is not None:
            return [window], region
        dips = _reflectance_dips(problem, span, n=6000)
    else:
        dips = _reflectance_dips(problem, (0.25 * scale, 3.4 * scale))
        size = float(np.median(np.diff(dips))) if len(dips) > 1 else scale
    near = [d for d in dips if 0.55 * scale <= d <= 1.55 * scale]
    if not near:
        raise AmbiguityError("no reflectance minimum near the fundamental window",
                             candidates=dips)
    probed = min(near, key=lambda d: abs(d - scale))
    if problem.k_par == 0:
        top = probed + 2.5 * size
        region = ScanRegion(-(top + 0.017 * size), top + 0.031 * size, depth=1.2 * size)
        if window is not None:
            return [window], region
    below = [d for d in dips if d < probed]
    above = [d for d in dips if d > probed]
    gap_lo = probed - below[-1] if below else (above[0] - probed if above else size)
    gap_hi = above[0] - probed if above else gap_lo
    candidates, factor = [], 0.49
    while factor > 0.08:
        candidates.append((probed - factor * gap_lo, probed + factor * gap_hi))
        factor *= 0.8
    return candidates, region


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def classify_rows(problems, thresholds: Thresholds = Thresholds()) -> list:
    """Classify each ``(value, problem)`` pair; failures recorded.

    Returns a list of (value, ClassificationReport | ModeCertError); a
    failing row never suppresses the others.
    """
    rows = []
    for value, problem in problems:
        try:
            rows.append((value, classify(problem, thresholds=thresholds)))
        except ModeCertError as exc:
            rows.append((value, exc))
    return rows


def scan_table_csv(rows) -> str:
    """CSV table for a mirror-index scan, one row per parameter value.

    A failed row keeps its error type and message in ``status``
    (``error:<Type>: <message>``, quoted by the CSV writer when needed) and
    leaves the other fields empty.
    """
    header = ["n_mirror", "status", *_SWEEP_COLUMNS]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for n, res in rows:
        if isinstance(res, Exception):
            fields = [f"error:{type(res).__name__}: {res}"] + [""] * len(_SWEEP_COLUMNS)
        else:
            # a flag as 0/1, every other column (n_star an int) by repr
            fields = ["ok"] + [str(int(getattr(res, k))) if k in _FLAGS
                               else repr(getattr(res, k)) for k in _SWEEP_COLUMNS]
        writer.writerow([repr(n)] + fields)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# X-ray cavity reports
# ---------------------------------------------------------------------------

def xray_angle_minima(table: dict):
    """Grazing angles (radians) of the 14.4 keV reflectance minima, 0.03-0.6 deg."""
    stack = build_xray_cavity(table, math.radians(0.1)).stack
    th = np.radians(np.linspace(0.03, 0.6, 4001))
    r2 = reflectance_vs_angle(stack, OMEGA_NUC_KEV, th)
    return [parabola_vertex(th, r2, i) for i in local_minima(r2)]


def xray_problem(material_table, mode_index: int) -> WaveProblem:
    """The X-ray cavity at its ``mode_index``-th rocking minimum (1-based).

    ``material_table`` is a table file, a loaded table or None (the shipped
    one).  The angle is fixed at that minimum, so the witness is studied
    versus energy at fixed ``k_par``; the emitter is the 57Fe line.
    """
    table = (material_table if isinstance(material_table, dict)
             else load_material_table(material_table or default_material_table_path()))
    minima = xray_angle_minima(table)
    if mode_index not in range(1, len(minima) + 1):
        raise ConfigurationError(f"mode_index must be one of the {len(minima)} reflectance "
                                 f"minima 1..{len(minima)}, not {mode_index!r}")
    return build_xray_cavity(table, minima[mode_index - 1])


def nuclear_spectrum(problem: WaveProblem, halfwidth: float) -> tuple:
    """Weak-coupling emitter line on the exact cavity reflection background.

    Returns ``(omega, r_total)`` on 801 points within ``halfwidth`` times the
    larger of the free and cavity widths of omega_a; the local field is
    calibrated against free space.
    """
    emitter = problem.emitter
    omega_a = emitter.omega_a
    gamma_eff = -2.0 * levshift_exact(problem, omega_a).imag
    half = halfwidth * max(gamma_eff, emitter.gamma)
    om = np.linspace(omega_a - half, omega_a + half, 801)
    r_cav = reflection(problem, om)
    psi = field_profile(problem, omega_a, np.array([emitter.x_a]))[0]
    dl = levshift_exact(problem, om)
    return om, r_cav - 0.5j * emitter.gamma * psi * psi / (om - omega_a - dl)


def _light_line_span(problem: WaveProblem):
    """(omega_bp + 0.02 e, omega_a + 2.5 e) and e = omega_a - omega_bp at ``k_par != 0``.

    The span right of the branch point omega_bp: the default region's real
    extent and the X-ray energy-scan range.
    """
    omega_a = problem.emitter.omega_a
    omega_bp = _branch_point(problem)
    e = omega_a - omega_bp
    if not e > 0:
        raise ConfigurationError(
            f"emitter frequency {omega_a} is not above the branch point {omega_bp}")
    return (omega_bp + 0.02 * e, omega_a + 2.5 * e), e


def check_region(problem: WaveProblem, region: ScanRegion | None) -> None:
    """ConfigurationError for a given region not right of the branch point at ``k_par != 0``."""
    if region is not None and problem.k_par != 0:
        omega_bp = _branch_point(problem)
        if not region.omega_lo > omega_bp:
            raise ConfigurationError(f"region omega_lo = {region.omega_lo!r} is not right "
                                     f"of the branch point {omega_bp!r}")


def _branch_point(problem: WaveProblem) -> float:
    """Largest cladding light-line frequency Re(c |k_par| / n) at the emitter frequency."""
    omega_a = problem.emitter.omega_a
    return float(max((abs(problem.k_par) / cladding.index(omega_a)).real
                     for cladding in (problem.stack.left, problem.stack.right)))
