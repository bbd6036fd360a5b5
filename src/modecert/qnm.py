"""Complex pole search, residues and Mittag-Leffler expansions.

Poles of the witness observable (equivalently of the Green's function) are
located by recursive rectangle subdivision driven by the argument principle
applied to h = 1/f, and polished by Newton iteration on h.  Winding numbers
alone cannot certify a box: a pole of f and a zero of f in the same box
cancel in the count.  Every boundary pass therefore also computes the first
two moments of the singularity distribution,

    s_k = (1/2 pi i) oint z^k h'(z)/h(z) dz  =  sum_poles p^k - sum_zeros z^k,

via the derivative-free identity s_k = z0^k W - (k / 2 pi i) oint z^{k-1} L dz
with L a continuous branch of log h along the contour.  A box counts as empty
only if W = 0 and s_1, s_2 vanish; a box is accepted as "one simple pole" only
if W = 1 and s_1 agrees with the Newton-refined location.  Anything else is
subdivided until resolved or the depth budget is exhausted.

Residues are evaluated by the M-point trapezoid rule on a circle around each
pole, which is exponentially convergent for meromorphic integrands and exact
for the pole's own 1/(z - z0) part.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AccuracyError,
    ExceptionalPointError,
    RegionTooSmallError,
    UnresolvedRegionError,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pole:
    """A simple pole omega = Omega - i kappa/2 with residue and refinement residual."""

    omega_pole: complex
    residue: complex | None = None
    residual: float = np.nan

    @property
    def Omega(self) -> float:
        return self.omega_pole.real

    @property
    def kappa(self) -> float:
        return -2.0 * self.omega_pole.imag


@dataclass(frozen=True)
class ScanRegion:
    """Complex search rectangle [omega_lo, omega_hi] x [-depth, im_top].

    ``max_levels`` bounds the subdivision recursion; ``newton_tol`` (absolute
    bound on |1/f| at an accepted pole) defaults to 1e-8 times the median
    boundary |1/f|, which makes it scale-free; ``dedupe_radius`` defaults to
    1e-6 times the window width.
    """

    omega_lo: float
    omega_hi: float
    depth: float
    im_top: float = 0.0
    max_levels: int = 40
    newton_tol: float | None = None
    dedupe_radius: float | None = None
    min_edge_points: int = 128

    def __post_init__(self):
        if not self.omega_lo < self.omega_hi:
            raise ValueError("omega_lo must be < omega_hi")
        if not self.depth > 0:
            raise ValueError("depth must be > 0")

    @property
    def width(self) -> float:
        return self.omega_hi - self.omega_lo

    @property
    def box(self):
        return (self.omega_lo, self.omega_hi, self.im_top - self.depth, self.im_top)

    def to_dict(self) -> dict:
        return {"omega_lo": self.omega_lo, "omega_hi": self.omega_hi,
                "depth": self.depth, "im_top": self.im_top}


@dataclass(frozen=True)
class PoleExpansion:
    """Poles and residues of the witness, plus the residual constant term.

    ``constant_negligible`` records the supplement-style check that the
    constant term stays below 1% of the witness magnitude on the real window.
    """

    poles: tuple
    constant_term: complex
    region: ScanRegion
    constant_negligible: bool = True

    def __post_init__(self):
        object.__setattr__(self, "poles",
                           tuple(sorted(self.poles, key=lambda p: (p.omega_pole.real,
                                                                   p.omega_pole.imag))))

    def __len__(self):
        return len(self.poles)

    @property
    def center(self) -> float:
        return 0.5 * (self.region.omega_lo + self.region.omega_hi)

    def to_dict(self) -> dict:
        return {
            "poles": [{"re": p.omega_pole.real, "im": p.omega_pole.imag,
                       "res_re": (p.residue.real if p.residue is not None else None),
                       "res_im": (p.residue.imag if p.residue is not None else None)}
                      for p in self.poles],
            "constant": {"re": self.constant_term.real, "im": self.constant_term.imag},
            "constant_negligible": self.constant_negligible,
            "region": self.region.to_dict(),
        }

    def pole_table_csv(self) -> str:
        lines = ["re,im,res_re,res_im,residual"]
        for p in self.poles:
            res = p.residue if p.residue is not None else complex(np.nan, np.nan)
            lines.append(",".join(repr(float(v)) for v in (
                p.omega_pole.real, p.omega_pole.imag, res.real, res.imag, p.residual)))
        return "\n".join(lines) + "\n"


@dataclass
class ConvergenceReport:
    """Smallest sufficient truncation and the error-versus-N table."""

    n_star: int
    errors: list          # errors[k] is the sup-norm error of the (k+1)-pole sum
    tol: float
    window: tuple


# ---------------------------------------------------------------------------
# evaluator plumbing
# ---------------------------------------------------------------------------

class _Unresolvable(Exception):
    """Internal: boundary sampling could not be resolved; perturb and retry."""


def witness_evaluator(problem, emitter=None):
    """Witness evaluator on complex arrays for the complex-plane search.

    Newton refinement deliberately steps onto poles, where the kernel returns
    inf for those entries, which is the correct limit for h = 1/f.
    """
    from .witness import levshift_exact

    def f(w):
        # omega = 0 is a removable point of the witness (delta ~ gamma omega G);
        # nudge exact zeros so symmetric scan contours may cross the origin
        w = np.asarray(w, dtype=complex)
        if np.any(w == 0):
            w = np.where(w == 0, 1e-30 + 0j, w)
        with np.errstate(all="ignore"):
            return levshift_exact(problem, emitter, w)

    return f


# ---------------------------------------------------------------------------
# boundary moments
# ---------------------------------------------------------------------------

_PHASE_STEP = 1.5      # max |d arg h| between adjacent boundary samples (rad)
_LOGMOD_STEP = 2.0     # max |d log|h|| between adjacent samples
_MAX_REFINE_ROUNDS = 14
_MAX_BOUNDARY_POINTS = 120_000


def _box_moments(fv, box, n_min: int):
    """Winding number and first two singularity moments of h = 1/f over a box.

    Returns (W, s1, s2, median |h| on the boundary).  Raises _Unresolvable if
    the phase cannot be tracked within the refinement budget.
    """
    re_lo, re_hi, im_lo, im_hi = box
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi)]
    n_edge = max(8, n_min // 4 if n_min >= 32 else 8)
    params = [np.linspace(0.0, 1.0, n_edge, endpoint=False) for _ in range(4)]
    values = [None] * 4
    for e in range(4):
        zs = corners[e] + params[e] * (corners[(e + 1) % 4] - corners[e])
        values[e] = fv(zs)

    for _ in range(_MAX_REFINE_ROUNDS):
        zs = np.concatenate([corners[e] + params[e] * (corners[(e + 1) % 4] - corners[e])
                             for e in range(4)])
        hs = np.concatenate(values)
        with np.errstate(divide="ignore", invalid="ignore"):
            hs = 1.0 / hs
        if not np.all(np.isfinite(hs)) or np.any(hs == 0):
            raise _Unresolvable("f vanished or blew up on the boundary")
        hn = np.roll(hs, -1)
        dphi = np.angle(hn / hs)
        dmod = np.abs(np.log(np.abs(hn / hs)))
        bad = (np.abs(dphi) > _PHASE_STEP) | (dmod > _LOGMOD_STEP)
        if not np.any(bad):
            # winding from wrapped increments, all below the aliasing threshold
            w_raw = float(np.sum(dphi)) / TWO_PI
            w = int(np.round(w_raw))
            if abs(w_raw - w) > 0.1:
                raise _Unresolvable("non-integer winding number")
            # continuous log h along the loop, closed with the continued branch
            phases = np.angle(hs[0]) + np.concatenate(([0.0], np.cumsum(dphi[:-1])))
            logs = np.log(np.abs(hs)) + 1j * phases
            z_ext = np.concatenate([zs, zs[:1]])
            l_ext = np.concatenate([logs, [logs[0] + 1j * TWO_PI * w]])
            dz = np.diff(z_ext)
            mid_l = 0.5 * (l_ext[:-1] + l_ext[1:])
            int_l = np.sum(mid_l * dz)
            mid_zl = 0.5 * (l_ext[:-1] * z_ext[:-1] + l_ext[1:] * z_ext[1:])
            int_zl = np.sum(mid_zl * dz)
            z0 = z_ext[0]
            s1 = z0 * w - int_l / (2j * np.pi)
            s2 = z0 * z0 * w - int_zl / (1j * np.pi)
            return w, s1, s2, float(np.median(np.abs(hs)))

        # insert parameter midpoints on the edges owning the bad adjacencies
        sizes = [p.size for p in params]
        offsets = np.cumsum([0] + sizes)
        total = offsets[-1]
        if total > _MAX_BOUNDARY_POINTS:
            raise _Unresolvable("boundary refinement budget exhausted")
        new_params = [[] for _ in range(4)]
        for idx in np.nonzero(bad)[0]:
            e = int(np.searchsorted(offsets, idx, side="right")) - 1
            j = idx - offsets[e]
            t0 = params[e][j]
            t1 = params[e][j + 1] if j + 1 < sizes[e] else 1.0
            new_params[e].append(0.5 * (t0 + t1))
        for e in range(4):
            if not new_params[e]:
                continue
            tn = np.asarray(new_params[e])
            zn = corners[e] + tn * (corners[(e + 1) % 4] - corners[e])
            vn = fv(zn)
            merged = np.concatenate([params[e], tn])
            order = np.argsort(merged)
            params[e] = merged[order]
            values[e] = np.concatenate([values[e], vn])[order]
    raise _Unresolvable("phase tracking did not converge")


def _newton_on(fv, z0: complex, scale: float, invert: bool,
               max_iter: int = 60):
    """Newton refinement of a zero of h = 1/f (invert=True) or of f itself.

    Derivatives are central differences with step 1e-4 * scale; f is analytic
    so this is accurate.  Returns (z, |target(z)|) or (None, inf).
    """
    z = complex(z0)
    delta = 1e-4 * scale

    def target(zz):
        with np.errstate(all="ignore"):
            vals = fv(np.array([zz, zz + delta, zz - delta]))
            if invert:
                # a non-finite f means h = 1/f vanished exactly: we are at the pole
                vals = np.where(np.isfinite(vals), vals, np.inf)
                t = 1.0 / vals
            else:
                t = vals
        return t[0], (t[1] - t[2]) / (2.0 * delta)

    prev_step = None
    for _ in range(max_iter):
        try:
            t, dt = target(z)
        except Exception:
            return None, np.inf
        if not np.isfinite(t):
            # stepped onto a singularity of the target; back off half the step
            if prev_step is None:
                return None, np.inf
            z = z + 0.5 * prev_step
            prev_step = 0.5 * prev_step
            if abs(prev_step) < 1e-16 * max(abs(z), scale):
                return None, np.inf
            continue
        if not np.isfinite(dt) or dt == 0:
            return None, np.inf
        step = t / dt
        if not np.isfinite(step):
            return None, np.inf
        z_new = z - step
        if abs(z_new - z0) > 10.0 * scale:
            return None, np.inf
        z = z_new
        prev_step = step
        if abs(step) < 1e-14 * max(abs(z), scale):
            break
    try:
        t, _ = target(z)
    except Exception:
        return None, np.inf
    if not np.isfinite(t):
        return None, np.inf
    return z, abs(t)


def _perturbed(box, attempt: int):
    """Deterministically expand and shift a box whose boundary was unresolvable."""
    re_lo, re_hi, im_lo, im_hi = box
    w, h = re_hi - re_lo, im_hi - im_lo
    grow = 0.004 * (attempt + 1)
    shift_r = 0.0023 * (attempt + 1) * w
    shift_i = -0.0017 * (attempt + 1) * h
    return (re_lo - grow * w + shift_r, re_hi + grow * w + shift_r,
            im_lo - grow * h + shift_i, im_hi + grow * h + shift_i)


# ---------------------------------------------------------------------------
# pole search
# ---------------------------------------------------------------------------

def find_poles(f, region: ScanRegion) -> list:
    """All simple poles of ``f`` inside the region, Newton-refined on 1/f.

    ``f`` maps complex arrays to complex arrays (inf at a pole is allowed),
    must be analytic in the region apart from isolated simple poles and
    must not have a pole on the region boundary.  Returned poles carry the
    refinement residual |1/f|; residues are not filled in (see
    :func:`compute_residue` / :func:`build_expansion`).

    Raises
    ------
    UnresolvedRegionError
        A sub-box failed winding/moment validation within the budget.
    ExceptionalPointError
        Evidence of a pole of order >= 2 (winding >= 2 collapsing onto a
        single location at the resolution limit).
    """
    dedupe = region.dedupe_radius or 1e-6 * region.width
    found = []   # (z, residual)
    top_box = region.box
    stack = [(top_box, 0)]
    newton_tol = region.newton_tol
    while stack:
        box, level = stack.pop()
        moments = None
        for attempt in range(4):
            try:
                moments = _box_moments(f, box, region.min_edge_points)
                break
            except _Unresolvable:
                box = _perturbed(box, attempt)
        if moments is None:
            raise UnresolvedRegionError("boundary winding ill-conditioned", box=box)
        w, s1, s2, med_h = moments
        if newton_tol is None:
            newton_tol = 1e-8 * med_h if med_h > 0 else 1e-12
        diam = float(np.hypot(box[1] - box[0], box[3] - box[2]))
        zmax = max(abs(complex(box[0], box[2])), abs(complex(box[1], box[3])))
        eps1 = max(2e-4 * diam, 1e-13 * max(zmax, 1.0))
        zscale = max(abs(s1), zmax, diam)
        eps2 = max(2e-4 * diam * zscale, 1e-13 * zscale * zscale)

        # pole-zero pairs tighter than the dedupe radius (symmetry-dark modes
        # with near-cancelled residues) are below the search resolution; the
        # moment gates tolerate them instead of subdividing forever
        pair1 = dedupe
        pair2 = dedupe * (2.0 * zmax + diam)
        match1 = max(3e-3 * diam, 4 * eps1) + pair1
        match2 = max(3e-3 * diam * zscale, 4 * eps2) + pair2

        if w == 0 and abs(s1) < eps1 and abs(s2) < eps2:
            continue
        if (w == 0 and abs(s1) <= pair1
                and abs(s2) <= (abs(s1) + eps1) * (2.0 * zmax + diam) + eps2):
            continue

        if w == 1:
            # single simple pole only if the refined location reproduces BOTH
            # moments; hidden pole/zero pairs shift s1 or s2 and force a split
            guess = s1 if _inside(s1, box, slack=0.0) else complex(
                0.5 * (box[0] + box[1]), 0.5 * (box[2] + box[3]))
            z_hat, resid = _newton_on(f, guess, diam, invert=True)
            if (z_hat is not None and resid < newton_tol
                    and _inside(z_hat, box, slack=0.02 * diam)
                    and abs(s1 - z_hat) < match1
                    and abs(s2 - z_hat * z_hat) < match2):
                found.append((z_hat, resid))
                continue
        elif w == -1:
            # lone zero of f at zeta = -s1: then s2 = -zeta^2 = -s1^2, and any
            # extra content breaks that identity; no refinement needed
            if _inside(-s1, box, slack=0.02 * diam) and abs(s2 + s1 * s1) < match2:
                continue

        if level >= region.max_levels:
            if w >= 2:
                # moments consistent with one location of multiplicity w mean a
                # higher-order pole (Newton converges there linearly but surely)
                centroid = s1 / w
                z_hat, _ = _newton_on(f, centroid, diam, invert=True)
                if (z_hat is not None and _inside(z_hat, box, slack=0.05 * diam)
                        and abs(centroid - z_hat) < match1
                        and abs(s2 / w - z_hat * z_hat) < match2):
                    raise ExceptionalPointError(
                        f"pole of order {w} near {z_hat}: "
                        "simple-pole treatment does not apply")
            raise UnresolvedRegionError(
                f"sub-box not validated at max subdivision (winding {w})", box=box)

        stack.extend(_split(box, level))

    return _dedupe(found, dedupe, region)


def _inside(z: complex, box, slack: float = 0.0) -> bool:
    return (box[0] - slack <= z.real <= box[1] + slack
            and box[2] - slack <= z.imag <= box[3] + slack)


def _split(box, level):
    re_lo, re_hi, im_lo, im_hi = box
    if (re_hi - re_lo) >= (im_hi - im_lo):
        mid = 0.5 * (re_lo + re_hi)
        return [((re_lo, mid, im_lo, im_hi), level + 1),
                ((mid, re_hi, im_lo, im_hi), level + 1)]
    mid = 0.5 * (im_lo + im_hi)
    return [((re_lo, re_hi, im_lo, mid), level + 1),
            ((re_lo, re_hi, mid, im_hi), level + 1)]


def _dedupe(found, radius, region: ScanRegion):
    """Merge candidates within the dedupe radius (keep smaller residual)."""
    found = sorted(found, key=lambda t: (t[0].real, t[0].imag))
    kept = []
    for z, resid in found:
        if not _inside(z, region.box, slack=0.0):
            continue
        for i, (zk, rk) in enumerate(kept):
            if abs(z - zk) <= radius:
                if resid < rk:
                    kept[i] = (z, resid)
                break
        else:
            kept.append((z, resid))
    return [Pole(omega_pole=z, residue=None, residual=r) for z, r in kept]


# ---------------------------------------------------------------------------
# residues and expansions
# ---------------------------------------------------------------------------

def compute_residue(f, pole_location: complex, radius: float, samples: int = 64,
                    tol: float | None = None):
    """Residue of f at a pole via the M-point circular trapezoid rule.

    Returns (residue, error_estimate); the estimate is the change under
    doubling M.  The caller must pick ``radius`` smaller than half the
    distance to the nearest other pole.

    Raises
    ------
    AccuracyError
        If ``tol`` is given and the doubling estimate exceeds it (relative
        to |residue|, absolute once the residue is numerically zero).
    """
    if samples < 16:
        raise ValueError("samples must be >= 16")

    def ring(m):
        th = TWO_PI * np.arange(m) / m
        ph = np.exp(1j * th)
        zs = pole_location + radius * ph
        return (radius / m) * np.sum(f(zs) * ph)

    r1 = ring(samples)
    r2 = ring(2 * samples)
    err = abs(r2 - r1)
    if tol is not None:
        scale = max(abs(r2), 1e-300)
        if err > tol * scale and err > tol:
            raise AccuracyError(
                f"residue error estimate {err:.3g} above tolerance; "
                "reduce the radius or increase the sample count")
    return r2, err


def build_expansion(problem, emitter=None, region: ScanRegion = None,
                    f=None, n_const: int = 101,
                    residue_samples: int = 64, window=None) -> PoleExpansion:
    """Pole expansion of the witness observable over a scan region.

    Locates poles of delta(omega) (or of an explicit evaluator ``f``),
    computes residues by contour integration with radii that keep clear of
    neighboring poles and of the region's side and bottom edges (the witness
    is analytic across the real axis, so circles may cross the top edge),
    and estimates the constant term as the median mismatch on the interior
    real window (the certification window when given, else the region's
    real interval), with the "converges to zero" flag of the expansion.
    """
    fv = witness_evaluator(problem, emitter) if f is None else f
    poles = find_poles(fv, region)

    locs = [p.omega_pole for p in poles]
    out = []
    for i, p in enumerate(poles):
        dists = [abs(p.omega_pole - q) for j, q in enumerate(locs) if j != i]
        d_edges = [p.omega_pole.real - region.omega_lo,
                   region.omega_hi - p.omega_pole.real,
                   p.omega_pole.imag - (region.im_top - region.depth)]
        d_min = min(dists + [2.0 * min(d_edges)]) if dists else 2.0 * min(d_edges)
        radius = 0.45 * d_min
        radius = min(radius, 0.25 * region.width)
        res, _ = compute_residue(fv, p.omega_pole, radius, residue_samples, tol=1e-8)
        out.append(Pole(p.omega_pole, res, p.residual))
    if out:
        # symmetry-dark modes survive as poles with near-cancelled residues;
        # they are below the search resolution and carry no weight
        floor = 1e-7 * max(abs(p.residue) for p in out)
        out = [p for p in out if abs(p.residue) >= floor]

    if window is not None:
        w_width = window[1] - window[0]
        lo = window[0] + 0.1 * w_width
        hi = window[1] - 0.1 * w_width
    else:
        lo = region.omega_lo + 0.1 * region.width
        hi = region.omega_hi - 0.1 * region.width
    om = np.linspace(lo, hi, n_const)
    exact = fv(om.astype(complex))
    partial = np.zeros_like(exact)
    for p in out:
        partial += p.residue / (om - p.omega_pole)
    diff = exact - partial
    const = complex(np.median(diff.real), np.median(diff.imag))
    scale = float(np.max(np.abs(exact))) if exact.size else 0.0
    negligible = abs(const) <= 0.01 * scale
    return PoleExpansion(poles=tuple(out), constant_term=const, region=region,
                         constant_negligible=negligible)


def counted_poles(expansion: PoleExpansion, center: float | None = None) -> list:
    """Truncation-order pole list: nonnegative-frequency poles by distance.

    Negative-real-frequency mirror partners do not raise the count; they are
    summed together with their positive partners in :func:`evaluate_truncated`.
    """
    c = expansion.center if center is None else center
    pos = [p for p in expansion.poles if p.omega_pole.real >= -1e-12 * abs(c)]
    return sorted(pos, key=lambda p: (abs(p.omega_pole.real - c),
                                      -abs(p.residue) if p.residue is not None else 0.0))


def _mirror_partner(expansion: PoleExpansion, pole: Pole):
    """The conjugate-mirror pole -omega*, when the scan region contains it."""
    tol = 10.0 * (expansion.region.dedupe_radius or 1e-6 * expansion.region.width)
    target = -np.conj(pole.omega_pole)
    best = None
    for q in expansion.poles:
        if q is pole:
            continue
        if abs(q.omega_pole - target) < tol:
            if best is None or abs(q.omega_pole - target) < abs(best.omega_pole - target):
                best = q
    return best


def evaluate_truncated(expansion: PoleExpansion, n: int, omega,
                       center: float | None = None):
    """Sum of the N modes nearest the window center (plus a sizeable constant).

    A "mode" is a nonnegative-frequency pole together with its negative-
    frequency mirror partner when the region covers it; the mirror does not
    count toward N.  The constant term is included only when the expansion
    flagged it as non-negligible, mirroring the observation that it converges
    to zero once enough poles are inside the region.
    """
    counted = counted_poles(expansion, center)
    if not 1 <= n <= len(counted):
        raise ValueError(f"n must be in [1, {len(counted)}]")
    om = np.asarray(omega, dtype=complex) if np.ndim(omega) else complex(omega)
    out = np.zeros(np.shape(om), dtype=complex) if np.ndim(om) else 0j
    for p in counted[:n]:
        out = out + p.residue / (om - p.omega_pole)
        q = _mirror_partner(expansion, p)
        if q is not None:
            out = out + q.residue / (om - q.omega_pole)
    if not expansion.constant_negligible:
        out = out + expansion.constant_term
    return out


def convergence_report(expansion: PoleExpansion, exact_curve, window,
                       tol: float, center: float | None = None) -> ConvergenceReport:
    """Smallest N whose truncated expansion meets the sup-norm tolerance.

    The error of an N-pole sum is sup |truncated - exact| / sup |exact| over
    the exact curve's samples inside the window.  Raises RegionTooSmallError
    when even the full expansion misses the tolerance, which means the scan
    region does not contain enough poles.
    """
    mask = (exact_curve.omega >= window[0]) & (exact_curve.omega <= window[1])
    om = exact_curve.omega[mask]
    exact = exact_curve.delta[mask]
    if om.size == 0:
        raise ValueError("exact curve does not cover the window")
    scale = float(np.max(np.abs(exact)))
    n_max = len(counted_poles(expansion, center))
    errors = []
    n_star = None
    for n in range(1, n_max + 1):
        approx = evaluate_truncated(expansion, n, om, center=center)
        err = float(np.max(np.abs(approx - exact))) / scale
        errors.append(err)
        if n_star is None and err < tol:
            n_star = n
    if n_star is None:
        raise RegionTooSmallError(
            f"tolerance {tol:g} unreachable with {n_max} counted poles "
            f"(best {min(errors) if errors else np.inf:.3g}); enlarge the scan region")
    return ConvergenceReport(n_star=n_star, errors=errors, tol=tol,
                             window=(float(window[0]), float(window[1])))
