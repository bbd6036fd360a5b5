"""Complex pole search, residues and Mittag-Leffler expansions.

Poles of the witness observable (equivalently of the Green's function) are
located by recursive rectangle subdivision driven by the argument principle
applied to h = 1/f, and polished by Newton iteration on h.  Winding numbers
alone cannot certify a box: a pole of f and a zero of f in the same box
cancel in the count.  Every boundary pass therefore also computes the first
two moments of the singularity distribution (Delves & Lyness, 1967),

    s_k = (1/2 pi i) oint z^k h'(z)/h(z) dz  =  sum_poles p^k - sum_zeros z^k,

as sums of the log increments d_i = log(h_{i+1}/h_i) (principal branch)
between neighbour samples z_i, z_{i+1} of the closed boundary loop:
W = sum Im d_i / 2 pi, s_1 = sum (z_i + z_{i+1}) d_i / 4 pi i and
s_2 = sum z_i z_{i+1} d_i / 2 pi i.  That is the trapezoid rule for
s_k = z0^k W - (k / 2 pi i) oint z^{k-1} L dz, L a continuous branch of
log h, summed by parts, so no branch is ever built.  A box counts as empty
only if W = 0 and s_1, s_2 vanish; a box is accepted as "one simple pole"
only if W = 1 and s_1 agrees with the Newton-refined location.  Anything
else is subdivided until resolved or the depth budget is exhausted.

The box tree is searched breadth first, because an evaluator call costs far
more than the points it carries.  Each box boundary is one closed loop of
samples, corners included, refined by inserting neighbour midpoints.  The
loops of a subdivision level lie end to end in one flat array, examined in
one array pass and sampled in one evaluator call per round.  The Newton
runs of a level advance in lockstep, one call per step.  A search over a
grown region can start from the poles of an earlier search over a region
inside it and subdivide only the strips the growth added.

Residues are evaluated by the trapezoid rule on a circle around each pole,
which is exponentially convergent for meromorphic integrands and exact for
the pole's own 1/(z - z0) part; one 2M-point ring gives the M- and 2M-point
sums, whose difference is the error estimate.  An expansion evaluates all
its residue rings in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    ExceptionalPointError,
    ModeCertError,
    RegionTooSmallError,
    UnresolvedRegionError,
)

TWO_PI = 2.0 * np.pi

_MAX_LEVELS = 40        # subdivision depth budget of the pole search
_NEWTON_ITERS = 60      # Newton steps per refinement
_NEWTON_REL = 1e-8      # accepted |1/f| at a pole, relative to the boundary median
_DEDUPE_REL = 1e-6      # merge radius of pole candidates, relative to the width
_RESIDUE_SAMPLES = 64   # M of the residue trapezoid rule (the ring has 2M points)
_RESIDUE_TOL = 1e-8     # relative doubling error accepted for a residue


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

    def to_dict(self) -> dict:
        """The JSON record of a pole with its residue."""
        return {"re": self.omega_pole.real, "im": self.omega_pole.imag,
                "res_re": self.residue.real, "res_im": self.residue.imag}


@dataclass(frozen=True)
class ScanRegion:
    """Complex search rectangle [omega_lo, omega_hi] x [im_top - depth, im_top].

    The search resolution scales with the region: candidates closer than
    ``_DEDUPE_REL`` times the width are one pole, and the Newton acceptance
    bound on |1/f| is ``_NEWTON_REL`` times the median boundary |1/f|.
    """

    omega_lo: float
    omega_hi: float
    depth: float
    im_top: float = 0.0

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
    """Poles and residues of the witness over a scan region.

    ``candidates`` are the poles the search returned, before the residue
    floor; a search over a larger region starts from them.
    """

    poles: tuple
    region: ScanRegion
    candidates: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "poles",
                           tuple(sorted(self.poles, key=lambda p: (p.omega_pole.real,
                                                                   p.omega_pole.imag))))

    def __len__(self):
        return len(self.poles)

    def to_dict(self) -> dict:
        return {
            "poles": [p.to_dict() for p in self.poles],
            "region": self.region.to_dict(),
        }


@dataclass
class ConvergenceReport:
    """Smallest sufficient truncation, the error-versus-N table and the offset.

    ``offset`` is f(c) - sum over all poles of r/(c - p) at the anchor c:
    the constant the bare pole sum misses, which the anchored sums carry.
    """

    n_star: int
    errors: list          # errors[k] is the sup-norm error of the (k+1)-pole sum
    offset: complex


# ---------------------------------------------------------------------------
# evaluator plumbing
# ---------------------------------------------------------------------------

def witness_evaluator(problem):
    """Witness of the problem's emitter on complex arrays, for the pole search.

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
            return levshift_exact(problem, omega_test=w)

    return f


# ---------------------------------------------------------------------------
# boundary moments
# ---------------------------------------------------------------------------

_PHASE_STEP = 1.5      # max |d arg h| between adjacent boundary samples (rad)
_LOGMOD_STEP = 2.0     # max |d log|h|| between adjacent samples
_EDGE_POINTS = 32      # initial samples per box edge
_MAX_REFINE_ROUNDS = 14
_MAX_BOUNDARY_POINTS = 120_000


def _box_moments(f, boxes):
    """Winding number and first two singularity moments of h = 1/f over boxes.

    The boundary loops lie end to end in one flat array with a box id per
    sample; a next-sample index closes each loop onto its own first sample.
    The moments are per-loop sums of log increments (see the module
    docstring).  Each round samples the midpoints of the too-large
    increments of all open loops in one evaluator call.  Returns a list of
    (W, s1, s2) per box, None where the boundary cannot be tracked within
    the budget, and the h samples of the first box's resolved loop.
    """
    t = np.linspace(0.0, 1.0, _EDGE_POINTS, endpoint=False)
    b = np.asarray(boxes)   # rows (re_lo, re_hi, im_lo, im_hi); corners counter-clockwise
    corners = (b[:, [0, 1, 1, 0]] + 1j * b[:, [2, 2, 3, 3]])[..., None]
    z = (corners + t * (np.roll(corners, -1, axis=1) - corners)).ravel()
    zf = np.stack([z, f(z)])
    owner = np.repeat(np.arange(len(boxes)), 4 * _EDGE_POINTS)
    out, h_first = [None] * len(boxes), None
    for rnd in range(_MAX_REFINE_ROUNDS):
        z, n = zf[0], zf.shape[1]
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        sizes = np.diff(np.append(first, n))
        nxt = np.arange(1, n + 1)
        nxt[first + sizes - 1] = first
        with np.errstate(divide="ignore", invalid="ignore"):
            h = 1.0 / zf[1]
            d = np.log(h[nxt] / h)
            w_raw = np.add.reduceat(d.imag, first) / TWO_PI
            s1 = np.add.reduceat(0.5 * (z + z[nxt]) * d, first) / (2j * np.pi)
            s2 = np.add.reduceat(z * z[nxt] * d, first) / (2j * np.pi)
        broken = np.logical_or.reduceat(~np.isfinite(h) | (h == 0), first)
        bad = (np.abs(d.imag) > _PHASE_STEP) | (np.abs(d.real) > _LOGMOD_STEP)
        refine = np.logical_or.reduceat(bad, first) & ~broken
        w = np.round(w_raw)
        for i in np.flatnonzero(~broken & ~refine & (np.abs(w_raw - w) <= 0.1)):
            out[owner[first[i]]] = (int(w[i]), s1[i], s2[i])
        if owner[0] == 0 and out[0] is not None:
            h_first = h[:sizes[0]]
        grow = refine & (sizes <= _MAX_BOUNDARY_POINTS) & (rnd < _MAX_REFINE_ROUNDS - 1)
        if not np.any(grow):
            break
        # midpoints of the bad neighbour pairs; corners are samples, so every
        # midpoint lies on the boundary.  Finished loops are dropped.
        keep = np.repeat(grow, sizes)
        idx = np.flatnonzero(bad & keep)
        z_mid = 0.5 * (z[idx] + z[nxt[idx]])
        keep = np.insert(keep, idx + 1, True)
        zf = np.insert(zf, idx + 1, [z_mid, f(z_mid)], axis=1)[:, keep]
        owner = np.insert(owner, idx + 1, owner[idx])[keep]
    return out, h_first


def _newton_run(z0: complex, scale: float):
    """One Newton refinement of a zero of h = 1/f, as a generator.

    Yields each point at which it needs (h, h') and is sent them back, or
    None when the evaluator raised there; returns (z, |h(z)|) or (None, inf).
    """
    z = complex(z0)
    prev_step = None
    for _ in range(_NEWTON_ITERS):
        got = yield z
        if got is None:
            return None, np.inf
        t, dt = got
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
    got = yield z
    if got is None or not np.isfinite(got[0]):
        return None, np.inf
    return z, abs(got[0])


def _newton(f, starts, scales):
    """Newton refinement of zeros of h = 1/f from several starts in lockstep.

    Every step evaluates f at z and z +- delta (delta = 1e-4 * scale, a
    central difference; f is analytic) for all unfinished runs in one call.
    Each run keeps its own step, back-off and exit rules (see
    :func:`_newton_run`).  When the shared call raises a ModeCertError, the
    step is evaluated run by run, so only the runs whose own points raise
    end.  Returns one (z, |h(z)|) or (None, inf) per start.
    """
    runs = {i: _newton_run(z0, scale) for i, (z0, scale) in enumerate(zip(starts, scales))}
    points = {i: next(run) for i, run in runs.items()}
    out = [None] * len(runs)
    while points:
        deltas = [1e-4 * scales[i] for i in points]
        triples = np.array([[z, z + d, z - d] for z, d in zip(points.values(), deltas)])
        with np.errstate(all="ignore"):
            try:
                values = f(triples.ravel()).reshape(triples.shape)
            except ModeCertError:
                values = [_call_or_none(f, zz) for zz in triples]
        for i, vals, delta in zip(list(points), values, deltas):
            got = None
            if vals is not None:
                with np.errstate(all="ignore"):
                    # a non-finite f means h = 1/f vanished exactly: we are at the pole
                    t = 1.0 / np.where(np.isfinite(vals), vals, np.inf)
                got = t[0], (t[1] - t[2]) / (2.0 * delta)
            try:
                points[i] = runs[i].send(got)
            except StopIteration as done:
                out[i] = done.value
                del points[i]
    return out


def _call_or_none(f, z):
    try:
        return f(z)
    except ModeCertError:
        return None


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

def find_poles(f, region: ScanRegion, previous=None) -> list:
    """All simple poles of ``f`` inside the region, Newton-refined on 1/f.

    ``f`` maps complex arrays to complex arrays (inf at a pole is allowed),
    must be analytic in the region apart from isolated simple poles and
    must not have a pole on the region boundary.  Returned poles carry the
    refinement residual |1/f|; residues are not filled in (see
    :func:`compute_residue` / :func:`build_expansion`).

    The box tree is searched level by level: the boundary loops of a level
    share one evaluator call per refinement round (:func:`_box_moments`) and
    its Newton runs share one call per step (:func:`_newton`).

    ``previous`` is an earlier search ``(ScanRegion, poles)`` over a region
    inside this one.  Its poles are kept and only the added area,
    ``_ring(region.box, previous_region.box)``, is searched; the root box is
    still sampled once so that the Newton acceptance bound is the one of a
    search from scratch.

    Raises
    ------
    UnresolvedRegionError
        A sub-box failed winding/moment validation within the budget.
    ExceptionalPointError
        Evidence of a pole of order >= 2 (winding >= 2 collapsing onto a
        single location at the resolution limit).
    """
    dedupe = _DEDUPE_REL * region.width
    if previous is None:
        found = []   # (z, residual)
        boxes = [region.box]
    else:
        prev_region, prev_poles = previous
        found = [(p.omega_pole, p.residual) for p in prev_poles]
        boxes = [region.box] + _ring(region.box, prev_region.box)
    resolved, h_root = _resolved_moments(f, boxes)
    med_h = float(np.median(np.abs(h_root)))   # median |1/f| on the root boundary
    h_tol = _NEWTON_REL * med_h if med_h > 0 else 1e-12
    if previous is not None:
        resolved = resolved[1:]
    for level in range(_MAX_LEVELS + 1):
        open_boxes = [(box, moments, tols) for box, moments in resolved
                      if (tols := _gates(box, moments, dedupe)) is not None]
        # single simple pole only if the refined location reproduces BOTH
        # moments; hidden pole/zero pairs shift s1 or s2 and force a split
        singles = [(box, s1, tols[0]) for box, (w, s1, _), tols in open_boxes if w == 1]
        refined = iter(_newton(f, [_start(box, s1) for box, s1, _ in singles],
                               [diam for _, _, diam in singles]))
        children = []
        for box, (w, s1, s2), (diam, match1, match2) in open_boxes:
            if w == 1:
                z_hat, resid = next(refined)
                if (z_hat is not None and resid < h_tol
                        and _inside(z_hat, box, slack=0.02 * diam)
                        and abs(s1 - z_hat) < match1
                        and abs(s2 - z_hat * z_hat) < match2):
                    found.append((z_hat, resid))
                    continue
            if level == _MAX_LEVELS:
                if w >= 2:
                    # moments consistent with one location of multiplicity w mean
                    # a higher-order pole (Newton converges there linearly but surely)
                    centroid = s1 / w
                    [(z_hat, _)] = _newton(f, [centroid], [diam])
                    if (z_hat is not None and _inside(z_hat, box, slack=0.05 * diam)
                            and abs(centroid - z_hat) < match1
                            and abs(s2 / w - z_hat * z_hat) < match2):
                        raise ExceptionalPointError(
                            f"pole of order {w} near {z_hat}: "
                            "simple-pole treatment does not apply")
                raise UnresolvedRegionError(
                    f"sub-box not validated at max subdivision (winding {w})", box=box)
            children.extend(_split(box))
        if not children:
            break
        resolved, _ = _resolved_moments(f, children)
    return _dedupe(found, dedupe, region)


def _gates(box, moments, dedupe):
    """Match tolerances (diam, match1, match2) of a box that may hold a pole.

    Returns None when the moments show no pole: an empty box, a pole-zero
    pair below the search resolution, or one lone zero of f.
    """
    w, s1, s2 = moments
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
        return None
    if (w == 0 and abs(s1) <= pair1
            and abs(s2) <= (abs(s1) + eps1) * (2.0 * zmax + diam) + eps2):
        return None
    # lone zero of f at zeta = -s1: then s2 = -zeta^2 = -s1^2, and any extra
    # content breaks that identity; no refinement needed
    if w == -1 and _inside(-s1, box, slack=0.02 * diam) and abs(s2 + s1 * s1) < match2:
        return None
    return diam, match1, match2


def _start(box, s1):
    """Newton start in a W = 1 box: the first moment, or the centre if it is outside."""
    if _inside(s1, box, slack=0.0):
        return s1
    return complex(0.5 * (box[0] + box[1]), 0.5 * (box[2] + box[3]))


def _resolved_moments(f, boxes):
    """(box, moments) per box, each box replaced by its first perturbation that resolves.

    Boxes whose boundary is unresolvable are perturbed (:func:`_perturbed`)
    and retried together, at most four attempts in all.  Also returns the h
    samples of the first box's resolved boundary.
    """
    boxes = list(boxes)
    out = [None] * len(boxes)
    todo = range(len(boxes))
    for attempt in range(4):
        moments, h_first = _box_moments(f, [boxes[i] for i in todo])
        if todo[0] == 0:
            h_root = h_first
        retry = []
        for i, m in zip(todo, moments):
            if m is None:
                boxes[i] = _perturbed(boxes[i], attempt)
                retry.append(i)
            else:
                out[i] = (boxes[i], m)
        if not retry:
            return out, h_root
        todo = retry
    raise UnresolvedRegionError("boundary winding ill-conditioned", box=boxes[todo[0]])


def _ring(outer, inner):
    """Rectangles tiling the box ``outer`` minus the box ``inner`` inside it.

    Full-height strips left and right of ``inner``, and strips below and
    above it across its width; pieces of zero area are left out.
    """
    o_lo, o_hi, o_bot, o_top = outer
    i_lo, i_hi, i_bot, i_top = inner
    if not (o_lo <= i_lo < i_hi <= o_hi and o_bot <= i_bot < i_top <= o_top):
        raise ValueError(f"box {inner} does not lie inside {outer}")
    pieces = [(o_lo, i_lo, o_bot, o_top), (i_hi, o_hi, o_bot, o_top),
              (i_lo, i_hi, o_bot, i_bot), (i_lo, i_hi, i_top, o_top)]
    return [b for b in pieces if b[0] < b[1] and b[2] < b[3]]


def _inside(z: complex, box, slack: float = 0.0) -> bool:
    return (box[0] - slack <= z.real <= box[1] + slack
            and box[2] - slack <= z.imag <= box[3] + slack)


def _split(box):
    re_lo, re_hi, im_lo, im_hi = box
    if (re_hi - re_lo) >= (im_hi - im_lo):
        mid = 0.5 * (re_lo + re_hi)
        return [(re_lo, mid, im_lo, im_hi), (mid, re_hi, im_lo, im_hi)]
    mid = 0.5 * (im_lo + im_hi)
    return [(re_lo, re_hi, im_lo, mid), (re_lo, re_hi, mid, im_hi)]


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
    doubling M, read from one 2M-point ring.  The caller must pick ``radius``
    smaller than half the distance to the nearest other pole.

    Raises
    ------
    AccuracyError
        If ``tol`` is given and the doubling estimate exceeds it (relative
        to |residue|, absolute once the residue is numerically zero).
    """
    if samples < 16:
        raise ValueError("samples must be >= 16")
    [(res, err)] = _ring_residues(f, [pole_location], [radius], samples)
    if tol is not None and not _accurate(res, err, tol):
        raise AccuracyError(
            f"residue error estimate {err:.3g} above tolerance; "
            "reduce the radius or increase the sample count")
    return res, err


def _ring_residues(f, centres, radii, samples: int):
    """(residue, doubling error) on a 2M-point ring around each centre, one call."""
    m2 = 2 * samples
    # TWO_PI * (2k) / (2M) == TWO_PI * k / M exactly, so the even samples
    # are the M-point ring
    ph = np.exp(1j * (TWO_PI * np.arange(m2) / m2))
    radii = np.asarray(radii, dtype=float)
    rings = np.asarray(centres, dtype=complex)[:, None] + radii[:, None] * ph
    terms = f(rings.ravel()).reshape(rings.shape) * ph
    r1 = (radii / samples) * np.sum(terms[:, ::2], axis=1)
    r2 = (radii / m2) * np.sum(terms, axis=1)
    return [(b, abs(b - a)) for a, b in zip(r1, r2)]


def _accurate(res, err, tol: float) -> bool:
    """Doubling error within ``tol``: relative, or absolute once res is numerically 0."""
    return not (err > tol * max(abs(res), 1e-300) and err > tol)


def build_expansion(f, region: ScanRegion,
                    previous: PoleExpansion | None = None) -> PoleExpansion:
    """Pole expansion of an evaluator ``f`` over a scan region.

    ``f`` maps complex arrays to complex arrays, as :func:`find_poles`
    requires; :func:`witness_evaluator` gives the witness of a problem.
    Locates the poles of ``f`` and computes residues by contour integration
    with radii that keep clear of neighboring poles and of the region's side
    and bottom edges (the witness is analytic across the real axis, so
    circles may cross the top edge).

    ``previous`` is an expansion of the same function over a region inside
    this one: its pole candidates are reused and only the added area is
    searched.  Residues are always recomputed over the whole pole set.
    """
    poles = find_poles(f, region, None if previous is None
                       else (previous.region, previous.candidates))

    radii = []
    for p in poles:
        dists = [abs(p.omega_pole - q.omega_pole) for q in poles if q is not p]
        d_edges = [p.omega_pole.real - region.omega_lo,
                   region.omega_hi - p.omega_pole.real,
                   p.omega_pole.imag - (region.im_top - region.depth)]
        radii.append(min(0.45 * min(dists + [2.0 * min(d_edges)]), 0.25 * region.width))
    centres = [p.omega_pole for p in poles]
    residues = [None] * len(poles)
    todo = range(len(poles))
    # a singularity just below the region can spoil a ring: those rings are
    # retried at half the radius, all in one more call
    for shrink in (1.0, 0.5):
        if not todo:
            break
        rings = _ring_residues(f, [centres[i] for i in todo],
                               [shrink * radii[i] for i in todo], _RESIDUE_SAMPLES)
        for i, (res, _) in zip(todo, rings):
            residues[i] = res
        todo = [i for i, (res, err) in zip(todo, rings) if not _accurate(res, err, _RESIDUE_TOL)]
    if todo:
        raise AccuracyError(f"residue error estimate above tolerance at {centres[todo[0]]}, "
                            "even at half the ring radius")
    out = [Pole(p.omega_pole, res, p.residual) for p, res in zip(poles, residues)]
    if out:
        # symmetry-dark modes survive as poles with near-cancelled residues;
        # they are below the search resolution and carry no weight
        floor = 1e-7 * max(abs(p.residue) for p in out)
        out = [p for p in out if abs(p.residue) >= floor]
    return PoleExpansion(poles=tuple(out), region=region, candidates=tuple(poles))


def counted_poles(expansion: PoleExpansion, center: float) -> list:
    """Truncation-order pole list: every pole but mirror partners, by distance.

    A pole -p* whose twin p (Re p >= 0) is also in the expansion does not
    raise the count; it is summed together with its twin in
    :func:`evaluate_truncated`.  Unpaired poles count at any frequency: a
    lossy stack with a complex index has no mirror symmetry.
    """
    counted = [p for p in expansion.poles
               if p.omega_pole.real >= 0 or _mirror_partner(expansion, p) is None]
    return sorted(counted, key=lambda p: (abs(p.omega_pole.real - center), -abs(p.residue)))


def _mirror_partner(expansion: PoleExpansion, pole: Pole):
    """The conjugate-mirror pole -omega*, when the scan region contains it."""
    target = -np.conj(pole.omega_pole)
    tol = 10.0 * _DEDUPE_REL * expansion.region.width
    near = [q for q in expansion.poles
            if q is not pole and abs(q.omega_pole - target) < tol]
    return min(near, key=lambda q: abs(q.omega_pole - target), default=None)


def evaluate_truncated(expansion: PoleExpansion, n: int, omega, anchor):
    """Mittag-Leffler sum of the N modes nearest the anchor, exact at the anchor.

    With ``anchor = (c, f(c))`` the sum is
    f(c) + sum_n r_n [1/(omega - p_n) - 1/(c - p_n)], so it needs no estimate
    of the constant the bare pole sum misses.  A "mode" is a counted pole
    together with its mirror partner (see :func:`counted_poles`).
    """
    c, fc = anchor
    counted = counted_poles(expansion, c)
    if not 1 <= n <= len(counted):
        raise ValueError(f"n must be in [1, {len(counted)}]")
    om = np.asarray(omega, dtype=complex)
    modes = [q for p in counted[:n] for q in (p, _mirror_partner(expansion, p))
             if q is not None]
    return sum((q.residue * (1.0 / (om - q.omega_pole) - 1.0 / (c - q.omega_pole))
                for q in modes), complex(fc))


def convergence_report(expansion: PoleExpansion, exact_curve, tol: float,
                       center: float) -> ConvergenceReport:
    """Smallest N whose anchored sum meets the sup-norm tolerance on the curve.

    The anchor is the curve sample nearest ``center``.  The error of an
    N-pole sum is sup |truncated - exact| / sup |exact| over the curve's
    samples.  Raises RegionTooSmallError, carrying the error table, when
    even the full expansion misses the tolerance, which means the scan
    region does not contain enough poles.
    """
    om, exact = exact_curve.omega, exact_curve.delta
    i = int(np.argmin(np.abs(om - center)))
    anchor = (float(om[i]), complex(exact[i]))
    scale = float(np.max(np.abs(exact)))
    n_max = len(counted_poles(expansion, anchor[0]))
    errors = []
    n_star = None
    for n in range(1, n_max + 1):
        approx = evaluate_truncated(expansion, n, om, anchor)
        err = float(np.max(np.abs(approx - exact))) / scale
        errors.append(err)
        if n_star is None and err < tol:
            n_star = n
    if n_star is None:
        raise RegionTooSmallError(
            f"tolerance {tol:g} unreachable with {n_max} counted poles "
            f"(best {min(errors) if errors else np.inf:.3g}); enlarge the scan region",
            errors=errors)
    offset = anchor[1] - sum(p.residue / (anchor[0] - p.omega_pole) for p in expansion.poles)
    return ConvergenceReport(n_star=n_star, errors=errors, offset=complex(offset))
