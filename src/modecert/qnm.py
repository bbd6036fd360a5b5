"""Complex pole search, residues and Mittag-Leffler expansions.

Poles of the witness observable (equivalently of the Green's function) are
searched for in a scan region [omega_lo, omega_hi] x [-depth, 0]: passive
poles lie below the real axis (a constant complex index is a gain medium at
Re omega < 0, with poles above the axis that are not sought).  They are
located by recursive rectangle subdivision driven by the argument principle
applied to h = 1/f, and polished by Newton iteration on h.
Winding numbers alone cannot certify a box: a pole of f and a zero of f in
the same box cancel in the count.  Every boundary pass therefore also
computes the first two moments of the singularity distribution (Delves &
Lyness, 1967) about the box centre c, so every gate is in units of the box,

    s_k = (1/2 pi i) oint (z - c)^k h'/h dz  =  sum (p - c)^k - sum (z - c)^k

over the poles p and zeros z of f, as sums of the log increments
d_i = log(h_{i+1}/h_i) (principal branch) between neighbour samples z_i,
z_{i+1} of the closed boundary loop: with u_i = z_i - c, W = sum Im d_i / 2 pi,
s_1 = sum (u_i + u_{i+1}) d_i / 4 pi i and s_2 = sum u_i u_{i+1} d_i / 2 pi i.
That is the trapezoid rule for s_k = u0^k W - (k / 2 pi i) oint u^{k-1} L dz,
L a continuous branch of log h, summed by parts, so no branch is ever built.
A box counts as empty only if W = 0 and s_1, s_2 vanish; a box is accepted
as "one simple pole" only if W = 1 and s_1, s_2 agree with the location
Newton refines on 1/f, and as "one simple zero", and set aside, only if
W = -1 and -s_1, -s_2 agree with the location Newton refines on f.  A zero
is confirmed, never gated on its moments alone: a pole next to a zero plus
a second zero has the winding of a zero and nearly its moments.  Anything
else is cut into four equal pieces across its long side, until resolved or
the depth budget is exhausted.

The box tree is searched breadth first, because an evaluator call costs far
more than the points it carries.  Each box boundary is one closed loop of
samples, corners included, refined by inserting neighbour midpoints.  The
loops of a subdivision level lie end to end in one flat array, examined in
one array pass and sampled in one evaluator call per round.  A W = +-1 box
whose moments are those of one point (c + W s_1 inside it, W s_2 - s_1^2
~ 0) stops subdividing and waits; once no box is left open, every waiting
box gets its Newton run in one array iteration, one call per step, and a
box whose run fails is split and searched on.  The evaluator is called on
arrays only; an error it raises ends the search unchanged.

Residues are evaluated by the trapezoid rule on a circle around each pole,
which is exponentially convergent for meromorphic integrands and exact for
the pole's own 1/(z - z0) part; one 2M-point ring gives the M- and 2M-point
sums, whose difference is the error estimate.  An expansion evaluates all
its residue rings in one call.  A ring's radius is 0.45 of its pole's
distance to every other pole and every region edge, the real axis included,
so a ring failing its doubling test has an unfound singularity within about
1.3 radii of its pole.

A conjugate-symmetric evaluator, f(-z*) = -f(z)* (the witness at normal
incidence with constant real indices), has a partner pole -p* with residue
r* for every pole p with residue r.  Its expansion searches only the part
of the region right of a thin strip about the imaginary axis, extended to
the mirror image of the left edge, and rings only the poles found there;
every pole found right of the strip gains its mirror.  Without the symmetry
the whole region is searched and nothing is mirrored.  An expansion pairs
its poles into modes once (a pole and its mirror partner, or a pole alone),
and every N-mode truncated sum is a row of one cumulative sum.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import AccuracyError, ExceptionalPointError, UnresolvedRegionError

TWO_PI = 2.0 * np.pi

_MAX_LEVELS = 20        # subdivision depth budget of the pole search (4^20 = 2^40)
_NEWTON_ITERS = 60      # Newton steps per refinement
_NEWTON_REL = 1e-8      # accepted |h| of a Newton run, relative to the root boundary median
_DEDUPE_REL = 1e-6      # merge radius of pole candidates, relative to the width
_RESIDUE_SAMPLES = 64   # M of the residue trapezoid rule (the ring has 2M points)
_RESIDUE_TOL = 1e-8     # relative doubling error accepted for a residue
_STRIP_REL = 0.0025     # half-width of a mirrored search's strip about Re z = 0, per width


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pole:
    """A simple pole omega = Omega - i kappa/2 with residue and refinement residual."""

    omega_pole: complex
    residue: complex | None = None
    residual: float = np.nan

    def to_dict(self) -> dict:
        """The JSON record of a pole with its residue."""
        return {"re": self.omega_pole.real, "im": self.omega_pole.imag,
                "res_re": self.residue.real, "res_im": self.residue.imag}


@dataclass(frozen=True)
class ScanRegion:
    """Complex search rectangle [omega_lo, omega_hi] x [-depth, 0].

    The search resolution scales with the region: candidates closer than
    ``_DEDUPE_REL`` times the width are one pole, and the Newton acceptance
    bound on |1/f| is ``_NEWTON_REL`` times the median boundary |1/f|.
    """

    omega_lo: float
    omega_hi: float
    depth: float

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
        return (self.omega_lo, self.omega_hi, -self.depth, 0.0)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PoleExpansion:
    """Poles and residues of the witness over a scan region.

    A mirrored expansion searched only part of its region (:func:`_searched`).

    ``modes`` pairs the poles once, heads in (Re, Im) order.  The partner
    of p is the nearest other pole within ``10 * _DEDUPE_REL`` widths of
    -p*; p heads a mode, its partner following, when Re p >= 0 or it has
    no partner (a lossy stack with a complex index has no mirror symmetry).
    """

    poles: tuple
    region: ScanRegion
    modes: tuple = field(init=False)

    def __post_init__(self):
        poles = tuple(sorted(self.poles, key=lambda p: (p.omega_pole.real, p.omega_pole.imag)))
        z = np.array([p.omega_pole for p in poles], dtype=complex)
        # gap[i, j] = |p_j - (-p_i*)|, the distance of p_j from the mirror of p_i
        gap = np.abs(z + z[:, None].conj()) + np.diag(np.full(z.size, np.inf))
        tol = 10.0 * _DEDUPE_REL * self.region.width
        partner = [(poles[row.argmin()],) if row.min() < tol else () for row in gap]
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "modes", tuple((p,) + q for p, q in zip(poles, partner)
                                                if p.omega_pole.real >= 0 or not q))

    def to_dict(self) -> dict:
        return {
            "poles": [p.to_dict() for p in self.poles],
            "region": self.region.to_dict(),
        }


@dataclass
class ConvergenceReport:
    """The modes in truncation order, the error-versus-N table and the offset.

    ``offset`` is f(c) - sum over all poles of r/(c - p) at the anchor c:
    the constant the bare pole sum misses, which the anchored sums carry.
    """

    modes: list           # by distance of the head from c, larger residue first
    errors: list          # errors[k] is the sup-norm error of the (k+1)-mode sum
    offset: complex


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
    The moments are per-loop sums of log increments about the box centre
    (see the module docstring).  Each round samples the midpoints of the
    too-large increments of all open loops in one evaluator call.  Returns
    (W, s1, s2) per box, None where the boundary cannot be tracked within
    the budget, and the h samples of the first box's resolved loop.
    """
    t = np.linspace(0.0, 1.0, _EDGE_POINTS, endpoint=False)
    b = np.asarray(boxes)   # rows (re_lo, re_hi, im_lo, im_hi); corners counter-clockwise
    corners = (b[:, [0, 1, 1, 0]] + 1j * b[:, [2, 2, 3, 3]])[..., None]
    z = (corners + t * (np.roll(corners, -1, axis=1) - corners)).ravel()
    zf = np.stack([z, f(z)])
    owner = np.repeat(np.arange(len(boxes)), 4 * _EDGE_POINTS)
    centre = 0.5 * (b[:, 0] + b[:, 1] + 1j * (b[:, 2] + b[:, 3]))
    out, h_first = [None] * len(boxes), None
    for rnd in range(_MAX_REFINE_ROUNDS):
        z, n = zf[0], zf.shape[1]
        u = z - centre[owner]   # about the centre of each sample's box
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        sizes = np.diff(np.append(first, n))
        nxt = np.arange(1, n + 1)
        nxt[first + sizes - 1] = first
        with np.errstate(divide="ignore", invalid="ignore"):
            h = 1.0 / zf[1]
            d = np.log(h[nxt] / h)
            w_raw = np.add.reduceat(d.imag, first) / TWO_PI
            s1 = np.add.reduceat(0.5 * (u + u[nxt]) * d, first) / (2j * np.pi)
            s2 = np.add.reduceat(u * u[nxt] * d, first) / (2j * np.pi)
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


def _newton(f, starts, scales, windings=1):
    """Newton refinement of zeros of h = f^-W from several starts, as one array iteration.

    ``windings`` gives W per start (or one W for all): a run of W = 1
    refines a pole of f on h = 1/f, a run of W = -1 a zero of f on h = f.
    Every step evaluates f at z and z +- delta (delta = 1e-4 * scale, a
    central difference; f is analytic) for all live runs in one call.  A run
    fails when h, the slope or the step is not finite, when the slope is 0,
    or when it strays more than 10 scale from its start; it stops when the
    step falls below 1e-14 max(|z|, scale) or after ``_NEWTON_ITERS`` steps.
    The live runs are kept packed in arrays that shrink as runs end.  One
    last call evaluates h at the stopped runs.  Returns one (z, |h(z)|) or
    (None, inf) per start.
    """
    def h_at(w, pole):
        v = f(w)
        # a non-finite f means 1/f vanished exactly: a pole run is at its
        # pole, and a zero run has failed
        v = np.where(np.isfinite(v), v, np.inf)
        return np.where(pole, 1.0 / v, v)

    run = np.arange(len(starts))
    z0 = z = np.array(starts, dtype=complex)
    scale = np.array(scales, dtype=float)
    pole = np.broadcast_to(np.asarray(windings) > 0, run.shape)
    stopped = []   # (runs, z) of the runs that stopped
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_ITERS):
            if not run.size:
                break
            d = 1e-4 * scale
            h = h_at(np.array([z, z + d, z - d]).T.ravel(),
                     np.repeat(pole[run], 3)).reshape(-1, 3)
            slope = (h[:, 1] - h[:, 2]) / (2.0 * d)
            step = h[:, 0] / slope
            z = z - step
            # the step is finite only if h is finite and the slope is not 0
            ok = np.isfinite(step) & np.isfinite(slope) & (np.abs(z - z0) <= 10.0 * scale)
            done = ok & (np.abs(step) < 1e-14 * np.maximum(np.abs(z), scale))
            stopped.append((run[done], z[done]))
            ok &= ~done
            run, z, z0, scale = run[ok], z[ok], z0[ok], scale[ok]
        stopped.append((run, z))
        run = np.concatenate([r for r, _ in stopped])
        z = np.concatenate([zr for _, zr in stopped])
        h = h_at(z, pole[run]) if run.size else []
    out = [(None, np.inf)] * len(starts)
    for k, zk, hk in zip(run, z, h):
        if np.isfinite(hk):
            out[k] = (zk, abs(hk))
    return out


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
    :func:`build_expansion`).

    The box tree is searched level by level: the boundary loops of a level
    share one evaluator call per refinement round (:func:`_box_moments`),
    with moments about each box centre c.  A box of winding W = 1 (a pole)
    or W = -1 (a zero of f) waits for its Newton run once its moments are
    those of one point, c + W s1 inside the box and
    |W s2 - s1^2| < diam (1e-2 diam + 2 dedupe); at the depth limit it waits
    regardless.  When no box is left open, one :func:`_newton` batch refines
    every waiting box from c + W s1 on h = f^-W, one call per step.  A run
    is accepted when |h| is below ``_NEWTON_REL`` times the median |h| on
    the root boundary, its point lies in the box and both moments match it;
    an accepted pole is kept, an accepted zero is set aside with its box.
    A box whose run is not accepted is cut in four (:func:`_split`), and a
    later batch serves its children.

    Raises
    ------
    UnresolvedRegionError
        A sub-box failed winding/moment validation within the budget.
    ExceptionalPointError
        Evidence of a pole of order >= 2 (winding >= 2 collapsing onto a
        single location at the resolution limit).
    """
    dedupe = _DEDUPE_REL * region.width
    found = []   # (z, residual)
    resolved, h_root = _resolved_moments(f, [region.box])
    # accepted |h| of a run, W = 1 (h = 1/f) and W = -1 (h = f): _NEWTON_REL
    # times the median |h| on the root boundary
    h_tol = {w: _NEWTON_REL * float(np.median(np.abs(h_root) ** w)) for w in (1, -1)}
    resolved = [(box, moments, 0) for box, moments in resolved]
    waiting = []   # (box, moments, tols, level) of the W = +-1 boxes that hold one point
    while True:
        unsettled = []
        for box, moments, level in resolved:
            tols = _gates(box, moments, dedupe)
            if tols is None:
                continue
            w, s1, s2 = moments
            c, diam = tols[:2]
            # one point, a pole (W = 1) or a zero (W = -1) at c + W s1:
            # W s2 - s1^2 is the same about any centre, and two poles p1, p2
            # with a zero z leave -2 (z - p1)(z - p2) in it
            if abs(w) == 1 and (level == _MAX_LEVELS or (_inside(c + w * s1, box) and abs(
                    w * s2 - s1 * s1) < diam * (1e-2 * diam + 2 * dedupe))):
                waiting.append((box, moments, tols, level))
            else:
                unsettled.append((box, moments, tols, level))
        if not unsettled and waiting:
            # one simple pole or zero only if the refined location reproduces
            # BOTH moments; hidden pole/zero pairs shift s1 or s2 and force a
            # split.  A confirmed zero is set aside; so is its box.
            refined = _newton(f, [c + w * s1 for _, (w, s1, _), (c, _, _, _), _ in waiting],
                              [diam for _, _, (_, diam, _, _), _ in waiting],
                              [w for _, (w, _, _), _, _ in waiting])
            for entry, (z_hat, resid) in zip(waiting, refined):
                box, (w, s1, s2), (c, diam, match1, match2), _ = entry
                if (z_hat is not None and resid < h_tol[w]
                        and _inside(z_hat, box, slack=0.02 * diam)
                        and abs(w * s1 - (z_hat - c)) < match1
                        and abs(w * s2 - (z_hat - c) ** 2) < match2):
                    if w == 1:
                        found.append((z_hat, resid))
                else:
                    unsettled.append(entry)
            waiting = []
        if not unsettled:
            break
        children = []
        for box, (w, s1, s2), (c, diam, match1, match2), level in unsettled:
            if level == _MAX_LEVELS:
                if w >= 2:
                    # moments consistent with one location of multiplicity w mean
                    # a higher-order pole (Newton converges there linearly but surely)
                    [(z_hat, _)] = _newton(f, [c + s1 / w], [diam])
                    if (z_hat is not None and _inside(z_hat, box, slack=0.05 * diam)
                            and abs(s1 / w - (z_hat - c)) < match1
                            and abs(s2 / w - (z_hat - c) ** 2) < match2):
                        raise ExceptionalPointError(
                            f"pole of order {w} near {z_hat}: "
                            "simple-pole treatment does not apply")
                raise UnresolvedRegionError(
                    f"sub-box not validated at max subdivision (winding {w})", box=box)
            children += [(child, level + 1) for child in _split(box)]
        boxes, levels = zip(*children)
        resolved = [(box, moments, level) for (box, moments), level
                    in zip(_resolved_moments(f, boxes)[0], levels)]
    return _dedupe(found, dedupe, region)


def _gates(box, moments, dedupe):
    """The centre c and tolerances (c, diam, match1, match2) of a box that may hold a pole.

    The moments are about c, so each tolerance is diam or diam^2 times a
    constant, plus the dedupe term.  None when the moments show no pole: an
    empty box, or a pole-zero pair below the search resolution.
    """
    w, s1, s2 = moments
    c = complex(0.5 * (box[0] + box[1]), 0.5 * (box[2] + box[3]))
    diam = float(np.hypot(box[1] - box[0], box[3] - box[2]))
    eps1, eps2 = 2e-4 * diam, 2e-4 * diam * diam
    match1 = 3e-3 * diam + dedupe
    match2 = match1 * diam

    if w == 0 and abs(s1) < eps1 and abs(s2) < eps2:
        return None
    # a pole p and a zero z tighter than the dedupe radius (symmetry-dark
    # modes with near-cancelled residues) are below the search resolution:
    # s1 = p - z and s2 = s1 (p + z - 2c), |p + z - 2c| <= diam
    if w == 0 and abs(s1) <= dedupe and abs(s2) <= (abs(s1) + eps1) * diam + eps2:
        return None
    return c, diam, match1, match2


def _resolved_moments(f, boxes):
    """(box, moments) per box, each box replaced by its first perturbation that resolves.

    Boxes whose boundary is unresolvable are perturbed (:func:`_perturbed`)
    and retried together, at most four attempts in all.  Also returns the h
    samples of the first resolved boundary of the last attempt: the root's,
    when the root box is resolved alone.
    """
    boxes = list(boxes)
    out = [None] * len(boxes)
    todo = range(len(boxes))
    for attempt in range(4):
        moments, h_first = _box_moments(f, [boxes[i] for i in todo])
        retry = []
        for i, m in zip(todo, moments):
            if m is None:
                boxes[i] = _perturbed(boxes[i], attempt)
                retry.append(i)
            else:
                out[i] = (boxes[i], m)
        if not retry:
            return out, h_first
        todo = retry
    raise UnresolvedRegionError("boundary winding ill-conditioned", box=boxes[todo[0]])


def _inside(z: complex, box, slack: float = 0.0) -> bool:
    return (box[0] - slack <= z.real <= box[1] + slack
            and box[2] - slack <= z.imag <= box[3] + slack)


def _split(box):
    """The box cut into four equal pieces across its long side."""
    re_lo, re_hi, im_lo, im_hi = box
    wide = (re_hi - re_lo) >= (im_hi - im_lo)
    lo, hi = (re_lo, re_hi) if wide else (im_lo, im_hi)
    cuts = [lo, lo + 0.25 * (hi - lo), 0.5 * (lo + hi), lo + 0.75 * (hi - lo), hi]
    return [(a, b, im_lo, im_hi) if wide else (re_lo, re_hi, a, b)
            for a, b in zip(cuts, cuts[1:])]


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


def build_expansion(f, region: ScanRegion, mirror: bool = False) -> PoleExpansion:
    """Pole expansion of an evaluator ``f`` over a scan region.

    ``f`` maps complex arrays to complex arrays, as :func:`find_poles`
    requires; the witness of a problem is
    ``functools.partial(modecert.witness.levshift_exact, problem)``.
    Locates the poles of ``f`` and computes their residues, one ring per
    found pole in one call (radii as in the module notes); a ring failing
    its doubling test raises ``AccuracyError``.

    ``mirror`` asserts f(-z*) = -f(z)*.  Then only the part of the region
    right of a strip Re z >= -a (a = ``_STRIP_REL`` widths) is searched,
    and each pole p found right of the strip gains the mirror -p* when that
    lies in the region, with the conjugate residue and the residual of p.
    Ring radii are sized over all poles of the region against its edges,
    but only the poles found are ringed.  Every pole of the region is kept,
    whatever its residue: a symmetry-dark mode, a pole with a zero closer
    than the search resolution, is dropped by the search's pair gate
    (:func:`_gates`) before it is ever ringed.
    """
    searched = _searched(region, mirror)
    found = find_poles(f, searched)

    # the region's poles as (location, index of the found pole whose ring
    # gives the residue, whether that residue is conjugated)
    members = [(p.omega_pole, i, False) for i, p in enumerate(found)
               if _inside(p.omega_pole, region.box)]
    members += [(-p.omega_pole.conjugate(), i, True) for i, p in enumerate(found)
                if p.omega_pole.real > -searched.omega_lo
                and _inside(-p.omega_pole.conjugate(), region.box)]
    radii = {}   # ring radius per ringed found pole: that of its first member
    for k, (z, i, _) in enumerate(members):
        dists = [abs(z - w) for j, (w, _, _) in enumerate(members) if j != k]
        d_edges = [z.real - region.omega_lo, region.omega_hi - z.real,
                   z.imag + region.depth, -z.imag]
        radii.setdefault(i, 0.45 * min(dists + d_edges))
    rings = {}   # (residue, doubling error) per ringed found pole
    if radii:
        rings = dict(zip(radii, _ring_residues(f, [found[i].omega_pole for i in radii],
                                               list(radii.values()), _RESIDUE_SAMPLES)))
    for i, (res, err) in rings.items():
        if not _accurate(res, err, _RESIDUE_TOL):
            raise AccuracyError(f"residue error estimate above tolerance at {found[i].omega_pole}: "
                                "a singularity the search did not find lies within about "
                                "1.3 ring radii of it, inside the searched region",
                                pole=found[i].omega_pole, radius=radii[i], error=err)
    return PoleExpansion(poles=tuple(
        Pole(z, rings[i][0].conjugate() if conj else rings[i][0], found[i].residual)
        for z, i, conj in members), region=region)


def _searched(region: ScanRegion, mirror: bool) -> ScanRegion:
    """The part of ``region`` that :func:`build_expansion` searches.

    Mirrored: right of the strip [-a, a], a = ``_STRIP_REL`` widths, which
    keeps the left edge clear of the poles on the imaginary axis, and up to
    the mirror image of the left edge, so that every pole of the region is
    found or mirrored.
    """
    if not mirror:
        return region
    lo = max(region.omega_lo, -_STRIP_REL * region.width)
    return ScanRegion(lo, max(region.omega_hi, -region.omega_lo), region.depth)


def convergence_report(expansion: PoleExpansion, exact_curve,
                       center: float) -> ConvergenceReport:
    """The error of every anchored N-mode sum on the curve, N = 1 .. all modes.

    The anchor c is the curve sample nearest ``center``.  The modes are
    ordered by the distance of their head from c, larger residue first, and
    the N-mode sum f(c) + sum r_n [1/(omega - p_n) - 1/(c - p_n)] runs over
    the poles of the first N: exact at c, with no estimate of the constant
    the bare pole sum misses.  Its error is sup |sum - exact| / sup |exact|
    over the curve's samples.  Only measures: which N suffices is the
    caller's decision.
    """
    om, exact = exact_curve.omega, exact_curve.delta
    i = int(np.argmin(np.abs(om - center)))
    c, fc = float(om[i]), complex(exact[i])
    modes = sorted(expansion.modes,
                   key=lambda m: (abs(m[0].omega_pole.real - c), -abs(m[0].residue)))
    terms = [np.full(om.shape, fc)] + [
        q.residue * (1.0 / (om - q.omega_pole) - 1.0 / (c - q.omega_pole))
        for mode in modes for q in mode]
    # np.cumsum adds in order, so row k is f(c) plus the first k terms
    sums = np.cumsum(terms, axis=0)[np.cumsum([len(m) for m in modes], dtype=int)]
    errors = (np.max(np.abs(sums - exact), axis=1) / float(np.max(np.abs(exact)))).tolist()
    offset = fc - sum(p.residue / (c - p.omega_pole) for p in expansion.poles)
    return ConvergenceReport(modes=modes, errors=errors, offset=complex(offset))
