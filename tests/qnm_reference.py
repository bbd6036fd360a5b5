"""Reference boundary pass that the tests compare ``modecert.qnm._box_moments`` against.

The per-sample form: every sample carries the id of its box (``owner``),
the loop starts are found from the changes of ``owner`` in each round, and
midpoints are inserted into both the samples and ``owner``.  The library
tracks each open loop by its length and its box instead, with the same
samples, the same evaluator calls and the same sums in the same order, so
its moments and h samples must agree with this one bit for bit.  The
constants are read from ``modecert.qnm`` at call time.
"""

import numpy as np

from modecert import qnm


def box_moments(f, boxes):
    """(W, s1, s2) per box (None where unresolved) and the first box's h samples."""
    t = np.linspace(0.0, 1.0, qnm._EDGE_POINTS, endpoint=False)
    b = np.asarray(boxes)   # rows (re_lo, re_hi, im_lo, im_hi); corners counter-clockwise
    corners = (b[:, [0, 1, 1, 0]] + 1j * b[:, [2, 2, 3, 3]])[..., None]
    z = (corners + t * (np.roll(corners, -1, axis=1) - corners)).ravel()
    zf = np.stack([z, f(z)])
    owner = np.repeat(np.arange(len(boxes)), 4 * qnm._EDGE_POINTS)
    centre = 0.5 * (b[:, 0] + b[:, 1] + 1j * (b[:, 2] + b[:, 3]))
    out, h_first = [None] * len(boxes), None
    for rnd in range(qnm._MAX_REFINE_ROUNDS):
        z, n = zf[0], zf.shape[1]
        u = z - centre[owner]   # about the centre of each sample's box
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        sizes = np.diff(np.append(first, n))
        nxt = np.arange(1, n + 1)
        nxt[first + sizes - 1] = first
        with np.errstate(divide="ignore", invalid="ignore"):
            h = 1.0 / zf[1]
            d = np.log(h[nxt] / h)
            w_raw = np.add.reduceat(d.imag, first) / qnm.TWO_PI
            s1 = np.add.reduceat(0.5 * (u + u[nxt]) * d, first) / (2j * np.pi)
            s2 = np.add.reduceat(u * u[nxt] * d, first) / (2j * np.pi)
        broken = np.logical_or.reduceat(~np.isfinite(h) | (h == 0), first)
        bad = (np.abs(d.imag) > qnm._PHASE_STEP) | (np.abs(d.real) > qnm._LOGMOD_STEP)
        refine = np.logical_or.reduceat(bad, first) & ~broken
        w = np.round(w_raw)
        for i in np.flatnonzero(~broken & ~refine & (np.abs(w_raw - w) <= 0.1)):
            out[owner[first[i]]] = (int(w[i]), s1[i], s2[i])
        if owner[0] == 0 and out[0] is not None:
            h_first = h[:sizes[0]]
        grow = (refine & (sizes <= qnm._MAX_BOUNDARY_POINTS)
                & (rnd < qnm._MAX_REFINE_ROUNDS - 1))
        if not np.any(grow):
            break
        # midpoints of the bad neighbour pairs; finished loops are dropped
        keep = np.repeat(grow, sizes)
        idx = np.flatnonzero(bad & keep)
        z_mid = 0.5 * (z[idx] + z[nxt[idx]])
        keep = np.insert(keep, idx + 1, True)
        zf = np.insert(zf, idx + 1, [z_mid, f(z_mid)], axis=1)[:, keep]
        owner = np.insert(owner, idx + 1, owner[idx])[keep]
    return out, h_first
