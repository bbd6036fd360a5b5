"""Pole search, residues and expansions against constructed oracles."""

import numpy as np
import pytest

from modecert import certify as cf, layered as ly, qnm, witness as wt
from modecert.errors import (
    AccuracyError,
    ExceptionalPointError,
    ModeCertError,
    RegionTooSmallError,
)

from conftest import fp_problem, rational_instance

REGION = qnm.ScanRegion(0.0, 10.0, 2.0)


# ---------------------------------------------------------------------------
# find_poles
# ---------------------------------------------------------------------------

def test_single_constructed_pole():
    poles = qnm.find_poles(lambda z: 1.0 / (z - (5 - 0.5j)), REGION)
    assert len(poles) == 1
    assert abs(poles[0].omega_pole - (5 - 0.5j)) < 1e-10


def test_two_pole_oracle_no_spurious():
    z1, z2 = 3 - 0.2j, 7 - 1.1j
    poles = qnm.find_poles(lambda z: 1.0 / (z - z1) + (2 + 1j) / (z - z2), REGION)
    got = sorted((p.omega_pole for p in poles), key=lambda c: c.real)
    assert len(got) == 2
    assert abs(got[0] - z1) < 1e-10 and abs(got[1] - z2) < 1e-10


def test_single_mode_denominator_pole():
    poles = qnm.find_poles(lambda z: 0.04 / (z - 10 + 0.2j),
                           qnm.ScanRegion(8.0, 12.0, 1.0))
    assert len(poles) == 1
    assert abs(poles[0].omega_pole - (10 - 0.2j)) < 1e-10


def test_randomized_rational_suite():
    rng = np.random.default_rng(42)
    for _ in range(60):
        f, zs, _ = rational_instance(rng)
        poles = qnm.find_poles(f, REGION)
        got = np.array(sorted((p.omega_pole for p in poles),
                              key=lambda c: (c.real, c.imag)))
        want = np.array(sorted(zs, key=lambda c: (c.real, c.imag)))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-10


def test_winding_consistency_pure_poles():
    # products of bare poles have no zeros, so the top-level winding of 1/f
    # equals the pole count exactly, and the moments are the power sums of
    # the poles
    re_lo, re_hi, im_lo, im_hi = REGION.box
    diam = np.hypot(re_hi - re_lo, im_hi - im_lo)
    zmax = max(abs(complex(re_lo, im_lo)), abs(complex(re_hi, im_hi)))
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        zs = (rng.uniform(1, 9, n) + 1j * rng.uniform(-1.7, -0.3, n))

        def f(z, zs=zs):
            z = np.asarray(z, dtype=complex)
            return 1.0 / np.prod(z[..., None] - zs, axis=-1)

        [(w, s1, s2)], _ = qnm._box_moments(f, [REGION.box])
        poles = qnm.find_poles(f, REGION)
        assert w == n == len(poles)
        assert abs(s1 - np.sum(zs)) < 3e-3 * diam
        assert abs(s2 - np.sum(zs ** 2)) < 3e-3 * diam * zmax


def _fewest_rounds(monkeypatch, f, box):
    """Fewest refinement rounds that resolve the boundary of one box."""
    rounds = 0
    while True:
        monkeypatch.setattr(qnm, "_MAX_REFINE_ROUNDS", rounds + 1)
        if qnm._box_moments(f, [box])[0][0] is not None:
            monkeypatch.undo()
            return rounds
        rounds += 1


def test_box_moments_one_call_per_refinement_round(monkeypatch):
    # poles just inside the top edge and the bottom-left corner of the first
    # box force refinement on several of its edges in the same round; a pole
    # closer still to the top edge of the second box needs more rounds.  f
    # has one zero between the first two poles, so that winding is 2 - 1.
    # The third box has a pole on a boundary sample, so the first call holds
    # resolved, refining and broken loops
    zs = (5 - 0.01j, 0.02 - 1.98j, 25 - 1e-4j, 45 - 2j)
    first, second, third = ((0.0, 10.0, -2.0, 0.0), (20.0, 30.0, -2.0, 0.0),
                            (40.0, 50.0, -2.0, 0.0))
    sizes = []

    def f(z):
        sizes.append(np.size(z))
        with np.errstate(divide="ignore", invalid="ignore"):
            # inf where a sample hits a pole, as the layered kernel returns
            return np.where(np.isin(z, zs), np.inf, sum(1.0 / (z - p) for p in zs))

    rounds = [_fewest_rounds(monkeypatch, f, box) for box in (first, second)]
    assert rounds[0] >= 2 and rounds[1] != rounds[0]
    alone = [qnm._box_moments(f, [box])[0][0] for box in (first, second, third)]
    sizes.clear()
    together, _ = qnm._box_moments(f, [first, second, third])
    assert len(sizes) == max(rounds) + 1
    assert together == alone
    assert together[0][0] == 1 and together[1][0] == 1 and together[2] is None


def test_newton_lockstep_matches_single_runs():
    # the lockstep runs evaluate the very points, and return the very
    # results, of the same runs made one at a time
    zs = np.array([2 - 0.3j, 4.5 - 1.2j, 7 - 0.6j, 8.8 - 1.7j])
    starts = [z + (0.05 - 0.03j) * (k + 1) for k, z in enumerate(zs)]
    scales = [0.8, 1.1, 0.5, 0.9]
    calls = []

    def f(z):
        calls.append(np.asarray(z))
        return np.sum(1.0 / (np.asarray(z)[..., None] - zs), axis=-1)

    together = qnm._newton(f, starts, scales)
    assert max(c.size for c in calls) == 3 * len(zs)
    points = sorted(np.concatenate(calls).tolist(), key=lambda c: (c.real, c.imag))
    calls.clear()
    alone = [qnm._newton(f, [z0], [s])[0] for z0, s in zip(starts, scales)]
    assert sorted(np.concatenate(calls).tolist(), key=lambda c: (c.real, c.imag)) == points
    assert together == alone
    for (z, resid), p in zip(together, zs):
        assert abs(z - p) < 1e-12 and resid < 1e-10


def test_newton_error_ends_only_the_raising_run():
    # the evaluator raises for Im z < -1: the run started near the pole below
    # that line fails, the others are found exactly as by single runs
    zs = np.array([2 - 0.3j, 5 - 1.5j, 8 - 0.6j])
    c = -1.0

    def f(z):
        z = np.asarray(z, dtype=complex)
        if np.any(z.imag < c):
            raise ModeCertError("below the cut")
        return np.sum(1.0 / (z[..., None] - zs), axis=-1)

    starts = [z + 0.02 for z in zs]
    got = qnm._newton(f, starts, [1.0] * 3)
    assert got[1] == (None, np.inf)
    assert got[0] == qnm._newton(f, starts[:1], [1.0])[0]
    assert got[2] == qnm._newton(f, starts[2:], [1.0])[0]
    assert abs(got[0][0] - zs[0]) < 1e-12 and abs(got[2][0] - zs[2]) < 1e-12


def test_find_poles_survives_raising_newton_steps():
    # the evaluator raises below the region, where one of two lockstep Newton
    # runs of a level steps; the other box keeps its run and every pole is
    # still found
    zs = np.array([2 - 0.3j, 8 - 1.9j, 8 - 0.6j, 3 - 1.5j])
    raised = []

    def f(z):
        z = np.asarray(z, dtype=complex)
        if np.any(z.imag < -2.0):
            raised.append(z.size)
            raise ModeCertError("below the region")
        return np.sum(1.0 / (z[..., None] - zs), axis=-1)

    got = sorted((p.omega_pole for p in qnm.find_poles(f, REGION)),
                 key=lambda c: (c.real, c.imag))
    assert max(raised) >= 6      # a shared call of two or more runs raised
    want = sorted(zs, key=lambda c: (c.real, c.imag))
    assert len(got) == 4
    assert np.max(np.abs(np.array(got) - want)) < 1e-10


def test_dedupe_merges_close_candidates():
    z0 = 5 - 0.5j
    poles = qnm._dedupe([(z0, 1e-9), (z0 + 0.2, 1e-12), (z0 + 2.0, 1e-10)],
                        0.5, REGION)
    assert [p.omega_pole for p in poles] == [z0 + 0.2, z0 + 2.0]


def _area(box):
    return (box[1] - box[0]) * (box[3] - box[2])


def _overlap(a, b):
    return (max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
            * max(0.0, min(a[3], b[3]) - max(a[2], b[2])))


@pytest.mark.parametrize("outer, inner, n_pieces", [
    ((0.0, 10.0, -2.0, 0.0), (2.5, 7.5, -2.0, 0.0), 2),     # symmetric growth
    ((2.5, 10.0, -3.0, 0.0), (2.5, 5.0, -1.5, 0.0), 2),     # left edge pinned
    ((0.0, 10.0, -4.0, 1.0), (2.0, 6.0, -2.5, 0.5), 4),     # inner box floating
])
def test_ring_tiles_grown_box(outer, inner, n_pieces):
    pieces = qnm._ring(outer, inner)
    assert len(pieces) == n_pieces
    # dyadic edges: the areas add up without rounding
    assert _area(inner) + sum(_area(b) for b in pieces) == _area(outer)
    tiles = pieces + [inner]
    for i, a in enumerate(tiles):
        assert outer[0] <= a[0] < a[1] <= outer[1] and outer[2] <= a[2] < a[3] <= outer[3]
        for b in tiles[i + 1:]:
            assert _overlap(a, b) == 0.0


def test_ring_rejects_box_outside():
    with pytest.raises(ValueError):
        qnm._ring((0.0, 10.0, -2.0, 0.0), (5.0, 11.0, -1.0, 0.0))


@pytest.mark.parametrize("old, lo_min", [
    (qnm.ScanRegion(3.0, 7.0, 2.0), None),      # symmetric growth
    (qnm.ScanRegion(1.0, 5.0, 1.25), 1.0),      # left edge pinned, deeper
])
def test_incremental_search_matches_scratch(old, lo_min):
    new = cf._grow(old, lo_min)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 12:
        f, zs, _ = rational_instance(rng, region=new.box, max_poles=6)
        inside = [qnm._inside(z, old.box) for z in zs]
        if all(inside) or not any(inside):
            continue   # want poles both in the old box and in the added strips
        previous = (old, qnm.find_poles(f, old))
        grown = qnm.find_poles(f, new, previous)
        scratch = qnm.find_poles(f, new)
        key = lambda c: (c.real, c.imag)
        got = np.array(sorted((p.omega_pole for p in grown), key=key))
        ref = np.array(sorted((p.omega_pole for p in scratch), key=key))
        want = np.array(sorted(zs, key=key))
        assert got.shape == ref.shape == want.shape
        assert np.max(np.abs(got - ref)) < 1e-10
        assert np.max(np.abs(got - want)) < 1e-10
        checked += 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_higher_order_pole_rejected():
    # Newton lands exactly on the double pole; the test lambda divides by zero
    with pytest.raises(ExceptionalPointError):
        qnm.find_poles(lambda z: 1.0 / (z - (5 - 0.5j)) ** 2,
                       qnm.ScanRegion(4.0, 6.0, 1.0))


def test_conjugate_symmetry_fabry_perot():
    # real-coefficient problem scanned over a symmetric region: mirror poles
    # obey omega(-) = -omega(+)*, r(-) = r(+)*
    pr = fp_problem(4.0)
    region = qnm.ScanRegion(-3.71 * np.pi, 3.73 * np.pi, 1.2 * np.pi)
    exp = qnm.build_expansion(qnm.witness_evaluator(pr), region)
    pos = sorted((p for p in exp.poles if p.omega_pole.real > 0.1),
                 key=lambda p: p.omega_pole.real)
    neg = sorted((p for p in exp.poles if p.omega_pole.real < -0.1),
                 key=lambda p: -p.omega_pole.real)
    assert len(pos) >= 2 and len(pos) == len(neg)
    for pp, pn in zip(pos, neg):
        assert abs(pn.omega_pole + np.conj(pp.omega_pole)) < 1e-8
        assert abs(pn.residue - np.conj(pp.residue)) < 1e-6 * abs(pp.residue)


# ---------------------------------------------------------------------------
# compute_residue
# ---------------------------------------------------------------------------

def test_residue_simple_unit():
    r, err = qnm.compute_residue(lambda z: 1.0 / (z - (2 - 0.4j)), 2 - 0.4j,
                                 0.3, 64)
    assert abs(r - 1.0) < 1e-12
    assert err < 1e-12


def test_residue_analytic_zero():
    r, err = qnm.compute_residue(np.exp, 1 + 1j, 0.5, 64)
    assert abs(r) < 1e-12


def test_residue_with_background():
    z0 = 4 - 0.3j
    r, _ = qnm.compute_residue(lambda z: (2 + 1j) / (z - z0) + np.cos(z / 3),
                               z0, 0.25, 64)
    assert abs(r - (2 + 1j)) < 1e-10


def test_residue_radius_independence():
    z0, z1 = 4 - 0.3j, 6 - 0.8j
    f = lambda z: (1.2 - 0.7j) / (z - z0) + 0.5 / (z - z1)
    r1, _ = qnm.compute_residue(f, z0, 0.4, 64)
    r2, _ = qnm.compute_residue(f, z0, 0.2, 64)
    assert abs(r1 - r2) < 1e-9 * abs(r1)


def test_residue_accuracy_error():
    # a second pole nearly on the circle ruins the trapezoid estimate
    z0, z1 = 4 - 0.3j, 4.41 - 0.3j
    with pytest.raises(AccuracyError):
        qnm.compute_residue(lambda z: 1 / (z - z0) + 1 / (z - z1), z0, 0.4,
                            16, tol=1e-10)


def test_residue_one_evaluator_call():
    calls = []

    def f(z):
        calls.append(np.size(z))
        return 1.0 / (z - (2 - 0.4j))

    r, _ = qnm.compute_residue(f, 2 - 0.4j, 0.3, 64)
    assert calls == [128]
    assert abs(r - 1.0) < 1e-12


def test_residue_sample_floor():
    with pytest.raises(ValueError):
        qnm.compute_residue(np.exp, 0j, 0.1, 8)


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

def test_expansion_single_mode_synthetic():
    f = lambda z: 0.04 / (z - (10 - 0.2j))
    region = qnm.ScanRegion(8.0, 12.0, 1.0)
    exp = qnm.build_expansion(f, region)
    assert len(exp.poles) == 1
    p = exp.poles[0]
    assert abs(p.residue - 0.04) < 1e-10
    assert abs(p.residue.imag) < 1e-12
    # the pole sum alone reproduces f: nothing is left for a constant
    assert abs(f(9.5) - p.residue / (9.5 - p.omega_pole)) < 1e-10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_expansion_residue_clear_of_pole_below_region():
    # the far pole sits 0.05 below the bottom edge; the first ring radius
    # (0.9 of the distance to that edge) passes close to it.  Newton lands
    # exactly on the near pole, where the test lambda divides by zero
    f = lambda z: 1.0 / (z - (5 - 1j)) + 1.0 / (z - (5 - 2.05j))
    exp = qnm.build_expansion(f, REGION)
    assert len(exp.poles) == 1
    assert abs(exp.poles[0].omega_pole - (5 - 1j)) < 1e-10
    assert abs(exp.poles[0].residue - 1.0) < 1e-10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_expansion_residue_rings_share_calls():
    # three poles in the region: all rings go in one call, and the ring of the
    # pole above the one just below the region is retried in one more call
    sizes = []

    def f(z):
        sizes.append(np.size(z))
        return sum(1.0 / (z - p) for p in (5 - 1j, 5 - 2.05j, 2 - 0.5j, 8 - 0.4j))

    exp = qnm.build_expansion(f, REGION)
    assert len(exp.poles) == 3
    assert sizes[-2:] == [3 * 2 * qnm._RESIDUE_SAMPLES, 2 * qnm._RESIDUE_SAMPLES]
    for p in exp.poles:
        assert abs(p.residue - 1.0) < 1e-10


def test_expansion_oracle_pairs():
    rng = np.random.default_rng(123)
    for _ in range(10):
        f, zs, rs = rational_instance(rng)
        exp = qnm.build_expansion(f, REGION)
        got = sorted(exp.poles, key=lambda p: (p.omega_pole.real, p.omega_pole.imag))
        want = sorted(zip(zs, rs), key=lambda t: (t[0].real, t[0].imag))
        assert len(got) == len(want)
        for p, (z, r) in zip(got, want):
            assert abs(p.omega_pole - z) < 1e-10
            assert abs(p.residue - r) < 1e-10 * max(1.0, abs(r))


def test_expansion_fabry_perot_single_mode_limit():
    pr = fp_problem(20.0)
    region = qnm.ScanRegion(0.6 * np.pi, 1.5 * np.pi, 0.3)
    exp = qnm.build_expansion(qnm.witness_evaluator(pr), region)
    assert len(exp.poles) == 1
    assert abs(np.angle(exp.poles[0].residue)) < 0.05


def test_expansion_fabry_perot_multi_mode():
    pr = fp_problem(4.0)
    region = qnm.ScanRegion(0.25 * np.pi, 9.75 * np.pi, 2.0 * np.pi)
    exp = qnm.build_expansion(qnm.witness_evaluator(pr), region)
    assert len(exp.poles) >= 4
    main = min(exp.poles, key=lambda p: abs(p.omega_pole.real - 1.386 * np.pi))
    assert abs(np.angle(main.residue)) > 0.05


def test_evaluate_truncated_exact_on_rational():
    rng = np.random.default_rng(9)
    f, zs, rs = rational_instance(rng, max_poles=4)
    exp = qnm.build_expansion(f, REGION)
    om = np.linspace(0.5, 9.5, 101)
    full = qnm.evaluate_truncated(exp, len(qnm.counted_poles(exp, 5.0)), om,
                                  (5.0, f(5.0)))
    assert np.max(np.abs(full - f(om))) < 1e-10


def test_evaluate_truncated_single_mode_exact():
    f = lambda z: 0.04 / (z - (10 - 0.2j))
    region = qnm.ScanRegion(8.0, 12.0, 1.0)
    exp = qnm.build_expansion(f, region)
    om = np.linspace(8.5, 11.5, 64)
    got = qnm.evaluate_truncated(exp, 1, om, (10.0, f(10.0)))
    assert np.max(np.abs(got - f(om))) < 1e-12


def test_truncation_convergence_sweep_n4():
    # recorded behavior: the 5 percent tolerance needs at least 3 modes on
    # the n = 4 cavity over a wide symmetric region
    pr = fp_problem(4.0)
    region = qnm.ScanRegion(-14.77 * np.pi, 14.81 * np.pi, 1.2 * np.pi)
    exp = qnm.build_expansion(qnm.witness_evaluator(pr), region)
    win = (0.92 * np.pi, 1.85 * np.pi)
    curve = wt.levshift_curve(pr, win, n=1001, refine=1)
    rep = qnm.convergence_report(exp, curve, 0.05, 1.386 * np.pi)
    errors = rep.errors
    assert rep.n_star >= 3
    assert min(errors[:2]) > 0.05 and errors[rep.n_star - 1] < 0.05


def test_convergence_report_two_lorentzians():
    z1, z2 = 3.0 - 0.2j, 7.0 - 0.3j
    f = lambda z: 1.0 / (z - z1) + 0.6 / (z - z2)
    exp = qnm.build_expansion(f, REGION)
    win = (2.0, 4.0)
    om = np.linspace(*win, 801)
    curve = wt.LevelShiftCurve(om, f(om), "synthetic", win)
    assert qnm.convergence_report(exp, curve, 0.10, 3.0).n_star == 1
    assert qnm.convergence_report(exp, curve, 0.001, 3.0).n_star == 2


def test_convergence_single_mode_tight():
    f = lambda z: 0.04 / (z - (10 - 0.2j))
    region = qnm.ScanRegion(8.0, 12.0, 1.0)
    exp = qnm.build_expansion(f, region)
    om = np.linspace(9.0, 11.0, 801)
    curve = wt.LevelShiftCurve(om, f(om), "synthetic", (9.0, 11.0))
    assert qnm.convergence_report(exp, curve, 1e-6, 10.0).n_star == 1


def test_region_too_small_error():
    z1, z2 = 3.0 - 0.2j, 12.0 - 0.3j   # second pole outside the region
    f = lambda z: 1.0 / (z - z1) + 2.0 / (z - z2)
    exp = qnm.build_expansion(f, REGION)
    win = (8.0, 9.9)
    om = np.linspace(*win, 801)
    curve = wt.LevelShiftCurve(om, f(om), "synthetic", win)
    with pytest.raises(RegionTooSmallError) as info:
        qnm.convergence_report(exp, curve, 1e-4, 9.0)
    # the payload is the error table of the region: one entry per counted pole
    assert len(info.value.errors) == 1
    assert info.value.errors[0] > 1e-4


def test_expansion_serialization():
    f = lambda z: (0.5 + 0.1j) / (z - (4 - 0.6j))
    region = qnm.ScanRegion(2.0, 6.0, 1.5)
    exp = qnm.build_expansion(f, region)
    d = exp.to_dict()
    assert d["region"]["omega_lo"] == 2.0
    assert d["poles"][0]["re"] == pytest.approx(4.0, abs=1e-9)
    assert d["poles"][0]["res_im"] == pytest.approx(0.1, abs=1e-9)
    assert d["poles"] == [p.to_dict() for p in exp.poles]


def test_scan_region_validation():
    with pytest.raises(ValueError):
        qnm.ScanRegion(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        qnm.ScanRegion(0.0, 1.0, -1.0)
