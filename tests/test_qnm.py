"""Pole search, residues and expansions against constructed oracles."""

import ast
import dataclasses
import functools
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from modecert import certify as cf, layered as ly, qnm, witness as wt
from modecert.errors import (
    AccuracyError,
    BranchPointError,
    ExceptionalPointError,
    UnresolvedRegionError,
)

from conftest import fp_problem, lossy_problem, pole_sets_by_tiling, rational_instance

REGION = qnm.ScanRegion(0.0, 10.0, 2.0)
# growing with the left edge moving further out than the right one
MIRROR_REGIONS = (qnm.ScanRegion(-4.0, 4.2, 2.0), qnm.ScanRegion(-7.0, 6.5, 2.0),
                  qnm.ScanRegion(-10.0, 9.0, 2.0))


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


# a rational instance in the style of conftest.rational_instance: poles one
# per cell of a 9 x 4 grid over REGION (at least 0.25 apart and 0.2 inside
# the edges), residues and a constant background, which puts zeros of f in
# REGION next to the poles
_CELL = st.tuples(st.integers(0, 8), st.integers(0, 3), st.floats(-0.3, 0.3),
                  st.floats(-0.1, 0.1))
_RESIDUE = st.builds(lambda m, a: m * np.exp(1j * a), st.floats(0.2, 3.0),
                     st.floats(-np.pi, np.pi))


@st.composite
def rational_with_zeros(draw):
    cells = draw(st.lists(_CELL, min_size=1, max_size=5, unique_by=lambda c: c[:2]))
    zs = np.array([complex(1.0 + i + dx, -0.3 - 0.45 * j + dy) for i, j, dx, dy in cells])
    rs = np.array(draw(st.lists(_RESIDUE, min_size=zs.size, max_size=zs.size)))
    c0 = draw(_RESIDUE) / 3.0
    # zeros of c0 + sum r/(z - p): roots of c0 prod(z - p) + sum r prod_{q != p}(z - q)
    num = c0 * np.poly(zs) + sum(np.pad(r * np.poly(np.delete(zs, k)), (1, 0))
                                 for k, r in enumerate(rs))
    zeros = np.roots(num)
    assume(any(qnm._inside(z, REGION.box) for z in zeros))
    return zs, rs, c0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rational_with_zeros())
def test_batched_search_finds_every_pole(instance):
    # the one-point test lets a W = 1 box wait for the Newton batch only when
    # its moments are those of one location; boxes holding zeros of f as
    # well must be split until the batch can accept their poles, and no box
    # may be left unresolved
    zs, rs, c0 = instance

    def f(z):
        with np.errstate(divide="ignore", invalid="ignore"):
            # inf where a sample hits a pole, as the layered kernel returns
            return np.where(np.isin(z, zs), np.inf,
                            np.sum(rs / (z[..., None] - zs), axis=-1) + c0)

    got = np.array(sorted((p.omega_pole for p in qnm.find_poles(f, REGION)),
                          key=lambda c: (c.real, c.imag)))
    want = np.array(sorted(zs, key=lambda c: (c.real, c.imag)))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-10


def test_pole_next_to_a_zero_and_a_second_zero():
    # the root box holds the pole 1 - 0.3j, a zero 0.125 from it and a second
    # zero: winding -1, with moments that pass for one zero at c - s1.  Its
    # Newton run on f does not reproduce them, so the box is split and the
    # pole found (a gate that set such a box aside as a lone zero lost it)
    def f(z):
        return (z - (1 - 0.75j)) * (z - (1.125 - 0.3j)) / (z - (1 - 0.3j))

    [pole] = qnm.find_poles(f, REGION)
    assert abs(pole.omega_pole - (1 - 0.3j)) < 1e-10


@st.composite
def poles_with_near_zeros(draw):
    """Poles as in :func:`rational_with_zeros`, each with a zero 0.02-0.15 away.

    Up to two more zeros lie anywhere in REGION; all the zeros are simple
    and at least 0.02 from every pole.  f is the product of the zeros'
    factors over that of the poles'.
    """
    cells = draw(st.lists(_CELL, min_size=1, max_size=4, unique_by=lambda c: c[:2]))
    poles = np.array([complex(1.0 + i + dx, -0.3 - 0.45 * j + dy) for i, j, dx, dy in cells])
    near = [p + draw(st.floats(0.02, 0.15)) * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
            for p in poles]
    far = draw(st.lists(st.builds(complex, st.floats(0.2, 9.8), st.floats(-1.8, -0.05)),
                        max_size=2))
    zeros = np.array(near + far)
    gaps = np.abs(zeros[:, None] - np.concatenate([poles, zeros]))
    gaps[:, poles.size:] += np.eye(zeros.size)
    assume(np.all(gaps > 0.02))
    return poles, zeros


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(poles_with_near_zeros())
def test_pole_set_is_tiling_free(instance):
    # a zero next to a pole, with or without a second zero, is resolved by
    # the moments and Newton runs, not by where the cuts fall: boxes cut in
    # quarters and in halves find the same poles, each a pole of f.  (A pole
    # with its zero closer than about 3e-3 of the root box's diameter, and a
    # second zero, passes for that zero in both tilings and is not found.)
    poles, zeros = instance

    def f(z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.prod(z[..., None] - zeros, axis=-1) / np.prod(z[..., None] - poles, axis=-1)

    quarters, halves = pole_sets_by_tiling(f, REGION)
    assert quarters.shape == halves.shape
    assert np.all(np.abs(quarters - halves) < 1e-10)
    assert all(np.min(np.abs(poles - p)) < 1e-10 for p in quarters)


def test_winding_consistency_pure_poles():
    # products of bare poles have no zeros, so the top-level winding of 1/f
    # equals the pole count exactly, and the moments are the power sums of
    # the poles about the box centre
    re_lo, re_hi, im_lo, im_hi = REGION.box
    diam = np.hypot(re_hi - re_lo, im_hi - im_lo)
    c = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
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
        assert abs(s1 - np.sum(zs - c)) < 3e-3 * diam
        assert abs(s2 - np.sum((zs - c) ** 2)) < 3e-3 * diam ** 2


@pytest.mark.parametrize("shift", [0.0, 1e2, 1e4])
def test_translation_invariance(shift):
    # every gate is read in units of its own box, so moving the frequency
    # origin moves the poles and nothing else
    region = qnm.ScanRegion(shift, 10.0 + shift, 2.0)
    key = lambda c: (c.real, c.imag)
    for seed in range(30):
        f, zs, _ = rational_instance(np.random.default_rng(seed), background=True)
        poles = qnm.find_poles(lambda z: f(z - shift), region)
        got = np.array(sorted((p.omega_pole - shift for p in poles), key=key))
        want = np.array(sorted(zs, key=key))
        assert got.shape == want.shape, seed
        assert np.max(np.abs(got - want)) < 1e-6, seed


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
    # f vanishes for Im z < -1, so h = 1/f is not finite there: the run
    # started near the pole below that line fails on its first step, the
    # others are found exactly as by single runs (an evaluator that raises
    # instead ends the whole search, see the test below)
    zs = np.array([2 - 0.3j, 5 - 1.5j, 8 - 0.6j])
    c = -1.0

    def f(z):
        z = np.asarray(z, dtype=complex)
        return np.where(z.imag < c, 0.0, np.sum(1.0 / (z[..., None] - zs), axis=-1))

    starts = [z + 0.02 for z in zs]
    got = qnm._newton(f, starts, [1.0] * 3)
    assert got[1] == (None, np.inf)
    assert got[0] == qnm._newton(f, starts[:1], [1.0])[0]
    assert got[2] == qnm._newton(f, starts[2:], [1.0])[0]
    assert abs(got[0][0] - zs[0]) < 1e-12 and abs(got[2][0] - zs[2]) < 1e-12


def _newton_batches(monkeypatch):
    """Spy on ``qnm._newton``: (starts, windings, results) of every call."""
    batches = []
    newton = qnm._newton

    def spy(f, starts, scales, windings=1):
        batches.append((list(starts), np.broadcast_to(windings, len(starts)).tolist(),
                        newton(f, starts, scales, windings)))
        return batches[-1][2]

    monkeypatch.setattr(qnm, "_newton", spy)
    return batches


# four poles: the pole 2 - 0.3j waits in the same batch as the others, and
# the moments of its box put its Newton start some 3e-3 away from it
SPOT_POLES = np.array([2 - 0.3j, 8 - 1.9j, 8 - 0.6j, 3 - 1.5j])


def _spot(monkeypatch):
    """The Newton start of the run for 2 - 0.3j in the one batch of a clean search."""
    batches = _newton_batches(monkeypatch)
    qnm.find_poles(lambda z: np.sum(1.0 / (z[..., None] - SPOT_POLES), axis=-1), REGION)
    [(starts, windings, _)] = batches
    # a run per pole (3 - 1.5j, on a cut, gets one from each side) and a
    # zero run (W = -1) for each of the three zeros of f
    assert len(starts) == 8 and windings.count(-1) == 3
    batches.clear()
    return min(starts, key=lambda z: abs(z - SPOT_POLES[0])), batches


def test_find_poles_survives_raising_newton_steps(monkeypatch):
    # f vanishes on a spot inside the box of 2 - 0.3j, where the batched
    # Newton run of that box starts and no boundary loop samples: that run
    # fails alone, the other runs of the batch are accepted, its box is
    # split and a later batch serves its children
    spot, batches = _spot(monkeypatch)

    def f(z):
        z = np.asarray(z, dtype=complex)
        return np.where(np.abs(z - spot) < 1e-9, 0.0,
                        np.sum(1.0 / (z[..., None] - SPOT_POLES), axis=-1))

    got = sorted((p.omega_pole for p in qnm.find_poles(f, REGION)),
                 key=lambda c: (c.real, c.imag))
    (starts, windings, first), *later = batches
    k = starts.index(spot)
    assert first[k] == (None, np.inf)
    for w, (z, _) in zip(windings[:k] + windings[k + 1:], first[:k] + first[k + 1:]):
        # the other pole runs give the found poles, the zero runs zeros of f
        assert z is not None and (z in got if w == 1 else abs(f(np.array([z]))[0]) < 1e-12)
    # the children of that box wait for a batch of their own, which finds the pole
    [(_, _, second)] = later
    assert any(z is not None and abs(z - SPOT_POLES[0]) < 1e-12 for z, _ in second)
    want = sorted(SPOT_POLES, key=lambda c: (c.real, c.imag))
    assert len(got) == 4
    assert np.max(np.abs(np.array(got) - want)) < 1e-10


def test_newton_step_error_ends_the_search(monkeypatch):
    # the evaluator raises on the spot where the batched Newton run of
    # 2 - 0.3j starts: the error comes out of find_poles as it was raised,
    # not as a failed run
    spot, _ = _spot(monkeypatch)
    raised = []

    def f(z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z - spot) < 1e-9):
            raised.append(BranchPointError("on the spot", omega=z))
            raise raised[-1]
        return np.sum(1.0 / (z[..., None] - SPOT_POLES), axis=-1)

    with pytest.raises(BranchPointError) as info:
        qnm.find_poles(f, REGION)
    assert len(raised) == 1 and info.value is raised[0]
    # a Newton step of the eight runs: (z, z + delta, z - delta) each
    z = info.value.omega.reshape(-1, 3)
    assert z.shape == (8, 3) and spot in z[:, 0]
    assert np.allclose(z[:, 1] + z[:, 2], 2 * z[:, 0]) and np.all(z[:, 1] != z[:, 0])


def test_dedupe_merges_close_candidates():
    z0 = 5 - 0.5j
    poles = qnm._dedupe([(z0, 1e-9), (z0 + 0.2, 1e-12), (z0 + 2.0, 1e-10)],
                        0.5, REGION)
    assert [p.omega_pole for p in poles] == [z0 + 0.2, z0 + 2.0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_higher_order_pole_rejected():
    # Newton lands exactly on the double pole; the test lambda divides by zero
    with pytest.raises(ExceptionalPointError):
        qnm.find_poles(lambda z: 1.0 / (z - (5 - 0.5j)) ** 2,
                       qnm.ScanRegion(4.0, 6.0, 1.0))


def test_unresolved_box_at_the_subdivision_limit(monkeypatch):
    # three poles and the two zeros of their sum: with one subdivision level
    # the second quarter holds a lone zero (confirmed by its Newton run and
    # set aside), and the third the pole 5.5 - 1.3j and a zero (winding 0,
    # moments nonzero), which is neither empty nor one point, so the search
    # names that box
    zs = np.array([2 - 0.3j, 5.5 - 1.3j, 8 - 0.6j])
    monkeypatch.setattr(qnm, "_MAX_LEVELS", 1)
    with pytest.raises(UnresolvedRegionError, match=r"max subdivision \(winding 0\)") as info:
        qnm.find_poles(lambda z: np.sum(1.0 / (z[..., None] - zs), axis=-1), REGION)
    assert info.value.box == (5.0, 7.5, -2.0, 0.0)


def test_ill_conditioned_boundary_after_four_perturbations():
    # f is NaN on a band that every perturbed root boundary crosses: the
    # search gives up after four attempts and names the last perturbed box
    zs = np.array([2 - 0.3j, 8 - 0.6j])

    def f(z):
        return np.where(np.abs(z.real - 5.0) < 0.5, np.nan,
                        np.sum(1.0 / (z[..., None] - zs), axis=-1))

    with pytest.raises(UnresolvedRegionError, match="boundary winding ill-conditioned") as info:
        qnm.find_poles(f, REGION)
    box = REGION.box
    for attempt in range(4):
        box = qnm._perturbed(box, attempt)
    assert info.value.box == box


def test_conjugate_symmetry_fabry_perot():
    # real-coefficient problem scanned over a symmetric region: the full
    # search finds mirror poles omega(-) = -omega(+)*, r(-) = r(+)*, and the
    # mirrored half search gives the same poles, each mirror carrying the
    # conjugate residue of its twin
    pr = fp_problem(4.0)
    region = qnm.ScanRegion(-3.71 * np.pi, 3.73 * np.pi, 1.2 * np.pi)
    f = functools.partial(wt.levshift_exact, pr)
    exp = qnm.build_expansion(f, region)
    pos = sorted((p for p in exp.poles if p.omega_pole.real > 0.1),
                 key=lambda p: p.omega_pole.real)
    neg = sorted((p for p in exp.poles if p.omega_pole.real < -0.1),
                 key=lambda p: -p.omega_pole.real)
    assert len(pos) >= 2 and len(pos) == len(neg)
    for pp, pn in zip(pos, neg):
        assert abs(pn.omega_pole + np.conj(pp.omega_pole)) < 1e-8
        assert abs(pn.residue - np.conj(pp.residue)) < 1e-6 * abs(pp.residue)

    half = qnm.build_expansion(f, region, mirror=True)
    assert qnm._searched(region, True).omega_lo > region.omega_lo
    assert len(half.poles) == len(exp.poles)
    for p in exp.poles:
        q = min(half.poles, key=lambda q: abs(q.omega_pole - p.omega_pole))
        assert abs(p.omega_pole - q.omega_pole) < 1e-8
        assert abs(p.residue - q.residue) < 1e-6 * abs(p.residue)
    _assert_mirrored_twins(half)


def _assert_mirrored_twins(exp):
    """Every pole left of the searched part is the exact mirror of its twin.

    Returns the poles whose twin lies outside the region.
    """
    lone = []
    for q in exp.poles:
        if q.omega_pole.real >= qnm._searched(exp.region, True).omega_lo:
            continue
        twins = [p for p in exp.poles if p.omega_pole == -q.omega_pole.conjugate()]
        if qnm._inside(-q.omega_pole.conjugate(), exp.region.box):
            assert len(twins) == 1
            assert q.residue == twins[0].residue.conjugate()
            assert q.residual == twins[0].residual
        else:
            assert twins == []
            lone.append(q)
    return lone


def _mirror_instance(rng, strip):
    """Rational f with f(-z*) = -f(z)*: pole pairs p, -p* with residues r, r*.

    Two poles sit on the imaginary axis (real residues), one pair inside
    the strip |Re z| < ``strip``, one pair at 1.5 ``strip``, and the other
    pairs have a pole right of each growth sliver below (Re 6.6-6.9 and
    9.1-9.9) and random ones.  Apart from the pairs at the strip, poles are
    0.3 apart and keep 0.1 clear of the real edges of the regions of
    :func:`test_mirrored_search_matches_full_search`.
    """
    edges = np.array([4.0, 4.2, 6.5, 7.0, 9.0, 10.0])
    while True:
        axis = 1j * rng.uniform(-1.8, -0.2, 2)
        re = np.concatenate(([0.3 * strip, 1.5 * strip], rng.uniform(6.6, 6.9, 1),
                             rng.uniform(9.1, 9.9, 1), rng.uniform(0.5, 8.5, 3)))
        right = re + 1j * rng.uniform(-1.8, -0.2, re.size)
        rs = rng.uniform(0.2, 3.0, re.size) * np.exp(1j * rng.uniform(-np.pi, np.pi, re.size))
        zs = np.concatenate((axis, right, -right.conj()))
        spread = np.abs(zs[:, None] - zs[None, :]) + np.eye(zs.size)
        for k in (2, 3):   # the pairs at the strip
            spread[k, k + re.size] = spread[k + re.size, k] = 1.0
        if (spread.min() > 0.3 and np.abs(np.abs(re[2:, None]) - edges).min() > 0.1):
            break
    rs_all = np.concatenate((rng.uniform(0.2, 3.0, 2), rs, rs.conj()))

    def f(z):
        z = np.asarray(z, dtype=complex)
        return np.sum(rs_all / (z[..., None] - zs), axis=-1)

    return f, zs, rs_all


def test_mirrored_search_matches_full_search():
    # the regions grow with the left edge moving further out than the
    # right one, as the default region does from its second
    # growth on: the slivers [-7, -6.5) and [-10, -9) hold poles whose twins
    # lie outside the region, so their sources lie right of it.  The strip
    # widens with the region: the pair just outside the first strip is
    # mirrored at first and found directly once the region has grown
    regions = MIRROR_REGIONS
    strip = qnm._STRIP_REL * regions[0].width
    assert 1.5 * strip < qnm._STRIP_REL * regions[1].width
    rng = np.random.default_rng(2024)
    for _ in range(4):
        f, zs, rs = _mirror_instance(rng, strip)
        w = np.array([1.3 - 0.7j, -2.1 - 1.4j])
        assert np.allclose(f(-np.conj(w)), -np.conj(f(w)), rtol=1e-13)
        for region in regions:
            half = qnm.build_expansion(f, region, mirror=True)
            full = qnm.build_expansion(f, region)
            want = [(z, r) for z, r in zip(zs, rs) if qnm._inside(z, region.box)]
            assert qnm._searched(region, True).omega_lo == -qnm._STRIP_REL * region.width
            assert len(half.poles) == len(full.poles) == len(want)
            for z, r in want:
                p, q = (min(e.poles, key=lambda p: abs(p.omega_pole - z)) for e in (half, full))
                assert abs(p.omega_pole - q.omega_pole) < 1e-10
                assert abs(p.omega_pole - z) < 1e-10
                assert abs(p.residue - r) < 1e-10 * max(1.0, abs(r))
            lone = _assert_mirrored_twins(half)
            assert (len(lone) > 0) == (region.omega_lo < -region.omega_hi)
        # one pair straddles the imaginary axis inside the strip: both found
        inner = [p for p in half.poles if 0.1 * strip < abs(p.omega_pole.real) < strip]
        assert len(inner) == 2


def test_mirrored_fabry_perot_modes_are_mirror_pairs():
    # each pole lies in one mode, and a two-pole mode of a mirrored
    # expansion is a pole p with its mirror -p*, carrying the residue r*
    pr = fp_problem(4.0)
    region = qnm.ScanRegion(-3.71 * np.pi, 3.73 * np.pi, 1.2 * np.pi)
    exp = qnm.build_expansion(functools.partial(wt.levshift_exact, pr), region, mirror=True)
    members = sorted((q for mode in exp.modes for q in mode),
                     key=lambda p: (p.omega_pole.real, p.omega_pole.imag))
    assert members == list(exp.poles)
    pairs = [mode for mode in exp.modes if len(mode) == 2]
    assert len(pairs) >= 2
    for p, q in pairs:
        assert p.omega_pole.real >= 0
        assert q.omega_pole == -p.omega_pole.conjugate()
        assert q.residue == p.residue.conjugate()


def test_mirrored_modes_match_full_search():
    # the half and the full search of a mirror instance count the same
    # modes, and the pair straddling the axis inside the strip is one mode
    strip = qnm._STRIP_REL * MIRROR_REGIONS[0].width
    f, _, _ = _mirror_instance(np.random.default_rng(2024), strip)
    for region in MIRROR_REGIONS:
        half = qnm.build_expansion(f, region, mirror=True)
        full = qnm.build_expansion(f, region)
        assert len(half.modes) == len(full.modes)
        for exp in (half, full):
            inner = [mode for mode in exp.modes
                     if any(0.1 * strip < abs(q.omega_pole.real) < strip for q in mode)]
            assert [len(mode) for mode in inner] == [2]


# ---------------------------------------------------------------------------
# residue rings
# ---------------------------------------------------------------------------

def _residue(f, z0, radius):
    [(res, err)] = qnm._ring_residues(f, [z0], [radius], 64)
    return res, err


def test_residue_simple_unit():
    r, err = _residue(lambda z: 1.0 / (z - (2 - 0.4j)), 2 - 0.4j, 0.3)
    assert abs(r - 1.0) < 1e-12
    assert err < 1e-12


def test_residue_analytic_zero():
    r, err = _residue(np.exp, 1 + 1j, 0.5)
    assert abs(r) < 1e-12


def test_residue_with_background():
    z0 = 4 - 0.3j
    r, _ = _residue(lambda z: (2 + 1j) / (z - z0) + np.cos(z / 3), z0, 0.25)
    assert abs(r - (2 + 1j)) < 1e-10


def test_residue_radius_independence():
    z0, z1 = 4 - 0.3j, 6 - 0.8j
    f = lambda z: (1.2 - 0.7j) / (z - z0) + 0.5 / (z - z1)
    r1, _ = _residue(f, z0, 0.4)
    r2, _ = _residue(f, z0, 0.2)
    assert abs(r1 - r2) < 1e-9 * abs(r1)


def test_residue_one_evaluator_call():
    calls = []

    def f(z):
        calls.append(np.size(z))
        return 1.0 / (z - (2 - 0.4j)) + 1.0 / (z - (5 - 0.4j))

    rings = qnm._ring_residues(f, [2 - 0.4j, 5 - 0.4j], [0.3, 0.2], 64)
    assert calls == [2 * 128]
    assert all(abs(r - 1.0) < 1e-12 for r, _ in rings)


def test_residue_accuracy_error(monkeypatch):
    # the search is made to miss a pole of f inside the one ring (radius
    # 0.45 of the distance 1 to the top and bottom edges) around the pole it
    # returns: the ring fails the doubling tolerance, and the error names
    # that ring
    z0 = 5 - 1j
    f = lambda z: 1.0 / (z - z0) + 1.0 / (z - (z0 + 0.4))
    monkeypatch.setattr(qnm, "find_poles", lambda f, region: [qnm.Pole(z0)])
    with pytest.raises(AccuracyError, match="within about 1.3 ring radii of it, inside "
                                            "the searched region") as info:
        qnm.build_expansion(f, REGION)
    [(_, err)] = qnm._ring_residues(f, [z0], [0.45], qnm._RESIDUE_SAMPLES)
    assert err > qnm._RESIDUE_TOL
    assert vars(info.value) == {"pole": z0, "radius": pytest.approx(0.45),
                                "error": pytest.approx(err)}


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
    # the far pole sits 0.05 below the bottom edge, 2.3 ring radii (0.45 of
    # the distance to that edge) from the near pole.  Newton lands exactly
    # on the near pole, where the test lambda divides by zero
    f = lambda z: 1.0 / (z - (5 - 1j)) + 1.0 / (z - (5 - 2.05j))
    exp = qnm.build_expansion(f, REGION)
    assert len(exp.poles) == 1
    assert abs(exp.poles[0].omega_pole - (5 - 1j)) < 1e-10
    assert abs(exp.poles[0].residue - 1.0) < 1e-10


def _spy_rings(monkeypatch):
    """The calls of ``qnm._ring_residues``, as one list of centres each."""
    calls = []
    ring_residues = qnm._ring_residues

    def spy(f, centres, radii, samples):
        calls.append(list(centres))
        return ring_residues(f, centres, radii, samples)

    monkeypatch.setattr(qnm, "_ring_residues", spy)
    return calls


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_expansion_residue_rings_share_calls(monkeypatch):
    # three poles in the region and one just below it: the three rings go in
    # one evaluator call of 3 rings of 2M points, and none is retried
    sizes = []
    calls = _spy_rings(monkeypatch)

    def f(z):
        sizes.append(np.size(z))
        return sum(1.0 / (z - p) for p in (5 - 1j, 5 - 2.05j, 2 - 0.5j, 8 - 0.4j))

    exp = qnm.build_expansion(f, REGION)
    assert len(exp.poles) == 3
    assert len(calls) == 1 and sizes[-1] == 3 * 2 * qnm._RESIDUE_SAMPLES
    for p in exp.poles:
        assert abs(p.residue - 1.0) < 1e-10


@st.composite
def poles_beyond_edges(draw):
    """A rational instance with 1-2 more poles just outside REGION.

    (poles, residues) of ``conftest.rational_instance`` inside REGION and of
    the outer poles, each 0.02-0.3 above the top edge or below the bottom
    edge.
    """
    _, zs, rs = rational_instance(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    n = draw(st.integers(1, 2))
    outer = []
    for _ in range(n):
        gap = draw(st.floats(0.02, 0.3))
        im = gap if draw(st.booleans()) else -REGION.depth - gap
        outer.append(complex(draw(st.floats(0.0, 10.0)), im))
    return zs, rs, np.array(outer), np.array(draw(st.lists(_RESIDUE, min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(poles_beyond_edges())
# a constant complex index has poles above the real axis at Re z < 0, which
# the search does not seek.  Here one sits 0.1 from the found pole: a ring
# that crossed the axis enclosed both and read their summed residue 2 with a
# passing doubling test
@example((np.array([5 - 0.05j]), np.array([1.0]), np.array([5.1 + 0.05j]), np.array([1.0])))
def test_expansion_residues_exact_beside_outer_poles(instance):
    # poles of f just outside the region, above the axis or below the bottom
    # edge, cannot spoil a ring: the region's residues are exact, from one
    # ring call
    zs, rs, outer, outer_rs = instance
    poles, residues = np.concatenate([zs, outer]), np.concatenate([rs, outer_rs])

    def f(z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sum(residues / (z[..., None] - poles), axis=-1)

    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_rings(mp)
        exp = qnm.build_expansion(f, REGION)
    got = sorted(exp.poles, key=lambda p: (p.omega_pole.real, p.omega_pole.imag))
    want = sorted(zip(zs, rs), key=lambda t: (t[0].real, t[0].imag))
    assert len(calls) == 1 and len(got) == len(want)
    for p, (z, r) in zip(got, want):
        assert abs(p.omega_pole - z) < 1e-10
        assert abs(p.residue - r) < 1e-10 * max(1.0, abs(r))


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
    exp = qnm.build_expansion(functools.partial(wt.levshift_exact, pr), region)
    assert len(exp.poles) == 1
    assert abs(np.angle(exp.poles[0].residue)) < 0.05


def test_expansion_fabry_perot_multi_mode():
    pr = fp_problem(4.0)
    region = qnm.ScanRegion(0.25 * np.pi, 9.75 * np.pi, 2.0 * np.pi)
    exp = qnm.build_expansion(functools.partial(wt.levshift_exact, pr), region)
    assert len(exp.poles) >= 4
    main = min(exp.poles, key=lambda p: abs(p.omega_pole.real - 1.386 * np.pi))
    assert abs(np.angle(main.residue)) > 0.05


def _sup_errors(exp, f, om, center):
    """Absolute sup-norm error of each N-mode sum of ``exp`` against ``f`` on ``om``.

    The relative errors of the table are scaled back by sup |f|.
    """
    curve = wt.LevelShiftCurve(om, f(om), "synthetic", (om[0], om[-1]))
    rep = qnm.convergence_report(exp, curve, center)
    return np.array(rep.errors) * float(np.max(np.abs(f(om))))


def test_full_expansion_exact_on_rational():
    rng = np.random.default_rng(9)
    f, zs, rs = rational_instance(rng, max_poles=4)
    exp = qnm.build_expansion(f, REGION)
    errors = _sup_errors(exp, f, np.linspace(0.5, 9.5, 101), 5.0)
    assert len(errors) == len(zs)
    assert errors[-1] < 1e-10


def test_single_mode_sum_exact():
    f = lambda z: 0.04 / (z - (10 - 0.2j))
    region = qnm.ScanRegion(8.0, 12.0, 1.0)
    exp = qnm.build_expansion(f, region)
    errors = _sup_errors(exp, f, np.linspace(8.5, 11.5, 64), 10.0)
    assert len(errors) == 1
    assert errors[0] < 1e-12


def truncation_errors_oracle(expansion, curve, center):
    """The error table summed afresh for each N, the partner of each pole searched per use.

    A pole counts when Re p >= 0 or when it has no partner, the nearest
    other pole within 10 dedupe radii of -p*; the counted poles are ordered
    by distance from the anchor c, larger residue first, and the N-mode sum
    f(c) + sum r [1/(omega - p) - 1/(c - p)] runs over the first N counted
    poles and their partners.
    """
    om, exact = curve.omega, curve.delta
    i = int(np.argmin(np.abs(om - center)))
    c, fc = float(om[i]), complex(exact[i])
    tol = 10.0 * qnm._DEDUPE_REL * expansion.region.width

    def partner(pole):
        target = -np.conj(pole.omega_pole)
        near = [q for q in expansion.poles
                if q is not pole and abs(q.omega_pole - target) < tol]
        return min(near, key=lambda q: abs(q.omega_pole - target), default=None)

    counted = sorted((p for p in expansion.poles
                      if p.omega_pole.real >= 0 or partner(p) is None),
                     key=lambda p: (abs(p.omega_pole.real - c), -abs(p.residue)))
    om_c = np.asarray(om, dtype=complex)
    scale = float(np.max(np.abs(exact)))
    errors = []
    for n in range(1, len(counted) + 1):
        poles = [q for p in counted[:n] for q in (p, partner(p)) if q is not None]
        approx = sum((q.residue * (1.0 / (om_c - q.omega_pole) - 1.0 / (c - q.omega_pole))
                      for q in poles), complex(fc))
        errors.append(float(np.max(np.abs(approx - exact))) / scale)
    return errors


@pytest.mark.parametrize("case", ["fp4", "lossy3+1i", "xray6"])
def test_error_table_matches_per_n_oracle(monkeypatch, material_table, case):
    # the one cumulative sum gives every N-mode error bit for bit as the
    # oracle's sum per N: n = 4 on its default region, lossy 3+1i on its last
    # grown region, X-ray minimum 6; the report's main pole heads the first mode
    problem = {"fp4": lambda: fp_problem(4.0), "lossy3+1i": lambda: lossy_problem(3.0 + 1.0j),
               "xray6": lambda: cf.xray_problem(material_table, 6)}[case]()
    build, built = qnm.build_expansion, []
    monkeypatch.setattr(cf, "build_expansion",
                        lambda *args, **kwargs: built.append(build(*args, **kwargs)) or built[-1])
    rep = cf.classify(problem)
    if case == "fp4":
        assert built[-1].region == cf._default_window_region(problem)[1]
    if case == "lossy3+1i":
        assert len(built) > 1
    oracle = truncation_errors_oracle(built[-1], rep.curve, rep.omega_min)
    conv = qnm.convergence_report(built[-1], rep.curve, rep.omega_min)
    assert conv.errors == rep.convergence_errors == oracle
    assert conv.modes[0][0] == rep.main_pole


@pytest.mark.parametrize("case", ["fp4", "fp20", "lossy8+0.5i", "xray6"])
def test_expansion_keeps_no_dark_pole(monkeypatch, material_table, case):
    # the pair gate drops sub-resolution pole-zero pairs before any residue
    # is taken, so no certified expansion holds a pole of negligible weight:
    # every residue is at least 1e-7 of the largest
    problem = {"fp4": lambda: fp_problem(4.0), "fp20": lambda: fp_problem(20.0),
               "lossy8+0.5i": lambda: lossy_problem(8.0 + 0.5j),
               "xray6": lambda: cf.xray_problem(material_table, 6)}[case]()
    build, built = qnm.build_expansion, []
    monkeypatch.setattr(cf, "build_expansion",
                        lambda *args, **kwargs: built.append(build(*args, **kwargs)) or built[-1])
    cf.classify(problem)
    assert built
    for exp in built:
        residues = np.abs([p.residue for p in exp.poles])
        assert np.all(residues >= 1e-7 * residues.max())


def test_truncation_convergence_sweep_n4():
    # recorded behavior: the 5 percent tolerance needs at least 3 modes on
    # the n = 4 cavity over a wide symmetric region
    pr = fp_problem(4.0)
    region = qnm.ScanRegion(-14.77 * np.pi, 14.81 * np.pi, 1.2 * np.pi)
    exp = qnm.build_expansion(functools.partial(wt.levshift_exact, pr), region)
    win = (0.92 * np.pi, 1.85 * np.pi)
    curve = wt.levshift_curve(pr, win, n=1001)
    errors = qnm.convergence_report(exp, curve, 1.386 * np.pi).errors
    # N* >= 3: the first two sums miss the tolerance, a later one meets it
    assert min(errors[:2]) > 0.05 and min(errors) < 0.05


def test_convergence_report_two_lorentzians():
    z1, z2 = 3.0 - 0.2j, 7.0 - 0.3j
    f = lambda z: 1.0 / (z - z1) + 0.6 / (z - z2)
    exp = qnm.build_expansion(f, REGION)
    win = (2.0, 4.0)
    om = np.linspace(*win, 801)
    curve = wt.LevelShiftCurve(om, f(om), "synthetic", win)
    errors = qnm.convergence_report(exp, curve, 3.0).errors
    # N* is 1 at tolerance 0.1 and 2 at 0.001
    assert len(errors) == 2
    assert 0.001 <= errors[0] < 0.10 and errors[1] < 0.001


def test_convergence_single_mode_tight():
    f = lambda z: 0.04 / (z - (10 - 0.2j))
    region = qnm.ScanRegion(8.0, 12.0, 1.0)
    exp = qnm.build_expansion(f, region)
    om = np.linspace(9.0, 11.0, 801)
    curve = wt.LevelShiftCurve(om, f(om), "synthetic", (9.0, 11.0))
    assert qnm.convergence_report(exp, curve, 10.0).errors[0] < 1e-6


def test_region_too_small_error():
    z1, z2 = 3.0 - 0.2j, 12.0 - 0.3j   # second pole outside the region
    f = lambda z: 1.0 / (z - z1) + 2.0 / (z - z2)
    exp = qnm.build_expansion(f, REGION)
    win = (8.0, 9.9)
    om = np.linspace(*win, 801)
    curve = wt.LevelShiftCurve(om, f(om), "synthetic", win)
    # the truncation pass only measures: one error per mode, all of them
    # above 1e-4, is a table no tolerance of 1e-4 is met by, not an error
    rep = qnm.convergence_report(exp, curve, 9.0)
    assert [mode[0].omega_pole for mode in rep.modes] == [pytest.approx(z1)]
    assert len(rep.errors) == 1
    assert rep.errors[0] > 1e-4


def test_truncation_pass_takes_no_tolerance():
    # which N suffices is the certificate's decision: the pass measures the
    # error of every N-mode sum about an anchor and raises nothing of its own
    assert list(inspect.signature(qnm.convergence_report).parameters) == [
        "expansion", "exact_curve", "center"]
    assert [f.name for f in dataclasses.fields(qnm.ConvergenceReport)] == [
        "modes", "errors", "offset"]
    assert "RegionTooSmallError" not in Path(qnm.__file__).read_text(encoding="utf-8")
    assert not hasattr(qnm, "counted_modes")


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


def test_qnm_layering():
    # the pole search is generic: of the package it imports only the error
    # types, it is no generator, and no handler catches the package's errors
    tree = ast.parse(Path(qnm.__file__).read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    relative = {n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.level}
    absolute = {n.module for n in nodes if isinstance(n, ast.ImportFrom) and not n.level}
    absolute |= {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    assert relative == {"errors"}
    assert not any(name.startswith("modecert") for name in absolute)
    assert not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in nodes)
    caught = [ast.unparse(n.type) if n.type else "" for n in nodes
              if isinstance(n, ast.ExceptHandler)]
    assert not any(c in ("", "Exception", "BaseException") or "ModeCertError" in c
                   for c in caught)
