"""The boundary pass against the per-sample reference pass, bit for bit.

``qnm._box_moments`` tracks each open loop by its length and its box;
``qnm_reference.box_moments`` carries a box id per sample.  Both take the
same samples in the same evaluator calls and sum the same increments in the
same order, so the moments, the first box's h samples and every evaluator
call must be the same doubles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modecert import qnm

import qnm_reference as ref


def recorded(f):
    """``f`` and the list of the point arrays it is called on."""
    calls = []

    def g(z):
        calls.append(np.array(z, copy=True))
        return f(z)

    return g, calls


def assert_same_pass(f, boxes):
    """Run both passes on ``boxes`` and assert the same bits everywhere; (call sizes, moments)."""
    f_new, calls_new = recorded(f)
    f_ref, calls_ref = recorded(f)
    out, h_first = qnm._box_moments(f_new, boxes)
    out_ref, h_first_ref = ref.box_moments(f_ref, boxes)
    assert [z.size for z in calls_new] == [z.size for z in calls_ref]
    assert [z.tobytes() for z in calls_new] == [z.tobytes() for z in calls_ref]
    assert len(out) == len(out_ref) == len(boxes)
    for m, m_ref in zip(out, out_ref):
        assert (m is None) == (m_ref is None)
        if m is not None:
            assert type(m[0]) is int and m[0] == m_ref[0]
            assert np.array(m[1:]).tobytes() == np.array(m_ref[1:]).tobytes()
    assert (h_first is None) == (h_first_ref is None)
    if h_first is not None:
        assert h_first.tobytes() == h_first_ref.tobytes()
    return [z.size for z in calls_new], out


def rational(poles, residues, c0):
    """c0 + sum r / (z - p); a sample on a pole reads a non-finite value."""
    def f(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            return c0 + np.sum(residues / (z[..., None] - poles), axis=-1)
    return f


def with_value_at(f, points, value):
    """``f`` reading ``value`` (inf or 0) exactly at ``points``: a broken boundary loop."""
    points = np.asarray(points, dtype=complex)

    def g(z):
        return np.where(np.isin(z, points), value, f(z))
    return g


@st.composite
def boxes_with_edge_poles(draw):
    """1-12 boxes, poles just inside or outside their edges, and a rational evaluator.

    Poles 1e-4 to 5e-2 box sizes from an edge force refinement rounds.  The
    evaluator may read inf or 0 at the corners of some boxes (broken
    loops), and the loop length cap may be lowered so loops reach it.
    """
    boxes, poles = [], []
    for _ in range(draw(st.integers(1, 12))):
        re_lo, im_lo = draw(st.floats(-5.0, 5.0)), draw(st.floats(-3.0, -0.05))
        w, h = draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0))
        box = (re_lo, re_lo + w, im_lo, im_lo + h)
        boxes.append(box)
        for _ in range(draw(st.integers(0, 3))):
            edge, s = draw(st.integers(0, 3)), draw(st.floats(0.0, 1.0))
            off = draw(st.floats(1e-4, 5e-2)) * max(w, h) * draw(st.sampled_from([-1.0, 1.0]))
            on_edge, normal = [(complex(re_lo + s * w, im_lo), -1j),
                               (complex(box[1], im_lo + s * h), 1.0),
                               (complex(re_lo + s * w, box[3]), 1j),
                               (complex(re_lo, im_lo + s * h), -1.0)][edge]
            poles.append(on_edge + off * normal)
    residues = [complex(draw(st.floats(0.1, 3.0)), draw(st.floats(-3.0, 3.0))) for _ in poles]
    c0 = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    f = rational(np.array(poles, dtype=complex), np.array(residues, dtype=complex), c0)
    broken = draw(st.lists(st.integers(0, len(boxes) - 1), max_size=2))
    if broken:
        corners = [complex(boxes[i][0], boxes[i][2]) for i in broken]
        f = with_value_at(f, corners, draw(st.sampled_from([np.inf, 0.0])))
    cap = draw(st.sampled_from([qnm._MAX_BOUNDARY_POINTS, 128, 200, 400]))
    return boxes, f, cap


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(boxes_with_edge_poles())
def test_box_moments_bitwise(case):
    boxes, f, cap = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qnm, "_MAX_BOUNDARY_POINTS", cap)
        assert_same_pass(f, boxes)


def test_refinement_rounds_bitwise():
    # a pole 1e-3 outside the bottom edge of the second of three boxes and
    # one 2e-3 inside the top edge of the third: refinement rounds after the
    # first box's loop is finished at once and dropped
    f = rational(np.array([1.5 - 1.001j, 2.7 - 0.002j]), np.array([1.0, 0.5 - 0.3j]), 0.2)
    boxes = [(0.0, 1.0, -1.0, 0.0), (1.0, 2.0, -1.0, 0.0), (2.0, 3.0, -1.0, 0.0)]
    sizes, out = assert_same_pass(f, boxes)
    assert sizes == [3 * 4 * qnm._EDGE_POINTS, 3, 3, 3]
    assert None not in out


@pytest.mark.parametrize("value", [np.inf, 0.0])
def test_broken_loop_bitwise(value):
    # the second box's corner reads inf (h = 0) or 0 (h = inf): its loop is
    # broken and never refined, while the others, a pole 1e-3 inside the
    # first one's bottom edge, are refined and resolved
    boxes = [(0.0, 1.0, -1.0, 0.0), (1.1, 2.0, -1.0, 0.0), (2.1, 3.0, -1.0, 0.0)]
    f = with_value_at(rational(np.array([0.5 - 0.999j, 2.5 - 0.5j]),
                               np.array([1.0, 1.0j]), 0.0), [complex(1.1, -1.0)], value)
    sizes, out = assert_same_pass(f, boxes)
    assert len(sizes) > 1 and out[1] is None and out[0][0] == out[2][0] == 1


def test_loop_at_the_length_cap_bitwise():
    # an evaluator of pseudo-random modulus and phase makes most neighbour
    # pairs too far apart, so the first box's loop grows past
    # _MAX_BOUNDARY_POINTS before the round budget ends and is given up;
    # the second box is resolved in the first round
    def noisy(z):
        u = np.sin(z.real * 12345.678 + z.imag * 98765.4321) * 43758.5453 % 1.0
        v = np.sin(z.real * 39.346 + z.imag * 11.135) * 24634.6345 % 1.0
        return np.exp(40.0 * u + 2j * np.pi * v)

    def f(z):
        return np.where(z.real < 1.0, noisy(z), 1.0 / (z - (1.5 - 0.5j)))

    sizes, out = assert_same_pass(f, [(0.0, 1.0, -1.0, 0.0), (1.01, 2.0, -1.0, 0.0)])
    assert out[0] is None and out[1][0] == 1
    assert len(sizes) < qnm._MAX_REFINE_ROUNDS
    assert 4 * qnm._EDGE_POINTS + sum(sizes[1:]) > qnm._MAX_BOUNDARY_POINTS
