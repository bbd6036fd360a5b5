"""Property tests of the layered march on random passive stacks.

The reflection amplitude, the angle scan and both outgoing solutions of the
Green's function come from one right-to-left march, which the Green's
function stops in the medium of its leftmost point; these properties pin it
against the scalar transfer-matrix reference of ``layered_reference`` and
against itself on the mirrored stack.  The stacks repeat media, layers and
claddings, so the factors that one call shares are pinned as well.  A real
index profile at k_par = 0 is also pinned to its conjugate symmetry, which
is what pairs the mirror poles -p* with p.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modecert import layered as ly, witness as wt
from modecert.errors import NearPoleError

import layered_reference as ref
from conftest import fp_problem, zero_wronskian

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Re n >= 1 and k_par <= 0.9 omega keep every lossless k_z^2 at least
# 0.19 omega^2 away from zero, i.e. away from the branch points
index = st.builds(complex, st.floats(1.0, 4.0), st.floats(0.0, 0.5))
real_index = st.floats(1.0, 4.0)
omega = st.floats(0.5, 10.0)
par_fraction = st.sampled_from([0.0]) | st.floats(0.05, 0.9)


@st.composite
def stacks(draw, index=index):
    """Stacks drawn from a small palette, so that rows of the kernel are shared.

    The claddings take one or two real materials, and the layers take the
    claddings, one to three materials of ``index``, a renamed copy of the
    last of them and a material that differs from it in Im n only (when Im n
    is not 0), each with one of one to three thicknesses: media, (medium,
    thickness) layers and equal claddings all repeat, and near-twins must not.
    """
    claddings = [ly.Material.constant(f"c{i}", n)
                 for i, n in enumerate(draw(st.lists(real_index, min_size=1, max_size=2)))]
    palette = claddings + [ly.Material.constant(f"m{i}", n)
                           for i, n in enumerate(draw(st.lists(index, min_size=1, max_size=3)))]
    n = palette[-1].n_const
    palette += [ly.Material.constant("twin", n),
                ly.Material.constant("kin", complex(n.real, n.imag / 2))]
    thickness = st.sampled_from(draw(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3)))
    layers = draw(st.lists(st.tuples(st.sampled_from(palette), thickness),
                           min_size=1, max_size=6))
    return ly.LayerStack(draw(st.sampled_from(claddings)), tuple(layers),
                         draw(st.sampled_from(claddings)))


def reversed_stack(stack):
    return ly.LayerStack(stack.right, stack.layers[::-1], stack.left)


@PROPERTY
@given(stacks(), omega, par_fraction)
def test_reflection_matches_transfer_matrix(stack, w, s):
    pr = ly.WaveProblem(stack, k_par=s * w)
    m = ref.transfer_matrix(pr, w)
    r = ly.reflection(pr, w)
    assert abs(r - m[1, 0] / m[0, 0]) <= 1e-12 * abs(m[1, 0] / m[0, 0]) + 1e-15


@PROPERTY
@given(stacks(), omega, st.lists(st.floats(0.05, 1.5), min_size=1, max_size=8))
def test_reflectance_vs_angle_matches_pointwise(stack, w, thetas):
    r2 = ly.reflectance_vs_angle(stack, w, thetas)
    for th, got in zip(thetas, r2):
        want = abs(ly.reflection(ly.WaveProblem(stack, k_par=w * np.cos(th)), w)) ** 2
        assert abs(got - want) <= 1e-12 * want + 1e-15


def reference_green(stack, k_par, x, xp, w):
    """G(x, x', w) and its magnitude scale from the scalar factor matrices.

    E_R is (1, 0) in the right cladding and E_L is (0, 1) in the left one;
    each is carried to the medium of a point by a product of
    ``interface_matrix`` / ``propagation_matrix`` factors (E_L through the
    adjugate of the left partial product, whose determinant is k_j / k_0), and
    the Wronskian is read in the left cladding, W = 2 i k_0 M_11.
    """
    ns = np.array([m.n_const for m in stack.media()])
    ks = ns * w if k_par == 0 else np.sqrt((ns * w) ** 2 - k_par ** 2)
    ds = [d for _, d in stack.layers]
    bounds = np.concatenate(([0.0], np.cumsum(ds)))
    n_lay = len(ds)
    # left[j] maps medium-j amplitudes (left edge) to the left cladding;
    # right[j] maps right-cladding amplitudes to medium j (left edge)
    left = [np.eye(2, dtype=complex)]
    for j in range(1, n_lay + 2):
        step = ref.interface_matrix(ks[j - 1], ks[j])
        if j > 1:
            step = ref.propagation_matrix(ks[j - 1], ds[j - 2]) @ step
        left.append(left[-1] @ step)
    right = [np.eye(2, dtype=complex)]
    for j in range(n_lay, -1, -1):
        step = ref.interface_matrix(ks[j], ks[j + 1])
        if j:
            step = ref.propagation_matrix(ks[j], ds[j - 1]) @ step
        right.insert(0, step @ right[0])
    m11 = left[-1][0, 0]   # = right[0][0, 0], the whole-stack M_11

    def medium(y):
        if y < 0.0:
            return 0, 0.0
        if y >= bounds[-1]:
            return n_lay + 1, bounds[-1]
        j = int(np.searchsorted(bounds, y, side="right"))
        return j, bounds[j - 1]

    def terms(amps, j, y, ref):
        ph = np.exp(1j * ks[j] * (y - ref))
        return amps[0] * ph, amps[1] / ph

    lo, hi = sorted((x, xp))
    j_lo, ref_lo = medium(lo)
    j_hi, ref_hi = medium(hi)
    c = left[j_lo]
    e_l = terms(np.array([-c[0, 1], c[0, 0]]) * ks[0] / ks[j_lo], j_lo, lo, ref_lo)
    e_r = terms(right[j_hi][:, 0], j_hi, hi, ref_hi)
    wr = 2j * ks[0] * m11
    g = sum(e_l) * sum(e_r) / wr
    scale = (abs(e_l[0]) + abs(e_l[1])) * (abs(e_r[0]) + abs(e_r[1])) / abs(wr)
    return g, scale


@PROPERTY
@given(stacks(), st.floats(0.5, 10.0), st.floats(-0.5, 0.0), par_fraction, st.data())
def test_green_matches_factor_matrix_reference(stack, w_re, w_im, s, data):
    # x and x' in any medium, claddings included, in both orders: the two
    # truncated marches range from empty (x_< in a cladding) to the whole stack
    w = complex(w_re, w_im)
    pr = ly.WaveProblem(stack, k_par=s * w_re)
    bounds = stack.boundaries
    n_media = len(bounds) + 1

    def point():
        j = data.draw(st.integers(0, n_media - 1))
        u = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        if j == 0:
            return bounds[0] - 2.0 * u
        if j == n_media - 1:
            return bounds[-1] + 2.0 * u
        return bounds[j - 1] + u * (bounds[j] - bounds[j - 1])

    x, xp = point(), point()
    for a, b in ((x, xp), (xp, x), (x, x)):
        want, scale = reference_green(stack, s * w_re, a, b, w)
        g = ly.green_function(pr, a, b, w)
        assert abs(g - want) <= 1e-10 * scale
        g_arr = ly.green_function(pr, a, b, np.array([w, w + 0.25]))
        assert abs(g_arr[0] - want) <= 1e-10 * scale


@pytest.mark.parametrize("x", [0.005, 1.015], ids=["first_layer", "last_layer"])
def test_green_pole_contract_emitter_in_end_layer(monkeypatch, x):
    # an emitter in the first or last layer leaves one march with a single
    # step; the evaluator contract still holds: large and finite next to a
    # pole, inf or NearPoleError where the Wronskian is exactly 0
    pr = fp_problem(20.0)
    pole = (1.0412006217063068 - 0.004047325183637024j) * np.pi
    om = np.array([pole - 0.01, pole, pole + 0.01j])
    g = ly.green_function(pr, x, x, om)
    assert np.all(np.isfinite(g)) and abs(g[1]) > 1e9 * abs(g[0])
    zero_wronskian(monkeypatch, at=np.arange(3) == 1)
    g = ly.green_function(pr, x, x, om)
    assert np.isinf(g[1]) and np.all(np.isfinite(g[[0, 2]]))
    monkeypatch.undo()
    zero_wronskian(monkeypatch)
    with pytest.raises(NearPoleError):
        ly.green_function(pr, x, x, pole)


@PROPERTY
@given(stacks(), st.floats(0.5, 10.0), st.floats(-0.5, 0.0), par_fraction,
       st.floats(-0.2, 1.2), st.floats(-0.2, 1.2))
def test_green_invariant_under_stack_reversal(stack, w_re, w_im, s, u, v):
    # G(x, x') of the stack equals G(T - x, T - x') of the mirrored stack;
    # the two runs swap the roles of the march and of its mirrored copy
    w = complex(w_re, w_im)
    total = stack.total_thickness
    x, xp = u * total, v * total
    g = ly.green_function(ly.WaveProblem(stack, k_par=s * w_re), x, xp, w)
    g_rev = ly.green_function(ly.WaveProblem(reversed_stack(stack), k_par=s * w_re),
                              total - x, total - xp, w)
    assert abs(g - g_rev) <= 1e-10 * abs(g)


@PROPERTY
@given(stacks(), par_fraction)
def test_passive_reflection_bounded(stack, s):
    om = np.linspace(0.5, 10.0, 257)
    r = ly.reflection(ly.WaveProblem(stack, k_par=s * om), om)
    assert np.max(np.abs(r)) <= 1.0 + 1e-12


@PROPERTY
@given(stacks(real_index), st.floats(0.5, 10.0),
       st.floats(-0.5, 0.5), st.floats(-0.2, 1.2), st.floats(-0.2, 1.2))
def test_conjugate_symmetry_real_index(stack, w_re, w_im, u, v):
    # real coefficients at k_par = 0: G(-z*) = G(z)*; the witness carries one
    # more factor of omega, so f(-z*) = -f(z)*
    pr = ly.WaveProblem(stack)
    z = complex(w_re, w_im)
    x, xp = u * stack.total_thickness, v * stack.total_thickness
    g = ly.green_function(pr, x, xp, z)
    assert abs(ly.green_function(pr, x, xp, -z.conjugate()) - g.conjugate()) <= 1e-10 * abs(g)
    if 0.0 < x < stack.total_thickness:
        # the witness of an emitter at x (the G check above covers any x)
        emitter = ly.EmitterSpec(x_a=x, omega_a=w_re, gamma=1.0)
        pr = ly.WaveProblem(dataclasses.replace(stack, emitter=emitter))
        f = wt.levshift_exact(pr, z)
        f_mirror = wt.levshift_exact(pr, -z.conjugate())
        assert abs(f_mirror + f.conjugate()) <= 1e-10 * abs(f)
