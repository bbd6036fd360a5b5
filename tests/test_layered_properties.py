"""Property tests of the layered march on random passive stacks.

The reflection amplitude, the angle scan and both outgoing solutions of the
Green's function come from one right-to-left march; these properties pin it
against the scalar transfer-matrix reference and against itself on the
mirrored stack.  A real index profile at k_par = 0 is also pinned to its
conjugate symmetry, which is what pairs the mirror poles -p* with p.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from modecert import layered as ly, witness as wt

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Re n >= 1 and k_par <= 0.9 omega keep every lossless k_z^2 at least
# 0.19 omega^2 away from zero, i.e. away from the branch points
index = st.builds(complex, st.floats(1.0, 4.0), st.floats(0.0, 0.5))
real_index = st.floats(1.0, 4.0)
layer = st.tuples(index, st.floats(0.05, 2.0))
omega = st.floats(0.5, 10.0)
par_fraction = st.sampled_from([0.0]) | st.floats(0.05, 0.9)


@st.composite
def stacks(draw, layer=layer):
    layers = draw(st.lists(layer, min_size=1, max_size=6))
    return ly.LayerStack(
        ly.Material.constant("left", draw(real_index)),
        tuple((ly.Material.constant(f"m{i}", n), d) for i, (n, d) in enumerate(layers)),
        ly.Material.constant("right", draw(real_index)))


def reversed_stack(stack):
    return ly.LayerStack(stack.right, stack.layers[::-1], stack.left)


@PROPERTY
@given(stacks(), omega, par_fraction)
def test_reflection_matches_transfer_matrix(stack, w, s):
    pr = ly.WaveProblem(stack, k_par=s * w)
    m = ly.transfer_matrix(pr, w)
    r = ly.reflection(pr, w)
    assert abs(r - m[1, 0] / m[0, 0]) <= 1e-12 * abs(m[1, 0] / m[0, 0]) + 1e-15


@PROPERTY
@given(stacks(), omega, st.lists(st.floats(0.05, 1.5), min_size=1, max_size=8))
def test_reflectance_vs_angle_matches_pointwise(stack, w, thetas):
    r2 = ly.reflectance_vs_angle(stack, w, thetas)
    for th, got in zip(thetas, r2):
        want = abs(ly.reflection(ly.WaveProblem(stack, k_par=w * np.cos(th)), w)) ** 2
        assert abs(got - want) <= 1e-12 * want + 1e-15


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
@given(stacks(st.tuples(real_index, st.floats(0.05, 2.0))), st.floats(0.5, 10.0),
       st.floats(-0.5, 0.5), st.floats(-0.2, 1.2), st.floats(-0.2, 1.2))
def test_conjugate_symmetry_real_index(stack, w_re, w_im, u, v):
    # real coefficients at k_par = 0: G(-z*) = G(z)*; the witness carries one
    # more factor of omega, so f(-z*) = -f(z)*
    pr = ly.WaveProblem(stack)
    z = complex(w_re, w_im)
    x, xp = u * stack.total_thickness, v * stack.total_thickness
    g = ly.green_function(pr, x, xp, z)
    assert abs(ly.green_function(pr, x, xp, -z.conjugate()) - g.conjugate()) <= 1e-10 * abs(g)
    emitter = ly.EmitterSpec(x_a=x, omega_a=w_re, gamma=1.0)
    f = wt.levshift_exact(pr, emitter, z)
    f_mirror = wt.levshift_exact(pr, emitter, -z.conjugate())
    assert abs(f_mirror + f.conjugate()) <= 1e-10 * abs(f)
