"""Layered-medium solver: transfer matrices, reflection, Green's function.

The transfer-matrix tests check the scalar reference of ``layered_reference``
that the property tests compare the march against.
"""

import numpy as np
import pytest

from modecert import layered as ly, witness as wt
from modecert.errors import (
    BranchPointError,
    ConfigurationError,
    DomainError,
    NearPoleError,
    ThicknessOverflowError,
)

import layered_reference as ref
from conftest import fp_problem, zero_wronskian


GLASS2 = ly.Material.constant("glass2", 2.0)
# |Im k| d = 1000 omega over a 100-unit layer: far past the exponent guard
BLACK = ly.Material.constant("black", 1.0 + 10.0j)
# |Im k| d = 200 at omega = 10 over a 20-unit layer: under the guard alone
GREY = ly.Material.constant("grey", 1.0 + 1.0j)


def empty_problem():
    return ly.WaveProblem(ly.LayerStack(ly.VACUUM, (), ly.VACUUM))


# ---------------------------------------------------------------------------
# transfer matrix
# ---------------------------------------------------------------------------

def test_empty_stack_identity():
    m = ref.transfer_matrix(empty_problem(), 2.3)
    assert (m == np.eye(2)).all()


def test_single_interface_fresnel():
    st = ly.LayerStack(ly.VACUUM, ((GLASS2, 1.0),), GLASS2)
    r = ly.reflection(ly.WaveProblem(st), 3.7)
    assert abs(r - (-1.0 / 3.0)) < 1e-14


def test_composition_bitwise_factor_product():
    # transfer_matrix composes interface/propagation factors left to right;
    # the same fold reproduces it bit for bit
    m_a = ly.Material.constant("a", 1.7 + 0.01j)
    m_b = ly.Material.constant("b", 3.1 + 0.2j)
    pr = ly.WaveProblem(ly.LayerStack(ly.VACUUM, ((m_a, 0.35), (m_b, 0.18)), ly.VACUUM))
    w = 4.2
    ks = ref.wavenumbers(pr, complex(w))
    m = ref.interface_matrix(ks[0], ks[1])
    m = m @ ref.propagation_matrix(ks[1], 0.35)
    m = m @ ref.interface_matrix(ks[1], ks[2])
    m = m @ ref.propagation_matrix(ks[2], 0.18)
    m = m @ ref.interface_matrix(ks[2], ks[3])
    assert (m == ref.transfer_matrix(pr, w)).all()


def test_composition_product_of_one_layer_stacks():
    # zero-thickness junctions compose away: the two-layer matrix equals the
    # product of the vacuum-embedded one-layer matrices (relative 1e-13)
    m_a = ly.Material.constant("a", 1.7 + 0.01j)
    m_b = ly.Material.constant("b", 3.1 + 0.2j)
    two = ly.WaveProblem(ly.LayerStack(ly.VACUUM, ((m_a, 0.35), (m_b, 0.18)), ly.VACUUM))
    one_a = ly.WaveProblem(ly.LayerStack(ly.VACUUM, ((m_a, 0.35),), ly.VACUUM))
    one_b = ly.WaveProblem(ly.LayerStack(ly.VACUUM, ((m_b, 0.18),), ly.VACUUM))
    w = 4.2
    m2 = ref.transfer_matrix(two, w)
    mp = ref.transfer_matrix(one_a, w) @ ref.transfer_matrix(one_b, w)
    assert np.max(np.abs(m2 - mp)) <= 1e-13 * np.max(np.abs(m2))


def test_determinant_is_cladding_wavenumber_ratio():
    st = ly.LayerStack(ly.Material.constant("L", 1.5),
                       ((GLASS2, 0.4),),
                       ly.Material.constant("R", 2.5 + 0.1j))
    m = ref.transfer_matrix(ly.WaveProblem(st), 3.3)
    assert abs(np.linalg.det(m) - (2.5 + 0.1j) / 1.5) < 1e-13


def test_zero_frequency_domain_error():
    with pytest.raises(DomainError):
        ly.reflection(empty_problem(), 0.0)


def test_branch_point_error_at_kz_zero():
    st = ly.LayerStack(ly.VACUUM, ((ly.VACUUM, 1.0),), ly.VACUUM)
    pr = ly.WaveProblem(st, k_par=2.0)
    with pytest.raises(BranchPointError):
        ly.reflection(pr, 2.0)  # omega == k_par in vacuum


def test_branch_point_error_names_first_medium():
    # "a" and "b" share a row of distinct media and both hit k_z = 0 (as
    # does the right cladding); the error names the first medium that hits
    layers = ((ly.Material.constant("a", 1.0), 1.0), (GLASS2, 0.5),
              (ly.Material.constant("b", 1.0), 1.0))
    pr = ly.WaveProblem(ly.LayerStack(GLASS2, layers, ly.VACUUM), k_par=np.array([1.0, 2.0]))
    with pytest.raises(BranchPointError, match="'a'"):
        ly.reflection(pr, 2.0)
    with pytest.raises(BranchPointError, match="'a'"):
        ref.reflection(pr, 2.0)


def test_thickness_overflow_error():
    st = ly.LayerStack(ly.VACUUM, ((BLACK, 100.0),), ly.VACUUM)
    with pytest.raises(ThicknessOverflowError):
        ly.reflection(ly.WaveProblem(st), 10.0)


@pytest.mark.parametrize("layers, x_a", [
    (((BLACK, 100.0), (GLASS2, 1.0)), 100.5),
    (((GLASS2, 1.0), (BLACK, 100.0)), 0.5),
    (((BLACK, 100.0),), 50.0),
    (((GREY, 40.0), (GREY, 40.0), (GLASS2, 1.0), (GREY, 40.0)), 80.5),
], ids=["absorber_left", "absorber_right", "absorber_contains", "grey_sum"])
def test_thickness_overflow_error_green_and_witness(layers, x_a):
    # the guard runs once per call over the sum of all finite layers,
    # wherever the truncated marches stop relative to the absorbers
    emitter = ly.EmitterSpec(x_a=x_a, omega_a=10.0, gamma=1.0)
    pr = ly.WaveProblem(ly.LayerStack(ly.VACUUM, layers, ly.VACUUM, emitter))
    for omega in (10.0, np.array([9.0, 10.0])):
        with pytest.raises(ThicknessOverflowError):
            ly.green_function(pr, x_a, x_a, omega)
        with pytest.raises(ThicknessOverflowError):
            wt.levshift_exact(pr, omega)


def test_thickness_overflow_guard_sums_the_layers():
    # three grey 20-unit layers pass, four overflow, though no layer comes
    # near the bound on its own
    def stack(n_grey):
        return ly.WaveProblem(ly.LayerStack(ly.VACUUM, ((GREY, 20.0),) * n_grey, ly.VACUUM))

    assert np.isfinite(ly.reflection(stack(3), 10.0))
    with pytest.raises(ThicknessOverflowError):
        ly.reflection(stack(4), 10.0)


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------

def test_vacuum_reflection_zero():
    r = ly.reflection(empty_problem(), np.array([1.0, 2.0, 17.3]))
    assert np.all(r == 0)


def test_unit_index_mirror_is_free_space():
    pr = ly.WaveProblem(ly.build_fabry_perot(1.0, 1.0))
    r = ly.reflection(pr, np.linspace(0.5, 10.0, 64))
    assert np.all(r == 0)


def test_fabry_perot_dip_positions():
    # measured: dips at {0.2071, 1.0412, 2.0102, 2.9898, 3.9588}*pi; the
    # deviation from m*pi is the thin-mirror penetration phase, smallest
    # where the slab sits near its quarter-wave point (m = 2, 3)
    pr = fp_problem(20.0)
    om = np.linspace(0.2 * np.pi, 4.8 * np.pi, 20000)
    r2 = np.abs(ly.reflection(pr, om)) ** 2
    dips = [om[i] for i in range(1, len(om) - 1)
            if r2[i] < r2[i - 1] and r2[i] < r2[i + 1] and r2[i] < 0.5]
    tolerances = {1: 5e-2, 2: 1e-2, 3: 1e-2, 4: 5e-2}
    for m, tol in tolerances.items():
        dev = min(abs(d - m * np.pi) for d in dips) / (m * np.pi)
        assert dev < tol, f"mode {m}: relative deviation {dev:.3g}"


def test_energy_bound_passive_stacks():
    for pr in (fp_problem(4.0), fp_problem(20.0)):
        om = np.linspace(0.3 * np.pi, 5.0 * np.pi, 2000)
        assert np.max(np.abs(ly.reflection(pr, om)) ** 2) <= 1.0 + 1e-12
    absorbing = ly.WaveProblem(ly.LayerStack(
        ly.VACUUM, ((ly.Material.constant("lossy", 2.0 + 0.3j), 0.7),), ly.VACUUM))
    om = np.linspace(0.5, 30.0, 500)
    assert np.max(np.abs(ly.reflection(absorbing, om)) ** 2) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Green's function
# ---------------------------------------------------------------------------

def test_green_free_space_closed_form():
    pr = empty_problem()
    for w in (2.0 + 0.0j, 2.0 - 0.3j, 5.5 + 0.1j):
        g = ly.green_function(pr, -1.3, 0.8, w)
        assert abs(g - np.exp(1j * w * 2.1) / (2j * w)) < 1e-14 * abs(g)


def test_green_reciprocity():
    pr = fp_problem(8.0)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, xp = rng.uniform(0.02, 1.0, 2)
        w = complex(rng.uniform(1, 8), -rng.uniform(0, 0.5))
        g1 = ly.green_function(pr, x, xp, w)
        g2 = ly.green_function(pr, xp, x, w)
        assert abs(g1 - g2) <= 1e-12 * abs(g1)


def test_green_maxima_at_reflectance_dips():
    pr = fp_problem(20.0)
    xa = pr.stack.emitter.x_a
    om = np.linspace(0.6 * np.pi, 3.4 * np.pi, 6000)
    r2 = np.abs(ly.reflection(pr, om)) ** 2
    g = np.abs(ly.green_function(pr, xa, xa, om))
    dips = [i for i in range(1, len(om) - 1)
            if r2[i] < r2[i - 1] and r2[i] < r2[i + 1] and r2[i] < 0.5]
    peaks = [i for i in range(1, len(om) - 1)
             if g[i] > g[i - 1] and g[i] > g[i + 1] and g[i] > 3 * np.median(g)]
    step = om[1] - om[0]
    # every |G| peak coincides with a reflectance dip within one scan step
    # (the reverse does not hold: center-dark modes dip in reflectance only)
    assert peaks, "no Green's-function peaks found"
    for i in peaks:
        assert min(abs(om[i] - om[j]) for j in dips) <= step


def test_green_continuity_and_derivative_jump():
    pr = fp_problem(8.0)
    xa = pr.stack.emitter.x_a
    w = 1.2 * np.pi
    # continuity across a layer interface (x = 0.01 is the mirror edge)
    for x0 in (0.01, 1.01):
        eps = 1e-9
        gl = ly.green_function(pr, x0 - eps, xa, w)
        gr = ly.green_function(pr, x0 + eps, xa, w)
        assert abs(gl - gr) < 1e-6 * abs(gl)
    # unit jump of dG/dx at x = x' via 2nd-order one-sided differences
    h = 1e-5
    gp = (-3 * ly.green_function(pr, xa, xa, w)
          + 4 * ly.green_function(pr, xa + h, xa, w)
          - ly.green_function(pr, xa + 2 * h, xa, w)) / (2 * h)
    gm = (3 * ly.green_function(pr, xa, xa, w)
          - 4 * ly.green_function(pr, xa - h, xa, w)
          + ly.green_function(pr, xa - 2 * h, xa, w)) / (2 * h)
    assert abs((gp - gm) - 1.0) < 1e-8


def test_green_cauchy_riemann_smoke():
    pr = fp_problem(8.0)
    xa = pr.stack.emitter.x_a
    h = 1e-6
    for w0 in (0.9 * np.pi, 1.7 * np.pi - 0.1j):
        d_re = (ly.green_function(pr, xa, xa, w0 + h)
                - ly.green_function(pr, xa, xa, w0 - h)) / (2 * h)
        d_im = (ly.green_function(pr, xa, xa, w0 + 1j * h)
                - ly.green_function(pr, xa, xa, w0 - 1j * h)) / (2j * h)
        assert abs(d_re - d_im) < 1e-6 * abs(d_re)


# measured fundamental pole of the n = 20 cavity
FP20_POLE = (1.0412006217063068 - 0.004047325183637024j) * np.pi


def test_green_near_pole_error(monkeypatch):
    # there is no floor: next to a pole G is large and finite, and only a
    # Wronskian that is exactly 0 raises for a scalar omega
    pr = fp_problem(20.0)
    xa = pr.stack.emitter.x_a
    g = ly.green_function(pr, xa, xa, FP20_POLE)
    assert np.isfinite(g) and abs(g) > 1e9 * abs(ly.green_function(pr, xa, xa, FP20_POLE - 0.01))
    zero_wronskian(monkeypatch)
    with pytest.raises(NearPoleError):
        ly.green_function(pr, xa, xa, FP20_POLE)


def test_green_array_pole_entry_inf(monkeypatch):
    # array contract: an entry whose Wronskian is exactly 0 reads inf, the
    # others stay finite; the entry next to the pole is large and finite
    pr = fp_problem(20.0)
    xa = pr.stack.emitter.x_a
    om = np.array([FP20_POLE - 0.01, FP20_POLE, FP20_POLE + 0.01j, 2.0 * np.pi])
    g = ly.green_function(pr, xa, xa, om)
    assert np.all(np.isfinite(g)) and abs(g[1]) > 1e9 * abs(g[0])
    zero_wronskian(monkeypatch, at=np.arange(4) == 1)
    zeroed = ly.green_function(pr, xa, xa, om)
    assert np.isinf(zeroed[1])
    assert np.array_equal(np.delete(zeroed, 1), np.delete(g, 1))


# ---------------------------------------------------------------------------
# the normal-incidence flag
# ---------------------------------------------------------------------------

K_PARS = {"zero": 0.0, "negative zero": -0.0, "oblique": 0.7, "angles all zero": np.zeros(4),
          "angles with zeros": np.array([0.0, -0.0, 0.7]), "angle negative zero": np.array([-0.0])}


@pytest.mark.parametrize("k_par", K_PARS.values(), ids=K_PARS.keys())
def test_normal_incidence_flag(k_par):
    # the flag is taken once per problem, and every reader of it agrees with
    # not np.any(k_par): the symmetry test, the kernel's k_z branch (against
    # the reference, which takes the test itself) and the witness calibration
    pr = ly.WaveProblem(fp_problem(4.0).stack, k_par=k_par)
    normal = not np.any(k_par)
    assert pr.normal_incidence is normal and "normal_incidence" in vars(pr)
    assert pr.conjugate_symmetric is normal   # Fabry-Perot: constant real indices
    x_a = pr.emitter.x_a
    for omega in (3.1, 3.1 - 0.2j):
        kz = ly._wavenumbers(pr, omega)
        np.testing.assert_array_equal(kz[list(pr.stack._rows)], ref.wavenumbers(pr, omega),
                                      strict=True)
        if normal:
            np.testing.assert_array_equal(kz, pr.stack._n_const * omega, strict=True)
        k = complex(omega)
        k_free = k if normal else np.sqrt(k * k - k_par ** 2)
        want = pr.emitter.gamma * k_free * ly.green_function(pr, x_a, x_a, omega)
        np.testing.assert_array_equal(np.asarray(wt.levshift_exact(pr, omega)),
                                      np.asarray(want), strict=True)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_fabry_perot_builder_geometry():
    st = ly.build_fabry_perot(1.0, 20.0)
    assert len(st.layers) == 3
    assert st.total_thickness == pytest.approx(1.02)
    assert st.layers[0][1] == pytest.approx(0.01)
    assert st.emitter.x_a == pytest.approx(0.51)


def test_fabry_perot_builder_preconditions():
    with pytest.raises(ValueError):
        ly.build_fabry_perot(-1.0, 20.0)
    with pytest.raises(ValueError):
        ly.build_fabry_perot(1.0, 0.5)


def test_xray_builder_geometry(material_table):
    pr = ly.build_xray_cavity(material_table, np.radians(0.2))
    thickness_nm = pr.stack.total_thickness * ly.HBARC_KEV_NM
    assert thickness_nm == pytest.approx(57.0, rel=1e-12)
    assert len(pr.stack.layers) == 9
    assert pr.k_par == pytest.approx(ly.OMEGA_NUC_KEV * np.cos(np.radians(0.2)))
    # emitter centered in the Fe-57 layer (18.5 nm from the left edge)
    assert pr.stack.emitter.x_a * ly.HBARC_KEV_NM == pytest.approx(18.5)


def test_xray_builder_missing_material():
    table = {"Pt": ly.Material.constant("Pt", 1.0 - 1e-5 + 2e-6j)}
    with pytest.raises(ConfigurationError, match="C"):
        ly.build_xray_cavity(table, np.radians(0.2))


def test_xray_all_vacuum_reflection_zero():
    table = {k: ly.VACUUM for k in ("Pt", "C", "Fe", "Si")}
    pr = ly.build_xray_cavity(table, np.radians(0.2))
    om = np.linspace(ly.OMEGA_NUC_KEV * 0.9999, ly.OMEGA_NUC_KEV * 1.0001, 101)
    assert np.max(np.abs(ly.reflection(pr, om))) == 0.0


def test_material_table_versioned(material_table):
    assert set(material_table) >= {"Pt", "C", "Fe", "Si"}
    with pytest.raises(ConfigurationError):
        ly.load_material_table({"materials": {}})  # missing version


def test_material_passivity_guard():
    with pytest.raises(ValueError):
        ly.Material.constant("gain", 1.0 - 0.1j)


def test_dispersive_material_index():
    m = ly.Material.lorentzian("res", 1.0, 5.0, 0.1, 0.5)
    n_res = m.index(5.0)
    assert n_res.imag > 0          # absorptive on resonance
    assert abs(m.index(50.0) - 1.0) < 1e-2  # background far away
    # constant materials are omega-independent bit for bit
    c = ly.Material.constant("c", 1.5 + 0.1j)
    assert c.index(1.0) == c.index(1e6)
