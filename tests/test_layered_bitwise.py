"""The layered kernel against the per-medium reference kernel, bit for bit.

The library forms k_z once per distinct medium and each interface factor
and layer phase once per call (``layered._plan``); ``layered_reference``
forms them for every medium and every step.  The formulas and the element
order are the same, so every value must be the same double.
"""

import numpy as np
import pytest

from modecert import certify as cf, layered as ly, witness as wt

import layered_reference as ref
from conftest import fp_problem, lossy_problem


def lorentzian_problem():
    """Fabry-Perot geometry whose two mirrors share one dispersive medium."""
    mirror = ly.Material.lorentzian("lorentz", 2.0 + 0.01j, np.pi, 0.3, 20.0)
    emitter = ly.EmitterSpec(x_a=0.51, omega_a=np.pi, gamma=1.0)
    return ly.WaveProblem(ly.LayerStack(
        ly.VACUUM, ((mirror, 0.01), (ly.VACUUM, 1.0), (mirror, 0.01)), ly.VACUUM, emitter))


@pytest.fixture(scope="module")
def xray_minima(material_table):
    return cf.xray_angle_minima(material_table)


def make_problem(name, material_table, xray_minima):
    """A case by name: Fabry-Perot n = 4 or 20, lossy 8+0.5i, Lorentzian, X-ray minimum i."""
    if name.startswith("xray"):
        return ly.build_xray_cavity(material_table, xray_minima[int(name[4:]) - 1])
    return {"fp4": lambda: fp_problem(4.0), "fp20": lambda: fp_problem(20.0),
            "lossy": lambda: lossy_problem(8 + 0.5j), "lorentz": lorentzian_problem}[name]()


@pytest.fixture(params=["fp4", "fp20", "lossy", "lorentz"] + [f"xray{i}" for i in range(1, 8)])
def problem(request, material_table, xray_minima):
    return make_problem(request.param, material_table, xray_minima)


def omegas(problem):
    """A real and a complex scalar, the 2001-point window grid and pole-search points.

    The points below the axis fill the default search region, as boundary
    moments and Newton steps sample it.
    """
    if problem.k_par:
        (lo, hi), size = cf._light_line_span(problem)
    else:
        size = problem.emitter.omega_a
        lo, hi = 0.25 * size, 3.4 * size
    grid = np.linspace(lo, hi, 2001)
    rng = np.random.default_rng(7)
    below = rng.uniform(lo, hi, 200) - 1j * rng.uniform(0.0, 1.2 * size, 200)
    return [float(grid[777]), complex(below[0]), complex(below[1]), grid, below, below[:7]]


def points(stack):
    """(x, x') pairs: the emitter, and points in the claddings, the end layers and across."""
    total = stack.total_thickness
    first, last = stack.boundaries[1], stack.boundaries[-2]
    x_a = stack.emitter.x_a
    return [(x_a, x_a), (-0.3 * total, x_a), (x_a, 1.2 * total),
            (0.5 * first, 0.5 * (last + total)), (1.1 * total, 1.3 * total),
            (-0.2 * total, -0.1 * total)]


def test_green_and_reflection_bitwise(problem):
    for omega in omegas(problem):
        for x, xp in points(problem.stack):
            np.testing.assert_array_equal(ly.green_function(problem, x, xp, omega),
                                          ref.green_function(problem, x, xp, omega), strict=True)
        np.testing.assert_array_equal(ly.reflection(problem, omega),
                                      ref.reflection(problem, omega), strict=True)


def test_witness_bitwise(problem, monkeypatch):
    got = [wt.levshift_exact(problem, omega) for omega in omegas(problem)]
    monkeypatch.setattr(wt, "green_function", ref.green_function)
    for omega, g in zip(omegas(problem), got):
        np.testing.assert_array_equal(g, wt.levshift_exact(problem, omega), strict=True)


def test_field_profile_bitwise(problem):
    total = problem.stack.total_thickness
    xs = np.linspace(-0.2 * total, 1.2 * total, 301)
    for omega in omegas(problem)[:3]:
        np.testing.assert_array_equal(ly.field_profile(problem, omega, xs),
                                      ref.field_profile(problem, omega, xs), strict=True)


def test_rocking_curve_bitwise(material_table, xray_minima):
    # the angle scan of xray_angle_minima: k_par an array against a scalar omega
    stack = ly.build_xray_cavity(material_table, xray_minima[0]).stack
    th = np.radians(np.linspace(0.03, 0.6, 4001))
    np.testing.assert_array_equal(ly.reflectance_vs_angle(stack, ly.OMEGA_NUC_KEV, th),
                                  ref.reflectance_vs_angle(stack, ly.OMEGA_NUC_KEV, th),
                                  strict=True)
    scan = ly.WaveProblem(stack, k_par=ly.OMEGA_NUC_KEV * np.cos(th[::50]))
    x_a = stack.emitter.x_a
    for omega in (ly.OMEGA_NUC_KEV, ly.OMEGA_NUC_KEV * (1 - 1e-6j)):
        np.testing.assert_array_equal(ly.green_function(scan, x_a, x_a, omega),
                                      ref.green_function(scan, x_a, x_a, omega), strict=True)


def test_rows_share_equal_optics_only():
    # a renamed copy shares its row; an imaginary part of -0.0 does not
    # share with 0.0, whose k_z can differ in the sign of a zero
    layers = ((ly.Material.constant("a", 2.0), 1.0), (ly.Material.constant("b", 2.0), 0.5),
              (ly.Material.constant("c", complex(2.0, -0.0)), 1.0))
    stack = ly.LayerStack(ly.VACUUM, layers, ly.VACUUM)
    assert stack._rows == (0, 1, 1, 2, 0)
    assert [m.name for m in stack._distinct] == ["vacuum", "a", "c"]
    assert stack._depth.tolist() == [0.0, 1.5, 1.0]


def factor_log(monkeypatch):
    """Spy on the kernel: the factor uses, the keys of the factors formed,
    and after each march the keys of the factors the call still holds."""
    log = {"formed": [], "uses": 0, "held": []}
    factor, march = ly._factor, ly._march

    def factor_spy(kz, held, key, hold):
        log["uses"] += 1
        if key not in held:
            log["formed"].append(key)
        return factor(kz, held, key, hold)

    def march_spy(kz, steps, held, keep=()):
        out = march(kz, steps, held, keep)
        log["held"].append(sorted(held, key=repr))
        return out

    monkeypatch.setattr(ly, "_factor", factor_spy)
    monkeypatch.setattr(ly, "_march", march_spy)
    return log


def test_xray_call_forms_each_distinct_quantity_once(material_table, xray_minima, monkeypatch):
    # 11 media of 5 materials (vacuum, Pt, C, Fe, Si): k_z takes 5 rows, not
    # 11; with the emitter in the Fe-57 layer the two marches take 10
    # interface factors and 9 layer phases, of which 6 and 7 are distinct
    # (C|Fe, Fe|C and Fe|Fe repeat, and the three 1-nm Fe layers share a phase)
    problem = ly.build_xray_cavity(material_table, xray_minima[5])
    stack = problem.stack
    assert len(stack.media()) == 11 and len(stack._distinct) == 5
    assert [m.name for m in stack._distinct] == ["vacuum", "Pt", "C", "Fe", "Si"]
    omega = np.linspace(14.41, 14.42, 64)
    assert ly._wavenumbers(problem, omega).shape == (5, 64)
    assert ref.wavenumbers(problem, omega).shape == (11, 64)
    log = factor_log(monkeypatch)
    ly.green_function(problem, stack.emitter.x_a, stack.emitter.x_a, omega)
    assert log["uses"] == 19
    assert sorted(key[0] for key in log["formed"]) == ["I"] * 6 + ["P"] * 7
    assert log["held"][-1] == []   # nothing outlives its last use


def test_mirror_symmetric_left_march_forms_nothing(monkeypatch):
    # Fabry-Perot: the left-outgoing march takes every factor from the
    # right-outgoing one, and the call ends holding none
    log = factor_log(monkeypatch)
    ly.green_function(fp_problem(4.0), 0.51, 0.51, np.array([3.0, 3.1 - 0.2j]))
    assert log["uses"] == 7 and len(log["formed"]) == 4
    assert log["held"] == [[("I", 0, 1), ("I", 1, 0), ("P", 1, 0.01)], []]


@pytest.mark.parametrize("name", ["fp20", "lossy", "lorentz", "xray3"])
def test_each_factor_formed_once_per_call(name, material_table, xray_minima, monkeypatch):
    # for any pair of points, one call forms each distinct factor once and
    # ends holding none
    problem = make_problem(name, material_table, xray_minima)
    log = factor_log(monkeypatch)
    total = problem.stack.total_thickness
    for x in np.linspace(-0.1, 1.1, 13) * total:
        for xp in (x, 0.37 * total, 1.05 * total):
            log["formed"].clear()
            ly.green_function(problem, x, xp, np.array([omegas(problem)[0]]))
            assert len(log["formed"]) == len(set(log["formed"]))
            assert log["held"][-1] == []
