"""Decision tree, shift decomposition, scans and X-ray reports."""

import csv
import dataclasses
import functools
import io

import numpy as np
import pytest

from modecert import certify as cf, layered as ly, qnm, witness as wt
from modecert.errors import AmbiguityError, ConfigurationError

from conftest import bragg_problem, fp_problem, lossy_problem


@functools.lru_cache(maxsize=None)
def classified(n_mirror: float):
    return cf.classify(fp_problem(n_mirror))


# ---------------------------------------------------------------------------
# synthetic single mode
# ---------------------------------------------------------------------------

def synthetic_problem():
    """Lorentzian witness with a matching reflectance dip, as one function pair."""
    pole = 10.0 - 0.2j
    residue = 0.04 + 0j
    f = lambda z: residue / (np.asarray(z, dtype=complex) - pole)
    return f, pole, residue


def test_classify_synthetic_single_mode():
    # classification on a synthetic exact single mode via the pieces:
    # expansion + features must land on the exact coincidences
    f, pole, residue = synthetic_problem()
    region = qnm.ScanRegion(8.0, 12.0, 1.0)
    exp = qnm.build_expansion(f, region)
    assert len(exp.poles) == 1
    p = exp.poles[0]
    z_sp = cf.single_pole_zero(p.residue, p.omega_pole)
    assert z_sp == pytest.approx(10.0, abs=1e-10)
    assert abs(np.angle(p.residue)) < 1e-8


def test_single_pole_zero_closed_form_vs_numeric():
    rng = np.random.default_rng(31)
    for _ in range(25):
        omega_pole = complex(rng.uniform(5, 15), -rng.uniform(0.05, 0.5))
        phi = rng.uniform(-1.2, 1.2)
        residue = rng.uniform(0.2, 2.0) * np.exp(1j * phi)
        z = cf.single_pole_zero(residue, omega_pole)
        kappa = -2 * omega_pole.imag
        # closed form: Omega - tan(phi) kappa / 2
        assert z == pytest.approx(omega_pole.real - np.tan(phi) * kappa / 2,
                                  rel=1e-12)
        num = cf._single_pole_zero_numeric(residue, omega_pole,
                                           (omega_pole.real - 1, omega_pole.real + 1))
        assert num is not None
        assert abs(num - z) < 1e-8 * kappa


def test_single_pole_zero_imaginary_residue_rejected():
    with pytest.raises(AmbiguityError):
        cf.single_pole_zero(1j, 10 - 0.2j)


def test_synthetic_phase_decomposition():
    # one pole with residue phase phi: complex-residue shift = -tan(phi) k/2,
    # off-resonant and multi-pole shifts vanish
    phi = 0.3
    pole = 10.0 - 0.2j
    z_sp = cf.single_pole_zero(np.exp(1j * phi), pole)
    assert z_sp - pole.real == pytest.approx(-np.tan(phi) * 0.2, rel=1e-12)


# ---------------------------------------------------------------------------
# Fabry-Perot classifications
# ---------------------------------------------------------------------------

def test_classify_n20_single_mode():
    rep = classified(20.0)
    assert rep.single_mode
    assert not (rep.off_resonant_mm or rep.complex_residue_mm or rep.multi_pole_mm)
    assert rep.n_star == 1
    assert abs(rep.main_residue_phase) < 0.05
    for shift in (rep.off_resonant_shift, rep.complex_residue_shift,
                  rep.multi_pole_shift):
        assert abs(shift) < 0.02 * rep.kappa_main


def test_classify_n4_multi_mode():
    rep = classified(4.0)
    assert not rep.single_mode
    assert rep.multi_pole_mm and rep.complex_residue_mm
    assert rep.n_star >= 2
    assert abs(rep.main_residue_phase) > 0.05
    flags = rep.flags()
    assert sum(flags[k] for k in ("off_resonant_mm", "complex_residue_mm",
                                  "multi_pole_mm")) >= 2


def test_closure_identity():
    for n in (4.0, 8.0, 20.0):
        rep = classified(n)
        total = (rep.off_resonant_shift + rep.complex_residue_shift
                 + rep.multi_pole_shift)
        assert abs(total - (rep.omega_a_zero - rep.omega_min)) <= rep.closure_residual + 1e-12
        # closure within twice the root tolerances (windows are order pi wide)
        assert rep.closure_residual < 2e-9 * np.pi


def test_determinism_bitwise():
    a = cf.classify(fp_problem(8.0))
    b = cf.classify(fp_problem(8.0))
    assert a.to_json() == b.to_json()


def test_threshold_monotonicity():
    rep = classified(8.0)
    loose = cf.Thresholds(residue_phase_tol=10 * 0.05, convergence_tol=0.5,
                          shift_tol=0.2)
    rep2 = cf.classify(fp_problem(8.0), thresholds=loose)
    for key, was_set in rep.flags().items():
        if key == "single_mode":
            continue
        if rep2.flags()[key]:
            assert was_set, f"{key} appeared after relaxing thresholds"


def test_report_serialization():
    rep = classified(20.0)
    d = rep.to_dict()
    assert d["schema_version"] == 1
    assert d["flags"]["single_mode"] is True
    assert "omega_min" in d["metrics"]
    assert "thresholds" in d
    text = rep.to_text()
    assert "single_mode" in text


def _expansion_spy(monkeypatch):
    built = []

    def spy(*args, **kwargs):
        built.append(qnm.build_expansion(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cf, "build_expansion", spy)
    return built


def test_classify_keeps_given_region(monkeypatch):
    built = _expansion_spy(monkeypatch)
    region = qnm.ScanRegion(-20.0, 20.0, 4.0)
    rep = cf.classify(fp_problem(20.0), region=region)
    assert rep.single_mode
    assert [e.region for e in built] == [region]


@pytest.mark.parametrize("n_high,periods", [(2.0, 8), (2.5, 4)])
def test_bragg_window_on_emitter(n_high, periods):
    # the default window follows the emitter, not the Fabry-Perot builder:
    # the quarter-wave Bragg cavity is certified at its defect mode, pi
    rep = cf.classify(bragg_problem(n_high, periods))
    assert abs(rep.omega_min - np.pi) < 1e-6 * np.pi
    lo, hi = rep.thresholds.window
    assert lo < rep.omega_min < hi


# ---------------------------------------------------------------------------
# region growth on lossy mirrors
# ---------------------------------------------------------------------------

def test_growth_path_independent(monkeypatch):
    # growing into a region gives the certificate of searching it at once
    problem = lossy_problem(3.0 + 1.0j)
    built = _expansion_spy(monkeypatch)
    grown = cf.classify(problem)
    assert len(built) == 2   # one growth
    final = built[-1].region
    window, first = cf._default_window_region(problem)
    assert final == cf._grow(first)
    direct = cf.classify(problem, region=final, thresholds=cf.Thresholds(window=window))
    assert len(built) == 3
    assert grown.flags() == direct.flags()
    assert grown.n_star == direct.n_star
    assert grown.n_poles_region == direct.n_poles_region
    main_g = complex(grown.re_main_pole, -0.5 * grown.kappa_main)
    main_d = complex(direct.re_main_pole, -0.5 * direct.kappa_main)
    assert abs(main_g - main_d) < 1e-10 * abs(main_d)
    assert abs(grown.main_residue - direct.main_residue) < 1e-10 * abs(direct.main_residue)


def test_growth_length_scaling():
    # L -> 2L, omega -> omega/2: same certificate in units of 1/L
    rep1 = cf.classify(lossy_problem(3.0 + 1.0j, 1.0))
    rep2 = cf.classify(lossy_problem(3.0 + 1.0j, 2.0))
    assert rep1.flags() == rep2.flags()
    assert rep1.n_star == rep2.n_star
    for key in ("omega_min", "omega_a_zero", "re_main_pole", "kappa_main"):
        a, b = getattr(rep1, key), 2.0 * getattr(rep2, key)
        assert abs(a - b) < 1e-9 * abs(a), key


def _kernel_calls(monkeypatch, certify):
    calls = []
    kernel = wt.green_function

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(wt, "green_function", counted)
    result = certify()
    return len(calls), result


def test_growth_call_budget(monkeypatch):
    # the anchored sums converge on the default region of lossy 8+0.5i: no
    # growth, 60 kernel calls with the level-synchronous search (90 with one
    # search call per box, 974 with four growths, 2016 from scratch)
    n_calls, rep = _kernel_calls(monkeypatch, lambda: cf.classify(lossy_problem(8.0 + 0.5j)))
    assert rep.n_poles_region == 5
    assert n_calls <= 60


def test_fabry_perot_call_budget(monkeypatch):
    # n = 4: 48 kernel calls (82 with one search call per box)
    n_calls, rep = _kernel_calls(monkeypatch, lambda: cf.classify(fp_problem(4.0)))
    assert rep.n_star >= 2
    assert n_calls <= 48


def test_xray_call_budget(monkeypatch, material_table):
    # rocking minimum 6: 120 kernel calls (235 with one search call per box)
    n_calls, (rep, _) = _kernel_calls(
        monkeypatch, lambda: cf.xray_mode_report(material_table, 6))
    assert rep.n_star >= 2
    assert n_calls <= 120


@pytest.mark.parametrize("problem", [
    fp_problem(4.0), fp_problem(8.0), fp_problem(20.0), lossy_problem(8.0 + 0.5j),
    lossy_problem(6.0 + 0.3j), lossy_problem(3.0 + 1.0j)],
    ids=["fp4", "fp8", "fp20", "lossy8+0.5i", "lossy6+0.3i", "lossy3+1i"])
def test_error_table_non_increasing(problem):
    # the (N+1)-mode anchored sum is the N-mode one plus one mode and no new
    # constant; a shared constant made n = 4 read 0.184, 0.202, 0.042
    errors = cf.classify(problem).convergence_errors
    assert len(errors) >= 3
    assert all(b <= a for a, b in zip(errors, errors[1:])), errors


def test_lossy_unpaired_negative_poles_counted():
    # a complex mirror index breaks f(-z*) = -f(z)*: the poles left of
    # omega = 0 have no mirror partner, so each counts as a mode of its own
    problem = lossy_problem(8.0 + 0.5j)
    window, region = cf._default_window_region(problem)
    exp = qnm.build_expansion(qnm.witness_evaluator(problem), region)
    negative = [p for p in exp.poles if p.omega_pole.real < 0]
    assert len(negative) == 3
    assert all(qnm._mirror_partner(exp, p) is None for p in exp.poles)
    counted = qnm.counted_poles(exp, 0.5 * sum(window))
    assert {p.omega_pole for p in counted} == {p.omega_pole for p in exp.poles}


def test_text_marks_decisions_near_threshold():
    # lossy 8+0.5i certifies N* = 1 at 0.0496 against the 0.05 tolerance
    near = "within 5% of threshold"
    text = cf.classify(lossy_problem(8.0 + 0.5j)).to_text()
    marked = [line for line in text.splitlines() if near in line]
    assert len(marked) == 1 and marked[0].split()[0] == "err(N*)/tol"
    assert "0.992" in marked[0]
    text = classified(20.0).to_text()
    assert "err(N*)/tol" in text and near not in text


# ---------------------------------------------------------------------------
# mirror-index scan
# ---------------------------------------------------------------------------

def test_scan_mirror_index_rows():
    rows = cf.scan_mirror_index(1.0, [20.0, 1.0, 4.0])
    status = {n: res for n, res in rows}
    assert isinstance(status[20.0], cf.ClassificationReport)
    assert status[20.0].single_mode
    # n = 1 is free space: no reflectance minimum, row-level error recorded
    assert isinstance(status[1.0], Exception)
    assert isinstance(status[4.0], cf.ClassificationReport)
    assert not status[4.0].single_mode
    csv_text = cf.scan_table_csv(rows)
    lines = csv_text.strip().splitlines()
    assert len(lines) == 4
    assert "error:" in lines[2]
    # error rows keep their message; commas and quotes in it stay one field
    quoted = AmbiguityError("minima at 1.5, 2.5 and \"3.5\"")
    table = list(csv.reader(io.StringIO(cf.scan_table_csv(rows + [(2.0, quoted)]))))
    assert [len(r) for r in table] == [15] * 5
    exc = status[1.0]
    assert table[2][1] == f"error:{type(exc).__name__}: {exc}"
    assert str(exc) and table[2][2:] == [""] * 13
    assert table[4][1] == 'error:AmbiguityError: minima at 1.5, 2.5 and "3.5"'


# ---------------------------------------------------------------------------
# X-ray reports
# ---------------------------------------------------------------------------

def test_xray_angle_minima(material_table):
    minima = cf.xray_angle_minima(material_table)
    degs = np.degrees(minima)
    assert len(minima) >= 6
    # measured ladder: 4th minimum near 0.247 deg, 6th near 0.322 deg
    assert degs[3] == pytest.approx(0.2468, abs=2e-3)
    assert degs[5] == pytest.approx(0.3223, abs=2e-3)


def test_xray_mode4_report(material_table):
    rep, spec = cf.xray_mode_report(material_table, 4)
    assert rep.off_resonant_mm
    assert rep.delta_at_min < 0
    assert spec["reflectance"].shape == spec["omega"].shape
    # critically coupled minimum: the nuclear line stands on a dark background
    assert np.max(spec["reflectance"]) > 10 * np.abs(spec["r_cav"][0]) ** 2


def test_xray_report_thresholds_reproduce(material_table, monkeypatch):
    # the report echoes the energy window it certified, so classify on the
    # same problem and region with the report's thresholds gives the report
    calls = []
    plain = cf.classify

    def spy(problem, region=None, thresholds=cf.Thresholds()):
        calls.append((problem, region))
        return plain(problem, region, thresholds)

    monkeypatch.setattr(cf, "classify", spy)
    rep, _ = cf.xray_mode_report(material_table, 4)
    (problem, region), = calls
    assert rep.thresholds.window is not None
    again = plain(problem, region, thresholds=rep.thresholds)
    assert again.to_dict() == rep.to_dict()


def test_xray_mode6_report(material_table):
    rep, _ = cf.xray_mode_report(material_table, 6)
    assert rep.complex_residue_mm and rep.multi_pole_mm
    assert rep.delta_at_min > 0
    assert abs(rep.main_residue_phase) > 0.3


def test_xray_sign_inversion(material_table):
    rep4, _ = cf.xray_mode_report(material_table, 4)
    rep6, _ = cf.xray_mode_report(material_table, 6)
    assert np.sign(rep4.delta_at_min) != np.sign(rep6.delta_at_min)


def test_xray_too_few_minima(material_table):
    with pytest.raises(ConfigurationError):
        cf.xray_mode_report(material_table, 40)


def test_single_layer_guide_off_resonant(material_table):
    """A single-guide low-Q cavity shows an off-resonant shift at its minimum.

    Geometry in the spirit of the archetype single-layer structures: one
    C guiding layer between a thin Pt top and a thick Pt bottom mirror,
    with a thin Fe-57 sheet at the guide center.
    """
    nm = ly.HBARC_KEV_NM
    layers = (
        (material_table["Pt"], 2.2 / nm),
        (material_table["C"], 8.0 / nm),
        (material_table["Fe"], 0.6 / nm),
        (material_table["C"], 8.0 / nm),
        (material_table["Pt"], 13.0 / nm),
    )
    x_a = (2.2 + 8.0 + 0.3) / nm
    emitter = ly.EmitterSpec(x_a=x_a, omega_a=ly.OMEGA_NUC_KEV,
                             gamma=ly.GAMMA_NUC_KEV)
    stack = ly.LayerStack(ly.VACUUM, layers, material_table["Si"], emitter)
    thetas = cf.xray_angle_minima({"Pt": material_table["Pt"],
                                   "C": material_table["C"],
                                   "Fe": material_table["Fe"],
                                   "Si": material_table["Si"]})
    # probe the structure's own first rocking minimum
    th = np.radians(np.linspace(0.05, 0.6, 3001))
    r2 = ly.reflectance_vs_angle(stack, ly.OMEGA_NUC_KEV, th)
    dips = [th[i] for i in range(1, len(th) - 1)
            if r2[i] < r2[i - 1] and r2[i] <= r2[i + 1]]
    assert dips, "no rocking minimum found"
    problem = ly.WaveProblem(stack, k_par=ly.OMEGA_NUC_KEV * np.cos(dips[0]))
    omega_bp = cf._xray_branch_point(problem)
    e_off = ly.OMEGA_NUC_KEV - omega_bp
    d = np.real(cf.levshift_exact(problem, emitter, ly.OMEGA_NUC_KEV))
    # non-zero Lamb shift at the rocking minimum (off-resonant displacement)
    assert abs(d) > 0.05 * emitter.gamma
