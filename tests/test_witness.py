"""Witness observable: single-mode closed forms, exact witness, feature extraction."""

import numpy as np
import pytest

from modecert import layered as ly, witness as wt
from modecert.errors import AmbiguityError

from conftest import fp_problem

TWO_PI = 2.0 * np.pi


def sm_params(omega1=10.0, kappa=0.4, coupling="critical", g=0.2, omega_a=10.0):
    if coupling == "critical":
        kr = np.sqrt(kappa / (2 * TWO_PI))
    elif coupling == "lossless":
        kr = np.sqrt(kappa / TWO_PI)
    else:
        kr = coupling
    return wt.SingleModeParams(omega1=omega1, kappa=kappa, kappa_R=kr, g=g,
                               omega_a=omega_a)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_levshift_on_resonance():
    p = sm_params()
    assert wt.single_mode_levshift(p, 10.0) == pytest.approx(-2j * 0.04 / 0.4)


def test_levshift_half_width_detuned():
    p = sm_params()
    val = wt.single_mode_levshift(p, 10.0 + 0.2)
    assert val == pytest.approx(0.04 * (1 - 1j) / 0.4)


def test_levshift_decoupled():
    p = sm_params(g=0.0)
    assert np.all(wt.single_mode_levshift(p, np.linspace(0, 20, 7)) == 0)


def test_reflection_on_resonance():
    p = sm_params(coupling=0.1)
    r = wt.single_mode_reflection(p, 10.0)
    assert r == pytest.approx(1 - 2 * TWO_PI * 0.01 / 0.4)


def test_reflection_critical_coupling_zero():
    p = sm_params()  # kappa = 4 pi kappa_R^2
    assert abs(wt.single_mode_reflection(p, 10.0)) < 1e-14


def test_reflection_lossless_unimodular():
    # single-channel lossless: kappa = 2 pi kappa_R^2 makes numerator and
    # denominator complex conjugates, so |r| = 1 on the whole real axis
    p = sm_params(coupling="lossless")
    om = np.linspace(8.0, 12.0, 501)
    r = wt.single_mode_reflection(p, om)
    num = om - p.omega1 - 0.5j * p.kappa
    den = om - p.omega1 + 0.5j * p.kappa
    assert np.max(np.abs(r - num / den)) < 1e-14
    assert np.max(np.abs(np.abs(r) - 1.0)) < 1e-12


def test_probed_channel_bound():
    with pytest.raises(ValueError):
        wt.SingleModeParams(omega1=1.0, kappa=0.1, kappa_R=1.0)


def test_atom_reflection_decoupled_matches_cavity():
    p = sm_params(g=0.0)
    om = np.linspace(9, 11, 101)
    assert np.max(np.abs(wt.single_mode_atom_reflection(p, om)
                         - wt.single_mode_reflection(p, om))) == 0.0


def test_atom_reflection_far_detuned():
    p = sm_params(kappa=2.0, g=0.02, omega_a=10.0, coupling=0.1)
    gamma_eff = -2 * wt.single_mode_levshift(p, 10.0).imag
    om = 10.0 + 80.0 * gamma_eff
    r = wt.single_mode_atom_reflection(p, om)
    rc = wt.single_mode_reflection(p, om)
    assert abs(r - rc) < 1e-3 * abs(rc)


def test_weak_coupling_line_shape_fit():
    # kappa = 100 |g|: fitted (center, width) match Delta, Gamma to 1e-3
    p = sm_params(kappa=2.0, g=0.02, omega_a=10.3, coupling=0.1)
    d = wt.single_mode_levshift(p, p.omega_a)
    delta, gamma = d.real, -2 * d.imag
    om = np.linspace(p.omega_a - 30 * gamma, p.omega_a + 30 * gamma, 3001)
    vals = wt.single_mode_atom_reflection(p, om) - wt.single_mode_reflection(p, om)
    _, center, width, _ = wt.fit_complex_lorentzian(om, vals)
    assert abs(center - (p.omega_a + delta)) < 1e-3 * abs(delta)
    assert abs(width - gamma) < 1e-3 * gamma


# ---------------------------------------------------------------------------
# exact witness
# ---------------------------------------------------------------------------

def test_free_space_normalization():
    gamma = 0.37
    st = ly.LayerStack(ly.VACUUM, ((ly.VACUUM, 1.0),), ly.VACUUM,
                       emitter=ly.EmitterSpec(0.5, np.pi, gamma=gamma))
    pr = ly.WaveProblem(st)
    rng = np.random.default_rng(0)
    om = rng.uniform(0.5, 30.0, 100)
    d = wt.levshift_exact(pr, omega_test=om)
    assert np.max(np.abs(d + 0.5j * gamma)) < 1e-12 * gamma


def test_free_space_normalization_grazing():
    # with k_par != 0 the calibration uses the vacuum longitudinal wavenumber
    st = ly.LayerStack(ly.VACUUM, ((ly.VACUUM, 1.0),), ly.VACUUM,
                       emitter=ly.EmitterSpec(0.5, 10.0, gamma=1.0))
    pr = ly.WaveProblem(st, k_par=3.0)
    om = np.linspace(4.0, 30.0, 50)
    d = wt.levshift_exact(pr, omega_test=om)
    assert np.max(np.abs(d + 0.5j)) < 1e-12


def test_delta_small_at_probed_minimum_n20():
    pr = fp_problem(20.0)
    wmin = wt.find_omega_min_refined(
        lambda w: np.abs(ly.reflection(pr, w)) ** 2, (0.8 * np.pi, 1.3 * np.pi))
    curve = wt.levshift_curve(pr, (0.8 * np.pi, 1.3 * np.pi), n=1001, refine=1)
    d0 = wt.levshift_exact(pr, omega_test=complex(wmin))
    assert abs(d0.real) < 0.05 * np.max(np.abs(curve.Delta))


def test_perfect_mirror_surrogate_suppression():
    # n = 200 mirrors, omega midway between the 0.5 pi and 0.978 pi dips:
    # measured suppression ~ 6e3, demand the stated factor 10
    pr = fp_problem(200.0)
    om = np.linspace(0.3 * np.pi, 1.2 * np.pi, 4000)
    r2 = np.abs(ly.reflection(pr, om)) ** 2
    dips = [om[i] for i in range(1, len(om) - 1)
            if r2[i] < r2[i - 1] and r2[i] < r2[i + 1] and r2[i] < 0.9]
    mid = 0.5 * (dips[0] + dips[1])
    d = wt.levshift_exact(pr, omega_test=complex(mid))
    assert -2 * d.imag < 0.1 * pr.stack.emitter.gamma


def test_gamma_positive_on_real_axis():
    for n in (4.0, 8.0, 20.0):
        pr = fp_problem(n)
        om = np.linspace(0.3 * np.pi, 4.0 * np.pi, 1500)
        gam = -2 * wt.levshift_exact(pr, omega_test=om).imag
        assert gam.min() > -1e-10 * gam.max()


def test_dispersive_sheet_oracle():
    """Full-wave cross-check: a thin Lorentzian sheet inside the cavity.

    The sheet's reflection line, computed from the dispersive transfer
    matrix alone, must sit at omega_res + Delta with width Gamma + gamma_res
    as predicted by the witness for an emitter of the sheet's radiative
    width (gamma_rad = t f_res / 2 in these units).
    """
    L, n_m, t_m = 1.0, 8.0, 0.01
    om_res, g_res, f_res, t = 1.2181 * np.pi, 1e-6, 0.2, 1e-3
    g_rad = t * f_res / 2
    mirror = ly.Material.constant("m", n_m)
    sheet = ly.Material.lorentzian("sheet", 1.0, om_res, g_res, f_res)
    st = ly.LayerStack(ly.VACUUM,
                       ((mirror, t_m), (ly.VACUUM, L / 2 - t / 2), (sheet, t),
                        (ly.VACUUM, L / 2 - t / 2), (mirror, t_m)), ly.VACUUM)
    prs = ly.WaveProblem(st)
    plain = ly.WaveProblem(ly.build_fabry_perot(L, n_m, gamma=g_rad))
    em = ly.EmitterSpec(x_a=t_m + L / 2, omega_a=om_res, gamma=g_rad)
    pred = wt.levshift_exact(plain, em, om_res)
    delta, gamma = pred.real, -2 * pred.imag
    half = 30 * (gamma + g_res)
    om = np.linspace(om_res - half, om_res + half, 3001)
    vals = ly.reflection(prs, om) - ly.reflection(plain, om)
    _, center, width, _ = wt.fit_complex_lorentzian(om, vals)
    assert abs(center - om_res - delta) < 0.02 * abs(delta)
    assert abs(width - (gamma + g_res)) < 0.01 * (gamma + g_res)


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def test_find_omega_min_single_mode():
    p = sm_params()
    om = np.linspace(9.0, 11.03, 2001)
    r2 = np.abs(wt.single_mode_reflection(p, om)) ** 2
    assert abs(wt.find_omega_min(om, r2) - 10.0) < 2e-8 * p.kappa
    refined = wt.find_omega_min_refined(
        lambda w: np.abs(wt.single_mode_reflection(p, w)) ** 2, (9.0, 11.03))
    assert abs(refined - 10.0) < 1e-9 * p.kappa


def test_find_omega_min_exact_parabola():
    om = np.linspace(0, 1, 17)
    vals = 3.0 * (om - 0.4321) ** 2 + 0.7
    assert wt.find_omega_min(om, vals) == pytest.approx(0.4321, abs=1e-15)


def test_find_omega_min_ambiguity():
    om = np.linspace(0, 1, 101)
    with pytest.raises(AmbiguityError):
        wt.find_omega_min(om, np.cos(6 * np.pi * om))  # several minima
    with pytest.raises(AmbiguityError):
        wt.find_omega_min(om, om)  # boundary minimum, none interior


def test_find_zero_of_delta_single_mode():
    p = sm_params()
    z = wt.find_zero_of_delta(lambda w: wt.single_mode_levshift(p, w), (9.0, 11.03))
    assert abs(z - 10.0) < 1e-8 * p.kappa


def test_find_zero_of_delta_complex_residue_closed_form():
    r, pole = 0.05 + 0.02j, 10.0 - 0.15j
    z = wt.find_zero_of_delta(lambda w: r / (w - pole), (9.0, 11.0))
    assert z == pytest.approx(10.0 - (0.02 / 0.05) * 0.15, abs=1e-9)


def test_find_zero_of_delta_antisymmetric():
    om0 = 3.7
    z = wt.find_zero_of_delta(lambda w: (w - om0) * np.exp(-np.abs(w - om0)),
                              (2.0, 5.0))
    assert z == pytest.approx(om0, abs=1e-9)


def test_find_zero_of_delta_from_curve_samples():
    p = sm_params()
    om = np.linspace(9.0, 11.03, 2001)
    curve = wt.LevelShiftCurve(om, wt.single_mode_levshift(p, om),
                               "single-mode", (9.0, 11.03))
    z = wt.find_zero_of_delta(curve, (9.0, 11.03))
    assert abs(z - 10.0) < 1e-8 * p.kappa


def test_find_zero_of_delta_ambiguity():
    with pytest.raises(AmbiguityError):
        wt.find_zero_of_delta(lambda w: np.sin(w) + 0j, (0.5, 7.0))
    with pytest.raises(AmbiguityError):
        wt.find_zero_of_delta(lambda w: np.ones_like(w) + 0j, (0.5, 7.0))


@pytest.mark.parametrize("seed", range(5))
def test_scans_match_pointwise_loops(seed):
    # the array scans keep the index lists of the pointwise loops they
    # replaced, ties and exact zeros included
    rng = np.random.default_rng(seed)
    v = rng.integers(-3, 4, 400).astype(float)
    minima = [i for i in range(1, v.size - 1) if v[i] < v[i - 1] and v[i] <= v[i + 1]]
    assert wt.local_minima(v).tolist() == minima

    om = np.linspace(0.0, 1.0, v.size)
    crossings = [i for i in range(1, v.size)
                 if v[i - 1] != 0 and v[i] != 0 and np.sign(v[i]) != np.sign(v[i - 1])]
    with pytest.raises(AmbiguityError) as err:
        wt.find_zero_of_delta(lambda w: np.interp(w, om, v) + 0j, (0.0, 1.0), n=v.size)
    assert err.value.candidates == [float(om[i]) for i in crossings]

    a = np.abs(v)
    extrema = [i for i in range(1, v.size - 1) if (a[i] - a[i - 1]) * (a[i + 1] - a[i]) < 0]
    h = 1.0 / (v.size - 1)
    want = np.unique(np.concatenate(
        [om] + [np.linspace(max(0.0, om[i] - 2 * h), min(1.0, om[i] + 2 * h), 9)
                for i in extrema]))
    assert np.array_equal(wt._refined_grid((0.0, 1.0), v.size, v, om, 2), want)


def test_single_mode_feature_coincidence():
    # omega_min and omega_a0 both coincide with omega1 to 1e-8 kappa
    p = sm_params()
    refined = wt.find_omega_min_refined(
        lambda w: np.abs(wt.single_mode_reflection(p, w)) ** 2, (9.0, 11.03))
    z = wt.find_zero_of_delta(lambda w: wt.single_mode_levshift(p, w), (9.0, 11.03))
    assert abs(refined - p.omega1) < 1e-8 * p.kappa
    assert abs(z - p.omega1) < 1e-8 * p.kappa


# ---------------------------------------------------------------------------
# curves, serialization, Kramers-Kronig
# ---------------------------------------------------------------------------

def test_curve_roundtrip_csv():
    p = sm_params()
    om = np.linspace(9, 11, 51)
    curve = wt.LevelShiftCurve(om, wt.single_mode_levshift(p, om),
                               "single-mode", (9.0, 11.0))
    text = curve.to_csv()
    assert text.splitlines()[0] == "omega,delta_re,delta_im,provenance"
    back = wt.LevelShiftCurve.from_csv(text, window=(9.0, 11.0))
    assert np.array_equal(back.omega, curve.omega)
    assert np.array_equal(back.delta, curve.delta)
    assert back.provenance == "single-mode"


def test_curve_requires_increasing_grid():
    with pytest.raises(ValueError):
        wt.LevelShiftCurve(np.array([1.0, 1.0, 2.0]), np.zeros(3, complex),
                           "x", (1.0, 2.0))


def test_sample_components():
    s = wt.LevelShiftSample(1.0, 0.25 - 0.4j)
    assert s.Delta == 0.25
    assert s.Gamma == pytest.approx(0.8)


def test_kk_single_mode_synthetic():
    p = sm_params()
    om = np.linspace(0.0, 20.0, 4001)
    d = wt.single_mode_levshift(p, om)
    rec = wt.kk_reconstruct_delta(om, -2 * d.imag)
    inner = (om > 20 / 3) & (om < 40 / 3)
    err = np.max(np.abs(rec - d.real)[inner]) / np.max(np.abs(d.real))
    assert err < 5e-4


def test_kk_fabry_perot_n8():
    # window: 5 spacings of the witness's own Gamma peaks (the modes the
    # center emitter couples to), interior third compared at 5 percent
    pr = fp_problem(8.0)
    om = np.linspace(0.3 * np.pi, 8.0 * np.pi, 6000)
    gam = -2 * wt.levshift_exact(pr, omega_test=om).imag
    peaks = [om[i] for i in range(1, len(om) - 1)
             if gam[i] > gam[i - 1] and gam[i] > gam[i + 1] and gam[i] > 0.5]
    fsr = float(np.median(np.diff(peaks)))
    c = peaks[0]
    win = (max(c - 2.5 * fsr, 0.05 * np.pi), c + 2.5 * fsr)
    omk = np.linspace(win[0], win[1], 4001)
    d = wt.levshift_exact(pr, omega_test=omk)
    rec = wt.kk_reconstruct_delta(omk, -2 * d.imag)
    width = win[1] - win[0]
    inner = (omk > win[0] + width / 3) & (omk < win[1] - width / 3)
    err = np.max(np.abs(rec - d.real)[inner]) / np.max(np.abs(d.real[inner]))
    assert err < 0.05
