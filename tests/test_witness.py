"""Witness observable: single-mode closed forms, exact witness, feature extraction."""

import dataclasses

import numpy as np
import pytest

from modecert import layered as ly, witness as wt
from modecert.errors import AmbiguityError, DomainError

from conftest import fp_problem, zero_wronskian

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
    d = wt.levshift_exact(pr, om)
    assert np.max(np.abs(d + 0.5j * gamma)) < 1e-12 * gamma


def test_free_space_normalization_grazing():
    # with k_par != 0 the calibration uses the vacuum longitudinal wavenumber
    st = ly.LayerStack(ly.VACUUM, ((ly.VACUUM, 1.0),), ly.VACUUM,
                       emitter=ly.EmitterSpec(0.5, 10.0, gamma=1.0))
    pr = ly.WaveProblem(st, k_par=3.0)
    om = np.linspace(4.0, 30.0, 50)
    d = wt.levshift_exact(pr, om)
    assert np.max(np.abs(d + 0.5j)) < 1e-12


def test_levshift_exact_on_a_pole_and_at_zero(monkeypatch):
    # the one witness function serves the curve and the pole search: an
    # array entry next to a pole reads a large finite value, one whose
    # Wronskian is exactly 0 reads inf, and omega = 0, where the kernel
    # raises, is a removable point that reads the long-wavelength limit
    # -i gamma / 2 (the thin mirrors vanish)
    pr = fp_problem(20.0)
    x_a = pr.emitter.x_a
    pole = (1.0412006217063068 - 0.004047325183637024j) * np.pi
    om = np.array([0.0, pole, 2.0])
    d = wt.levshift_exact(pr, om)
    assert np.all(np.isfinite(d)) and abs(d[1]) > 1e9 * abs(d[2])
    assert abs(d[0] + 0.5j) < 1e-12 and d[0] == wt.levshift_exact(pr, 0.0)
    with pytest.raises(DomainError):
        ly.green_function(pr, x_a, x_a, np.array([0.0, 2.0]))
    zero_wronskian(monkeypatch, at=np.arange(3) == 1)
    d = wt.levshift_exact(pr, om)
    assert np.isinf(d[1]) and np.all(np.isfinite(d[[0, 2]]))


def test_levshift_array_k_par_matches_scalar_calls():
    # an array k_par broadcasts through the calibration as through the kernel
    stack = ly.build_fabry_perot(1.0, 4.0)
    kps = np.array([0.1, 0.2, 0.3])
    scalar = [ly.WaveProblem(stack, k_par=kp) for kp in kps]
    z = 3.0 - 0.1j
    got = wt.levshift_exact(ly.WaveProblem(stack, k_par=kps), z)
    want = [wt.levshift_exact(pr, z) for pr in scalar]
    # scalar calls run on Python complex numbers, array calls on numpy loops
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    om = np.array([2.5, z])
    got = wt.levshift_exact(ly.WaveProblem(stack, k_par=kps), om[:, None])
    want = np.array([wt.levshift_exact(pr, om) for pr in scalar]).T
    assert got.shape == (2, 3) and np.allclose(got, want, rtol=1e-14, atol=0.0)


def test_delta_small_at_probed_minimum_n20():
    pr = fp_problem(20.0)
    fn = lambda w: np.abs(ly.reflection(pr, w)) ** 2
    om = np.linspace(0.8 * np.pi, 1.3 * np.pi, 2001)
    wmin = wt.find_omega_min_refined(fn, om, fn(om))
    curve = wt.levshift_curve(pr, (0.8 * np.pi, 1.3 * np.pi), n=1001)
    d0 = wt.levshift_exact(pr, complex(wmin))
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
    d = wt.levshift_exact(pr, complex(mid))
    assert -2 * d.imag < 0.1 * pr.stack.emitter.gamma


def test_gamma_positive_on_real_axis():
    for n in (4.0, 8.0, 20.0):
        pr = fp_problem(n)
        om = np.linspace(0.3 * np.pi, 4.0 * np.pi, 1500)
        gam = -2 * wt.levshift_exact(pr, om).imag
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
    fp = ly.build_fabry_perot(L, n_m)
    plain = ly.WaveProblem(dataclasses.replace(
        fp, emitter=dataclasses.replace(fp.emitter, gamma=g_rad)))
    # the witness emitter sits at the sheet, with the sheet's radiative width
    assert plain.stack.emitter.x_a == t_m + L / 2 and plain.stack.emitter.gamma == g_rad
    pred = wt.levshift_exact(plain, om_res)
    delta, gamma = pred.real, -2 * pred.imag
    half = 30 * (gamma + g_res)
    om = np.linspace(om_res - half, om_res + half, 3001)
    vals = ly.reflection(prs, om) - ly.reflection(plain, om)
    _, center, width, _ = wt.fit_complex_lorentzian(om, vals)
    assert abs(center - om_res - delta) < 0.02 * abs(delta)
    assert abs(width - (gamma + g_res)) < 0.01 * (gamma + g_res)


def test_levshift_curve_evaluates_each_point_once(monkeypatch):
    pr = fp_problem(4.0)
    batches = []
    kernel = wt.green_function

    def spy(*args, **kwargs):
        batches.append(np.atleast_1d(args[3]).copy())
        return kernel(*args, **kwargs)

    monkeypatch.setattr(wt, "green_function", spy)
    window = (0.5 * np.pi, 1.5 * np.pi)
    curve = wt.levshift_curve(pr, window)
    # one call, on the uniform grid only
    assert len(batches) == 1
    assert np.array_equal(batches[0], np.linspace(*window, 2001))
    assert np.array_equal(curve.omega, batches[0])
    monkeypatch.undo()
    assert np.array_equal(curve.delta, wt.levshift_exact(pr, curve.omega))


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def test_find_omega_min_single_mode():
    p = sm_params()
    om = np.linspace(9.0, 11.03, 2001)
    r2 = np.abs(wt.single_mode_reflection(p, om)) ** 2
    assert abs(wt.find_omega_min(om, r2) - 10.0) < 2e-8 * p.kappa
    local = []

    def fn(w):
        local.append(w)
        return np.abs(wt.single_mode_reflection(p, w)) ** 2

    refined = wt.find_omega_min_refined(fn, om, r2)
    # one call, on the local grid only
    assert [w.size for w in local] == [41]
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


def test_find_omega_min_boundary_errors():
    # two samples hold no interior point; one interior minimum lower than
    # neither end still loses to the first sample
    with pytest.raises(AmbiguityError, match="^not enough samples in window$") as info:
        wt.find_omega_min([0.0, 1.0], [1.0, 0.0])
    assert info.value.candidates == ()
    om = np.linspace(0.0, 1.0, 11)
    vals = np.array([0.0, 1.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    with pytest.raises(AmbiguityError, match="^minimum touches the window boundary$") as info:
        wt.find_omega_min(om, vals)
    assert info.value.candidates == [0.0]


def _zero(fn, window, n=2001):
    """Delta zero bracketed on an n-point curve of ``fn``, polished on ``fn``."""
    om = np.linspace(window[0], window[1], n)
    return wt.find_zero_of_delta(wt.LevelShiftCurve(om, fn(om), "test", window), fn)


def test_find_zero_of_delta_single_mode():
    p = sm_params()
    z = _zero(lambda w: wt.single_mode_levshift(p, w), (9.0, 11.03))
    assert abs(z - 10.0) < 1e-8 * p.kappa


def test_find_zero_of_delta_complex_residue_closed_form():
    # the second pole is 1e-5 from the axis, a hundredth of the 1e-3 grid
    # cell, so Delta jumps across the cell and no interpolant of it holds
    # the zero to 1e-9: the polish must notice and fall back to brentq
    r = 0.05 + 0.02j
    for pole in (10.0 - 0.15j, 10.0003 - 1e-5j):
        z = _zero(lambda w: r / (w - pole), (9.0, 11.0))
        assert z == pytest.approx(pole.real + (r.imag / r.real) * pole.imag, abs=1e-9)


def test_find_zero_of_delta_antisymmetric():
    # analytic, as the witness is on the real axis: the polish interpolates
    # Delta on the bracketing cell, which no kink at the root would allow
    om0 = 3.7
    z = _zero(lambda w: (w - om0) * np.exp(-(w - om0) ** 2), (2.0, 5.0))
    assert z == pytest.approx(om0, abs=1e-9)


def test_find_zero_of_delta_ambiguity():
    with pytest.raises(AmbiguityError):
        _zero(lambda w: np.sin(w) + 0j, (0.5, 7.0))
    with pytest.raises(AmbiguityError):
        _zero(lambda w: np.ones_like(w) + 0j, (0.5, 7.0))


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
        _zero(lambda w: np.interp(w, om, v) + 0j, (0.0, 1.0), n=v.size)
    assert err.value.candidates == [float(om[i]) for i in crossings]


def test_single_mode_feature_coincidence():
    # omega_min and omega_a0 both coincide with omega1 to 1e-8 kappa
    p = sm_params()
    fn = lambda w: np.abs(wt.single_mode_reflection(p, w)) ** 2
    om = np.linspace(9.0, 11.03, 2001)
    refined = wt.find_omega_min_refined(fn, om, fn(om))
    z = _zero(lambda w: wt.single_mode_levshift(p, w), (9.0, 11.03))
    assert abs(refined - p.omega1) < 1e-8 * p.kappa
    assert abs(z - p.omega1) < 1e-8 * p.kappa


# ---------------------------------------------------------------------------
# curves, serialization, Kramers-Kronig
# ---------------------------------------------------------------------------

def test_curve_requires_increasing_grid():
    with pytest.raises(ValueError):
        wt.LevelShiftCurve(np.array([1.0, 1.0, 2.0]), np.zeros(3, complex),
                           "x", (1.0, 2.0))


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
    gam = -2 * wt.levshift_exact(pr, om).imag
    peaks = [om[i] for i in range(1, len(om) - 1)
             if gam[i] > gam[i - 1] and gam[i] > gam[i + 1] and gam[i] > 0.5]
    fsr = float(np.median(np.diff(peaks)))
    c = peaks[0]
    win = (max(c - 2.5 * fsr, 0.05 * np.pi), c + 2.5 * fsr)
    omk = np.linspace(win[0], win[1], 4001)
    d = wt.levshift_exact(pr, omk)
    rec = wt.kk_reconstruct_delta(omk, -2 * d.imag)
    width = win[1] - win[0]
    inner = (omk > win[0] + width / 3) & (omk < win[1] - width / 3)
    err = np.max(np.abs(rec - d.real)[inner]) / np.max(np.abs(d.real[inner]))
    assert err < 0.05
