"""Acceptance criteria, one test per criterion, one pass/fail line each.

Each criterion runs at its stated tolerance and prints
``criterion N (<name>): PASS/FAIL`` plus the measured figures; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from modecert import certify as cf, layered as ly, pfm, qnm, witness as wt
from conftest import fp_problem, random_pfm, rational_instance
import witness_reference as wref

GOLDEN = Path(__file__).parent / "golden" / "mirror_sweep_shifts.json"
SWEEP_VALUES = [4.0, 5.0, 6.0, 8.0, 12.0, 20.0]

_sweep_cache = {}


def _report(number, name, started, budget, **figures):
    elapsed = time.time() - started
    info = " ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in figures.items())
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s] {info}")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def _fail_line(number, name):
    print(f"criterion {number} ({name}): FAIL")


def _sweep_rows():
    if "rows" not in _sweep_cache:
        t0 = time.time()
        _sweep_cache["rows"] = cf.classify_rows([(n, fp_problem(n)) for n in SWEEP_VALUES])
        _sweep_cache["elapsed"] = time.time() - t0
    return _sweep_cache["rows"], _sweep_cache["elapsed"]


def test_criterion_1_single_mode_coincidence():
    name = "single-mode coincidence"
    t0 = time.time()
    try:
        p = wref.SingleModeParams(omega1=10.0, kappa=0.4,
                                  kappa_R=np.sqrt(0.4 / (4 * np.pi)), g=0.2,
                                  omega_a=10.0)
        fn = lambda w: np.abs(wref.single_mode_reflection(p, w)) ** 2
        om = np.linspace(9.0, 11.03, 2001)
        omega_min = wt.find_omega_min_refined(fn, om, fn(om))
        curve = wt.LevelShiftCurve(om, wref.single_mode_levshift(p, om), "single-mode",
                                   (9.0, 11.03))
        omega_a0 = wt.find_zero_of_delta(curve, lambda w: wref.single_mode_levshift(p, w))
        assert abs(omega_min - p.omega1) < 1e-8 * p.kappa
        assert abs(omega_a0 - p.omega1) < 1e-8 * p.kappa
    except AssertionError:
        _fail_line(1, name)
        raise
    _report(1, name, t0, 1.0,
            min_err=abs(omega_min - p.omega1) / p.kappa,
            zero_err=abs(omega_a0 - p.omega1) / p.kappa)


def test_criterion_2_fabry_perot_single_mode_limit():
    name = "Fabry-Perot single-mode limit (n=20)"
    t0 = time.time()
    try:
        rep = cf.classify(fp_problem(20.0))
        assert rep.single_mode
        assert rep.n_star == 1
        assert abs(rep.main_residue_phase) < 0.05
        for shift in (rep.off_resonant_shift, rep.complex_residue_shift,
                      rep.multi_pole_shift):
            assert abs(shift) < 0.02 * rep.kappa_main
    except AssertionError:
        _fail_line(2, name)
        raise
    _report(2, name, t0, 60.0, n_star=rep.n_star,
            arg_r=float(rep.main_residue_phase))


def test_criterion_3_fabry_perot_multi_mode():
    name = "Fabry-Perot multi-mode case (n=4) + golden sweep"
    t0 = time.time()
    try:
        rows, sweep_time = _sweep_rows()
        by_n = {n: r for n, r in rows}
        rep4 = by_n[4.0]
        assert rep4.n_star >= 2
        assert abs(rep4.main_residue_phase) > 0.05
        flags = rep4.flags()
        assert sum(flags[k] for k in ("off_resonant_mm", "complex_residue_mm",
                                      "multi_pole_mm")) >= 2
        golden = json.loads(GOLDEN.read_text())
        for n, rep in rows:
            ref = golden[f"{n:g}"]
            assert rep.n_star == ref["n_star"]
            assert rep.flags() == ref["flags"]
            for key in ("omega_min", "omega_a_zero", "re_main_pole", "kappa_main",
                        "main_residue_phase", "off_resonant_shift",
                        "complex_residue_shift", "multi_pole_shift"):
                got, want = getattr(rep, key), ref[key]
                assert abs(got - want) <= 1e-6 * max(abs(want), 1e-9), (n, key)
        assert sweep_time < 300.0
    except AssertionError:
        _fail_line(3, name)
        raise
    _report(3, name, t0, 300.0, n_star_4=rep4.n_star,
            arg_r_4=float(rep4.main_residue_phase))


def test_criterion_4_shift_trend():
    name = "shift trend over the mirror sweep"
    t0 = time.time()
    try:
        rows, _ = _sweep_rows()
        reports = [r for _, r in rows]
        for attr in ("off_resonant_shift", "complex_residue_shift",
                     "multi_pole_shift"):
            series = np.abs([getattr(r, attr) for r in reports])
            allowed_rise = 0.10 * series.max()
            assert np.all(np.diff(series) <= allowed_rise), attr
            assert series[-1] < 0.02 * reports[-1].kappa_main, attr
    except AssertionError:
        _fail_line(4, name)
        raise
    _report(4, name, t0, 300.0,
            max_shift_n20=float(max(abs(reports[-1].off_resonant_shift),
                                    abs(reports[-1].complex_residue_shift),
                                    abs(reports[-1].multi_pole_shift))
                                / reports[-1].kappa_main))


def test_criterion_5_matrix_vs_diagonalized():
    name = "matrix equals diagonalized level shift"
    t0 = time.time()
    try:
        rng = np.random.default_rng(501)
        worst = 0.0
        for _ in range(100):
            model = random_pfm(rng, n_max=6)
            poles = pfm.diagonalize(model)
            ws = rng.uniform(5.0, 15.0, 50)
            direct = pfm.levshift_matrix(model, ws)
            summed = pfm.pole_sum(poles, ws)
            err = float(np.max(np.abs(direct - summed)
                               / np.maximum(1.0, np.abs(direct))))
            worst = max(worst, err)
            assert err < 1e-11
        # diagonal models: residue imaginary parts below 1e-12 relative
        for _ in range(20):
            n = int(rng.integers(1, 7))
            model = pfm.PfmParams(omega_matrix=np.diag(rng.uniform(5, 15, n)),
                                  kappa=rng.uniform(0.1, 1.0, n),
                                  g=rng.normal(size=n) + 1j * rng.normal(size=n))
            for pole in pfm.diagonalize(model):
                assert abs(pole.residue.imag) < 1e-12 * abs(pole.residue)
    except AssertionError:
        _fail_line(5, name)
        raise
    _report(5, name, t0, 10.0, worst=worst)


def test_criterion_6_pole_residue_oracle_suite():
    name = "pole/residue oracle suite (200 instances)"
    t0 = time.time()
    region = qnm.ScanRegion(0.0, 10.0, 2.0)
    try:
        rng = np.random.default_rng(600)
        worst_pole, worst_res = 0.0, 0.0
        for trial in range(200):
            f, zs, rs = rational_instance(rng, background=(trial % 3 == 0))
            exp = qnm.build_expansion(f, region)
            got = sorted(exp.poles,
                         key=lambda p: (p.omega_pole.real, p.omega_pole.imag))
            want = sorted(zip(zs, rs), key=lambda t: (t[0].real, t[0].imag))
            assert len(got) == len(want), f"trial {trial}: pole count"
            for p, (z, r) in zip(got, want):
                dp = abs(p.omega_pole - z)
                dr = abs(p.residue - r) / abs(r)
                worst_pole, worst_res = max(worst_pole, dp), max(worst_res, dr)
                assert dp < 1e-10, f"trial {trial}: pole location"
                assert dr < 1e-10, f"trial {trial}: residue"
    except AssertionError:
        _fail_line(6, name)
        raise
    _report(6, name, t0, 30.0, worst_pole=worst_pole, worst_residue=worst_res)


def test_criterion_7_expansion_exactness():
    name = "QNM-expansion exactness (n=4, wide region)"
    t0 = time.time()
    try:
        pr = fp_problem(4.0)
        # symmetric region holding the mirror ladder: 65 poles, >= 9 required
        region = qnm.ScanRegion(-59.7 * np.pi, 59.73 * np.pi, 2.0 * np.pi)
        exp = qnm.build_expansion(functools.partial(wt.levshift_exact, pr), region)
        assert len(exp.poles) >= 9
        window = (0.55 * np.pi, 1.45 * np.pi)
        curve = wt.levshift_curve(pr, window, n=801)
        # anchored at the curve sample nearest the probed mode; the last
        # entry of the error table is the full sum
        rep = qnm.convergence_report(exp, curve, 1.386 * np.pi)
        sup_err = rep.errors[-1]
        # the constant the bare pole sum misses at the anchor
        const_rel = abs(rep.offset) / float(np.max(np.abs(curve.delta)))
        assert sup_err < 0.01
        assert const_rel < 0.01
    except AssertionError:
        _fail_line(7, name)
        raise
    _report(7, name, t0, 120.0, poles=len(exp.poles), sup_err=sup_err,
            const_rel=const_rel)


def test_criterion_8_free_space_normalization():
    name = "free-space normalization"
    t0 = time.time()
    try:
        gamma = 0.37
        st = ly.LayerStack(ly.VACUUM, ((ly.VACUUM, 1.0),), ly.VACUUM,
                           emitter=ly.EmitterSpec(0.5, np.pi, gamma=gamma))
        pr = ly.WaveProblem(st)
        rng = np.random.default_rng(800)
        om = rng.uniform(0.5, 30.0, 100)
        d = wt.levshift_exact(pr, om)
        worst = float(np.max(np.abs(d + 0.5j * gamma)))
        assert worst < 1e-12 * gamma
    except AssertionError:
        _fail_line(8, name)
        raise
    _report(8, name, t0, 1.0, worst_over_gamma=worst / gamma)


def test_criterion_9_xray_sign_inversion(material_table):
    name = "X-ray sign inversion (modes 4 and 6)"
    t0 = time.time()
    try:
        rep4 = cf.classify(cf.xray_problem(material_table, 4))
        rep6 = cf.classify(cf.xray_problem(material_table, 6))
        assert np.sign(rep4.delta_at_min) != np.sign(rep6.delta_at_min)
        assert rep4.off_resonant_mm
        assert rep6.complex_residue_mm and rep6.multi_pole_mm
    except AssertionError:
        _fail_line(9, name)
        raise
    _report(9, name, t0, 300.0,
            delta4=rep4.delta_at_min / rep4.gamma_unit,
            delta6=rep6.delta_at_min / rep6.gamma_unit)


def test_criterion_10_weak_coupling_line_shape():
    name = "weak-coupling line-shape equivalence"
    t0 = time.time()
    try:
        p = wref.SingleModeParams(omega1=10.0, kappa=2.0, kappa_R=0.1, g=0.02,
                                  omega_a=10.3)
        d = wref.single_mode_levshift(p, p.omega_a)
        delta, gamma = d.real, -2 * d.imag
        om = np.linspace(p.omega_a - 30 * gamma, p.omega_a + 30 * gamma, 3001)
        vals = (wref.single_mode_atom_reflection(p, om)
                - wref.single_mode_reflection(p, om))
        _, center, width, _ = wref.fit_complex_lorentzian(om, vals)
        center_err = abs(center - (p.omega_a + delta)) / abs(delta)
        width_err = abs(width - gamma) / gamma
        assert center_err < 1e-3
        assert width_err < 1e-3
    except AssertionError:
        _fail_line(10, name)
        raise
    _report(10, name, t0, 10.0, center_err=center_err, width_err=width_err)


def test_criterion_11_kramers_kronig():
    name = "Kramers-Kronig consistency (n=8)"
    t0 = time.time()
    try:
        pr = fp_problem(8.0)
        om = np.linspace(0.3 * np.pi, 8.0 * np.pi, 6000)
        gam = -2 * wt.levshift_exact(pr, om).imag
        peaks = [om[i] for i in range(1, len(om) - 1)
                 if gam[i] > gam[i - 1] and gam[i] > gam[i + 1] and gam[i] > 0.5]
        fsr = float(np.median(np.diff(peaks)))  # the witness's own mode spacing
        win = (max(peaks[0] - 2.5 * fsr, 0.05 * np.pi), peaks[0] + 2.5 * fsr)
        omk = np.linspace(win[0], win[1], 4001)
        d = wt.levshift_exact(pr, omk)
        rec = wref.kk_reconstruct_delta(omk, -2 * d.imag)
        width = win[1] - win[0]
        inner = (omk > win[0] + width / 3) & (omk < win[1] - width / 3)
        err = float(np.max(np.abs(rec - d.real)[inner])
                    / np.max(np.abs(d.real[inner])))
        assert err < 0.05
    except AssertionError:
        _fail_line(11, name)
        raise
    _report(11, name, t0, 60.0, interior_err=err)
