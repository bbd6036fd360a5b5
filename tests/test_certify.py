"""Decision tree, shift decomposition, scans and X-ray reports."""

import csv
import dataclasses
import functools
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import AAA
from scipy.optimize import brentq

from modecert import certify as cf, layered as ly, qnm, witness as wt
from modecert.errors import (AmbiguityError, ConfigurationError, ModeCertError,
                             RegionTooSmallError)

from conftest import (bragg_problem, fp_problem, general_stacks, lossy_problem,
                      pole_sets_by_tiling)


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


def single_pole_zero_numeric(residue, omega_pole, window):
    """Root of Re[r / (omega - omega_pole)] by brentq on a bracketing grid sample."""
    fn = lambda w: (residue / (w - omega_pole)).real
    span = 20.0 * abs(omega_pole.imag) + (window[1] - window[0])
    om = np.linspace(omega_pole.real - span, omega_pole.real + span, 4001)
    try:
        a, b = wt.zero_bracket(om, fn(om))
    except AmbiguityError:
        return None
    return a if a == b else float(brentq(fn, a, b, xtol=1e-12 * span))


def test_single_pole_zero_closed_form_vs_numeric(material_table):
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
        num = single_pole_zero_numeric(residue, omega_pole,
                                       (omega_pole.real - 1, omega_pole.real + 1))
        assert num is not None
        assert abs(num - z) < 1e-8 * kappa
    # the zero of 1 / (w + i) is the middle sample of its 4001-point grid:
    # that sample is the root, not a check skipped for want of a sign change
    assert single_pole_zero_numeric(1.0 + 0j, -1j, (-6.0, 6.0)) == 0.0
    # the main poles of certified reports, to the window-relative tolerance
    reports = [classified(n) for n in (4.0, 5.0, 6.0, 8.0, 12.0, 20.0)]
    reports += [cf.classify(lossy_problem(8.0 + 0.5j)),
                cf.classify(cf.xray_problem(material_table, 4))]
    for rep in reports:
        pole, window = rep.main_pole, rep.thresholds.window
        num = single_pole_zero_numeric(pole.residue, pole.omega_pole, window)
        assert num is not None
        assert abs(num - cf.single_pole_zero(pole.residue, pole.omega_pole)) \
            <= 1e-6 * (window[1] - window[0])


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


FLAGS = ("single_mode", "off_resonant_mm", "complex_residue_mm", "multi_pole_mm")


DERIVED = FLAGS + ("n_star", "re_main_pole", "kappa_main", "main_residue", "main_residue_phase",
                   "off_resonant_shift", "complex_residue_shift", "multi_pole_shift",
                   "closure_residual", "delta_at_min", "gamma_at_min")


def init_fields(rep) -> dict:
    return {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep) if f.init}


@pytest.mark.parametrize("name", DERIVED)
def test_report_takes_no_derived_value(name):
    # N*, the main-pole metrics, shifts and flags follow from the measured
    # inputs and thresholds; none can be passed in, not even its own value
    rep = classified(4.0)
    assert {f.name for f in dataclasses.fields(rep) if not f.init} == set(DERIVED)
    given = {k: v for k, v in init_fields(rep).items() if k != name}
    assert cf.ClassificationReport(**init_fields(rep)) == rep
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        cf.ClassificationReport(**{**given, name: getattr(rep, name)})


def test_report_flags_follow_each_threshold():
    # the single-mode n = 20 report with one measured input pushed past its
    # threshold sets that flag alone and clears single_mode
    rep = classified(20.0)
    th, pole = rep.thresholds, rep.main_pole
    assert rep.flags() == {"single_mode": True, "off_resonant_mm": False,
                           "complex_residue_mm": False, "multi_pole_mm": False}
    rotated = qnm.Pole(pole.omega_pole,
                       abs(pole.residue) * np.exp(1.01j * th.residue_phase_tol))
    errors = rep.convergence_errors
    assert len(errors) >= 2 and errors[1] < th.convergence_tol
    for flag, past in (("multi_pole_mm",
                        {"convergence_errors": [1.01 * th.convergence_tol] + errors[1:]}),
                       ("complex_residue_mm", {"main_pole": rotated}),
                       ("off_resonant_mm",
                        {"omega_min": rep.re_main_pole
                         - 1.01 * th.shift_tol * rep.kappa_main})):
        flags = cf.ClassificationReport(**{**init_fields(rep), **past}).flags()
        assert flags == {k: k == flag for k in FLAGS}, flag


def test_report_refuses_an_unmet_error_table():
    # an error table no N-mode sum of which meets the tolerance has no N*:
    # the report is refused with the table as payload
    rep = classified(20.0)
    unmet = [1.01 * rep.thresholds.convergence_tol] * len(rep.convergence_errors)
    with pytest.raises(RegionTooSmallError, match=f"unreachable with {len(unmet)} modes of "
                                                  f"{rep.n_poles_region} poles") as info:
        cf.ClassificationReport(**{**init_fields(rep), "convergence_errors": unmet})
    assert info.value.errors == unmet


@pytest.mark.parametrize("name", ["residue_phase_tol", "convergence_tol", "shift_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.05])
def test_thresholds_refuse_a_tolerance_not_finite_and_positive(name, value):
    # NaN passed the old check min(...) <= 0 and then cleared the flag it set
    with pytest.raises(ValueError, match="finite numbers > 0"):
        cf.Thresholds(**{name: value})


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


def test_no_poles_in_a_given_region():
    # a region between the first two modes of n = 20 holds no pole
    region = qnm.ScanRegion(1.4 * np.pi, 1.6 * np.pi, 0.01)
    with pytest.raises(AmbiguityError, match="^no poles found in the scan region$") as info:
        cf.classify(fp_problem(20.0), region=region)
    assert info.value.candidates == ()


def test_no_dip_near_the_emitter():
    # the emitter at 0.45 pi: the n = 20 dips over (0.25, 3.4) omega_a lie
    # outside (0.55, 1.55) omega_a, and the error carries them all
    stack = fp_problem(20.0).stack
    problem = ly.WaveProblem(dataclasses.replace(
        stack, emitter=dataclasses.replace(stack.emitter, omega_a=0.45 * np.pi)))
    with pytest.raises(AmbiguityError, match="no reflectance minimum near the fundamental"
                       ) as info:
        cf.classify(problem)
    omega_a = problem.emitter.omega_a
    dips = cf._reflectance_dips(problem, (0.25 * omega_a, 3.4 * omega_a))
    assert info.value.candidates == dips and len(dips) == 2
    assert not any(0.55 * omega_a <= d <= 1.55 * omega_a for d in dips)
    # free space (n = 1) has no dip at all and takes the same path
    with pytest.raises(AmbiguityError, match="no reflectance minimum near the fundamental"
                       ) as info:
        cf.classify(fp_problem(1.0))
    assert info.value.candidates == []


@pytest.mark.parametrize("n_mirror", [20.0, 4.0])
def test_report_thresholds_reproduce_at_normal_incidence(n_mirror):
    # the report echoes its window; given back at k_par = 0, the window is
    # certified as given and the default region is centred on the probed dip
    rep = cf.classify(fp_problem(n_mirror))
    again = cf.classify(fp_problem(n_mirror), thresholds=rep.thresholds)
    assert again.to_dict() == rep.to_dict()


# ---------------------------------------------------------------------------
# region growth on lossy mirrors
# ---------------------------------------------------------------------------

# growing cases: the growths classify makes, and the problem, given the X-ray table
GROWING = {
    "lossy-3+1i": (1, lambda table: lossy_problem(3.0 + 1.0j)),
    "bragg-3.5-5": (2, lambda table: bragg_problem(3.5, 5)),
    "general-1-55": (2, lambda table: general_stacks(1)[55]),
    # its third region holds the main pole next to two zeros of the witness,
    # found since lone zeros are refined instead of gated (four regions
    # when the gate dropped that pole)
    "xray-3": (2, lambda table: cf.xray_problem(table, 3)),
}


def _outcome(problem, **kwargs):
    """The certificate's JSON and thresholds, or the error's type and message."""
    try:
        rep = cf.classify(problem, **kwargs)
    except ModeCertError as exc:
        return (type(exc), str(exc)), kwargs.get("thresholds", cf.Thresholds())
    return rep.to_json(), rep.thresholds


@pytest.mark.parametrize("case", GROWING)
def test_growth_path_independent(monkeypatch, material_table, case):
    # each grown region is searched from scratch, so growing into a region
    # gives the certificate of searching it at once, to the byte
    growths, make = GROWING[case]
    problem = make(material_table)
    built = _expansion_spy(monkeypatch)
    grown, thresholds = _outcome(problem)
    assert len(built) == growths + 1
    direct, _ = _outcome(problem, region=built[-1].region, thresholds=thresholds)
    assert direct == grown


def test_region_too_small_after_the_last_growth(monkeypatch):
    # a tolerance no region of n = 4 meets: classify grows the default region
    # _MAX_REGION_GROWTH times and then raises with the last table, one error
    # per mode, naming its modes and its poles
    built = _expansion_spy(monkeypatch)
    with pytest.raises(RegionTooSmallError) as info:
        cf.classify(fp_problem(4.0), thresholds=cf.Thresholds(convergence_tol=1e-6))
    assert len(built) == cf._MAX_REGION_GROWTH + 1 == 5
    last = built[-1]
    assert len(info.value.errors) == len(last.modes) == 33
    assert min(info.value.errors) >= 1e-6
    assert str(info.value).startswith(
        f"tolerance 1e-06 unreachable with 33 modes of {len(last.poles)} poles")
    assert len(last.poles) == 65
    assert info.value.region == last.region


def test_growth_length_scaling():
    # L -> sL, omega -> omega/s: same certificate in units of 1/L, on a lossy
    # stack that grows its region and on Fabry-Perot stacks whose poles come
    # in mirror pairs -Re p + i Im p
    scaled = [(lossy_problem(3.0 + 1.0j, 1.0), lossy_problem(3.0 + 1.0j, 2.0), 2.0)]
    for n_mirror in (4.0, 9.25, 20.0):
        for s in (0.3, 7.0):
            scaled.append((fp_problem(n_mirror),
                           ly.WaveProblem(ly.build_fabry_perot(s, n_mirror)), s))
    for problem, copy, s in scaled:
        rep1, rep2 = cf.classify(problem), cf.classify(copy)
        assert rep1.flags() == rep2.flags()
        assert rep1.n_star == rep2.n_star
        assert rep1.n_poles_region == rep2.n_poles_region
        for key in ("omega_min", "omega_a_zero", "re_main_pole", "kappa_main"):
            a, b = getattr(rep1, key), s * getattr(rep2, key)
            assert abs(a - b) < 1e-9 * abs(a), (key, s)


def _kernel_work(monkeypatch, certify):
    """Kernel calls and the points they carry while ``certify()`` runs."""
    points = []
    kernel = wt.green_function

    def counted(*args, **kwargs):
        points.append(np.size(args[3]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(wt, "green_function", counted)
    result = certify()
    return len(points), sum(points), result


# the window is sampled once per certificate, on its 2001-point grid, which
# the Delta-zero search reads instead of a 2001-point resample (the three
# samplings of the window cost 4002 points more per certificate)

def test_growth_call_budget(monkeypatch):
    # the anchored sums converge on the default region of lossy 8+0.5i: one
    # build and no growth, 26 kernel calls with boxes cut in quarters (32
    # with halves, 59 with the Newton runs of every level, 90 with one
    # search call per box)
    built = _expansion_spy(monkeypatch)
    n_calls, n_points, rep = _kernel_work(
        monkeypatch, lambda: cf.classify(lossy_problem(8.0 + 0.5j)))
    assert len(built) == 1
    assert rep.n_poles_region == 5
    assert n_calls <= 26
    assert n_points <= 9600     # 9560 with quarters, 5161 with halves; one
                                # more sampling of the window is 11561
    # lossy 3+1i grows once and searches its grown region from scratch: 29
    # calls (43 with halves, 35 when the growth searched only the strips it
    # added)
    built.clear()
    n_calls, n_points, rep = _kernel_work(
        monkeypatch, lambda: cf.classify(lossy_problem(3.0 + 1.0j)))
    assert len(built) == 2
    assert n_calls <= 29
    assert n_points <= 10608    # 8244 searching the added strips only


def test_fabry_perot_call_budget(monkeypatch):
    # n = 4: 11 kernel calls with boxes cut in quarters and the Delta zero
    # polished in one call (16 with halves and brentq, 35 with the Newton
    # runs of every level, 47 searching the whole region, 82 with one search
    # call per box)
    n_calls, n_points, rep = _kernel_work(monkeypatch, lambda: cf.classify(fp_problem(4.0)))
    assert rep.n_star >= 2
    assert n_calls <= 11
    assert n_points <= 3760     # 5100 searching the whole region, 9099 with
                                # three samplings of the window


def _full_search(monkeypatch):
    """Make classify search the whole region, mirroring nothing."""
    build = qnm.build_expansion
    monkeypatch.setattr(cf, "build_expansion",
                        lambda f, region, mirror=False: build(f, region))


def test_mirrored_growth_from_given_region(monkeypatch):
    # a given region right of the imaginary axis grows across it, and the
    # mirrored search still covers every grown region as the full one does
    problem = fp_problem(4.0)
    _, first = cf._default_window_region(problem)
    region = qnm.ScanRegion(0.6 * np.pi, 1.5 * np.pi, first.depth)
    built = _expansion_spy(monkeypatch)
    half = cf.classify(problem, region=region)
    assert len(built) >= 3 and built[-1].region.omega_lo < 0.0
    _full_search(monkeypatch)
    full = cf.classify(problem, region=region)
    assert half.flags() == full.flags()
    assert half.n_star == full.n_star
    assert half.n_poles_region == full.n_poles_region


@pytest.mark.parametrize("n_mirror", [4.0, 5.0, 6.0, 8.0, 12.0, 20.0])
def test_mirrored_classify_matches_full_search(monkeypatch, n_mirror):
    # the shipped sweep: the mirrored half search certifies as the full one
    problem = fp_problem(n_mirror)
    assert problem.conjugate_symmetric
    half = cf.classify(problem)
    _full_search(monkeypatch)
    full = cf.classify(problem)
    assert half.flags() == full.flags()
    assert half.n_star == full.n_star
    assert half.n_poles_region == full.n_poles_region


def test_xray_call_budget(monkeypatch, material_table):
    # rocking minimum 6, certificate plus nuclear line: 44 kernel calls with
    # boxes cut in quarters and the Delta zero polished in one call (56 with
    # halves and brentq, 116 with the Newton runs of every level, 118 with
    # 801-point grids per tried window fraction, 235 with one search call
    # per box)
    problem = cf.xray_problem(material_table, 6)
    n_calls, n_points, (rep, _) = _kernel_work(
        monkeypatch, lambda: (cf.classify(problem), cf.nuclear_spectrum(problem, 40.0)))
    assert rep.n_star >= 2
    assert n_calls <= 44
    assert n_points <= 24000    # 22588 with quarters, 23632 with halves


@pytest.mark.parametrize("xray", [False, True], ids=["fp4", "xray6"])
def test_one_newton_batch_per_search(monkeypatch, material_table, xray):
    # every Newton run of a search waits for one batch, none runs level by
    # level; only the children of a box whose run is rejected wait for a
    # later one.  On minimum 6 that is one W = -1 box, whose zero sits next
    # to a pole and a second zero: its children hold two zeros and a pole
    problem = cf.xray_problem(material_table, 6) if xray else fp_problem(4.0)
    searches = []   # per search, per batch: starts, windings, boxes it rejects
    cutting = []    # the rejected-box list of the last batch, until it is sampled
    find_poles, newton, split, moments = (qnm.find_poles, qnm._newton, qnm._split,
                                          qnm._resolved_moments)

    def searched(*args, **kwargs):
        searches.append([])
        return find_poles(*args, **kwargs)

    def batch(f, starts, scales, windings=1):
        searches[-1].append((list(starts), list(np.broadcast_to(windings, len(starts))), []))
        cutting[:] = [searches[-1][-1][2]]
        return newton(f, starts, scales, windings)

    def cut(box):
        # the boxes cut between a batch and the next moments call are the
        # ones whose runs it rejected
        for rejected in cutting:
            rejected.append(box)
        return split(box)

    def sampled(f, boxes):
        cutting.clear()
        return moments(f, boxes)

    monkeypatch.setattr(qnm, "find_poles", searched)
    monkeypatch.setattr(qnm, "_newton", batch)
    monkeypatch.setattr(qnm, "_split", cut)
    monkeypatch.setattr(qnm, "_resolved_moments", sampled)
    rep = cf.classify(problem)
    assert searches and rep.n_poles_region >= 2
    if not xray:
        assert all(len(runs) == 1 and len(runs[0][0]) >= 1 for runs in searches)
        return
    [[(starts, windings, [rejected]), (later, later_windings, [])]] = searches
    assert (len(starts), windings.count(-1)) == (21, 10)
    # the one rejected run is a W = -1 one, and the later batch, which
    # rejects none, holds only starts in its box
    assert [w for z, w in zip(starts, windings) if qnm._inside(z, rejected)] == [-1]
    assert sorted(later_windings) == [-1, -1, 1]
    assert all(qnm._inside(z, rejected) for z in later)


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
    _, region = cf._default_window_region(problem)
    exp = qnm.build_expansion(functools.partial(wt.levshift_exact, problem), region)
    negative = [p for p in exp.poles if p.omega_pole.real < 0]
    assert len(negative) == 3
    assert all(len(mode) == 1 for mode in exp.modes)
    assert {head.omega_pole for head, in exp.modes} == {p.omega_pole for p in exp.poles}


def test_problem_without_emitter_is_a_failed_row():
    # a stack without an emitter has no witness: a typed error, recorded as
    # its own row after the certified one
    bare = ly.WaveProblem(ly.LayerStack(ly.VACUUM, ((ly.VACUUM, 1.0),), ly.VACUUM))
    with pytest.raises(ConfigurationError, match="no emitter"):
        wt.levshift_exact(bare, 1.0)
    (n4, rep), (n0, err) = cf.classify_rows([(4.0, fp_problem(4.0)), (0.0, bare)])
    assert (n4, n0) == (4.0, 0.0)
    assert rep.to_json() == classified(4.0).to_json()
    assert isinstance(err, ConfigurationError) and str(err) == "no emitter on the stack"


def test_emitter_below_the_light_line_rejected():
    # at k_par > omega_a no region lies between the branch point and omega_a
    stack = lossy_problem(8.0 + 0.5j).stack
    with pytest.raises(ConfigurationError, match="branch point"):
        cf.classify(ly.WaveProblem(stack, k_par=4.0))


def test_negative_k_par_is_the_same_problem():
    # k_z reads k_par^2 only: a Fabry-Perot-like stack at k_par = -0.5 has its
    # branch point at +0.5, so its default region stays right of it and it
    # certifies as at +0.5; a given region left of it is refused at either sign
    stack = fp_problem(6.0).stack
    plus, minus = (ly.WaveProblem(stack, k_par=k) for k in (0.5, -0.5))
    assert cf._branch_point(minus) == cf._branch_point(plus) == 0.5
    assert cf.classify(minus).to_json() == cf.classify(plus).to_json()
    with pytest.raises(ConfigurationError, match="branch point 0.5"):
        cf.check_region(minus, qnm.ScanRegion(0.3, 5.0, 1.0))


def test_text_marks_decisions_near_threshold():
    # lossy 8+1i certifies N* = 2; its 1-mode sum misses the 0.05 tolerance
    # by 4%, so the decision for N* > 1 is marked with the table's own ratio
    near = "within 5% of threshold"
    rep = cf.classify(lossy_problem(8.0 + 1.0j))
    marked = [line for line in rep.to_text().splitlines() if near in line]
    assert len(marked) == 1 and marked[0].split()[0] == "err(N*-1)/tol"
    ratio = rep.convergence_errors[rep.n_star - 2] / rep.thresholds.convergence_tol
    assert abs(ratio - 1.0) < 0.05 and f"= {ratio:.4g}  <-" in marked[0]
    text = classified(20.0).to_text()
    assert "err(N*)/tol" in text and near not in text


# ---------------------------------------------------------------------------
# general stacks: asymmetric, several layers per mirror, off-centre emitter
# ---------------------------------------------------------------------------

def _certified(problem):
    """The report of ``problem``, or None when it fails with a typed error."""
    try:
        return cf.classify(problem)
    except ModeCertError:
        return None


@pytest.fixture(scope="module")
def general_certificates():
    """(problem, report or None, last expansion or None) of the 120 general stacks.

    Any exception but a ModeCertError, or a RuntimeWarning, while they
    certify fails every test that uses them.
    """
    out = []
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        built = _expansion_spy(mp)
        for problem in (p for seed in (0, 1) for p in general_stacks(seed)):
            built.clear()
            out.append((problem, _certified(problem), built[-1] if built else None))
    return out


def test_general_stacks_certify_or_raise_typed(general_certificates):
    # every stack certifies or raises a ModeCertError (any other exception or
    # RuntimeWarning fails the test); the certified share is pinned at the 86
    # of 120 measured when the bound was set
    assert sum(rep is not None for _, rep, _ in general_certificates) >= 86


# seed 1, stack 21: the one pole that halves miss.  Their box (-8.0352,
# -7.4613) x (-0.6661, 0) holds P, a zero 1.9e-3 from it and the pole
# Q = -7.5013 - 0.1066j; it reads W = 1 and the moments of one point, Newton
# lands on Q, and the moment mismatch (about 1.9e-3) is under the one-point
# match tolerance (2.6e-3), so P is lost
_HALVES_MISS = (1, 21, -7.991830 - 0.031006j)


def test_general_stacks_pole_sets_tiling_free(general_certificates):
    # where a pole search's cuts fall has no physics in it: over the final
    # region of every certificate, boxes cut in quarters and in halves find
    # the same poles, but for the one known miss of halves, pinned exactly
    checked = 0
    for n, (problem, rep, expansion) in enumerate(general_certificates):
        if rep is None:
            continue
        region = qnm._searched(expansion.region, problem.conjugate_symmetric)
        quarters, halves = pole_sets_by_tiling(functools.partial(wt.levshift_exact, problem),
                                               region)
        if divmod(n, 60) == _HALVES_MISS[:2]:   # (seed, stack)
            missed = np.abs(quarters - _HALVES_MISS[2]) < 1e-6
            assert np.sum(missed) == 1
            quarters = quarters[~missed]
        assert quarters.shape == halves.shape
        assert np.max(np.abs(quarters - halves)) < 1e-9 * region.width
        checked += 1
    assert checked >= 86


def test_general_stacks_ring_clear_of_poles_above_axis(general_certificates):
    # seed 1, stacks 21 and 31 have poles above the real axis at Re z < 0,
    # where their constant complex indices give gain; a ring that crossed the
    # axis enclosed one of them.  Kept below it, both certify, and the main
    # pole and residue match an AAA fit to the certificate's own curve
    for k in (21, 31):
        _, rep, _ = general_certificates[60 + k]
        pole, kappa = rep.main_pole.omega_pole, rep.kappa_main
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fit = AAA((rep.curve.omega - pole.real) / kappa, rep.curve.delta, rtol=1e-12)
        poles = pole.real + kappa * fit.poles()
        i = int(np.argmin(np.abs(poles - pole)))
        assert abs(poles[i] - pole) < 1e-8 * kappa
        assert abs(kappa * fit.residues()[i] - rep.main_pole.residue) < 1e-7 * abs(
            rep.main_pole.residue)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n_mirror=st.floats(4.0, 20.0), scale=st.floats(0.25, 8.0))
def test_fabry_perot_scale_invariant(n_mirror, scale):
    # L -> sL on the Fabry-Perot builder: flags and N* stay, and every
    # frequency of the certificate scales as 1/s
    rep = cf.classify(fp_problem(n_mirror))
    again = cf.classify(ly.WaveProblem(ly.build_fabry_perot(scale, n_mirror)))
    assert again.flags() == rep.flags() and again.n_star == rep.n_star
    for key in ("omega_min", "omega_a_zero", "re_main_pole", "kappa_main"):
        assert getattr(again, key) * scale == pytest.approx(getattr(rep, key), rel=1e-9)


@pytest.mark.parametrize("scale", [0.5, 4.0])
def test_general_stacks_scale_invariant(scale):
    # L -> sL: the window rule holds no length, so flags and N* stay and every
    # frequency of the certificate scales as 1/s
    checked = 0
    for base, scaled in zip(general_stacks(0, 20), general_stacks(0, 20, scale)):
        rep = _certified(base)
        if rep is None:
            continue
        again = cf.classify(scaled)
        assert again.flags() == rep.flags() and again.n_star == rep.n_star
        for key in ("omega_min", "omega_a_zero", "re_main_pole", "kappa_main"):
            assert getattr(again, key) * scale == pytest.approx(getattr(rep, key), rel=1e-9)
        checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# mirror-index scan
# ---------------------------------------------------------------------------

def test_classify_rows():
    rows = cf.classify_rows([(n, fp_problem(n)) for n in (20.0, 1.0, 4.0)])
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
    problem = cf.xray_problem(material_table, 4)
    rep, (omega, r_total) = cf.classify(problem), cf.nuclear_spectrum(problem, 40.0)
    assert rep.off_resonant_mm
    assert rep.delta_at_min < 0
    assert r_total.shape == omega.shape == (801,)
    # critically coupled minimum: the nuclear line stands on a dark background
    r_cav = ly.reflection(problem, omega[:1])
    assert np.max(np.abs(r_total) ** 2) > 10 * np.abs(r_cav[0]) ** 2


def test_xray_report_thresholds_reproduce(material_table):
    # report.json echoes the energy window it certified, so classify on the
    # same problem with the thresholds read back from it gives the report
    problem = cf.xray_problem(material_table, 4)
    rep = cf.classify(problem)
    assert rep.thresholds.window is not None
    echoed = json.loads(rep.to_json())["thresholds"]
    again = cf.classify(problem, thresholds=cf.Thresholds(**echoed))
    assert again.to_dict() == rep.to_dict()


def test_xray_given_window_reproduces_report(material_table, monkeypatch):
    # a given window is certified as it is: no dip scan, no fraction search
    problem = cf.xray_problem(material_table, 4)
    rep = cf.classify(problem)

    def no_scan(*args, **kwargs):
        raise AssertionError("dips scanned although a window was given")

    monkeypatch.setattr(cf, "_reflectance_dips", no_scan)
    again = cf.classify(problem, thresholds=rep.thresholds)
    assert again.to_dict() == rep.to_dict()


@pytest.mark.parametrize("mode_index,n_curves", [(4, 1), (6, 2)])
def test_xray_window_from_one_sampling(material_table, monkeypatch, mode_index, n_curves):
    # classify picks the grazing-incidence window of the bare problem from
    # its own witness curve: one curve (two on minimum 6, whose widest window
    # fraction brackets two Delta zeros), and no window grid of its own; the
    # pole search's arrays, inside build_expansion, are not window grids, and
    # the one other array is the 9-node Delta-zero polish in one grid cell
    curves, arrays, searching = [], [], []
    curve_fn, exact_fn, expansion_fn = cf.levshift_curve, cf.levshift_exact, cf.build_expansion

    def curve_spy(problem, window, **kwargs):
        curves.append(window)
        return curve_fn(problem, window, **kwargs)

    def exact_spy(problem, omega):
        if np.ndim(omega) and not searching:
            arrays.append(np.asarray(omega))
        return exact_fn(problem, omega)

    def expansion_spy(*args, **kwargs):
        searching.append(True)
        try:
            return expansion_fn(*args, **kwargs)
        finally:
            searching.pop()

    monkeypatch.setattr(cf, "levshift_curve", curve_spy)
    monkeypatch.setattr(cf, "levshift_exact", exact_spy)
    monkeypatch.setattr(cf, "build_expansion", expansion_spy)
    theta = cf.xray_angle_minima(material_table)[mode_index - 1]
    rep = cf.classify(ly.build_xray_cavity(material_table, theta))
    assert len(curves) == n_curves
    assert curves[-1] == rep.thresholds.window
    assert curves[-1][0] < rep.omega_a_zero < curves[-1][1]
    [polish] = arrays
    lo, hi = curves[-1]
    assert polish.size == 9 and np.ptp(polish) <= 1.001 * (hi - lo) / 2000


@pytest.mark.parametrize("case", ["fp4", "lossy8+0.5i", "xray6"])
def test_window_has_one_grid(monkeypatch, material_table, case):
    # the witness curve is the window's uniform 2001-point grid, evaluated in
    # one kernel call, and the reflectance scan of omega_min reads that grid
    problem = {"fp4": lambda: fp_problem(4.0), "lossy8+0.5i": lambda: lossy_problem(8.0 + 0.5j),
               "xray6": lambda: cf.xray_problem(material_table, 6)}[case]()
    calls, curves = [], []
    kernel, curve_fn = wt.green_function, cf.levshift_curve

    def kernel_spy(*args, **kwargs):
        calls.append(np.size(args[3]))
        return kernel(*args, **kwargs)

    def curve_spy(*args, **kwargs):
        before = len(calls)
        curves.append(curve_fn(*args, **kwargs))
        assert calls[before:] == [2001]
        return curves[-1]

    monkeypatch.setattr(wt, "green_function", kernel_spy)
    monkeypatch.setattr(cf, "levshift_curve", curve_spy)
    rep = cf.classify(problem)
    grid = np.linspace(*rep.thresholds.window, 2001)
    assert curves[-1] is rep.curve
    assert np.array_equal(rep.curve.omega, grid)
    assert np.array_equal(rep.reflectance[0], grid)


@pytest.mark.parametrize("mode_index", [8, 10, 11])
def test_xray_far_minima_certify(material_table, mode_index):
    # minima far from omega = 0: their pole sets are complete only when every
    # pole-search gate is read in units of its own box, not of |omega|
    rep = cf.classify(cf.xray_problem(material_table, mode_index))
    assert rep.multi_pole_mm
    assert rep.multi_pole_mm == (rep.n_star > 1)


def test_xray_no_single_zero_window(material_table):
    # minimum 9: no fraction of the local dip gaps brackets one Delta zero;
    # the error carries every window of the family, nested widest first,
    # and the Delta sign changes the witness curve shows in each
    problem = cf.xray_problem(material_table, 9)
    with pytest.raises(AmbiguityError, match="^no candidate window brackets a single Delta "
                                             "zero$") as info:
        cf.classify(problem)
    windows, counts = info.value.candidates, info.value.zero_counts
    assert windows == cf._default_window_region(problem)[0] and len(windows) == 9
    assert all(a[0] < b[0] < b[1] < a[1] for a, b in zip(windows, windows[1:]))
    curve = cf.levshift_curve(problem, windows[0], n=2001)
    sign = np.sign(curve.Delta)
    assert np.all(sign != 0)
    inside = [(curve.omega >= lo) & (curve.omega <= hi) for lo, hi in windows]
    assert counts == [int(np.count_nonzero(np.diff(sign[i]))) for i in inside]
    assert counts == [0] * 9


def test_xray_mode6_report(material_table):
    rep = cf.classify(cf.xray_problem(material_table, 6))
    assert rep.complex_residue_mm and rep.multi_pole_mm
    assert rep.delta_at_min > 0
    assert abs(rep.main_residue_phase) > 0.3


def test_xray_sign_inversion(material_table):
    rep4 = cf.classify(cf.xray_problem(material_table, 4))
    rep6 = cf.classify(cf.xray_problem(material_table, 6))
    assert np.sign(rep4.delta_at_min) != np.sign(rep6.delta_at_min)


def test_xray_too_few_minima(material_table):
    # mode_index counts the 11 minima from 1; 0 and -1 must not index from
    # the end, and 2.5 must not be truncated to 2
    for mode_index in (40, 0, -1, 2.5):
        with pytest.raises(ConfigurationError, match=r"one of the 11 reflectance minima 1\.\.11, "
                                                     f"not {mode_index}$"):
            cf.xray_problem(material_table, mode_index)


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
    omega_bp = cf._branch_point(problem)
    e_off = ly.OMEGA_NUC_KEV - omega_bp
    d = np.real(cf.levshift_exact(problem, ly.OMEGA_NUC_KEV))
    # non-zero Lamb shift at the rocking minimum (off-resonant displacement)
    assert abs(d) > 0.05 * emitter.gamma
