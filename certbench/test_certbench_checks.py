"""The benchmark's own checks: the oracle is right and every check rejects
a corrupted output.

Run with the package sources importable, e.g.
``PYTHONPATH=src python -m pytest certbench``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import oracle as orc
from cases import Case, lossy_scenario
from modecert import cli

TABLE = Path(cli.__file__).parent / "data" / "xray_materials.json"


def _run(tmp_path_factory, name, scenario, command):
    out = tmp_path_factory.mktemp(name)
    assert cli.run(cli.parse_scenario(scenario), command=command, out_dir=str(out)) == 0
    return out


@pytest.fixture(scope="module")
def fp_case(tmp_path_factory):
    case = Case("fp20", "classify",
                {"version": 1, "kind": "fabry_perot", "fabry_perot": {"L": 1.0, "n_mirror": 20.0}},
                {"n_mirror": 20.0, "L": 1.0})
    return case, _run(tmp_path_factory, "fp20", case.scenario, case.command)


@pytest.fixture(scope="module")
def pfm_out(tmp_path_factory):
    scenario = {"version": 1, "kind": "synthetic_pfm",
                "synthetic_pfm": {"n_modes": 4, "seed": 3, "n_freq": 50}}
    return _run(tmp_path_factory, "pfm", scenario, "pfm-check")


def _report(out):
    return json.loads((out / "report.json").read_text())


# ---------------------------------------------------------------------------
# oracle against closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k_par", [0.0, 1.3])
def test_oracle_free_space(k_par):
    stack = orc.Stack(1.0, ((1.0, 0.4), (1.0, 0.7)), 1.0, 0.5, 2.0, k_par=k_par)
    om = np.array([2.1, 3.7 - 0.4j, 5.0 - 1.5j])
    assert np.max(np.abs(orc.reflection(stack, om))) < 1e-14
    assert np.max(np.abs(orc.witness(stack, om) + 1j)) < 1e-13   # -i gamma / 2


@pytest.mark.parametrize("n2", [1.5, 3.0 + 0.2j, 0.99998 + 1e-6j])
@pytest.mark.parametrize("k_par", [0.0, 0.8])
def test_oracle_fresnel_single_interface(n2, k_par):
    om = np.linspace(1.0, 4.0, 7)
    k0 = np.sqrt(om * om - k_par ** 2 + 0j)
    k2 = np.sqrt(n2 * n2 * om * om - k_par ** 2 + 0j)
    fresnel = (k0 - k2) / (k0 + k2)
    bare = orc.Stack(1.0, (), n2, 0.0, 1.0, k_par=k_par)
    assert np.max(np.abs(orc.reflection(bare, om) - fresnel)) < 1e-14
    # a vacuum spacer of thickness d only adds the round-trip phase
    d = 0.37
    spaced = orc.Stack(1.0, ((1.0, d),), n2, 0.1, 1.0, k_par=k_par)
    assert np.max(np.abs(orc.reflection(spaced, om) - fresnel * np.exp(2j * k0 * d))) < 1e-13


def test_oracle_angle_scan_matches_pointwise():
    table = orc.load_xray_table(TABLE)
    th = np.radians([0.1, 0.2, 0.4])
    scan = orc.reflectance_vs_angle(orc.xray_cavity(table, 0.0), orc.OMEGA_NUC_KEV, th)
    for t, r2 in zip(th, scan):
        one = orc.xray_cavity(table, t)
        assert abs(abs(orc.reflection(one, orc.OMEGA_NUC_KEV)) ** 2 - r2) < 1e-14


# ---------------------------------------------------------------------------
# genuine outputs pass, corrupted ones fail
# ---------------------------------------------------------------------------

def test_genuine_outputs_pass(fp_case, pfm_out):
    case, out = fp_case
    rep = checks.check_case(case, out)
    assert rep["flags"]["single_mode"]
    checks.check_case(Case("pfm", "pfm-check", {}, {"n_modes": 4}), pfm_out)


@pytest.mark.parametrize("key,shift", [("re_main_pole", 1e-3), ("kappa_main", 2e-3)])
def test_moved_pole_rejected(fp_case, key, shift):
    rep = _report(fp_case[1])
    rep["metrics"][key] += shift * rep["metrics"]["kappa_main"]
    with pytest.raises(checks.CheckError, match="main pole"):
        checks.check_main_pole(rep, orc.fabry_perot(1.0, 20.0))


def test_changed_residue_rejected(fp_case):
    rep = _report(fp_case[1])
    rep["metrics"]["main_residue_im"] += 1e-3 * rep["metrics"]["main_residue_re"]
    with pytest.raises(checks.CheckError, match="main residue"):
        checks.check_main_pole(rep, orc.fabry_perot(1.0, 20.0))


@pytest.mark.parametrize("flag", ["single_mode", "off_resonant_mm",
                                  "complex_residue_mm", "multi_pole_mm"])
def test_flipped_flag_rejected(fp_case, flag):
    rep = _report(fp_case[1])
    rep["flags"][flag] = not rep["flags"][flag]
    with pytest.raises(checks.CheckError, match=flag):
        checks.check_report_flags(rep)


def test_larger_n_star_rejected(fp_case):
    rep = _report(fp_case[1])
    rep["metrics"]["n_star"] += 1
    with pytest.raises(checks.CheckError, match="n_star"):
        checks.check_report_flags(rep)


def test_moved_features_rejected(fp_case):
    stack = orc.fabry_perot(1.0, 20.0)
    for key in ("omega_min", "omega_a_zero"):
        rep = _report(fp_case[1])
        rep["metrics"][key] += 1e-3 * rep["metrics"]["kappa_main"]
        with pytest.raises(checks.CheckError, match=key):
            checks.check_report_features(rep, stack)


@pytest.mark.parametrize("name,check", [("reflectance.csv", checks.check_reflectance_csv),
                                        ("levelshift.csv", checks.check_levelshift_csv)])
def test_edited_csv_row_rejected(fp_case, name, check):
    lines = (fp_case[1] / name).read_text().splitlines()
    row = lines[1000].split(",")
    row[1] = repr(checks._number(row[1]) * (1.0 + 1e-6))
    lines[1000] = ",".join(row)
    with pytest.raises(checks.CheckError, match="rows"):
        check("\n".join(lines) + "\n", orc.fabry_perot(1.0, 20.0))


def test_wrong_manifest_hash_rejected(fp_case, tmp_path):
    out = fp_case[1]
    for p in out.iterdir():
        (tmp_path / p.name).write_bytes(p.read_bytes())
    checks.check_manifest(tmp_path)
    entries = json.loads((tmp_path / "manifest.json").read_text())
    entries[0]["sha256"] = "0" * 64
    (tmp_path / "manifest.json").write_text(json.dumps(entries))
    with pytest.raises(checks.CheckError, match="sha256"):
        checks.check_manifest(tmp_path)


def test_unlisted_artifact_rejected(fp_case, tmp_path):
    for p in fp_case[1].iterdir():
        (tmp_path / p.name).write_bytes(p.read_bytes())
    (tmp_path / "error.txt").write_text("AccuracyError: stale\n")
    with pytest.raises(checks.CheckError, match="manifest lists"):
        checks.check_manifest(tmp_path)


def test_moved_pfm_pole_rejected(pfm_out):
    res = json.loads((pfm_out / "pfm_check.json").read_text())
    res["poles"][0]["re"] += 1e-6
    with pytest.raises(checks.CheckError, match="direct solve"):
        checks.check_pfm((pfm_out / "pfm_model.json").read_text(), json.dumps(res), 4)


def test_scaled_copy_and_sign_flip_checks(fp_case):
    rep = _report(fp_case[1])
    copy = json.loads(json.dumps(rep))
    for k in ("omega_min", "omega_a_zero", "re_main_pole", "kappa_main"):
        copy["metrics"][k] = rep["metrics"][k] / 2.0
    checks.check_scaled_copy(rep, copy, 2.0)
    copy["metrics"]["omega_min"] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckError, match="omega_min"):
        checks.check_scaled_copy(rep, copy, 2.0)
    flipped = json.loads(json.dumps(rep))
    flipped["metrics"]["delta_at_min"] = -rep["metrics"]["delta_at_min"]
    checks.check_sign_flip(rep, flipped)
    with pytest.raises(checks.CheckError, match="sign"):
        checks.check_sign_flip(rep, rep)


def test_lossy_scenario_matches_builder_geometry():
    scn = lossy_scenario(complex(8.0, 0.5), 2.0)["custom_stack"]
    stack = orc.fabry_perot(2.0, complex(8.0, 0.5))
    assert [l["thickness"] for l in scn["layers"]] == [d for _, d in stack.layers]
    assert math.isclose(scn["emitter"]["x_a"], stack.x_a)
