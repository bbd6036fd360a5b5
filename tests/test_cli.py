"""Scenario parsing, artifact runs, manifests and exit codes."""

import ast
import csv
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from modecert import certify, cli, layered as ly, witness
from modecert.errors import ConfigurationError
from modecert.qnm import ScanRegion

ROOT = Path(__file__).resolve().parents[1]

MINIMAL_FP = {"version": 1, "kind": "fabry_perot",
              "fabry_perot": {"L": 1.0, "n_mirror": 20.0}}
_MIRROR = {"name": "m", "n_re": 12.0}
MINIMAL_CUSTOM = {"version": 1, "kind": "custom_stack", "custom_stack": {
    "layers": [{"material": _MIRROR, "thickness": 0.01},
               {"material": {"name": "vac"}, "thickness": 1.0},
               {"material": _MIRROR, "thickness": 0.01}],
    "emitter": {"x_a": 0.51, "omega_a": np.pi, "gamma": 1.0}}}
MINIMAL = {"fabry_perot": MINIMAL_FP, "custom_stack": MINIMAL_CUSTOM,
           "xray": {"version": 1, "kind": "xray"},
           "synthetic_pfm": {"version": 1, "kind": "synthetic_pfm"}}
# the sections a scenario of each kind holds, and how many keys they set
WAVE_SECTIONS = ("scan", "region", "thresholds", "output")
KIND_SECTIONS = {"fabry_perot": ("fabry_perot",) + WAVE_SECTIONS,
                 "custom_stack": ("custom_stack",) + WAVE_SECTIONS,
                 "xray": ("xray",) + WAVE_SECTIONS,
                 "synthetic_pfm": ("synthetic_pfm", "output")}
SECTION_KEYS = {"fabry_perot": 12, "custom_stack": 14, "xray": 11, "synthetic_pfm": 4}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_defaults_echoed():
    scn = cli.parse_scenario(MINIMAL_FP)
    d = scn.to_dict()
    assert d["kind"] == "fabry_perot"
    assert d["fabry_perot"] == {"L": 1.0, "n_mirror": 20.0}
    assert d["region"] is None
    # a null /region is an absent one
    assert cli.parse_scenario({**MINIMAL_FP, "region": None}).to_dict() == d
    assert d["thresholds"]["residue_phase_tol"] == 0.05
    assert d["scan"]["n_mirror_values"] == cli.DEFAULT_SWEEP
    assert d["output"]["dir"] == "out"
    assert d["version"] == 1


def test_parse_defaults_are_the_dataclass_defaults():
    scn = cli.parse_scenario({**MINIMAL_FP,
                              "region": {"omega_lo": 1.0, "omega_hi": 2.0, "depth": 0.5}})
    assert scn.make_thresholds() == certify.Thresholds()
    assert scn.make_region() == ScanRegion(1.0, 2.0, 0.5)


def test_parse_roundtrip_identity():
    scn = cli.parse_scenario(MINIMAL_FP)
    again = cli.parse_scenario(scn.to_json())
    assert again.to_dict() == scn.to_dict()


def test_parse_unknown_key_rejected():
    bad = dict(MINIMAL_FP)
    bad["foo"] = 1
    with pytest.raises(ConfigurationError, match="foo"):
        cli.parse_scenario(bad)
    with pytest.raises(ConfigurationError, match="/scan"):
        cli.parse_scenario({**MINIMAL_FP, "scan": {"bogus": 3}})
    # the search rectangle's top edge is the real axis, not a setting
    region = {"omega_lo": 1.0, "omega_hi": 2.0, "depth": 0.5, "im_top": 0.0}
    with pytest.raises(ConfigurationError, match="unknown key 'im_top' at /region"):
        cli.parse_scenario({**MINIMAL_FP, "region": region})


@pytest.mark.parametrize("kind", list(MINIMAL))
def test_parse_kind_holds_only_its_sections(kind):
    region = {"omega_lo": 1.0, "omega_hi": 2.0, "depth": 0.5}
    given = {**MINIMAL[kind], **({"region": region} if "region" in KIND_SECTIONS[kind] else {})}
    echo = cli.parse_scenario(given).to_dict()
    assert set(echo) == {"version", "kind", *KIND_SECTIONS[kind]}
    assert sum(len(echo[name]) for name in KIND_SECTIONS[kind]) == SECTION_KEYS[kind]
    # a section of another kind is an unknown key like any other
    for other in {name for names in KIND_SECTIONS.values() for name in names} - set(echo):
        with pytest.raises(ConfigurationError, match=f"unknown key '{other}' at /$"):
            cli.parse_scenario({**MINIMAL[kind], other: {}})


@pytest.mark.parametrize("kind,key", [("custom_stack", "n_mirror_values"),
                                      ("xray", "n_mirror_values"), ("xray", "n_points")])
def test_parse_kind_holds_only_the_scan_keys_it_reads(kind, key):
    # sweep (fabry_perot only) reads n_mirror_values, spectrum (not on xray)
    # n_points; a kind holds only the scan keys its commands read
    with pytest.raises(ConfigurationError, match=f"unknown key '{key}' at /scan$"):
        cli.parse_scenario({**MINIMAL[kind], "scan": {key: "junk"}})


def test_parse_custom_stack_requires_layers_and_emitter():
    for key in ("layers", "emitter"):
        section = {k: v for k, v in MINIMAL_CUSTOM["custom_stack"].items() if k != key}
        with pytest.raises(ConfigurationError,
                           match=f"missing required key '{key}' at /custom_stack"):
            cli.parse_scenario({**MINIMAL_CUSTOM, "custom_stack": section})
    with pytest.raises(ConfigurationError, match="missing required key 'layers'"):
        cli.parse_scenario({"version": 1, "kind": "custom_stack"})


@pytest.mark.parametrize("path,key", [("/custom_stack/emitter", "gama"),
                                      ("/custom_stack/layers/1", "thicknes")])
def test_custom_stack_unknown_emitter_and_layer_keys(tmp_path, path, key):
    # a misspelt key next to the right one ran with the right one's value and
    # was echoed into scenario.json; like a material's, it stops the run at
    # its place
    scenario = json.loads(json.dumps(MINIMAL_CUSTOM))
    section = scenario["custom_stack"]
    node = section["emitter"] if key == "gama" else section["layers"][1]
    node[key] = 5.0
    with pytest.raises(ConfigurationError, match=f"unknown key '{key}' at {path}$"):
        cli._problem_from_scenario(cli.parse_scenario(scenario))
    file = tmp_path / "typo.json"
    file.write_text(json.dumps(scenario))
    out = tmp_path / "o"
    assert cli.main(["--scenario", str(file), "--out", str(out), "classify"]) == 1
    assert (out / "error.txt").read_text() == f"ConfigurationError: unknown key '{key}' at {path}\n"


def test_parse_version_mismatch():
    with pytest.raises(ConfigurationError, match="version"):
        cli.parse_scenario({**MINIMAL_FP, "version": 99})


def test_parse_unknown_kind():
    with pytest.raises(ConfigurationError, match="kind"):
        cli.parse_scenario({"version": 1, "kind": "doughnut"})


def test_parse_region_requires_bounds():
    with pytest.raises(ConfigurationError, match="omega_hi"):
        cli.parse_scenario({**MINIMAL_FP, "region": {"omega_lo": 1.0, "depth": 1.0}})


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _assert_float_fields(lines):
    # every data field of a numeric CSV parses as a plain float
    for line in lines[1:]:
        for field in line.split(","):
            float(field)


def _manifest(out_dir):
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_run_classify_fabry_perot(tmp_path):
    scn = cli.parse_scenario(MINIMAL_FP)
    code = cli.run(scn, command="classify", out_dir=tmp_path / "a")
    assert code == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["flags"]["single_mode"] is True
    entries = _manifest(tmp_path / "a")
    roles = {e["role"] for e in entries}
    assert {"report", "curve", "config"} <= roles
    # level-shift CSV has the stated header
    head = (tmp_path / "a" / "levelshift.csv").read_text().splitlines()[0]
    assert head == "omega,delta_re,delta_im,provenance"


def test_run_classify_curves_span_certified_window(tmp_path):
    # at L = 4 a fixed omega_min +- 0.5 would cover about 1.3 free spectral
    # ranges; the curves span the certified window that report.json echoes
    scn = cli.parse_scenario({"version": 1, "kind": "fabry_perot",
                              "fabry_perot": {"L": 4.0, "n_mirror": 20.0},
                              "scan": {"n_points": 401}})
    assert cli.run(scn, command="classify", out_dir=tmp_path / "w") == 0
    window = json.loads((tmp_path / "w" / "report.json").read_text())["thresholds"]["window"]
    for name in ("levelshift.csv", "reflectance.csv"):
        with open(tmp_path / "w" / name, encoding="utf-8") as fh:
            omega = [float(row[0]) for row in list(csv.reader(fh))[1:]]
        assert [omega[0], omega[-1]] == window, name


def test_run_classify_writes_the_certified_curve(tmp_path, monkeypatch):
    # levelshift.* are the witness samples the certificate used, and no
    # second curve is computed after classify
    events, reports = [], []
    curve_fn, classify_fn = certify.levshift_curve, cli.classify

    def curve_spy(*args, **kwargs):
        events.append("levshift_curve")
        return curve_fn(*args, **kwargs)

    def classify_spy(*args, **kwargs):
        reports.append(classify_fn(*args, **kwargs))
        events.append("classify")
        return reports[-1]

    monkeypatch.setattr(certify, "levshift_curve", curve_spy)
    monkeypatch.setattr(cli, "levshift_curve", curve_spy)
    monkeypatch.setattr(cli, "classify", classify_spy)
    assert cli.run(cli.parse_scenario(MINIMAL_FP), command="classify",
                   out_dir=tmp_path / "c") == 0
    assert events == ["levshift_curve", "classify"]
    curve = reports[0].curve
    text = (tmp_path / "c" / "levelshift.csv").read_text()
    assert "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["omega", "delta_re", "delta_im", "provenance"]
    assert [float(r[0]) for r in rows[1:]] == curve.omega.tolist()
    assert [float(r[1]) for r in rows[1:]] == curve.delta.real.tolist()
    assert [float(r[2]) for r in rows[1:]] == curve.delta.imag.tolist()
    assert {r[3] for r in rows[1:]} == {"exact-green"}
    data = json.loads((tmp_path / "c" / "levelshift.json").read_text())
    assert data["omega"] == curve.omega.tolist()
    assert data["delta_re"] == curve.delta.real.tolist()
    assert data["delta_im"] == curve.delta.imag.tolist()
    assert data["window"] == reports[0].thresholds.to_dict()["window"]


def test_run_classify_writes_the_window_scan(tmp_path, monkeypatch):
    # the window reflectance is evaluated once, by the certificate, and
    # reflectance.csv holds that scan; cli makes no reflection call
    calls, reports = [], []
    plain, classify_fn = certify.reflection, cli.classify

    def spy(problem, omega):
        calls.append(np.size(omega))
        return plain(problem, omega)

    def classify_spy(*args, **kwargs):
        reports.append(classify_fn(*args, **kwargs))
        return reports[-1]

    def cli_reflection(*args, **kwargs):
        raise AssertionError("cli evaluated the reflection")

    monkeypatch.setattr(certify, "reflection", spy)
    monkeypatch.setattr(cli, "reflection", cli_reflection)
    monkeypatch.setattr(cli, "classify", classify_spy)
    assert cli.run(cli.parse_scenario(MINIMAL_FP), command="classify",
                   out_dir=tmp_path / "r") == 0
    # default-window dip scan, the window scan, the local refinement
    assert calls == [4000, 2001, 41]
    omega, r = reports[0].reflectance
    text = (tmp_path / "r" / "reflectance.csv").read_text()
    assert "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["omega", "r_re", "r_im", "reflectance"]
    assert [float(row[0]) for row in rows[1:]] == omega.tolist()
    assert [float(row[1]) for row in rows[1:]] == r.real.tolist()
    assert [float(row[2]) for row in rows[1:]] == r.imag.tolist()
    assert [float(row[3]) for row in rows[1:]] == (np.abs(r) ** 2).tolist()


def test_float_table_format():
    columns = [cli._blocks(np.array([np.float64(0.1), 2.5])), cli._blocks([1.0, -0.0])]
    assert "".join(cli._float_table("a,b", columns, tag="t")) == "a,b\n0.1,1.0,t\n2.5,-0.0,t\n"
    assert "".join(cli._float_table("a", [cli._blocks([])])) == "a\n"


# ---------------------------------------------------------------------------
# artifact bytes against the row-by-row writer
# ---------------------------------------------------------------------------

def _oracle_table(header, rows, tag=None):
    """A float table written row by row, the ``repr`` of each value."""
    end = ("" if tag is None else "," + tag) + "\n"
    return header + "\n" + "".join(",".join(map(repr, row.tolist())) + end
                                   for row in np.asarray(rows, dtype=float))


def _oracle_spectrum(omega, r):
    return _oracle_table("omega,r_re,r_im,reflectance",
                         np.column_stack([omega, r.real, r.imag, np.abs(r) ** 2]))


def _oracle_curve_csv(curve):
    return _oracle_table("omega,delta_re,delta_im,provenance",
                         np.column_stack([curve.omega, curve.delta.real, curve.delta.imag]),
                         tag=curve.provenance)


def _oracle_curve_json(curve):
    return json.dumps({"window": list(curve.window), "provenance": curve.provenance,
                       "omega": curve.omega.tolist(), "delta_re": curve.delta.real.tolist(),
                       "delta_im": curve.delta.imag.tolist()}) + "\n"


def _assert_manifest_hashes(out):
    """The manifest lists every written file once, with the sha256 of its bytes on disk."""
    entries = _manifest(out)
    assert sorted(e["path"] for e in entries) == sorted(
        p.name for p in out.iterdir() if p.name != "manifest.json")
    for e in entries:
        assert hashlib.sha256((out / e["path"]).read_bytes()).hexdigest() == e["sha256"]


def _spy(monkeypatch, module, name, seen):
    """Replace ``module.name`` by a wrapper appending each result to ``seen``."""
    fn = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("rows", [0, 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1,
                                  3 * cli._BLOCK_ROWS + 5])
def test_float_table_matches_row_writer(rows):
    table = np.random.default_rng(rows).normal(size=(rows, 3)) * 10.0 ** np.arange(-8, 10, 6)
    for tag in (None, "t"):
        text = "".join(cli._float_table("a,b,c", map(cli._blocks, table.T), tag=tag))
        assert text == _oracle_table("a,b,c", table, tag=tag)


@pytest.mark.parametrize("scenario", ["fabry_perot", "lossy", "xray"])
def test_classify_artifacts_match_row_writer(tmp_path, monkeypatch, scenario):
    scn = {"fabry_perot": cli.parse_scenario(MINIMAL_FP), "lossy": _lossy_scenario(8.0, 0.5),
           "xray": cli.parse_scenario({"version": 1, "kind": "xray"})}[scenario]
    reports, spectra, formatted = [], [], []
    _spy(monkeypatch, cli, "classify", reports)
    _spy(monkeypatch, cli, "nuclear_spectrum", spectra)
    _spy(monkeypatch, cli, "_texts", formatted)
    assert cli.run(scn, command="classify", out_dir=tmp_path) == 0
    report, = reports
    expected = {"scenario.json": scn.to_json() + "\n", "report.json": report.to_json() + "\n",
                "report.txt": report.to_text() + "\n"}
    if scenario == "xray":
        expected["nuclear_spectrum.csv"] = _oracle_spectrum(*spectra[0])
    else:
        expected["levelshift.csv"] = _oracle_curve_csv(report.curve)
        expected["levelshift.json"] = _oracle_curve_json(report.curve)
        expected["reflectance.csv"] = _oracle_spectrum(*report.reflectance)
        # each number once: the curve's three columns, then the reflectance's other three
        assert sum(map(len, formatted)) == 6 * len(report.curve)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "manifest.json"} \
        == {name: text.encode() for name, text in expected.items()}
    _assert_manifest_hashes(tmp_path)


@pytest.mark.parametrize("n_points", [cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
def test_spectrum_artifacts_match_row_writer(tmp_path, monkeypatch, n_points):
    curves, spectra = [], []
    _spy(monkeypatch, cli, "levshift_curve", curves)
    _spy(monkeypatch, cli, "reflection", spectra)
    scn = cli.parse_scenario({**MINIMAL_FP, "scan": {"n_points": n_points}})
    assert cli.run(scn, command="spectrum", out_dir=tmp_path) == 0
    curve, = curves
    assert len(curve) == n_points
    assert (tmp_path / "levelshift.csv").read_bytes() == _oracle_curve_csv(curve).encode()
    assert ((tmp_path / "reflectance.csv").read_bytes()
            == _oracle_spectrum(curve.omega, spectra[0]).encode())
    _assert_manifest_hashes(tmp_path)


@pytest.mark.parametrize("region,n_poles", [((0.6 * np.pi, 1.5 * np.pi, 0.3), 1),
                                            ((0.2 * np.pi, 0.6 * np.pi, 0.3), 0)])
def test_poles_artifacts_match_row_writer(tmp_path, monkeypatch, region, n_poles):
    expansions = []
    _spy(monkeypatch, cli, "build_expansion", expansions)
    scn = cli.parse_scenario({**MINIMAL_FP, "region": dict(zip(("omega_lo", "omega_hi", "depth"),
                                                               region))})
    assert cli.run(scn, command="poles", out_dir=tmp_path) == 0
    expansion, = expansions
    assert len(expansion.poles) == n_poles
    table = [[p.omega_pole.real, p.omega_pole.imag, p.residue.real, p.residue.imag, p.residual]
             for p in expansion.poles]
    assert (tmp_path / "poles.csv").read_bytes() == _oracle_table(
        "re,im,res_re,res_im,residual", table).encode()
    assert (tmp_path / "expansion.json").read_bytes() == (
        json.dumps(expansion.to_dict(), indent=2, sort_keys=True) + "\n").encode()
    _assert_manifest_hashes(tmp_path)


def test_curve_artifacts_spell_non_finite_values(tmp_path):
    nan, inf = float("nan"), float("inf")
    delta = np.array([complex(nan, -inf), complex(inf, 0.0), complex(-0.0, nan),
                      complex(-inf, 0.5)])
    curve = witness.LevelShiftCurve(np.arange(4.0), delta, "made-up", (0.0, 3.0))
    assert cli._write_curve(cli._Artifacts(tmp_path), curve) == ["0.0", "1.0", "2.0", "3.0"]
    csv_text = (tmp_path / "levelshift.csv").read_text()
    json_text = (tmp_path / "levelshift.json").read_text()
    assert csv_text == _oracle_curve_csv(curve)
    assert csv_text.splitlines()[1:] == ["0.0,nan,-inf,made-up", "1.0,inf,0.0,made-up",
                                         "2.0,-0.0,nan,made-up", "3.0,-inf,0.5,made-up"]
    assert json_text == _oracle_curve_json(curve)
    assert '"delta_re": [NaN, Infinity, -0.0, -Infinity]' in json_text
    assert '"delta_im": [-Infinity, 0.0, NaN, 0.5]' in json_text


def test_run_classify_custom_stack_at_oblique_incidence(tmp_path, monkeypatch):
    # lossy 8+0.5i mirrors at k_par = 0.3: the default region starts right of
    # the vacuum light line omega = k_par, where the witness has its branch
    # point; a region symmetric about omega = 0 crosses it and cannot certify
    regions = []
    build = certify.build_expansion

    def spy(f, region, mirror=False):
        regions.append(region)
        return build(f, region, mirror=mirror)

    monkeypatch.setattr(certify, "build_expansion", spy)
    mirror = {"name": "m", "n_re": 8.0, "n_im": 0.5}
    scn = cli.parse_scenario({
        "version": 1, "kind": "custom_stack",
        "custom_stack": {
            "layers": [{"material": mirror, "thickness": 0.01},
                       {"material": {"name": "vac"}, "thickness": 1.0},
                       {"material": mirror, "thickness": 0.01}],
            "emitter": {"x_a": 0.51, "omega_a": np.pi, "gamma": 1.0},
            "k_par": 0.3,
        },
    })
    assert cli.run(scn, command="classify", out_dir=tmp_path / "k") == 0
    report = json.loads((tmp_path / "k" / "report.json").read_text())
    assert report["metrics"]["n_star"] >= 1
    assert regions and all(r.omega_lo > 0.3 for r in regions)


def _lossy_scenario(n_re, n_im):
    mirror = {"name": "m", "n_re": n_re, "n_im": n_im}
    return cli.parse_scenario({
        "version": 1, "kind": "custom_stack",
        "custom_stack": {
            "layers": [{"material": mirror, "thickness": 0.01},
                       {"material": {"name": "vac"}, "thickness": 1.0},
                       {"material": mirror, "thickness": 0.01}],
            "emitter": {"x_a": 0.51, "omega_a": np.pi, "gamma": 1.0},
        },
    })


def test_mirrored_search_scope(tmp_path, monkeypatch, material_table):
    # only normal incidence with constant real indices mirrors poles: a
    # complex index, a Lorentzian medium and k_par != 0 do not, and lossy
    # 8+0.5i and X-ray minimum 6 run the full search
    lorentz = ly.Material.lorentzian("lor", 1.5, 3.0, 0.1, 0.5)
    stack = ly.LayerStack(ly.VACUUM, ((lorentz, 0.1), (ly.VACUUM, 1.0), (lorentz, 0.1)),
                          ly.VACUUM, ly.EmitterSpec(0.6, np.pi, 1.0))
    assert not ly.WaveProblem(stack).conjugate_symmetric
    assert cli._problem_from_scenario(_lossy_scenario(8.0, 0.0)).conjugate_symmetric
    scenarios = {"lossy": _lossy_scenario(8.0, 0.5),
                 "xray": cli.parse_scenario({"version": 1, "kind": "xray",
                                             "xray": {"mode_index": 6}})}
    for name, scn in scenarios.items():
        assert not cli._problem_from_scenario(scn).conjugate_symmetric
    mirrors = []
    build = certify.build_expansion

    def spy(f, region, mirror=False):
        mirrors.append(mirror)
        return build(f, region, mirror=mirror)

    monkeypatch.setattr(certify, "build_expansion", spy)
    for name, scn in scenarios.items():
        assert cli.run(scn, command="classify", out_dir=tmp_path / name) == 0
    assert mirrors and not any(mirrors)


def test_run_reproducible_manifest(tmp_path):
    scn = cli.parse_scenario(MINIMAL_FP)
    cli.run(scn, command="classify", out_dir=tmp_path / "r1")
    cli.run(scn, command="classify", out_dir=tmp_path / "r2")
    assert _manifest(tmp_path / "r1") == _manifest(tmp_path / "r2")


def test_run_sweep_partial_failure_isolation(tmp_path):
    scn = cli.parse_scenario({**MINIMAL_FP,
                              "scan": {"n_mirror_values": [20.0, 1.0]}})
    code = cli.run(scn, command="sweep", out_dir=tmp_path / "s")
    assert code == 2  # the n = 1 row fails, the run completes
    table = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    assert len(table) == 3
    assert "error:" in table[2]
    assert (tmp_path / "s" / "report_n20.json").exists()


def test_run_sweep_builds_each_row_once(tmp_path, monkeypatch):
    # one stack names a bad /fabry_perot, then one per row, which classify
    # certifies as built: no stack is built a second time
    calls, built, problems = [], [], []
    build, classify = cli.build_fabry_perot, certify.classify

    def build_spy(*args, **kwargs):
        calls.append(args)
        built.append(build(*args, **kwargs))
        return built[-1]

    def classify_spy(problem, *args, **kwargs):
        problems.append(problem)
        return classify(problem, *args, **kwargs)

    monkeypatch.setattr(cli, "build_fabry_perot", build_spy)
    monkeypatch.setattr(certify, "classify", classify_spy)
    values = [20.0, 1.0, 12.0]
    scn = cli.parse_scenario({**MINIMAL_FP, "scan": {"n_mirror_values": values}})
    assert cli.run(scn, command="sweep", out_dir=tmp_path / "b") == 2
    assert calls == [(1.0, 20.0)] + [(1.0, n) for n in values]
    assert len(problems) == len(values)
    assert all(p.stack is stack for p, stack in zip(problems, built[1:]))


@pytest.mark.parametrize("values,name", [([20.0, 20.0000001], "report_n20.json"),
                                         ([4, 4.0], "report_n4.json")])
def test_run_sweep_refuses_values_sharing_a_report(tmp_path, monkeypatch, values, name):
    # two rows would write one report file: refused before any row is certified
    certified = []
    monkeypatch.setattr(certify, "classify", lambda *args, **kwargs: certified.append(args))
    scn = cli.parse_scenario({**MINIMAL_FP, "scan": {"n_mirror_values": values}})
    out = tmp_path / "s"
    assert cli.run(scn, command="sweep", out_dir=out) == 1
    error = (out / "error.txt").read_text()
    assert error.startswith("ConfigurationError: /scan/n_mirror_values/1 = ")
    assert f"would overwrite {name} of /scan/n_mirror_values/0" in error
    assert certified == []
    assert [e["path"] for e in _manifest(out)] == ["error.txt", "scenario.json"]


def _derived_flags(report: dict) -> dict:
    """The decision tree redone on a report.json's metrics, shifts and thresholds."""
    metrics, th = report["metrics"], report["thresholds"]
    mm = {"off_resonant_mm": abs(report["shifts"]["off_resonant"])
          > th["shift_tol"] * metrics["kappa_main"],
          "complex_residue_mm": abs(metrics["main_residue_phase"]) > th["residue_phase_tol"],
          "multi_pole_mm": metrics["n_star"] > 1}
    return {"single_mode": not any(mm.values()), **mm}


@pytest.fixture(scope="module")
def certified_reports(tmp_path_factory):
    """report.json of the shipped sweep, lossy 8+0.5i and X-ray minimum 4; sweep.csv rows.

    The sweep gets a failing n = 1 row, which writes no report.
    """
    out = tmp_path_factory.mktemp("certified")
    sweep = json.loads((ROOT / "scenarios" / "mirror_sweep.json").read_text())
    sweep["scan"]["n_mirror_values"].append(1)
    assert cli.run(cli.parse_scenario(sweep), "sweep", out / "sweep") == 2
    lossy = {**MINIMAL_CUSTOM, "custom_stack": {**MINIMAL_CUSTOM["custom_stack"], "layers": [
        {"material": {"n_re": 8.0, "n_im": 0.5}, "thickness": 0.01},
        {"material": {}, "thickness": 1.0},
        {"material": {"n_re": 8.0, "n_im": 0.5}, "thickness": 0.01}]}}
    assert cli.run(cli.parse_scenario(lossy), "classify", out / "lossy") == 0
    assert cli.run(cli.parse_scenario(ROOT / "scenarios" / "xray_mode4.json"), "classify",
                   out / "xray") == 0
    reports = {p.relative_to(out).as_posix(): json.loads(p.read_text())
               for p in sorted(out.glob("*/report*.json"))}
    rows = list(csv.DictReader(io.StringIO((out / "sweep" / "sweep.csv").read_text())))
    return reports, rows


def test_report_flags_follow_from_its_metrics(certified_reports):
    reports, _ = certified_reports
    assert sorted(reports) == sorted(["lossy/report.json", "xray/report.json"] + [
        f"sweep/report_n{n}.json" for n in (4, 5, 6, 8, 12, 20)])
    for name, report in reports.items():
        assert report["flags"] == _derived_flags(report), name
    # the shipped sweep alone sets and clears every flag
    sweep = [r["flags"] for name, r in reports.items() if name.startswith("sweep/")]
    for flag in sweep[0]:
        assert {f[flag] for f in sweep} == {True, False}, flag


def test_sweep_rows_equal_their_reports(certified_reports):
    # flags as 0/1, every other column the repr of the report's value
    reports, rows = certified_reports
    assert list(rows[0]) == [
        "n_mirror", "status", "single_mode", "off_resonant_mm", "complex_residue_mm",
        "multi_pole_mm", "omega_min", "omega_a_zero", "re_main_pole", "kappa_main",
        "main_residue_phase", "n_star", "off_resonant_shift", "complex_residue_shift",
        "multi_pole_shift"]
    assert [r["status"] for r in rows[:-1]] == ["ok"] * 6
    assert rows[-1]["status"].startswith("error:AmbiguityError: ")
    for row in rows[:-1]:
        report = reports[f"sweep/report_n{float(row.pop('n_mirror')):g}.json"]
        del row["status"]
        values = {**report["flags"], **report["metrics"],
                  **{f"{k}_shift": v for k, v in report["shifts"].items()}}
        assert row == {k: str(int(values[k])) if isinstance(values[k], bool)
                       else repr(values[k]) for k in row}


def test_run_poles_requires_region(tmp_path):
    scn = cli.parse_scenario(MINIMAL_FP)
    code = cli.run(scn, command="poles", out_dir=tmp_path / "p")
    assert code == 1
    assert (tmp_path / "p" / "error.txt").exists()


def test_run_poles_with_region(tmp_path):
    scn = cli.parse_scenario({**MINIMAL_FP,
                              "region": {"omega_lo": 0.6 * np.pi,
                                         "omega_hi": 1.5 * np.pi,
                                         "depth": 0.3}})
    code = cli.run(scn, command="poles", out_dir=tmp_path / "p2")
    assert code == 0
    exp = json.loads((tmp_path / "p2" / "expansion.json").read_text())
    assert exp["region"] == {"omega_lo": 0.6 * np.pi, "omega_hi": 1.5 * np.pi, "depth": 0.3}
    assert len(exp["poles"]) == 1
    assert exp["poles"][0]["re"] == pytest.approx(1.0412 * np.pi, rel=1e-3)
    lines = (tmp_path / "p2" / "poles.csv").read_text().splitlines()
    assert lines[0] == "re,im,res_re,res_im,residual"
    pole = exp["poles"][0]
    assert ([float(v) for v in lines[1].split(",")[:4]]
            == [pole["re"], pole["im"], pole["res_re"], pole["res_im"]])
    _assert_float_fields(lines)


def test_run_pfm_check(tmp_path):
    scn = cli.parse_scenario({"version": 1, "kind": "synthetic_pfm",
                              "synthetic_pfm": {"n_modes": 3, "seed": 7}})
    code = cli.run(scn, command="pfm-check", out_dir=tmp_path / "m")
    assert code == 0
    res = json.loads((tmp_path / "m" / "pfm_check.json").read_text())
    assert res["passed"] is True
    assert res["max_relative_error"] < 1e-11


def test_run_custom_stack(tmp_path):
    scn = cli.parse_scenario({
        "version": 1, "kind": "custom_stack",
        "custom_stack": {
            "left": {"name": "vac", "n_re": 1.0},
            "right": {"name": "vac", "n_re": 1.0},
            "layers": [
                {"material": {"name": "m", "n_re": 12.0}, "thickness": 0.01},
                {"material": {"name": "vac", "n_re": 1.0}, "thickness": 1.0},
                {"material": {"name": "m", "n_re": 12.0}, "thickness": 0.01},
            ],
            "emitter": {"x_a": 0.51, "omega_a": 3.14159, "gamma": 1.0},
        },
    })
    code = cli.run(scn, command="classify", out_dir=tmp_path / "c")
    assert code == 0
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert "flags" in report


def test_run_spectrum_curves(tmp_path):
    scn = cli.parse_scenario({**MINIMAL_FP, "scan": {"n_points": 301}})
    code = cli.run(scn, command="spectrum", out_dir=tmp_path / "sp")
    assert code == 0
    refl = (tmp_path / "sp" / "reflectance.csv").read_text().splitlines()
    assert refl[0] == "omega,r_re,r_im,reflectance"
    assert len(refl) == 302
    _assert_float_fields(refl)


def test_run_classify_xray(tmp_path):
    scn = cli.parse_scenario({"version": 1, "kind": "xray",
                              "xray": {"mode_index": 4}})
    code = cli.run(scn, command="classify", out_dir=tmp_path / "x")
    assert code == 0
    report = json.loads((tmp_path / "x" / "report.json").read_text())
    assert report["flags"]["off_resonant_mm"] is True
    assert report["metrics"]["delta_at_min"] < 0
    spec_lines = (tmp_path / "x" / "nuclear_spectrum.csv").read_text().splitlines()
    assert spec_lines[0] == "omega,r_re,r_im,reflectance"
    _assert_float_fields(spec_lines)
    # spectrum is not a second name for classify: it refuses an X-ray scenario
    assert cli.run(scn, command="spectrum", out_dir=tmp_path / "xs") == 1
    error = (tmp_path / "xs" / "error.txt").read_text()
    assert error == ("ConfigurationError: spectrum runs on kind fabry_perot or "
                     "custom_stack, not 'xray'\n")


def test_run_classify_xray_echoes_given_window(tmp_path, material_table):
    rep = certify.classify(certify.xray_problem(material_table, 4))
    lo, hi = rep.thresholds.window
    given = [lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)]
    scn = cli.parse_scenario({"version": 1, "kind": "xray", "xray": {"mode_index": 4},
                              "scan": {"window": given}})
    assert cli.run(scn, command="classify", out_dir=tmp_path / "xw") == 0
    echoed = json.loads((tmp_path / "xw" / "scenario.json").read_text())["scan"]["window"]
    report = json.loads((tmp_path / "xw" / "report.json").read_text())
    assert echoed == given
    assert report["thresholds"]["window"] == given


def _xray_copy(problem) -> dict:
    """A custom_stack scenario section of the same layers, emitter and k_par."""
    def material(m):
        return {"name": m.name, "n_re": m.n_const.real, "n_im": m.n_const.imag}

    st = problem.stack
    return {"left": material(st.left), "right": material(st.right),
            "layers": [{"material": material(m), "thickness": d} for m, d in st.layers],
            "emitter": {"x_a": st.emitter.x_a, "omega_a": st.emitter.omega_a,
                        "gamma": st.emitter.gamma},
            "k_par": problem.k_par}


def test_run_classify_xray_is_a_plain_wave_problem(tmp_path, material_table):
    # a custom stack copy of rocking minimum 4 certifies as the xray kind
    copy = _xray_copy(certify.xray_problem(material_table, 4))
    for kind, section in (("xray", {"xray": {"mode_index": 4}}),
                          ("custom_stack", {"custom_stack": copy})):
        scn = cli.parse_scenario({"version": 1, "kind": kind, **section})
        assert cli.run(scn, command="classify", out_dir=tmp_path / kind) == 0
    report = (tmp_path / "xray" / "report.json").read_text()
    assert (tmp_path / "custom_stack" / "report.json").read_text() == report


def test_run_classify_xray_searches_given_region(tmp_path, monkeypatch):
    # an xray scenario's /region is searched as given, not replaced by the
    # default region; 1-2 keV lies far left of the branch point, where the
    # witness is not meromorphic, so classify and poles refuse it before any
    # search
    regions = []
    spy = lambda f, region, mirror=False: regions.append(region)
    monkeypatch.setattr(certify, "build_expansion", spy)
    monkeypatch.setattr(cli, "build_expansion", spy)
    given = {"omega_lo": 1.0, "omega_hi": 2.0, "depth": 0.5}
    scn = cli.parse_scenario({"version": 1, "kind": "xray", "xray": {"mode_index": 4},
                              "region": given})
    for command in ("classify", "poles"):
        assert cli.run(scn, command=command, out_dir=tmp_path / command) == 1
        error = (tmp_path / command / "error.txt").read_text()
        assert error.startswith("ConfigurationError: region omega_lo = 1.0 ")
        assert "branch point" in error
        echoed = json.loads((tmp_path / command / "scenario.json").read_text())["region"]
        assert echoed == given
    assert regions == []


def test_run_poles_xray(tmp_path, material_table):
    # the poles command builds the xray problem like any other kind
    problem = certify.xray_problem(material_table, 4)
    _, region = certify._default_window_region(problem)
    scn = cli.parse_scenario({"version": 1, "kind": "xray", "xray": {"mode_index": 4},
                              "region": {"omega_lo": region.omega_lo,
                                         "omega_hi": region.omega_hi,
                                         "depth": region.depth}})
    assert cli.run(scn, command="poles", out_dir=tmp_path / "xp") == 0
    exp = json.loads((tmp_path / "xp" / "expansion.json").read_text())
    assert len(exp["poles"]) == 8
    assert all(region.omega_lo < p["re"] < region.omega_hi for p in exp["poles"])


def _callers(module, name: str) -> list:
    """Top-level definition around each call of ``name`` in ``module``'s source."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return [getattr(top, "name", "<module>") for top in tree.body for n in ast.walk(top)
            if isinstance(n, ast.Call)
            and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def _users(module, name: str) -> set:
    """Top-level definitions of ``module`` that read the name ``name``."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return {top.name for top in tree.body if isinstance(top, ast.FunctionDef)
            for n in ast.walk(top) if isinstance(n, ast.Name) and n.id == name}


def test_one_certificate_path():
    # every kind is certified by the one classify call of _run_classify, and
    # within certify only the certificate (which binds it to its problem)
    # and the nuclear line evaluate the witness (no window search samples it
    # on grids of its own)
    assert _callers(cli, "classify") == ["_run_classify"]
    assert _users(certify, "levshift_exact") == {"classify", "nuclear_spectrum"}


def test_run_unknown_command(tmp_path):
    scn = cli.parse_scenario(MINIMAL_FP)
    assert cli.run(scn, "nope", out_dir=tmp_path / "u") == 1
    error = (tmp_path / "u" / "error.txt").read_text()
    assert error == "ConfigurationError: unknown command 'nope'\n"


def test_main_offers_the_commands_run_dispatches(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    offered = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
    assert offered.split(",") == list(cli.COMMANDS)


def test_main_entrypoint(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"version": 1, "kind": "synthetic_pfm"}))
    code = cli.main(["--scenario", str(path), "--out", str(tmp_path / "o"),
                     "pfm-check"])
    assert code == 0


def test_main_bad_scenario(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 1, "kind": "fabry_perot", "junk": 1}')
    code = cli.main(["--scenario", str(path), "classify"])
    assert code == 1
    assert "junk" in capsys.readouterr().err


@pytest.mark.parametrize("section,path", [
    ({"scan": {"window": [5.0, 1.0]}}, "/scan/window"),
    ({"scan": {"window": [1.0]}}, "/scan/window"),
    ({"scan": {"window": [1.0, 2.0, 3.0]}}, "/scan/window"),
    ({"region": {"omega_lo": 5.0, "omega_hi": 1.0, "depth": 1.0}}, "/region"),
    ({"thresholds": {"shift_tol": -0.02}}, "/thresholds"),
    ({"scan": None}, "expected an object at /scan"),
    ({"scan": 3}, "expected an object at /scan"),
    ({"scan": ["window"]}, "expected an object at /scan"),
    ({"scan": {"n_points": "abc"}}, "expected an integer >= 2 at /scan/n_points"),
    ({"scan": {"n_points": 1}}, "expected an integer >= 2 at /scan/n_points"),
    ({"scan": {"n_points": 301.0}}, "expected an integer >= 2 at /scan/n_points"),
    ({"scan": {"n_points": True}}, "expected an integer >= 2 at /scan/n_points"),
    ({"scan": {"n_mirror_values": 5}}, "expected a non-empty list at /scan/n_mirror_values"),
    ({"output": {"dir": 5}}, "expected a non-empty string at /output/dir"),
    ({"thresholds": {"shift_tol": float("nan"), "residue_phase_tol": float("nan")}},
     "/thresholds"),
    ({"thresholds": {"convergence_tol": float("inf")}}, "/thresholds"),
])
def test_main_bad_values_named(tmp_path, capsys, section, path):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({**MINIMAL_FP, **section}))
    out = tmp_path / "o"
    code = cli.main(["--scenario", str(scenario), "--out", str(out), "classify"])
    assert code == 1
    assert path in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("halfwidth", ["abc", -3.0, 0.0, float("nan"), float("inf"), True])
def test_main_bad_xray_halfwidth_named(tmp_path, capsys, halfwidth):
    # refused before the run writes anything, not after a whole classify
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({**MINIMAL["xray"],
                                    "xray": {"spectrum_halfwidth": halfwidth}}))
    out = tmp_path / "o"
    assert cli.main(["--scenario", str(scenario), "--out", str(out), "classify"]) == 1
    err = capsys.readouterr().err
    # a boolean is refused by the one rule for booleans anywhere
    what = "a non-boolean value" if halfwidth is True else "a finite number > 0"
    assert f"expected {what} at /xray/spectrum_halfwidth" in err
    assert not out.exists()


@pytest.mark.parametrize("scenario,path", [
    ({**MINIMAL_FP, "thresholds": {"shift_tol": True}}, "/thresholds/shift_tol"),
    ({**MINIMAL["xray"], "xray": {"mode_index": True}}, "/xray/mode_index"),
    ({**MINIMAL_FP, "fabry_perot": {"L": True}}, "/fabry_perot/L"),
    ({**MINIMAL_FP, "scan": {"window": [True, 3]}}, "/scan/window/0"),
    ({**MINIMAL_CUSTOM, "custom_stack": {**MINIMAL_CUSTOM["custom_stack"], "k_par": False}},
     "/custom_stack/k_par"),
    ({**MINIMAL_FP, "version": True}, "/version"),
    ({**MINIMAL_FP, "scan": {"window": "13"}}, "null or a list of numbers at /scan/window"),
    ({**MINIMAL_FP, "scan": {"window": ["1", "3"]}}, "null or a list of numbers at /scan/window"),
    ({**MINIMAL["synthetic_pfm"], "synthetic_pfm": {"n_modes": 3.7}},
     "an integer >= 1 at /synthetic_pfm/n_modes"),
    ({**MINIMAL["synthetic_pfm"], "synthetic_pfm": {"n_modes": 0}},
     "an integer >= 1 at /synthetic_pfm/n_modes"),
    ({**MINIMAL["synthetic_pfm"], "synthetic_pfm": {"n_freq": True}}, "/synthetic_pfm/n_freq"),
    ({**MINIMAL_FP, "region": {"omega_lo": "-5", "omega_hi": "5", "depth": 1.0}},
     "a finite number at /region/omega_lo"),
    ({**MINIMAL_FP, "region": {"omega_lo": -5.0, "omega_hi": 5, "depth": "1"}},
     "a finite number at /region/depth"),
    ({**MINIMAL_FP, "region": {"omega_lo": -5.0, "omega_hi": float("inf"), "depth": 1.0}},
     "a finite number at /region/omega_hi"),
    ({**MINIMAL_CUSTOM, "custom_stack": {**MINIMAL_CUSTOM["custom_stack"], "k_par": "0.5"}},
     "a finite number at /custom_stack/k_par"),
    ({**MINIMAL_CUSTOM, "custom_stack": {**MINIMAL_CUSTOM["custom_stack"],
                                         "k_par": float("nan")}},
     "a finite number at /custom_stack/k_par"),
], ids=["shift_tol-true", "mode_index-true", "L-true", "window-[true,3]", "k_par-false",
        "version-true", "window-string", "window-strings", "n_modes-3.7", "n_modes-0",
        "n_freq-true", "region-strings", "depth-string", "omega_hi-inf", "k_par-string",
        "k_par-nan"])
def test_scenario_value_types_named(tmp_path, capsys, scenario, path):
    # a boolean passed wherever a number is read (shift_tol True, minimum 1,
    # L = 1), strings as a window ("13" and ["1", "3"] were (1.0, 3.0)),
    # n_modes 3.7 ran 3 modes while scenario.json echoed 3.7, and string
    # region bounds ("-5" < "5" passed the region's order check, then poles
    # ended in a TypeError traceback that left only scenario.json): each is
    # refused where it stands, before the run writes anything
    with pytest.raises(ConfigurationError, match=re.escape(path)):
        cli.parse_scenario(scenario)
    path_file = tmp_path / "bad.json"
    path_file.write_text(json.dumps(scenario))
    out = tmp_path / "o"
    assert cli.main(["--scenario", str(path_file), "--out", str(out), "classify"]) == 1
    assert path in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path,text", [
    ("/custom_stack/emitter/gamma", "1e400"),
    ("/custom_stack/emitter/omega_a", "NaN"),
    ("/custom_stack/emitter/x_a", '"0.51"'),
    ("/custom_stack/layers/0/thickness", '"0.01"'),
    ("/custom_stack/layers/0/material/n_re", "NaN"),
    ("/custom_stack/layers/1/material/n_im", "1e400"),
    ("/custom_stack/left/n_re", "-Infinity"),
])
def test_custom_stack_values_are_finite_numbers(tmp_path, path, text):
    # a NaN or infinite emitter or index ran the kernel on NaNs and ended in a
    # misleading AmbiguityError; a numeric string ran as its number and was
    # echoed as a string: each stops the run before the kernel, and error.txt
    # names the value's path
    scenario = json.loads(json.dumps(MINIMAL_CUSTOM))
    *keys, last = path.split("/")[2:]
    node = scenario["custom_stack"]
    for key in keys:
        node = node[int(key)] if key.isdigit() else node.setdefault(key, {})
    node[last] = "@value@"
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(scenario).replace('"@value@"', text))
    out = tmp_path / "o"
    assert cli.main(["--scenario", str(file), "--out", str(out), "classify"]) == 1
    error = (out / "error.txt").read_text()
    assert error.startswith(f"ConfigurationError: expected a finite number at {path}, not ")


@pytest.mark.parametrize("table", ["", {"Pt": {"delta": 1e-5, "beta": 1e-6}}, 5])
def test_main_bad_xray_material_table_named(tmp_path, capsys, table):
    # "" ran the shipped table, an inline table was taken for a loaded one
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({**MINIMAL["xray"], "xray": {"material_table": table}}))
    out = tmp_path / "o"
    assert cli.main(["--scenario", str(scenario), "--out", str(out), "classify"]) == 1
    err = capsys.readouterr().err
    assert f"expected null or a non-empty string at /xray/material_table, not {table!r}" in err
    assert not out.exists()


def test_main_refuses_an_empty_sweep(tmp_path, capsys):
    # a sweep of no rows would certify nothing and still print ok
    scenario = tmp_path / "empty.json"
    scenario.write_text(json.dumps({**MINIMAL_FP, "scan": {"n_mirror_values": []}}))
    out = tmp_path / "o"
    assert cli.main(["--scenario", str(scenario), "--out", str(out), "sweep"]) == 1
    err = capsys.readouterr().err
    assert "expected a non-empty list at /scan/n_mirror_values, not []" in err
    assert not out.exists()


def test_main_refuses_an_empty_output_dir(tmp_path, capsys, monkeypatch):
    # "" would be the working directory, where every run overwrites the last
    scenario = tmp_path / "in" / "pfm.json"
    scenario.parent.mkdir()
    scenario.write_text(json.dumps({**MINIMAL["synthetic_pfm"], "output": {"dir": ""}}))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert cli.main(["--scenario", str(scenario), "pfm-check"]) == 1
    assert "expected a non-empty string at /output/dir, not ''" in capsys.readouterr().err
    assert list(work.iterdir()) == [] and list(scenario.parent.iterdir()) == [scenario]


_NO_THICKNESS = {**MINIMAL_CUSTOM["custom_stack"],
                 "layers": [{"material": _MIRROR}] + MINIMAL_CUSTOM["custom_stack"]["layers"][1:]}


@pytest.mark.parametrize("scenario,command,path", [
    ({**MINIMAL_FP, "fabry_perot": {"L": -1.0}}, "classify", "/fabry_perot"),
    ({**MINIMAL_FP, "fabry_perot": {"L": "abc"}}, "classify", "/fabry_perot"),
    ({**MINIMAL_FP, "fabry_perot": {"L": -1.0}}, "sweep", "/fabry_perot"),
    ({**MINIMAL_CUSTOM, "custom_stack": _NO_THICKNESS}, "classify", "/custom_stack"),
    ({**MINIMAL["synthetic_pfm"], "synthetic_pfm": {"seed": -1}}, "pfm-check",
     "/synthetic_pfm"),
    ({**MINIMAL["xray"], "xray": {"material_table": "missing.json"}}, "classify", "/xray"),
    ({**MINIMAL_FP, "scan": {"n_mirror_values": [4.0, 0.5]}}, "sweep",
     "/scan/n_mirror_values/1"),
])
def test_main_bad_section_values_named(tmp_path, scenario, command, path):
    # values a section's builder rejects end the run with a ConfigurationError
    # naming where they are, in error.txt and the manifest, before any search
    path_file = tmp_path / "bad.json"
    path_file.write_text(json.dumps(scenario))
    out = tmp_path / "o"
    assert cli.main(["--scenario", str(path_file), "--out", str(out), command]) == 1
    error = (out / "error.txt").read_text()
    assert error.startswith("ConfigurationError: ") and path in error
    assert {e["path"] for e in _manifest(out)} == {"scenario.json", "error.txt"}


@pytest.mark.parametrize("scenario,command,message", [
    ({**MINIMAL_FP, "scan": {"n_mirror_values": [1e400, 20.0]}}, "sweep",
     "n_mirror must be finite and >= 1, not inf at /scan/n_mirror_values/0"),
    ({**MINIMAL_FP, "fabry_perot": {"L": 1.0, "n_mirror": float("nan")}}, "classify",
     "n_mirror must be finite and >= 1, not nan at /fabry_perot"),
    ({**MINIMAL_FP, "fabry_perot": {"L": 1e400, "n_mirror": 20.0}}, "classify",
     "cavity length L must be finite and > 0, not inf at /fabry_perot"),
], ids=["sweep-inf-n_mirror", "nan-n_mirror", "inf-L"])
def test_main_refuses_non_finite_fabry_perot_values(tmp_path, scenario, command, message):
    # the JSON reader takes 1e400 or Infinity as inf and NaN as nan; each is
    # named where it stands, not met later as a search failure or as a bad
    # emitter frequency
    path_file = tmp_path / "bad.json"
    path_file.write_text(json.dumps(scenario))
    out = tmp_path / "o"
    assert cli.main(["--scenario", str(path_file), "--out", str(out), command]) == 1
    assert (out / "error.txt").read_text() == f"ConfigurationError: {message}\n"
    assert {e["path"] for e in _manifest(out)} == {"scenario.json", "error.txt"}


def test_run_poles_through_zero_frequency(tmp_path, monkeypatch):
    # the root box of a region symmetric about omega = 0 samples omega = 0
    # exactly on its top edge, a removable point of the witness that
    # levshift_exact nudges off; unnudged, the kernel raises DomainError
    nudged = []
    kernel = witness.green_function

    def spy(problem, x, xp, omega):
        assert not np.any(np.asarray(omega) == 0)
        nudged.append(np.any(np.asarray(omega) == 1e-30))
        return kernel(problem, x, xp, omega)

    monkeypatch.setattr(witness, "green_function", spy)
    lossy = {"name": "m", "n_re": 8.0, "n_im": 0.5}
    section = {**MINIMAL_CUSTOM["custom_stack"],
               "layers": [{"material": lossy, "thickness": 0.01},
                          {"material": {"name": "vac"}, "thickness": 1.0},
                          {"material": lossy, "thickness": 0.01}]}
    scn = cli.parse_scenario({**MINIMAL_CUSTOM, "custom_stack": section,
                              "region": {"omega_lo": -10.0, "omega_hi": 10.0, "depth": 3.0}})
    assert cli.run(scn, command="poles", out_dir=tmp_path / "z") == 0
    assert any(nudged)
    assert json.loads((tmp_path / "z" / "expansion.json").read_text())["poles"]


# exit code of every command on a minimal scenario of each kind: a command
# runs on its own kinds only, and poles needs a /region, which only the
# xray scenario lacks
COMMAND_EXIT_CODES = {
    "fabry_perot": {"classify": 0, "sweep": 0, "poles": 0, "spectrum": 0, "pfm-check": 1},
    "custom_stack": {"classify": 0, "sweep": 1, "poles": 0, "spectrum": 0, "pfm-check": 1},
    "xray": {"classify": 0, "sweep": 1, "poles": 1, "spectrum": 1, "pfm-check": 1},
    "synthetic_pfm": {"classify": 1, "sweep": 1, "poles": 1, "spectrum": 1, "pfm-check": 0},
}


def test_every_command_on_every_kind(tmp_path, capsys):
    # every (kind, command) pair exits 0, or 1 with a ConfigurationError;
    # never with an uncaught exception
    region = {"omega_lo": 1.9, "omega_hi": 4.7, "depth": 1.0}
    scenarios = {"fabry_perot": {**MINIMAL_FP, "region": region,
                                 "scan": {"n_mirror_values": [20.0], "n_points": 301}},
                 "custom_stack": {**MINIMAL_CUSTOM, "region": region,
                                  "scan": {"n_points": 301}},
                 "xray": MINIMAL["xray"],
                 "synthetic_pfm": {**MINIMAL["synthetic_pfm"], "synthetic_pfm": {"n_freq": 50}}}
    codes = {}
    for kind, scenario in scenarios.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(scenario))
        codes[kind] = {}
        for command in cli.COMMANDS:
            out = tmp_path / kind / command
            codes[kind][command] = cli.main(["--scenario", str(path), "--out", str(out),
                                             command])
            if codes[kind][command] == 1:
                assert (out / "error.txt").read_text().startswith("ConfigurationError: ")
    assert codes == COMMAND_EXIT_CODES
    assert "error:" not in capsys.readouterr().err


def test_main_missing_scenario_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code = cli.main(["--scenario", str(missing), "classify"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(missing) in err
    assert "Expecting value" not in err


@pytest.mark.parametrize("as_type", [str, Path])
def test_parse_scenario_missing_path_named(tmp_path, as_type):
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigurationError, match=re.escape(str(missing))):
        cli.parse_scenario(as_type(missing))


def test_parse_scenario_reads_path_and_names_bad_json(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(MINIMAL_FP))
    assert cli.parse_scenario(good).to_dict() == cli.parse_scenario(MINIMAL_FP).to_dict()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match=re.escape(str(bad))):
        cli.parse_scenario(str(bad))
    bad.write_text("[1]")
    with pytest.raises(ConfigurationError, match="expected an object at /, not"):
        cli.parse_scenario(str(bad))


def _readme_commands():
    """(scenario file, subcommand) of each ``modecert --scenario`` README line."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^modecert --scenario (scenarios/\S+\.json)\b.* (\S+)$",
                      text, flags=re.MULTILINE)


def test_readme_runs_every_shipped_scenario():
    listed = sorted(name for name, _ in _readme_commands())
    shipped = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "scenarios").glob("*.json"))
    assert listed == shipped


@pytest.mark.parametrize("scenario,command", _readme_commands())
def test_shipped_scenario_runs(tmp_path, scenario, command):
    out = tmp_path / "out"
    code = cli.main(["--scenario", str(ROOT / scenario), "--out", str(out), command])
    assert code == 0
    _assert_manifest_hashes(out)
