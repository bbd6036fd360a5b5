"""Scenario-driven command-line front end.

Scenario files are strict JSON (unknown keys rejected, schema versioned);
``run`` dispatches the scans and classifications and writes CSV/JSON data
files plus a manifest with content hashes.  Exit codes: 0 success, 2 partial
per-row failures, 1 fatal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .certify import (
    Thresholds,
    check_region,
    classify,
    classify_rows,
    nuclear_spectrum,
    scan_table_csv,
    xray_problem,
)
from .errors import ConfigurationError, ModeCertError
from .layered import (
    EmitterSpec,
    LayerStack,
    Material,
    WaveProblem,
    build_fabry_perot,
    reflection,
)
from .pfm import PfmParams, diagonalize, levshift_matrix, pole_sum
from .qnm import ScanRegion, build_expansion
from .witness import LevelShiftCurve, levshift_curve, levshift_exact

SCHEMA_VERSION = 1

DEFAULT_SWEEP = [4.0, 5.0, 6.0, 8.0, 12.0, 20.0]


# ---------------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------------

# the keys of each scenario section with their defaults; None marks an
# optional key without one, _REQUIRED a key a given section must set.  An
# absent /region stays None.
_REQUIRED = object()
_SECTIONS = {
    "fabry_perot": {"L": 1.0, "n_mirror": 20.0},
    "custom_stack": {"left": None, "layers": _REQUIRED, "right": None,
                     "emitter": _REQUIRED, "k_par": 0.0},
    "xray": {"material_table": None, "mode_index": 4, "spectrum_halfwidth": 40.0},
    "synthetic_pfm": {"n_modes": 3, "seed": 7, "n_freq": 50},
    "scan": {"window": None, "n_mirror_values": DEFAULT_SWEEP, "n_points": 2001},
    "region": dict.fromkeys((f.name for f in fields(ScanRegion)), _REQUIRED),
    "thresholds": {f.name: f.default for f in fields(Thresholds) if f.name != "window"},
    "output": {"dir": "out"},
}
# the sections a scenario of each kind holds, its own and those its commands
# read; a (name, keys) pair holds only those keys of the section
_WAVE_SECTIONS = ("region", "thresholds", "output")
_KIND_SECTIONS = {"fabry_perot": ("fabry_perot", "scan", *_WAVE_SECTIONS),
                  "custom_stack": ("custom_stack", ("scan", ("window", "n_points")),
                                   *_WAVE_SECTIONS),
                  "xray": ("xray", ("scan", ("window",)), *_WAVE_SECTIONS),
                  "synthetic_pfm": ("synthetic_pfm", "output")}
_WAVE_KINDS = ("fabry_perot", "custom_stack", "xray")


def _finite(value) -> bool:
    """Whether ``value`` is a finite JSON number (a boolean is refused by _booleans)."""
    return isinstance(value, (int, float)) and math.isfinite(value)


# values no builder checks before a command reads them: (section, key) ->
# (test, what the value must be); no key takes a boolean (_booleans)
_VALUE_CHECKS = {
    ("scan", "window"): (lambda v: v is None or (isinstance(v, list) and all(
        isinstance(w, (int, float)) for w in v)), "null or a list of numbers"),
    ("scan", "n_points"): (lambda v: isinstance(v, int) and v >= 2, "an integer >= 2"),
    ("scan", "n_mirror_values"): (lambda v: isinstance(v, list) and len(v) > 0,
                                  "a non-empty list"),
    ("xray", "material_table"): (lambda v: v is None or (isinstance(v, str) and v != ""),
                                 "null or a non-empty string"),
    ("xray", "spectrum_halfwidth"): (lambda v: isinstance(v, (int, float)) and 0 < v < math.inf,
                                     "a finite number > 0"),
    ("synthetic_pfm", "n_modes"): (lambda v: isinstance(v, int) and v >= 1, "an integer >= 1"),
    ("synthetic_pfm", "n_freq"): (lambda v: isinstance(v, int) and v >= 1, "an integer >= 1"),
    ("output", "dir"): (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    **dict.fromkeys((("custom_stack", "k_par"), *(("region", f.name)
                                                  for f in fields(ScanRegion))),
                    (_finite, "a finite number")),
}


@dataclass
class Scenario:
    """Validated scenario: its kind's sections, every default filled in (echoed on serialize)."""

    kind: str
    sections: dict      # name -> keys, for the names of _KIND_SECTIONS[kind]

    def to_dict(self) -> dict:
        return {"version": SCHEMA_VERSION, "kind": self.kind, **self.sections}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def make_thresholds(self) -> Thresholds:
        return Thresholds(**self.sections["thresholds"], window=self.sections["scan"]["window"])

    def make_region(self) -> ScanRegion | None:
        return None if self.sections["region"] is None else ScanRegion(**self.sections["region"])


def _reject_unknown(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {key!r} at {path or '/'}")


def _checked(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its value errors reported at ``path``."""
    try:
        return build(*args, **kwargs)
    except KeyError as exc:
        raise ConfigurationError(f"missing required key {exc} at {path}") from exc
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigurationError(f"{exc} at {path}") from exc


def _booleans(value, path: str = ""):
    """(path, value) of every boolean in a JSON value, depth first."""
    if isinstance(value, bool):
        yield path, value
    elif isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _booleans(item, f"{path}/{key}")


def _merged(defaults: dict, given, path: str) -> dict:
    if not isinstance(given, dict):
        raise ConfigurationError(f"expected an object at {path}, not {given!r}")
    _reject_unknown(given, defaults, path)
    out = {**defaults, **given}
    for key, value in out.items():
        if value is _REQUIRED:
            raise ConfigurationError(f"missing required key {key!r} at {path}")
    return out


def parse_scenario(source) -> Scenario:
    """Parse and validate a scenario (file path, JSON text, or dict).

    A ``Path``, or a ``str`` that does not start with ``{``, is a file path.
    A scenario holds the sections of its kind (``_KIND_SECTIONS``); any
    other key, a section of another kind included, is rejected with its
    location, and so are invalid thresholds, windows, regions, the values
    of ``_VALUE_CHECKS`` and a boolean anywhere (no key takes one); an
    unreadable file or invalid JSON with its path.
    Missing sections get explicit defaults so that parse -> serialize ->
    parse is the identity.
    """
    where = ""
    if isinstance(source, Path) or (isinstance(source, str)
                                    and not source.lstrip().startswith("{")):
        where = f" {source}"
        try:
            with open(source, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read scenario{where}: {exc.strerror}") from exc
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid scenario JSON{where}: {exc}") from exc
    else:
        data = dict(source)
    if not isinstance(data, dict):
        raise ConfigurationError(f"expected an object at /, not {data!r}")

    if data.get("version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigurationError(
            f"scenario schema version {data.get('version')} != {SCHEMA_VERSION}")
    kind = data.get("kind")
    if kind not in _KIND_SECTIONS:
        raise ConfigurationError(f"unknown scenario kind {kind!r} at /kind")
    held = dict((entry, _SECTIONS[entry]) if isinstance(entry, str) else entry
                for entry in _KIND_SECTIONS[kind])
    _reject_unknown(data, {"version", "kind", *held}, "")

    sections = {name: None if name == "region" and data.get(name) is None
                else _merged({key: _SECTIONS[name][key] for key in keys},
                             data.get(name, {}), f"/{name}")
                for name, keys in held.items()}
    for (name, key), (ok, what) in _VALUE_CHECKS.items():
        if key in (sections.get(name) or ()) and not ok(sections[name][key]):
            raise ConfigurationError(f"expected {what} at /{name}/{key}, "
                                     f"not {sections[name][key]!r}")
    if kind in _WAVE_KINDS:
        _checked("/thresholds", Thresholds, **sections["thresholds"])
        _checked("/scan/window", Thresholds, window=sections["scan"]["window"])
        if sections["region"] is not None:
            _checked("/region", ScanRegion, **sections["region"])
    for path, value in _booleans(data):
        raise ConfigurationError(f"expected a non-boolean value at {path}, not {value!r}")
    return Scenario(kind, sections)


def _number(obj: dict, key: str, path: str) -> float:
    """``obj[key]`` as a float; ConfigurationError at ``path/key`` unless a finite number."""
    if not _finite(obj[key]):
        raise ConfigurationError(f"expected a finite number at {path}/{key}, not {obj[key]!r}")
    return float(obj[key])


def _material_from_dict(d: dict, path: str) -> Material:
    m = _merged({"name": "custom", "n_re": 1.0, "n_im": 0.0}, d, path)
    return Material.constant(m["name"], complex(_number(m, "n_re", path),
                                                _number(m, "n_im", path)))


def _custom_stack_problem(left, layers, right, emitter, k_par) -> WaveProblem:
    layers = [_merged(dict.fromkeys(("material", "thickness"), _REQUIRED), l,
                      f"/custom_stack/layers/{i}") for i, l in enumerate(layers)]
    emitter = _merged(dict.fromkeys(("x_a", "omega_a", "gamma"), _REQUIRED), emitter,
                      "/custom_stack/emitter")
    stack = LayerStack(
        _material_from_dict(left or {}, "/custom_stack/left"),
        tuple((_material_from_dict(l["material"], f"/custom_stack/layers/{i}/material"),
               _number(l, "thickness", f"/custom_stack/layers/{i}"))
              for i, l in enumerate(layers)),
        _material_from_dict(right or {}, "/custom_stack/right"),
        EmitterSpec(**{key: _number(emitter, key, "/custom_stack/emitter") for key in emitter}))
    return WaveProblem(stack, k_par=float(k_par))


def _problem_from_scenario(scn: Scenario) -> WaveProblem:
    """The wave problem of a wave kind; bad values reported at its section."""
    own, path = scn.sections[scn.kind], f"/{scn.kind}"
    if scn.kind == "fabry_perot":
        return WaveProblem(_checked(path, build_fabry_perot, own["L"], own["n_mirror"]))
    if scn.kind == "xray":
        return _checked(path, xray_problem, own["material_table"], own["mode_index"])
    return _checked(path, _custom_stack_problem, **own)


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

class _Artifacts:
    """Serialized writer for the output directory plus the content manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.entries = []

    def write(self, name: str, text: str, role: str) -> Path:
        path = self.out_dir / name
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.entries.append({"path": name, "sha256": digest, "role": role})
        return path

    def finish(self) -> Path:
        manifest = json.dumps(sorted(self.entries, key=lambda e: e["path"]),
                              indent=2, sort_keys=True)
        path = self.out_dir / "manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(manifest)
        return path


def _float_table(header: str, rows, tag: str | None = None) -> str:
    """CSV text: the header line, then one line per row of a float table.

    Every value is written as the ``repr`` of a Python float (``tolist``
    turns numpy scalars into plain floats); ``tag``, when given, ends each
    row as a constant text field.  Lines end in ``\n``.
    """
    end = ("" if tag is None else "," + tag) + "\n"
    return header + "\n" + "".join(",".join(map(repr, row.tolist())) + end
                                   for row in np.asarray(rows, dtype=float))


def _spectrum_csv(omega, r) -> str:
    """``omega,r_re,r_im,reflectance`` rows of a reflection spectrum."""
    r = np.asarray(r, dtype=complex)
    # the expression classify locates omega_min with
    return _float_table("omega,r_re,r_im,reflectance",
                        np.column_stack([omega, r.real, r.imag, np.abs(r) ** 2]))


def _curve_csv(curve: LevelShiftCurve) -> str:
    """``omega,delta_re,delta_im,provenance`` rows of a witness curve."""
    return _float_table("omega,delta_re,delta_im,provenance",
                        np.column_stack([curve.omega, curve.delta.real, curve.delta.imag]),
                        tag=curve.provenance)


def _run_classify(scn: Scenario, art: _Artifacts) -> int:
    problem = _problem_from_scenario(scn)
    report = classify(problem, scn.make_region(), scn.make_thresholds())
    if scn.kind == "xray":
        art.write("nuclear_spectrum.csv", _spectrum_csv(
            *nuclear_spectrum(problem, scn.sections["xray"]["spectrum_halfwidth"])), "spectrum")
    else:
        # the samples the certificate was checked on
        art.write("levelshift.csv", _curve_csv(report.curve), "curve")
        art.write("levelshift.json", report.curve.to_json() + "\n", "curve")
        art.write("reflectance.csv", _spectrum_csv(*report.reflectance), "curve")
    art.write("report.json", report.to_json() + "\n", "report")
    art.write("report.txt", report.to_text() + "\n", "report")
    return 0


def _run_sweep(scn: Scenario, art: _Artifacts) -> int:
    length, values = scn.sections["fabry_perot"]["L"], scn.sections["scan"]["n_mirror_values"]
    _problem_from_scenario(scn)     # a bad /fabry_perot is named before any row
    stacks = [_checked(f"/scan/n_mirror_values/{i}", build_fabry_perot, length, n)
              for i, n in enumerate(values)]
    # one report file per row; rows may not share one (4 and 4.0 would)
    names = [f"report_n{float(n):g}.json" for n in values]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigurationError(
                f"/scan/n_mirror_values/{i} = {values[i]!r} would overwrite {name} of "
                f"/scan/n_mirror_values/{names.index(name)}")
    rows = classify_rows([(float(n), WaveProblem(stack)) for n, stack in zip(values, stacks)],
                         scn.make_thresholds())
    art.write("sweep.csv", scan_table_csv(rows), "scan")
    for name, (_, res) in zip(names, rows):
        if not isinstance(res, Exception):
            art.write(name, res.to_json() + "\n", "report")
    return 2 if any(isinstance(res, Exception) for _, res in rows) else 0


def _run_poles(scn: Scenario, art: _Artifacts) -> int:
    problem = _problem_from_scenario(scn)
    region = scn.make_region()
    if region is None:
        raise ConfigurationError("poles command requires an explicit /region")
    check_region(problem, region)
    expansion = build_expansion(partial(levshift_exact, problem), region,
                                mirror=problem.conjugate_symmetric)
    art.write("poles.csv", _float_table(
        "re,im,res_re,res_im,residual",
        [[p.omega_pole.real, p.omega_pole.imag, p.residue.real, p.residue.imag, p.residual]
         for p in expansion.poles]), "poles")
    art.write("expansion.json",
              json.dumps(expansion.to_dict(), indent=2, sort_keys=True) + "\n",
              "poles")
    return 0


def _run_spectrum(scn: Scenario, art: _Artifacts) -> int:
    problem = _problem_from_scenario(scn)
    window, n_points = scn.sections["scan"]["window"], scn.sections["scan"]["n_points"]
    if window is None:
        omega_a = problem.emitter.omega_a
        window = (0.25 * omega_a, 3.25 * omega_a)
    curve = levshift_curve(problem, window, n=n_points)
    art.write("reflectance.csv", _spectrum_csv(curve.omega, reflection(problem, curve.omega)),
              "curve")
    art.write("levelshift.csv", _curve_csv(curve), "curve")
    return 0


_PFM_TOL = 1e-11   # bound on pfm-check's matrix-vs-pole-sum relative error


def _pfm_model(n_modes, seed, n_freq):
    """The random model of ``pfm-check`` and its test frequencies."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_modes, n_modes))
    model = PfmParams(omega_matrix=0.5 * (a + a.T) + 10.0 * np.eye(n_modes),
                      kappa=rng.uniform(0.1, 1.0, n_modes),
                      g=rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes))
    return model, rng.uniform(5.0, 15.0, n_freq)


def _run_pfm_check(scn: Scenario, art: _Artifacts) -> int:
    model, oms = _checked("/synthetic_pfm", _pfm_model, **scn.sections["synthetic_pfm"])
    poles = diagonalize(model)
    direct = levshift_matrix(model, oms)
    err = float(np.max(np.abs(direct - pole_sum(poles, oms)) / np.maximum(1.0, np.abs(direct))))
    ok = err < _PFM_TOL
    art.write("pfm_model.json", model.to_json() + "\n", "model")
    art.write("pfm_check.json", json.dumps({
        "n_modes": len(poles), "n_freq": len(oms),
        "max_relative_error": err, "tolerance": _PFM_TOL,
        "passed": ok,
        "poles": [p.to_dict() for p in poles],
    }, indent=2, sort_keys=True) + "\n", "report")
    return 0 if ok else 2


# command name -> (runner writing its artifacts and returning the exit code,
# the scenario kinds it runs on, help)
COMMANDS = {
    "classify": (_run_classify, _WAVE_KINDS, "run the decision tree on one scenario"),
    "sweep": (_run_sweep, ("fabry_perot",), "classify across the mirror-index list"),
    "poles": (_run_poles, _WAVE_KINDS, "pole/residue table over the scenario region"),
    "spectrum": (_run_spectrum, ("fabry_perot", "custom_stack"),
                 "reflectance and level-shift curves"),
    "pfm-check": (_run_pfm_check, ("synthetic_pfm",),
                  "matrix-vs-diagonalized consistency check"),
}


def run(scenario: Scenario, command: str = "classify", out_dir=None) -> int:
    """Execute a scenario; returns the process exit code.

    Writes all artifacts plus ``manifest.json`` (path, sha256, role per file)
    into ``out_dir``, or into the scenario's ``output.dir`` when it is None.
    """
    out = out_dir or scenario.sections["output"]["dir"]
    art = _Artifacts(Path(out))
    art.write("scenario.json", scenario.to_json() + "\n", "config")
    try:
        if command not in COMMANDS:
            raise ConfigurationError(f"unknown command {command!r}")
        runner, kinds, _ = COMMANDS[command]
        if scenario.kind not in kinds:
            raise ConfigurationError(f"{command} runs on kind {' or '.join(kinds)}, "
                                     f"not {scenario.kind!r}")
        code = runner(scenario, art)
    except ModeCertError as exc:
        art.write("error.txt", f"{type(exc).__name__}: {exc}\n", "error")
        art.finish()
        return 1
    art.finish()
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modecert",
        description="Certify multi-mode light-matter effects in lossy 1D resonators.")
    parser.add_argument("--scenario", type=str, default=None,
                        help="scenario JSON file")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, doc) in COMMANDS.items():
        sub.add_parser(name, help=doc)
    args = parser.parse_args(argv)

    if args.scenario is None:
        parser.error("--scenario PATH is required")
    try:
        scenario = parse_scenario(Path(args.scenario))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    code = run(scenario, command=args.command, out_dir=args.out)
    if code == 0:
        print("ok")
    elif code == 2:
        print("completed with per-row failures", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
