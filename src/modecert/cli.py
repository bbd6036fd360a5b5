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
from contextlib import ExitStack
from dataclasses import dataclass, fields
from functools import partial
from itertools import repeat, tee, zip_longest
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
    """Serialized writer for the output directory plus the content manifest.

    A file's text is a string or an iterable of string chunks; each chunk is
    encoded once and the same bytes go to the file and to its sha256, so the
    manifest hashes exactly the bytes on disk.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.entries = []

    def write(self, name: str, text, role: str):
        self.write_together([(name, text, role)])

    def write_together(self, files):
        """Write ``(name, text, role)`` files in lockstep: chunk i of each, then chunk i + 1.

        Tables that share a column's text blocks (``itertools.tee``) hold one
        block of it at a time.
        """
        sinks = []
        with ExitStack() as stack:
            for name, _, _ in files:
                sinks.append((stack.enter_context(open(self.out_dir / name, "wb")),
                              hashlib.sha256()))
            for chunks in zip_longest(*((text,) if isinstance(text, str) else text
                                        for _, text, _ in files), fillvalue=""):
                for (fh, digest), chunk in zip(sinks, chunks):
                    data = chunk.encode("utf-8")
                    fh.write(data)
                    digest.update(data)
        self.entries += [{"path": name, "sha256": digest.hexdigest(), "role": role}
                         for (name, _, role), (_, digest) in zip(files, sinks)]

    def finish(self) -> Path:
        manifest = json.dumps(sorted(self.entries, key=lambda e: e["path"]),
                              indent=2, sort_keys=True)
        path = self.out_dir / "manifest.json"
        path.write_bytes(manifest.encode("utf-8"))
        return path


# Every number of an artifact is the ``repr`` of a Python float (``tolist``
# turns numpy scalars into plain floats), formatted once per artifact set.
# Tables are formatted and written ``_BLOCK_ROWS`` rows at a time, so no
# whole column of a long table is held as text.
_BLOCK_ROWS = 64


def _texts(values) -> list:
    """The ``repr`` of each value, read as a Python float."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _blocks(values):
    """The texts of a float column, ``_BLOCK_ROWS`` values at a time."""
    values = np.asarray(values, dtype=float)
    for start in range(0, values.size, _BLOCK_ROWS):
        yield _texts(values[start:start + _BLOCK_ROWS])


def _text_blocks(texts: list):
    """An already formatted column, cut into the blocks of :func:`_blocks`."""
    return (texts[start:start + _BLOCK_ROWS] for start in range(0, len(texts), _BLOCK_ROWS))


def _float_table(header: str, columns, tag: str | None = None):
    """CSV chunks: the header line, then one chunk per block of rows.

    ``columns`` holds each column's text blocks (:func:`_blocks` or
    :func:`_text_blocks`); ``tag``, when given, ends each row as a constant
    text field.  Lines end in ``\n``.
    """
    yield header + "\n"
    tags = () if tag is None else (repeat(tag),)
    for block in zip(*columns):
        yield "\n".join(map(",".join, zip(*block, *tags))) + "\n"


def _spectrum_csv(omega, r):
    """``omega,r_re,r_im,reflectance`` chunks of a spectrum; ``omega`` holds text blocks."""
    r = np.asarray(r, dtype=complex)
    # the expression classify locates omega_min with
    return _float_table("omega,r_re,r_im,reflectance",
                        [omega, _blocks(r.real), _blocks(r.imag), _blocks(np.abs(r) ** 2)])


def _curve_csv(omega, delta_re, delta_im, provenance: str):
    """``omega,delta_re,delta_im,provenance`` chunks of a witness curve's text blocks."""
    return _float_table("omega,delta_re,delta_im,provenance", [omega, delta_re, delta_im],
                        tag=provenance)


def _json_numbers(texts: list) -> str:
    """A JSON array's items from float texts, spelling non-finite values as ``json.dumps`` does."""
    # no finite float's repr holds "nan" or "inf"
    return ", ".join(texts).replace("nan", "NaN").replace("inf", "Infinity")


def _write_curve(art: _Artifacts, curve: LevelShiftCurve) -> list:
    """Write ``levelshift.csv`` and ``levelshift.json`` from one formatting of the curve.

    The JSON is ``json.dumps`` of ``{window, provenance, omega, delta_re,
    delta_im}`` to the byte.  Returns the omega texts.
    """
    columns = {"omega": _texts(curve.omega), "delta_re": _texts(curve.delta.real),
               "delta_im": _texts(curve.delta.imag)}
    art.write("levelshift.csv", _curve_csv(*map(_text_blocks, columns.values()),
                                           curve.provenance), "curve")
    art.write("levelshift.json", [
        f'{{"window": {json.dumps(list(curve.window))}, '
        f'"provenance": {json.dumps(curve.provenance)}',
        *(f', "{key}": [{_json_numbers(texts)}]' for key, texts in columns.items()),
        "}\n"], "curve")
    return columns["omega"]


def _run_classify(scn: Scenario, art: _Artifacts) -> int:
    problem = _problem_from_scenario(scn)
    report = classify(problem, scn.make_region(), scn.make_thresholds())
    if scn.kind == "xray":
        omega, r = nuclear_spectrum(problem, scn.sections["xray"]["spectrum_halfwidth"])
        art.write("nuclear_spectrum.csv", _spectrum_csv(_blocks(omega), r), "spectrum")
    else:
        # the samples the certificate was checked on; the reflectance is read
        # on the curve's grid, so its omega column is the curve's
        omega = _write_curve(art, report.curve)
        art.write("reflectance.csv", _spectrum_csv(_text_blocks(omega), report.reflectance[1]),
                  "curve")
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
    table = np.array([[p.omega_pole.real, p.omega_pole.imag, p.residue.real, p.residue.imag,
                       p.residual] for p in expansion.poles], dtype=float).reshape(-1, 5)
    art.write("poles.csv", _float_table("re,im,res_re,res_im,residual", map(_blocks, table.T)),
              "poles")
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
    r = reflection(problem, curve.omega)
    # both tables formatted and written block by block in lockstep, so the
    # shared omega text is held one block at a time
    omega = tee(_blocks(curve.omega))
    art.write_together([
        ("reflectance.csv", _spectrum_csv(omega[0], r), "curve"),
        ("levelshift.csv", _curve_csv(omega[1], _blocks(curve.delta.real),
                                      _blocks(curve.delta.imag), curve.provenance), "curve")])
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
