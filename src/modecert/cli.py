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
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .certify import (
    Thresholds,
    check_region,
    classify,
    nuclear_spectrum,
    scan_mirror_index,
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
    default_material_table_path,
    reflection,
)
from .pfm import PfmParams, diagonalize, levshift_matrix, pole_sum
from .qnm import ScanRegion, build_expansion
from .witness import LevelShiftCurve, levshift_curve, witness_evaluator

SCHEMA_VERSION = 1

DEFAULT_SWEEP = [4.0, 5.0, 6.0, 8.0, 12.0, 20.0]


# ---------------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------------

# the keys of each scenario section with their defaults; None marks a key
# without one.  /custom_stack and /region stay None when absent, and every
# /region key is required.
_SECTIONS = {
    "fabry_perot": {"L": 1.0, "n_mirror": 20.0, "gamma": 1.0},
    "xray": {"material_table": None, "mode_index": 4, "gamma": None,
             "spectrum_halfwidth": 40.0},
    "synthetic_pfm": {"n_modes": 3, "seed": 7, "n_freq": 50, "tol": 1e-11},
    "scan": {"window": None, "n_mirror_values": DEFAULT_SWEEP, "n_points": 2001},
    "thresholds": {f.name: f.default for f in fields(Thresholds) if f.name != "window"},
    "output": {"dir": "out"},
    "region": dict.fromkeys(f.name for f in fields(ScanRegion)),
    "custom_stack": {"left": None, "layers": None, "right": None, "emitter": None,
                     "k_par": 0.0},
}
_OPTIONAL_SECTIONS = ("custom_stack", "region")


@dataclass
class Scenario:
    """Validated scenario with every default filled in (echoed on serialize)."""

    kind: str
    fabry_perot: dict
    xray: dict
    custom_stack: dict | None
    synthetic_pfm: dict
    scan: dict
    region: dict | None
    thresholds: dict
    output: dict

    def to_dict(self) -> dict:
        return {"version": SCHEMA_VERSION,
                **{f.name: getattr(self, f.name) for f in fields(self)}}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def make_thresholds(self) -> Thresholds:
        return Thresholds(**self.thresholds, window=self.scan["window"])

    def make_region(self) -> ScanRegion | None:
        return None if self.region is None else ScanRegion(**self.region)


def _reject_unknown(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {key!r} at {path or '/'}")


def _checked(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its value errors reported at ``path``."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{exc} at {path}") from exc


def _merged(defaults: dict, given: dict, path: str) -> dict:
    _reject_unknown(given, defaults, path)
    out = dict(defaults)
    out.update(given)
    return out


def parse_scenario(source) -> Scenario:
    """Parse and validate a scenario (file path, JSON text, or dict).

    A ``Path``, or a ``str`` that does not start with ``{``, is a file path.
    Unknown keys and invalid thresholds, windows or regions are rejected
    with their location, an unreadable file or invalid JSON with its path;
    missing optional sections get explicit defaults so that parse ->
    serialize -> parse is the identity.
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

    _reject_unknown(data, {"version"} | {f.name for f in fields(Scenario)}, "")

    if data.get("version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigurationError(
            f"scenario schema version {data.get('version')} != {SCHEMA_VERSION}")
    kind = data.get("kind")
    if kind not in ("fabry_perot", "xray", "custom_stack", "synthetic_pfm"):
        raise ConfigurationError(f"unknown scenario kind {kind!r} at /kind")

    sections = {name: None if name in _OPTIONAL_SECTIONS and data.get(name) is None
                else _merged(defaults, data.get(name, {}), f"/{name}")
                for name, defaults in _SECTIONS.items()}
    _checked("/thresholds", Thresholds, **sections["thresholds"])
    _checked("/scan/window", Thresholds, window=sections["scan"]["window"])

    region = sections["region"]
    if region is not None:
        for k, v in region.items():
            if v is None:
                raise ConfigurationError(f"missing required key {k!r} at /region")
        _checked("/region", ScanRegion, **region)

    custom = sections["custom_stack"]
    if kind == "custom_stack":
        if custom is None:
            raise ConfigurationError("kind custom_stack requires a /custom_stack section")
        for k in ("layers", "emitter"):
            if custom[k] is None:
                raise ConfigurationError(f"missing required key {k!r} at /custom_stack")

    return Scenario(kind=kind, **sections)


def _material_from_dict(d: dict, path: str) -> Material:
    m = _merged({"name": "custom", "n_re": 1.0, "n_im": 0.0}, d, path)
    return Material.constant(m["name"], complex(m["n_re"], m["n_im"]))


def _problem_from_scenario(scn: Scenario) -> WaveProblem:
    if scn.kind == "fabry_perot":
        fp = scn.fabry_perot
        return WaveProblem(build_fabry_perot(fp["L"], fp["n_mirror"],
                                             gamma=fp["gamma"]))
    if scn.kind == "custom_stack":
        c = scn.custom_stack
        left = _material_from_dict(c["left"] or {}, "/custom_stack/left")
        right = _material_from_dict(c["right"] or {}, "/custom_stack/right")
        layers = tuple(
            (_material_from_dict(l["material"], f"/custom_stack/layers/{i}/material"),
             float(l["thickness"]))
            for i, l in enumerate(c["layers"]))
        em = c["emitter"]
        emitter = EmitterSpec(x_a=float(em["x_a"]), omega_a=float(em["omega_a"]),
                              gamma=float(em["gamma"]))
        return WaveProblem(LayerStack(left, layers, right, emitter),
                           k_par=float(c["k_par"]))
    if scn.kind == "xray":
        x = scn.xray
        return xray_problem(x["material_table"] or default_material_table_path(),
                            int(x["mode_index"]), gamma=x["gamma"])
    raise ConfigurationError(f"no wave problem for scenario kind {scn.kind!r}")


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
        spectrum = nuclear_spectrum(problem, scn.xray["spectrum_halfwidth"])
        art.write("nuclear_spectrum.csv",
                  _spectrum_csv(spectrum["omega"], spectrum["r_total"]), "spectrum")
    else:
        # the samples the certificate was checked on
        art.write("levelshift.csv", _curve_csv(report.curve), "curve")
        art.write("levelshift.json", report.curve.to_json() + "\n", "curve")
        art.write("reflectance.csv", _spectrum_csv(*report.reflectance), "curve")
    art.write("report.json", report.to_json() + "\n", "report")
    art.write("report.txt", report.to_text() + "\n", "report")
    return 0


def _run_sweep(scn: Scenario, art: _Artifacts) -> int:
    fp = scn.fabry_perot
    rows = scan_mirror_index(fp["L"], scn.scan["n_mirror_values"],
                             thresholds=scn.make_thresholds(), gamma=fp["gamma"])
    art.write("sweep.csv", scan_table_csv(rows), "scan")
    failures = 0
    for n, res in rows:
        if isinstance(res, Exception):
            failures += 1
            continue
        art.write(f"report_n{n:g}.json", res.to_json() + "\n", "report")
    return 2 if failures else 0


def _run_poles(scn: Scenario, art: _Artifacts) -> int:
    problem = _problem_from_scenario(scn)
    region = scn.make_region()
    if region is None:
        raise ConfigurationError("poles command requires an explicit /region")
    check_region(problem, region)
    expansion = build_expansion(witness_evaluator(problem), region,
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
    if scn.kind == "xray":
        return _run_classify(scn, art)
    problem = _problem_from_scenario(scn)
    window = scn.scan["window"]
    if window is None:
        omega_a = problem.stack.emitter.omega_a
        window = (0.25 * omega_a, 3.25 * omega_a)
    om = np.linspace(window[0], window[1], scn.scan["n_points"])
    art.write("reflectance.csv", _spectrum_csv(om, reflection(problem, om)), "curve")
    curve = levshift_curve(problem, window, n=scn.scan["n_points"])
    art.write("levelshift.csv", _curve_csv(curve), "curve")
    return 0


def _run_pfm_check(scn: Scenario, art: _Artifacts) -> int:
    cfg = scn.synthetic_pfm
    rng = np.random.default_rng(cfg["seed"])
    n = int(cfg["n_modes"])
    a = rng.normal(size=(n, n))
    model = PfmParams(omega_matrix=0.5 * (a + a.T) + 10.0 * np.eye(n),
                      kappa=rng.uniform(0.1, 1.0, n),
                      g=rng.normal(size=n) + 1j * rng.normal(size=n))
    poles = diagonalize(model)
    oms = rng.uniform(5.0, 15.0, int(cfg["n_freq"]))
    direct = levshift_matrix(model, oms)
    summed = pole_sum(poles, oms)
    err = float(np.max(np.abs(direct - summed) / np.maximum(1.0, np.abs(direct))))
    ok = err < float(cfg["tol"])
    art.write("pfm_model.json", model.to_json() + "\n", "model")
    art.write("pfm_check.json", json.dumps({
        "n_modes": n, "n_freq": int(cfg["n_freq"]),
        "max_relative_error": err, "tolerance": float(cfg["tol"]),
        "passed": bool(ok),
        "poles": [p.to_dict() for p in poles],
    }, indent=2, sort_keys=True) + "\n", "report")
    return 0 if ok else 2


# command name -> (runner writing its artifacts and returning the exit code, help)
COMMANDS = {
    "classify": (_run_classify, "run the decision tree on one scenario"),
    "sweep": (_run_sweep, "classify across the mirror-index list"),
    "poles": (_run_poles, "pole/residue table over the scenario region"),
    "spectrum": (_run_spectrum, "reflectance and level-shift curves"),
    "pfm-check": (_run_pfm_check, "matrix-vs-diagonalized consistency check"),
}


def run(scenario: Scenario, command: str = "classify", out_dir=None) -> int:
    """Execute a scenario; returns the process exit code.

    Writes all artifacts plus ``manifest.json`` (path, sha256, role per file)
    into ``out_dir``, or into the scenario's ``output.dir`` when it is None.
    """
    out = out_dir or scenario.output["dir"]
    art = _Artifacts(Path(out))
    art.write("scenario.json", scenario.to_json() + "\n", "config")
    try:
        if command not in COMMANDS:
            raise ConfigurationError(f"unknown command {command!r}")
        code = COMMANDS[command][0](scenario, art)
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
    for name, (_, doc) in COMMANDS.items():
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
