"""Checks of modecert's CLI outputs against the reference optics in ``oracle``.

Each check raises :class:`CheckError` on the first disagreement.  The
checks compare against computations made apart from modecert (transfer
matrices, Green's function, an AAA rational fit, a direct linear solve) or
against properties the method must have (flags that follow from the
reported metrics, hashes that match the manifest, scale invariance).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
from scipy.interpolate import AAA
from scipy.optimize import brentq, minimize_scalar

import oracle as orc


class CheckError(Exception):
    """An output disagrees with its reference or with a required property."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def _close(a, b, tol: float, scale: float, what: str):
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    _require(err <= tol * scale, f"{what}: off by {err:.3g} (allowed {tol * scale:.3g})")


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def check_manifest(out_dir) -> str:
    """Every artifact is listed and hashes as listed; returns the manifest digest."""
    out_dir = Path(out_dir)
    raw = (out_dir / "manifest.json").read_bytes()
    entries = json.loads(raw)
    listed = {e["path"] for e in entries}
    present = set(os.listdir(out_dir)) - {"manifest.json"}
    _require(listed == present,
             f"manifest lists {sorted(listed)} but the directory holds {sorted(present)}")
    for e in entries:
        digest = hashlib.sha256((out_dir / e["path"]).read_bytes()).hexdigest()
        _require(digest == e["sha256"], f"sha256 of {e['path']} does not match the manifest")
    return hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# classification reports
# ---------------------------------------------------------------------------

def check_report_flags(rep: dict):
    """Flags follow from the reported metrics and thresholds; N* is minimal."""
    m, f, s, th = rep["metrics"], rep["flags"], rep["shifts"], rep["thresholds"]
    phase = math.atan2(m["main_residue_im"], m["main_residue_re"])
    _require(abs(phase - m["main_residue_phase"]) <= 1e-12,
             "main_residue_phase is not the argument of the main residue")
    errors = rep["convergence_errors"]
    under = [i + 1 for i, e in enumerate(errors) if e < th["convergence_tol"]]
    _require(bool(under) and m["n_star"] == under[0],
             f"n_star {m['n_star']} is not the smallest count under the tolerance")
    expect = {
        "multi_pole_mm": m["n_star"] > 1,
        "complex_residue_mm": abs(m["main_residue_phase"]) > th["residue_phase_tol"],
        "off_resonant_mm": (abs(m["re_main_pole"] - m["omega_min"])
                            > th["shift_tol"] * m["kappa_main"]),
    }
    expect["single_mode"] = not any(expect.values())
    for k, v in expect.items():
        _require(f[k] == v, f"flag {k} is {f[k]} but the metrics give {v}")
    total = s["off_resonant"] + s["complex_residue"] + s["multi_pole"]
    gap = m["omega_a_zero"] - m["omega_min"]
    _require(abs(total - gap) <= s["closure_residual"] + 1e-12 * abs(m["omega_min"]),
             "shift decomposition does not close")


def check_report_features(rep: dict, stack: orc.Stack):
    """omega_min, omega_a_zero and the witness there, recomputed from the oracle."""
    m = rep["metrics"]
    kappa = m["kappa_main"]
    w_min = m["omega_min"]
    # both searches run in u = (omega - reported) / kappa, so their tolerances
    # resolve a small fraction of the mode width even at X-ray energies
    r2 = lambda u: float(abs(orc.reflection(stack, w_min + kappa * u)) ** 2)
    u_min = minimize_scalar(r2, bounds=(-0.25, 0.25), method="bounded",
                            options={"xatol": 1e-10}).x
    _require(abs(u_min) <= 1e-4,
             f"omega_min {w_min!r} is not the reflectance minimum (off by {u_min:.3g} kappa)")

    z = m["omega_a_zero"]
    delta_re = lambda u: float(orc.witness(stack, z + kappa * u).real)
    half = 1e-6
    while delta_re(-half) * delta_re(half) > 0:
        half *= 4.0
        _require(half < 1.0, f"omega_a_zero {z!r} is not a zero of Delta")
    u_zero = brentq(delta_re, -half, half, xtol=1e-12)
    _require(abs(u_zero) <= 1e-6,
             f"omega_a_zero {z!r} is not the zero of Delta (off by {u_zero:.3g} kappa)")

    d = complex(orc.witness(stack, w_min))
    g = m["gamma_unit"]
    _close(m["delta_at_min"], d.real, 1e-8, max(abs(d), g), "delta_at_min")
    _close(m["gamma_at_min"], -2.0 * d.imag, 1e-8, max(abs(d), g), "gamma_at_min")


def check_main_pole(rep: dict, stack: orc.Stack, n: int = 300):
    """Main pole and residue against an AAA fit to oracle witness samples.

    The fit uses the offset and scaled variable (omega - Re p) / kappa, which
    keeps the sample spacing well above rounding at X-ray energies.
    """
    m = rep["metrics"]
    c, kappa = m["re_main_pole"], m["kappa_main"]
    pole = complex(c, -0.5 * kappa)
    residue = complex(m["main_residue_re"], m["main_residue_im"])
    half = 4.0 * kappa
    if stack.k_par:
        half = min(half, 0.9 * (c - stack.k_par))   # stay off the cladding branch point
    x = c + half * np.cos(np.linspace(math.pi, 0.0, n))
    y = orc.witness(stack, x) / stack.gamma
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = AAA((x - c) / kappa, y, rtol=1e-8, max_terms=40)
    poles = c + kappa * fit.poles()
    residues = fit.residues() * kappa * stack.gamma
    i = int(np.argmin(np.abs(poles - pole)))
    _require(abs(poles[i] - pole) <= 1e-5 * kappa,
             f"main pole {pole!r} is not a pole of the witness (nearest {poles[i]!r})")
    _require(abs(residues[i] - residue) <= 1e-4 * abs(residue),
             f"main residue {residue!r} differs from the fitted {residues[i]!r}")


def check_report(rep: dict, stack: orc.Stack):
    check_report_flags(rep)
    check_report_features(rep, stack)
    check_main_pole(rep, stack)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def _number(text: str) -> float:
    # modecert formats some columns with repr() of numpy scalars, which
    # numpy 2 prints as "np.float64(x)"; x is the exact value
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _rows(text: str, header: list) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == header, f"CSV header {rows[0] if rows else None} != {header}")
    _require(len(rows) > 2, "CSV has no data rows")
    cols = [i for i, h in enumerate(header) if h != "provenance"]
    return np.array([[_number(r[i]) for i in cols] for r in rows[1:]])


def check_reflectance_csv(text: str, stack: orc.Stack):
    a = _rows(text, ["omega", "r_re", "r_im", "reflectance"])
    _require(bool(np.all(np.diff(a[:, 0]) > 0)), "reflectance grid is not increasing")
    r = orc.reflection(stack, a[:, 0])
    _close(a[:, 1] + 1j * a[:, 2], r, 1e-9, 1.0, "reflectance rows (r)")
    _close(a[:, 3], np.abs(r) ** 2, 1e-9, 1.0, "reflectance rows (|r|^2)")


def check_levelshift_csv(text: str, stack: orc.Stack):
    a = _rows(text, ["omega", "delta_re", "delta_im", "provenance"])
    _require(bool(np.all(np.diff(a[:, 0]) > 0)), "witness grid is not increasing")
    d = orc.witness(stack, a[:, 0])
    err = np.abs(a[:, 1] + 1j * a[:, 2] - d) / np.maximum(np.abs(d), stack.gamma)
    worst = float(np.max(err))
    _require(worst <= 1e-9, f"witness rows: relative error {worst:.3g}")


def check_levelshift_json(text: str, csv_text: str):
    d = json.loads(text)
    a = _rows(csv_text, ["omega", "delta_re", "delta_im", "provenance"])
    _require(d["omega"] == a[:, 0].tolist() and d["delta_re"] == a[:, 1].tolist()
             and d["delta_im"] == a[:, 2].tolist(), "levelshift.json differs from the CSV")


def check_nuclear_csv(text: str, stack: orc.Stack):
    """Weak-coupling nuclear line on the exact cavity background."""
    a = _rows(text, ["omega", "r_re", "r_im", "reflectance"])
    om = a[:, 0]
    psi = complex(orc.field_at_emitter(stack, orc.OMEGA_NUC_KEV))
    dl = orc.witness(stack, om)
    r = orc.reflection(stack, om) - 0.5j * stack.gamma * psi * psi / (
        om - orc.OMEGA_NUC_KEV - dl)
    _close(a[:, 1] + 1j * a[:, 2], r, 1e-8, 1.0, "nuclear spectrum rows (r)")
    _close(a[:, 3], np.abs(a[:, 1] + 1j * a[:, 2]) ** 2, 1e-12, 1.0,
           "nuclear spectrum rows (|r|^2)")


# ---------------------------------------------------------------------------
# few-mode models
# ---------------------------------------------------------------------------

def check_pfm(model_text: str, check_text: str, n_modes: int):
    """Reported pole sums against a direct solve of the model in pfm_model.json."""
    model = json.loads(model_text)
    res = json.loads(check_text)
    _require(res["passed"] and res["n_modes"] == n_modes
             and res["max_relative_error"] < res["tolerance"],
             "pfm-check did not pass its own tolerance")
    h = np.array(model["omega_matrix"]) - 0.5j * np.diag(model["kappa"])
    g = np.array([complex(z["re"], z["im"]) for z in model["g"]])
    poles = np.array([complex(p["re"], p["im"]) for p in res["poles"]])
    resid = np.array([complex(p["res_re"], p["res_im"]) for p in res["poles"]])
    _require(poles.size == n_modes, "pole count differs from the mode count")
    om = np.linspace(5.0, 15.0, 97)
    eye = np.eye(n_modes)
    direct = np.array([np.conj(g) @ np.linalg.solve(w * eye - h, g) for w in om])
    summed = np.sum(resid / (om[:, None] - poles), axis=1)
    err = float(np.max(np.abs(direct - summed) / np.maximum(1.0, np.abs(direct))))
    _require(err <= 1e-9, f"pole sum differs from the direct solve by {err:.3g}")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEP_HEADER = ["n_mirror", "status", "single_mode", "off_resonant_mm",
                "complex_residue_mm", "multi_pole_mm", "omega_min", "omega_a_zero",
                "re_main_pole", "kappa_main", "main_residue_phase", "n_star",
                "off_resonant_shift", "complex_residue_shift", "multi_pole_shift"]


def check_sweep(out_dir, L: float, values) -> list:
    """Each sweep row matches its report, and each report its oracle."""
    out_dir = Path(out_dir)
    rows = list(csv.reader(io.StringIO((out_dir / "sweep.csv").read_text())))
    _require(rows[0] == SWEEP_HEADER, "sweep.csv header changed")
    _require([float(r[0]) for r in rows[1:]] == [float(v) for v in values],
             "sweep rows do not follow the mirror-index list")
    reports = []
    for row in rows[1:]:
        n = float(row[0])
        _require(row[1] == "ok", f"sweep row n={n:g} failed: {row[1]}")
        rep = json.loads((out_dir / f"report_n{n:g}.json").read_text())
        m, f, s = rep["metrics"], rep["flags"], rep["shifts"]
        expect = ([str(int(f[k])) for k in SWEEP_HEADER[2:6]]
                  + [repr(m[k]) for k in SWEEP_HEADER[6:11]] + [str(m["n_star"])]
                  + [repr(s[k]) for k in ("off_resonant", "complex_residue", "multi_pole")])
        _require(row[2:] == expect, f"sweep row n={n:g} differs from report_n{n:g}.json")
        check_report(rep, orc.fabry_perot(L, n))
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# whole cases and workloads
# ---------------------------------------------------------------------------

def xray_theta(table: dict, mode_index: int) -> float:
    """Grazing angle of the m-th minimum of |r|^2 over 0.03..0.6 degrees.

    The angle is fixed operationally by this scan (4001 points, parabolic
    vertex of each interior minimum), as modecert documents it.
    """
    th = np.radians(np.linspace(0.03, 0.6, 4001))
    r2 = orc.reflectance_vs_angle(orc.xray_cavity(table, 0.0), orc.OMEGA_NUC_KEV, th)
    found = []
    for i in range(1, th.size - 1):
        if r2[i] < r2[i - 1] and r2[i] <= r2[i + 1]:
            x0, x1, x2 = th[i - 1:i + 2]
            y0, y1, y2 = r2[i - 1:i + 2]
            d1, d2 = (y1 - y0) / (x1 - x0), (y2 - y1) / (x2 - x1)
            curv = (d2 - d1) / (x2 - x0)
            found.append(0.5 * (x0 + x1) - d1 / (2 * curv) if curv > 0 else x1)
    _require(len(found) >= mode_index, f"only {len(found)} angle minima")
    return float(found[mode_index - 1])


def check_case(case, out_dir, xray_table=None):
    """Full check of one case's artifacts; returns the report(s) it produced."""
    out_dir = Path(out_dir)
    check_manifest(out_dir)
    read = lambda name: (out_dir / name).read_text()
    meta = case.meta
    if case.command == "sweep":
        return check_sweep(out_dir, meta["L"], meta["n_mirror_values"])
    if case.command == "pfm-check":
        check_pfm(read("pfm_model.json"), read("pfm_check.json"), meta["n_modes"])
        return None
    if "mode_index" in meta:
        stack = orc.xray_cavity(xray_table, xray_theta(xray_table, meta["mode_index"]))
        rep = json.loads(read("report.json"))
        check_report(rep, stack)
        check_nuclear_csv(read("nuclear_spectrum.csv"), stack)
        return rep
    stack = orc.fabry_perot(meta["L"], meta["n_mirror"])
    check_reflectance_csv(read("reflectance.csv"), stack)
    check_levelshift_csv(read("levelshift.csv"), stack)
    if case.command == "spectrum":
        return None
    check_levelshift_json(read("levelshift.json"), read("levelshift.csv"))
    rep = json.loads(read("report.json"))
    check_report(rep, stack)
    return rep


def check_scaled_copy(base: dict, copy: dict, L: float):
    """A copy scaled by L has the same flags, N* and omega * L."""
    _require(base["flags"] == copy["flags"], "scaled copy changed the flags")
    _require(base["metrics"]["n_star"] == copy["metrics"]["n_star"],
             "scaled copy changed N*")
    for k in ("omega_min", "omega_a_zero", "re_main_pole", "kappa_main"):
        a, b = base["metrics"][k], copy["metrics"][k] * L
        _require(abs(a - b) <= 1e-9 * abs(a), f"scaled copy: {k} * L {b!r} != {a!r}")


def check_sign_flip(rep4: dict, rep6: dict):
    """The collective shift at the probed minimum changes sign from minimum 4 to 6."""
    d4, d6 = rep4["metrics"]["delta_at_min"], rep6["metrics"]["delta_at_min"]
    _require(d4 * d6 < 0, f"no sign inversion: Delta(4) = {d4!r}, Delta(6) = {d6!r}")
