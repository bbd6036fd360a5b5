"""Spans around modecert's public functions, for the traced per-layer run.

Each wrapper is installed at the name its caller looks up (for example
``modecert.witness.green_function``, which is what ``levshift_exact``
calls), records one span with its name, start, end and parent, and passes
arguments, results and exceptions through unchanged.  Spans stay in memory
and are written out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

# span name -> (modules whose attribute is wrapped, attribute, index of the
# argument whose size counts as points, or None)
WRAPPED = (
    ("layered.green_function", ("witness",), "green_function", 3),
    ("layered.reflection", ("certify", "cli"), "reflection", 1),
    ("layered.reflectance_vs_angle", ("certify",), "reflectance_vs_angle", 2),
    ("qnm.find_poles", ("qnm",), "find_poles", None),
    ("qnm.build_expansion", ("certify", "cli"), "build_expansion", None),
    ("qnm.compute_residue", ("qnm",), "compute_residue", None),
    ("qnm.convergence_report", ("certify",), "convergence_report", None),
    ("certify.classify", ("certify", "cli"), "classify", None),
    ("certify.xray_mode_report", ("cli",), "xray_mode_report", None),
    ("witness.levshift_curve", ("certify", "cli"), "levshift_curve", None),
    ("witness.find_zero_of_delta", ("certify",), "find_zero_of_delta", None),
    ("witness.find_omega_min_refined", ("certify",), "find_omega_min_refined", None),
    ("pfm.levshift_matrix", ("cli",), "levshift_matrix", 1),
    ("pfm.diagonalize", ("cli",), "diagonalize", None),
    ("cli.parse_scenario", ("cli",), "parse_scenario", None),
    ("cli.run", ("cli",), "run", None),
)


def _count(result):
    """Poles found by find_poles (a list) or kept by build_expansion."""
    if isinstance(result, list):
        return len(result)
    poles = getattr(result, "poles", None)
    return len(poles) if poles is not None else 0


class Tracer:
    """In-memory span recorder; one root span ``op`` per timed operation."""

    def __init__(self):
        self.spans = []        # [name, parent, start, end, child_time, points, count, op]
        self._stack = []
        self._op = -1
        self._saved = []

    def _open(self, name, points=0):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None, 0.0, points, 0, self._op])
        self._stack.append(sid)
        return sid

    def _close(self, sid, count=0):
        span = self.spans[sid]
        span[3] = time.perf_counter()
        span[6] = count
        self._stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += span[3] - span[2]

    def _wrap(self, fn, name, point_arg):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = 0
            if point_arg is not None and len(args) > point_arg:
                points = int(np.size(args[point_arg]))
            sid = self._open(name, points)
            count = 0
            try:
                result = fn(*args, **kwargs)
                count = _count(result)
                return result
            finally:
                self._close(sid, count)
        return traced

    def install(self, package: dict):
        """Wrap every listed attribute that exists in ``package`` (name -> module)."""
        for name, modules, attr, point_arg in WRAPPED:
            for mod_name in modules:
                mod = package[mod_name]
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, point_arg))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def op(self, index: int):
        """Root span of one timed op."""
        self._op = index
        sid = self._open("op")
        try:
            yield
        finally:
            self._close(sid)
            self._op = -1

    def write(self, path):
        """One JSON object per span: id, name, parent, start, end, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, t0, t1, _, points, count, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": t0, "end": t1, "op": op,
                                     "points": points, "count": count}) + "\n")

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics, per timed op unless the name says otherwise."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        points = defaultdict(int)
        children = defaultdict(list)
        for sid, (name, parent, t0, t1, child, pts, count, op) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += (t1 - t0) - child
            points[name] += pts
            if parent >= 0:
                children[parent].append(sid)

        def under_find_poles(sid):
            parent = self.spans[sid][1]
            while parent >= 0:
                if self.spans[parent][0] == "qnm.find_poles":
                    return True
                parent = self.spans[parent][1]
            return False

        search_points = sum(s[5] for sid, s in enumerate(self.spans)
                            if s[0] == "layered.green_function" and under_find_poles(sid))
        poles_found = sum(s[6] for s in self.spans if s[0] == "qnm.find_poles")
        kept, growth = 0, 0
        for sid, s in enumerate(self.spans):
            if s[0] != "certify.classify":
                continue
            rounds = [c for c in children[sid] if self.spans[c][0] == "qnm.build_expansion"]
            if rounds:
                kept += self.spans[rounds[-1]][6]
                growth += len(rounds) - 1

        per_op = lambda v: v / n_ops
        ratio = lambda a, b: a / b if b else 0.0
        us = 1e6
        return {
            "layered.green_function.calls": per_op(calls["layered.green_function"]),
            "layered.green_function.points": per_op(points["layered.green_function"]),
            "layered.green_function.us_per_call": ratio(
                us * total["layered.green_function"], calls["layered.green_function"]),
            "layered.green_function.us_per_point": ratio(
                us * total["layered.green_function"], points["layered.green_function"]),
            "layered.reflection.us_per_point": ratio(
                us * total["layered.reflection"], points["layered.reflection"]),
            "layered.reflectance_vs_angle.us_per_point": ratio(
                us * total["layered.reflectance_vs_angle"],
                points["layered.reflectance_vs_angle"]),
            "qnm.find_poles.self_s": per_op(self_s["qnm.find_poles"]),
            "qnm.find_poles.points": per_op(search_points),
            "qnm.find_poles.points_per_pole": ratio(search_points, poles_found),
            "qnm.build_expansion.calls": per_op(calls["qnm.build_expansion"]),
            "qnm.build_expansion.kept_share": ratio(kept, poles_found),
            "qnm.compute_residue.calls": per_op(calls["qnm.compute_residue"]),
            "qnm.compute_residue.self_s": per_op(self_s["qnm.compute_residue"]),
            "qnm.convergence_report.self_s": per_op(self_s["qnm.convergence_report"]),
            "certify.region_growth_rounds": per_op(growth),
            "certify.classify.self_s": per_op(self_s["certify.classify"]),
            "certify.xray_mode_report.self_s": per_op(self_s["certify.xray_mode_report"]),
            "witness.levshift_curve.self_s": per_op(self_s["witness.levshift_curve"]),
            "witness.find_zero_of_delta.self_s": per_op(self_s["witness.find_zero_of_delta"]),
            "witness.find_omega_min_refined.self_s": per_op(
                self_s["witness.find_omega_min_refined"]),
            "pfm.levshift_matrix.us_per_point": ratio(
                us * total["pfm.levshift_matrix"], points["pfm.levshift_matrix"]),
            "pfm.diagonalize.self_s": per_op(self_s["pfm.diagonalize"]),
            "cli.parse_scenario.self_s": per_op(self_s["cli.parse_scenario"]),
            "cli.run.self_s": per_op(self_s["cli.run"]),
        }
