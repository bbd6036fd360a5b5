"""One workload in one process: set up, warm up, time whole passes, check.

Started by ``run.py`` with OpenBLAS and OpenMP pinned to one thread and with
the checkout's ``src`` on the import path.  One op is one CLI command: the
scenario file is parsed with ``cli.parse_scenario`` and executed with
``cli.run``, in process.  Prints one JSON line; ``run.py`` turns it into the
benchmark's result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import cases as case_mod
import checks
import oracle
import tracing
from modecert import certify, cli, qnm, witness

MIN_PASSES = 3
REF_REPEATS = 5

_REF_Z = np.linspace(1.0, 2.0, 40) + 0.05j


def reference_kernel():
    """Fixed numpy and plain-Python work, shaped like the program's inner loops.

    Many small complex array operations (the per-call overhead that
    dominates the pole search) and an interpreter loop; no modecert code.
    """
    acc = 0j
    for i in range(150):
        k = _REF_Z * (1.0 + 1e-3 * i)
        ph = np.exp(-1j * k * 0.37)
        p, m = (k + 1.5) / (2.0 * k), (k - 1.5) / (2.0 * k)
        acc += np.sum(p * ph + m / ph)
    s = 0
    for i in range(6000):
        s += (i * i) % 7
    return acc, s


def time_reference() -> float:
    """Mean time of a few runs of the reference kernel, in seconds.

    The mean, not the best, so that the reference sees the host's short
    slow spells in the same share as the op does.
    """
    t0 = time.perf_counter()
    for _ in range(REF_REPEATS):
        reference_kernel()
    return (time.perf_counter() - t0) / REF_REPEATS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--results", required=True)
    args = ap.parse_args(argv)

    results = Path(args.results)
    work = results / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    case_list = case_mod.make_cases(args.workload, args.seed)
    paths = []
    for case in case_list:
        d = work / case.name
        (d / "out").mkdir(parents=True)
        (d / "scenario.json").write_text(json.dumps(case.scenario, indent=2))
        paths.append((d / "scenario.json", d / "out"))

    def op(i: int) -> int:
        scenario_path, out = paths[i]
        try:
            scenario = cli.parse_scenario(str(scenario_path))
            return cli.run(scenario, command=case_list[i].command, out_dir=str(out))
        except Exception:
            traceback.print_exc()
            return 1

    for i in range(len(case_list)):       # warm-up pass
        op(i)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install({"certify": certify, "cli": cli, "qnm": qnm, "witness": witness})

    records = []     # (case index, reference s, op s, exit code, manifest digest, bytes)
    t_start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
        for i in range(len(case_list)):
            t_ref = time_reference()
            with tracer.op(len(records)) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                code = op(i)
                t_op = time.perf_counter() - t0
            out = paths[i][1]
            try:
                digest = checks.check_manifest(out)
            except (checks.CheckError, OSError, ValueError) as exc:
                print(f"{case_list[i].name}: {exc}", file=sys.stderr)
                digest = None
            size = sum(p.stat().st_size for p in out.iterdir())
            records.append((i, t_ref, t_op, code, digest, size))
        passes += 1
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each op is divided by the mean of the reference timed just before it
    # and the one timed just after it (the next op's, or one more at the end)
    refs = [r[1] for r in records] + [time_reference()]
    ratios = [r[2] / (0.5 * (refs[k] + refs[k + 1])) for k, r in enumerate(records)]
    if tracer is not None:
        tracer.uninstall()

    # full checks on the last pass; every earlier op must have written the
    # same manifest, so it is checked by the same verdict
    table = oracle.load_xray_table(Path(witness.__file__).parent / "data"
                                   / "xray_materials.json")
    verified, reports = {}, {}
    for i, case in enumerate(case_list):
        try:
            reports[case.name] = checks.check_case(case, paths[i][1], table)
            verified[i] = checks.check_manifest(paths[i][1])
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            print(f"check failed for {case.name}: {exc}", file=sys.stderr)
    bad_cases = set(range(len(case_list))) - set(verified)
    for group in _cross_checks(args.workload, case_list, reports):
        bad_cases |= group
    failed = sum(1 for i, _, _, code, digest, _ in records
                 if code != 0 or i in bad_cases or digest != verified.get(i))

    per_case_s, per_case_ref = [], []
    for i in range(len(case_list)):
        per_case_s.append(statistics.median(r[2] for r in records if r[0] == i))
        per_case_ref.append(statistics.median(
            q for r, q in zip(records, ratios) if r[0] == i))
    out = {
        "attempted": len(records),
        "failed": failed,
        "passes": passes,
        "ready": ready,
        "ops_per_s": len(records) / wall,
        "op_med_s": statistics.fmean(per_case_s),
        "op_ref": statistics.fmean(per_case_ref),
        "peak_rss_mb": peak_rss_mb,
        "ref_kernel_s": statistics.median(r[1] for r in records),
        "per_case_s": {c.name: v for c, v in zip(case_list, per_case_s)},
        "per_case_ref": {c.name: v for c, v in zip(case_list, per_case_ref)},
        "ops": [{"case": r[0], "ref_s": r[1], "op_s": r[2], "exit": r[3]} for r in records],
    }
    if tracer is not None:
        layers = tracer.metrics(len(records))
        layers["cli.run.bytes_written"] = statistics.fmean(r[5] for r in records)
        layers["ref.kernel_s"] = out["ref_kernel_s"]
        out["per_layer"] = layers
        tracer.write(results / f"{args.workload}-seed{args.seed}.spans.jsonl")
    print(json.dumps(out))
    return 0


def _cross_checks(workload, case_list, reports):
    """Checks across cases; yields the case indices of each failing one."""
    index = {c.name: i for i, c in enumerate(case_list)}
    pairs = []
    if workload == "lossy_growth":
        for c in case_list:
            if c.name != c.meta["base"]:
                pairs.append((c.meta["base"], c.name,
                              lambda a, b, L=c.meta["L"]: checks.check_scaled_copy(a, b, L)))
    if workload == "xray_modes":
        pairs.append(("minimum4", "minimum6", checks.check_sign_flip))
    for a, b, check in pairs:
        if a not in reports or b not in reports:
            continue      # already failed on its own
        try:
            check(reports[a], reports[b])
        except checks.CheckError as exc:
            print(f"cross check {a} / {b} failed: {exc}", file=sys.stderr)
            yield {index[a], index[b]}


if __name__ == "__main__":
    sys.exit(main())
