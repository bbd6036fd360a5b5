"""modecert certification benchmark.

    python3 certbench/run.py --workload fp_sweep --seed 1 --seconds 15 --trace 0

Runs one workload in fresh processes, one after another, with OpenBLAS and
OpenMP pinned to one thread.  Set-up time is the median over three fresh
processes; the last of them also times whole passes over the case list and
checks every output.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Full results and spans go to ``certbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 3
TIME_LIMIT_S = 170.0

# ops_per_s and op_med_s (raw wall time) go to the results file only: on a
# shared host they drift by up to a quarter between runs; op_ref does not
END_TO_END = {"setup_s": "s", "op_ref": "ref", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"calls": "count", "points": "count", "us_per_call": "us",
                   "us_per_point": "us", "self_s": "s", "points_per_pole": "count",
                   "kept_share": "fraction", "region_growth_rounds": "count",
                   "bytes_written": "bytes", "kernel_s": "s"}


def _worker(args, extra, deadline):
    """Run workload.py once; returns its JSON line and its spawn time."""
    env = dict(os.environ)
    env.pop("MODECERT_OUT", None)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
                "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])})
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--results", str(HERE / "results")] + extra
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("fp_sweep", "lossy_growth", "xray_modes", "spectra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "modecert" / "__init__.py").is_file():
        print(f"error: no modecert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "results").mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROCESSES - 1):
                res, spawned = _worker(args, ["--setup-only"], deadline)
                setups.append(res["ready"] - spawned)
        res, spawned = _worker(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["ready"] - spawned)
    res["setup_s"] = statistics.median(setups)
    res["setup_runs_s"] = setups
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "results" / name).write_text(json.dumps(res, indent=2) + "\n")

    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k.rsplit(".", 1)[-1]]}
                   for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": True, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
