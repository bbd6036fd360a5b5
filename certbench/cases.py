"""Case lists of the four workloads, generated from the benchmark seed.

Every seeded draw comes from a pool that certifies without error at the
commit that defined the benchmark, so a failing op is a change in the
program, not an unlucky draw.  Each workload keeps a fixed core and a fixed
case count, so its cost hardly depends on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("fp_sweep", "lossy_growth", "xray_modes", "spectra")

SHIPPED_SWEEP = (4.0, 5.0, 6.0, 8.0, 12.0, 20.0)
# mirror indices 4, 4.25, ..., 20 all certify
MIRROR_POOL = tuple(4.0 + 0.25 * i for i in range(65))
LOSSY_MIRRORS = (complex(8.0, 0.5), complex(8.0, 1.0))
# length scales whose copies certify with the same flags and omega * L
LENGTH_POOL = (0.25, 0.5, 2.0, 4.0, 8.0)
# rocking minima that certify with the shipped table (3, 8 and 9 do not)
XRAY_MINIMA = (1, 2, 4, 5, 6, 7)
PFM_MODES = tuple(range(8, 17))
PFM_SEEDS = tuple(range(40))
SPECTRUM_POINTS = 20001
PFM_FREQS = 4000


@dataclass(frozen=True)
class Case:
    """One CLI command: a scenario, the subcommand, and what the checks need."""

    name: str
    command: str
    scenario: dict
    meta: dict = field(default_factory=dict)


def lossy_scenario(n_mirror: complex, L: float) -> dict:
    """Fabry-Perot geometry with absorbing mirrors, as a custom stack."""
    t = L / 100.0
    vac = {"name": "vacuum", "n_re": 1.0, "n_im": 0.0}
    mirror = {"name": "mirror", "n_re": n_mirror.real, "n_im": n_mirror.imag}
    return {"version": 1, "kind": "custom_stack", "custom_stack": {
        "left": vac, "right": vac,
        "layers": [{"material": mirror, "thickness": t},
                   {"material": vac, "thickness": L},
                   {"material": mirror, "thickness": t}],
        "emitter": {"x_a": t + L / 2.0, "omega_a": math.pi / L, "gamma": 1.0},
        "k_par": 0.0}}


def _fp_sweep(rng) -> list:
    sweeps = [SHIPPED_SWEEP] + [
        tuple(sorted(float(v) for v in rng.choice(MIRROR_POOL, 6, replace=False)))
        for _ in range(3)]
    return [Case(f"sweep{i}", "sweep",
                 {"version": 1, "kind": "fabry_perot", "fabry_perot": {"L": 1.0},
                  "scan": {"n_mirror_values": list(v)}},
                 {"L": 1.0, "n_mirror_values": list(v)})
            for i, v in enumerate(sweeps)]


def _lossy_growth(rng) -> list:
    cases = []
    for n in LOSSY_MIRRORS:
        base = f"n{n.real:g}+{n.imag:g}i"
        scale = float(rng.choice(LENGTH_POOL))
        for L, name in ((1.0, base), (scale, f"{base}_L{scale:g}")):
            cases.append(Case(name, "classify", lossy_scenario(n, L),
                              {"n_mirror": n, "L": L, "base": base}))
    return cases


def _xray_modes(rng) -> list:
    order = rng.permutation(len(XRAY_MINIMA))
    cases = []
    for i in order:
        m = XRAY_MINIMA[int(i)]
        halfwidth = float(rng.integers(40, 121)) / 2.0
        cases.append(Case(f"minimum{m}", "classify",
                          {"version": 1, "kind": "xray",
                           "xray": {"mode_index": m, "spectrum_halfwidth": halfwidth}},
                          {"mode_index": m}))
    return cases


def _spectra(rng) -> list:
    cases = []
    for i, n in enumerate(rng.choice(MIRROR_POOL, 2, replace=False)):
        n = float(n)
        cases.append(Case(f"fp_spectrum{i}", "spectrum",
                          {"version": 1, "kind": "fabry_perot",
                           "fabry_perot": {"L": 1.0, "n_mirror": n},
                           "scan": {"n_points": SPECTRUM_POINTS}},
                          {"n_mirror": n, "L": 1.0}))
    for n in LOSSY_MIRRORS:
        scn = lossy_scenario(n, 1.0)
        scn["scan"] = {"n_points": SPECTRUM_POINTS, "window": [1.0, 10.0]}
        cases.append(Case(f"lossy_spectrum_n{n.real:g}+{n.imag:g}i", "spectrum", scn,
                          {"n_mirror": n, "L": 1.0}))
    for i in range(3):
        n_modes = int(rng.choice(PFM_MODES))
        model_seed = int(rng.choice(PFM_SEEDS))
        cases.append(Case(f"pfm{i}", "pfm-check",
                          {"version": 1, "kind": "synthetic_pfm",
                           "synthetic_pfm": {"n_modes": n_modes, "seed": model_seed,
                                             "n_freq": PFM_FREQS}},
                          {"n_modes": n_modes}))
    return cases


def make_cases(workload: str, seed: int) -> list:
    """The case list of one workload; the same seed gives the same list."""
    builders = {"fp_sweep": _fp_sweep, "lossy_growth": _lossy_growth,
                "xray_modes": _xray_modes, "spectra": _spectra}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return builders[workload](np.random.default_rng(seed))
