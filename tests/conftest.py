"""Shared builders for the test suite."""

import functools

import numpy as np
import pytest

from modecert import layered as ly


@functools.lru_cache(maxsize=None)
def fp_problem(n_mirror: float) -> ly.WaveProblem:
    """Cached Fabry-Perot problem (L = 1, frequencies in units of pi)."""
    return ly.WaveProblem(ly.build_fabry_perot(1.0, n_mirror))


@functools.lru_cache(maxsize=None)
def lossy_problem(n_mirror: complex, L: float = 1.0) -> ly.WaveProblem:
    """Fabry-Perot geometry with absorbing mirrors of thickness L/100."""
    t = L / 100.0
    mirror = ly.Material.constant("mirror", n_mirror)
    emitter = ly.EmitterSpec(x_a=t + L / 2.0, omega_a=np.pi / L, gamma=1.0)
    return ly.WaveProblem(ly.LayerStack(
        ly.VACUUM, ((mirror, t), (ly.VACUUM, L), (mirror, t)), ly.VACUUM, emitter))


@functools.lru_cache(maxsize=None)
def bragg_problem(n_high: float, periods: int, n_low: float = 1.5) -> ly.WaveProblem:
    """Quarter-wave Bragg cavity (H L)^p | vacuum(1) | (L H)^p tuned to pi.

    Each mirror layer is a quarter wave at omega = pi, the vacuum spacer a
    half wave, and the emitter sits at the spacer centre with omega_a = pi.
    """
    high = (ly.Material.constant("H", n_high), 0.5 / n_high)
    low = (ly.Material.constant("L", n_low), 0.5 / n_low)
    left = (high, low) * periods
    x_a = sum(d for _, d in left) + 0.5
    emitter = ly.EmitterSpec(x_a=x_a, omega_a=np.pi, gamma=1.0)
    return ly.WaveProblem(ly.LayerStack(
        ly.VACUUM, left + ((ly.VACUUM, 1.0),) + left[::-1], ly.VACUUM, emitter))


def rational_instance(rng, region=(0.0, 10.0, -2.0, 0.0), max_poles=5,
                      min_sep=0.35, margin=0.5, background=False):
    """Random rational function with known poles/residues inside a region.

    Poles keep a minimum pairwise separation and a margin from the region
    boundary so the instance is well-posed for the argument principle.
    """
    n = int(rng.integers(1, max_poles + 1))
    while True:
        zs = (rng.uniform(region[0] + margin, region[1] - margin, n)
              + 1j * rng.uniform(region[2] + 0.2, region[3] - 0.2, n))
        if n == 1 or min(abs(zs[i] - zs[j]) for i in range(n)
                         for j in range(i + 1, n)) > min_sep:
            break
    rs = rng.uniform(0.2, 3.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    c0 = (rng.normal() * 0.3 + 1j * rng.normal() * 0.3) if background else 0.0

    def f(z, zs=zs, rs=rs, c0=c0):
        z = np.asarray(z, dtype=complex)
        out = np.sum(rs / (z[..., None] - zs), axis=-1) + c0
        return out

    return f, zs, rs


def random_pfm(rng, n_max=6, base=10.0):
    """Random well-conditioned few-mode model (regenerates near-EP draws)."""
    from modecert.pfm import PfmParams

    while True:
        n = int(rng.integers(1, n_max + 1))
        a = rng.normal(size=(n, n)) * 0.5
        om = 0.5 * (a + a.T) + np.diag(base + rng.uniform(-3, 3, n))
        kappa = rng.uniform(0.1, 1.0, n)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        model = PfmParams(omega_matrix=om, kappa=kappa, g=g)
        if np.linalg.cond(np.linalg.eig(model.mode_matrix)[1]) < 1e6:
            return model


@pytest.fixture(scope="session")
def material_table():
    return ly.load_material_table(ly.default_material_table_path())
