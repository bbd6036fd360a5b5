"""Shared builders for the test suite."""

import functools

import numpy as np
import pytest

from modecert import layered as ly, qnm


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


@functools.lru_cache(maxsize=None)
def general_stacks(seed: int, count: int = 60, scale: float = 1.0) -> tuple:
    """``count`` seeded random asymmetric lossy stacks at normal incidence.

    Each side has 1-3 mirror layers of index 1.3-6 (real, or with an
    imaginary part up to 0.6) and thickness 0.02-0.4 around a vacuum spacer
    of length L = 0.5-2; the emitter (gamma = 1) sits at 0.2-0.8 of the
    spacer with omega_a at 0.6-1.4 pi / L.  ``scale`` multiplies every
    length and divides omega_a, and leaves the draws as they are.
    """
    rng = np.random.default_rng(seed)

    def mirror():
        layers = []
        for _ in range(int(rng.integers(1, 4))):
            n = complex(rng.uniform(1.3, 6.0),
                        rng.uniform(0.0, 0.6) if rng.random() < 0.5 else 0.0)
            layers.append((ly.Material.constant("mirror", n), float(rng.uniform(0.02, 0.4))))
        return tuple(layers)

    problems = []
    for _ in range(count):
        left, right = mirror(), mirror()
        L = float(rng.uniform(0.5, 2.0))
        x_a = sum(d for _, d in left) + float(rng.uniform(0.2, 0.8)) * L
        omega_a = float(rng.uniform(0.6, 1.4)) * np.pi / L
        layers = tuple((m, scale * d) for m, d in left + ((ly.VACUUM, L),) + right)
        emitter = ly.EmitterSpec(x_a=scale * x_a, omega_a=omega_a / scale, gamma=1.0)
        problems.append(ly.WaveProblem(ly.LayerStack(ly.VACUUM, layers, ly.VACUUM, emitter)))
    return tuple(problems)


def zero_wronskian(monkeypatch, at=True):
    """Make the Wronskian of ``layered.green_function`` exactly 0 at the entries ``at``.

    No frequency of a real stack gives an exact 0 in floating point, so the
    left-outgoing march (the second, which keeps no medium) returns zero
    amplitudes there.
    """
    march = ly._march

    def spy(ks, ds, keep=(), stop=0):
        (a, b), kept = march(ks, ds, keep, stop)
        return (a, b) if keep else (np.where(at, 0, a), np.where(at, 0, b)), kept

    monkeypatch.setattr(ly, "_march", spy)


def split_in_halves(box):
    """The box cut in two across its long side: the tiling quarters are checked against."""
    re_lo, re_hi, im_lo, im_hi = box
    if (re_hi - re_lo) >= (im_hi - im_lo):
        mid = 0.5 * (re_lo + re_hi)
        return [(re_lo, mid, im_lo, im_hi), (mid, re_hi, im_lo, im_hi)]
    mid = 0.5 * (im_lo + im_hi)
    return [(re_lo, re_hi, im_lo, mid), (re_lo, re_hi, mid, im_hi)]


def pole_sets_by_tiling(f, region):
    """The poles ``qnm.find_poles`` finds with boxes cut in quarters and in halves.

    Two arrays sorted by (Re, Im).  Halves get twice the subdivision
    levels, so that both tilings reach the same smallest box.
    """
    def poles():
        return np.array(sorted((p.omega_pole for p in qnm.find_poles(f, region)),
                               key=lambda c: (c.real, c.imag)))

    quarters = poles()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qnm, "_split", split_in_halves)
        mp.setattr(qnm, "_MAX_LEVELS", 2 * qnm._MAX_LEVELS)
        return quarters, poles()


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
