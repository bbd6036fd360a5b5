"""Few-mode models: matrix level shift, diagonalization, linear reflection."""

import json

import numpy as np
import pytest

from modecert import pfm
from modecert.errors import ExceptionalPointError, NearPoleError
from modecert.qnm import Pole
from modecert.witness import (
    SingleModeParams,
    single_mode_atom_reflection,
    single_mode_levshift,
    single_mode_reflection,
)

from conftest import random_pfm

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# levshift_matrix
# ---------------------------------------------------------------------------

def test_single_mode_reduction():
    p = pfm.PfmParams(omega_matrix=[[10.0]], kappa=[0.4], g=[0.2 + 0.1j])
    sm = SingleModeParams(omega1=10.0, kappa=0.4, g=0.2 + 0.1j)
    om = np.linspace(9.0, 11.0, 31)
    assert np.max(np.abs(pfm.levshift_matrix(p, om)
                         - single_mode_levshift(sm, om))) < 1e-15


def test_diagonal_two_mode_sum_of_lorentzians():
    p = pfm.PfmParams(omega_matrix=np.diag([9.0, 11.0]), kappa=[0.3, 0.5],
                      g=[0.2, 0.1])
    om = np.linspace(8.0, 12.0, 41)
    expected = (0.04 / (om - 9.0 + 0.15j) + 0.01 / (om - 11.0 + 0.25j))
    assert np.max(np.abs(pfm.levshift_matrix(p, om) - expected)) < 1e-15


def test_dense_inverse_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    p = pfm.PfmParams(omega_matrix=0.5 * (a + a.T) + 10.0 * np.eye(3),
                      kappa=rng.uniform(0.1, 1.0, 3),
                      g=rng.normal(size=3) + 1j * rng.normal(size=3))
    ws = rng.uniform(5.0, 15.0, 50)
    dense = np.array([np.conj(p.g) @ np.linalg.inv(w * np.eye(3) - p.mode_matrix)
                      @ p.g for w in ws])
    vals = pfm.levshift_matrix(p, ws)
    assert np.max(np.abs(vals - dense) / np.abs(dense)) < 1e-12


def test_pole_of_model_raises():
    p = pfm.PfmParams(omega_matrix=[[10.0]], kappa=[0.4], g=[0.1])
    with pytest.raises(NearPoleError):
        pfm.levshift_matrix(p, 10.0 - 0.2j)


@pytest.mark.parametrize("n", [1, 8, 16])
def test_blocked_solves_match_per_frequency_solves(n):
    # 600 frequencies span three solve blocks; every value is bit for bit
    # that of one solve per frequency
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    p = pfm.PfmParams(omega_matrix=0.5 * (a + a.T) + 10.0 * np.eye(n),
                      kappa=rng.uniform(0.1, 1.0, n),
                      g=rng.normal(size=n) + 1j * rng.normal(size=n))
    ws = rng.uniform(5.0, 15.0, 600) + 1j * rng.uniform(-0.1, 0.1, 600)
    eye = np.eye(n, dtype=complex)
    one_by_one = np.array([np.conj(p.g) @ np.linalg.solve(w * eye - p.mode_matrix, p.g)
                           for w in ws])
    assert 600 > 2 * pfm._SOLVE_BLOCK
    assert np.array_equal(pfm.levshift_matrix(p, ws), one_by_one)


def test_pole_mid_block_named():
    # an exact pole of a diagonal model inside the second block
    p = pfm.PfmParams(omega_matrix=np.diag([9.0, 11.0]), kappa=[0.3, 0.5],
                      g=[0.2, 0.1])
    ws = np.linspace(8.0, 12.0, 600).astype(complex)
    ws[pfm._SOLVE_BLOCK + 100] = 11.0 - 0.25j
    with pytest.raises(NearPoleError) as err:
        pfm.levshift_matrix(p, ws)
    assert err.value.omega == 11.0 - 0.25j


def test_hermiticity_guard():
    with pytest.raises(ValueError):
        pfm.PfmParams(omega_matrix=[[1.0, 0.2], [0.1, 1.0]], kappa=[0.1, 0.1],
                      g=[0.1, 0.1])


# ---------------------------------------------------------------------------
# diagonalize
# ---------------------------------------------------------------------------

def test_diagonal_input_real_residues():
    p = pfm.PfmParams(omega_matrix=np.diag([9.0, 11.0]), kappa=[0.3, 0.5],
                      g=[0.2, 0.1j])
    basis = pfm.diagonalize(p)
    for pole, expected in zip(basis.poles, (0.04, 0.01)):
        assert abs(pole.residue.imag) < 1e-12 * abs(pole.residue)
        assert pole.residue.real == pytest.approx(expected, rel=1e-12)


def test_symmetric_two_by_two_spectrum():
    J, kap = 0.3, 0.5
    p = pfm.PfmParams(omega_matrix=[[10.0, J], [J, 10.0]], kappa=[kap, kap],
                      g=[0.1, 0.05])
    basis = pfm.diagonalize(p)
    assert basis.Omega == pytest.approx([10.0 - J, 10.0 + J])
    assert basis.kappa == pytest.approx([kap, kap])


def test_eq5_equals_eq6_random_4x4():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(4, 4))
    p = pfm.PfmParams(omega_matrix=0.5 * (a + a.T) + 10.0 * np.eye(4),
                      kappa=rng.uniform(0.2, 0.9, 4),
                      g=rng.normal(size=4) + 1j * rng.normal(size=4))
    basis = pfm.diagonalize(p)
    ws = rng.uniform(6.0, 14.0, 50)
    direct = pfm.levshift_matrix(p, ws)
    summed = basis.pole_sum(ws)
    assert np.max(np.abs(direct - summed) / np.abs(direct)) < 1e-11


def test_eq5_eq6_property_suite_small():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        model = random_pfm(rng)
        basis = pfm.diagonalize(model)
        ws = rng.uniform(5.0, 15.0, 20)
        direct = pfm.levshift_matrix(model, ws)
        summed = basis.pole_sum(ws)
        assert np.max(np.abs(direct - summed)
                      / np.maximum(1.0, np.abs(direct))) < 1e-11


def test_near_exceptional_point_rejected():
    # a 2x2 Jordan-like mode matrix: J = i (kappa1 - kappa2)/4 sits exactly
    # at the exceptional point; approach it closely
    eps = 1e-14
    p = pfm.PfmParams(omega_matrix=[[10.0, 0.25 + eps], [0.25 + eps, 10.0]],
                      kappa=[1.0 + 1e-12, 2.0], g=[0.1, 0.1])
    with pytest.raises(ExceptionalPointError):
        pfm.diagonalize(p)


# ---------------------------------------------------------------------------
# from_real_poles
# ---------------------------------------------------------------------------

def test_from_real_poles_single_readoff():
    p = pfm.from_real_poles([Pole(10 - 0.2j, 0.04 + 0j, 0.0)])
    assert p.omega_matrix[0, 0] == 10.0
    assert p.kappa[0] == pytest.approx(0.4)
    assert p.g[0] == pytest.approx(0.2)


def test_from_real_poles_two_mode_bitmatch():
    poles = [Pole(9.0 - 0.15j, 0.04 + 0j, 0.0), Pole(11.0 - 0.25j, 0.01 + 0j, 0.0)]
    p = pfm.from_real_poles(poles)
    om = np.linspace(8.0, 12.0, 64)
    direct = pfm.levshift_matrix(p, om)
    summed = sum(q.residue / (om - q.omega_pole) for q in poles)
    assert np.max(np.abs(direct - summed)) < 1e-14


def test_from_real_poles_rejects_complex_residue():
    with pytest.raises(ExceptionalPointError):
        pfm.from_real_poles([Pole(10 - 0.2j, 0.04 * np.exp(0.3j), 0.0)])


def test_round_trip_diagonal_models():
    poles = [Pole(9.0 - 0.15j, 0.04 + 0j, 0.0), Pole(11.0 - 0.25j, 0.01 + 0j, 0.0)]
    back = pfm.diagonalize(pfm.from_real_poles(poles))
    for a, b in zip(sorted(poles, key=lambda q: q.omega_pole.real), back.poles):
        assert abs(a.omega_pole - b.omega_pole) < 1e-12
        assert abs(a.residue - b.residue) < 1e-12


# ---------------------------------------------------------------------------
# linear_reflection
# ---------------------------------------------------------------------------

def test_reflection_decoupled_matches_empty_cavity():
    kr = np.sqrt(0.4 / TWO_PI)
    p = pfm.PfmParams(omega_matrix=[[10.0]], kappa=[0.4], g=[0.0],
                      kappa_R=[kr], omega_a=123.0)
    sm = SingleModeParams(omega1=10.0, kappa=0.4, kappa_R=kr)
    om = np.linspace(9.0, 11.0, 201)
    assert np.max(np.abs(pfm.linear_reflection(p, om)
                         - single_mode_reflection(sm, om))) < 1e-14


def test_reflection_single_mode_with_atom():
    kr = np.sqrt(0.4 / TWO_PI)
    p = pfm.PfmParams(omega_matrix=[[10.0]], kappa=[0.4], g=[0.02],
                      kappa_R=[kr], omega_a=10.1)
    sm = SingleModeParams(omega1=10.0, kappa=0.4, kappa_R=kr, g=0.02,
                          omega_a=10.1)
    om = np.linspace(9.0, 11.0, 401)
    assert np.max(np.abs(pfm.linear_reflection(p, om)
                         - single_mode_atom_reflection(sm, om))) < 1e-12


def test_reflection_two_mode_dips():
    kr = np.sqrt(0.2 / TWO_PI)
    p = pfm.PfmParams(omega_matrix=np.diag([9.0, 11.0]), kappa=[0.3, 0.3],
                      g=[0.0, 0.0], kappa_R=[kr, kr], omega_a=10.0)
    om = np.linspace(8.0, 12.0, 4001)
    vals = pfm.linear_reflection(p, om)
    # independent oracle: explicit dense inverse of the mode block
    dense = np.array([1.0 - TWO_PI * 1j * p.kappa_R
                      @ np.linalg.inv(w * np.eye(2) - p.mode_matrix)
                      @ p.kappa_R for w in om])
    assert np.max(np.abs(vals - dense)) < 1e-13
    r2 = np.abs(vals) ** 2
    dips = [om[i] for i in range(1, len(om) - 1)
            if r2[i] < r2[i - 1] and r2[i] < r2[i + 1]]
    # near-isolated modes: dips pulled slightly inward by shared-channel
    # interference (measured 0.023 at this spacing), the off-resonant effect
    assert len(dips) == 2
    assert abs(dips[0] - 9.0) < 0.05 and abs(dips[1] - 11.0) < 0.05


def test_reflection_atom_decoupling_independent_of_omega_a():
    kr = np.sqrt(0.4 / TWO_PI)
    om = np.linspace(9.0, 11.0, 64)
    vals = []
    for omega_a in (5.0, 10.0, 50.0):
        p = pfm.PfmParams(omega_matrix=[[10.0]], kappa=[0.4], g=[0.0],
                          kappa_R=[kr], omega_a=omega_a)
        vals.append(pfm.linear_reflection(p, om))
    assert np.max(np.abs(vals[0] - vals[1])) == 0.0
    assert np.max(np.abs(vals[0] - vals[2])) == 0.0


def test_reflection_regular_at_atom_resonance():
    kr = np.sqrt(0.4 / TWO_PI)
    p = pfm.PfmParams(omega_matrix=[[10.0]], kappa=[0.4], g=[0.05],
                      kappa_R=[kr], omega_a=10.0)
    val = pfm.linear_reflection(p, 10.0)  # omega == omega_a, jointly solved
    assert np.isfinite(val)


def test_reflection_requires_kappa_r():
    p = pfm.PfmParams(omega_matrix=[[10.0]], kappa=[0.4], g=[0.1])
    with pytest.raises(ValueError):
        pfm.linear_reflection(p, 10.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_params_json_roundtrip():
    p = pfm.PfmParams(omega_matrix=[[10.0, 0.2], [0.2, 11.0]], kappa=[0.4, 0.5],
                      g=[0.2 + 0.1j, -0.3j], kappa_R=[0.1, 0.2], omega_a=10.5)
    d = json.loads(p.to_json())
    assert d["omega_matrix"] == p.omega_matrix.tolist()
    assert d["kappa"] == p.kappa.tolist()
    assert [complex(z["re"], z["im"]) for z in d["g"]] == p.g.tolist()
    assert d["kappa_R"] == p.kappa_R.tolist()
    assert d["omega_a"] == p.omega_a
