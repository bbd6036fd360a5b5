"""Few-mode models: matrix level shift, its poles, and their sum."""

import json

import numpy as np
import pytest

from modecert import pfm
from modecert.errors import ExceptionalPointError, NearPoleError
from modecert.qnm import Pole
from modecert.witness import SingleModeParams, single_mode_levshift

from conftest import random_pfm


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
    poles = pfm.diagonalize(p)
    for pole, expected in zip(poles, (0.04, 0.01)):
        assert abs(pole.residue.imag) < 1e-12 * abs(pole.residue)
        assert pole.residue.real == pytest.approx(expected, rel=1e-12)


def test_symmetric_two_by_two_spectrum():
    J, kap = 0.3, 0.5
    p = pfm.PfmParams(omega_matrix=[[10.0, J], [J, 10.0]], kappa=[kap, kap],
                      g=[0.1, 0.05])
    poles = pfm.diagonalize(p)
    assert [q.omega_pole.real for q in poles] == pytest.approx([10.0 - J, 10.0 + J])
    assert [-2.0 * q.omega_pole.imag for q in poles] == pytest.approx([kap, kap])


def test_eq5_equals_eq6_random_4x4():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(4, 4))
    p = pfm.PfmParams(omega_matrix=0.5 * (a + a.T) + 10.0 * np.eye(4),
                      kappa=rng.uniform(0.2, 0.9, 4),
                      g=rng.normal(size=4) + 1j * rng.normal(size=4))
    poles = pfm.diagonalize(p)
    ws = rng.uniform(6.0, 14.0, 50)
    direct = pfm.levshift_matrix(p, ws)
    summed = pfm.pole_sum(poles, ws)
    assert np.max(np.abs(direct - summed) / np.abs(direct)) < 1e-11


def test_eq5_eq6_property_suite_small():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        model = random_pfm(rng)
        poles = pfm.diagonalize(model)
        ws = rng.uniform(5.0, 15.0, 20)
        direct = pfm.levshift_matrix(model, ws)
        summed = pfm.pole_sum(poles, ws)
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


def test_round_trip_diagonal_models():
    poles = [Pole(9.0 - 0.15j, 0.04 + 0j, 0.0), Pole(11.0 - 0.25j, 0.01 + 0j, 0.0)]
    model = pfm.PfmParams(omega_matrix=np.diag([9.0, 11.0]), kappa=[0.3, 0.5],
                          g=[0.2, 0.1])
    back = pfm.diagonalize(model)
    for a, b in zip(sorted(poles, key=lambda q: q.omega_pole.real), back):
        assert abs(a.omega_pole - b.omega_pole) < 1e-12
        assert abs(a.residue - b.residue) < 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_params_json_roundtrip():
    p = pfm.PfmParams(omega_matrix=[[10.0, 0.2], [0.2, 11.0]], kappa=[0.4, 0.5],
                      g=[0.2 + 0.1j, -0.3j])
    d = json.loads(p.to_json())
    assert sorted(d) == ["g", "kappa", "omega_matrix"]
    assert d["omega_matrix"] == p.omega_matrix.tolist()
    assert d["kappa"] == p.kappa.tolist()
    assert [complex(z["re"], z["im"]) for z in d["g"]] == p.g.tolist()
