"""Pseudomode few-mode models: matrix level shift and non-Hermitian diagonalization.

The model is a set of N discrete modes with a real symmetric interaction
matrix omega_ij, per-mode decay rates kappa_i (flat, independent baths) and
complex atom couplings g_i.  The witness observable is the matrix level shift

    delta(omega) = g^dag [ omega I - (omega_cav - i kappa/2) ]^{-1} g,

whose diagonalization by the (generally non-unitary) eigenbasis of the
complex-symmetric mode matrix turns it into a bare pole sum with poles
Omega_i - i kappa_i/2 and residues gbar_i^* gtilde_i.  Diagonal models give
real residues; complex residues certify mode-mode interactions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalPointError, NearPoleError
from .qnm import Pole


@dataclass(frozen=True)
class PfmParams:
    """Few-mode model parameters.

    ``omega_matrix`` must be exactly symmetric (asymmetry above 1e-12 is
    rejected, tiny asymmetry is symmetrized away).
    """

    omega_matrix: np.ndarray
    kappa: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        om = np.atleast_2d(np.asarray(self.omega_matrix, dtype=float))
        asym = np.max(np.abs(om - om.T)) if om.size else 0.0
        scale = max(np.max(np.abs(om)), 1.0)
        if asym > 1e-12 * scale:
            raise ValueError(f"omega_matrix asymmetry {asym:.3g} exceeds 1e-12")
        om = 0.5 * (om + om.T)
        ka = np.asarray(self.kappa, dtype=float)
        gv = np.asarray(self.g, dtype=complex)
        n = om.shape[0]
        if om.shape != (n, n) or ka.shape != (n,) or gv.shape != (n,):
            raise ValueError("inconsistent mode dimensions")
        if np.any(ka <= 0):
            raise ValueError("all kappa_i must be > 0")
        object.__setattr__(self, "omega_matrix", om)
        object.__setattr__(self, "kappa", ka)
        object.__setattr__(self, "g", gv)

    @property
    def mode_matrix(self) -> np.ndarray:
        """Complex-symmetric effective mode matrix omega_cav - i kappa/2."""
        return self.omega_matrix - 0.5j * np.diag(self.kappa)

    def to_json(self) -> str:
        return json.dumps({"omega_matrix": self.omega_matrix.tolist(),
                           "kappa": self.kappa.tolist(),
                           "g": [{"re": z.real, "im": z.imag} for z in self.g]},
                          indent=2, sort_keys=True)


_SOLVE_BLOCK = 256   # frequencies per batched solve; bounds the stacked matrices


def levshift_matrix(p: PfmParams, omega_test):
    """Matrix level shift g^dag [omega I - (omega_cav - i kappa/2)]^{-1} g.

    Evaluated by linear solves (never an explicit inverse), one batched
    solve per block of at most ``_SOLVE_BLOCK`` test frequencies.  Raises
    NearPoleError naming the first test frequency that is a model pole.
    """
    h = p.mode_matrix
    g = p.g
    scalar = np.ndim(omega_test) == 0
    oms = np.atleast_1d(np.asarray(omega_test, dtype=complex))
    out = np.empty(oms.shape, dtype=complex)
    eye = np.eye(g.size, dtype=complex)
    for start in range(0, oms.size, _SOLVE_BLOCK):
        block = oms[start:start + _SOLVE_BLOCK]
        mats = block[:, None, None] * eye - h
        try:
            x = np.linalg.solve(mats, g)
        except np.linalg.LinAlgError:
            for w, mat in zip(block, mats):
                try:
                    np.linalg.solve(mat, g)
                except np.linalg.LinAlgError as exc:
                    raise NearPoleError(f"omega_test = {w} is a pole of the model",
                                        omega=w) from exc
            raise
        # conj(g) . x per row (vecdot conjugates its first argument), which
        # rounds like a per-frequency dot; x @ conj(g) rounds differently
        out[start:start + block.size] = np.vecdot(g, x)
    return complex(out[0]) if scalar else out


def diagonalize(p: PfmParams) -> list:
    """Poles of the model's level shift, sorted by real part.

    The poles are the eigenvalues Omega_i - i kappa_i/2 of the mode matrix.
    The residues come from the left and right eigenvector projections of g,
    which reproduces the matrix level shift exactly for any non-singular
    eigenbasis; eigenvector-matrix condition numbers above 1e10 are
    rejected as near-exceptional.
    """
    h = p.mode_matrix
    evals, s = np.linalg.eig(h)
    cond = np.linalg.cond(s)
    if cond > 1e10:
        raise ExceptionalPointError(
            f"eigenvector condition number {cond:.3g}: near an exceptional point")
    order = np.argsort(evals.real, kind="stable")
    evals = evals[order]
    s = s[:, order]
    v = np.linalg.inv(s)
    g_tilde = v @ p.g               # V g with V = S^{-1}
    g_bar_star = s.T @ np.conj(p.g)  # row projections g^dag S

    # verify the diagonalization actually holds (off-diagonal leakage)
    recon = v @ h @ s
    off = recon - np.diag(np.diag(recon))
    leak = np.max(np.abs(off)) / max(np.max(np.abs(np.diag(recon))), 1e-300)
    if leak > 1e-10:
        raise ExceptionalPointError(f"diagonalization leakage {leak:.3g}")

    return [Pole(omega_pole=complex(z), residue=complex(gb * gt), residual=0.0)
            for z, gb, gt in zip(evals, g_bar_star, g_tilde)]


def pole_sum(poles, omega):
    """Bare pole sum sum_i r_i / (omega - omega_pole_i), summed in list order."""
    om = np.asarray(omega, dtype=complex) if np.ndim(omega) else complex(omega)
    return sum(p.residue / (om - p.omega_pole) for p in poles)
