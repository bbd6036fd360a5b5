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

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PfmParams:
    """Few-mode model parameters.

    ``omega_matrix`` must be exactly symmetric (asymmetry above 1e-12 is
    rejected, tiny asymmetry is symmetrized away); ``kappa_R`` is optional
    and only needed for reflection spectra, not for the witness observable.
    """

    omega_matrix: np.ndarray
    kappa: np.ndarray
    g: np.ndarray
    kappa_R: np.ndarray | None = None
    omega_a: float = 0.0

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
        kr = self.kappa_R
        if kr is not None:
            kr = np.asarray(kr, dtype=float)
            if kr.shape != (n,):
                raise ValueError("kappa_R length must match the mode count")
        object.__setattr__(self, "omega_matrix", om)
        object.__setattr__(self, "kappa", ka)
        object.__setattr__(self, "g", gv)
        object.__setattr__(self, "kappa_R", kr)

    @property
    def n_modes(self) -> int:
        return self.omega_matrix.shape[0]

    @property
    def mode_matrix(self) -> np.ndarray:
        """Complex-symmetric effective mode matrix omega_cav - i kappa/2."""
        return self.omega_matrix - 0.5j * np.diag(self.kappa)

    def to_json(self) -> str:
        data = {"omega_matrix": self.omega_matrix.tolist(),
                "kappa": self.kappa.tolist(),
                "g": [{"re": z.real, "im": z.imag} for z in self.g],
                "kappa_R": self.kappa_R.tolist() if self.kappa_R is not None else None,
                "omega_a": self.omega_a}
        return json.dumps(data)


@dataclass(frozen=True)
class DiagonalBasis:
    """Non-Hermitian diagonal data of a few-mode model.

    ``V`` diagonalizes the mode matrix as V H V^{-1} = diag(Omega - i kappa/2);
    the transformed couplings give the pole residues r_i = g_bar_star_i * g_tilde_i.
    """

    Omega: np.ndarray
    kappa: np.ndarray
    g_tilde: np.ndarray
    g_bar_star: np.ndarray
    V: np.ndarray

    @property
    def poles(self) -> list:
        return [Pole(omega_pole=complex(self.Omega[i] - 0.5j * self.kappa[i]),
                     residue=complex(self.g_bar_star[i] * self.g_tilde[i]),
                     residual=0.0)
                for i in range(self.Omega.size)]

    def pole_sum(self, omega):
        om = np.asarray(omega, dtype=complex) if np.ndim(omega) else complex(omega)
        out = np.zeros(np.shape(om), dtype=complex) if np.ndim(om) else 0j
        for i in range(self.Omega.size):
            out = out + (self.g_bar_star[i] * self.g_tilde[i]) / (
                om - self.Omega[i] + 0.5j * self.kappa[i])
        return out


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
    eye = np.eye(p.n_modes, dtype=complex)
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


def diagonalize(p: PfmParams) -> DiagonalBasis:
    """Non-Hermitian diagonalization of the mode matrix into pole form.

    Eigenvalues are sorted by real part.  The residues come from the left
    and right eigenvector projections of g, which reproduces the matrix
    level shift exactly for any non-singular eigenbasis; eigenvector-matrix
    condition numbers above 1e10 are rejected as near-exceptional.
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
    s_inv = np.linalg.inv(s)
    g_tilde = s_inv @ p.g           # V g with V = S^{-1}
    g_bar_star = s.T @ np.conj(p.g)  # row projections g^dag S
    v = s_inv

    # verify the diagonalization actually holds (off-diagonal leakage)
    recon = v @ h @ s
    off = recon - np.diag(np.diag(recon))
    leak = np.max(np.abs(off)) / max(np.max(np.abs(np.diag(recon))), 1e-300)
    if leak > 1e-10:
        raise ExceptionalPointError(f"diagonalization leakage {leak:.3g}")

    return DiagonalBasis(Omega=evals.real, kappa=-2.0 * evals.imag,
                         g_tilde=g_tilde, g_bar_star=g_bar_star, V=v)


def from_real_poles(poles, tol: float = 1e-6) -> PfmParams:
    """Diagonal few-mode model from poles with (numerically) real residues.

    Reads omega_ii = Re omega_pole, kappa_i = -2 Im omega_pole and
    g_i = sqrt(Re residue); the inverse construction for complex residues
    requires interacting modes and is out of scope (the certification only
    establishes that interactions are necessary).
    """
    poles = list(poles)
    for p in poles:
        if p.residue is None:
            raise ValueError("pole without residue")
        r = complex(p.residue)
        if abs(r.imag) > tol * abs(r):
            raise ExceptionalPointError(
                f"complex residue {r} requires interacting modes; "
                "the inverse map is out of scope")
        if r.real <= 0:
            raise ValueError(f"residue {r} must have positive real part")
    n = len(poles)
    om = np.zeros((n, n))
    ka = np.empty(n)
    g = np.empty(n, dtype=complex)
    for i, p in enumerate(poles):
        om[i, i] = p.omega_pole.real
        ka[i] = -2.0 * p.omega_pole.imag
        g[i] = np.sqrt(p.residue.real)
    return PfmParams(omega_matrix=om, kappa=ka, g=g)


def linear_reflection(p: PfmParams, omega):
    """Reflection amplitude of the probed channel in linear response.

    Solves the closed first-moment system of the driven modes and atom in
    the frequency domain and applies the input-output relation, so

        r(omega) = 1 - 2 pi i kappa_R^T M(omega)^{-1} kappa_R,

    with the mode matrix dressed by the atomic response (solved jointly to
    stay regular at omega = omega_a).  For one mode with g = 0 this is the
    bare Lorentzian background; with coupling it reproduces the single-mode
    closed form exactly.
    """
    if p.kappa_R is None:
        raise ValueError("linear_reflection requires kappa_R")
    n = p.n_modes
    h = p.mode_matrix
    decoupled = bool(np.all(p.g == 0))
    scalar = np.ndim(omega) == 0
    oms = np.atleast_1d(np.asarray(omega, dtype=complex))
    out = np.empty(oms.shape, dtype=complex)
    dim = n if decoupled else n + 1
    big = np.zeros((dim, dim), dtype=complex)
    rhs = np.zeros(dim, dtype=complex)
    rhs[:n] = TWO_PI * p.kappa_R
    for i, w in enumerate(oms):
        big[:n, :n] = w * np.eye(n) - h
        if not decoupled:
            big[:n, n] = -p.g
            big[n, :n] = -np.conj(p.g)
            big[n, n] = w - p.omega_a
        try:
            x = np.linalg.solve(big, rhs)
        except np.linalg.LinAlgError as exc:
            raise NearPoleError(f"singular linear system at omega = {w}",
                                omega=w) from exc
        out[i] = 1.0 - 1j * np.dot(p.kappa_R, x[:n])
    return complex(out[0]) if scalar else out
