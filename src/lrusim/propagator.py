"""Time evolution under Hermitian and non-Hermitian Hamiltonians.

Every evolution diagonalizes the Hamiltonian once (`eigensystem`) and then
applies exp(-i H tau) in its eigenbasis (`evolve`), which is exact for any
step size. The trajectory engine does this for whole batches of
trajectories; every operator it builds lives in an excitation-number
sector of at most EXACT_DIM_LIMIT states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import OperatorMatrix

#: Largest sector dimension the trajectory engine diagonalizes.
EXACT_DIM_LIMIT = 729


@dataclass
class StateVector:
    """Complex amplitude vector over the product basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm() ** 2 - 1.0) < 1e-9

    def normalized(self) -> "StateVector":
        return StateVector(self.amplitudes / self.norm())

    @classmethod
    def basis_state(cls, spec, occupations) -> "StateVector":
        """Product Fock state |n_1 n_2 ... n_L>, site 1 leftmost."""
        occupations = list(occupations)
        if len(occupations) != spec.length:
            raise ValueError("need one occupation per site")
        idx = 0
        for n in occupations:
            if not 0 <= n < spec.local_dim:
                raise ValueError("occupation outside local dimension")
            idx = idx * spec.local_dim + n
        amp = np.zeros(spec.dimension, dtype=complex)
        amp[idx] = 1.0
        return cls(amp)

    @classmethod
    def product_state(cls, locals_) -> "StateVector":
        """Tensor product of per-site local state vectors."""
        amp = np.array([1.0], dtype=complex)
        for loc in locals_:
            amp = np.kron(amp, np.asarray(loc, dtype=complex))
        return cls(amp)


def eigensystem(matrices, hermitian: bool):
    """Eigenvalues, right eigenvectors and their inverse, over leading batch axes.

    `matrices` has shape (..., n, n). Hermitian input goes through `eigh`,
    whose eigenvector matrix inverts by conjugate transposition; anything
    else through `eig` plus an explicit inverse. Eigenvalues are complex
    either way, so exp(-i lambda t) reads the same for both.
    """
    if hermitian:
        evals, vecs = np.linalg.eigh(matrices)
        return evals.astype(complex), vecs, vecs.conj().swapaxes(-1, -2)
    evals, vecs = np.linalg.eig(matrices)
    return evals, vecs, np.linalg.inv(vecs)


def evolve(vecs, evals, coeffs, taus):
    """exp(-i H tau) applied in the eigenbasis: V exp(-i lambda tau) c.

    `vecs` (..., n, n) and `evals` (..., n) come from `eigensystem`,
    `coeffs` (..., n) are a state's eigenbasis coefficients (V^-1 psi) and
    `taus` (...) the durations; leading axes broadcast. Returns the
    amplitudes (..., n) in the original basis.
    """
    phased = coeffs * np.exp(-1j * evals * np.asarray(taus)[..., None])
    return np.matmul(vecs, phased[..., None])[..., 0]


def propagate_nonhermitian_norm(ham_eff: OperatorMatrix, psi0: StateVector, t_grid) -> np.ndarray:
    """Squared norm of exp(-i H_eff t) |psi0> on a time grid.

    For a dissipative no-jump Hamiltonian the result is the trajectory
    survival probability and is monotone non-increasing.
    """
    evals, vecs, vinv = eigensystem(ham_eff.dense(), ham_eff.hermitian)
    site = evolve(vecs, evals, vinv @ psi0.amplitudes, t_grid)
    return (site.real**2 + site.imag**2).sum(axis=-1)
