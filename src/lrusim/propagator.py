"""Time evolution under Hermitian and non-Hermitian Hamiltonians.

Every evolution diagonalizes the Hamiltonian once (`eigensystem`) and then
applies exp(-i H tau) in its eigenbasis (`evolve`), which is exact for any
step size. Hamiltonians are dense ndarrays, batched over leading axes, and
states are complex amplitude arrays over the same rows: those of a
`lattice.FockBasis`, whose size `lattice.MAX_DIMENSION` bounds, or of the
L x L leakage-pair model. The trajectory engine evolves whole batches of
trajectories this way.
"""

from __future__ import annotations

import numpy as np


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


def propagate_nonhermitian_norm(ham_eff: np.ndarray, psi0, t_grid) -> np.ndarray:
    """Squared norm of exp(-i H_eff t) |psi0> on a time grid, psi0 an amplitude array.

    For a dissipative no-jump Hamiltonian the result is the trajectory
    survival probability and is monotone non-increasing.
    """
    evals, vecs, vinv = eigensystem(ham_eff, hermitian=False)
    site = evolve(vecs, evals, vinv @ psi0, t_grid)
    return (site.real**2 + site.imag**2).sum(axis=-1)
