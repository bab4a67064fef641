"""Disordered transmon array: domain types and Hamiltonian construction.

The array is a chain of L qutrits (bosonic modes truncated at n = 2) with
on-site frequency omega_l, attractive anharmonicity U_l and uniform
nearest-neighbor hopping J, open boundary conditions. Disorder is drawn so
that the second-level energy 2*omega_l - U_l is identical on every site:
the single-excitation levels are detuned site to site while the two-boson
("leakage") level stays resonant across the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .units import angular_from_mhz

#: Matrices at or below this dimension are stored dense.
DENSE_DIM_LIMIT = 1024

#: Refuse to build operators above this many basis states.
MAX_DIMENSION = 60_000

HERMITICITY_TOL = 1e-12

SITE_OPERATOR_KINDS = ("annihilation", "creation", "number", "leakage_number")


class DimensionBudgetError(Exception):
    """Requested Hilbert space exceeds the configured memory budget."""


@dataclass(frozen=True)
class LatticeSpec:
    """Static parameters of the transmon chain (angular frequencies).

    Parameters
    ----------
    length : int
        Number of transmons L.
    mean_frequency : float
        Mean on-site frequency, rad/us.
    mean_anharmonicity : float
        Mean anharmonicity, rad/us. Must be positive.
    hopping : float
        Nearest-neighbor hopping rate J, rad/us.
    disorder : float
        Disorder strength W of the first-level spread, rad/us.
    local_dim : int
        Local Hilbert space dimension, 3 (qutrit) unless overridden.
    """

    length: int
    mean_frequency: float
    mean_anharmonicity: float
    hopping: float
    disorder: float = 0.0
    local_dim: int = 3

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.local_dim < 3:
            raise ValueError("local_dim must be >= 3")
        if self.hopping < 0 or self.disorder < 0:
            raise ValueError("hopping and disorder must be non-negative")
        if self.mean_anharmonicity <= 0:
            raise ValueError("mean_anharmonicity must be positive")

    @classmethod
    def from_mhz(cls, length, f_mhz, u_mhz, j_mhz, w_mhz=0.0, local_dim=3):
        """Build a spec from ordinary frequencies in MHz (times in us)."""
        return cls(
            length=length,
            mean_frequency=angular_from_mhz(f_mhz),
            mean_anharmonicity=angular_from_mhz(u_mhz),
            hopping=angular_from_mhz(j_mhz),
            disorder=angular_from_mhz(w_mhz),
            local_dim=local_dim,
        )

    @property
    def dimension(self) -> int:
        return self.local_dim**self.length

    @property
    def hopping_effective(self) -> float:
        """Leakage-pair hopping rate 2 J^2 / U_bar."""
        return 2.0 * self.hopping**2 / self.mean_anharmonicity

    @property
    def second_level_energy(self) -> float:
        """Uniform two-boson on-site energy 2*omega_bar - U_bar."""
        return 2.0 * self.mean_frequency - self.mean_anharmonicity


@dataclass(frozen=True)
class DisorderRealization:
    """One draw of per-site frequencies and anharmonicities.

    Satisfies 2*omegas - anharmonicities == spec.second_level_energy exactly
    (up to float rounding) on every site.
    """

    spec: LatticeSpec
    omegas: np.ndarray
    anharmonicities: np.ndarray
    seed: int

    def __post_init__(self):
        e2 = 2.0 * self.omegas - self.anharmonicities
        if np.max(np.abs(e2 - self.spec.second_level_energy)) > 1e-9 * max(
            1.0, abs(self.spec.second_level_energy)
        ):
            raise ValueError("realization violates the uniform second-level constraint")

    @classmethod
    def explicit(cls, spec: LatticeSpec, omegas) -> "DisorderRealization":
        """Realization with given on-site frequencies; anharmonicities follow
        from the uniform second-level constraint."""
        omegas = np.asarray(omegas, dtype=float)
        anh = 2.0 * omegas - spec.second_level_energy
        return cls(spec=spec, omegas=omegas, anharmonicities=anh, seed=-1)


def realize_disorder(spec: LatticeSpec, seed: int) -> DisorderRealization:
    """Draw one disorder realization.

    The first-level detunings are i.i.d. uniform on [-W/2, +W/2]; the
    anharmonicities follow from the uniform second-level constraint,
    U_l = 2*omega_l - (2*omega_bar - U_bar), giving them spread W.
    Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-spec.disorder / 2.0, spec.disorder / 2.0, spec.length)
    omegas = spec.mean_frequency + delta
    # equivalent to 2*omega_l - (2*omega_bar - U_bar) but exact at delta = 0
    anh = spec.mean_anharmonicity + 2.0 * delta
    return DisorderRealization(spec=spec, omegas=omegas, anharmonicities=anh, seed=seed)


@dataclass
class OperatorMatrix:
    """Operator on the chain Hilbert space (or an effective model space).

    ``data`` is a dense ndarray for dimensions up to DENSE_DIM_LIMIT and a
    CSR sparse matrix above. ``model`` tags the space the operator acts on:
    "bose_hubbard" (full d^L qutrit space), "leakage_effective" (L-dim
    single-leakage-particle space) or "generic".
    """

    data: "np.ndarray | sp.spmatrix"
    dimension: int
    hermitian: bool
    model: str = "generic"
    spec: LatticeSpec | None = field(default=None, repr=False)

    def dense(self) -> np.ndarray:
        if sp.issparse(self.data):
            return self.data.toarray()
        return np.asarray(self.data)

    def sparse(self) -> sp.csr_matrix:
        if sp.issparse(self.data):
            return self.data.tocsr()
        return sp.csr_matrix(self.data)

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            return self.data @ other.data
        return self.data @ other


def _wrap(matrix, hermitian: bool, model: str = "generic", spec=None) -> OperatorMatrix:
    dim = matrix.shape[0]
    if dim <= DENSE_DIM_LIMIT and sp.issparse(matrix):
        matrix = matrix.toarray()
    elif dim > DENSE_DIM_LIMIT and not sp.issparse(matrix):
        matrix = sp.csr_matrix(matrix)
    if hermitian:
        diff = matrix - matrix.conj().T
        if sp.issparse(diff):
            maxdiff = np.abs(diff.data).max() if diff.nnz else 0.0
        else:
            maxdiff = np.abs(diff).max() if diff.size else 0.0
        if maxdiff > HERMITICITY_TOL * max(1.0, _scale(matrix)):
            raise ValueError("matrix flagged hermitian is not hermitian")
    return OperatorMatrix(data=matrix, dimension=dim, hermitian=hermitian, model=model, spec=spec)


def _scale(matrix) -> float:
    if sp.issparse(matrix):
        return float(np.abs(matrix.data).max()) if matrix.nnz else 0.0
    return float(np.abs(matrix).max()) if matrix.size else 0.0


def local_ladder(d: int) -> np.ndarray:
    """Truncated bosonic annihilation operator, <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, d)), k=1)


def _local_operator(d: int, kind: str) -> np.ndarray:
    a = local_ladder(d)
    if kind == "annihilation":
        return a
    if kind == "creation":
        return a.T.conj()
    n = np.arange(d, dtype=float)
    if kind == "number":
        return np.diag(n)
    if kind == "leakage_number":
        return np.diag(n * (n - 1.0) / 2.0)
    raise ValueError(f"unknown operator kind {kind!r}")


def _check_dimension(spec: LatticeSpec):
    if spec.dimension > MAX_DIMENSION:
        raise DimensionBudgetError(
            f"dimension {spec.dimension} exceeds budget {MAX_DIMENSION}"
        )


def build_site_operator(spec: LatticeSpec, site: int, kind: str) -> OperatorMatrix:
    """Local operator at `site` (1-based), embedded by Kronecker products.

    Site 1 is the leftmost (most significant) tensor factor.
    """
    if not 1 <= site <= spec.length:
        raise ValueError(f"site {site} outside 1..{spec.length}")
    if kind not in SITE_OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    _check_dimension(spec)
    d = spec.local_dim
    op = sp.csr_matrix(_local_operator(d, kind))
    left = sp.identity(d ** (site - 1), format="csr")
    right = sp.identity(d ** (spec.length - site), format="csr")
    full = sp.kron(sp.kron(left, op), right, format="csr")
    hermitian = kind in ("number", "leakage_number")
    return _wrap(full, hermitian, model="bose_hubbard", spec=spec)


def total_number_operator(spec: LatticeSpec) -> OperatorMatrix:
    """Total excitation number, sum of the site number operators."""
    total = sum(build_site_operator(spec, s, "number").sparse() for s in range(1, spec.length + 1))
    return _wrap(total, hermitian=True, model="bose_hubbard", spec=spec)


def build_bose_hubbard(real: DisorderRealization) -> OperatorMatrix:
    """Chain Hamiltonian for one disorder realization.

    H = sum_l [omega_l n_l - (U_l/2) n_l (n_l - 1) + J (a_l^dag a_{l+1} + h.c.)]
    with open boundaries.
    """
    spec = real.spec
    _check_dimension(spec)
    d, L = spec.local_dim, spec.length
    n_local = _local_operator(d, "number")
    a_local = local_ladder(d)

    ham = sp.csr_matrix((spec.dimension, spec.dimension), dtype=complex)
    for site in range(1, L + 1):
        onsite = (
            real.omegas[site - 1] * n_local
            - 0.5 * real.anharmonicities[site - 1] * n_local @ (n_local - np.eye(d))
        )
        ham = ham + _embed(sp.csr_matrix(onsite), site, d, L)
    hop_pair = sp.kron(sp.csr_matrix(a_local.T), sp.csr_matrix(a_local), format="csr")
    for site in range(1, L):
        hop = spec.hopping * _embed_pair(hop_pair, site, d, L)
        ham = ham + hop + hop.conj().T
    return _wrap(ham, hermitian=True, model="bose_hubbard", spec=spec)


def _embed(op: sp.csr_matrix, site: int, d: int, L: int) -> sp.csr_matrix:
    left = sp.identity(d ** (site - 1), format="csr")
    right = sp.identity(d ** (L - site), format="csr")
    return sp.kron(sp.kron(left, op), right, format="csr")


def _embed_pair(op: sp.csr_matrix, site: int, d: int, L: int) -> sp.csr_matrix:
    left = sp.identity(d ** (site - 1), format="csr")
    right = sp.identity(d ** (L - site - 1), format="csr")
    return sp.kron(sp.kron(left, op), right, format="csr")


def build_effective_propagation(real: DisorderRealization) -> OperatorMatrix:
    """Single-particle Hamiltonian for a leakage pair hopping along the chain.

    L x L matrix with diagonal (J_prop, 0, ..., 0, J_prop) and off-diagonals
    -J_prop, where J_prop = 2 J^2 / U_bar. Valid for J/U_bar << 1; the edge
    diagonal entries encode the boundary-induced detuning of the end sites.
    """
    spec = real.spec
    L = spec.length
    jp = spec.hopping_effective
    mat = np.zeros((L, L))
    mat[0, 0] = jp
    mat[L - 1, L - 1] = jp
    for i in range(L - 1):
        mat[i, i + 1] = -jp
        mat[i + 1, i] = -jp
    return _wrap(mat.astype(complex), hermitian=True, model="leakage_effective", spec=spec)


def build_effective_nonhermitian(
    ham: OperatorMatrix, reset_site: int, rate: float, channel_kind: str
) -> OperatorMatrix:
    """No-jump effective Hamiltonian for a reset channel at `reset_site`.

    Dissipation subtracts i/2 times the boson-number operator at the reset
    site scaled by the rate; in the leakage-effective model one particle
    carries two bosons, so the single-particle projector enters with the
    full rate. Feedback measurement with a complete projector set subtracts
    i*rate/2 times the identity.
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if rate == 0:
        return ham
    dim = ham.dimension
    if channel_kind in ("periodic_feedback", "random_feedback", "feedback"):
        shift = sp.identity(dim, format="csr") * (0.5 * rate)
    elif channel_kind == "dissipation":
        if ham.model == "leakage_effective":
            if not 1 <= reset_site <= dim:
                raise ValueError(f"site {reset_site} outside 1..{dim}")
            proj = sp.csr_matrix(
                ([rate], ([reset_site - 1], [reset_site - 1])), shape=(dim, dim)
            )
            shift = proj
        else:
            if ham.spec is None:
                raise ValueError("bose_hubbard operator lacks its LatticeSpec")
            number = build_site_operator(ham.spec, reset_site, "number").sparse()
            shift = 0.5 * rate * number
    else:
        raise ValueError(f"unknown channel kind {channel_kind!r}")
    out = ham.sparse().astype(complex) - 1j * shift
    return _wrap(out.tocsr() if sp.issparse(out) else out, hermitian=False,
                 model=ham.model, spec=ham.spec)
