"""Disordered transmon array: domain types and Hamiltonian construction.

The array is a chain of L qutrits (bosonic modes truncated at n = 2) with
on-site frequency omega_l, attractive anharmonicity U_l and uniform
nearest-neighbor hopping J, open boundary conditions. Disorder is drawn so
that the second-level energy 2*omega_l - U_l is identical on every site:
the single-excitation levels are detuned site to site while the two-boson
("leakage") level stays resonant across the chain.

Chain operators are assembled from the occupation table of a `FockBasis`,
either the full d**L space or one of its excitation-number sectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .units import angular_from_mhz

#: Refuse to build operators above this many basis states. Operators are
#: stored dense, and a complex one of 4096 states takes 256 MiB.
MAX_DIMENSION = 4096

HERMITICITY_TOL = 1e-12

SITE_OPERATOR_KINDS = ("annihilation", "creation", "number", "leakage_number")


class DimensionBudgetError(ValueError):
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


class FockBasis:
    """Occupation table of the Fock states |n_1 ... n_L> with N = sum_l n_l <= max_excitations.

    Rows keep the order of the full d**L Kronecker space, site 1 most
    significant; with max_excitations = L (d - 1), the default, the table
    is the full space itself. The Hamiltonian conserves N and every jump
    and reset lowers it, so all of them act inside one such sector.
    """

    def __init__(self, length: int, local_dim: int = 3, max_excitations: int | None = None):
        full = length * (local_dim - 1)
        max_excitations = full if max_excitations is None else min(max_excitations, full)
        if length < 1 or local_dim < 2 or max_excitations < 0:
            raise ValueError("need length >= 1, local_dim >= 2 and max_excitations >= 0")
        if local_dim**length > 2**62:
            raise ValueError("full-space indices would overflow 64 bits")
        occ = np.zeros((1, 0), dtype=np.int64)
        for _ in range(length):
            occ = np.column_stack([np.repeat(occ, local_dim, axis=0),
                                   np.tile(np.arange(local_dim), len(occ))])
            occ = occ[occ.sum(axis=1) <= max_excitations]
            if len(occ) > MAX_DIMENSION:
                raise DimensionBudgetError(f"basis exceeds budget {MAX_DIMENSION}")
        self.length = length
        self.local_dim = local_dim
        self.max_excitations = max_excitations
        #: (dimension, L) occupations, one row per basis state
        self.occupations = occ
        self._place = local_dim ** np.arange(length - 1, -1, -1)
        # full-space index of every row, ascending because the order is kept
        self._codes = occ @ self._place
        occ.flags.writeable = False

    @property
    def dimension(self) -> int:
        return len(self.occupations)

    def index(self, occupations) -> np.ndarray:
        """Row of each occupation tuple (..., L) in the table; -1 where absent."""
        occ = np.asarray(occupations)
        codes = occ @ self._place
        rows = np.minimum(np.searchsorted(self._codes, codes), self.dimension - 1)
        inside = (self._codes[rows] == codes) & ((occ >= 0) & (occ < self.local_dim)).all(-1)
        return np.where(inside, rows, -1)

    def transitions(self, change: dict) -> tuple[np.ndarray, np.ndarray]:
        """Rows (i, j) with occupations[j] = occupations[i] + change, both in the table.

        `change` maps 1-based sites to occupation steps, e.g. {2: -1}.
        """
        step = np.zeros(self.length, dtype=np.int64)
        for site, delta in change.items():
            step[site - 1] = delta
        target = self.index(self.occupations + step)
        src = np.nonzero(target >= 0)[0]
        return src, target[src]

    def check(self, spec: LatticeSpec):
        if (self.length, self.local_dim) != (spec.length, spec.local_dim):
            raise ValueError("basis and lattice disagree on length or local dimension")


@dataclass
class OperatorMatrix:
    """Operator on the chain Hilbert space (or an effective model space).

    ``data`` is a dense (dimension, dimension) ndarray. ``model`` tags the
    space the operator acts on: "bose_hubbard" (the Fock states of
    ``basis``), "leakage_effective" (L-dim single-leakage-particle space)
    or "generic".
    """

    data: np.ndarray
    dimension: int
    hermitian: bool
    model: str = "generic"
    spec: LatticeSpec | None = field(default=None, repr=False)
    basis: FockBasis | None = field(default=None, repr=False)

    def dense(self) -> np.ndarray:
        return self.data


def _wrap(matrix: np.ndarray, hermitian: bool, model: str = "generic", spec=None,
          basis=None) -> OperatorMatrix:
    if hermitian:
        maxdiff = np.abs(matrix - matrix.conj().T).max(initial=0.0)
        if maxdiff > HERMITICITY_TOL * max(1.0, np.abs(matrix).max(initial=0.0)):
            raise ValueError("matrix flagged hermitian is not hermitian")
    return OperatorMatrix(data=matrix, dimension=matrix.shape[0], hermitian=hermitian,
                          model=model, spec=spec, basis=basis)


def _chain_operator(spec: LatticeSpec, basis: FockBasis, rows, cols, values,
                    hermitian: bool) -> OperatorMatrix:
    values = np.asarray(values)
    matrix = np.zeros((basis.dimension, basis.dimension), dtype=values.dtype)
    np.add.at(matrix, (rows, cols), values)
    return _wrap(matrix, hermitian, model="bose_hubbard", spec=spec, basis=basis)


@functools.lru_cache(maxsize=8)
def full_basis(length: int, local_dim: int = 3) -> FockBasis:
    """The full d**L Fock space as a FockBasis, built once per shape."""
    return FockBasis(length, local_dim)


def _basis_for(spec: LatticeSpec, basis: FockBasis | None) -> FockBasis:
    if basis is None:
        return full_basis(spec.length, spec.local_dim)
    basis.check(spec)
    return basis


class Monomial(NamedTuple):
    """Operator sum_k amp_k |dst_k><src_k| over the rows of a FockBasis.

    Every operator of the model that is not the Hamiltonian maps each Fock
    state to at most one Fock state and no two states to the same one: the
    entries of `src` are distinct, and so are those of `dst`. Its L^dag L is
    therefore diagonal, with |amp_k|^2 at row src_k.
    """

    src: np.ndarray
    dst: np.ndarray
    amp: np.ndarray


def site_monomial(basis: FockBasis, site: int, kind: str) -> Monomial:
    """Local operator at `site` (1-based) as a Monomial over `basis`.

    Matrix elements are read off the basis occupations. A creation
    operator drops the states it would raise out of a sector.
    """
    if not 1 <= site <= basis.length:
        raise ValueError(f"site {site} outside 1..{basis.length}")
    if kind not in SITE_OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    n = basis.occupations[:, site - 1].astype(float)
    if kind in ("number", "leakage_number"):
        diag = n if kind == "number" else n * (n - 1.0) / 2.0
        rows = np.flatnonzero(diag)
        return Monomial(rows, rows, diag[rows])
    # <n-1|a|n> = sqrt(n) and <n+1|a^dag|n> = sqrt(n+1)
    lowering = kind == "annihilation"
    src, dst = basis.transitions({site: -1 if lowering else +1})
    return Monomial(src, dst, np.sqrt(n[src] if lowering else n[src] + 1.0))


def build_site_operator(spec: LatticeSpec, site: int, kind: str,
                        basis: FockBasis | None = None) -> OperatorMatrix:
    """Local operator at `site` (1-based) in `basis`, by default the full space.

    The dense form of `site_monomial`.
    """
    basis = _basis_for(spec, basis)
    op = site_monomial(basis, site, kind)
    return _chain_operator(spec, basis, op.dst, op.src, op.amp,
                           hermitian=kind in ("number", "leakage_number"))


def total_number_operator(spec: LatticeSpec) -> OperatorMatrix:
    """Total excitation number, sum of the site number operators."""
    total = sum(build_site_operator(spec, s, "number").data for s in range(1, spec.length + 1))
    return _wrap(total, hermitian=True, model="bose_hubbard", spec=spec)


def build_bose_hubbard(real: DisorderRealization,
                       basis: FockBasis | None = None) -> OperatorMatrix:
    """Chain Hamiltonian for one disorder realization, in `basis` (default: full space).

    H = sum_l [omega_l n_l - (U_l/2) n_l (n_l - 1) + J (a_l^dag a_{l+1} + h.c.)]
    with open boundaries. H conserves the total excitation number, so it
    closes on every excitation-number sector.
    """
    spec = real.spec
    basis = _basis_for(spec, basis)
    n = basis.occupations.astype(float)
    diagonal = np.arange(basis.dimension)
    rows, cols = [diagonal], [diagonal]
    values = [n @ real.omegas - 0.5 * (n * (n - 1.0)) @ real.anharmonicities]
    for site in range(1, spec.length):
        # a_l^dag a_{l+1} moves one boson from site l+1 to site l
        src, dst = basis.transitions({site: +1, site + 1: -1})
        amp = spec.hopping * np.sqrt((n[src, site - 1] + 1.0) * n[src, site])
        rows += [dst, src]
        cols += [src, dst]
        values += [amp, amp]
    return _chain_operator(spec, basis, np.concatenate(rows), np.concatenate(cols),
                           np.concatenate(values).astype(complex), hermitian=True)


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
    if channel_kind in ("periodic_feedback", "random_feedback"):
        shift = 0.5 * rate * np.eye(dim)
    elif channel_kind == "dissipation":
        if ham.model == "leakage_effective":
            if not 1 <= reset_site <= dim:
                raise ValueError(f"site {reset_site} outside 1..{dim}")
            shift = np.zeros((dim, dim))
            shift[reset_site - 1, reset_site - 1] = rate
        else:
            if ham.spec is None:
                raise ValueError("bose_hubbard operator lacks its LatticeSpec")
            number = build_site_operator(ham.spec, reset_site, "number", ham.basis).data
            shift = 0.5 * rate * number
    else:
        raise ValueError(f"unknown channel kind {channel_kind!r}")
    return _wrap(ham.data.astype(complex) - 1j * shift, hermitian=False,
                 model=ham.model, spec=ham.spec, basis=ham.basis)
