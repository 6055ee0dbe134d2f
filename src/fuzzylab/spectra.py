"""Angular sectors, radial reduction, spectra, and the commutative oracle.

States of sharp angular momentum are built from monomials of total degree
2j with a radial profile pinned to one shell,

    psi_jm^(n)  ~  sum  (a+_1)^m1 (a+_2)^m2 / (m1! m2!) * P_n(r)
                        * (a_1)^n1 (-a_2)^n2 / (n1! n2!),

summed over m1 + m2 = n1 + n2 = j and (m1 - m2) - (n1 - n2) = 2m; the state
lives on the total shell N = n + j.  Only integer j occurs for charge-zero
states; ``sector_shells`` is the one rule for j, m, the wall and the cutoff,
and a potential must be sampled on the space's own grid.  A sector's shells
must be distinct, so its states have disjoint support and a diagonal Gram
matrix, read (like the norms that normalize a sector) from one product split
by shell; reducing a superoperator of shell bandwidth w computes only the
entries within that bandwidth (the rest vanish exactly) and walks the
operator tree once, over the block-diagonal stack of the sums of the groups
of states 2w + 1 radial indices apart, whose images do not overlap.
H = H0 + U(r) reduces to a hermitian tridiagonal radial matrix;
``solve_sector`` takes it in closed form (``radial_hamiltonian``), with no
sector state; the reduction is the reference it is checked against.

Two walls are available.  ``boundary="hard"`` keeps every shell of the
truncated arena, which is the cutoff itself (a+ annihilates the top shell)
and is what the full superoperator spectrum decomposes into.  With
``boundary="dirichlet"`` the radial basis stops one shell short of the
cutoff; every matrix entry is then exact (unaffected by truncation), which
realizes a hard Dirichlet wall and is the like-for-like counterpart of the
finite-difference oracle.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .fock import NCState, radial_grid
from .operators import RadialFunction, Space, SuperOp

__all__ = [
    "AngularSector", "SpectrumResult", "build_sector", "shell_state",
    "reduce_hamiltonian", "reduce_superop", "radial_hamiltonian",
    "eigen_solve", "commutative_oracle", "full_kappa0_spectrum",
    "v2_consistency", "convergence_study", "ConvergenceRecord", "sector_shells",
]

GRAM_CONDITION_LIMIT = 1e8


def shell_state(space: Space, j: int, m: int, n: int) -> NCState:
    """The sector state with radial profile on shell n (unnormalized, sparse)."""
    basis = space.basis
    total = n + j
    if total > basis.n_max:
        raise ValueError("profile shell lies outside the truncated space")
    rows, cols, vals = [], [], []
    for m1 in range(j + 1):
        m2 = j - m1
        for n1 in range(j + 1):
            n2 = j - n1
            if (m1 - m2) - (n1 - n2) != 2 * m:
                continue
            pref = (-1.0) ** n2 / (math.factorial(m1) * math.factorial(m2)
                                   * math.factorial(n1) * math.factorial(n2))
            for q1 in range(n1, total - n2 + 1):
                q2 = total - q1
                p1, p2 = q1 - n1 + m1, q2 - n2 + m2
                amp = math.sqrt(float(math.perm(q1, n1)) * math.perm(q2, n2)
                                * math.perm(p1, m1) * math.perm(p2, m2))
                rows.append(basis.index[(p1, p2)])
                cols.append(basis.index[(q1, q2)])
                vals.append(pref * amp)
    return NCState.from_entries(basis, rows, cols, vals)


@dataclass
class AngularSector:
    """Orthonormal radial ladder of states with sharp (j, m)."""

    j: int
    m: int
    lam: float
    boundary: str
    states: List[NCState]
    shells: np.ndarray  # total shell per radial index

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def grid(self) -> np.ndarray:
        """Radial grid r = lam (N + 1) of the sector states."""
        return radial_grid(self.lam, self.shells)


def sector_shells(n_max: int, j, m, boundary: str) -> range:
    """The shells N = j .. top of the (j, m) sector below the cutoff n_max
    (top = n_max with the hard wall, n_max - 1 with the Dirichlet one);
    ``start`` is j as an integer.  The one rule for j, m, boundary and
    cutoff: raises ValueError for a j that is not an integer >= 0
    (half-integer j belongs to charged sectors), an m that is not an
    integer with |m| <= j, an unknown boundary or an n_max below shell j."""
    if not float(j).is_integer():
        raise ValueError(f"j={j!r} is not an integer; half-integer j belongs "
                         "to charged (kappa != 0) sectors, which are out of scope")
    j = int(j)
    if j < 0:
        raise ValueError(f"j must be an integer >= 0; got j={j}")
    if not float(m).is_integer() or abs(m) > j:
        raise ValueError(f"m must be an integer with |m| <= j; got m={m}")
    if boundary not in ("hard", "dirichlet"):
        raise ValueError("boundary must be 'hard' or 'dirichlet'")
    wall = int(boundary == "dirichlet")  # the Dirichlet wall drops the top shell
    if n_max - wall < j:
        raise ValueError(f"n_max too small: j={j} with the {boundary} boundary "
                         f"needs n_max >= {j + wall}; got {n_max}")
    return range(j, n_max - wall + 1)


def build_sector(space: Space, j: int, m: int, boundary: str = "hard") -> AngularSector:
    """Build the radial basis of the (j, m) sector, normalized in one pass."""
    shells = sector_shells(space.n_max, j, m, boundary)
    raw = [shell_state(space, shells.start, int(m), n) for n in range(len(shells))]
    total = functools.reduce(operator.add, raw)
    norms = np.sqrt(space.ip.by_shell(total, total)[shells].real)
    return AngularSector(j=shells.start, m=int(m), lam=space.lam, boundary=boundary,
                         states=[s * (1.0 / norm) for s, norm in zip(raw, norms)],
                         shells=np.asarray(shells, dtype=float))


def radial_hamiltonian(space: Space, j: int,
                       potential: Optional[RadialFunction] = None,
                       boundary: str = "hard", m: Optional[int] = None) -> tuple:
    """Closed form of ``reduce_hamiltonian`` and the sector grid lam (N + 1).

    Radial index k sits on shell N = k + j: H_kk = 1/lam^2 + U(r_N) and
    H_k,k+1 = -sqrt(1 - j(j+1)/((N+1)(N+2))) / (2 lam^2).  The hard wall's
    top entry is n_max/(2 lam^2 (n_max+1)) + U, because a+ annihilates the
    top shell.  The matrix is the same for every m, which is only validated.
    The potential must be sampled on the space's grid.
    """
    sector = sector_shells(space.n_max, j, j if m is None else m, boundary)
    j, lam = sector.start, space.lam
    shells = np.asarray(sector, dtype=float)
    diag = np.full(len(shells), 1.0 / lam**2)
    if boundary == "hard":
        diag[-1] = space.n_max / (2.0 * lam**2 * (space.n_max + 1))
    if potential is not None:
        potential.check_grid(space)
        diag = diag + potential.values[j:sector.stop]
    n1, n2 = shells[:-1] + 1.0, shells[:-1] + 2.0
    off = -np.sqrt(1.0 - j * (j + 1) / (n1 * n2)) / (2.0 * lam**2)
    mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return mat, radial_grid(lam, shells)


def reduce_superop(space: Space, sector: AngularSector, op: SuperOp) -> np.ndarray:
    """Matrix of a sector-preserving superoperator in the orthonormal radial basis.

    Only entries with |a - b| <= w = ``op.bandwidth`` are computed; the others
    pair states on shells further apart than the operator reaches.  States
    2w + 1 radial indices apart have images on disjoint shells, so ``op``
    is applied to the sum of each group ``states[c::2w+1]`` (a SuperOp to
    all the sums in one stacked walk, ``SuperOp.each``), and one product of
    a group's image with the sum of all sector states, split by row shell,
    holds every <s_a, op s_b> of the group.  The Gram matrix is diagonal
    (the shells are distinct) and is read the same way.
    """
    shells = sector.shells.astype(int)
    if np.any(np.diff(shells) <= 0):
        raise ValueError("sector shells must be strictly ascending for a "
                         "diagonal Gram matrix")
    d, w = sector.dim, op.bandwidth
    total = functools.reduce(operator.add, sector.states)
    g = space.ip.by_shell(total, total)[shells].real
    if g.min() <= 0 or g.max() / g.min() > GRAM_CONDITION_LIMIT:
        raise ValueError("ill-conditioned sector Gram matrix "
                         f"(cond ~ {g.max() / max(g.min(), 1e-300):.2e})")
    ginv = 1.0 / np.sqrt(g)
    out = np.zeros((d, d), dtype=complex)
    stride = 2 * w + 1
    groups = [functools.reduce(operator.add, sector.states[c::stride])
              for c in range(min(stride, d))]
    images = op.each(groups) if isinstance(op, SuperOp) else map(op, groups)
    for c, image in enumerate(images):
        col = space.ip.by_shell(total, image)[shells]
        for b in range(c, d, stride):
            a = slice(max(b - w, 0), min(b + w + 1, d))
            out[a, b] = ginv[a] * col[a] * ginv[b]
    return out


def reduce_hamiltonian(space: Space, sector: AngularSector,
                       potential: Optional[RadialFunction] = None) -> np.ndarray:
    """Reduced H = H0 + U(r); hermitian to machine precision by construction
    (an error above 1e-12 of the largest entry, or NaN, raises)."""
    mat = reduce_superop(space, sector, space.hamiltonian(potential))
    scale = max(np.abs(mat).max(), 1.0)
    herm_err = np.abs(mat - mat.conj().T).max() / scale
    if not herm_err <= 1e-12:  # NaN fails too
        raise ValueError(f"reduced Hamiltonian not hermitian (err {herm_err:.2e})")
    return 0.5 * (mat + mat.conj().T)


@dataclass
class SpectrumResult:
    """Eigenvalues of one sector solve plus the context that produced them."""

    lam: float
    n_max: int
    j: int
    potential: str
    boundary: str
    eigenvalues: np.ndarray
    metadata: dict = field(default_factory=dict)

    def rows(self) -> List[dict]:
        return [{"lam": self.lam, "n_max": self.n_max, "j": self.j,
                 "potential": self.potential, "level": k, "energy": float(e)}
                for k, e in enumerate(self.eigenvalues)]


def eigen_solve(matrix: np.ndarray) -> tuple:
    """Ascending eigensystem of a hermitian matrix; an eigenpair residual
    above 1e-8 of the largest entry, or NaN, raises."""
    evals, evecs = np.linalg.eigh(matrix)
    scale = max(np.abs(matrix).max(), 1.0)
    res = np.abs(matrix @ evecs - evecs * evals).max(axis=0)
    bad = np.flatnonzero(~(res <= 1e-8 * scale))  # NaN fails too
    if bad.size:
        k = bad[0]
        raise ValueError(f"eigenpair {k} residual {res[k]:.2e} exceeds tolerance")
    return evals, evecs


def solve_sector(space: Space, j: int, potential: Optional[RadialFunction] = None,
                 m: Optional[int] = None, boundary: str = "hard") -> SpectrumResult:
    """Diagonalize the closed-form radial Hamiltonian of the (j, m) sector;
    the result holds j as an int (``radial_hamiltonian`` has checked it)."""
    mat, grid = radial_hamiltonian(space, j, potential, boundary, m)
    evals, _evecs = eigen_solve(mat)
    return SpectrumResult(
        lam=space.lam, n_max=space.n_max, j=int(j),
        potential=potential.name if potential is not None else "free",
        boundary=boundary, eigenvalues=evals,
        metadata={"grid": grid.tolist()})


def commutative_oracle(grid: np.ndarray, h: float, j: int,
                       potential_values: Optional[np.ndarray] = None) -> np.ndarray:
    """Eigenvalues of the radial operator -(1/2)(d^2/dr^2 + (2/r) d/dr)
    + j(j+1)/(2 r^2) + U(r), central differences, Dirichlet at both ghost
    points of the uniform grid."""
    grid = np.asarray(grid, dtype=float)
    u = 0.0 if potential_values is None else np.asarray(potential_values)
    mat = np.diag(1.0 / h**2 + j * (j + 1) / (2.0 * grid**2) + u)
    mat += np.diag(-1.0 / (2 * h**2) - 1.0 / (2 * h * grid[:-1]), 1)
    mat += np.diag(-1.0 / (2 * h**2) + 1.0 / (2 * h * grid[1:]), -1)
    # similarity by diag(r) symmetrizes the first-derivative term exactly
    sym = (grid[:, None] * mat) / grid[None, :]
    sym = 0.5 * (sym + sym.T)
    return np.linalg.eigvalsh(sym)


def full_kappa0_spectrum(space: Space,
                         potential: Optional[RadialFunction] = None) -> np.ndarray:
    """Brute-force spectrum of H on the whole charge-zero subspace.

    Diagonalizes the compiled matrix of the superoperator on the packed
    charge-zero vector (every block entry with equal left/right shell),
    symmetrized by the weighted norm.  Dimension grows like n_max^3 / 3;
    intended for small spaces.
    """
    if space.n_max > 8:
        raise ValueError("brute-force solve is meant for n_max <= 8")
    big = space.hamiltonian(potential).packed_matrix(0).toarray()
    weights = np.sqrt(space.ip.weights(0))
    symm = (weights[:, None] * big) / weights[None, :]
    symm = 0.5 * (symm + symm.conj().T)
    return np.linalg.eigvalsh(symm)


def v2_consistency(space: Space, j: int) -> List[dict]:
    """Interior residual of V^2 = 2E - lam^2 E^2 on each free sector eigenvector.

    The quadratic map of the free eigenvalue reproduces the reduced V^2 of
    the Dirichlet sector exactly on radial rows at least 2 below the wall;
    the wall rows themselves carry the truncation and are excluded,
    mirroring the interior discipline used for all operator identities.
    """
    sector = build_sector(space, j, j, boundary="dirichlet")
    hmat, _grid = radial_hamiltonian(space, j, boundary="dirichlet")
    v = [space.velocity(k) for k in (1, 2, 3)]
    v2 = reduce_superop(space, sector, v[0] @ v[0] + v[1] @ v[1] + v[2] @ v[2])
    evals, evecs = eigen_solve(hmat)
    lam = space.lam
    out = []
    keep = sector.dim - 2
    for k, e in enumerate(evals):
        target = 2.0 * e - lam**2 * e**2
        resid = v2 @ evecs[:, k] - target * evecs[:, k]
        out.append({
            "level": k, "energy": float(e), "v2_target": float(target),
            "interior_residual": float(np.abs(resid[:keep]).max()) if keep > 0 else 0.0,
            "scale": float(max(abs(target), 1.0 / lam**2)),
        })
    return out


@dataclass
class ConvergenceRecord:
    lam: float
    n_max: int
    j: int
    level: int
    energy_nc: float
    energy_oracle: float
    gap: float


def convergence_study(schedule: Sequence[tuple], j: int,
                      potential_fn: Optional[Callable[[float], float]] = None,
                      potential_name: str = "free",
                      levels: int = 3) -> List[ConvergenceRecord]:
    """Compare NC and oracle spectra along a fixed-box schedule of (lam, n_max).

    The box R = lam (n_max + 1) should be held fixed along the schedule so
    the commutative limit lam -> 0 is taken at constant geometry.  Uses the
    Dirichlet wall on both sides of the comparison.
    """
    records = []
    for lam, n_max in schedule:
        space = Space(n_max, lam)
        potential = space.sample(potential_fn, potential_name)
        result = solve_sector(space, j, potential, boundary="dirichlet")
        sector_grid = np.asarray(result.metadata["grid"])
        # the sector's shells are j, j + 1, ...: U on them is already sampled
        uvals = None if potential is None else \
            potential.values[result.j:result.j + len(sector_grid)]
        oracle = commutative_oracle(sector_grid, lam, result.j, uvals)
        for level in range(min(levels, len(result.eigenvalues))):
            e_nc = float(result.eigenvalues[level])
            e_or = float(oracle[level])
            records.append(ConvergenceRecord(
                lam=lam, n_max=n_max, j=result.j, level=level,
                energy_nc=e_nc, energy_oracle=e_or, gap=abs(e_nc - e_or)))
    return records
