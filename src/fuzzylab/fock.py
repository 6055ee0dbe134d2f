"""Truncated two-mode Fock space and the states living on it.

Space is generated by two bosonic modes a_1, a_2 acting on vectors
|n1, n2>.  Coordinates are realized as x_j = lam * a+ sigma_j a, the radius
as r = lam * (N + 1) with N the total number operator, and wave functions
are *operators* on the Fock space ("NC states") measured with the weighted
norm ||psi||^2 = 4 pi lam^2 Tr[psi+ r psi].

The space is truncated with a hard cutoff at total occupation ``n_max``:
a+ annihilates the top shell.  Identities that are exact in the full space
remain exact on the truncation only away from the cutoff shell, which is
what :func:`interior_projection` is for.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

__all__ = [
    "PAULI",
    "EPS3",
    "FockBasis",
    "FockMatrix",
    "NCState",
    "WeightedInnerProduct",
    "enumerate_basis",
    "ladder_matrix",
    "coordinate_matrix",
    "radial_matrix",
    "inner_product",
    "random_state",
    "interior_projection",
    "state_to_text",
    "state_from_text",
]

#: Pauli matrices sigma_1, sigma_2, sigma_3 (index 0..2).
PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

#: Totally antisymmetric symbol eps_{ijk}, eps_{123} = +1 (0-based indices).
EPS3 = np.zeros((3, 3, 3))
for _perm, _sgn in ((((0, 1, 2)), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                    ((2, 1, 0), -1), ((0, 2, 1), -1), ((1, 0, 2), -1)):
    EPS3[_perm] = _sgn

Matrix = Union[np.ndarray, sp.spmatrix]


@dataclass(frozen=True)
class Packing:
    """Row-major layout of the entries of one charge kappa.

    A charge-kappa state only occupies entries (i, k) with
    shell(i) - shell(k) = kappa.  Packed in row-major order, the entries of
    row i are the whole right shell shell(i) - kappa, so entry (i, k) sits at
    ``offset[i] + k - start(shell(k))``; ``flat`` holds ``i * dim + k`` of
    every packed entry, for gathering from and scattering into dense states.
    """

    offset: np.ndarray
    flat: np.ndarray

    @property
    def size(self) -> int:
        return len(self.flat)


@dataclass(frozen=True)
class FockBasis:
    """Enumerated basis |n1, n2> with n1 + n2 <= n_max, grouped by shell.

    States are ordered by total occupation N = n1 + n2 (ascending) and,
    within a shell, by n1 descending; ``index`` is the inverse map of
    ``labels``.  dim = (n_max + 1)(n_max + 2) / 2.
    """

    n_max: int
    labels: tuple = field(repr=False)
    index: dict = field(repr=False)
    shells: np.ndarray = field(repr=False)  # total occupation per index
    _packings: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def shell_slice(self, n: int) -> slice:
        """Contiguous index range of the shell N = n."""
        start = n * (n + 1) // 2
        return slice(start, start + n + 1)

    def packing(self, kappa: int) -> Packing:
        """The (cached) packed layout of the charge-kappa entries."""
        got = self._packings.get(kappa)
        if got is None:
            right = self.shells - kappa
            length = np.where((right >= 0) & (right <= self.n_max), right + 1, 0)
            offset = np.cumsum(length) - length
            rows = np.repeat(np.arange(self.dim), length)
            within = np.arange(len(rows)) - offset[rows]
            first = right[rows] * (right[rows] + 1) // 2
            got = Packing(offset, rows * self.dim + first + within)
            self._packings[kappa] = got
        return got

    def charges(self, matrix: np.ndarray) -> np.ndarray:
        """Charges shell(i) - shell(k) of the nonzero entries of a dense
        matrix, found block by block."""
        starts = np.arange(self.n_max + 1) * np.arange(1, self.n_max + 2) // 2
        # one bit per real and imaginary part, packed eight to a byte, so
        # the reduction over each row shell runs on bytes
        parts = np.ascontiguousarray(matrix, dtype=complex).view(float)
        bits = np.packbits(parts != 0, axis=1)
        rows = np.bitwise_or.reduceat(bits, starts, axis=0)
        rows = np.unpackbits(rows, axis=1, count=parts.shape[1])
        blocks = np.logical_or.reduceat(rows, 2 * starts, axis=1)
        left, right = np.nonzero(blocks)
        return np.unique(left - right)


def enumerate_basis(n_max: int) -> FockBasis:
    """Build the truncated two-mode basis with shell-contiguous ordering."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    labels = []
    for n in range(n_max + 1):
        for n1 in range(n, -1, -1):
            labels.append((n1, n - n1))
    index = {lab: i for i, lab in enumerate(labels)}
    shells = np.array([n1 + n2 for (n1, n2) in labels], dtype=np.int64)
    return FockBasis(n_max=n_max, labels=tuple(labels), index=index, shells=shells)


@dataclass
class FockMatrix:
    """A sparse operator on the truncated Fock space."""

    basis: FockBasis
    matrix: sp.csr_matrix


def ladder_matrix(basis: FockBasis, mode: int, dagger: bool = False) -> FockMatrix:
    """Annihilation (or creation) matrix for mode 1 or 2.

    a_mode |n1,n2> = sqrt(n_mode) |..., n_mode - 1, ...>.  The creation
    matrix is the adjoint, so a+ maps the top shell N = n_max to zero;
    this is the declared truncation artifact.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    shells = basis.shells
    n2 = np.arange(basis.dim) - shells * (shells + 1) // 2
    occ = n2 if mode == 2 else shells - n2
    cols = np.flatnonzero(occ > 0)
    # the target keeps its position within the shell below for mode 1 and
    # moves one place left for mode 2
    below = shells[cols] - 1
    rows = below * (below + 1) // 2 + n2[cols] - (mode == 2)
    vals = np.sqrt(occ[cols].astype(float)).astype(complex)
    m = sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))
    if dagger:
        return FockMatrix(basis, m.conj().T.tocsr())
    return FockMatrix(basis, m)


def coordinate_matrix(basis: FockBasis, j: int, lam: float) -> FockMatrix:
    """x_j = lam * sigma^j_{ab} a+_a a_b.  Hermitian, shell-preserving."""
    if j not in (1, 2, 3):
        raise ValueError("j must be 1, 2 or 3")
    if lam <= 0:
        raise ValueError("lam must be positive")
    a = [ladder_matrix(basis, m).matrix for m in (1, 2)]
    ad = [m.conj().T.tocsr() for m in a]
    return FockMatrix(basis, coordinate_from_ladders(a, ad, j, lam))


def coordinate_from_ladders(a, ad, j: int, lam: float) -> sp.csr_matrix:
    """x_j = lam * sigma^j_{ab} a+_a a_b from the ladder matrices a, a+."""
    sig = PAULI[j - 1]
    x = sp.csr_matrix(a[0].shape, dtype=complex)
    for al in range(2):
        for be in range(2):
            if sig[al, be] != 0:
                x = x + lam * sig[al, be] * (ad[al] @ a[be])
    return x.tocsr()


def radial_matrix(basis: FockBasis, lam: float) -> FockMatrix:
    """r = lam * (N + 1): diagonal, strictly positive."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    diag = lam * (basis.shells.astype(float) + 1.0)
    return FockMatrix(basis, sp.diags(diag, format="csr", dtype=complex))


def _absmax(matrix: Matrix) -> float:
    if sp.issparse(matrix):
        return 0.0 if matrix.nnz == 0 else float(np.abs(matrix.data).max())
    return float(np.abs(matrix).max()) if matrix.size else 0.0


@dataclass
class NCState:
    """An operator-valued wave function on the truncated Fock space.

    Physical (scalar) states have charge kappa = 0: only blocks with equal
    left/right total occupation are populated, so [N, psi] = 0.  The matrix
    may be dense or sparse; shell bookkeeping works on either.
    """

    basis: FockBasis
    matrix: Matrix

    def dense(self) -> np.ndarray:
        if sp.issparse(self.matrix):
            return self.matrix.toarray()
        return np.asarray(self.matrix)

    def _census(self, tol: float):
        """Left and right shells of every entry above ``tol`` times the
        largest entry."""
        coo = sp.coo_matrix(self.matrix)
        keep = np.abs(coo.data) > tol * _absmax(self.matrix)
        shells = self.basis.shells
        return shells[coo.row[keep]], shells[coo.col[keep]]

    def kappa(self, tol: float = 0.0) -> Optional[int]:
        """The unique charge (left N) - (right N) over nonzero blocks.

        Returns None for the zero state or a mixed-charge superposition.
        """
        left, right = self._census(tol)
        kappas = np.unique(left - right)
        return int(kappas[0]) if len(kappas) == 1 else None

    def support_max(self, tol: float = 0.0) -> int:
        """Largest shell max(N_left, N_right) carrying a nonzero block."""
        left, right = self._census(tol)
        return int(max(left.max(initial=-1), right.max(initial=-1)))

    def __add__(self, other: "NCState") -> "NCState":
        _check_same_basis(self, other)
        return NCState(self.basis, self.matrix + other.matrix)

    def __sub__(self, other: "NCState") -> "NCState":
        _check_same_basis(self, other)
        return NCState(self.basis, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "NCState":
        return NCState(self.basis, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "NCState":
        return NCState(self.basis, -self.matrix)

    def absmax(self) -> float:
        return _absmax(self.matrix)


def _check_same_basis(a: NCState, b: NCState) -> None:
    if a.basis.n_max != b.basis.n_max:
        raise ValueError("states live on different bases "
                         f"(n_max {a.basis.n_max} vs {b.basis.n_max})")


@dataclass
class WeightedInnerProduct:
    """<phi, psi> = 4 pi lam^2 Tr[phi+ r psi] with r = lam (N + 1).

    The r weight is what makes the deformed Laplacian hermitian; it is
    strictly positive, so the form is positive definite.
    """

    basis: FockBasis
    lam: float

    def __post_init__(self):
        self.r_diag = self.lam * (self.basis.shells.astype(float) + 1.0)
        self._r_sparse = sp.diags(self.r_diag)
        self._shell_rows = [(self.lam * (n + 1.0), self.basis.shell_slice(n))
                            for n in range(self.basis.n_max + 1)]

    def __call__(self, phi: NCState, psi: NCState) -> complex:
        _check_same_basis(phi, psi)
        if phi.basis.n_max != self.basis.n_max:
            raise ValueError("state basis does not match inner product basis")
        a, b = phi.matrix, psi.matrix
        if sp.issparse(a) or sp.issparse(b):
            a = sp.csr_matrix(a)
            b = sp.csr_matrix(b)
            prod = a.conj().multiply(self._r_sparse @ b)
            tr = prod.sum()
        else:
            # r is constant on each shell and a shell's rows are contiguous,
            # so the trace needs no weighted temporary
            tr = sum(r * np.vdot(a[rows], b[rows]) for r, rows in self._shell_rows)
        return complex(4.0 * np.pi * self.lam**2 * tr)

    def norm(self, psi: NCState) -> float:
        val = self(psi, psi)
        return float(np.sqrt(max(val.real, 0.0)))


def inner_product(phi: NCState, psi: NCState, w: WeightedInnerProduct) -> complex:
    """Weighted inner product of two states (same basis required)."""
    return w(phi, psi)


def admissible_blocks(basis: FockBasis, kappa: int, support_max: int):
    """Shell pairs (N_left, N_right) allowed for the given charge/support."""
    pairs = []
    for nl in range(basis.n_max + 1):
        nr = nl - kappa
        if 0 <= nr <= basis.n_max and max(nl, nr) <= support_max:
            pairs.append((nl, nr))
    return pairs


def random_state(basis: FockBasis, seed: int, kappa: int, support_max: int,
                 w: WeightedInnerProduct) -> NCState:
    """Reproducible Gaussian state on the blocks fixed by (kappa, support_max).

    Entries are iid complex Gaussians on every admissible block, then the
    state is normalized to unit weighted norm.
    """
    if support_max > basis.n_max:
        raise ValueError("support_max exceeds n_max")
    if abs(kappa) > support_max:
        raise ValueError(f"no blocks with kappa={kappa} below shell {support_max}")
    rng = np.random.default_rng(seed)
    m = np.zeros((basis.dim, basis.dim), dtype=complex)
    for nl, nr in admissible_blocks(basis, kappa, support_max):
        sl, sr = basis.shell_slice(nl), basis.shell_slice(nr)
        shape = (sl.stop - sl.start, sr.stop - sr.start)
        m[sl, sr] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    state = NCState(basis, m)
    nrm = w.norm(state)
    if nrm == 0.0:
        raise ValueError("empty block set for the requested (kappa, support_max)")
    return state * (1.0 / nrm)


def interior_projection(psi: NCState, margin: int) -> NCState:
    """Zero every block touching a shell above n_max - margin.  Idempotent."""
    n_max = psi.basis.n_max
    if not 0 <= margin <= n_max:
        raise ValueError("margin must satisfy 0 <= margin <= n_max")
    cut = n_max - margin
    shells = psi.basis.shells
    if sp.issparse(psi.matrix):
        coo = psi.matrix.tocoo()
        keep = (shells[coo.row] <= cut) & (shells[coo.col] <= cut)
        out = sp.coo_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])),
                            shape=coo.shape).tocsr()
        return NCState(psi.basis, out)
    # shells are contiguous and ascending: the kept entries form one corner
    keep = psi.basis.shell_slice(cut).stop
    out = np.zeros_like(psi.matrix)
    out[:keep, :keep] = psi.matrix[:keep, :keep]
    return NCState(psi.basis, out)


def state_to_text(psi: NCState, tol: float = 0.0) -> str:
    """Serialize a state as labeled COO text: ``n1 n2 | m1 m2 | re im``."""
    buf = io.StringIO()
    buf.write(f"# fuzzylab ncstate v1 n_max={psi.basis.n_max}\n")
    coo = sp.coo_matrix(psi.matrix)
    order = np.lexsort((coo.col, coo.row))
    labels = psi.basis.labels
    for k in order:
        v = coo.data[k]
        if abs(v) <= tol:
            continue
        (n1, n2), (m1, m2) = labels[coo.row[k]], labels[coo.col[k]]
        buf.write(f"{n1} {n2} | {m1} {m2} | {float(v.real)!r} {float(v.imag)!r}\n")
    return buf.getvalue()


def state_from_text(text: str) -> NCState:
    """Parse the format written by :func:`state_to_text`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# fuzzylab ncstate v1"):
        raise ValueError("not a fuzzylab ncstate v1 payload")
    n_max = int(lines[0].split("n_max=")[1])
    basis = enumerate_basis(n_max)
    m = np.zeros((basis.dim, basis.dim), dtype=complex)
    for ln in lines[1:]:
        left, mid, right = (part.strip() for part in ln.split("|"))
        n1, n2 = (int(t) for t in left.split())
        m1, m2 = (int(t) for t in mid.split())
        re, im = (float(t) for t in right.split())
        m[basis.index[(n1, n2)], basis.index[(m1, m2)]] = re + 1j * im
    return NCState(basis, m)
