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

A dense state is stored as one packed vector per charge kappa it holds
(:meth:`FockBasis.packing`): sums, inner products, interior projections and
state products (shell block by shell block) work on those vectors, and the
dim x dim array is only a read-only view.  Sparse states (sector states, f(r),
and the matrices a, x_j, r the builders below return) keep their scipy matrix.

The storage rules live here only: the shell start (:func:`shell_start`), the
packed layout with the row and column of every entry (:class:`Packing`) and
the packed maps of matrix products (:meth:`FockBasis.leaf_map`), read from
that layout by one rule for both sides.  So do the lambda rule (finite, in
[1e-30, 1e30]) and the basis rule (what meets shares one n_max):
:func:`validate_lambda`, :func:`check_same_basis`.  Scipy is imported here and
in ``operators`` only.
"""

from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

__all__ = [
    "PAULI",
    "EPS3",
    "FockBasis",
    "NCState",
    "WeightedInnerProduct",
    "validate_lambda",
    "radial_grid",
    "shell_start",
    "check_same_basis",
    "enumerate_basis",
    "ladder_matrix",
    "coordinate_matrix",
    "radial_matrix",
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


def validate_lambda(lam: float) -> None:
    """Raise ValueError unless lambda is finite, > 0 and in [1e-30, 1e30].

    Doubles hold lam^2 only above 1e-162 and below 1e154, and the operators
    reach lam^-4.  Every verdict of ``check --suite all --nmax 6,9`` is that
    of lam = 0.1 from 1e-35 to 1e50 (at 1e-40 the [V_i, H0 (+ U)] checks
    fail, at 1e60 hermiticity and the kappa = 1 diagnostic), so the band
    keeps five decades inside both edges."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and > 0; got {lam!r}")
    if not 1e-30 <= lam <= 1e30:
        raise ValueError(f"lambda must lie in [1e-30, 1e30]; got {lam!r}")


def radial_grid(lam: float, shells) -> np.ndarray:
    """The radius r_N = lam (N + 1) of each shell N in ``shells``."""
    return lam * (np.asarray(shells, dtype=float) + 1.0)


def shell_start(n):
    """The index of the first state of shell n (an int or an int array)."""
    return n * (n + 1) // 2


def check_same_basis(*items) -> None:
    """Raise ValueError unless the given states, operators and inner
    products (anything with a ``basis``) all live on bases of one n_max."""
    n_max = items[0].basis.n_max
    for item in items[1:]:
        if item.basis.n_max != n_max:
            raise ValueError(f"different bases: n_max {n_max} vs {item.basis.n_max}")


@dataclass(frozen=True)
class Packing:
    """Row-major layout of the entries of one charge kappa.

    A charge-kappa state only occupies entries (i, k) with
    shell(i) - shell(k) = kappa.  Packed in row-major order, the entries of
    row i are the whole right shell shell(i) - kappa, so entry (i, k) sits at
    ``offset[i] + k - shell_start(shell(k))``.  ``rows``, ``cols`` and
    ``flat`` hold i, k and i * dim + k of every packed entry.  The rows of
    shell n fill ``bounds[n]:bounds[n + 1]``, which is the block
    (n, n - kappa) in row-major order.
    """

    offset: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray
    bounds: np.ndarray

    @property
    def size(self) -> int:
        return len(self.flat)

    def block(self, vector: np.ndarray, n: int) -> np.ndarray:
        """The block of the row shell n of a packed vector, as a view."""
        return vector[self.bounds[n]:self.bounds[n + 1]].reshape(n + 1, -1)


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
        return slice(shell_start(n), shell_start(n + 1))

    def packing(self, kappa: int) -> Packing:
        """The (cached) packed layout of the charge-kappa entries."""
        got = self._packings.get(kappa)
        if got is None:
            right = self.shells - kappa
            length = np.where((right >= 0) & (right <= self.n_max), right + 1, 0)
            offset = np.cumsum(length) - length
            rows = np.repeat(np.arange(self.dim), length)
            cols = shell_start(right[rows]) + np.arange(len(rows)) - offset[rows]
            starts = shell_start(np.arange(self.n_max + 2))
            bounds = np.append(offset, len(rows))[starts]
            got = Packing(offset, rows, cols, rows * self.dim + cols, bounds)
            self._packings[kappa] = got
        return got

    def leaf_map(self, matrix, kappa: int, left: bool):
        """(k, map) of psi -> M psi (``left``) or psi -> psi M on packed charge
        kappa, where k = kappa + s for the one shell shift s of M's entries.

        One rule for both sides, read from the packed layout: the packed
        entry (i, c) meets the nonzeros M[r, i] of column i (``left``, M read
        as CSC) or M[c, r] of row c (M read as CSR), and lands on (r, c) or
        (i, r), at ``offset[row] + col - shell_start(shell(col))`` of the
        charge-k layout.
        """
        m = matrix.tocsc() if left else matrix.tocsr()
        shells, src, per = self.shells, self.packing(kappa), np.diff(m.indptr)
        major = np.repeat(np.arange(len(per)), per)  # column (left) or row of a nonzero
        shifts = np.unique((shells[m.indices] - shells[major]) * (1 if left else -1))
        if len(shifts) > 1:
            raise ValueError(f"leaf matrix mixes charge shifts {shifts.tolist()}")
        k = kappa + int(shifts.sum())  # an empty matrix keeps the charge
        dst, meets = self.packing(k), src.rows if left else src.cols
        count = per[meets]  # nonzeros of M along the index each packed entry meets
        entry = np.repeat(np.arange(src.size), count)
        nz = np.arange(len(entry)) + np.repeat(m.indptr[meets] - np.cumsum(count) + count,
                                               count)
        new = m.indices[nz]
        row, col = (new, src.cols[entry]) if left else (src.rows[entry], new)
        out = dst.offset[row] + col - shell_start(shells[col])
        # entries come by ascending input position, so each row stays sorted
        return k, sp.csr_matrix((m.data[nz], (out, entry)),
                                shape=(dst.size, src.size))

    def block_diagonal(self, mats) -> sp.csr_matrix:
        """The dim x dim CSR matrices ``mats`` down the diagonal of one, with
        each row's entries kept in their order (``sp.block_diag`` sorts them)."""
        ends = np.cumsum([0] + [m.nnz for m in mats])
        indices = [m.indices + b * self.dim for b, m in enumerate(mats)]
        indptr = [[0]] + [m.indptr[1:] + z for m, z in zip(mats, ends)]
        return sp.csr_matrix((np.concatenate([m.data for m in mats]),
                              np.concatenate(indices), np.concatenate(indptr)),
                             shape=(len(mats) * self.dim,) * 2)

    def charges(self, matrix: np.ndarray) -> np.ndarray:
        """Charges shell(i) - shell(k) of the nonzero entries of a dense
        matrix (a NaN counts, a negative zero does not)."""
        left, right = np.nonzero(np.asarray(matrix) != 0)
        return np.unique(self.shells[left] - self.shells[right])


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


def ladder_matrix(basis: FockBasis, mode: int, dagger: bool = False) -> "NCState":
    """Annihilation (or creation) matrix for mode 1 or 2.

    a_mode |n1,n2> = sqrt(n_mode) |..., n_mode - 1, ...>.  The creation
    matrix is the adjoint, so a+ maps the top shell N = n_max to zero;
    this is the declared truncation artifact.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    shells = basis.shells
    n2 = np.arange(basis.dim) - shell_start(shells)
    occ = n2 if mode == 2 else shells - n2
    cols = np.flatnonzero(occ > 0)
    # the target keeps its position within the shell below for mode 1 and
    # moves one place left for mode 2
    below = shells[cols] - 1
    rows = shell_start(below) + n2[cols] - (mode == 2)
    vals = np.sqrt(occ[cols].astype(float)).astype(complex)
    m = sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))
    return NCState(basis, m.conj().T.tocsr() if dagger else m)


def coordinate_matrix(basis: FockBasis, j: int, lam: float) -> "NCState":
    """x_j = lam * sigma^j_{ab} a+_a a_b.  Hermitian, shell-preserving."""
    if j not in (1, 2, 3):
        raise ValueError("j must be 1, 2 or 3")
    validate_lambda(lam)
    a = [ladder_matrix(basis, m).matrix for m in (1, 2)]
    ad = [m.conj().T.tocsr() for m in a]
    return NCState(basis, coordinate_from_ladders(a, ad, j, lam))


def coordinate_from_ladders(a, ad, j: int, lam: float) -> sp.csr_matrix:
    """x_j = lam * sigma^j_{ab} a+_a a_b from the ladder matrices a, a+."""
    sig = PAULI[j - 1]
    x = sp.csr_matrix(a[0].shape, dtype=complex)
    for al in range(2):
        for be in range(2):
            if sig[al, be] != 0:
                x = x + lam * sig[al, be] * (ad[al] @ a[be])
    return x.tocsr()


def radial_matrix(basis: FockBasis, lam: float) -> "NCState":
    """r = lam * (N + 1): diagonal, strictly positive."""
    validate_lambda(lam)
    diag = radial_grid(lam, basis.shells)
    return NCState(basis, sp.diags(diag, format="csr", dtype=complex))


class NCState:
    """An operator-valued wave function on the truncated Fock space.

    Physical (scalar) states have charge kappa = 0: only blocks with equal
    left/right total occupation are populated, so [N, psi] = 0.  ``matrix``
    is a dict {kappa: packed vector} (kept as ``parts``), a dense array
    (packed once, per charge of :meth:`FockBasis.charges`: a NaN counts, a
    negative zero does not) or a scipy sparse matrix (kept; ``parts`` is
    None).
    """

    def __init__(self, basis: FockBasis, matrix):
        self.basis, self.parts, self._sparse = basis, None, None
        if isinstance(matrix, dict):
            self.parts = matrix
        elif sp.issparse(matrix):
            self._sparse = matrix
        else:
            flat = np.asarray(matrix, dtype=complex).reshape(-1)
            self.parts = {int(k): flat[basis.packing(k).flat]
                          for k in basis.charges(matrix)}

    @classmethod
    def from_entries(cls, basis: FockBasis, rows, cols, values) -> "NCState":
        """The sparse state with entries ``values`` at (rows, cols)."""
        return cls(basis, sp.csr_matrix((np.asarray(values, dtype=complex),
                                         (rows, cols)), shape=(basis.dim, basis.dim)))

    @property
    def matrix(self):
        """The sparse matrix, or a read-only dense view of the parts."""
        if self.parts is None:
            return self._sparse
        out = self.dense()
        out.flags.writeable = False
        return out

    def dense(self) -> np.ndarray:
        """A new dim x dim array of the state."""
        if self.parts is None:
            return self._sparse.toarray()
        out = np.zeros(self.basis.dim ** 2, dtype=complex)
        for k, v in self.parts.items():
            out[self.basis.packing(k).flat] = v
        return out.reshape(self.basis.dim, self.basis.dim)

    def packed(self) -> "NCState":
        """The state with packed vectors (itself unless it is sparse)."""
        return self if self.parts is not None else NCState(self.basis, self.dense())

    def _census(self, tol: float):
        """Left and right shells of every entry above ``tol`` times the
        largest entry."""
        coo = sp.coo_matrix(self.matrix)
        keep = np.abs(coo.data) > tol * self.absmax()
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

    def _combine(self, other: "NCState", op) -> "NCState":
        check_same_basis(self, other)
        if self.parts is None and other.parts is None:
            return NCState(self.basis, op(self._sparse, other._sparse))
        a, b = self.packed().parts, other.packed().parts
        return NCState(self.basis, {k: op(a.get(k, 0.0), b.get(k, 0.0))
                                    for k in sorted(a.keys() | b.keys())})

    def __add__(self, other: "NCState") -> "NCState":
        return self._combine(other, operator.add)

    def __sub__(self, other: "NCState") -> "NCState":
        return self._combine(other, operator.sub)

    def __mul__(self, scalar: complex) -> "NCState":
        if self.parts is None:
            return NCState(self.basis, self._sparse * scalar)
        return NCState(self.basis, {k: v * scalar for k, v in self.parts.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "NCState":
        return self * (-1.0)

    def __matmul__(self, other: "NCState") -> "NCState":
        """The operator product of two states, packed: the charge-(ka + kb)
        block of row shell n is block (n, n - ka) of the first state times
        block (n - ka, n - ka - kb) of the second."""
        check_same_basis(self, other)
        basis, n_max = self.basis, self.basis.n_max
        out = {}
        for ka, va in sorted(self.packed().parts.items()):
            for kb, vb in sorted(other.packed().parts.items()):
                pa, pb, pc = (basis.packing(k) for k in (ka, kb, ka + kb))
                y = np.zeros(pc.size, dtype=complex)
                for n in range(max(0, ka, ka + kb),
                               min(n_max, n_max + ka, n_max + ka + kb) + 1):
                    np.matmul(pa.block(va, n), pb.block(vb, n - ka),
                              out=pc.block(y, n))
                out[ka + kb] = out[ka + kb] + y if ka + kb in out else y
        return NCState(basis, out)

    def absmax(self) -> float:
        vals = [self._sparse.data] if self.parts is None else self.parts.values()
        return max((float(np.abs(v).max()) for v in vals if v.size), default=0.0)


@dataclass
class WeightedInnerProduct:
    """<phi, psi> = 4 pi lam^2 Tr[phi+ r psi] with r = lam (N + 1).

    The r weight is what makes the deformed Laplacian hermitian; it is
    strictly positive, so the form is positive definite.
    """

    basis: FockBasis
    lam: float

    def __post_init__(self):
        validate_lambda(self.lam)
        self.r_diag = radial_grid(self.lam, self.basis.shells)
        self._r_sparse = sp.diags(self.r_diag)
        self._weights = {}

    def weights(self, kappa: int) -> np.ndarray:
        """r of the row of every packed charge-kappa entry (cached)."""
        if kappa not in self._weights:
            self._weights[kappa] = self.r_diag[self.basis.packing(kappa).rows]
        return self._weights[kappa]

    def __call__(self, phi: NCState, psi: NCState) -> complex:
        check_same_basis(self, phi, psi)
        if phi.parts is None or psi.parts is None:
            a, b = sp.csr_matrix(phi.matrix), sp.csr_matrix(psi.matrix)
            tr = a.conj().multiply(self._r_sparse @ b).sum()
        else:
            a, b = phi.parts, psi.parts
            tr = sum(np.vdot(a[k], self.weights(k) * b[k])
                     for k in sorted(a.keys() & b.keys()))
        return complex(4.0 * np.pi * self.lam**2 * tr)

    def by_shell(self, phi: NCState, psi: NCState) -> np.ndarray:
        """<phi, psi> split by the shell of the row: entry N sums the rows of
        shell N, so the entries add up to ``self(phi, psi)``."""
        check_same_basis(self, phi, psi)
        a = sp.csr_matrix(phi.matrix)
        prod = a.conj().multiply(self._r_sparse @ sp.csr_matrix(psi.matrix))
        ends = prod.indptr[shell_start(np.arange(self.basis.n_max + 2))]
        sums = [prod.data[lo:hi].sum() for lo, hi in zip(ends[:-1], ends[1:])]
        return 4.0 * np.pi * self.lam**2 * np.asarray(sums, dtype=complex)

    def norm(self, psi: NCState) -> float:
        val = self(psi, psi)
        return float(np.sqrt(max(val.real, 0.0)))


def random_state(basis: FockBasis, seed: int, kappa: int, support_max: int,
                 w: WeightedInnerProduct) -> NCState:
    """Reproducible Gaussian state on the blocks fixed by (kappa, support_max).

    Entries are iid complex Gaussians on every admissible block, then the
    state is normalized to unit weighted norm.
    """
    if support_max > basis.n_max:
        raise ValueError(f"support_max {support_max} exceeds n_max {basis.n_max}")
    if abs(kappa) > support_max:
        raise ValueError(f"no blocks with kappa={kappa} below shell {support_max} "
                         f"(n_max {basis.n_max})")
    rng = np.random.default_rng(seed)
    packing = basis.packing(kappa)
    v = np.zeros(packing.size, dtype=complex)
    # blocks (nl, nl - kappa) with both shells in [0, support_max], in order
    for nl in range(max(kappa, 0), min(support_max, support_max + kappa) + 1):
        shape = (nl + 1, nl - kappa + 1)
        packing.block(v, nl)[:] = rng.standard_normal(shape) \
            + 1j * rng.standard_normal(shape)
    state = NCState(basis, {kappa: v})
    return state * (1.0 / w.norm(state))


def interior_projection(psi: NCState, margin: int) -> NCState:
    """Zero every block touching a shell above n_max - margin.  Idempotent."""
    n_max = psi.basis.n_max
    if not 0 <= margin <= n_max:
        raise ValueError("margin must satisfy 0 <= margin <= n_max; "
                         f"got margin {margin} with n_max {n_max}")
    cut = n_max - margin
    if psi.parts is None:
        shells = psi.basis.shells
        coo = psi.matrix.tocoo()
        keep = (shells[coo.row] <= cut) & (shells[coo.col] <= cut)
        out = sp.coo_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])),
                            shape=coo.shape).tocsr()
        return NCState(psi.basis, out)
    # a charge-k entry is kept when its row shell is at most min(cut, cut + k);
    # rows are packed by ascending shell, so the kept entries are a prefix
    out = {k: v.copy() for k, v in psi.parts.items()}
    for k, v in out.items():
        v[psi.basis.packing(k).bounds[max(min(cut, cut + k) + 1, 0)]:] = 0.0
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
