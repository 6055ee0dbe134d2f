"""Superoperators on NC states: kinematics, velocity, Hamiltonians, acceleration.

Everything here is a linear map psi -> O(psi) acting on operator-valued wave
functions.  The generators are

    L_k psi = [x_k, psi] / (2 lam)          angular momentum   (bandwidth 0)
    X_k psi = (x_k psi + psi x_k) / 2       position           (bandwidth 0)
    H0  psi = [a+_al, [a_al, psi]] / (2 lam r)                 (bandwidth 1)
    V_j psi = -(i/2r) sig^j_{ab} (a+_a [a_b, psi] - a_b [a+_a, psi])
    V_4 psi = (1/lam - lam H0) psi
    W_j psi = (1/2r) sig^j_{ab} [a_b, [a+_a, psi]]

with 1/r acting by left multiplication (on kappa = 0 states left and right
radial multiplication agree).  Each SuperOp declares its shell bandwidth so
compositions know how big an interior margin makes truncated identities
exact; the sum of composed bandwidths is always a safe margin.

A SuperOp is an expression tree whose leaves multiply the state from the
left or the right by a fixed matrix.  A sparse state, or a block-diagonal
stack of them (``SuperOp.each``), walks the tree with scipy products.  Each
operator has one charge shift s: it takes charge kappa to kappa + s (s = +-1
for a ladder leaf, 0 for the operators of the paper).  A packed state is
applied charge by charge: the tree is compiled once per input charge into
one sparse matrix from the packed charge-kappa vector to the packed
charge-(kappa + s) vector, so an application is one matvec per charge the
state holds.  The packed layout, the leaf maps and the stacks belong to
``fock`` (:meth:`FockBasis.packing`, :meth:`FockBasis.leaf_map`,
:meth:`FockBasis.block_diagonal`).  A sum of operators with different
shifts applies to sparse states only.

A central potential is a RadialFunction sampled on a Space's own grid
(``Space.sample``); a Space rejects one sampled on another grid.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .fock import (EPS3, PAULI, FockBasis, NCState, WeightedInnerProduct,
                   check_same_basis, coordinate_from_ladders, enumerate_basis,
                   interior_projection, ladder_matrix, radial_grid,
                   radial_matrix, random_state, validate_lambda)

__all__ = ["SuperOp", "RadialFunction", "Space"]


@dataclass(eq=False)
class SuperOp:
    """A linear map on NC states with a declared shell bandwidth.

    ``kind`` and ``args`` describe one tree node:

    * ``"left"`` / ``"right"``: ``(M,)``, the state times a sparse matrix M;
    * ``"id"``: ``()``;
    * ``"scale"``: ``(c, op)``, a scalar times an operator;
    * ``"add"`` / ``"sub"``: ``(a, b)``, a + b or a - b;
    * ``"compose"``: ``(outer, inner)``, inner acting first;
    * ``"grid"``: ``(coefficient, op)``: every output entry (i, k) of op
      times ``coefficient(i, k)``.  An entry that op leaves at 0 stays 0
      whatever the coefficient; a non-finite coefficient on a nonzero entry
      raises ValueError.

    Operators compare by identity.  The operator being applied caches its
    compiled map per input charge, and so does every ``shared`` node below
    it (the operators a Space hands out); other nodes are rebuilt.
    """

    basis: FockBasis
    kind: str
    args: tuple
    bandwidth: int = 0
    name: str = ""
    shared: bool = False
    _compiled: dict = field(default_factory=dict, repr=False)
    _stacks: dict = field(default_factory=dict, repr=False)

    @classmethod
    def left(cls, basis: FockBasis, matrix, bandwidth: int = 0,
             name: str = "") -> "SuperOp":
        return cls(basis, "left", (matrix,), bandwidth, name)

    @classmethod
    def right(cls, basis: FockBasis, matrix, bandwidth: int = 0,
              name: str = "") -> "SuperOp":
        return cls(basis, "right", (matrix,), bandwidth, name)

    @classmethod
    def identity(cls, basis: FockBasis) -> "SuperOp":
        return cls(basis, "id", (), 0, "1")

    def with_coefficient(self, coefficient: Callable) -> "SuperOp":
        """This operator followed by an entry-wise coefficient (a grid node)."""
        return SuperOp(self.basis, "grid", (coefficient, self), self.bandwidth,
                       self.name)

    def __call__(self, psi: NCState) -> NCState:
        check_same_basis(self, psi)
        if psi.parts is None:
            return NCState(psi.basis, self._walk(psi.matrix))
        out = {}
        for kappa, x in sorted(psi.parts.items()):
            k, mat, checks = self._compile(kappa)
            if any(np.any(c @ x) for c in checks):
                raise ValueError("coefficient pole hit an occupied shell")
            out[k] = mat @ x
        return NCState(psi.basis, out)

    def __matmul__(self, other: "SuperOp") -> "SuperOp":
        return SuperOp(self.basis, "compose", (self, other),
                       self.bandwidth + other.bandwidth,
                       name=f"{self.name}@{other.name}")

    def __add__(self, other: "SuperOp") -> "SuperOp":
        return SuperOp(self.basis, "add", (self, other),
                       max(self.bandwidth, other.bandwidth),
                       name=f"({self.name}+{other.name})")

    def __sub__(self, other: "SuperOp") -> "SuperOp":
        return SuperOp(self.basis, "sub", (self, other),
                       max(self.bandwidth, other.bandwidth),
                       name=f"({self.name}-{other.name})")

    def __mul__(self, scalar: complex) -> "SuperOp":
        return SuperOp(self.basis, "scale", (scalar, self), self.bandwidth,
                       name=f"{scalar}*{self.name}")

    __rmul__ = __mul__

    def commutator(self, other: "SuperOp") -> "SuperOp":
        return _named(self @ other - other @ self, f"[{self.name},{other.name}]",
                      self.bandwidth + other.bandwidth)

    # -- sparse states: walk the tree with scipy products -------------------

    def each(self, states) -> list:
        """One walk of the block-diagonal stack of sparse ``states``: their images."""
        check_same_basis(self, *states)
        stack = self.basis.block_diagonal([s.matrix.tocsr() for s in states])
        out, dim = self._walk(stack).tocsr(), self.basis.dim
        return [NCState(self.basis, out[b:b + dim, b:b + dim])
                for b in range(0, stack.shape[0], dim)]

    def _walk(self, m):
        """The image of a sparse state or of a block-diagonal stack of them."""
        kind, args = self.kind, self.args
        if kind in ("left", "right"):
            n = m.shape[0] // self.basis.dim
            leaf = args[0] if n == 1 else self._stacks.get(n)
            if leaf is None:
                leaf = self._stacks[n] = self.basis.block_diagonal([args[0].tocsr()] * n)
            return leaf @ m if kind == "left" else m @ leaf
        if kind == "id":
            return m
        if kind == "scale":
            return args[0] * args[1]._walk(m)
        if kind == "compose":
            return args[0]._walk(args[1]._walk(m))
        if kind == "add":
            return args[0]._walk(m) + args[1]._walk(m)
        if kind == "sub":
            return args[0]._walk(m) - args[1]._walk(m)
        coefficient, op = args
        cur, dim = sp.coo_matrix(op._walk(m)), self.basis.dim
        with np.errstate(invalid="ignore"):  # poles only touch zeros
            vals = np.where(cur.data == 0, 0.0,
                            coefficient(cur.row % dim, cur.col % dim) * cur.data)
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficient pole hit an occupied shell")
        return sp.csr_matrix((vals, (cur.row, cur.col)), shape=cur.shape)

    # -- packed states: one compiled matrix per input charge ----------------

    def packed_matrix(self, kappa: int = 0) -> sp.csr_matrix:
        """The compiled map of a charge-preserving operator on packed
        charge-kappa vectors."""
        k, mat, checks = self._compile(kappa)
        if k != kappa or checks:
            raise ValueError(f"{self.name} is not one matrix on charge {kappa}")
        return mat

    def _compile(self, kappa: int, keep: bool = True):
        """(k, map, checks) on packed charge-kappa input: ``map`` takes it to
        the packed vector of the one output charge k; every check must map it
        to zero, or a coefficient pole meets a nonzero entry.  Raises
        ValueError for a tree that mixes charge shifts."""
        got = self._compiled.get(kappa)
        if got is None:
            got = self._build(int(kappa))
            if keep or self.shared:
                self._compiled[kappa] = got
        return got

    def _build(self, kappa: int):
        kind, args, basis = self.kind, self.args, self.basis
        if kind in ("left", "right"):
            k, mat = basis.leaf_map(args[0], kappa, kind == "left")
            return k, mat, ()
        if kind == "id":
            size = basis.packing(kappa).size
            return kappa, sp.identity(size, dtype=complex, format="csr"), ()
        if kind == "scale":
            k, mat, checks = args[1]._compile(kappa, False)
            return k, args[0] * mat, checks
        if kind in ("add", "sub"):
            k, mat, checks = args[0]._compile(kappa, False)
            k2, mat2, more = args[1]._compile(kappa, False)
            if k2 != k:
                raise ValueError(f"{self.name} mixes charge shifts "
                                 f"{k - kappa} and {k2 - kappa}")
            return k, (mat - mat2 if kind == "sub" else mat + mat2).tocsr(), \
                checks + more
        if kind == "compose":
            outer, inner = args
            k1, m1, checks = inner._compile(kappa, False)
            k, m2, more = outer._compile(k1, False)
            return k, m2 @ m1, checks + tuple((c @ m1).tocsr() for c in more)
        coefficient, op = args
        k, mat, checks = op._compile(kappa, False)
        packing = basis.packing(k)
        grid = coefficient(packing.rows, packing.cols)
        finite = np.isfinite(grid)
        hit = ~finite & (np.diff(mat.indptr) > 0)
        if hit.any():
            checks += (mat[hit],)
        return k, (sp.diags(np.where(finite, grid, 0.0)) @ mat).tocsr(), checks


@dataclass
class RadialFunction:
    """Values of a radial function on the shells r_n = lam (n + 1)."""

    values: np.ndarray
    lam: float
    name: str = ""

    def __post_init__(self):
        validate_lambda(self.lam)
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"{self.name} is not finite on shell {bad[0]}: "
                             f"{float(self.values[bad[0]])!r}")

    @classmethod
    def from_callable(cls, fn: Callable[[float], float], lam: float, n_max: int,
                      name: str = "") -> "RadialFunction":
        validate_lambda(lam)  # before fn sees the grid
        r = radial_grid(lam, np.arange(n_max + 1))
        return cls(values=np.asarray([fn(ri) for ri in r], dtype=float),
                   lam=lam, name=name or getattr(fn, "__name__", ""))

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def check_grid(self, space: "Space") -> None:
        """Raise ValueError unless sampled on the grid of ``space`` (its n_max, lam)."""
        got, want = (self.n_max, self.lam), (space.n_max, space.lam)
        if got != want:
            raise ValueError(f"{self.name!r} is sampled at (n_max, lam) {got}, "
                             f"not at the space's {want}")

    def lambda_derivative(self, order: int = 1) -> "RadialFunction":
        """Central lambda-difference; exact for the identities in play.

        order 1: (f(r+lam) - f(r-lam)) / (2 lam)
        order 2: (f(r+lam) - 2 f(r) + f(r-lam)) / lam^2
        Shells 0 and n_max use the constant extension.  The acceleration
        checks need no flag for them: their state margin of at least 2
        (``floor=2``) keeps shell n_max out of their residuals, and at shell 0
        the extension stands for shell -1, whose terms cancel.
        """
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        v = self.values  # extended to shells -1 .. n_max + 1 by constants
        ext = np.concatenate(([v[0]], v, [v[-1]]))
        up, mid, down = ext[2:], ext[1:-1], ext[:-2]
        if order == 1:
            vals = (up - down) / (2.0 * self.lam)
            tag = "'"
        else:
            vals = (up - 2.0 * mid + down) / self.lam**2
            tag = "''"
        return RadialFunction(values=vals, lam=self.lam, name=f"{self.name}{tag}")


def _sigma_pairs(j: int):
    """Nonzero entries of sigma_j as ((alpha, beta), value), 0-based."""
    sig = PAULI[j]
    return [((al, be), sig[al, be]) for al in range(2) for be in range(2)
            if sig[al, be] != 0]


def _memoized(build):
    """Space method returning the same (shared) SuperOp for the same
    arguments."""

    @functools.wraps(build)
    def method(self, *args):
        key = (build.__name__,) + tuple(
            (a.name, a.lam, a.values.tobytes()) if isinstance(a, RadialFunction)
            else a for a in args)
        op = self._ops.get(key)
        if op is None:
            op = self._ops[key] = build(self, *args)
            op.shared = True
        return op

    return method


def _named(op: SuperOp, name: str, bandwidth: int) -> SuperOp:
    op.name, op.bandwidth = name, bandwidth
    return op


def _sum(ops) -> SuperOp:
    return functools.reduce(operator.add, ops)


class Space:
    """The truncated arena: basis, coordinate matrices and all superoperators.

    Operators built here are immutable and memoized: asking twice for the
    same operator returns the same object, so its compiled maps are built
    once per Space and freed with it.  Applications are pure functions of
    the input state.
    """

    def __init__(self, n_max: int, lam: float):
        validate_lambda(lam)
        self.n_max = n_max
        self.lam = float(lam)
        self.basis = enumerate_basis(n_max)
        self.a = [ladder_matrix(self.basis, m).matrix for m in (1, 2)]
        self.ad = [m.conj().T.tocsr() for m in self.a]
        self.x = [coordinate_from_ladders(self.a, self.ad, j, lam)
                  for j in (1, 2, 3)]
        self.ip = WeightedInnerProduct(self.basis, lam)
        self.r_diag = self.ip.r_diag
        self.rinv = sp.diags(1.0 / self.r_diag, format="csr", dtype=complex)
        self.r = radial_matrix(self.basis, lam).matrix
        self._ops = {}

    # -- state helpers ----------------------------------------------------

    def sample(self, fn: Optional[Callable[[float], float]],
               name: str = "") -> Optional[RadialFunction]:
        """fn on this space's radial grid, or None for no function."""
        return None if fn is None else RadialFunction.from_callable(
            fn, self.lam, self.n_max, name)

    def random_state(self, seed: int, kappa: int = 0,
                     support_max: Optional[int] = None) -> NCState:
        if support_max is None:
            support_max = self.n_max
        return random_state(self.basis, seed, kappa, support_max, self.ip)

    def interior(self, psi: NCState, margin: int) -> NCState:
        return interior_projection(psi, margin)

    def state(self, matrix) -> NCState:
        return NCState(self.basis, matrix)

    def identity_state(self) -> NCState:
        """The constant wave function psi = 1 (identity operator)."""
        return NCState(self.basis, sp.identity(self.basis.dim, dtype=complex,
                                               format="csr"))

    # -- leaves --------------------------------------------------------------

    @_memoized
    def ladder(self, side: str, mode: int, dagger: bool) -> SuperOp:
        """psi -> a psi (side "L") or psi -> psi a (side "R"), a = a_mode or
        a+_mode."""
        m = (self.ad if dagger else self.a)[mode - 1]
        name = f"a{mode}{'+' if dagger else ''}{side}"
        if side == "L":
            return SuperOp.left(self.basis, m, 1, name)
        return SuperOp.right(self.basis, m, 1, name)

    @_memoized
    def _ladder_commutator(self, mode: int, dagger: bool) -> SuperOp:
        """psi -> [a, psi] for a = a_mode or a+_mode."""
        return self.ladder("L", mode, dagger) - self.ladder("R", mode, dagger)

    @_memoized
    def _rinv(self) -> SuperOp:
        return SuperOp.left(self.basis, self.rinv, 0, "1/r")

    # -- bandwidth-0 generators -------------------------------------------

    @_memoized
    def angular_momentum(self, k: int) -> SuperOp:
        """L_k psi = [x_k, psi] / (2 lam)."""
        comm = self.position_left(k) - self.position_right(k)
        return _named((1.0 / (2.0 * self.lam)) * comm, f"L{k}", 0)

    @_memoized
    def position(self, k: int) -> SuperOp:
        """X_k psi = (x_k psi + psi x_k) / 2."""
        return _named(0.5 * (self.position_left(k) + self.position_right(k)),
                      f"X{k}", 0)

    @_memoized
    def position_left(self, k: int) -> SuperOp:
        return SuperOp.left(self.basis, self.x[k - 1], 0, f"X{k}L")

    @_memoized
    def position_right(self, k: int) -> SuperOp:
        return SuperOp.right(self.basis, self.x[k - 1], 0, f"X{k}R")

    @_memoized
    def radial(self) -> SuperOp:
        """r psi (left multiplication; equals psi r on kappa = 0 states)."""
        return SuperOp.left(self.basis, self.r, 0, "r")

    def shell_diagonal(self, shell_values: np.ndarray) -> sp.csr_matrix:
        """Expand per-shell values to a diagonal matrix over the full basis."""
        vals = np.asarray(shell_values)[self.basis.shells]
        return sp.diags(vals.astype(complex), format="csr")

    @_memoized
    def radial_multiplication(self, f: RadialFunction) -> SuperOp:
        """Multiplication by f(r), acting shell-diagonally from the left."""
        f.check_grid(self)
        return SuperOp.left(self.basis, self.shell_diagonal(f.values), 0,
                            f.name or "f(r)")

    @_memoized
    def so4_generator(self, a: int, b: int) -> SuperOp:
        """L_ab: L_ij = eps_ijk L_k, L_k4 = -L_4k = X_k / lam."""
        if a == b:
            return _named(0.0 * SuperOp.identity(self.basis), "0", 0)
        if a != 4 and b != 4:
            k = next(kk for kk in (1, 2, 3) if kk not in (a, b))
            return EPS3[a - 1, b - 1, k - 1] * self.angular_momentum(k)
        k = a if b == 4 else b
        sgn = 1.0 if b == 4 else -1.0
        return (sgn / self.lam) * self.position(k)

    # -- bandwidth-1 operators --------------------------------------------

    @_memoized
    def free_hamiltonian(self) -> SuperOp:
        """H0 psi = [a+_al, [a_al, psi]] / (2 lam r),  hbar = m = 1."""
        s = _sum(self._ladder_commutator(al, True) @ self._ladder_commutator(al, False)
                 for al in (1, 2))
        return _named((1.0 / (2.0 * self.lam)) * (self._rinv() @ s), "H0", 1)

    def _sigma_sum(self, j: int, term) -> SuperOp:
        """sum over (al, be) of sig^j_{al be} * term(al, be), 1-based modes."""
        return _sum(term(al + 1, be + 1) * c for (al, be), c in _sigma_pairs(j - 1))

    @_memoized
    def velocity(self, j: int) -> SuperOp:
        """V_j psi = -(i/2r) sig^j_{ab} (a+_a [a_b, psi] - a_b [a+_a, psi])."""
        def term(al, be):
            return self.ladder("L", al, True) @ self._ladder_commutator(be, False) \
                - self.ladder("L", be, False) @ self._ladder_commutator(al, True)

        return _named(-0.5j * (self._rinv() @ self._sigma_sum(j, term)),
                      f"V{j}", 1)

    @_memoized
    def velocity_w_form(self, j: int) -> SuperOp:
        """Equivalent form V_j = (i/2r) sig^j_{ab} w_ab, w_ab psi = a+_a psi a_b - a_b psi a+_a."""
        def term(al, be):
            return self.ladder("R", be, False) @ self.ladder("L", al, True) \
                - self.ladder("R", al, True) @ self.ladder("L", be, False)

        return _named(0.5j * (self._rinv() @ self._sigma_sum(j, term)),
                      f"V{j}w", 1)

    @_memoized
    def velocity4(self) -> SuperOp:
        """V_4 = 1/lam - lam H0."""
        lam = self.lam
        return _named((1.0 / lam) * SuperOp.identity(self.basis)
                      - lam * self.free_hamiltonian(), "V4", 1)

    @_memoized
    def velocity4_cross_form(self) -> SuperOp:
        """Equivalent form V_4 psi = (a+_a psi a_a + a_a psi a+_a) / (2r)."""
        s = _sum(self.ladder("R", al, False) @ self.ladder("L", al, True)
                 + self.ladder("R", al, True) @ self.ladder("L", al, False)
                 for al in (1, 2))
        return _named(0.5 * (self._rinv() @ s), "V4w", 1)

    def velocity_so4(self, c: int) -> SuperOp:
        """V_a for a = 1..4."""
        return self.velocity4() if c == 4 else self.velocity(c)

    @_memoized
    def w_vector(self, j: int) -> SuperOp:
        """W_j psi = (1/2r) sig^j_{ab} [a_b, [a+_a, psi]]."""
        def term(al, be):
            return self._ladder_commutator(be, False) @ self._ladder_commutator(al, True)

        return _named(0.5 * (self._rinv() @ self._sigma_sum(j, term)),
                      f"W{j}", 1)

    # -- Leibniz correction ------------------------------------------------

    def leibniz_correction(self, i: int, A: NCState, B: NCState) -> NCState:
        """K_i(A, B) = -(i/2r) sig^i_{ab} ([a+_a, A][a_b, B] - [a_b, A][a+_a, B]).

        The defect in the Leibniz rule: V_i(AB) = (V_i A)B + A(V_i B) + K_i(A, B).
        """
        A, B = A.packed(), B.packed()
        s = None
        for (al, be), c in _sigma_pairs(i - 1):
            up = self._ladder_commutator(al + 1, True)
            down = self._ladder_commutator(be + 1, False)
            t = c * (up(A) @ down(B) - down(A) @ up(B))
            s = t if s is None else s + t
        return -0.5j * self._rinv()(s)

    # -- central potentials and acceleration -------------------------------

    @_memoized
    def hamiltonian(self, potential: Optional[RadialFunction] = None) -> SuperOp:
        """H = H0 + U(r) for a central potential given per shell."""
        h0 = self.free_hamiltonian()
        if potential is None:
            return h0
        return _named(h0 + self.radial_multiplication(potential), "H0+U", 1)

    @_memoized
    def acceleration(self, i: int, potential: RadialFunction) -> SuperOp:
        """-i [V_i, U(r)]: equals -i [V_i, H0 + U(r)] since [V_i, H0] = 0."""
        v = self.velocity(i)
        u = self.radial_multiplication(potential)
        return _named(-1j * v.commutator(u), f"A{i}[{potential.name}]", 1)

    @_memoized
    def acceleration_decomposed(self, i: int, potential: RadialFunction) -> SuperOp:
        """Decomposition of -i [V_i, U(r)] into gradient plus deformation terms:

            -(x_i/r) U'(r)  +  U'(r) (lam/r) L_i  +  lam U'(r) W_i
                            -  (i lam^2 / 2) U''(r) V_i

        with U', U'' the central lambda-differences on the shell grid.  The
        first term is left multiplication by the state V_i U(r) times -i.
        """
        lam = self.lam
        du = self.radial_multiplication(potential.lambda_derivative(1))
        ddu = self.radial_multiplication(potential.lambda_derivative(2))
        grad = (du.args[0] @ self.rinv) @ self.x[i - 1]  # (x_i/r) U'(r)
        op = SuperOp.left(self.basis, -grad) \
            + du @ (lam * (self._rinv() @ self.angular_momentum(i))) \
            + lam * (du @ self.w_vector(i)) \
            + (-0.5j * lam**2) * (ddu @ self.velocity(i))
        return _named(op, f"A{i}dec[{potential.name}]", 1)

    # -- E(4) invariants ----------------------------------------------------

    @_memoized
    def pauli_lubanski(self, a: int) -> SuperOp:
        """Pauli-Lubanski components: Lam_i = V4 L_i + eps_ijk V_j X_k / lam,
        Lam_4 = L_j V_j.  All vanish on kappa = 0 states."""
        if a == 4:
            op = _sum(self.angular_momentum(j) @ self.velocity(j)
                      for j in (1, 2, 3))
            return _named(op, "Lam4", 1)
        op = self.velocity4() @ self.angular_momentum(a)
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                e = EPS3[a - 1, j - 1, k - 1]
                if e != 0:
                    op = op + (e / self.lam) * (self.velocity(j) @ self.position(k))
        return _named(op, f"Lam{a}", 1)

    @_memoized
    def casimir2(self) -> SuperOp:
        """C2 = V_a V_a over a = 1..4; equals 1/lam^2 on kappa = 0 states."""
        op = _sum(self.velocity_so4(a) @ self.velocity_so4(a)
                  for a in (1, 2, 3, 4))
        return _named(op, "C2", 2)
