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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .fock import (EPS3, PAULI, FockBasis, NCState, WeightedInnerProduct,
                   coordinate_matrix, enumerate_basis, interior_projection,
                   ladder_matrix, radial_matrix, random_state)

__all__ = ["SuperOp", "RadialFunction", "Space"]


@dataclass
class SuperOp:
    """A linear map on NC states with a declared shell bandwidth."""

    basis: FockBasis
    func: Callable[..., "object"]
    bandwidth: int
    name: str = ""

    def __call__(self, psi: NCState) -> NCState:
        if psi.basis.n_max != self.basis.n_max:
            raise ValueError("state and operator live on different bases")
        return NCState(psi.basis, self.func(psi.matrix))

    def __matmul__(self, other: "SuperOp") -> "SuperOp":
        return SuperOp(self.basis, lambda m: self.func(other.func(m)),
                       self.bandwidth + other.bandwidth,
                       name=f"{self.name}@{other.name}")

    def __add__(self, other: "SuperOp") -> "SuperOp":
        return SuperOp(self.basis, lambda m: self.func(m) + other.func(m),
                       max(self.bandwidth, other.bandwidth),
                       name=f"({self.name}+{other.name})")

    def __sub__(self, other: "SuperOp") -> "SuperOp":
        return SuperOp(self.basis, lambda m: self.func(m) - other.func(m),
                       max(self.bandwidth, other.bandwidth),
                       name=f"({self.name}-{other.name})")

    def __mul__(self, scalar: complex) -> "SuperOp":
        return SuperOp(self.basis, lambda m: scalar * self.func(m),
                       self.bandwidth, name=f"{scalar}*{self.name}")

    __rmul__ = __mul__

    def __neg__(self) -> "SuperOp":
        return self * (-1.0)

    def commutator(self, other: "SuperOp") -> "SuperOp":
        return SuperOp(self.basis,
                       lambda m: self.func(other.func(m)) - other.func(self.func(m)),
                       self.bandwidth + other.bandwidth,
                       name=f"[{self.name},{other.name}]")


@dataclass
class RadialFunction:
    """Values of a radial function on the shells r_n = lam (n + 1).

    ``boundary_flags`` marks shells whose value came from the constant
    extension used by the lambda-derivative at the edges of the grid; such
    shells never enter interior-margin checks.
    """

    values: np.ndarray
    lam: float
    name: str = ""
    boundary_flags: tuple = ()

    @classmethod
    def from_callable(cls, fn: Callable[[float], float], lam: float, n_max: int,
                      name: str = "") -> "RadialFunction":
        r = lam * (np.arange(n_max + 1) + 1.0)
        return cls(values=np.asarray([fn(ri) for ri in r], dtype=float),
                   lam=lam, name=name or getattr(fn, "__name__", ""))

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def _extended(self) -> np.ndarray:
        """Values on shells -1 .. n_max+1 with constant extension at the ends."""
        v = self.values
        return np.concatenate(([v[0]], v, [v[-1]]))

    def lambda_derivative(self, order: int = 1) -> "RadialFunction":
        """Central lambda-difference; exact for the identities in play.

        order 1: (f(r+lam) - f(r-lam)) / (2 lam)
        order 2: (f(r+lam) - 2 f(r) + f(r-lam)) / lam^2
        Shells 0 and n_max use the constant extension and are flagged.
        """
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        ext = self._extended()
        up, mid, down = ext[2:], ext[1:-1], ext[:-2]
        if order == 1:
            vals = (up - down) / (2.0 * self.lam)
            tag = "'"
        else:
            vals = (up - 2.0 * mid + down) / self.lam**2
            tag = "''"
        return RadialFunction(values=vals, lam=self.lam,
                              name=f"{self.name}{tag}",
                              boundary_flags=(0, self.n_max))


def _sigma_pairs(j: int):
    """Nonzero entries of sigma_j as ((alpha, beta), value), 0-based."""
    sig = PAULI[j]
    return [((al, be), sig[al, be]) for al in range(2) for be in range(2)
            if sig[al, be] != 0]


class Space:
    """The truncated arena: basis, coordinate matrices and all superoperators.

    Operators built here are immutable and safe to share; applications are
    pure functions of the input state.
    """

    def __init__(self, n_max: int, lam: float):
        if lam <= 0:
            raise ValueError("lam must be positive")
        self.n_max = n_max
        self.lam = float(lam)
        self.basis = enumerate_basis(n_max)
        self.a = [ladder_matrix(self.basis, m).matrix for m in (1, 2)]
        self.ad = [m.conj().T.tocsr() for m in self.a]
        self.x = [coordinate_matrix(self.basis, j, lam).matrix for j in (1, 2, 3)]
        self.r_diag = lam * (self.basis.shells.astype(float) + 1.0)
        self.rinv = sp.diags(1.0 / self.r_diag, format="csr", dtype=complex)
        self.r = radial_matrix(self.basis, lam).matrix
        self.ip = WeightedInnerProduct(self.basis, lam)

    # -- state helpers ----------------------------------------------------

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

    # -- bandwidth-0 generators -------------------------------------------

    def angular_momentum(self, k: int) -> SuperOp:
        """L_k psi = [x_k, psi] / (2 lam)."""
        xk, lam = self.x[k - 1], self.lam
        return SuperOp(self.basis, lambda m: (xk @ m - m @ xk) / (2.0 * lam),
                       0, name=f"L{k}")

    def position(self, k: int) -> SuperOp:
        """X_k psi = (x_k psi + psi x_k) / 2."""
        xk = self.x[k - 1]
        return SuperOp(self.basis, lambda m: 0.5 * (xk @ m + m @ xk),
                       0, name=f"X{k}")

    def position_left(self, k: int) -> SuperOp:
        xk = self.x[k - 1]
        return SuperOp(self.basis, lambda m: xk @ m, 0, name=f"X{k}L")

    def position_right(self, k: int) -> SuperOp:
        xk = self.x[k - 1]
        return SuperOp(self.basis, lambda m: m @ xk, 0, name=f"X{k}R")

    def radial(self) -> SuperOp:
        """r psi (left multiplication; equals psi r on kappa = 0 states)."""
        r = self.r
        return SuperOp(self.basis, lambda m: r @ m, 0, name="r")

    def shell_diagonal(self, shell_values: np.ndarray) -> sp.csr_matrix:
        """Expand per-shell values to a diagonal matrix over the full basis."""
        vals = np.asarray(shell_values)[self.basis.shells]
        return sp.diags(vals.astype(complex), format="csr")

    def radial_multiplication(self, f: RadialFunction) -> SuperOp:
        """Multiplication by f(r), acting shell-diagonally from the left."""
        if f.n_max != self.n_max:
            raise ValueError("radial function grid does not match the space")
        diag = self.shell_diagonal(f.values)
        return SuperOp(self.basis, lambda m: diag @ m, 0, name=f.name or "f(r)")

    def so4_generator(self, a: int, b: int) -> SuperOp:
        """L_ab: L_ij = eps_ijk L_k, L_k4 = -L_4k = X_k / lam."""
        if a == b:
            return SuperOp(self.basis, lambda m: 0.0 * m, 0, name="0")
        if a != 4 and b != 4:
            k = next(kk for kk in (1, 2, 3) if kk not in (a, b))
            return EPS3[a - 1, b - 1, k - 1] * self.angular_momentum(k)
        k = a if b == 4 else b
        sgn = 1.0 if b == 4 else -1.0
        return (sgn / self.lam) * self.position(k)

    # -- bandwidth-1 operators --------------------------------------------

    def free_hamiltonian(self) -> SuperOp:
        """H0 psi = [a+_al, [a_al, psi]] / (2 lam r),  hbar = m = 1."""
        a, ad, rinv, lam = self.a, self.ad, self.rinv, self.lam

        def apply(m):
            s = None
            for al in range(2):
                t = a[al] @ m - m @ a[al]
                t = ad[al] @ t - t @ ad[al]
                s = t if s is None else s + t
            return rinv @ s / (2.0 * lam)

        return SuperOp(self.basis, apply, 1, name="H0")

    def laplacian(self) -> SuperOp:
        """Deformed Laplacian: Delta_lam = -2 H0 (with m = 1)."""
        return -2.0 * self.free_hamiltonian()

    def velocity(self, j: int) -> SuperOp:
        """V_j psi = -(i/2r) sig^j_{ab} (a+_a [a_b, psi] - a_b [a+_a, psi])."""
        a, ad, rinv = self.a, self.ad, self.rinv
        pairs = _sigma_pairs(j - 1)

        def apply(m):
            s = None
            for (al, be), c in pairs:
                t = ad[al] @ (a[be] @ m - m @ a[be]) \
                    - a[be] @ (ad[al] @ m - m @ ad[al])
                t = c * t
                s = t if s is None else s + t
            return -0.5j * (rinv @ s)

        return SuperOp(self.basis, apply, 1, name=f"V{j}")

    def velocity_w_form(self, j: int) -> SuperOp:
        """Equivalent form V_j = (i/2r) sig^j_{ab} w_ab, w_ab psi = a+_a psi a_b - a_b psi a+_a."""
        a, ad, rinv = self.a, self.ad, self.rinv
        pairs = _sigma_pairs(j - 1)

        def apply(m):
            s = None
            for (al, be), c in pairs:
                t = c * (ad[al] @ m @ a[be] - a[be] @ m @ ad[al])
                s = t if s is None else s + t
            return 0.5j * (rinv @ s)

        return SuperOp(self.basis, apply, 1, name=f"V{j}w")

    def velocity4(self) -> SuperOp:
        """V_4 = 1/lam - lam H0."""
        h0 = self.free_hamiltonian()
        lam = self.lam
        return SuperOp(self.basis, lambda m: m / lam - lam * h0.func(m),
                       1, name="V4")

    def velocity4_cross_form(self) -> SuperOp:
        """Equivalent form V_4 psi = (a+_a psi a_a + a_a psi a+_a) / (2r)."""
        a, ad, rinv = self.a, self.ad, self.rinv

        def apply(m):
            s = None
            for al in range(2):
                t = ad[al] @ m @ a[al] + a[al] @ m @ ad[al]
                s = t if s is None else s + t
            return 0.5 * (rinv @ s)

        return SuperOp(self.basis, apply, 1, name="V4w")

    def velocity_so4(self, c: int) -> SuperOp:
        """V_a for a = 1..4."""
        return self.velocity4() if c == 4 else self.velocity(c)

    def w_vector(self, j: int) -> SuperOp:
        """W_j psi = (1/2r) sig^j_{ab} [a_b, [a+_a, psi]]."""
        a, ad, rinv = self.a, self.ad, self.rinv
        pairs = _sigma_pairs(j - 1)

        def apply(m):
            s = None
            for (al, be), c in pairs:
                t = ad[al] @ m - m @ ad[al]
                t = a[be] @ t - t @ a[be]
                t = c * t
                s = t if s is None else s + t
            return 0.5 * (rinv @ s)

        return SuperOp(self.basis, apply, 1, name=f"W{j}")

    # -- Leibniz correction ------------------------------------------------

    def leibniz_correction(self, i: int, A: NCState, B: NCState) -> NCState:
        """K_i(A, B) = -(i/2r) sig^i_{ab} ([a+_a, A][a_b, B] - [a_b, A][a+_a, B]).

        The defect in the Leibniz rule: V_i(AB) = (V_i A)B + A(V_i B) + K_i(A, B).
        """
        if A.basis.n_max != self.n_max or B.basis.n_max != self.n_max:
            raise ValueError("states and space do not match")
        a, ad = self.a, self.ad
        ma, mb = A.matrix, B.matrix
        s = None
        for (al, be), c in _sigma_pairs(i - 1):
            ca_dag_A = ad[al] @ ma - ma @ ad[al]
            ca_B = a[be] @ mb - mb @ a[be]
            ca_A = a[be] @ ma - ma @ a[be]
            ca_dag_B = ad[al] @ mb - mb @ ad[al]
            t = c * (ca_dag_A @ ca_B - ca_A @ ca_dag_B)
            s = t if s is None else s + t
        return NCState(self.basis, -0.5j * (self.rinv @ s))

    # -- central potentials and acceleration -------------------------------

    def hamiltonian(self, potential: Optional[RadialFunction] = None) -> SuperOp:
        """H = H0 + U(r) for a central potential given per shell."""
        h0 = self.free_hamiltonian()
        if potential is None:
            return h0
        u = self.radial_multiplication(potential)
        h = h0 + u
        h.name = "H0+U"
        h.bandwidth = 1
        return h

    def acceleration(self, i: int, potential: RadialFunction) -> SuperOp:
        """-i [V_i, U(r)]: equals -i [V_i, H0 + U(r)] since [V_i, H0] = 0."""
        v = self.velocity(i)
        u = self.radial_multiplication(potential)
        op = -1j * v.commutator(u)
        op.name = f"A{i}[{potential.name}]"
        return op

    def acceleration_decomposed(self, i: int, potential: RadialFunction) -> SuperOp:
        """Decomposition of -i [V_i, U(r)] into gradient plus deformation terms:

            -(x_i/r) U'(r)  +  U'(r) (lam/r) L_i  +  lam U'(r) W_i
                            -  (i lam^2 / 2) U''(r) V_i

        with U', U'' the central lambda-differences on the shell grid.  The
        first term is left multiplication by the state V_i U(r) times -i.
        """
        lam = self.lam
        du = potential.lambda_derivative(1)
        ddu = potential.lambda_derivative(2)
        du_diag = self.shell_diagonal(du.values)
        ddu_diag = self.shell_diagonal(ddu.values)
        xi = self.x[i - 1]
        grad = (du_diag @ self.rinv) @ xi  # the Fock operator (x_i/r) U'(r)
        li = self.angular_momentum(i)
        wi = self.w_vector(i)
        vi = self.velocity(i)
        rinv = self.rinv

        def apply(m):
            t1 = -grad @ m
            t2 = du_diag @ (lam * (rinv @ li.func(m)))
            t3 = lam * (du_diag @ wi.func(m))
            t4 = -0.5j * lam**2 * (ddu_diag @ vi.func(m))
            return t1 + t2 + t3 + t4

        return SuperOp(self.basis, apply, 1, name=f"A{i}dec[{potential.name}]")

    # -- E(4) invariants ----------------------------------------------------

    def pauli_lubanski(self, a: int) -> SuperOp:
        """Pauli-Lubanski components: Lam_i = V4 L_i + eps_ijk V_j X_k / lam,
        Lam_4 = L_j V_j.  All vanish on kappa = 0 states."""
        if a == 4:
            op = None
            for j in (1, 2, 3):
                t = self.angular_momentum(j) @ self.velocity(j)
                op = t if op is None else op + t
            op.name = "Lam4"
            op.bandwidth = 1
            return op
        op = self.velocity4() @ self.angular_momentum(a)
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                e = EPS3[a - 1, j - 1, k - 1]
                if e != 0:
                    op = op + (e / self.lam) * (self.velocity(j) @ self.position(k))
        op.name = f"Lam{a}"
        op.bandwidth = 1
        return op

    def casimir2(self) -> SuperOp:
        """C2 = V_a V_a over a = 1..4; equals 1/lam^2 on kappa = 0 states."""
        op = None
        for a in (1, 2, 3, 4):
            v = self.velocity_so4(a)
            t = v @ v
            op = t if op is None else op + t
        op.name = "C2"
        op.bandwidth = 2
        return op
