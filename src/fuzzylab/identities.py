"""Symbolic operator library and the exact identity proofs.

Every operator of the theory is expressed in the rewriting algebra of
:mod:`fuzzylab.algebra` (charge-zero form, left radius ``r`` only) and the
structural identities are certified by reducing both sides to the canonical
normal form with exact rational arithmetic.  The same expressions can be
instantiated as numeric superoperators and cross-validated against the
matrix constructions in :mod:`fuzzylab.operators`.

The provers contract Pauli indices by bilinearity: a sum such as
W_i = sig^i_{ab} w_ab is built once, and commutators are taken between
whole sums, never entry by entry.  Each proof expression is reduced to its
charge-zero form once; the verdict and the transcript text are both read
from that reduced form, which is exact to reduce again (the reduction is
linear and idempotent).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Dict, List

import sympy
from sympy import I as sI
from sympy import Rational

from .fock import EPS3
from .algebra import (LAM, R, UFUN, AlgebraExpr, aL, aL_dag, aR, aR_dag,
                      coeff, expr_to_text, one, to_superop)
from .report import worst

__all__ = [
    "PAULI_SYM",
    "pauli_entry", "fierz_residual", "anticommutator_residual",
    "x_left", "position_op", "angular_momentum_op", "w_op", "velocity_op",
    "h0_zeta", "h0_raw", "velocity4_op", "w_vector_op",
    "leibniz_correction_coordinate",
    "IdentityResult", "IDENTITY_NAMES", "check_identity", "cross_validate",
]

#: exact Pauli matrices (Gaussian-rational entries)
PAULI_SYM = (
    ((sympy.S.Zero, sympy.S.One), (sympy.S.One, sympy.S.Zero)),
    ((sympy.S.Zero, -sI), (sI, sympy.S.Zero)),
    ((sympy.S.One, sympy.S.Zero), (sympy.S.Zero, -sympy.S.One)),
)


def eps3(i: int, j: int, k: int) -> int:
    """eps_{ijk} with 1-based indices, as an exact integer."""
    return int(EPS3[i - 1, j - 1, k - 1])


def pauli_entry(j: int, al: int, be: int) -> sympy.Expr:
    """sigma^j_{al be} with 1-based indices everywhere."""
    return PAULI_SYM[j - 1][al - 1][be - 1]


def _abs_sum(matrices) -> sympy.Expr:
    """Sum of the absolute values of every entry of the matrices."""
    return sum((abs(e) for m in matrices for e in m), sympy.S.Zero)


def anticommutator_residual() -> sympy.Expr:
    """sum |{sigma_i, sigma_j} - 2 delta_ij 1| over entries, as exact zero check."""
    sig = [sympy.Matrix(p) for p in PAULI_SYM]
    return _abs_sum(sig[i] * sig[j] + sig[j] * sig[i] - 2 * int(i == j) * sympy.eye(2)
                    for i in range(3) for j in range(3))


def fierz_residual() -> sympy.Expr:
    """eps^{ijk} sig^i_{ab} sig^j_{gd} = i (sig^k_{ad} d_{gb} - sig^k_{gb} d_{ad}),
    as 4 x 4 matrices with rows (a, g) and columns (b, d):
    sum_ij eps_ijk sig^i (x) sig^j = i (sig^k (x) 1 - 1 (x) sig^k) SWAP."""
    sig, eye = [sympy.Matrix(p) for p in PAULI_SYM], sympy.eye(2)
    swap = sympy.Matrix(4, 4, lambda r, c: int(r == 2 * (c % 2) + c // 2))
    kron = sympy.kronecker_product
    return _abs_sum(
        sum((eps3(i + 1, j + 1, k + 1) * kron(sig[i], sig[j])
             for i in range(3) for j in range(3) if i != j != k != i),
            sympy.zeros(4))
        - sI * (kron(sig[k], eye) - kron(eye, sig[k])) * swap for k in range(3))


# -- operator library (charge-zero reduced form) -------------------------------

def _sigma_sum(j: int, factory) -> AlgebraExpr:
    return functools.reduce(operator.add, (
        pauli_entry(j, al, be) * factory(al, be) for al in (1, 2) for be in (1, 2)
        if pauli_entry(j, al, be) != 0))


def x_left(j: int) -> AlgebraExpr:
    """Left multiplication by the coordinate x_j = lam sig^j_{ab} a+_a a_b."""
    return LAM * _sigma_sum(j, lambda al, be: aL_dag(al) * aL(be))


def position_op(j: int) -> AlgebraExpr:
    """X_j = (lam/2) sig^j_{ab} (aL+_a aL_b + aR+_a aR_b)."""
    return Rational(1, 2) * LAM * _sigma_sum(
        j, lambda al, be: aL_dag(al) * aL(be) + aR_dag(al) * aR(be))


def angular_momentum_op(k: int) -> AlgebraExpr:
    """L_k = (1/2) sig^k_{ab} (aL+_a aL_b - aR+_a aR_b)."""
    return Rational(1, 2) * _sigma_sum(
        k, lambda al, be: aL_dag(al) * aL(be) - aR_dag(al) * aR(be))


def w_op(al: int, be: int) -> AlgebraExpr:
    """w_ab psi = a+_a psi a_b - a_b psi a+_a."""
    return aL_dag(al) * aR(be) - aL(be) * aR_dag(al)


def velocity_op(j: int) -> AlgebraExpr:
    """V_j = (i/2r) sig^j_{ab} w_ab."""
    return coeff(sI / (2 * R)) * _sigma_sum(j, w_op)


def h0_zeta() -> AlgebraExpr:
    """Charge-zero kinetic Hamiltonian (2r/lam - aL+.aR - aR+.aL) / (2 lam r)."""
    adotb = sum((aL_dag(al) * aR(al) for al in (1, 2)), AlgebraExpr())
    bdota = sum((aR_dag(al) * aL(al) for al in (1, 2)), AlgebraExpr())
    return coeff(1 / LAM**2) * one() - coeff(1 / (2 * LAM * R)) * (adotb + bdota)


def h0_raw() -> AlgebraExpr:
    """Double-commutator form (a+_al [a_al, .] acting from both sides) / (2 lam r)."""
    return coeff(1 / (2 * LAM * R)) * sum(
        ((aL_dag(al) - aR_dag(al)) * (aL(al) - aR(al)) for al in (1, 2)),
        AlgebraExpr())


def velocity4_op() -> AlgebraExpr:
    """V_4 psi = (a+_a psi a_a + a_a psi a+_a) / (2r)."""
    return coeff(1 / (2 * R)) * sum(
        (aL_dag(al) * aR(al) + aL(al) * aR_dag(al) for al in (1, 2)),
        AlgebraExpr())


def calW_op(al: int, be: int) -> AlgebraExpr:
    """[a_b, [a+_a, .]] = aL+_a aL_b + aR+_a aR_b - aL+_a aR_b - aL_b aR+_a."""
    return (aL_dag(al) * aL(be) + aR_dag(al) * aR(be)
            - aL_dag(al) * aR(be) - aL(be) * aR_dag(al))


def w_vector_op(i: int) -> AlgebraExpr:
    """W_i = (1/2r) sig^i_{ab} [a_b, [a+_a, .]]."""
    return coeff(1 / (2 * R)) * _sigma_sum(i, calW_op)


def A_hat(al: int, be: int) -> AlgebraExpr:
    """a+_a [a_b, .]"""
    return aL_dag(al) * (aL(be) - aR(be))


def B_hat(al: int, be: int) -> AlgebraExpr:
    """a_b [a+_a, .]"""
    return aL(be) * (aL_dag(al) - aR_dag(al))


def leibniz_correction_coordinate(i: int, j: int, coordinate_first: bool) -> AlgebraExpr:
    """K_i(x_j, .) (coordinate_first) or K_i(., x_j) as a superoperator.

    Uses [a+_a, x_j] = -lam sig^j_{ga} a+_g and [a_b, x_j] = lam sig^j_{bd} a_d;
    in the second slot the coordinate commutators multiply from the right.
    """
    cre, ann = (aL_dag, aL) if coordinate_first else (aR_dag, aR)

    def term(al, be):
        cre_x = pauli_entry(j, 1, al) * cre(1) + pauli_entry(j, 2, al) * cre(2)
        ann_x = pauli_entry(j, be, 1) * ann(1) + pauli_entry(j, be, 2) * ann(2)
        return (-LAM) * (cre_x * (aL(be) - aR(be))
                         + ann_x * (aL_dag(al) - aR_dag(al)))

    return coeff((-sI if coordinate_first else sI) / (2 * R)) * _sigma_sum(i, term)


# -- identity proofs ---------------------------------------------------------

@dataclass
class IdentityResult:
    """Outcome of one exact proof: residual normal forms and intermediates.

    :func:`check_identity` hands the same object to every caller in the
    process, so treat it as immutable.
    """

    name: str
    statement: str
    residuals: Dict[str, AlgebraExpr]
    intermediates: List[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(not r.terms for r in self.residuals.values()) and \
            all(flag for _label, _text, flag in self.intermediates)

    def transcript(self) -> str:
        lines = [f"identity: {self.name}", f"statement: {self.statement}"]
        for label, res in sorted(self.residuals.items()):
            lines.append(f"residual[{label}]: {expr_to_text(res)}")
        for label, text, flag in self.intermediates:
            lines.append(f"intermediate[{label}]: {'ok' if flag else 'MISMATCH'}: {text}")
        lines.append(f"verdict: {'proved' if self.ok else 'FAILED'}")
        return "\n".join(lines) + "\n"


def _residual(lhs: AlgebraExpr, rhs: AlgebraExpr) -> AlgebraExpr:
    """Charge-zero residual: normal order, then identify the two radii.

    The right radius enters through the right-family number relation even
    for expressions built from left-radius coefficients; identities of the
    theory hold on charge-zero states, where r_R = r block-wise.  Either side
    may already be reduced: the reduction is linear and idempotent.
    """
    return (lhs - rhs).kappa_reduce()


def _intermediate(label: str, reduced: AlgebraExpr, target: AlgebraExpr) -> tuple:
    """Transcript entry of a reduced intermediate checked against ``target``."""
    return label, expr_to_text(reduced), not _residual(reduced, target).terms


def _eps_sum(k: int, term) -> AlgebraExpr:
    """sum_ij eps_ijk term(i, j)."""
    return sum((eps3(i, j, k) * term(i, j) for i in (1, 2, 3) for j in (1, 2, 3)
                if eps3(i, j, k)), AlgebraExpr())


def _prove_velocity_form() -> IdentityResult:
    """-i [X_i, H0] reduces to (i/2r) sig^i w on charge-zero states."""
    h0 = h0_zeta()
    residuals = {f"i={i}": _residual((-sI) * position_op(i).commutator(h0),
                                     velocity_op(i)) for i in (1, 2, 3)}
    inter = [_intermediate("double-commutator kappa-reduces to the charge-zero form",
                           h0_raw().kappa_reduce(), h0)]
    return IdentityResult(
        name="velocity-form",
        statement="-i[X_i, H0] = (i/2r) sigma^i_{ab} (a+_a . a_b - a_b . a+_a)",
        residuals=residuals, intermediates=inter)


def _prove_correction_sum() -> IdentityResult:
    """(K_i(x_j, .) + K_i(., x_j))/2 = i delta_ij lam^2 H0."""
    h0 = h0_zeta()
    residuals = {
        f"i={i},j={j}": _residual(
            Rational(1, 2) * (leibniz_correction_coordinate(i, j, True)
                              + leibniz_correction_coordinate(i, j, False)),
            (sI * LAM**2 * int(i == j)) * h0)
        for i in (1, 2, 3) for j in (1, 2, 3)}
    return IdentityResult(
        name="correction-sum",
        statement="(K_i(x_j,.) + K_i(.,x_j))/2 = i delta_ij lam^2 H0",
        residuals=residuals)


def _prove_velocity_commutator() -> IdentityResult:
    """[V_i, V_j] = 0 on charge-zero states, with the +-8i/r^2 L_k split.

    With W_i = sig^i_{ab} w_ab, so that V_i = (i/2r) W_i, the commutator
    splits into (1/r^2) eps_ijk [W_i, W_j] and the radial shifts
    eps_ijk (r^-1 [W_i, r^-1] W_j + r^-1 [r^-1, W_j] W_i).
    """
    residuals = {}
    unreduced_nonzero = True
    for i, j in ((1, 2), (2, 3), (1, 3)):
        full = velocity_op(i).commutator(velocity_op(j)).normal()
        unreduced_nonzero = unreduced_nonzero and bool(full.terms)
        residuals[f"[V{i},V{j}]"] = full.kappa_reduce()
    inter = [("commutator is nonzero before charge-zero reduction "
              "(every coefficient carries a factor r - r_R)",
              "unequal creation/annihilation counts give [V_i,V_j] != 0",
              unreduced_nonzero)]
    rinv = coeff(1 / R)
    w = {i: _sigma_sum(i, w_op) for i in (1, 2, 3)}
    for k in (1, 2, 3):
        t_ww = coeff(1 / R**2) * _eps_sum(k, lambda i, j: w[i].commutator(w[j]))
        t_rad = _eps_sum(k, lambda i, j: rinv * w[i].commutator(rinv) * w[j]
                         + rinv * rinv.commutator(w[j]) * w[i])
        target = coeff(8 * sI / R**2) * angular_momentum_op(k)
        inter.append(_intermediate(
            f"eps.sig.sig [w,w]/r^2 piece equals +8i/r^2 L_{k}",
            t_ww.kappa_reduce(), target))
        inter.append(_intermediate(f"radial-shift piece equals -8i/r^2 L_{k}",
                                   t_rad.kappa_reduce(), (-1) * target))
    return IdentityResult(
        name="velocity-commutator",
        statement="[V_i, V_j] = 0 with intermediate +-(8i/r^2) L_k contributions",
        residuals=residuals, intermediates=inter)


def _prove_quadratic_relation() -> IdentityResult:
    """(1/lam^2 - H0)^2 = (1/lam^2)(1/lam^2 - V^2)."""
    v2 = sum((velocity_op(j) * velocity_op(j) for j in (1, 2, 3)),
             AlgebraExpr()).kappa_reduce()
    lhs_base = coeff(1 / LAM**2) * one() - h0_zeta()
    rest = coeff(1 / LAM**2) * one() - v2
    residuals = {"endpoint": _residual(lhs_base * lhs_base,
                                       coeff(1 / LAM**2) * rest)}
    # quoted closed form of V^2
    adotb = sum((aL_dag(al) * aR(al) for al in (1, 2)), AlgebraExpr())
    abdag = sum((aL(al) * aR_dag(al) for al in (1, 2)), AlgebraExpr())
    quoted_v2 = (coeff(1 / LAM**2) * one()
                 - coeff(1 / (4 * R * (R - LAM))) * (adotb * adotb + adotb * abdag)
                 - coeff(1 / (4 * R * (R + LAM))) * (abdag * abdag + abdag * adotb))
    v4 = velocity4_op()
    inter = [_intermediate("V^2 matches its contracted-bilinear closed form",
                           v2, quoted_v2),
             # V_4^2 = (1/lam - lam H0)^2 reproduces 1/lam^2 - V^2 (Casimir route)
             _intermediate("V_4^2 equals 1/lam^2 - V^2", (v4 * v4).kappa_reduce(),
                           rest)]
    return IdentityResult(
        name="quadratic-relation",
        statement="(1/lam^2 - H0)^2 = (1/lam^2)(1/lam^2 - V^2)",
        residuals=residuals, intermediates=inter)


def _prove_acceleration() -> IdentityResult:
    """-i[V_i, U(r)] decomposes into gradient, L, W and V terms.

    The exact coefficients (with W_i = (1/2r) sig [a,[a+, .]]) are

        -i(V_i U) + U'(lam/r) L_i + lam U' W_i - (i lam^2/2) U'' V_i
    """
    du = (UFUN(R + LAM) - UFUN(R - LAM)) / (2 * LAM)
    ddu = (UFUN(R + LAM) - 2 * UFUN(R) + UFUN(R - LAM)) / LAM**2
    residuals = {}
    for i in (1, 2, 3):
        lhs = (-sI) * velocity_op(i).commutator(coeff(UFUN(R)))
        grad = coeff(-du / R) * x_left(i)  # -i * (V_i U) as a left multiplication
        term_l = coeff(du * LAM / R) * angular_momentum_op(i)
        term_w = coeff(LAM * du) * w_vector_op(i)
        term_v = coeff(-sI * LAM**2 * ddu / 2) * velocity_op(i)
        residuals[f"i={i}"] = _residual(lhs, grad + term_l + term_w + term_v)
    inter = []
    half = Rational(1, 2)
    for i in (1, 2, 3):
        for name, hat, sign in (("A", A_hat, -1), ("B", B_hat, 1)):
            target = half * _sigma_sum(
                i, lambda al, be: calW_op(al, be) + sign * w_op(al, be)) \
                + angular_momentum_op(i)
            inter.append(_intermediate(f"sig.{name} decomposition (i={i})",
                                       _sigma_sum(i, hat).kappa_reduce(), target))
    return IdentityResult(
        name="acceleration",
        statement="-i[V_i, U(r)] = -i(V_i U) + U'(lam/r)L_i + lam U' W_i "
                  "- (i lam^2/2) U'' V_i",
        residuals=residuals, intermediates=inter)


_PROVERS = {
    "velocity-form": _prove_velocity_form,
    "correction-sum": _prove_correction_sum,
    "velocity-commutator": _prove_velocity_commutator,
    "quadratic-relation": _prove_quadratic_relation,
    "acceleration": _prove_acceleration,
}

IDENTITY_NAMES = tuple(_PROVERS)

_ALIASES = {"A": "velocity-form", "B": "correction-sum",
            "C": "velocity-commutator", "D": "quadratic-relation",
            "E": "acceleration"}


#: proofs already made in this process, keyed on the resolved name
_PROOFS: Dict[str, IdentityResult] = {}


def check_identity(name: str) -> IdentityResult:
    """Prove one library identity; the residual must be the exact zero form.

    Each identity is proved once per process (aliases share the proof).
    """
    key = _ALIASES.get(name, name)
    if key not in _PROVERS:
        raise KeyError(f"unknown identity {name!r}; have {sorted(_PROVERS)}")
    if key not in _PROOFS:
        _PROOFS[key] = _PROVERS[key]()
    return _PROOFS[key]


def cross_validate(expr: AlgebraExpr, space, reference=None,
                   potential=None, seed: int = 20) -> float:
    """Max deviation of the instantiated expression from a numeric reference.

    Applies both maps to four random charge-zero states whose support stops
    the summed bandwidth of both maps short of the cutoff, and returns the
    largest weighted-norm deviation relative to the state norm scale.  With
    ``reference=None`` the expression itself is checked against zero.
    """
    op = to_superop(expr, space, potential=potential)
    margin = op.bandwidth + (reference.bandwidth if reference is not None else 0)

    def deviation(s):
        psi = space.random_state(seed + s, kappa=0,
                                 support_max=space.n_max - margin)
        lhs = op(psi)
        diff = lhs - reference(psi) if reference is not None else lhs
        return space.ip.norm(space.interior(diff, margin))
    return worst(map(deviation, range(4)))
