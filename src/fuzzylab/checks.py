"""The verification suites: every identity of the theory as a runnable check.

Each check applies operators to random interior charge-zero states, reports
a relative residual, and passes when the residual is below threshold.  A
residual is the worst of its parts (``report.worst``): a NaN part makes it NaN
(null in JSON), which fails the record.  Margins follow the bandwidth rule: a
composition of maps with shell bandwidths b1, b2, ... is exact on states kept
sum(b) shells away from the cutoff.  Operator identities are tables of rows:
(A, B, terms) for [A, B] = sum(c * op), and (A, B) for A psi = B psi, each
relative to the largest of its compared terms and |psi|; the coordinate and
ladder matrices enter them as left multiplications.

Suites: kinematics, e4, velocity, quadratic, acceleration, hermiticity,
spectra, symbolic, plus the expected-nonzero diagnostics.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fock import EPS3, NCState, radial_grid, validate_lambda
from .operators import RadialFunction, Space, SuperOp
from .report import FORMATS, CheckRecord, VerificationReport, worst
from . import spectra as spc

__all__ = ["CheckConfig", "CheckSkipped", "CHECK_IDS", "OPTIONS", "SUITES",
           "run_suite", "parse_config_text", "POTENTIALS", "potential_fn"]

_TINY = 1e-300
#: the largest double below 1: ``x <= _BELOW_ONE`` is ``x < 1``
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


class CheckSkipped(Exception):
    """Raised by a runner that has nothing to measure at its grid point."""


#: named central potentials available to the CLI and the suites
POTENTIALS: Dict[str, Callable[[float], float]] = {
    "free": lambda r: 0.0,
    "coulomb": lambda r: -1.0 / r,
    "r2": lambda r: r * r,
    "exp": lambda r: float(np.exp(-r)),
}


def potential_fn(name: str, q: float = 1.0) -> Optional[Callable[[float], float]]:
    """The central potential q U(r) named ``name``; None for "free"."""
    if name not in POTENTIALS:
        raise ValueError(f"unknown potential {name!r} (have {sorted(POTENTIALS)})")
    if not math.isfinite(q):
        raise ValueError(f"q must be finite; got {q!r}")
    if name == "free":
        return None
    base = POTENTIALS[name]
    return lambda r: q * base(r)


@dataclass
class CheckConfig:
    """Run configuration; every field has a default and round-trips as text."""

    lams: Tuple[float, ...] = (0.1,)
    n_maxes: Tuple[int, ...] = (12,)
    seed: int = 7
    n_states: int = 5
    margin: str = "auto"          # "auto" or "fixed:k"
    suites: Tuple[str, ...] = ("all",)
    potential: str = "coulomb"
    potential_q: float = 1.0
    tolerance: float = 1e-10
    tol_overrides: Dict[str, float] = field(default_factory=dict)
    out: Optional[str] = None
    fmt: str = "json"

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    def to_text(self) -> str:
        """Losslessly render the config in the plain-text grammar."""
        lines = [f"{opt.key} = {opt.show(getattr(self, opt.field))}"
                 for opt in OPTIONS if getattr(self, opt.field) is not None]
        lines += [f"tol.{key} = {value!r}"
                  for key, value in sorted(self.tol_overrides.items())]
        return "\n".join(lines) + "\n"


# -- residual helpers -----------------------------------------------------------


def _margin(config: CheckConfig, auto: int) -> int:
    if config.margin == "auto":
        return auto
    k = config.margin[len("fixed:"):]
    if config.margin.startswith("fixed:") and k.isdigit():
        return int(k)
    raise ValueError(f"bad margin policy {config.margin!r} "
                     "(want auto or fixed:k with an integer k >= 0)")


def _validate_config(config: CheckConfig) -> None:
    """Raise ValueError for a config that no check can run on.  Every
    config passes here before any check runs."""
    if not config.lams:
        raise ValueError("no lambda given")
    for lam in config.lams:
        validate_lambda(lam)
    if not config.n_maxes or min(config.n_maxes) < 1:
        raise ValueError(f"every n_max must be >= 1; got {config.n_maxes}")
    if config.n_states < 1:
        raise ValueError(f"states must be >= 1; got {config.n_states}")
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0; got {config.seed}")
    if _margin(config, 0) > min(config.n_maxes):  # raises on a bad policy
        raise ValueError(f"margin {config.margin} exceeds the smallest n_max "
                         f"{min(config.n_maxes)}")
    unknown = set(config.suites) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suites {sorted(unknown)}; have {SUITES}")
    potential_fn(config.potential, config.potential_q)
    unknown = set(config.tol_overrides) - set(CHECK_IDS)
    if unknown:
        raise ValueError(f"tol.<check_id> names no check: {sorted(unknown)}")
    for tol in (config.tolerance, *config.tol_overrides.values()):
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"thresholds must be finite and >= 0; got {tol!r}")
    if config.fmt not in FORMATS:
        raise ValueError(f"unknown format {config.fmt!r}; have {FORMATS}")


def _states(space: Space, config: CheckConfig, margin: int,
            at_least: int = 1) -> List[NCState]:
    """``config.n_states`` seeded charge-0 states, or ``at_least`` if more."""
    support = max(space.n_max - margin, 0)
    return [space.random_state(config.seed + 1000 * t, 0, support)
            for t in range(max(config.n_states, at_least))]


def _rel_residual(space: Space, diff: NCState, margin: int,
                  scale_states: Sequence[NCState] = (),
                  scale: float = 0.0) -> float:
    """Interior norm of ``diff`` over the largest of ``scale`` and the norms
    of ``scale_states``."""
    num = space.ip.norm(space.interior(diff, margin))
    den = max([space.ip.norm(s) for s in scale_states] + [scale, _TINY])
    return num / den


class _OpCache:
    """Memoize superoperator applications within one check at one parameter
    point: A psi, B psi and every target term of a commutator table.

    Keyed on the operator object: two operators may share a name (every
    ``Space.hamiltonian(pot)`` is "H0+U") and still differ.  States are
    keyed by identity, which is sound because no operation changes a state
    in place.
    """

    def __init__(self):
        self._data = {}

    def apply(self, op: SuperOp, psi: NCState, key: Tuple) -> NCState:
        k = (op,) + key
        if k not in self._data:
            self._data[k] = op(psi)
        return self._data[k]


def _commutator_residual(space: Space, A: SuperOp, B: SuperOp,
                         terms: Tuple[Tuple[complex, SuperOp], ...],
                         cache: _OpCache, psi: NCState, psi_norm: float,
                         margin: int) -> List[float]:
    """Relative residual of [A, B] psi - sum(c * op(psi) for c, op in terms),
    as the one case value of a commutator row; ``psi_norm`` is |psi|."""
    b_psi = cache.apply(B, psi, (psi,))
    a_psi = cache.apply(A, psi, (psi,))
    ab = A(b_psi)
    ba = B(a_psi)
    diff = ab - ba
    scales = [ab, ba]
    if terms:
        target = functools.reduce(operator.add, (c * cache.apply(op, psi, (psi,))
                                                 for c, op in terms))
        diff = diff - target
        scales.append(target)
    return [_rel_residual(space, diff, margin, scales, psi_norm)]


def _state_check(auto_margin: int,
                 detail: str = "margin {margin}, {states} states, {cases} rows",
                 floor: int = 0):
    """Decorator making a runner of ``cases(space)``: functions
    (psi, |psi|, margin) -> relative residuals.  The runner returns the worst
    residual over every case (outer) and random state (inner), at a margin
    of at least ``floor``; ``detail`` may name the ``{margin}`` and the
    numbers of ``{states}`` and ``{cases}``."""

    def wrap(cases: Callable[[Space], list]):
        def run(space: Space, config: CheckConfig):
            margin = max(_margin(config, auto_margin), floor)
            states = _states(space, config, margin)
            norms = [space.ip.norm(psi) for psi in states]
            table = cases(space)
            return worst(residual for case in table
                         for psi, norm in zip(states, norms)
                         for residual in case(psi, norm, margin)), \
                detail.format(margin=margin, states=len(states), cases=len(table))

        return run

    return wrap


def _commutator_runner(auto_margin: int, rows: Callable[[Space], list],
                       floor: int = 0):
    """Runner for a table of commutator rows ``(A, B, terms)``: the worst residual
    of [A, B] = sum(c * op) over every row and state, at margin >= ``floor``."""

    def cases(space: Space):
        cache = _OpCache()
        return [functools.partial(_commutator_residual, space, A, B, terms, cache)
                for A, B, terms in rows(space)]

    return _state_check(auto_margin, floor=floor)(cases)


def _pair(space: Space, op_a: SuperOp, op_b: SuperOp):
    """Case op_a psi = op_b psi, relative to both sides and to psi."""
    def case(psi, norm, margin):
        a, b = op_a(psi), op_b(psi)
        return [_rel_residual(space, a - b, margin, [a, b], norm)]
    return case


def _vanishes(space: Space, op: SuperOp, scale: float):
    """Case op psi = 0, relative to ``scale``."""
    return lambda psi, _norm, margin: [_rel_residual(space, op(psi), margin,
                                                     scale=scale)]


# -- check registry ----------------------------------------------------------


@dataclass
class CheckSpec:
    check_id: str
    statement: str
    runner: Callable[[Space, CheckConfig], Tuple[float, str]]
    kind: str = "identity"
    tol: Optional[float] = None  # None: the run's tolerance
    per_space: bool = True  # False: runs once, independent of (lam, n_max) grid

    @property
    def suite(self) -> str:
        """The suite is the prefix of the check id."""
        return self.check_id.split(".")[0]


def _commutator_check(check_id: str, statement: str, auto_margin: int, rows: Callable,
                      floor: int = 0, tol: Optional[float] = None) -> CheckSpec:
    """One commutator check: ``rows(space)`` lists its (A, B, terms)."""
    return CheckSpec(check_id, statement,
                     _commutator_runner(auto_margin, rows, floor), tol=tol)


def _equation_check(check_id: str, statement: str, auto_margin: int, rows: Callable,
                    tol: Optional[float] = None) -> CheckSpec:
    """One operator-equation check: ``rows(space)`` lists its (A, B), each
    meaning A psi = B psi."""
    return CheckSpec(check_id, statement, _state_check(auto_margin)(
        lambda s: [_pair(s, A, B) for A, B in rows(s)]), tol=tol)


# ---- commutator rows: (A, B, terms) with [A, B] = sum(c * op for c, op in terms)

_PAIRS3 = ((1, 2), (1, 3), (2, 3))
_PAIRS4 = tuple((a, b) for a in range(1, 5) for b in range(a + 1, 5))


def _eps_rows(A, B, target, factor):
    """[A_i, B_j] = factor eps_ijk target_k for every i < j."""
    return [(A(i), B(j), tuple((factor * EPS3[i - 1, j - 1, k - 1], target(k))
                               for k in (1, 2, 3) if EPS3[i - 1, j - 1, k - 1]))
            for i, j in _PAIRS3]


def _uncertainty_rows(s: Space):
    """[V_i, X_j] = -i delta_ij (1 - lam^2 H0)."""
    unit = ((-1.0j, SuperOp.identity(s.basis)),
            (1.0j * s.lam**2, s.free_hamiltonian()))
    return [(s.velocity(i), s.position(j), unit if i == j else ())
            for i in (1, 2, 3) for j in (1, 2, 3)]


def _so4_rows(s: Space):
    """[L_ab, L_cd] = i (d_ac L_bd - d_bc L_ad - d_ad L_bc + d_bd L_ac)."""
    rows = []
    for a, b in _PAIRS4:
        for c, d in _PAIRS4:
            terms = tuple((1.0j * sgn, s.so4_generator(p, q))
                          for (da, db), (p, q), sgn in (((a, c), (b, d), 1),
                                                        ((b, c), (a, d), -1),
                                                        ((a, d), (b, c), -1),
                                                        ((b, d), (a, c), 1))
                          if da == db and p != q)
            rows.append((s.so4_generator(a, b), s.so4_generator(c, d), terms))
    return rows


def _e4_lv_rows(s: Space):
    """[L_ab, V_c] = i (d_ac V_b - d_bc V_a); a < b, so one delta at most."""
    return [(s.so4_generator(a, b), s.velocity_so4(c),
             ((1.0j, s.velocity_so4(b)),) if a == c else
             ((-1.0j, s.velocity_so4(a)),) if b == c else ())
            for a, b in _PAIRS4 for c in (1, 2, 3, 4)]


def _ladder_rows(s: Space):
    """[a_al, a+_be] = delta_al,be, [a_1, a_2] = [a+_1, a+_2] = 0, for the
    ladder matrices acting from the left."""
    one = ((1.0, SuperOp.identity(s.basis)),)
    return [(s.ladder("L", al, False), s.ladder("L", be, True),
             one if al == be else ()) for al in (1, 2) for be in (1, 2)] \
        + [(s.ladder("L", 1, d), s.ladder("L", 2, d), ()) for d in (False, True)]


# ---- velocity action checks ---------------------------------------------------


def _run_velocity_on_coordinates(space: Space, config: CheckConfig):
    margin = _margin(config, 1)
    eye, xs = space.identity_state(), [space.state(x) for x in space.x]
    return worst(_rel_residual(space, got - (-1.0j if i == j else 0.0) * eye,
                               margin, [eye])
                 for i in (1, 2, 3)
                 for j, got in enumerate(space.velocity(i).each(xs), 1)), \
        "V_i x_j = -i delta_ij"


def _run_velocity_on_radial(space: Space, config: CheckConfig):
    margin = _margin(config, 1)
    f_state = space.state((space.r @ space.r).astype(complex))

    def residual(j):
        got = space.velocity(j)(f_state)
        want = space.state(-1.0j * (space.x[j - 1] @ space.rinv) @ (2.0 * space.r))
        return _rel_residual(space, got - want, margin, [want])
    return worst(map(residual, (1, 2, 3))), \
        "V_j f(r) = -i (x_j / r) f'_lam(r) for f = r^2 (f'_lam = 2r)"


@_state_check(1, "double-commutator H0 equals (2r/lam - a+.b - b+.a)/(2 lam r)")
def _run_h0_forms(s: Space):
    """H0 psi against the bilinear form, made of state products."""
    h0, lam = s.free_hamiltonian(), s.lam
    a, ad = [s.state(m).packed() for m in s.a], [s.state(m).packed() for m in s.ad]
    r, rinv = s.state(s.r).packed(), s.state(s.rinv).packed()

    def case(psi, _norm, margin):
        t = (2.0 / lam) * (r @ psi)
        for al in range(2):
            t = t - ad[al] @ psi @ a[al] - a[al] @ psi @ ad[al]
        got = h0(psi)
        return [_rel_residual(s, got - (1.0 / (2.0 * lam)) * (rinv @ t), margin,
                              [got])]
    return [case]


def _run_leibniz(space: Space, config: CheckConfig):
    margin = _margin(config, 2)
    support = max(space.n_max - margin, 0)

    def residuals():
        for t in range(config.n_states):
            A = space.random_state(config.seed + 10 * t, 0, support)
            B = space.random_state(config.seed + 10 * t + 5, 0, support)
            prod = A @ B
            for i in (1, 2, 3):
                vi = space.velocity(i)
                lhs = vi(prod)
                rhs = vi(A) @ B + A @ vi(B) + space.leibniz_correction(i, A, B)
                yield _rel_residual(space, lhs - rhs, margin, [lhs, rhs])
    return worst(residuals()), "V_i(AB) = (V_i A)B + A(V_i B) + K_i(A, B)"


@_state_check(2, "(K_i(x_j, psi) + K_i(psi, x_j))/2 = i delta_ij lam^2 H0 psi")
def _run_correction_sum(s: Space):
    h0, xs = s.free_hamiltonian(), [s.state(x).packed() for x in s.x]

    def case(psi, norm, margin):
        h0psi = h0(psi)
        scale = max(s.ip.norm(h0psi), norm)
        for j, xj in enumerate(xs, 1):  # K_1..3 of one pair share its images
            left = [s.leibniz_correction(i, xj, psi) for i in (1, 2, 3)]
            right = [s.leibniz_correction(i, psi, xj) for i in (1, 2, 3)]
            for i, k_left, k_right in zip((1, 2, 3), left, right):
                yield _rel_residual(s, 0.5 * (k_left + k_right)
                                    - (1.0j * s.lam**2 if i == j else 0.0) * h0psi,
                                    margin, scale=scale)
    return [case]


@_state_check(1, "K_i(1, psi) = 0")
def _run_kzero_identity(s: Space):
    eye = s.identity_state().packed()
    return [lambda psi, norm, margin: (
        _rel_residual(s, s.leibniz_correction(i, eye, psi), margin, scale=norm)
        for i in (1, 2, 3))]


# ---- quadratic relations -------------------------------------------------------


@_state_check(1, "Lambda_a = 0 on charge-zero states, a = 1..4")
def _run_pauli_lubanski(s: Space):
    # the velocity scale 1/lam keeps the check relative
    return [_vanishes(s, s.pauli_lubanski(a), 1.0 / s.lam) for a in (1, 2, 3, 4)]


# ---- acceleration ---------------------------------------------------------------


def _acceleration_rows(name: str, s: Space):
    """[V_i, U] = i A_i, A_i the decomposition of -i[V_i, U], for U ``name``."""
    pot = s.sample(POTENTIALS[name], name)
    return [(s.velocity(i), s.radial_multiplication(pot),
             ((1.0j, s.acceleration_decomposed(i, pot)),)) for i in (1, 2, 3)]


@_state_check(1, "constant potential gives zero acceleration (exactly)")
def _run_acc_constant(s: Space):
    pot = s.sample(lambda r: 3.7, "const")
    return [_vanishes(s, s.acceleration(i, pot), 1.0 / s.lam) for i in (1, 2, 3)]


def _full_hamiltonian_rows(s: Space):
    """[V_i, H0 + U] = i (-i[V_i, U]) for the Coulomb U."""
    pot = s.sample(POTENTIALS["coulomb"], "coulomb")
    return [(s.velocity(i), s.hamiltonian(pot), ((1.0j, s.acceleration(i, pot)),))
            for i in (1, 2, 3)]


# ---- hermiticity ----------------------------------------------------------------


def _run_ip_axioms(space: Space, config: CheckConfig):
    states = _states(space, config, 0, at_least=2)  # pairs consecutive states
    alpha, beta = 0.7 - 0.3j, -1.1 + 0.2j

    def residuals(phi, psi):
        a = space.ip(phi, psi)
        b = space.ip(psi, phi)
        lin = space.ip(phi, alpha * psi + beta * states[0])
        expect = alpha * space.ip(phi, psi) + beta * space.ip(phi, states[0])
        nrm = space.ip(psi, psi)
        positive = nrm.real > 0 and abs(nrm.imag) <= 1e-12 * abs(nrm)
        return [abs(a - np.conj(b)), abs(lin - expect), 0.0 if positive else 1.0]
    return worst(r for phi, psi in zip(states, states[1:])
                 for r in residuals(phi, psi)), \
        "conjugate symmetry, sesquilinearity, positivity"


def _run_hermiticity(space: Space, config: CheckConfig):
    ops = [space.angular_momentum(1), space.angular_momentum(3),
           space.position(1), space.position(2), space.position_left(3),
           space.radial(), space.velocity(1), space.velocity(3),
           space.velocity4(), space.free_hamiltonian()]
    by_margin = {}

    def residuals():
        for op in ops:
            margin = max(_margin(config, op.bandwidth), op.bandwidth)
            if margin not in by_margin:
                by_margin[margin] = _states(space, config, margin, at_least=2)
            states = by_margin[margin]
            images = [op(s) for s in states]
            for t in range(len(states) - 1):
                phi, psi, op_psi = states[t], states[t + 1], images[t + 1]
                a = space.ip(phi, op_psi)
                b = space.ip(images[t], psi)
                scale = max(space.ip.norm(op_psi) * space.ip.norm(phi), _TINY)
                yield abs(a - b) / scale
    return worst(residuals()), "<phi, O psi> = <O phi, psi> for L, X, V, V4, H0"


def _cutoff_excess(evals: np.ndarray, lam: float) -> float:
    """How far a spectrum reaches outside the kinetic range [0, 2/lam^2],
    in units of 1/lam^2."""
    return worst([-evals.min(), evals.max() - 2.0 / lam**2]) * lam**2


def _run_h0_positivity(space: Space, config: CheckConfig):
    sub = space if space.n_max <= 8 else Space(6, space.lam)
    return _cutoff_excess(spc.full_kappa0_spectrum(sub), sub.lam), \
        f"kappa=0 spectrum of H0 inside [0, 2/lam^2] (n_max {sub.n_max})"


# ---- spectra ---------------------------------------------------------------------


def _dirichlet_sectors(space: Space, js, least: int = 1) -> List[int]:
    """The j of ``js`` whose Dirichlet sector (and so the hard-wall one) has
    at least ``least`` radial states."""
    def size(j):
        try:
            return len(spc.sector_shells(space.n_max, j, 0, "dirichlet"))
        except ValueError:  # n_max is below the sector
            return 0
    return [j for j in js if size(j) >= least]


def _run_spectrum_bound(space: Space, config: CheckConfig):
    return worst(_cutoff_excess(spc.solve_sector(space, j, None,
                                                 boundary=boundary).eigenvalues,
                                space.lam)
                 for j in _dirichlet_sectors(space, (0, 1, 2))
                 for boundary in ("hard", "dirichlet")), \
        "free sector eigenvalues inside [0, 2/lam^2], j = 0, 1, 2"


def _run_v2_consistency(space: Space, config: CheckConfig):
    # two wall rows are dropped, so keep sectors with a third radial state
    sectors = _dirichlet_sectors(space, (0, 1, 2), least=3)
    if not sectors:
        raise CheckSkipped(f"no Dirichlet sector j = 0, 1, 2 has 3 radial "
                           f"states (n_max {space.n_max})")
    return worst(row["interior_residual"] / row["scale"] for j in sectors
                 for row in spc.v2_consistency(space, j)), \
        "sector V^2 eigen-action matches 2E - lam^2 E^2 (interior rows)"


def _config_potential(space: Space, config: CheckConfig) -> Optional[RadialFunction]:
    return space.sample(potential_fn(config.potential, config.potential_q),
                        config.potential)


def _run_m_independence(space: Space, config: CheckConfig):
    sectors = _dirichlet_sectors(space, (1, 2))
    if not sectors:
        raise CheckSkipped(f"no Dirichlet sector j = 1, 2 (n_max {space.n_max})")
    across_m, closed = [], []
    pot = _config_potential(space, config)
    for j in sectors:
        mats = [spc.reduce_hamiltonian(
                    space, spc.build_sector(space, j, m, boundary="dirichlet"), pot)
                for m in range(-j, j + 1)]
        scale = max(np.abs(mats[0]).max(), _TINY)
        across_m += [np.abs(mat - mats[0]).max() / scale for mat in mats[1:]]
        form, _grid = spc.radial_hamiltonian(space, j, pot, "dirichlet")
        closed.append(np.abs(form - mats[-1]).max() / scale)
    across_m, closed = worst(across_m), worst(closed)
    return worst([across_m, closed]), (f"reduced H across m levels {across_m:.1e}; "
                                       f"closed form vs it at m = j {closed:.1e}")


def _run_brute_force(space: Space, config: CheckConfig):
    if space.n_max > 6:
        space = Space(6, space.lam)
    pot = _config_potential(space, config)
    full = np.sort(spc.full_kappa0_spectrum(space, pot))
    union: List[float] = []
    for j in range(0, space.n_max + 1):
        res = spc.solve_sector(space, j, pot, boundary="hard")
        union.extend(list(res.eigenvalues) * (2 * j + 1))
    union_arr = np.sort(np.asarray(union))
    if len(union_arr) != len(full):
        return 1.0, f"state count mismatch {len(union_arr)} vs {len(full)}"
    scale = max(np.abs(full).max(), _TINY)
    return float(np.abs(full - union_arr).max() / scale), \
        ("full kappa=0 spectrum equals sector union with multiplicity 2j+1 "
         f"(n_max {space.n_max})")


def _shrink_residual(residuals: Sequence[float]) -> float:
    """Worst of the step ratios res[s+1]/res[s] and 8/shrink, where shrink =
    res[0]/max(res[-1], tiny): below 1, that is at most ``_BELOW_ONE``,
    exactly when the residuals fall at every step and shrink more than
    8-fold, because a correctly rounded x/y is below 1 iff x < y."""
    res = np.asarray(residuals, dtype=float)
    with np.errstate(all="ignore"):
        rate = res[0] / max(res[-1], _TINY)
        return float(np.max(np.append(res[1:] / res[:-1], 8.0 / rate)))


def _run_comm_limit(space: Space, config: CheckConfig):
    """First-difference convergence of V f(r) at fixed box; needs a schedule,
    so this runner builds its own spaces and ignores the ambient one."""
    box = 4.0
    residuals = []
    for lam in (0.2, 0.1, 0.05):
        n_max = int(round(box / lam)) - 1
        sub = Space(n_max, lam)
        shell_r = radial_grid(lam, np.arange(n_max + 1))
        f_state = sub.state(sub.shell_diagonal(np.exp(-shell_r)))
        df_diag = sub.shell_diagonal(-np.exp(-shell_r))  # exact d/dr of exp(-r)
        wants = [sub.state(-1.0j * ((x @ sub.rinv) @ df_diag)) for x in sub.x]
        residuals.append(worst(
            _rel_residual(sub, sub.velocity(jdir)(f_state) - want, 2,
                          [sub.interior(want, 2)])
            for jdir, want in enumerate(wants, 1)))
    rate = residuals[0] / max(residuals[-1], _TINY)
    detail = ("lam 0.2 -> 0.05 residuals " +
              ", ".join(f"{x:.2e}" for x in residuals) +
              f" (x{rate:.1f} shrink; worst of step ratios and 8/shrink)")
    return _shrink_residual(residuals), detail


_J0_EXACT = ("j = 0 agreement is exact by construction: the diag(r) "
             "similarity makes both matrices identical")


def _run_convergence(space: Space, config: CheckConfig):
    """Free-particle oracle gaps along a fixed-box schedule (j = 0 and 1).

    The residual is the worst gap[s+1] / max(gap[s], 1e-8 / lam[s+1]^2): at
    most 1 exactly when no gap grows past the one before it or the floor."""
    schedule = [(0.4, 19), (0.2, 39), (0.1, 79)]
    floors = [1e-8 / lam**2 for lam, _n in schedule]
    steps, details = [], []
    for j in (0, 1):
        recs = spc.convergence_study(schedule, j)
        for level in range(3):
            gaps = [r.gap for r in recs if r.level == level]
            steps += [gaps[s + 1] / max(gaps[s], floors[s + 1])
                      for s in range(len(gaps) - 1)]
            details.append(f"j{j}l{level}:" + "/".join(f"{g:.1e}" for g in gaps))
    return float(np.max(steps)), " ".join(details) + "; " + _J0_EXACT


def _run_coulomb_oracle(j: int, space: Space, config: CheckConfig):
    """Relative gap of the Coulomb ground level of sector j at (0.1, 79)."""
    recs = spc.convergence_study([(0.1, 79)], j, POTENTIALS["coulomb"],
                                 "coulomb", levels=1)
    rec = recs[0]
    rel = rec.gap / max(abs(rec.energy_oracle), _TINY)
    detail = (f"ground level E_nc={rec.energy_nc:.6f} vs "
              f"oracle {rec.energy_oracle:.6f}")
    return rel, detail + "; " + _J0_EXACT if j == 0 else detail


# ---- symbolic --------------------------------------------------------------------


def _run_symbolic_proofs(space: Space, config: CheckConfig):
    """Surviving residual terms plus failed intermediates over all proofs."""
    from . import identities as idn
    bad, count = [], 0
    for name in idn.IDENTITY_NAMES:
        res = idn.check_identity(name)
        count += sum(len(r.terms) for r in res.residuals.values())
        count += sum(not flag for _label, _text, flag in res.intermediates)
        if not res.ok:
            bad.append(name)
    return float(count), ("all identities reduce to the zero normal form"
                          if not bad else f"failed: {bad}")


def _run_pauli_lemmas(space: Space, config: CheckConfig):
    from . import identities as idn
    residual = idn.anticommutator_residual() + idn.fierz_residual()
    return float(residual), "anticommutator, trace and Fierz identities exact"


def _run_cross_validation(space: Space, config: CheckConfig):
    from . import identities as idn
    sub = Space(8, space.lam)
    pairs = [
        (idn.velocity_op(3), sub.velocity(3)),
        (idn.velocity_op(1), sub.velocity(1)),
        (idn.h0_zeta(), sub.free_hamiltonian()),
        (idn.velocity4_op(), sub.velocity4()),
        (idn.w_vector_op(2), sub.w_vector(2)),
    ]
    parts = [idn.cross_validate(expr, sub, reference=ref, seed=config.seed)
             for expr, ref in pairs]
    parts += [idn.cross_validate(
        residual, sub, reference=None,
        potential=(lambda rr: rr**2) if name == "acceleration" else None,
        seed=config.seed)
        for name in idn.IDENTITY_NAMES
        for residual in idn.check_identity(name).residuals.values()]
    return worst(parts), "symbolic operators vs numeric twins at n_max = 8"


# ---- diagnostics ------------------------------------------------------------------


def _run_kappa1_diag(space: Space, config: CheckConfig):
    margin = 2
    support = min(max(2, space.n_max - margin), 5)
    psi = space.random_state(config.seed, kappa=1, support_max=support)
    v12, v21 = space.velocity(1)(space.velocity(2)(psi)), \
        space.velocity(2)(space.velocity(1)(psi))
    return _rel_residual(space, v12 - v21, margin, [v12, v21]), \
        "[V_1, V_2] psi on a kappa = 1 state (expected nonzero)"


# -- registry assembly -------------------------------------------------------------


CHECKS: List[CheckSpec] = [
    _commutator_check(
        "kinematics.coordinates", "[x_i, x_j] = 2 i lam eps_ijk x_k", 0,
        lambda s: _eps_rows(s.position_left, s.position_left, s.position_left,
                            2.0j * s.lam), tol=1e-12),
    _equation_check(
        "kinematics.x_square", "x^2 = r^2 - lam^2", 0,
        lambda s: [(functools.reduce(operator.add, [s.position_left(j) @ s.position_left(j)
                                                    for j in (1, 2, 3)]),
                    s.radial() @ s.radial() - s.lam**2 * SuperOp.identity(s.basis))],
        tol=1e-12),
    _commutator_check(
        "kinematics.ladder",
        "[a_a, a+_b] = delta_ab (interior), [a, a] = [a+, a+] = 0", 1,
        _ladder_rows, floor=1, tol=1e-12),
    _commutator_check(
        "kinematics.radial_scalar", "[x_j, r] = 0 and [L_ab, r] = 0", 0,
        lambda s: [(op, s.radial(), ()) for op in [s.position_left(j) for j in (1, 2, 3)]
                   + [s.so4_generator(a, b) for a, b in _PAIRS4]]),
    _commutator_check(
        "kinematics.LL", "[L_i, L_j] = i eps_ijk L_k", 0,
        lambda s: _eps_rows(s.angular_momentum, s.angular_momentum,
                            s.angular_momentum, 1.0j)),
    _commutator_check(
        "kinematics.LX", "[L_i, X_j] = i eps_ijk X_k", 0,
        lambda s: _eps_rows(s.angular_momentum, s.position, s.position, 1.0j)),
    _commutator_check(
        "kinematics.XX", "[X_i, X_j] = i lam^2 eps_ijk L_k", 0,
        lambda s: _eps_rows(s.position, s.position, s.angular_momentum,
                            1.0j * s.lam**2)),
    _commutator_check(
        "velocity.LV", "[L_i, V_j] = i eps_ijk V_k", 1,
        lambda s: _eps_rows(s.angular_momentum, s.velocity, s.velocity, 1.0j)),
    _commutator_check(
        "velocity.VV", "[V_i, V_j] = 0", 2,
        lambda s: [(s.velocity(i), s.velocity(j), ()) for i, j in _PAIRS3]),
    _commutator_check(
        "velocity.LV4", "[L_i, V_4] = 0", 1,
        lambda s: [(s.angular_momentum(i), s.velocity4(), ())
                   for i in (1, 2, 3)]),
    _commutator_check(
        "velocity.VV4", "[V_i, V_4] = 0", 2,
        lambda s: [(s.velocity(i), s.velocity4(), ()) for i in (1, 2, 3)]),
    _commutator_check(
        "velocity.uncertainty", "[V_i, X_j] = -i delta_ij (1 - lam^2 H0)", 1,
        _uncertainty_rows),
    _commutator_check(
        "velocity.XV4", "[X_i, V_4] = -i lam V_i", 1,
        lambda s: [(s.position(i), s.velocity4(),
                    ((-1.0j * s.lam, s.velocity(i)),)) for i in (1, 2, 3)]),
    _commutator_check(
        "e4.so4",
        "[L_ab, L_cd] = i(d_ac L_bd - d_bc L_ad - d_ad L_bc + d_bd L_ac)", 0,
        _so4_rows),
    _commutator_check(
        "e4.LV", "[L_ab, V_c] = i (d_ac V_b - d_bc V_a)", 1, _e4_lv_rows),
    _commutator_check(
        "e4.VV", "[V_a, V_b] = 0 for a, b = 1..4", 2,
        lambda s: [(s.velocity_so4(a), s.velocity_so4(b), ())
                   for a, b in _PAIRS4]),
    CheckSpec("velocity.on_coordinates", "V_i x_j = -i delta_ij",
              _run_velocity_on_coordinates),
    CheckSpec("velocity.on_radial", "V_j f(r) = -i (x_j/r) f'_lam(r)",
              _run_velocity_on_radial),
    _equation_check(
        "velocity.forms", "definition and normal forms of V_j, V_4 agree", 1,
        lambda s: [(s.velocity(j), form) for j in (1, 2, 3) for form in (
            s.velocity_w_form(j), -1.0j * s.position(j).commutator(s.free_hamiltonian()))]
        + [(s.velocity4(), s.velocity4_cross_form())]),
    CheckSpec("velocity.h0_forms",
              "H0 double-commutator equals charge-zero bilinear form",
              _run_h0_forms),
    CheckSpec("velocity.leibniz", "modified Leibniz rule with correction K",
              _run_leibniz),
    CheckSpec("velocity.correction_sum",
              "(K_i(x_j,.) + K_i(.,x_j))/2 = i delta lam^2 H0",
              _run_correction_sum),
    CheckSpec("velocity.correction_unit", "K_i(1, psi) = 0",
              _run_kzero_identity),
    CheckSpec("velocity.comm_limit",
              "V_j f(r) converges to -i (x_j/r) f'(r) as lam -> 0",
              _run_comm_limit, tol=_BELOW_ONE, per_space=False),
    _equation_check(
        "quadratic.V2H", "V^2 = 2 H0 - lam^2 H0^2", 2,
        lambda s: [(s.velocity_squared(), 2.0 * s.free_hamiltonian()
                    - s.lam**2 * (s.free_hamiltonian() @ s.free_hamiltonian()))]),
    _equation_check(
        "quadratic.VVH", "(1/lam - lam H0)^2 = 1/lam^2 - V^2", 2,
        lambda s: [(s.velocity4() @ s.velocity4(), (1.0 / s.lam**2)
                    * SuperOp.identity(s.basis) - s.velocity_squared())]),
    _equation_check(
        "quadratic.C2", "C_2 = V_a V_a = 1/lam^2", 2,
        lambda s: [(s.casimir2(), (1.0 / s.lam**2) * SuperOp.identity(s.basis))]),
    CheckSpec("quadratic.pauli_lubanski",
              "Lambda_a = 0 (a = 1..4), hence C_4 = 0", _run_pauli_lubanski),
    _commutator_check(
        "quadratic.VH0", "[V_i, H0] = 0", 2,
        lambda s: [(s.velocity(i), s.free_hamiltonian(), ()) for i in (1, 2, 3)]),
    *(_commutator_check(f"acceleration.{name}",
                        f"-i[V_i, U] equals its decomposition, U = {formula}", 2,
                        functools.partial(_acceleration_rows, name), floor=2)
      for name, formula in (("r2", "r^2"), ("coulomb", "-1/r"), ("exp", "exp(-r)"))),
    CheckSpec("acceleration.constant",
              "constant potential gives zero acceleration", _run_acc_constant,
              tol=1e-12),
    _commutator_check("acceleration.full_hamiltonian",
                      "-i[V_i, H] = -i[V_i, U] for H = H0 + U", 2,
                      _full_hamiltonian_rows, floor=2),
    CheckSpec("hermiticity.inner_product", "weighted inner product axioms",
              _run_ip_axioms, tol=1e-12),
    CheckSpec("hermiticity.operators",
              "L, X, V, V4, H0 hermitian under the weighted inner product",
              _run_hermiticity),
    CheckSpec("hermiticity.h0_range",
              "H0 positive with spectrum inside [0, 2/lam^2]",
              _run_h0_positivity),
    CheckSpec("spectra.bound",
              "sector spectra inside [0, 2/lam^2] (kinetic cutoff)",
              _run_spectrum_bound, tol=1e-8),
    CheckSpec("spectra.v2_consistency",
              "sector V^2 equals 2E - lam^2 E^2 on interior rows",
              _run_v2_consistency, tol=1e-8),
    CheckSpec("spectra.m_independence", "reduced Hamiltonian independent of m",
              _run_m_independence),
    CheckSpec("spectra.brute_force",
              "full kappa=0 spectrum equals sector union", _run_brute_force,
              tol=1e-8),
    CheckSpec("spectra.convergence",
              "NC free levels approach the FD oracle at fixed box",
              _run_convergence, tol=1.0, per_space=False),
    CheckSpec("spectra.coulomb_oracle",
              "Coulomb ground level within 5% of the FD oracle",
              functools.partial(_run_coulomb_oracle, 0), tol=0.05,
              per_space=False),
    CheckSpec("spectra.coulomb_oracle_j1",
              "j = 1 Coulomb ground level within 5% of the FD oracle",
              functools.partial(_run_coulomb_oracle, 1), tol=0.05,
              per_space=False),
    CheckSpec("symbolic.proofs",
              "appendix identities reduce to the exact zero normal form",
              _run_symbolic_proofs, tol=0.5, per_space=False),
    CheckSpec("symbolic.pauli",
              "Pauli anticommutator/trace and Fierz identities (exact)",
              _run_pauli_lemmas, tol=0.5, per_space=False),
    CheckSpec("symbolic.cross_validation",
              "symbolic operators match numeric twins", _run_cross_validation),
    CheckSpec("diagnostic.kappa1_vv", "[V_1, V_2] != 0 on a kappa = 1 state",
              _run_kappa1_diag, kind="diagnostic", tol=1e-3),
]

CHECK_IDS = tuple(c.check_id for c in CHECKS)
SUITES = tuple(sorted({c.suite for c in CHECKS}))


# -- check options ----------------------------------------------------------------


def _list(item: Callable[[str], object]) -> Callable[[str], tuple]:
    """Parser of a comma-separated list of ``item`` values."""
    return lambda text: tuple(item(v.strip()) for v in text.split(",")) \
        if text.strip() else ()


def _joined(values) -> str:
    return ", ".join(str(v) for v in values)


@dataclass(frozen=True)
class Option:
    """One ``check`` option: its CheckConfig field, config-file key, CLI
    flag, the parser of its text, the printer of its value, and help."""

    field: str
    key: str
    flag: str
    parse: Callable[[str], object]
    show: Callable[[object], str]
    help: str


#: one row per CheckConfig field but ``tol_overrides``; the config file,
#: the ``check`` flags and ``to_text`` all loop over this table
OPTIONS = (
    Option("lams", "lambda", "--lambda", _list(float), _joined,
           "comma-separated NC length scales"),
    Option("n_maxes", "nmax", "--nmax", _list(int), _joined,
           "comma-separated truncation cutoffs"),
    Option("seed", "seed", "--seed", int, str, "seed of the random states"),
    Option("n_states", "states", "--states", int, str,
           "random states per check"),
    Option("margin", "margin", "--margin", str, str,
           "interior margin policy: auto or fixed:k"),
    Option("suites", "suites", "--suite", _list(str), _joined,
           f"comma-separated suites from {SUITES} or 'all'"),
    Option("potential", "potential", "--potential", str, str,
           f"central potential, one of {sorted(POTENTIALS)}"),
    Option("potential_q", "q", "--q", float, str,
           "potential strength parameter"),
    Option("tolerance", "tolerance", "--tol", float, str,
           "threshold of every check that sets none of its own"),
    Option("out", "out", "--out", str, str, "write the report to this file"),
    Option("fmt", "format", "--format", str, str,
           f"report format, one of {FORMATS}"),
)
_BY_KEY = {opt.key: opt for opt in OPTIONS}


def parse_config_text(text: str) -> CheckConfig:
    """Parse the plain-text config grammar: ``key = value`` lines, ``#``
    comments, comma-separated lists, ``tol.<check_id> = x`` overrides."""
    cfg = CheckConfig()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key = value): {raw!r}")
        key, val = (p.strip() for p in line.split("=", 1))
        if key.startswith("tol."):
            cfg.tol_overrides[key[4:]] = float(val)
        elif key in _BY_KEY:
            setattr(cfg, _BY_KEY[key].field, _BY_KEY[key].parse(val))
        else:
            raise ValueError(f"unknown config key {key!r}")
    return cfg


def run_suite(config: CheckConfig) -> VerificationReport:
    """Execute the configured suites over the (lam, n_max) grid.

    A bad config raises ValueError before any check runs; a ValueError
    inside a check gives its record status "error" and a CheckSkipped gives
    status "skip", either of which fails the run (diagnostics included).
    Every check at one grid point gets the same Space, so each operator
    compiles once per grid point.
    """
    _validate_config(config)
    wanted = set(SUITES) if "all" in config.suites else set(config.suites)
    report = VerificationReport(config=config.as_dict())
    spaces: Dict[Tuple[float, int], Space] = {}
    for check in CHECKS:
        if check.suite not in wanted:
            continue
        tol = config.tol_overrides.get(
            check.check_id, config.tolerance if check.tol is None else check.tol)
        grid = [(lam, n) for lam in config.lams for n in config.n_maxes] \
            if check.per_space else [(config.lams[0], config.n_maxes[0])]
        for lam, n_max in grid:
            t0 = time.perf_counter()
            params = {"lam": lam, "n_max": n_max, "seed": config.seed}
            status = ""
            try:
                if (lam, n_max) not in spaces:
                    spaces[lam, n_max] = Space(n_max, lam)
                residual, detail = check.runner(spaces[lam, n_max], config)
                if check.kind == "diagnostic":
                    passed = residual > tol
                else:
                    passed = residual <= tol
            except ValueError as exc:
                residual, detail, passed = float("nan"), f"error: {exc}", False
                status = "error"
            except CheckSkipped as exc:
                residual, detail, passed = float("nan"), f"skipped: {exc}", False
                status = "skip"
            ms = (time.perf_counter() - t0) * 1e3
            report.records.append(CheckRecord(
                check_id=check.check_id, suite=check.suite,
                statement=check.statement, params=params,
                residual=float(residual), threshold=float(tol),
                passed=bool(passed), kind=check.kind, wall_time_ms=ms,
                detail=detail, status=status))
    return report
