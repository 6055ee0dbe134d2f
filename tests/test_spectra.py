import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fuzzylab.operators import RadialFunction, Space
from fuzzylab import spectra as spc


@pytest.fixture(scope="module")
def space():
    return Space(8, 0.5)


def test_sector_states_are_angular_eigenstates(space):
    for j, m in [(0, 0), (1, 1), (1, 0), (2, -1), (2, 0), (2, 2)]:
        sector = spc.build_sector(space, j, m)
        for psi in sector.states:
            l3 = space.angular_momentum(3)(psi)
            assert (l3 - m * psi).absmax() < 1e-12 * max(psi.absmax(), 1.0)
            l2 = None
            for k in (1, 2, 3):
                lk = space.angular_momentum(k)
                t = lk(lk(psi))
                l2 = t if l2 is None else l2 + t
            assert (l2 - j * (j + 1) * psi).absmax() \
                < 1e-11 * max(psi.absmax(), 1.0)


def test_sector_basis_orthonormal(space):
    sector = spc.build_sector(space, 1, 0)
    for a, sa in enumerate(sector.states):
        for b, sb in enumerate(sector.states):
            got = space.ip(sa, sb)
            assert abs(got - (1.0 if a == b else 0.0)) < 1e-12


def test_sector_dimensions_and_grid(space):
    hard = spc.build_sector(space, 2, 0, boundary="hard")
    diri = spc.build_sector(space, 2, 0, boundary="dirichlet")
    assert hard.dim == space.n_max - 2 + 1
    assert diri.dim == hard.dim - 1
    assert np.allclose(hard.grid, space.lam * (np.arange(2, 9) + 1.0))


def test_sector_rejections(space):
    with pytest.raises(ValueError, match="integer"):
        spc.build_sector(space, 0.5, 0.5)
    with pytest.raises(ValueError, match="m must"):
        spc.build_sector(space, 1, 2)
    with pytest.raises(ValueError):
        spc.build_sector(space, 12, 0)
    with pytest.raises(ValueError):
        spc.build_sector(space, 1, 0, boundary="soft")


def test_reduced_hamiltonian_hermitian_tridiagonal(space):
    for j in (0, 1, 2):
        sector = spc.build_sector(space, j, 0, boundary="dirichlet")
        mat = spc.reduce_hamiltonian(space, sector)
        assert np.abs(mat - mat.conj().T).max() < 1e-12 * np.abs(mat).max()
        d = len(mat)
        for a in range(d):
            for b in range(d):
                if abs(a - b) > 1:
                    assert abs(mat[a, b]) < 1e-12 * np.abs(mat).max()


def test_reduced_hamiltonian_m_independent(space):
    pot = RadialFunction.from_callable(lambda r: -1.0 / r, space.lam,
                                       space.n_max, name="coulomb")
    for j in (1, 2):
        mats = []
        for m in range(-j, j + 1):
            sector = spc.build_sector(space, j, m, boundary="dirichlet")
            mats.append(spc.reduce_hamiltonian(space, sector, pot))
        scale = np.abs(mats[0]).max()
        for mat in mats[1:]:
            assert np.abs(mat - mats[0]).max() < 1e-10 * scale


def test_constant_potential_shifts_diagonal(space):
    c = 2.25
    pot = RadialFunction.from_callable(lambda r: c, space.lam, space.n_max,
                                       name="const")
    sector = spc.build_sector(space, 1, 1, boundary="dirichlet")
    free = spc.reduce_hamiltonian(space, sector)
    shifted = spc.reduce_hamiltonian(space, sector, pot)
    want = free + c * np.eye(len(free))
    assert np.abs(shifted - want).max() < 1e-12 * np.abs(want).max()


def test_free_spectrum_inside_cutoff(space):
    lam = space.lam
    for j in (0, 1, 2):
        for boundary in ("hard", "dirichlet"):
            res = spc.solve_sector(space, j, boundary=boundary)
            assert res.eigenvalues.min() > -1e-8
            assert res.eigenvalues.max() < 2.0 / lam**2 + 1e-8 / lam**2


def test_eigen_solve_contracts():
    mat = np.array([[3.0]])
    evals, evecs = spc.eigen_solve(mat)
    assert evals[0] == 3.0 and abs(abs(evecs[0, 0]) - 1.0) < 1e-15
    rng = np.random.default_rng(0)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = h + h.conj().T
    evals, evecs = spc.eigen_solve(h)
    assert np.all(np.diff(evals) >= 0)
    with pytest.raises(ValueError):
        spc.eigen_solve(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not hermitian


def test_eigenvalues_invariant_under_basis_reordering(space):
    sector = spc.build_sector(space, 0, 0, boundary="dirichlet")
    mat = spc.reduce_hamiltonian(space, sector)
    perm = np.random.default_rng(1).permutation(len(mat))
    permuted = mat[np.ix_(perm, perm)]
    a = np.linalg.eigvalsh(mat)
    b = np.linalg.eigvalsh(permuted)
    assert np.abs(a - b).max() < 1e-10 * np.abs(a).max()


def test_v2_consistency_interior(space):
    for j in (0, 1, 2):
        rows = spc.v2_consistency(space, j)
        for row in rows:
            assert row["interior_residual"] <= 1e-8 * row["scale"]


def test_oracle_box_levels_match_analytic():
    lam, n_max = 0.05, 79
    grid = lam * (np.arange(n_max + 1) + 1.0)
    evals = spc.commutative_oracle(grid, lam, 0)
    r_eff = lam * (n_max + 2)  # Dirichlet ghost point
    for k in (1, 2, 3):
        analytic = 0.5 * (np.pi * k / r_eff) ** 2
        assert abs(evals[k - 1] - analytic) < 0.02 * analytic


def test_oracle_constant_shift():
    lam, n_max = 0.2, 19
    grid = lam * (np.arange(n_max + 1) + 1.0)
    base = spc.commutative_oracle(grid, lam, 0)
    shifted = spc.commutative_oracle(grid, lam, 0, np.full(n_max + 1, 1.5))
    assert np.abs(shifted - base - 1.5).max() < 1e-10


def test_oracle_hydrogen_ground_state_converges():
    gaps = []
    for lam, n_max in [(0.4, 19), (0.2, 39), (0.1, 79)]:
        grid = lam * (np.arange(n_max + 1) + 1.0)
        evals = spc.commutative_oracle(grid, lam, 0, -1.0 / grid)
        gaps.append(abs(evals[0] + 0.5))
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
    assert gaps[-1] < 0.05  # within 10% of -1/2 by the finest grid


def test_brute_force_matches_sector_union():
    lam = 0.5
    small = Space(5, lam)
    pot = RadialFunction.from_callable(lambda r: -1.0 / r, lam, 5,
                                       name="coulomb")
    for potential in (None, pot):
        full = np.sort(spc.full_kappa0_spectrum(small, potential))
        union = []
        for j in range(0, 6):
            res = spc.solve_sector(small, j, potential, boundary="hard")
            union.extend(list(res.eigenvalues) * (2 * j + 1))
        union = np.sort(np.asarray(union))
        assert len(union) == len(full) == sum((n + 1) ** 2 for n in range(6))
        assert np.abs(full - union).max() < 1e-8 * max(np.abs(full).max(), 1.0)


def test_brute_force_guards_size():
    with pytest.raises(ValueError):
        spc.full_kappa0_spectrum(Space(9, 0.5))


def test_convergence_study_free_and_coulomb():
    schedule = [(0.8, 9), (0.4, 19)]
    recs = spc.convergence_study(schedule, 1)
    assert len(recs) == 6
    for level in range(3):
        gaps = [r.gap for r in recs if r.level == level]
        assert gaps[1] < gaps[0]
    recs = spc.convergence_study(schedule, 0, lambda r: -1.0 / r, "coulomb",
                                 levels=1)
    for rec in recs:
        assert rec.gap < 1e-8 * max(abs(rec.energy_oracle), 1.0)


def test_bound_level_stabilizes_with_growing_box():
    # fixed lam, growing cutoff: the Coulomb ground level converges from above
    lam = 0.4
    levels = []
    for n_max in (19, 29, 39):
        pot = RadialFunction.from_callable(lambda r: -1.0 / r, lam, n_max,
                                           name="coulomb")
        res = spc.solve_sector(Space(n_max, lam), 0, pot,
                               boundary="dirichlet")
        levels.append(float(res.eigenvalues[0]))
    assert levels[1] <= levels[0] and levels[2] <= levels[1]
    assert abs(levels[2] - levels[1]) < abs(levels[1] - levels[0]) + 1e-12


def test_gram_condition_guard(space):
    sector = spc.build_sector(space, 0, 0)
    degenerate = spc.AngularSector(
        j=0, m=0, lam=space.lam, boundary="hard",
        states=[sector.states[0], sector.states[0]],
        shells=np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="Gram"):
        spc.reduce_hamiltonian(space, degenerate)


def test_spectrum_result_rows(space):
    res = spc.solve_sector(space, 0)
    rows = res.rows()
    assert len(rows) == len(res.eigenvalues)
    assert rows[0]["potential"] == "free"
    assert rows[3]["level"] == 3


def _reference_reduce(space, sector, op):
    """The reduction without structure: all d^2 inner products, then the
    full-Gram G^-1/2 raw G^-1/2 through an eigendecomposition of G."""
    states = sector.states
    images = [op(s) for s in states]
    raw = np.array([[space.ip(sa, u) for u in images] for sa in states])
    g = np.array([[space.ip(sa, sb) for sb in states] for sa in states])
    evals, evecs = np.linalg.eigh(0.5 * (g + g.conj().T))
    ginv = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return ginv @ raw @ ginv


@pytest.mark.parametrize("n_max, lam", [(8, 0.5), (12, 0.3)])
def test_banded_reduction_matches_full_reference(n_max, lam):
    space = Space(n_max, lam)
    coulomb = RadialFunction.from_callable(lambda r: -1.0 / r, lam, n_max,
                                           name="coulomb")
    v2 = None
    for k in (1, 2, 3):
        t = space.velocity(k) @ space.velocity(k)
        v2 = t if v2 is None else v2 + t
    ops = [space.free_hamiltonian(), space.hamiltonian(coulomb), v2]
    for op in ops:
        for j in (0, 1, 2):
            for boundary in ("hard", "dirichlet"):
                sector = spc.build_sector(space, j, 0, boundary=boundary)
                # rescaled states make the Gram factors differ from 1
                scaled = spc.AngularSector(
                    j=j, m=0, lam=lam, boundary=boundary,
                    states=[s * (a + 1.0) for a, s in enumerate(sector.states)],
                    shells=sector.shells)
                for sec in (sector, scaled):
                    got = spc.reduce_superop(space, sec, op)
                    want = _reference_reduce(space, sec, op)
                    err = np.abs(got - want).max() / np.abs(want).max()
                    assert err <= 1e-13, (op.name, j, boundary, err)


def _probed_kappa0_spectrum(space, potential):
    """The unit-column probe full_kappa0_spectrum replaced (reference): apply
    H to every charge-zero unit matrix, here as a sparse state, so the probe
    runs the tree walk and not the compiled matrix it checks."""
    import scipy.sparse as sp
    basis = space.basis
    shells = basis.shells
    rows, cols = np.nonzero(shells[:, None] == shells[None, :])
    h = space.hamiltonian(potential)
    big = np.zeros((len(rows), len(rows)), dtype=complex)
    for col, (i, k) in enumerate(zip(rows, cols)):
        e = sp.csr_matrix(([1.0 + 0.0j], ([i], [k])),
                          shape=(basis.dim, basis.dim))
        big[:, col] = h(space.state(e)).matrix.toarray()[rows, cols]
    weights = np.sqrt(space.r_diag[rows])
    symm = (weights[:, None] * big) / weights[None, :]
    symm = 0.5 * (symm + symm.conj().T)
    return np.linalg.eigvalsh(symm)


@pytest.mark.parametrize("n_max,lam", [(4, 0.5), (6, 0.1), (8, 0.3)])
def test_compiled_brute_force_matches_unit_column_probe(n_max, lam):
    space = Space(n_max, lam)
    pot = RadialFunction.from_callable(lambda r: -1.0 / r, lam, n_max,
                                       name="coulomb")
    for potential in (None, pot):
        got = spc.full_kappa0_spectrum(space, potential)
        want = _probed_kappa0_spectrum(space, potential)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale


class _ClosureOp:
    """A superoperator given by a function on the state's matrix, with the
    products the closure-based operators made (reference for the tree walk)."""

    def __init__(self, func, bandwidth):
        self.func, self.bandwidth = func, bandwidth

    def __call__(self, psi):
        from fuzzylab.fock import NCState
        return NCState(psi.basis, self.func(psi.matrix))


def _closure_references(space, potential):
    from fuzzylab.fock import PAULI
    a, ad, rinv, lam = space.a, space.ad, space.rinv, space.lam
    udiag = space.shell_diagonal(potential.values)

    def h0(m):
        s = None
        for al in range(2):
            t = a[al] @ m - m @ a[al]
            t = ad[al] @ t - t @ ad[al]
            s = t if s is None else s + t
        return rinv @ s / (2.0 * lam)

    def velocity(j):
        def apply(m):
            s = None
            for al in range(2):
                for be in range(2):
                    c = PAULI[j - 1][al, be]
                    if c == 0:
                        continue
                    t = ad[al] @ (a[be] @ m - m @ a[be]) \
                        - a[be] @ (ad[al] @ m - m @ ad[al])
                    t = c * t
                    s = t if s is None else s + t
            return -0.5j * (rinv @ s)
        return apply

    def v2(m):
        s = None
        for j in (1, 2, 3):
            t = velocity(j)(velocity(j)(m))
            s = t if s is None else s + t
        return s

    def l3(m):
        x3 = space.x[2]
        return (x3 @ m - m @ x3) / (2.0 * lam)

    return [
        (space.free_hamiltonian(), _ClosureOp(h0, 1)),
        (space.hamiltonian(potential),
         _ClosureOp(lambda m: h0(m) + udiag @ m, 1)),
        (_sum_of_squares(space), _ClosureOp(v2, 2)),
        (space.velocity4(), _ClosureOp(lambda m: m / lam - lam * h0(m), 1)),
        (space.angular_momentum(3), _ClosureOp(l3, 0)),
    ]


def _sum_of_squares(space):
    op = None
    for k in (1, 2, 3):
        t = space.velocity(k) @ space.velocity(k)
        op = t if op is None else op + t
    op.bandwidth = 2
    return op


@pytest.mark.parametrize("n_max,lam", [(19, 0.4), (8, 0.3)])
def test_sector_reduction_bit_identical_to_closure_products(n_max, lam):
    """Sparse sector states walk the operator tree with the same scipy
    products, in the same order, as the closures did: reduced matrices agree
    bit for bit."""
    space = Space(n_max, lam)
    pot = RadialFunction.from_callable(lambda r: -1.0 / r, lam, n_max,
                                       name="coulomb")
    for boundary in ("hard", "dirichlet"):
        sector = spc.build_sector(space, 1, 1, boundary=boundary)
        for op, ref in _closure_references(space, pot):
            got = spc.reduce_superop(space, sector, op)
            want = spc.reduce_superop(space, sector, ref)
            assert np.array_equal(got, want), (op.name, boundary)


@pytest.mark.parametrize("lam, n_max", [(0.5, 8), (0.3, 12), (0.2, 24),
                                        (0.1, 40)])
def test_closed_form_matches_superoperator_reduction(lam, n_max):
    space = Space(n_max, lam)
    coulomb = RadialFunction.from_callable(lambda r: -1.0 / r, lam, n_max,
                                           name="coulomb")
    for j in range(5):
        for potential in (None, coulomb):
            for boundary in ("hard", "dirichlet"):
                sector = spc.build_sector(space, j, j, boundary=boundary)
                want = spc.reduce_hamiltonian(space, sector, potential)
                got, grid = spc.radial_hamiltonian(space, j, potential,
                                                   boundary)
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err <= 1e-13, (j, potential is None, boundary, err)
                assert np.array_equal(grid, sector.grid)


def test_radial_hamiltonian_rejects_what_build_sector_rejects(space):
    for j, m, boundary, match in [(0.5, None, "hard", "integer"),
                                  (-1, None, "hard", "integer"),
                                  (1, 2, "hard", "m must"),
                                  (1, 0.5, "hard", "m must"),
                                  (12, None, "hard", "n_max too small"),
                                  (8, None, "dirichlet", "n_max too small"),
                                  (1, None, "soft", "boundary")]:
        with pytest.raises(ValueError, match=match):
            spc.build_sector(space, j, j if m is None else m, boundary)
        with pytest.raises(ValueError, match=match):
            spc.radial_hamiltonian(space, j, None, boundary, m)
        with pytest.raises(ValueError, match=match):
            spc.solve_sector(space, j, None, m, boundary)


def test_solve_sector_builds_no_sector_state(space, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_sector built a sector state")

    monkeypatch.setattr(spc, "shell_state", refuse)
    pot = RadialFunction.from_callable(lambda r: -1.0 / r, space.lam,
                                       space.n_max, name="coulomb")
    for j in (0, 1, 2):
        for boundary in ("hard", "dirichlet"):
            spc.solve_sector(space, j, pot, m=-j, boundary=boundary)
    spc.convergence_study([(0.8, 9), (0.4, 19)], 1, lambda r: -1.0 / r)


def test_sector_solve_does_not_import_scipy_linalg():
    code = ("import sys\n"
            "import fuzzylab\n"
            "from fuzzylab import spectra\n"
            "from fuzzylab.operators import Space\n"
            "spectra.solve_sector(Space(8, 0.5), 1)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] == ['scipy', 'linalg']))\n")
    src = str(Path(spc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_solve_sector_metadata_is_the_grid(space):
    res = spc.solve_sector(space, 1, None, boundary="dirichlet")
    assert list(res.metadata) == ["grid"]
    assert res.metadata["grid"] == list(space.lam * np.arange(2.0, 9.0))


class _CountingOp:
    """A superoperator that counts its applications."""

    def __init__(self, op):
        self.op, self.bandwidth, self.calls = op, op.bandwidth, 0

    def __call__(self, psi):
        self.calls += 1
        return self.op(psi)


def _ops_by_bandwidth(space):
    coulomb = RadialFunction.from_callable(lambda r: -1.0 / r, space.lam,
                                           space.n_max, name="coulomb")
    return {0: space.angular_momentum(3), 1: space.hamiltonian(coulomb),
            2: _sum_of_squares(space)}


@pytest.mark.parametrize("n_max, lam", [(4, 0.5), (12, 0.3)])
def test_reduction_applies_op_once_per_shell_stride_group(n_max, lam):
    space = Space(n_max, lam)
    for w, op in _ops_by_bandwidth(space).items():
        assert op.bandwidth == w
        for j in range(4):
            for boundary in ("hard", "dirichlet"):
                sector = spc.build_sector(space, j, j, boundary=boundary)
                counted = _CountingOp(op)
                spc.reduce_superop(space, sector, counted)
                assert counted.calls == min(2 * w + 1, sector.dim), \
                    (w, j, boundary, sector.dim)


def test_grouped_reduction_on_sectors_shorter_than_the_stride():
    space = Space(4, 0.5)
    for op in _ops_by_bandwidth(space).values():
        for j, boundary in ((2, "dirichlet"), (3, "dirichlet"), (3, "hard"),
                            (2, "hard")):
            sector = spc.build_sector(space, j, j, boundary=boundary)
            scaled = spc.AngularSector(
                j=j, m=j, lam=space.lam, boundary=boundary,
                states=[s * (a + 1.5) for a, s in enumerate(sector.states)],
                shells=sector.shells)
            for sec in (sector, scaled):
                got = spc.reduce_superop(space, sec, op)
                want = _reference_reduce(space, sec, op)
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err <= 1e-13, (op.name, j, boundary, sec.dim, err)


@pytest.mark.parametrize("n_max, lam", [(8, 0.5), (19, 0.4)])
def test_per_shell_gram_equals_per_state_inner_products(n_max, lam):
    import functools
    import operator
    space = Space(n_max, lam)
    for j in (0, 1, 2):
        for boundary in ("hard", "dirichlet"):
            sector = spc.build_sector(space, j, j, boundary=boundary)
            states = [s * (a + 1.5) for a, s in enumerate(sector.states)]
            total = functools.reduce(operator.add, states)
            per_shell = space.ip.by_shell(total, total)
            shells = sector.shells.astype(int)
            want = np.array([space.ip(s, s) for s in states])
            got = per_shell[shells]
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
            assert not np.any(np.delete(per_shell, shells))


@pytest.mark.parametrize("n_max, lam", [(8, 0.5), (19, 0.4)])
def test_one_pass_sector_norms_equal_per_state_norms(n_max, lam):
    """build_sector normalizes every state from one per-shell product of the
    raw states' sum; each state is bit-identical to s * (1 / ip.norm(s))."""
    space = Space(n_max, lam)
    for j in range(4):
        for m in range(-j, j + 1):
            for boundary in ("hard", "dirichlet"):
                sector = spc.build_sector(space, j, m, boundary=boundary)
                assert sector.dim == len(spc.sector_shells(n_max, j, m,
                                                           boundary))
                for n, state in enumerate(sector.states):
                    s = spc.shell_state(space, j, m, n)
                    want, got = (s * (1.0 / space.ip.norm(s))).matrix, state.matrix
                    case = (j, m, boundary, n)
                    assert np.array_equal(got.data.view(np.uint64),
                                          want.data.view(np.uint64)), case
                    assert np.array_equal(got.indices, want.indices), case
                    assert np.array_equal(got.indptr, want.indptr), case


def test_by_shell_sums_to_the_inner_product():
    space = Space(8, 0.5)
    phi = space.random_state(3, 0, 8)
    psi = space.random_state(4, 0, 8)
    sector_state = spc.build_sector(space, 1, 0).states[2]
    for a, b in ((phi, psi), (phi, sector_state), (sector_state, psi)):
        parts = space.ip.by_shell(a, b)
        assert parts.shape == (space.n_max + 1,)
        want = space.ip(a, b)
        assert abs(parts.sum() - want) <= 1e-13 * max(abs(want), 1e-300)


@pytest.mark.parametrize("n_max, lam", [(19, 0.4), (8, 0.3)])
def test_grouped_reduction_bit_identical_to_per_state_loop(n_max, lam):
    """One walk per stride group reads the same products as one walk and
    one inner product per state did: the reduced matrices agree bit for
    bit."""
    space = Space(n_max, lam)
    for op in _ops_by_bandwidth(space).values():
        for boundary in ("hard", "dirichlet"):
            sector = spc.build_sector(space, 1, 1, boundary=boundary)
            d, w = sector.dim, op.bandwidth
            g = np.array([space.ip(s, s).real for s in sector.states])
            ginv = 1.0 / np.sqrt(g)
            want = np.zeros((d, d), dtype=complex)
            for b, sb in enumerate(sector.states):
                u = op(sb)
                for a in range(max(b - w, 0), min(b + w + 1, d)):
                    want[a, b] = ginv[a] * space.ip(sector.states[a], u) \
                        * ginv[b]
            got = spc.reduce_superop(space, sector, op)
            assert np.array_equal(got, want), (op.name, boundary)


def test_reduction_rejects_unordered_shells(space):
    sector = spc.build_sector(space, 1, 1)
    shuffled = spc.AngularSector(j=1, m=1, lam=space.lam, boundary="hard",
                                 states=sector.states[::-1],
                                 shells=sector.shells[::-1])
    with pytest.raises(ValueError, match="strictly ascending"):
        spc.reduce_superop(space, shuffled, space.free_hamiltonian())


def test_potential_sampled_on_another_grid_is_rejected():
    space = Space(6, 0.5)
    other_lam = RadialFunction.from_callable(lambda r: -1.0 / r, 0.25, 6,
                                             name="coulomb")
    other_nmax = RadialFunction.from_callable(lambda r: -1.0 / r, 0.5, 7,
                                              name="coulomb")
    for pot in (other_lam, other_nmax):
        with pytest.raises(ValueError, match="sampled at"):
            space.hamiltonian(pot)
        with pytest.raises(ValueError, match="sampled at"):
            spc.solve_sector(space, 1, pot)
        with pytest.raises(ValueError, match="sampled at"):
            space.acceleration_decomposed(1, pot)
    # equal values on another lambda do not reuse the memoized operator
    const = RadialFunction.from_callable(lambda r: 2.0, 0.5, 6, name="c")
    space.hamiltonian(const)
    with pytest.raises(ValueError, match="sampled at"):
        space.hamiltonian(RadialFunction.from_callable(lambda r: 2.0, 0.25, 6,
                                                       name="c"))


def test_space_sample_is_from_callable_on_the_space_grid():
    space = Space(6, 0.5)
    got = space.sample(lambda r: -1.0 / r, "coulomb")
    want = RadialFunction.from_callable(lambda r: -1.0 / r, 0.5, 6, "coulomb")
    assert np.array_equal(got.values, want.values)
    assert (got.lam, got.name) == (0.5, "coulomb")
    assert space.sample(None) is None


def test_sector_shells_is_the_sector_rule():
    assert spc.sector_shells(8, 2, -1, "hard") == range(2, 9)
    assert spc.sector_shells(8, 2.0, 0, "dirichlet") == range(2, 8)
    assert type(spc.sector_shells(8, 2.0, 0, "hard").start) is int
    assert spc.sector_shells(1, 0, 0, "dirichlet") == range(0, 1)
    with pytest.raises(ValueError, match="half-integer"):
        spc.sector_shells(8, 0.5, 0.5, "hard")
    for m in (float("nan"), float("inf"), 0.5, 3):
        with pytest.raises(ValueError, match="m must be an integer"):
            spc.sector_shells(8, 2, m, "hard")
    with pytest.raises(ValueError, match=r"n_max too small: j=8 with the "
                                         r"dirichlet boundary needs n_max >= 9"):
        spc.sector_shells(8, 8.0, 0, "dirichlet")


def test_sector_results_and_records_hold_j_as_an_int():
    res = spc.solve_sector(Space(8, 0.5), 1.0, boundary="dirichlet")
    assert type(res.j) is int and res.j == 1
    recs = spc.convergence_study([(0.5, 7), (0.25, 15)], 1.0)
    assert len(recs) == 6
    assert all(type(r.j) is int and r.j == 1 for r in recs)


def test_eigen_solve_raises_on_a_matrix_holding_nan():
    # eigh passes the NaN through; the eigenpair residual must catch it
    with pytest.raises(ValueError, match="eigenpair 0 residual nan"):
        spc.eigen_solve(np.diag([1.0, 2.0, np.nan]))
