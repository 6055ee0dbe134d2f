import numpy as np
import pytest

from fuzzylab.fock import (EPS3, NCState, WeightedInnerProduct,
                           coordinate_matrix, enumerate_basis,
                           interior_projection, ladder_matrix, radial_matrix,
                           random_state, state_from_text, state_to_text)


@pytest.mark.parametrize("n_max,dim", [(0, 1), (2, 6), (16, 153)])
def test_basis_dimension(n_max, dim):
    basis = enumerate_basis(n_max)
    assert basis.dim == dim == (n_max + 1) * (n_max + 2) // 2


def test_basis_is_bijective_and_shell_ordered():
    basis = enumerate_basis(7)
    assert len(set(basis.labels)) == basis.dim
    for lab, i in basis.index.items():
        assert basis.labels[i] == lab
    shells = [n1 + n2 for (n1, n2) in basis.labels]
    assert shells == sorted(shells)
    for n in range(8):
        sl = basis.shell_slice(n)
        assert all(s == n for s in shells[sl])


def test_ladder_action_on_single_quanta():
    basis = enumerate_basis(4)
    a1 = ladder_matrix(basis, 1).matrix
    v10 = np.zeros(basis.dim)
    v10[basis.index[(1, 0)]] = 1.0
    out = a1 @ v10
    assert abs(out[basis.index[(0, 0)]] - 1.0) < 1e-15
    v20 = np.zeros(basis.dim)
    v20[basis.index[(2, 0)]] = 1.0
    out = a1 @ v20
    assert abs(out[basis.index[(1, 0)]] - np.sqrt(2.0)) < 1e-15


def test_ladder_commutators_on_interior():
    basis = enumerate_basis(6)
    a = [ladder_matrix(basis, m).matrix for m in (1, 2)]
    ad = [m.conj().T for m in a]
    keep = np.array([n1 + n2 <= 5 for (n1, n2) in basis.labels])
    proj = np.diag(keep.astype(float))
    eye = np.eye(basis.dim)
    for al in range(2):
        for be in range(2):
            comm = (a[al] @ ad[be] - ad[be] @ a[al]).toarray()
            want = eye if al == be else 0.0 * eye
            assert np.abs(proj @ (comm - want) @ proj).max() < 1e-13
            assert np.abs((a[al] @ a[be] - a[be] @ a[al]).toarray()).max() == 0.0
            assert np.abs((ad[al] @ ad[be] - ad[be] @ ad[al]).toarray()).max() == 0.0


def test_creation_annihilates_top_shell():
    basis = enumerate_basis(3)
    ad1 = ladder_matrix(basis, 1, dagger=True).matrix
    vtop = np.zeros(basis.dim)
    vtop[basis.index[(3, 0)]] = 1.0
    assert np.abs(ad1 @ vtop).max() == 0.0


def test_coordinate_x3_is_diagonal_with_number_difference():
    lam = 0.3
    basis = enumerate_basis(5)
    x3 = coordinate_matrix(basis, 3, lam).matrix.toarray()
    expected = np.diag([lam * (n1 - n2) for (n1, n2) in basis.labels])
    assert np.abs(x3 - expected).max() < 1e-14


@pytest.mark.parametrize("lam", [0.1, 1.0])
def test_coordinate_commutation_relation(lam):
    basis = enumerate_basis(8)
    x = [coordinate_matrix(basis, j, lam).matrix.toarray() for j in (1, 2, 3)]
    for i in range(3):
        assert np.abs(x[i] - x[i].conj().T).max() < 1e-14
        for j in range(3):
            acc = x[i] @ x[j] - x[j] @ x[i]
            for k in range(3):
                if EPS3[i, j, k]:
                    acc = acc - 2.0j * lam * EPS3[i, j, k] * x[k]
            assert np.abs(acc).max() < 1e-13


def test_x_square_equals_r_square_minus_lam_square():
    lam = 0.7
    basis = enumerate_basis(9)
    x = [coordinate_matrix(basis, j, lam).matrix for j in (1, 2, 3)]
    r = radial_matrix(basis, lam).matrix
    acc = sum((xi @ xi for xi in x)) - r @ r \
        + lam**2 * np.eye(basis.dim)
    assert np.abs(acc.toarray() if hasattr(acc, "toarray") else acc).max() < 1e-13


def test_radial_matrix_values_and_scalar_property():
    lam = 0.4
    basis = enumerate_basis(4)
    r = radial_matrix(basis, lam).matrix
    assert abs(r[basis.index[(0, 0)], basis.index[(0, 0)]] - lam) < 1e-15
    assert abs(r[basis.index[(1, 1)], basis.index[(1, 1)]] - 3 * lam) < 1e-15
    for j in (1, 2, 3):
        xj = coordinate_matrix(basis, j, lam).matrix
        assert np.abs((xj @ r - r @ xj).toarray()).max() == 0.0


def test_vacuum_projector_norm():
    lam = 0.25
    basis = enumerate_basis(3)
    w = WeightedInnerProduct(basis, lam)
    m = np.zeros((basis.dim, basis.dim), dtype=complex)
    m[basis.index[(0, 0)], basis.index[(0, 0)]] = 1.0
    psi = NCState(basis, m)
    # Tr[psi+ r psi] = lam for the vacuum projector
    assert abs(w(psi, psi) - 4 * np.pi * lam**3) < 1e-14


def test_inner_product_axioms_many_pairs():
    lam = 0.6
    basis = enumerate_basis(6)
    w = WeightedInnerProduct(basis, lam)
    for seed in range(100):
        phi = random_state(basis, 2 * seed, 0, 6, w)
        psi = random_state(basis, 2 * seed + 1, 0, 6, w)
        a, b = w(phi, psi), w(psi, phi)
        assert abs(a - np.conj(b)) < 1e-12
        nn = w(psi, psi)
        assert nn.real > 0 and abs(nn.imag) < 1e-12
        alpha, beta = 0.3 - 1.1j, -0.8 + 0.2j
        lin = w(phi, alpha * psi + beta * phi)
        assert abs(lin - alpha * w(phi, psi) - beta * w(phi, phi)) < 1e-11


def test_inner_product_rejects_basis_mismatch():
    w = WeightedInnerProduct(enumerate_basis(4), 0.5)
    psi4 = random_state(enumerate_basis(4), 0, 0, 4, w)
    w5 = WeightedInnerProduct(enumerate_basis(5), 0.5)
    psi5 = random_state(enumerate_basis(5), 0, 0, 5, w5)
    with pytest.raises(ValueError):
        w(psi4, psi5)


def test_random_state_determinism_support_and_charge():
    basis = enumerate_basis(8)
    w = WeightedInnerProduct(basis, 0.5)
    a = random_state(basis, seed=1, kappa=0, support_max=4, w=w)
    b = random_state(basis, seed=1, kappa=0, support_max=4, w=w)
    assert np.array_equal(a.dense(), b.dense())
    assert a.support_max() <= 4
    assert a.kappa() == 0
    assert abs(w.norm(a) - 1.0) < 1e-12
    # kappa = 0 states commute with the total number operator
    nmat = np.diag(basis.shells.astype(float))
    assert np.abs(nmat @ a.dense() - a.dense() @ nmat).max() < 1e-12
    c = random_state(basis, seed=3, kappa=2, support_max=5, w=w)
    assert c.kappa() == 2


def test_random_state_rejects_infeasible_charge():
    basis = enumerate_basis(6)
    w = WeightedInnerProduct(basis, 0.5)
    with pytest.raises(ValueError):
        random_state(basis, seed=0, kappa=3, support_max=2, w=w)
    with pytest.raises(ValueError):
        random_state(basis, seed=0, kappa=0, support_max=7, w=w)


def test_interior_projection_properties():
    basis = enumerate_basis(7)
    w = WeightedInnerProduct(basis, 0.5)
    psi = random_state(basis, seed=5, kappa=0, support_max=7, w=w)
    with pytest.raises(ValueError):
        interior_projection(psi, 8)
    assert np.array_equal(interior_projection(psi, 0).dense(), psi.dense())
    once = interior_projection(psi, 3)
    twice = interior_projection(once, 3)
    assert np.array_equal(once.dense(), twice.dense())
    assert once.support_max() <= 4


def test_state_text_round_trip():
    basis = enumerate_basis(5)
    w = WeightedInnerProduct(basis, 0.3)
    psi = random_state(basis, seed=9, kappa=1, support_max=4, w=w)
    back = state_from_text(state_to_text(psi))
    assert back.basis.n_max == 5
    assert np.abs(back.dense() - psi.dense()).max() == 0.0


def _loop_ladder_matrix(basis, mode, dagger=False):
    """The label-by-label construction ladder_matrix replaced (reference)."""
    import scipy.sparse as sp
    rows, cols, vals = [], [], []
    for i, (n1, n2) in enumerate(basis.labels):
        occ = (n1, n2)[mode - 1]
        if occ > 0:
            target = (n1 - 1, n2) if mode == 1 else (n1, n2 - 1)
            rows.append(basis.index[target])
            cols.append(i)
            vals.append(np.sqrt(occ))
    m = sp.csr_matrix((np.asarray(vals, dtype=complex), (rows, cols)),
                      shape=(basis.dim, basis.dim))
    return m.conj().T.tocsr() if dagger else m


@pytest.mark.parametrize("n_max", range(9))
def test_ladder_matrix_bit_identical_to_loop(n_max):
    basis = enumerate_basis(n_max)
    for mode in (1, 2):
        for dagger in (False, True):
            got = ladder_matrix(basis, mode, dagger).matrix
            want = _loop_ladder_matrix(basis, mode, dagger)
            assert got.dtype == want.dtype and got.shape == want.shape
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part), getattr(want, part))
            assert got.data.tobytes() == want.data.tobytes()


def test_inner_product_matches_reference_formula():
    import scipy.sparse as sp
    basis = enumerate_basis(9)
    w = WeightedInnerProduct(basis, 0.3)
    pref = 4.0 * np.pi * 0.3**2
    phi = random_state(basis, 1, 0, 9, w)
    psi = random_state(basis, 2, 0, 8, w)
    a, b = phi.matrix, psi.matrix
    want = pref * np.sum(np.conj(a) * (w.r_diag[:, None] * b))
    assert abs(w(phi, psi) - want) <= 1e-14 * abs(want)
    # the sparse path keeps its arithmetic exactly
    sa, sb = sp.csr_matrix(a), sp.csr_matrix(b)
    exact = complex(pref * sa.conj().multiply(sp.diags(w.r_diag) @ sb).sum())
    assert w(NCState(basis, sa), NCState(basis, sb)) == exact
    assert w(NCState(basis, sa), psi) == exact


def test_packing_layout_and_charge_census():
    basis = enumerate_basis(5)
    w = WeightedInnerProduct(basis, 0.5)
    shells = basis.shells
    for kappa in (-2, 0, 1, 3):
        flat = basis.packing(kappa).flat
        rows, cols = flat // basis.dim, flat % basis.dim
        want_rows, want_cols = np.nonzero(shells[:, None] - shells[None, :]
                                          == kappa)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(cols, want_cols)
        off = basis.packing(kappa).offset
        pos = off[rows] + cols - shells[cols] * (shells[cols] + 1) // 2
        assert np.array_equal(pos, np.arange(len(flat)))
        psi = random_state(basis, 3, kappa, 5, w)
        assert list(basis.charges(psi.matrix)) == [kappa]
    mixed = random_state(basis, 4, 1, 5, w) + random_state(basis, 5, -2, 5, w)
    assert list(basis.charges(mixed.matrix)) == [-2, 1]
    assert list(basis.charges(np.zeros((basis.dim, basis.dim)))) == []
    # one entry, seen through its imaginary part alone; a NaN counts, a
    # negative zero does not
    lone = -np.zeros((basis.dim, basis.dim), dtype=complex)
    lone[basis.index[(0, 3)], basis.index[(1, 0)]] = 1e-300j
    assert list(basis.charges(lone)) == [2]
    lone[basis.index[(0, 0)], basis.index[(4, 1)]] = np.nan
    assert list(basis.charges(lone)) == [-5, 2]
    assert list(basis.charges(lone.real.copy())) == [-5]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_kappa_and_support_ignore_entries_below_tol(sparse):
    import scipy.sparse as sp
    basis = enumerate_basis(6)
    w = WeightedInnerProduct(basis, 0.5)
    m = random_state(basis, 2, 0, 3, w).dense()
    m[basis.index[(5, 0)], basis.index[(1, 2)]] = 1e-9 * np.abs(m).max()
    convert = sp.csr_matrix if sparse else np.asarray
    state = NCState(basis, convert(m))
    assert state.kappa() is None and state.support_max() == 5
    assert state.kappa(1e-6) == 0 and state.support_max(1e-6) == 3
    zero = NCState(basis, convert(np.zeros((basis.dim, basis.dim))))
    assert zero.kappa() is None and zero.support_max() == -1


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -1.0])
def test_every_lambda_entry_point_rejects_a_nonfinite_or_nonpositive_lambda(lam):
    from fuzzylab.operators import Space
    basis = enumerate_basis(3)
    for build in (lambda: Space(3, lam), lambda: coordinate_matrix(basis, 1, lam),
                  lambda: radial_matrix(basis, lam),
                  lambda: WeightedInnerProduct(basis, lam)):
        with pytest.raises(ValueError, match="lambda must be finite and > 0"):
            build()


def test_mixing_bases_raises_one_error_everywhere():
    from fuzzylab.operators import Space
    small, big = Space(4, 0.5), Space(5, 0.5)
    phi, psi = small.random_state(1), big.random_state(2)
    for mix in (lambda: phi + psi, lambda: phi - psi, lambda: phi @ psi,
                lambda: small.velocity(1)(psi), lambda: small.ip(phi, psi),
                lambda: small.ip(psi, psi), lambda: small.ip.by_shell(phi, psi)):
        with pytest.raises(ValueError, match="different bases: n_max"):
            mix()


def test_leaf_map_applies_every_leaf_on_both_sides():
    import scipy.sparse as sp
    from fuzzylab.operators import Space
    space = Space(7, 0.4)
    basis = space.basis
    leaves = space.a + space.ad + space.x + [
        space.r, space.rinv, space.shell_diagonal(np.cos(np.arange(8.0)))]
    for kappa in range(-3, 4):
        psi = random_state(basis, 40 + kappa, kappa, basis.n_max, space.ip)
        for m in leaves:
            for left in (True, False):
                k, mat = basis.leaf_map(m, kappa, left)
                got = NCState(basis, {k: mat @ psi.parts[kappa]}).dense()
                want = m @ psi.dense() if left else psi.dense() @ m
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    for left in (True, False):  # a sum of a and a+ has no one charge shift
        with pytest.raises(ValueError, match="mixes charge shifts"):
            basis.leaf_map(space.a[0] + space.ad[0], 0, left)
        for kappa in range(-3, 4):  # an empty matrix keeps the charge
            size = basis.packing(kappa).size
            k, mat = basis.leaf_map(sp.csr_matrix((basis.dim, basis.dim)), kappa, left)
            assert k == kappa and mat.shape == (size, size) and mat.nnz == 0


def test_basis_matrix_builders_return_sparse_states_that_keep_their_matrix():
    import scipy.sparse as sp
    basis = enumerate_basis(4)
    for state in (ladder_matrix(basis, 1), coordinate_matrix(basis, 2, 0.5),
                  radial_matrix(basis, 0.5)):
        assert isinstance(state, NCState) and state.parts is None
        assert sp.isspmatrix_csr(state.matrix)
        assert NCState(basis, state.matrix).matrix is state.matrix
