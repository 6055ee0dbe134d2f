"""Packed states against dense references.

A dense NCState holds one packed vector per charge; every operation on it
must agree with the same operation on its dim x dim matrix.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from fuzzylab.fock import (PAULI, NCState, WeightedInnerProduct,
                           enumerate_basis, interior_projection, random_state)
from fuzzylab.operators import Space

KAPPAS = (-1, 0, 1, 2)


@pytest.fixture(scope="module")
def space():
    return Space(10, 0.3)


def _states(space):
    """One state per charge in KAPPAS and one mixed-charge state."""
    out = [space.random_state(10 + k, k, 8) for k in KAPPAS]
    out.append(space.random_state(1, 0, 8) + 0.5 * space.random_state(2, 1, 9)
               - space.random_state(3, -2, 7))
    return out


def _assert_close(got, want):
    """Entrywise within 1e-13 of the largest entry of the reference."""
    scale = np.abs(want).max()
    assert scale > 0
    assert np.abs(got - want).max() <= 1e-13 * scale


def test_packed_state_holds_one_vector_per_charge(space):
    *single, mixed = _states(space)
    for kappa, psi in zip(KAPPAS, single):
        assert list(psi.parts) == [kappa]
        assert psi.parts[kappa].shape == (space.basis.packing(kappa).size,)
    assert sorted(mixed.parts) == [-2, 0, 1]
    # a dense array is packed per charge it holds; a sparse matrix is kept
    again = NCState(space.basis, mixed.dense())
    assert sorted(again.parts) == [-2, 0, 1]
    assert np.array_equal(again.dense(), mixed.dense())
    sparse = space.state(sp.csr_matrix(mixed.dense()))
    assert sparse.parts is None and sp.issparse(sparse.matrix)


def test_inner_product_matches_dense_formula(space):
    states = _states(space)
    r = space.ip.r_diag[:, None]
    pref = 4.0 * np.pi * space.lam**2
    for phi in states:
        for psi in states:
            a, b = phi.dense(), psi.dense()
            want = pref * np.sum(np.conj(a) * (r * b))
            bound = space.ip.norm(phi) * space.ip.norm(psi)
            assert abs(space.ip(phi, psi) - want) <= 1e-13 * bound


def test_sum_difference_and_scaling_match_dense(space):
    states = _states(space)
    for phi in states:
        _assert_close((-phi).matrix, -phi.dense())
        _assert_close(((0.3 - 2.0j) * phi).matrix, (0.3 - 2.0j) * phi.dense())
        _assert_close((phi * 1.5).matrix, 1.5 * phi.dense())
        for psi in states:
            _assert_close((phi + psi).matrix, phi.dense() + psi.dense())
            if psi is not phi:
                _assert_close((phi - psi).matrix, phi.dense() - psi.dense())


@pytest.mark.parametrize("margin", [0, 1, 2, 5, 10])
def test_interior_projection_matches_dense(space, margin):
    keep = space.basis.shells <= space.n_max - margin
    for psi in _states(space):
        want = psi.dense() * (keep[:, None] & keep[None, :])
        got = interior_projection(psi, margin).matrix
        assert np.array_equal(got, want)


def test_shell_block_product_matches_dense(space):
    states = _states(space)
    for phi in states:
        for psi in states:
            _assert_close((phi @ psi).matrix, phi.dense() @ psi.dense())


def _leibniz_dense(space, i, A, B):
    """-(i/2r) sig^i_ab ([a+_a, A][a_b, B] - [a_b, A][a+_a, B]), dense."""
    a = [m.toarray() for m in space.a]
    ad = [m.toarray() for m in space.ad]

    def comm(m, x):
        return m @ x - x @ m

    s = np.zeros_like(A)
    for al in range(2):
        for be in range(2):
            c = PAULI[i - 1][al, be]
            if c != 0:
                s = s + c * (comm(ad[al], A) @ comm(a[be], B)
                             - comm(a[be], A) @ comm(ad[al], B))
    return -0.5j * s / space.r_diag[:, None]


def test_leibniz_correction_matches_dense_formula(space):
    states = _states(space)
    pairs = [(phi, psi) for phi in states for psi in states[::2]]
    # sparse inputs are packed first
    pairs += [(space.state(space.x[0]), states[1]),
              (states[1], space.state(space.x[2]))]
    for A, B in pairs:
        for i in (1, 2, 3):
            got = space.leibniz_correction(i, A, B)
            assert got.parts is not None
            _assert_close(got.matrix, _leibniz_dense(space, i, A.dense(),
                                                     B.dense()))


@pytest.mark.parametrize("kappa,support", [(0, 10), (0, 6), (1, 7), (-2, 9),
                                           (3, 5)])
def test_random_state_draws_blocks_in_order(kappa, support):
    basis = enumerate_basis(10)
    w = WeightedInnerProduct(basis, 0.3)
    rng = np.random.default_rng(42)
    ref = np.zeros((basis.dim, basis.dim), dtype=complex)
    for nl in range(basis.n_max + 1):
        nr = nl - kappa
        if 0 <= nr <= basis.n_max and max(nl, nr) <= support:
            shape = (nl + 1, nr + 1)
            ref[basis.shell_slice(nl), basis.shell_slice(nr)] = \
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref /= np.sqrt(4.0 * np.pi * 0.3**2
                   * np.sum(w.r_diag[:, None] * np.abs(ref)**2))
    got = random_state(basis, 42, kappa, support, w).dense()
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_matrix_of_packed_state_is_a_read_only_view(space):
    psi = space.random_state(7, 0, 8)
    view = psi.matrix
    assert view.flags.writeable is False
    with pytest.raises(ValueError):
        view[0, 0] = 1.0
    copy = psi.dense()
    assert copy.flags.writeable
    copy[0, 0] = 5.0
    assert psi.matrix[0, 0] != 5.0


def _bits(psi):
    """Every bit a state holds: its packed vectors, or its CSR arrays."""
    if psi.parts is not None:
        return {k: v.tobytes() for k, v in psi.parts.items()}
    m = psi.matrix
    return m.format, m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()


def test_seeded_draws_are_memoized_per_space_bit_for_bit():
    space, (s, k, m) = Space(8, 0.3), (5, 1, 6)
    psi = space.random_state(s, k, m)
    assert space.random_state(s, k, m) is psi
    # the support_max default is filled in before the memo is asked
    assert space.random_state(s) is space.random_state(s, 0, 8)
    for args in [(s + 1, k, m), (s, 0, m), (s, k, m + 1)]:
        other = space.random_state(*args)
        assert other is not psi
        assert _bits(other) == _bits(random_state(space.basis, *args, space.ip))
    assert _bits(psi) == _bits(random_state(space.basis, s, k, m, space.ip))


def test_leibniz_pair_memo_matches_a_fresh_space_bit_for_bit():
    space = Space(8, 0.3)
    A, B, B2 = (space.random_state(seed, 0, 6) for seed in (1, 2, 3))
    x1 = space.state(space.x[0])
    pairs = [(A, B), (B, A), (A, B2), (A, B), (B2, B), (x1, A)]
    calls = [(i, X, Y) for X, Y in pairs for i in (1, 2, 3)] \
        + [(i, X, Y) for i in (1, 2, 3) for X, Y in pairs]
    for i, X, Y in calls:
        got = space.leibniz_correction(i, X, Y)
        assert _bits(got) == _bits(Space(8, 0.3).leibniz_correction(i, X, Y))


def test_no_operation_changes_an_operand(space):
    packed = [space.random_state(1, 0, 8),
              space.random_state(2, 1, 9) + space.random_state(3, 0, 6)]
    sparse = [space.state(space.x[0]), space.state(sp.csr_matrix(packed[0].dense()))]
    states = packed + sparse
    before = [_bits(psi) for psi in states]
    v1 = space.velocity(1)
    for phi in states:
        for psi in states:
            _ = (phi + psi, phi - psi, phi @ psi, space.ip(phi, psi),
                 space.leibniz_correction(2, phi, psi))
        _ = (2.0 * phi, phi * 0.5j, phi.packed(), interior_projection(phi, 2),
             v1(phi), space.ip.norm(phi))
    assert [_bits(psi) for psi in states] == before
