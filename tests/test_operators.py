import numpy as np
import pytest

from fuzzylab.fock import EPS3, NCState
from fuzzylab.operators import RadialFunction, Space
from fuzzylab.spectra import shell_state


@pytest.fixture(scope="module")
def space():
    return Space(9, 0.7)


def _v2(space, psi):
    out = None
    for j in (1, 2, 3):
        vj = space.velocity(j)
        t = vj(vj(psi))
        out = t if out is None else out + t
    return out


def rel(space, diff, margin, scale):
    return space.ip.norm(space.interior(diff, margin)) / scale


def test_superop_linearity_bandwidth_and_charge(space):
    psi = space.random_state(3, 0, 5)
    phi = space.random_state(4, 0, 5)
    for op in (space.angular_momentum(2), space.position(1),
               space.velocity(3), space.velocity4(),
               space.free_hamiltonian(), space.w_vector(1)):
        a = op(0.5j * psi + 2.0 * phi)
        b = 0.5j * op(psi) + 2.0 * op(phi)
        assert (a - b).absmax() < 1e-12 * max(a.absmax(), 1.0)
        out = op(psi)
        assert out.support_max() <= psi.support_max() + op.bandwidth
        assert out.kappa() in (0, None)


def test_angular_momentum_so3(space):
    psi = space.random_state(1, 0, space.n_max)
    scale = space.ip.norm(psi)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            li, lj = space.angular_momentum(i), space.angular_momentum(j)
            got = li(lj(psi)) - lj(li(psi))
            for k in (1, 2, 3):
                if EPS3[i - 1, j - 1, k - 1]:
                    got = got - 1.0j * EPS3[i - 1, j - 1, k - 1] \
                        * space.angular_momentum(k)(psi)
            # bandwidth 0: exact on the full truncated space
            assert got.absmax() < 1e-12 * max(psi.absmax(), 1.0)
    del scale


def test_angular_momentum_eigenstate(space):
    psi = shell_state(space, 1, 1, 2)
    l3 = space.angular_momentum(3)(psi)
    assert (l3 - psi).absmax() < 1e-12 * psi.absmax()
    l2 = None
    for k in (1, 2, 3):
        lk = space.angular_momentum(k)
        t = lk(lk(psi))
        l2 = t if l2 is None else l2 + t
    assert (l2 - 2.0 * psi).absmax() < 1e-12 * psi.absmax()


def test_angular_momentum_commutes_with_radial(space):
    psi = space.random_state(2, 0, space.n_max)
    rop = space.radial()
    for k in (1, 2, 3):
        lk = space.angular_momentum(k)
        got = lk(rop(psi)) - rop(lk(psi))
        assert got.absmax() < 1e-12 * max(psi.absmax(), 1.0)


def test_position_commutators(space):
    lam = space.lam
    psi = space.random_state(5, 0, space.n_max)
    scale = space.ip.norm(psi)
    for i, j in ((1, 2), (2, 3), (1, 3)):
        xi, xj = space.position(i), space.position(j)
        got = xi(xj(psi)) - xj(xi(psi))
        for k in (1, 2, 3):
            if EPS3[i - 1, j - 1, k - 1]:
                got = got - 1.0j * lam**2 * EPS3[i - 1, j - 1, k - 1] \
                    * space.angular_momentum(k)(psi)
        assert space.ip.norm(got) < 1e-12 * scale
        li = space.angular_momentum(i)
        got = li(xj(psi)) - xj(li(psi))
        for k in (1, 2, 3):
            if EPS3[i - 1, j - 1, k - 1]:
                got = got - 1.0j * EPS3[i - 1, j - 1, k - 1] \
                    * space.position(k)(psi)
        assert space.ip.norm(got) < 1e-12 * scale


def test_left_right_position_difference_is_angular_momentum(space):
    psi = space.random_state(6, 0, space.n_max)
    for k in (1, 2, 3):
        got = space.position_left(k)(psi) - space.position_right(k)(psi) \
            - 2.0 * space.lam * space.angular_momentum(k)(psi)
        assert got.absmax() < 1e-12 * max(psi.absmax(), 1.0)


def test_free_hamiltonian_on_vacuum_projector(space):
    lam = space.lam
    basis = space.basis
    m = np.zeros((basis.dim, basis.dim), dtype=complex)
    m[basis.index[(0, 0)], basis.index[(0, 0)]] = 1.0
    p0 = NCState(basis, m)
    got = space.free_hamiltonian()(p0)
    lifted = None
    for al in range(2):
        t = space.ad[al] @ m @ space.a[al]
        lifted = t if lifted is None else lifted + t
    want = (1.0 / lam**2) * m - (1.0 / (4.0 * lam**2)) * lifted
    assert np.abs(got.dense() - want).max() < 1e-13 / lam**2


def test_velocity4_on_vacuum_projector(space):
    lam = space.lam
    basis = space.basis
    m = np.zeros((basis.dim, basis.dim), dtype=complex)
    m[basis.index[(0, 0)], basis.index[(0, 0)]] = 1.0
    p0 = NCState(basis, m)
    h0p0 = space.free_hamiltonian()(p0)
    want = (1.0 / lam) * p0 - lam * h0p0
    got = space.velocity4()(p0)
    assert (got - want).absmax() < 1e-13 / lam


def test_hamiltonian_forms_agree_on_interior(space):
    h0 = space.free_hamiltonian()
    lam, a, ad, rinv, r = space.lam, space.a, space.ad, space.rinv, space.r
    psi = space.random_state(8, 0, space.n_max - 1)
    m = psi.matrix
    s = (2.0 / lam) * (r @ m)
    for al in range(2):
        s = s - ad[al] @ m @ a[al] - a[al] @ m @ ad[al]
    zeta = NCState(space.basis, rinv @ s / (2.0 * lam))
    got = h0(psi)
    assert rel(space, got - zeta, 1, space.ip.norm(got)) < 1e-12


def test_hamiltonian_hermitian_and_positive(space):
    h0 = space.free_hamiltonian()
    for seed in range(4):
        phi = space.random_state(10 + seed, 0, space.n_max - 1)
        psi = space.random_state(20 + seed, 0, space.n_max - 1)
        a = space.ip(phi, h0(psi))
        b = space.ip(h0(phi), psi)
        assert abs(a - b) < 1e-10 * max(abs(a), 1.0)
        expect = space.ip(psi, h0(psi))
        assert expect.real > -1e-12


def test_velocity_forms_agree(space):
    h0 = space.free_hamiltonian()
    psi = space.random_state(30, 0, space.n_max - 1)
    for j in (1, 2, 3):
        xj = space.position(j)
        direct = -1.0j * (xj(h0(psi)) - h0(xj(psi)))
        v = space.velocity(j)(psi)
        w = space.velocity_w_form(j)(psi)
        scale = space.ip.norm(v)
        assert rel(space, v - direct, 1, scale) < 1e-12
        assert rel(space, v - w, 1, scale) < 1e-12
    v4a = space.velocity4()(psi)
    v4b = space.velocity4_cross_form()(psi)
    assert rel(space, v4a - v4b, 1, space.ip.norm(v4a)) < 1e-12


def test_superop_equality_by_full_matrix_at_small_cutoff():
    """Both velocity realizations have the same full matrix at n_max = 4
    on every unit state away from the cutoff shell (any charge)."""
    small = Space(4, 0.9)
    dim = small.basis.dim
    shells = small.basis.shells
    for j in (1, 2, 3):
        va, vb = small.velocity(j), small.velocity_w_form(j)
        for col_i in range(dim):
            for col_k in range(dim):
                if max(shells[col_i], shells[col_k]) > small.n_max - 1:
                    continue
                e = np.zeros((dim, dim), dtype=complex)
                e[col_i, col_k] = 1.0
                unit = NCState(small.basis, e)
                diff = (va(unit) - vb(unit)).absmax()
                assert diff < 1e-12 / small.lam


def test_velocity_on_coordinates(space):
    eye = space.identity_state()
    for i in (1, 2, 3):
        vi = space.velocity(i)
        for j in (1, 2, 3):
            got = vi(space.state(space.x[j - 1].astype(complex)))
            want = (-1.0j if i == j else 0.0) * eye
            assert rel(space, got - want, 1, 1.0) < 1e-12


def test_velocity_on_radial_function(space):
    # f = r^2 has exact central difference 2r
    f = space.state((space.r @ space.r).astype(complex))
    for j in (1, 2, 3):
        got = space.velocity(j)(f)
        want = space.state(-2.0j * ((space.x[j - 1] @ space.rinv) @ space.r))
        assert rel(space, got - want, 1, space.ip.norm(want)) < 1e-12


def test_leibniz_rule_with_correction(space):
    for seed in (0, 1):
        A = space.random_state(40 + seed, 0, space.n_max - 2)
        B = space.random_state(50 + seed, 0, space.n_max - 2)
        prod = NCState(space.basis, A.matrix @ B.matrix)
        for i in (1, 2, 3):
            vi = space.velocity(i)
            lhs = vi(prod)
            rhs = NCState(space.basis, vi(A).matrix @ B.matrix) \
                + NCState(space.basis, A.matrix @ vi(B).matrix) \
                + space.leibniz_correction(i, A, B)
            assert rel(space, lhs - rhs, 2, space.ip.norm(lhs)) < 1e-12


def test_correction_sum_gives_hamiltonian(space):
    lam = space.lam
    psi = space.random_state(60, 0, space.n_max - 2)
    h0psi = space.free_hamiltonian()(psi)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            xj = space.state(space.x[j - 1].astype(complex))
            got = 0.5 * (space.leibniz_correction(i, xj, psi)
                         + space.leibniz_correction(i, psi, xj))
            want = (1.0j * lam**2 if i == j else 0.0) * h0psi
            assert rel(space, got - want, 2, space.ip.norm(h0psi)) < 1e-12


def test_correction_with_identity_vanishes(space):
    psi = space.random_state(61, 0, space.n_max - 1)
    eye = space.identity_state()
    for i in (1, 2, 3):
        got = space.leibniz_correction(i, eye, psi)
        assert got.absmax() < 1e-13 * max(psi.absmax(), 1.0)


def test_uncertainty_deformation(space):
    lam = space.lam
    h0 = space.free_hamiltonian()
    psi = space.random_state(62, 0, space.n_max - 1)
    scale = space.ip.norm(psi)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            vi, xj = space.velocity(i), space.position(j)
            got = vi(xj(psi)) - xj(vi(psi))
            if i == j:
                got = got + 1.0j * (psi - lam**2 * h0(psi))
            assert rel(space, got, 1, scale) < 1e-12


def test_velocity_commutators_vanish(space):
    psi = space.random_state(63, 0, space.n_max - 2)
    ops = [space.velocity(1), space.velocity(2), space.velocity(3),
           space.velocity4()]
    scale = 1.0 / space.lam * space.ip.norm(psi)
    for i in range(4):
        for j in range(i + 1, 4):
            got = ops[i](ops[j](psi)) - ops[j](ops[i](psi))
            assert rel(space, got, 2, scale) < 1e-11


def test_quadratic_relation_and_casimir(space):
    lam = space.lam
    h0 = space.free_hamiltonian()
    psi = space.random_state(64, 0, space.n_max - 2)
    v2 = _v2(space, psi)
    h = h0(psi)
    want = 2.0 * h - lam**2 * h0(h)
    assert rel(space, v2 - want, 2, space.ip.norm(v2)) < 1e-12
    c2 = space.casimir2()(psi)
    assert rel(space, c2 - (1.0 / lam**2) * psi, 2,
               space.ip.norm(psi) / lam**2) < 1e-12


def test_pauli_lubanski_annihilates_charge_zero(space):
    psi = space.random_state(65, 0, space.n_max - 1)
    scale = space.ip.norm(psi) / space.lam
    for a in (1, 2, 3, 4):
        got = space.pauli_lubanski(a)(psi)
        assert rel(space, got, 1, scale) < 1e-12


def test_velocity_commutes_with_hamiltonian(space):
    h0 = space.free_hamiltonian()
    psi = space.random_state(66, 0, space.n_max - 2)
    scale = space.ip.norm(psi) / space.lam**3
    for i in (1, 2, 3):
        vi = space.velocity(i)
        got = vi(h0(psi)) - h0(vi(psi))
        assert rel(space, got, 2, scale) < 1e-12


def test_radial_function_derivatives():
    lam, n_max = 0.3, 12
    ident = RadialFunction.from_callable(lambda r: r, lam, n_max, name="r")
    d1 = ident.lambda_derivative(1)
    # constant extension halves the one-sided difference at the flagged edges
    assert np.abs(d1.values[1:-1] - 1.0).max() < 1e-14
    sq = RadialFunction.from_callable(lambda r: r * r, lam, n_max, name="r2")
    grid = lam * (np.arange(n_max + 1) + 1.0)
    d1 = sq.lambda_derivative(1)
    d2 = sq.lambda_derivative(2)
    inner = slice(1, n_max)  # boundary shells use the constant extension
    assert np.abs(d1.values[inner] - 2.0 * grid[inner]).max() < 1e-12
    assert np.abs(d2.values[inner] - 2.0).max() < 1e-12
    inv = RadialFunction.from_callable(lambda r: 1.0 / r, lam, n_max, name="1/r")
    d1 = inv.lambda_derivative(1)
    want = -1.0 / (grid[inner] ** 2 - lam**2)
    assert np.abs(d1.values[inner] - want).max() < 1e-12


def test_radial_derivative_rejects_bad_order():
    f = RadialFunction.from_callable(lambda r: r, 0.5, 4)
    with pytest.raises(ValueError):
        f.lambda_derivative(3)


@pytest.mark.parametrize("name,fn", [
    ("r2", lambda r: r * r),
    ("coulomb", lambda r: -1.0 / r),
    ("exp", lambda r: np.exp(-r)),
])
def test_acceleration_decomposition(space, name, fn):
    pot = RadialFunction.from_callable(fn, space.lam, space.n_max, name=name)
    psi = space.random_state(70, 0, space.n_max - 2)
    for i in (1, 2, 3):
        a = space.acceleration(i, pot)(psi)
        b = space.acceleration_decomposed(i, pot)(psi)
        scale = max(space.ip.norm(a), space.ip.norm(psi))
        assert rel(space, a - b, 2, scale) < 1e-12


def test_acceleration_constant_potential_vanishes(space):
    pot = RadialFunction.from_callable(lambda r: 2.5, space.lam, space.n_max,
                                       name="const")
    psi = space.random_state(71, 0, space.n_max - 1)
    for i in (1, 2, 3):
        got = space.acceleration(i, pot)(psi)
        assert rel(space, got, 1, space.ip.norm(psi) / space.lam) < 1e-13


def test_acceleration_ignores_kinetic_part(space):
    pot = RadialFunction.from_callable(lambda r: -1.0 / r, space.lam,
                                       space.n_max, name="coulomb")
    h = space.hamiltonian(pot)
    u = space.radial_multiplication(pot)
    psi = space.random_state(72, 0, space.n_max - 2)
    for i in (1, 2, 3):
        vi = space.velocity(i)
        full = -1.0j * (vi(h(psi)) - h(vi(psi)))
        pot_only = -1.0j * (vi(u(psi)) - u(vi(psi)))
        scale = max(space.ip.norm(full), space.ip.norm(psi))
        assert rel(space, full - pot_only, 2, scale) < 1e-11


def test_hermiticity_under_weighted_inner_product(space):
    ops = [space.angular_momentum(1), space.position(2), space.velocity(3),
           space.velocity4(), space.free_hamiltonian()]
    for op in ops:
        margin = op.bandwidth
        phi = space.random_state(80, 0, space.n_max - margin)
        psi = space.random_state(81, 0, space.n_max - margin)
        a = space.ip(phi, op(psi))
        b = space.ip(op(phi), psi)
        scale = max(space.ip.norm(op(psi)), 1e-300)
        assert abs(a - b) < 1e-11 * scale


def test_commutative_limit_of_velocity_gradient():
    box = 4.0
    ratios = []
    for lam in (0.2, 0.1, 0.05):
        n_max = int(round(box / lam)) - 1
        sub = Space(n_max, lam)
        shell_r = lam * (np.arange(n_max + 1) + 1.0)
        f_state = sub.state(sub.shell_diagonal(np.exp(-shell_r)))
        df = sub.shell_diagonal(-np.exp(-shell_r))
        worst = 0.0
        for j in (1, 2, 3):
            got = sub.velocity(j)(f_state)
            want = sub.state(-1.0j * ((sub.x[j - 1] @ sub.rinv) @ df))
            num = sub.ip.norm(sub.interior(got - want, 2))
            den = sub.ip.norm(sub.interior(want, 2))
            worst = max(worst, num / den)
        ratios.append(worst)
    assert ratios[1] < ratios[0] and ratios[2] < ratios[1]
    # central difference converges at second order: halving lam gains ~4x
    assert ratios[0] / ratios[2] > 8.0


# -- compiled (dense) path vs tree walk (sparse) ---------------------------------


def _every_space_operator(space):
    coulomb = RadialFunction.from_callable(lambda r: -1.0 / r, space.lam,
                                           space.n_max, name="coulomb")
    r2 = RadialFunction.from_callable(lambda r: r * r, space.lam,
                                      space.n_max, name="r2")
    ops = [space.radial(), space.radial_multiplication(r2),
           space.free_hamiltonian(), space.velocity4(),
           space.velocity4_cross_form(), space.hamiltonian(coulomb),
           space.casimir2()]
    for k in (1, 2, 3):
        ops += [space.angular_momentum(k), space.position(k),
                space.position_left(k), space.position_right(k),
                space.velocity(k), space.velocity_w_form(k), space.w_vector(k),
                space.acceleration(k, coulomb),
                space.acceleration_decomposed(k, r2)]
    ops += [space.pauli_lubanski(a) for a in (1, 2, 3, 4)]
    ops += [space.so4_generator(a, b) for a in range(1, 5) for b in range(1, 5)]
    return ops


@pytest.mark.parametrize("kappa", [-1, 0, 1, 2])
def test_compiled_path_matches_tree_walk(kappa):
    import scipy.sparse as sp

    from fuzzylab import identities as idn
    from fuzzylab.algebra import to_superop

    space = Space(10, 0.3)
    ops = _every_space_operator(space) + [to_superop(idn.velocity_op(2), space)]
    for t, op in enumerate(ops):
        psi = space.random_state(500 + t, kappa, 8)
        dense = op(psi).matrix
        walked = op(space.state(sp.csr_matrix(psi.matrix))).matrix.toarray()
        # relative to the output, or to the input where the output vanishes
        # (the Pauli-Lubanski components on charge-zero states)
        scale = max(np.abs(walked).max(), psi.absmax())
        assert np.abs(dense - walked).max() <= 1e-13 * scale, (op.name, kappa)


def test_space_operators_are_memoized():
    space = Space(6, 0.5)
    pot = RadialFunction.from_callable(lambda r: -1.0 / r, 0.5, 6, name="c")
    same = RadialFunction.from_callable(lambda r: -1.0 / r, 0.5, 6, name="c")
    other = RadialFunction.from_callable(lambda r: r, 0.5, 6, name="c")
    assert space.velocity(2) is space.velocity(2)
    assert space.velocity(2) is not space.velocity(3)
    assert space.hamiltonian(pot) is space.hamiltonian(same)
    assert space.hamiltonian(pot) is not space.hamiltonian(other)
    assert space.hamiltonian(None) is space.free_hamiltonian()
    # memoized operators keep their declared names and bandwidths
    assert (space.hamiltonian(pot).name, space.hamiltonian(pot).bandwidth) \
        == ("H0+U", 1)
    assert (space.casimir2().name, space.casimir2().bandwidth) == ("C2", 2)


def test_compiled_map_is_cached_per_charge():
    space = Space(6, 0.5)
    h0 = space.free_hamiltonian()
    psi = space.random_state(1, 0, 5)
    h0(psi)
    first = h0.packed_matrix(0)
    h0(space.random_state(2, 0, 5))
    assert h0.packed_matrix(0) is first
    assert first.shape == (space.basis.packing(0).size,) * 2
    assert set(h0._compiled) == {0}


def test_mixed_charge_states_apply_every_charge():
    import scipy.sparse as sp
    space = Space(8, 0.4)
    mixed = space.random_state(1, 0, 6) + 0.5 * space.random_state(2, 1, 6) \
        - space.random_state(3, -2, 6)
    assert list(space.basis.charges(mixed.matrix)) == [-2, 0, 1]
    for op in (space.free_hamiltonian(), space.velocity(1), space.position(3),
               space.ladder("R", 2, True)):
        walked = op(space.state(sp.csr_matrix(mixed.matrix))).matrix.toarray()
        got = op(mixed).matrix
        assert np.abs(got - walked).max() <= 1e-13 * np.abs(walked).max(), \
            op.name


def _bits(state):
    """The dense array of a state as raw 64-bit words (bit-for-bit compare)."""
    return state.matrix.toarray().view(np.uint64)


def _stackable_states(space):
    """Sparse states of charge -1, 0 and 1, and their mixed-charge sum."""
    import scipy.sparse as sp
    states = [space.state(sp.csr_matrix(space.random_state(70 + k, k, 8).matrix))
              for k in (-1, 0, 1)]
    return states + [states[0] + states[1] + states[2]]


def test_stacked_walk_equals_single_walks_bit_for_bit():
    from fuzzylab import identities as idn
    from fuzzylab.algebra import to_superop

    space = Space(10, 0.3)
    states = _stackable_states(space)
    ops = _every_space_operator(space) + [
        to_superop(idn.velocity_op(2), space),
        space.ladder("L", 1, False) + space.ladder("L", 1, True)]
    for op in ops:
        images = op.each(states)
        assert len(images) == len(states)
        for got, psi in zip(images, states):
            assert got.parts is None and got.matrix.shape == psi.matrix.shape
            assert np.array_equal(_bits(got), _bits(op(psi))), op.name
    # a stack of one is the single walk
    psi = states[1]
    for op in ops:
        assert np.array_equal(_bits(op.each([psi])[0]), _bits(op(psi))), op.name


def test_stacked_walk_raises_the_single_walk_pole_error_from_any_block():
    import scipy.sparse as sp

    from fuzzylab.algebra import LAM, R, coeff, to_superop
    space = Space(5, 0.5)
    pole = to_superop(coeff(1 / (R - LAM)), space)  # a pole on row shell 0
    hit = space.state(sp.csr_matrix(space.random_state(2, 0, 3).matrix))
    safe = space.state(space.ad[0] @ hit.matrix)  # rows on shells >= 1
    with pytest.raises(ValueError, match="pole") as single:
        pole(hit)
    for b in range(3):
        stack = [safe, safe, safe]
        stack[b] = hit
        with pytest.raises(ValueError, match="pole") as stacked:
            pole.each(stack)
        assert str(stacked.value) == str(single.value)
    for got in pole.each([safe, safe, safe]):
        assert np.array_equal(_bits(got), _bits(pole(safe)))


def test_space_ad_is_bit_identical_to_the_dagger_ladder_matrix():
    from fuzzylab.fock import ladder_matrix
    space = Space(9, 0.5)
    for mode in (1, 2):
        got = space.ad[mode - 1]
        want = ladder_matrix(space.basis, mode, dagger=True).matrix
        assert got.dtype == want.dtype and got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), part


def test_mixed_shift_sum_applies_to_sparse_states_only():
    import scipy.sparse as sp

    from fuzzylab.operators import SuperOp
    space = Space(6, 0.5)
    psi = space.random_state(1, 0, 5)
    mixed = space.ladder("L", 1, False) + space.ladder("L", 1, True)
    with pytest.raises(ValueError, match="mixes charge shifts"):
        mixed(psi)
    with pytest.raises(ValueError, match="mixes charge shifts"):
        SuperOp.left(space.basis, space.a[0] + space.ad[0])(psi)
    walked = mixed(space.state(sp.csr_matrix(psi.matrix))).matrix.toarray()
    want = (space.a[0] + space.ad[0]) @ psi.dense()
    assert np.abs(walked - want).max() <= 1e-14 * np.abs(want).max()


def _nodes(op):
    """Every node of an operator tree, the root included."""
    from fuzzylab.operators import SuperOp
    out = [op]
    for arg in op.args:
        if isinstance(arg, SuperOp):
            out += _nodes(arg)
    return out


def test_space_operators_share_memoized_leaves():
    space = Space(6, 0.5)
    pot = space.sample(lambda r: -1.0 / r, "coulomb")
    for k in (1, 2, 3):
        nodes = _nodes(space.angular_momentum(k))
        for leaf in (space.position_left(k), space.position_right(k)):
            assert any(n is leaf for n in nodes), (k, leaf.name)
        nodes = _nodes(space.acceleration_decomposed(k, pot))
        for order in (1, 2):
            leaf = space.radial_multiplication(pot.lambda_derivative(order))
            assert any(n is leaf for n in nodes), (k, order)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -1.0])
def test_radial_function_rejects_a_bad_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be finite and > 0"):
        RadialFunction(np.ones(3), lam)
    sampled = []
    with pytest.raises(ValueError, match="lambda must be finite and > 0"):
        RadialFunction.from_callable(lambda r: sampled.append(r) or r, lam, 4)
    assert sampled == []


@pytest.mark.parametrize("bad, text", [(np.nan, "nan"), (np.inf, "inf"),
                                       (-np.inf, "-inf")])
def test_radial_function_rejects_non_finite_values_naming_the_shell(bad, text):
    with pytest.raises(ValueError) as err:
        RadialFunction(values=np.array([1.0, 2.0, bad, 3.0]), lam=0.5, name="u")
    assert str(err.value) == f"u is not finite on shell 2: {text}"
