from pathlib import Path

import pytest
import sympy

from fuzzylab import algebra
from fuzzylab import identities as idn
from fuzzylab.algebra import LAM, R, coeff, one
from fuzzylab.operators import Space

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def proofs():
    return {name: idn.check_identity(name) for name in idn.IDENTITY_NAMES}


@pytest.mark.parametrize("name", idn.IDENTITY_NAMES)
def test_identity_reduces_to_zero(proofs, name):
    res = proofs[name]
    assert res.ok
    for label, residual in res.residuals.items():
        assert residual.terms == {}, f"{name}[{label}] nonzero"


def test_aliases_resolve():
    assert idn.check_identity("A").name == "velocity-form"
    with pytest.raises(KeyError):
        idn.check_identity("nope")


def test_intermediates_match_quoted_forms(proofs):
    vv = proofs["velocity-commutator"]
    labels = [label for label, _t, ok in vv.intermediates if ok]
    assert any("+8i/r^2" in lab for lab in labels)
    assert any("-8i/r^2" in lab for lab in labels)
    assert any("nonzero before charge-zero reduction" in lab for lab in labels)
    quad = proofs["quadratic-relation"]
    assert all(ok for _l, _t, ok in quad.intermediates)
    acc = proofs["acceleration"]
    assert all(ok for _l, _t, ok in acc.intermediates)


def test_transcript_golden_file(proofs):
    golden = (DATA / "velocity_form_transcript.txt").read_text()
    assert proofs["velocity-form"].transcript() == golden


def test_transcripts_deterministic():
    a = idn.check_identity("correction-sum").transcript()
    b = idn.check_identity("correction-sum").transcript()
    assert a == b


def test_check_identity_memoized_across_aliases():
    assert idn.check_identity("A") is idn.check_identity("velocity-form")
    assert idn.check_identity("E") is idn.check_identity("acceleration")


@pytest.mark.parametrize("name", idn.IDENTITY_NAMES)
def test_memoized_transcript_matches_fresh_proof(proofs, name):
    algebra._canonical_coeff.cache_clear()
    algebra._shifted.cache_clear()
    fresh = idn._PROVERS[name]()
    assert fresh is not proofs[name]
    assert fresh.transcript() == proofs[name].transcript()


def test_h0_raw_reduces_to_charge_zero_form():
    red = idn.h0_raw().kappa_reduce()
    assert (red - idn.h0_zeta()).normal().terms == {}


@pytest.mark.parametrize("lam", [0.1, 1.0])
def test_cross_validation_against_numeric_twins(lam):
    space = Space(8, lam)
    pairs = [
        (idn.velocity_op(1), space.velocity(1)),
        (idn.velocity_op(3), space.velocity(3)),
        (idn.h0_zeta(), space.free_hamiltonian()),
        (idn.velocity4_op(), space.velocity4()),
        (idn.w_vector_op(2), space.w_vector(2)),
        (idn.angular_momentum_op(2), space.angular_momentum(2)),
        (idn.position_op(1), space.position(1)),
    ]
    for expr, ref in pairs:
        dev = idn.cross_validate(expr, space, reference=ref, seed=11)
        assert dev < 1e-10


def test_cross_validation_of_zero_residuals():
    space = Space(8, 0.5)
    res = idn.check_identity("quadratic-relation")
    for residual in res.residuals.values():
        assert idn.cross_validate(residual, space) == 0.0


def test_cross_validation_of_acceleration_residual_with_potential():
    space = Space(8, 0.5)
    res = idn.check_identity("acceleration")
    for residual in res.residuals.values():
        dev = idn.cross_validate(residual, space,
                                 potential=lambda rr: rr**2, seed=5)
        assert dev == 0.0


def test_unreduced_velocity_commutator_is_nonzero():
    full = idn.velocity_op(1).commutator(idn.velocity_op(2)).normal()
    assert full.terms  # nonzero before the charge-zero identification
    assert full.kappa_reduce().terms == {}


def test_casimir_is_inverse_length_squared():
    v2 = sum((idn.velocity_op(j) * idn.velocity_op(j) for j in (1, 2, 3)),
             start=coeff(0))
    v4 = idn.velocity4_op()
    c2 = v2 + v4 * v4
    resid = (c2 - coeff(1 / LAM**2) * one()).kappa_reduce()
    assert resid.terms == {}


def test_transcripts_from_cold_coefficient_caches_match_golden_file():
    # the coefficient reader is memoized per sub-expression as well, so a
    # fresh proof must clear it too to read nothing from an earlier one
    for cache in (algebra._canonical_coeff, algebra._shifted, algebra._fraction):
        cache.cache_clear()
    fresh = [idn._PROVERS[name]().transcript() for name in idn.IDENTITY_NAMES]
    assert "\n".join(fresh) == (DATA / "proof_transcripts.txt").read_text()
