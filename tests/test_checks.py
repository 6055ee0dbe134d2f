"""The commutator table, the per-grid-point Space and declared skips."""

import json

import pytest

from fuzzylab import checks
from fuzzylab.checks import CheckConfig, run_suite
from fuzzylab.cli import main
from fuzzylab.operators import Space
from fuzzylab.report import report_from_json


def _flip_first_coefficient(rows):
    """The first row of ``rows`` that has target terms, with the sign of its
    first coefficient flipped."""

    def flipped(space):
        for A, B, terms in rows(space):
            if terms:
                (c, op), *rest = terms
                return [(A, B, ((-c, op), *rest))]
        raise AssertionError("no row has target terms")

    return flipped


@pytest.mark.parametrize("rows, margin", [
    (lambda s: checks._eps_rows(s.angular_momentum, s.angular_momentum,
                                s.angular_momentum, 1.0j), 0),
    (lambda s: checks._eps_rows(s.position, s.position, s.angular_momentum,
                                1.0j * s.lam**2), 0),
    (checks._uncertainty_rows, 1),
    (checks._so4_rows, 0),
    (checks._e4_lv_rows, 1),
], ids=["LL", "XX", "uncertainty", "so4", "e4.LV"])
def test_negated_target_coefficient_gives_order_one_residual(rows, margin):
    space, config = Space(6, 0.5), CheckConfig(n_states=2)
    exact, _ = checks._commutator_runner(margin, rows)(space, config)
    assert exact < 1e-12
    wrong, _ = checks._commutator_runner(
        margin, _flip_first_coefficient(rows))(space, config)
    assert wrong > 0.1


def test_every_check_at_a_grid_point_gets_the_same_space(monkeypatch):
    seen = {}
    for check in checks.CHECKS:
        def record(space, config):
            seen.setdefault((space.lam, space.n_max), []).append(space)
            return 0.0, ""

        monkeypatch.setattr(check, "runner", record)
    report = run_suite(CheckConfig(lams=(0.5, 0.3), n_maxes=(4,)))
    assert len(report.records) == sum(len(v) for v in seen.values())
    assert set(seen) == {(0.5, 4), (0.3, 4)}
    for spaces in seen.values():
        assert all(space is spaces[0] for space in spaces)
    assert seen[0.5, 4][0] is not seen[0.3, 4][0]


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_spectra_checks_without_a_sector_skip_and_fail_the_run(capsys):
    assert not issubclass(checks.CheckSkipped, ValueError)
    code = main(["check", "--suite", "spectra", "--lambda", "0.5",
                 "--nmax", "1", "--format", "json"])
    text = capsys.readouterr().out
    assert code == 1
    payload = _strict_json(text)
    skipped = {r["check_id"]: r for r in payload["records"]
               if r["status"] == "skip"}
    assert set(skipped) == {"spectra.v2_consistency", "spectra.m_independence"}
    for rec in skipped.values():
        assert rec["residual"] is None and rec["passed"] is False
        assert rec["detail"].startswith("skipped: ")
    assert payload["summary"]["skipped"] == 2
    assert payload["summary"]["errors"] == 0
    back = report_from_json(text)
    assert not back.passed
    assert "[SKIP] spectra.m_independence" in back.to_text()


@pytest.mark.parametrize("check_id, component", [
    ("velocity.LV4", "angular_momentum"), ("velocity.VV4", "velocity")])
def test_v4_commutators_cover_every_component(check_id, component,
                                              monkeypatch):
    applied = []
    original = checks._commutator_residual

    def spy(space, A, B, *rest):
        applied.append(A)
        return original(space, A, B, *rest)

    monkeypatch.setattr(checks, "_commutator_residual", spy)
    space = Space(6, 0.5)
    spec = next(c for c in checks.CHECKS if c.check_id == check_id)
    spec.runner(space, CheckConfig(n_states=1))
    ops = [getattr(space, component)(i) for i in (1, 2, 3)]
    assert applied == ops


def _runner(check_id):
    return next(c for c in checks.CHECKS if c.check_id == check_id).runner


def test_coulomb_oracle_j0_is_an_identity_and_j1_a_limit():
    space, config = Space(4, 0.5), CheckConfig()
    exact, detail = _runner("spectra.coulomb_oracle")(space, config)
    assert exact < 1e-10
    assert "exact by construction" in detail
    gap, _ = _runner("spectra.coulomb_oracle_j1")(space, config)
    assert 1e-5 < gap <= 0.05


def test_hermiticity_pairs_two_states_even_when_one_is_asked():
    report = run_suite(CheckConfig(lams=(0.5,), n_maxes=(6,), n_states=1,
                                   suites=("hermiticity",)))
    records = {r.check_id: r for r in report.records}
    for check_id in ("hermiticity.inner_product", "hermiticity.operators"):
        assert records[check_id].residual > 0.0
        assert records[check_id].passed


def test_hermiticity_applies_each_operator_once_with_the_same_residual(
        monkeypatch):
    space, config = Space(16, 0.1), CheckConfig(seed=11)
    ops = [space.angular_momentum(1), space.angular_momentum(3),
           space.position(1), space.position(2), space.position_left(3),
           space.radial(), space.velocity(1), space.velocity(3),
           space.velocity4(), space.free_hamiltonian()]
    old = 0.0
    for op in ops:
        margin = max(checks._margin(config, op.bandwidth), op.bandwidth)
        states = checks._states(space, config, margin, at_least=2)
        for t in range(len(states) - 1):
            phi, psi = states[t], states[t + 1]
            a = space.ip(phi, op(psi))
            b = space.ip(op(phi), psi)
            scale = max(space.ip.norm(op(psi)) * space.ip.norm(phi),
                        checks._TINY)
            old = max(old, abs(a - b) / scale)
    margins = {max(checks._margin(config, op.bandwidth), op.bandwidth)
               for op in ops}
    drawn = []
    draw = space.random_state
    monkeypatch.setattr(space, "random_state",
                        lambda *args: drawn.append(args) or draw(*args))
    new, _ = checks._run_hermiticity(space, config)
    assert new == old
    assert len(drawn) == len(margins) * config.n_states
