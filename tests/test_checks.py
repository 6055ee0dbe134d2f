"""The commutator table, the per-grid-point Space and declared skips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzylab import checks
from fuzzylab.checks import CheckConfig, run_suite
from fuzzylab.cli import main
from fuzzylab.operators import Space
from fuzzylab.report import report_from_json, worst


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


def _old_comm_limit_passes(res):
    """The 0/1 verdict ``velocity.comm_limit`` reported before it measured."""
    decreasing = all(res[s + 1] < res[s] for s in range(len(res) - 1))
    return decreasing and res[0] / max(res[-1], checks._TINY) > 8.0


def _comm_limit_passes(res):
    spec = next(c for c in checks.CHECKS if c.check_id == "velocity.comm_limit")
    return checks._shrink_residual(res) <= spec.tol


_UP, _DOWN = (lambda x: float(np.nextafter(x, np.inf)),
              lambda x: float(np.nextafter(x, 0.0)))


@pytest.mark.parametrize("res", [
    [6.68e-3, 1.67e-3, 4.17e-4], [8.0, 2.0, 1.0], [8.0, 2.0, _DOWN(1.0)],
    [8.0, 2.0, _UP(1.0)], [3.0, 3.0, 0.1], [3.0, _DOWN(3.0), 0.1],
    [1.0, 2.0, 0.01], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.5, 0.0],
    [float("nan"), 0.1, 0.01], [1.0, float("nan"), 0.01],
    [1.0, 0.1, float("nan")], [float("inf"), 1.0, 0.1], [1e300, 1e-10, 1e-300],
])
def test_comm_limit_residual_keeps_the_flag_pass_set(res):
    assert _comm_limit_passes(res) == _old_comm_limit_passes(res)


_RESIDUAL = st.floats(min_value=0.0, max_value=1e3, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(_RESIDUAL, min_size=3, max_size=3),
       st.sampled_from(["free", "equal", "up", "down"]))
def test_comm_limit_residual_pass_set_property(res, tie):
    if tie != "free":
        res[1] = {"equal": res[0], "up": _UP(res[0]), "down": _DOWN(res[0])}[tie]
    assert _comm_limit_passes(res) == _old_comm_limit_passes(res)
    measured = checks._shrink_residual(res)
    if res[0] > 0 and res[1] > 0:
        assert measured >= res[1] / res[0]


def _fake_convergence(gaps_by_level):
    """A ``convergence_study`` stand-in returning the given gaps."""
    from fuzzylab.spectra import ConvergenceRecord

    def study(schedule, j):
        return [ConvergenceRecord(lam, n, j, level, 0.0, 0.0,
                                  gaps_by_level[j, level][s])
                for s, (lam, n) in enumerate(schedule)
                for level in range(3)]
    return study


def _old_convergence_passes(gaps_by_level):
    floors = [1e-8 / lam**2 for lam in (0.4, 0.2, 0.1)]
    return all(g[s + 1] <= max(g[s], floors[s + 1])
               for g in gaps_by_level.values() for s in range(len(g) - 1))


def _convergence_passes(monkeypatch, gaps_by_level):
    spec = next(c for c in checks.CHECKS if c.check_id == "spectra.convergence")
    monkeypatch.setattr(checks.spc, "convergence_study",
                        _fake_convergence(gaps_by_level))
    residual, _detail = checks._run_convergence(None, CheckConfig())
    return residual, residual <= spec.tol


@pytest.mark.parametrize("gaps", [
    [3e-4, 3.8e-5, 4.5e-6], [1e-3, 1e-3, 1e-3], [1e-3, _UP(1e-3), 1e-4],
    [1e-12, 1e-8 / 0.2**2, 1e-12], [1e-12, _UP(1e-8 / 0.2**2), 1e-12],
    [0.0, 0.0, 0.0], [1e-4, 1e-5, float("nan")], [float("nan"), 1e-5, 1e-6],
    [1e-4, float("inf"), 1e-6],
])
def test_convergence_residual_keeps_the_flag_pass_set(monkeypatch, gaps):
    by_level = {(j, level): [1e-4, 1e-5, 1e-6] for j in (0, 1)
                for level in range(3)}
    by_level[1, 2] = gaps
    residual, passed = _convergence_passes(monkeypatch, by_level)
    assert passed == _old_convergence_passes(by_level)
    if passed:
        assert residual >= max(gaps[1] / max(gaps[0], 1e-8 / 0.2**2), 0.1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=18,
                max_size=18),
       st.sampled_from(["free", "equal", "up", "floor", "above floor"]))
def test_convergence_residual_pass_set_property(gaps, tie):
    if tie != "free":
        floor = 1e-8 / 0.2**2
        gaps[1] = {"equal": gaps[0], "up": _UP(gaps[0]), "floor": floor,
                   "above floor": _UP(floor)}[tie]
        gaps[0] = min(gaps[0], floor) if "floor" in tie else gaps[0]
    by_level = {(j, level): gaps[3 * (3 * j + level):3 * (3 * j + level) + 3]
                for j in (0, 1) for level in range(3)}
    with pytest.MonkeyPatch.context() as mp:
        _residual, passed = _convergence_passes(mp, by_level)
    assert passed == _old_convergence_passes(by_level)


def test_measured_limit_records_pass_and_report_their_quantity():
    config = CheckConfig(suites=["velocity", "spectra"])
    records = {r.check_id: r for r in run_suite(config).records}
    comm = records["velocity.comm_limit"]
    conv = records["spectra.convergence"]
    assert comm.passed and conv.passed
    # residuals fall about 4-fold per halving of lam, 16-fold overall
    assert 0.4 < comm.residual < 0.6
    assert 0.0 < conv.residual < 1.0
    assert "shrink" in comm.detail


def test_acceleration_and_diagnostic_suites_run_through_run_suite():
    report = run_suite(CheckConfig(lams=(0.5,), n_maxes=(6,), n_states=1,
                                   suites=("acceleration", "diagnostic")))
    status = {r.check_id: r.status for r in report.records}
    assert status == {"acceleration.r2": "pass", "acceleration.coulomb": "pass",
                      "acceleration.exp": "pass", "acceleration.constant": "pass",
                      "acceleration.full_hamiltonian": "pass",
                      "diagnostic.kappa1_vv": "observed"}
    assert all(np.isfinite(r.residual) for r in report.records)
    assert report.passed



class _SectorSpy:
    """Stands in for ``checks.spc``: records the j each sector runner asks
    for and hands back placeholder results."""

    def __init__(self):
        self.seen = set()

    def __getattr__(self, name):
        from fuzzylab import spectra
        return getattr(spectra, name)

    def solve_sector(self, space, j, potential, boundary):
        from types import SimpleNamespace
        self.seen.add(j)
        return SimpleNamespace(eigenvalues=np.zeros(1))

    def v2_consistency(self, space, j):
        self.seen.add(j)
        return []

    def build_sector(self, space, j, m, boundary):
        self.seen.add(j)

    def reduce_hamiltonian(self, space, sector, potential):
        return np.zeros((1, 1))

    def radial_hamiltonian(self, space, j, potential, boundary):
        return np.zeros((1, 1)), None


def test_sector_runners_keep_the_old_cutoff_rules(monkeypatch):
    for n_max in range(1, 11):
        # the rules as the runners wrote them before asking sector_shells
        old = {
            checks._run_spectrum_bound: {j for j in (0, 1, 2) if not j > n_max - 1},
            checks._run_v2_consistency: {j for j in (0, 1, 2) if j <= n_max - 3},
            checks._run_m_independence: {j for j in (1, 2) if j <= n_max - 1},
        }
        space = Space(n_max, 0.5)
        for runner, want in old.items():
            spy = _SectorSpy()
            monkeypatch.setattr(checks, "spc", spy)
            try:
                runner(space, CheckConfig())
                skipped = False
            except checks.CheckSkipped:
                skipped = True
            assert spy.seen == want, (runner.__name__, n_max)
            # the bound check has no skip: it reports 0 with no sector
            assert skipped == (not want and runner is not checks._run_spectrum_bound)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False)), st.integers(min_value=0))
def test_worst_is_max_with_zero_and_nan_in_any_position_wins(parts, at):
    assert worst([]) == 0.0
    assert worst(parts).hex() == max([0.0, *parts]).hex()
    assert worst(iter(parts)).hex() == max([0.0, *parts]).hex()
    with_nan = list(parts)
    with_nan.insert(at % (len(parts) + 1), float("nan"))
    assert math.isnan(worst(with_nan))
    assert math.isnan(worst(np.asarray(with_nan)))


def test_a_nan_part_of_a_runner_fails_its_record(monkeypatch):
    reduce = checks.spc.reduce_hamiltonian
    monkeypatch.setattr(checks.spc, "reduce_hamiltonian",
                        lambda *args: reduce(*args) * np.nan)
    report = run_suite(CheckConfig(suites=("spectra",), lams=(0.5,),
                                   n_maxes=(4,), n_states=1))
    (record,) = [r for r in report.records
                 if r.check_id == "spectra.m_independence"]
    assert math.isnan(record.residual)
    assert record.status == "fail" and not report.passed
    assert [r["residual"] for r in _strict_json(report.to_json())["records"]
            if r["check_id"] == "spectra.m_independence"] == [None]
