import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fuzzylab import checks
from fuzzylab.checks import (CheckConfig, POTENTIALS, SUITES,
                             parse_config_text, potential_fn, run_suite)
from fuzzylab.cli import main
from fuzzylab.operators import Space
from fuzzylab.report import (CheckRecord, VerificationReport, emit_report,
                             report_from_json)


def small_config(**kw):
    base = dict(lams=(0.5,), n_maxes=(6,), n_states=2,
                suites=("kinematics",))
    base.update(kw)
    return CheckConfig(**base)


def test_config_text_round_trip(tmp_path):
    text = """
    # sample configuration
    lambda = 0.1, 0.5
    nmax = 8, 12
    seed = 11
    states = 7
    margin = fixed:2
    suites = kinematics, quadratic
    potential = coulomb
    q = 2.0
    tolerance = 1e-9
    tol.quadratic.V2H = 1e-8
    format = csv
    """
    cfg = parse_config_text(text)
    assert cfg.lams == (0.1, 0.5)
    assert cfg.n_maxes == (8, 12)
    assert cfg.seed == 11 and cfg.n_states == 7
    assert cfg.margin == "fixed:2"
    assert cfg.suites == ("kinematics", "quadratic")
    assert cfg.potential_q == 2.0
    assert cfg.tol_overrides == {"quadratic.V2H": 1e-8}
    assert cfg.fmt == "csv"


def test_config_serialization_round_trip():
    cfg = CheckConfig(lams=(0.05, 1.0), n_maxes=(8, 16), seed=3, n_states=9,
                      margin="fixed:1", suites=("e4", "spectra"),
                      potential="r2", potential_q=0.5, tolerance=1e-9,
                      tol_overrides={"e4.VV": 1e-8}, out="x.json", fmt="csv")
    assert parse_config_text(cfg.to_text()) == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("wibble = 3")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just some words")


def test_run_suite_empty_is_success():
    report = run_suite(small_config(suites=()))
    assert report.records == []
    assert report.passed


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suites"):
        run_suite(small_config(suites=("nonsense",)))


def test_report_json_round_trip():
    report = run_suite(small_config())
    back = report_from_json(report.to_json())
    assert back.records == report.records
    assert back.config == report.config


def test_report_csv_row_count_and_text_statements():
    report = run_suite(small_config())
    csv_text = report.to_csv()
    assert len(csv_text.strip().splitlines()) == len(report.records) + 1
    text = report.to_text()
    for record in report.records:
        assert record.statement in text


def test_report_determinism():
    a = run_suite(small_config())
    b = run_suite(small_config())
    assert [r.residual for r in a.records] == [r.residual for r in b.records]


def test_diagnostic_never_fails_report():
    report = VerificationReport(config={}, records=[
        CheckRecord("d", "diagnostic", "x != 0", {}, 0.0, 1e-3, False,
                    kind="diagnostic"),
        CheckRecord("c", "s", "x = 0", {}, 0.0, 1e-10, True),
    ])
    assert report.passed
    assert report.summary()["diagnostics_observed"] == 0


def test_emit_report_formats():
    report = run_suite(small_config())
    for fmt, render in (("json", report.to_json), ("csv", report.to_csv),
                        ("text", report.to_text)):
        assert emit_report(report, fmt) == render()
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_cli_check_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    code = main(["check", "--suite", "kinematics", "--lambda", "0.5",
                 "--nmax", "6", "--states", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["failed"] == 0
    # an absurd override forces a failing (nonzero) residual check
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("suites = hermiticity\nlambda = 0.5\nnmax = 6\n"
                   "states = 2\ntol.hermiticity.operators = 1e-60\n")
    code = main(["check", "--config", str(cfg)])
    assert code == 1
    assert main(["check", "--suite", "bogus", "--lambda", "0.5",
                 "--nmax", "6"]) == 2


def test_cli_prove(tmp_path):
    out = tmp_path / "proof.txt"
    assert main(["prove", "--identity", "velocity-form",
                 "--out", str(out)]) == 0
    assert "verdict: proved" in out.read_text()


def test_prove_help_lists_the_identity_names(capsys):
    from fuzzylab import cli, identities
    assert cli.PROVE_NAMES == identities.IDENTITY_NAMES
    with pytest.raises(SystemExit):
        main(["prove", "--help"])
    help_text = "".join(capsys.readouterr().out.split())
    assert "".join(str(identities.IDENTITY_NAMES).split()) in help_text


def test_cli_prove_rejects_unknown_identity(capsys):
    assert main(["prove", "--identity", "bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bogus" in err


def test_cli_spectrum_files_and_determinism(tmp_path):
    args = ["spectrum", "--potential", "coulomb", "--q", "1", "--j", "0",
            "--lambda", "0.8,0.4,0.2", "--nmax", "9,19,39", "--format", "csv",
            "--out", str(tmp_path / "spec")]
    assert main(args) == 0
    files = sorted(tmp_path.glob("spec.lam*.csv"))
    assert len(files) == 3  # one result file per lambda ...
    table = tmp_path / "spec.convergence.csv"
    assert table.exists()  # ... plus one oracle-comparison table
    assert len(table.read_text().strip().splitlines()) == 1 + 3 * 3
    first = {f.name: f.read_bytes() for f in tmp_path.glob("spec.*")}
    assert main(args) == 0
    for f in tmp_path.glob("spec.*"):
        assert f.read_bytes() == first[f.name]


def test_cli_spectrum_free_reports_cutoff(tmp_path, capsys):
    assert main(["spectrum", "--potential", "free", "--j", "1",
                 "--lambda", "0.5", "--nmax", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["below_cutoff"] is True
    assert payload["max_energy"] <= payload["cutoff"] + 1e-8


def test_cli_rejects_half_integer_j(capsys):
    assert main(["spectrum", "--j", "0.5", "--lambda", "0.5",
                 "--nmax", "8"]) == 2
    err = capsys.readouterr().err
    assert "half-integer" in err


def test_cli_converge_table(tmp_path):
    out = tmp_path / "conv.csv"
    args = ["converge", "--potential", "free", "--j", "1",
            "--schedule", "0.8:9,0.4:19", "--levels", "2",
            "--out", str(out)]
    assert main(args) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lam,n_max,j,level,E_nc,E_oracle,gap"
    assert len(lines) == 1 + 2 * 2
    blob = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == blob


def test_potentials_registry():
    assert set(POTENTIALS) >= {"free", "coulomb", "r2", "exp"}
    assert POTENTIALS["coulomb"](2.0) == -0.5
    assert "diagnostic" in SUITES


def test_potential_fn_scales_by_q():
    assert potential_fn("free", 3.0) is None
    assert potential_fn("coulomb", 2.0)(4.0) == -0.5
    assert potential_fn("r2", 3.0)(2.0) == 12.0
    assert potential_fn("exp", 0.5)(1.0) == 0.5 * POTENTIALS["exp"](1.0)
    with pytest.raises(ValueError, match="unknown potential"):
        potential_fn("bogus", 1.0)


def test_check_potential_honors_q():
    space = Space(6, 0.5)
    cfg = small_config(potential="r2", potential_q=2.0)
    pot = checks._config_potential(space, cfg)
    r = space.lam * (np.arange(space.n_max + 1) + 1.0)
    assert np.array_equal(pot.values, 2.0 * r * r)


def test_run_suite_rejects_unknown_potential():
    with pytest.raises(ValueError, match="unknown potential"):
        run_suite(small_config(potential="bogus"))


@pytest.mark.parametrize("argv", [
    ["check", "--suite", "kinematics", "--lambda", "0.5", "--nmax", "6",
     "--potential", "bogus"],
    ["spectrum", "--lambda", "0.5", "--nmax", "8", "--potential", "bogus"],
    ["converge", "--schedule", "0.8:9", "--potential", "bogus"],
])
def test_cli_rejects_unknown_potential(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bogus" in err


def test_brute_force_check_measures_above_nmax_6():
    residual, detail = checks._run_brute_force(Space(8, 0.5), CheckConfig())
    assert np.isfinite(residual) and residual <= 1e-8
    assert "skipped" not in detail and "n_max 6" in detail


@pytest.mark.parametrize("bad", [
    {"lams": (-0.1,)}, {"lams": (0.5, 0.0)}, {"lams": (float("nan"),)},
    {"lams": ()}, {"n_maxes": (0,)}, {"n_states": 0},
    {"margin": "fixed:-1"}, {"margin": "fixed:"}, {"margin": "bogus"},
])
def test_run_suite_rejects_bad_config(bad):
    with pytest.raises(ValueError):
        run_suite(small_config(**bad))


def test_cli_check_rejects_negative_lambda(capsys):
    assert main(["check", "--suite", "kinematics", "--lambda", "-0.1",
                 "--nmax", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "passed" not in captured.out


def test_value_error_inside_a_check_fails_its_record(monkeypatch):
    def broken(space, config):
        raise ValueError("boom")

    monkeypatch.setattr(checks.CHECKS[0], "runner", broken)
    report = run_suite(small_config())
    rec = next(r for r in report.records
               if r.check_id == checks.CHECKS[0].check_id)
    assert not rec.passed and rec.detail == "error: boom"
    assert not report.passed


def test_symbolic_proofs_residual_counts_failures(monkeypatch):
    from fuzzylab import identities as idn
    from fuzzylab.algebra import R, aL, coeff

    def failing():
        return idn.IdentityResult(
            "velocity-form", "forced failure",
            residuals={"i=1": (coeff(R) * aL(1)).normal()},
            intermediates=[("quoted form", "", False)])

    monkeypatch.setitem(idn._PROVERS, "velocity-form", failing)
    monkeypatch.setattr(idn, "_PROOFS", {})
    report = run_suite(small_config(suites=("symbolic",)))
    rec = {r.check_id: r for r in report.records}
    assert rec["symbolic.proofs"].residual == 2.0 > 0.5
    assert not rec["symbolic.proofs"].passed
    assert "velocity-form" in rec["symbolic.proofs"].detail
    assert rec["symbolic.pauli"].residual == 0.0


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lambda", "-0.1"],
    ["spectrum", "--j", "9", "--nmax", "8"],
    ["spectrum", "--j", "8", "--nmax", "7", "--boundary", "hard"],
    ["spectrum", "--j", "-1"],
])
def test_cli_spectrum_rejects_bad_input(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("schedule", ["0.5", "0.4:x", "-0.4:19", "0.4:0"])
def test_cli_converge_rejects_bad_schedule(schedule, capsys):
    assert main(["converge", f"--schedule={schedule}"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_op_cache_tells_same_named_operators_apart():
    from fuzzylab.operators import RadialFunction
    space = Space(6, 0.5)
    coulomb = RadialFunction.from_callable(lambda r: -1.0 / r, 0.5, 6, "c")
    square = RadialFunction.from_callable(lambda r: r * r, 0.5, 6, "s")
    h1, h2 = space.hamiltonian(coulomb), space.hamiltonian(square)
    assert h1.name == h2.name
    psi = space.random_state(3, 0, 5)
    cache = checks._OpCache()
    a = cache.apply(h1, psi, (0,))
    b = cache.apply(h2, psi, (0,))
    assert (a - b).absmax() > 0.1
    assert cache.apply(h1, psi, (0,)) is a


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_cli_json_report_writes_null_for_errors(capsys):
    code = main(["check", "--suite", "quadratic,diagnostic", "--lambda", "0.5",
                 "--nmax", "1", "--states", "1", "--format", "json"])
    text = capsys.readouterr().out
    assert code == 1
    assert "NaN" not in text
    payload = _strict_json(text)
    assert payload["schema_version"] == 2
    errors = [r for r in payload["records"] if r["status"] == "error"]
    assert len(errors) == payload["summary"]["errors"] == 5
    assert all(r["residual"] is None for r in errors)
    assert all(r["detail"].startswith("error: ") for r in errors)
    back = report_from_json(text)
    assert not back.passed
    assert all(np.isnan(r.residual) for r in back.records if r.status == "error")


def test_errored_diagnostic_fails_the_run(capsys):
    code = main(["check", "--suite", "diagnostic", "--lambda", "0.5",
                 "--nmax", "1", "--states", "1", "--format", "json"])
    payload = _strict_json(capsys.readouterr().out)
    assert code == 1
    (record,) = payload["records"]
    assert record["kind"] == "diagnostic" and record["status"] == "error"
    assert payload["summary"]["errors"] == 1
    # a diagnostic that ran and saw nothing still never fails a run
    quiet = CheckRecord("d", "diagnostic", "x != 0", {}, 0.0, 1e-3, False,
                        kind="diagnostic")
    assert quiet.status == "quiet"
    assert VerificationReport(config={}, records=[quiet]).passed


def test_report_from_json_reads_schema_v1():
    v1 = """{"schema_version": 1, "config": {}, "summary": {}, "records": [
      {"check_id": "a", "suite": "s", "statement": "x = 0", "params": {},
       "residual": 0.0, "threshold": 1e-10, "passed": true,
       "kind": "identity", "wall_time_ms": 1.0, "detail": ""},
      {"check_id": "d", "suite": "diagnostic", "statement": "x != 0",
       "params": {}, "residual": NaN, "threshold": 0.001, "passed": false,
       "kind": "diagnostic", "wall_time_ms": 1.0,
       "detail": "error: support_max exceeds n_max"}]}"""
    report = report_from_json(v1)
    assert [r.status for r in report.records] == ["pass", "error"]
    assert not report.passed
    with pytest.raises(ValueError):
        report_from_json(v1.replace('"schema_version": 1', '"schema_version": 3'))


def test_cli_converge_notes_points_with_fewer_levels(capsys):
    base = ["converge", "--potential", "free", "--j", "0",
            "--schedule", "0.4:3,0.2:12"]
    assert main(base + ["--levels", "3"]) == 0
    want = capsys.readouterr()
    assert want.err == ""
    assert main(base + ["--levels", "9"]) == 0
    got = capsys.readouterr()
    notes = got.err.splitlines()
    assert len(notes) == 1 and notes[0].startswith("note: ")
    assert "0.4:3" in notes[0] and "0.2:12" not in notes[0]
    lines = got.out.splitlines()
    assert lines[:4] == want.out.splitlines()[:4]
    assert len([ln for ln in lines if ln.startswith("0.4,")]) == 3
    assert len([ln for ln in lines if ln.startswith("0.2,")]) == 9


def test_cli_check_fixed_margin_reaches_commutator_records(capsys):
    assert main(["check", "--suite", "velocity", "--margin", "fixed:3",
                 "--nmax", "8"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    commutators = [r for r in records if r["statement"].startswith("[")]
    assert len(commutators) == 6
    for rec in commutators:
        assert rec["detail"].startswith("margin 3,"), rec["check_id"]


def test_cli_converge_notes_bound_levels_only_when_present(capsys):
    schedule = ["--schedule", "0.4:19,0.2:39"]
    assert main(["converge", "--potential", "coulomb"] + schedule) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "# bound levels present: 4 records with E < 0" in lines
    scaling = [ln for ln in lines if ln.startswith("# deepest-level scaling: ")]
    assert len(scaling) == 1
    assert "lam=0.2: E_min=" in scaling[0] and "lam=0.4: E_min=" in scaling[0]
    assert main(["converge", "--potential", "free"] + schedule) == 0
    assert "#" not in capsys.readouterr().out


def test_cli_spectrum_text_lists_the_json_levels(capsys):
    args = ["spectrum", "--lambda", "0.5", "--nmax", "8", "--j", "1"]
    assert main(args + ["--format", "json"]) == 0
    levels = json.loads(capsys.readouterr().out)["levels"]
    assert main(args + ["--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# potential=free lam=0.5 n_max=8 j=1")
    assert lines[2:] == [f"level {k}: {e!r}" for k, e in enumerate(levels)]


def test_cli_spectrum_rejects_nmax_count_mismatch(capsys):
    assert main(["spectrum", "--lambda", "0.5,0.4", "--nmax", "8,9,10"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --nmax needs one value")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["prove", "--identity", "velocity-form"],
    ["spectrum", "--lambda", "0.5", "--nmax", "6"],
    ["spectrum", "--lambda", "0.5,0.25", "--nmax", "6,13"],
    ["converge", "--schedule", "0.5:7"],
    ["check", "--suite", "kinematics", "--lambda", "0.5", "--nmax", "4",
     "--states", "1"],
], ids=["prove", "spectrum", "spectrum-schedule", "converge", "check"])
def test_cli_unwritable_out_is_an_error_line_and_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "result"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_cli_sector_errors_come_from_the_library_rule(capsys):
    assert main(["spectrum", "--j", "9.0", "--nmax", "8"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: n_max too small: j=9 with the dirichlet boundary "
                   "needs n_max >= 10; got 8\n")
    assert main(["converge", "--j", "2", "--schedule", "0.5:7,0.25:2"]) == 2
    assert "needs n_max >= 3; got 2" in capsys.readouterr().err


def test_cli_prove_all_transcripts_match_golden_file(tmp_path):
    out = tmp_path / "proofs.txt"
    assert main(["prove", "--identity", "all", "--out", str(out)]) == 0
    golden = Path(__file__).parent / "data" / "proof_transcripts.txt"
    assert out.read_bytes() == golden.read_bytes()


def test_margin_errors_name_the_margin_and_n_max(capsys):
    code = main(["check", "--suite", "velocity,quadratic", "--nmax", "1",
                 "--lambda", "0.5", "--states", "1", "--format", "json"])
    payload = _strict_json(capsys.readouterr().out)
    assert code == 1
    errors = [r for r in payload["records"] if r["status"] == "error"]
    assert errors
    for r in errors:
        assert "margin 2" in r["detail"] and "n_max 1" in r["detail"], r


def test_cli_spectrum_schedule_checks_the_dirichlet_table_before_writing(
        tmp_path, capsys):
    # the hard wall holds j = 1 at n_max 1; the convergence table's
    # Dirichlet wall does not, so nothing may be written
    out = tmp_path / "s"
    assert main(["spectrum", "--boundary", "hard", "--j", "1", "--lambda",
                 "0.5,0.4", "--nmax", "1,1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: n_max too small: j=1 with the dirichlet "
                            "boundary needs n_max >= 2; got 1\n")
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    # one lambda writes no table, so the hard-wall sector alone decides
    assert main(["spectrum", "--boundary", "hard", "--j", "1", "--lambda",
                 "0.5", "--nmax", "1", "--out", str(out)]) == 0


def test_cli_prove_unknown_identity_prints_the_plain_message(capsys):
    assert main(["prove", "--identity", "bogus"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown identity 'bogus'; have ['acceleration', "
        "'correction-sum', 'quadratic-relation', 'velocity-commutator', "
        "'velocity-form']\n")


def test_check_with_a_non_finite_hamiltonian_fails_m_independence(capsys):
    code = main(["check", "--q", "1e308", "--suite", "spectra",
                 "--format", "json"])
    payload = _strict_json(capsys.readouterr().out)
    assert code == 1
    (record,) = [r for r in payload["records"]
                 if r["check_id"] == "spectra.m_independence"]
    assert record["status"] != "pass" and record["residual"] is None


@pytest.mark.parametrize("command", ["spectrum", "converge"])
def test_non_finite_spectrum_is_an_error_line_and_exit_2(command, capsys):
    code = main([command, "--potential", "coulomb", "--q", "1e308"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    # the potential overflows at lam = 0.04 only, after lam = 0.5 has solved
    ["--potential", "coulomb", "--q", "1e307", "--lambda", "0.5,0.04",
     "--nmax", "5,5", "--format", "csv"],
    # the second point cannot hold the j = 1 sector
    ["--j", "1", "--lambda", "0.5,0.4", "--nmax", "8,0"],
])
def test_spectrum_that_fails_at_a_later_point_writes_nothing(
        argv, tmp_path, capsys):
    assert main(["spectrum", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error:")
    assert main(["spectrum", *argv, "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["spectrum", "converge"])
def test_overflowing_potential_prints_only_its_error_line(command):
    src = str(Path(checks.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzylab.cli", command, "--potential", "coulomb",
         "--q", "1e308"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: coulomb is not finite on shell 0: -inf\n"


@pytest.mark.parametrize("lam", ["1e-300", "1e200"])
@pytest.mark.parametrize("argv", [
    ["check", "--suite", "kinematics", "--nmax", "4", "--lambda"],
    ["spectrum", "--lambda"],
    ["converge", "--schedule"],
])
def test_lambda_outside_the_band_is_one_error_line_and_exit_2(argv, lam, capsys):
    arg = f"{lam}:4" if argv[0] == "converge" else lam
    assert main([*argv, arg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: lambda must lie in [1e-30, 1e30]; got {float(lam)!r}\n"


def test_check_help_lists_the_csv_columns_in_order(capsys):
    from fuzzylab.report import CSV_COLUMNS
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"CSV columns: {', '.join(CSV_COLUMNS)}" in help_text
