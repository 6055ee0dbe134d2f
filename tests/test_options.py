"""The `check` option table and the input gate every command passes."""

import dataclasses

import pytest

from fuzzylab import checks
from fuzzylab.checks import OPTIONS, CheckConfig, parse_config_text, run_suite
from fuzzylab.cli import _config_from_args, build_parser, main

#: one non-default value per option, as written in a config file or on the
#: command line
SAMPLES = {
    "lams": "0.3, 0.2", "n_maxes": "9, 10", "seed": "3", "n_states": "2",
    "margin": "fixed:1", "suites": "e4, velocity", "potential": "r2",
    "potential_q": "2.5", "tolerance": "1e-09", "out": "r.json",
    "fmt": "csv",
}


def test_every_config_field_has_exactly_one_option_row():
    fields = [f.name for f in dataclasses.fields(CheckConfig)
              if f.name != "tol_overrides"]
    assert sorted(opt.field for opt in OPTIONS) == sorted(fields)
    for column in ("key", "flag"):
        names = [getattr(opt, column) for opt in OPTIONS]
        assert len(set(names)) == len(names)


@pytest.mark.parametrize("opt", OPTIONS, ids=[opt.key for opt in OPTIONS])
def test_config_key_and_cli_flag_set_the_same_value(opt):
    text = SAMPLES[opt.field]
    from_file = parse_config_text(f"{opt.key} = {text}")
    args = build_parser().parse_args(["check", opt.flag, text])
    from_flag = _config_from_args(args)
    assert getattr(from_file, opt.field) != getattr(CheckConfig(), opt.field)
    assert getattr(from_flag, opt.field) == getattr(from_file, opt.field)
    assert from_flag == from_file
    assert parse_config_text(from_file.to_text()) == from_file


@pytest.mark.parametrize("alias", ["lam", "lams", "n_max", "n_maxes",
                                   "n_states", "suite", "potential_q", "tol",
                                   "fmt"])
def test_alias_keys_are_unknown(alias):
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text(f"{alias} = 1")


def test_threshold_is_override_else_own_tol_else_run_tolerance():
    report = run_suite(CheckConfig(
        lams=(0.5,), n_maxes=(6,), n_states=2, suites=("kinematics",),
        tolerance=1e-9, tol_overrides={"kinematics.LL": 1e-7}))
    threshold = {r.check_id: r.threshold for r in report.records}
    assert threshold["kinematics.LL"] == 1e-7
    assert threshold["kinematics.coordinates"] == 1e-12
    assert threshold["kinematics.radial_scalar"] == 1e-9


def _no_check_may_run(monkeypatch):
    def ran(*args):
        raise AssertionError("a check ran on rejected input")

    monkeypatch.setattr(checks, "Space", ran)


_SMALL = ["--suite", "kinematics", "--lambda", "0.5", "--nmax", "6",
          "--states", "2"]


@pytest.mark.parametrize("config, argv", [
    (None, ["--config", "missing.cfg"]),
    ("format = xml\n", _SMALL),
    ("tol.kinematics.LLL = 1e-30\n", _SMALL),
    (None, ["--suite", "kinematics", "--lambda", "inf", "--nmax", "6"]),
    (None, _SMALL + ["--tol", "nan"]),
    (None, _SMALL + ["--tol", "-1"]),
    (None, ["--q", "nan", "--suite", "spectra", "--lambda", "0.5",
            "--nmax", "6"]),
], ids=["missing-config", "format-xml", "tol-typo", "lambda-inf", "tol-nan",
        "tol-negative", "q-nan"])
def test_check_rejects_bad_input_before_any_check(config, argv, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = ["--config", "run.cfg"] + argv
    _no_check_may_run(monkeypatch)
    assert main(["check"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["spectrum", "--q", "nan", "--potential", "coulomb"],
    ["spectrum", "--lambda", "inf"],
    ["converge", "--q", "inf", "--potential", "coulomb", "--schedule", "0.4:9"],
    ["converge", "--levels", "0"],
], ids=["spectrum-q-nan", "spectrum-lambda-inf", "converge-q-inf",
        "converge-levels-0"])
def test_spectrum_and_converge_reject_bad_input(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_spectrum_has_no_seed_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["suites", "lams", "n_maxes"])
def test_empty_lists_round_trip_as_text(field):
    config = CheckConfig(**{field: ()})
    assert getattr(parse_config_text(config.to_text()), field) == ()
    assert parse_config_text(config.to_text()) == config


def test_empty_lambda_list_is_rejected_by_the_config_gate(tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(CheckConfig(lams=()).to_text())
    _no_check_may_run(monkeypatch)
    assert main(["check", "--config", "run.cfg"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no lambda given\n" and captured.out == ""
    assert run_suite(CheckConfig(suites=())).records == []


@pytest.mark.parametrize("argv", [
    ["--nmax", "12", "--margin", "fixed:13"],
    ["--lambda", "0.5,0.1", "--nmax", "6,12", "--margin", "fixed:7"],
], ids=["one-nmax", "smallest-of-two"])
def test_check_rejects_fixed_margin_above_the_cutoff(argv, monkeypatch,
                                                     capsys):
    _no_check_may_run(monkeypatch)
    assert main(["check", "--suite", "kinematics"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "n_max" in captured.err
    assert captured.out == ""


def test_check_runs_fixed_margin_equal_to_the_cutoff(capsys):
    assert main(["check", "--suite", "kinematics", "--nmax", "12",
                 "--margin", "fixed:12", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "margin 12," in out and "ERROR" not in out


def test_each_layer_rejects_its_own_bad_input_with_its_message(monkeypatch,
                                                               capsys):
    from fuzzylab.fock import (coordinate_matrix, enumerate_basis,
                               ladder_matrix, state_from_text)
    from fuzzylab.operators import Space
    from fuzzylab.spectra import shell_state
    _no_check_may_run(monkeypatch)
    assert main(["check", "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    basis, space = enumerate_basis(3), Space(3, 0.5)
    for call, message in [
            (lambda: enumerate_basis(-1), "n_max must be >= 0"),
            (lambda: ladder_matrix(basis, 3), "mode must be 1 or 2"),
            (lambda: coordinate_matrix(basis, 4, 0.5), "j must be 1, 2 or 3"),
            (lambda: state_from_text("junk"), "not a fuzzylab ncstate v1"),
            (lambda: shell_state(space, 1, 0, 3), "outside the truncated space"),
            (lambda: space.ladder("L", 1, False).packed_matrix(0),
             "is not one matrix on charge 0")]:
        with pytest.raises(ValueError, match=message):
            call()
