"""Mutation gate: every mutant below must make a tier-1 test it names fail.

    python3 mutation/run.py

For each mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml``
of this checkout to a fresh temporary directory, replaces one exact snippet
of one program file there, and runs the tier-1 tests the mutant names in
that directory, so that pytest's ``pythonpath = ["src"]`` imports the
mutated copy.  A mutant is "killed" when those tests fail.  The named tests
first run once on the unmutated copy and must pass there.

A snippet that is missing, or occurs more than once, stops the run before
any test: a refactor updates this list on purpose.  The exit status is 1 if
any mutant survives and 2 if the gate cannot run.  Uses only the stdlib
(and pytest, which tier-1 needs anyway).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "fuzzylab"

#: the test that pins every proof transcript byte for byte
TRANSCRIPTS = ("tests/test_cli.py::"
               "test_cli_prove_all_transcripts_match_golden_file")

#: the test that pins the one-pass canonical forms to two-pass references
ONE_PASS = ("tests/test_algebra.py::"
            "test_one_pass_canonical_forms_match_the_two_pass_references")

#: the test that pins the coefficient reader to ``cancel(together(c))``
ROUTING = "tests/test_algebra.py::test_canonical_coeff_is_cancel_of_together"

#: the test that runs four suites at lambda = 1e-6, 0.1 and 1e3
UNIT_FREE = "tests/test_checks.py::test_verdicts_do_not_depend_on_the_unit_of_length"

#: (name, file under src/fuzzylab, old snippet, new snippet, tests)
MUTANTS = [
    ("skip recorded as a pass", "checks.py",
     'f"skipped: {exc}", False\n                status = "skip"',
     'f"skipped: {exc}", True\n                status = "pass"',
     ["tests/test_checks.py::test_spectra_checks_without_a_sector_skip_and_fail_the_run"]),
    ("ValueError recorded as a pass", "checks.py",
     'f"error: {exc}", False\n                status = "error"',
     'f"error: {exc}", True\n                status = "pass"',
     ["tests/test_cli.py::test_value_error_inside_a_check_fails_its_record"]),
    ("NaN allowed in JSON", "report.py",
     "json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,\n"
     "                          allow_nan=False)",
     "json.dumps(payload, indent=2, sort_keys=True,\n"
     "                          allow_nan=True)",
     ["tests/test_cli.py::test_cli_json_report_writes_null_for_errors"]),
    ("commutator coefficients replaced by their moduli", "checks.py",
     "(c * cache.apply(op, psi, (psi,))",
     "(abs(c) * cache.apply(op, psi, (psi,))",
     ["tests/test_checks.py::test_negated_target_coefficient_gives_order_one_residual"]),
    ("+1 delta for both families", "algebra.py",
     'delta = 1 if g1[0] == "a" else -1',
     "delta = 1",
     ["tests/test_algebra.py::test_memoized_rewrite_matches_worklist_on_short_words"]),
    ("number-relation shift s off by one", "algebra.py",
     "s = sum(1 for g in w if g[0] == fam and g[1]) - 1",
     "s = sum(1 for g in w if g[0] == fam and g[1])",
     ["tests/test_algebra.py::test_memoized_rewrite_matches_worklist_on_short_words"]),
    ("operator cache keyed by name", "checks.py",
     "k = (op,) + key",
     "k = (op.name,) + key",
     ["tests/test_cli.py::test_op_cache_tells_same_named_operators_apart"]),
    ("Leibniz pair memo ignores B", "operators.py",
     "self._pair[0] is not A or self._pair[1] is not B",
     "self._pair[0] is not A",
     ["tests/test_packed_states.py::test_leibniz_correction_matches_dense_formula",
      "tests/test_packed_states.py::"
      "test_leibniz_pair_memo_matches_a_fresh_space_bit_for_bit"]),
    ("draw memo ignores support_max", "operators.py",
     "key = (seed, kappa, support_max)",
     "key = (seed, kappa)",
     ["tests/test_operators.py::test_hermiticity_under_weighted_inner_product",
      "tests/test_checks.py::"
      "test_hermiticity_pairs_two_states_even_when_one_is_asked",
      "tests/test_packed_states.py::"
      "test_seeded_draws_are_memoized_per_space_bit_for_bit"]),
    ("Space memo keys a radial function by name", "operators.py",
     "(a.name, a.lam, a.values.tobytes()) if isinstance(a, RadialFunction)",
     "a.name if isinstance(a, RadialFunction)",
     ["tests/test_operators.py::test_space_operators_are_memoized"]),
    ("leaf-map column offset off by one", "fock.py",
     "out = dst.offset[row] + col - shell_start(shells[col])",
     "out = dst.offset[row] + col - shell_start(shells[col]) + 1",
     ["tests/test_operators.py::test_compiled_path_matches_tree_walk"]),
    ("right-side shift sign dropped", "fock.py",
     "* (1 if left else -1)",
     "* 1",
     ["tests/test_operators.py::test_compiled_path_matches_tree_walk"]),
    ("inner-product weights read the column", "fock.py",
     "self.r_diag[self.basis.packing(kappa).rows]",
     "self.r_diag[self.basis.packing(kappa).cols]",
     ["tests/test_packed_states.py::test_inner_product_matches_dense_formula"]),
    ("grid coefficient takes (column, row)", "operators.py",
     "coefficient(packing.rows, packing.cols)",
     "coefficient(packing.cols, packing.rows)",
     ["tests/test_operators.py::test_compiled_path_matches_tree_walk"]),
    ("shell start N(N - 1)/2", "fock.py",
     "return n * (n + 1) // 2",
     "return n * (n - 1) // 2",
     ["tests/test_fock.py::test_basis_is_bijective_and_shell_ordered"]),
    ("grid pole rows dropped", "operators.py",
     "checks += (mat[hit],)",
     "checks += ()",
     ["tests/test_algebra.py::test_to_superop_pole_masking_and_error"]),
    ("stacked grid reads the stacked row", "operators.py",
     "coefficient(cur.row % dim, cur.col % dim)",
     "coefficient(cur.row, cur.col % dim)",
     ["tests/test_operators.py::"
      "test_stacked_walk_equals_single_walks_bit_for_bit",
      "tests/test_operators.py::"
      "test_stacked_walk_raises_the_single_walk_pole_error_from_any_block"]),
    ("one-pass sector norms read the next shells", "spectra.py",
     "np.sqrt(space.ip.by_shell(total, total)[shells].real)",
     "np.sqrt(space.ip.by_shell(total, total)[np.add(shells, 1)].real)",
     ["tests/test_spectra.py::"
      "test_one_pass_sector_norms_equal_per_state_norms"]),
    ("compose drops the outer checks", "operators.py",
     "checks + tuple((c @ m1).tocsr() for c in more)",
     "checks",
     ["tests/test_algebra.py::test_pole_check_survives_composition"]),
    ("eps sign flipped in the radial-shift contraction", "identities.py",
     "t_rad = _eps_sum(k, lambda",
     "t_rad = (-1) * _eps_sum(k, lambda",
     [TRANSCRIPTS]),
    ("kappa reduction shifts r_R the wrong way", "algebra.py",
     "R - LAM * (db - da)",
     "R + LAM * (db - da)",
     # every word of the five proofs has charge shift 0, so only a
     # charge-raising word tells the two signs apart
     [TRANSCRIPTS,
      "tests/test_algebra.py::test_kappa_reduce_shifts_right_radius_by_word_charge"]),
    ("the rewrite pass keeps zero terms", "algebra.py",
     "terms={w: c for w, c in clean.items() if c != 0}",
     "terms=clean",
     [TRANSCRIPTS]),
    ("canonical form without cancel", "algebra.py",
     "p, q = num.cancel(math.prod(",
     "p, q = num, (math.prod(",
     [TRANSCRIPTS, ONE_PASS]),
    ("sum term not brought to the common denominator", "algebra.py",
     "sum((math.prod((f**(k - d.get(f, 0)) for f, k in den.items()), start=n)",
     "sum((n",
     [TRANSCRIPTS, ONE_PASS, ROUTING]),
    ("coefficient reader lets every number in", "algebra.py",
     "e.is_Rational or e is sI",
     "e.is_number",
     [ROUTING]),
    ("kappa reduction canonicalizes before substituting", "algebra.py",
     "_canonical_coeff(c.xreplace({RR: R - LAM * (db - da)}) if kappa else c)",
     "_canonical_coeff(c).xreplace({RR: R - LAM * (db - da)}) if kappa "
     "else _canonical_coeff(c)",
     [ONE_PASS]),
    ("[a_b, x_j] term of the Leibniz correction sign-flipped", "identities.py",
     "+ ann_x * (aL_dag(al) - aR_dag(al))",
     "- ann_x * (aL_dag(al) - aR_dag(al))",
     [TRANSCRIPTS]),
    ("double-commutator H0 with a + inside", "identities.py",
     "(aL_dag(al) - aR_dag(al)) * (aL(al) - aR(al))",
     "(aL_dag(al) + aR_dag(al)) * (aL(al) - aR(al))",
     [TRANSCRIPTS]),
    ("V_4 with a - between its two terms", "identities.py",
     "aL_dag(al) * aR(al) + aL(al) * aR_dag(al) for al",
     "aL_dag(al) * aR(al) - aL(al) * aR_dag(al) for al",
     [TRANSCRIPTS]),
    ("sig.A target takes +w", "identities.py",
     '("A", A_hat, -1)',
     '("A", A_hat, 1)',
     [TRANSCRIPTS]),
    ("worst drops NaN", "report.py",
     "math.nan if any(map(math.isnan, parts)) else max(parts)",
     "max(parts)",
     ["tests/test_checks.py::"
      "test_worst_is_max_with_zero_and_nan_in_any_position_wins",
      "tests/test_checks.py::test_a_nan_part_of_a_runner_fails_its_record"]),
    ("eigenpair check lets NaN through", "spectra.py",
     "np.flatnonzero(~(res <= 1e-8 * scale))",
     "np.flatnonzero(res > 1e-8 * scale)",
     ["tests/test_spectra.py::test_eigen_solve_raises_on_a_matrix_holding_nan"]),
    ("non-finite potential accepted", "operators.py",
     "np.isfinite(self.values))\n        if bad.size:",
     "np.isfinite(self.values))\n        if False:",
     ["tests/test_operators.py::"
      "test_radial_function_rejects_non_finite_values_naming_the_shell"]),
    ("records keep the caller's j", "spectra.py",
     "j=result.j",
     "j=j",
     ["tests/test_spectra.py::"
      "test_sector_results_and_records_hold_j_as_an_int"]),
    ("V2H target with +lam^2 H0^2", "checks.py",
     "- s.lam**2 * (s.free_hamiltonian() @ s.free_hamiltonian())",
     "+ s.lam**2 * (s.free_hamiltonian() @ s.free_hamiltonian())",
     ["tests/test_checks.py::test_every_equation_check_is_exact[quadratic.V2H]"]),
    ("velocity form against +i[X_j, H0]", "checks.py",
     "-1.0j * s.position(j).commutator(s.free_hamiltonian())",
     "1.0j * s.position(j).commutator(s.free_hamiltonian())",
     ["tests/test_cli.py::test_cli_check_fixed_margin_reaches_commutator_records"]),
    ("coordinate algebra factor i lam", "checks.py",
     "2.0j * s.lam",
     "1.0j * s.lam",
     ["tests/test_cli.py::test_cli_check_exit_codes"]),
    ("ladder commutator without its delta", "checks.py",
     "one if al == be else ()",
     "()",
     ["tests/test_cli.py::test_cli_check_exit_codes",
      "tests/test_options.py::test_check_runs_fixed_margin_equal_to_the_cutoff"]),
    ("acceleration target -i A_i", "checks.py",
     "((1.0j, s.acceleration_decomposed(i, pot)),)",
     "((-1.0j, s.acceleration_decomposed(i, pot)),)",
     ["tests/test_checks.py::test_every_equation_check_is_exact[acceleration.r2]"]),
    ("cross-validation deviation not relative", "identities.py",
     "/ max(space.ip.norm(v) for v in (lhs, rhs, psi))",
     "/ 1.0",
     [UNIT_FREE]),
    ("kappa = 1 diagnostic scaled by |psi|", "checks.py",
     "margin, [v12, v21])",
     "margin, [psi])",
     [UNIT_FREE]),
]


def _copy_tree(dest: Path) -> Path:
    dest.mkdir()
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def _passes(tree: Path, tests) -> bool:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the copy's src comes from pyproject.toml
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    for name, path, old, _new, _tests in MUTANTS:
        count = (ROOT / PACKAGE / path).read_text().count(old)
        if count != 1:
            print(f"error: mutant {name!r}: its snippet occurs {count} times "
                  f"in {PACKAGE / path}, not once", file=sys.stderr)
            return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fuzzylab-mutation-") as tmp:
        tests = sorted({t for m in MUTANTS for t in m[4]})
        if not _passes(_copy_tree(Path(tmp) / "base"), tests):
            print("error: the named tests fail on the unmutated code",
                  file=sys.stderr)
            return 2
        survivors = 0
        for k, (name, path, old, new, tests) in enumerate(MUTANTS):
            t0 = time.perf_counter()
            tree = _copy_tree(Path(tmp) / f"mutant{k}")
            target = tree / PACKAGE / path
            target.write_text(target.read_text().replace(old, new))
            killed = not _passes(tree, tests)
            survivors += not killed
            print(f"{'killed' if killed else 'survived':8s} {name} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
