"""Self-tests of the benchmark: toy-size workloads, gates and tracer counts.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fuzzylab  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fuzzylab.report import CheckRecord  # noqa: E402

# At the toy size the finest spectra point is lam = 0.4, whose ground level
# is within the 5% oracle gate only while the Coulomb well binds it clearly;
# seeds 0 and 1 give q = 0.5 and 0.5625, where it is.
SEED = 0


def failed_ops(out):
    return [name for name, ok, _detail in out.ops if not ok]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_passes_at_toy_size(name):
    out = workloads.run(name, SEED, "toy")
    assert out.ops
    assert failed_ops(out) == []


def test_skipped_or_nan_record_fails_gate():
    def record(residual, detail=""):
        return CheckRecord(check_id="x", suite="s", statement="", params={},
                           residual=residual, threshold=1e-10, passed=True,
                           detail=detail)

    out = workloads.Outcome()
    workloads.gate_records([record(float("nan"), "skipped: lam must be positive"),
                            record(float("nan")), record(1e-3), record(0.0)], out)
    assert [ok for _name, ok, _detail in out.ops] == [False, False, False, True]


def test_wrong_reference_eigenvalue_fails_gate():
    q = workloads.coulomb_q(SEED)
    values = workloads.spectra_values(q, "toy")
    reference = workloads.load_reference("toy", q)
    good = workloads.Outcome()
    workloads.gate_spectra(values, reference, good)
    assert failed_ops(good) == []
    reference["sector"][0] *= 1 + 1e-6
    bad = workloads.Outcome()
    workloads.gate_spectra(values, reference, bad)
    assert failed_ops(bad) == ["sector"]


def test_wrong_golden_transcript_fails_gate():
    with workloads.captured_proofs() as results:
        for name in spans.IDENTITY_NAMES:
            fuzzylab.identities.check_identity(name)
    golden = workloads.GOLDEN.read_bytes()
    good = workloads.Outcome()
    workloads.gate_proofs(results, golden, good)
    assert failed_ops(good) == []
    bad = workloads.Outcome()
    workloads.gate_proofs(results, golden.replace(b"verdict", b"Verdict"), bad)
    assert failed_ops(bad) == ["transcript[velocity-form]"]


def traced(name, seed):
    tracer = spans.Tracer()
    restore = tracer.install(fuzzylab)
    try:
        out = workloads.run(name, seed, "toy")
    finally:
        restore()
    assert tracer.missing == []
    return out, tracer.metrics(out.suite_ms), tracer.states_digest.hexdigest()


@pytest.mark.parametrize("name", ["numeric-n16", "spectra-coulomb"])
def test_counts_repeat_and_do_not_depend_on_seed(name):
    out_a, first, digest_a = traced(name, SEED)
    _out, again, _digest = traced(name, SEED)
    out_b, other, digest_b = traced(name, SEED + 1)
    counts = spans.EXACT_COUNTS
    assert {k: again[k] for k in counts} == {k: first[k] for k in counts}
    assert {k: other[k] for k in counts} == {k: first[k] for k in counts}
    assert (out_a.inputs, digest_a) != (out_b.inputs, digest_b)
    assert set(first) | {"trace.overhead_s"} == set(spans.metric_units())


def test_traced_run_prints_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "numeric-n16",
         "--seed", str(SEED), "--seconds", "0", "--trace", "1",
         "--size", "toy"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(spans.metric_units())
    assert result["metrics"]["fock.random_state.calls"]["value"] > 0
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "numeric-n16", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
