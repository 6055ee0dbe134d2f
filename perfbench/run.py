"""The fuzzylab benchmark: cold-process workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is numeric-n16, spectra-coulomb, symbolic-cold, or ``all`` for the three
in turn.  Every timed repetition runs ``worker.py`` in a fresh interpreter,
as every ``fuzzylab`` command-line call does: one caller in a closed loop,
with one BLAS thread.  Repetitions continue while the next one should end
by about S seconds after the workload's start, and at least three run;
metrics are medians.

--trace 0 reports wall_s, cpu_s, setup_s and peak_rss_mb.  --trace 1 runs
traced and untraced repetitions and reports the per-layer metrics of
``spans.py`` plus the tracing overhead; it also checks that two traced runs
of one seed repeat every count exactly, and that the next seed changes the
inputs but not the counts.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Exit status is 1 when a
correctness gate failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("numeric-n16", "spectra-coulomb", "symbolic-cold")
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_REPS = 3
SETUP_PROBES = 2
DEADLINE_S = 165.0  # a run must end within 180 s
# On a 2-CPU machine a second BLAS thread competed with the main thread and
# with page-fault work in the kernel: numeric-n16 ran about 8% slower and
# spread more from one repetition to the next than with one thread.
BLAS_THREADS = 1

sys.path.insert(0, str(HERE))
from spans import EXACT_COUNTS, metric_units  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class WorkerFailed(Exception):
    """A repetition exited without a result."""


class Runner:
    """Starts worker processes and keeps the run inside its deadline."""

    def __init__(self, size: str):
        self.size = size
        self.start = time.monotonic()
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.longest = 0.0
        self.took = []  # durations of the workload repetitions so far

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def fits(self) -> bool:
        """True when one more repetition should end before the deadline."""
        return self.elapsed() + 1.5 * self.longest < DEADLINE_S

    def more(self, seconds: float) -> bool:
        """True when one more repetition should end less than half a typical
        repetition past ``seconds`` from the start, so that a run lasts
        about ``seconds`` however long its repetitions are."""
        if not self.took:
            return self.fits()
        typical = statistics.median(self.took)
        return self.elapsed() + typical / 2 <= seconds and self.fits()

    def spawn(self, workload: str, seed: int = 0, trace: int = 0) -> dict:
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), str(time.monotonic_ns()),
               workload, str(seed), str(trace), self.size]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE)
        try:
            out, _ = proc.communicate(timeout=max(DEADLINE_S + 10 - self.elapsed(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerFailed(f"{workload} seed {seed} ran past the deadline")
        took = time.monotonic() - t0
        self.longest = max(self.longest, took)
        if workload != "import":
            self.took.append(took)
        if proc.returncode != 0:
            raise WorkerFailed(f"{workload} seed {seed} exited {proc.returncode}")
        result = json.loads(out.decode().strip().splitlines()[-1])
        if Path(result["fuzzylab"]).resolve().parent != SRC / "fuzzylab":
            raise BenchError(f"imported fuzzylab from {result['fuzzylab']}")
        return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(runner: Runner) -> dict:
    """Environment of the run; results whose fingerprints differ outside
    ``commit``, ``source_sha256`` and ``fuzzylab`` are not comparable."""
    child = runner.spawn("import")["fingerprint"]
    return {**child, "cpu_count": os.cpu_count(),
            "blas_threads_limit": BLAS_THREADS, "commit": git_commit(),
            "source_sha256": source_digest()}


class Tally:
    """Operations attempted and failed over all repetitions of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def add_rep(self, rep: dict) -> None:
        for name, ok, detail in rep["ops"]:
            self.add(name, ok, detail)


def run_untraced(runner: Runner, workload: str, seed: int, seconds: float,
                 tally: Tally) -> dict:
    """Samples of every end-to-end metric."""
    setups = [runner.spawn("import")["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    while len(reps) < MIN_REPS or runner.more(seconds):
        if reps and not runner.fits():
            break
        rep = runner.spawn(workload, seed)
        tally.add_rep(rep)
        reps.append(rep)
    samples = {k: [r[k] for r in reps] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups + [r["setup_s"] for r in reps]
    return samples


def run_traced(runner: Runner, workload: str, seed: int, seconds: float,
               tally: Tally) -> dict:
    """Samples of every per-layer metric, from the traced repetitions at the
    seed; counts are checked to repeat exactly and not to follow the seed."""
    plain, traced = [], []
    other = runner.spawn(workload, seed + 1, 1)
    tally.add_rep(other)
    for trace in (0, 1, 1):
        rep = runner.spawn(workload, seed, trace)
        tally.add_rep(rep)
        (traced if trace else plain).append(rep)
    while runner.more(seconds):
        trace = int(len(plain) >= len(traced))
        rep = runner.spawn(workload, seed, trace)
        tally.add_rep(rep)
        (traced if trace else plain).append(rep)
    first = traced[0]["layers"]
    repeat = [k for k in EXACT_COUNTS
              if any(r["layers"][k] != first[k] for r in traced)]
    tally.add("trace.counts_repeat", not repeat, f"differ: {repeat}")
    moved = [k for k in EXACT_COUNTS if other["layers"][k] != first[k]]
    tally.add("trace.counts_seed_free", not moved, f"differ: {moved}")
    same_inputs = (other["inputs"], other["states_digest"]) == \
        (traced[0]["inputs"], traced[0]["states_digest"])
    tally.add("trace.seed_changes_inputs", not same_inputs,
              f"seed {seed + 1} ran the inputs of seed {seed}")
    missing = sorted({m for r in traced for m in r["missing_spans"]})
    if missing:
        print(f"note: no function found for spans {missing}", file=sys.stderr)
    samples = {k: [r["layers"][k] for r in traced] for k in first}
    samples.update({k: [first[k]] for k in EXACT_COUNTS})  # checked equal
    overhead = statistics.median(r["wall_s"] for r in traced) \
        - statistics.median(r["wall_s"] for r in plain)
    samples["trace.overhead_s"] = [overhead]
    return samples


def measure(workload: str, seed: int, seconds: float, trace: int,
            size: str) -> tuple:
    """Run one workload; returns the tally, the metrics and their samples."""
    runner = Runner(size)
    tally = Tally()
    units = metric_units() if trace else E2E_UNITS
    try:
        runner.spawn("import")  # compiles bytecode and warms the file cache
        run = run_traced if trace else run_untraced
        samples = run(runner, workload, seed, seconds, tally)
    except WorkerFailed as exc:
        tally.add("worker", False, str(exc))
        samples = {}
    metrics = {k: {"value": statistics.median(samples[k]), "unit": u}
               for k, u in units.items() if k in samples}
    return tally, metrics, samples


def report(workload: str, tally: Tally, metrics: dict, samples: dict) -> None:
    failed = len(tally.failures)
    print(f"{workload}:")
    for name, m in metrics.items():
        got = samples[name]
        spread = f"median of {len(got)}, {min(got):.6g} .. {max(got):.6g}" \
            if len(got) > 1 else ""
        print(f"  {name:<48} {m['value']:>12.6g} {m['unit']:<10} {spread}")
    frac = failed / max(tally.attempted, 1)
    print(f"  {'failed_frac':<48} {frac:>12.6g} {'':<10} "
          f"{failed} of {tally.attempted} operations")
    for line in tally.failures[:20]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes are for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "fuzzylab" / "__init__.py").is_file():
        print(f"error: no fuzzylab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        print("fingerprint " + json.dumps(fingerprint(Runner(args.size)),
                                          sort_keys=True))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        metrics = {}
        for name in names:
            tally, found, samples = measure(name, args.seed, args.seconds,
                                            args.trace, args.size)
            report(name, tally, found, samples)
            attempted += tally.attempted
            failed += len(tally.failures)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in found.items()})
    except (BenchError, WorkerFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
