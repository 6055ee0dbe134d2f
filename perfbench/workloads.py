"""The three benchmark workloads and their correctness gates.

Each workload calls the public functions of ``fuzzylab`` with inputs made from
the benchmark seed, and returns an :class:`Outcome`: one (name, ok, detail)
entry per operation (a check, a solve or a proof) plus the seed-derived inputs
that are not random states (random states are fingerprinted by the tracer).
Gates are plain functions of the computed values, so the self-tests can feed
them a wrong reference and see them fail.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fuzzylab import checks, identities, operators, report, spectra

from spans import IDENTITY_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_coulomb.json"
GOLDEN = ROOT / "tests" / "data" / "velocity_form_transcript.txt"

NUMERIC_SUITES = ("kinematics", "e4", "velocity", "quadratic", "acceleration",
                  "hermiticity", "diagnostic")

#: problem sizes; "full" is what the benchmark measures, "toy" is for the
#: self-tests.  The symbolic suite has no size knob.
SIZES = {
    "numeric-n16": {
        "full": {"lam": 0.1, "n_max": 16, "n_states": 5},
        "toy": {"lam": 0.2, "n_max": 8, "n_states": 1},
    },
    # The converge command's default schedule ends at 0.1:79, which alone took
    # half of each 11.5 s repetition; only three repetitions then fit in a
    # 40 s run, and medians of three spread past the bound between runs.
    "spectra-coulomb": {
        "full": {"schedule": [(0.4, 19), (0.2, 39)],
                 "sector": (0.2, 39), "brute": (0.1, 6)},
        "toy": {"schedule": [(0.8, 9), (0.4, 19)],
                "sector": (0.4, 19), "brute": (0.2, 4)},
    },
    "symbolic-cold": {
        "full": {"lam": 0.1, "n_max": 8},
        "toy": {"lam": 0.1, "n_max": 8},
    },
}
WORKLOADS = tuple(SIZES)

J = 1                    # angular momentum of every spectra-coulomb solve
SPECTRUM_RTOL = 1e-8     # eigenvalues vs reference; brute force vs union
ORACLE_RTOL = 0.05       # NC ground level vs finite-difference oracle
V2_TOL = 1e-8            # spectra.v2_consistency threshold of the check suite
Q_STEPS = 16             # q = 0.5 + k / 16, k = 0 .. 16


@dataclass
class Outcome:
    ops: list = field(default_factory=list)     # (name, ok, detail)
    inputs: dict = field(default_factory=dict)
    suite_ms: dict = field(default_factory=dict)  # report wall_time_ms sums

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(not ok for _name, ok, _detail in self.ops)


def coulomb_q(seed: int) -> float:
    """Coulomb strength in [0.5, 1.5] on the grid the references cover.

    Consecutive seeds always give different strengths, so a run can check
    that a second seed changes the inputs.
    """
    return 0.5 + (seed % (Q_STEPS + 1)) / Q_STEPS


# -- gates ---------------------------------------------------------------------


def gate_records(records, out: Outcome) -> None:
    """A record fails if skipped, non-finite, or (unless diagnostic) above
    its threshold."""
    for r in records:
        if r.detail.startswith("skipped"):
            out.add(r.check_id, False, r.detail)
        elif not math.isfinite(r.residual):
            out.add(r.check_id, False, f"residual {r.residual}")
        elif r.kind != "diagnostic" and not r.residual <= r.threshold:
            out.add(r.check_id, False,
                    f"residual {r.residual:.3e} > {r.threshold:.3e}")
        else:
            out.add(r.check_id, True)


def _spectrum_close(got, ref) -> bool:
    """Every eigenvalue within SPECTRUM_RTOL of its reference, relatively.

    The smallest stored magnitude is 8e-4, so the tolerance stays far above
    the eigensolver's absolute error (about 1e-16 times the largest level).
    """
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and \
        bool(np.all(np.abs(got - ref) <= SPECTRUM_RTOL * np.abs(ref)))


def gate_spectra(values: dict, reference: dict, out: Outcome) -> None:
    """Compare a spectra-coulomb run with its stored reference values."""
    for key in ("conv_nc", "conv_oracle"):
        for (lam, n_max), got, ref in zip(values["schedule"], values[key],
                                          reference[key]):
            out.add(f"{key}[{lam}:{n_max}]", _spectrum_close(got, ref))
    out.add("sector", _spectrum_close(values["sector"], reference["sector"]))
    e_nc, e_or = values["conv_nc"][-1][0], values["conv_oracle"][-1][0]
    rel = abs(e_nc - e_or) / max(abs(e_or), 1e-300)
    out.add("oracle_ground", rel <= ORACLE_RTOL, f"rel gap {rel:.3e}")
    out.add("v2_consistency", values["v2_worst"] <= V2_TOL,
            f"worst {values['v2_worst']:.3e}")
    full, union = values["brute"], values["union"]
    ok = len(full) == len(union)
    if ok:
        scale = max(float(np.abs(full).max()), 1e-300)
        ok = float(np.abs(np.asarray(full) - union).max()) \
            <= SPECTRUM_RTOL * scale
    out.add("brute_force", ok, f"{len(full)} vs {len(union)} levels")


def gate_proofs(results: dict, golden: bytes, out: Outcome) -> None:
    """All five identities proved; the velocity-form transcript is golden."""
    for name in IDENTITY_NAMES:
        res = results.get(name)
        out.add(f"proof[{name}]", res is not None and res.ok)
    res = results.get("velocity-form")
    out.add("transcript[velocity-form]",
            res is not None and res.transcript().encode() == golden)


# -- workloads -------------------------------------------------------------------


def numeric(seed: int, size: str) -> Outcome:
    p = SIZES["numeric-n16"][size]
    cfg = checks.CheckConfig(lams=(p["lam"],), n_maxes=(p["n_max"],),
                             seed=seed, n_states=p["n_states"],
                             suites=NUMERIC_SUITES)
    rep = checks.run_suite(cfg)
    text = report.emit_report(rep, "json")
    out = Outcome()
    gate_records(rep.records, out)
    out.add("report.json", len(json.loads(text)["records"]) == len(rep.records))
    out.suite_ms = suite_ms(rep)
    return out


def spectra_values(q: float, size: str) -> dict:
    """Every spectrum the spectra-coulomb workload computes, for U = -q/r."""
    p = SIZES["spectra-coulomb"][size]

    def fn(r):
        return -q / r

    def pot(lam, n_max):
        return operators.RadialFunction.from_callable(fn, lam, n_max,
                                                      name="coulomb")

    recs = spectra.convergence_study(p["schedule"], J, fn, "coulomb", levels=3)
    conv_nc = [[r.energy_nc for r in recs if r.lam == lam]
               for lam, _n in p["schedule"]]
    conv_oracle = [[r.energy_oracle for r in recs if r.lam == lam]
                   for lam, _n in p["schedule"]]
    lam, n_max = p["sector"]
    sector = spectra.solve_sector(operators.Space(n_max, lam), J,
                                  pot(lam, n_max), boundary="hard")
    rows = spectra.v2_consistency(operators.Space(n_max, lam), J)
    v2_worst = max(row["interior_residual"] / row["scale"] for row in rows)
    lam, n_max = p["brute"]
    space = operators.Space(n_max, lam)
    brute = np.sort(spectra.full_kappa0_spectrum(space, pot(lam, n_max)))
    union = []
    for j in range(n_max + 1):
        res = spectra.solve_sector(space, j, pot(lam, n_max), boundary="hard")
        union.extend(list(res.eigenvalues) * (2 * j + 1))
    return {"schedule": p["schedule"], "conv_nc": conv_nc,
            "conv_oracle": conv_oracle,
            "sector": sector.eigenvalues.tolist(), "v2_worst": v2_worst,
            "brute": brute.tolist(), "union": sorted(union)}


def load_reference(size: str, q: float) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[size][repr(q)]


def coulomb(seed: int, size: str) -> Outcome:
    q = coulomb_q(seed)
    reference = load_reference(size, q)
    values = spectra_values(q, size)
    out = Outcome(inputs={"q": q})
    gate_spectra(values, reference, out)
    return out


@contextlib.contextmanager
def captured_proofs():
    """Collect every ``check_identity`` result made inside the block."""
    results = {}
    original = identities.check_identity

    def capture(name):
        res = original(name)
        results[res.name] = res
        return res

    identities.check_identity = capture
    try:
        yield results
    finally:
        identities.check_identity = original


def symbolic(seed: int, size: str) -> Outcome:
    p = SIZES["symbolic-cold"][size]
    golden = GOLDEN.read_bytes()
    cfg = checks.CheckConfig(lams=(p["lam"],), n_maxes=(p["n_max"],),
                             seed=seed, suites=("symbolic",))
    with captured_proofs() as results:
        rep = checks.run_suite(cfg)
    out = Outcome()
    gate_records(rep.records, out)
    gate_proofs(results, golden, out)
    out.suite_ms = suite_ms(rep)
    return out


def suite_ms(rep) -> dict:
    totals = {}
    for r in rep.records:
        totals[r.suite] = totals.get(r.suite, 0.0) + r.wall_time_ms
    return totals


RUNNERS = {"numeric-n16": numeric, "spectra-coulomb": coulomb,
           "symbolic-cold": symbolic}


def run(name: str, seed: int, size: str = "full") -> Outcome:
    return RUNNERS[name](seed, size)
