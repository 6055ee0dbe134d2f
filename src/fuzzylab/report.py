"""Check records, verification reports, and their serializations."""

from __future__ import annotations

import csv
import io
import json
import math
import platform
import sys
from dataclasses import asdict, dataclass, field
from importlib import metadata
from typing import Iterable, List

__all__ = ["CheckRecord", "VerificationReport", "emit_report",
           "report_from_json", "environment_fingerprint", "worst",
           "CSV_COLUMNS", "FORMATS", "SCHEMA_VERSION"]

#: the formats ``emit_report`` renders
FORMATS = ("json", "csv", "text")

#: v2 adds the record ``status`` and writes non-finite numbers as null
SCHEMA_VERSION = 2


def worst(parts: Iterable[float]) -> float:
    """The worst residual: the largest of 0.0 and ``parts``, or NaN if any
    part is NaN (Python's ``max`` keeps its first argument against a NaN)."""
    parts = [0.0, *parts]
    return math.nan if any(map(math.isnan, parts)) else max(parts)


def environment_fingerprint() -> dict:
    """Build identifiers that pin a report to its numeric environment.

    numpy, scipy and sympy report the loaded module's ``__version__``, else
    the installed package metadata, so a report imports none of them."""
    from . import __version__
    env = {"fuzzylab": __version__, "python": platform.python_version()}
    for name in ("numpy", "scipy", "sympy"):
        module = sys.modules.get(name)
        env[name] = metadata.version(name) if module is None else module.__version__
    return env

#: column order of the CSV emitter (documented in the CLI help)
CSV_COLUMNS = ["check_id", "suite", "kind", "statement", "params",
               "residual", "threshold", "passed", "status", "wall_time_ms",
               "detail"]


@dataclass
class CheckRecord:
    """One executed check.

    ``kind`` is "identity" for residual-below-threshold checks and
    "diagnostic" for expected-nonzero observations (a quiet one never fails
    a run).  ``statement`` quotes the relation being verified.  ``status`` is
    "pass" or "fail" for an identity, "observed" or "quiet" for a diagnostic
    (derived from ``passed`` when not given), "error" for a check whose
    own code raised, and "skip" for a check that declared it had nothing to
    measure; an error or a skip fails the run whatever the kind.
    """

    check_id: str
    suite: str
    statement: str
    params: dict
    residual: float
    threshold: float
    passed: bool
    kind: str = "identity"
    wall_time_ms: float = 0.0
    detail: str = ""
    status: str = ""

    def __post_init__(self):
        if not self.status:
            if self.kind == "diagnostic":
                self.status = "observed" if self.passed else "quiet"
            else:
                self.status = "pass" if self.passed else "fail"


@dataclass
class VerificationReport:
    config: dict
    records: List[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True iff every non-diagnostic check passed and no check errored
        or skipped."""
        return all(r.passed for r in self.records if r.kind != "diagnostic") \
            and not any(r.status in ("error", "skip") for r in self.records)

    def summary(self) -> dict:
        checks = [r for r in self.records if r.kind != "diagnostic"]
        diags = [r for r in self.records if r.kind == "diagnostic"]
        return {
            "checks": len(checks),
            "passed": sum(r.passed for r in checks),
            "failed": sum(not r.passed for r in checks),
            "diagnostics": len(diags),
            "diagnostics_observed": sum(r.passed for r in diags),
            "errors": sum(r.status == "error" for r in self.records),
            "skipped": sum(r.status == "skip" for r in self.records),
            "environment": environment_fingerprint(),
        }

    def to_json(self) -> str:
        """Strict JSON: a non-finite number (the residual of an errored
        check) is written as null."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "summary": self.summary(),
            "records": [asdict(r) for r in self.records],
        }
        return json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for r in self.records:
            row = asdict(r)
            row["params"] = json.dumps(row["params"], sort_keys=True)
            writer.writerow({k: row[k] for k in CSV_COLUMNS})
        return buf.getvalue()

    def to_text(self) -> str:
        lines = ["verification report"]
        for r in self.records:
            mark = {"pass": "pass", "fail": "FAIL", "observed": "seen",
                    "quiet": "quiet", "error": "ERROR",
                    "skip": "SKIP"}[r.status]
            params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            lines.append(f"[{mark}] {r.check_id}  ({params})")
            lines.append(f"       {r.statement}")
            lines.append(f"       residual {r.residual:.3e}  threshold "
                         f"{r.threshold:.3e}  [{r.wall_time_ms:.1f} ms]")
            if r.detail:
                lines.append(f"       {r.detail}")
        s = self.summary()
        lines.append(f"summary: {s['passed']}/{s['checks']} checks passed, "
                     f"{s['diagnostics_observed']}/{s['diagnostics']} "
                     f"diagnostics observed, {s['errors']} errors, "
                     f"{s['skipped']} skipped")
        return "\n".join(lines) + "\n"


def _finite_or_null(obj):
    """``obj`` with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def report_from_json(text: str) -> VerificationReport:
    """Read a v2 report, or a v1 one (no status; an ``error:`` detail marks
    an errored check).  A null number reads back as NaN."""
    payload = json.loads(text)
    version = payload.get("schema_version")
    if version not in (1, SCHEMA_VERSION):
        raise ValueError("unknown report schema version")
    records = []
    for r in payload["records"]:
        r = dict(r)
        for key in ("residual", "threshold", "wall_time_ms"):
            if r.get(key, 0.0) is None:
                r[key] = float("nan")
        if version == 1 and r.get("detail", "").startswith("error: "):
            r["status"] = "error"
        records.append(CheckRecord(**r))
    return VerificationReport(config=payload["config"], records=records)


def emit_report(report: VerificationReport, fmt: str) -> str:
    """Render the report as json/csv/text (its ``to_<fmt>`` method)."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (want one of {FORMATS})")
    return getattr(report, f"to_{fmt}")()
