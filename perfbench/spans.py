"""Span tracing installed from outside the program.

The tracer replaces public functions of the ``fuzzylab`` modules with timing
wrappers, at every place their callers look them up: the module attribute
(``spectra.build_sector``), the name another module imported
(``operators.random_state``) or the class attribute that an instance call goes
through (``WeightedInnerProduct.__call__`` for ``space.ip(...)``).  Spans
record name, start, end and parent; they stay in memory until
:meth:`Tracer.metrics` reduces them.  The program itself is not edited.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.sparse as sp

#: (owners, attribute, span name).  Owners are dotted paths under fuzzylab;
#: the same original function seen under several owners gets one wrapper.
TARGETS = (
    (("fock", "operators"), "random_state", "fock.random_state"),
    (("fock.WeightedInnerProduct",), "__call__", "fock.inner_product"),
    (("fock", "operators"), "interior_projection", "fock.interior_projection"),
    (("operators.Space",), "__init__", "operators.space_init"),
    (("operators.SuperOp",), "__call__", "operators.superop_apply"),
    (("operators.Space",), "leibniz_correction", "operators.leibniz_correction"),
    (("spectra",), "build_sector", "spectra.build_sector"),
    (("spectra",), "reduce_superop", "spectra.reduce_superop"),
    (("spectra",), "eigen_solve", "spectra.eigen_solve"),
    (("spectra",), "commutative_oracle", "spectra.commutative_oracle"),
    (("spectra",), "full_kappa0_spectrum", "spectra.full_kappa0_spectrum"),
    (("spectra",), "convergence_study", "spectra.convergence_study"),
    (("algebra.AlgebraExpr",), "normal", "algebra.normal"),
    (("algebra.AlgebraExpr",), "kappa_reduce", "algebra.kappa_reduce"),
    (("algebra.AlgebraExpr",), "__mul__", "algebra.mul"),
    (("algebra", "identities"), "to_superop", "algebra.to_superop"),
    (("identities",), "check_identity", "identities.check_identity"),
    (("identities",), "cross_validate", "identities.cross_validate"),
    (("checks",), "run_suite", "checks.run_suite"),
    (("report",), "emit_report", "report.emit_report"),
)

IDENTITY_NAMES = ("velocity-form", "correction-sum", "velocity-commutator",
                  "quadratic-relation", "acceleration")
SUITES = ("kinematics", "e4", "velocity", "quadratic", "acceleration",
          "hermiticity", "diagnostic", "spectra", "symbolic")
LAYERS = ("fock", "operators", "spectra", "algebra", "identities", "checks",
          "report")

#: span names whose call count is a metric, and those whose time is one
COUNTED = ("fock.random_state", "fock.inner_product", "fock.interior_projection",
           "operators.space_init", "operators.superop_apply",
           "operators.leibniz_correction", "spectra.reduce_superop",
           "algebra.normal", "algebra.kappa_reduce", "algebra.mul",
           "algebra.to_superop", "identities.check_identity",
           "identities.cross_validate")
TIMED = COUNTED + ("spectra.build_sector", "spectra.eigen_solve",
                   "spectra.commutative_oracle", "spectra.full_kappa0_spectrum",
                   "spectra.convergence_study", "checks.run_suite",
                   "report.emit_report")

#: counts that must repeat exactly between two runs of one seed, and must not
#: depend on the seed
EXACT_COUNTS = tuple(f"{n}.calls" for n in COUNTED) + (
    "spectra.reduce_superop.ip_calls", "algebra.terms_out")


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {f"{n}.calls": "count" for n in COUNTED}
    units.update({f"{n}.s": "s" for n in TIMED})
    units["fock.state_bytes.max"] = "B-computed"
    units["spectra.reduce_superop.ip_calls"] = "count"
    units["algebra.terms_out"] = "count"
    units.update({f"identities.check_identity.{n}.s": "s"
                  for n in IDENTITY_NAMES})
    units.update({f"checks.{s}.s": "s" for s in SUITES})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace.overhead_s"] = "s"
    order = LAYERS + ("trace",)
    return dict(sorted(units.items(),
                       key=lambda item: order.index(item[0].split(".")[0])))


def matrix_bytes(m) -> int:
    """Bytes held by a dense or sparse matrix, from its array sizes."""
    if sp.issparse(m):
        parts = ("data", "indices", "indptr", "row", "col", "offsets")
        return sum(getattr(m, p).nbytes for p in parts if hasattr(m, p))
    return np.asarray(m).nbytes


class Tracer:
    """In-memory span store plus the counters measured at span boundaries."""

    def __init__(self):
        # span: [name, start, end, parent index, tag, nested under same name]
        self.spans = []
        self.stack = []
        self.active = Counter()
        self.reduce_ip_calls = 0
        self.terms_out = 0
        self.state_bytes_max = 0
        self.states_digest = hashlib.sha256()
        self.missing = []

    def _wrap(self, name, fn):
        tracer = self
        outermost_only = name == "operators.superop_apply"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost_only and tracer.active[name]:
                return fn(*args, **kwargs)
            if name == "fock.inner_product" and \
                    tracer.active["spectra.reduce_superop"]:
                tracer.reduce_ip_calls += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tag = args[0] if name == "identities.check_identity" else None
            span = [name, 0.0, 0.0, parent, tag, tracer.active[name] > 0]
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            tracer.active[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.active[name] -= 1
                tracer.stack.pop()
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name, args, result):
        if name == "operators.superop_apply":
            self.state_bytes_max = max(self.state_bytes_max,
                                       matrix_bytes(args[1].matrix),
                                       matrix_bytes(result.matrix))
        elif name == "algebra.normal":
            self.terms_out += len(result.terms)
        elif name == "fock.random_state":
            self.states_digest.update(np.ascontiguousarray(
                result.dense()).tobytes())

    def install(self, package):
        """Patch every target under ``package``; returns an undo callable."""
        undo = []
        for owners, attr, name in TARGETS:
            wrapped = {}
            for path in owners:
                owner = package
                for part in path.split("."):
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner else None
                if original is None:
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original)
                setattr(owner, attr, wrapped[id(original)])
                undo.append((owner, attr, original))
            if not wrapped:
                self.missing.append(name)

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return restore

    def metrics(self, suite_ms: dict) -> dict:
        """Reduce spans to per-layer metrics; ``suite_ms`` maps each suite to
        the sum of its report records' ``wall_time_ms``."""
        calls = Counter()
        inclusive = defaultdict(float)
        by_tag = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent, tag, nested in self.spans:
            calls[name] += 1
            if not nested:
                inclusive[name] += end - start
            if tag is not None:
                by_tag[tag] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            self_time[name.split(".")[0]] += end - start - child_time[i]
        out = {f"{n}.calls": calls[n] for n in COUNTED}
        out.update({f"{n}.s": inclusive[n] for n in TIMED})
        out["fock.state_bytes.max"] = self.state_bytes_max
        out["spectra.reduce_superop.ip_calls"] = self.reduce_ip_calls
        out["algebra.terms_out"] = self.terms_out
        out.update({f"identities.check_identity.{n}.s": by_tag[n]
                    for n in IDENTITY_NAMES})
        out.update({f"checks.{s}.s": suite_ms.get(s, 0.0) / 1e3
                    for s in SUITES})
        out.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
        return out
