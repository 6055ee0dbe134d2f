"""One cold repetition, run in a fresh interpreter by ``run.py``.

    worker.py SPAWNED_NS WORKLOAD SEED TRACE SIZE

SPAWNED_NS is the parent's ``time.monotonic_ns()`` just before it started
this process; set-up time runs from there until ``import fuzzylab`` returns,
which is what every command-line call pays.  WORKLOAD ``import`` stops after
the import and reports the environment fingerprint.  The last stdout line is
one JSON object.
"""

import sys
import time


def blas() -> dict:
    """numpy's BLAS library name and the thread count it will use."""
    import ctypes
    import glob
    import os

    import numpy

    name = "unknown"
    try:
        name = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    if threads is None:
        threads = os.environ.get("OPENBLAS_NUM_THREADS")
    return {"blas": name, "blas_threads": threads}


def measure(name: str, seed: int, traced: bool, size: str) -> dict:
    import resource

    import fuzzylab
    import spans
    import workloads

    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install(fuzzylab)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    outcome = workloads.run(name, seed, size)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    out = {"wall_s": wall, "cpu_s": cpu,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "ops": outcome.ops, "inputs": outcome.inputs}
    if tracer is not None:
        out["layers"] = tracer.metrics(outcome.suite_ms)
        out["states_digest"] = tracer.states_digest.hexdigest()
        out["missing_spans"] = tracer.missing
    return out


def main(argv) -> int:
    spawned_ns, name, seed, trace, size = argv
    import fuzzylab
    setup_s = (time.monotonic_ns() - int(spawned_ns)) / 1e9
    import json
    result = {"setup_s": setup_s, "fuzzylab": fuzzylab.__file__}
    if name == "import":
        from fuzzylab.report import environment_fingerprint
        result["fingerprint"] = {**environment_fingerprint(), **blas()}
    else:
        result.update(measure(name, int(seed), trace == "1", size))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
