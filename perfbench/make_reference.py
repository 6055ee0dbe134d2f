"""Regenerate reference_coulomb.json, the spectra-coulomb reference values.

    PYTHONPATH=src python3 perfbench/make_reference.py

Stores, for every Coulomb strength q the workload can draw and for both
sizes, the convergence-study levels (NC and oracle) and the hard-wall sector
spectrum.  The benchmark then requires every later version of the program to
reproduce them to a relative 1e-8.  Regenerate only when a change of the
benchmark itself alters what the workload computes.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402


def main() -> None:
    table = {}
    for size in ("toy", "full"):
        table[size] = {}
        for k in range(workloads.Q_STEPS + 1):
            q = workloads.coulomb_q(k)
            values = workloads.spectra_values(q, size)
            table[size][repr(q)] = {key: values[key] for key in
                                    ("conv_nc", "conv_oracle", "sector")}
            print(size, q, values["conv_nc"][-1][0], values["conv_oracle"][-1][0],
                  flush=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
