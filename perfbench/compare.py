"""Compare two saved outputs of run.py, refusing ones from different environments.

    python3 perfbench/run.py ... > base.txt
    python3 perfbench/run.py ... > change.txt
    python3 perfbench/compare.py base.txt change.txt

The fingerprint line of each output must agree on every field except the
ones that identify the code (commit, source digest, package version);
otherwise the results are not comparable and the exit status is 2.  This
compares one run with one run; a claimed gain needs the repeated, alternating
runs described in README.md.
"""

import json
import sys

CODE_FIELDS = {"commit", "source_sha256", "fuzzylab"}


def load(path: str) -> tuple:
    fingerprint = result = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("fingerprint "):
                fingerprint = json.loads(line[len("fingerprint "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if fingerprint is None or result is None:
        raise SystemExit(f"error: {path} is not an output of run.py")
    return fingerprint, result


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (fp_a, res_a), (fp_b, res_b) = load(argv[0]), load(argv[1])
    differ = sorted(k for k in (set(fp_a) | set(fp_b)) - CODE_FIELDS
                    if fp_a.get(k) != fp_b.get(k))
    if differ:
        print("not comparable: fingerprints differ in "
              + ", ".join(f"{k} ({fp_a.get(k)} vs {fp_b.get(k)})" for k in differ))
        return 2
    print(f"{'metric':<48} {'base':>12} {'change':>12} {'change/base':>12}")
    for name, a in res_a["metrics"].items():
        b = res_b["metrics"].get(name)
        if b is None:
            continue
        ratio = b["value"] / a["value"] if a["value"] else float("nan")
        print(f"{name:<48} {a['value']:>12.6g} {b['value']:>12.6g} {ratio:>12.4f}"
              f" {a['unit']}")
    for label, res in (("base", res_a), ("change", res_b)):
        print(f"{label}: correct={res['correct']} "
              f"failed {res['failed']}/{res['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
