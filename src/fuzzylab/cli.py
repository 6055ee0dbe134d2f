"""Command-line driver: verification suites, proofs, spectra, convergence.

Subcommands
-----------
check     run verification suites over a (lambda, n_max) grid
prove     run the exact symbolic identity library, emit transcripts
spectrum  solve central-potential sector spectra, one file per (lambda, j)
converge  commutative-limit study against the finite-difference oracle

Config files use a plain-text ``key = value`` grammar (``#`` comments,
comma-separated lists, ``tol.<check_id>`` overrides); command-line flags win
over file values.  Exit status is zero iff every non-diagnostic check passed
and no check (diagnostics included) raised an error or declared a skip.

Any ``ValueError`` while a command runs, whether from a rejected input (each
is checked where it enters the library: lambda by ``fock.validate_lambda``,
a sampled potential by ``RadialFunction``, j and the cutoff by
``spectra.sector_shells``) or from a numeric failure (a non-finite eigenpair,
say), and an output file that cannot be written give one ``error:`` line and
exit 2; ``main`` is the one place that says so.  ``spectrum`` and ``converge``
solve every point before they write any, so such a failure writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


from . import __version__
from .checks import (OPTIONS, CheckConfig, parse_config_text, potential_fn,
                     run_suite)
from .operators import Space
from .report import CSV_COLUMNS, FORMATS, emit_report
from . import spectra as spc


def _parse_schedule(text: str) -> List[tuple]:
    try:
        return [(float(lam), int(n))
                for lam, n in (item.split(":") for item in text.split(","))]
    except ValueError:
        msg = f"bad schedule {text!r}; want lam:n_max[,lam:n_max...]"
        raise ValueError(msg) from None


def _emit(text: str, path: Optional[str]) -> None:
    """Write ``text`` to ``path`` and say so, or print it without a path."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


#: ``identities.IDENTITY_NAMES``, spelled out so that building the parser
#: does not import sympy (a test keeps the two equal)
PROVE_NAMES = ("velocity-form", "correction-sum", "velocity-commutator",
               "quadratic-relation", "acceleration")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzylab",
        description="quantum mechanics on a rotationally invariant fuzzy "
                    "3D space: verification suites, exact symbolic proofs, "
                    "and central-potential spectra")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="run verification suites",
        epilog=f"CSV columns: {', '.join(CSV_COLUMNS)} (params as JSON)")
    for opt in OPTIONS:
        p_check.add_argument(opt.flag, dest=opt.field, help=opt.help)
    p_check.add_argument("--config", type=str, default=None,
                         help="plain-text config file (flags override it)")

    p_prove = sub.add_parser("prove", help="run the symbolic identity library")
    p_prove.add_argument("--identity", type=str, default="all",
                         help=f"one of {PROVE_NAMES} or 'all'")
    p_prove.add_argument("--out", type=str, default=None,
                         help="write the proof transcript here")

    p_spec = sub.add_parser("spectrum", help="sector spectra for a potential")
    p_spec.add_argument("--lambda", dest="lam", type=str, default="0.2",
                        help="comma-separated NC length scales")
    p_spec.add_argument("--nmax", type=str, default="19",
                        help="comma-separated truncation cutoffs")
    p_spec.add_argument("--out", type=str, default=None,
                        help="file prefix; with several lambdas also writes "
                             "an oracle table that uses the Dirichlet wall")
    p_spec.add_argument("--format", dest="fmt", choices=FORMATS, default="json")
    p_spec.add_argument("--potential", type=str, default="free")
    p_spec.add_argument("--q", type=float, default=1.0)
    p_spec.add_argument("--j", type=float, default=0,
                        help="angular momentum sector (integer for kappa=0)")
    p_spec.add_argument("--boundary", choices=("hard", "dirichlet"),
                        default="dirichlet")

    p_conv = sub.add_parser("converge", help="commutative-limit study")
    p_conv.add_argument("--potential", type=str, default="free")
    p_conv.add_argument("--q", type=float, default=1.0)
    p_conv.add_argument("--j", type=float, default=0)
    p_conv.add_argument("--schedule", type=str, default="0.4:19,0.2:39,0.1:79",
                        help="comma list of lam:n_max with fixed lam*(n_max+1)")
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--out", type=str, default=None)
    return parser


def _config_from_args(args) -> CheckConfig:
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config_text(fh.read())
    else:
        cfg = CheckConfig()
    for opt in OPTIONS:
        text = getattr(args, opt.field)
        if text is not None:
            setattr(cfg, opt.field, opt.parse(text))
    return cfg


def _cmd_check(args) -> int:
    cfg = _config_from_args(args)
    report = run_suite(cfg)
    _emit(emit_report(report, cfg.fmt), cfg.out)
    if cfg.out:
        print(emit_report(report, "text").splitlines()[-1])
    return 0 if report.passed else 1


def _cmd_prove(args) -> int:
    from . import identities as idn
    names = idn.IDENTITY_NAMES if args.identity == "all" else (args.identity,)
    chunks, all_ok = [], True
    for name in names:
        try:
            res = idn.check_identity(name)
        except KeyError as exc:  # str() of a KeyError quotes its message
            raise ValueError(exc.args[0]) from None
        chunks.append(res.transcript())
        all_ok = all_ok and res.ok
        print(f"{name}: {'proved' if res.ok else 'FAILED'}")
    if args.out:
        _emit("\n".join(chunks), args.out)
    return 0 if all_ok else 1


def _spectrum_payload(result: spc.SpectrumResult) -> dict:
    lam = result.lam
    emax = float(result.eigenvalues.max())
    return {
        "lam": result.lam, "n_max": result.n_max, "j": result.j,
        "potential": result.potential, "boundary": result.boundary,
        "cutoff": 2.0 / lam**2, "max_energy": emax,
        "below_cutoff": bool(emax <= 2.0 / lam**2 + 1e-8 / lam**2),
        "levels": [float(e) for e in result.eigenvalues],
        "grid": result.metadata.get("grid", []),
    }


def _convergence_csv(records) -> List[str]:
    """Header and one line per convergence record, without newlines."""
    return ["lam,n_max,j,level,E_nc,E_oracle,gap"] + [
        f"{r.lam!r},{r.n_max},{r.j},{r.level},{r.energy_nc!r},"
        f"{r.energy_oracle!r},{r.gap!r}" for r in records]


def _cmd_spectrum(args) -> int:
    lams = [float(v) for v in args.lam.split(",")]
    n_maxes = [int(v) for v in args.nmax.split(",")]
    if len(n_maxes) == 1:
        n_maxes = n_maxes * len(lams)
    if len(n_maxes) != len(lams):
        raise ValueError("--nmax needs one value, or one per --lambda entry")
    points = list(zip(lams, n_maxes))
    fn = potential_fn(args.potential, args.q)
    outputs = []  # (text, path) of every point, solved before any is written
    for lam, n_max in points:
        space = Space(n_max, lam)
        result = spc.solve_sector(space, args.j, space.sample(fn, args.potential),
                                  boundary=args.boundary)
        payload, j = _spectrum_payload(result), result.j
        if args.fmt == "json":
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            lines = [f"# potential={payload['potential']} lam={lam} "
                     f"n_max={n_max} j={j} boundary={args.boundary}",
                     f"# cutoff 2/lam^2 = {payload['cutoff']!r} "
                     f"max_energy = {payload['max_energy']!r} "
                     f"below_cutoff = {payload['below_cutoff']}"]
            if args.fmt == "csv":
                lines.append("level,energy")
                lines += [f"{k},{e!r}" for k, e in enumerate(payload["levels"])]
            else:
                lines += [f"level {k}: {e!r}"
                          for k, e in enumerate(payload["levels"])]
            text = "\n".join(lines) + "\n"
        outputs.append((text, args.out and f"{args.out}.lam{lam}.j{j}.{args.fmt}"))
    if args.out and len(lams) > 1:
        # a schedule was given: emit the oracle-comparison table alongside
        records = spc.convergence_study(points, args.j, fn, args.potential)
        outputs.append(("\n".join(_convergence_csv(records)) + "\n",
                        f"{args.out}.convergence.csv"))
    for text, path in outputs:
        _emit(text, path)
    return 0


def _cmd_converge(args) -> int:
    schedule = _parse_schedule(args.schedule)
    if args.levels < 1:
        raise ValueError(f"--levels must be >= 1; got {args.levels}")
    fn = potential_fn(args.potential, args.q)
    records = spc.convergence_study(schedule, args.j, fn, args.potential,
                                    levels=args.levels)
    # a sector has one level per radial state, that is per shell
    sizes = [(lam, n_max, len(spc.sector_shells(n_max, args.j, 0, "dirichlet")))
             for lam, n_max in schedule]
    short = [f"{lam!r}:{n_max} (has {size})" for lam, n_max, size in sizes
             if size < args.levels]
    if short:
        print(f"note: fewer than {args.levels} levels at " + ", ".join(short),
              file=sys.stderr)
    lines = _convergence_csv(records)
    # informational: how the deepest level scales with lam (no verdict
    # attached; flags any bound levels that vanish in the commutative limit)
    bound = [r for r in records if r.energy_nc < 0]
    if bound:
        lines.append(f"# bound levels present: {len(bound)} records with E < 0")
        deepest = {}
        for r in records:
            deepest[r.lam] = min(deepest.get(r.lam, r.energy_nc), r.energy_nc)
        scaled = ", ".join(f"lam={lam!r}: E_min={e!r}, E_min/lam^2={e / lam**2!r}"
                           for lam, e in sorted(deepest.items()))
        lines.append(f"# deepest-level scaling: {scaled}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"check": _cmd_check, "prove": _cmd_prove,
                "spectrum": _cmd_spectrum, "converge": _cmd_converge}
    try:
        return commands[args.command](args)
    except (ValueError, OSError) as exc:
        # a rejected input, a numeric failure, or a file that cannot be read
        # or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
