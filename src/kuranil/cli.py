"""Command-line interface: analyze algebras, list the catalog, verify it.

Exit codes: 0 on success, 1 when a verification check fails, 2 on bad input.
A reader that closes the output pipe early ends the run quietly with exit
code 1, as Python itself exits on a broken pipe.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import catalog
from .algebra import (
    ComplexStructureAlgebra,
    JacobiViolation,
    LieAlgebra,
    NotNilpotent,
    parse_algebra_file,
    parse_salamon,
)
from .kuranishi import analyze, analyze_general
from .verify import InputError, run_catalog_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


# -- input resolution --------------------------------------------------------


def load_algebra(target: str) -> LieAlgebra | ComplexStructureAlgebra:
    """Resolve ``target``: catalog name/alias, inline structure string, or a
    file read by ``parse_algebra_file``."""
    try:
        return catalog.get(target).build()
    except KeyError:
        pass
    stripped = target.strip()
    if stripped.startswith("("):
        try:
            return parse_salamon(stripped)
        except ValueError as exc:
            raise InputError(f"cannot parse structure string {target!r}: {exc}") from None
    if os.path.exists(target):
        try:
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {target!r}: {exc}") from None
        try:
            return parse_algebra_file(text, name=os.path.basename(target))
        except ValueError as exc:
            raise InputError(f"cannot parse {target!r}: {exc}") from None
    raise InputError(
        f"{target!r} is neither a catalog name, a structure string, nor a file")


# -- commands ----------------------------------------------------------------


def cmd_analyze(args) -> int:
    algebra = load_algebra(args.algebra)
    general = args.general or isinstance(algebra, ComplexStructureAlgebra)
    if args.max_degree is not None and not general:
        raise InputError("--max-degree truncates the general recursion; "
                         "a Lie algebra takes it only with --general")
    # Unset, the truncation degree is analyze_general's own default.
    truncation = {} if args.max_degree is None else {"max_degree": args.max_degree}
    try:
        if general:
            report = analyze_general(algebra, **truncation)
        else:
            report = analyze(algebra)
    except (JacobiViolation, NotNilpotent) as exc:
        raise InputError(f"{args.algebra!r} is not a nilpotent Lie algebra: {exc}") from None
    print(json.dumps(report, indent=2) if args.json else report_text(report))
    return EXIT_OK


def report_text(report: dict) -> str:
    """The text layout of an ``analyze`` report; a general-path report is
    the one with a ``kind``."""
    if "kind" in report:
        lines = [
            f"algebra        {report['algebra']}",
            f"dim            {report['dim']}",
            f"kind           {report['kind']}",
            f"max degree     {report['max_degree']}",
            f"h^1(Theta)     {report['h1_theta']}",
            f"generators     {len(report['obstruction_generators'])}",
        ]
        lines += [f"    {g}" for g in report["obstruction_generators"]]
        for k in sorted(report["phi"], key=int):
            lines.append(f"phi_{k}          {report['phi'][k]}")
        for k in sorted(report["dropped_coexact"], key=int):
            lines.append(f"dropped[{k}]     {report['dropped_coexact'][k]}")
    else:
        lines = [
            f"algebra        {report['algebra']}",
            f"dim            {report['dim']}",
            f"nu             {report['nu']}",
            f"h^1(Theta)     {report['h1_theta']}",
            f"hodge h^{{0,q}}  {report['hodge_numbers']}",
            f"free verdict   {report['free_verdict']}",
            f"smooth         {'yes' if report['smooth'] else 'no'}",
            f"generators     {len(report['obstruction_generators'])}",
        ]
        lines += [f"    {g}" for g in report["obstruction_generators"]]
        lines.append(f"cylinder dim d {report['cylinder_dim']}")
        lines.append(f"central subspace dim {report['parallelisable_subspace']['dim']}")
        if report["kuranishi_dim"] is not None:
            lines.append(f"Kuranishi dim  {report['kuranishi_dim']} (smooth)")
    lines += [f"[{note['tag']}] {note['note']}" for note in report["annotations"]]
    return "\n".join(lines)


def cmd_catalog(args) -> int:
    if args.json:
        payload = [{
            "name": e.name, "aliases": list(e.aliases), "kind": e.kind,
            "dim": e.dim, "nu": e.nu, "h1_theta": e.computed_h1,
            "published_h1": e.published_h1, "smooth": e.smooth,
            "irreducible": e.irreducible, "reduced": e.reduced,
            "cylinder_dim": e.d, "has_ideal_data": e.ideal_file is not None,
            "notes": e.notes,
        } for e in catalog.entries()]
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    header = f"{'name':<28} {'dim':>3} {'nu':>2} {'h1':>3} {'smooth':>6} {'d':>3}  notes"
    print(header)
    print("-" * len(header))
    for e in catalog.entries():
        print(f"{e.name:<28} {e.dim:>3} {e.nu:>2} {e.computed_h1:>3} "
              f"{'yes' if e.smooth else 'no':>6} "
              f"{e.d if e.d is not None else '-':>3}  {e.notes}")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = args.names
    if names and all(n.lower() == "all" for n in names):
        names = []
    results = run_catalog_checks(names or None, timeout=args.timeout)
    passed = skipped = 0
    for r in results:
        line = f"[{r.status}] {r.entry} :: {r.check} ({r.seconds:.3f}s)"
        if r.detail:
            line += f" — {r.detail}"
        print(line)
        if r.status == "PASS":
            passed += 1
        elif r.status == "SKIP":
            skipped += 1
    total = len(results)
    summary = f"PASSED {passed}/{total}"
    if skipped:
        summary += f"  SKIPPED {skipped}"
    print(summary)
    return EXIT_OK if passed + skipped == total else EXIT_CHECK_FAILED


def _seconds(text: str) -> float:
    """A ``--timeout`` value: a number ``>= 0``; ``nan`` fails this test too."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"expected seconds >= 0, got {text!r}")
    return value


def _degree(text: str) -> int:
    """A ``--max-degree`` value: an integer ``>= 1``."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a degree >= 1, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``kuranil`` parser, built once per process: it depends on nothing
    per call, and ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="kuranil",
        description="Kuranishi obstruction ideals of nilpotent Lie algebras "
                    "in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="compute the deformation report for one algebra")
    p_analyze.add_argument("algebra",
                           help="catalog name, structure string like "
                                "'(0,0,12)', or a structure file")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit the report as JSON")
    p_analyze.add_argument("--general", action="store_true",
                           help="use the complex-structure recursion even for "
                                "parallelisable input")
    p_analyze.add_argument("--max-degree", type=_degree, metavar="N",
                           help="truncation degree for the general recursion "
                                "(default 3); a Lie algebra takes it only "
                                "with --general")
    p_analyze.set_defaults(func=cmd_analyze)

    p_catalog = sub.add_parser("catalog", help="list the built-in algebras")
    p_catalog.add_argument("--json", action="store_true")
    p_catalog.set_defaults(func=cmd_catalog)

    p_verify = sub.add_parser(
        "verify", help="check computed invariants against the stored data")
    p_verify.add_argument("names", nargs="*",
                          help="catalog entries to verify; 'all' or no "
                               "argument selects every entry")
    p_verify.add_argument("--timeout", type=_seconds, default=300.0,
                          metavar="SECONDS",
                          help="hard limit on the intersection check's "
                               "elimination and final membership test; 0 "
                               "skips the check (default 300)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:
        # The recipe of the ``signal`` docs: point stdout at devnull, so the
        # flush at interpreter exit cannot raise again, and stop quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
