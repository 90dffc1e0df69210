"""Every catalog entry's reports and verification lines match stored files.

``kuranil analyze --json`` and ``kuranil analyze --general --json`` print
exactly the reports stored in ``data/catalog_reports.json``, and
``kuranil verify`` prints exactly the lines stored in
``data/catalog_verify.txt`` once the ``(N.Ns)`` timings are stripped.
The Gröbner work behind the certificates is pinned in
``data/catalog_bases.txt``: per parallelisable entry, the reduced grevlex
basis of the obstruction ideal and of every stored component (main and
variant readings), and the generator list after each ``ideal_intersect``
fold step of each reading that ``kuranil verify`` folds: one whose every
component contains the obstruction ideal.

The stored files change only on purpose, by running this file::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import re
from pathlib import Path

from kuranil import catalog
from kuranil.cli import EXIT_OK, main
from kuranil.groebner import buchberger, ideal_intersect, normal_form
from kuranil.polyring import parse_polynomial

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "catalog_reports.json"
GOLDEN_VERIFY = DATA / "catalog_verify.txt"
GOLDEN_BASES = DATA / "catalog_bases.txt"

_SECONDS = re.compile(r" \([0-9]+\.[0-9]{3}s\)")


def _requests() -> list[list[str]]:
    """Both analyses of each entry; a complex structure (``general7``) takes
    the general path either way, so it has one."""
    argvs = []
    for entry in catalog.entries():
        argvs.append(["analyze", entry.name, "--json"])
        if entry.kind != "general":
            argvs.append(["analyze", entry.name, "--general", "--json"])
    return argvs


def _output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == EXIT_OK, argv
    return out.getvalue()


def _verify_lines() -> str:
    """``kuranil verify`` over every entry, without the per-check seconds."""
    return _SECONDS.sub("", _output(["verify"]))


def _catalog_bases(reports: dict) -> str:
    """One ``[title]`` line per pinned polynomial list, then its polynomials;
    the obstruction generators come from the stored ``analyze`` reports."""
    lines: list[str] = []

    def section(title: str, polys) -> None:
        lines.append(f"[{title}]")
        lines.extend(str(p) for p in polys)

    for entry in catalog.entries():
        if entry.kind == "general":
            continue
        gens = [parse_polynomial(s) for s in
                reports[f"analyze {entry.name} --json"]["obstruction_generators"]]
        section(f"{entry.name} obstruction basis", buchberger(gens))
        readings = [("main", entry.published_components())]
        if entry.has_variant:
            readings.append(("variant", entry.published_components(variant=True)))
        for label, components in readings:
            if not components:
                continue
            contained = True
            for idx, component in enumerate(components, start=1):
                basis = buchberger(component)
                section(f"{entry.name} {label} component {idx} basis", basis)
                contained = contained and not any(normal_form(g, basis) for g in gens)
            if not contained:
                continue
            intersection = components[0]
            for idx, component in enumerate(components[1:], start=2):
                intersection = ideal_intersect(intersection, component)
                section(f"{entry.name} {label} components 1-{idx} intersection",
                        intersection)
    return "".join(line + "\n" for line in lines)


def test_catalog_reports_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    requests = _requests()
    assert sorted(golden) == sorted(" ".join(argv) for argv in requests)
    differing = [" ".join(argv) for argv in requests
                 if _output(argv) != json.dumps(golden[" ".join(argv)], indent=2) + "\n"]
    assert differing == []


def test_catalog_verify_lines_match_golden_file():
    assert _verify_lines() == GOLDEN_VERIFY.read_text(encoding="utf-8")


def test_catalog_groebner_bases_match_golden_file():
    reports = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _catalog_bases(reports) == GOLDEN_BASES.read_text(encoding="utf-8")


if __name__ == "__main__":
    reports = {" ".join(argv): json.loads(_output(argv)) for argv in _requests()}
    DATA.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
    GOLDEN_VERIFY.write_text(_verify_lines(), encoding="utf-8")
    print(f"wrote the verify lines to {GOLDEN_VERIFY}")
    GOLDEN_BASES.write_text(_catalog_bases(reports), encoding="utf-8")
    print(f"wrote the catalog bases to {GOLDEN_BASES}")
