"""``kuranil analyze --json`` and ``kuranil analyze --general --json`` print,
for every catalog entry, exactly the reports stored in
``data/catalog_reports.json``.

The stored reports change only on purpose, by running this file::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from kuranil import catalog
from kuranil.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "data" / "catalog_reports.json"


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


def test_catalog_reports_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    requests = _requests()
    assert sorted(golden) == sorted(" ".join(argv) for argv in requests)
    differing = [" ".join(argv) for argv in requests
                 if _output(argv) != json.dumps(golden[" ".join(argv)], indent=2) + "\n"]
    assert differing == []


if __name__ == "__main__":
    reports = {" ".join(argv): json.loads(_output(argv)) for argv in _requests()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
