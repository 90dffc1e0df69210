"""Write perfbench/reference.json, the outputs the benchmark checks against.

Run from the root of a source checkout: ``python3 perfbench/make_reference.py``.
It records, for each algebra of the frames and general workloads, the
frame-invariant report fields in its published frame and the generators of
the general recursion path, and cross-checks them with the catalog.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from kuranil import catalog  # noqa: E402


def main() -> int:
    frames, general = {}, {}
    for salamon in workloads.ALGEBRAS:
        code, out = workloads.run_cli(["analyze", salamon, "--json"])
        if code != 0:
            raise SystemExit(f"analyze {salamon} exited with {code}")
        report = json.loads(out)
        frames[salamon] = {f: report[f] for f in workloads.FRAME_INVARIANTS}
    for target, nu in workloads.general_targets(frames):
        code, out = workloads.run_cli(workloads.general_argv(target, nu))
        if code != 0:
            raise SystemExit(f"analyze {target} --general exited with {code}")
        report = json.loads(out)
        general[target] = {"h1_theta": report["h1_theta"],
                           "obstruction_generators": report["obstruction_generators"]}
    for target, expected in general.items():
        h1 = workloads.expected_h1(target, frames)
        if expected["h1_theta"] != h1:
            raise SystemExit(f"{target}: general h1 {expected['h1_theta']} != {h1}")
    for salamon, inv in frames.items():
        try:
            entry = catalog.get(salamon)
        except KeyError:
            continue
        if (inv["nu"], inv["h1_theta"], inv["smooth"]) != (
                entry.nu, entry.computed_h1, entry.smooth):
            raise SystemExit(f"{salamon}: report disagrees with the catalog")
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"frames": frames, "general": general}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
