"""Digests of kuranil's outputs, to show that a change leaves them byte-identical.

Run by hand from anywhere, on the checkout that holds this file or on another
one given as the argument (a second copy of the parent commit, say):

    python tests/output_digest.py [CHECKOUT]

It imports ``kuranil`` from ``CHECKOUT/src`` and the benchmark inputs from
``CHECKOUT/perfbench/workloads.py``, runs every request in this process
through ``kuranil.cli.main``, and prints three lines:

* ``outputs <sha256>`` over 200 outputs: ``analyze --json`` and ``analyze``
  (text) on the 26 perfbench ``ALGEBRAS``; ``analyze --json`` on each of them
  in a random frame (``write_random_frames`` with ``random.Random(seed)``) at
  seeds 1, 2, 3 and 1601; the 27 requests of the ``general`` workload;
  ``analyze general7 --max-degree 4 --json``; and ``verify`` on each of the
  16 catalog entries, every check's seconds stripped;
* ``tail <sha256>`` over the frame-tail set: at each of seeds 5–8, one
  ``random.Random(seed)`` draws four operations X_i += c·X_j, in either
  order of i and j, for each of the ``ALGEBRAS`` of dimension 3 or more in
  turn (the two smaller ones take no draw), and ``analyze --json`` runs on
  each of the 96 frames;
* ``tail_cpu_s <seconds>``, the process CPU time of those 96 analyses.

Each output enters its digest as its label, exit code and standard output.
pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT_SEEDS = (1, 2, 3, 1601)
TAIL_SEEDS = (5, 6, 7, 8)
TAIL_OPERATIONS = 4
_SECONDS = re.compile(r" \([0-9.]+s\)")


def _run(main, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"{code}\n{out.getvalue()}"


def _digest(entries) -> str:
    h = hashlib.sha256()
    for label, text in entries:
        h.update(f"{label}\0{text}\0".encode())
    return h.hexdigest()


def tail_frame(dim: int, rng: random.Random, workloads) -> tuple[list, list]:
    """``workloads.random_frame`` with four operations whose i and j come in
    either order."""
    p = [[int(r == c) for c in range(dim)] for r in range(dim)]
    p_inv = [row[:] for row in p]
    for _ in range(TAIL_OPERATIONS):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice(workloads.FRAME_FACTORS)
        for row in p:
            row[i] += c * row[j]
        p_inv[j] = [x - c * y for x, y in zip(p_inv[j], p_inv[i])]
    return p, p_inv


def main(argv: list[str]) -> int:
    root = os.path.abspath(argv[0] if argv else os.path.dirname(HERE))
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from kuranil.cli import main as cli

    outputs = []
    for salamon in workloads.ALGEBRAS:
        outputs.append((f"json {salamon}", _run(cli, ["analyze", salamon, "--json"])))
        outputs.append((f"text {salamon}", _run(cli, ["analyze", salamon])))
    with tempfile.TemporaryDirectory() as work:
        for seed in OUTPUT_SEEDS:
            paths = workloads.write_random_frames(
                workloads.ALGEBRAS, random.Random(seed), os.path.join(work, str(seed)))
            for salamon, path in zip(workloads.ALGEBRAS, paths):
                outputs.append((f"frame {seed} {salamon}",
                                _run(cli, ["analyze", path, "--json"])))
        reference = workloads.load_reference()
        for target, nu in workloads.general_targets(reference["frames"]):
            outputs.append((f"general {target}",
                            _run(cli, workloads.general_argv(target, nu))))
        outputs.append(("general7 cap 4",
                        _run(cli, ["analyze", "general7", "--max-degree", "4", "--json"])))
        for name in workloads.CATALOG:
            outputs.append((f"verify {name}", _SECONDS.sub("", _run(cli, ["verify", name]))))

        tail, cpu = [], 0.0
        for seed in TAIL_SEEDS:
            rng = random.Random(seed)
            for salamon in workloads.ALGEBRAS:
                dim, brackets = workloads.structure_constants(salamon)
                if dim < 3:
                    continue
                framed = workloads.change_frame(dim, brackets, *tail_frame(dim, rng, workloads))
                path = os.path.join(work, f"tail_{seed}_{len(tail):03d}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(workloads.structure_file_text(dim, framed))
                start = time.process_time()
                text = _run(cli, ["analyze", path, "--json"])
                cpu += time.process_time() - start
                tail.append((f"tail {seed} {salamon}", text))
    print(f"outputs {_digest(outputs)} ({len(outputs)} outputs)")
    print(f"tail {_digest(tail)} ({len(tail)} outputs)")
    print(f"tail_cpu_s {cpu:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
