"""Inputs, requests and output checks of the three benchmark workloads.

Every request goes through ``kuranil.cli.main`` in this process, exactly as
``kuranil verify`` / ``kuranil analyze`` would run from a shell, with its
standard output captured.  A request returns ``(ok, detail)``; ``ok`` is
False on an exception, a non-zero exit code or a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

# The catalog as published: certify verifies each entry by name.
CATALOG = (
    "a_1", "a_2", "a_3", "a_4", "a_5", "(0,0,12)", "(0,0,0,12)",
    "(0,0,12,13)", "(0,0,0,12,13)", "(0,0,0,0,12+34)", "(0,0,12,13,23)",
    "(0,0,0,12,13+24)", "(0,0,12,13,14)", "(0,0,12,13,14+23)",
    "(0,0,12,13,23,14,25,24+15)", "general7",
)

# Parallelisable algebras analysed by frames and general: the catalog's, in
# Salamon notation, then dimension 6 and 7 algebras outside the catalog.
ALGEBRAS = (
    "(0)", "(0,0)", "(0,0,0)", "(0,0,0,0)", "(0,0,0,0,0)", "(0,0,12)",
    "(0,0,0,12)", "(0,0,12,13)", "(0,0,0,12,13)", "(0,0,0,0,12+34)",
    "(0,0,12,13,23)", "(0,0,0,12,13+24)", "(0,0,12,13,14)",
    "(0,0,12,13,14+23)", "(0,0,12,13,23,14,25,24+15)",
    "(0,0,0,0,12,13)", "(0,0,0,12,13,23)", "(0,0,0,12,13,14)",
    "(0,0,12,13,14,15)",
    "(0,0,0,0,0,12+34)", "(0,0,0,12,14,24)", "(0,0,0,12,13,24)",
    "(0,0,12,13,23,14)",
    "(0,0,0,12,13,14+23)", "(0,0,12,13,23,14+25)", "(0,0,12,13,14,15,16)",
)

# Report fields that do not depend on the basis the algebra is written in.
# Generator lists and degree profiles do: (0,0,0,12) has 2 generators in its
# published frame and 4 in some others.
FRAME_INVARIANTS = ("nu", "h1_theta", "hodge_numbers", "smooth",
                    "cylinder_dim", "free_verdict", "lambda2_singular")

# Random frames are adapted: each of two operations X_i += c·X_j has j > i,
# so the structure constants stay strictly triangular, as in the published
# frames.  Unrestricted operations give a heavy tail (single analyses of 9 s
# at two operations, over a minute at three) that makes the pass time depend
# on the seed far more than on the code.
FRAME_OPERATIONS = 2
FRAME_FACTORS = (-2, -1, 1, 2)

_CHECK_LINE = re.compile(
    r"^\[(?P<status>[A-Z]+)\] (?P<entry>.+) :: (?P<check>\S+) "
    r"\((?P<seconds>[0-9.]+)s\)")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of ``kuranil <argv>``."""
    from kuranil.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# -- Salamon strings and changes of frame -------------------------------------


def structure_constants(salamon: str) -> tuple[int, dict]:
    """Dimension and ``{(a, b): {k: c}}`` with ``[X_a, X_b] = Σ c X_k``.

    Entry k of the string is dw^k = Σ A^k_ab w^a∧w^b, so that
    ``[X_a, X_b] = -Σ_k A^k_ab X_k``, the package's own convention.
    """
    entries = salamon.strip()[1:-1].split(",")
    brackets: dict = {}
    for k, entry in enumerate(entries, start=1):
        if entry == "0":
            continue
        for term in re.findall(r"[+-]?[^+-]+", entry):
            sign = -1 if term.startswith("-") else 1
            body = term.lstrip("+-")
            coef, _, pair = body.rpartition("*")
            a, b = int(pair[0]), int(pair[1])
            c = sign * (int(coef) if coef else 1)
            if a > b:
                a, b, c = b, a, -c
            target = brackets.setdefault((a, b), {})
            target[k] = target.get(k, 0) - c
    return len(entries), brackets


def random_frame(dim: int, rng: random.Random) -> tuple[list, list]:
    """A unimodular change of basis and its inverse, as integer matrices.

    Column a of ``p`` is the new basis vector Y_a in the old basis.  Each
    operation ``X_i += c·X_j`` (i < j) multiplies ``p`` on the right by
    I + c·E_ji.
    """
    p = [[int(r == c) for c in range(dim)] for r in range(dim)]
    p_inv = [row[:] for row in p]
    for _ in range(FRAME_OPERATIONS):
        i, j = sorted(rng.sample(range(dim), 2))
        c = rng.choice(FRAME_FACTORS)
        for row in p:
            row[i] += c * row[j]
        p_inv[j] = [x - c * y for x, y in zip(p_inv[j], p_inv[i])]
    return p, p_inv


def change_frame(dim: int, brackets: dict, p: list, p_inv: list) -> dict:
    """Structure constants of the same algebra in the basis ``p``."""

    def bracket(u: list, v: list) -> list:
        out = [Fraction(0)] * dim
        for (a, b), comp in brackets.items():
            w = u[a - 1] * v[b - 1] - u[b - 1] * v[a - 1]
            if w:
                for k, c in comp.items():
                    out[k - 1] += w * c
        return out

    columns = [[p[r][c] for r in range(dim)] for c in range(dim)]
    result = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            v = bracket(columns[a], columns[b])
            coords = [sum(p_inv[r][s] * v[s] for s in range(dim))
                      for r in range(dim)]
            comp = {k + 1: c for k, c in enumerate(coords) if c}
            if comp:
                result[(a + 1, b + 1)] = comp
    return result


def structure_file_text(dim: int, brackets: dict) -> str:
    lines = [f"dim {dim}"]
    for (a, b), comp in sorted(brackets.items()):
        rhs = " + ".join(f"{c}*{k}" for k, c in sorted(comp.items()))
        lines.append(f"bracket {a} {b} = {rhs.replace('+ -', '- ')}")
    return "\n".join(lines) + "\n"


def write_random_frames(salamons, rng: random.Random, directory: str) -> list[str]:
    """One structure file per algebra, each in a random frame; their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for idx, salamon in enumerate(salamons):
        dim, brackets = structure_constants(salamon)
        if dim > 1:
            brackets = change_frame(dim, brackets, *random_frame(dim, rng))
        path = os.path.join(directory, f"frame_{idx:02d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(structure_file_text(dim, brackets))
        paths.append(path)
    return paths


# -- requests -------------------------------------------------------------------


def certify_request(name: str, check_seconds: dict) -> tuple[bool, str]:
    """``kuranil verify <name>``: ok only when every check line is PASS.

    A SKIP means a check ran out of budget, so it counts as a failure too.
    Each check's printed seconds are added to ``check_seconds``.
    """
    code, out = run_cli(["verify", name])
    lines = [m for m in map(_CHECK_LINE.match, out.splitlines()) if m]
    for m in lines:
        key = m["check"]
        check_seconds[key] = check_seconds.get(key, 0.0) + float(m["seconds"])
    bad = [m.group(0) for m in lines if m["status"] != "PASS"]
    if code != 0 or not lines or bad:
        return False, f"exit {code}: {bad or out[-200:]}"
    return True, f"{len(lines)} checks"


def analyze_request(target: str, expected: dict) -> tuple[bool, str]:
    """``kuranil analyze <target> --json``: the frame invariants must match."""
    code, out = run_cli(["analyze", target, "--json"])
    if code != 0:
        return False, f"exit {code}"
    report = json.loads(out)
    wrong = [f for f in FRAME_INVARIANTS if report[f] != expected[f]]
    return not wrong, f"wrong {wrong}" if wrong else ""


def general_targets(frames_reference: dict) -> list[tuple[str, int | None]]:
    """The general workload's requests: each algebra in its published frame
    with ``--max-degree`` its nilpotency index, then the general7 entry."""
    return [(s, frames_reference[s]["nu"]) for s in ALGEBRAS] + [("general7", None)]


def expected_h1(target: str, frames_reference: dict) -> int:
    """h¹(Θ) from the catalog, else from the parallelisable path."""
    from kuranil import catalog

    try:
        return catalog.get(target).computed_h1
    except KeyError:
        return frames_reference[target]["h1_theta"]


def general_argv(target: str, nu: int | None) -> list[str]:
    """``analyze <target> --general --max-degree ν --json``; general7 is a
    complex structure, so it takes the general path without the flags."""
    if nu is None:
        return ["analyze", target, "--json"]
    return ["analyze", target, "--general", "--max-degree", str(nu), "--json"]


def general_request(target: str, nu: int | None, h1: int,
                    generators: list[str]) -> tuple[bool, str]:
    """The general path's h¹(Θ) and generators must match ``h1`` and
    ``generators``."""
    code, out = run_cli(general_argv(target, nu))
    if code != 0:
        return False, f"exit {code}"
    report = json.loads(out)
    if report["h1_theta"] != h1:
        return False, f"h1_theta {report['h1_theta']} != {h1}"
    if report["obstruction_generators"] != generators:
        return False, "generators differ from the reference"
    return True, ""
