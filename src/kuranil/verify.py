"""Verification of catalog entries against their stored data.

Each check re-derives one stored invariant or certificate and reports PASS,
FAIL or SKIP (the intersection check ran out of its time budget).  Every
ideal relation a check certifies, equality included, is decided by
:func:`~kuranil.groebner.non_members`, which divides by the ideal's
generators first and builds an unreduced grevlex basis of the ideal only
when division leaves a remainder.  That basis stops at the remainders' top
degree when the ideal is homogeneous, as most computed ideals and stored
components are, and is complete otherwise.  The expected-generators check is
the two containments I ⊆ E and E ⊆ I of the computed ideal I and the stored
one E.  The reducibility check tests I in its linear and rank ideals and its
products in I.  Each stored reading's escape (the first computed generator
that misses one of its components) is taken once and settles both the
containment and the intersection check: containment gives I ⊆ ∩ Qᵢ, so the
intersection check only tests the intersection's generators for membership
in I.  Besides those fallback grevlex bases, the only bases built are the
lex bases of the elimination that intersects a reading's components.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import catalog
from .exterior import ExteriorForm, VectorForm
from .groebner import GroebnerTimeout, ideal_equal, ideal_intersect, non_members
from .hodge import build_theta_decomposition
from .kuranishi import analyze, phi_recursion
from .polyring import Polynomial, parse_polynomial


class InputError(Exception):
    """Unresolvable CLI target, unknown catalog entry or unparsable input file."""


@dataclass
class CheckResult:
    entry: str
    check: str
    status: str  # PASS | FAIL | SKIP
    detail: str = ""
    seconds: float = 0.0


def _timed(results: list[CheckResult], entry: str, check: str, started: float,
           passed: bool, detail: str = "") -> None:
    results.append(CheckResult(entry, check, "PASS" if passed else "FAIL",
                               detail, time.monotonic() - started))


def run_entry_checks(entry: catalog.CatalogEntry,
                     timeout: float = 300.0) -> list[CheckResult]:
    """All verification checks for one catalog entry.

    ``timeout`` (seconds, ``>= 0``) is one hard limit on the intersection
    check's elimination and final membership test together; reaching it
    yields SKIP, not FAIL, and ``0`` skips the certificate.  Any other value,
    ``nan`` included, raises :class:`ValueError` before a check runs.
    """
    if not timeout >= 0:
        raise ValueError(f"timeout must be seconds >= 0, got {timeout!r}")
    if entry.kind == "general":
        return _general_checks(entry)
    return _parallelisable_checks(entry, timeout)


def _parallelisable_checks(entry: catalog.CatalogEntry,
                           timeout: float) -> list[CheckResult]:
    results: list[CheckResult] = []
    started = time.monotonic()
    algebra = entry.build()
    report = analyze(algebra)
    computed = (report["nu"], report["h1_theta"],
                not report["obstruction_generators"])
    expected = (entry.nu, entry.computed_h1, entry.smooth)
    _timed(results, entry.name, "invariants", started, computed == expected,
           f"nu={computed[0]} h1={computed[1]} smooth={'yes' if computed[2] else 'no'}")

    if entry.published_h1 is not None and entry.published_h1 != entry.computed_h1:
        started = time.monotonic()
        notes = [a for a in report["annotations"]
                 if a.get("tag") == "paper-discrepancy"
                 and a.get("published") == entry.published_h1]
        _timed(results, entry.name, "h1-annotation", started, bool(notes),
               f"annotations={len(notes)}")

    gens = [parse_polynomial(s) for s in report["obstruction_generators"]]

    if entry.d is not None:
        started = time.monotonic()
        _timed(results, entry.name, "cylinder-dim", started,
               report["cylinder_dim"] == entry.d,
               f"d={report['cylinder_dim']} expected {entry.d}")

    if entry.expected_generators:
        started = time.monotonic()
        _timed(results, entry.name, "expected-generators", started,
               ideal_equal(gens, entry.expected_ideal()),
               f"{len(gens)} generators")

    if entry.reducibility:
        results.append(_reducibility_check(entry, gens))

    if entry.ideal_file:
        results.extend(_reading_checks(entry, gens, timeout))
    return results


def _readings(entry: catalog.CatalogEntry) -> list[tuple[str, list[list[Polynomial]]]]:
    """``(label, components)`` of each stored reading of the entry's ideal."""
    readings = [("main", entry.published_components())]
    if entry.has_variant:
        readings.append(("variant", entry.published_components(variant=True)))
    return readings


def _escape(gens: list[Polynomial],
            components: list[list[Polynomial]]) -> tuple[int, Polynomial] | None:
    """The first component (1-based) that misses a polynomial of ``gens``,
    with the first polynomial it misses; None when none does."""
    for idx, component in enumerate(components, start=1):
        bad = non_members(gens, component)
        if bad:
            return idx, bad[0]
    return None


def _reading_checks(entry: catalog.CatalogEntry, gens: list[Polynomial],
                    timeout: float) -> list[CheckResult]:
    """The component-containment check (the computed ideal I lies in every
    component of some stored reading, I ⊆ ∩ Qᵢ) and the intersection check
    (the components of some reading intersect exactly to I), in that order.
    Each reading's escape is taken once, for both."""
    parsed = _readings(entry)
    started = time.monotonic()
    readings = [(label, components, _escape(gens, components))
                for label, components in parsed]
    status, detail = "FAIL", ""
    for label, _, escape in readings:
        if escape is None:
            status, detail = "PASS", f"{label} reading"
            break
        detail = f"{label} reading: component {escape[0]} misses {escape[1]}"
    results = [CheckResult(entry.name, "component-containment", status, detail,
                           time.monotonic() - started)]

    started = time.monotonic()
    deadline = started + timeout
    status, detail = "FAIL", ""
    for label, components, escape in readings:
        # Equality forces the computed ideal into every component, so a
        # reading that fails containment cannot match; its escape settles it
        # without the elimination fold.
        if escape is not None:
            detail = (f"{label} reading: intersection differs from "
                      f"computed ideal ({escape[1]} escapes a component)")
            continue
        try:
            intersection = components[0]
            for component in components[1:]:
                intersection = ideal_intersect(intersection, component,
                                               deadline=deadline)
            # Containment already gives I ⊆ ∩ Qᵢ, so equality is ∩ Qᵢ ⊆ I:
            # every generator of the intersection lies in I.
            if not non_members(intersection, gens, deadline):
                status, detail = "PASS", f"{label} reading"
                break
        except GroebnerTimeout:
            status, detail = "SKIP", f"timed out after {timeout:g}s"
            break
        detail = f"{label} reading: intersection differs from computed ideal"
    results.append(CheckResult(entry.name, "intersection", status, detail,
                               time.monotonic() - started))
    return results


def _reducibility_check(entry: catalog.CatalogEntry,
                        gens: list[Polynomial]) -> CheckResult:
    """Certify V(I) = V(linear) ∪ V(rank) through exact ideal membership:
    I ⊆ (linear), I ⊆ (rank), and products · (linear gens) lie back in I."""
    started = time.monotonic()
    families = {key: [parse_polynomial(s) for s in group]
                for key, group in entry.reducibility.items()}
    problems = []
    for key in ("linear", "rank"):
        bad = non_members(gens, families[key])
        if bad:
            problems.append(f"{bad[0]} not in ({key})")
    for product in non_members(families["products"], gens):
        problems.append(f"{product} not in computed ideal")
    return CheckResult(entry.name, "reducibility", "PASS" if not problems else "FAIL",
                       "; ".join(problems) or "union certificate holds",
                       time.monotonic() - started)


def _general_checks(entry: catalog.CatalogEntry) -> list[CheckResult]:
    """Recursion checks for the dimension-7 mixed structure: the second-order
    obstruction vanishes while a third-order one survives."""
    results: list[CheckResult] = []
    csa = entry.build()
    started = time.monotonic()
    decomposition = build_theta_decomposition(csa)
    _timed(results, entry.name, "h1", started,
           decomposition.harmonic_dim(1) == entry.computed_h1,
           f"h1={decomposition.harmonic_dim(1)}")

    started = time.monotonic()
    initial = (VectorForm.single(ExteriorForm.covector(csa, 3, barred=True), 1)
               + VectorForm.single(ExteriorForm.covector(csa, 4, barred=True), 2))
    series = phi_recursion(decomposition, max_degree=3, initial=initial)
    expected_phi2 = VectorForm.single(
        ExteriorForm.covector(csa, 7, barred=True).scale(2), 6)
    second_ok = (not series.harmonic_parts[2]) and series.phi(2) == expected_phi2
    _timed(results, entry.name, "second-order", started, second_ok,
           f"phi_2 = {series.phi(2)}")

    started = time.monotonic()
    w3 = ExteriorForm.covector(csa, 3, barred=True)
    w5 = ExteriorForm.covector(csa, 5, barred=True)
    expected_h3 = VectorForm.single(w3.wedge(w5).scale(4), 6)
    _timed(results, entry.name, "third-order", started,
           series.harmonic_parts[3] == expected_h3,
           f"H(S_3) = {series.harmonic_parts[3]}")
    return results


def run_catalog_checks(names: list[str] | None = None,
                       timeout: float = 300.0) -> list[CheckResult]:
    """Run checks for the selected entries (all when ``names`` is empty).

    An unknown name raises :class:`InputError` before any check runs.
    """
    try:
        entries = [catalog.get(n) for n in names] if names else catalog.entries()
    except KeyError as exc:
        raise InputError(exc.args[0]) from None
    return [result for entry in entries
            for result in run_entry_checks(entry, timeout)]
