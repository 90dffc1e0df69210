"""End-to-end acceptance checks against the published tables and displays.

Each test covers one acceptance criterion, prints one summary line, and
enforces the stated runtime budget.  The component-intersection test honours
a 300-second Gröbner budget per heavy case; a timeout there is a documented
SKIP, while a value mismatch always fails.
"""

import json
import random
import time

import pytest

from kuranil import catalog
from kuranil.algebra import (
    abelian,
    free_two_step,
    parse_salamon,
    to_complex_structure,
)
from kuranil.exterior import ExteriorForm, VectorForm
from kuranil.groebner import (
    buchberger,
    canonical_generators,
    ideal_equal,
    ideal_intersect,
    normal_form,
)
from kuranil.hodge import build_decomposition, build_theta_decomposition
from kuranil.kuranishi import (
    analyze,
    analyze_general,
    obstruction_map,
    parallelisable_directions,
    phi_recursion,
    smoothness_tests,
)
from kuranil.linalg import mat_mul
from kuranil.polyring import Polynomial, parse_polynomial
from kuranil.verify import run_entry_checks
from oracles import (
    direct_sum,
    in_subspace,
    mc_residual,
    quadratic_obstruction_closed_form,
    random_central_assignment,
    s_polynomial,
    schouten_general,
)
from random_algebras import random_nilpotent_algebras

P = parse_polynomial

TABLE_ROWS = [
    # (structure, nu, h1_theta, smooth)
    ("(0,0,12)", 2, 6, True),
    ("(0,0,0,12)", 2, 12, False),
    ("(0,0,12,13)", 3, 8, False),
    ("(0,0,0,12,13)", 2, 15, False),
    ("(0,0,0,0,12+34)", 2, 20, False),
    ("(0,0,12,13,23)", 3, 10, True),
    ("(0,0,0,12,13+24)", 3, 15, False),
    ("(0,0,12,13,14)", 4, 10, False),
    ("(0,0,12,13,14+23)", 4, 10, False),
]

CYLINDER_ROWS = [
    ("(0,0,0,12,13)", 9),
    ("(0,0,0,12,13+24)", 12),
    ("(0,0,12,13,14)", 8),
    ("(0,0,12,13,14+23)", 8),
    ("(0,0,0,0,12+34)", 16),
]


def _obstruction(L):
    return obstruction_map(phi_recursion(build_decomposition(L)))


def _report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_table_row_invariants():
    started = time.monotonic()
    for text, nu, h1, smooth in TABLE_ROWS:
        L = parse_salamon(text)
        dec = build_decomposition(L)
        assert L.nilpotency_index() == nu, text
        assert dec.harmonic_dim(1) * L.dim == h1, text
        assert (not obstruction_map(phi_recursion(dec))) is smooth, text
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(f"[PASS] criterion 1 — nine non-abelian table rows: nu, h^1(Theta), "
            f"smoothness all match ({elapsed:.1f}s)")


def test_criterion_2_explicit_generator_displays():
    started = time.monotonic()
    quadric = _obstruction(parse_salamon("(0,0,0,12)"))
    assert ideal_equal(quadric, [P("delta[13;12]"), P("delta[23;12]")])
    first = time.monotonic() - started
    assert first < 5.0

    started = time.monotonic()
    cubic = _obstruction(parse_salamon("(0,0,12,13)"))
    assert ideal_equal(cubic, [P("t2_1*delta[12;12]")])
    second = time.monotonic() - started
    assert second < 5.0

    # union-of-varieties certificate for the quadric ideal: V(I) is the
    # union of the plane {t3_1 = t3_2 = 0} and the rank-one locus
    linear = buchberger([P("t3_1"), P("t3_2")])
    rank = buchberger([P("delta[12;12]"), P("delta[13;12]"), P("delta[23;12]")])
    ideal = buchberger(quadric)
    for g in quadric:
        assert not normal_form(g, linear)
        assert not normal_form(g, rank)
    for s in ("t3_1*delta[12;12]", "t3_2*delta[12;12]"):
        assert not normal_form(P(s), ideal)
    _report(f"[PASS] criterion 2 — explicit dim-4 generators and reducibility "
            f"certificate ({first:.1f}s, {second:.1f}s)")


def test_criterion_3_cylinder_dimensions():
    started = time.monotonic()
    for text, d in CYLINDER_ROWS:
        dec = build_decomposition(parse_salamon(text))
        assert parallelisable_directions(dec)["d"] == d, text
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(f"[PASS] criterion 3 — cylinder base dimensions (9, 12, 8, 8, 16) "
            f"({elapsed:.1f}s)")


def test_criterion_4_component_intersections():
    # hard requirement: the two-component dim-5 case closes in under a minute
    started = time.monotonic()
    entry = catalog.get("(0,0,0,12,13)")
    components = entry.published_components()
    assert len(components) == 2
    gens = _obstruction(entry.build())
    intersection = ideal_intersect(components[0], components[1])
    assert ideal_equal(intersection, gens)
    first = time.monotonic() - started
    assert first < 60.0

    # remaining dim-5 cases: 300 s budget each; SKIP on timeout is accepted,
    # a mismatch is not.  Containment of the computed ideal in every printed
    # component is cheap and always enforced.
    outcomes = [f"(0,0,0,12,13) PASS {first:.1f}s"]
    for name in ("(0,0,0,12,13+24)", "(0,0,12,13,14)", "(0,0,12,13,14+23)",
                 "(0,0,0,0,12+34)"):
        checks = {r.check: r for r in run_entry_checks(catalog.get(name),
                                                        timeout=300.0)}
        contained = checks["component-containment"]
        assert contained.status == "PASS", f"{name}: {contained.detail}"
        result = checks["intersection"]
        assert result.status in ("PASS", "SKIP"), f"{name}: {result.detail}"
        outcomes.append(f"{name} {result.status} {result.seconds:.1f}s")
    _report("[PASS] criterion 4 — published component intersections: "
            + "; ".join(outcomes))


def test_criterion_5_mixed_structure_recursion():
    started = time.monotonic()
    csa = catalog.get("general7").build()
    dec = build_theta_decomposition(csa)
    initial = (
        VectorForm.single(ExteriorForm.covector(csa, 3, barred=True), 1)
        + VectorForm.single(ExteriorForm.covector(csa, 4, barred=True), 2))
    series = phi_recursion(dec, max_degree=3, initial=initial)
    assert not series.harmonic_parts[2]
    assert series.phi(2) == VectorForm.single(
        ExteriorForm.covector(csa, 7, barred=True).scale(2), 6)
    w35 = ExteriorForm.covector(csa, 3, barred=True).wedge(
        ExteriorForm.covector(csa, 5, barred=True))
    assert series.harmonic_parts[3] == VectorForm.single(w35.scale(4), 6)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(f"[PASS] criterion 5 — dim-7 mixed structure: no second-order "
            f"obstruction, phi_2 = 2*cw7 (x) X6, third-order class "
            f"4*cw3^cw5 (x) X6 ({elapsed:.1f}s)")


def test_criterion_6_free_algebra_smoothness():
    started = time.monotonic()
    for L in (free_two_step(2), free_two_step(3),
              parse_salamon("(0,0,12,13,23,14,25,24+15)")):
        assert not _obstruction(L), L.name
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _report(f"[PASS] criterion 6 — free 2-step (2 and 3 generators) and free "
            f"4-step dim-8 algebras are unobstructed ({elapsed:.1f}s)")


def _assert_structural_properties(L, name: str, rng: random.Random) -> None:
    """The structural theorems the deformation layer relies on, checked on
    one nilpotent Lie algebra against independent oracles."""
    dec = build_decomposition(L)

    # the squared differential vanishes on the whole complex
    for q in sorted(dec.d_matrices):
        nxt = dec.d_matrices.get(q + 1)
        cur = dec.d_matrices[q]
        if nxt and cur:
            assert all(not x for row in mat_mul(nxt, cur) for x in row.values()), name

    # h^{0,1} = dim g − dim [g, g]: the harmonic 1-forms are the forms
    # vanishing on the derived algebra
    assert dec.harmonic_dim(1) == L.dim - L.derived_algebra().dim, name

    series = phi_recursion(dec)
    obstruction = obstruction_map(series)
    nu = L.nilpotency_index()

    # Maurer-Cartan residual: identically zero after harmonic subtraction,
    # up to coexact terms certified to lie in the obstruction ideal
    residual = mc_residual(series)
    if series.dropped_coexact:
        dropped = VectorForm.zero(L)
        for vf in series.dropped_coexact.values():
            dropped = dropped + vf
        assert residual == dropped, name
        basis = buchberger(obstruction)
        for j in residual.components:
            for coeff in residual.component(j).terms.values():
                assert not normal_form(coeff, basis), name
    else:
        assert not residual, name

    # generator degrees are bounded by the nilpotency index
    assert all(g.total_degree() <= nu for g in obstruction), name

    # brackets of solution terms descend the central series
    central = L.descending_central_series()
    for k in sorted(series.terms):
        for l in sorted(series.terms):
            if not series.phi(k) or not series.phi(l):
                continue
            stage = central[min(k + l - 1, len(central) - 1)]
            bracket = schouten_general(series.phi(k), series.phi(l))
            assert in_subspace(bracket, stage), (name, k, l)

    # closed-form quadratic obstruction equals the recursion's degree-2 part
    quadratic = quadratic_obstruction_closed_form(dec)
    truncation = canonical_generators(series.obstruction_by_degree.get(2, {}).values())
    assert sorted(map(str, quadratic)) == sorted(map(str, truncation)), name

    # central directions are unobstructed: generators vanish there
    for _ in range(10):
        point = random_central_assignment(dec, rng)
        for g in obstruction:
            assert g.evaluate(point) == 0, name

    # wedge-degeneracy of harmonic 1-forms tracks non-freeness of g/C_2 g
    tests = smoothness_tests(dec, obstruction)
    if not L.is_abelian():
        assert tests["lambda2_singular"] == (tests["free_verdict"] != "free"), name

    # Buchberger post-conditions on the computed basis
    basis = buchberger(obstruction)
    for g in obstruction:
        assert not normal_form(g, basis), name
    polys = list(basis)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            assert not normal_form(s_polynomial(polys[i], polys[j]), basis)
    assert buchberger(polys) == basis, name

    # the report is plain JSON data
    report = analyze(L)
    assert json.loads(json.dumps(report)) == report, name


def test_criterion_7_structural_properties():
    started = time.monotonic()
    rng = random.Random(777)
    parallelisable = [e for e in catalog.entries() if e.kind == "parallelisable"]
    assert len(parallelisable) == 15
    for entry in parallelisable:
        _assert_structural_properties(entry.build(), entry.name, rng)

    # a product with an abelian factor is never unobstructed
    product = direct_sum(parse_salamon("(0,0,12)"), abelian(1))
    assert _obstruction(product)

    # scalar and vector-valued paths agree on the dim-4 quadric example
    L = parse_salamon("(0,0,0,12)")
    scalar_gens = _obstruction(L)
    general = analyze_general(to_complex_structure(L), max_degree=2)
    assert ideal_equal([P(s) for s in general["obstruction_generators"]],
                       scalar_gens)

    # mixed dim-7 structure: differential squares to zero on the Theta
    # complex, and the residual identities hold for both flag values.  The
    # matrices cover degrees 0..2; applying ∂̄ twice to every degree-2 cell
    # carries the check on to degree 4.
    csa = catalog.get("general7").build()
    tdec = build_theta_decomposition(csa)
    for q in sorted(tdec.d_matrices):
        nxt = tdec.d_matrices.get(q + 1)
        cur = tdec.d_matrices[q]
        if nxt and cur:
            assert all(not x for row in mat_mul(nxt, cur) for x in row.values())
    for mi, j in tdec.cells(2):
        cell = VectorForm.single(
            ExteriorForm(csa, {mi: Polynomial.one()}), j)
        assert not cell.delbar_theta().delbar_theta()
    initial = (
        VectorForm.single(ExteriorForm.covector(csa, 3, barred=True), 1)
        + VectorForm.single(ExteriorForm.covector(csa, 4, barred=True), 2))
    series = phi_recursion(tdec, max_degree=3, initial=initial)
    assert not mc_residual(series)
    w35 = ExteriorForm.covector(csa, 3, barred=True).wedge(
        ExteriorForm.covector(csa, 5, barred=True))
    assert mc_residual(series, subtract_harmonic=False) == \
        VectorForm.single(w35.scale(4), 6)

    elapsed = time.monotonic() - started
    _report(f"[PASS] criterion 7 — structural property suite over the full "
            f"catalog ({elapsed:.1f}s)")


# The random algebras of dimension 6 are left out: the Gröbner work on
# several of them takes from ten seconds to minutes (the obstruction basis
# of #4 and #21 alone does not finish within 30 s), far longer than a
# Tier-1 test may.
SMALL_RANDOM = [i for i, L in enumerate(random_nilpotent_algebras()) if L.dim <= 5]


@pytest.mark.parametrize("index", SMALL_RANDOM)
def test_criterion_7_structural_properties_on_random_algebras(index):
    L = random_nilpotent_algebras()[index]
    _assert_structural_properties(L, f"random #{index} {L.brackets}", random.Random(index))


def test_criterion_8_discrepancy_annotations():
    started = time.monotonic()
    for k in (2, 3, 4, 5):
        report = analyze(abelian(k))
        notes = [a for a in report["annotations"]
                 if a.get("tag") == "paper-discrepancy"]
        assert notes, f"abelian({k}) must surface the dimension discrepancy"
        assert notes[0]["computed"] == k * k
        assert notes[0]["published"] == k * k * (k + 1) // 2

    report = analyze(parse_salamon("(0,0,12)"))
    notes = [a for a in report["annotations"]
             if a.get("tag") == "paper-discrepancy"]
    assert notes, "free 2-step row must surface the overview-formula discrepancy"
    assert notes[0]["computed"] == 6 and notes[0]["published"] == 10

    assert analyze(abelian(1))["annotations"] == []
    elapsed = time.monotonic() - started
    _report(f"[PASS] criterion 8 — published-overview discrepancies surfaced "
            f"with tag 'paper-discrepancy' ({elapsed:.1f}s)")
