"""Maurer-Cartan recursion, obstruction ideals, smoothness reports."""

from fractions import Fraction
import functools
import itertools
import json
import random
import re

from hypothesis import Phase, example, given, seed, settings, strategies as st
import pytest

from kuranil import catalog, kuranishi
from kuranil.algebra import (
    LieAlgebra,
    abelian,
    free_two_step,
    parse_complex_structure_file,
    parse_salamon,
    parse_structure_file,
    to_complex_structure,
)
from kuranil.cli import report_text
from kuranil.exterior import AmbientMismatch, Cov, ExteriorForm, VectorForm
from kuranil.groebner import buchberger, canonical_generators, ideal_equal, normal_form
from kuranil.hodge import DegreeMismatch, build_decomposition, build_theta_decomposition
from kuranil.intforms import ZERO, Kernel
from kuranil.kuranishi import (
    BIANCHI,
    IN_V2,
    ClosednessViolation,
    MissingDegreeCap,
    analyze,
    analyze_general,
    generic_harmonic_element,
    obstruction_map,
    parallelisable_directions,
    phi_recursion,
    smoothness_tests,
)
from kuranil.polyring import LEX, Packing, Polynomial, mono_degree, parse_polynomial, var_rank

from oracles import (
    bracket_sum,
    direct_sum,
    mc_residual,
    quadratic_obstruction_closed_form,
    random_central_assignment,
    schouten_general,
)
from random_algebras import RANDOM_NILPOTENT_COUNT, change_frame, random_nilpotent_algebras
from random_structures import LIVE_DEL_DIM4, LIVE_DEL_FRACTIONS, SWAPPED5, random_structure_text

P = parse_polynomial

# Frames whose harmonic 1-forms are not the first h^{0,1} covectors.
NON_ADAPTED = ("(34,0,0,0)", "(45,0,0,0,0)", "(0,35,0,0,0)")


def _mixed7():
    return parse_complex_structure_file("dim 7\ndw6 = w1^w2\ndw7 = w3^w4 + cw1^w5\n")


def _obstruction(L):
    return obstruction_map(phi_recursion(build_decomposition(L)))


def _cw(ambient, *indices):
    out = ExteriorForm.constant(ambient, 1)
    for index in indices:
        out = out.wedge(ExteriorForm.covector(ambient, index, barred=True))
    return out


# -- Schouten bracket --------------------------------------------------------


def _wedge_and_bracket(a, b):
    """ᾱ∧β̄⊗[X,Y] summed over the components of ``a`` and ``b``."""
    L = a.ambient
    out = VectorForm.zero(L)
    for i, alpha in a.components.items():
        for j, beta in b.components.items():
            for (k, _), c in L.vector_bracket(i, False, j, False).items():
                out = out + VectorForm.single(alpha.wedge(beta).scale(c), k)
    return out


def test_schouten_parallelisable_is_wedge_tensor_bracket():
    L = parse_salamon("(0,0,12)")
    a = VectorForm.single(_cw(L, 1), 1)
    b = VectorForm.single(_cw(L, 2), 2)
    out = schouten_general(a, b)
    # cw1^cw2 (x) [X1, X2] = cw1^cw2 (x) (-X3)
    assert out == VectorForm.single(_cw(L, 1, 2).scale(Fraction(-1)), 3)


def test_schouten_parallelisable_symmetric_on_one_forms():
    L = parse_salamon("(0,0,12,13)")
    a = VectorForm.single(_cw(L, 1), 1)
    b = VectorForm.single(_cw(L, 2), 2)
    assert schouten_general(a, b) == schouten_general(b, a)


_LIVE_DEL_TEXTS = {"dim4": LIVE_DEL_DIM4, "swapped5": SWAPPED5, "fractions": LIVE_DEL_FRACTIONS}


@functools.cache
def _live_del_structure(which):
    if which == "general7":
        return catalog.get("general7").build()
    return parse_complex_structure_file(_LIVE_DEL_TEXTS[which])


@pytest.mark.parametrize("which", ["general7", "swapped5"])
def test_schouten_general_symmetric_on_generic_one_forms(which):
    """[a, b] = [b, a] on Θ-valued 1-forms with polynomial coefficients, over
    structures whose ∂-terms are live: ``bracket_sum`` brackets each pair once."""
    csa = _live_del_structure(which)
    series = phi_recursion(build_theta_decomposition(csa), 3)
    phi1 = series.phi(1)
    rng = random.Random(56)
    coeffs = [P("t1_1 + 2"), P("t2_1*t1_2 - 1/3"), P("-3*t1_2^2"), P("t3_3")]
    others = [series.phi(2), series.phi(3)]
    for _ in range(3):
        other = VectorForm.zero(csa)
        for _ in range(6):
            other = other + VectorForm.single(
                _cw(csa, rng.randint(1, csa.complex_dim)).scale(rng.choice(coeffs)),
                rng.randint(1, csa.complex_dim))
        others.append(other)
    for other in others:
        assert schouten_general(phi1, other) == schouten_general(other, phi1)
    assert any(schouten_general(phi1, other) != _wedge_and_bracket(phi1, other)
               for other in others[:2])


@pytest.mark.parametrize("which", ["general7", "swapped5", "(0,0,12,13,14)", "(0,0,0,12,13+24)"])
def test_bracket_sum_equals_sum_over_ordered_pairs(which):
    if which.startswith("("):
        decomposition = build_decomposition(parse_salamon(which))
        series = phi_recursion(decomposition)
    else:
        decomposition = build_theta_decomposition(_live_del_structure(which))
        series = phi_recursion(decomposition, 4)
    for k in range(2, series.max_degree + 1):
        ordered = VectorForm.zero(decomposition.ambient)
        for i in range(1, k):
            ordered = ordered + schouten_general(series.phi(i), series.phi(k - i))
        assert bracket_sum(series, k) == ordered


def test_schouten_general_reduces_to_parallelisable():
    L = parse_salamon("(0,0,12,13)")
    rng = random.Random(55)
    for _ in range(5):
        a = VectorForm.zero(L)
        b = VectorForm.zero(L)
        for j in range(1, 5):
            a = a + VectorForm.single(
                _cw(L, rng.randint(1, 4)).scale(Fraction(rng.randint(-2, 2))), j)
            b = b + VectorForm.single(
                _cw(L, rng.randint(1, 4)).scale(Fraction(rng.randint(-2, 2))), j)
        assert schouten_general(a, b) == _wedge_and_bracket(a, b)


def test_schouten_general_matches_stated_first_bracket():
    # [mu, mu] for mu = cw3 (x) X1 + cw4 (x) X2 picks up i_X del terms
    csa = _mixed7()
    mu = VectorForm.single(_cw(csa, 3), 1) + VectorForm.single(_cw(csa, 4), 2)
    out = schouten_general(mu, mu)
    assert out.component(6) == _cw(csa, 3, 4).scale(Fraction(-2))
    assert not out.component(1) and not out.component(2)


def _reference_wedge(a, b):
    """α∧β term by term: each product's covectors sorted, with the sign of
    the sorting permutation (its inversions counted); a repeated covector
    gives zero."""
    terms = {}
    for mi1, c1 in a.terms.items():
        for mi2, c2 in b.terms.items():
            covs = mi1 + mi2
            if len(set(covs)) < len(covs):
                continue
            inversions = sum(x.sort_key > y.sort_key for x, y in itertools.combinations(covs, 2))
            mi = tuple(sorted(covs, key=lambda cv: cv.sort_key))
            terms[mi] = terms.get(mi, Polynomial.zero()) + c1 * c2 * (-1) ** inversions
    return ExteriorForm(a.ambient, terms)


def _schouten_reference(a, b):
    """The three-term Schouten bracket as one wedge, scale and sum per term:
    −(i_Y ∂ᾱ)∧β̄⊗X + ᾱ∧(i_X ∂β̄)⊗Y + ᾱ∧β̄⊗[X,Y] (Frölicher–Nijenhuis)."""
    ambient = a.ambient
    out = VectorForm.zero(ambient)
    for i, alpha in a.components.items():
        for j, beta in b.components.items():
            out = out - VectorForm.single(_reference_wedge(alpha.del_().contract(j), beta), i)
            out = out + VectorForm.single(_reference_wedge(alpha, beta.del_().contract(i)), j)
            w = _reference_wedge(alpha, beta)
            for (k, _), c in ambient.vector_bracket(i, False, j, False).items():
                out = out + VectorForm.single(w.scale(c), k)
    return out


_COEFFICIENTS = ("t1_1", "2*t1_2 - 1/3", "t2_1*t1_1 + 5", "-t2_2^2", "7/2", "-3")


def _random_theta_form(ambient, q: int, rng: random.Random) -> VectorForm:
    """A Θ-valued (0,q)-form of a few cells with polynomial coefficients."""
    n = ambient.complex_dim
    terms = {}
    for _ in range(rng.randint(1, 6)):
        mi = tuple(Cov(i, True) for i in sorted(rng.sample(range(1, n + 1), q)))
        terms[(mi, rng.randint(1, n))] = P(rng.choice(_COEFFICIENTS))
    return VectorForm(ambient, terms)


_SCHOUTEN_ORACLE = settings(derandomize=True, deadline=None, max_examples=60)
_DEGREES = st.sampled_from((1, 2))


@_SCHOUTEN_ORACLE
@given(st.sampled_from(["general7", "swapped5"]), _DEGREES, _DEGREES,
       st.randoms(use_true_random=False))
def test_schouten_general_matches_the_reference_where_del_terms_are_live(which, p, q, rng):
    """The bracket summed in one term map equals the formula summed one
    ``Polynomial`` at a time, on random polynomial-coefficient forms of
    degrees 1–2 over structures whose ∂-terms are live."""
    ambient = _live_del_structure(which)
    a, b = _random_theta_form(ambient, p, rng), _random_theta_form(ambient, q, rng)
    assert schouten_general(a, b) == _schouten_reference(a, b)


@_SCHOUTEN_ORACLE
@given(st.sampled_from(["general7", "swapped5", "dim4"]), st.randoms(use_true_random=False))
def test_schouten_general_makes_a_dgla_where_del_terms_are_live(which, rng):
    """Oracles that need no formula for the bracket on Θ-valued (0,q)-forms,
    over structures whose ∂-terms are live: graded symmetry
    [a, b] = −(−1)^{pq}[b, a] in degrees (2,1), ∂̄ a derivation,
    ∂̄[a, b] = [∂̄a, b] + (−1)^p [a, ∂̄b], in degrees (1,1) and (2,1), and
    [[a, a], a] = 0 in degree 1."""
    ambient = _live_del_structure(which)
    a, b = _random_theta_form(ambient, 1, rng), _random_theta_form(ambient, 1, rng)
    c = _random_theta_form(ambient, 2, rng)
    assert schouten_general(c, a) == -schouten_general(a, c)
    for x, sign in ((a, -1), (c, 1)):
        assert (schouten_general(x, b).delbar_theta()
                == schouten_general(x.delbar_theta(), b)
                + schouten_general(x, b.delbar_theta()).scale(sign))
    assert not schouten_general(schouten_general(a, a), a)


@_SCHOUTEN_ORACLE
@given(st.integers(0, RANDOM_NILPOTENT_COUNT - 1), _DEGREES, _DEGREES,
       st.randoms(use_true_random=False))
def test_schouten_general_matches_the_reference_on_random_algebras(index, p, q, rng):
    """The same over the random nilpotent algebras, where only the
    wedge-and-bracket term is live."""
    ambient = random_nilpotent_algebras()[index]
    a, b = _random_theta_form(ambient, p, rng), _random_theta_form(ambient, q, rng)
    assert schouten_general(a, b) == _schouten_reference(a, b)


@functools.cache
def _theta_decomposition(ambient):
    return build_theta_decomposition(ambient)


def _kernel_bracket(a: VectorForm, b: VectorForm, p: int) -> VectorForm:
    """[a, b] for a of degree p and b of degree 1, by the integer bracket the
    recursion runs, over the Θ decomposition of their ambient."""
    decomposition = _theta_decomposition(a.ambient)
    variables = sorted({v for form in (a, b) for c in form.terms.values() for v in c.variables()},
                       key=var_rank)
    kernel = Kernel(decomposition, Packing(variables, LEX, 8))
    return kernel.vector_form(kernel.bracket(kernel.form(a, p), kernel.form(b, 1), p), p + 1)


@_SCHOUTEN_ORACLE
@given(st.sampled_from(["general7", "swapped5", "dim4", "fractions"]), _DEGREES,
       st.randoms(use_true_random=False))
def test_kernel_bracket_equals_schouten_general_where_del_terms_are_live(which, p, rng):
    """The recursion's integer bracket, with its contraction tables, equals
    the ``VectorForm`` oracle term for term on random polynomial-coefficient
    forms of degrees (1,1) and (2,1), so the DGLA axioms the tests above
    check of the oracle hold for the bracket the library runs.  The
    ``fractions`` structure gives the contractions and the frame brackets
    denominators other than 1."""
    ambient = _live_del_structure(which)
    a, b = _random_theta_form(ambient, p, rng), _random_theta_form(ambient, 1, rng)
    assert _kernel_bracket(a, b, p) == schouten_general(a, b)


@_SCHOUTEN_ORACLE
@given(st.integers(0, 10**6).map(lambda seed: random_structure_text(random.Random(seed))),
       _DEGREES, st.randoms(use_true_random=False))
@example(LIVE_DEL_DIM4, 2, random.Random(0))
def test_kernel_bracket_equals_schouten_general_on_random_structures(text, p, rng):
    """The same over random non-parallelisable structures."""
    ambient = parse_complex_structure_file(text)
    a, b = _random_theta_form(ambient, p, rng), _random_theta_form(ambient, 1, rng)
    assert _kernel_bracket(a, b, p) == schouten_general(a, b)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 10**6).map(lambda seed: random_structure_text(random.Random(seed))))
@example(LIVE_DEL_DIM4)
def test_analyze_general_finishes_on_random_non_parallelisable_structures(text):
    """The coexact certificate brackets ψ_j, of degree 2, with Φ: wherever ∂ψ_j
    is live, only the Frölicher–Nijenhuis sign of the bracket's ∂-term lets
    a valid structure through without ``ClosednessViolation``."""
    analyze_general(parse_complex_structure_file(text), max_degree=4)


def test_schouten_general_computes_del_only_where_it_is_live(monkeypatch):
    """On a parallelisable ambient ∂ of every (0,q)-form vanishes, so neither
    analysis computes one; over a structure with a (1,1) part the bracket
    still does."""
    calls = []
    del_ = ExteriorForm.del_

    def counted(form):
        calls.append(form)
        return del_(form)

    monkeypatch.setattr(ExteriorForm, "del_", counted)
    L = catalog.get("(0,0,12,13,14+23)").build()
    analyze(L)
    analyze_general(to_complex_structure(L))
    assert calls == []
    for csa in (catalog.get("general7").build(), _mixed7(),
                parse_complex_structure_file(SWAPPED5)):
        calls.clear()
        analyze_general(csa, max_degree=2)
        assert calls, csa


# -- generic harmonic element ------------------------------------------------


def test_generic_harmonic_element_spans_h1_times_vectors():
    for text, m in (("(0,0,12)", 2), ("(0,0,0,12)", 3), ("(0,0,12,13)", 2)):
        L = parse_salamon(text)
        dec = build_decomposition(L)
        phi1, variables = generic_harmonic_element(dec)
        assert len(variables) == m * L.dim
        assert dec.is_closed(phi1.component(1))
        for j in range(1, L.dim + 1):
            comp = phi1.component(j)
            if comp:
                assert dec.in_space(comp, "H")


# -- the recursion -----------------------------------------------------------


def test_phi_recursion_nilpotent_caps_at_nu():
    L = parse_salamon("(0,0,12,13)")
    series = phi_recursion(build_decomposition(L))
    assert sorted(series.terms) == [1, 2, 3]  # nu = 3


def test_phi_recursion_frozen_low_degree_terms():
    L = parse_salamon("(0,0,12,13)")
    series = phi_recursion(build_decomposition(L))
    expected_phi2 = (
        VectorForm.single(_cw(L, 3).scale(P("2*delta[12;12]")), 3)
        + VectorForm.single(_cw(L, 3).scale(P("2*delta[12;13]")), 4))
    assert series.phi(2) == expected_phi2
    expected_phi3 = VectorForm.single(_cw(L, 4).scale(P("4*t1_1*delta[12;12]")), 4)
    assert series.phi(3) == expected_phi3
    expected_h3 = VectorForm.single(
        _cw(L, 2, 3).scale(P("-4*t2_1*delta[12;12]")), 4)
    assert series.harmonic_parts[3] == expected_h3
    assert not series.harmonic_parts[2]
    assert not series.dropped_coexact


def test_phi_recursion_higher_degree_dropped_coexact_is_ideal_trivial():
    L = parse_salamon("(0,0,12,13,14)")
    series = phi_recursion(build_decomposition(L))
    expected_phi4 = VectorForm.single(
        _cw(L, 5).scale(P("8*t1_1^2*delta[12;12]")), 5)
    assert series.phi(4) == expected_phi4
    assert sorted(series.dropped_coexact) == [4]
    expected_dropped = VectorForm.single(
        _cw(L, 2, 4).scale(P("-8*t1_1*t2_1*delta[12;12]")), 5)
    assert series.dropped_coexact[4] == expected_dropped
    # every dropped coefficient already lies in the obstruction ideal
    obstruction = obstruction_map(series)
    basis = buchberger(obstruction)
    for vf in series.dropped_coexact.values():
        for j in range(1, L.dim + 1):
            for coeff in vf.component(j).terms.values():
                assert not normal_form(coeff, basis)


def test_phi_recursion_accepts_prebuilt_decomposition_and_initial():
    L = parse_salamon("(0,0,12)")
    dec = build_decomposition(L)
    phi1, _ = generic_harmonic_element(dec)
    series = phi_recursion(dec, initial=phi1)
    assert series.phi(1) == phi1
    assert series.phi(2) == VectorForm.single(
        _cw(L, 3).scale(P("2*delta[12;12]")), 3)


def test_phi_recursion_rejects_initial_over_another_ambient():
    dec = build_decomposition(parse_salamon("(0,0,12)"))
    other = parse_salamon("(0,0,12)")
    phi1, _ = generic_harmonic_element(build_decomposition(other))
    with pytest.raises(AmbientMismatch):
        phi_recursion(dec, initial=phi1)


def _past_the_frame(form: ExteriorForm) -> VectorForm:
    """``form`` ⊗ X_{n+1}, one frame index past the ambient's n, which the
    ``VectorForm`` constructor refuses to build."""
    index = form.ambient.complex_dim + 1
    return VectorForm(form.ambient, {(mi, index): c for mi, c in form.terms.items()})


# Each malformed Φ₁ and the input error it raises, on the scalar complex of
# (0,0,12,13) and on Θ of general7.  No degree-1 form of the scalar complex
# is ∂̄-exact (∂̄ kills the constants and the frame vectors), so only Θ has
# the exact case: ∂̄X5 = −cw1 ⊗ X7 on general7.
MALFORMED_INITIALS = [
    ("scalar", "degree 0", lambda a: VectorForm.single(ExteriorForm.constant(a, 1), 1),
     DegreeMismatch),
    ("scalar", "degree 2", lambda a: VectorForm.single(_cw(a, 1, 2), 1), DegreeMismatch),
    ("scalar", "(1,0)-covector",
     lambda a: VectorForm.single(ExteriorForm.covector(a, 1, barred=False), 1), DegreeMismatch),
    ("scalar", "frame index", lambda a: _past_the_frame(_cw(a, 1)), ValueError),
    ("scalar", "not closed", lambda a: VectorForm.single(_cw(a, 3), 1), ValueError),
    ("theta", "degree 0", lambda a: VectorForm.single(ExteriorForm.constant(a, 1), 1),
     DegreeMismatch),
    ("theta", "degree 2", lambda a: VectorForm.single(_cw(a, 3, 4), 1), DegreeMismatch),
    ("theta", "(1,0)-covector",
     lambda a: VectorForm.single(ExteriorForm.covector(a, 1, barred=False), 1), DegreeMismatch),
    ("theta", "frame index", lambda a: _past_the_frame(_cw(a, 1)), ValueError),
    ("theta", "exact",
     lambda a: VectorForm.single(ExteriorForm.constant(a, 1), 5).delbar_theta(), ValueError),
    ("theta", "not closed", lambda a: VectorForm.single(_cw(a, 7), 1), ValueError),
]


@pytest.mark.parametrize("complex_, case, build, error", MALFORMED_INITIALS,
                         ids=[f"{c}-{case}" for c, case, _, _ in MALFORMED_INITIALS])
def test_phi_recursion_rejects_a_malformed_initial_before_any_recursion(
        complex_, case, build, error, monkeypatch):
    """Φ₁ must be a harmonic degree-1 element: anything else is an input
    error, raised before the recursion runs.  A frame index outside 1..n
    cannot even be built: the ``VectorForm`` constructor raises."""
    if complex_ == "scalar":
        ambient = catalog.get("(0,0,12,13)").build()
        decomposition = build_decomposition(ambient)
    else:
        ambient = catalog.get("general7").build()
        decomposition = build_theta_decomposition(ambient)
    if case == "frame index":
        with pytest.raises(error, match="frame index") as caught:
            build(ambient)
        assert type(caught.value) is error
        return
    initial = build(ambient)
    assert initial

    def unreachable(*args):
        raise AssertionError("the recursion ran")

    monkeypatch.setattr(kuranishi, "_solve", unreachable)
    with pytest.raises(error) as caught:
        phi_recursion(decomposition, 3, initial)
    assert type(caught.value) is error


def test_generic_harmonic_element_names_pivot_covectors():
    # [X3, X4] = -X1: the harmonic 1-forms are cw2, cw3, cw4, not cw1..cw3
    L = parse_salamon("(34,0,0,0)")
    dec = build_decomposition(L)
    _, variables = generic_harmonic_element(dec)
    assert variables == [(a, b) for a in (2, 3, 4) for b in (1, 2, 3, 4)]
    report = analyze(L)
    names = {name for field in ("obstruction_generators", "quadratic_generators")
             for g in report[field] for name in re.findall(r"t(\d)_\d", g)}
    assert names == {"2", "3", "4"}
    assert report["obstruction_generators"][0] == "t2_4*t3_3 - t2_3*t3_4"


def test_h1_theta_basis_of_scalar_blocks_matches_theta_complex():
    """The scalar complex's expansion h⊗X_b equals the Θ complex's own RREF
    harmonic basis, names and order included."""
    for text in ("(0,0,12)", "(34,0,0,0)", "(0,35,0,0,0)", "(0,0,12,13,14+23)"):
        L = parse_salamon(text)
        scalar = build_decomposition(L).h1_theta_basis()
        theta = build_theta_decomposition(to_complex_structure(L)).h1_theta_basis()
        assert [(name, str(h)) for name, h in scalar] == \
            [(name, str(h)) for name, h in theta], text


def test_phi_recursion_theta_path_requires_degree_cap():
    csa = _mixed7()
    dec = build_theta_decomposition(csa)
    with pytest.raises(MissingDegreeCap):
        phi_recursion(dec)


# -- obstruction ideals ------------------------------------------------------


def test_obstruction_empty_for_unobstructed_algebras():
    for L in (abelian(3), parse_salamon("(0,0,12)"), parse_salamon("(0,0,12,13,23)")):
        assert _obstruction(L) == []


def test_obstruction_known_quadratic_ideal():
    L = parse_salamon("(0,0,0,12)")
    result = _obstruction(L)
    assert [g.total_degree() for g in result] == [2, 2]
    assert ideal_equal(result, [P("delta[13;12]"), P("delta[23;12]")])


def test_obstruction_known_cubic_ideal():
    L = parse_salamon("(0,0,12,13)")
    result = _obstruction(L)
    assert [g.total_degree() for g in result] == [3]
    assert ideal_equal(result, [P("t2_1*delta[12;12]")])


def test_obstruction_mixed_degrees_with_inhomogeneous_generators():
    L = parse_salamon("(0,0,0,12,13+24)")
    result = _obstruction(L)
    assert sorted(g.total_degree() for g in result) == [2, 2, 2, 3, 3, 3]
    assert any(not g.is_homogeneous() for g in result)


def test_obstruction_generators_are_normalized_and_sorted():
    L = parse_salamon("(0,0,0,12,13)")
    gens = _obstruction(L)
    for g in gens:
        assert g == canonical_generators([g])[0]
    degrees = [g.total_degree() for g in gens]
    assert degrees == sorted(degrees)


def test_quadratic_closed_form_equals_degree_two_truncation():
    for text in ("(0,0,12)", "(0,0,0,12)", "(0,0,12,13)", "(0,0,0,12,13)",
                 "(0,0,0,12,13+24)", "(0,0,12,13,14)", *NON_ADAPTED):
        L = parse_salamon(text)
        dec = build_decomposition(L)
        series = phi_recursion(dec)
        quadratic = quadratic_obstruction_closed_form(dec)
        truncation = canonical_generators(series.obstruction_by_degree[2].values())
        assert sorted(map(str, quadratic)) == sorted(map(str, truncation))


# Each frame is reached by two operations X_i += c·X_j, one of them with j < i.
QUADRATIC_FRAMES = {
    "(0,0,0,12)": [(1, 3, 1), (4, 2, -1)],
    "(0,0,0,12,13)": [(5, 1, -1), (2, 4, 1)],
    "(0,0,0,12,13+24)": [(3, 1, 2), (4, 5, -1)],
    "(0,0,0,0,12+34)": [(2, 1, -2), (3, 5, 1)],
}
QUADRATIC_ORACLE_INPUTS = ([("catalog", e.name) for e in catalog.entries() if e.kind != "general"]
                           + [("salamon", text) for text in NON_ADAPTED]
                           + [("random", i) for i in range(RANDOM_NILPOTENT_COUNT)]
                           + [("frame", text) for text in QUADRATIC_FRAMES])


@pytest.mark.parametrize("source, key", QUADRATIC_ORACLE_INPUTS)
def test_reported_quadratic_generators_equal_the_closed_form(source, key):
    """``analyze`` reads its quadratic generators off the recursion's degree
    2; the closed form, an independent build of H[Φ₁, Φ₁] from minors and
    structure constants, is their oracle, compared as an ordered list."""
    if source == "catalog":
        L = catalog.get(key).build()
    elif source == "random":
        L = random_nilpotent_algebras()[key]
    else:
        L = parse_salamon(key)
        if source == "frame":
            L = change_frame(L, QUADRATIC_FRAMES[key])
    expected = [str(g) for g in quadratic_obstruction_closed_form(build_decomposition(L))]
    assert analyze(L)["quadratic_generators"] == expected


def test_direct_sum_of_smooth_factors_is_obstructed():
    L = direct_sum(parse_salamon("(0,0,12)"), abelian(1))
    assert _obstruction(L)


# -- Maurer-Cartan residual --------------------------------------------------


def test_mc_residual_vanishes_after_harmonic_subtraction_low_nu():
    for text in ("(0,0,12)", "(0,0,0,12)", "(0,0,12,13)", "(0,0,12,13,23)"):
        L = parse_salamon(text)
        series = phi_recursion(build_decomposition(L))
        assert not mc_residual(series)


def test_mc_residual_without_subtraction_is_harmonic_sum():
    L = parse_salamon("(0,0,12,13)")
    series = phi_recursion(build_decomposition(L))
    plain = mc_residual(series, subtract_harmonic=False)
    total = VectorForm.zero(L)
    for k in sorted(series.harmonic_parts):
        total = total + series.harmonic_parts[k]
    assert plain == total


def test_mc_residual_nu_four_equals_dropped_coexact_sum():
    for text in ("(0,0,12,13,14)", "(0,0,12,13,14+23)"):
        L = parse_salamon(text)
        series = phi_recursion(build_decomposition(L))
        residual = mc_residual(series)
        total = VectorForm.zero(L)
        for vf in series.dropped_coexact.values():
            total = total + vf
        assert residual == total
        assert residual  # the defect is visible before reduction


# -- smoothness, directions, random points -----------------------------------


def test_smoothness_tests_tie_quadric_singularity_to_freeness():
    for text, free in (("(0,0,12)", True), ("(0,0,0,12)", False),
                       ("(0,0,12,13)", True), ("(0,0,0,0,12+34)", False)):
        L = parse_salamon(text)
        dec = build_decomposition(L)
        result = smoothness_tests(dec, obstruction_map(phi_recursion(dec)))
        assert (result["free_verdict"] == "free") is free
        assert result["lambda2_singular"] == (not free)


def test_parallelisable_directions_span_center_tensor_harmonics():
    L = parse_salamon("(0,0,0,12)")
    out = parallelisable_directions(build_decomposition(L))
    assert out["subspace_dim"] == 6  # m=3 harmonics x z=2 central vectors
    assert out["d"] == 6
    assert len(out["subspace"]) == 6
    for vf in out["subspace"]:
        for j in (1, 2):
            assert not vf.component(j)  # only central vectors appear


def test_random_central_assignment_annihilates_all_generators():
    rng = random.Random(2024)
    for text in ("(0,0,0,12)", "(0,0,12,13)", "(0,0,0,12,13)", *NON_ADAPTED):
        L = parse_salamon(text)
        dec = build_decomposition(L)
        gens = obstruction_map(phi_recursion(dec))
        _, variables = generic_harmonic_element(dec)
        for _ in range(5):
            point = random_central_assignment(dec, rng)
            assert list(point) == variables
            for g in gens:
                assert g.evaluate(point) == 0


# -- reports -----------------------------------------------------------------


def test_analyze_report_content_and_round_trip():
    L = parse_salamon("(0,0,0,12)")
    report = analyze(L)
    assert report["nu"] == 2
    assert report["h1_theta"] == 12
    assert report["smooth"] is False
    assert report["kuranishi_dim"] is None
    assert report["cylinder_dim"] == 6
    assert report["hodge_numbers"] == [1, 3, 4, 3, 1]
    assert ideal_equal([P(s) for s in report["obstruction_generators"]],
                       [P("delta[13;12]"), P("delta[23;12]")])
    assert json.loads(json.dumps(report)) == report
    text = report_text(report)
    assert "nu" in text and "h^1(Theta)" in text


# (0,0,0,12,13,14+23) in a frame with X1 replaced: [X1, X2] has two terms.
FRAME_14_23 = ("dim 6\nbracket 1 2 = -1*4 - 1*5\nbracket 1 3 = -1*5\n"
               "bracket 1 4 = -1*6\nbracket 2 3 = -1*6\n")


def test_analyze_pins_generator_order_in_a_random_frame():
    """``canonical_generators`` keeps first-occurrence order among generators
    with equal leading monomials, so the order of ``harmonic_coefficients``
    reaches the report: listing them in term order swaps two generators here."""
    report = analyze(parse_structure_file(FRAME_14_23))
    assert report["obstruction_generators"] == [
        "t2_2*t3_1 - t2_1*t3_2",
        "t2_3*t3_1 + t2_2*t3_1 - t2_1*t3_3 - t2_1*t3_2",
        "2*t1_1*t1_2*t3_1 - 2*t1_1*t1_2*t2_1 - 2*t1_1^2*t3_2 + 2*t1_1^2*t2_2"
        " + t2_4*t3_1 + t2_3*t3_2 - t2_2*t3_3 - t2_1*t3_4",
        "t1_1*t1_2*t3_1 - t1_1^2*t3_2",
        "t1_1*t2_2*t3_1 - t1_1*t2_1*t3_2",
        "t1_2*t2_1*t3_1 - t1_2*t2_1^2 - t1_1*t2_1*t3_2 + t1_1*t2_1*t2_2",
        "8*t1_2*t2_1*t3_1 - t1_1*t2_2*t3_1 - 7*t1_1*t2_1*t3_2",
        "8*t1_2*t3_1^2 - 8*t1_2*t2_1*t3_1 - 8*t1_1*t3_1*t3_2 + 7*t1_1*t2_2*t3_1"
        " + t1_1*t2_1*t3_2",
    ]


def test_analyze_smooth_row_reports_kuranishi_dimension():
    report = analyze(parse_salamon("(0,0,12,13,23)"))
    assert report["smooth"] is True
    assert report["kuranishi_dim"] == report["h1_theta"] == 10
    assert report["annotations"] == []


def test_analyze_flags_published_overview_discrepancies():
    report = analyze(abelian(3))
    notes = [a for a in report["annotations"] if a["tag"] == "paper-discrepancy"]
    assert len(notes) == 1
    assert notes[0]["computed"] == 9 and notes[0]["published"] == 18
    heis = analyze(parse_salamon("(0,0,12)"))
    notes = [a for a in heis["annotations"] if a["tag"] == "paper-discrepancy"]
    assert len(notes) == 1
    assert notes[0]["computed"] == 6 and notes[0]["published"] == 10
    assert analyze(abelian(1))["annotations"] == []


def test_analyze_general_report_and_round_trip():
    csa = _mixed7()
    initial = (VectorForm.single(_cw(csa, 3), 1)
               + VectorForm.single(_cw(csa, 4), 2))
    dec = build_theta_decomposition(csa)
    series = phi_recursion(dec, 3, initial)
    assert str(series.phi(2)) == "(2*cw7)*X6"
    assert not series.harmonic_parts[2]  # no second-order obstruction
    assert str(series.harmonic_parts[3]) == "(4*cw3^cw5)*X6"
    coefficients = series.obstruction_by_degree
    assert coefficients == {k: dec.harmonic_coefficients(v)
                            for k, v in series.harmonic_parts.items()}
    assert [k for k, c in sorted(coefficients.items()) if c] == [3]
    assert len(coefficients[3]) == 1
    report = analyze_general(csa, 3)
    assert report["h1_theta"] == 31
    assert report["kind"] == "generic"
    assert json.loads(json.dumps(report)) == report
    assert "phi_2" in report_text(report)


def test_analyze_general_takes_a_lie_algebra_as_its_complex_structure():
    L = catalog.get("(0,0,12,13)").build()
    assert analyze_general(L) == analyze_general(to_complex_structure(L))


def test_closedness_violation_carries_diagnostics():
    err = ClosednessViolation(3, "v-part", ["t1_1", "t2_2"], BIANCHI)
    assert (err.degree, err.identity) == (3, BIANCHI)
    assert "degree 3" in str(err) and BIANCHI in str(err)


def _decomposition(L, complex_):
    """The scalar decomposition of ``L`` or the Θ decomposition of its
    complex structure, and the ambient its forms live over."""
    if complex_ == "scalar":
        return build_decomposition(L), L
    csa = to_complex_structure(L)
    return build_theta_decomposition(csa), csa


def test_coexact_term_outside_the_obstruction_ideal_raises(monkeypatch):
    _check_hidden_coefficients_raise("scalar", monkeypatch)


def test_coexact_term_outside_the_obstruction_ideal_raises_on_theta(monkeypatch):
    _check_hidden_coefficients_raise("theta", monkeypatch)


def _check_hidden_coefficients_raise(complex_, monkeypatch):
    # With every harmonic coefficient hidden the ideal found so far is zero,
    # so degree 4's coexact term (see the test above on the dropped term of
    # this algebra) can no longer be dropped.
    decomposition, ambient = _decomposition(parse_salamon("(0,0,12,13,14)"), complex_)
    monkeypatch.setattr(Kernel, "harmonic_coefficients", lambda self, form: {})
    with pytest.raises(ClosednessViolation) as caught:
        phi_recursion(decomposition, 4)
    coefficient = P("-8*t1_1*t2_1*delta[12;12]")
    assert caught.value.degree == 4
    assert caught.value.v_part == VectorForm.single(_cw(ambient, 2, 4).scale(coefficient), 5)
    assert caught.value.offending == [coefficient]
    assert caught.value.identity == BIANCHI
    assert BIANCHI in str(caught.value)


def test_coexact_part_outside_v2_raises(monkeypatch):
    _check_coexact_harmonic_part_raises("scalar", monkeypatch)


def test_coexact_part_outside_v2_raises_on_theta(monkeypatch):
    _check_coexact_harmonic_part_raises("theta", monkeypatch)


def _check_coexact_harmonic_part_raises(complex_, monkeypatch):
    """A split that passes the harmonic part off as coexact keeps every ψ_j,
    so the bracket identity still holds; only V_k ∈ V² catches it."""
    L = parse_salamon("(0,0,0,12)")
    decomposition, ambient = _decomposition(L, complex_)
    if complex_ == "scalar":
        expected = phi_recursion(build_decomposition(L), 2).harmonic_parts[2]
    else:
        expected = phi_recursion(build_theta_decomposition(ambient), 2).harmonic_parts[2]
    split = Kernel.split

    def harmonic_as_coexact(*args):
        d, h, v = split(*args)
        return d, ZERO, h + v

    monkeypatch.setattr(Kernel, "split", harmonic_as_coexact)
    with pytest.raises(ClosednessViolation) as caught:
        phi_recursion(decomposition, 2)
    assert (caught.value.degree, caught.value.identity) == (2, IN_V2)
    assert IN_V2 in str(caught.value)
    assert caught.value.v_part == expected
    assert caught.value.offending == list(expected.terms.values())


# The random algebras of dimension 6: Hodge build plus recursion takes about
# 1 CPU s over all eleven, and 8 of them drop coexact terms.
DIM6_RANDOM = [i for i, L in enumerate(random_nilpotent_algebras()) if L.dim == 6]


@functools.cache
def _dim6_series(index: int):
    return phi_recursion(build_decomposition(random_nilpotent_algebras()[index]))


def _up_to_degree(vf: VectorForm, top: int) -> VectorForm:
    """``vf`` with every monomial of t-degree above ``top`` left out."""
    return VectorForm(vf.ambient, {
        cell: Polynomial({m: c for m, c in p.terms.items() if mono_degree(m) <= top})
        for cell, p in vf.terms.items()})


def _assert_bianchi_identity(series) -> None:
    """ψ = ∂̄Φ + [Φ,Φ], as ``mc_residual`` assembles it, satisfies
    ∂̄ψ = 2[ψ, Φ] in every t-degree up to the cap, with the form-level ∂̄ and
    the whole series rather than the recursion's per-degree sums; and
    ``mc_residual`` (through the H projector) leaves exactly the dropped
    coexact parts."""
    ambient, cap = series.ambient, series.max_degree
    phi = VectorForm.zero(ambient)
    for term in series.terms.values():
        phi = phi + term
    psi = mc_residual(series, subtract_harmonic=False)
    assert psi.delbar_theta() == _up_to_degree(schouten_general(psi, phi).scale(2), cap)
    dropped = VectorForm.zero(ambient)
    for vf in series.dropped_coexact.values():
        dropped = dropped + vf
    assert mc_residual(series) == dropped


@pytest.mark.parametrize("index", DIM6_RANDOM)
def test_phi_recursion_on_dim6_random_algebras_obeys_the_bianchi_identity(index):
    """The identities of ``_assert_bianchi_identity``, up to ν."""
    _assert_bianchi_identity(_dim6_series(index))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 10**6).map(lambda seed: random_structure_text(random.Random(seed))))
@example(LIVE_DEL_DIM4)
def test_phi_recursion_on_random_non_parallelisable_structures_obeys_the_bianchi_identity(text):
    """The identities of ``_assert_bianchi_identity`` on the Θ path, up to
    the cap 4, over the structures that
    ``test_analyze_general_finishes_on_random_non_parallelisable_structures``
    draws: there the bracket's ∂-terms are live."""
    csa = parse_complex_structure_file(text)
    _assert_bianchi_identity(phi_recursion(build_theta_decomposition(csa), 4))


def test_dim6_random_algebras_drop_coexact_terms():
    """The identity test above reaches the coexact certificate."""
    dropping = [i for i in DIM6_RANDOM if _dim6_series(i).dropped_coexact]
    assert dropping == [4, 8, 9, 14, 21, 26, 28, 29]


# -- frame invariance (property) --------------------------------------------------

# Report fields that do not depend on the frame the algebra is written in.
# Generator lists do: (0,0,0,12) has 2 generators in its published frame and
# 4 in some others.
FRAME_INVARIANTS = ("nu", "h1_theta", "hodge_numbers", "smooth", "cylinder_dim",
                    "free_verdict", "lambda2_singular")
# The parallelisable catalog entries and the random algebras of dimension 3–5.
FRAME_ALGEBRAS = [("catalog", e.name) for e in catalog.entries()
                  if isinstance(e.build(), LieAlgebra) and 3 <= e.build().dim <= 5]
FRAME_ALGEBRAS += [("random", i) for i, L in enumerate(random_nilpotent_algebras())
                   if L.dim <= 5]


def _frame_operation(n: int):
    """X_i += c·X_j with i ≠ j in 1..n, in either order, and c in {±1, ±2}."""
    return st.tuples(st.integers(1, n), st.integers(1, n),
                     st.sampled_from((-2, -1, 1, 2))).filter(lambda op: op[0] != op[1])


def _check_frame_invariants(source, key, count: int) -> None:
    """``count`` random operations X_i += c·X_j change the frame, not the
    algebra, so every frame-independent field of ``analyze`` keeps its
    value.  The seed gives each algebra frames of its own; derandomized, the
    same ones on every run."""
    L = catalog.get(key).build() if source == "catalog" else random_nilpotent_algebras()[key]
    report = analyze(L)
    expected = {field: report[field] for field in FRAME_INVARIANTS}

    # no shrinking: a few operations are a small example already, and each
    # shrink step is one more analysis
    @seed(f"{source} {key}")
    @settings(derandomize=True, deadline=None, max_examples=3,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.lists(_frame_operation(L.dim), min_size=count, max_size=count))
    def check(operations):
        framed = analyze(change_frame(L, operations))
        assert {field: framed[field] for field in FRAME_INVARIANTS} == expected
    check()


@pytest.mark.parametrize("source, key", FRAME_ALGEBRAS)
def test_analyze_invariants_do_not_depend_on_the_frame(source, key):
    _check_frame_invariants(source, key, 2)


@pytest.mark.parametrize("source, key", FRAME_ALGEBRAS)
def test_analyze_invariants_do_not_depend_on_a_four_operation_frame(source, key):
    """The frame tail's four operations, whose Φ_k carry the largest
    denominators of the random frames."""
    _check_frame_invariants(source, key, 4)
