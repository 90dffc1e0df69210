"""Nilpotent Lie algebras: parsing, structural invariants, complex structures."""

import itertools
from fractions import Fraction
from pathlib import Path
import sys

from hypothesis import given, settings, strategies as st
import pytest

from kuranil import catalog
from kuranil.algebra import (
    ComplexStructureAlgebra,
    JacobiViolation,
    LieAlgebra,
    NotIntegrable,
    NotNilpotent,
    StructureParseError,
    Subspace,
    abelian,
    free_two_step,
    parse_algebra_file,
    parse_complex_structure_file,
    parse_salamon,
    parse_structure_file,
    to_complex_structure,
)
from kuranil import linalg
from kuranil.exterior import Cov, ExteriorForm
from kuranil.kuranishi import analyze_general
from kuranil.polyring import parse_polynomial
from oracles import direct_sum
from random_algebras import RANDOM_NILPOTENT_COUNT, random_nilpotent_algebras

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import ALGEBRAS as PERFBENCH_ALGEBRAS  # noqa: E402


HEISENBERG = "(0,0,12)"


# -- Salamon parsing ---------------------------------------------------------


def test_parse_salamon_sign_convention():
    # dw3 = w1^w2 corresponds to [X1, X2] = -X3
    L = parse_salamon(HEISENBERG)
    assert L.dim == 3
    assert L.bracket(1, 2) == {3: Fraction(-1)}
    assert L.bracket(2, 1) == {3: Fraction(1)}
    assert L.bracket(1, 3) == {}


def test_parse_salamon_sum_and_coefficient_terms():
    L = parse_salamon("(0,0,0,0,12+34)")
    assert L.bracket(1, 2) == {5: Fraction(-1)}
    assert L.bracket(3, 4) == {5: Fraction(-1)}
    M = parse_salamon("(0,0,2*12)")
    assert M.bracket(1, 2) == {3: Fraction(-2)}
    N = parse_salamon("(0,0,21)")
    assert N.bracket(1, 2) == {3: Fraction(1)}  # reversed digits flip the sign


def test_parse_salamon_rejects_malformed():
    for bad in ("0,0,12", "()", "(0,0,11)", "(0,0,14)", "(0,0,1x)"):
        with pytest.raises(StructureParseError):
            parse_salamon(bad)


def test_parse_salamon_names_algebra_after_input():
    assert parse_salamon(" (0,0,12,13) ").name == "(0,0,12,13)"


def test_parse_salamon_takes_a_name_as_the_other_readers_do():
    named = parse_salamon("(0,0,12)", name="heisenberg")
    assert named.name == "heisenberg"
    assert named.brackets == parse_salamon("(0,0,12)").brackets
    assert catalog.get("a_3").build().name == "a_3"


# -- validation --------------------------------------------------------------


def test_validate_accepts_catalog_style_algebras():
    for text in (HEISENBERG, "(0,0,12,13)", "(0,0,0,12,13+24)",
                 "(0,0,12,13,23,14,25,24+15)"):
        parse_salamon(text).validate()


def test_validate_rejects_jacobi_violation():
    # Jacobi sum over (X1,X2,X3) leaves an uncancelled -X5 term
    brackets = {(1, 2): {3: Fraction(1)}, (1, 3): {4: Fraction(1)},
                (2, 3): {4: Fraction(1)}, (1, 4): {5: Fraction(1)}}
    with pytest.raises(JacobiViolation):
        LieAlgebra(5, brackets).validate()


def test_validate_rejects_non_nilpotent():
    # [X1,X2] = X2 is solvable but not nilpotent
    with pytest.raises(NotNilpotent):
        LieAlgebra(2, {(1, 2): {2: Fraction(1)}}).validate()


# Importing the catalog checks nothing: these two tests are the one check
# of the shipped entries and their stored data.
def test_every_catalog_entry_validates_as_both_kinds():
    for entry in catalog.entries():
        algebra = entry.build()
        assert algebra.complex_dim == entry.dim, entry.name
        if isinstance(algebra, LieAlgebra):
            algebra.validate()
            algebra = to_complex_structure(algebra)
        algebra.validate()


def test_every_catalog_string_and_stored_ideal_parses():
    for entry in catalog.entries():
        entry.expected_ideal()
        for group in entry.reducibility.values():
            for text in group:
                parse_polynomial(text)
        entry.published_components()
        entry.published_components(variant=True)


INVALID_STRUCTURES = pytest.mark.parametrize("text, error", [
    ("dim 3\ndw1 = w2^w3\ndw2 = w3^w1\ndw3 = w1^w2\n", NotNilpotent),
    ("dw2 = w3^w4\ndw5 = w1^w2\n", JacobiViolation),
    ("dim 4\ndw3 = w1^w2\ndw4 = cw1^w3\n", JacobiViolation),
], ids=["so3", "d-squared-nonzero", "d-squared-nonzero-mixed"])


@INVALID_STRUCTURES
def test_complex_structure_validate_rejects(text, error):
    with pytest.raises(error):
        parse_complex_structure_file(text).validate()


@INVALID_STRUCTURES
def test_analyze_general_rejects_an_invalid_ambient(text, error):
    """The library entry point validates its input; without that check the
    Jacobi-violating texts give a report or a ``ClosednessViolation``."""
    with pytest.raises(error):
        analyze_general(parse_complex_structure_file(text))


# -- structural invariants ---------------------------------------------------


def test_central_series_and_nilpotency_index():
    L = parse_salamon("(0,0,12,13,14)")
    dims = [s.dim for s in L.descending_central_series()]
    assert dims == [5, 3, 2, 1, 0]
    L.descending_central_series().clear()  # each call returns a new list
    assert len(L.descending_central_series()) == 5
    assert L.nilpotency_index() == 4
    assert parse_salamon(HEISENBERG).nilpotency_index() == 2
    assert abelian(4).nilpotency_index() == 1


def test_center_and_derived_subalgebra():
    L = parse_salamon("(0,0,0,12,13)")
    center = L.center()
    assert center.dim == 2  # X4, X5
    assert center.contains([Fraction(0)] * 3 + [Fraction(1), Fraction(2)])
    assert not center.contains([Fraction(1)] + [Fraction(0)] * 4)
    derived = L.derived_algebra()
    assert derived.dim == 2
    assert L.dim - derived.dim == 3  # forms vanishing on [g, g]


def _dense_center(L: LieAlgebra) -> Subspace:
    """The center as ``LieAlgebra.center`` built it through ``bracket(i, j)``
    for every ordered pair: the oracle of the sparse construction."""
    n = L.dim
    rows = []
    for j in range(1, n + 1):
        images = [L.bracket(i, j) for i in range(1, n + 1)]
        for k in range(1, n + 1):
            rows.append({i: b[k] for i, b in enumerate(images) if k in b})
    return linalg.nullspace(rows, n)


def _dense_jacobi(L: LieAlgebra) -> JacobiViolation | None:
    """The first Jacobi violation as ``LieAlgebra.validate`` found it through
    ``bracket(i, j)``, dense defect included, or None."""
    n = L.dim
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        acc = [0] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, inner in L.bracket(a, b).items():
                for r, outer in L.bracket(m, c).items():
                    acc[r - 1] += inner * outer
        if any(acc):
            return JacobiViolation((i, j, k), acc, [f"X{i}", f"X{j}", f"X{k}"])
    return None


def _jacobi_error(L: LieAlgebra) -> JacobiViolation | None:
    try:
        L.validate()
    except JacobiViolation as exc:
        return exc
    except NotNilpotent:
        pass
    return None


def _payload(exc: JacobiViolation | None):
    if exc is None:
        return None
    return exc.triple, exc.defect, [type(x) for x in exc.defect], str(exc)


SPARSE_ORACLE_ALGEBRAS = ([("perfbench", s) for s in PERFBENCH_ALGEBRAS]
                          + [("random", i) for i in range(RANDOM_NILPOTENT_COUNT)])


@pytest.mark.parametrize("source, key", SPARSE_ORACLE_ALGEBRAS)
def test_center_and_jacobi_walk_the_brackets_as_the_dense_loops_did(source, key):
    L = parse_salamon(key) if source == "perfbench" else random_nilpotent_algebras()[key]
    assert L.center() == _dense_center(L)
    assert _dense_jacobi(L) is None
    L.validate()


_COEFFICIENTS = st.sampled_from((-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)))


@st.composite
def _bracket_tables(draw):
    """A random table of brackets [X_i, X_j] = Σ c X_k on 3..6 vectors: most
    fail Jacobi, some hold it, and some mix int and Fraction constants."""
    n = draw(st.integers(3, 6))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))),
                          min_size=1, max_size=6, unique=True))
    return n, {pair: draw(st.dictionaries(st.integers(1, n), _COEFFICIENTS,
                                          min_size=1, max_size=3))
               for pair in pairs}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_bracket_tables())
def test_jacobi_violation_payload_matches_the_dense_loop(table):
    """The sparse Jacobi walk reports the first violating triple with the
    same dense defect (values and types) and message as the dense loop, and
    none where the dense loop finds none; the center agrees too."""
    L = LieAlgebra(*table)
    assert _payload(_jacobi_error(L)) == _payload(_dense_jacobi(L))
    assert L.center() == _dense_center(L)


def test_is_abelian():
    assert abelian(3).is_abelian()
    assert not parse_salamon(HEISENBERG).is_abelian()


# -- constructions -----------------------------------------------------------


def test_free_two_step_matches_heisenberg():
    b2 = free_two_step(2)
    h = parse_salamon(HEISENBERG)
    assert b2.dim == h.dim == 3
    assert b2.bracket(1, 2) == {3: Fraction(1)}  # sign-free construction
    assert b2.nilpotency_index() == 2


def test_free_two_step_dimensions():
    assert free_two_step(3).dim == 6
    assert free_two_step(4).dim == 10
    with pytest.raises(ValueError):
        free_two_step(1)


def test_free_two_step_quotient_test_verdicts():
    assert abelian(3).free_two_step_quotient_test().verdict == "abelian"
    assert free_two_step(3).free_two_step_quotient_test().verdict == "free"
    assert parse_salamon(HEISENBERG).free_two_step_quotient_test().verdict == "free"
    # three generators but only one independent bracket: not free
    result = parse_salamon("(0,0,0,12)").free_two_step_quotient_test()
    assert result.verdict == "not_free"
    assert result.generator_count == 3
    assert result.expected_dim == 3
    assert result.quotient_dim == 1
    # two generators, full first quotient step: free despite being 3-step
    assert parse_salamon("(0,0,12,13,23)").free_two_step_quotient_test().verdict == "free"


def test_direct_sum_block_structure():
    L = direct_sum(parse_salamon(HEISENBERG), parse_salamon(HEISENBERG))
    assert L.dim == 6
    assert L.bracket(1, 2) == {3: Fraction(-1)}
    assert L.bracket(4, 5) == {6: Fraction(-1)}
    assert L.bracket(1, 5) == {}
    L.validate()


# -- structure-constant files ------------------------------------------------


def test_parse_structure_file_round_trip():
    L = parse_salamon("(0,0,0,12,13+24)")
    lines = [f"dim {L.dim}"]
    for (a, b), comp in sorted(L.brackets.items()):
        rhs = " + ".join(f"{c}*{k}" for k, c in sorted(comp.items()))
        lines.append(f"bracket {a} {b} = {rhs}")
    M = parse_structure_file("\n".join(lines))
    assert M.dim == L.dim and M.brackets == L.brackets


def test_parse_structure_file_rejects_malformed():
    with pytest.raises(StructureParseError):
        parse_structure_file("dim 3\nbracket 1 2 = bogus")


@pytest.mark.parametrize("parse, text", [
    (parse_structure_file, "dim 3\nbracket 1 2 = 3/0*3\n"),
    (parse_complex_structure_file, "dim 3\ndw3 = 1/0*w1^w2\n"),
    (parse_salamon, "(0,0,1/0*12)"),
    (parse_structure_file, "dim\nbracket 1 2 = 3\n"),
    (parse_structure_file, "dim3\nbracket 1 2 = 3\n"),
    (parse_structure_file, "dim 3 4\nbracket 1 2 = 3\n"),
    (parse_complex_structure_file, "dimension 3\ndw3 = w1^w2\n"),
], ids=["bracket-zero-denominator", "dw-zero-denominator", "salamon-zero-denominator",
        "bare-dim", "glued-dim", "two-dims", "dimension-word"])
def test_parsers_reject_zero_denominators_and_bad_dim_headers(parse, text):
    with pytest.raises(StructureParseError):
        parse(text)


def test_parse_salamon_accepts_rational_coefficients():
    L = parse_salamon("(0,0,1/2*12)")
    assert L.bracket(1, 2) == {3: Fraction(-1, 2)}
    assert parse_salamon("(0,0,-3/2*21)").bracket(1, 2) == {3: Fraction(-3, 2)}


def test_parse_algebra_file_picks_the_format_after_comments_and_dim():
    csa = parse_algebra_file("# a comment\n\ndim 3  # header\n  # dw1 = 0\ndw3 = w1^w2\n",
                             name="heis.alg")
    assert isinstance(csa, ComplexStructureAlgebra)
    assert (csa.complex_dim, csa.name, csa.d20) == (3, "heis.alg", {3: {(1, 2): Fraction(1)}})
    L = parse_algebra_file("# dw3 = w1^w2\ndim 3\nbracket 1 2 = -1*3\n")
    assert isinstance(L, LieAlgebra)
    assert (L.dim, L.brackets) == (3, {(1, 2): {3: Fraction(-1)}})


# -- complex structures ------------------------------------------------------


def test_to_complex_structure_classification():
    csa = to_complex_structure(parse_salamon(HEISENBERG))
    assert csa.classify() == "parallelisable"
    assert csa.complex_dim == 3


def test_complex_structure_file_mixed_terms():
    text = "dim 7\ndw6 = w1^w2\ndw7 = w3^w4 + cw1^w5\n"
    csa = parse_complex_structure_file(text)
    assert csa.complex_dim == 7
    assert csa.classify() == "generic"


def test_every_lie_algebra_is_parallelisable():
    algebras = [e.build() for e in catalog.entries() if e.kind != "general"]
    algebras += [*random_nilpotent_algebras(), parse_salamon("(34,0,0,0)"), free_two_step(3)]
    assert all(L.parallelisable for L in algebras)


@pytest.mark.parametrize("text", [
    "dim 7\ndw6 = w1^w2\ndw7 = w3^w4 + cw1^w5\n",
    "dim 5\ndw3 = cw1^w2 + cw2^w1\ndw4 = w1^w2 + cw1^w1\ndw5 = w1^w2 + cw2^w2\n",
    "dim 3\ndw3 = cw1^w2 + cw2^w1\n",
    "dim 3\ndw3 = w1^w2\n",
    # the (1,1) terms cancel, so no bracket [X̄_a, X_b] is stored
    "dim 3\ndw3 = w1^w2 + cw1^w2 - cw1^w2\n",
], ids=["mixed7", "swapped5", "abelian", "heisenberg", "cancelled"])
def test_parallelisable_is_the_parallelisable_kind(text):
    """``parallelisable`` holds exactly when the (1,1) part is zero, and
    ``classify`` answers from it."""
    csa = parse_complex_structure_file(text)
    assert csa.parallelisable == (csa.classify() == "parallelisable") == (not csa.d11)


@pytest.mark.parametrize("name", [e.name for e in catalog.entries()])
def test_parallelisable_of_each_catalog_structure_is_its_kind(name):
    entry = catalog.get(name)
    L = entry.build()
    csa = L if isinstance(L, ComplexStructureAlgebra) else to_complex_structure(L)
    assert csa.parallelisable == (csa.classify() == "parallelisable") == (not csa.d11)
    assert csa.parallelisable == (entry.kind == "parallelisable")


def test_complex_structure_rejects_antiholomorphic_differential():
    with pytest.raises(NotIntegrable):
        parse_complex_structure_file("dim 3\ndw3 = cw1^cw2\n")


def test_complex_structure_brackets_match_stated_example():
    # dw7 = ... + cw1^w5 implies [conj(X5), X1] = conj(X7) up to sign
    csa = parse_complex_structure_file("dim 7\ndw6 = w1^w2\ndw7 = w3^w4 + cw1^w5\n")
    out = csa.vector_bracket(5, True, 1, False)
    assert out == {(7, True): Fraction(1)}


@pytest.mark.parametrize("n", [0, -1])
def test_constructors_reject_nonpositive_dimension(n):
    with pytest.raises(ValueError, match="dimension must be positive"):
        LieAlgebra(n, {})
    with pytest.raises(ValueError, match="dimension must be positive"):
        ComplexStructureAlgebra(n, {}, {})


# -- the ambient protocol against the structure constants --------------------


def _form(ambient, terms) -> ExteriorForm:
    """Σ c·ω^x∧ω^y over ``(a, barred_a, b, barred_b, c)`` terms."""
    total = ExteriorForm.zero(ambient)
    for a, ba, b, bb, c in terms:
        total = total + ExteriorForm.basis_form(ambient, [Cov(a, ba), Cov(b, bb)], c)
    return total


def _frame_keys(n):
    return [(k, barred) for barred in (False, True) for k in range(1, n + 1)]


LIE_ENTRIES = [e.name for e in catalog.entries() if e.kind != "general"]


@pytest.mark.parametrize("name", LIE_ENTRIES)
def test_protocol_of_a_lie_algebra_is_its_structure_constants(name):
    L = catalog.get(name).build()
    n = L.dim
    csa = to_complex_structure(L)
    for k, barred in _frame_keys(n):
        # dω^k = −Σ_{i<j} c^k_ij ω^i∧ω^j, conjugated for ω̄^k
        expected = _form(L, [(i, barred, j, barred, -comp[k])
                             for (i, j), comp in L.brackets.items() if k in comp])
        assert _form(L, L.covector_differential(k, barred)) == expected
        assert _form(L, csa.covector_differential(k, barred)) == expected
    for (i, bi), (j, bj) in itertools.product(_frame_keys(n), repeat=2):
        # [X_i, X_j] = Σ c^k_ij X_k, conjugated for barred pairs; [g, ḡ] = 0
        expected = {}
        if bi == bj and i != j:
            comp = L.brackets.get((min(i, j), max(i, j)), {})
            expected = {(k, bi): c if i < j else -c for k, c in comp.items()}
        assert L.vector_bracket(i, bi, j, bj) == expected
        assert csa.vector_bracket(i, bi, j, bj) == expected
        if not bi and not bj:
            assert L.bracket(i, j) == {k: c for (k, _), c in expected.items()}
    for j in range(1, n + 1):
        assert L.vector_delbar(j) == csa.vector_delbar(j) == {}
    assert L.complex_dim == csa.complex_dim == n


@pytest.mark.parametrize("text", [
    "dim 7\ndw6 = w1^w2\ndw7 = w3^w4 + cw1^w5\n",
    # the (1,1) part holds cw1∧w2 and cw2∧w1, and [X̄1, X2] has terms from two k
    "dim 4\ndw3 = cw1^w2 + cw2^w1\ndw4 = w1^w2 + 3*cw1^w2 - 1/2*cw1^w1\n",
], ids=["general7", "mixed-pairs"])
def test_protocol_of_a_complex_structure_is_its_coframe_differentials(text):
    csa = parse_complex_structure_file(text)
    csa.validate()
    n = csa.complex_dim
    A = {(k, a, b): c for k, comp in csa.d20.items() for (a, b), c in comp.items()}
    B = {(k, a, b): c for k, comp in csa.d11.items() for (a, b), c in comp.items()}
    pairs = list(itertools.product(range(1, n + 1), repeat=2))
    for k in range(1, n + 1):
        # dw^k = Σ A^k_ab w^a∧w^b + Σ B^k_ab cw^a∧w^b, and its conjugate
        dw = _form(csa, [(a, False, b, False, A.get((k, a, b), 0)) for a, b in pairs]
                   + [(a, True, b, False, B.get((k, a, b), 0)) for a, b in pairs])
        dcw = _form(csa, [(a, True, b, True, A.get((k, a, b), 0)) for a, b in pairs]
                    + [(a, False, b, True, B.get((k, a, b), 0)) for a, b in pairs])
        assert _form(csa, csa.covector_differential(k, False)) == dw
        assert _form(csa, csa.covector_differential(k, True)) == dcw
    ks = range(1, n + 1)
    for a, b in pairs:
        # [X_a, X_b] = −Σ A^k_ab X_k for a < b, and its conjugate
        holo = {(k, False): -A.get((k, a, b), 0) + A.get((k, b, a), 0) for k in ks}
        mixed = {**{(k, False): -B.get((k, a, b), 0) for k in ks},
                 **{(k, True): B.get((k, b, a), 0) for k in ks}}
        holo = {key: c for key, c in holo.items() if c}
        mixed = {key: c for key, c in mixed.items() if c}
        assert csa.vector_bracket(a, False, b, False) == holo
        assert csa.vector_bracket(a, True, b, True) == {(k, True): c for (k, _), c in holo.items()}
        # [X̄_a, X_b] = −Σ B^k_ab X_k + Σ B^k_ba X̄_k, and [X_b, X̄_a] = −[X̄_a, X_b]
        assert csa.vector_bracket(a, True, b, False) == mixed
        assert csa.vector_bracket(b, False, a, True) == {key: -c for key, c in mixed.items()}
    for j in range(1, n + 1):
        assert csa.vector_delbar(j) == {(a, k): -c for (k, a, b), c in B.items() if b == j}


def test_subspace_membership_api():
    rows = [{0: Fraction(1), 2: Fraction(1)}]
    space = Subspace.from_vectors(3, rows)
    assert space.dim == 1
    assert space.contains([Fraction(2), Fraction(0), Fraction(2)])
    assert not space.contains([Fraction(1), Fraction(0), Fraction(0)])
