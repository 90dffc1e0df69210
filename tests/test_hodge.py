"""Exact decompositions image ⊕ harmonic ⊕ coimage with explicit preimages."""

from fractions import Fraction
from functools import cache, cached_property
from math import comb
from pathlib import Path
import random
import sys

from hypothesis import given, settings, strategies as st
import pytest

from kuranil import catalog
from kuranil.algebra import (
    LieAlgebra,
    abelian,
    parse_complex_structure_file,
    parse_salamon,
    to_complex_structure,
)
from kuranil.exterior import AmbientMismatch, Cov, ExteriorForm, VectorForm
from kuranil.hodge import (
    DegreeMismatch,
    HodgeDecomposition,
    NotALieAlgebra,
    build_decomposition,
    build_theta_decomposition,
    hodge_numbers,
)
from kuranil.intforms import Kernel
from kuranil.kuranishi import analyze, analyze_general
from kuranil.linalg import Subspace, identity, mat_mul, transpose
from kuranil.polyring import LEX, Packing, Polynomial, parse_polynomial, var_rank
from oracles import harmonic_form
from random_algebras import RANDOM_NILPOTENT_COUNT, change_frame, random_nilpotent_algebras

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import ALGEBRAS as PERFBENCH_ALGEBRAS  # noqa: E402

ALGEBRAS = ("(0,0,12)", "(0,0,0,12)", "(0,0,12,13)", "(0,0,0,12,13+24)",
            "(0,0,12,13,14+23)")


def _mixed7():
    return parse_complex_structure_file("dim 7\ndw6 = w1^w2\ndw7 = w3^w4 + cw1^w5\n")


def _swapped5():
    """A (1,1) part holding both cw1∧w2 and cw2∧w1: [X̄1, X2] and [X̄2, X1]
    each have a (1,0) and a (0,1) part."""
    return parse_complex_structure_file(
        "dim 5\ndw3 = cw1^w2 + cw2^w1\ndw4 = w1^w2 + cw1^w1\ndw5 = w1^w2 + cw2^w2\n")


# A solvable algebra whose ∂̄ matrices sum two halves into an integral entry
# (∂̄ω̄^23 = ½ω̄^123 + ½ω̄^123), which must be stored as an int.
HALVES = "(0,1/2*12,1/2*13)"
LIE_ENTRIES = [e.name for e in catalog.entries() if isinstance(e.build(), LieAlgebra)]
SMALL_LIE_ENTRIES = [e.name for e in catalog.entries()
                     if isinstance(e.build(), LieAlgebra) and e.build().dim <= 5]
COMPLEXES = ([(name, "scalar") for name in LIE_ENTRIES + [HALVES]]
             + [(name, "theta") for name in LIE_ENTRIES + [HALVES]]
             + [("general7", "theta"), ("mixed7", "theta"), ("swapped5", "theta")])
# the random algebras, and the small catalog Lie algebras in a random frame
UNADAPTED_COMPLEXES = [(name, kind) for kind in ("scalar", "theta")
                       for name in [f"random{i}" for i in range(RANDOM_NILPOTENT_COUNT)]
                       + [f"{entry}@random" for entry in SMALL_LIE_ENTRIES
                          if catalog.get(entry).build().dim > 1]]


def _random_frame(L: LieAlgebra, rng: random.Random) -> LieAlgebra:
    """``L`` in the frame of two random operations X_i += c·X_j, any i ≠ j."""
    operations = []
    for _ in range(2):
        i, j = rng.sample(range(1, L.dim + 1), 2)
        operations.append((i, j, rng.choice((-2, -1, 1, 2))))
    return change_frame(L, operations)


def _decomposition(name: str, kind: str):
    """The scalar or Θ decomposition of a catalog entry, ``mixed7``,
    ``swapped5``, ``HALVES``, random nilpotent algebra ``random<i>``, or
    catalog Lie algebra ``<entry>@random`` in a random frame."""
    if name == "mixed7":
        return build_theta_decomposition(_mixed7())
    if name == "swapped5":
        return build_theta_decomposition(_swapped5())
    if name.startswith("random"):
        ambient = random_nilpotent_algebras()[int(name.removeprefix("random"))]
    elif name.endswith("@random"):
        entry = name.removesuffix("@random")
        ambient = _random_frame(catalog.get(entry).build(), random.Random(name))
        ambient.validate()
    else:
        ambient = parse_salamon(name) if name == HALVES else catalog.get(name).build()
    if kind == "scalar":
        return build_decomposition(ambient)
    if isinstance(ambient, LieAlgebra):
        ambient = to_complex_structure(ambient)
    return build_theta_decomposition(ambient)


def _add(a, b):
    """Sum of two sparse matrices, zeros dropped."""
    out = []
    for r1, r2 in zip(a, b):
        row = dict(r1)
        for j, y in r2.items():
            row[j] = row.get(j, 0) + y
        out.append({j: x for j, x in sorted(row.items()) if x})
    return out


# -- scalar complex ----------------------------------------------------------


def test_hodge_numbers_of_abelian_are_binomials():
    for k in (1, 2, 3, 4):
        assert hodge_numbers(abelian(k)) == [comb(k, q) for q in range(k + 1)]


def test_hodge_numbers_frozen_examples():
    assert hodge_numbers(parse_salamon("(0,0,12)")) == [1, 2, 2, 1]
    assert hodge_numbers(parse_salamon("(0,0,0,12)")) == [1, 3, 4, 3, 1]


def test_space_dims_partition_each_degree():
    for text in ALGEBRAS:
        L = parse_salamon(text)
        dec = build_decomposition(L)
        for q in range(L.dim + 1):
            dims = dec.space_dims(q)
            assert dims["B"] + dims["H"] + dims["V"] == dec.dim(q)
            assert dec.dim(q) == comb(L.dim, q)


def test_projectors_are_idempotent_orthogonal_and_complete():
    L = parse_salamon("(0,0,12,13)")
    dec = build_decomposition(L)
    for q in range(L.dim + 1):
        total = None
        for which in ("B", "H", "V"):
            p = dec.projector(q, which)
            assert mat_mul(p, p) == p
            assert transpose(p, dec.dim(q)) == p
            total = p if total is None else _add(total, p)
        assert total == identity(dec.dim(q))


def test_theta_projectors_are_idempotent_orthogonal_and_complete():
    L = parse_salamon("(0,0,12,13,14+23)")
    dec = build_theta_decomposition(to_complex_structure(L))
    for q in range(3):
        total = None
        for which in ("B", "H", "V"):
            p = dec.projector(q, which)
            assert mat_mul(p, p) == p
            assert transpose(p, dec.dim(q)) == p
            total = p if total is None else _add(total, p)
        assert total == identity(dec.dim(q))
    # δ∘∂̄ is the identity on V¹
    p_v = dec.projector(1, "V")
    assert any(p_v)
    assert mat_mul(dec.delta_matrix(), mat_mul(dec.d_matrices[1], p_v)) == p_v


def test_scalar_decomposition_rejects_a_complex_structure():
    with pytest.raises(NotALieAlgebra, match="build_theta_decomposition"):
        build_decomposition(_mixed7())


def test_projection_splits_form_exactly():
    rng = random.Random(91)
    L = parse_salamon("(0,0,0,12,13)")
    dec = build_decomposition(L)
    for q in (1, 2, 3):
        for _ in range(5):
            cells = dec.cells(q)
            form = ExteriorForm.zero(dec.ambient)
            for cell in cells:
                form = form + ExteriorForm.basis_form(
                    dec.ambient, cell, Fraction(rng.randint(-3, 3)))
            b = dec.project_exact(form)
            h = dec.project_harmonic(form)
            v = dec.project_coexact(form)
            assert b + h + v == form
            assert dec.in_space(b, "B")
            assert dec.in_space(h, "H")
            assert dec.in_space(v, "V")
            assert dec.is_closed(b) and dec.is_closed(h)


def test_exact_forms_are_images_and_closed():
    for text in ALGEBRAS:
        L = parse_salamon(text)
        dec = build_decomposition(L)
        csa = dec.ambient
        for index in range(1, L.dim + 1):
            image = ExteriorForm.covector(csa, index, barred=True).delbar()
            assert dec.in_space(image, "B") or not image
            assert dec.is_closed(image) or not image


def test_delta_op_inverts_delbar_on_exact_forms():
    rng = random.Random(92)
    for text in ALGEBRAS:
        L = parse_salamon(text)
        dec = build_decomposition(L)
        csa = dec.ambient
        for _ in range(5):
            one_form = ExteriorForm.zero(csa)
            for index in range(1, L.dim + 1):
                one_form = one_form + ExteriorForm.covector(
                    csa, index, barred=True).scale(Fraction(rng.randint(-3, 3)))
            image = one_form.delbar()
            if not image:
                continue
            pre = dec.delta_op(image)
            assert pre.delbar() == image
            assert dec.in_space(pre, "V")


def test_delta_op_is_zero_off_the_exact_part():
    """δ = ∂̄*G takes every degree-2 form: it kills the part outside B², and
    ∂̄ of its value is the exact part."""
    L = parse_salamon("(0,0,12)")
    dec = build_decomposition(L)
    cw1, cw2, cw3 = (ExteriorForm.covector(dec.ambient, i, barred=True) for i in (1, 2, 3))
    # cw1^cw3 is harmonic, and B^2 = span(cw1^cw2)
    outside, exact = cw1.wedge(cw3), cw1.wedge(cw2).scale(5)
    assert not dec.delta_op(outside)
    assert dec.delta_op(outside + exact) == dec.delta_op(exact) == cw3.scale(5)
    assert dec.delbar_op(dec.delta_op(outside + exact)) == exact


def test_degree_mismatch_on_inhomogeneous_input():
    L = parse_salamon("(0,0,12)")
    dec = build_decomposition(L)
    csa = dec.ambient
    mixed = ExteriorForm.covector(csa, 1, barred=True) + \
        ExteriorForm.covector(csa, 1, barred=True).wedge(
            ExteriorForm.covector(csa, 2, barred=True))
    with pytest.raises(DegreeMismatch):
        dec.project_harmonic(mixed)


def _form_operators(dec):
    """Every public form operator of ``dec``, each taking the form alone."""
    return [dec.project_exact, dec.project_harmonic, dec.project_coexact,
            lambda f: dec.in_space(f, "H"), dec.delbar_op, dec.is_closed,
            dec.harmonic_coefficients, dec.delta_op]


def test_form_outside_the_decomposition_degrees_is_a_degree_mismatch():
    """The Θ decomposition covers degrees 0..2; a (0,3)-form reads as its own
    degree and is rejected as outside them by every form operator."""
    csa = to_complex_structure(parse_salamon("(0,0,12)"))
    theta = build_theta_decomposition(csa)
    cw1, cw2, cw3 = (ExteriorForm.covector(csa, i, True) for i in (1, 2, 3))
    three = VectorForm.single(cw1.wedge(cw2).wedge(cw3), 2)
    for call in _form_operators(theta):
        with pytest.raises(DegreeMismatch,
                           match="degree 3 is outside the decomposition's degrees 0..2"):
            call(three)


def test_theta_form_operators_reject_an_exterior_form_by_its_type():
    """The Θ complex acts on VectorForms: an ExteriorForm, zero or not, is a
    TypeError naming its type before any cell is read."""
    csa = to_complex_structure(parse_salamon("(0,0,12)"))
    theta = build_theta_decomposition(csa)
    cw1, cw2 = (ExteriorForm.covector(csa, i, True) for i in (1, 2))
    for call in _form_operators(theta):
        for obj in (cw1, cw1.wedge(cw2), ExteriorForm.zero(csa)):
            with pytest.raises(TypeError, match="not ExteriorForm"):
                call(obj)


def test_unknown_space_is_a_value_error():
    dec = build_decomposition(parse_salamon("(0,0,12)"))
    f = ExteriorForm.covector(dec.ambient, 1, True)
    for obj in (f, ExteriorForm.zero(dec.ambient)):
        with pytest.raises(ValueError, match="unknown space 'X'"):
            dec.in_space(obj, "X")


def test_zero_form_projects_to_zero_in_a_degree_without_spaces():
    """a_1 has no degree-2 spaces; the zero form, read in degree 0, still
    lies in every space."""
    dec = build_decomposition(catalog.get("a_1").build())
    zero = VectorForm.zero(dec.ambient)
    assert not dec.project_harmonic(zero)
    assert dec.in_space(zero, "B") and dec.is_closed(zero)
    assert dec.harmonic_coefficients(zero) == {}


def test_accessors_reject_a_degree_outside_and_an_unknown_space():
    dec = build_decomposition(parse_salamon("(0,0,12)"))
    outside = "degree {} is outside the decomposition's degrees 0..3"
    for q, call in ((7, lambda: dec.projector(7, "B")), (9, lambda: dec.harmonic_dim(9)),
                    (5, lambda: dec.space_dims(5)), (4, lambda: dec.harmonic_pivot_cells(4)),
                    (-1, lambda: dec.basis(-1, "H"))):
        with pytest.raises(DegreeMismatch, match=outside.format(q)):
            call()
    for call in (lambda: dec.basis(1, "X"), lambda: dec.projector(1, "X")):
        with pytest.raises(ValueError, match="unknown space 'X'"):
            call()
    # dim and cells read one degree past the decomposition, where ∂̄ lands
    assert dec.dim(4) == 0 and dec.cells(4) == []


@pytest.mark.parametrize("kind", ["scalar", "theta"])
def test_form_operators_reject_a_form_over_another_ambient(kind):
    """Every public form operator, zero forms included, raises before it
    reads a form over an equal but distinct ambient."""
    def ambient():
        L = parse_salamon("(0,0,12)")
        return L if kind == "scalar" else to_complex_structure(L)

    mine, other = ambient(), ambient()
    dec = (build_decomposition if kind == "scalar" else build_theta_decomposition)(mine)
    cw1, cw2, cw3 = (ExteriorForm.covector(other, i, True) for i in (1, 2, 3))
    one, two = cw3, cw1.wedge(cw2)  # harmonic in degree 1, exact in degree 2
    if kind == "theta":
        one, two = VectorForm.single(one, 1), VectorForm.single(two, 3)
    calls = [(one, dec.project_exact), (one, dec.project_harmonic),
             (one, dec.project_coexact), (one, lambda f: dec.in_space(f, "H")),
             (one, dec.delbar_op), (one, dec.is_closed), (two, dec.harmonic_coefficients),
             (two, dec.delta_op)]
    for form, call in calls:
        for obj in (form, type(form).zero(other)):
            with pytest.raises(AmbientMismatch):
                call(obj)


@pytest.mark.parametrize("kind", ["scalar", "theta"])
@pytest.mark.parametrize("index", [0, 99])
def test_form_operators_reject_a_frame_index_outside_1_to_n(kind, index):
    """A VectorForm with a frame index outside 1..n cannot reach the form
    operators: the constructor rejects it, on either complex's ambient."""
    L = parse_salamon("(0,0,12)")
    ambient = L if kind == "scalar" else to_complex_structure(L)
    dec = (build_decomposition if kind == "scalar" else build_theta_decomposition)(ambient)
    cw3 = (Cov(3, True),)
    for cell in (cw3, (Cov(1, True), Cov(2, True))):
        with pytest.raises(ValueError, match="frame index"):
            VectorForm(ambient, {(cell, index): 1})
    # a well-formed form still projects
    assert not dec.project_exact(VectorForm(ambient, {(cw3, 1): 1}))


def _assert_d_squared_vanishes(dec):
    for q in range(dec.max_degree):
        product = mat_mul(dec.d_matrices[q + 1], dec.d_matrices[q])
        assert all(all(x == 0 for x in row.values()) for row in product), q


def _assert_delta_inverts_delbar_on_the_exact_part(dec):
    """∂̄∘δ = P and δ∘P = δ in degree 2, as exact sparse matrices."""
    if dec.max_degree < 2:
        with pytest.raises(DegreeMismatch):
            dec.delta_matrix()
        return
    delta, exact = dec.delta_matrix(), dec.projector(2, "B")
    assert mat_mul(dec.d_matrices[1], delta) == exact
    assert mat_mul(delta, exact) == delta


@pytest.mark.parametrize("name, kind", COMPLEXES)
def test_delta_inverts_delbar_on_the_exact_part(name, kind):
    _assert_delta_inverts_delbar_on_the_exact_part(_decomposition(name, kind))


@pytest.mark.parametrize("name, kind", [(HALVES, "scalar"), (HALVES, "theta"),
                                        ("(0,0,0,12,13+24)", "scalar"), ("general7", "theta")])
def test_integer_views_are_the_rational_operators_over_one_denominator(name, kind):
    """``integer_columns`` is ∂̄, δ or a projector, and ``integer_rows`` a
    space's RREF rows, times one denominator D; each is built on its first
    read and the decomposition hands out that one copy on every read."""
    dec = HodgeDecomposition(_decomposition(name, kind).ambient, kind)
    operators = {(q, "delbar"): transpose(dec.d_matrices[q], dec.dim(q)) for q in range(3)}
    operators[2, "delta"] = transpose(dec.delta_matrix(), dec.dim(2))
    for q in range(3):
        cells = dec.cells(q)
        for which in "BHV":
            operators[q, which] = dec.projector(q, which)
            view = dec.integer_rows(q, which)
            rows, pivots, den = view
            assert dec.integer_rows(q, which) is view
            assert [min(row) for row in rows] == list(pivots)
            assert all(row[p] == den for row, p in zip(rows, pivots))
            assert [{cells[j]: Polynomial.constant(Fraction(x, den)) for j, x in row.items()}
                    for row in rows] == [form.terms for form in dec.basis(q, which)]
    for (q, operator), columns in operators.items():
        view = dec.integer_columns(q, operator)
        integer, den = view
        assert dec.integer_columns(q, operator) is view
        assert all(type(x) is int for column in integer for x in column.values())
        assert [{j: Fraction(x, den) for j, x in column.items()} for column in integer] == columns


def test_d_squared_is_zero_matrixwise():
    for name in LIE_ENTRIES:
        _assert_d_squared_vanishes(_decomposition(name, "scalar"))


@pytest.mark.parametrize("name", [*LIE_ENTRIES, "general7", "mixed7", "swapped5"])
def test_theta_d_squared_is_zero_matrixwise(name):
    """∂̄² = 0 on the Θ complex, read off the matrices alone."""
    dec = _decomposition(name, "theta")
    assert dec.max_degree == 2
    _assert_d_squared_vanishes(dec)


def _cell_form(dec, cell):
    """The cell as a one-term form (scalar) or vector form (Θ), coefficient 1."""
    if dec.kind == "scalar":
        return ExteriorForm(dec.ambient, {cell: 1})
    mi, j = cell
    return VectorForm.single(ExteriorForm(dec.ambient, {mi: 1}), j)


def _cell_coefficients(dec, obj) -> dict:
    """``{cell: rational coefficient}`` of a constant-coefficient form or vector form."""
    if dec.kind == "scalar":
        return {mi: c.constant_value() for mi, c in obj.terms.items()}
    return {(mi, key): c.constant_value()
            for key, form in obj.components.items() for mi, c in form.terms.items()}


@pytest.mark.parametrize("name, kind", COMPLEXES + UNADAPTED_COMPLEXES)
def test_delbar_matrices_match_form_level_operators(name, kind):
    """Each column of each ∂̄ matrix, read off the structure constants, is the
    form-level ``delbar`` (scalar) or ``delbar_theta`` (Θ) of its cell, also
    in frames that are not adapted to any filtration."""
    dec = _decomposition(name, kind)
    assert dec.kind == kind
    for q, mat in dec.d_matrices.items():
        targets = dec.cells(q + 1)
        columns = transpose(mat, dec.dim(q))
        for cell, column in zip(dec.cells(q), columns, strict=True):
            assert all(type(x) is (int if x.denominator == 1 else Fraction)
                       for x in column.values())
            form = _cell_form(dec, cell)
            image = form.delbar() if kind == "scalar" else form.delbar_theta()
            assert {targets[r]: x for r, x in column.items()} == _cell_coefficients(dec, image)


def test_harmonic_pivot_cells_match_basis_count():
    L = parse_salamon("(0,0,0,12)")
    dec = build_decomposition(L)
    for q in range(L.dim + 1):
        assert len(dec.harmonic_pivot_cells(q)) == dec.harmonic_dim(q)


def test_harmonic_coefficients_key_order():
    """Keys run by frame key in order of first appearance in the terms, then
    by basis row; ``canonical_generators`` keeps this order on ties, so it
    reaches the report."""
    L = parse_salamon("(0,0,0,12,13)")
    dec = build_decomposition(L)
    assert [str(h) for h in dec.basis(2, "H")] == [
        "cw1^cw4", "cw1^cw5", "cw2^cw3", "cw2^cw4", "cw2^cw5 + cw3^cw4", "cw3^cw5"]

    def cell(a, b):
        return (Cov(a, True), Cov(b, True))

    x1, x2 = 1, 2
    # (cw2^cw5 + cw3^cw4)⊗X2 + cw1^cw4⊗X1 + 3·cw1^cw4⊗X2: X2 appears first,
    # at a cell that is no pivot, and its rows appear out of order
    form = VectorForm(L, {(cell(3, 4), x2): 1, (cell(1, 4), x1): 1,
                          (cell(2, 5), x2): 1, (cell(1, 4), x2): 3})
    assert dec.in_space(form, "H")
    coefficients = dec.harmonic_coefficients(form)
    assert list(coefficients) == [(0, x2), (4, x2), (0, x1)]
    assert [p.constant_value() for p in coefficients.values()] == [3, 1, 1]


@pytest.mark.parametrize("build, ambient", [
    (build_decomposition, lambda: parse_salamon("(0,0,0,12,13)")),
    (build_theta_decomposition, _mixed7)])
def test_harmonic_form_inverts_harmonic_coefficients(build, ambient):
    """Polynomial combinations of the harmonic basis in degrees 1 and 2 come
    back from their coefficients through the oracle ``harmonic_form``, as
    ExteriorForms and VectorForms on the scalar complex and as VectorForms on
    Θ; no coefficients give zero."""
    dec = build(ambient())
    rng = random.Random(28)
    polys = [parse_polynomial(t) for t in ("t1_1", "2*t1_2*t2_1 - 1/3", "-t2_2^2")]
    for q in (1, 2):
        basis = dec.basis(q, "H")
        groups = [basis]
        if dec.kind == "scalar":
            groups.append([VectorForm.single(h, j) for h in basis for j in (1, 3)])
        for group in groups:
            for _ in range(3):
                picked = rng.sample(group, 3)
                form = picked[0].scale(polys[0])
                for h, p in zip(picked[1:], polys[1:]):
                    form = form + h.scale(p)
                assert harmonic_form(dec, q, dec.harmonic_coefficients(form)) == form
    zero = harmonic_form(dec, 2, {})
    assert not zero and type(zero) is (VectorForm if dec.kind == "theta" else ExteriorForm)


# -- theta complex of the mixed structure ------------------------------------


def test_theta_complex_dimensions_and_h1():
    csa = _mixed7()
    dec = build_theta_decomposition(csa)
    assert dec.dim(0) == 7
    assert dec.dim(1) == 49
    assert dec.dim(2) == 147
    assert dec.harmonic_dim(1) == 31
    dims = dec.space_dims(1)
    assert dims["B"] == 1  # spanned by delbar X5 = -cw1 (x) X7
    assert dims["B"] + dims["H"] + dims["V"] == 49


def test_theta_complex_exactness_of_known_image():
    csa = _mixed7()
    dec = build_theta_decomposition(csa)
    image = VectorForm.single(ExteriorForm.constant(csa, 1), 5).delbar_theta()
    assert dec.in_space(image, "B")
    assert dec.is_closed(image)


def test_theta_delta_op_round_trip():
    csa = _mixed7()
    dec = build_theta_decomposition(csa)
    # delbar(cw3 ⊗ X5) = -cw1^cw3 ⊗ X7 is a nonzero element of B^2
    source = VectorForm.single(ExteriorForm.covector(csa, 3, barred=True), 5)
    image = source.delbar_theta()
    assert image and dec.in_space(image, "B")
    pre = dec.delta_op(image)
    assert pre.delbar_theta() == image
    assert dec.in_space(pre, "V")


def test_scalar_and_theta_harmonic_dims_consistent_on_parallelisable():
    L = parse_salamon("(0,0,12,13)")
    dec_theta = build_theta_decomposition(to_complex_structure(L))
    assert dec_theta.harmonic_dim(1) == hodge_numbers(L)[1] * L.dim


# -- the scalar block path against the full Θ matrices ---------------------------

_COEFFICIENTS = ("t1_1", "2*t1_2 - 1/3", "t2_1*t1_1 + 5", "-t2_2^2", "7/2")


def _random_theta_form(L, q: int, rng: random.Random) -> VectorForm:
    """A Θ-valued (0,q)-form of a few cells with polynomial coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        mi = tuple(Cov(i, True) for i in sorted(rng.sample(range(1, L.dim + 1), q)))
        terms[(mi, rng.randint(1, L.dim))] = parse_polynomial(rng.choice(_COEFFICIENTS))
    return VectorForm(L, terms)


def _assert_scalar_blocks_match(L: LieAlgebra, rng: random.Random) -> None:
    """Every projection, membership test, ∂̄, closedness test and δ of the
    scalar decomposition of ``L`` agrees with the full Θ decomposition on
    random Θ-valued forms."""
    scalar, theta = build_decomposition(L), build_theta_decomposition(L)
    for q in (1, 2):
        if q > L.dim:
            continue
        for _ in range(4):
            form = _random_theta_form(L, q, rng)
            parts = [form]
            for project in ("project_exact", "project_harmonic", "project_coexact"):
                part = getattr(scalar, project)(form)
                assert part == getattr(theta, project)(form)
                parts.append(part)
            parts.append(parts[1] + parts[2])  # closed: exact plus harmonic
            for part in parts:
                assert scalar.delbar_op(part) == theta.delbar_op(part)
                assert scalar.is_closed(part) == theta.is_closed(part)
                for which in ("B", "H", "V"):
                    assert scalar.in_space(part, which) == theta.in_space(part, which)
            assert theta.is_closed(parts[4])
            if q == 2:
                # δ = ∂̄*G reads the exact part alone
                exact = parts[1]
                assert scalar.delta_op(form) == theta.delta_op(form) == theta.delta_op(exact)


@pytest.mark.parametrize("name", SMALL_LIE_ENTRIES)
@pytest.mark.parametrize("frame", ["published", "random"])
def test_scalar_blocks_match_the_full_theta_matrices(name, frame):
    """On a Lie algebra the scalar complex serves Θ frame vector by frame
    vector; every projection, membership test, ∂̄, closedness test and δ
    must agree with the Θ complex built as one full matrix."""
    rng = random.Random(f"{name}/{frame}")
    L = catalog.get(name).build()
    if frame == "random" and L.dim > 1:
        L = _random_frame(L, rng)
        L.validate()
    _assert_scalar_blocks_match(L, rng)


# -- random nilpotent algebras ----------------------------------------------------

def test_random_nilpotent_algebras_span_dimensions_3_to_6():
    algebras = random_nilpotent_algebras()
    assert {L.dim for L in algebras} == {3, 4, 5, 6}
    assert max(L.nilpotency_index() for L in algebras) >= 4


@pytest.mark.parametrize("index", range(RANDOM_NILPOTENT_COUNT))
def test_h1_theta_basis_agrees_on_both_complexes_of_random_algebras(index):
    """The scalar complex names and lists Θ's degree-1 harmonic basis
    exactly as the Θ complex built from the same brackets does."""
    L = random_nilpotent_algebras()[index]
    scalar = build_decomposition(L).h1_theta_basis()
    theta = build_theta_decomposition(to_complex_structure(L)).h1_theta_basis()
    assert [(name, str(h)) for name, h in scalar] == [(name, str(h)) for name, h in theta], \
        L.brackets


@pytest.mark.parametrize("index", range(RANDOM_NILPOTENT_COUNT))
def test_theta_d_squared_and_delta_identities_on_random_algebras(index):
    """∂̄² = 0 on the Θ complex, and ∂̄∘δ = P, δ∘P = δ on both complexes."""
    L = random_nilpotent_algebras()[index]
    theta = build_theta_decomposition(L)
    _assert_d_squared_vanishes(theta)
    for dec in (build_decomposition(L), theta):
        _assert_delta_inverts_delbar_on_the_exact_part(dec)


@pytest.mark.parametrize("index", range(0, RANDOM_NILPOTENT_COUNT, 6))
def test_scalar_blocks_match_the_full_theta_matrices_on_random_algebras(index):
    L = random_nilpotent_algebras()[index]
    _assert_scalar_blocks_match(L, random.Random(index))


# -- sparse operators on polynomial coefficients against dense products ---------

ORACLE_COMPLEXES = ([(name, kind) for kind in ("scalar", "theta") for name in SMALL_LIE_ENTRIES]
                    + [("general7", "theta"), ("swapped5", "theta")])


def _random_form(dec, q: int, rng: random.Random, vector: bool):
    """A few cells of degree q with polynomial coefficients: a VectorForm on
    Θ, and on the scalar complex an ExteriorForm or (``vector``) a
    VectorForm whose frame keys the complex does not see."""
    terms = {}
    for cell in rng.sample(dec.cells(q), min(dec.dim(q), rng.randint(1, 5))):
        if dec.kind == "scalar" and vector:
            cell = (cell, rng.randint(1, dec.ambient.complex_dim))
        terms[cell] = parse_polynomial(rng.choice(_COEFFICIENTS))
    if dec.kind == "theta" or vector:
        return VectorForm(dec.ambient, terms)
    return ExteriorForm(dec.ambient, terms)


def _monomial_vectors(dec, obj, q: int) -> dict:
    """``{(frame key, monomial): dense Fraction coordinates}`` of ``obj`` in
    degree q, zero vectors left out; the frame key is None unless ``obj`` is
    a VectorForm over the scalar complex."""
    index = {cell: i for i, cell in enumerate(dec.cells(q))}
    split = dec.kind == "scalar" and isinstance(obj, VectorForm)
    out: dict = {}
    for cell, coeff in obj.terms.items():
        key = None
        if split:
            cell, key = cell
        for m, c in coeff.terms.items():
            out.setdefault((key, m), [Fraction(0)] * dec.dim(q))[index[cell]] = Fraction(c)
    return out


def _dense(rows, ncols: int) -> list[list[Fraction]]:
    return [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]


def _dense_product(dense, vectors: dict) -> dict:
    """Each vector of ``vectors`` times the dense matrix ``dense``, zero
    results left out."""
    out = {}
    for key, v in vectors.items():
        support = [j for j, y in enumerate(v) if y]
        image = [sum((row[j] * v[j] for j in support), Fraction(0)) for row in dense]
        if any(image):
            out[key] = image
    return out


@pytest.mark.parametrize("name, kind", ORACLE_COMPLEXES)
def test_operators_match_dense_products_monomial_by_monomial(name, kind):
    """Projections, ∂̄ and δ on polynomial coefficients equal the dense
    products of ``projector()``, ``d_matrices`` and ``delta_matrix()`` with
    each monomial's coefficient vector, δ on every degree-2 form; ``delbar_op``
    and ``is_closed`` agree with the form-level ∂̄."""
    rng = random.Random(f"{name}/{kind}/dense")
    dec = _decomposition(name, kind)
    for q in (1, 2):
        if q > dec.max_degree or not dec.dim(q):
            continue
        projectors = {which: _dense(dec.projector(q, which), dec.dim(q)) for which in "BHV"}
        delbar = _dense(dec.d_matrices[q], dec.dim(q))
        delta = _dense(dec.delta_matrix(), dec.dim(2)) if q == 2 else None
        for vector in ((False, True) if kind == "scalar" else (True,)):
            for _ in range(3):
                form = _random_form(dec, q, rng, vector)
                vectors = _monomial_vectors(dec, form, q)
                for which, project in (("B", dec.project_exact), ("H", dec.project_harmonic),
                                       ("V", dec.project_coexact)):
                    assert _monomial_vectors(dec, project(form), q) == _dense_product(
                        projectors[which], vectors), (q, which)
                closed = dec.project_exact(form) + dec.project_harmonic(form)
                for x in (form, closed):
                    image = x.delbar_theta() if isinstance(x, VectorForm) else x.delbar()
                    dense_image = _dense_product(delbar, _monomial_vectors(dec, x, q))
                    assert dec.delbar_op(x) == image
                    assert _monomial_vectors(dec, image, q + 1) == dense_image
                    assert dec.is_closed(x) == (not image)
                if q == 2:
                    for x in (form, dec.project_exact(form), closed):
                        assert _monomial_vectors(dec, dec.delta_op(x), 1) == _dense_product(
                            delta, _monomial_vectors(dec, x, 2))


_cached_decomposition = cache(_decomposition)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(ORACLE_COMPLEXES), st.sampled_from((1, 2)), st.booleans(),
       st.sets(st.sampled_from("BHV")), st.randoms(use_true_random=False))
def test_in_space_agrees_with_the_projector(complex_, q, vector, parts, rng):
    """``in_space`` reduces coefficient vectors against the RREF rows; on
    polynomial coefficients it answers as "the projector fixes the form"
    does.  The form is a random one or the sum of some of its B, H and V
    parts, so that both answers occur."""
    dec = _cached_decomposition(*complex_)
    form = _random_form(dec, q, rng, vector)
    projections = {"B": dec.project_exact, "H": dec.project_harmonic, "V": dec.project_coexact}
    if parts:
        form = sum((projections[which](form) for which in sorted(parts)),
                   type(form).zero(dec.ambient))
    for which, project in projections.items():
        assert dec.in_space(form, which) == (project(form) == form), which


# -- spaces built on first read, dimensions from ranks ----------------------------

RANK_AMBIENTS = ([("perfbench", s) for s in PERFBENCH_ALGEBRAS] + [("catalog", "general7")]
                 + [("random", i) for i in range(RANDOM_NILPOTENT_COUNT)])


def _rank_ambient(source: str, key):
    if source == "perfbench":
        return parse_salamon(key)
    if source == "catalog":
        return catalog.get(key).build()
    return random_nilpotent_algebras()[key]


@pytest.mark.parametrize("source, key", RANK_AMBIENTS)
def test_space_dims_from_ranks_match_the_built_spaces(source, key):
    """dim B^q = dim V^{q−1}, dim V^q = rank ∂̄_q and H the rest give the
    dimensions of the B, H and V spaces built explicitly, in every degree
    of both complexes."""
    ambient = _rank_ambient(source, key)
    decompositions = [build_theta_decomposition(ambient)]
    if isinstance(ambient, LieAlgebra):
        decompositions.append(build_decomposition(ambient))
    for dec in decompositions:
        dims = [dec.space_dims(q) for q in range(dec.max_degree + 1)]
        for q, from_ranks in enumerate(dims):
            built = {which: len(dec.basis(q, which)) for which in "BHV"}
            assert from_ranks == built, (dec.kind, q)
            assert dec.harmonic_dim(q) == built["H"]


def test_analyze_builds_no_exact_or_harmonic_space_above_degree_two(monkeypatch):
    """The recursion reads B and H in degrees 1 and 2 only, and the Hodge
    numbers above them come from ranks: one V per degree.  Every space is
    built once."""
    builds = []
    build_space = HodgeDecomposition._build_space

    def counting(self, q, which):
        builds.append((q, which))
        return build_space(self, q, which)

    monkeypatch.setattr(HodgeDecomposition, "_build_space", counting)
    analyze(parse_salamon("(0,0,12,13,23,14,25,24+15)"))
    assert len(builds) == len(set(builds))
    assert sorted(b for b in builds if b[0] > 2) == [(q, "V") for q in range(3, 9)]
    # the algebra is smooth: no bracket sum has a harmonic part, so H² is
    # never read
    assert sorted(b for b in builds if b[0] <= 2) == [
        (0, "V"), (1, "H"), (1, "V"), (2, "B"), (2, "V")]


def _count_projector_builds(monkeypatch) -> list:
    """Record each ``Subspace.projector`` build as ``(dimension, ambient
    dimension)``; a build happens once per subspace."""
    builds = []
    build = Subspace.__dict__["projector"].func

    def counting(self):
        builds.append((self.dim, self.ambient_dim))
        return build(self)

    projector = cached_property(counting)
    projector.__set_name__(Subspace, "projector")
    monkeypatch.setattr(Subspace, "projector", projector)
    return builds


def test_a_recursion_that_drops_no_coexact_term_builds_no_projector(monkeypatch):
    """Every bracket sum's rest s − ∂̄δs is ∂̄-closed unless a coexact part
    survives, so neither the parallelisable analysis of a smooth algebra nor
    the general analysis of general7 projects."""
    builds = _count_projector_builds(monkeypatch)
    analyze(parse_salamon("(0,0,12,13,23,14,25,24+15)"))
    analyze_general(catalog.get("general7").build(), max_degree=3)
    assert builds == []


def test_only_a_dropped_coexact_part_builds_the_harmonic_projector(monkeypatch):
    """(0,0,0,12,13+24) drops coexact terms: the rest is not ∂̄-closed there,
    and the recursion builds the degree-2 H projector, once."""
    builds = _count_projector_builds(monkeypatch)
    L = parse_salamon("(0,0,0,12,13+24)")
    report = analyze(L)
    assert builds == [(build_decomposition(L).harmonic_dim(2), 10)]
    assert report["obstruction_generators"]


# -- s = ∂̄δs + Hs + Vs, with the projector only for a surviving coexact part -----

SPLIT_AMBIENTS = [(source, key) for source, key in RANK_AMBIENTS
                  if source != "perfbench" or key.count(",")]  # (0) has no degree 2


def _kernel_split(dec, form):
    """``(δs, Hs, Vs)`` of the degree-2 ``form`` s by the recursion's
    ``Kernel.split``, each part as a form of ``form``'s type."""
    variables = sorted({v for c in form.terms.values() for v in c.variables()}, key=var_rank)
    kernel = Kernel(dec, Packing(variables, LEX, 8))

    def back(part, q):
        cells = dec.cells(q)
        return type(form)(dec.ambient, {
            cells[i] if frame is None else (cells[i], frame): kernel.polynomial(poly, part.den)
            for (i, frame), poly in part.terms.items()})

    d, h, v = kernel.split(kernel.form(form, 2))
    return back(d, 1), back(h, 2), back(v, 2)


@cache
def _split_decomposition(source: str, key, kind: str):
    ambient = _rank_ambient(source, key)
    if kind == "scalar":
        return build_decomposition(ambient)
    return build_theta_decomposition(ambient)


def _keyed(dec, form, rng: random.Random, vector: bool):
    """``form`` as the scalar complex's VectorForm at a random frame key when
    ``vector``, else as it is."""
    if dec.kind == "scalar" and vector:
        return VectorForm.single(form, rng.randint(1, dec.ambient.complex_dim))
    return form


def _closed_form(dec, rng: random.Random, vector: bool):
    """∂̄ of a random degree-1 form, plus polynomial multiples of up to three
    harmonic basis forms, each at its own random frame key when ``vector``."""
    form = _keyed(dec, dec.delbar_op(_random_form(dec, 1, rng, False)), rng, vector)
    harmonic = dec.basis(2, "H")
    for h in rng.sample(harmonic, min(len(harmonic), rng.randint(0, 3))):
        form = form + _keyed(dec, h.scale(parse_polynomial(rng.choice(_COEFFICIENTS))),
                             rng, vector)
    return form


@pytest.mark.parametrize("source, key", SPLIT_AMBIENTS)
@settings(derandomize=True, deadline=None, max_examples=8)
@given(kind=st.sampled_from(("scalar", "theta")),
       shape=st.sampled_from(("closed", "generic", "closed + generic")),
       vector=st.booleans(), rng=st.randoms(use_true_random=False))
def test_split_agrees_with_delta_and_the_projectors(source, key, kind, shape, vector, rng):
    """The recursion's split gives δ s as ``delta_op`` does, H s as
    ``project_harmonic`` does (terms in the same order) and V s as
    ``project_coexact`` does, and s = ∂̄δs + Hs + Vs; a ∂̄-closed form has no
    V part.  The forms are the closed ones, generic ones, and closed ones
    followed by generic terms."""
    if kind == "scalar" and not isinstance(_rank_ambient(source, key), LieAlgebra):
        kind = "theta"
    dec = _split_decomposition(source, key, kind)
    if shape == "generic":
        form = _random_form(dec, 2, rng, vector)
    else:
        form = _closed_form(dec, rng, vector)
        if shape != "closed":
            form = form + _random_form(dec, 2, rng, vector)
    d, h, v = _kernel_split(dec, form)
    assert d == dec.delta_op(form)
    assert list(h.terms.items()) == list(dec.project_harmonic(form).terms.items())
    assert v == dec.project_coexact(form)
    assert dec.delbar_op(d) + h + v == form
    if shape == "closed":
        assert not v


def test_split_keeps_the_projection_term_order():
    """On the scalar complex a VectorForm's harmonic coefficients are read by
    frame key in order of first appearance.  The exact term at X_2 comes
    first and cancels from s − ∂̄δs, where X_1 then comes first; H s must
    still list X_2 first, as the projection of s does."""
    dec = build_decomposition(parse_salamon("(0,0,12,13)"))
    exact = dec.basis(2, "B")[0]
    harmonic = dec.basis(2, "H")
    h = next(h for h in harmonic if not set(h.terms) & set(exact.terms))
    coexact = dec.basis(2, "V")[0]
    form = (VectorForm.single(exact, 2) + VectorForm.single(harmonic[0], 1)
            + VectorForm.single(h + coexact, 2))
    rest = form - dec.delbar_op(dec.delta_op(form))
    assert [j for _, j in rest.terms][0] == 1
    for x in (form, form - VectorForm.single(coexact, 2)):
        _, h_part, _ = _kernel_split(dec, x)
        assert [j for _, j in h_part.terms][0] == 2
        assert list(h_part.terms.items()) == list(dec.project_harmonic(x).terms.items())
