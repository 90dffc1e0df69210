"""The recursion on integer forms, which ``phi_recursion`` runs on every
decomposition and from every Φ₁, against the ``VectorForm`` recursion of
``tests/oracles.py``.  From the generic Φ₁ on scalar decompositions of Lie
algebras every field of the series is equal term for term and in order; on
Θ decompositions, over live-∂ structures and from given Φ₁s on both
complexes, every field is equal and ``obstruction_by_degree`` equal in
order.  Also: the packing is sized from the cap and Φ₁'s degree, and its
guard bit catches a field too narrow."""

from fractions import Fraction
from pathlib import Path
import random
import sys

import pytest

from kuranil import catalog, kuranishi, polyring
from kuranil.algebra import (
    LieAlgebra,
    parse_complex_structure_file,
    parse_salamon,
    to_complex_structure,
)
from kuranil.exterior import ExteriorForm, VectorForm
from kuranil.hodge import HodgeDecomposition, build_decomposition, build_theta_decomposition
from kuranil.intforms import Kernel
from kuranil.kuranishi import generic_harmonic_element, phi_recursion
from kuranil.polyring import LEX, Packing, parse_polynomial
from oracles import generic_initial, vector_recursion
from random_algebras import RANDOM_NILPOTENT_COUNT, change_frame, random_nilpotent_algebras
from random_structures import LIVE_DEL_DIM4, LIVE_DEL_FRACTIONS, SWAPPED5, random_structure_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import ALGEBRAS as PERFBENCH_ALGEBRAS  # noqa: E402

FACTORS = (-2, -1, 1, 2)


def _operations(dim: int, rng: random.Random, count: int) -> tuple:
    """``count`` operations X_i += c·X_j, i ≠ j in either order."""
    ops = []
    for _ in range(count):
        i, j = rng.sample(range(1, dim + 1), 2)
        ops.append((i, j, rng.choice(FACTORS)))
    return tuple(ops)


def _inputs() -> list:
    """The catalog's Lie algebras, the perfbench ``ALGEBRAS``, the random
    algebras, the ``ALGEBRAS`` in a random frame of two operations, and
    four-operation "tail" frames, whose Φ_k have denominators up to 34225."""
    inputs = [("catalog", e.name, ()) for e in catalog.entries()
              if isinstance(e.build(), LieAlgebra)]
    inputs += [("perfbench", s, ()) for s in PERFBENCH_ALGEBRAS]
    inputs += [("random", i, ()) for i in range(RANDOM_NILPOTENT_COUNT)]
    frames, tails = random.Random(36), random.Random(5)
    for s in PERFBENCH_ALGEBRAS:
        dim = parse_salamon(s).dim
        if dim >= 2:
            inputs.append(("frame", s, _operations(dim, frames, 2)))
        if dim >= 3:
            inputs.append(("tail", s, _operations(dim, tails, 4)))
    return inputs


def _algebra(source: str, key, operations: tuple) -> LieAlgebra:
    if source == "catalog":
        return catalog.get(key).build()
    L = random_nilpotent_algebras()[key] if source == "random" else parse_salamon(key)
    return change_frame(L, operations) if operations else L


def _vector_series(decomposition):
    """The oracle's VectorForm recursion from the generic Φ₁ over a scalar
    decomposition of a Lie algebra."""
    L = decomposition.ambient
    initial, _ = generic_initial(decomposition)
    return vector_recursion(decomposition, L.nilpotency_index(),
                            L.descending_central_series(), initial)


def _assert_same_series(got, expected) -> None:
    for name in ("terms", "harmonic_parts", "dropped_coexact"):
        fields, oracle = getattr(got, name), getattr(expected, name)
        assert list(fields) == list(oracle), name
        for k, form in oracle.items():
            assert list(fields[k].terms.items()) == list(form.terms.items()), (name, k)
    assert list(got.obstruction_by_degree) == list(expected.obstruction_by_degree)
    for k, coefficients in expected.obstruction_by_degree.items():
        assert list(got.obstruction_by_degree[k].items()) == list(coefficients.items()), k


INPUTS = _inputs()


@pytest.mark.parametrize("source, key, operations", INPUTS,
                         ids=[f"{source}-{key}" for source, key, _ in INPUTS])
def test_integer_recursion_equals_the_vector_form_recursion(source, key, operations):
    decomposition = build_decomposition(_algebra(source, key, operations))
    _assert_same_series(phi_recursion(decomposition), _vector_series(decomposition))


@pytest.mark.parametrize("complex_, key", [
    *(("scalar", s) for s in PERFBENCH_ALGEBRAS), *(("theta", s) for s in PERFBENCH_ALGEBRAS),
    *(("live", key) for key in ("general7", "swapped5", "dim4", "fractions"))])
def test_generic_harmonic_element_equals_the_named_harmonic_basis(complex_, key):
    """The recursion's Φ₁, built on integer forms, is Σ t_a^b h_a^b over
    ``h1_theta_basis``: the same variables, and the same terms in order."""
    if complex_ == "scalar":
        decomposition = build_decomposition(parse_salamon(key))
    elif complex_ == "theta":
        decomposition = build_theta_decomposition(to_complex_structure(parse_salamon(key)))
    else:
        decomposition = build_theta_decomposition(_theta_ambient("live", key)[0])
    got, variables = generic_harmonic_element(decomposition)
    expected, names = generic_initial(decomposition)
    assert variables == names
    assert list(got.terms.items()) == list(expected.terms.items())


def test_the_inputs_reach_dropped_terms_and_fractions():
    """The differential test above covers dropped coexact parts and forms
    whose denominators are not 1."""
    dropping = fractional = 0
    for source, key, operations in INPUTS:
        if source not in ("tail", "perfbench"):
            continue
        series = phi_recursion(build_decomposition(_algebra(source, key, operations)))
        dropping += bool(series.dropped_coexact)
        fractional += any(type(c) is Fraction for form in series.terms.values()
                          for p in form.terms.values() for c in p.terms.values())
    assert dropping >= 10 and fractional >= 10


@pytest.mark.parametrize("text", ["(0,0,12,13)", "(0,0,0,12,13+24)", "(0,0,12,13,14)",
                                  "(0,0,12,13,14+23)"])
def test_integer_recursion_over_a_parallelisable_complex_structure(text):
    """A scalar decomposition over ``to_complex_structure(L)``: the integer
    path reads the frame brackets through the ambient protocol, so it runs
    there as over ``L``, to the VectorForm recursion's series."""
    L = parse_salamon(text)
    decomposition = HodgeDecomposition(to_complex_structure(L), "scalar")
    nu = L.nilpotency_index()
    initial, _ = generic_initial(decomposition)
    expected = vector_recursion(decomposition, nu, None, initial)
    _assert_same_series(phi_recursion(decomposition, nu), expected)


def _assert_equal_series(got, expected) -> None:
    """Every field equal, and ``obstruction_by_degree`` equal in order."""
    for name in ("terms", "harmonic_parts", "dropped_coexact"):
        assert getattr(got, name) == getattr(expected, name), name
    assert list(got.obstruction_by_degree) == list(expected.obstruction_by_degree)
    for k, coefficients in expected.obstruction_by_degree.items():
        assert list(got.obstruction_by_degree[k].items()) == list(coefficients.items()), k


LIVE_DEL = {"general7": None, "swapped5": SWAPPED5, "dim4": LIVE_DEL_DIM4,
            "fractions": LIVE_DEL_FRACTIONS}
RANDOM_STRUCTURE_SEEDS = range(24)
THETA_INPUTS = ([("perfbench", s) for s in PERFBENCH_ALGEBRAS]
                + [("live", key) for key in LIVE_DEL]
                + [("random", seed) for seed in RANDOM_STRUCTURE_SEEDS])


def _theta_ambient(source: str, key):
    """The structure of a Θ input and its cap: ν for the complex structure
    of a perfbench Lie algebra, 3 for general7 and 4 otherwise."""
    if source == "perfbench":
        L = parse_salamon(key)
        return to_complex_structure(L), L.nilpotency_index()
    if source == "random":
        return parse_complex_structure_file(random_structure_text(random.Random(key))), 4
    if key == "general7":
        return catalog.get("general7").build(), 3
    return parse_complex_structure_file(LIVE_DEL[key]), 4


@pytest.mark.parametrize("source, key", THETA_INPUTS,
                         ids=[f"{source}-{key}" for source, key in THETA_INPUTS])
def test_theta_recursion_equals_the_vector_form_recursion(source, key):
    """From the generic Φ₁ on Θ: over the complex structures of the perfbench
    ``ALGEBRAS``, where only ᾱ∧β̄⊗[X,Y] is live, and over structures that
    are not parallelisable, where the bracket's ∂-terms are."""
    ambient, cap = _theta_ambient(source, key)
    decomposition = build_theta_decomposition(ambient)
    initial, _ = generic_initial(decomposition)
    expected = vector_recursion(decomposition, cap, None, initial)
    _assert_equal_series(phi_recursion(decomposition, cap), expected)


@pytest.mark.parametrize("key", ["(0,0,12,13)", "(0,0,0,12,13+24)", "(0,0,12,13,14+23)"])
def test_theta_recursion_over_a_lie_algebra_checks_the_central_series(key):
    """On Θ over a Lie algebra itself the bracket sums are checked against its
    central series, read off Θ cell indices: the series equals the oracle's,
    which checks the same, and a form valued in X_1 is outside the stage
    that X_n spans."""
    L = parse_salamon(key)
    decomposition = build_theta_decomposition(L)
    central = L.descending_central_series()
    initial, _ = generic_initial(decomposition)
    expected = vector_recursion(decomposition, L.nilpotency_index(), central, initial)
    _assert_equal_series(phi_recursion(decomposition), expected)
    kernel = Kernel(decomposition, Packing([], LEX, 2))
    cw1 = ExteriorForm.covector(L, 1, barred=True)
    deepest = central[L.nilpotency_index() - 1]
    assert kernel.in_central_stage(kernel.form(VectorForm.single(cw1, L.dim), 1), deepest)
    assert not kernel.in_central_stage(kernel.form(VectorForm.single(cw1, 1), 1), deepest)


def test_the_theta_inputs_reach_live_del_terms_and_dropped_parts():
    """The Θ test above brackets forms with live ∂-terms, and certifies
    dropped coexact parts there."""
    live = dropping = 0
    for source, key in THETA_INPUTS:
        ambient, cap = _theta_ambient(source, key)
        if ambient.parallelisable:
            continue
        live += 1
        dropping += bool(phi_recursion(build_theta_decomposition(ambient), cap).dropped_coexact)
    assert live >= 20 and dropping >= 5


_COEFFICIENTS = ("t1_1", "2*t1_2 - 1/3", "t2_1*t1_1 + 5", "-t2_2^2", "7/2", "-3")


def _given_initial(decomposition, rng: random.Random) -> VectorForm:
    """Σ p·h over the harmonic basis elements h of Θ in degree 1, each p a
    polynomial of degree at most 2 or a rational."""
    total = VectorForm.zero(decomposition.ambient)
    for _, h in decomposition.h1_theta_basis():
        total = total + h.scale(parse_polynomial(rng.choice(_COEFFICIENTS)))
    return total


def _general7_initial(csa) -> VectorForm:
    """``verify``'s constant Φ₁ on general7: cw3⊗X1 + cw4⊗X2."""
    return (VectorForm.single(ExteriorForm.covector(csa, 3, barred=True), 1)
            + VectorForm.single(ExteriorForm.covector(csa, 4, barred=True), 2))


GIVEN_INPUTS = [("scalar", s) for s in ("(0,0,12,13)", "(0,0,0,12,13+24)", "(0,0,12,13,14)",
                                        "(0,0,12,13,14+23)")]
GIVEN_INPUTS += [("theta", s) for s in ("(0,0,12,13,14)", "(0,0,0,12,13+24)")]
GIVEN_INPUTS += [("live", key) for key in LIVE_DEL]
GIVEN_INPUTS += [("verify", "general7")]


@pytest.mark.parametrize("complex_, key", GIVEN_INPUTS,
                         ids=[f"{c}-{key}" for c, key in GIVEN_INPUTS])
@pytest.mark.parametrize("seed", [1, 2])
def test_recursion_from_a_given_initial_equals_the_vector_form_recursion(complex_, key, seed):
    """From given Φ₁s with polynomial coefficients of degree up to 2 on the
    scalar complex of a Lie algebra (central series checked), on Θ of its
    complex structure and of live-∂ structures, and from ``verify``'s
    constant Φ₁ on general7."""
    if complex_ == "scalar":
        L = parse_salamon(key)
        decomposition, cap, central = build_decomposition(L), None, L.descending_central_series()
        oracle_cap = L.nilpotency_index()
    else:
        if complex_ == "theta":
            L = parse_salamon(key)
            ambient, cap = to_complex_structure(L), L.nilpotency_index()
        else:
            ambient, cap = _theta_ambient("live", key)
        decomposition, central, oracle_cap = build_theta_decomposition(ambient), None, cap
    if complex_ == "verify":
        initial = _general7_initial(decomposition.ambient)
    else:
        initial = _given_initial(decomposition, random.Random(seed))
    expected = vector_recursion(decomposition, oracle_cap, central, initial)
    series = phi_recursion(decomposition, cap, initial)
    _assert_equal_series(series, expected)
    # Φ₁ comes back from its integer form as it was given, term for term
    assert list(series.terms[1].terms.items()) == list(initial.terms.items())


def _recorded_packings(monkeypatch) -> list[tuple[list, int]]:
    """The variables and field width of every ``Packing`` made from here on."""
    packings = []
    init = Packing.__init__

    def recording(self, variables, order, width):
        packings.append((variables, width))
        init(self, variables, order, width)

    monkeypatch.setattr(Packing, "__init__", recording)
    return packings


@pytest.mark.parametrize("text", ["(0,0,12,13)", "(0,0,12,13,14)", "(0,0,12,13,14,15,16)"])
def test_integer_recursion_sizes_its_fields_from_the_cap(text, monkeypatch):
    """The narrowest fields whose guard bit lies above every degree the cap
    allows: ν for the generic Φ₁, whose coefficients are linear."""
    decomposition = build_decomposition(parse_salamon(text))
    nu = decomposition.ambient.nilpotency_index()
    packings = _recorded_packings(monkeypatch)
    phi_recursion(decomposition)
    ((_, width),) = packings
    assert 1 << (width - 2) <= nu < 1 << (width - 1)


def test_a_given_initial_sizes_the_packing_from_its_variables_and_degree(monkeypatch):
    """A given Φ₁ is packed over its own variables, in fields that hold the
    cap times its top degree; a constant Φ₁ has no variables."""
    L = parse_salamon("(0,0,12,13,14)")
    decomposition = build_decomposition(L)
    initial = _given_initial(decomposition, random.Random(3))
    coefficients = initial.terms.values()
    top = max(c.total_degree() for c in coefficients)
    packings = _recorded_packings(monkeypatch)
    phi_recursion(decomposition, initial=initial)
    csa = catalog.get("general7").build()
    phi_recursion(build_theta_decomposition(csa), 3, _general7_initial(csa))
    (variables, width), constant = packings
    assert set(variables) == {v for c in coefficients for v in c.variables()}
    assert top == 2 and 1 << (width - 2) <= 4 * top < 1 << (width - 1)
    assert constant[0] == []


@pytest.mark.parametrize("narrower, widths", [(1, [3, 6]), (2, [2, 4])])
def test_a_field_too_narrow_overflows_and_the_recursion_restarts_wider(
        narrower, widths, monkeypatch):
    """Packed one bit too narrow, the fields still hold degree 4 but its
    products reach the guard bit; two bits too narrow, they would carry
    into the next field.  Either way the bracket raises ``PackingOverflow``,
    and ``packed`` runs the recursion again on fields twice as wide, to the
    same series."""
    decomposition = build_decomposition(parse_salamon("(0,0,12,13,14)"))
    expected = _vector_series(decomposition)

    def narrowed(variables, order, width, compute):
        return polyring.packed(variables, order, width - narrower, compute)

    monkeypatch.setattr(kuranishi, "packed", narrowed)
    recorded = _recorded_packings(monkeypatch)
    _assert_same_series(phi_recursion(decomposition), expected)
    assert [width for _, width in recorded] == widths


# -- the decomposition keeps one copy of each integer view -------------------------

def _recorded_views(decomposition, monkeypatch, packings: list) -> list[tuple]:
    """``(kernel, key, view)`` for each integer view ``decomposition`` hands
    out from here on: ``kernel`` counts the packings made before the read,
    one per kernel, and ``key`` is ``(method, degree, operator or space)``."""
    reads = []
    for name in ("integer_columns", "integer_rows"):
        read = getattr(decomposition, name)

        def recording(q, which, read=read, name=name):
            view = read(q, which)
            reads.append((len(packings), (name, q, which), view))
            return view

        monkeypatch.setattr(decomposition, name, recording)
    return reads


def _assert_one_copy_per_view(reads: list, shared: tuple) -> None:
    """Every read of a view is the same object, also across kernels, and
    the views in ``shared`` are read by more than one kernel."""
    first: dict = {}
    kernels: dict = {}
    for kernel, key, view in reads:
        assert view is first.setdefault(key, view), key
        kernels.setdefault(key, set()).add(kernel)
    assert all(len(kernels[key]) > 1 for key in shared)


def test_a_restarted_recursion_reads_the_views_the_first_kernel_built(monkeypatch):
    """The recursion restarted on wider fields runs a second kernel over the
    same decomposition, which builds no integer view again: every read of
    ∂̄, δ, a projector or a space's rows is the one copy the decomposition
    built for the first kernel."""
    decomposition = build_decomposition(parse_salamon("(0,0,12,13,14)"))

    def narrowed(variables, order, width, compute):
        return polyring.packed(variables, order, width - 1, compute)

    monkeypatch.setattr(kuranishi, "packed", narrowed)
    packings = _recorded_packings(monkeypatch)
    reads = _recorded_views(decomposition, monkeypatch, packings)
    phi_recursion(decomposition)
    assert [width for _, width in packings] == [3, 6]
    _assert_one_copy_per_view(reads, [("integer_rows", 1, "H"), ("integer_columns", 2, "delta"),
                                      ("integer_columns", 1, "delbar")])


@pytest.mark.parametrize("complex_", ["scalar", "theta"])
def test_the_recursion_after_the_generic_element_builds_no_view_again(complex_, monkeypatch):
    """``generic_harmonic_element`` and then ``phi_recursion`` over one
    decomposition: two kernels, and Φ₁'s harmonic rows are built once."""
    L = parse_salamon("(0,0,0,12,13+24)")
    decomposition = (build_decomposition(L) if complex_ == "scalar"
                     else build_theta_decomposition(to_complex_structure(L)))
    packings = _recorded_packings(monkeypatch)
    reads = _recorded_views(decomposition, monkeypatch, packings)
    generic_harmonic_element(decomposition)
    phi_recursion(decomposition, L.nilpotency_index())
    assert len(packings) == 2
    _assert_one_copy_per_view(reads, [("integer_rows", 1, "H")])
