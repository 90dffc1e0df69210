"""The recursion on integer forms, which ``phi_recursion`` runs from the
generic Φ₁ on the scalar complex, against the ``VectorForm`` recursion, which
it runs on Θ and from any given Φ₁: both from the generic Φ₁ on one scalar
decomposition, every field of the series equal term for term and in order.
Also: the packing is sized from the cap, and its guard bit catches a field
too narrow."""

from fractions import Fraction
from pathlib import Path
import random
import sys

import pytest

from kuranil import catalog, kuranishi, polyring
from kuranil.algebra import LieAlgebra, parse_salamon, to_complex_structure
from kuranil.hodge import HodgeDecomposition, build_decomposition
from kuranil.kuranishi import generic_harmonic_element, phi_recursion
from kuranil.polyring import Packing
from random_algebras import RANDOM_NILPOTENT_COUNT, change_frame, random_nilpotent_algebras

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
    """The VectorForm recursion of the Θ path from the generic Φ₁, run on a
    scalar decomposition."""
    L = decomposition.ambient
    initial, _ = generic_harmonic_element(decomposition)
    return kuranishi._vector_recursion(decomposition, L.nilpotency_index(),
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
    initial, _ = generic_harmonic_element(decomposition)
    expected = kuranishi._vector_recursion(decomposition, nu, None, initial)
    _assert_same_series(phi_recursion(decomposition, nu), expected)


def _recorded_widths(monkeypatch) -> list[int]:
    """The field width of every ``Packing`` made from here on."""
    widths = []
    init = Packing.__init__

    def recording(self, variables, order, width):
        widths.append(width)
        init(self, variables, order, width)

    monkeypatch.setattr(Packing, "__init__", recording)
    return widths


@pytest.mark.parametrize("text", ["(0,0,12,13)", "(0,0,12,13,14)", "(0,0,12,13,14,15,16)"])
def test_integer_recursion_sizes_its_fields_from_the_cap(text, monkeypatch):
    """The narrowest fields whose guard bit lies above every degree the cap
    allows: ν for the generic Φ₁, whose coefficients are linear."""
    decomposition = build_decomposition(parse_salamon(text))
    nu = decomposition.ambient.nilpotency_index()
    widths = _recorded_widths(monkeypatch)
    phi_recursion(decomposition)
    (width,) = widths
    assert 1 << (width - 2) <= nu < 1 << (width - 1)


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
    recorded = _recorded_widths(monkeypatch)
    _assert_same_series(phi_recursion(decomposition), expected)
    assert recorded == widths
