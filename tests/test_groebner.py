"""Buchberger bases, normal forms, ideal operations; sympy as cross-oracle."""

from fractions import Fraction
import math
import random
import time

from hypothesis import example, given, settings, strategies as st
import pytest
import sympy

from kuranil import catalog, groebner, polyring
from kuranil.algebra import LieAlgebra
from kuranil.groebner import (
    GroebnerBasis,
    GroebnerTimeout,
    buchberger,
    canonical_generators,
    ideal_equal,
    ideal_intersect,
    non_members,
    normal_form,
)
from kuranil.hodge import build_decomposition
from kuranil.kuranishi import obstruction_map, phi_recursion
from kuranil.polyring import (
    GREVLEX,
    LEX,
    UVAR,
    Polynomial,
    minor2,
    mono_degree,
    mono_mul,
    parse_polynomial,
    primitive_scale,
    var_name,
    var_poly,
    var_rank,
)
from oracles import _to_sympy, mono_div, mono_divides, mono_lcm, s_polynomial
from random_algebras import random_nilpotent_algebras


def t(i, j):
    return var_poly(i, j)


P = parse_polynomial


# -- frozen behaviour --------------------------------------------------------


def test_buchberger_minor_and_variable():
    basis = buchberger([minor2(1, 2, 1, 2), t(1, 1)])
    assert [str(p) for p in basis.polys] == ["t1_1", "t1_2*t2_1"]


def test_buchberger_already_a_basis():
    basis = buchberger([t(1, 1), t(2, 2)])
    assert [str(p) for p in basis.polys] == ["t1_1", "t2_2"]


def test_buchberger_drops_zero_and_duplicate_generators():
    basis = buchberger([Polynomial.zero(), t(1, 1), t(1, 1), 2 * t(1, 1)])
    assert [str(p) for p in basis.polys] == ["t1_1"]
    assert buchberger([]).polys == ()


def test_s_polynomial_cancels_leading_terms():
    f = t(1, 1) ** 2
    g = t(1, 1) * t(1, 2) - t(2, 1)
    assert s_polynomial(f, g) == t(1, 1) * t(2, 1)


def test_groebner_basis_identity_and_membership_operators():
    basis = buchberger([t(1, 1), t(1, 2)])
    same = buchberger([t(1, 1) + t(1, 2), t(1, 2)])
    assert basis == same and hash(basis) == hash(same)
    assert not normal_form(t(1, 1) * t(2, 2) + t(1, 2), basis)
    assert normal_form(t(2, 2), basis)
    assert t(1, 1) in list(basis)  # iteration yields the basis polynomials
    assert len(basis) == 2
    assert "t1_1" in repr(basis)


def test_normal_form_properties():
    basis = buchberger([minor2(1, 2, 1, 2), t(1, 1)])
    p = t(2, 2) ** 2 + t(1, 1) * t(2, 1)
    r = normal_form(p, basis)
    assert normal_form(r, basis) == r
    # adding any multiple of a basis element never changes the remainder
    assert normal_form(p + t(2, 1) * basis.polys[0], basis) == r
    # no remainder monomial is divisible by any leading monomial
    for mono in r.terms:
        for g in basis.polys:
            assert not mono_divides(g.leading_monomial(GREVLEX), mono)


def test_canonical_generators_normalizes_dedupes_and_sorts():
    q = t(1, 1) * t(1, 2) - t(2, 1)
    polys = [t(2, 2) ** 3, Polynomial.zero(), 2 * q, -q, 3 * t(1, 1)]
    assert canonical_generators(polys) == [t(1, 1), q, t(2, 2) ** 3]
    # Generators that share a leading monomial (t2_2) keep their input order.
    x, y = t(2, 2) + t(1, 1), t(2, 2) + t(1, 2)
    assert canonical_generators([t(1, 1) ** 2, y, x]) == [y, x, t(1, 1) ** 2]
    assert canonical_generators([x, t(1, 1) ** 2, y]) == [x, y, t(1, 1) ** 2]


def test_ideal_member_and_equal():
    gens = [minor2(1, 3, 1, 2), minor2(2, 3, 1, 2)]
    member, outside = t(3, 1) * minor2(1, 2, 1, 2), minor2(1, 2, 1, 2)
    assert non_members([member, outside], gens) == [outside]
    assert ideal_equal(gens, [gens[0] + gens[1], gens[1]])
    assert not ideal_equal(gens, [gens[0]])
    # A basis in any order is read as generators of its ideal.
    assert ideal_equal(buchberger(gens, order=LEX), gens)
    assert ideal_equal([], [Polynomial.zero()])


def test_ideal_intersect_frozen_cases():
    inter = ideal_intersect([t(1, 1)], [t(1, 2)])
    assert [str(p) for p in inter] == ["t1_1*t1_2"]
    assert ideal_intersect([], [t(1, 1)]) == []
    principal = ideal_intersect([t(1, 1) * t(1, 2)], [t(1, 1)])
    assert ideal_equal(principal, [t(1, 1) * t(1, 2)])


def test_ideal_intersect_with_sum_decomposition():
    # (x) ∩ (x + y, y) = (x): the second ideal contains x and y
    inter = ideal_intersect([t(1, 1)], [t(1, 1) + t(1, 2), t(1, 2)])
    assert ideal_equal(inter, [t(1, 1)])


@pytest.mark.parametrize("I, J", [
    ([Polynomial.variable(UVAR)], [t(1, 1)]),
    ([Polynomial.variable(UVAR) - t(1, 1)], [t(1, 2)]),
    ([t(1, 1)], [t(1, 2) * Polynomial.variable(UVAR)]),
    ([Polynomial.variable(UVAR)], []),
], ids=["u", "u-t11", "u-in-second", "u-against-empty"])
def test_ideal_intersect_rejects_inputs_with_the_elimination_variable(I, J):
    # u is the elimination variable: (u) ∩ (t1_1) is (u*t1_1), which the
    # elimination would have answered with (t1_1).
    with pytest.raises(ValueError, match=r"\bu\b"):
        ideal_intersect(I, J)


def test_timeout_raises():
    gens = [t(1, 1) ** 3 * t(1, 2) - t(2, 1) ** 2,
            t(1, 2) ** 3 * t(2, 1) - t(1, 1) ** 2,
            t(2, 1) ** 3 * t(1, 1) - t(1, 2) ** 2]
    with pytest.raises(GroebnerTimeout):
        buchberger(gens, deadline=time.monotonic())


class _CountingClock:
    """Stands in for ``monotonic``: the n-th read returns n."""

    def __init__(self):
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return float(self.reads)


def test_ideal_equal_containments_share_one_deadline(monkeypatch):
    gens = [minor2(1, 3, 1, 2), minor2(2, 3, 1, 2)]
    other = [gens[0] + gens[1], gens[1]]
    clock = _CountingClock()
    monkeypatch.setattr(groebner, "monotonic", clock)
    assert non_members(gens, other, deadline=math.inf) == []
    first = clock.reads
    assert non_members(other, gens, deadline=math.inf) == []
    second = clock.reads - first
    assert first > 0 and second > 0
    # Each read returns the next tick: a deadline one past the reads of
    # gens ⊆ (other) lets that containment finish, and the converse must
    # then stop at once.
    clock.reads = 0
    assert ideal_equal(gens, other, deadline=first + second + 1)
    clock.reads = 0
    with pytest.raises(GroebnerTimeout):
        ideal_equal(gens, other, deadline=first + 1)
    assert clock.reads == first + 1


def test_deadline_stops_a_single_division(monkeypatch):
    # t1_2^6 reduces by t1_2 - t1_1 one power at a time: six reduction steps,
    # then one step moving t1_1^6 into the remainder.  Each reads the clock.
    basis = GroebnerBasis(GREVLEX, [t(1, 2) - t(1, 1)])
    clock = _CountingClock()
    monkeypatch.setattr(groebner, "monotonic", clock)
    assert normal_form(t(1, 2) ** 6, basis) == t(1, 1) ** 6
    assert clock.reads == 0  # no deadline, no read
    assert normal_form(t(1, 2) ** 6, basis, deadline=math.inf) == t(1, 1) ** 6
    assert clock.reads == 7
    clock.reads = 0
    with pytest.raises(GroebnerTimeout):
        normal_form(t(1, 2) ** 6, basis, deadline=3)
    assert clock.reads == 3
    # buchberger divides under its deadline too.  Its one S-polynomial here
    # is -t1_1*t1_2^6: seven steps as above.  Around them: one read for that
    # pair and three steps inter-reducing the basis.  The pairs of t1_1^7
    # are coprime, so they are never queued and read nothing.
    gens = [t(1, 2) - t(1, 1), t(1, 2) ** 7]
    clock.reads = 0
    assert buchberger(gens, deadline=math.inf).polys == (t(1, 2) - t(1, 1), t(1, 1) ** 7)
    assert clock.reads == 1 + 7 + 3
    clock.reads = 0
    with pytest.raises(GroebnerTimeout):
        buchberger(gens, deadline=3)
    assert clock.reads == 3  # the division's second step


# -- membership by division first ---------------------------------------------


def _decoded(entries, packing) -> tuple[Polynomial, ...]:
    """The prepped ``entries`` as the normalised polynomials they stand for:
    each entry is monic, so its primitive scale is positive."""
    out = []
    for lm, _, tail in entries:
        terms = {lm: 1, **dict(tail)}
        scale = primitive_scale(terms.values(), 1)
        out.append(packing.polynomial({m: c * scale for m, c in terms.items()}))
    return tuple(out)


def _recording_bases(monkeypatch) -> tuple[list[tuple], list[tuple]]:
    """Record, from here on, the ``(generators, cap)`` of every basis
    ``groebner`` builds, ``cap=None`` included, with the prepped generators
    decoded, and the generators of every reduced basis asked of
    :func:`~kuranil.groebner.buchberger`."""
    original_build, original_reduced = groebner._buchberger, groebner.buchberger
    built, reduced = [], []

    def recording_build(entries, packing, deadline, cap=None):
        built.append((_decoded(entries, packing), cap))
        return original_build(entries, packing, deadline, cap)

    def recording_reduced(gens, order=GREVLEX, deadline=None):
        gens = tuple(gens)
        reduced.append(gens)
        return original_reduced(gens, order, deadline)

    monkeypatch.setattr(groebner, "_buchberger", recording_build)
    monkeypatch.setattr(groebner, "buchberger", recording_reduced)
    return built, reduced


def test_non_members_builds_no_basis_when_division_proves_membership(monkeypatch):
    built, reduced = _recording_bases(monkeypatch)
    gens = [minor2(1, 3, 1, 2), minor2(2, 3, 1, 2)]
    members = [Polynomial.zero(), t(1, 1) * gens[0] - 2 * gens[1], gens[1]]
    assert non_members(members, gens) == []
    assert built == [] and reduced == []


def test_non_members_falls_back_to_the_basis_where_division_leaves_a_remainder(monkeypatch):
    # t1_2^2 = t1_2·(t1_1^2 + t1_2) − t1_1·(t1_1·t1_2) lies in I, but no
    # leading monomial of the generators divides it; t1_2 lies outside I.
    gens = [t(1, 1) ** 2 + t(1, 2), t(1, 1) * t(1, 2)]
    member, outside = t(1, 2) ** 2, t(1, 2)
    assert normal_form(member, GroebnerBasis(GREVLEX, canonical_generators(gens))) == member
    built, reduced = _recording_bases(monkeypatch)
    assert non_members([outside, member, gens[0]], gens) == [outside]
    assert non_members([member], gens) == []
    # The ideal is inhomogeneous: one complete, unreduced basis per fallback.
    assert built == [(tuple(canonical_generators(gens)), None)] * 2
    assert reduced == []


def test_non_members_keep_input_order():
    polys = [t(2, 2), Polynomial.zero(), t(1, 1) * t(2, 1), t(1, 2) + 1, t(1, 1) ** 3]
    assert non_members(polys, [t(1, 1)]) == [t(2, 2), t(1, 2) + 1]
    # The zero ideal, however its generators are written, holds only zero.
    for zero_ideal in ([], [Polynomial.zero()]):
        assert non_members(polys, zero_ideal) == [p for p in polys if p]
    assert non_members([], [t(1, 1)]) == []


def test_non_members_reads_the_deadline_in_division_and_basis(monkeypatch):
    clock = _CountingClock()
    monkeypatch.setattr(groebner, "monotonic", clock)
    # t1_2^6 - t1_1^6 reduces by t1_2 - t1_1 one power at a time, as in
    # test_deadline_stops_a_single_division: six steps, and the last one
    # cancels t1_1^6, so nothing is left for a basis.
    member = t(1, 2) ** 6 - t(1, 1) ** 6
    assert non_members([member], [t(1, 2) - t(1, 1)], deadline=math.inf) == []
    assert clock.reads == 6
    clock.reads = 0
    with pytest.raises(GroebnerTimeout):
        non_members([member], [t(1, 2) - t(1, 1)], deadline=3)
    assert clock.reads == 3
    # Dividing t1_2^2 takes one step; the fallback basis meets the deadline
    # at its first read.
    clock.reads = 0
    with pytest.raises(GroebnerTimeout):
        non_members([t(1, 2) ** 2], [t(1, 1) ** 2 + t(1, 2), t(1, 1) * t(1, 2)],
                    deadline=2)
    assert clock.reads == 2


@st.composite
def _ideal_and_probes(draw):
    """``(gens, probes)``: up to three small generators over three variables,
    and probes that are small polynomials or combinations of the generators."""
    gens = draw(st.lists(_polynomials(_BASIS_VARIABLES), min_size=0, max_size=3))
    small = _polynomials(_BASIS_VARIABLES)
    combination = st.lists(small, min_size=len(gens), max_size=len(gens)).map(
        lambda qs: sum((q * g for q, g in zip(qs, gens)), Polynomial.zero()))
    probes = draw(st.lists(st.one_of(small, combination), max_size=5))
    return gens, probes


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_ideal_and_probes())
# Division by the generators leaves t1_2^2, which the basis proves a member.
@example(([t(1, 1) ** 2 + t(1, 2), t(1, 1) * t(1, 2)], [t(1, 2) ** 2, t(1, 2)]))
def test_non_members_agree_with_normal_forms_modulo_the_basis(case):
    gens, probes = case
    basis = buchberger(gens)
    assert non_members(probes, gens) == [p for p in probes if normal_form(p, basis)]


def _homogeneous(variables, degree):
    """Homogeneous polynomials of ``degree`` over ``variables``, zero among
    them, of up to three terms with small integer coefficients."""
    monomial = st.lists(st.sampled_from(variables), min_size=degree, max_size=degree)
    terms = st.lists(st.tuples(st.integers(-3, 3), monomial), min_size=1, max_size=3)
    return terms.map(lambda pairs: sum(
        (c * math.prod((var_poly(*v) for v in mono), start=Polynomial.one())
         for c, mono in pairs), Polynomial.zero()))


@st.composite
def _homogeneous_ideal_and_probes(draw):
    """``(gens, probes)``: up to three homogeneous generators of degree 1–3
    over three or four variables, and probes of mixed degrees, homogeneous
    or not: small polynomials, combinations of the generators, and sums of
    the two."""
    variables = _BASIS_VARIABLES + _OTHER_VARIABLES[:draw(st.integers(0, 1))]
    gens = draw(st.lists(st.integers(1, 3).flatmap(
        lambda d: _homogeneous(variables, d)), max_size=3))
    small = _polynomials(variables)
    combination = st.lists(small, min_size=len(gens), max_size=len(gens)).map(
        lambda qs: sum((q * g for q, g in zip(qs, gens)), Polynomial.zero()))
    probe = st.one_of(small, combination, st.builds(lambda a, b: a + b, small, combination))
    return gens, draw(st.lists(probe, max_size=5))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_homogeneous_ideal_and_probes())
# t1_1*t1_2*t2_1 = t2_1*(t2_1^2 - t1_1*t1_2) - t2_1^3 is first reached by the
# S-pair of the two generators, of degree 3: the cap the probes set.
@example(([t(2, 1) ** 2 - t(1, 1) * t(1, 2), t(2, 1) ** 3],
          [t(1, 1) * t(1, 2) * t(2, 1), t(1, 2),
           t(1, 1) * t(1, 2) * t(2, 1) + t(2, 1) ** 2 - t(1, 1) * t(1, 2) + 1]))
def test_non_members_of_homogeneous_ideals_agree_with_normal_forms(case):
    # A homogeneous ideal's fallback basis is truncated at the probes' top
    # degree; the full reduced basis is the oracle.
    gens, probes = case
    basis = buchberger(gens)
    assert non_members(probes, gens) == [p for p in probes if normal_form(p, basis)]


def test_non_members_of_an_inhomogeneous_ideal_use_the_full_basis(monkeypatch):
    # t1_1*t1_2 = t1_1^3 - t1_1*(t1_1^2 - t1_2) lies in I, but only the
    # S-pair of degree 3 finds it: a basis truncated at the probe's degree 2
    # would call it a non-member.
    gens = [t(1, 1) ** 2 - t(1, 2), t(1, 1) ** 3]
    built, reduced = _recording_bases(monkeypatch)
    assert non_members([t(1, 1) * t(1, 2), t(1, 1)], gens) == [t(1, 1)]
    assert built == [(tuple(canonical_generators(gens)), None)]
    assert reduced == []


@st.composite
def _generator_list_pairs(draw):
    """``(I, J)``: I has up to three small generators.  J is either another
    such list, or I with combinations of its generators appended and then
    maybe one entry dropped, so that equal and unequal ideals both come up."""
    small = _polynomials(_BASIS_VARIABLES)
    I = draw(st.lists(small, max_size=3))
    if draw(st.booleans()):
        return I, draw(st.lists(small, max_size=3))
    combination = st.lists(small, min_size=len(I), max_size=len(I)).map(
        lambda qs: sum((q * g for q, g in zip(qs, I)), Polynomial.zero()))
    J = I + draw(st.lists(combination, max_size=2))
    if J and draw(st.booleans()):
        del J[draw(st.integers(0, len(J) - 1))]
    return I, J


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_generator_list_pairs())
# Division by I's generators leaves t1_2^2, which I's basis proves a member.
@example(([t(1, 1) ** 2 + t(1, 2), t(1, 1) * t(1, 2)],
          [t(1, 1) ** 2 + t(1, 2), t(1, 1) * t(1, 2), t(1, 2) ** 2]))
def test_ideal_equal_agrees_with_reduced_bases(case):
    # The reduced basis is unique, so comparing bases is the oracle.
    I, J = case
    assert ideal_equal(I, J) == (buchberger(I).polys == buchberger(J).polys)
    assert ideal_equal(J, I) == ideal_equal(I, J)


# -- packed monomials against polyring ---------------------------------------

_ORACLE = settings(derandomize=True, deadline=None, max_examples=300)
_VARIABLES = [UVAR] + [(i, j) for i in range(1, 4) for j in range(1, 6)]


@st.composite
def _monomial_pairs(draw):
    """``(packing, order, a, b)``: monomials over up to 12 variables, ``u``
    among them at times, packed in either order at a narrow or the first
    width; ``b`` is a multiple of ``a`` half the time."""
    variables = sorted(draw(st.lists(st.sampled_from(_VARIABLES), min_size=1,
                                     max_size=12, unique=True)), key=var_rank)
    order = draw(st.sampled_from((GREVLEX, LEX)))
    width = draw(st.sampled_from((8, groebner._FIRST_WIDTH)))
    exponents = st.lists(st.integers(0, 5), min_size=len(variables),
                         max_size=len(variables))
    a, b = (tuple((v, e) for v, e in zip(variables, draw(exponents)) if e)
            for _ in range(2))
    if draw(st.booleans()):
        b = mono_mul(a, b)
    return polyring.Packing(variables, order, width), order, a, b


def _pack(packing, mono):
    (packed,) = packing.pack(Polynomial({mono: 1}))
    return packed


def _unpack(packing, packed):
    (mono,) = packing.polynomial({packed: Fraction(1)}).terms
    return mono


@_ORACLE
@given(_monomial_pairs())
def test_packed_monomials_match_polyring(case):
    packing, order, a, b = case
    pa, pb = _pack(packing, a), _pack(packing, b)
    assert _unpack(packing, pa) == a and _unpack(packing, pb) == b
    assert packing.degree(pa) == mono_degree(a)
    assert (pa < pb) == (order.key(a) < order.key(b))
    assert (pa == pb) == (a == b)
    assert pa + pb == _pack(packing, mono_mul(a, b))
    divides = not (pb - pa) & packing.guards
    assert divides == mono_divides(a, b)
    if divides:
        assert pb - pa == _pack(packing, mono_div(b, a))
    assert packing.lcm(pa, pb) == _pack(packing, mono_lcm(a, b))
    assert (packing.gcd(pa, pb) == 0) == (mono_lcm(a, b) == mono_mul(a, b))


# t1_1^k fits the first field width, t1_1^(2k) does not: results past it
# must come out exact, not wrapped into a neighbouring field.
_PAST_FIRST_WIDTH = 1 << (groebner._FIRST_WIDTH - 2)


def test_normal_form_widens_overflowing_fields():
    k = _PAST_FIRST_WIDTH
    basis = GroebnerBasis(LEX, [t(1, 2) - t(1, 1) ** k])
    assert normal_form(t(1, 2) ** 3, basis) == t(1, 1) ** (3 * k)


def test_buchberger_widens_overflowing_fields():
    k = _PAST_FIRST_WIDTH
    x, y = t(1, 1), t(1, 2)
    # lex: reducing the S-polynomial makes x^(2k).
    assert buchberger([y - x ** k, y ** 2 - y], order=LEX).polys == (
        x ** (2 * k) - x ** k, y - x ** k)
    # grevlex: the pair's lcm x^k*y^k has degree 2k.
    basis = buchberger([x ** k * y, x * y ** k])
    assert basis.polys == (x ** k * y, x * y ** k)
    assert not normal_form(x ** k * y ** k, basis)


# -- normal forms against sympy -----------------------------------------------

# A basis lives in the first three variables; the other two it never sees.
_BASIS_VARIABLES = [(1, 1), (1, 2), (2, 1)]
_OTHER_VARIABLES = [(2, 2), (3, 1)]


def _polynomials(variables):
    """Polynomials, zero among them, of up to three terms: each a small
    integer times a monomial of up to two of ``variables``, squared at most."""
    monomial = st.dictionaries(st.sampled_from(variables), st.integers(1, 2),
                               max_size=2)
    terms = st.lists(st.tuples(st.integers(-3, 3), monomial), min_size=1, max_size=3)

    def build(pairs):
        out = Polynomial.zero()
        for c, mono in pairs:
            term = Polynomial.constant(c)
            for v, e in mono.items():
                term = term * var_poly(*v) ** e
            out = out + term
        return out

    return terms.map(build)


def _probes():
    """Polynomials to reduce: small ones over all five variables, and ones
    of degree 128 and more through a power of a variable the basis lacks."""
    small = _polynomials(_BASIS_VARIABLES + _OTHER_VARIABLES)
    high = st.builds(lambda q, v, e: q * var_poly(*v) ** e,
                     small, st.sampled_from(_OTHER_VARIABLES), st.integers(128, 130))
    return st.lists(st.one_of(small, high), min_size=1, max_size=5)


def _sympy_remainder(p, basis, order):
    table, sgens = _sympy_env([p, *basis.polys])
    if not basis.polys:
        return _to_sympy(p, table)
    _, remainder = sympy.reduced(_to_sympy(p, table),
                                 [_to_sympy(g, table) for g in basis.polys],
                                 *(sgens or [sympy.Symbol("z")]),  # constants only
                                 order=order.kind, domain=sympy.QQ)
    return sympy.expand(remainder)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from((GREVLEX, LEX)),
       st.lists(_polynomials(_BASIS_VARIABLES), min_size=1, max_size=3), _probes())
# lex: y - x^2 with y = t1_2 ranked above x = t1_1.  y^127 fits the first
# field width, and its first reduction step makes a monomial of degree 128,
# so the division overflows and the packing must widen.
@example(LEX, [t(1, 2) - t(1, 1) ** 2], [t(1, 2) ** 127, t(1, 2) * t(2, 2)])
# A basis of degree 130 needs wide fields, though the probe t1_1^130·t2_2
# would fit narrow ones.
@example(GREVLEX, [t(1, 2) - t(1, 1) ** 130], [t(1, 1) ** 131, t(1, 1) ** 130 * t(2, 2)])
def test_normal_form_agrees_with_sympy(order, gens, probes):
    basis = buchberger(gens, order=order)
    for p in probes:
        remainder = normal_form(p, basis)
        table, _ = _sympy_env([p, *basis.polys])
        assert _to_sympy(remainder, table) == _sympy_remainder(p, basis, order)


# -- reduced-basis postconditions on random ideals ---------------------------


def _random_ideal(rng, nvars=3, ngens=3, max_deg=2):
    vars_ = [(1, 1), (1, 2), (2, 1), (2, 2)][:nvars]
    gens = []
    for _ in range(ngens):
        p = Polynomial.zero()
        for _ in range(rng.randint(1, 3)):
            term = Polynomial.constant(Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(0, max_deg)):
                term = term * var_poly(*rng.choice(vars_))
            p = p + term
        if p:
            gens.append(p)
    return gens


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_buchberger_postconditions_random(order):
    rng = random.Random(17)
    for _ in range(12):
        gens = _random_ideal(rng)
        if not gens:
            continue
        basis = buchberger(gens, order=order)
        # every original generator reduces to zero
        for g in gens:
            assert not normal_form(g, basis)
        # every S-polynomial of basis pairs reduces to zero
        for i in range(len(basis.polys)):
            for j in range(i + 1, len(basis.polys)):
                s = s_polynomial(basis.polys[i], basis.polys[j], order)
                assert not normal_form(s, basis)
        # the basis is reduced: no term of g is divisible by another leading monomial
        for i, g in enumerate(basis.polys):
            for j, h in enumerate(basis.polys):
                if i == j:
                    continue
                lead = h.leading_monomial(order)
                for mono in g.terms:
                    assert not mono_divides(lead, mono)
        # idempotence: running Buchberger on the basis returns the same basis
        assert buchberger(basis.polys, order=order) == basis


# -- division remainders ----------------------------------------------------


def _textbook_remainder(p, divisors, order):
    """Multivariate division in list order, one polynomial subtraction per step."""
    remainder = Polynomial.zero()
    work = p
    while work:
        lm, lc = work.leading_term(order)
        for g in divisors:
            glm, glc = g.leading_term(order)
            if mono_divides(glm, lm):
                work = work - Polynomial({mono_div(lm, glm): Fraction(lc) / glc}) * g
                break
        else:
            remainder = remainder + Polynomial({lm: lc})
            work = work - Polynomial({lm: lc})
    return remainder


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_division_remainder_matches_textbook_division(order):
    rng = random.Random(43)
    order_sensitive = 0
    for _ in range(30):
        divisors = _random_ideal(rng, nvars=4, ngens=3)
        p = sum(_random_ideal(rng, nvars=4, ngens=4, max_deg=4), Polynomial.zero())
        remainders = []
        for divs in (divisors, divisors[::-1]):
            remainder = normal_form(p, GroebnerBasis(order, divs))
            assert remainder == _textbook_remainder(p, divs, order)
            remainders.append(remainder)
        order_sensitive += remainders[0] != remainders[1]
    # Some divisor lists are not Gröbner bases: the remainder depends on
    # which divisor comes first, and the first one in list order must win.
    assert order_sensitive > 0


# -- rational inputs ----------------------------------------------------------

# A coefficient is an int while it is integral; these inputs force
# non-integral ones, and every result must still be exact and carry each
# coefficient in canonical form: an int when integral, else a Fraction.
_RATIONALS = [Fraction(p, q) for p in range(-4, 5) if p for q in (1, 2, 3)]


def _random_rational_ideal(rng, order, nvars=3, ngens=3, max_deg=2):
    """:func:`_random_ideal` with each coefficient scaled by a random p/q,
    and every leading coefficient in ``order`` other than 1 and -1."""
    gens = []
    for g in _random_ideal(rng, nvars, ngens, max_deg):
        g = Polynomial({m: c * rng.choice(_RATIONALS) for m, c in g.terms.items()})
        if abs(g.leading_term(order)[1]) == 1:
            g = g * Fraction(2, 3)
        gens.append(g)
    return gens


def _all_canonical(polys):
    return all(type(c) is (int if c.denominator == 1 else Fraction)
               for p in polys for c in p.terms.values())


def _has_non_integral(polys):
    return any(c.denominator != 1 for p in polys for c in p.terms.values())


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_rational_division_matches_textbook_division(order):
    rng = random.Random(47)
    non_integral = 0
    for _ in range(30):
        divisors = _random_rational_ideal(rng, order, nvars=4, ngens=3)
        p = sum(_random_rational_ideal(rng, order, nvars=4, ngens=4, max_deg=4),
                Polynomial.zero())
        for divs in (divisors, divisors[::-1]):
            remainder = normal_form(p, GroebnerBasis(order, divs))
            assert remainder == _textbook_remainder(p, divs, order)
            assert _all_canonical([remainder])
            non_integral += _has_non_integral([remainder])
    assert non_integral > 0


# -- sympy oracle ------------------------------------------------------------


def _sympy_env(polys):
    vars_ = sorted({v for p in polys for v in p.variables()})
    table = {v: sympy.Symbol(var_name(v)) for v in vars_}
    gens = [table[v] for v in reversed(vars_)]  # sympy expects greatest first
    return table, gens


@pytest.mark.parametrize("order,sympy_order",
                         [(GREVLEX, "grevlex"), (LEX, "lex")],
                         ids=["grevlex", "lex"])
def test_reduced_basis_matches_sympy(order, sympy_order):
    rng = random.Random(29)
    checked = 0
    while checked < 10:
        gens = _random_ideal(rng)
        gens = [g for g in gens if g]
        if not gens:
            continue
        checked += 1
        basis = buchberger(gens, order=order)
        table, sgens = _sympy_env(gens)
        if not sgens:
            continue
        reference = sympy.groebner([_to_sympy(g, table) for g in gens],
                                   *sgens, order=sympy_order, field=True)
        mine = set()
        for p in basis.polys:
            lc = p.leading_term(order)[1]
            mine.add(sympy.expand(_to_sympy(p, table) / sympy.Rational(
                lc.numerator, lc.denominator)))
        theirs = {sympy.expand(sympy.sympify(e)) for e in reference.exprs}
        assert mine == theirs


@pytest.mark.parametrize("order,sympy_order",
                         [(GREVLEX, "grevlex"), (LEX, "lex")],
                         ids=["grevlex", "lex"])
def test_rational_reduced_basis_matches_sympy(order, sympy_order):
    rng = random.Random(59)
    non_integral = 0
    for _ in range(20):
        gens = _random_rational_ideal(rng, order)
        assert _has_non_integral(gens)
        basis = buchberger(gens, order=order)
        assert _all_canonical(basis.polys)
        table, sgens = _sympy_env(gens)
        reference = sympy.groebner([_to_sympy(g, table) for g in gens],
                                   *sgens, order=sympy_order, field=True)
        theirs = {sympy.expand(sympy.sympify(e)) for e in reference.exprs}
        monic = [p * (Fraction(1) / p.leading_term(order)[1]) for p in basis.polys]
        assert {_to_sympy(p, table) for p in monic} == theirs
        # the monic tails the engine divides by are not all integral
        non_integral += _has_non_integral(monic)
    assert non_integral > 0


def test_rational_intersection_returns_fractions():
    rng = random.Random(61)
    for _ in range(5):
        I = _random_rational_ideal(rng, LEX, ngens=2)
        J = _random_rational_ideal(rng, LEX, ngens=2)
        inter = ideal_intersect(I, J)
        assert _all_canonical(inter)
        bi, bj = buchberger(I), buchberger(J)
        for p in inter:
            assert not normal_form(p, bi) and not normal_form(p, bj)


def test_minor_ideal_matches_sympy_grevlex():
    gens = [minor2(1, 2, 1, 2), minor2(1, 3, 1, 2), minor2(2, 3, 1, 2)]
    basis = buchberger(gens)
    table, sgens = _sympy_env(gens)
    reference = sympy.groebner([_to_sympy(g, table) for g in gens],
                               *sgens, order="grevlex", field=True)
    mine = set()
    for p in basis.polys:
        lc = p.leading_term(GREVLEX)[1]
        mine.add(sympy.expand(
            _to_sympy(p, table) / sympy.Rational(lc.numerator, lc.denominator)))
    assert mine == {sympy.expand(sympy.sympify(e)) for e in reference.exprs}


def test_obstruction_bases_match_sympy_grevlex():
    """The reduced grevlex basis of each nonzero obstruction ideal of the
    catalog and of the random algebras of dimension 3–5 is sympy's, up to
    the primitive scaling."""
    algebras = [e.build() for e in catalog.entries()]
    algebras = [L for L in algebras if isinstance(L, LieAlgebra)]
    small_random = [L for L in random_nilpotent_algebras() if L.dim <= 5]
    ideals = [(source, gens) for source, group in (("catalog", algebras),
                                                   ("random", small_random))
              for L in group
              if (gens := obstruction_map(phi_recursion(build_decomposition(L))))]
    assert [source for source, _ in ideals].count("catalog") == 7
    assert [source for source, _ in ideals].count("random") == 7
    for _, gens in ideals:
        basis = buchberger(gens)
        table, sgens = _sympy_env(gens)
        reference = sympy.groebner([_to_sympy(g, table) for g in gens],
                                   *sgens, order="grevlex", domain=sympy.QQ)
        monic = [p * (Fraction(1) / p.leading_term(GREVLEX)[1]) for p in basis.polys]
        assert len(monic) == len(reference.exprs)
        assert {_to_sympy(p, table) for p in monic} == \
            {sympy.expand(e) for e in reference.exprs}


def test_intersection_matches_sympy_product_membership():
    # v ∈ I ∩ J iff v reduces to zero against bases of both ideals
    rng = random.Random(31)
    I = [t(1, 1) * t(2, 2) - t(1, 2), t(2, 1)]
    J = [t(1, 1) ** 2, t(1, 2) * t(2, 1) - t(2, 2)]
    inter = ideal_intersect(I, J)
    bi, bj = buchberger(I), buchberger(J)
    for p in inter:
        assert not normal_form(p, bi)
        assert not normal_form(p, bj)
    # spot-check: random ℚ-combinations of intersection elements stay inside
    for _ in range(5):
        combo = Polynomial.zero()
        for p in inter:
            combo = combo + p * Fraction(rng.randint(-2, 2))
        assert not normal_form(combo, bi) and not normal_form(combo, bj)


# -- intersection inside one lex packing ---------------------------------------

U = Polynomial.variable(UVAR)


def _intersect_by_buchberger(I, J):
    """I ∩ J by the elimination formula on polynomials: the u-free elements
    of the reduced lex basis of u·I + (1−u)·J, as canonical generators."""
    combined = [U * f for f in I] + [(1 - U) * g for g in J]
    return canonical_generators(
        g for g in buchberger(combined, LEX) if UVAR not in g.variables())


@st.composite
def _ideal_pairs(draw):
    """``(I, J)``: up to three generators each over three variables, either
    all homogeneous of degree 1–2 or all small and inhomogeneous at times."""
    if draw(st.booleans()):
        gen = st.integers(1, 2).flatmap(lambda d: _homogeneous(_BASIS_VARIABLES, d))
    else:
        gen = _polynomials(_BASIS_VARIABLES)
    return draw(st.lists(gen, max_size=3)), draw(st.lists(gen, max_size=3))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_ideal_pairs())
# u·t1_1^127 has degree 128: the first field width overflows on entry.
@example(([t(1, 1) ** 127], [t(1, 2)]))
@example(([t(1, 1) ** 2 - t(1, 2), t(2, 1)], [t(1, 1) * t(2, 1) + 1, t(1, 2) ** 2]))
def test_ideal_intersect_agrees_with_the_elimination_formula(case):
    I, J = case
    assert ideal_intersect(I, J) == _intersect_by_buchberger(I, J)


def test_ideal_intersect_widens_when_u_times_a_generator_overflows():
    # t1_1^127 fits the first field width; u·t1_1^127, of degree 128, does not.
    assert ideal_intersect([t(1, 1) ** 127], [t(1, 2)]) == [t(1, 1) ** 127 * t(1, 2)]


def test_ideal_intersect_reduces_only_the_u_free_elements(monkeypatch):
    # Inter-reduction gets exactly the u-free elements of the lex basis;
    # that basis holds elements with u as well.
    I = [t(1, 1) * t(1, 2) - t(2, 1), t(1, 2) ** 2]
    J = [t(1, 1) ** 2 - t(2, 1), t(1, 2) * t(2, 1)]
    expected = _intersect_by_buchberger(I, J)
    original_build, original_reduce = groebner._buchberger, groebner._reduce_basis
    built, reduced = [], []

    def recording_build(entries, packing, deadline, cap=None):
        basis = original_build(entries, packing, deadline, cap)
        built.append(_decoded(basis, packing))
        return basis

    def recording_reduce(entries, packing, deadline=None):
        reduced.append(_decoded(entries, packing))
        return original_reduce(entries, packing, deadline)

    monkeypatch.setattr(groebner, "_buchberger", recording_build)
    monkeypatch.setattr(groebner, "_reduce_basis", recording_reduce)
    assert ideal_intersect(I, J) == expected
    (basis,), (kept,) = built, reduced
    assert any(UVAR in g.variables() for g in basis)
    assert kept == tuple(g for g in basis if UVAR not in g.variables())


def test_buchberger_divides_by_the_elements_that_still_count(monkeypatch):
    # No divisor's leading monomial is divisible by a later divisor's: an
    # element stops dividing once a newer leading monomial divides its own.
    original_build, original_divide = groebner._buchberger, groebner._divide
    inside, divisor_lms = [], []

    def recording_build(*args):
        inside.append(True)
        try:
            return original_build(*args)
        finally:
            inside.pop()

    def recording_divide(work, divisors, packing, deadline=None):
        if inside:
            divisor_lms.append(([lm for lm, _, _ in divisors], packing.guards))
        return original_divide(work, divisors, packing, deadline)

    monkeypatch.setattr(groebner, "_buchberger", recording_build)
    monkeypatch.setattr(groebner, "_divide", recording_divide)
    x, y, z = t(1, 1), t(1, 2), t(2, 1)
    # z + x and z + y share their leading monomial in both orders, so the
    # second one replaces the first as a divisor.
    buchberger([z + x, z + y, x * y - z])
    buchberger([z + x, z + y, x * y - z], order=LEX)
    ideal_intersect([x * y - z, y ** 2], [x ** 2 - z, y * z])
    non_members([y], [x ** 2 + y, x * y])
    assert divisor_lms
    for lms, guards in divisor_lms:
        for k, lm in enumerate(lms):
            assert all((lm - later) & guards for later in lms[k + 1:])


def test_non_members_preps_each_generator_once(monkeypatch):
    # The fallback basis starts from the generators' entries that the first
    # division used.
    original, prepped = polyring.Packing.prep, []

    def recording(packing, terms):
        prepped.append(packing.polynomial(dict(terms)))
        return original(packing, terms)

    monkeypatch.setattr(polyring.Packing, "prep", recording)
    gens = [t(1, 1) ** 2 + t(1, 2), t(1, 1) * t(1, 2)]
    built, _ = _recording_bases(monkeypatch)
    assert non_members([t(1, 2), t(1, 2) ** 2], gens) == [t(1, 2)]
    assert len(built) == 1
    assert [prepped.count(g) for g in canonical_generators(gens)] == [1, 1]
