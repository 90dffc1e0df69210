"""Multivariate polynomials over ℚ: arithmetic, orders, parsing, minors."""

from fractions import Fraction
import math
import random

from hypothesis import given, settings, strategies as st
import pytest
import sympy

from kuranil.polyring import (
    GREVLEX,
    LEX,
    UVAR,
    MonomialOrder,
    Polynomial,
    PolynomialParseError,
    canonical_generators,
    minor2,
    minor3,
    mono_degree,
    mono_mul,
    parse_ideal_components,
    parse_polynomial,
    primitive_scale,
    rational,
    var_name,
    var_poly,
    var_rank,
)
from oracles import _to_sympy, mono_divides, mono_lcm


def t(i, j):
    return var_poly(i, j)


def _sympy_symbol_table(max_i=4, max_j=6):
    return {(i, j): sympy.Symbol(f"t{i}_{j}") for i in range(1, max_i + 1)
            for j in range(1, max_j + 1)}


def _random_poly(rng, nterms=4, max_i=2, max_j=3, max_deg=3):
    p = Polynomial.zero()
    for _ in range(nterms):
        term = Polynomial.constant(Fraction(rng.randint(-5, 5)))
        for _ in range(rng.randint(0, max_deg)):
            term = term * t(rng.randint(1, max_i), rng.randint(1, max_j))
        p = p + term
    return p


# -- arithmetic --------------------------------------------------------------


def test_ring_axioms_against_sympy():
    rng = random.Random(101)
    table = _sympy_symbol_table()
    for _ in range(25):
        p, q = _random_poly(rng), _random_poly(rng)
        assert _to_sympy(p + q, table) == _to_sympy(p, table) + _to_sympy(q, table)
        assert _to_sympy(p * q, table) == sympy.expand(
            _to_sympy(p, table) * _to_sympy(q, table))
        assert _to_sympy(p - q, table) == _to_sympy(p, table) - _to_sympy(q, table)


def test_scalar_and_power_operations():
    p = t(1, 1) + 2 * t(1, 2)
    assert p * Fraction(1, 2) == Fraction(1, 2) * p
    assert p ** 2 == p * p
    assert p ** 0 == Polynomial.one()
    assert -p + p == Polynomial.zero()
    assert not Polynomial.zero()
    assert bool(p)


def test_constant_round_trip():
    c = Polynomial.constant(Fraction(-7, 3))
    assert c.is_constant() and c.constant_value() == Fraction(-7, 3)
    with pytest.raises(ValueError):
        (t(1, 1) + c).constant_value()


def test_evaluate_exact_and_strict():
    p = minor2(1, 2, 1, 2)  # t1_1*t2_2 - t1_2*t2_1
    point = {(1, 1): Fraction(2), (2, 2): Fraction(3),
             (1, 2): Fraction(5), (2, 1): Fraction(1)}
    assert p.evaluate(point) == Fraction(1)
    with pytest.raises(KeyError):
        p.evaluate({(1, 1): Fraction(1)})


def test_total_degree_and_homogeneity():
    assert (t(1, 1) * t(2, 2) + t(1, 2)).total_degree() == 2
    assert not (t(1, 1) * t(2, 2) + t(1, 2)).is_homogeneous()
    assert minor2(1, 2, 1, 2).is_homogeneous()
    assert Polynomial.zero().total_degree() == -1


# -- variable and monomial ranking -------------------------------------------


def test_variable_ranking_t11_least_u_greatest():
    assert var_rank((1, 1)) < var_rank((1, 2)) < var_rank((2, 1))
    for v in [(1, 1), (3, 4), (9, 9)]:
        assert var_rank(v) < var_rank(UVAR)
    assert var_name((2, 3)) == "t2_3"
    assert var_name(UVAR) == "u"


def test_monomial_helpers():
    m1 = (t(1, 1) * t(1, 2)).leading_monomial(GREVLEX)
    m2 = (t(1, 1) ** 2).leading_monomial(GREVLEX)
    assert mono_degree(m1) == mono_degree(m2) == 2
    assert mono_divides((t(1, 1)).leading_monomial(GREVLEX), m2)
    assert not mono_divides(m1, m2)
    assert mono_lcm(m1, m2) == (t(1, 1) ** 2 * t(1, 2)).leading_monomial(GREVLEX)


_MONOMIALS = st.dictionaries(
    st.one_of(st.just(UVAR), st.tuples(st.integers(1, 4), st.integers(1, 4))),
    st.integers(1, 3), max_size=6,
).map(lambda d: tuple(sorted(d.items(), key=lambda p: var_rank(p[0]))))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_MONOMIALS, _MONOMIALS)
def test_mono_mul_merge_equals_dict_product(a, b):
    """The merged product equals the exponent-sum dict sorted by rank, u included."""
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    expected = tuple(sorted(exps.items(), key=lambda p: var_rank(p[0])))
    assert mono_mul(a, b) == expected == mono_mul(b, a)


def test_grevlex_degree_dominates():
    assert (GREVLEX.key((t(1, 1) ** 3).leading_monomial(GREVLEX))
            > GREVLEX.key((t(2, 2) * t(1, 1)).leading_monomial(GREVLEX)))


def test_grevlex_tie_break_least_variable_smaller_exponent_wins():
    # Equal degree: the monomial with the smaller power of the least-ranked
    # differing variable is the larger one under grevlex.
    a = (t(1, 1) * t(2, 2)).leading_monomial(GREVLEX)
    b = (t(1, 2) * t(2, 1)).leading_monomial(GREVLEX)
    # least differing variable is t1_1: a has it, b does not -> b is larger
    assert GREVLEX.key(b) > GREVLEX.key(a)


def test_lex_order_greatest_variable_dominates():
    a = (t(1, 1) ** 5).leading_monomial(LEX)
    b = (t(1, 2)).leading_monomial(LEX)
    assert LEX.key(b) > LEX.key(a)  # t1_2 outranks any power of t1_1


def test_orders_agree_with_sympy_on_random_pairs():
    rng = random.Random(7)
    vars_ = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]  # ascending rank
    for case in range(40):
        e1 = [rng.randint(0, 3) for _ in vars_]
        e2 = [rng.randint(0, 3) for _ in vars_]
        m1 = m2 = Polynomial.one()
        for v, a, b in zip(vars_, e1, e2):
            m1 *= var_poly(*v) ** a
            m2 *= var_poly(*v) ** b
        for order, sname in ((GREVLEX, "grevlex"), (LEX, "lex")):
            ka = order.key(m1.leading_monomial(order))
            kb = order.key(m2.leading_monomial(order))
            mine = (ka > kb) - (ka < kb)
            key = sympy.polys.orderings.monomial_key(sname)
            # sympy keys expect exponent tuples listed greatest variable first
            k1, k2 = key(tuple(reversed(e1))), key(tuple(reversed(e2)))
            expected = (k1 > k2) - (k1 < k2)
            assert mine == expected, (case, sname)


def test_monomial_order_identity():
    assert MonomialOrder("grevlex") == GREVLEX
    assert MonomialOrder("lex") == LEX
    assert GREVLEX != LEX
    with pytest.raises(ValueError):
        MonomialOrder("weird")


# -- normalization -----------------------------------------------------------


def test_normalized_is_primitive_integer_positive_leading():
    p = (t(1, 1) * Fraction(2, 3) - t(1, 2) * Fraction(4, 3))
    [q] = canonical_generators([p], GREVLEX)
    coeffs = sorted(q.terms.values())
    assert all(c.denominator == 1 for c in coeffs)
    assert q.leading_term(GREVLEX)[1] > 0
    from math import gcd
    assert gcd(*(abs(int(c)) for c in coeffs)) == 1
    assert q == canonical_generators([-p], GREVLEX)[0]
    assert canonical_generators([Polynomial.zero()], GREVLEX) == []  # nothing to normalise
    assert canonical_generators([q], GREVLEX)[0] is q  # already primitive: nothing to scale


@st.composite
def _mixed_values(draw):
    """``(fractions, mixed, lead)``: nonzero ``Fraction`` values, the same
    values with some integral ones as ``int``, and the index of the lead."""
    values = draw(st.lists(
        st.one_of(st.integers(-40, 40).map(Fraction),
                  st.fractions(min_value=-40, max_value=40, max_denominator=12))
        .filter(bool), min_size=1, max_size=8))
    as_int = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    mixed = [v.numerator if v.denominator == 1 and flag else v
             for v, flag in zip(values, as_int)]
    return values, mixed, draw(st.integers(0, len(values) - 1))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_mixed_values())
def test_primitive_scale_takes_ints_and_fractions_alike(case):
    values, mixed, lead = case
    scale = primitive_scale(mixed, mixed[lead])
    assert type(scale) is Fraction
    assert scale == primitive_scale(values, values[lead])
    scaled = [v * scale for v in mixed]
    assert all(c.denominator == 1 for c in scaled)
    assert math.gcd(*(c.numerator for c in scaled)) == 1
    assert scaled[lead] > 0


def _canonical(c) -> bool:
    return type(c) is (int if c.denominator == 1 else Fraction)


def _fraction_terms(monos, values):
    """A reference polynomial: ``{monomial: Fraction}`` without zeros."""
    out = {}
    for m, c in zip(monos, values):
        out[m] = out.get(m, Fraction(0)) + Fraction(c)
    return {m: c for m, c in out.items() if c}


@st.composite
def _mixed_polynomials(draw):
    """``(monomials, fractions, mixed)``: terms in t1_1, t1_2 whose
    coefficients are ``Fraction`` values, and the same values with some
    integral ones as ``int``."""
    values, mixed, _ = draw(_mixed_values())
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    monos = [tuple(((1, j + 1), e) for j, e in enumerate(exp) if e)
             for exp in draw(st.lists(exps, min_size=len(values), max_size=len(values),
                                      unique=True))]
    return monos, values, mixed


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_mixed_polynomials(), _mixed_polynomials(), _mixed_values())
def test_arithmetic_on_mixed_coefficients_is_canonical(a, b, scalars):
    """Mixed int and Fraction inputs give every coefficient in canonical form,
    equal to the same computation on ``Fraction`` values only."""
    (ma, fa, xa), (mb, fb, xb) = a, b
    p, q = Polynomial(dict(zip(ma, xa))), Polynomial(dict(zip(mb, xb)))
    ra, rb = _fraction_terms(ma, fa), _fraction_terms(mb, fb)
    (fs, *_), (s, *_), _ = scalars
    expected = {
        "+": _fraction_terms([*ra, *rb], [*ra.values(), *rb.values()]),
        "-": _fraction_terms([*ra, *rb], [*ra.values(), *(-c for c in rb.values())]),
        "*": _fraction_terms([mono_mul(m1, m2) for m1 in ra for m2 in rb],
                             [c1 * c2 for c1 in ra.values() for c2 in rb.values()]),
        "scalar": {m: c * fs for m, c in ra.items()},
    }
    for op, result in (("+", p + q), ("-", p - q), ("*", p * q), ("scalar", p * s)):
        assert result.terms == expected[op], op
        assert all(_canonical(c) for c in result.terms.values()), op
    scale = primitive_scale(ra.values(), Polynomial(ra).leading_term(GREVLEX)[1])
    normalized = canonical_generators([p], GREVLEX)[0]
    assert normalized.terms == {m: c * scale for m, c in ra.items()}
    assert all(type(c) is int for c in normalized.terms.values())
    assert _canonical((p * q).evaluate({(1, 1): 2, (1, 2): Fraction(1, 3)}))


@pytest.mark.parametrize("make", [
    lambda: rational(0.5),
    lambda: rational("1/2"),
    lambda: Polynomial({(): 0.5}),
    lambda: Polynomial({((UVAR, 1),): 0.0}),
    lambda: Polynomial.constant(0.1),
    lambda: t(1, 1) * 0.5,
    lambda: t(1, 1) + 0.5,
    lambda: t(1, 1).evaluate({(1, 1): 0.5}),
], ids=["rational", "rational-str", "constructor", "constructor-zero", "constant",
        "scalar", "sum", "evaluate"])
def test_floats_are_not_rational_values(make):
    """A float's binary expansion is not the rational value meant, so exact
    arithmetic refuses it instead of storing it."""
    with pytest.raises(TypeError):
        make()


def test_rational_is_canonical():
    assert type(rational(Fraction(4, 2))) is int and rational(Fraction(4, 2)) == 2
    assert rational(Fraction(1, 2)) == Fraction(1, 2)
    assert rational(-3) == -3


# -- parsing and printing ----------------------------------------------------


def test_parse_round_trip_random():
    rng = random.Random(13)
    for _ in range(30):
        p = _random_poly(rng)
        assert parse_polynomial(str(p)) == p


def test_parse_shorthand_minors():
    assert parse_polynomial("delta[13;12]") == minor2(1, 3, 1, 2)
    assert parse_polynomial("Delta[123;234]") == minor3(1, 2, 3, 2, 3, 4)
    assert parse_polynomial("t2_1*delta[12;12]") == t(2, 1) * minor2(1, 2, 1, 2)
    assert parse_polynomial("2*t1_1^2-t2_2") == 2 * t(1, 1) ** 2 - t(2, 2)
    assert parse_polynomial("delta[13;13]+t1_4*t3_2+2*t1_1*t2_2^2") == \
        minor2(1, 3, 1, 3) + t(1, 4) * t(3, 2) + 2 * t(1, 1) * t(2, 2) ** 2


def test_parse_supports_rationals_parens_and_u():
    assert parse_polynomial("1/2*t1_1") == t(1, 1) * Fraction(1, 2)
    assert parse_polynomial("(t1_1+t1_2)^2") == (t(1, 1) + t(1, 2)) ** 2
    assert parse_polynomial("u*t1_1") == Polynomial.variable(UVAR) * t(1, 1)
    assert parse_polynomial("-3") == Polynomial.constant(Fraction(-3))


def test_parse_juxtaposition_multiplies():
    # mirrors the printed ideal notation, where products carry no operator
    assert parse_polynomial("t1_1 t2_2") == t(1, 1) * t(2, 2)


def test_parse_rejects_garbage():
    for bad in ("t1", "delta[1;12]", "1 +", "delta[12;123]", "(t1_1", "",
                "1/0", "t1_1 + 2/0", "delta[11;12]", "delta[12;33]",
                "Delta[112;123]", "Delta[123;121]"):
        with pytest.raises(PolynomialParseError):
            parse_polynomial(bad)


def test_parse_rejects_an_index_0_that_would_read_as_u():
    """``UVAR`` is the pair (0, 0), so ``t0_0`` would be the elimination
    variable ``u`` under another name; parameter indices count from 1."""
    for bad in ("t0_0", "t0_3", "t3_0", "delta[01;12]", "t0_0 + t1_1"):
        with pytest.raises(PolynomialParseError):
            parse_polynomial(bad)
    assert parse_polynomial("u") == Polynomial.variable(UVAR)
    assert parse_polynomial("t10_1") == t(10, 1)
    for i, j in ((0, 0), (0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            var_poly(i, j)


def test_minor_expansions_match_sympy_determinants():
    table = _sympy_symbol_table()
    m = sympy.Matrix([[table[(1, 1)], table[(1, 2)]],
                      [table[(2, 1)], table[(2, 2)]]])
    assert _to_sympy(minor2(1, 2, 1, 2), table) == sympy.expand(m.det())
    m3 = sympy.Matrix([[table[(i, j)] for i in (1, 2, 3)] for j in (1, 2, 3)])
    assert _to_sympy(minor3(1, 2, 3, 1, 2, 3), table) == sympy.expand(m3.det())


def test_minor2_antisymmetry():
    assert minor2(1, 2, 1, 2) == -minor2(2, 1, 1, 2) == -minor2(1, 2, 2, 1)


def test_str_is_order_aware_and_stable():
    p = t(2, 1) + t(1, 1) ** 2
    assert p.to_str(GREVLEX) == str(p)
    assert str(parse_polynomial(p.to_str(LEX))) == str(p)


def test_parse_ideal_components_with_headers():
    text = """
    # comment line
    component codim=2
    t1_1
    t1_2  # trailing comment
    component
    delta[12;12]
    """
    comps = parse_ideal_components(text)
    assert len(comps) == 2
    assert comps[0] == [t(1, 1), t(1, 2)]
    assert comps[1] == [minor2(1, 2, 1, 2)]


def test_parse_ideal_components_implicit_first_component():
    comps = parse_ideal_components("t1_1\nt2_2\n")
    assert comps == [[t(1, 1), t(2, 2)]]
    assert parse_ideal_components("# nothing\n") == []


@st.composite
def _generator_lists(draw):
    """Lists of polynomials over t1_1, t1_2 of degree at most 4, zero among
    them at times, with scalar multiples of one another and, the monomials
    being few, shared leading monomials."""
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    mono = exps.map(lambda exp: tuple(((1, j + 1), e) for j, e in enumerate(exp) if e))
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    poly = st.dictionaries(mono, coeff, max_size=3).map(Polynomial)
    base = draw(st.lists(poly, min_size=1, max_size=4))
    multiples = st.tuples(st.sampled_from(base), coeff).map(lambda pc: pc[0] * pc[1])
    return draw(st.permutations(base + draw(st.lists(multiples, max_size=3))))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_generator_lists(), st.sampled_from((GREVLEX, LEX)))
def test_canonical_generators_normalise_dedupe_and_sort_stably(polys, order):
    # The definition, finding each leading monomial again for the scale
    # and for the sort.
    def normalized(p):
        return p * primitive_scale(p.terms.values(), p.leading_term(order)[1])

    expected = list(dict.fromkeys(normalized(p) for p in polys if p))
    expected.sort(key=lambda g: order.key(g.leading_monomial(order)))
    assert canonical_generators(polys, order) == expected


def test_generator_list_helpers_live_here_and_stay_importable():
    """``canonical_generators`` and ``parse_ideal_components`` are defined in
    ``polyring``, and ``kuranil`` hands out the same functions.  The
    ideal-file reader has no second home: ``kuranil.groebner``, which
    normalises generator lists, hands out only ``canonical_generators``."""
    import kuranil
    from kuranil import groebner, polyring

    for name in ("canonical_generators", "parse_ideal_components"):
        found = getattr(polyring, name)
        assert found.__module__ == "kuranil.polyring"
        assert getattr(kuranil, name) is found
    assert groebner.canonical_generators is polyring.canonical_generators
    assert not hasattr(groebner, "parse_ideal_components")
