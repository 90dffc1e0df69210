"""Exterior calculus on complexified Lie coalgebras with polynomial weights."""

from fractions import Fraction
import itertools
import random

import pytest

from kuranil.algebra import (
    parse_complex_structure_file,
    parse_salamon,
    to_complex_structure,
)
from kuranil.exterior import (
    AmbientMismatch,
    Cov,
    ExteriorForm,
    VectorForm,
)
from kuranil.polyring import Polynomial, parse_polynomial, var_poly


def _csa(text="(0,0,12)"):
    return to_complex_structure(parse_salamon(text))


def _mixed7():
    return parse_complex_structure_file("dim 7\ndw6 = w1^w2\ndw7 = w3^w4 + cw1^w5\n")


def w(ambient, index, barred=False):
    return ExteriorForm.covector(ambient, index, barred)


def _random_form(rng, ambient, max_terms=3):
    out = ExteriorForm.zero(ambient)
    n = ambient.complex_dim
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, 2)
        covs = [Cov(rng.randint(1, n), rng.choice([True, False]))
                for _ in range(degree)]
        out = out + ExteriorForm.basis_form(ambient, covs,
                                            Fraction(rng.randint(-3, 3)))
    return out


# -- exterior algebra structure ----------------------------------------------


def test_covector_wedge_antisymmetry():
    csa = _csa()
    a, b = w(csa, 1), w(csa, 2)
    assert a.wedge(b) == -(b.wedge(a))
    assert not a.wedge(a)


def test_wedge_canonical_reordering_sign():
    csa = _csa()
    direct = ExteriorForm.basis_form(csa, [Cov(2, False), Cov(1, False)])
    assert direct == -(w(csa, 1).wedge(w(csa, 2)))


def test_wedge_associativity_and_bilinearity_random():
    rng = random.Random(71)
    csa = _csa("(0,0,0,12,13)")
    for _ in range(15):
        a, b, c = (_random_form(rng, csa) for _ in range(3))
        assert a.wedge(b.wedge(c)) == (a.wedge(b)).wedge(c)
        assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)


def test_graded_commutativity_random():
    rng = random.Random(72)
    csa = _csa("(0,0,0,12)")
    for _ in range(20):
        a, b = _random_form(rng, csa), _random_form(rng, csa)
        for p in a.degrees() or {0}:
            ap = _degree_part(a, p)
            for q in b.degrees() or {0}:
                bq = _degree_part(b, q)
                if ap and bq:
                    assert ap.wedge(bq) == bq.wedge(ap).scale(Fraction((-1) ** (p * q)))


def _degree_part(form, p):
    picked = {mi: c for mi, c in form.terms.items() if len(mi) == p}
    return ExteriorForm(form.ambient, picked)


def test_scale_accepts_polynomials():
    csa = _csa()
    form = w(csa, 1).scale(parse_polynomial("t1_1+t2_2"))
    assert form.terms[(Cov(1, False),)] == parse_polynomial("t1_1+t2_2")


def test_ambient_mismatch_rejected():
    with pytest.raises(AmbientMismatch):
        w(_csa(), 1).wedge(w(_csa(), 1))


# -- differentials -----------------------------------------------------------


def test_ce_differential_of_dual_covector():
    csa = _csa()  # dw3 = w1^w2
    assert w(csa, 3).ce_differential() == w(csa, 1).wedge(w(csa, 2))
    assert not w(csa, 1).ce_differential()


def test_ce_differential_squares_to_zero():
    rng = random.Random(73)
    for text in ("(0,0,12)", "(0,0,12,13)", "(0,0,0,12,13+24)", "(0,0,12,13,14+23)"):
        csa = _csa(text)
        for _ in range(8):
            form = _random_form(rng, csa)
            assert not form.ce_differential().ce_differential()


def test_leibniz_rule_random():
    rng = random.Random(74)
    csa = _csa("(0,0,12,13)")
    for _ in range(12):
        a, b = _random_form(rng, csa), _random_form(rng, csa)
        lhs = a.wedge(b).ce_differential()
        rhs = ExteriorForm.zero(csa)
        for p in a.degrees() or {0}:
            ap = _degree_part(a, p)
            rhs = rhs + ap.ce_differential().wedge(b) \
                + ap.scale(Fraction((-1) ** p)).wedge(b.ce_differential())
        assert lhs == rhs


def test_delbar_plus_del_decomposes_d_on_mixed_structure():
    csa = _mixed7()
    form = w(csa, 7)
    assert form.ce_differential() == form.del_() + form.delbar()
    assert form.del_() == w(csa, 3).wedge(w(csa, 4))
    assert form.delbar() == w(csa, 1, barred=True).wedge(w(csa, 5))


def test_delbar_on_barred_covectors_parallelisable():
    csa = _csa()  # conjugate equations: d cw3 = cw1^cw2
    barred3 = w(csa, 3, barred=True)
    assert barred3.delbar() == w(csa, 1, barred=True).wedge(w(csa, 2, barred=True))
    assert not barred3.del_()


def test_delbar_squares_to_zero_on_mixed():
    csa = _mixed7()
    for index, barred in itertools.product(range(1, 8), (False, True)):
        assert not w(csa, index, barred).delbar().delbar()


# -- contraction -------------------------------------------------------------


def test_contract_sign_depends_on_position():
    csa = _csa("(0,0,0,12)")
    form = w(csa, 1).wedge(w(csa, 2))
    assert form.contract(1) == w(csa, 2)
    assert form.contract(2) == -(w(csa, 1))
    assert not form.contract(3)


def test_contract_barred_and_unbarred_are_independent():
    csa = _csa()
    mixed = w(csa, 1).wedge(w(csa, 2, barred=True))
    assert mixed.contract(1) == w(csa, 2, barred=True)
    assert mixed.contract(2) == ExteriorForm.zero(csa)


# -- vector-valued forms -----------------------------------------------------


def test_vector_form_single_component_round_trip():
    csa = _csa()
    vf = VectorForm.single(w(csa, 1, barred=True), 2)
    assert vf.component(2) == w(csa, 1, barred=True)
    assert not vf.component(1)


@pytest.mark.parametrize("index", [0, 4, 99])
def test_vector_form_single_rejects_a_frame_index_outside_1_to_n(index):
    csa = _csa()
    with pytest.raises(ValueError):
        VectorForm.single(w(csa, 1, barred=True), index)


def test_vector_form_linear_structure():
    csa = _csa()
    a = VectorForm.single(w(csa, 1, barred=True), 1)
    b = VectorForm.single(w(csa, 2, barred=True), 1)
    assert (a + b).component(1) == w(csa, 1, barred=True) + w(csa, 2, barred=True)
    assert not (a - a)
    assert a.scale(Fraction(3)).component(1) == w(csa, 1, barred=True).scale(Fraction(3))
    assert bool(a) and not bool(a - a)


def test_vector_form_terms_are_theta_cells():
    csa = _csa()
    vf = VectorForm.single(w(csa, 1, barred=True), 2) + VectorForm.single(
        w(csa, 3, barred=True).scale(Fraction(-2)), 1)
    cw1, cw3 = (Cov(1, True),), (Cov(3, True),)
    assert vf.terms == {(cw1, 2): Polynomial.one(),
                        (cw3, 1): Polynomial.constant(-2)}
    assert vf == VectorForm(csa, {(cw3, 1): -2, (cw1, 2): 1, (cw1, 3): 0})
    assert vf.components == {2: w(csa, 1, barred=True),
                             1: w(csa, 3, barred=True).scale(Fraction(-2))}


def test_form_types_do_not_mix():
    csa = _csa()
    form = w(csa, 1, barred=True)
    vf = VectorForm.single(form, 1)
    assert form != vf and vf
    with pytest.raises(TypeError):
        form + vf
    with pytest.raises(TypeError):
        vf - form


def test_delbar_theta_on_parallelisable_acts_on_form_part():
    csa = _csa()  # d cw3 = cw1^cw2, X-part untouched
    vf = VectorForm.single(w(csa, 3, barred=True), 1)
    out = vf.delbar_theta()
    assert out.component(1) == w(csa, 1, barred=True).wedge(w(csa, 2, barred=True))


def test_delbar_theta_sees_vector_part_on_mixed_structure():
    # [conj(X1), X5] = -X7, so delbar X5 = -cw1 ⊗ X7 while X1, X2, X7 stay flat
    csa = _mixed7()
    vf5 = VectorForm.single(ExteriorForm.constant(csa, 1), 5)
    expected = VectorForm.single(w(csa, 1, barred=True).scale(Fraction(-1)), 7)
    assert vf5.delbar_theta() == expected
    for flat in (1, 2, 7):
        vf = VectorForm.single(ExteriorForm.constant(csa, 1), flat)
        assert not vf.delbar_theta()


def test_vector_form_to_str_mentions_cells():
    csa = _mixed7()
    form = w(csa, 3, barred=True).wedge(w(csa, 5, barred=True)).scale(Fraction(4))
    vf = VectorForm.single(form, 6)
    assert str(vf) == "(4*cw3^cw5)*X6"
