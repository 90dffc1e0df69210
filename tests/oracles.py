"""The tests' oracles: independent builds of what the library computes, and
helpers that only the tests call.  Each reads ``kuranil`` through its public
names alone, so an oracle shares no private code path with what it checks.

* :func:`quadratic_obstruction_closed_form`, the degree-2 obstruction from
  the closed determinant formula, against the recursion's degree 2;
* :func:`mc_residual`, the defect ∂̄Φ + [Φ,Φ] (− H[Φ,Φ]) of a series,
  assembled with the form-level ∂̄;
* :func:`random_central_assignment`, a t-point on H¹ ⊗ z(g), where every
  obstruction generator vanishes;
* :func:`direct_sum` of two Lie algebras, a constructor of test inputs;
* :func:`s_polynomial` and the tuple-monomial helpers it reads, the
  textbook S-polynomial against which the packed Gröbner engine is checked;
* :func:`_to_sympy`, a ``Polynomial`` as a sympy expression.
"""

from __future__ import annotations

from fractions import Fraction
import random

import sympy

from kuranil.algebra import Brackets, LieAlgebra
from kuranil.exterior import MultiIndex, VectorForm
from kuranil.kuranishi import PhiSeries
from kuranil.polyring import (
    GREVLEX,
    Mono,
    MonomialOrder,
    Polynomial,
    Var,
    canonical_generators,
    linear_combination,
    minor2,
    var_rank,
)


# -- the deformation oracles ---------------------------------------------------

def quadratic_obstruction_closed_form(decomposition) -> list[Polynomial]:
    """Degree-2 obstruction from the closed determinant formula

        H[Φ₁,Φ₁] = H( 2 Σ_{i<j} Σ_{k<l} (t_i^k t_j^l − t_i^l t_j^k) ω̄^i∧ω̄^j ⊗ [X_k,X_l] ),

    built directly from minors and the nonzero structure constants
    ``L.brackets`` of the decomposition's Lie algebra — an independent code
    path from the Schouten bracket and the recursion, on ``ExteriorForm``
    wedges.  No analysis calls it: it is the oracle that the tests hold the
    reported ``quadratic_generators``, degree 2 of the recursion, against.
    The lower indices i, j are the pivot covectors of the harmonic 1-forms,
    as in ``generic_harmonic_element``."""
    L = decomposition.ambient
    # h_a⊗X_b → h_a, keyed by pivot a in basis order
    hforms = list({a: h.component(b) for (a, b), h in decomposition.h1_theta_basis()}.items())
    brackets = sorted(L.brackets.items())  # [X_k, X_l] = Σ c·X_m for k < l
    pairs: dict[tuple[MultiIndex, int], list] = {}
    for pos, (i, hi) in enumerate(hforms):
        for j, hj in hforms[pos + 1:]:
            wij = hi.wedge(hj)
            if not wij:
                continue
            for (k, l), comp in brackets:
                minor = minor2(i, j, k, l)
                for m, c in comp.items():
                    for mi, w in wij.terms.items():
                        pairs.setdefault((mi, m), []).append(
                            (minor, 2 * c * w.constant_value()))
    total = VectorForm(L, {cell: linear_combination(p) for cell, p in pairs.items()})
    _, h_part, _ = decomposition.split(total)
    return canonical_generators(decomposition.harmonic_coefficients(h_part).values())


def mc_residual(series: PhiSeries, subtract_harmonic: bool = True) -> VectorForm:
    """∂̄Φ + [Φ,Φ] − H[Φ,Φ] (the defining identity of the construction).

    With ``subtract_harmonic=False`` the plain defect ∂̄Φ + [Φ,Φ] is returned
    instead — nonzero exactly in the obstructed directions.  The brackets are
    assembled degree by degree and truncated at the series' cap; on a
    nilpotent Lie algebra capped at ν every higher degree vanishes, so the
    truncation is the full bracket."""
    residual = series.phi(1).delbar_theta()
    for k in range(2, series.max_degree + 1):
        s_k = series.bracket_sum(k)
        term = series.phi(k).delbar_theta() + s_k
        if subtract_harmonic:
            term = term - series.decomposition.project_harmonic(s_k)
        residual = residual + term
    return residual


def random_central_assignment(decomposition, rng: random.Random) -> dict:
    """A random rational t-grid point supported on H¹ ⊗ z(g), keyed by the
    variables of ``generic_harmonic_element``."""
    L = decomposition.ambient
    z = L.center()
    assignment = {}
    for a in dict.fromkeys(a for (a, _), _ in decomposition.h1_theta_basis()):
        vec = [Fraction(0)] * L.dim
        for row in z.rows:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for j, x in row.items():
                vec[j] += c * x
        for j, x in enumerate(vec, start=1):
            assignment[(a, j)] = x
    return assignment


def direct_sum(a: LieAlgebra, b: LieAlgebra, name: str | None = None) -> LieAlgebra:
    brackets: Brackets = {key: dict(comp) for key, comp in a.brackets.items()}
    for (i, j), comp in b.brackets.items():
        brackets[(i + a.dim, j + a.dim)] = {k + a.dim: c for k, c in comp.items()}
    return LieAlgebra(a.dim + b.dim, brackets, name=name or f"{a.name}+{b.name}")


# -- tuple monomials and the textbook S-polynomial -----------------------------

def mono_from_dict(d: dict[Var, int]) -> Mono:
    return tuple(sorted(((v, e) for v, e in d.items() if e), key=lambda p: var_rank(p[0])))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True if monomial ``a`` divides ``b``."""
    db = dict(b)
    return all(db.get(v, 0) >= e for v, e in a)


def mono_div(a: Mono, b: Mono) -> Mono:
    """Quotient ``a / b``; caller must ensure divisibility."""
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) - e
        if d[v] < 0:
            raise ValueError(f"{b} does not divide {a}")
    return mono_from_dict(d)


def mono_lcm(a: Mono, b: Mono) -> Mono:
    d = dict(a)
    for v, e in b:
        d[v] = max(d.get(v, 0), e)
    return mono_from_dict(d)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    fm, fc = f.leading_term(order)
    gm, gc = g.leading_term(order)
    l = mono_lcm(fm, gm)
    a = Polynomial({mono_div(l, fm): Fraction(1) / fc})
    b = Polynomial({mono_div(l, gm): Fraction(1) / gc})
    return a * f - b * g


# -- sympy ---------------------------------------------------------------------

def _to_sympy(p, table):
    expr = sympy.Integer(0)
    for mono, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for var, exp in mono:
            term *= table[var] ** exp
        expr += term
    return sympy.expand(expr)
