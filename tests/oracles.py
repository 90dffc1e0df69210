"""The tests' oracles: independent builds of what the library computes, and
helpers that only the tests call.  Each reads ``kuranil`` through its public
names alone, so an oracle shares no private code path with what it checks.

* :func:`schouten_general`, the three-term Schouten bracket on
  ``VectorForm``s, against the recursion's integer bracket;
* :func:`vector_recursion`, the Maurer–Cartan recursion on ``VectorForm``s,
  with :func:`split` and :func:`harmonic_form` on the Hodge decomposition's
  form operators, against the recursion that ``phi_recursion`` runs on
  integer forms, from the generic Φ₁ of :func:`generic_initial`, built from
  ``HodgeDecomposition.h1_theta_basis``;
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
from kuranil.exterior import AmbientMismatch, ExteriorForm, MultiIndex, VectorForm, wedge_into
from kuranil.kuranishi import BIANCHI, IN_V2, ClosednessViolation
from kuranil.linalg import Subspace
from kuranil.polyring import (
    GREVLEX,
    Mono,
    MonomialOrder,
    Polynomial,
    Var,
    canonical_generators,
    linear_combination,
    minor2,
    var_poly,
    var_rank,
)


# -- the deformation oracles ---------------------------------------------------

def schouten_general(a: VectorForm, b: VectorForm) -> VectorForm:
    """Three-term Schouten bracket on Λ^{0,•} ⊗ (1,0)-vectors:

        [ᾱ⊗X, β̄⊗Y] = −(i_Y ∂ᾱ)∧β̄⊗X + ᾱ∧(i_X ∂β̄)⊗Y + ᾱ∧β̄⊗[X,Y],

    with the Frölicher–Nijenhuis sign on the first term, which is
    −(−1)^{pq} β̄∧(i_Y ∂ᾱ)⊗X for ᾱ of degree p and β̄ of degree q.

    The Lie-derivative terms reduce to contractions of ∂-parts because frame
    coefficients are constant and (1,0)-vectors contract (0,q)-forms to zero.
    On a parallelisable ambient (``ambient.parallelisable``) ∂ of a
    (0,q)-form vanishes, so no ∂ is computed and the formula is the
    wedge-and-bracket term ᾱ∧β̄⊗[X,Y] alone.  Every product term is summed
    into one term map by ``wedge_into``, and each cell's ``Polynomial`` is
    built once."""
    if a.ambient is not b.ambient:
        raise AmbientMismatch("Schouten bracket of forms over different ambients")
    ambient = a.ambient
    out: dict = {}  # every product term, summed per cell (multi-index, k)
    no_del = ambient.parallelisable
    items_a = [(i, alpha, None if no_del else alpha.del_()) for i, alpha in a.components.items()]
    items_b = [(j, beta, None if no_del else beta.del_()) for j, beta in b.components.items()]
    for i, alpha, del_alpha in items_a:
        for j, beta, del_beta in items_b:
            if del_alpha:
                wedge_into(out, del_alpha.contract(j).terms, beta.terms, ((i, -1),))
            if del_beta:
                wedge_into(out, alpha.terms, del_beta.contract(i).terms, ((j, 1),))
            # [X_i, X_j] is unbarred by integrability, [T^{1,0}, T^{1,0}] ⊂ T^{1,0}: both
            # ambients build their tables so, and the dw reader rejects (0,2) terms
            br = ambient.vector_bracket(i, False, j, False)
            if br:
                wedge_into(out, alpha.terms, beta.terms, [(k, c) for (k, _), c in br.items()])
    return VectorForm(ambient, {cell: Polynomial(t) for cell, t in out.items()})


def generic_initial(decomposition) -> tuple[VectorForm, list[Var]]:
    """``generic_harmonic_element`` built from the named harmonic basis of
    ``h1_theta_basis``: Σ t_a^b h_a^b, and its variables."""
    variables: list[Var] = []
    pairs: dict = {}  # (t, c) per cell; each h has its own t, so nothing cancels
    for name, h in decomposition.h1_theta_basis():
        variables.append(name)
        t = var_poly(*name)
        for cell, c in h.terms.items():
            pairs.setdefault(cell, []).append((t, c.constant_value()))
    total = VectorForm(decomposition.ambient,
                       {cell: linear_combination(p) for cell, p in pairs.items()})
    return total, variables


def bracket_sum(series, k: int) -> VectorForm:
    """Σ_{0<i<k} [Φ_i, Φ_{k−i}] over the terms of ``series`` found so far.

    The bracket is symmetric on Θ-valued 1-forms, so each unordered pair is
    bracketed once and counted twice when i ≠ k−i."""
    total = VectorForm.zero(series.ambient)
    for i in range(1, k // 2 + 1):
        lo, hi = series.phi(i), series.phi(k - i)
        if lo and hi:
            bracket = schouten_general(lo, hi)
            total = total + (bracket if 2 * i == k else bracket.scale(2))
    return total


def split(decomposition, obj):
    """``(δ obj, H obj, V obj)`` of a degree-2 form (⊗ vectors), so that
    obj = ∂̄δ obj + H obj + V obj.

    ∂̄∘δ = P_B, so the rest obj − ∂̄δ obj is H obj + V obj; ∂̄ kills H and is
    injective on V, so a ∂̄-closed rest is H obj and V obj is zero.  Only a
    rest that ∂̄ does not kill is projected onto H.  H obj comes out as
    ``project_harmonic`` gives it, terms in the same order."""
    d = decomposition.delta_op(obj)
    rest = obj - decomposition.delbar_op(d)
    if decomposition.is_closed(rest):
        return d, _in_image_order(decomposition, rest, obj), type(obj)(decomposition.ambient)
    h = decomposition.project_harmonic(obj)
    return d, h, rest - h


def _in_image_order(decomposition, part, obj):
    """``part``, a degree-2 image of ``obj``, with its terms in the order an
    operator gives one: by frame key as the keys first appear in ``obj``,
    then by cell."""
    rank: dict = {}
    for _, key, _ in decomposition.coordinates(obj, 2):
        rank.setdefault(key, len(rank))
    cells = decomposition.cells(2)
    terms = sorted(decomposition.coordinates(part, 2), key=lambda t: (rank[t[1]], t[0]))
    return type(part)(decomposition.ambient, {
        cells[i] if key is None else (cells[i], key): c for i, key, c in terms})


def harmonic_form(decomposition, q: int, coefficients: dict):
    """The harmonic element of degree q with these ``harmonic_coefficients``:
    Σ c·(basis row r) at frame key ``key`` for each ``(r, key): c``, the
    inverse of ``harmonic_coefficients``.  A VectorForm on Θ or for frame
    keys, an ExteriorForm on the scalar complex otherwise (the zero
    ExteriorForm for no coefficients)."""
    rows = decomposition.basis(q, "H")
    pairs: dict = {}
    for (r, key), c in coefficients.items():
        for cell, x in rows[r].terms.items():
            pairs.setdefault(cell if key is None else (cell, key), []).append(
                (c, x.constant_value()))
    vector = not decomposition.scalar_blocks or any(key is not None for _, key in coefficients)
    return (VectorForm if vector else ExteriorForm)(
        decomposition.ambient, {cell: linear_combination(p) for cell, p in pairs.items()})


def in_subspace(vf: VectorForm, sub: Subspace) -> bool:
    """Whether every frame-vector coefficient vector of ``vf`` lies in ``sub``
    (its polynomial coefficients reduce against the RREF rows)."""
    by_cell: dict = {}
    for (mi, j), c in vf.terms.items():
        by_cell.setdefault(mi, [Polynomial.zero()] * sub.ambient_dim)[j - 1] = c
    return all(sub.contains(vec) for vec in by_cell.values())


class VectorSeries:
    """The fields of a ``PhiSeries`` as ``VectorForm``s, filled as
    :func:`vector_recursion` runs."""

    def __init__(self, decomposition, max_degree: int):
        self.decomposition = decomposition
        self.ambient = decomposition.ambient
        self.max_degree = max_degree
        self.terms: dict[int, VectorForm] = {}
        self.harmonic_parts: dict[int, VectorForm] = {}
        self.dropped_coexact: dict[int, VectorForm] = {}
        self.obstruction_by_degree: dict[int, dict] = {}

    def phi(self, k: int) -> VectorForm:
        return self.terms.get(k, VectorForm.zero(self.ambient))


def vector_recursion(decomposition, cap: int, central, initial: VectorForm) -> VectorSeries:
    """The Maurer–Cartan recursion of ``phi_recursion`` on ``VectorForm``s,
    with every check: the central series (when ``central`` is given), V_k ∈
    V², and ∂̄V_k = 2 Σ_{2≤j<k} [ψ_j, Φ_{k−j}] with H_j rebuilt from the
    reported coefficients."""
    series = VectorSeries(decomposition, cap)
    series.terms[1] = initial
    for k in range(2, cap + 1):
        s_k = bracket_sum(series, k)
        if central is not None:
            depth = min(k - 1, len(central) - 1)
            if not in_subspace(s_k, central[depth]):
                raise RuntimeError(f"internal invariant violated: bracket sum at degree {k} "
                                   f"leaves central-series stage {depth}")
        delta_part, harmonic_part, coexact_part = split(decomposition, s_k)
        series.terms[k] = -delta_part
        series.harmonic_parts[k] = harmonic_part
        series.obstruction_by_degree[k] = decomposition.harmonic_coefficients(harmonic_part)
        if coexact_part:
            offending = list(coexact_part.terms.values())
            if not decomposition.in_space(coexact_part, "V"):
                raise ClosednessViolation(k, coexact_part, offending, IN_V2)
            if decomposition.delbar_op(coexact_part) != _reported_bracket(series, k):
                raise ClosednessViolation(k, coexact_part, offending, BIANCHI)
            series.dropped_coexact[k] = coexact_part
    return series


def _reported_bracket(series: VectorSeries, k: int) -> VectorForm:
    """2 Σ_{2≤j<k} [ψ_j, Φ_{k−j}], with ψ_j = H_j + V_j rebuilt from the
    reported ``obstruction_by_degree[j]`` and ``dropped_coexact[j]``: what
    ∂̄V_k must equal."""
    decomposition = series.decomposition
    total = VectorForm.zero(series.ambient)
    for j in range(2, k):
        psi = series.dropped_coexact.get(j, VectorForm.zero(series.ambient))
        reported = series.obstruction_by_degree[j]
        if reported:
            psi = psi + harmonic_form(decomposition, 2, reported)
        phi = series.phi(k - j)
        if psi and phi:
            total = total + schouten_general(psi, phi)
    return total.scale(2)


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
    _, h_part, _ = split(decomposition, total)
    return canonical_generators(decomposition.harmonic_coefficients(h_part).values())


def mc_residual(series, subtract_harmonic: bool = True) -> VectorForm:
    """∂̄Φ + [Φ,Φ] − H[Φ,Φ] (the defining identity of the construction).

    With ``subtract_harmonic=False`` the plain defect ∂̄Φ + [Φ,Φ] is returned
    instead — nonzero exactly in the obstructed directions.  The brackets are
    assembled degree by degree and truncated at the series' cap; on a
    nilpotent Lie algebra capped at ν every higher degree vanishes, so the
    truncation is the full bracket."""
    residual = series.phi(1).delbar_theta()
    for k in range(2, series.max_degree + 1):
        s_k = bracket_sum(series, k)
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
