"""Deformation core: the Schouten bracket, the degree-by-degree Maurer-Cartan
solution, obstruction ideals, and structural smoothness certificates.

The generic first-order deformation Φ₁ = Σ t_a^b h_a^b over the degree-1
harmonic basis of the complex Λ^{0,•} ⊗ T^{1,0} (named by RREF pivot cells
ω̄^a ⊗ X_b) is extended degree by degree via

    Φ_k = −δ ( Σ_{0<i<k} [Φ_i, Φ_{k−i}] ),

where δ = ∂̄*G sends a 2-form to the coexact ∂̄-preimage of its exact part
(Kuranishi's equation Φ = Φ₁ − ∂̄*G[Φ, Φ]).  The harmonic parts of the
bracket sums — the parts the correction terms cannot absorb — accumulate into
the obstruction ideal; its vanishing locus is the local deformation space.
Each bracket sum s_k is taken apart once, by ``HodgeDecomposition.split``,
as s_k = ∂̄δs_k + H_k + V_k: Φ_k = −δs_k, H_k = H s_k is the obstructing
part, and a nonzero coexact part V_k = V s_k is dropped once two exact
identities certify it: V_k ∈ V², and

    ∂̄V_k = 2 Σ_{2≤j<k} [ψ_j, Φ_{k−j}],   ψ_j = H_j + V_j,

with each H_j rebuilt from the reported coefficients of degree j.  That is
degree k of ∂̄ψ = 2[ψ,Φ] for ψ = ∂̄Φ + [Φ,Φ] (∂̄ψ = ∂̄[Φ,Φ] = 2[∂̄Φ,Φ], and
[[Φ,Φ],Φ] = 0 by the Jacobi identity), where ∂̄ kills H_k and ψ_1 = ∂̄Φ₁ = 0
(Kuranishi, Ann. of Math. 75, 1962).  ∂̄ is injective on V², so V_k is a
constant matrix (never built) applied to that sum, and by induction every
coefficient of V_k lies in the ideal of the reported coefficients of
degree below k: V_k vanishes on the obstruction locus.  The analysis builds
no Gröbner basis; only :mod:`kuranil.verify` certifies with them.  H_k is
s_k − ∂̄δs_k whenever V_k = 0, so the harmonic projector is built only for
a degree that drops a coexact part.

For a nilpotent Lie algebra (a complex-parallelisable structure) the
recursion terminates at the nilpotency index ν and the obstruction
coefficients are polynomials of degree at most ν.  For general integrable
structures the recursion need not terminate, so a degree cap is mandatory and
results are truncations.

Every stage takes the one object it reads: a Hodge decomposition (which
carries its ambient) → the series Φ → the obstruction.  There is one bracket,
the three-term Schouten formula ``schouten_general``, with the
Frölicher–Nijenhuis sign −(i_Y∂ᾱ)∧β̄⊗X on its first ∂-term; on a
parallelisable structure (``ambient.parallelisable``) ∂̄ kills every frame
vector, the ∂-terms vanish and are not computed, and the bracket is
ᾱ∧β̄⊗[X,Y].  Each quantity is computed once: the quadratic obstruction
H[Φ₁, Φ₁] that ``analyze`` reports is degree 2 of the series.  An
independent build of it from the closed determinant formula, and the
defect ∂̄Φ + [Φ,Φ] of a whole series, are the tests' oracles
(``tests/oracles.py``), not part of the package.

Φ₁.  By default the recursion starts from the generic Φ₁ of
``generic_harmonic_element``.  A given ``initial`` must be a harmonic
degree-1 element over the decomposition's ambient; ``phi_recursion``
checks that before any recursion and raises an input error
(``AmbientMismatch``, ``DegreeMismatch`` or ``ValueError``) otherwise, so
``ClosednessViolation`` stays the report of an implementation bug.

Integer forms.  ``phi_recursion`` is the one entry point, and it runs the
same recursion in one of two representations.  From the generic Φ₁ on a
decomposition that stores Θ as copies of the scalar complex
(``scalar_blocks``) over a parallelisable ambient, the path of ``analyze``,
it runs on the integer forms of :mod:`kuranil.intforms`: ``{(cell index,
frame index): {packed monomial: int}}`` over one denominator, with ∂̄, δ,
the projectors and the bracket ᾱ∧β̄⊗[X,Y] on integers, each denominator
taken out once.  The monomials are packed in one
:class:`~kuranil.polyring.Packing` whose fields are sized from the cap:
Φ₁'s coefficients are linear, so every degree up to the cap stays below the
guard bit, and a product that reaches it (only a narrower packing makes
one) repeats the recursion on fields twice as wide.  Everywhere else, on Θ
and from any given ``initial``, it runs on ``VectorForm``s.  Every check of
the ``VectorForm`` recursion is kept: the central series, V_k ∈ V², and
∂̄V_k = 2Σ[ψ_j, Φ_{k−j}] with H_j rebuilt from the reported coefficients.
The reported ``obstruction_by_degree`` is converted to ``Polynomial``s as
the recursion runs; ``PhiSeries.terms``, ``harmonic_parts`` and
``dropped_coexact`` are built as ``VectorForm``s on their first read, with
the terms in the order the ``VectorForm`` recursion gives them, which stays
the Θ path and the tests' oracle for the integer one.

``analyze`` and ``analyze_general`` validate the ambient they are given and
return their result as a plain dict of JSON values, the report that
``kuranil analyze`` prints as JSON or as text.
"""

from __future__ import annotations

import functools

from . import hodge, linalg
from .algebra import ComplexStructureAlgebra, LieAlgebra, to_complex_structure
from .exterior import AmbientMismatch, VectorForm, wedge_into
from .hodge import DegreeMismatch
from .intforms import ZERO, IntForm, ScalarKernel
from .polyring import (
    LEX,
    Polynomial,
    Var,
    canonical_generators,
    linear_combination,
    packed,
    var_poly,
)


class MissingDegreeCap(ValueError):
    """The recursion over a general ambient requires an explicit max_degree."""


# The two identities that certify a dropped coexact part V_k.
IN_V2 = "V_k ∈ V²"
BIANCHI = "∂̄V_k = 2 Σ_{2≤j<k} [ψ_j, Φ_{k−j}]"


class ClosednessViolation(RuntimeError):
    """A bracket sum's coexact part V_k failed one of the two identities that
    certify it: V_k ∈ V², or ∂̄V_k = 2 Σ_{2≤j<k} [ψ_j, Φ_{k−j}] with ψ_j the
    reported H_j + V_j.  ``identity`` names the one that failed and
    ``offending`` holds V_k's coefficients, none of which is then proved to
    lie in the obstruction ideal found so far — an implementation bug by the
    DGLA structure, never expected on valid input."""

    def __init__(self, degree: int, v_part: VectorForm, offending: list[Polynomial],
                 identity: str):
        self.degree = degree
        self.v_part = v_part
        self.offending = offending
        self.identity = identity
        polys = "; ".join(str(p) for p in offending[:4])
        super().__init__(
            f"bracket sum at degree {degree} has a coexact component that fails "
            f"{identity}, so its coefficients are not proved to lie in the "
            f"obstruction ideal found so far: {polys}")


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


class PhiSeries:
    """The solution Φ = Φ₁ + Φ₂ + … of the recursion over one decomposition,
    with its audit trail.

    ``terms[k]`` is Φ_k (t-degree k); ``harmonic_parts[k]`` the harmonic
    (obstructing) part of the bracket sum at degree k,
    ``obstruction_by_degree[k]`` its coefficients as ``harmonic_coefficients``
    reads them, and ``dropped_coexact[k]`` any coexact component certified
    to vanish on the obstruction locus and therefore dropped.

    ``obstruction_by_degree`` is filled as the recursion runs.  On the
    scalar complex the other three are kept as integer forms and built as
    ``VectorForm``s on their first read (``analyze`` reads none of them);
    ``fields`` maps each such name to the function that builds it.
    """

    def __init__(self, decomposition, max_degree: int, fields: dict | None = None):
        self.decomposition = decomposition
        self.max_degree = max_degree
        self.obstruction_by_degree: dict[int, dict] = {}
        self._fields = fields or {}

    def _field(self, name: str) -> dict[int, VectorForm]:
        build = self._fields.get(name)
        return build() if build else {}

    @functools.cached_property
    def terms(self) -> dict[int, VectorForm]:
        return self._field("terms")

    @functools.cached_property
    def harmonic_parts(self) -> dict[int, VectorForm]:
        return self._field("harmonic_parts")

    @functools.cached_property
    def dropped_coexact(self) -> dict[int, VectorForm]:
        return self._field("dropped_coexact")

    @property
    def ambient(self):
        return self.decomposition.ambient

    def phi(self, k: int) -> VectorForm:
        return self.terms.get(k, VectorForm.zero(self.ambient))

    def bracket_sum(self, k: int) -> VectorForm:
        """Σ_{0<i<k} [Φ_i, Φ_{k−i}] over the terms found so far.

        The bracket is symmetric on Θ-valued 1-forms, so each unordered pair
        is bracketed once and counted twice when i ≠ k−i."""
        total = VectorForm.zero(self.ambient)
        for i in range(1, k // 2 + 1):
            lo, hi = self.phi(i), self.phi(k - i)
            if lo and hi:
                bracket = schouten_general(lo, hi)
                total = total + (bracket if 2 * i == k else bracket.scale(2))
        return total


def generic_harmonic_element(decomposition) -> tuple[VectorForm, list[Var]]:
    """Σ t_a^b h_a^b over the degree-1 harmonic basis of Θ, and its variables.

    Variable t_a^b names the basis element whose RREF pivot cell is ω̄^a ⊗ X_b
    (``HodgeDecomposition.h1_theta_basis``).  In every published frame the
    pivots are the first h^{0,1} covectors; otherwise they are not: on
    (34,0,0,0), where [X_3, X_4] = −X_1, the harmonic 1-forms are ω̄^2, ω̄^3,
    ω̄^4, so a runs over 2, 3, 4."""
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


def phi_recursion(decomposition, max_degree: int | None = None,
                  initial: VectorForm | None = None) -> PhiSeries:
    """Solve the Maurer-Cartan equation degree by degree up to ``max_degree``.

    Over a nilpotent Lie algebra the cap defaults to the nilpotency index,
    and every bracket sum is checked to descend the central series; over any
    other ambient ``max_degree`` is mandatory.  ``initial`` overrides the
    generic Φ₁ with a specific harmonic degree-1 element over the
    decomposition's ambient, and is checked to be one before any recursion:
    ``AmbientMismatch`` over another ambient, ``DegreeMismatch`` for a term
    of another degree or a cell outside the complex, ``ValueError`` for a
    frame index out of range or an element with an exact or coexact part.
    Each dropped coexact part is certified as the module docstring sets
    out, and ``ClosednessViolation`` is raised when it is not.  The generic
    Φ₁ on the scalar complex of a parallelisable ambient runs on integer
    forms, everything else on ``VectorForm``s; both give the same series,
    term for term.
    """
    L = decomposition.ambient
    if isinstance(L, LieAlgebra):
        cap = L.nilpotency_index() if max_degree is None else max_degree
        central = L.descending_central_series()
    elif max_degree is None:
        raise MissingDegreeCap(
            "general structures need an explicit max_degree: the recursion "
            "need not terminate")
    else:
        cap = max_degree
        central = None

    if initial is None:
        if decomposition.scalar_blocks and L.parallelisable:
            return _integer_recursion(decomposition, cap, central)
        initial, _ = generic_harmonic_element(decomposition)
    elif initial.ambient is not L:
        raise AmbientMismatch("initial element lives over a different ambient")
    elif not initial.degrees() <= {1}:
        raise DegreeMismatch(f"initial element has degrees {sorted(initial.degrees())}, not 1")
    # in_space raises on a cell outside the complex and a frame index outside 1..n
    elif not decomposition.in_space(initial, "H"):
        raise ValueError("initial element is not harmonic: it has an exact or coexact part")
    return _vector_recursion(decomposition, cap, central, initial)


def _central_violation(k: int, depth: int) -> RuntimeError:
    return RuntimeError(f"internal invariant violated: bracket sum at degree {k} "
                        f"leaves central-series stage {depth}")


# -- the recursion on VectorForms: the Θ path, and the tests' oracle ----------

def _vector_recursion(decomposition, cap: int, central, initial: VectorForm) -> PhiSeries:
    series = PhiSeries(decomposition, cap)
    series.terms[1] = initial
    for k in range(2, cap + 1):
        s_k = series.bracket_sum(k)
        if central is not None:
            depth = min(k - 1, len(central) - 1)
            if not _vector_in_subspace(s_k, central[depth]):
                raise _central_violation(k, depth)
        delta_part, harmonic_part, coexact_part = decomposition.split(s_k)
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


def _vector_in_subspace(vf: VectorForm, sub: linalg.Subspace) -> bool:
    """Whether every frame-vector coefficient vector of ``vf`` lies in ``sub``
    (its polynomial coefficients reduce against the RREF rows)."""
    by_cell: dict = {}
    for (mi, j), c in vf.terms.items():
        by_cell.setdefault(mi, [Polynomial.zero()] * sub.ambient_dim)[j - 1] = c
    return all(sub.contains(vec) for vec in by_cell.values())


def _reported_bracket(series: PhiSeries, k: int) -> VectorForm:
    """2 Σ_{2≤j<k} [ψ_j, Φ_{k−j}], with ψ_j = H_j + V_j rebuilt from the
    reported ``obstruction_by_degree[j]`` and ``dropped_coexact[j]``: what
    ∂̄V_k must equal (see the module docstring)."""
    decomposition = series.decomposition
    total = VectorForm.zero(series.ambient)
    for j in range(2, k):
        psi = series.dropped_coexact.get(j, VectorForm.zero(series.ambient))
        reported = series.obstruction_by_degree[j]
        if reported:
            psi = psi + decomposition.harmonic_form(2, reported)
        phi = series.phi(k - j)
        if psi and phi:
            total = total + schouten_general(psi, phi)
    return total.scale(2)


# -- the recursion on integer forms: the scalar path ----------------------------

def _integer_recursion(decomposition, cap: int, central) -> PhiSeries:
    """The recursion on integer forms from the generic Φ₁, in a packing
    whose fields hold every monomial degree the cap allows below the guard
    bit: Φ₁'s coefficients are linear, so degrees up to the cap."""
    pivots = decomposition.harmonic_pivot_cells(1)
    frames = range(1, decomposition.ambient.complex_dim + 1)
    variables = [(mi[0].index, b) for mi in pivots for b in frames]
    degree = 1 if variables else 0
    return packed(variables, LEX, (cap * degree).bit_length() + 1,
                  lambda packing: _solve(ScalarKernel(decomposition, packing), cap, central))


def _solve(kernel: ScalarKernel, cap: int, central) -> PhiSeries:
    phi = {1: kernel.generic_form()}
    harmonic: dict[int, IntForm] = {}
    dropped: dict[int, IntForm] = {}

    def terms() -> dict[int, VectorForm]:
        first, _ = generic_harmonic_element(kernel.decomposition)
        return {1: first, **{k: kernel.vector_form(f, 1) for k, f in phi.items() if k > 1}}

    series = PhiSeries(kernel.decomposition, cap, {
        "terms": terms,
        "harmonic_parts": lambda: {k: kernel.vector_form(f, 2) for k, f in harmonic.items()},
        "dropped_coexact": lambda: {k: kernel.vector_form(f, 2) for k, f in dropped.items()},
    })
    reported = series.obstruction_by_degree
    for k in range(2, cap + 1):
        s_k = ZERO
        for i in range(1, k // 2 + 1):
            bracket = kernel.bracket(phi[i], phi[k - i], 1)
            s_k = s_k + (bracket if 2 * i == k else bracket.scaled(2))
        if central is not None:
            depth = min(k - 1, len(central) - 1)
            if not kernel.in_central_stage(s_k, central[depth]):
                raise _central_violation(k, depth)
        delta_part, harmonic[k], coexact_part = kernel.split(s_k)
        phi[k] = -delta_part
        reported[k] = kernel.harmonic_coefficients(harmonic[k])
        if coexact_part:
            if not kernel.in_coexact_space(coexact_part):
                raise _violation(kernel, k, coexact_part, IN_V2)
            # 2 Σ_{2≤j<k} [ψ_j, Φ_{k−j}], ψ_j = V_j + H_j rebuilt from the report
            total = ZERO
            for j in range(2, k):
                psi = dropped.get(j, ZERO)
                if reported[j]:
                    psi = psi + kernel.harmonic_form(reported[j])
                total = total + kernel.bracket(psi, phi[k - j], 2)
            if kernel.apply(coexact_part, 2, "delbar") != total.scaled(2):
                raise _violation(kernel, k, coexact_part, BIANCHI)
            dropped[k] = coexact_part
    return series


def _violation(kernel: ScalarKernel, k: int, coexact_part: IntForm,
               identity: str) -> ClosednessViolation:
    v_part = kernel.vector_form(coexact_part, 2)
    return ClosednessViolation(k, v_part, list(v_part.terms.values()), identity)


def obstruction_map(series: PhiSeries) -> list[Polynomial]:
    """Total obstruction Σ_k H(bracket sum at degree k) of a series, as a
    generator list of its ideal in :func:`canonical_generators` form."""
    total: dict = {}
    for coeffs in series.obstruction_by_degree.values():
        for key, p in coeffs.items():
            total[key] = total.get(key, Polynomial.zero()) + p
    return canonical_generators(total.values())


def smoothness_tests(decomposition, obstruction: list[Polynomial]) -> dict:
    """Structural certificates: the wedge test on harmonic 1-forms, the
    free-2-step verdict, and polynomial vanishing of the obstruction map,
    given as its generator list.

    For a non-abelian ambient L, ``lambda2_singular`` (some product of
    harmonic 1-forms is not ∂̄-exact) is equivalent to the quotient by the
    second central-series stage not being free — and certifies an obstructed
    direction."""
    L = decomposition.ambient
    hbasis = decomposition.basis(1, "H")
    wedge_exact = True
    for i in range(len(hbasis)):
        for j in range(i + 1, len(hbasis)):
            w = hbasis[i].wedge(hbasis[j])
            if w and not decomposition.in_space(w, "B"):
                wedge_exact = False
                break
        if not wedge_exact:
            break
    return {
        "lambda2_singular": (not L.is_abelian()) and not wedge_exact,
        "free_verdict": L.free_two_step_quotient_test().verdict,
        "obs_identically_zero": not obstruction,
    }


def parallelisable_directions(decomposition) -> dict:
    """The unobstructed subspace H¹ ⊗ z(g) and the cylinder-base dimension
    d = h^{0,1} · dim(g/z)."""
    L = decomposition.ambient
    z = L.center()
    m = decomposition.harmonic_dim(1)
    # h ⊗ Σ_j c_j X_j for each harmonic 1-form h and each basis row c of z
    vectors = [VectorForm(L, {(mi, j + 1): x * c for j, c in row.items()
                              for mi, x in h.terms.items()})
               for h in decomposition.basis(1, "H") for row in z.rows]
    return {
        "subspace": vectors,
        "subspace_dim": m * z.dim,
        "d": m * (L.dim - z.dim),
    }


# -- published row data for discrepancy annotations ---------------------------

def _overview_annotations(L, report: dict) -> list[dict]:
    """Cross-checks against the published summary-dimension formulas that
    disagree with the computed first-cohomology dimension; surfaced, not hidden."""
    notes: list[dict] = []
    h1 = report["h1_theta"]
    if L.is_abelian():
        k = L.dim
        published = k * k * (k + 1) // 2
        if published != h1:
            notes.append({
                "tag": "paper-discrepancy",
                "subject": "abelian smooth dimension",
                "computed": h1,
                "published": published,
                "note": (f"computed h^1(Theta) = k^2 = {h1} for the abelian algebra of "
                         f"dimension {k}; the published overview states "
                         f"k^2(k+1)/2 = {published}"),
            })
    elif (report["free_verdict"] == "free" and report["nu"] == 2
          and report["smooth"]):
        result = L.free_two_step_quotient_test()
        m = result.generator_count
        published = m * m * (m + 3) // 2
        if published != h1:
            notes.append({
                "tag": "paper-discrepancy",
                "subject": "free-2-step smooth dimension",
                "computed": h1,
                "published": published,
                "note": (f"computed h^1(Theta) = {h1} for the free 2-step algebra on "
                         f"{m} generators; the published overview states "
                         f"m^2(m+3)/2 = {published}"),
            })
    return notes


def analyze(L: LieAlgebra) -> dict:
    """Full parallelisable-path analysis of a nilpotent Lie algebra, validated first,
    as the report dict that ``kuranil analyze --json`` prints.  Its
    ``quadratic_generators`` are the recursion's degree-2 coefficients,
    ``series.obstruction_by_degree[2]``, in :func:`canonical_generators` form."""
    L.validate()
    decomposition = hodge.build_decomposition(L)
    series = phi_recursion(decomposition)
    obstruction = obstruction_map(series)
    quadratic = canonical_generators(series.obstruction_by_degree.get(2, {}).values())
    tests = smoothness_tests(decomposition, obstruction)
    directions = parallelisable_directions(decomposition)
    hodge_nums = [decomposition.harmonic_dim(q) for q in range(L.dim + 1)]
    h1 = hodge_nums[1] * L.dim
    smooth = tests["obs_identically_zero"]
    data = {
        "algebra": L.name,
        "dim": L.dim,
        "nu": L.nilpotency_index(),
        "hodge_numbers": hodge_nums,
        "theta_cohomology": [h * L.dim for h in hodge_nums],
        "h1_theta": h1,
        "free_verdict": tests["free_verdict"],
        "lambda2_singular": tests["lambda2_singular"],
        "smooth": smooth,
        "obstruction_generators": [str(g) for g in obstruction],
        "degree_profile": [g.total_degree() for g in obstruction],
        "quadratic_generators": [str(g) for g in quadratic],
        "kuranishi_dim": h1 if smooth else None,
        "cylinder_dim": directions["d"],
        "parallelisable_subspace": {
            "dim": directions["subspace_dim"],
            "vectors": [str(v) for v in directions["subspace"]],
        },
    }
    data["annotations"] = _overview_annotations(L, data)
    return data


def analyze_general(ambient: LieAlgebra | ComplexStructureAlgebra,
                    max_degree: int = 3) -> dict:
    """Capped analysis over a general integrable structure (vector-valued
    complex) from the generic Φ₁, as the report dict that ``kuranil analyze
    --general --json`` prints.  The ambient is validated first; a Lie
    algebra is then taken as the structure with purely (2,0) differentials."""
    ambient.validate()
    csa = to_complex_structure(ambient) if isinstance(ambient, LieAlgebra) else ambient
    decomposition = hodge.build_theta_decomposition(csa)
    series = phi_recursion(decomposition, max_degree)
    by_degree = series.obstruction_by_degree
    gens = canonical_generators(
        p for coeffs in by_degree.values() for p in coeffs.values())
    return {
        "algebra": csa.name,
        "dim": csa.complex_dim,
        "kind": csa.classify(),
        "max_degree": max_degree,
        "space_dims": {str(q): decomposition.space_dims(q) for q in range(3)},
        "h1_theta": decomposition.harmonic_dim(1),
        "phi": {str(k): str(series.phi(k)) for k in sorted(series.terms)},
        "harmonic_parts": {str(k): str(v)
                           for k, v in sorted(series.harmonic_parts.items()) if v},
        "obstruction_by_degree": {
            str(k): {f"h2[{r}]": str(p) for (r, _), p in sorted(coeffs.items())}
            for k, coeffs in by_degree.items() if coeffs},
        "obstruction_generators": [str(g) for g in gens],
        "dropped_coexact": {str(k): str(v)
                            for k, v in sorted(series.dropped_coexact.items())},
        "annotations": [],
    }
