"""Integer forms: the arithmetic of the Maurer–Cartan recursion, which
:func:`kuranil.kuranishi.phi_recursion` runs on every decomposition and from
every Φ₁.

An :class:`IntForm` is ``{(cell index, frame index): {packed monomial: int}}``
over one positive integer denominator, divided by the gcd of its
coefficients and its denominator whenever it is built.  Its keys are those
of ``HodgeDecomposition.coordinates``: where Θ is stored as copies of the
scalar complex (``scalar_blocks``), the position of a cell in
``HodgeDecomposition.cells(q)`` and the index of a frame vector X_j; on Θ,
the position combo·n + j − 1 of the cell ω̄^I⊗X_j, I the combo-th index
tuple of ``itertools.combinations``, and None.  ∂̄, δ, the projectors and
the Hodge spaces read only cell indices, so only Φ₁, the conversions to and
from ``VectorForm``, the central-series check and the bracket read the
layout.  Monomials are packed exponent vectors in one
:class:`~kuranil.polyring.Packing` (Monagan & Pearce, CASC 2007), so a
product of monomials is one integer addition; whoever runs the recursion
sizes the packing's fields, and the bracket raises
:class:`~kuranil.polyring.PackingOverflow` when a product reaches their guard
bit.

:class:`Kernel` holds the operators the recursion applies to them over one
decomposition: ∂̄, δ and the B/H/V projectors through the decomposition's
``integer_columns``, each operator's denominator taken out once; the split
s = ∂̄δs + Hs + Vs of a bracket sum; membership in V² and in a
central-series stage against RREF rows over one denominator; the harmonic
coefficients in and out of the report; and the three-term Schouten bracket

    [ᾱ⊗X, β̄⊗Y] = −(i_Y ∂ᾱ)∧β̄⊗X + ᾱ∧(i_X ∂β̄)⊗Y + ᾱ∧β̄⊗[X,Y],

with the Frölicher–Nijenhuis sign on its first term (Frölicher & Nijenhuis,
Indag. Math. 18, 1956).  Its wedges come from a table on scalar cell indices,
and the frame brackets and the contractions i_X ∂ω̄^I are constant tables
over one common denominator.  The contractions are read off
``ExteriorForm.del_`` and ``contract`` once per degree they are needed in,
and only on an ambient that is not ``parallelisable``; on a parallelisable one ∂ of
every (0,q)-form vanishes and the bracket is ᾱ∧β̄⊗[X,Y] alone.  Every
operator keeps the term order of its ``VectorForm`` counterpart in the tests'
oracles, so on the scalar blocks of a parallelisable ambient the recursion
agrees with theirs term for term.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
import functools
import itertools
import math

from . import linalg
from .exterior import Cov, ExteriorForm, VectorForm
from .polyring import Packing, PackingOverflow, Polynomial

class IntForm:
    """An integer form: ``terms`` maps ``(cell index, frame index)`` to a
    packed polynomial ``{packed monomial: int}`` of nonzero coefficients, and
    the form is ``terms`` over the positive integer ``den``.  It is built
    divided by the gcd of its coefficients and its denominator, so two forms
    are equal exactly when their terms and denominators are.  Sums keep the
    term order of ``VectorForm`` sums: the left terms in order, then the new
    ones, a term that cancels dropped."""

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict, den: int = 1):
        g = den
        for poly in terms.values():
            g = math.gcd(g, *poly.values())
            if g == 1:
                break
        else:  # also for no terms, whose denominator becomes 1
            terms = {key: {m: x // g for m, x in poly.items()} for key, poly in terms.items()}
            den //= g
        self.terms = terms
        self.den = den

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return self.terms == other.terms and self.den == other.den

    def __neg__(self) -> "IntForm":
        return IntForm({key: {m: -x for m, x in poly.items()} for key, poly in self.terms.items()},
                     self.den)

    def __add__(self, other: "IntForm") -> "IntForm":
        return self._combined(other, 1)

    def __sub__(self, other: "IntForm") -> "IntForm":
        return self._combined(other, -1)

    def _combined(self, other: "IntForm", sign: int) -> "IntForm":
        """self + sign·other over the product of the two denominators."""
        fa, fb = other.den, sign * self.den
        terms = {key: {m: x * fa for m, x in poly.items()} for key, poly in self.terms.items()}
        for key, poly in other.terms.items():
            acc = terms.get(key)
            if acc is None:
                terms[key] = {m: x * fb for m, x in poly.items()}
                continue
            for m, x in poly.items():
                y = acc.get(m, 0) + x * fb
                if y:
                    acc[m] = y
                else:
                    del acc[m]
            if not acc:
                del terms[key]
        return IntForm(terms, self.den * other.den)

    def scaled(self, c: int) -> "IntForm":
        return IntForm({key: {m: x * c for m, x in poly.items()} for key, poly in self.terms.items()},
                     self.den)


ZERO = IntForm({})


def _cleaned(terms: dict) -> dict:
    """``terms`` without zero coefficients and then without empty cells."""
    out = {}
    for key, poly in terms.items():
        poly = {m: x for m, x in poly.items() if x}
        if poly:
            out[key] = poly
    return out


def _in_span(vector: dict, rows: list, pivots, den: int) -> bool:
    """Whether ``vector``, ``{coordinate: packed polynomial}``, lies in the
    span of RREF rows given as integer rows over ``den``: whether
    den·vector = Σ_r vector[pivot_r]·row_r, the reduction
    ``Subspace.contains`` makes.  The rows vanish at each other's pivots, so
    the two sides agree at every pivot, and only the other coordinates are
    compared."""
    pivot_set = set(pivots)
    total: dict = {}
    for row, p in zip(rows, pivots):
        c = vector.get(p)
        if c:
            for j, y in row.items():
                if j != p:
                    acc = total.setdefault(j, {})
                    for m, x in c.items():
                        acc[m] = acc.get(m, 0) + x * y
    return _cleaned(total) == {j: {m: x * den for m, x in poly.items()}
                               for j, poly in vector.items() if j not in pivot_set}


@functools.cache
def _wedge_table(n: int, p: int) -> list[dict]:
    """Per degree-p cell a of the scalar complex of dimension n, ``{cell b:
    (cell of a∧b, sign)}`` for the degree-1 cells b with a∧b nonzero.  A
    degree-q cell index is the position of its barred index tuple in
    ``itertools.combinations(range(1, n + 1), q)``, the order
    ``kuranil.hodge`` builds the cells in."""
    index = {idx: r for r, idx in enumerate(itertools.combinations(range(1, n + 1), p + 1))}
    table = []
    for left in itertools.combinations(range(1, n + 1), p):
        row = {}
        for j in range(1, n + 1):
            if j not in left:
                # ω̄^j moves past the p − pos covectors of ``left`` above it
                pos = bisect_left(left, j)
                row[j - 1] = (index[(*left[:pos], j, *left[pos:])], -1 if (p - pos) % 2 else 1)
        table.append(row)
    return table


def _contractions(ambient, p: int) -> dict:
    """``{(cell, j): {cell′: c}}``: i_{X_j} ∂ω̄^I = Σ c·ω̄^{I′} for each
    degree-p cell I of the scalar complex, indexed as in ``_wedge_table``,
    and each frame index j with a nonzero contraction."""
    n = ambient.complex_dim
    combos = list(itertools.combinations(range(1, n + 1), p))
    index = {tuple(Cov(i, True) for i in idx): r for r, idx in enumerate(combos)}
    table = {}
    for cell, idx in enumerate(combos):
        del_form = ExteriorForm.basis_form(ambient, [Cov(i, True) for i in idx]).del_()
        for j in range(1, n + 1) if del_form else ():
            row = {index[mi]: c.constant_value() for mi, c in del_form.contract(j).terms.items()}
            if row:
                table[(cell, j)] = row
    return table


def _add_products(out: dict, p1: list, p2: list, cell: int, factors) -> None:
    """Add f·p1·p2 to ``out[(cell, k)]`` for each ``(k, f)`` of ``factors``,
    p1 and p2 packed terms as ``(monomial, int)`` pairs."""
    products: dict = {}
    for m1, x1 in p1:
        for m2, x2 in p2:
            m = m1 + m2
            products[m] = products.get(m, 0) + x1 * x2
    for k, f in factors:
        acc = out.get((cell, k))
        if acc is None:
            acc = out[(cell, k)] = {}
        for m, x in products.items():
            acc[m] = acc.get(m, 0) + x * f


class Kernel:
    """The recursion's operators on integer forms over one decomposition,
    with monomials in one packing.

    ∂̄, δ and the projectors act through the decomposition's integer columns,
    each operator's denominator taken out once, and the memberships and the
    harmonic elements through its integer rows; the decomposition keeps each
    of them, so every kernel over it reads one copy.  The bracket reads the
    wedge table of ``_wedge_table``, and the frame brackets and, on an
    ambient that is not parallelisable, the contractions of
    ``_contractions``, as integers over one denominator per degree of its
    first factor, built on first use: the certificate's degree-2
    contractions only where a coexact part is dropped."""

    def __init__(self, decomposition, packing: Packing):
        self.decomposition = decomposition
        self.packing = packing
        self.n = decomposition.ambient.complex_dim
        self.scalar_blocks = decomposition.scalar_blocks
        self._tables: dict[int, tuple] = {}
        self._monomials: dict[int, tuple] = {}

    # -- cells, layout and conversions ---------------------------------------

    def integral(self, polys: dict) -> tuple[dict, int]:
        """``(packed, D)``: the ``Polynomial`` values of ``polys`` packed, as
        integer polynomials over their least common denominator D."""
        packed, den = linalg.integral(self.packing.pack(p) for p in polys.values())
        return dict(zip(polys, packed)), den

    @staticmethod
    def generic_names(decomposition) -> list[list[tuple]]:
        """Per RREF harmonic 1-form row, ``(t_a^b, frame index)`` for each
        element of ``generic_harmonic_element`` the row gives: on scalar
        blocks h⊗X_b for b = 1..n, a its pivot covector; on Θ the row itself,
        at frame index None, its pivot cell ω̄^a⊗X_b."""
        cells = decomposition.harmonic_pivot_cells(1)
        if decomposition.scalar_blocks:
            frames = range(1, decomposition.ambient.complex_dim + 1)
            return [[((cov.index, b), b) for b in frames] for (cov,) in cells]
        return [[((cov.index, b), None)] for (cov,), b in cells]

    def generic_form(self) -> IntForm:
        """The generic Φ₁ = Σ t_a^b h_a^b over the RREF harmonic 1-forms as
        an integer form, its terms in the order of ``h1_theta_basis``: the
        harmonic 1-form whose coefficient at (row, frame index) is t_a^b."""
        return self.harmonic_form({(r, frame): Polynomial.variable(name)
                                   for r, names in enumerate(self.generic_names(self.decomposition))
                                   for name, frame in names}, 1)

    def form(self, vf, q: int) -> IntForm:
        """The degree-q form ``vf`` as an integer form, its terms in order."""
        return IntForm(*self.integral({(i, frame): c for i, frame, c
                                       in self.decomposition.coordinates(vf, q)}))

    def polynomial(self, poly: dict, den: int) -> Polynomial:
        """The packed ``poly`` over ``den`` as a ``Polynomial``, its terms in
        order; each packed monomial is unpacked once per kernel."""
        monomials = self._monomials
        new = [m for m in poly if m not in monomials]
        if new:
            monomials.update(zip(new, self.packing.polynomial(dict.fromkeys(new, 1)).terms))
        return Polynomial({monomials[m]: x if den == 1 else Fraction(x, den)
                           for m, x in poly.items()})

    def vector_form(self, form: IntForm, q: int) -> VectorForm:
        """The degree-q ``form`` as a ``VectorForm``, its terms in order."""
        cells = self.decomposition.cells(q)
        return VectorForm(self.decomposition.ambient, {
            cells[i] if frame is None else (cells[i], frame): self.polynomial(poly, form.den)
            for (i, frame), poly in form.terms.items()})

    # -- operators -------------------------------------------------------------

    def apply(self, form: IntForm, q: int, operator: str) -> IntForm:
        """``form`` of degree q sent through ``integer_columns(q, operator)``;
        terms come out by frame index as they first appear in ``form``, then
        by target cell, as ``HodgeDecomposition`` applies an operator."""
        columns, den = self.decomposition.integer_columns(q, operator)
        images: dict = {}
        for (i, frame), poly in form.terms.items():
            image = images.get(frame)
            if image is None:
                image = images[frame] = {}
            for r, c in columns[i].items():
                acc = image.get(r)
                if acc is None:
                    image[r] = {m: x * c for m, x in poly.items()}
                else:
                    for m, x in poly.items():
                        acc[m] = acc.get(m, 0) + x * c
        terms = {}
        for frame, image in images.items():
            for r in sorted(image):
                poly = {m: x for m, x in image[r].items() if x}
                if poly:
                    terms[(r, frame)] = poly
        return IntForm(terms, form.den * den)

    def split(self, s: IntForm) -> tuple[IntForm, IntForm, IntForm]:
        """``(δs, Hs, Vs)`` of a degree-2 form, s = ∂̄δs + Hs + Vs.

        ∂̄∘δ = P_B, so the rest s − ∂̄δs is Hs + Vs; ∂̄ kills H² and is
        injective on V², so a ∂̄-closed rest is Hs and Vs is zero.  Only a
        rest that ∂̄ does not kill is projected onto H.  Hs keeps the term
        order of that projection: by frame index as the indices first appear
        in s, then by cell."""
        d = self.apply(s, 2, "delta")
        rest = s - self.apply(d, 1, "delbar")
        if not self.apply(rest, 2, "delbar"):
            rank: dict = {}
            for _, frame in s.terms:
                rank.setdefault(frame, len(rank))
            ordered = sorted(rest.terms.items(), key=lambda t: (rank[t[0][1]], t[0][0]))
            return d, IntForm(dict(ordered), rest.den), ZERO
        h = self.apply(s, 2, "H")
        return d, h, rest - h

    def harmonic_coefficients(self, h: IntForm) -> dict:
        """``HodgeDecomposition.harmonic_coefficients`` of the harmonic ``h``:
        its values at the pivot cells, keyed and ordered alike."""
        if not h:
            return {}
        row_of = {p: r for r, p in enumerate(self.decomposition.integer_rows(2, "H")[1])}
        found: dict = {}
        for (i, frame), poly in h.terms.items():
            rows = found.setdefault(frame, {})
            if i in row_of:
                rows[row_of[i]] = poly
        return {(r, frame): self.polynomial(rows[r], h.den)
                for frame, rows in found.items() for r in sorted(rows)}

    def harmonic_form(self, coefficients: dict, q: int) -> IntForm:
        """The harmonic element of degree q with these coefficients, keyed
        ``(RREF harmonic row, frame index)`` as ``harmonic_coefficients``
        reports them: Σ coefficient·row, its terms in the order the rows
        first reach them."""
        rows, _, rows_den = self.decomposition.integer_rows(q, "H")
        packed, den = self.integral(coefficients)
        terms: dict = {}
        for (r, frame), coeff in packed.items():
            for j, y in rows[r].items():
                acc = terms.setdefault((j, frame), {})
                for m, x in coeff.items():
                    acc[m] = acc.get(m, 0) + x * y
        return IntForm(_cleaned(terms), den * rows_den)

    def in_coexact_space(self, v: IntForm) -> bool:
        """Whether ``v`` lies in V², frame index by frame index."""
        rows, pivots, den = self.decomposition.integer_rows(2, "V")
        vectors: dict = {}
        for (i, frame), poly in v.terms.items():
            vectors.setdefault(frame, {})[i] = poly
        return all(_in_span(vector, rows, pivots, den) for vector in vectors.values())

    def in_central_stage(self, s: IntForm, stage: linalg.Subspace) -> bool:
        """Whether ``s`` takes its values in the central-series ``stage``,
        scalar cell by scalar cell."""
        rows, den = linalg.integral(stage.rows)
        vectors: dict = {}
        for (cell, frame), poly in s.terms.items():
            if frame is None:  # a Θ cell index
                cell, j = divmod(cell, self.n)
                frame = j + 1
            vectors.setdefault(cell, {})[frame - 1] = poly
        return all(_in_span(vector, rows, stage.pivots, den) for vector in vectors.values())

    # -- the bracket -------------------------------------------------------------

    def _bracket_tables(self, p: int) -> tuple:
        """``(D, brackets, contractions of degree p, contractions of degree
        1)`` for a first factor of degree p, as integers over their common
        denominator D.  ``brackets`` maps each ordered pair (i, j) of frame
        vectors with a bracket to ``(pairs, negated pairs)``, [X_i, X_j] as
        ``(k, c)`` pairs in ``vector_bracket``'s order."""
        ambient = self.decomposition.ambient
        live = not ambient.parallelisable
        if not live:
            p = 1  # no contractions: one table serves every degree
        if p not in self._tables:
            frames = range(1, self.n + 1)
            brackets = {(i, j): [(k, c) for (k, _), c in br.items()]
                        for i in frames for j in frames[i:]
                        if (br := ambient.vector_bracket(i, False, j, False))}
            raw = {q: _contractions(ambient, q) if live else {} for q in {p, 1}}
            tables = [raw[p], raw[1]]
            den = math.lcm(*(c.denominator for pairs in brackets.values() for _, c in pairs),
                           *(c.denominator for table in tables
                             for row in table.values() for c in row.values()))
            signed = {}
            for (i, j), pairs in brackets.items():
                pos = [(k, c.numerator * (den // c.denominator)) for k, c in pairs]
                neg = [(k, -c) for k, c in pos]
                signed[(i, j)], signed[(j, i)] = (pos, neg), (neg, pos)
            tables = [{key: [(r, c.numerator * (den // c.denominator)) for r, c in row.items()]
                       for key, row in table.items()} for table in tables]
            self._tables[p] = (den, signed, *tables)
        return self._tables[p]

    def bracket(self, a: IntForm, b: IntForm, p: int) -> IntForm:
        """[a, b], the three-term Schouten bracket of the module docstring,
        for a of degree p and b of degree 1: first ᾱ∧β̄⊗[X,Y] of every pair
        of terms, in the order of the tests' ``VectorForm`` bracket, then, on
        an ambient that is not parallelisable, the ∂-terms.  Raises
        ``PackingOverflow`` when a product's degree reaches the packing's
        guard bit."""
        if not a or not b:
            return ZERO
        wedge = _wedge_table(self.n, p)
        den, brackets, del_a, del_b = self._bracket_tables(p)
        frames_a, frames_b = self._by_frame(a), self._by_frame(b)
        out: dict = {}
        for i, alphas in frames_a.items():
            for j, betas in frames_b.items():
                # [X_i, X_j] as (k, c) pairs, and negated for a wedge sign −1
                targets = brackets.get((i, j))
                if targets is None:
                    continue
                for c1, p1 in alphas:
                    row = wedge[c1]
                    for c2, p2 in betas:
                        w = row.get(c2)
                        if w is not None:
                            _add_products(out, p1, p2, w[0], targets[w[1] < 0])
        if del_a or del_b:
            # −(i_{X_j} ∂ᾱ)∧β̄⊗X_i and ᾱ∧(i_{X_i} ∂β̄)⊗X_j
            for i, alphas in frames_a.items():
                for j, betas in frames_b.items():
                    for c1, p1 in alphas:
                        row = wedge[c1]
                        for c2, p2 in betas:
                            for c, x in del_a.get((c1, j), ()):
                                if u := wedge[c].get(c2):
                                    _add_products(out, p1, p2, u[0], ((i, -x * u[1]),))
                            for c, x in del_b.get((c2, i), ()):
                                if u := row.get(c):
                                    _add_products(out, p1, p2, u[0], ((j, x * u[1]),))
        if not self.scalar_blocks:
            out = {(cell * self.n + k - 1, None): poly for (cell, k), poly in out.items()}
        out = _cleaned(out)
        # Factors that set no guard bit make products that carry out of no
        # field, so a product whose degree reaches the guard bit shows it.
        guards = self.packing.guards
        if any(m & guards for poly in out.values() for m in poly):
            raise PackingOverflow
        return IntForm(out, a.den * b.den * den)

    def _by_frame(self, form: IntForm) -> dict[int, list]:
        """``{frame index: [(scalar cell index, packed terms)]}`` of ``form``."""
        groups: dict = {}
        if self.scalar_blocks:
            for (cell, frame), poly in form.terms.items():
                groups.setdefault(frame, []).append((cell, list(poly.items())))
            return groups
        for (index, _), poly in form.terms.items():
            cell, j = divmod(index, self.n)
            groups.setdefault(j + 1, []).append((cell, list(poly.items())))
        return groups
