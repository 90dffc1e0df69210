"""Integer forms on the scalar complex: the arithmetic of the Maurer–Cartan
recursion that :func:`kuranil.kuranishi.phi_recursion` runs on a
decomposition storing Θ as copies of the scalar complex (``scalar_blocks``)
over a parallelisable ambient.

An :class:`IntForm` is ``{(cell index, frame index): {packed monomial: int}}``
over one positive integer denominator, divided by the gcd of its
coefficients and its denominator whenever it is built.  A cell index is the
position of a cell in ``HodgeDecomposition.cells(q)``, a frame index is that
of a frame vector X_j.  Monomials are packed exponent vectors in one
:class:`~kuranil.polyring.Packing` (Monagan & Pearce, CASC 2007), so a
product of monomials is one integer addition; whoever runs the recursion
sizes the packing's fields, and the bracket raises
:class:`~kuranil.polyring.PackingOverflow` when a product reaches their guard
bit.

:class:`ScalarKernel` holds the operators the recursion applies to them over
one decomposition: ∂̄, δ and the B/H/V projectors through the
decomposition's ``integer_columns``, each operator's denominator taken out
once; membership in V² and in a central-series stage against RREF rows over
one denominator; the harmonic coefficients in and out of the report; and the
bracket ᾱ∧β̄⊗[X,Y] of a parallelisable ambient, read from a wedge table on
cell indices and the structure constants as integers over one denominator.
It converts its forms to ``VectorForm``s, and every operator keeps the
term order of its ``VectorForm`` counterpart in :mod:`kuranil.hodge` and
:mod:`kuranil.kuranishi`, so that the two recursions agree term for term.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
import functools
import itertools
import math

from . import linalg
from .exterior import VectorForm
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


class ScalarKernel:
    """The recursion's operators on integer forms over a scalar-complex
    decomposition, with monomials in one packing.

    ∂̄, δ and the projectors act through the decomposition's integer columns,
    each operator's denominator taken out once; each is read on first use
    and kept.  The ambient must be parallelisable: the bracket is
    ᾱ∧β̄⊗[X,Y], from the wedge table on cell indices of ``_wedge_table`` and
    the frame brackets as integers over one denominator."""

    def __init__(self, decomposition, packing: Packing):
        self.decomposition = decomposition
        self.packing = packing
        # [X_i, X_j] = Σ c·X_k / bracket_den, as (k, c) in vector_bracket's
        # order, for each ordered pair of frame vectors with a bracket
        ambient = decomposition.ambient
        frames = range(1, ambient.complex_dim + 1)
        brackets = {(i, j): br for i in frames for j in frames[i:]
                    if (br := ambient.vector_bracket(i, False, j, False))}
        self.bracket_den = math.lcm(*(c.denominator for br in brackets.values()
                                      for c in br.values()))
        self.brackets: dict[tuple[int, int], list] = {}
        for (i, j), br in brackets.items():
            pairs = [(k, c.numerator * (self.bracket_den // c.denominator))
                     for (k, _), c in br.items()]
            self.brackets[(i, j)] = pairs
            self.brackets[(j, i)] = [(k, -c) for k, c in pairs]
        self._cells: dict[int, list] = {}
        self._operators: dict[tuple[int, str], tuple] = {}
        self._rows: dict[str, tuple] = {}

    # -- cells and conversions -----------------------------------------------

    def cells(self, q: int) -> list:
        if q not in self._cells:
            self._cells[q] = self.decomposition.cells(q)
        return self._cells[q]

    def integral(self, polys: dict) -> tuple[dict, int]:
        """``(packed, D)``: the ``Polynomial`` values of ``polys`` packed, as
        integer polynomials over their least common denominator D."""
        den = math.lcm(*(c.denominator for p in polys.values() for c in p.terms.values()))
        return {key: {m: c.numerator * (den // c.denominator)
                      for m, c in self.packing.pack(p).items()}
                for key, p in polys.items()}, den

    def generic_form(self) -> IntForm:
        """``generic_harmonic_element``'s Φ₁ = Σ t_a^b h_a⊗X_b as an integer
        form, built alike from the RREF harmonic 1-forms h_a, a the pivot
        covector: its terms come in the same order."""
        rows, pivots, den = self.decomposition.integer_rows(1, "H")
        cells = self.cells(1)
        unit = self.packing.unit
        terms: dict = {}
        for row, p in zip(rows, pivots):
            a = cells[p][0].index
            for b in range(1, self.decomposition.ambient.complex_dim + 1):
                t = unit((a, b))
                for j, x in row.items():
                    terms.setdefault((j, b), {})[t] = x
        return IntForm(terms, den)

    def polynomial(self, poly: dict, den: int) -> Polynomial:
        if den == 1:
            return self.packing.polynomial(poly)
        return self.packing.polynomial({m: Fraction(x, den) for m, x in poly.items()})

    def vector_form(self, form: IntForm, q: int) -> VectorForm:
        """The degree-q ``form`` as a ``VectorForm``, its terms in order."""
        cells = self.cells(q)
        return VectorForm(self.decomposition.ambient, {
            (cells[i], key): self.polynomial(poly, form.den)
            for (i, key), poly in form.terms.items()})

    # -- operators -------------------------------------------------------------

    def apply(self, form: IntForm, q: int, operator: str) -> IntForm:
        """``form`` of degree q sent through ``integer_columns(q, operator)``;
        terms come out by frame index as they first appear in ``form``, then
        by target cell, as ``HodgeDecomposition`` applies an operator."""
        key = (q, operator)
        if key not in self._operators:
            self._operators[key] = self.decomposition.integer_columns(q, operator)
        columns, den = self._operators[key]
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

    def rows(self, which: str) -> tuple:
        """``integer_rows(2, which)``, read once."""
        if which not in self._rows:
            self._rows[which] = self.decomposition.integer_rows(2, which)
        return self._rows[which]

    def split(self, s: IntForm) -> tuple[IntForm, IntForm, IntForm]:
        """``(δs, Hs, Vs)``, as ``HodgeDecomposition.split`` takes a degree-2
        form apart: the H projector only for a rest that ∂̄ does not kill."""
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
        row_of = {p: r for r, p in enumerate(self.rows("H")[1])}
        found: dict = {}
        for (i, frame), poly in h.terms.items():
            rows = found.setdefault(frame, {})
            if i in row_of:
                rows[row_of[i]] = poly
        return {(r, frame): self.polynomial(rows[r], h.den)
                for frame, rows in found.items() for r in sorted(rows)}

    def harmonic_form(self, coefficients: dict) -> IntForm:
        """The harmonic element with these reported ``harmonic_coefficients``."""
        rows, _, rows_den = self.rows("H")
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
        rows, pivots, den = self.rows("V")
        vectors: dict = {}
        for (i, frame), poly in v.terms.items():
            vectors.setdefault(frame, {})[i] = poly
        return all(_in_span(vector, rows, pivots, den) for vector in vectors.values())

    def in_central_stage(self, s: IntForm, stage: linalg.Subspace) -> bool:
        """Whether ``s`` takes its values in the central-series ``stage``,
        cell by cell."""
        rows, den = linalg.integral(stage.rows)
        vectors: dict = {}
        for (i, frame), poly in s.terms.items():
            vectors.setdefault(i, {})[frame - 1] = poly
        return all(_in_span(vector, rows, stage.pivots, den) for vector in vectors.values())

    # -- the bracket -------------------------------------------------------------

    def bracket(self, a: IntForm, b: IntForm, p: int) -> IntForm:
        """[a, b] = ᾱ∧β̄⊗[X,Y] for a of degree p and b of degree 1, its terms
        in the order ``schouten_general`` makes them.  Raises
        ``PackingOverflow`` when a product's degree reaches the packing's
        guard bit."""
        if not a or not b:
            return ZERO
        wedge = _wedge_table(self.decomposition.ambient.complex_dim, p)
        by_frame_a: dict = {}
        for (cell, frame), poly in a.terms.items():
            by_frame_a.setdefault(frame, []).append((cell, list(poly.items())))
        by_frame_b: dict = {}
        for (cell, frame), poly in b.terms.items():
            by_frame_b.setdefault(frame, []).append((cell, list(poly.items())))
        out: dict = {}
        for i, alphas in by_frame_a.items():
            for j, betas in by_frame_b.items():
                targets = self.brackets.get((i, j))
                if targets is None:
                    continue
                for c1, p1 in alphas:
                    row = wedge[c1]
                    for c2, p2 in betas:
                        w = row.get(c2)
                        if w is None:
                            continue
                        cell, sign = w
                        products: dict = {}
                        for m1, x1 in p1:
                            for m2, x2 in p2:
                                m = m1 + m2
                                products[m] = products.get(m, 0) + x1 * x2
                        for k, c in targets:
                            f = c * sign
                            acc = out.get((cell, k))
                            if acc is None:
                                acc = out[(cell, k)] = {}
                            for m, x in products.items():
                                acc[m] = acc.get(m, 0) + x * f
        out = _cleaned(out)
        # Factors that set no guard bit make products that carry out of no
        # field, so a product whose degree reaches the guard bit shows it.
        guards = self.packing.guards
        if any(m & guards for poly in out.values() for m in poly):
            raise PackingOverflow
        return IntForm(out, a.den * b.den * self.bracket_den)
