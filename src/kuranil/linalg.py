"""Exact linear algebra over the rationals, on nonzero entries only.

A matrix is a list of sparse rows, and a row is a ``{column: rational}`` dict
that holds only the row's nonzero entries, in ascending column order.  Every
matrix here stays in that form: elimination (``rref``), products, transposes,
inverses and projectors never build or scan a zero entry.  A row handed to
``rref`` or ``Subspace.from_vectors`` may hold explicit zeros (so
``dict(enumerate(v))`` turns a dense vector into one); they are dropped.
``Subspace.from_vectors``, ``nullspace`` and ``invert`` refuse an entry
outside their columns with ``ValueError``.

``rref`` keeps, beside its reduced rows, a column index: for each non-pivot
column, the kept rows that are nonzero there.  A new pivot is cleared from
those rows only, so elimination costs in proportion to the entries it
touches, not to the rows it keeps; the ∂̄ matrices of the Hodge layer have
about as many nonzeros as their rank.

Each entry is a rational value in the package's canonical form (see
:func:`kuranil.polyring.rational`): an ``int`` while it is integral, else a
``Fraction``.  ``rref`` and ``mat_mul`` canonicalise what they store, so
every matrix built here, projectors and inverses included, holds ints
wherever its entries are integral.

Everything here is deterministic and exact; no floating point is used
anywhere.  A subspace is a ``Subspace``: its RREF rows and their pivot
columns, from one ``rref`` call, which no other module makes.

``Subspace.reduce`` takes and returns a dense vector, whose entries may lie in
any ring containing Q (polynomials, in practice).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import math
from typing import Iterable, Sequence

from .polyring import rational

Row = dict[int, int | Fraction]
Matrix = list[Row]


def identity(n: int) -> Matrix:
    return [{i: 1} for i in range(n)]


def transpose(a: Sequence[Row], ncols: int) -> Matrix:
    """The transpose of ``a``, whose columns are ``0..ncols-1``."""
    out: Matrix = [{} for _ in range(ncols)]
    for i, row in enumerate(a):
        for j, x in row.items():
            out[j][i] = x
    return out


def mat_mul(a: Sequence[Row], b: Sequence[Row]) -> Matrix:
    out = []
    for row in a:
        acc: Row = {}
        for t, c in row.items():
            for j, y in b[t].items():
                acc[j] = acc.get(j, 0) + c * y
        out.append({j: rational(x) for j, x in sorted(acc.items()) if x})
    return out


def integral(a: Iterable[Row]) -> tuple[list[dict[int, int]], int]:
    """``(rows, D)``: the rows ``a`` times D, the least common denominator of
    their entries, as integer rows, so that ``a`` is those rows over D.
    Rows of integers come back as they are, not copied."""
    a = list(a)
    den = math.lcm(*(x.denominator for row in a for x in row.values()))
    if den == 1:
        return a, 1
    return [{j: x.numerator * (den // x.denominator) for j, x in row.items()}
            for row in a], den


def pseudo_inverse_product(v: Sequence[Row], m: Sequence[Row], ncols: int) -> Matrix:
    """V (MᵀM)⁻¹ Mᵀ for matrices V and M with the same ``ncols`` columns,
    the columns of M independent: V times the pseudo-inverse of M, exact
    over Q because MᵀM is a Gram matrix.  With V = M it is the orthogonal
    projector onto the column space of M.  Zero, one empty row per row of
    V, when there are no columns."""
    if not ncols:
        return [{} for _ in v]
    mt = transpose(m, ncols)
    return mat_mul(v, mat_mul(invert(mat_mul(mt, m)), mt))


def _subtract(row: Row, f, pivot_row: Row) -> None:
    """``row -= f * pivot_row`` in place, dropping entries that cancel."""
    for j, y in pivot_row.items():
        x = row.get(j, 0) - f * y
        if x:
            row[j] = rational(x)
        else:
            del row[j]


def _within(a: Iterable[Row], ncols: int) -> list[Row]:
    """The rows ``a`` as a list, checked to hold entries only in columns
    ``0..ncols-1``."""
    rows = list(a)
    if any(not 0 <= j < ncols for row in rows for j in row):
        raise ValueError(f"matrix entry outside the columns 0..{ncols - 1}")
    return rows


def rref(a: Iterable[Row]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of the rows ``a``, which are not modified.

    Returns ``(rows, pivots)`` where ``rows`` contains only the nonzero rows and
    ``pivots[i]`` is the column of the leading 1 in ``rows[i]``.

    The rows are taken one at a time and kept fully reduced: a new row is
    cleared at every pivot it meets (the reduced rows vanish at each other's
    pivots, so one pass suffices), scaled at its leading column, and that
    column is then cleared from the rows already kept.  A column index maps
    each non-pivot column to the pivots of the kept rows that are nonzero
    there, so clearing a new pivot column visits only the rows that hold it;
    each fill-in adds a row to the index and each cancelled entry removes
    it.  The cost follows the entries touched, not the rows kept.
    """
    reduced: dict[int, Row] = {}  # pivot column -> row with a 1 there
    holders: dict[int, set[int]] = {}  # non-pivot column -> pivots of rows nonzero there
    for source in a:
        if not source:
            continue
        row = {j: rational(x) for j, x in source.items() if x}
        for p, f in [(p, row[p]) for p in row if p in reduced]:
            _subtract(row, f, reduced[p])
        if not row:
            continue
        c = min(row)
        lead = row[c]
        if lead != 1:
            inv = Fraction(1) / lead
            row = {j: rational(x * inv) for j, x in row.items()}
        for j in row:
            if j != c:
                holders.setdefault(j, set()).add(c)
        for p in holders.pop(c, ()):
            other = reduced[p]
            f = other.pop(c)
            for j, y in row.items():
                if j == c:
                    continue
                x = other.get(j, 0) - f * y
                if x:
                    if j not in other:  # fill-in
                        holders[j].add(p)
                    other[j] = rational(x)
                else:
                    del other[j]
                    holders[j].remove(p)
        reduced[c] = row
    pivots = sorted(reduced)
    return [dict(sorted(reduced[p].items())) for p in pivots], pivots


def rank(a: Iterable[Row]) -> int:
    return len(rref(a)[1])


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim: its RREF rows (sparse) and their pivot
    columns, ``pivots[i]`` being the column of the leading 1 in ``rows[i]``.

    The RREF of a spanning set is unique, so equal subspaces have equal rows.
    """

    ambient_dim: int
    rows: tuple[Row, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Row]) -> "Subspace":
        """The span of ``vectors``, sparse rows over columns ``0..ambient_dim-1``."""
        rows, pivots = rref(_within(vectors, ambient_dim))
        return Subspace(ambient_dim, tuple(rows), tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence) -> list:
        """Dense ``v`` with the span of the rows eliminated at their pivot
        columns; zero iff ``v`` lies in the subspace.  Entries may come from
        any ring containing Q (they are combined with rational coefficients)."""
        w = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = w[pc]
            if c:
                for j, y in row.items():
                    w[j] = w[j] - y * c
        return w

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return not any(self.reduce(v))

    @cached_property
    def projector(self) -> Matrix:
        """Orthogonal projector onto the subspace, as an ``ambient_dim`` square
        matrix.  For the rows R it is ``R^T (R R^T)^{-1} R``, the
        ``pseudo_inverse_product`` of ``R^T`` with itself."""
        rt = transpose(self.rows, self.ambient_dim)
        return pseudo_inverse_product(rt, rt, self.dim)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def nullspace(a: Iterable[Row], ncols: int) -> Subspace:
    """The right kernel of ``a``, whose columns are ``0..ncols-1``."""
    rows, pivots = rref(_within(a, ncols))
    pivot_set = set(pivots)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(rows, pivots):
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
    return Subspace.from_vectors(ncols, basis.values())


def invert(a: Matrix) -> Matrix:
    """The inverse of the square matrix ``a``, whose columns are
    ``0..len(a)-1``."""
    n = len(a)
    rows, pivots = rref({**row, n + i: 1} for i, row in enumerate(_within(a, n)))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [{j - n: x for j, x in row.items() if j >= n} for row in rows]
