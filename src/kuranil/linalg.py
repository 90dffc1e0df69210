"""Exact linear algebra over the rationals.

Matrices are plain ``list[list[Fraction]]`` in row-major order.  Everything here
is deterministic and exact; no floating point is used anywhere.  A subspace is
a ``Subspace``: its RREF rows and their pivot columns, from one ``rref`` call,
which no other module makes.  ``mat_vec`` and ``Subspace.reduce`` accept
vectors whose entries live in any commutative ring that supports ``+``, ``*``
and scalar multiplication by ``Fraction`` (polynomial-valued vectors, in
practice).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

Matrix = list[list[Fraction]]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def transpose(a: Sequence[Sequence[Fraction]]) -> Matrix:
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        row = a[i]
        out_i = out[i]
        for t in range(k):
            c = row[t]
            if not c:
                continue
            b_t = b[t]
            for j in range(m):
                if b_t[j]:
                    out_i[j] += c * b_t[j]
    return out


def mat_vec(a: Matrix, v: Sequence, zero=Fraction(0)) -> list:
    """Matrix times vector; entries of ``v`` may be any ring elements."""
    out = []
    for row in a:
        acc = zero
        for c, x in zip(row, v):
            if c:
                acc = acc + x * c
        out.append(acc)
    return out


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.

    Returns ``(rows, pivots)`` where ``rows`` contains only the nonzero rows and
    ``pivots[i]`` is the column of the leading 1 in ``rows[i]``.
    """
    m = [row[:] for row in a]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[0])


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim: its RREF rows and their pivot columns,
    ``pivots[i]`` being the column of the leading 1 in ``rows[i]``.

    The RREF of a spanning set is unique, so equal subspaces have equal rows.
    """

    ambient_dim: int
    rows: tuple[tuple[Fraction, ...], ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors) -> "Subspace":
        """The span of ``vectors``, each of length ``ambient_dim``."""
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        rows, pivots = rref(vecs)
        return Subspace(ambient_dim, tuple(tuple(r) for r in rows), tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> Matrix:
        return [list(r) for r in self.rows]

    def reduce(self, v: Sequence) -> list:
        """``v`` with the span of the rows eliminated at their pivot columns;
        zero iff ``v`` lies in the subspace.  Entries may come from any ring
        containing Q (they are combined with rational coefficients)."""
        w = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = w[pc]
            if c:
                w = [x - y * c for x, y in zip(w, row)]
        return w

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return not any(self.reduce(v))

    @cached_property
    def projector(self) -> Matrix:
        """Orthogonal projector onto the subspace, as an ``ambient_dim`` square
        matrix.  For the rows R it is ``R^T (R R^T)^{-1} R``; exact over Q
        because ``R R^T`` is a Gram matrix, invertible for independent rows."""
        if not self.rows:
            return zeros(self.ambient_dim, self.ambient_dim)
        r = self.basis()
        rt = transpose(r)
        return mat_mul(mat_mul(rt, invert(mat_mul(r, rt))), r)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def nullspace(a: Matrix, ncols: int | None = None) -> Subspace:
    """The right kernel of ``a``."""
    if ncols is None:
        if not a:
            raise ValueError("ncols required for empty matrix")
        ncols = len(a[0])
    if not a:
        return Subspace.from_vectors(ncols, identity(ncols))
    rows, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return Subspace.from_vectors(ncols, basis)


def invert(a: Matrix) -> Matrix:
    n = len(a)
    eye = identity(n)
    aug = [a[i] + eye[i] for i in range(n)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]
