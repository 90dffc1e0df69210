"""Exact linear algebra over the rationals.

Matrices are plain ``list[list[Fraction]]`` in row-major order.  Everything here
is deterministic and exact; no floating point is used anywhere.  A few helpers
(``mat_vec``, ``reduce_against``) accept vectors whose entries live in any
commutative ring that supports ``+``, ``*`` and scalar multiplication by
``Fraction`` (polynomial-valued vectors, in practice).
"""

from __future__ import annotations

from fractions import Fraction
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


def nullspace(a: Matrix, ncols: int | None = None) -> Matrix:
    """Canonical basis of the right kernel, one row per basis vector."""
    if ncols is None:
        if not a:
            raise ValueError("ncols required for empty matrix")
        ncols = len(a[0])
    if not a:
        return identity(ncols)
    rows, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    # The construction already yields an RREF-canonical basis up to row order;
    # re-echelonise to make the result canonical regardless of free-column order.
    return rref(basis)[0] if basis else []


def invert(a: Matrix) -> Matrix:
    n = len(a)
    eye = identity(n)
    aug = [a[i] + eye[i] for i in range(n)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def project_matrix(basis_rows: Matrix, ncols: int) -> Matrix:
    """Orthogonal projector onto the row span, as an ``ncols x ncols`` matrix.

    For row basis R this is ``R^T (R R^T)^{-1} R``; exact over Q because
    ``R R^T`` is Gram and hence invertible for independent rows.
    """
    if not basis_rows:
        return zeros(ncols, ncols)
    r = basis_rows
    rt = transpose(r)
    gram = mat_mul(r, rt)
    return mat_mul(mat_mul(rt, invert(gram)), r)


def reduce_against(rref_rows: Matrix, pivots: list[int], v: Sequence) -> list:
    """Subtract the ``rref_rows`` span from ``v``; result is 0 iff v is in the span.

    Works for vectors over any ring containing Q (entries are combined with
    rational coefficients); for Fraction vectors this is plain row reduction.
    """
    w = list(v)
    for row, pc in zip(rref_rows, pivots):
        c = w[pc]
        if c:
            w = [x - y * c for x, y in zip(w, row)]
    return w

