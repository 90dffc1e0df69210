"""Exact rational linear algebra: elimination, projection, membership."""

from fractions import Fraction
import random

import pytest
import sympy

from kuranil.linalg import (
    Subspace,
    identity,
    invert,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    rref,
    transpose,
    zeros,
)


def F(x):
    return Fraction(x)


def _random_matrix(rng, nrows, ncols, lo=-4, hi=4):
    return [[F(rng.randint(lo, hi)) for _ in range(ncols)] for _ in range(nrows)]


def test_rref_known_matrix():
    a = [[F(2), F(4), F(6)], [F(1), F(2), F(4)]]
    rows, pivots = rref(a)
    assert rows == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]
    assert pivots == [0, 2]


def test_rref_zero_matrix_has_no_rows():
    rows, pivots = rref(zeros(3, 4))
    assert rows == [] and pivots == []


def test_rref_pivot_columns_are_unit():
    rng = random.Random(11)
    for _ in range(25):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        rows, pivots = rref(a)
        assert len(rows) == len(pivots)
        for r, p in enumerate(pivots):
            column = [row[p] for row in rows]
            assert column == [F(1) if i == r else F(0) for i in range(len(rows))]
        assert pivots == sorted(pivots)


def test_rref_matches_sympy():
    rng = random.Random(71)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rows, pivots = rref(a)
        expected, expected_pivots = sympy.Matrix(a).rref()
        assert pivots == list(expected_pivots)
        assert rows == [[Fraction(int(x.p), int(x.q)) for x in expected.row(r)]
                        for r in range(len(expected_pivots))]


def test_rank_matches_sympy():
    rng = random.Random(23)
    for _ in range(30):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(a) == sympy.Matrix(a).rank()


def test_nullspace_annihilates_and_has_full_complement():
    rng = random.Random(37)
    for _ in range(20):
        ncols = rng.randint(1, 5)
        a = _random_matrix(rng, rng.randint(1, 5), ncols)
        null = nullspace(a, ncols)
        for v in null.rows:
            assert all(x == 0 for x in mat_vec(a, v))
        assert null.dim == ncols - rank(a)


def test_nullspace_of_empty_matrix_is_identity():
    assert nullspace([], 3).basis() == identity(3)


def test_invert_round_trip():
    rng = random.Random(5)
    found = 0
    while found < 10:
        a = _random_matrix(rng, 3, 3)
        if rank(a) < 3:
            continue
        found += 1
        assert mat_mul(invert(a), a) == identity(3)


def test_invert_rejects_singular():
    with pytest.raises(ValueError):
        invert([[F(1), F(2)], [F(2), F(4)]])


def test_project_matrix_is_idempotent_symmetric_and_fixes_rows():
    rng = random.Random(41)
    for _ in range(10):
        ncols = rng.randint(2, 5)
        a = _random_matrix(rng, rng.randint(1, ncols), ncols)
        space = Subspace.from_vectors(ncols, a)
        if not space.dim:
            continue
        p = space.projector
        assert mat_mul(p, p) == p
        assert transpose(p) == p
        for row in space.rows:
            assert mat_vec(p, row) == list(row)


def test_project_matrix_kills_orthogonal_complement():
    p = Subspace.from_vectors(3, [[F(1), F(0), F(0)]]).projector
    assert mat_vec(p, [F(0), F(5), F(-2)]) == [F(0), F(0), F(0)]


def test_reduce_against_membership():
    space = Subspace.from_vectors(3, [[F(1), F(2), F(0)], [F(0), F(0), F(1)]])
    inside = [F(2), F(4), F(-3)]
    assert space.reduce(inside) == [F(0)] * 3
    outside = [F(0), F(1), F(0)]
    assert space.reduce(outside) != [F(0)] * 3


def test_mat_vec_accepts_polynomial_like_entries():
    # The second argument may hold any ring elements that support x * c.
    class Sym:
        def __init__(self, label):
            self.label = label

        def __mul__(self, c):
            return Sym(f"{self.label}*{c}")

        def __add__(self, other):
            return Sym(f"{self.label}+{other.label}")

    a = [[F(2), F(3)]]
    out = mat_vec(a, [Sym("p"), Sym("q")], zero=Sym("0"))
    assert out[0].label == "0+p*2+q*3"


def test_row_space_spans_original_rows():
    rng = random.Random(59)
    for _ in range(15):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        space = Subspace.from_vectors(len(a[0]), a)
        for row in a:
            assert not any(space.reduce(row))
