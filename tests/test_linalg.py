"""Exact rational linear algebra on sparse rows: elimination, projection,
membership, checked against sympy and a dense reference written here."""

import copy
from fractions import Fraction
from pathlib import Path
import random
import sys

from hypothesis import example, given, settings, strategies as st
import pytest
import sympy

from kuranil.algebra import parse_salamon, to_complex_structure
from kuranil.hodge import build_decomposition, build_theta_decomposition
from kuranil.linalg import (
    Subspace,
    identity,
    invert,
    mat_mul,
    nullspace,
    pseudo_inverse_product,
    rank,
    rref,
    transpose,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import ALGEBRAS as PERFBENCH_ALGEBRAS  # noqa: E402


def F(x):
    return Fraction(x)


def _sparse(a):
    """Dense rows as sparse rows (nonzeros only)."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def _dense(a, ncols):
    return [[row.get(j, F(0)) for j in range(ncols)] for row in a]


def _mat_vec(a, v):
    """Sparse rows times a dense vector, as a dense list."""
    return [sum((x * v[j] for j, x in row.items()), F(0)) for row in a]


def _random_matrix(rng, nrows, ncols, lo=-4, hi=4):
    return [[F(rng.randint(lo, hi)) for _ in range(ncols)] for _ in range(nrows)]


def _sympy_rref(a, ncols):
    """RREF rows (sparse) and pivots of a dense matrix, by sympy."""
    if not a or not ncols:
        return [], []
    expected, pivots = sympy.Matrix(a).rref()
    rows = [[Fraction(int(x.p), int(x.q)) for x in expected.row(r)]
            for r in range(len(pivots))]
    return _sparse(rows), list(pivots)


def _dense_rref(a):
    """Textbook Gauss–Jordan on dense rows: the reference for ``rref``."""
    m = [row[:] for row in a]
    ncols = len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return _sparse(m[:r]), pivots


def test_rref_known_matrix():
    a = _sparse([[F(2), F(4), F(6)], [F(1), F(2), F(4)]])
    rows, pivots = rref(a)
    assert rows == _sparse([[F(1), F(2), F(0)], [F(0), F(0), F(1)]])
    assert pivots == [0, 2]


def test_rref_zero_matrix_has_no_rows():
    rows, pivots = rref([{}, {}, {}])
    assert rows == [] and pivots == []


def test_rref_pivot_columns_are_unit():
    rng = random.Random(11)
    for _ in range(25):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        rows, pivots = rref(_sparse(a))
        assert len(rows) == len(pivots)
        for r, p in enumerate(pivots):
            column = [row.get(p, F(0)) for row in rows]
            assert column == [F(1) if i == r else F(0) for i in range(len(rows))]
        assert pivots == sorted(pivots)


def test_rref_matches_sympy():
    rng = random.Random(71)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rref(_sparse(a)) == _sympy_rref(a, len(a[0]))


def test_rank_matches_sympy():
    rng = random.Random(23)
    for _ in range(30):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(_sparse(a)) == sympy.Matrix(a).rank()


def test_nullspace_annihilates_and_has_full_complement():
    rng = random.Random(37)
    for _ in range(20):
        ncols = rng.randint(1, 5)
        a = _sparse(_random_matrix(rng, rng.randint(1, 5), ncols))
        null = nullspace(a, ncols)
        for v in _dense(null.rows, ncols):
            assert all(x == 0 for x in _mat_vec(a, v))
        assert null.dim == ncols - rank(a)


def test_nullspace_of_empty_matrix_is_identity():
    assert list(nullspace([], 3).rows) == identity(3)


def test_invert_round_trip():
    rng = random.Random(5)
    found = 0
    while found < 10:
        a = _sparse(_random_matrix(rng, 3, 3))
        if rank(a) < 3:
            continue
        found += 1
        assert mat_mul(invert(a), a) == identity(3)


def test_invert_rejects_singular():
    with pytest.raises(ValueError):
        invert(_sparse([[F(1), F(2)], [F(2), F(4)]]))


def test_project_matrix_is_idempotent_symmetric_and_fixes_rows():
    rng = random.Random(41)
    for _ in range(10):
        ncols = rng.randint(2, 5)
        a = _sparse(_random_matrix(rng, rng.randint(1, ncols), ncols))
        space = Subspace.from_vectors(ncols, a)
        if not space.dim:
            continue
        p = space.projector
        assert mat_mul(p, p) == p
        assert transpose(p, ncols) == p
        for row in _dense(space.rows, ncols):
            assert _mat_vec(p, row) == list(row)


def test_project_matrix_kills_orthogonal_complement():
    p = Subspace.from_vectors(3, [{0: F(1)}]).projector
    assert _mat_vec(p, [F(0), F(5), F(-2)]) == [F(0), F(0), F(0)]


def test_reduce_against_membership():
    space = Subspace.from_vectors(3, _sparse([[F(1), F(2), F(0)], [F(0), F(0), F(1)]]))
    inside = [F(2), F(4), F(-3)]
    assert space.reduce(inside) == [F(0)] * 3
    outside = [F(0), F(1), F(0)]
    assert space.reduce(outside) != [F(0)] * 3


def test_row_space_spans_original_rows():
    rng = random.Random(59)
    for _ in range(15):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        space = Subspace.from_vectors(len(a[0]), _sparse(a))
        for row in a:
            assert not any(space.reduce(row))


def test_from_vectors_rejects_columns_outside_the_ambient_space():
    with pytest.raises(ValueError):
        Subspace.from_vectors(2, [{2: F(1)}])


@pytest.mark.parametrize("call", [
    lambda: nullspace([{1: 1, 5: 2}], 3),
    lambda: nullspace([{5: 1}], 3),
    lambda: nullspace([{-1: 1}], 3),
    lambda: invert([{0: 1, 2: 5}, {1: 1}]),
    lambda: invert([{0: 1, 3: 5}, {1: 1}]),
], ids=["nullspace-mixed", "nullspace-outside", "nullspace-negative",
        "invert-augmented-column", "invert-past-augmented"])
def test_nullspace_and_invert_reject_entries_outside_their_columns(call):
    """An entry past the columns is refused, not read as a column of the
    augmented block or dropped."""
    with pytest.raises(ValueError, match="outside the columns"):
        call()


# -- sparse matrices: hypothesis against sympy and the dense reference --------

_ENTRIES = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))


@st.composite
def _sparse_matrices(draw, max_dim=30):
    """``(rows, ncols)``: up to ``max_dim`` × ``max_dim`` at 5–15 % density,
    empty, wide and tall shapes included, with zero and repeated rows; or in
    the shape of a ∂̄ matrix, up to 5·``max_dim`` rows and half as many
    columns at most 2 % density, its entries in at most half of the rows."""
    if draw(st.booleans()):
        nrows = draw(st.integers(0, 5 * max_dim))
        ncols = draw(st.integers(0, 5 * max_dim // 2))
        rows = [{} for _ in range(nrows)]
        if nrows and ncols:
            rng = draw(st.randoms(use_true_random=False))
            filled = rng.sample(range(nrows), rng.randint(1, max(1, nrows // 2)))
            density = draw(st.sampled_from((0.005, 0.01, 0.02)))
            for _ in range(max(1, round(density * nrows * ncols))):
                rows[rng.choice(filled)][rng.randrange(ncols)] = Fraction(
                    rng.choice((-5, -3, -2, -1, 1, 2, 4)), rng.randint(1, 3))
        return [dict(sorted(row.items())) for row in rows], ncols
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    rows = [{} for _ in range(nrows)]
    if nrows and ncols:
        density = draw(st.sampled_from((0.05, 0.10, 0.15)))
        count = max(1, round(density * nrows * ncols))
        for _ in range(count):
            i = draw(st.integers(0, nrows - 1))
            j = draw(st.integers(0, ncols - 1))
            rows[i][j] = draw(_ENTRIES)
        for _ in range(draw(st.integers(0, 3))):
            src, dst = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
            rows[dst] = dict(rows[src])           # a repeated row
        for _ in range(draw(st.integers(0, 2))):
            rows[draw(st.integers(0, nrows - 1))] = {}  # a zero row
    return [dict(sorted(row.items())) for row in rows], ncols


# Back-elimination by {1, 2} fills row 0 at column 2, which the next row makes
# a pivot column; in the second case it cancels row 0's entry at column 2.
_FILL_IN = ([{0: F(1), 1: F(1)}, {}, {1: F(1), 2: F(1)}, {2: F(1), 3: F(2)}], 4)
_CANCEL = ([{0: F(1), 1: F(1), 2: F(1)}, {1: F(1), 2: F(1)}, {2: F(1), 3: F(2)}], 4)

_ORACLE = settings(derandomize=True, deadline=None, max_examples=60)


@_ORACLE
@given(_sparse_matrices())
@example(_FILL_IN)
@example(_CANCEL)
def test_sparse_rref_matches_dense_reference_and_leaves_input_alone(case):
    a, ncols = case
    before = copy.deepcopy(a)
    rows, pivots = rref(a)
    assert a == before
    assert (rows, pivots) == _dense_rref(_dense(a, ncols))
    assert rank(a) == len(pivots)
    for row, p in zip(rows, pivots):
        assert min(row) == p and row[p] == 1
        assert list(row) == sorted(row) and all(row.values())


@_ORACLE
@given(_sparse_matrices(max_dim=12))
@example(_FILL_IN)
@example(_CANCEL)
def test_sparse_rref_and_nullspace_match_sympy(case):
    a, ncols = case
    dense = _dense(a, ncols)
    assert rref(a) == _sympy_rref(dense, ncols)
    null = nullspace(a, ncols)
    if a and ncols:
        kernel = sympy.Matrix(dense).nullspace()
        expected = [[Fraction(int(x.p), int(x.q)) for x in v] for v in kernel]
    else:
        expected = [[F(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    assert null.dim == len(expected)
    assert (list(null.rows), list(null.pivots)) == _dense_rref(expected)
    for v in _dense(null.rows, ncols):
        assert not any(_mat_vec(a, v))


@_ORACLE
@given(_sparse_matrices())
def test_sparse_products_match_dense_reference(case):
    a, ncols = case
    dense = _dense(a, ncols)
    at = transpose(a, ncols)
    assert _dense(at, len(a)) == [[row[j] for row in dense] for j in range(ncols)]
    assert transpose(at, len(a)) == a
    product = mat_mul(a, at)
    assert _dense(product, len(a)) == [
        [sum((x * y for x, y in zip(r1, r2) if x and y), F(0)) for r2 in dense]
        for r1 in dense]
    assert all(all(row.values()) and list(row) == sorted(row) for row in product)


@_ORACLE
@given(_sparse_matrices(max_dim=12), st.randoms(use_true_random=False))
def test_sparse_invert_matches_sympy(case, rng):
    """An upper triangular matrix with a nonzero diagonal is invertible,
    also with its columns permuted; a sparse random square one usually is
    not, and must be refused."""
    a, _ = case
    n = len(a)
    perm = list(range(n))
    rng.shuffle(perm)
    m = [{perm[i]: F(rng.choice((-2, -1, 1, 3)))} for i in range(n)]
    for i, row in enumerate(a):
        m[i].update((perm[j], x) for j, x in row.items() if i < j < n)
    inverse = invert(m)
    assert mat_mul(inverse, m) == identity(n) and mat_mul(m, inverse) == identity(n)
    if n:
        expected = sympy.Matrix(_dense(m, n)).inv()
        assert _dense(inverse, n) == [[Fraction(int(x.p), int(x.q)) for x in expected.row(r)]
                                      for r in range(n)]
    square = [{j: x for j, x in row.items() if j < n} for row in a]
    if n and rank(square) < n:
        with pytest.raises(ValueError):
            invert(square)



def _dense_mul(a, b):
    return [[sum((x * row[j] for x, row in zip(r, b)), F(0)) for j in range(len(b[0]))]
            for r in a]


def _dense_pseudo_inverse_product(v, m, k):
    """V (MᵀM)⁻¹ Mᵀ on dense rows of k entries, with the inverse of MᵀM
    read off the dense reference's RREF of [MᵀM | I]: the reference for
    ``pseudo_inverse_product``."""
    if not k:
        return [[F(0)] * len(m) for _ in v]
    mt = [[row[j] for row in m] for j in range(k)]
    augmented = [row + [F(int(i == j)) for j in range(k)]
                 for i, row in enumerate(_dense_mul(mt, m))]
    inverse = [[row.get(k + j, F(0)) for j in range(k)] for row in _dense_rref(augmented)[0]]
    return _dense_mul(v, _dense_mul(inverse, mt))


@_ORACLE
@given(_sparse_matrices(max_dim=12), st.randoms(use_true_random=False))
def test_pseudo_inverse_product_matches_dense_reference(case, rng):
    """M with independent columns, the transpose of the RREF rows of a drawn
    matrix; V = M, the projector's square case, and V of other rows, the
    shape of δ.  A drawn matrix of rank 0 gives no columns and the zero
    matrix, one empty row per row of V."""
    a, ncols = case
    rows = rref(a)[0]
    k = len(rows)
    m = transpose(rows, ncols)
    other = [{j: F(rng.choice((-3, -1, 1, 2))) for j in range(k) if rng.random() < 0.4}
             for _ in range(rng.randint(1, 8))]
    for v in (m, other):
        result = pseudo_inverse_product(v, m, k)
        assert len(result) == len(v)
        assert _dense(result, len(m)) == _dense_pseudo_inverse_product(
            _dense(v, k), _dense(m, k), k)
        assert all(all(row.values()) and list(row) == sorted(row) for row in result)
    if not k:
        assert pseudo_inverse_product(other, m, 0) == [{} for _ in other]
    else:
        assert pseudo_inverse_product(m, m, k) == Subspace.from_vectors(ncols, a).projector


@pytest.mark.parametrize("text", ["(0,0,12,13)", "(0,0,0,12,13+24)", "(0,0,12,13,14+23)"])
def test_pseudo_inverse_product_of_the_real_delta_matches_dense_reference(text):
    """δ's own inputs: V the transpose of V¹'s rows and M = ∂̄·V, of more
    rows than columns, on both complexes."""
    L = parse_salamon(text)
    for dec in (build_decomposition(L), build_theta_decomposition(to_complex_structure(L))):
        rows, _, den = dec.integer_rows(1, "V")
        k = len(rows)
        vt = transpose([{j: Fraction(x, den) for j, x in row.items()} for row in rows],
                       dec.dim(1))
        m = mat_mul(dec.d_matrices[1], vt)
        assert len(m) > k
        result = pseudo_inverse_product(vt, m, k)
        assert _dense(result, len(m)) == _dense_pseudo_inverse_product(
            _dense(vt, k), _dense(m, k), k)
        assert result == dec.delta_matrix()


def _mixed(rows, rng):
    """``rows`` with each integral entry, at random, as an ``int``."""
    return [{j: x.numerator if x.denominator == 1 and rng.random() < 0.5 else x
             for j, x in row.items()} for row in rows]


def _all_canonical(rows):
    return all(type(x) is (int if x.denominator == 1 else Fraction)
               for row in rows for x in row.values())


@_ORACLE
@given(_sparse_matrices(max_dim=12), st.randoms(use_true_random=False))
def test_mixed_int_and_fraction_entries_give_canonical_results(case, rng):
    """Entries given as ints where integral, or as Fractions, mixed at random:
    each result holds an int exactly where an entry is integral, and equals
    the same computation on ``Fraction`` entries only."""
    a, ncols = case
    rows = rref(a)[0]
    gram = [{j: Fraction(x) for j, x in row.items()}
            for row in mat_mul(rows, transpose(rows, ncols))]
    for name, op, m in (
        ("rref", lambda m: rref(m)[0], a),
        ("mat_mul", lambda m: mat_mul(m, transpose(m, ncols)), a),
        ("nullspace", lambda m: list(nullspace(m, ncols).rows), a),
        ("projector", lambda m: Subspace.from_vectors(ncols, m).projector, a),
        ("invert", invert, gram),
    ):
        expected, result = op(m), op(_mixed(m, rng))
        assert result == expected, name
        assert _all_canonical(result) and _all_canonical(expected), name


# -- the real ∂̄ matrices against the dense reference and sympy -----------------

def _real_delbar_matrices() -> list:
    """``(id, rows, ncols)`` for each distinct nonzero ∂̄ matrix of the
    perfbench ``ALGEBRAS``, on the scalar and the Θ complex, and for its
    transpose: the row sets the Hodge layer echelonises (V from ∂̄'s rows, B
    from its transpose's).  Up to 448 × 224, of rank up to 128."""
    found: dict = {}
    for text in PERFBENCH_ALGEBRAS:
        L = parse_salamon(text)
        for kind, dec in (("scalar", build_decomposition(L)),
                          ("theta", build_theta_decomposition(to_complex_structure(L)))):
            for q, d in dec.d_matrices.items():
                for side, rows, ncols in (("rows", d, dec.dim(q)),
                                          ("transpose", transpose(d, dec.dim(q)), len(d))):
                    key = (ncols, tuple(tuple(row.items()) for row in rows))
                    if any(rows) and key not in found:
                        found[key] = (f"{kind}-{text}-d{q}-{side}", rows, ncols)
    return list(found.values())


REAL_DELBAR = _real_delbar_matrices()


@pytest.mark.parametrize("rows, ncols", [(rows, ncols) for _, rows, ncols in REAL_DELBAR],
                         ids=[name for name, _, _ in REAL_DELBAR])
def test_rref_of_the_real_delbar_matrices_matches_the_references(rows, ncols):
    """The sparse ``rref`` with its column index, on the matrices it gets in
    practice: against the dense reference on every one, and against sympy
    where the matrix has at most 600 entries."""
    dense = [[Fraction(x) for x in row] for row in _dense(rows, ncols)]
    result = rref(rows)
    assert result == _dense_rref(dense)
    if len(rows) * ncols <= 600:
        assert result == _sympy_rref(dense, ncols)
