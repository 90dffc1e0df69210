"""Exact Hodge theory on the finite-dimensional ∂̄-complexes.

With the monomial basis declared orthonormal, the adjoint ∂̄* is the literal
transpose of the ∂̄ matrix and everything stays rational: in each degree k the
space splits orthogonally as

    B^k (image of ∂̄)  ⊕  H^k (harmonic: ker ∂̄ ∩ ker ∂̄*)  ⊕  V^k (image of ∂̄*),

with ker ∂̄ = B^k ⊕ H^k.  The kernel characterization of H^k is exact over the
rationals because x·Δx = |∂̄x|² + |∂̄*x|².

Two complexes are supported through one engine:

* ``scalar`` — Λ^{0,k}, cells are barred multi-indices; used for parallelisable
  algebras where the vector-valued complex is the scalar one tensored with g,
  so one scalar block serves every frame component of a ``VectorForm``.
* ``theta``  — Λ^{0,k} ⊗ (1,0)-vectors, cells are (multi-index, vector) pairs;
  used when the ambient has a non-trivial (1,1) structure part.

On both complexes a cell is a key of a form's ``terms``: the multi-index of
an ``ExteriorForm``, or the (multi-index, vector key) of a ``VectorForm``.
Over the scalar complex a ``VectorForm``'s terms are split by frame key into
scalar coordinate lists, one per frame vector.

``build_decomposition`` covers every degree of the scalar complex;
``build_theta_decomposition`` covers degrees 0..2 of the Θ complex, which is
all the deformation recursion reads.  A decomposition carries its ambient, so
it is the one input of every deformation stage, and only this module reads
its kind: the deformation layer sees Θ in both, through ``h1_theta_basis``
and the projections of ``VectorForm``s.

The ∂̄ matrices are read off the structure constants: the all-barred terms of
the ambient's ``covector_differential`` and, on Θ, its ``vector_delbar``, with
exact rational arithmetic on barred index tuples.  The form-level ``delbar``
and ``delbar_theta`` of ``kuranil.exterior`` compute the same maps on
polynomial-coefficient forms and are their test oracle.

δ inverts P∘∂̄ between V¹ and B² and is precomputed as a rational matrix.
Every entry of a ∂̄ matrix, a projector or δ is a canonical rational value
(:func:`~kuranil.polyring.rational`): an ``int`` while it is integral, else
a ``Fraction``, so projections and δ multiply polynomials by ints wherever
they can.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from . import linalg
from .algebra import LieAlgebra
from .exterior import Cov, ExteriorForm, VectorForm
from .polyring import Polynomial, rational


class PreimageError(ValueError):
    """delta_op input has a component outside B²."""


class DegreeMismatch(ValueError):
    pass


class NotALieAlgebra(TypeError):
    """``build_decomposition`` got an ambient that is not a ``LieAlgebra``."""


class HodgeDecomposition:
    """Three-way orthogonal decomposition of a ∂̄-complex, all bases RREF-canonical."""

    def __init__(self, ambient, kind: str, max_degree: int):
        if kind not in ("scalar", "theta"):
            raise ValueError(f"unknown complex kind {kind!r}")
        self.ambient = ambient
        self.kind = kind
        self.max_degree = max_degree
        n = ambient.complex_dim
        self._cells: dict[int, list] = {}
        for q in range(max_degree + 2):
            self._cells[q] = self._make_cells(q) if q <= n else []
        self._index = {q: {c: i for i, c in enumerate(cells)}
                       for q, cells in self._cells.items()}
        # ∂̄ω̄^i = Σ c·ω̄^a∧ω̄^b and, on Θ, ∂̄X_j = Σ c·ω̄^a⊗X_k, as (a, b, c)
        # and (a, k, c) triples read once off the ambient
        dbar_cov = {i: [(a, b, c) for a, ba, b, bb, c in ambient.covector_differential(i, True)
                        if ba and bb] for i in range(1, n + 1)}
        dbar_vec = {j: [(a, k, c) for (a, (k, _)), c in ambient.vector_delbar(j).items()]
                    for j in range(1, n + 1)} if kind == "theta" else {}
        # D[q]: matrix of ∂̄ from degree q to q+1 (rows = target cells)
        self.d_matrices: dict[int, linalg.Matrix] = {
            q: self._build_d(q, dbar_cov, dbar_vec) for q in range(max_degree + 1)}
        self._spaces = {q: self._decompose(q) for q in range(max_degree + 1)}
        self._delta_matrix: linalg.Matrix | None = None

    # -- cells and coordinates -------------------------------------------------

    def _make_cells(self, q: int) -> list:
        n = self.ambient.complex_dim
        multis = [tuple(Cov(i, True) for i in combo)
                  for combo in itertools.combinations(range(1, n + 1), q)]
        if self.kind == "scalar":
            return multis
        return [(mi, (j, False)) for mi in multis for j in range(1, n + 1)]

    def _per_component(self, obj, q: int, fn):
        """``(frame key, fn(degree-q coordinates))`` pairs, lazily.

        A cell is a key of ``obj.terms``, except that a VectorForm over the
        scalar complex is split by frame key, its multi-indices being the
        cells; any other object is one part with key None."""
        index = self._index[q]
        zeros = [Polynomial.zero()] * len(index)
        split = self.kind == "scalar" and isinstance(obj, VectorForm)
        parts: dict = {} if split else {None: list(zeros)}
        for cell, coeff in obj.terms.items():
            key = None
            if split:
                cell, key = cell
            if cell not in index:
                raise DegreeMismatch(f"cell {cell} is not a degree-{q} cell")
            coords = parts.get(key)
            if coords is None:
                coords = parts[key] = list(zeros)
            coords[index[cell]] = coeff
        return ((key, fn(coords)) for key, coords in parts.items())

    def _map(self, obj, q: int, fn, q_out: int):
        """``obj`` with its degree-q coordinates sent by ``fn`` to degree ``q_out``."""
        cells = self._cells[q_out]
        terms = {}
        for key, image in self._per_component(obj, q, fn):
            for cell, coeff in zip(cells, image):
                if coeff:
                    terms[cell if key is None else (cell, key)] = coeff
        return type(obj)(self.ambient, terms)

    # -- construction --------------------------------------------------------

    def _index_key(self, cell) -> tuple[tuple[int, ...], int | None]:
        """The sorted barred indices of a cell, and its vector index (None on
        the scalar complex)."""
        if self.kind == "scalar":
            return tuple(cv.index for cv in cell), None
        mi, (j, _) = cell
        return tuple(cv.index for cv in mi), j

    def _build_d(self, q: int, dbar_cov, dbar_vec) -> linalg.Matrix:
        """∂̄ from degree q to q+1 by the Leibniz rule on sorted barred index
        tuples I: ∂̄ω̄^I = Σ_pos (−1)^pos ∂̄ω̄^{i_pos} ∧ ω̄^{I∖i_pos}, and on Θ
        ∂̄(ω̄^I⊗X_j) = ∂̄ω̄^I⊗X_j + (−1)^q ω̄^I∧∂̄X_j.  The form-level
        ``delbar``/``delbar_theta`` compute the same map and are its oracle."""
        tgt_index = {self._index_key(cell): r for r, cell in enumerate(self._cells[q + 1])}
        mat: linalg.Matrix = [{} for _ in tgt_index]
        for col, cell in enumerate(self._cells[q]):
            idx, j = self._index_key(cell)
            image: dict = {}
            for pos, i in enumerate(idx):
                rest = idx[:pos] + idx[pos + 1:]
                for a, b, c in dbar_cov[i]:
                    if a in rest or b in rest:
                        continue
                    # transpositions sorting (a, b, *rest), plus pos
                    swaps = pos + (a > b) + bisect_left(rest, a) + bisect_left(rest, b)
                    key = (tuple(sorted(rest + (a, b))), j)
                    image[key] = image.get(key, 0) + (-c if swaps % 2 else c)
            for a, k, c in dbar_vec.get(j, ()):
                if a in idx:
                    continue
                # (−1)^q, and the transpositions moving ω̄^a into place
                swaps = q + len(idx) - bisect_left(idx, a)
                key = (tuple(sorted(idx + (a,))), k)
                image[key] = image.get(key, 0) + (-c if swaps % 2 else c)
            for key, x in image.items():
                if x:
                    mat[tgt_index[key]][col] = rational(x)
        return mat

    def _decompose(self, q: int) -> dict[str, linalg.Subspace]:
        """B, H and V in degree q."""
        dim_q = self.dim(q)
        d_out = self.d_matrices[q]
        d_in_t = linalg.transpose(self.d_matrices[q - 1], self.dim(q - 1)) if q else []
        return {
            # B = image of the incoming ∂̄ = row space of its transpose
            "B": linalg.Subspace.from_vectors(dim_q, d_in_t),
            # H = ker ∂̄ ∩ ker ∂̄*
            "H": linalg.nullspace(d_out + d_in_t, dim_q),
            # V = image of ∂̄* from above = row space of the outgoing ∂̄
            "V": linalg.Subspace.from_vectors(dim_q, d_out),
        }

    # -- inspection ----------------------------------------------------------

    def dim(self, q: int) -> int:
        return len(self._cells[q])

    def cells(self, q: int) -> list:
        return list(self._cells[q])

    def space_dims(self, q: int) -> dict[str, int]:
        return {which: space.dim for which, space in self._spaces[q].items()}

    def harmonic_dim(self, q: int) -> int:
        return self._spaces[q]["H"].dim

    def basis(self, q: int, which: str):
        """Basis of B/H/V in degree q, as forms (scalar) or vector forms (theta)."""
        form_type = ExteriorForm if self.kind == "scalar" else VectorForm
        cells = self._cells[q]
        return [form_type(self.ambient, {cells[j]: Polynomial.constant(x) for j, x in row.items()})
                for row in self._spaces[q][which].rows]

    def harmonic_pivot_cells(self, q: int) -> list:
        return [self._cells[q][p] for p in self._spaces[q]["H"].pivots]

    def h1_theta_basis(self) -> list[tuple[tuple[int, int], VectorForm]]:
        """The RREF harmonic basis of Θ in degree 1, each element named
        ``(a, b)`` by its pivot cell ω̄^a ⊗ X_b.

        On the scalar complex Θ is n copies of it, one per frame vector, so
        the harmonic 1-form h with pivot ω̄^a gives h ⊗ X_b for b = 1..n, in
        the order the Θ complex's own RREF lists them."""
        named = []
        for h, cell in zip(self.basis(1, "H"), self.harmonic_pivot_cells(1)):
            if self.kind == "scalar":
                (cov,) = cell
                named += [((cov.index, b), VectorForm.single(self.ambient, h, b))
                          for b in range(1, self.ambient.complex_dim + 1)]
            else:
                (cov,), (b, _) = cell
                named.append(((cov.index, b), h))
        return named

    def pivot_columns(self, q: int, which: str) -> list[int]:
        """Pivot coordinates of the RREF basis of B/H/V in degree q.

        Because the basis is RREF, the coefficient of an element of the space
        against basis row r is its coordinate at pivot column r."""
        return list(self._spaces[q][which].pivots)

    def projector(self, q: int, which: str) -> linalg.Matrix:
        return self._spaces[q][which].projector

    # -- projections and membership -------------------------------------------

    def _single_degree(self, obj) -> int:
        degs = obj.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise DegreeMismatch(f"form mixes degrees {sorted(degs)}")
        (q,) = degs
        if q > self.max_degree:
            raise DegreeMismatch(f"degree {q} exceeds decomposition cap {self.max_degree}")
        return q

    def _project_obj(self, obj, which: str, q: int | None = None):
        if q is None:
            q = self._single_degree(obj)
        return self._map(obj, q, lambda coords: linalg.mat_vec(
            self.projector(q, which), coords, zero=Polynomial.zero()), q)

    def project_exact(self, obj, q: int | None = None):
        """P of the decomposition: orthogonal projection onto B ⊗ (vectors)."""
        return self._project_obj(obj, "B", q)

    def project_harmonic(self, obj, q: int | None = None):
        """H of the decomposition: orthogonal projection onto the harmonic part."""
        return self._project_obj(obj, "H", q)

    def project_coexact(self, obj, q: int | None = None):
        return self._project_obj(obj, "V", q)

    def in_space(self, obj, which: str, q: int | None = None) -> bool:
        if q is None:
            q = self._single_degree(obj)
        space = self._spaces[q][which]
        return all(not any(reduced) for _, reduced in self._per_component(obj, q, space.reduce))

    def is_closed(self, obj, q: int | None = None) -> bool:
        if q is None:
            q = self._single_degree(obj)
        return all(not any(image) for _, image in self._per_component(
            obj, q, lambda coords: linalg.mat_vec(
                self.d_matrices[q], coords, zero=Polynomial.zero())))

    def harmonic_coefficients(self, obj, q: int = 2) -> dict:
        """Nonzero coefficients of a harmonic element against the RREF harmonic
        basis of degree q (see ``pivot_columns``), keyed ``(basis row, frame
        key)``: over the scalar complex a VectorForm is split frame vector by
        frame vector, and otherwise the frame key is None."""
        if not obj:
            return {}
        pivots = self.pivot_columns(q, "H")
        return {(r, key): coords[p]
                for key, coords in self._per_component(obj, q, lambda coords: coords)
                for r, p in enumerate(pivots) if coords[p]}

    # -- the δ operator -------------------------------------------------------

    def delta_matrix(self) -> linalg.Matrix:
        """Matrix of δ = (P∘∂̄)⁻¹: degree-2 coordinates → degree-1 coordinates.

        Built from ∂̄ restricted to V¹, which is injective with image exactly B².
        Zero map when B² = 0.
        """
        if self._delta_matrix is None:
            if self.max_degree < 2:
                raise DegreeMismatch("decomposition does not include degree 2")
            v_rows = self._spaces[1]["V"].rows
            if not v_rows:
                self._delta_matrix = [{} for _ in range(self.dim(1))]
            else:
                vt = linalg.transpose(v_rows, self.dim(1))
                m = linalg.mat_mul(self.d_matrices[1], vt)      # V¹-coords → degree-2
                mt = linalg.transpose(m, len(v_rows))
                gram_inv = linalg.invert(linalg.mat_mul(mt, m))
                self._delta_matrix = linalg.mat_mul(vt, linalg.mat_mul(gram_inv, mt))
        return self._delta_matrix

    def delta_op(self, obj):
        """Unique ∂̄-preimage in V¹ of an element of B² (⊗ vectors)."""
        if not obj:
            return obj
        if not self.in_space(obj, "B", 2):
            raise PreimageError("delta_op input has a component outside the exact part")
        return self._map(obj, 2, lambda coords: linalg.mat_vec(
            self.delta_matrix(), coords, zero=Polynomial.zero()), 1)


def build_decomposition(L) -> HodgeDecomposition:
    """Scalar Hodge decomposition of Λ^{0,•} in every degree 0..n.

    The scalar path of the recursion reads the central series and nilpotency
    index of ``L``, so ``L`` must be a ``LieAlgebra``."""
    if not isinstance(L, LieAlgebra):
        raise NotALieAlgebra(
            f"build_decomposition needs a LieAlgebra, got {type(L).__name__}; "
            "use build_theta_decomposition for a complex structure")
    return HodgeDecomposition(L, "scalar", L.complex_dim)


def build_theta_decomposition(csa) -> HodgeDecomposition:
    """Decomposition of the vector-valued complex Λ^{0,•} ⊗ (1,0)-vectors in
    degrees 0..2: the deformation recursion needs no more than these and the
    outgoing ∂̄ matrix in degree 2.
    """
    return HodgeDecomposition(csa, "theta", 2)


def hodge_numbers(L) -> list[int]:
    """h^{0,q} for q = 0..n."""
    dec = build_decomposition(L)
    return [dec.harmonic_dim(q) for q in range(L.complex_dim + 1)]


def theta_cohomology_dims(L) -> list[int]:
    """h^q(Θ) = h^{0,q} · dim g for q = 0..n."""
    n = L.complex_dim
    return [h * n for h in hodge_numbers(L)]
