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
* ``theta``  — Λ^{0,k} ⊗ (1,0)-vectors, cells are (multi-index, frame index)
  pairs; used when the ambient has a non-trivial (1,1) structure part.

On both complexes a cell is a key of a form's ``terms``: the multi-index of
an ``ExteriorForm``, or the (multi-index, frame index) of a ``VectorForm``.
Over the scalar complex a ``VectorForm``'s multi-indices are the cells, and
its frame indices ride along.  Every operator acts on ``terms`` through its
columns, ``columns[i]`` being the image ``{target index: rational}`` of cell
i, and sums each image coefficient once.  A projector is symmetric, so its
rows are its columns; the columns of ∂̄ and δ are transposed once and kept.

A decomposition's kind fixes its degrees: 0..n on the scalar complex, 0..2
on Θ, which is all the deformation recursion reads.  The ∂̄ matrices are
built with the decomposition; each space B, H or V of a degree is built
when it is first read, and kept.  Dimensions come from ranks: dim B^q =
rank ∂̄_{q−1} = dim V^{q−1}, dim V^q = rank ∂̄_q, and H^q is what remains,
so a Hodge number costs one ``rref`` (of V^q) per degree.  A decomposition
carries its ambient, so it is the one input of every deformation stage, and
only this module reads its kind: the deformation layer sees Θ in both,
through ``h1_theta_basis``, the projections of ``VectorForm``s and the
integer operators, and asks only ``scalar_blocks``, whether Θ is stored as
copies of the scalar complex.
Every form operator reads the degree and the ambient off the form itself.

The ∂̄ matrices are read off the structure constants: the all-barred terms of
the ambient's ``covector_differential`` and, on Θ, its ``vector_delbar``, with
exact rational arithmetic on barred index tuples.  Each degree's cells come
from integer index tuples (I, j), I from ``itertools.combinations`` and j the
frame index on Θ: a cell is built from them and one ``Cov`` per frame index,
and ∂̄ is assembled on the tuples themselves, so no cell is read back into
integers.  The form-level ``delbar`` and ``delbar_theta`` of
``kuranil.exterior`` compute the same maps on polynomial-coefficient forms
and are their test oracle.

δ = ∂̄*G on degree 2: it sends a form to the ∂̄-preimage in V¹ of its exact
part, so δ∘P = δ and ∂̄∘δ = P, and it vanishes on H² ⊕ V².  It is
precomputed as a rational matrix, V(MᵀM)⁻¹Mᵀ for V a basis of V¹ and
M = ∂̄V (``linalg.pseudo_inverse_product``, which also builds every
projector), and applies to every degree-2 form.
Every entry of a ∂̄ matrix, a projector or δ is a canonical rational value
(:func:`~kuranil.polyring.rational`): an ``int`` while it is integral, else
a ``Fraction``, so projections and δ multiply polynomials by ints wherever
they can.

Integer operators.  ``integer_columns`` hands out ∂̄, δ or a projector as
integer columns over one common denominator, and ``integer_rows`` the RREF
rows of a space likewise, with their pivots: the operators that
``kuranil.intforms`` applies to the recursion's integer forms, keyed by
``coordinates``, each denominator taken out once.  The decomposition builds
each of these views on its first read and keeps it, so every kernel over
it, the one a restarted recursion makes included, reads one copy.  The
recursion's split of a bracket sum, s = ∂̄δs + Hs + Vs, and its rebuilding
of a harmonic element from reported ``harmonic_coefficients`` run there
too, on these operators.  They are the matrices above, scaled, and build
nothing the form operators would not.  The orthogonal projector onto H²,
Rᵀ(RRᵀ)⁻¹R, is built (once per decomposition) only when it is first read:
in the recursion, for a bracket sum whose coexact part is dropped.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cached_property

from . import linalg
from .algebra import LieAlgebra
from .exterior import AmbientMismatch, Cov, ExteriorForm, VectorForm
from .polyring import Polynomial, linear_combination, rational


class DegreeMismatch(ValueError):
    pass


class NotALieAlgebra(TypeError):
    """``build_decomposition`` got an ambient that is not a ``LieAlgebra``."""


class HodgeDecomposition:
    """Three-way orthogonal decomposition of a ∂̄-complex, all bases RREF-canonical."""

    def __init__(self, ambient, kind: str):
        if kind not in ("scalar", "theta"):
            raise ValueError(f"unknown complex kind {kind!r}")
        self.ambient = ambient
        self.kind = kind
        n = ambient.complex_dim
        self.max_degree = n if kind == "scalar" else 2
        # per degree, the index tuples (idx, j) of the cells: idx a sorted
        # barred multi-index, j the frame index on Θ and None on the scalar
        # complex; each cell is built from one Cov per frame index
        cov = {i: Cov(i, True) for i in range(1, n + 1)}
        frames = range(1, n + 1) if kind == "theta" else (None,)
        keys: dict[int, list] = {}
        self._cells: dict[int, list] = {}
        for q in range(self.max_degree + 2):
            combos = list(itertools.combinations(range(1, n + 1), q))
            keys[q] = [(idx, j) for idx in combos for j in frames]
            multis = [tuple(cov[i] for i in idx) for idx in combos]
            self._cells[q] = multis if kind == "scalar" else [
                (mi, j) for mi in multis for j in frames]
        self._index = {q: {c: i for i, c in enumerate(cells)}
                       for q, cells in self._cells.items()}
        # ∂̄ω̄^i = Σ c·ω̄^a∧ω̄^b and, on Θ, ∂̄X_j = Σ c·ω̄^a⊗X_k, as (a, b, c)
        # and (a, k, c) triples read once off the ambient
        dbar_cov = {i: [(a, b, c) for a, ba, b, bb, c in ambient.covector_differential(i, True)
                        if ba and bb] for i in range(1, n + 1)}
        dbar_vec = {j: [(a, k, c) for (a, k), c in ambient.vector_delbar(j).items()]
                    for j in range(1, n + 1)} if kind == "theta" else {}
        # D[q]: matrix of ∂̄ from degree q to q+1 (rows = target cells)
        self.d_matrices: dict[int, linalg.Matrix] = {
            q: _build_d(q, keys[q], keys[q + 1], dbar_cov, dbar_vec)
            for q in range(self.max_degree + 1)}
        self._d_columns = {q: linalg.transpose(d, self.dim(q))
                           for q, d in self.d_matrices.items()}
        self._spaces: dict[tuple[int, str], linalg.Subspace] = {}
        self._integer_columns: dict[tuple[int, str], tuple] = {}
        self._integer_rows: dict[tuple[int, str], tuple] = {}

    # -- cells and coordinates -------------------------------------------------

    def coordinates(self, obj, q: int):
        """``(cell index, frame index, coefficient)`` per term of ``obj``, the
        keys of the recursion's integer forms: the frame index is None unless
        ``obj`` is a VectorForm over the scalar complex."""
        index = self._index[q]
        split = self.kind == "scalar" and isinstance(obj, VectorForm)
        for cell, coeff in obj.terms.items():
            key = None
            if split:
                cell, key = cell
            if cell not in index:
                raise DegreeMismatch(f"cell {cell} is not a degree-{q} cell")
            yield index[cell], key, coeff

    def _apply(self, obj, q: int, columns: linalg.Matrix, q_out: int):
        """``obj`` sent from degree q to ``q_out`` by the operator with these
        columns; terms come out by frame index, then by target cell."""
        images: dict = {}
        for i, key, coeff in self.coordinates(obj, q):
            image = images.setdefault(key, {})
            for r, c in columns[i].items():
                image.setdefault(r, []).append((coeff, c))
        cells = self._cells[q_out]
        return type(obj)(self.ambient, {
            cells[r] if key is None else (cells[r], key): linear_combination(image[r])
            for key, image in images.items() for r in sorted(image)})

    # -- construction --------------------------------------------------------

    def _build_space(self, q: int, which: str) -> linalg.Subspace:
        """B, H or V in degree q, built from the ∂̄ matrices."""
        dim_q = self.dim(q)
        d_out = self.d_matrices[q]
        d_in_t = self._d_columns[q - 1] if q else []
        if which == "B":
            # the image of the incoming ∂̄: the row space of its transpose
            return linalg.Subspace.from_vectors(dim_q, d_in_t)
        if which == "H":
            # ker ∂̄ ∩ ker ∂̄*
            return linalg.nullspace(d_out + d_in_t, dim_q)
        # the image of ∂̄* from above: the row space of the outgoing ∂̄
        return linalg.Subspace.from_vectors(dim_q, d_out)

    # -- inspection ----------------------------------------------------------

    def dim(self, q: int) -> int:
        return len(self._cells[q])

    def cells(self, q: int) -> list:
        return list(self._cells[q])

    def _check_degree(self, q: int) -> None:
        if not 0 <= q <= self.max_degree:
            raise DegreeMismatch(f"degree {q} is outside the decomposition's "
                                 f"degrees 0..{self.max_degree}")

    def _space(self, q: int, which: str) -> linalg.Subspace:
        """The space B, H or V of degree q, for q in 0..max_degree, built on
        its first read."""
        self._check_degree(q)
        if which not in ("B", "H", "V"):
            raise ValueError(f"unknown space {which!r}: expected 'B', 'H' or 'V'")
        space = self._spaces.get((q, which))
        if space is None:
            space = self._spaces[q, which] = self._build_space(q, which)
        return space

    def space_dims(self, q: int) -> dict[str, int]:
        """dim B^q = rank ∂̄_{q−1} = dim V^{q−1} and dim V^q = rank ∂̄_q; H is
        what remains of degree q."""
        self._check_degree(q)
        b = self._space(q - 1, "V").dim if q else 0
        v = self._space(q, "V").dim
        return {"B": b, "H": self.dim(q) - b - v, "V": v}

    def harmonic_dim(self, q: int) -> int:
        return self.space_dims(q)["H"]

    def basis(self, q: int, which: str):
        """Basis of B/H/V in degree q, as forms (scalar) or vector forms (theta)."""
        rows = self._space(q, which).rows
        form_type = ExteriorForm if self.kind == "scalar" else VectorForm
        cells = self._cells[q]
        return [form_type(self.ambient, {cells[j]: Polynomial.constant(x) for j, x in row.items()})
                for row in rows]

    def harmonic_pivot_cells(self, q: int) -> list:
        return [self._cells[q][p] for p in self._space(q, "H").pivots]

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
                named += [((cov.index, b), VectorForm.single(h, b))
                          for b in range(1, self.ambient.complex_dim + 1)]
            else:
                (cov,), b = cell
                named.append(((cov.index, b), h))
        return named

    def projector(self, q: int, which: str) -> linalg.Matrix:
        return self._space(q, which).projector

    # -- integer operators ----------------------------------------------------

    @property
    def scalar_blocks(self) -> bool:
        """Whether Θ is stored as copies of the scalar complex, one per frame
        vector, so that a VectorForm's frame indices ride along with its
        cells: the layout of the recursion's integer forms
        (``kuranil.intforms``)."""
        return self.kind == "scalar"

    def integer_columns(self, q: int, operator: str) -> tuple[list[dict[int, int]], int]:
        """``(columns, D)``: an operator on degree-q coordinates as integer
        columns over one denominator D, ``columns[i]`` being D times the
        image ``{target index: rational}`` of cell i.  ``operator`` is
        ``"delbar"`` (∂̄ from degree q to q + 1), ``"delta"`` (δ, from degree
        2 to 1) or one of ``"B"``, ``"H"``, ``"V"`` (the orthogonal projector
        onto that space of degree q).  Each view is built on its first read
        and kept."""
        view = self._integer_columns.get((q, operator))
        if view is None:
            if operator == "delbar":
                self._check_degree(q)
                columns = self._d_columns[q]
            elif operator == "delta":
                if q != 2:
                    raise DegreeMismatch(f"δ acts on degree 2, not {q}")
                columns = self._delta_columns
            else:
                columns = self.projector(q, operator)
            view = self._integer_columns[q, operator] = linalg.integral(columns)
        return view

    def integer_rows(self, q: int, which: str) -> tuple[list[dict[int, int]], tuple[int, ...], int]:
        """``(rows, pivots, D)``: the RREF rows of B, H or V in degree q as
        integer rows over one denominator D (each holds D at its pivot), and
        their pivot columns, built on the first read and kept."""
        view = self._integer_rows.get((q, which))
        if view is None:
            space = self._space(q, which)
            rows, den = linalg.integral(space.rows)
            view = self._integer_rows[q, which] = rows, space.pivots, den
        return view

    # -- projections and membership -------------------------------------------

    def _degree(self, obj) -> int:
        """The one degree of ``obj``'s terms (0 if none), checked to lie in the
        decomposition's degrees; ``obj`` must be a VectorForm on Θ (either
        form type on the scalar complex) over the decomposition's ambient."""
        if self.kind == "theta" and not isinstance(obj, VectorForm):
            raise TypeError(f"the Θ complex acts on VectorForms, not {type(obj).__name__}")
        if obj.ambient is not self.ambient:
            raise AmbientMismatch("form lives over a different ambient than the decomposition")
        degs = obj.degrees()
        if len(degs) > 1:
            raise DegreeMismatch(f"form mixes degrees {sorted(degs)}")
        q = min(degs, default=0)
        self._check_degree(q)
        return q

    def _project(self, obj, which: str):
        q = self._degree(obj)
        space = self._space(q, which)
        # an orthogonal projector is symmetric, so its rows are its columns
        return self._apply(obj, q, space.projector, q) if obj else type(obj)(self.ambient)

    def project_exact(self, obj):
        """P of the decomposition: orthogonal projection onto B ⊗ (vectors)."""
        return self._project(obj, "B")

    def project_harmonic(self, obj):
        """H of the decomposition: orthogonal projection onto the harmonic part."""
        return self._project(obj, "H")

    def project_coexact(self, obj):
        return self._project(obj, "V")

    def in_space(self, obj, which: str) -> bool:
        """Whether ``obj`` lies in B, H or V: whether the coefficient vector
        of each frame key reduces to zero against the space's RREF rows."""
        q = self._degree(obj)
        space = self._space(q, which)
        vectors: dict = {}
        for i, key, coeff in self.coordinates(obj, q):
            vectors.setdefault(key, [0] * space.ambient_dim)[i] = coeff
        return all(space.contains(v) for v in vectors.values())

    def delbar_op(self, obj):
        """∂̄ of ``obj`` from its degree q to q + 1, through the matrix ∂̄."""
        q = self._degree(obj)
        return self._apply(obj, q, self._d_columns[q], q + 1) if obj else type(obj)(self.ambient)

    def is_closed(self, obj) -> bool:
        return not self.delbar_op(obj)

    def harmonic_coefficients(self, obj) -> dict:
        """Nonzero coefficients of a harmonic element against the RREF harmonic
        basis of its degree, read at its pivot cells and keyed ``(basis row,
        frame key)`` as in ``coordinates``: frame keys in order of first
        appearance, then basis rows ascending."""
        q = self._degree(obj)
        if not obj:
            return {}
        row_of = {p: r for r, p in enumerate(self._space(q, "H").pivots)}
        found: dict = {}
        for i, key, coeff in self.coordinates(obj, q):
            rows = found.setdefault(key, {})
            if i in row_of:
                rows[row_of[i]] = coeff
        return {(r, key): rows[r] for key, rows in found.items() for r in sorted(rows)}

    # -- the δ operator -------------------------------------------------------

    def delta_matrix(self) -> linalg.Matrix:
        """Matrix of δ = ∂̄*G: degree-2 coordinates → degree-1 coordinates.

        Built from ∂̄ restricted to V¹, which is injective with image exactly
        B²: δ is its least-squares inverse, so δ∘P = δ and ∂̄∘δ = P exactly.
        Zero map when B² = 0.  Built on each call; ``delta_op`` keeps the
        one copy the analysis reads.
        """
        if self.max_degree < 2:
            raise DegreeMismatch("decomposition does not include degree 2")
        v_rows = self._space(1, "V").rows
        vt = linalg.transpose(v_rows, self.dim(1))
        m = linalg.mat_mul(self.d_matrices[1], vt)      # V¹-coords → degree-2
        return linalg.pseudo_inverse_product(vt, m, len(v_rows))

    @cached_property
    def _delta_columns(self) -> linalg.Matrix:
        return linalg.transpose(self.delta_matrix(), self.dim(2))

    def delta_op(self, obj):
        """∂̄*G of a degree-2 form (⊗ vectors): the unique ∂̄-preimage in V¹ of
        its exact part, zero on its harmonic and coexact parts."""
        self._degree(obj)
        return self._apply(obj, 2, self._delta_columns, 1) if obj else obj


def _build_d(q: int, keys, targets, dbar_cov, dbar_vec) -> linalg.Matrix:
    """∂̄ from degree q to q+1: one column per cell index tuple ``(I, j)`` of
    ``keys``, one row per tuple of ``targets`` (j is None on the scalar
    complex).  By the Leibniz rule on the sorted barred indices I:
    ∂̄ω̄^I = Σ_pos (−1)^pos ∂̄ω̄^{i_pos} ∧ ω̄^{I∖i_pos}, and on Θ
    ∂̄(ω̄^I⊗X_j) = ∂̄ω̄^I⊗X_j + (−1)^q ω̄^I∧∂̄X_j.  The form-level
    ``delbar``/``delbar_theta`` compute the same map and are its oracle."""
    tgt_index = {key: r for r, key in enumerate(targets)}
    mat: linalg.Matrix = [{} for _ in targets]
    for col, (idx, j) in enumerate(keys):
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


def build_decomposition(L) -> HodgeDecomposition:
    """Scalar Hodge decomposition of Λ^{0,•} in every degree 0..n.

    The scalar path of the recursion reads the central series and nilpotency
    index of ``L``, so ``L`` must be a ``LieAlgebra``."""
    if not isinstance(L, LieAlgebra):
        raise NotALieAlgebra(
            f"build_decomposition needs a LieAlgebra, got {type(L).__name__}; "
            "use build_theta_decomposition for a complex structure")
    return HodgeDecomposition(L, "scalar")


def build_theta_decomposition(csa) -> HodgeDecomposition:
    """Decomposition of the vector-valued complex Λ^{0,•} ⊗ (1,0)-vectors in
    degrees 0..2: the deformation recursion needs no more than these and the
    outgoing ∂̄ matrix in degree 2.
    """
    return HodgeDecomposition(csa, "theta")


def hodge_numbers(L) -> list[int]:
    """h^{0,q} for q = 0..n."""
    dec = build_decomposition(L)
    return [dec.harmonic_dim(q) for q in range(L.complex_dim + 1)]

