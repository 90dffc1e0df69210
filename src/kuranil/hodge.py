"""Exact Hodge theory on the finite-dimensional ∂̄-complexes.

With the monomial basis declared orthonormal, the adjoint ∂̄* is the literal
transpose of the ∂̄ matrix and everything stays rational: in each degree k the
space splits orthogonally as

    B^k (image of ∂̄)  ⊕  H^k (harmonic: ker ∂̄ ∩ ker ∂̄*)  ⊕  V^k (image of ∂̄*),

with ker ∂̄ = B^k ⊕ H^k.  The kernel characterization of H^k is exact over the
rationals because x·Δx = |∂̄x|² + |∂̄*x|².

Two complexes are supported through one engine:

* ``scalar`` — Λ^{0,k}, cells are barred multi-indices; used for parallelisable
  algebras where the vector-valued complex is the scalar one tensored with g.
* ``theta``  — Λ^{0,k} ⊗ (1,0)-vectors, cells are (multi-index, vector) pairs;
  used when the ambient has a non-trivial (1,1) structure part.

δ inverts P∘∂̄ between V¹ and B² and is precomputed as a rational matrix.
"""

from __future__ import annotations

import itertools

from . import linalg
from .exterior import Cov, ExteriorForm, MultiIndex, VectorForm, VectorKey
from .polyring import Polynomial


class PreimageError(ValueError):
    """delta_op input has a component outside B²."""


class DegreeMismatch(ValueError):
    pass


_SPACES = ("B", "H", "V")


class _DegreeData:
    __slots__ = ("cells", "index", "bases", "pivots", "projectors")

    def __init__(self, cells: list):
        self.cells = cells
        self.index = {c: i for i, c in enumerate(cells)}
        self.bases: dict[str, linalg.Matrix] = {}
        self.pivots: dict[str, list[int]] = {}
        self.projectors: dict[str, linalg.Matrix | None] = {s: None for s in _SPACES}


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
        # D[q]: matrix of ∂̄ from degree q to q+1 (rows = target cells)
        self.d_matrices: dict[int, linalg.Matrix] = {}
        for q in range(max_degree + 1):
            self.d_matrices[q] = self._build_d(q)
        self._data: dict[int, _DegreeData] = {}
        for q in range(max_degree + 1):
            self._data[q] = self._decompose(q)
        self._delta_matrix: linalg.Matrix | None = None

    # -- construction --------------------------------------------------------

    def _make_cells(self, q: int) -> list:
        n = self.ambient.complex_dim
        multis = [tuple(Cov(i, True) for i in combo)
                  for combo in itertools.combinations(range(1, n + 1), q)]
        if self.kind == "scalar":
            return multis
        return [(mi, (j, False)) for mi in multis for j in range(1, n + 1)]

    def _cell_to_object(self, q: int, cell):
        if self.kind == "scalar":
            return ExteriorForm(self.ambient, {cell: Polynomial.one()})
        mi, (j, barred) = cell
        return VectorForm.single(self.ambient, ExteriorForm(self.ambient, {mi: Polynomial.one()}),
                                 j, barred)

    def _apply_d(self, obj):
        if self.kind == "scalar":
            return obj.delbar()
        return obj.delbar_theta()

    def _object_coords(self, q: int, obj) -> list[Polynomial]:
        data = self._data.get(q)
        cells = self._cells[q]
        index = data.index if data else {c: i for i, c in enumerate(cells)}
        coords = [Polynomial.zero()] * len(cells)
        if self.kind == "scalar":
            items = obj.terms.items()
            for mi, coeff in items:
                if mi not in index:
                    raise DegreeMismatch(f"multi-index {mi} is not a degree-{q} cell")
                coords[index[mi]] = coords[index[mi]] + coeff
        else:
            for key, form in obj.components.items():
                for mi, coeff in form.terms.items():
                    cell = (mi, key)
                    if cell not in index:
                        raise DegreeMismatch(f"cell {cell} is not a degree-{q} cell")
                    coords[index[cell]] = coords[index[cell]] + coeff
        return coords

    def _coords_to_object(self, q: int, coords):
        if self.kind == "scalar":
            return ExteriorForm(self.ambient,
                                {cell: c for cell, c in zip(self._cells[q], coords) if c})
        comps: dict[VectorKey, dict[MultiIndex, Polynomial]] = {}
        for cell, c in zip(self._cells[q], coords):
            if not c:
                continue
            mi, key = cell
            comps.setdefault(key, {})[mi] = c
        return VectorForm(self.ambient,
                          {key: ExteriorForm(self.ambient, terms) for key, terms in comps.items()})

    def _build_d(self, q: int) -> linalg.Matrix:
        src = self._cells[q]
        tgt = self._cells[q + 1]
        tgt_index = {c: i for i, c in enumerate(tgt)}
        mat = linalg.zeros(len(tgt), len(src))
        for col, cell in enumerate(src):
            image = self._apply_d(self._cell_to_object(q, cell))
            if self.kind == "scalar":
                items = [(mi, coeff) for mi, coeff in image.terms.items()]
            else:
                items = [((mi, key), coeff) for key, form in image.components.items()
                         for mi, coeff in form.terms.items()]
            for tcell, coeff in items:
                mat[tgt_index[tcell]][col] = coeff.constant_value()
        return mat

    def _decompose(self, q: int) -> _DegreeData:
        data = _DegreeData(self._cells[q])
        dim_q = len(data.cells)
        d_out = self.d_matrices[q]
        d_in = self.d_matrices.get(q - 1)
        # B = image of the incoming ∂̄ = row space of its transpose
        if d_in is not None and d_in and any(any(row) for row in d_in):
            b_rows, b_piv = linalg.rref(linalg.transpose(d_in))
        else:
            b_rows, b_piv = [], []
        # V = image of ∂̄* from above = row space of the outgoing ∂̄
        if d_out:
            v_rows, v_piv = linalg.rref(d_out)
        else:
            v_rows, v_piv = [], []
        # H = ker ∂̄ ∩ ker ∂̄*
        stacked = [row[:] for row in d_out]
        if d_in is not None:
            stacked.extend(linalg.transpose(d_in))
        h_rows = linalg.nullspace(stacked, dim_q) if stacked else linalg.identity(dim_q)
        h_rows, h_piv = linalg.rref(h_rows) if h_rows else ([], [])
        data.bases = {"B": b_rows, "H": h_rows, "V": v_rows}
        data.pivots = {
            "B": b_piv,
            "H": h_piv,
            "V": v_piv,
        }
        return data

    # -- inspection ----------------------------------------------------------

    def dim(self, q: int) -> int:
        return len(self._cells[q])

    def cells(self, q: int) -> list:
        return list(self._cells[q])

    def space_dims(self, q: int) -> dict[str, int]:
        data = self._data[q]
        return {s: len(data.bases[s]) for s in _SPACES}

    def harmonic_dim(self, q: int) -> int:
        return len(self._data[q].bases["H"])

    def basis(self, q: int, which: str):
        """Basis of B/H/V in degree q, as forms (scalar) or vector forms (theta)."""
        data = self._data[q]
        return [self._coords_to_object(q, [Polynomial.constant(x) for x in row])
                for row in data.bases[which]]

    def harmonic_pivot_cells(self, q: int) -> list:
        data = self._data[q]
        return [data.cells[p] for p in data.pivots["H"]]

    def pivot_columns(self, q: int, which: str) -> list[int]:
        """Pivot coordinates of the RREF basis of B/H/V in degree q.

        Because the basis is RREF, the coefficient of an element of the space
        against basis row r is its coordinate at pivot column r."""
        return list(self._data[q].pivots[which])

    def projector(self, q: int, which: str) -> linalg.Matrix:
        data = self._data[q]
        if data.projectors[which] is None:
            data.projectors[which] = linalg.project_matrix(data.bases[which], len(data.cells))
        return data.projectors[which]

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
        if self.kind == "scalar" and isinstance(obj, VectorForm):
            return VectorForm(self.ambient,
                              {key: self._project_obj(f, which, q)
                               for key, f in obj.components.items()})
        coords = self._object_coords(q, obj)
        proj = self.projector(q, which)
        return self._coords_to_object(q, linalg.mat_vec(proj, coords, zero=Polynomial.zero()))

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
        if self.kind == "scalar" and isinstance(obj, VectorForm):
            return all(self.in_space(f, which, q) for f in obj.components.values())
        coords = self._object_coords(q, obj)
        data = self._data[q]
        reduced = linalg.reduce_against(data.bases[which], data.pivots[which], coords)
        return all(not c for c in reduced)

    def is_closed(self, obj, q: int | None = None) -> bool:
        if q is None:
            q = self._single_degree(obj)
        if self.kind == "scalar" and isinstance(obj, VectorForm):
            return all(self.is_closed(f, q) for f in obj.components.values())
        coords = self._object_coords(q, obj)
        image = linalg.mat_vec(self.d_matrices[q], coords, zero=Polynomial.zero())
        return all(not c for c in image)

    # -- the δ operator -------------------------------------------------------

    def delta_matrix(self) -> linalg.Matrix:
        """Matrix of δ = (P∘∂̄)⁻¹: degree-2 coordinates → degree-1 coordinates.

        Built from ∂̄ restricted to V¹, which is injective with image exactly B².
        Zero map when B² = 0.
        """
        if self._delta_matrix is None:
            if self.max_degree < 2:
                raise DegreeMismatch("decomposition does not include degree 2")
            v_rows = self._data[1].bases["V"]
            dim1, dim2 = self.dim(1), self.dim(2)
            if not v_rows:
                self._delta_matrix = linalg.zeros(dim1, dim2)
            else:
                vt = linalg.transpose(v_rows)
                m = linalg.mat_mul(self.d_matrices[1], vt)      # V¹-coords → degree-2
                gram_inv = linalg.invert(linalg.mat_mul(linalg.transpose(m), m))
                self._delta_matrix = linalg.mat_mul(
                    vt, linalg.mat_mul(gram_inv, linalg.transpose(m)))
        return self._delta_matrix

    def delta_op(self, obj):
        """Unique ∂̄-preimage in V¹ of an element of B² (⊗ vectors)."""
        if not obj:
            return obj
        if not self.in_space(obj, "B", 2):
            raise PreimageError("delta_op input has a component outside the exact part")
        if self.kind == "scalar" and isinstance(obj, VectorForm):
            return VectorForm(self.ambient,
                              {key: self.delta_op(f) for key, f in obj.components.items()})
        coords = self._object_coords(2, obj)
        out = linalg.mat_vec(self.delta_matrix(), coords, zero=Polynomial.zero())
        return self._coords_to_object(1, out)


def build_decomposition(L, max_degree: int | None = None) -> HodgeDecomposition:
    """Scalar Hodge decomposition of Λ^{0,•}; all degrees by default."""
    n = L.complex_dim
    cap = n if max_degree is None else min(max_degree, n)
    return HodgeDecomposition(L, "scalar", cap)


def build_theta_decomposition(csa, max_degree: int = 2) -> HodgeDecomposition:
    """Decomposition of the vector-valued complex Λ^{0,•} ⊗ (1,0)-vectors.

    Degrees above ``max_degree`` are not materialised; the deformation recursion
    needs degrees 0..2 plus the outgoing ∂̄ matrix in degree 2.
    """
    return HodgeDecomposition(csa, "theta", max_degree)


def hodge_numbers(L) -> list[int]:
    """h^{0,q} for q = 0..n."""
    dec = build_decomposition(L)
    return [dec.harmonic_dim(q) for q in range(L.complex_dim + 1)]


def theta_cohomology_dims(L) -> list[int]:
    """h^q(Θ) = h^{0,q} · dim g for q = 0..n."""
    n = L.complex_dim
    return [h * n for h in hodge_numbers(L)]
