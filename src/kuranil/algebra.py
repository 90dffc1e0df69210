"""Nilpotent Lie algebras with exact rational structure constants.

Two kinds of ambient object live here:

* ``LieAlgebra`` — a complex nilpotent Lie algebra given by structure constants
  on a fixed basis ``X_1..X_n``.  Structure strings like ``"(0,0,12,13)"`` list
  the coframe differentials: entry ``k`` is ``dw^k`` as a sum of wedge pairs
  ``ab`` meaning ``w^a ∧ w^b``.  Brackets are recovered through the duality
  ``dα(x, y) = −α([x, y])``, so ``"(0,0,12)"`` has ``[X1, X2] = −X3``.
* ``ComplexStructureAlgebra`` — a real Lie algebra with integrable left-invariant
  complex structure, presented by the differentials of the (1,0)-coframe
  ``w^1..w^n``; each ``dw^k`` may have a (2,0) part (``w^a ∧ w^b``) and a (1,1)
  part (``cw^a ∧ w^b``, with ``cw`` the conjugated covector).  Conjugate
  equations are implied (all coefficients are rational).

Both build one table at construction: the brackets of the complexified frame
``X_1..X_n, X̄_1..X̄_n``, with vectors keyed by ``VectorKey``, ``(index,
barred)``.  Their shared base reads the ambient protocol of the
exterior-algebra module off that table: ``complex_dim``,
``covector_differential`` (by the duality above), ``vector_bracket``,
``vector_delbar`` and ``parallelisable``.  Every structure constant is stored
as :func:`~kuranil.polyring.rational` makes it, an ``int`` while it is
integral, and so are the ∂̄ matrices read off the table.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Subspace
from .polyring import rational


class JacobiViolation(ValueError):
    """The Jacobi identity fails; carries a witness basis triple, whose
    vectors the message calls by ``names``."""

    def __init__(self, triple: tuple[int, int, int], defect, names: list[str]):
        self.triple = triple
        self.defect = defect
        super().__init__(f"Jacobi identity fails on ({', '.join(names)})")


class NotNilpotent(ValueError):
    pass


class NotIntegrable(ValueError):
    """The coframe differential has a (0,2) component on (1,0)-covectors."""


class StructureParseError(ValueError):
    pass


Brackets = dict[tuple[int, int], dict[int, int | Fraction]]

VectorKey = tuple[int, bool]  # (frame index, barred)


def vector_key_str(key: VectorKey) -> str:
    idx, barred = key
    return f"cX{idx}" if barred else f"X{idx}"


class _FrameAlgebra:
    """The ambient protocol, read off one table: the brackets of the
    complexified frame, each pair of frame vectors stored under one order
    ``(x, y)`` as ``{(x, y): {z: c}}`` with ``[x, y] = Σ c z``."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.complex_dim = n
        self._table: dict[tuple[VectorKey, VectorKey], dict[VectorKey, int | Fraction]] = {}

    @functools.cached_property
    def parallelisable(self) -> bool:
        """Whether no bracket [X̄_a, X_b] is stored: then ∂̄ kills every frame
        vector and ∂ of every (0,q)-form vanishes.  True for every
        ``LieAlgebra``; read off the table on first use."""
        return all(x[1] == y[1] for x, y in self._table)

    def _add(self, x: VectorKey, y: VectorKey, z: VectorKey, c: int | Fraction) -> None:
        """Record ``c·z`` as a term of ``[x, y]``."""
        self._table.setdefault((x, y), {})[z] = c

    def covector_differential(self, index: int, barred: bool) -> list[tuple[int, bool, int, bool, int | Fraction]]:
        """d of the covector as triples (a, barred_a, b, barred_b, coeff).

        ``dα(x, y) = −α([x, y])`` gives each stored pair ``[x, y]`` the term
        ``−c·ω^x∧ω^y``, with ``c`` the covector's component of ``[x, y]``.
        """
        key = (index, barred)
        return [(a, ba, b, bb, -comp[key])
                for ((a, ba), (b, bb)), comp in self._table.items() if key in comp]

    def vector_bracket(self, i: int, bi: bool, j: int, bj: bool) -> dict[VectorKey, int | Fraction]:
        """Bracket of frame vectors, complexified: [X_i, X_j], [X̄_i, X_j], etc."""
        comp = self._table.get(((i, bi), (j, bj)))
        if comp is not None:
            return dict(comp)
        return {key: -c for key, c in self._table.get(((j, bj), (i, bi)), {}).items()}

    def vector_delbar(self, j: int) -> dict[tuple[int, int], int | Fraction]:
        """∂̄X_j = Σ_a cw^a ⊗ pr^{1,0}[X̄_a, X_j], as {(a, k): coeff} for cw^a ⊗ X_k."""
        out: dict[tuple[int, int], int | Fraction] = {}
        for a in range(1, self.complex_dim + 1):
            for (k, barred), c in self.vector_bracket(a, True, j, False).items():
                if not barred:
                    out[(a, k)] = c
        return out


class LieAlgebra(_FrameAlgebra):
    """Complex Lie algebra ``[X_i, X_j] = Σ_k c^k_ij X_k`` with ``i < j`` stored.

    Its complexified frame brackets are these and their conjugates, with
    ``[g, ḡ] = 0``: the algebra viewed as parallelisable."""

    def __init__(self, dim: int, brackets: Brackets, name: str | None = None):
        super().__init__(dim)
        clean: Brackets = {}
        for (i, j), comp in brackets.items():
            if not (1 <= i < j <= dim):
                raise ValueError(f"bracket key ({i},{j}) out of range for dim {dim}")
            entries = {k: rational(c) for k, c in comp.items() if c}
            for k in entries:
                if not 1 <= k <= dim:
                    raise ValueError(f"bracket target X{k} out of range")
            if entries:
                clean[(i, j)] = entries
            for k, c in entries.items():
                for barred in (False, True):
                    self._add((i, barred), (j, barred), (k, barred), c)
        self.dim = dim
        self.brackets = clean
        self.name = name or f"lie-algebra-dim-{dim}"
        self._central_series: list[Subspace] | None = None

    def bracket(self, i: int, j: int) -> dict[int, int | Fraction]:
        """[X_i, X_j] as a sparse coefficient vector."""
        return {k: c for (k, _), c in self.vector_bracket(i, False, j, False).items()}

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Raise unless the brackets satisfy Jacobi and the algebra is nilpotent."""
        n = self.dim
        # [X_a, X_b] for every ordered pair whose bracket is nonzero
        ad: Brackets = {}
        for (i, j), comp in self.brackets.items():
            ad[(i, j)] = comp
            ad[(j, i)] = {k: -c for k, c in comp.items()}
        for i, j, k in itertools.combinations(range(1, n + 1), 3):
            acc = [0] * n
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, inner in ad.get((a, b), {}).items():
                    for r, outer in ad.get((m, c), {}).items():
                        acc[r - 1] += inner * outer
            if any(acc):
                raise JacobiViolation((i, j, k), acc, [f"X{i}", f"X{j}", f"X{k}"])
        series = self.descending_central_series()
        if series[-1].dim != 0:
            raise NotNilpotent(
                f"descending central series stabilizes at dimension {series[-1].dim}")

    # -- structural invariants ----------------------------------------------

    def descending_central_series(self) -> list[Subspace]:
        """[C_0 = g, C_1, ..., C_last] with C_{k+1} = span[C_k, g]; stops when
        the dimension stops dropping (reaching 0 iff nilpotent).  Computed
        once per algebra; each call returns a new list."""
        if self._central_series is None:
            n = self.dim
            current = Subspace.from_vectors(n, linalg.identity(n))
            series = [current]
            while current.dim:
                spans = []
                for row in current.rows:
                    # images[j - 1] = [row, X_j] = Σ_i row_i [X_i, X_j]
                    images = [{} for _ in range(n)]
                    for (i, j), comp in self.brackets.items():
                        a, b = row.get(i - 1), row.get(j - 1)
                        for k, c in comp.items():
                            if a:
                                images[j - 1][k - 1] = images[j - 1].get(k - 1, 0) + a * c
                            if b:
                                images[i - 1][k - 1] = images[i - 1].get(k - 1, 0) - b * c
                    spans.extend(image for image in images if image)
                nxt = Subspace.from_vectors(n, spans)
                series.append(nxt)
                if nxt.dim == current.dim:
                    break
                current = nxt
            self._central_series = series
        return list(self._central_series)

    def nilpotency_index(self) -> int:
        series = self.descending_central_series()
        if series[-1].dim != 0:
            raise NotNilpotent("algebra is not nilpotent")
        return len(series) - 1

    def center(self) -> Subspace:
        """The x = Σ x_i X_i with [x, X_j] = 0 for every j: one equation per
        component k of each [·, X_j], read off the nonzero brackets."""
        rows: dict[tuple[int, int], dict] = {}  # (j, k) -> {i - 1: c^k_ij}
        for (i, j), comp in self.brackets.items():
            for k, c in comp.items():
                rows.setdefault((j, k), {})[i - 1] = c
                rows.setdefault((i, k), {})[j - 1] = -c
        return linalg.nullspace(rows.values(), self.dim)

    def derived_algebra(self) -> Subspace:
        spans = [{k - 1: c for k, c in comp.items()} for comp in self.brackets.values()]
        return Subspace.from_vectors(self.dim, spans)

    def is_abelian(self) -> bool:
        return not self.brackets

    def free_two_step_quotient_test(self) -> "FreeTwoStepResult":
        """Decide whether g/C_2 is the free 2-step algebra on dim(g/C_1) generators."""
        series = self.descending_central_series()
        c1 = series[1] if len(series) > 1 else Subspace.from_vectors(self.dim, [])
        c2 = series[2] if len(series) > 2 else Subspace.from_vectors(self.dim, [])
        if c1.dim == 0:
            return FreeTwoStepResult("abelian", self.dim, 0, 0, True)
        m0 = self.dim - c1.dim
        expected = m0 * (m0 - 1) // 2
        # generator representatives: unit vectors at the non-pivot coordinates of C_1
        free_coords = [c for c in range(self.dim) if c not in c1.pivots]
        images = []
        for a, b in itertools.combinations(free_coords, 2):
            image = [0] * self.dim
            for k, c in self.bracket(a + 1, b + 1).items():
                image[k - 1] = c
            images.append(dict(enumerate(c2.reduce(image))))
        rank = linalg.rank(images)
        quotient_dim = c1.dim - c2.dim
        injective = rank == expected
        verdict = "free" if (injective and quotient_dim == expected) else "not_free"
        return FreeTwoStepResult(verdict, m0, quotient_dim, expected, injective)

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


@dataclass(frozen=True)
class FreeTwoStepResult:
    verdict: str                   # "abelian" | "free" | "not_free"
    generator_count: int           # dim(g / C_1)
    quotient_dim: int              # dim(C_1 / C_2)
    expected_dim: int              # generator_count choose 2
    bracket_injective: bool


# -- constructors ------------------------------------------------------------

def abelian(k: int, name: str | None = None) -> LieAlgebra:
    return LieAlgebra(k, {}, name=name or f"a_{k}")


def free_two_step(m: int) -> LieAlgebra:
    """V ⊕ Λ²V with [a + β, a' + β'] = a ∧ a'; dimension m + m(m−1)/2."""
    if m < 2:
        raise ValueError("free 2-step algebra needs at least 2 generators")
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    brackets: Brackets = {}
    for idx, (a, b) in enumerate(pairs):
        brackets[(a, b)] = {m + 1 + idx: 1}
    return LieAlgebra(m + len(pairs), brackets, name=f"b_{m}")


# -- text formats ------------------------------------------------------------
#
# One grammar for Salamon strings, ``bracket`` files and ``dw`` files: a
# right-hand side is ``0`` or a ±-separated sum of terms ``[c*]<body>``, ``c`` an
# integer or ``p/q``, whitespace ignored; formats differ only in the body.  Files
# skip ``#`` comments and blank lines; an exact ``dim <n>`` header fixes the
# dimension, which is otherwise the largest index.

_TERM = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?\*)?(.+)")
_DIM_HEADER = re.compile(r"dim\s+(\d+)")
_SALAMON_BODY = re.compile(r"(\d)(\d)")                    # ab = w^a ∧ w^b
_BRACKET_LINE = re.compile(r"bracket\s+(\d+)\s+(\d+)\s*=\s*(.+)")
_BRACKET_BODY = re.compile(r"(\d+)")                       # k = X_k
_DW_LINE = re.compile(r"dw(\d+)\s*=\s*(.+)")
_DW_BODY = re.compile(r"(c?)w(\d+)\^(c?)w(\d+)")           # [c]w<a>^[c]w<b>


def _terms(rhs: str, body: re.Pattern, where: str):
    """Yield ``(coefficient, body match, term text)`` for each term of ``rhs``."""
    rhs = "".join(rhs.split())
    if rhs == "0":
        return
    for chunk in re.split(r"(?<=.)(?=[+-])", rhs):
        term = _TERM.fullmatch(chunk)
        m = term and body.fullmatch(term[4])
        if not m:
            raise StructureParseError(f"{where}: malformed term {chunk!r}")
        if term[3] and not int(term[3]):
            raise StructureParseError(f"{where}: zero denominator in {chunk!r}")
        coef = Fraction(int(term[2] or 1), int(term[3] or 1))
        yield (-coef if term[1] == "-" else coef), m, chunk


def _data_lines(text: str):
    """``(line number, line)`` for each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _equations(text: str, pattern: re.Pattern) -> tuple[int | None, list]:
    """The ``dim`` header (None when absent) and ``(line number, match)`` for
    each other data line, which must match ``pattern``."""
    dim, equations = None, []
    for lineno, line in _data_lines(text):
        header = line.startswith("dim")
        m = (_DIM_HEADER if header else pattern).fullmatch(line)
        if not m:
            raise StructureParseError(f"line {lineno}: cannot parse {line!r}")
        if header:
            dim = int(m[1])
        else:
            equations.append((lineno, m))
    return dim, equations


def _file_dim(dim: int | None, indices: list[int]) -> int:
    n = dim if dim is not None else max(indices, default=0)
    if n == 0:
        raise StructureParseError("no content")
    return n


def parse_salamon(text: str, name: str | None = None) -> LieAlgebra:
    """Parse structure strings like ``"(0,0,12,13+24)"``; the algebra is named
    ``name``, else the stripped string.

    Entry ``k`` is ``dw^k``: ``0`` or a sum of terms whose body is two distinct
    digits ``ab`` meaning ``w^a ∧ w^b``.  Digits must not exceed the dimension.
    """
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise StructureParseError("structure string must be parenthesized")
    entries = s[1:-1].split(",")
    if entries == [""]:
        raise StructureParseError("empty structure string")
    n = len(entries)
    brackets: Brackets = {}
    for k, entry in enumerate(entries, start=1):
        for coef, m, chunk in _terms(entry, _SALAMON_BODY, f"entry {k}"):
            a, b = int(m[1]), int(m[2])
            if a == b:
                raise StructureParseError(f"entry {k}: repeated digit in term {chunk!r}")
            if a > b:
                a, b, coef = b, a, -coef
            if b > n:
                raise StructureParseError(f"entry {k}: index {b} exceeds dimension {n}")
            # dw^k = Σ A^k_ab w^a∧w^b  ⟹  [X_a, X_b] = −Σ_k A^k_ab X_k
            comp = brackets.setdefault((a, b), {})
            comp[k] = comp.get(k, Fraction(0)) - coef
    return LieAlgebra(n, brackets, name=name or s)


def parse_structure_file(text: str, name: str | None = None) -> LieAlgebra:
    """Line-based format: optional ``dim n`` plus ``bracket i j = c1*k1 + c2*k2``.

    A term's body is the index ``k`` of ``X_k``; a bare ``k`` means ``1*k``.
    """
    dim, equations = _equations(text, _BRACKET_LINE)
    brackets: Brackets = {}
    indices = []
    for lineno, m in equations:
        i, j = int(m[1]), int(m[2])
        if i == j:
            raise StructureParseError(f"line {lineno}: bracket of a vector with itself")
        sign = 1 if i < j else -1
        i, j = min(i, j), max(i, j)
        indices += [i, j]
        comp = brackets.setdefault((i, j), {})
        for coef, term, _ in _terms(m[3], _BRACKET_BODY, f"line {lineno}"):
            k = int(term[1])
            indices.append(k)
            comp[k] = comp.get(k, Fraction(0)) + sign * coef
    return LieAlgebra(_file_dim(dim, indices), brackets, name=name or "structure-file")


# -- complex structures ------------------------------------------------------

D20 = dict[int, dict[tuple[int, int], int | Fraction]]   # k -> {(a,b) a<b: coeff of w^a∧w^b}
D11 = dict[int, dict[tuple[int, int], int | Fraction]]   # k -> {(a,b): coeff of cw^a∧w^b}


def _canonical_differentials(diffs: D20) -> D20:
    """``diffs`` with each coefficient made :func:`~kuranil.polyring.rational`
    and zero coefficients and empty differentials dropped."""
    out = {k: {pair: rational(c) for pair, c in comp.items() if c}
           for k, comp in diffs.items()}
    return {k: comp for k, comp in out.items() if comp}


class ComplexStructureAlgebra(_FrameAlgebra):
    """Real Lie algebra with integrable complex structure, given by the
    differentials of the (1,0)-coframe.  Conjugate equations implied.

    With ``dw^k = Σ A^k_ab w^a∧w^b + Σ B^k_ab cw^a∧w^b`` its complexified
    frame brackets are ``[X_a, X_b] = −Σ_k A^k_ab X_k`` (a < b),
    ``[X̄_a, X_b] = −Σ_k B^k_ab X_k + Σ_k B^k_ba X̄_k`` and their conjugates."""

    def __init__(self, n: int, d20: D20, d11: D11, name: str | None = None):
        super().__init__(n)
        self.d20 = _canonical_differentials(d20)
        self.d11 = _canonical_differentials(d11)
        for k, comp in itertools.chain(self.d20.items(), self.d11.items()):
            if not 1 <= k <= n:
                raise ValueError(f"covector index {k} out of range")
            for (a, b) in comp:
                if not (1 <= a <= n and 1 <= b <= n):
                    raise ValueError(f"wedge indices ({a},{b}) out of range")
        for k, comp in self.d20.items():
            for (a, b), c in comp.items():
                if a >= b:
                    raise ValueError("(2,0) wedge pairs must have a < b")
                for barred in (False, True):
                    self._add((a, barred), (b, barred), (k, barred), -c)
        for k, comp in self.d11.items():
            # a mixed bracket lists X_k before X̄_k, for each k
            for (a, b), c in comp.items():
                self._add((a, True), (b, False), (k, False), -c)
            for (a, b), c in comp.items():
                self._add((b, True), (a, False), (k, True), c)
        self.name = name or f"complex-structure-dim-{n}"

    def validate(self) -> None:
        """Raise ``JacobiViolation`` (d² ≠ 0) or ``NotNilpotent`` unless the
        structure is a nilpotent Lie algebra, checked on its complexification:
        the ``LieAlgebra`` of the frame bracket table on X_1..X_n, X̄_1..X̄_n,
        where X̄_k is basis vector n + k and the error message calls it ``cX<k>``."""
        n = self.complex_dim
        brackets: Brackets = {}
        for ((i, bi), (j, bj)), comp in self._table.items():
            a, b, sign = i + n * bi, j + n * bj, 1
            if a > b:
                a, b, sign = b, a, -1
            brackets[(a, b)] = {k + n * barred: sign * c for (k, barred), c in comp.items()}
        try:
            LieAlgebra(2 * n, brackets, name=self.name).validate()
        except JacobiViolation as exc:
            names = [vector_key_str(((i - 1) % n + 1, i > n)) for i in exc.triple]
            raise JacobiViolation(exc.triple, exc.defect, names) from None

    def classify(self) -> str:
        if self.parallelisable:
            return "parallelisable"
        if not self.d20:
            return "abelian"
        return "generic"

    def __repr__(self) -> str:
        return f"ComplexStructureAlgebra({self.name!r}, n={self.complex_dim})"


def to_complex_structure(L: LieAlgebra) -> ComplexStructureAlgebra:
    """Embed a complex Lie algebra with purely (2,0) coframe differentials."""
    d20: D20 = {}
    for (i, j), comp in L.brackets.items():
        for k, c in comp.items():
            d20.setdefault(k, {})[(i, j)] = d20.get(k, {}).get((i, j), Fraction(0)) - c
    return ComplexStructureAlgebra(L.dim, d20, {}, name=L.name)


def parse_complex_structure_file(text: str, name: str | None = None) -> ComplexStructureAlgebra:
    """Parse lines ``dw<k> = [±][c*]w<a>^w<b> ...`` with ``cw`` = conjugated covector.

    A ``dim n`` line fixes the complex dimension (otherwise inferred from the
    largest index).  Terms with both covectors conjugated would make the
    structure non-integrable and are rejected.
    """
    dim, equations = _equations(text, _DW_LINE)
    d20: D20 = {}
    d11: D11 = {}
    indices = []
    for lineno, m in equations:
        k = int(m[1])
        indices.append(k)
        for coef, term, chunk in _terms(m[2], _DW_BODY, f"line {lineno}"):
            bar_a, a = bool(term[1]), int(term[2])
            bar_b, b = bool(term[3]), int(term[4])
            indices += [a, b]
            if bar_a and bar_b:
                raise NotIntegrable(f"line {lineno}: (0,2) term {chunk!r} in the "
                                    "differential of a (1,0)-covector")
            if not bar_a and not bar_b:
                if a == b:
                    raise StructureParseError(f"line {lineno}: repeated covector in {chunk!r}")
                if a > b:
                    a, b, coef = b, a, -coef
                comp = d20.setdefault(k, {})
            else:
                # normalize to cw^a ∧ w^b
                if bar_b:
                    a, b, coef = b, a, -coef
                comp = d11.setdefault(k, {})
            comp[(a, b)] = comp.get((a, b), Fraction(0)) + coef
    return ComplexStructureAlgebra(_file_dim(dim, indices), d20, d11,
                                   name=name or "complex-structure-file")


def parse_algebra_file(text: str, name: str | None = None) -> LieAlgebra | ComplexStructureAlgebra:
    """Read either file format: ``dw`` equations when the first line after the
    comments and the ``dim`` header starts with ``dw``, ``bracket`` lines otherwise."""
    first = next((line for _, line in _data_lines(text) if not line.startswith("dim")), "")
    parse = parse_complex_structure_file if first.startswith("dw") else parse_structure_file
    return parse(text, name=name)
