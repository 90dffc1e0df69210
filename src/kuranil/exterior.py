"""Exterior algebra over the barred/unbarred dual space, polynomial coefficients.

Covectors are ``Cov(index, barred)``; the fixed total order is unbarred
``w1..wn`` first, then barred ``cw1..cwn``.  Multi-indices are stored strictly
sorted with Koszul signs absorbed into the coefficients, so equality is
syntactic.  Coefficients live in the polynomial ring (rationals embed as
constants), letting the same machinery serve constant-coefficient cohomology
and the parameter-dependent deformation recursion.

Both form types are one sparse map ``terms`` from keys to nonzero
coefficients, with one shared linear structure.  An ``ExteriorForm`` is keyed
by multi-index; a ``VectorForm`` takes its values in Θ, the (1,0) frame
``X_1..X_n``, and is keyed by ``(multi-index, frame index)``, which on
(0,q)-forms are the cells ω̄^I ⊗ X_j of the Θ complex.

The ambient object must provide ``complex_dim``, ``covector_differential``,
``vector_bracket``, ``vector_delbar`` and ``parallelisable`` (no bracket
[X̄_a, X_b], so ∂ of every (0,q)-form vanishes); the algebra module reads all
five off one table of frame brackets.  d, ∂ and ∂̄ are one Leibniz-rule kernel that
keeps the terms of each ``covector_differential`` raising the barred degree
by the wanted amount.  Every product of forms is one wedge kernel,
``wedge_into``, which sums each product term into a ``{monomial:
coefficient}`` map per cell; ``ExteriorForm.wedge`` runs on it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .polyring import Polynomial, mono_mul, rational


class AmbientMismatch(ValueError):
    pass


class Cov(NamedTuple):
    index: int
    barred: bool

    @property
    def sort_key(self) -> tuple[bool, int]:
        return (self.barred, self.index)

    def __str__(self) -> str:
        return f"cw{self.index}" if self.barred else f"w{self.index}"


MultiIndex = tuple[Cov, ...]

def _canonical(covs: Iterable[Cov]) -> tuple[MultiIndex, int] | None:
    """Sort a covector list, returning (sorted tuple, Koszul sign); None if repeated."""
    lst = list(covs)
    sign = 1
    # insertion sort, counting transpositions (lists are tiny)
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1].sort_key > lst[j].sort_key:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return None
    return tuple(lst), sign


def wedge_into(out: dict, a: dict, b: dict, targets) -> None:
    """Add Σ c·(α∧β) ⊗ key over ``targets``, ``(key, c)`` pairs with ``c`` a
    rational value, to ``out``: the wedge kernel of every product of forms.

    ``a`` and ``b`` are the ``terms`` of forms α and β.  ``out`` maps each
    cell ``(multi-index, key)`` to a ``{monomial: coefficient}`` dict that
    the products are summed into; the caller builds one ``Polynomial`` per
    cell at the end."""
    for mi1, c1 in a.items():
        for mi2, c2 in b.items():
            canon = _canonical(mi1 + mi2)
            if canon is None:
                continue
            mi, sign = canon
            products = [(mono_mul(m1, m2), x1 * x2)
                        for m1, x1 in c1.terms.items() for m2, x2 in c2.terms.items()]
            for key, c in targets:
                acc = out.setdefault((mi, key), {})
                f = c * sign
                for m, x in products:
                    acc[m] = acc.get(m, 0) + (x if f == 1 else x * f)


def _coerce_poly(c) -> Polynomial:
    if isinstance(c, Polynomial):
        return c
    return Polynomial.constant(c)


class _TermMap:
    """The linear structure both form types share: ``terms``, a sparse map
    from keys to nonzero ``Polynomial`` coefficients over one ambient."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient, terms: dict | None = None):
        self.ambient = ambient
        clean: dict = {}
        if terms:
            for key, c in terms.items():
                c = _coerce_poly(c)
                if c:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def zero(cls, ambient):
        return cls(ambient)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_ambient(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.ambient is not other.ambient:
            raise AmbientMismatch("forms live over different ambient algebras")

    def __add__(self, other):
        self._check_ambient(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Polynomial.zero()) + c
        return type(self)(self.ambient, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.ambient, {key: -c for key, c in self.terms.items()})

    def scale(self, c):
        """Every coefficient times ``c``: a polynomial or a rational value."""
        if not isinstance(c, Polynomial):
            c = rational(c)
        return type(self)(self.ambient, {key: co * c for key, co in self.terms.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.ambient is other.ambient and self.terms == other.terms

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_str()!r})"


class ExteriorForm(_TermMap):
    """Element of the exterior algebra: ``terms`` maps sorted multi-indices
    to ``Polynomial`` coefficients."""

    __slots__ = ()

    # -- constructors --------------------------------------------------------

    @staticmethod
    def covector(ambient, index: int, barred: bool = False) -> "ExteriorForm":
        if not 1 <= index <= ambient.complex_dim:
            raise ValueError(f"covector index {index} out of range")
        return ExteriorForm(ambient, {(Cov(index, barred),): Polynomial.one()})

    @staticmethod
    def basis_form(ambient, covs: Iterable[Cov], coeff=1) -> "ExteriorForm":
        canon = _canonical(covs)
        if canon is None:
            return ExteriorForm(ambient)
        mi, sign = canon
        return ExteriorForm(ambient, {mi: _coerce_poly(coeff) * sign})

    @staticmethod
    def constant(ambient, coeff) -> "ExteriorForm":
        return ExteriorForm(ambient, {(): _coerce_poly(coeff)})

    def degrees(self) -> set[int]:
        return {len(mi) for mi in self.terms}

    def __hash__(self):
        return hash((id(self.ambient), frozenset(self.terms.items())))

    # -- multiplicative structure ---------------------------------------------

    def wedge(self, other: "ExteriorForm") -> "ExteriorForm":
        self._check_ambient(other)
        out: dict = {}
        wedge_into(out, self.terms, other.terms, ((None, 1),))
        return ExteriorForm(self.ambient, {mi: Polynomial(t) for (mi, _), t in out.items()})

    # -- differential operators ----------------------------------------------

    def _d(self, dq: int | None) -> "ExteriorForm":
        """d by the graded Leibniz rule from the structure equations, keeping
        only the terms ω^a∧ω^b of each covector's differential that raise the
        barred degree by ``dq`` (all of them when ``dq`` is None)."""
        out: dict[MultiIndex, Polynomial] = {}
        for mi, coeff in self.terms.items():
            for pos, cv in enumerate(mi):
                sign = -1 if pos % 2 else 1
                rest = mi[:pos] + mi[pos + 1:]
                for (a, ba, b, bb, c) in self.ambient.covector_differential(cv.index, cv.barred):
                    if dq is not None and ba + bb - cv.barred != dq:
                        continue
                    canon = _canonical((Cov(a, ba), Cov(b, bb)) + rest)
                    if canon is None:
                        continue
                    new_mi, s2 = canon
                    out[new_mi] = out.get(new_mi, Polynomial.zero()) + coeff * (c * sign * s2)
        return ExteriorForm(self.ambient, out)

    def ce_differential(self) -> "ExteriorForm":
        """Full d, extended from the structure equations by the graded Leibniz rule."""
        return self._d(None)

    def delbar(self) -> "ExteriorForm":
        """(p, q) → (p, q+1) component of d."""
        return self._d(1)

    def del_(self) -> "ExteriorForm":
        """(p, q) → (p+1, q) component of d."""
        return self._d(0)

    def contract(self, index: int) -> "ExteriorForm":
        """Interior product with the frame vector X_index."""
        target = Cov(index, False)
        out: dict[MultiIndex, Polynomial] = {}
        for mi, c in self.terms.items():
            for pos, cv in enumerate(mi):
                if cv == target:
                    sign = -1 if pos % 2 else 1
                    rest = mi[:pos] + mi[pos + 1:]
                    out[rest] = out.get(rest, Polynomial.zero()) + c * sign
        return ExteriorForm(self.ambient, out)

    # -- rendering -----------------------------------------------------------

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mi in sorted(self.terms, key=lambda m: (len(m), [c.sort_key for c in m])):
            c = self.terms[mi]
            mono = "^".join(str(cv) for cv in mi) if mi else "1"
            if c == Polynomial.one():
                parts.append(mono)
            elif c == -Polynomial.one():
                parts.append(f"-{mono}")
            elif c.is_constant():
                parts.append(f"{c.constant_value()}*{mono}")
            else:
                parts.append(f"({c})*{mono}")
        return " + ".join(parts)


class VectorForm(_TermMap):
    """Form with values in Θ, ``Σ c·ω^I ⊗ X_j`` over the (1,0) frame.

    ``terms`` maps ``(multi-index, frame index)`` pairs to ``Polynomial``
    coefficients; on (0,q)-forms these keys are exactly the cells of the Θ
    complex.  A frame index outside 1..n raises ``ValueError``."""

    __slots__ = ()

    def __init__(self, ambient, terms: dict | None = None):
        n = ambient.complex_dim
        for _, j in terms or ():
            if not 1 <= j <= n:
                raise ValueError(f"frame index {j} is outside 1..{n}")
        super().__init__(ambient, terms)

    @staticmethod
    def single(form: ExteriorForm, index: int) -> "VectorForm":
        return VectorForm(form.ambient, {(mi, index): c for mi, c in form.terms.items()})

    @property
    def components(self) -> dict[int, ExteriorForm]:
        """``{frame index: form}``, the terms grouped by frame vector."""
        grouped: dict[int, dict[MultiIndex, Polynomial]] = {}
        for (mi, j), c in self.terms.items():
            grouped.setdefault(j, {})[mi] = c
        return {j: ExteriorForm(self.ambient, terms) for j, terms in grouped.items()}

    def component(self, index: int) -> ExteriorForm:
        return ExteriorForm(self.ambient, {mi: c for (mi, j), c in self.terms.items() if j == index})

    def degrees(self) -> set[int]:
        return {len(mi) for mi, _ in self.terms}

    def delbar_theta(self) -> "VectorForm":
        """∂̄ on vector-valued forms: ∂̄(α⊗X) = ∂̄α⊗X + (−1)^{|α|} α∧∂̄X, and
        (−1)^{|α|} α∧ω̄^a = ω̄^a∧α."""
        out = VectorForm.zero(self.ambient)
        for j, form in self.components.items():
            out = out + VectorForm.single(form.delbar(), j)
            for (a, k), c in self.ambient.vector_delbar(j).items():
                cov = ExteriorForm.covector(self.ambient, a, barred=True)
                out = out + VectorForm.single(cov.wedge(form).scale(c), k)
        return out

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        components = self.components
        return " + ".join(f"({components[j].to_str()})*X{j}" for j in sorted(components))
