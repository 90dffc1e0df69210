"""Exterior algebra over the barred/unbarred dual space, polynomial coefficients.

Covectors are ``Cov(index, barred)``; the fixed total order is unbarred
``w1..wn`` first, then barred ``cw1..cwn``.  Multi-indices are stored strictly
sorted with Koszul signs absorbed into the coefficients, so equality is
syntactic.  Coefficients live in the polynomial ring (rationals embed as
constants), letting the same machinery serve constant-coefficient cohomology
and the parameter-dependent deformation recursion.

The ambient object must provide ``complex_dim``, ``covector_differential``,
``vector_bracket`` and ``vector_delbar``; the algebra module reads all four
off one table of frame brackets.  d, ∂ and ∂̄ are one Leibniz-rule kernel that
keeps the terms of each ``covector_differential`` raising the barred degree
by the wanted amount.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .polyring import Polynomial


class AmbientMismatch(ValueError):
    pass


class BarredVectorError(ValueError):
    """Raised by operations defined only for (1,0) vector parts."""


class Cov(NamedTuple):
    index: int
    barred: bool

    @property
    def sort_key(self) -> tuple[bool, int]:
        return (self.barred, self.index)

    def __str__(self) -> str:
        return f"cw{self.index}" if self.barred else f"w{self.index}"


MultiIndex = tuple[Cov, ...]

VectorKey = tuple[int, bool]  # (frame index, barred)


def vector_key_str(key: VectorKey) -> str:
    idx, barred = key
    return f"cX{idx}" if barred else f"X{idx}"


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


def _coerce_poly(c) -> Polynomial:
    if isinstance(c, Polynomial):
        return c
    return Polynomial.constant(c)


class ExteriorForm:
    """Element of the exterior algebra with ``Polynomial`` coefficients."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient, terms: dict[MultiIndex, Polynomial] | None = None):
        self.ambient = ambient
        clean: dict[MultiIndex, Polynomial] = {}
        if terms:
            for mi, c in terms.items():
                c = _coerce_poly(c)
                if c:
                    clean[mi] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ambient) -> "ExteriorForm":
        return ExteriorForm(ambient)

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

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degrees(self) -> set[int]:
        return {len(mi) for mi in self.terms}

    def _check_ambient(self, other: "ExteriorForm") -> None:
        if self.ambient is not other.ambient:
            raise AmbientMismatch("forms live over different ambient algebras")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        self._check_ambient(other)
        terms = dict(self.terms)
        for mi, c in other.terms.items():
            terms[mi] = terms.get(mi, Polynomial.zero()) + c
        return ExteriorForm(self.ambient, terms)

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + (-other)

    def __neg__(self) -> "ExteriorForm":
        return ExteriorForm(self.ambient, {mi: -c for mi, c in self.terms.items()})

    def scale(self, c) -> "ExteriorForm":
        c = _coerce_poly(c)
        return ExteriorForm(self.ambient, {mi: co * c for mi, co in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return self.ambient is other.ambient and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ambient), frozenset(self.terms.items())))

    # -- multiplicative structure ---------------------------------------------

    def wedge(self, other: "ExteriorForm") -> "ExteriorForm":
        self._check_ambient(other)
        out: dict[MultiIndex, Polynomial] = {}
        for mi1, c1 in self.terms.items():
            for mi2, c2 in other.terms.items():
                canon = _canonical(mi1 + mi2)
                if canon is None:
                    continue
                mi, sign = canon
                out[mi] = out.get(mi, Polynomial.zero()) + c1 * c2 * sign
        return ExteriorForm(self.ambient, out)

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

    def contract(self, index: int, barred: bool = False) -> "ExteriorForm":
        """Interior product with the frame vector X_index (or its conjugate)."""
        target = Cov(index, barred)
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

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"ExteriorForm({self.to_str()!r})"


class VectorForm:
    """Form with values in the frame: ``Σ_j (form_j) ⊗ X_j`` (vectors may be barred)."""

    __slots__ = ("ambient", "components")

    def __init__(self, ambient, components: dict[VectorKey, ExteriorForm] | None = None):
        self.ambient = ambient
        clean: dict[VectorKey, ExteriorForm] = {}
        if components:
            for key, form in components.items():
                if form.ambient is not ambient:
                    raise AmbientMismatch("component form over a different ambient")
                if form:
                    clean[key] = form
        self.components = clean

    @staticmethod
    def zero(ambient) -> "VectorForm":
        return VectorForm(ambient)

    @staticmethod
    def single(ambient, form: ExteriorForm, index: int, barred: bool = False) -> "VectorForm":
        return VectorForm(ambient, {(index, barred): form})

    @property
    def is_zero(self) -> bool:
        return not self.components

    def __bool__(self) -> bool:
        return bool(self.components)

    def component(self, index: int, barred: bool = False) -> ExteriorForm:
        return self.components.get((index, barred), ExteriorForm.zero(self.ambient))

    def has_barred_vectors(self) -> bool:
        return any(barred for (_, barred) in self.components)

    def degrees(self) -> set[int]:
        out = set()
        for form in self.components.values():
            out |= form.degrees()
        return out

    def __add__(self, other: "VectorForm") -> "VectorForm":
        if self.ambient is not other.ambient:
            raise AmbientMismatch("vector forms over different ambient algebras")
        comps = dict(self.components)
        for key, form in other.components.items():
            comps[key] = comps.get(key, ExteriorForm.zero(self.ambient)) + form
        return VectorForm(self.ambient, comps)

    def __sub__(self, other: "VectorForm") -> "VectorForm":
        return self + (-other)

    def __neg__(self) -> "VectorForm":
        return VectorForm(self.ambient, {k: -f for k, f in self.components.items()})

    def scale(self, c) -> "VectorForm":
        return VectorForm(self.ambient, {k: f.scale(c) for k, f in self.components.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorForm):
            return NotImplemented
        return self.ambient is other.ambient and self.components == other.components

    def delbar_theta(self) -> "VectorForm":
        """∂̄ on vector-valued forms: ∂̄(α⊗X) = ∂̄α⊗X + (−1)^{|α|} α∧∂̄X."""
        out: dict[VectorKey, dict[MultiIndex, Polynomial]] = {}

        def add(key: VectorKey, mi: MultiIndex, coeff: Polynomial) -> None:
            terms = out.setdefault(key, {})
            terms[mi] = terms.get(mi, Polynomial.zero()) + coeff

        for (j, barred), form in self.components.items():
            if barred:
                raise BarredVectorError("differential of a barred vector component is out of scope")
            for mi, coeff in form.delbar().terms.items():
                add((j, False), mi, coeff)
            for (a, vec_key), c in self.ambient.vector_delbar(j).items():
                for mi, coeff in form.terms.items():
                    canon = _canonical(mi + (Cov(a, True),))
                    if canon is None:
                        continue
                    new_mi, sign = canon
                    add(vec_key, new_mi, coeff * (c * (-sign if len(mi) % 2 else sign)))
        return VectorForm(self.ambient, {key: ExteriorForm(self.ambient, terms)
                                         for key, terms in out.items()})

    def to_str(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for key in sorted(self.components, key=lambda k: (k[1], k[0])):
            parts.append(f"({self.components[key].to_str()})*{vector_key_str(key)}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"VectorForm({self.to_str()!r})"
