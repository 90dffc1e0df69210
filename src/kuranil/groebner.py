"""Buchberger-based ideal arithmetic over exact rationals.

Certifies that computed obstruction ideals equal published intersections of
components: reduced Gröbner bases give canonical forms for ideal equality, and
intersections are computed by the standard one-variable elimination trick.
Ideal equality compares reduced grevlex bases; lex is used only inside that
elimination.  Generator lists are put into one canonical form by
:func:`canonical_generators`.

The pair-selection strategy is fixed so results are byte-for-byte reproducible:
pairs pop from a heap keyed (lcm total degree, i, j), so they are processed in
ascending key order, with the coprime-leading-monomial and chain criteria
applied at selection time.  Each basis keeps one prepped divisor list of
``(g, leading monomial, leading coefficient)`` entries, built once and
extended as elements are added; division works on one mutable term dict.
Intermediate polynomials are rescaled to integer-primitive form with positive
leading coefficient to control coefficient growth.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from time import monotonic
from typing import Iterable, Sequence

from .polyring import (
    GREVLEX,
    LEX,
    UVAR,
    MonomialOrder,
    Polynomial,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_polynomial,
)


class GroebnerTimeout(RuntimeError):
    """A Gröbner computation reached its deadline."""


class OrderMismatch(ValueError):
    """Operands carry different monomial orders."""


class GroebnerBasis:
    """A reduced Gröbner basis: normalized, pairwise fully reduced, sorted ascending."""

    __slots__ = ("order", "polys")

    def __init__(self, order: MonomialOrder, polys: Sequence[Polynomial]):
        self.order = order
        self.polys = tuple(polys)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.order == other.order and self.polys == other.polys

    def __hash__(self) -> int:
        return hash((self.order, self.polys))

    def contains(self, p: Polynomial) -> bool:
        return normal_form(p, self).is_zero

    def __repr__(self) -> str:
        body = ", ".join(g.to_str(self.order) for g in self.polys)
        return f"GroebnerBasis({self.order.kind}; {body})"


def _check_deadline(deadline: float | None) -> None:
    """Raise :class:`GroebnerTimeout` once ``monotonic()`` reaches ``deadline``."""
    if deadline is not None and monotonic() >= deadline:
        raise GroebnerTimeout("Gröbner computation reached its deadline")


def _prep(g: Polynomial, order: MonomialOrder) -> tuple:
    """Divisor entry ``(g, leading monomial, leading coefficient)`` of nonzero ``g``."""
    return (g, *g.leading_term(order))


def _reduce_full(p: Polynomial, prepped, order: MonomialOrder,
                 deadline: float | None = None) -> Polynomial:
    """Full multivariate division remainder of ``p`` by the prepped basis; the
    first divisor in list order wins."""
    remainder: dict = {}
    work = dict(p.terms)
    while work:
        _check_deadline(deadline)
        lm = order.max(work)
        lc = work.pop(lm)
        for g, glm, glc in prepped:
            if mono_divides(glm, lm):
                q = mono_div(lm, glm)
                factor = lc / glc
                # work -= factor·q·g; g's leading term cancels lm exactly.
                for m, c in g.terms.items():
                    if m == glm:
                        continue
                    m = mono_mul(q, m)
                    c = work.get(m, 0) - factor * c
                    if c:
                        work[m] = c
                    else:
                        del work[m]
                break
        else:
            remainder[lm] = lc
    return Polynomial(remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    fm, fc = f.leading_term(order)
    gm, gc = g.leading_term(order)
    l = mono_lcm(fm, gm)
    a = Polynomial({mono_div(l, fm): Fraction(1) / fc})
    b = Polynomial({mono_div(l, gm): Fraction(1) / gc})
    return a * f - b * g


def canonical_generators(polys: Iterable[Polynomial],
                         order: MonomialOrder = GREVLEX) -> list[Polynomial]:
    """Nonzero ``polys`` normalized in ``order``, without duplicates (the first
    occurrence wins), sorted ascending by leading monomial."""
    out = list(dict.fromkeys(p.normalized(order) for p in polys if p))
    out.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return out


def buchberger(gens: Iterable[Polynomial], order: MonomialOrder = GREVLEX,
               deadline: float | None = None) -> GroebnerBasis:
    """Reduced Gröbner basis of the ideal generated by ``gens``.

    ``deadline`` is a ``time.monotonic()`` timestamp, checked before every
    pair and every reduction step; reaching it raises :class:`GroebnerTimeout`.
    """
    prepped = [_prep(g, order) for g in canonical_generators(gens, order)]
    if not prepped:
        return GroebnerBasis(order, ())
    lms = [lm for _, lm, _ in prepped]
    # Keys are unique, so pairs pop in ascending (lcm degree, i, j) order.
    pairs = [(mono_degree(mono_lcm(lms[i], lms[j])), i, j)
             for j in range(len(lms)) for i in range(j)]
    heapify(pairs)
    treated: set[tuple[int, int]] = set()

    while pairs:
        _check_deadline(deadline)
        _, i, j = heappop(pairs)
        treated.add((i, j))
        if mono_coprime(lms[i], lms[j]):
            continue
        lcm_ij = mono_lcm(lms[i], lms[j])
        chained = False
        for k in range(len(lms)):
            if k in (i, j) or not mono_divides(lms[k], lcm_ij):
                continue
            p1 = (min(i, k), max(i, k))
            p2 = (min(j, k), max(j, k))
            if p1 in treated and p2 in treated:
                chained = True
                break
        if chained:
            continue
        rem = _reduce_full(s_polynomial(prepped[i][0], prepped[j][0], order),
                           prepped, order, deadline)
        if rem:
            prepped.append(_prep(rem.normalized(order), order))
            lms.append(prepped[-1][1])
            t = len(lms) - 1
            for k in range(t):
                heappush(pairs, (mono_degree(mono_lcm(lms[k], lms[t])), k, t))
    return GroebnerBasis(order, _reduce_basis(prepped, order, deadline))


def _reduce_basis(prepped: list[tuple], order: MonomialOrder,
                  deadline: float | None = None) -> list[Polynomial]:
    """Minimalize, then inter-reduce tails; output sorted ascending by leading monomial."""
    kept: list[tuple] = []
    for entry in sorted(prepped, key=lambda e: order.key(e[1])):
        if not any(mono_divides(other[1], entry[1]) for other in kept):
            kept.append(entry)
    for idx, (g, _, _) in enumerate(kept):
        g = _reduce_full(g, kept[:idx] + kept[idx + 1:], order, deadline)
        kept[idx] = _prep(g.normalized(order), order)
    return [g for g, _, _ in kept]


def normal_form(p: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Division remainder of ``p`` by ``G`` in ``G``'s order; zero iff ``p``
    lies in the ideal."""
    return _reduce_full(p, [_prep(g, G.order) for g in G.polys], G.order)


def _as_basis(I, deadline: float | None) -> GroebnerBasis:
    if isinstance(I, GroebnerBasis):
        if I.order != GREVLEX:
            raise OrderMismatch(f"expected a grevlex basis, got {I.order.kind}")
        return I
    return buchberger(I, GREVLEX, deadline)


def ideal_equal(I, J, deadline: float | None = None) -> bool:
    """Ideal equality via uniqueness of the reduced grevlex Gröbner basis; both
    bases are computed under the one ``deadline``."""
    return _as_basis(I, deadline).polys == _as_basis(J, deadline).polys


def ideal_intersect(I: Sequence[Polynomial], J: Sequence[Polynomial],
                    deadline: float | None = None) -> list[Polynomial]:
    """Generators of I ∩ J by elimination: GB of u·I + (1−u)·J in lex with u
    greatest, keeping the u-free polynomials."""
    gens_i = [g for g in I if g]
    gens_j = [g for g in J if g]
    if not gens_i or not gens_j:
        return []
    u = Polynomial.variable(UVAR)
    one_minus_u = Polynomial.one() - u
    combined = [u * f for f in gens_i] + [one_minus_u * g for g in gens_j]
    gb = buchberger(combined, LEX, deadline)
    return canonical_generators(g for g in gb if UVAR not in g.variables())


def parse_ideal_components(text: str) -> list[list[Polynomial]]:
    """Parse an ideal file: one polynomial per line, components separated by
    lines starting with the word \"component\"; ``#`` starts a comment."""
    components: list[list[Polynomial]] = []
    current: list[Polynomial] = []
    started = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("component"):
            if started and current:
                components.append(current)
            current = []
            started = True
            continue
        current.append(parse_polynomial(line))
        started = True
    if current:
        components.append(current)
    return components
