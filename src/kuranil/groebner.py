"""Buchberger-based ideal arithmetic over exact rationals.

Certifies that computed obstruction ideals equal published intersections of
components.  Intersections are computed by the standard one-variable
elimination trick, the only place a lex basis is built (see Elimination
below).  Every other ideal relation is decided by :func:`non_members` (see
Membership below): ideal equality is the two containments I ⊆ J and J ⊆ I,
so a grevlex basis is built only where division by an ideal's generators
leaves a remainder.  Within the package only :mod:`kuranil.verify` calls
this module: the analysis computes its ideals without a Gröbner basis.
Generator lists are put into one normal form by
:func:`~kuranil.polyring.canonical_generators`.

Pairs.  Only the pairs the basis needs are queued: each new basis element
updates the queue by Gebauer and Möller's criteria (Gebauer & Möller, *On an
installation of Buchberger's algorithm*, JSC 6, 1988).  Of the element's new
pairs, one whose lcm another new lcm properly divides is dropped (M); the rest
make one pair per lcm, or none when a pair with coprime leading monomials
shares it (F).  A queued pair goes when the new leading monomial divides its
lcm and differs, as an lcm with either of its elements, from that lcm (B_k).
An element whose leading monomial the new one divides makes no further pairs
and divides no further S-polynomial.  The selection is fixed so results are
byte-for-byte reproducible: pairs pop from a heap keyed (lcm total degree, i,
j), so they are processed in ascending key order.

Packed monomials.  Each computation fixes the sorted variables of its inputs
(``u`` included) and packs every monomial into one Python int on entry,
unpacking on exit, with :class:`~kuranil.polyring.Packing` (its layout is in
:mod:`kuranil.polyring`): native int comparison is the monomial order, a
product of monomials is ``a + b``, a quotient ``b - a``, and ``a`` divides
``b`` exactly when ``(b - a) & guards == 0``.  A new monomial overflows a
field exactly when its degree reaches the guard bit.  That is checked
wherever monomials are made (products in a division step, S-polynomials,
lcms, the products by ``u`` of an elimination); an overflow repacks the
inputs with fields twice as wide and restarts the computation
(:func:`~kuranil.polyring.packed`).

Division.  Each divisor is prepped once, as ``(leading monomial, slack,
tail)``: the tail is divided by the leading coefficient, and the slack (the
tail's largest degree minus the leading degree) bounds the degree of every
product a reduction step makes.  The working terms live in a dict, their
monomials in a heap of negated ints with lazy deletion: a cancelled term's
entry stays in the heap and is skipped when popped.  The first divisor in
list order whose leading monomial divides wins.  Inside a Buchberger
computation the divisors of an S-polynomial are the basis elements whose
leading monomial no newer element's divides, in the order they were added: a
dropped element's leading monomial is a multiple of a newer one's, so the
remainder is reduced against every element all the same.  Inter-reduction
divides each element by the others in ascending order of leading monomial.
The deadline is read before every pair and every live reduction step.  Basis
elements stay monic inside a computation and leave it normalised by
:func:`~kuranil.polyring.primitive_scale`; a normal form leaves as it is.
Each call that divides packs its polynomials and divisors afresh, together
in one packing.

Elimination.  :func:`ideal_intersect` computes I ∩ J as the ideal
(u·I + (1−u)·J) ∩ k[t] (Cox, Little & O'Shea, *Ideals, Varieties, and
Algorithms*, Ch. 3 §1 and Ch. 4 §3), in one lex packing with ``u`` greatest.
It makes u·f and (1−u)·g on the packed terms of the generators, sorts them
by leading monomial and builds an unreduced basis.  In lex the u-free
monomials are exactly those below ``u``, so the elements whose leading
monomial is below u's packed monomial are the u-free ones, and they form a
Gröbner basis of the intersection.  Only they are inter-reduced: no leading
monomial that contains ``u`` divides a u-free monomial, so the result is the
u-free part of the reduced basis of the whole, which is unique.

Membership.  :func:`non_members` answers every membership question, in one
packing.  It divides each polynomial by the canonical generators of the
ideal first: a zero remainder on division by any generating set proves
membership (Becker & Weispfenning, *Gröbner Bases*, GTM 141, 1993).  A
nonzero one proves nothing, so the polynomials that leave one are divided by
the unreduced elements of a grevlex basis, built in the same packing from
the same prepped generators, just when some polynomial needs it.  Any
Gröbner basis, reduced or not, decides membership exactly, so the basis is
never reduced here.  When every generator is homogeneous, it is truncated at
degree d, the largest total degree among those polynomials: pairs of lcm
degree above d stay in the queue.  Such a basis holds the leading monomial
of every homogeneous element of the ideal up to degree d (Becker &
Weispfenning, GTM 141), and its elements are homogeneous, so each
homogeneous part of a polynomial is reduced on its own.  A homogeneous ideal
holds a polynomial exactly when it holds each of its homogeneous parts, so a
zero remainder is still exactly membership.  Other ideals get the complete
basis.  One deadline bounds the division and the basis.  A list of
generators is never wrapped in a :class:`GroebnerBasis`, which promises a
reduced basis.

Coefficients.  A coefficient is a canonical rational value, as everywhere in
the package (:func:`~kuranil.polyring.rational`): an ``int`` while it is
integral, else a ``Fraction``.  Packing keeps the coefficients as they are,
and prepping a divisor whose leading coefficient is not 1 divides its tail
exactly, as ``Fraction(c) / lc``, canonicalising the quotients.  That is the
engine's only division of coefficients, so no float arises.  Division,
S-polynomials and inter-reduction then multiply and subtract ints unless a
non-integral input or quotient takes part, and the ``Polynomial`` constructor
canonicalises what leaves.
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
    Packing,
    PackingOverflow,
    Polynomial,
    canonical_generators,
    packed,
    primitive_scale,
    var_rank,
)

# Field width of a computation's first packing (degrees up to 127); each
# overflow doubles it.
_FIRST_WIDTH = 8


class GroebnerTimeout(RuntimeError):
    """A Gröbner computation reached its deadline."""


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

    def __repr__(self) -> str:
        body = ", ".join(g.to_str(self.order) for g in self.polys)
        return f"GroebnerBasis({self.order.kind}; {body})"


def _check_deadline(deadline: float | None) -> None:
    """Raise :class:`GroebnerTimeout` once ``monotonic()`` reaches ``deadline``."""
    if deadline is not None and monotonic() >= deadline:
        raise GroebnerTimeout("Gröbner computation reached its deadline")


def _packed(polys: Sequence[Polynomial], order: MonomialOrder, compute):
    """``compute(packing)`` on a packing of the variables of ``polys``: at the
    first width their degrees fit, doubled after each overflow."""
    variables = sorted({v for p in polys for v in p.variables()}, key=var_rank)
    degree = max((p.total_degree() for p in polys), default=0)
    width = _FIRST_WIDTH
    while degree >= 1 << (width - 1):
        width *= 2
    return packed(variables, order, width, compute)


def _divide(work: dict[int, int | Fraction], divisors: list[tuple], packing: Packing,
            deadline: float | None = None) -> dict[int, int | Fraction]:
    """Full division remainder of the packed terms ``work`` (consumed) by the
    prepped ``divisors``; the first divisor in list order wins.  The
    remainder's keys are in descending order."""
    guards, limit, degree = packing.guards, packing.limit, packing.degree
    heap = [-m for m in work]
    heapify(heap)
    remainder: dict[int, int | Fraction] = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:  # cancelled after it was pushed
            continue
        _check_deadline(deadline)
        for lm, slack, tail in divisors:
            if (m - lm) & guards:
                continue
            if degree(m) + slack >= limit:
                raise PackingOverflow
            # work -= c·(m/lm)·tail; the leading term cancels m exactly.
            q = m - lm
            for t, tc in tail:
                t += q
                old = work.get(t)
                if old is None:
                    work[t] = -c * tc
                    heappush(heap, -t)
                else:
                    old -= c * tc
                    if old:
                        work[t] = old
                    else:
                        del work[t]
            break
        else:
            remainder[m] = c
    return remainder


def _s_polynomial(f: tuple, g: tuple, lcm: int,
                  packing: Packing) -> dict[int, int | Fraction]:
    """Packed S-polynomial of the prepped (monic) divisors ``f`` and ``g``
    whose leading monomials have lcm ``lcm``: the leading terms cancel, so
    only the tails are multiplied."""
    (lf, sf, tf), (lg, sg, tg) = f, g
    if packing.degree(lcm) + max(sf, sg) >= packing.limit:
        raise PackingOverflow
    qf, qg = lcm - lf, lcm - lg
    work = {m + qf: c for m, c in tf}
    for m, c in tg:
        m += qg
        c = work.get(m, 0) - c
        if c:
            work[m] = c
        else:
            del work[m]
    return work


def buchberger(gens: Iterable[Polynomial], order: MonomialOrder = GREVLEX,
               deadline: float | None = None) -> GroebnerBasis:
    """Reduced Gröbner basis of the ideal generated by ``gens``.

    ``deadline`` is a ``time.monotonic()`` timestamp, checked before every
    pair and every reduction step; reaching it raises :class:`GroebnerTimeout`.
    """
    gens = canonical_generators(gens, order)

    def compute(packing: Packing) -> list[Polynomial]:
        entries = [packing.prep(packing.pack(g)) for g in gens]
        return _reduce_basis(_buchberger(entries, packing, deadline), packing, deadline)

    return GroebnerBasis(order, _packed(gens, order, compute))


def _buchberger(entries: list[tuple], packing: Packing, deadline: float | None,
                cap: int | None = None) -> list[tuple]:
    """A Gröbner basis, not yet reduced, of the ideal of the prepped
    ``entries``: the elements whose leading monomial no newer element's
    divides, in the order they were added.  Each S-polynomial is divided by
    just those elements, the first in that order winning.  With ``cap``,
    pairs whose lcm degree exceeds ``cap`` stay unprocessed: for homogeneous
    ``entries`` that is a ``cap``-truncated basis."""
    guards = packing.guards
    prepped: list[tuple] = []
    lms: list[int] = []
    active: list[int] = []  # the elements that still make pairs and divide
    divisors: list[tuple] = []  # the entries of active, in its order
    # Keys are unique, so pairs pop in ascending (lcm degree, i, j) order.
    pairs: list[tuple[int, int, int, int]] = []  # (lcm degree, i, j, lcm)

    def insert(entry: tuple) -> None:
        """Add ``entry`` to the basis, updating the pairs by Gebauer–Möller."""
        t, lm = len(lms), entry[0]
        # Criterion B_k: a queued pair goes when lm divides its lcm and the
        # lcms lm makes with both of its elements differ from that lcm.
        kept = [p for p in pairs if (p[3] - lm) & guards
                or packing.lcm(lms[p[1]], lm) == p[3] or packing.lcm(lms[p[2]], lm) == p[3]]
        if len(kept) < len(pairs):
            pairs[:] = kept
            heapify(pairs)
        groups: dict[int, list[int]] = {}
        for k in active:
            groups.setdefault(packing.lcm(lms[k], lm), []).append(k)
        # Criterion M: an lcm that another new lcm properly divides (a proper
        # divisor is a smaller int) makes no pair.  Criterion F: each other
        # lcm makes one pair, or none when it is a product of coprime leading
        # monomials (Buchberger's first criterion).
        minimal: list[int] = []
        for l in sorted(groups):
            if all((l - o) & guards for o in minimal):
                minimal.append(l)
                ks = groups[l]
                if all(l != lms[k] + lm for k in ks):
                    heappush(pairs, (packing.degree(l), ks[0], t, l))
        # Elements whose leading monomial lm divides make no more pairs and
        # divide no more: lm divides every monomial theirs divides.
        active[:] = [k for k in active if (lms[k] - lm) & guards] + [t]
        prepped.append(entry)
        lms.append(lm)
        divisors[:] = [prepped[k] for k in active]

    for entry in entries:
        insert(entry)
    while pairs and (cap is None or pairs[0][0] <= cap):
        _check_deadline(deadline)
        _, i, j, lcm = heappop(pairs)
        rem = _divide(_s_polynomial(prepped[i], prepped[j], lcm, packing),
                      divisors, packing, deadline)
        if rem:
            insert(packing.prep(rem))
    return divisors


def _reduce_basis(prepped: list[tuple], packing: Packing,
                  deadline: float | None = None) -> list[Polynomial]:
    """Minimalize, then inter-reduce tails; output normalized, sorted
    ascending by leading monomial."""
    guards = packing.guards
    kept: list[tuple] = []
    for entry in sorted(prepped, key=lambda e: e[0]):
        if all((entry[0] - other[0]) & guards for other in kept):
            kept.append(entry)
    out = []
    for idx, (lm, _, tail) in enumerate(kept):
        terms = _divide({lm: 1, **dict(tail)},
                        kept[:idx] + kept[idx + 1:], packing, deadline)
        kept[idx] = packing.prep(terms)
        scale = primitive_scale(terms.values(), terms[lm])
        out.append(packing.polynomial({m: c * scale for m, c in terms.items()}))
    return out


def normal_form(p: Polynomial, G: GroebnerBasis,
                deadline: float | None = None) -> Polynomial:
    """Division remainder of ``p`` by ``G`` in ``G``'s order, dividing by
    ``G.polys`` in list order; zero iff ``p`` lies in the ideal when ``G`` is
    a Gröbner basis.  ``deadline`` is read before every reduction step, as
    in :func:`buchberger`."""
    def compute(packing: Packing) -> Polynomial:
        prepped = [packing.prep(packing.pack(g)) for g in G.polys]
        return packing.polynomial(_divide(packing.pack(p), prepped, packing, deadline))

    return _packed([*G.polys, p], G.order, compute)


def non_members(polys: Iterable[Polynomial], gens: Iterable[Polynomial],
                deadline: float | None = None) -> list[Polynomial]:
    """The ``polys`` outside the ideal ``gens`` generate, in input order.

    Each poly is first divided by ``canonical_generators(gens)`` in list
    order; a zero remainder proves membership.  The polys that leave a
    remainder are divided by an unreduced grevlex basis, built just when one
    does and in the same packing: truncated at their largest total degree
    when every generator is homogeneous, else complete.  ``deadline`` bounds
    the division and the basis."""
    gens = canonical_generators(gens)
    polys = list(polys)

    def compute(packing: Packing) -> list[Polynomial]:
        prepped = [packing.prep(packing.pack(g)) for g in gens]
        left = [p for p in polys if _divide(packing.pack(p), prepped, packing, deadline)]
        if not left:
            return []
        homogeneous = all(g.is_homogeneous() for g in gens)
        cap = max(p.total_degree() for p in left) if homogeneous else None
        basis = _buchberger(prepped, packing, deadline, cap)
        return [p for p in left if _divide(packing.pack(p), basis, packing, deadline)]

    return _packed([*gens, *polys], GREVLEX, compute)


def ideal_equal(I: Iterable[Polynomial], J: Iterable[Polynomial],
                deadline: float | None = None) -> bool:
    """Whether the generator lists ``I`` and ``J`` generate one ideal: each
    lies in the other's ideal, decided by :func:`non_members` under the one
    ``deadline``."""
    I, J = list(I), list(J)
    return not non_members(I, J, deadline) and not non_members(J, I, deadline)


def ideal_intersect(I: Sequence[Polynomial], J: Sequence[Polynomial],
                    deadline: float | None = None) -> list[Polynomial]:
    """Generators of I ∩ J by elimination, as the module docstring lays out:
    an unreduced lex basis of u·I + (1−u)·J with u greatest, built in one
    packing, whose u-free elements alone are inter-reduced into the reduced
    lex basis of I ∩ J, returned as canonical generators.  Raises
    :class:`ValueError` when an input contains ``u`` itself."""
    if any(UVAR in g.variables() for g in (*I, *J)):
        raise ValueError("ideal_intersect eliminates the variable u; "
                         "its inputs must not contain u")
    gens_i = [g for g in I if g]
    gens_j = [g for g in J if g]
    if not gens_i or not gens_j:
        return []

    def compute(packing: Packing) -> list[Polynomial]:
        unit, limit, degree = packing.unit(UVAR), packing.limit, packing.degree

        def times_u(terms: dict, sign: int) -> dict:
            out = {m + unit: sign * c for m, c in terms.items()}
            if max(map(degree, out)) >= limit:
                raise PackingOverflow
            return out

        combined = [times_u(packing.pack(f), 1) for f in gens_i]
        for g in gens_j:
            terms = packing.pack(g)
            combined.append({**terms, **times_u(terms, -1)})
        entries = sorted((packing.prep(terms) for terms in combined), key=lambda e: e[0])
        basis = _buchberger(entries, packing, deadline)
        # The u-free monomials are exactly those below u.
        return _reduce_basis([e for e in basis if e[0] < unit], packing, deadline)

    return canonical_generators(_packed([*gens_i, *gens_j, Polynomial.variable(UVAR)],
                                        LEX, compute))
