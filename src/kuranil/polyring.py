"""Sparse multivariate polynomials over Q in the deformation parameters t_i^j.

Variables are pairs ``(i, j)`` standing for the parameter ``t_i^j`` (``i`` = the
harmonic-direction index, ``j`` = the frame-vector index), printed ``t<i>_<j>``.
The reserved pair ``UVAR = (0, 0)`` is the auxiliary elimination variable ``u``.

The variable ranking is row-major ascending ``t1_1 < t1_2 < ... < t2_1 < ...``
with ``u`` ranked above every ``t`` variable.  Two monomial orders are provided:

* ``GREVLEX`` – graded reverse lexicographic: higher total degree wins; on equal
  degree, the monomial with the *smaller* exponent at the least-ranked variable
  where they differ is the *greater* one.
* ``LEX`` – pure lexicographic: the larger exponent at the greatest-ranked
  variable where they differ wins.

Monomials are tuples ``((var, exp), ...)`` sorted by variable rank, exponents
positive.  ``Polynomial`` is immutable and hashable.

Generator lists.  :func:`canonical_generators` is the one normal form of a
list of ideal generators (normalised, deduplicated, sorted by leading
monomial, ties in input order), which the analysis reports and the Gröbner
engine starts from, and
:func:`parse_ideal_components` reads the catalog's ideal files with
:func:`parse_polynomial`.  Neither needs a Gröbner basis, so the analysis
and the catalog import nothing from :mod:`kuranil.groebner`.

Packed monomials.  :class:`Packing` is the one packing of the package: the
Gröbner engine and the deformation recursion of :mod:`kuranil.kuranishi`
both run on it (Monagan & Pearce, CASC 2007, on packed exponent vectors).
It fixes a list of variables and packs each monomial into one Python int, a
row of ``w``-bit fields, most significant first; ``e_0`` is the exponent of
the lowest-ranked variable:

* grevlex: the degree, the partial degrees ``s_k = e_(k+1) + … + e_(n-1)``
  for ``k = 0 … n-2``, then the exponents ``e_0 … e_(n-1)``;
* lex: the exponents ``e_(n-1) … e_0``, then the degree.

Every field is linear in the exponents and never negative, so native int
comparison is the monomial order (the lex degree field, below every exponent,
never decides), a product of monomials is ``a + b`` and a quotient ``b - a``.
The top bit of each field is a guard bit that no monomial sets, so ``a``
divides ``b`` exactly when ``(b - a) & guards == 0``.  The degree field bounds
every other field, so a monomial whose degree stays below ``limit`` (the
guard bit) fits every field.  Whoever makes a monomial checks its degree and
raises :class:`PackingOverflow` when it reaches ``limit``; :func:`packed`
then repeats the computation on fields twice as wide.

Rational values.  Throughout the package a rational value is an ``int`` while
it is integral and a ``Fraction`` otherwise; :func:`rational` is the one
canonicaliser.  Polynomial coefficients, structure constants and matrix
entries are all stored in that form, so integral arithmetic runs on native
ints.  A ``float`` is never a rational value here: :func:`rational` rejects
it, and with it every ``Polynomial`` built from one.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable

Var = tuple[int, int]
Mono = tuple[tuple[Var, int], ...]

UVAR: Var = (0, 0)

EMPTY_MONO: Mono = ()


def rational(c) -> int | Fraction:
    """``c`` in canonical form: an ``int`` when integral, else a ``Fraction``.

    Raises :class:`TypeError` on anything but an ``int`` or a ``Fraction``
    (a ``float`` included, whose binary expansion is not the value meant)."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"not an exact rational value: {c!r}")


def var_rank(v: Var) -> tuple[bool, int, int]:
    """Sort key for variables; ``u`` ranks above every ``t_i^j``."""
    return (v == UVAR, v[0], v[1])


def var_name(v: Var) -> str:
    if v == UVAR:
        return "u"
    return f"t{v[0]}_{v[1]}"


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_mul(a: Mono, b: Mono) -> Mono:
    """The product of two monomials, by merging their variable-sorted terms."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        # var_rank order: u above every t, the t's in tuple order
        elif vb == UVAR or (va != UVAR and va < vb):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


def mono_str(m: Mono) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        parts.append(var_name(v) if e == 1 else f"{var_name(v)}^{e}")
    return "*".join(parts)


def _grevlex_key(m: Mono):
    # Higher degree wins; on a tie, the monomial with the smaller exponent at
    # the least-ranked variable where they differ (absent meaning 0) wins.
    return mono_degree(m), tuple((var_rank(v), -e) for v, e in m)


def _lex_key(m: Mono):
    # From the greatest-ranked variable down, the larger exponent wins.
    return tuple((var_rank(v), e) for v, e in reversed(m))


class MonomialOrder:
    """A total order on monomials, usable as ``kind`` in {"grevlex", "lex"}."""

    __slots__ = ("kind", "_key")

    def __init__(self, kind: str):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self._key = _grevlex_key if kind == "grevlex" else _lex_key

    def key(self, m: Mono):
        """Sort key: ``key(a) < key(b)`` iff ``a`` is smaller than ``b``."""
        return self._key(m)

    def max(self, monos) -> Mono:
        return max(monos, key=self._key)

    def sorted_desc(self, monos) -> list[Mono]:
        return sorted(monos, key=self._key, reverse=True)

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self) -> int:
        return hash(("MonomialOrder", self.kind))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


class Polynomial:
    """Immutable sparse polynomial with rational coefficients, each stored in
    the canonical form of :func:`rational`."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[Mono, int | Fraction] | None = None):
        clean: dict[Mono, int | Fraction] = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not int:
                    c = rational(c)
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def one() -> "Polynomial":
        return _ONE

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial({EMPTY_MONO: rational(c)})

    @staticmethod
    def variable(v: Var) -> "Polynomial":
        return Polynomial({((v, 1),): 1})

    # -- basic queries ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(m == EMPTY_MONO for m in self.terms)

    def constant_value(self) -> int | Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(EMPTY_MONO, 0)

    def total_degree(self) -> int:
        """Maximum monomial degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def variables(self) -> set[Var]:
        out: set[Var] = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(terms)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) - c
        return Polynomial(terms)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO
            f = rational(other)
            return Polynomial({m: c * f for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms: dict[Mono, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    # -- order-dependent operations -----------------------------------------

    def leading_term(self, order: MonomialOrder = GREVLEX) -> tuple[Mono, int | Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = order.max(self.terms)
        return m, self.terms[m]

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> Mono:
        return self.leading_term(order)[0]

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment: dict[Var, int | Fraction]) -> int | Fraction:
        total = 0
        for m, c in self.terms.items():
            prod = c
            for v, e in m:
                if v not in assignment:
                    raise KeyError(f"no value supplied for variable {var_name(v)}")
                prod *= rational(assignment[v]) ** e
            total += prod
        return rational(total)

    # -- rendering ----------------------------------------------------------

    def to_str(self, order: MonomialOrder = GREVLEX) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for m in order.sorted_desc(self.terms):
            c = self.terms[m]
            mag = abs(c)
            if m == EMPTY_MONO:
                body = str(mag)
            elif mag == 1:
                body = mono_str(m)
            else:
                body = f"{mag}*{mono_str(m)}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_str()!r})"


def primitive_scale(coeffs, lead: int | Fraction) -> Fraction:
    """The scale that turns the nonzero rational values ``coeffs`` (each an
    ``int`` or a ``Fraction``) into coprime integers, with ``lead`` (one of
    them, the leading coefficient) positive: the one generator normalisation
    of :func:`canonical_generators` and the Gröbner engine."""
    denom_lcm = math.lcm(*(c.denominator for c in coeffs))
    num_gcd = math.gcd(*(c.numerator * (denom_lcm // c.denominator) for c in coeffs))
    scale = Fraction(denom_lcm, num_gcd)
    return -scale if lead < 0 else scale


def canonical_generators(polys: Iterable[Polynomial],
                         order: MonomialOrder = GREVLEX) -> list[Polynomial]:
    """Nonzero ``polys`` normalized in ``order``, without duplicates (the first
    occurrence wins), sorted ascending by leading monomial: the one form a
    generator list is put in.

    The sort is stable, so generators that share a leading monomial keep
    their input order.  The list is therefore canonical only up to such
    ties: the same generators given in another order can come out in
    another order, and reports show that order as it is."""
    keys: dict[Polynomial, tuple] = {}  # each generator's leading-monomial key
    for p in polys:
        if p:
            lm = order.max(p.terms)  # found once; rescaling keeps it
            scale = primitive_scale(p.terms.values(), p.terms[lm])
            keys.setdefault(p if scale == 1 else p * scale, order.key(lm))
    return sorted(keys, key=keys.__getitem__)


def linear_combination(pairs) -> Polynomial:
    """Σ c·p over ``(Polynomial, rational)`` pairs, added up in one term dict."""
    terms: dict[Mono, int | Fraction] = {}
    for p, c in pairs:
        for m, x in p.terms.items():
            terms[m] = terms.get(m, 0) + x * c
    return Polynomial(terms)


class PackingOverflow(Exception):
    """A new monomial's degree reached the guard bit of its field."""


class Packing:
    """Monomials over fixed variables in one order, packed into ints of
    ``width``-bit fields as the module docstring lays out; the one packing
    of the Gröbner engine and the deformation recursion."""

    __slots__ = ("variables", "guards", "limit", "_width", "_field", "_block",
                 "_x_mask", "_ones", "_x_guards", "_x_shift", "_deg_shift", "_shifts",
                 "_grevlex", "_units")

    def __init__(self, variables: list, order: MonomialOrder, width: int):
        n = len(variables)
        self.variables = variables
        self._width = width
        self._field = (1 << width) - 1
        self.limit = 1 << (width - 1)
        # The exponent block is the n fields of e_0 … e_(n-1): e_k sits in
        # its field n-1-k for grevlex (e_0 on top), in field k for lex.
        self._block = n * width
        self._x_mask = (1 << self._block) - 1
        self._ones = sum(1 << (f * width) for f in range(n))
        self._x_guards = self._ones << (width - 1)
        self._grevlex = order == GREVLEX
        if self._grevlex:
            fields, self._x_shift, self._deg_shift = 2 * n, 0, max(2 * n - 1, 0) * width
            self._shifts = [(n - 1 - k) * width for k in range(n)]
        else:
            fields, self._x_shift, self._deg_shift = n + 1, width, 0
            self._shifts = [k * width for k in range(n)]
        self.guards = sum(1 << (f * width + width - 1) for f in range(fields))
        self._units = {v: self._from_exponents(1 << s)
                       for v, s in zip(variables, self._shifts)}

    def _from_exponents(self, x: int) -> int:
        """The monomial with exponent block ``x``; its degree must be below
        ``limit``, so that no field of ``sums`` carries."""
        sums = x * self._ones  # field j holds the sum of exponent fields 0 … j
        if self._grevlex:  # fields 0 … n-1 of sums are s_(n-2) … s_0, degree
            return ((sums & self._x_mask) << self._block) | x
        top = sums >> (self._block - self._width)  # field n-1: the degree
        return (x << self._x_shift) | (top & self._field)

    def degree(self, m: int) -> int:
        return (m >> self._deg_shift) & self._field

    def unit(self, v) -> int:
        """The packed monomial of the variable ``v``, one of ``variables``."""
        return self._units[v]

    def pack(self, p: Polynomial) -> dict[int, int | Fraction]:
        """The terms of ``p``, whose variables are among ``variables``, packed."""
        units = self._units
        return {sum(e * units[v] for v, e in mono): c for mono, c in p.terms.items()}

    def polynomial(self, terms: dict[int, int | Fraction]) -> Polynomial:
        """The polynomial of the packed ``terms``, in their order."""
        field, pairs = self._field, list(zip(self.variables, self._shifts))
        out = {}
        for m, c in terms.items():
            x = m >> self._x_shift
            out[tuple((v, e) for v, s in pairs if (e := (x >> s) & field))] = c
        return Polynomial(out)

    def gcd(self, a: int, b: int) -> int:
        """Greatest common divisor of monomials ``a`` and ``b``; 0 when coprime."""
        xa = (a >> self._x_shift) & self._x_mask
        xb = (b >> self._x_shift) & self._x_mask
        # SWAR minimum: a field of (xa | guards) - xb keeps its guard bit
        # exactly where xa's exponent is at least xb's, and never borrows.
        ge = (((xa | self._x_guards) - xb) & self._x_guards) >> (self._width - 1)
        ge = (ge << self._width) - ge  # all ones in those fields
        x = (xb & ge) | (xa & ~ge)
        return self._from_exponents(x) if x else 0

    def lcm(self, a: int, b: int) -> int:
        """Least common multiple of monomials ``a`` and ``b``; raises
        :class:`PackingOverflow` when its degree reaches the guard bit."""
        lcm = a + b - self.gcd(a, b)
        if self.degree(lcm) >= self.limit:
            raise PackingOverflow
        return lcm

    def prep(self, terms: dict[int, int | Fraction]) -> tuple:
        """Divisor entry ``(leading monomial, slack, monic tail)`` of nonzero ``terms``."""
        lm = max(terms)
        lc = terms[lm]
        if lc == 1:
            tail = [(m, c) for m, c in terms.items() if m != lm]
        else:
            tail = [(m, rational(Fraction(c) / lc)) for m, c in terms.items() if m != lm]
        slack = max((self.degree(m) for m, _ in tail), default=0) - self.degree(lm)
        return lm, slack, tail


def packed(variables: list, order: MonomialOrder, width: int, compute):
    """``compute(packing)`` on the packing of ``variables`` in ``order`` with
    ``width``-bit fields, repeated on fields twice as wide after each
    :class:`PackingOverflow`."""
    while True:
        try:
            return compute(Packing(variables, order, width))
        except PackingOverflow:
            width *= 2


def _coerce(x) -> Polynomial | None:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.constant(x) if x else _ZERO
    return None


_ZERO = Polynomial()
_ONE = Polynomial({EMPTY_MONO: 1})


def var_poly(i: int, j: int) -> Polynomial:
    """The parameter ``t_i^j`` as a polynomial; both indices count from 1,
    since ``(0, 0)`` is the elimination variable ``u``."""
    if i < 1 or j < 1:
        raise ValueError(f"parameter indices count from 1, got t{i}_{j}")
    return Polynomial.variable((i, j))


def minor2(i: int, j: int, k: int, l: int) -> Polynomial:
    """2x2 minor ``t_i^k * t_j^l - t_i^l * t_j^k``.

    Lower indices ``i, j`` select parameter rows (harmonic directions), upper
    indices ``k, l`` select columns (frame vectors); repeated indices on either
    level make the minor identically zero and are rejected.
    """
    if i == j:
        raise ValueError(f"repeated lower index {i}")
    if k == l:
        raise ValueError(f"repeated upper index {k}")
    return var_poly(i, k) * var_poly(j, l) - var_poly(i, l) * var_poly(j, k)


def minor3(i: int, j: int, k: int, l: int, m: int, n: int) -> Polynomial:
    """3x3 minor: determinant over lower (row-parameter) indices ``i, j, k``
    and upper (column) indices ``l, m, n``."""
    lower = (i, j, k)
    upper = (l, m, n)
    if len(set(lower)) != 3:
        raise ValueError(f"repeated lower index in {lower}")
    if len(set(upper)) != 3:
        raise ValueError(f"repeated upper index in {upper}")
    total = Polynomial.zero()
    for perm, sign in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ):
        prod = Polynomial.one()
        for row, col in zip(range(3), perm):
            prod = prod * var_poly(lower[row], upper[col])
        total = total + prod * sign
    return total


# -- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)"
    r"|(?P<tvar>t(?P<ti>\d+)_(?P<tj>\d+))"
    r"|(?P<uvar>u\b)"
    r"|(?P<minor>(?P<mname>delta|Delta)\[(?P<mlow>\d+);(?P<mup>\d+)\])"
    r"|(?P<op>[-+*^()]))"
)


class PolynomialParseError(ValueError):
    pass


_MINORS = {"delta": (2, minor2), "Delta": (3, minor3)}


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            rest = text[pos:].strip()
            if not rest:
                break
            raise PolynomialParseError(f"cannot tokenize {rest[:20]!r}")
        pos = m.end()
        if m.group("number"):
            p, _, q = m.group("number").partition("/")
            if q and not int(q):
                raise PolynomialParseError(f"zero denominator in {m.group('number')!r}")
            tokens.append(("num", Fraction(int(p), int(q or 1))))
        elif m.group("tvar"):
            var = (int(m.group("ti")), int(m.group("tj")))
            if 0 in var:
                raise PolynomialParseError(f"parameter indices count from 1: {m.group(0)}")
            tokens.append(("var", var))
        elif m.group("uvar"):
            tokens.append(("var", UVAR))
        elif m.group("minor"):
            size, minor = _MINORS[m.group("mname")]
            low, up = m.group("mlow"), m.group("mup")
            if len(low) != size or len(up) != size:
                raise PolynomialParseError(
                    f"{m.group('mname')} needs {size} lower and {size} upper digits: {m.group(0)}")
            try:
                tokens.append(("poly", minor(*(int(d) for d in low + up))))
            except ValueError as exc:  # a repeated index or an index 0
                raise PolynomialParseError(f"{m.group(0)}: {exc}") from None
        else:
            tokens.append(("op", m.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise PolynomialParseError(f"expected {op!r}, got {val!r}")

    def parse_expr(self) -> Polynomial:
        total = self.parse_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                term = self.parse_term()
                total = total + term if val == "+" else total - term
            else:
                return total

    def parse_term(self) -> Polynomial:
        total = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.next()
                total = total * self.parse_factor()
            elif kind in ("num", "var", "poly") or (kind == "op" and val == "("):
                # implicit multiplication, e.g. "2t1_1" or "t2_1delta[12;12]"
                total = total * self.parse_factor()
            else:
                return total

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            ekind, eval_ = self.next()
            if ekind != "num" or eval_.denominator != 1:
                raise PolynomialParseError("exponent must be a nonnegative integer")
            return base ** int(eval_)
        return base

    def parse_atom(self) -> Polynomial:
        kind, val = self.next()
        if kind == "num":
            return Polynomial.constant(val)
        if kind == "var":
            return Polynomial.variable(val)
        if kind == "poly":
            return val
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return -self.parse_factor()
        if kind == "op" and val == "+":
            return self.parse_factor()
        raise PolynomialParseError(f"unexpected token {val!r}")


def parse_polynomial(text: str) -> Polynomial:
    """Parse expressions like ``2*t1_1^2 - delta[12;12] + 1/2``.

    Grammar: numbers (``p`` or ``p/q``), parameters ``t<i>_<j>``, the
    elimination variable ``u``, minor shorthands ``delta[ij;kl]`` (2x2) and
    ``Delta[ijk;lmn]`` (3x3), with ``+ - * ^`` and parentheses.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial")
    parser = _Parser(tokens)
    poly = parser.parse_expr()
    if parser.pos != len(tokens):
        raise PolynomialParseError(f"trailing tokens at {parser.pos}")
    return poly



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
