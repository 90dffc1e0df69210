"""Random nilpotent Lie algebras for property tests, built by successive
central extensions (the Skjelbred–Sund construction) from a fixed seed, and
changes of frame of a Lie algebra."""

from fractions import Fraction
from functools import cache
import itertools
import random

from kuranil import linalg
from kuranil.algebra import LieAlgebra, abelian
from kuranil.exterior import Cov, ExteriorForm

RANDOM_NILPOTENT_COUNT = 30


def central_extension(L: LieAlgebra, rng: random.Random) -> LieAlgebra:
    """``L`` extended by one vector X_{n+1} (Skjelbred–Sund): dw^{n+1} is a
    random {−2, …, 2} combination of a basis of the closed 2-forms of ``L``."""
    n = L.dim
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    triples = {t: r for r, t in enumerate(itertools.combinations(range(1, n + 1), 3))}
    d = [{} for _ in triples]  # d on Λ², one column per pair
    for col, (a, b) in enumerate(pairs):
        image = ExteriorForm.basis_form(L, [Cov(a, False), Cov(b, False)]).ce_differential()
        for mi, c in image.terms.items():
            d[triples[tuple(cv.index for cv in mi)]][col] = c.constant_value()
    dw = {}
    for row in linalg.nullspace(d, len(pairs)).rows:
        r = rng.randint(-2, 2)
        for col, x in row.items():
            dw[col] = dw.get(col, 0) + r * x
    brackets = {key: dict(comp) for key, comp in L.brackets.items()}
    for col, x in dw.items():
        if x:
            # dw^k = Σ x·w^a∧w^b  ⟹  [X_a, X_b] = −Σ x·X_k
            brackets.setdefault(pairs[col], {})[n + 1] = -x
    return LieAlgebra(n + 1, brackets)


def change_frame(L: LieAlgebra, operations) -> LieAlgebra:
    """``L`` in the frame reached by the operations X_i += c·X_j in turn, each
    an ``(i, j, c)`` with i ≠ j in 1..n; any order of i and j is allowed.

    Column a of ``p`` is the new frame vector Y_a in the old frame, and
    ``p_inv`` its inverse: [Y_a, Y_b] = Σ p_ra p_sb [X_r, X_s], read back in
    the new frame through ``p_inv``, all in exact ``Fraction``s."""
    n = L.dim
    p = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    p_inv = [row[:] for row in p]
    for i, j, c in operations:
        i, j = i - 1, j - 1
        for row in p:
            row[i] += c * row[j]
        p_inv[j] = [x - c * y for x, y in zip(p_inv[j], p_inv[i])]
    brackets = {}
    for a, b in itertools.combinations(range(n), 2):
        v = [Fraction(0)] * n
        for (r, s), comp in L.brackets.items():
            w = p[r - 1][a] * p[s - 1][b] - p[s - 1][a] * p[r - 1][b]
            for k, c in comp.items():
                v[k - 1] += w * c
        brackets[(a + 1, b + 1)] = {k + 1: sum(x * y for x, y in zip(p_inv[k], v))
                                    for k in range(n)}
    return LieAlgebra(n, brackets)


@cache
def random_nilpotent_algebras() -> list[LieAlgebra]:
    """Nilpotent Lie algebras of dimension 3..6, central extensions of a_2
    from a fixed seed; ``validate`` is their oracle, not their filter."""
    rng = random.Random(19)
    algebras = []
    for _ in range(RANDOM_NILPOTENT_COUNT):
        L = abelian(2)
        for _ in range(rng.randint(1, 4)):
            L = central_extension(L, rng)
        L.validate()
        algebras.append(L)
    return algebras
