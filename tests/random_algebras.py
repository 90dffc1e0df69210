"""Random nilpotent Lie algebras for property tests, built by successive
central extensions (the Skjelbred–Sund construction) from a fixed seed."""

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
