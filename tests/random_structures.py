"""Random valid complex structures that are not parallelisable, for property
tests of the general path: ``dw`` files of dimension 3–5 drawn from a seeded
``random.Random``.

Each ``dw<k>`` is a sum of up to two terms ``c·w^a∧w^b`` (a < b < k) or
``c·cw^a∧w^b`` (a, b < k), c in {±1, ±2}.  The indices stay below k, so the
structure is nilpotent; a draw is kept only when ``validate()`` passes (d² = 0
on the complexification) and some ``cw`` term survives, so that the ambient
is not parallelisable and ∂ of a (0,q)-form can be live."""

import random

from kuranil.algebra import JacobiViolation, parse_complex_structure_file

# ∂ of ψ_j is live here, so the coexact certificate's bracket [ψ_j, Φ] needs
# the Frölicher–Nijenhuis sign of the ∂-term.
LIVE_DEL_DIM4 = "dim 4\ndw2 = 2*cw1^w1\ndw3 = w1^w2\n"

# A (1,1) part holding both cw1∧w2 and cw2∧w1, so ∂ of a (0,1)-form is live.
SWAPPED5 = "dim 5\ndw3 = cw1^w2 + cw2^w1\ndw4 = w1^w2 + cw1^w1\ndw5 = w1^w2 + cw2^w2\n"

# Live ∂ with rational coefficients: the contractions i_X ∂ω̄^I have
# denominator 2 and the frame brackets denominator 3.
LIVE_DEL_FRACTIONS = "dim 4\ndw2 = 2*cw1^w1\ndw3 = 1/3*w1^w2 + 1/2*cw1^w2\n"

_FACTORS = (-2, -1, 1, 2)


def _term(k: int, rng: random.Random) -> str:
    c = rng.choice(_FACTORS)
    if rng.random() < 0.5:
        a, b = rng.randint(1, k - 1), rng.randint(1, k - 1)
        body = f"cw{a}^w{b}"
    else:
        if k < 3:
            return ""
        a, b = sorted(rng.sample(range(1, k), 2))
        body = f"w{a}^w{b}"
    return f"{c}*{body}" if c > 0 else f"- {-c}*{body}"


def random_structure_text(rng: random.Random) -> str:
    """The text of a random valid, non-parallelisable ``dw`` file."""
    while True:
        n = rng.randint(3, 5)
        lines = [f"dim {n}"]
        for k in range(2, n + 1):
            terms = [t for t in (_term(k, rng) for _ in range(rng.randint(0, 2))) if t]
            if terms:
                rhs = " + ".join(terms).replace("+ -", "-")
                lines.append(f"dw{k} = {rhs}")
        text = "\n".join(lines) + "\n"
        csa = parse_complex_structure_file(text)
        if csa.parallelisable:
            continue
        try:
            csa.validate()
        except JacobiViolation:
            continue
        return text
