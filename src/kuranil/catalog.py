"""Catalog of nilpotent Lie algebras with known Kuranishi-space data.

Each entry records a Lie algebra (or a Lie algebra with complex structure)
together with its known deformation-theoretic invariants: nilpotency index,
``h¹(Θ)``, smoothness/irreducibility/reducedness of the Kuranishi germ, the
dimension ``d`` of the cylinder base, expected obstruction-ideal generators,
and — for the singular five-dimensional algebras — a primary decomposition of
the obstruction ideal stored under ``kuranil/data/``.

Some stored decompositions exist in two transcriptions: the main file follows
the source verbatim, while an ``_alt`` file corrects index patterns that break
the symmetry of neighbouring entries (suspected misprints).  Verification code
should try the main reading first and fall back to the variant.

Importing the module builds no algebra and parses no polynomial; the test
suite checks the shipped data (each entry builds, validates and has its
recorded dimension, and every stored string and file parses).  Each stored
decomposition is kept as parsed from the first
:meth:`CatalogEntry.published_components` call that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .algebra import (
    ComplexStructureAlgebra,
    LieAlgebra,
    parse_complex_structure_file,
    parse_salamon,
)
from .polyring import Polynomial, parse_ideal_components, parse_polynomial


class CatalogError(Exception):
    """Raised when a catalog entry is malformed or cannot be built."""


def _data_text(filename: str) -> str:
    return resources.files("kuranil").joinpath("data").joinpath(filename).read_text()


# Stored decompositions by file name, parsed on first read.
_COMPONENTS: dict[str, list[list[Polynomial]]] = {}


@dataclass(frozen=True)
class CatalogEntry:
    """One algebra with its published invariants and verification data.

    ``published_h1`` is the tabulated value of ``h¹(Θ)``; ``computed_h1`` is
    the value the Hodge decomposition yields.  The two differ exactly where a
    discrepancy annotation is expected from :func:`kuranil.kuranishi.analyze`.
    """

    name: str
    dim: int
    nu: int
    computed_h1: int
    smooth: bool
    aliases: tuple[str, ...] = ()
    kind: str = "parallelisable"  # or "general"
    salamon: str | None = None
    structure_file: str | None = None
    published_h1: int | None = None
    irreducible: bool | None = None
    reduced: bool | None = None
    d: int | None = None
    ideal_file: str | None = None
    ideal_variant_file: str | None = None
    expected_generators: tuple[str, ...] = ()
    reducibility: dict[str, tuple[str, ...]] = field(default_factory=dict)
    notes: str = ""

    def build(self) -> LieAlgebra | ComplexStructureAlgebra:
        """Construct the algebra; always returns a fresh object."""
        if self.kind == "general":
            if self.structure_file is None:
                raise CatalogError(f"{self.name}: general entry without structure file")
            return parse_complex_structure_file(_data_text(self.structure_file),
                                                name=self.name)
        if self.salamon is None:
            raise CatalogError(f"{self.name}: parallelisable entry without structure string")
        return parse_salamon(self.salamon, name=self.name)

    def published_components(self, variant: bool = False) -> list[list[Polynomial]] | None:
        """Stored primary decomposition, or None when nothing is on record.
        Each file is parsed and kept on the first call that reads it; every
        call returns fresh lists."""
        filename = self.ideal_variant_file if variant else self.ideal_file
        if filename is None:
            return None
        if filename not in _COMPONENTS:
            _COMPONENTS[filename] = parse_ideal_components(_data_text(filename))
        return [list(component) for component in _COMPONENTS[filename]]

    def expected_ideal(self) -> list[Polynomial] | None:
        """Expected obstruction-ideal generators, parsed."""
        if not self.expected_generators:
            return None
        return [parse_polynomial(s) for s in self.expected_generators]

    @property
    def has_variant(self) -> bool:
        return self.ideal_variant_file is not None


# Alias policy: letter names (a_k for the abelian algebra of dimension k,
# b_k for free two-step families) resolve through the aliases below.  Both
# b_1 and b_2 map to the dimension-3 Heisenberg algebra because published
# conventions disagree — one numbers the family in order of appearance, the
# other by generator count.  Canonical entry names never collide.
ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="a_1", salamon="(0)", dim=1, nu=1,
        computed_h1=1, published_h1=1,
        smooth=True, irreducible=True, reduced=True,
        aliases=("(0)",),
    ),
    CatalogEntry(
        name="a_2", salamon="(0,0)", dim=2, nu=1,
        computed_h1=4, published_h1=6,
        smooth=True, irreducible=True, reduced=True,
        aliases=("(0,0)",),
        notes="tabulated h1 follows k^2(k+1)/2; the harmonic count gives k^2",
    ),
    CatalogEntry(
        name="a_3", salamon="(0,0,0)", dim=3, nu=1,
        computed_h1=9, published_h1=18,
        smooth=True, irreducible=True, reduced=True,
        aliases=("(0,0,0)",),
        notes="tabulated h1 follows k^2(k+1)/2; the harmonic count gives k^2",
    ),
    CatalogEntry(
        name="a_4", salamon="(0,0,0,0)", dim=4, nu=1,
        computed_h1=16, published_h1=40,
        smooth=True, irreducible=True, reduced=True,
        aliases=("(0,0,0,0)",),
        notes="tabulated h1 follows k^2(k+1)/2; the harmonic count gives k^2",
    ),
    CatalogEntry(
        name="a_5", salamon="(0,0,0,0,0)", dim=5, nu=1,
        computed_h1=25, published_h1=75,
        smooth=True, irreducible=True, reduced=True,
        aliases=("(0,0,0,0,0)",),
        notes="tabulated h1 follows k^2(k+1)/2; the harmonic count gives k^2",
    ),
    CatalogEntry(
        name="(0,0,12)", salamon="(0,0,12)", dim=3, nu=2,
        computed_h1=6, published_h1=6,
        smooth=True, irreducible=True, reduced=True,
        aliases=("b_1", "b_2", "heisenberg"),
        notes="Heisenberg algebra; free two-step on two generators",
    ),
    CatalogEntry(
        name="(0,0,0,12)", salamon="(0,0,0,12)", dim=4, nu=2,
        computed_h1=12, published_h1=12,
        smooth=False, irreducible=False, reduced=True,
        expected_generators=("delta[13;12]", "delta[23;12]"),
        reducibility={
            # V(delta[13;12], delta[23;12]) = V(linear) ∪ V(rank), certified by
            # three exact ideal-membership checks (no radicals needed):
            #   each generator lies in (linear) and in (rank), and the two
            #   products below lie in the generator ideal, so outside V(rank)
            #   the column variables t3_* must vanish.
            "linear": ("t3_1", "t3_2"),
            "rank": ("delta[12;12]", "delta[13;12]", "delta[23;12]"),
            "products": ("t3_1*delta[12;12]", "t3_2*delta[12;12]"),
        },
        notes="Kuranishi germ is a cylinder over a reducible cone",
    ),
    CatalogEntry(
        name="(0,0,12,13)", salamon="(0,0,12,13)", dim=4, nu=3,
        computed_h1=8, published_h1=8,
        smooth=False, irreducible=False, reduced=True,
        expected_generators=("t2_1*delta[12;12]",),
        notes="cylinder over the cone over a plane union a quadric",
    ),
    CatalogEntry(
        name="(0,0,0,12,13)", salamon="(0,0,0,12,13)", dim=5, nu=2,
        computed_h1=15, published_h1=15,
        smooth=False, irreducible=False, reduced=True,
        d=9, ideal_file="components_0-0-0-12-13.txt",
    ),
    CatalogEntry(
        name="(0,0,0,0,12+34)", salamon="(0,0,0,0,12+34)", dim=5, nu=2,
        computed_h1=20, published_h1=20,
        smooth=False, irreducible=False, reduced=True,
        d=16, ideal_file="components_0-0-0-0-12p34.txt", ideal_variant_file="components_0-0-0-0-12p34_alt.txt",
    ),
    CatalogEntry(
        name="(0,0,12,13,23)", salamon="(0,0,12,13,23)", dim=5, nu=3,
        computed_h1=10, published_h1=10,
        smooth=True, irreducible=True, reduced=True,
        aliases=("free_3_step",),
        notes="free three-step algebra on two generators; unobstructed",
    ),
    CatalogEntry(
        name="(0,0,0,12,13+24)", salamon="(0,0,0,12,13+24)", dim=5, nu=3,
        computed_h1=15, published_h1=15,
        smooth=False, irreducible=False, reduced=False,
        d=12, ideal_file="components_0-0-0-12-13p24.txt", ideal_variant_file="components_0-0-0-12-13p24_alt.txt",
    ),
    CatalogEntry(
        name="(0,0,12,13,14)", salamon="(0,0,12,13,14)", dim=5, nu=4,
        computed_h1=10, published_h1=10,
        smooth=False, irreducible=False, reduced=False,
        d=8, ideal_file="components_0-0-12-13-14.txt",
    ),
    CatalogEntry(
        name="(0,0,12,13,14+23)", salamon="(0,0,12,13,14+23)", dim=5, nu=4,
        computed_h1=10, published_h1=10,
        smooth=False, irreducible=False, reduced=False,
        d=8, ideal_file="components_0-0-12-13-14p23.txt",
    ),
    CatalogEntry(
        name="(0,0,12,13,23,14,25,24+15)",
        salamon="(0,0,12,13,23,14,25,24+15)", dim=8, nu=4,
        computed_h1=16, published_h1=None,
        smooth=True,
        aliases=("free_4_step",),
        notes="free four-step algebra on two generators; unobstructed",
    ),
    CatalogEntry(
        name="general7", kind="general", structure_file="general7.alg",
        dim=7, nu=2, computed_h1=31, smooth=False,
        aliases=("dim7-mixed",),
        notes="neither parallelisable nor abelian; cubic obstruction survives",
    ),
)


_INDEX: dict[str, CatalogEntry] = {}
for _entry in ENTRIES:
    for _key in (_entry.name, *_entry.aliases):
        _normalized = _key.replace(" ", "").lower()
        if _normalized in _INDEX:
            raise CatalogError(f"duplicate catalog key {_key!r}")
        _INDEX[_normalized] = _entry


def entries() -> tuple[CatalogEntry, ...]:
    return ENTRIES


def get(name: str) -> CatalogEntry:
    """Look up an entry by canonical name or alias (whitespace-insensitive)."""
    key = name.replace(" ", "").lower()
    try:
        return _INDEX[key]
    except KeyError:
        raise KeyError(f"no catalog entry named {name!r}") from None
