"""Exact-arithmetic Kuranishi deformation theory for nilpotent Lie algebras.

The package computes, over the rationals, the obstruction ideal that cuts out
the Kuranishi space of a complex parallelisable nilmanifold inside
``H¹(Θ)``: structure constants in, polynomial generators out.  It provides

* rational nilpotent Lie algebras and left-invariant complex structures
  (:mod:`kuranil.algebra`),
* the Chevalley–Eilenberg and Dolbeault calculus on invariant forms
  (:mod:`kuranil.exterior`),
* exact rational matrices and one subspace type, RREF rows with their pivots
  (:mod:`kuranil.linalg`),
* exact Hodge-style decompositions of the relevant complexes with explicit
  ``∂̄``-preimages (:mod:`kuranil.hodge`),
* the degree-by-degree power-series solution of the Maurer–Cartan equation
  and the resulting obstruction ideal (:mod:`kuranil.kuranishi`), which runs
  on integer forms with packed monomials on both complexes
  (:mod:`kuranil.intforms`),
* multivariate polynomials over ``ℚ`` with deterministic monomial orders,
  one normal form of generator lists and the ideal-file reader (:mod:`kuranil.polyring`),
  and Buchberger-based ideal arithmetic, which only the checks use
  (:mod:`kuranil.groebner`),
* a catalog of low-dimensional algebras with their known deformation data
  (:mod:`kuranil.catalog`), checks that re-derive it (:mod:`kuranil.verify`)
  and a command-line interface (:mod:`kuranil.cli`).
"""

from . import catalog
from .algebra import (
    ComplexStructureAlgebra,
    FreeTwoStepResult,
    JacobiViolation,
    LieAlgebra,
    NotIntegrable,
    NotNilpotent,
    StructureParseError,
    abelian,
    free_two_step,
    parse_algebra_file,
    parse_complex_structure_file,
    parse_salamon,
    parse_structure_file,
    to_complex_structure,
)
from .catalog import CatalogEntry, CatalogError
from .exterior import AmbientMismatch, ExteriorForm, VectorForm
from .groebner import (
    GroebnerBasis,
    GroebnerTimeout,
    buchberger,
    ideal_equal,
    ideal_intersect,
    normal_form,
)
from .hodge import (
    DegreeMismatch,
    HodgeDecomposition,
    NotALieAlgebra,
    build_decomposition,
    build_theta_decomposition,
    hodge_numbers,
)
from .kuranishi import (
    ClosednessViolation,
    MissingDegreeCap,
    PhiSeries,
    analyze,
    analyze_general,
    generic_harmonic_element,
    obstruction_map,
    parallelisable_directions,
    phi_recursion,
    smoothness_tests,
)
from .linalg import Subspace
from .polyring import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    PolynomialParseError,
    canonical_generators,
    minor2,
    minor3,
    parse_ideal_components,
    parse_polynomial,
    var_poly,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatch",
    "CatalogEntry",
    "CatalogError",
    "ClosednessViolation",
    "ComplexStructureAlgebra",
    "DegreeMismatch",
    "ExteriorForm",
    "FreeTwoStepResult",
    "GREVLEX",
    "GroebnerBasis",
    "GroebnerTimeout",
    "HodgeDecomposition",
    "JacobiViolation",
    "LEX",
    "LieAlgebra",
    "MissingDegreeCap",
    "MonomialOrder",
    "NotALieAlgebra",
    "NotIntegrable",
    "NotNilpotent",
    "PhiSeries",
    "Polynomial",
    "PolynomialParseError",
    "StructureParseError",
    "Subspace",
    "VectorForm",
    "abelian",
    "analyze",
    "analyze_general",
    "buchberger",
    "build_decomposition",
    "build_theta_decomposition",
    "canonical_generators",
    "catalog",
    "free_two_step",
    "generic_harmonic_element",
    "hodge_numbers",
    "ideal_equal",
    "ideal_intersect",
    "minor2",
    "minor3",
    "normal_form",
    "obstruction_map",
    "parallelisable_directions",
    "parse_algebra_file",
    "parse_complex_structure_file",
    "parse_ideal_components",
    "parse_polynomial",
    "parse_salamon",
    "parse_structure_file",
    "phi_recursion",
    "smoothness_tests",
    "to_complex_structure",
    "var_poly",
    "__version__",
]
