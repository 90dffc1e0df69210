"""Every name a module of the package imports is used in that module,
every private module-level name (``_x``) it defines is referenced in it,
it reads private attributes only through ``self`` or ``cls``, no module
but ``linalg`` calls ``rref``, no module but ``groebner`` constructs a
``GroebnerBasis`` or calls ``buchberger``, ``hodge`` applies no form-level differential
and makes no ``Polynomial.zero()`` call, ``kuranishi`` reads no complex
``kind``, ``algebra`` imports nothing from ``exterior``, no module but
``verify`` imports ``groebner``, ``cli`` validates and converts no
algebra itself, importing ``kuranil`` validates and parses nothing, each
ambient protocol method is defined once in the package, every ``/`` in the
package divides a ``Fraction``, and every name ``kuranil`` exports, and
every public module-level function and class of the package, is read by
the package or the benchmark, or exported and declared library-only."""

import ast
from collections import Counter
import os
from pathlib import Path
import subprocess
import sys

import pytest

import kuranil

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kuranil"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _dead_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(private - used)


def _foreign_private_reads(source: str) -> list[str]:
    """``line:owner._name`` for each read of a private, non-dunder attribute
    whose owner is not ``self`` or ``cls``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr.startswith("_") and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            found.append((node.lineno, f"{node.lineno}:{ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def test_unused_imports_are_found():
    source = "import os\nfrom fractions import Fraction\nos.getcwd()\n"
    assert _unused_imports(source) == ["Fraction"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_dead_private_names_are_found():
    source = ("_LIMIT = 3\n_SPARE: int = 4\n__all__ = []\n"
              "def _used():\n    return _LIMIT\n"
              "def _dead():\n    pass\n"
              "class _Unused:\n    pass\n"
              "def public():\n    return _used()\n")
    assert _dead_private_names(source) == ["_SPARE", "_Unused", "_dead"]


@pytest.mark.parametrize("module", MODULES)
def test_module_private_names_are_used(module):
    assert _dead_private_names((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_foreign_private_reads_are_found():
    source = ("class A:\n"
              "    def f(self, other):\n"
              "        self._own = other._theirs\n"
              "        return cls._mine, self.__dict__, other.__class__\n"
              "def g(dec):\n"
              "    dec._cache = 1\n"
              "    return dec._coords(2).public, dec.public\n")
    assert _foreign_private_reads(source) == ["3:other._theirs", "7:dec._coords"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_no_foreign_private_attributes(module):
    assert _foreign_private_reads((PACKAGE / module).read_text(encoding="utf-8")) == []


def _calls(source: str, callee: str) -> list[str]:
    """``line:call`` for each call of a function or class named ``callee``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == callee:
                found.append((node.lineno, f"{node.lineno}:{ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def test_rref_calls_are_found():
    source = ("from .linalg import rref\n"
              "rows, pivots = rref(a)\n"
              "space = linalg.rref(b)[0]\n"
              "echelon = linalg.rref\n"
              "sub.rref_rows(c)\n")
    assert _calls(source, "rref") == ["2:rref(a)", "3:linalg.rref(b)"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "linalg.py"])
def test_module_leaves_rref_to_linalg(module):
    """Only ``linalg`` echelonises; every other module holds a ``Subspace``."""
    assert _calls((PACKAGE / module).read_text(encoding="utf-8"), "rref") == []


def test_groebner_basis_constructions_are_found():
    source = ("from .groebner import GroebnerBasis\n"
              "basis = GroebnerBasis(GREVLEX, gens)\n"
              "other = groebner.GroebnerBasis(LEX, [])\n"
              "isinstance(basis, GroebnerBasis)\n"
              "kind = groebner.GroebnerBasis\n")
    assert _calls(source, "GroebnerBasis") == [
        "2:GroebnerBasis(GREVLEX, gens)", "3:groebner.GroebnerBasis(LEX, [])"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "groebner.py"])
def test_module_leaves_groebner_basis_construction_to_groebner(module):
    """A ``GroebnerBasis`` promises a reduced basis, so only ``groebner``
    makes one; a generator list is never passed off as a basis."""
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert _calls(source, "GroebnerBasis") == []


def test_buchberger_calls_are_found():
    source = ("from .groebner import buchberger\n"
              "basis = buchberger(gens)\n"
              "other = groebner.buchberger(gens, LEX, deadline)\n"
              "build = groebner.buchberger\n")
    assert _calls(source, "buchberger") == [
        "2:buchberger(gens)", "3:groebner.buchberger(gens, LEX, deadline)"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "groebner.py"])
def test_module_leaves_buchberger_to_groebner(module):
    """Ideal relations outside ``groebner`` go through ``non_members``,
    ``ideal_equal`` and ``ideal_intersect``, which build a basis only when
    division cannot decide; no other module builds one itself."""
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert _calls(source, "buchberger") == []


def test_validation_calls_are_found():
    source = ("from .algebra import to_complex_structure\n"
              "algebra.validate()\n"
              "report = analyze_general(to_complex_structure(algebra))\n"
              "check = algebra.validate\n"
              "validated = validate_all(algebra)\n")
    assert _calls(source, "validate") == ["2:algebra.validate()"]
    assert _calls(source, "to_complex_structure") == ["3:to_complex_structure(algebra)"]


def test_cli_leaves_validation_to_the_library():
    """``analyze`` and ``analyze_general`` validate the ambient they receive,
    so the CLI resolves its input and dispatches, and checks no algebra itself."""
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert _calls(source, "validate") + _calls(source, "to_complex_structure") == []


# Run in a fresh interpreter: a profile hook set before ``import kuranil``
# records each call of a watched function defined in the package, then the
# hook is checked on one call that must show.
IMPORT_PROBE = """
import sys
WATCHED = {"validate", "parse_salamon", "parse_complex_structure_file", "parse_polynomial"}
calls = []
def record(frame, event, arg):
    if (event == "call" and frame.f_code.co_name in WATCHED
            and frame.f_globals.get("__name__", "").startswith("kuranil")):
        calls.append(frame.f_code.co_name)
sys.setprofile(record)
import kuranil
at_import = sorted(set(calls))
kuranil.parse_salamon("(0,0,12)").validate()
sys.setprofile(None)
print((at_import, sorted(set(calls))))
"""


def test_import_validates_and_parses_nothing():
    """The tests check the shipped catalog; importing the package builds no
    algebra and parses no polynomial."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert ast.literal_eval(proc.stdout) == ([], ["parse_salamon", "validate"])


FORM_DIFFERENTIALS = ("delbar", "delbar_theta", "del_", "ce_differential")


def _form_differential_calls(source: str) -> list[str]:
    """``line:call`` for each method call of a form-level differential."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in FORM_DIFFERENTIALS):
            found.append((node.lineno, f"{node.lineno}:{ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def test_form_differential_calls_are_found():
    source = ("def apply(obj, kind):\n"
              "    if kind == 'scalar':\n"
              "        return obj.delbar()\n"
              "    return obj.delbar_theta()\n"
              "image = form.del_() + form.ce_differential()\n"
              "delbar(form)\n"
              "op = form.delbar\n"
              "dec.vector_delbar(2)\n")
    assert _form_differential_calls(source) == [
        "3:obj.delbar()", "4:obj.delbar_theta()",
        "5:form.ce_differential()", "5:form.del_()"]


def test_hodge_applies_no_form_level_differential():
    """The ∂̄ matrices come from the structure constants; the form-level
    operators are their test oracle, never their source."""
    assert _form_differential_calls((PACKAGE / "hodge.py").read_text(encoding="utf-8")) == []


def _attribute_reads(source: str, attr: str) -> list[str]:
    """``line:expression`` for each read of an attribute named ``attr``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr == attr):
            found.append((node.lineno, f"{node.lineno}:{ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def _kind_reads(source: str) -> list[str]:
    """``line:expression`` for each read of an attribute named ``kind``."""
    return _attribute_reads(source, "kind")


def test_kind_reads_are_found():
    source = ("if dec.kind == 'scalar':\n"
              "    pass\n"
              "kind = series.decomposition.kind\n"
              "report['kind'] = csa.classify()\n"
              "self.kind = kind\n")
    assert _kind_reads(source) == ["1:dec.kind", "3:series.decomposition.kind"]


def test_kuranishi_reads_no_complex_kind():
    """One recursion serves both complexes; which complex a decomposition
    stores is for ``hodge`` alone."""
    assert _kind_reads((PACKAGE / "kuranishi.py").read_text(encoding="utf-8")) == []


def test_components_reads_are_found():
    source = ("for key, form in vf.components.items():\n"
              "    pass\n"
              "cells = vf.terms\n"
              "self.components = {}\n"
              "first = series.phi(1).components[(1, False)]\n")
    assert _attribute_reads(source, "components") == ["1:vf.components",
                                                      "5:series.phi(1).components"]


def test_hodge_reads_no_components():
    """A cell is a key of a form's ``terms`` on both complexes, so the Hodge
    layer never regroups a ``VectorForm`` by frame vector."""
    assert _attribute_reads((PACKAGE / "hodge.py").read_text(encoding="utf-8"),
                            "components") == []


def _polynomial_zero_calls(source: str) -> list[str]:
    """``line:call`` for each ``Polynomial.zero()`` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "zero" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "Polynomial"):
            found.append((node.lineno, f"{node.lineno}:{ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def test_polynomial_zero_calls_are_found():
    source = ("zeros = [Polynomial.zero()] * n\n"
              "form = VectorForm.zero(ambient)\n"
              "acc = out.get(cell, Polynomial.zero()) + x\n"
              "make = Polynomial.zero\n")
    assert _polynomial_zero_calls(source) == ["1:Polynomial.zero()", "3:Polynomial.zero()"]


def test_hodge_builds_no_dense_coordinate_vector():
    """Projections, ∂̄ and δ act on a form's terms; a zero-filled list of
    polynomial coordinates is the dense round trip they replace."""
    assert _polynomial_zero_calls((PACKAGE / "hodge.py").read_text(encoding="utf-8")) == []


def _imports_of(source: str, module: str) -> list[str]:
    """``line:statement`` for each import of the package module ``module``
    or of a name in it, relative or through ``kuranil``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name == f"kuranil.{module}" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = (node.level == 1 and node.module is None) or node.module == "kuranil"
            hit = (node.module == f"kuranil.{module}"
                   or (node.level == 1 and node.module == module)
                   or (package and any(a.name == module for a in node.names)))
        else:
            continue
        if hit:
            found.append((node.lineno, f"{node.lineno}:{ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def test_imports_of_a_module_are_found():
    source = ("from .exterior import VectorKey\n"
              "from . import exterior, linalg\n"
              "from kuranil.exterior import Cov\n"
              "import kuranil.exterior\n"
              "from kuranil import exterior as ext\n"
              "from .linalg import Subspace\n"
              "from exterior import Cov\n"
              "from ..exterior import Cov\n"
              "import exterior\n")
    assert _imports_of(source, "exterior") == [
        "1:from .exterior import VectorKey", "2:from . import exterior, linalg",
        "3:from kuranil.exterior import Cov", "4:import kuranil.exterior",
        "5:from kuranil import exterior as ext"]


def test_algebra_imports_nothing_from_exterior():
    """The ambient is read by forms and must not depend on them."""
    assert _imports_of((PACKAGE / "algebra.py").read_text(encoding="utf-8"), "exterior") == []


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("groebner.py", "verify.py")])
def test_module_leaves_groebner_to_verify(module):
    """The analysis computes its ideals without Gröbner bases, and only
    ``verify`` certifies with them."""
    assert _imports_of((PACKAGE / module).read_text(encoding="utf-8"), "groebner") == []


PROTOCOL = ("covector_differential", "vector_bracket", "vector_delbar", "parallelisable")


def _protocol_definitions(source: str) -> list[str]:
    """``line:name`` for each function or method defining an ambient protocol name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in PROTOCOL:
            found.append((node.lineno, f"{node.lineno}:{node.name}"))
    return [text for _, text in sorted(found)]


def test_protocol_definitions_are_found():
    source = ("class A:\n"
              "    def vector_bracket(self, i, bi, j, bj):\n"
              "        return {}\n"
              "class B(A):\n"
              "    def vector_bracket(self, i, bi, j, bj):\n"
              "        return self.covector_differential(i, bi)\n"
              "def vector_delbar(j):\n"
              "    pass\n")
    assert _protocol_definitions(source) == ["2:vector_bracket", "5:vector_bracket",
                                             "7:vector_delbar"]


def test_protocol_methods_are_defined_once():
    """The ambient protocol is read off one bracket table, by one class."""
    counts = Counter(text.split(":")[1] for path in PACKAGE.glob("*.py")
                     for text in _protocol_definitions(path.read_text(encoding="utf-8")))
    assert {name: counts[name] for name in PROTOCOL} == dict.fromkeys(PROTOCOL, 1)


def _divisions_without_fraction(source: str) -> list[str]:
    """``line:expression`` for each ``/`` whose left operand is not a
    ``Fraction(…)`` call, ``/=`` included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)):
            continue
        left = getattr(node, "left", None)
        if (isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
                and left.func.id == "Fraction"):
            continue
        found.append((node.lineno, f"{node.lineno}:{ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def test_divisions_without_fraction_are_found():
    source = ("q = c / lc\n"
              "r = Fraction(c) / lc\n"
              "s = Fraction(1) / fc + a.b / 2\n"
              "n = m // k\n"
              "x /= y\n")
    assert _divisions_without_fraction(source) == ["1:c / lc", "3:a.b / 2", "5:x /= y"]


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_module_divides_only_fractions(module):
    """Rational values are ints while they are integral, and an int divided
    by an int is a float: every division in the package must be exact."""
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert _divisions_without_fraction(source) == []


# Exports that no module of the package and no benchmark script reads: the
# constructors and Gröbner entry points that library users call, and the
# generic Φ₁ with its variables, which the recursion builds on integer forms.
LIBRARY_ONLY = ("abelian", "buchberger", "free_two_step", "generic_harmonic_element",
                "hodge_numbers", "normal_form", "__version__")


def _unread_exports(exports, sources) -> list[str]:
    """The names of ``exports`` that no source loads, as a name or as an
    attribute; importing a name is not reading it."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(set(exports) - read)


def test_unread_exports_are_found():
    sources = ["from .m import called, imported\ncalled(obj.attr)\n",
               "obj.stored = 1\nwritten = 2\n"]
    exports = ["called", "attr", "imported", "stored", "written"]
    assert _unread_exports(exports, sources) == ["imported", "stored", "written"]


def test_every_export_is_read_or_declared_library_only():
    """Each name in ``kuranil.__all__`` is read by a package module other
    than ``__init__`` or by ``perfbench``, or listed in ``LIBRARY_ONLY``;
    an export that loses its last reader shows up here."""
    paths = [PACKAGE / m for m in MODULES] + sorted((ROOT / "perfbench").glob("*.py"))
    sources = [path.read_text(encoding="utf-8") for path in paths]
    assert _unread_exports(kuranil.__all__, sources) == sorted(LIBRARY_ONLY)


def _public_definitions(source: str) -> list[str]:
    """The public functions and classes defined at the top level of ``source``."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_public_definitions_are_found():
    source = ("def public():\n    def inner():\n        pass\n"
              "async def waited():\n    pass\n"
              "class Shape:\n    def method(self):\n        pass\n"
              "def _private():\n    pass\n"
              "LIMIT = 3\n")
    assert _public_definitions(source) == ["public", "waited", "Shape"]
    sources = [source, "from .shapes import Shape, public\nShape.method(public)\n"]
    assert _unread_exports(_public_definitions(source), sources) == ["waited"]


def test_every_public_definition_is_read_or_exported_library_only():
    """Each public module-level function and class of the package is read by
    a package module other than ``__init__`` or by ``perfbench``, or else
    exported and listed in ``LIBRARY_ONLY``: code that only the tests call
    belongs in the tests."""
    paths = [PACKAGE / m for m in MODULES] + sorted((ROOT / "perfbench").glob("*.py"))
    sources = [path.read_text(encoding="utf-8") for path in paths]
    defined = [name for m in MODULES
               for name in _public_definitions((PACKAGE / m).read_text(encoding="utf-8"))]
    unread = _unread_exports(defined, sources)
    assert [name for name in unread
            if name not in LIBRARY_ONLY or name not in kuranil.__all__] == []
