"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` wraps public functions and ``HodgeDecomposition``
methods.  For each target it rebinds every attribute, in every loaded
``kuranil`` module, that *is* the original object, so calls through
``from .groebner import buchberger`` copies are caught wherever they live.
Each call records a span (name, start, end, parent); counters are read from
the call's arguments and return value.  ``uninstall`` restores the
originals.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_PROJECTIONS = ("project_exact", "project_harmonic", "project_coexact",
                "is_closed", "delta_op")

# (module, attribute, span name): the layer boundaries of the package.
TARGETS = (
    ("kuranil.cli", "main", "cli.main"),
    ("kuranil.algebra", "parse_salamon", "algebra.parse"),
    ("kuranil.algebra", "parse_structure_file", "algebra.parse"),
    ("kuranil.algebra", "parse_complex_structure_file", "algebra.parse"),
    ("kuranil.algebra", "LieAlgebra.validate", "algebra.validate"),
    ("kuranil.hodge", "build_decomposition", "hodge.build"),
    ("kuranil.hodge", "build_theta_decomposition", "hodge.build_theta"),
    *(("kuranil.hodge", f"HodgeDecomposition.{m}", "hodge.project")
      for m in _PROJECTIONS),
    ("kuranil.kuranishi", "analyze", "kuranishi.analyze"),
    ("kuranil.kuranishi", "analyze_general", "kuranishi.analyze_general"),
    ("kuranil.kuranishi", "phi_recursion", "kuranishi.phi_recursion"),
    ("kuranil.groebner", "buchberger", "groebner.buchberger"),
    ("kuranil.groebner", "normal_form", "groebner.normal_form"),
    ("kuranil.groebner", "ideal_equal", "groebner.ideal_equal"),
    ("kuranil.groebner", "ideal_intersect", "groebner.ideal_intersect"),
)

# Spans whose self time is reported as a per-layer metric.
SELF_TIMES = (
    "cli.main", "algebra.parse", "algebra.validate", "hodge.build",
    "hodge.build_theta", "hodge.project", "kuranishi.analyze",
    "kuranishi.analyze_general", "kuranishi.phi_recursion",
    "groebner.buchberger_grevlex", "groebner.buchberger_lex",
    "groebner.normal_form", "groebner.ideal_intersect",
)
CALLS = ("groebner.buchberger_grevlex", "groebner.buchberger_lex",
         "groebner.normal_form")


def metric_unit(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "share"
    return "bits" if metric.endswith("_bits_max") else "count"


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


class Tracer:
    """Spans and counters of one pass; ``reset`` starts the next pass."""

    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._seen_inputs: set = set()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "kuranil" or name.startswith("kuranil.")]
        for module_name, attr, span in TARGETS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            wrapper = self._wrap(original, span)
            if path:
                self._rebind(owner, leaf, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._installed.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _wrap(self, original, span: str):
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        is_buchberger = span == "groebner.buchberger"

        def traced(*args, **kwargs):
            name = span
            if is_buchberger:
                args = (list(args[0]), *args[1:])
                order = args[1] if len(args) > 1 else kwargs.get("order")
                name = f"{span}_{getattr(order, 'kind', 'grevlex')}"
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(name, args, kwargs, result, end - start)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", span)
        return traced

    # -- counters -------------------------------------------------------------

    def _max(self, key: str, value: float) -> None:
        if value > self.counters[key]:
            self.counters[key] = value

    def _after_groebner_buchberger(self, name, args, kwargs, basis, seconds):
        gens = args[0]
        key = (name, tuple(gens))
        if key in self._seen_inputs:
            self.counters["groebner.repeat_calls"] += 1
            self.counters["groebner.repeat_s"] += seconds
        self._seen_inputs.add(key)
        self._max("groebner.basis_len_max", len(basis))
        self._max("groebner.coeff_bits_max",
                  max((_coeff_bits(g) for g in basis), default=0))
        self._max("polyring.terms_max",
                  max((len(g.terms) for g in (*gens, *basis)), default=0))

    def _after_groebner_normal_form(self, name, args, kwargs, remainder, seconds):
        self.counters["groebner.normal_form.nonzero"] += bool(remainder)
        self._max("polyring.terms_max", len(args[0].terms))

    def _after_hodge_build(self, name, args, kwargs, dec, seconds):
        self.counters["hodge.cells"] += sum(
            len(dec.cells(q)) for q in range(dec.max_degree + 1))

    _after_hodge_build_theta = _after_hodge_build

    def _after_kuranishi_phi_recursion(self, name, args, kwargs, series, seconds):
        self.counters["kuranishi.phi_recursion.degrees"] += len(series.terms) - 1

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] += seconds
        return totals

    def metrics(self) -> dict[str, float]:
        """This pass's per-layer values, keyed by metric name."""
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            calls[name] += 1
        out = {f"{name}.self_s": own.get(name, 0.0) for name in SELF_TIMES}
        out.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
        c = self.counters
        gb_calls = calls["groebner.buchberger_grevlex"] + calls["groebner.buchberger_lex"]
        nf_calls = calls["groebner.normal_form"]
        out["groebner.repeat_share"] = c["groebner.repeat_calls"] / max(gb_calls, 1)
        out["groebner.repeat_s"] = c["groebner.repeat_s"]
        out["groebner.normal_form.nonzero_share"] = (
            c["groebner.normal_form.nonzero"] / max(nf_calls, 1))
        for key in ("groebner.basis_len_max", "groebner.coeff_bits_max",
                    "polyring.terms_max", "hodge.cells",
                    "kuranishi.phi_recursion.degrees"):
            out[key] = c[key]
        return out
