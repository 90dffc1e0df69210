"""The benchmark's tracer still finds every span target in the package, and a
traced run prints what an untraced one does.  ``perfbench/`` is read, never
edited."""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

import kuranil.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


@pytest.mark.parametrize("module_name, attr, span", spans.TARGETS)
def test_every_span_target_resolves(module_name, attr, span):
    """Resolved as ``Tracer.install`` does: a name missing from the owner's
    own namespace would only surface in a traced benchmark run."""
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(vars(owner)[leaf]), span


# the per-check seconds of ``verify``, as ``tests/test_golden.py`` strips them
_SECONDS = re.compile(r" \([0-9]+\.[0-9]{3}s\)")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kuranil.cli.main(argv)
    return code, _SECONDS.sub("", out.getvalue())


@pytest.mark.parametrize("argv, hodge_span", [
    # the recursion applies ∂̄, δ and the projectors through the integer
    # columns of ``HodgeDecomposition``, which the tracer does not wrap, so
    # its Hodge span is the decomposition's build, on either complex
    (["analyze", "(0,0,12,13,14)", "--json"], "hodge.build"),
    (["analyze", "(0,0,0,12,13+24)", "--general", "--max-degree", "3", "--json"],
     "hodge.build_theta"),
    # normal_form, ideal_intersect and buchberger on a tuple with deadline=
    (["verify", "(0,0,0,12,13)"], "hodge.build"),
    # phi_recursion(..., initial=) on the mixed structure
    (["verify", "general7"], "hodge.build_theta"),
], ids=["argv0", "argv1", "argv2", "argv3"])
def test_traced_run_prints_the_untraced_output(argv, hodge_span):
    plain = _run(argv)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _run(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert plain[0] == 0
    recorded = {name for name, *_ in tracer.spans}
    assert {"cli.main", "kuranishi.phi_recursion", hodge_span} <= recorded
    metrics = tracer.metrics()
    assert metrics["kuranishi.phi_recursion.degrees"] > 0
    assert metrics["hodge.cells"] > 0
    # uninstall restores the originals
    assert _run(argv) == plain
    assert not hasattr(kuranil.cli.main, "__wrapped__")
