"""Command-line interface: exit codes, output formats, input resolution."""

import io
import json
import math
import os
from pathlib import Path
import subprocess
import sys

import pytest

import kuranil
from kuranil import catalog, groebner
from kuranil.algebra import ComplexStructureAlgebra, LieAlgebra, parse_salamon
from kuranil.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    InputError,
    load_algebra,
    main,
)
from kuranil.groebner import canonical_generators, ideal_equal, ideal_intersect
from kuranil.kuranishi import analyze
from kuranil.polyring import parse_polynomial, primitive_scale
from kuranil.verify import CheckResult, run_entry_checks


# -- input resolution --------------------------------------------------------


def test_load_algebra_resolves_catalog_names_and_aliases():
    assert load_algebra("(0,0,12)").name == "(0,0,12)"
    assert load_algebra("heisenberg").name == "(0,0,12)"
    assert load_algebra("  HEISENBERG ").name == "(0,0,12)"
    assert isinstance(load_algebra("general7"), ComplexStructureAlgebra)


def test_load_algebra_parses_inline_structure_strings():
    L = load_algebra("(0,0,12,13,23)")
    assert isinstance(L, LieAlgebra)
    assert L.dim == 5
    with pytest.raises(InputError):
        load_algebra("(0,0,99)")


def test_load_algebra_sniffs_file_formats(tmp_path):
    brackets = tmp_path / "heis.txt"
    brackets.write_text("dim 3\nbracket 1 2 = -1*3\n")
    L = load_algebra(str(brackets))
    assert isinstance(L, LieAlgebra)
    assert L.bracket(1, 2) == {3: -1}

    structure = tmp_path / "mixed.alg"
    structure.write_text("# comment\ndim 7\ndw6 = w1^w2\ndw7 = w3^w4 + cw1^w5\n")
    csa = load_algebra(str(structure))
    assert isinstance(csa, ComplexStructureAlgebra)
    assert csa.classify() == "generic"


def test_load_algebra_rejects_unresolvable_targets(tmp_path):
    with pytest.raises(InputError):
        load_algebra("definitely-not-an-algebra")
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 3\nbracket 1 = nonsense\n")
    with pytest.raises(InputError):
        load_algebra(str(bad))


# -- analyze -----------------------------------------------------------------


def test_analyze_text_report(capsys):
    assert main(["analyze", "(0,0,0,12)"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "h^1(Theta)" in out
    assert "t1_2*t3_1 - t1_1*t3_2" in out
    assert "smooth         no" in out


def test_analyze_json_round_trips_to_equal_report(capsys):
    assert main(["analyze", "heisenberg", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == analyze(catalog.get("heisenberg").build())
    assert payload["smooth"] is True


def test_analyze_file_input(tmp_path, capsys):
    path = tmp_path / "heis.txt"
    path.write_text("dim 3\nbracket 1 2 = -1*3\n")
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "smooth         yes" in out


def test_analyze_structure_with_a_live_del_of_a_two_form(tmp_path, capsys):
    """The coexact certificate brackets ψ_j (degree 2) with Φ: with ∂ψ_j
    live, the Schouten bracket's ∂-term needs its Frölicher–Nijenhuis sign,
    or the certificate fails on valid input with an internal error."""
    path = tmp_path / "dim4.alg"
    path.write_text("dim 4\ndw2 = 2*cw1^w1\ndw3 = w1^w2\n")
    assert main(["analyze", str(path)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert "dropped[3]" in out and err == ""


def test_analyze_complex_structure_file_uses_general_path(capsys):
    assert main(["analyze", "general7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "kind           generic" in out
    assert "phi_2" in out


def test_analyze_general_flag_on_parallelisable_input(capsys):
    assert main(["analyze", "(0,0,12)", "--general", "--max-degree", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "kind           parallelisable" in out
    assert "max degree     2" in out


def test_max_degree_without_general_on_a_lie_algebra_is_input_error(capsys):
    assert main(["analyze", "(0,0,12)", "--max-degree", "2"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--general" in captured.err


@pytest.mark.parametrize("options, degree", [([], 3), (["--max-degree", "4"], 4)],
                         ids=["default", "explicit"])
def test_complex_structure_takes_max_degree_without_general(options, degree, capsys):
    assert main(["analyze", "general7", *options, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["max_degree"] == degree


def test_general_flag_without_max_degree_truncates_at_three(capsys):
    assert main(["analyze", "(0,0,12)", "--general"]) == EXIT_OK
    assert "max degree     3" in capsys.readouterr().out


def test_analyze_unknown_target_is_input_error(capsys):
    assert main(["analyze", "no-such-thing"]) == EXIT_INPUT_ERROR
    assert "error:" in capsys.readouterr().err


JACOBI_VIOLATION = ("dim 5\nbracket 1 2 = 3\nbracket 1 3 = 4\n"
                    "bracket 2 3 = 4\nbracket 1 4 = 5\n")


@pytest.mark.parametrize("target, content, options", [
    ("bare_dim.txt", "dim\nbracket 1 2 = 3\n", []),
    ("glued_dim.txt", "dim3\nbracket 1 2 = 3\n", []),
    ("zero_denominator.txt", "dim 3\nbracket 1 2 = 3/0*3\n", []),
    ("zero_denominator.alg", "dim 3\ndw3 = 1/0*w1^w2\n", []),
    ("binary.txt", b"\xff\xfe\x00bracket 1 2 = 3\n", []),
    ("(0,12)", None, []),
    ("(0,12)", None, ["--general"]),
    ("jacobi.txt", JACOBI_VIOLATION, []),
    ("(0,0,12)", None, ["--max-degree", "0"]),
    ("(0,0,12)", None, ["--max-degree", "-1"]),
    ("so3.alg", "dim 3\ndw1 = w2^w3\ndw2 = w3^w1\ndw3 = w1^w2\n", []),
    ("d_squared.alg", "dw2 = w3^w4\ndw5 = w1^w2\n", []),
    ("d_squared_mixed.alg", "dim 4\ndw3 = w1^w2\ndw4 = cw1^w3\n", []),
], ids=["bare-dim", "glued-dim", "bracket-zero-denominator", "dw-zero-denominator",
        "non-utf8", "not-nilpotent", "not-nilpotent-general", "jacobi-violation",
        "max-degree-0", "max-degree-negative", "dw-not-nilpotent", "dw-d-squared",
        "dw-d-squared-mixed"])
def test_analyze_malformed_input_exits_2(target, content, options, tmp_path, capsys):
    if content is not None:
        path = tmp_path / target
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        target = str(path)
    try:
        code = main(["analyze", target, *options])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert [line for line in err.splitlines() if "error:" in line] == [
        err.splitlines()[-1]]
    assert "Traceback" not in err


def test_jacobi_error_names_the_vectors_of_a_dw_file(tmp_path, capsys):
    # X̄1 is basis vector 5 of the complexification; the file has no X5
    path = tmp_path / "d_squared_mixed.alg"
    path.write_text("dim 4\ndw3 = w1^w2\ndw4 = cw1^w3\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.rstrip().endswith(
        "Jacobi identity fails on (X1, X2, cX1)")


# -- catalog -----------------------------------------------------------------


def test_catalog_json_lists_every_entry(capsys):
    assert main(["catalog", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == len(list(catalog.entries())) == 16
    by_name = {row["name"]: row for row in payload}
    assert by_name["(0,0,12)"]["smooth"] is True
    assert by_name["(0,0,0,12,13)"]["cylinder_dim"] == 9
    assert by_name["general7"]["kind"] == "general"


def test_catalog_table_output(capsys):
    assert main(["catalog"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "name" in out and "(0,0,12,13,23)" in out


def test_published_components_are_parsed_once_and_handed_out_fresh(monkeypatch):
    from kuranil.polyring import parse_ideal_components

    entry = catalog.get("(0,0,0,0,12+34)")
    stored = {variant: parse_ideal_components(catalog._data_text(
        entry.ideal_variant_file if variant else entry.ideal_file))
        for variant in (False, True)}
    for variant in stored:  # each reading's first call parses its file
        entry.published_components(variant=variant)

    def unread(filename):
        raise AssertionError(f"{filename} read again after its first parse")

    monkeypatch.setattr(catalog, "_data_text", unread)
    for variant, components in stored.items():
        first = entry.published_components(variant=variant)
        assert first == components
        first[0].clear()
        del first[1:]
        assert entry.published_components(variant=variant) == components


# -- verify ------------------------------------------------------------------


def test_verify_fast_subset_passes(capsys):
    rc = main(["verify", "a_2", "(0,0,12)", "(0,0,0,12)", "--timeout", "60"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "[FAIL]" not in out
    assert "PASSED" in out.splitlines()[-1]


def test_verify_tiny_timeout_reports_documented_skip(capsys):
    rc = main(["verify", "(0,0,0,12,13+24)", "--timeout", "0"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK  # SKIP is not a failure
    assert "[SKIP] (0,0,0,12,13+24) :: intersection" in out
    assert "SKIPPED 1" in out.splitlines()[-1]


def test_verify_skip_prints_fractional_timeout_as_given(monkeypatch, capsys):
    # Every deadline read finds the deadline passed, so the intersection
    # check stops at its first Gröbner step however fast the machine is.
    monkeypatch.setattr(groebner, "monotonic", lambda: math.inf)
    rc = main(["verify", "(0,0,0,12,13+24)", "--timeout", "0.4"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "— timed out after 0.4s" in out


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_verify_rejects_timeout_below_zero_or_nan(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "a_1", "--timeout", value])
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "--timeout" in capsys.readouterr().err


def test_verify_unknown_entry_is_input_error(capsys):
    assert main(["verify", "not-in-catalog"]) == EXIT_INPUT_ERROR
    assert "error:" in capsys.readouterr().err


def test_verify_internal_key_error_is_not_input_error(monkeypatch):
    from kuranil import verify

    def broken_analyze(algebra):
        raise KeyError("internal")

    monkeypatch.setattr(verify, "analyze", broken_analyze)
    with pytest.raises(KeyError, match="internal"):
        main(["verify", "a_1"])


def test_verify_all_selector_expands_to_every_entry(monkeypatch, capsys):
    from kuranil import cli

    seen = {}

    def fake_checks(names=None, timeout=300.0):
        seen["names"] = names
        return [CheckResult("x", "invariants", "PASS")]

    monkeypatch.setattr(cli, "run_catalog_checks", fake_checks)
    assert main(["verify", "all"]) == EXIT_OK
    assert seen["names"] is None  # full catalog requested
    capsys.readouterr()


def test_verify_failure_exit_code(monkeypatch, capsys):
    from kuranil import cli

    def fake_checks(names=None, timeout=300.0):
        return [CheckResult("x", "invariants", "FAIL", "forced")]

    monkeypatch.setattr(cli, "run_catalog_checks", fake_checks)
    assert main(["verify", "a_1"]) == EXIT_CHECK_FAILED
    assert "[FAIL] x :: invariants" in capsys.readouterr().out


def test_run_entry_checks_detects_wrong_expectations():
    entry = catalog.CatalogEntry(
        name="wrong", dim=3, nu=2, computed_h1=99, smooth=False,
        salamon="(0,0,12)")
    results = run_entry_checks(entry)
    invariants = [r for r in results if r.check == "invariants"]
    assert invariants and invariants[0].status == "FAIL"


@pytest.mark.parametrize("value", [float("nan"), -1], ids=["nan", "-1"])
def test_run_entry_checks_rejects_timeout_below_zero_or_nan(value, monkeypatch):
    from kuranil import verify

    def no_check_may_run(algebra):
        raise AssertionError("a check ran before the timeout was rejected")

    monkeypatch.setattr(verify, "analyze", no_check_may_run)
    with pytest.raises(ValueError, match="timeout"):
        run_entry_checks(catalog.get("a_1"), timeout=value)


def test_run_entry_checks_computes_each_basis_once(monkeypatch):
    from kuranil import groebner, verify

    entry = catalog.get("(0,0,0,12,13)")
    computed = tuple(parse_polynomial(s) for s in
                     analyze(entry.build())["obstruction_generators"])

    # Every basis, built unreduced by non_members or inside the elimination
    # of ideal_intersect, goes through _buchberger; record each build with
    # its cap and its prepped generators decoded to normalised polynomials
    # (each entry is monic, so its primitive scale is positive).
    original = groebner._buchberger
    built = []

    def recording(entries, packing, deadline, cap=None):
        gens = []
        for lm, _, tail in entries:
            terms = {lm: 1, **dict(tail)}
            scale = primitive_scale(terms.values(), 1)
            gens.append(packing.polynomial({m: c * scale for m, c in terms.items()}))
        built.append((tuple(gens), cap))
        return original(entries, packing, deadline, cap)

    original_intersect = verify.ideal_intersect
    intersections = []

    def recording_intersect(I, J, deadline=None):
        out = original_intersect(I, J, deadline=deadline)
        intersections.append(tuple(out))
        return out

    monkeypatch.setattr(groebner, "_buchberger", recording)
    monkeypatch.setattr(verify, "ideal_intersect", recording_intersect)
    results = run_entry_checks(entry)
    assert all(r.status == "PASS" for r in results)
    assert {"component-containment", "intersection"} <= {r.check for r in results}
    assert built and len(set(built)) == len(built)
    # The intersection is tested for membership in the computed ideal; no
    # basis of its own generators is built.
    assert intersections
    bases = {gens for gens, _ in built}
    assert not bases & set(intersections)
    # Division by the computed ideal's generators proves every generator of
    # the intersection a member, so no basis of the computed ideal is built.
    assert tuple(canonical_generators(computed)) not in bases

    # Ideal equality is two containments, so the expected-generators check
    # builds a basis only where division leaves a remainder: none on
    # (0,0,12,13).  On (0,0,0,12) the reducibility products (cubics) leave
    # one, and the computed ideal is homogeneous, so its basis is truncated
    # at degree 3 and no other basis is built.
    for name, caps in (("(0,0,12,13)", []), ("(0,0,0,12)", [3])):
        entry = catalog.get(name)
        computed = tuple(canonical_generators(
            parse_polynomial(s) for s in analyze(entry.build())["obstruction_generators"]))
        built.clear()
        assert all(r.status == "PASS" for r in run_entry_checks(entry))
        assert built == [(computed, cap) for cap in caps]


def test_main_reading_escape_processes_no_pair_above_the_quadrics(monkeypatch):
    # The first component of the main reading of (0,0,0,0,12+34) misses a
    # quadric of the computed ideal.  That component is homogeneous, so its
    # fallback basis stops at degree 2 instead of running to its full,
    # 44-element reduced basis.
    from kuranil import groebner, verify

    entry = catalog.get("(0,0,0,0,12+34)")
    gens = [parse_polynomial(s) for s in analyze(entry.build())["obstruction_generators"]]
    original, degrees = groebner._s_polynomial, []

    def recording(f, g, lcm, packing):
        degrees.append(packing.degree(lcm))
        return original(f, g, lcm, packing)

    monkeypatch.setattr(groebner, "_s_polynomial", recording)
    index, missed = verify._escape(gens, entry.published_components())
    assert index == 1 and missed.total_degree() == 2
    assert degrees and max(degrees) == 2


@pytest.mark.parametrize("name, dropped", [
    ("(0,0,0,12,13)", 0), ("(0,0,0,12,13)", 1), ("(0,0,12,13,14)", 2),
], ids=["first-of-two", "second-of-two", "last-of-three"])
def test_intersection_of_a_reading_missing_a_component_fails(name, dropped,
                                                            monkeypatch, capsys):
    from kuranil import verify

    entry = catalog.get(name)
    components = entry.published_components()
    kept = components[:dropped] + components[dropped + 1:]
    # Every kept component contains the computed ideal I, but the kept ones
    # intersect to an ideal strictly larger than I.
    gens = [parse_polynomial(s) for s in analyze(entry.build())["obstruction_generators"]]
    intersection = kept[0]
    for component in kept[1:]:
        intersection = ideal_intersect(intersection, component)
    assert not ideal_equal(intersection, gens)

    monkeypatch.setattr(verify, "_readings", lambda entry: [("main", kept)])
    assert main(["verify", name]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert f"[PASS] {name} :: component-containment" in out
    assert (f"[FAIL] {name} :: intersection" in out
            and "— main reading: intersection differs from computed ideal\n" in out)


class _ClockAfterFold:
    """Stands in for ``groebner.monotonic`` while ``verify.ideal_intersect``
    is wrapped by :meth:`fold`: no deadline has passed inside a step of the
    elimination fold, and every deadline has passed once a step returns."""

    def __init__(self, ideal_intersect):
        self.expired = False
        self._intersect = ideal_intersect

    def __call__(self) -> float:
        return math.inf if self.expired else -math.inf

    def fold(self, I, J, deadline=None):
        self.expired = False
        out = self._intersect(I, J, deadline=deadline)
        self.expired = True
        return out


def test_intersection_deadline_after_the_fold_reports_skip(monkeypatch):
    # The membership test of the intersection's generators in the computed
    # ideal meets the deadline in its division.
    from kuranil import verify

    entry = catalog.get("(0,0,0,12,13)")
    gens = [parse_polynomial(s) for s in analyze(entry.build())["obstruction_generators"]]
    clock = _ClockAfterFold(verify.ideal_intersect)
    monkeypatch.setattr(groebner, "monotonic", clock)
    monkeypatch.setattr(verify, "ideal_intersect", clock.fold)
    containment, intersection = verify._reading_checks(entry, gens, timeout=300.0)
    assert clock.expired  # the fold ran to the end
    assert (containment.check, containment.status) == ("component-containment", "PASS")
    assert (intersection.check, intersection.status, intersection.detail) == (
        "intersection", "SKIP", "timed out after 300s")


# -- a reader that closes the pipe ---------------------------------------------


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises ``BrokenPipeError``."""

    def __init__(self, fd):
        self._fd = fd

    def fileno(self):
        return self._fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_ends_verify_quietly(tmp_path, monkeypatch, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main(["verify", "general7"]) == 1
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_without_traceback():
    """The reader's end is closed before the process starts, so the first
    write fails whatever the timing."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(kuranil.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "kuranil.cli", "catalog"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
