"""Command-line behavior: output shapes, exit codes, determinism."""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from test_algebra import typed
from test_dsl import _random_tree
from test_sieve import FIXED_EXPRS, counted_octonions, exact_env, exact_tree, read_exactly

from octsieve import cli
from octsieve.algebra import Octonion
from octsieve.cli import main
from octsieve.dsl import parse, to_text
from octsieve.sieve import is_invariant

# the module: the package attribute octsieve.sieve is the function sieve
SIEVE = importlib.import_module("octsieve.sieve")


def encoded(coeffs):
    """Exact coefficients as JSON writes them: an int, or "p/q" with q > 1."""
    return [c if type(c) is int else c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            for c in coeffs]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triplets_prints_parity_word(capsys):
    code, out, _ = run(capsys, "triplets", "--algebra", "1")
    assert code == 0
    assert "++--+--" in out


def test_triplets_json(capsys):
    code, out, _ = run(capsys, "triplets", "--algebra", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 3
    assert payload["parity_word"] == "+++++++"
    assert payload["triplets"][0] == [1, 2, 3]


def test_tables_text_and_json(capsys):
    code, out, _ = run(capsys, "tables", "--algebra", "0")
    assert code == 0
    assert "left-handed" in out
    code, out, _ = run(capsys, "tables", "--algebra", "0", "--format", "json")
    payload = json.loads(out)
    assert payload["entries"][1][2] == [1, 3]
    assert payload["entries"][3][3] == [-1, 0]


def test_orbit_output(capsys):
    code, out, _ = run(capsys, "orbit")
    assert code == 0
    assert len([line for line in out.splitlines() if line.strip()]) == 17  # header + 16 rows
    code, out, _ = run(capsys, "orbit", "--format", "json")
    payload = json.loads(out)
    assert len(payload["orbit"]) == 16
    assert payload["orbit"][5] == {"algebra": 5, "generator": "T1*T3", "parity_word": "--+++--"}


ORBIT_TEXT = """\
 N  generator   parity
 0  id          +++++++
 1  T3          ++--+--
 2  T2          +-+--+-
 3  T2*T3       +--+--+
 4  T1          ----+++
 5  T1*T3       --+++--
 6  T1*T2       -+-+-+-
 7  T1*T2*T3    -++---+
 8  T0          ++++---
 9  T0*T3       ++---++
10  T0*T2       +-+-+-+
11  T0*T2*T3    +--+++-
12  T0*T1       -------
13  T0*T1*T3    --++-++
14  T0*T1*T2    -+-++-+
15  T0*T1*T2*T3  -++-++-
"""


def test_orbit_output_is_pinned_in_both_formats(capsys):
    code, out, _ = run(capsys, "orbit")
    assert (code, out) == (0, ORBIT_TEXT)
    rows = [{"algebra": int(n), "generator": word, "parity_word": parity}
            for n, word, parity in map(str.split, ORBIT_TEXT.splitlines()[1:])]
    code, out, _ = run(capsys, "orbit", "--format", "json")
    assert (code, out) == (0, json.dumps({"schema": 3, "orbit": rows}, indent=2) + "\n")


@pytest.mark.parametrize("n", range(16))
def test_tables_header_names_the_handedness(capsys, n):
    code, out, _ = run(capsys, "tables", "--algebra", str(n))
    hand = "left" if n < 8 else "right"
    assert (code, out.splitlines()[0]) == (0, f"multiplication table, algebra {n} ({hand}-handed)")


def test_sieve_with_explicit_assignment(capsys):
    code, out, _ = run(
        capsys,
        "sieve",
        "--expr", "a+b",
        "--assign", "a=1,2,0,0,0,0,0,0",
        "--assign", "b=0,1,1,0,0,0,0,0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 3
    assert payload["invariant"] is True
    assert payload["witness"] is None
    assert payload["functions"][0] == [1, 3, 1, 0, 0, 0, 0, 0]
    assert payload["distances"][0] == [4, 12, 4, 0, 0, 0, 0, 0]
    assert all(all(c == 0 for c in payload["distances"][k]) for k in range(1, 16))
    assert payload["mean_function_value"] == [1, 3, 1, 0, 0, 0, 0, 0]


def test_sieve_refutes_plain_product(capsys):
    code, out, _ = run(
        capsys, "sieve", "--expr", "a*b", "--random-assign", "--seed", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["invariant"] is False
    assert payload["witness"]["index"] > 0


def test_sieve_reports_trials_run(capsys):
    argv = ("sieve", "--expr", "a*b", "--random-assign", "--seed", "3")
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert json.loads(out)["trials_run"] == 1
    _, out, _ = run(capsys, *argv)
    assert "verdict: not invariant (trial 1 of 64)" in out
    argv = ("sieve", "--expr", "a*b + b*a", "--random-assign", "--seed", "3", "--trials", "5")
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert json.loads(out)["trials_run"] == 5
    _, out, _ = run(capsys, *argv)
    assert "verdict: invariant (no counterexample in 5 trials)" in out


def test_sieve_of_a_float_variable_is_invariant(capsys):
    code, out, _ = run(capsys, "sieve", "--expr", "a", "--assign", "a=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8")
    assert code == 0
    assert "verdict: invariant for this assignment" in out


def test_sieve_random_assign_is_deterministic(capsys):
    argv = ("sieve", "--expr", "a*b", "--random-assign", "--seed", "9", "--format", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_sieve_missing_assignment_is_domain_error(capsys):
    code, _, err = run(capsys, "sieve", "--expr", "a*b")
    assert code == 1
    assert "error" in err


def test_sieve_conflicting_assignment_flags(capsys):
    code, _, err = run(
        capsys, "sieve", "--expr", "a", "--assign", "a=i1", "--random-assign"
    )
    assert code == 1
    assert "mutually exclusive" in err


def test_sieve_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "sieve", "--expr", "a*", "--random-assign")
    assert code == 1
    assert "syntax" in err


def test_bad_octonion_literal(capsys):
    code, _, err = run(capsys, "sieve", "--expr", "a", "--assign", "a=1,2,3")
    assert code == 1
    assert "octonion literal" in err


COMMANDS = pytest.mark.parametrize("command", [("sieve",), ("derive", "--u", "i1", "--v", "i2")],
                                   ids=["sieve", "derive"])


@COMMANDS
@pytest.mark.parametrize("args, message", [
    (("--expr", "a", "--assign", "a"), "--assign needs name=v0,...,v7 (got 'a')"),
    (("--expr", "a*b", "--assign", "a=i1"), "unbound variables: b (add --assign)"),
    (("--expr", "a", "--assign", "a=1,2,x,0,0,0,0,0"), "bad coefficient 'x' in '1,2,x,0,0,0,0,0'"),
    (("--expr", "a", "--assign", "a=i1", "--assign", " a=i2"), "--assign binds a more than once"),
    (("--expr", "a*b", "--assign", "a=1e-400,1e-400,0,0,0,0,0,0", "--assign", "b=i3"),
     "nonzero float literal is below the smallest float, 4.941e-324"),
    (("--expr", "a*b", "--assign", "a=1e400,0,0,0,0,0,0,0", "--assign", "b=i1"),
     f"float literal exceeds the largest float, {sys.float_info.max:.4g}"),
    (("--expr", "a*b", "--assign", "a=nan,0,0,0,0,0,0,0", "--assign", "b=i1"),
     "bad coefficient 'nan' in 'nan,0,0,0,0,0,0,0'"),
    (("--expr", "a*b", "--assign", "a=inf,0,0,0,0,0,0,0", "--assign", "b=i1"),
     "bad coefficient 'inf' in 'inf,0,0,0,0,0,0,0'"),
    (("--expr", "a*b", "--assign", "a=1,-inf,0,0,0,0,0,0", "--assign", "b=i1"),
     "bad coefficient '-inf' in '1,-inf,0,0,0,0,0,0'"),
    (("--expr", "a*b", "--assign", "a=0,0,0,0,0,0,0, +Infinity", "--assign", "b=i1"),
     "bad coefficient ' +Infinity' in '0,0,0,0,0,0,0, +Infinity'"),
    # int() or float() reads these, but they are no literal of --expr; the last is ARABIC-INDIC DIGIT ONE
    *[(("--expr", "a*b", "--assign", f"a={x},0,0,0,0,0,0,0", "--assign", "b=i1"),
       f"bad coefficient '{x}' in '{x},0,0,0,0,0,0,0'") for x in (".5", "5.", "1_0", "5.e3", "\u0661")],
], ids=["no-equals", "unbound", "bad-coefficient", "repeated", "underflow", "overflow", "nan", "inf", "minus-inf",
        "infinity", "no-integer-part", "no-fraction-digits", "underscore", "exponent-after-point", "non-ascii-digit"])
def test_a_bad_assignment_is_a_domain_error_with_empty_stdout(capsys, command, args, message):
    assert run(capsys, *command, *args) == (1, "", f"octsieve: error: {message}\n")


@COMMANDS
def test_the_shorthand_1_assigns_the_real_unit(capsys, command):
    code, out, _ = run(capsys, *command, "--expr", "a", "--assign", "a=1", "--format", "json")
    assert (code, json.loads(out)["assignment"]) == (0, {"a": [1, 0, 0, 0, 0, 0, 0, 0]})


def test_derive_all_algebras(capsys):
    code, out, _ = run(
        capsys,
        "derive",
        "--u", "i1",
        "--v", "i2",
        "--expr", "a",
        "--assign", "a=i4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["algebras"] == list(range(16))
    assert payload["all_equal"] is False
    assert payload["equal_set"] == [0, 3, 5, 6, 9, 10, 12, 15]
    assert payload["outputs"][0] == [0, 0, 0, 0, 0, 0, 0, -2]


def test_derive_quaternionic_verdict(capsys):
    code, out, _ = run(
        capsys, "derive", "--u", "i1", "--v", "i2", "--expr", "a", "--assign", "a=i3"
    )
    assert code == 0
    assert "identical across all 16" in out


@pytest.mark.parametrize("argv", [("tables",), ("triplets",)], ids=["tables", "triplets"])
def test_a_non_integer_algebra_is_a_usage_error(capsys, argv):
    for value in ("x", "1.5", "True", "16", "-1"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--algebra", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(": error: argument --algebra: algebra id must be an integer in 0..15\n")
        assert "_algebra_arg" not in captured.err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--algebra", "16"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_main_builds_the_parser_once_and_a_usage_error_leaves_it_as_it_was(capsys):
    cli.build_parser.cache_clear()
    argv = ("sieve", "--expr", "a*b", "--assign", "a=i1", "--assign", "b=i2", "--format", "json")
    first = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["sieve", "--expr", "a", "--assign", "a=i1", "--trials"])
    assert exc.value.code == 2
    usage = capsys.readouterr().err
    assert run(capsys, *argv) == first
    with pytest.raises(SystemExit):
        main(["sieve", "--expr", "a", "--assign", "a=i1", "--trials"])
    assert capsys.readouterr().err == usage
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser().format_help() == cli.build_parser.__wrapped__().format_help()


def test_verify(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 12
    assert lines[-1] == "12/12 checks passed"


def test_verify_quick_is_a_usage_error(capsys):
    # verify has one mode: the full trial counts
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--quick"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --quick" in captured.err


def test_derive_algebra_is_a_usage_error(capsys):
    # derive has one payload shape: all 16 rows, with all_equal and equal_set
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--u", "i1", "--v", "i2", "--expr", "a", "--assign", "a=i4", "--algebra", "5"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --algebra 5" in captured.err


def test_derive_trials_is_a_usage_error(capsys):
    # --trials belongs to sieve's --random-assign; derive draws one assignment
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--u", "i1", "--v", "i2", "--expr", "a", "--random-assign", "--trials", "3"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --trials 3" in captured.err


def test_integer_literal_past_2_53_is_exact(capsys):
    big = 2**53 + 1
    code, out, _ = run(
        capsys, "sieve", "--expr", "a", "--assign", f"a={big},0,0,0,0,0,0,0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["assignment"]["a"][0] == big
    assert all(f[0] == big for f in payload["functions"])


def test_400_digit_literal_is_exact(capsys):
    big = 10**399 + 7
    code, out, _ = run(
        capsys, "derive", "--u", "i1", "--v", "i2", "--expr", "a",
        "--assign", f"a=0,0,0,0,{big},0,0,0", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["outputs"][0] == [0, 0, 0, 0, 0, 0, 0, -2 * big]


def test_literal_past_the_int_digit_limit_is_a_domain_error(capsys):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int/str conversion has no digit limit in this interpreter")
    digits = "7" * (limit + 100)
    code, _, err = run(capsys, "sieve", "--expr", "a", "--assign", f"a={digits},0,0,0,0,0,0,0")
    assert code == 1
    assert f"{limit + 100} digits" in err and f"limit of {limit} digits" in err


def test_sieve_past_float_range_is_exact(capsys):
    # a quarter of 16 * 10**400 does not fit a float; the CLI divides exactly
    big = 10**400
    code, out, err = run(capsys, "sieve", "--expr", "a", "--assign", f"a={big},0,0,0,0,0,0,0", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["distances"] == [[4 * big] + [0] * 7] + [[0] * 8] * 15
    assert payload["mean_function_value"] == [big] + [0] * 7


def test_integer_literal_past_float_range_gives_exact_distances(capsys):
    big = 10**400
    code, out, err = run(capsys, "sieve", "--expr", f"{big}*a", "--assign", "a=i1", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["invariant"] is True
    assert payload["distances"] == [[0, 4 * big] + [0] * 6] + [[0] * 8] * 15


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 3
    assert payload["passed"] == payload["total"] == len(payload["checks"]) == 12
    for check in payload["checks"]:
        assert list(check) == ["name", "passed", "detail", "elapsed_s"]  # CheckResult's field order
        assert check["passed"] is True and check["elapsed_s"] >= 0


def test_check_names_are_the_benchmark_metrics_and_the_verify_json_names(capsys):
    # the benchmark names its per-check timings after ALL_CHECKS, and verify its results
    from octsieve.verification import ALL_CHECKS

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    timed = [m["name"][len("verification."):-len(".s")] for m in spec["per_layer"]
             if m["name"].startswith("verification.") and m["name"].endswith(".s")]
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    assert timed == [c["name"] for c in json.loads(out)["checks"]] == [name for name, _ in ALL_CHECKS]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_exits_1_on_a_failed_check(capsys, monkeypatch, fmt):
    from octsieve import verification
    from octsieve.verification import CheckResult

    results = [CheckResult("ok", True, "fine"), CheckResult("bad", False, "broken", 0.5)]
    # cli imports run_checks when verify runs, so it reads the patched binding
    monkeypatch.setattr(verification, "run_checks", lambda: results)
    code, out, _ = run(capsys, "verify", "--format", fmt)
    assert code == 1
    if fmt == "json":
        payload = json.loads(out)
        assert (payload["passed"], payload["total"]) == (1, 2)
        assert payload["checks"][1] == {"name": "bad", "passed": False, "detail": "broken", "elapsed_s": 0.5}
    else:
        assert "FAIL  bad" in out and "1/2 checks passed" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_reports_a_raising_check_as_failed_and_runs_the_rest(capsys, monkeypatch, fmt):
    from octsieve import verification

    def raising():
        raise RuntimeError("boom")

    checks = dict(verification.ALL_CHECKS)
    monkeypatch.setattr(verification, "ALL_CHECKS", tuple({**checks, "flip-signatures": raising}.items()))
    code, out, err = run(capsys, "verify", "--format", fmt)
    assert (code, err) == (1, "")
    if fmt == "json":
        payload = json.loads(out)
        assert (payload["passed"], payload["total"]) == (11, 12)
        assert [c["name"] for c in payload["checks"]] == list(checks)
        failed = [c for c in payload["checks"] if not c["passed"]]
        assert [(c["name"], c["detail"]) for c in failed] == [("flip-signatures", "RuntimeError: boom")]
        assert failed[0]["elapsed_s"] >= 0
    else:
        lines = out.splitlines()
        assert len(lines) == 13 and lines[-1] == "11/12 checks passed"
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].split()[1] == "flip-signatures"
        assert failed[0].endswith("  RuntimeError: boom")


def test_text_output_prints_integers_exactly(capsys):
    code, out, _ = run(capsys, "sieve", "--expr", "a", "--assign", "a=9007199254740993,0,0,0,0,0,0,0")
    assert code == 0
    assert "  a = (9007199254740993, 0, 0, 0, 0, 0, 0, 0)" in out
    assert "  f[15] = (9007199254740993, 0, 0, 0, 0, 0, 0, 0)" in out
    big = 10**399 + 7
    code, out, _ = run(
        capsys, "derive", "--u", "i1", "--v", "i2", "--expr", "a",
        "--assign", f"a=0,0,0,0,{big},0,0,0",
    )
    assert code == 0
    assert f"  D[ 0] = (0, 0, 0, 0, 0, 0, 0, {-2 * big})" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_result_past_the_int_digit_limit_leaves_stdout_empty(capsys, fmt):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int/str conversion has no digit limit in this interpreter")
    big = "7" * (limit * 6 // 10)  # a literal within the limit whose square is not
    code, out, err = run(
        capsys, "derive", "--u", "i1", "--v", "i2", "--expr", "a*b",
        "--assign", f"a=0,0,0,{big},0,0,0,0", "--assign", f"b=0,0,0,0,{big},0,0,0",
        "--format", fmt,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("octsieve: error:") and "Traceback" not in err


def test_the_json_writer_is_json_dumps_with_indent_2():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from fractions import Fraction

    texts = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\u2028\U0001f600\ud800ab')
    ints = st.integers() | st.integers(min_value=2**64, max_value=2**300).flatmap(lambda n: st.sampled_from((n, -n)))
    floats = st.sampled_from((-0.0, 0.0, 1e300, float("inf"), float("-inf"), float("nan"))) | st.floats()
    fractions = st.fractions() | ints.map(Fraction)
    leaves = st.none() | st.booleans() | ints | floats | fractions | texts
    values = st.recursive(
        leaves | st.lists(ints | st.booleans()),
        lambda sub: st.lists(sub) | st.lists(sub).map(tuple) | st.dictionaries(texts, sub),
        max_leaves=20,
    )

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(values)
    def writes_what_json_writes(value):
        assert cli._json(value) == json.dumps(value, indent=2, default=cli._json_exact)

    writes_what_json_writes()


@pytest.mark.parametrize("argv", [
    ("tables", "--algebra", "5"), ("triplets", "--algebra", "5"), ("orbit",),
    ("sieve", "--expr", "a*b+b*a", "--random-assign", "--seed", "1", "--trials", "4"),
    ("sieve", "--expr", "(a*b)*c", "--random-assign", "--seed", "1"),
    ("sieve", "--expr", "0.5*a*b", "--assign", "a=1.5,-0.0,2,0,0,0,1e300,0", "--assign", "b=i3"),
    ("derive", "--u", "i1", "--v", "i2", "--expr", "a", "--assign", "a=i4"),
    ("derive", "--u", "i1", "--v", "i2", "--expr", "0.5*a", "--assign", "a=0.25,1,0,0,0,0,0,0"),
    ("verify",),
])
def test_json_output_is_json_dumps_byte_for_byte(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def fail(*args):
    raise AssertionError("evaluated before --trials was checked")


@pytest.mark.parametrize("expr", ["a*b", "a*b + b*a"])
def test_random_assign_rejects_zero_trials_before_evaluating(capsys, monkeypatch, expr):
    # neither the compiled program nor the one-rule reference runs
    monkeypatch.setattr(SIEVE, "_all_rules", fail)
    monkeypatch.setattr(SIEVE, "function_family", fail)
    for trials in ("0", "-3"):
        code, out, err = run(capsys, "sieve", "--expr", expr, "--random-assign", "--trials", trials)
        assert (code, out) == (1, "")
        assert err == f"octsieve: error: trials must be an integer >= 1, got {trials}\n"


@pytest.mark.parametrize("expr", ["a*b", "a*b + b*a"])
def test_random_assign_rejects_zero_trials_before_the_all_rules_pass(capsys, monkeypatch, expr):
    # the all-rules pass is not even compiled
    from octsieve import cli

    monkeypatch.setattr(cli, "_evaluator", fail)
    code, out, err = run(capsys, "sieve", "--expr", expr, "--random-assign", "--trials", "0")
    assert (code, out) == (1, "")
    assert err == "octsieve: error: trials must be an integer >= 1, got 0\n"


@pytest.mark.parametrize("trials", ["1.5", "True"])
def test_a_non_integer_trial_count_is_a_usage_error(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["sieve", "--expr", "a*b", "--random-assign", "--trials", trials])
    assert (exc.value.code, capsys.readouterr().out) == (2, "")


@pytest.mark.parametrize("argv, flag", [
    (("sieve", "--trials", "0"), "--trials"), (("sieve", "--trials", "64"), "--trials"),
    (("sieve", "--seed", "3"), "--seed"), (("sieve", "--seed", "0", "--trials", "64"), "--seed"),
    (("derive", "--u", "i1", "--v", "i2", "--seed", "0"), "--seed"),
])
def test_assign_with_seed_or_trials_is_a_domain_error(capsys, argv, flag):
    # --seed and --trials apply to --random-assign alone; their defaults too
    code, out, err = run(capsys, *argv, "--expr", "a*b", "--assign", "a=i1", "--assign", "b=i2")
    assert (code, out) == (1, "")
    assert err == f"octsieve: error: --assign and {flag} are mutually exclusive\n"


def test_sieve_verdict_matches_is_invariant(capsys):
    # The CLI runs its printed assignment as trial 1 of is_invariant's trial
    # loop and draws on from the same rng; the JSON verdict must be
    # is_invariant's in every case.
    rng = random.Random(31)
    trees = [parse(text) for text in FIXED_EXPRS]
    trees += [_random_tree(rng, rng.randint(1, 4)) for _ in range(40)]
    cases = [(tree, seed, trials) for i, tree in enumerate(trees)
             for seed, trials in ((i, 1), (1000 + i, 3), (2000 + i, 8))]
    # a real factor 2*a0 that is 0 in about one trial in 19: some seeds
    # hold at trial 1 and refute later
    cases += [(parse("(a + conj(a))*(b*c)"), seed, 8) for seed in range(80)]
    seen = set()
    for tree, seed, trials in cases:
        code, out, _ = run(capsys, "sieve", f"--expr={to_text(tree)}", "--random-assign",
                           "--seed", str(seed), "--trials", str(trials), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        verdict = is_invariant(tree, trials, seed)
        seen.add((verdict.invariant, verdict.trials_run > 1))
        assert (payload["invariant"], payload["trials_run"]) == (verdict.invariant, verdict.trials_run)
        if verdict.invariant:
            assert payload["witness"] is None
            continue
        assert payload["witness"] == witness_json(verdict.witness)
    # verdicts of every kind: held, refuted at trial 1, refuted later
    assert seen >= {(True, False), (True, True), (False, False), (False, True)}


def witness_json(w):
    return {
        "assignment": {name: list(x.coeffs) for name, x in w.assignment.items()},
        "index": w.index,
        "distance": list(w.distance.coeffs),
    }


@pytest.mark.parametrize("text, invariant", [("a*b", False), ("a*b + b*a", True)])
def test_sieve_without_seed_or_trials_is_is_invariants_default_verdict(capsys, text, invariant):
    code, out, _ = run(capsys, "sieve", "--expr", text, "--random-assign", "--format", "json")
    assert code == 0
    payload, verdict = json.loads(out), is_invariant(text)
    assert (payload["invariant"], payload["trials_run"]) == (verdict.invariant, verdict.trials_run)
    assert verdict.invariant == invariant
    assert payload["witness"] == (None if invariant else witness_json(verdict.witness))


ASSIGN_AB = ("--expr", "a*b", "--assign", "a=i1", "--assign", "b=i2")


@pytest.mark.parametrize("argv, keys", [
    (("tables", "--algebra", "3"), ["schema", "algebra", "entries", "triplets", "parity_word"]),
    (("triplets", "--algebra", "3"), ["schema", "algebra", "triplets", "parity_word"]),
    (("orbit",), ["schema", "orbit"]),
    (("sieve",) + ASSIGN_AB, ["schema", "expr", "assignment", "functions", "distances",
                              "mean_function_value", "invariant", "trials_run", "witness"]),
    (("derive", "--u", "i1", "--v", "i2") + ASSIGN_AB,
     ["schema", "u", "v", "expr", "assignment", "algebras", "outputs", "all_equal", "equal_set"]),
    (("verify",), ["schema", "checks", "passed", "total"]),
])
def test_json_key_order(capsys, argv, keys):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)) == keys


def test_sieve_prints_one_all_rules_pass(capsys, monkeypatch):
    # The printed family is one run of the compiled program, and
    # function_family never runs; with a float literal or coefficient it is
    # function_family's on the same inputs, each float read as the Fraction
    # it is, and JSON writes it as ints and "p/q" strings.
    reference, calls = SIEVE.function_family, []

    def spy(tree, env):
        calls.append(tree)
        return reference(tree, env)

    monkeypatch.setattr(SIEVE, "function_family", spy)
    for argv in (("--expr", "a*b + b*a", "--random-assign", "--seed", "3"),
                 ("--expr", "(a*b)*c", "--random-assign", "--seed", "3"),
                 ("--expr=-1*a", "--assign", "a=3,0,0,0,0,0,0,-2")):
        code, out, _ = run(capsys, "sieve", *argv, "--format", "json")
        assert code == 0 and len(json.loads(out)["functions"]) == 16
    for text, a in (("-1*a", "1.5,0,0,0,0,0,0,0"), ("a*a", "0.5,1.5,0,0,0,0,0,0"),
                    ("0.5*a*b", "1,2,0,0,0,0,0,3"), ("0.1*a*b + 0.1*b*a", "0.1,1,0,0,2,0,0,0")):
        code, out, _ = run(capsys, "sieve", f"--expr={text}", "--assign", f"a={a}",
                           "--assign", "b=i3", "--format", "json")
        payload = json.loads(out)
        expected = reference(exact_tree(parse(text)), exact_env(payload["assignment"]))
        assert code == 0
        assert [typed(f) for f in payload["functions"]] == [typed(encoded(f.coeffs)) for f in expected]
    assert calls == []


def test_integer_literals_in_expressions_are_exact(capsys):
    big = 10**400
    code, out, _ = run(capsys, "derive", "--u", "i1", "--v", "i2", "--expr", f"{big}*a", "--assign", "a=i4",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["outputs"][0] == [0, 0, 0, 0, 0, 0, 0, -2 * big]
    # read as floats, both literals were inf and the difference nan
    argv = ("sieve", "--expr", f"{big + 1}*a - {big}*a", "--assign", "a=i1")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert all(f"  f[{n:>2}] = (0, 1, 0, 0, 0, 0, 0, 0)" in out for n in range(16))
    assert "verdict: invariant for this assignment" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["functions"] == [[0, 1, 0, 0, 0, 0, 0, 0]] * 16


@pytest.mark.parametrize("text", ["(" * 2000 + "a" + ")" * 2000, "*".join(["a"] * 1500)],
                         ids=["2000-deep-parens", "1500-factors"])
@pytest.mark.parametrize("command", [("sieve", "--random-assign"), ("derive", "--u", "i1", "--v", "i2", "--random-assign")],
                         ids=["sieve", "derive"])
def test_deep_expressions_are_a_domain_error(capsys, text, command):
    code, out, err = run(capsys, *command, "--expr", text)
    assert (code, out) == (1, "")
    assert err.startswith("octsieve: error: expression syntax error: expression nested deeper than 200 levels")
    assert "Traceback" not in err


def test_a_name_past_ascii_is_a_domain_error(capsys):
    code, out, err = run(capsys, "sieve", "--expr", "a\u00e9\u0663", "--assign", "a\u00e9\u0663=i1")
    assert (code, out) == (1, "")
    assert err == "octsieve: error: expression syntax error: unexpected character '\u00e9' (at offset 1)\n"


@pytest.mark.parametrize("expr, seed, trials_run", [("a*b", 3, 1), ("(a + conj(a))*(b*c)", 23, 2)])
def test_json_witness_replays_through_assign(capsys, expr, seed, trials_run):
    code, out, _ = run(capsys, "sieve", "--expr", expr, "--random-assign", "--seed", str(seed), "--format", "json")
    payload = json.loads(out)
    assert (code, payload["invariant"], payload["trials_run"]) == (0, False, trials_run)
    witness = payload["witness"]
    assert any(witness["distance"])
    assign = [f"--assign={name}={','.join(map(str, c))}" for name, c in witness["assignment"].items()]
    code, out, _ = run(capsys, "sieve", "--expr", expr, *assign, "--format", "json")
    replay = json.loads(out)
    assert (code, replay["invariant"]) == (0, False)
    assert replay["distances"][witness["index"]] == witness["distance"]
    assert replay["witness"]["index"] == witness["index"]
    assert replay["witness"]["distance"] == witness["distance"]


def test_an_evaluation_error_is_the_one_rule_evaluators(capsys):
    # the public one-rule evaluator stops at 1e308 * 3 = inf in float
    # arithmetic; the CLI reads 1e308 as the integer it is, and L - L is 0
    from octsieve.algebra import Octonion
    from octsieve.sieve import function_family

    text, a = "1e308*a*a - 1e308*a*a", "1.5,2,0,0,0,0,0,0"
    with pytest.raises(ValueError, match="got inf"):
        function_family(parse(text), {"a": Octonion((1.5, 2, 0, 0, 0, 0, 0, 0))})
    code, out, err = run(capsys, "sieve", "--expr", text, "--assign", f"a={a}")
    assert (code, err) == (0, "")
    assert all(f"  f[{n:>2}] = (0, 0, 0, 0, 0, 0, 0, 0)" in out for n in range(16))
    assert "verdict: invariant for this assignment" in out


@COMMANDS
def test_a_float_literal_past_the_float_range_is_a_syntax_error(capsys, command):
    for literal, message in (("1e400", f"float literal exceeds the largest float, {sys.float_info.max:.4g}"),
                             ("1e-400", "nonzero float literal is below the smallest float, 4.941e-324")):
        code, out, err = run(capsys, *command, "--expr", f"a + {literal}*b", "--assign", "a=i1", "--assign", "b=i2")
        assert (code, out) == (1, "")
        assert err == f"octsieve: error: expression syntax error: {message} (at offset 4)\n"


def spy(monkeypatch, module, name):
    """Count the calls of ``module.name`` through every octsieve module that holds it."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for held in list(sys.modules.values()):
        if getattr(held, "__name__", "").startswith("octsieve") and getattr(held, name, None) is original:
            monkeypatch.setattr(held, name, counted)
    return calls


def spies(monkeypatch):
    # the modules cli imports inside a command are imported first: one
    # imported while a spy is active would bind the spy and keep it
    for name in ("derivations", "verification"):
        importlib.import_module(f"octsieve.{name}")
    dsl = importlib.import_module("octsieve.dsl")
    return [spy(monkeypatch, dsl, "_program"), spy(monkeypatch, SIEVE, "_all_rules"),
            spy(monkeypatch, SIEVE, "random_assignment"), spy(monkeypatch, dsl, "evaluate"),
            spy(monkeypatch, SIEVE, "_butterfly")]


@pytest.mark.parametrize("expr, trials, invariant", [("a*b + b*a", 1, True), ("a*b + b*a", 2, True),
                                                     ("a*b + b*a", 64, True), ("a*b", 64, False)])
def test_sieve_compiles_once_and_evaluates_each_trial_once(capsys, monkeypatch, expr, trials, invariant):
    # trial 1 is the printed assignment, drawn as octonions; trials 2.. draw
    # on from the same rng as int tuples, one draw of 8 coefficients per
    # name per trial.  a*b + b*a is the same under every rule, so no trial
    # is transformed; a*b is refuted by trial 1, whose spectrum is
    # transformed once, for the printed functions
    compiles, passes, assignments, evaluations, transforms = spies(monkeypatch)
    draws = spy(monkeypatch, SIEVE, "_random_ints")
    code, out, _ = run(capsys, "sieve", "--expr", expr, "--random-assign", "--seed", "3",
                       "--trials", str(trials), "--format", "json")
    payload = json.loads(out)
    ran = trials if invariant else 1
    assert (code, payload["invariant"], payload["trials_run"]) == (0, invariant, ran)
    counts = (len(compiles), len(passes), len(assignments), len(draws), len(evaluations), len(transforms))
    assert counts == (1, ran, 1, 2 * ran, 0, 0 if invariant else 1)
    assert all(args[1:] == (9,) for args in draws)


def test_sieve_builds_octonions_for_trial_one_only(capsys, monkeypatch):
    built = counted_octonions(monkeypatch)
    code, out, _ = run(capsys, "sieve", "--expr", "a*b + b*a", "--random-assign", "--seed", "3",
                       "--trials", "64", "--format", "json")
    payload = json.loads(out)
    assert (code, payload["invariant"], payload["trials_run"]) == (0, True, 64)
    assert [list(c) for c in built] == list(payload["assignment"].values())


def test_derive_compiles_once_and_runs_one_pass(capsys, monkeypatch):
    compiles, passes, draws, evaluations, _ = spies(monkeypatch)
    code, _, _ = run(capsys, "derive", "--u", "i1", "--v", "i2", "--expr", "(a*b)*c", "--random-assign",
                     "--seed", "4")
    assert code == 0
    # two all-rules passes: the expression's, then D's on its value
    assert (len(compiles), len(passes), len(draws), len(evaluations)) == (1, 2, 1, 0)


@pytest.mark.parametrize("u, algebra, outcome", [("i1", 0, None), ("i1", 4, "-inf"), ("i1", None, "-inf"),
                                                 ("0,1e300,0,0,0,0,0,0", None, "-inf"),
                                                 ("0,1e300,0,0,0,0,0,0", 4, "-inf"), ("0,0.1,0,0,0,0,0,0", 0, None)])
def test_derive_evaluates_then_derives_rule_by_rule(capsys, u, algebra, outcome):
    # rule 0 cancels two 1.5e308 terms that rules 4..7 add past the float
    # range, so in float arithmetic the rule-by-rule evaluate-then-derive
    # loop meets evaluate's -inf under rule 4 (derive reads its inputs as
    # rationals, so the large u overflows nothing under rule 0).  The CLI
    # reads every float as the rational it is, u too (1e300 is parsed as
    # an int, 0.1 is not), and prints that loop's exact outputs: row n of
    # its 16 for rule n alone.
    from octsieve.cli import _parse_octonion
    from octsieve.derivations import derive
    from octsieve.dsl import evaluate

    text = "1e308*a*b - 1.5e308*c + d"
    assign = {"a": "i1", "b": "0,0,1.5,0,0,0,0,0", "c": "i3", "d": "0,0,0,0,0,1e10,0,0"}
    env = {name: _parse_octonion(x) for name, x in assign.items()}
    ns = range(16) if algebra is None else [algebra]
    error = None
    try:
        for n in ns:
            derive(_parse_octonion(u), Octonion.unit(2), evaluate(parse(text), env, n), n)
    except ValueError as exc:
        error = str(exc)
    assert error is None if outcome is None else error.endswith(f"got {outcome}")
    exact_u = Octonion(map(read_exactly, _parse_octonion(u)))
    expected = [encoded(derive(exact_u, Octonion.unit(2), evaluate(exact_tree(parse(text)), exact_env(env), n), n))
                for n in ns]
    argv = ["derive", "--u", u, "--v", "i2", "--expr", text, *(f"--assign={k}={x}" for k, x in assign.items())]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    outputs = json.loads(out)["outputs"]
    assert [typed(outputs[n]) for n in ns] == [typed(o) for o in expected]


def test_a_closed_output_pipe_exits_1_with_nothing_on_stderr():
    # `octsieve tables | head -1`: the reader is gone before the child
    # writes, so its print raises BrokenPipeError; the CLI exits 1 with no
    # traceback, and no second error at the flush on exit
    src = Path(__file__).resolve().parents[1] / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                              "from octsieve.cli import main; sys.exit(main(sys.argv[2:]))",
                              str(src), "tables", "--algebra", "1"],
                             stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, "")
