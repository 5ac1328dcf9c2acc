"""Command-line interface: golden transcripts, exit codes, JSON envelopes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringkit
from ringkit import QQ, PolyRing, irreducibility_pipeline, verify_certificate
from ringkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


GOLDEN = [
    (["eval", "Zn:12", "7*5+3"], "2"),
    (["eval", "Q", "2/3 + 1/6"], "5/6"),
    (["gcd", "Z", "252", "198"], "18"),
    (["gcd", "Quad:-1", "4+i", "1+2i"], "1"),
    (["xgcd", "Z", "252", "198"], "18 4 -5"),
    (["lcm", "Z", "4", "6"], "12"),
    (["inv", "Zn:40", "13"], "37"),
    (["crt", "Z", "3:4", "8:13"], "47 mod 52"),
    (["phi", "16"], "8"),
    (["factor-int", "-252"], "-1 * 2^2 * 3^2 * 7"),
    (["factor-poly", "Fp:2", "[1,0,0,0,0,0,0,0,1]"], "(x+1)^8"),
    (["content", "Z", "[-12,0,6]"], "6"),
    (["primassoc", "Z", "[-12,0,6]"], "x^2-2"),
    (["sqfree", "Z", "180"], "5"),
    (["sqfree", "Fp:3", "[0,1,2,1]"], "x"),
    (["irreducible", "Q", "[-9,26,16,6,1]"], "IRREDUCIBLE cert=eisenstein p=5 shift=1"),
    (["interpolate", "Fp:7", "2:5", "3:1", "5:6"], "x^2+5*x+5"),
    (["series-invert", "Fp:5", "[1,2,3;6]"], "[1,3,1,4,4,0;6]"),
    (["laurent", "--precision", "4", "Fp:5", "[1,4,2]", "[0,1,3,1]"], "x^-1+1+3*x+O(x^2)"),
    (["quad-norm", "Quad:-5", "2+3s"], "49"),
    (["quad-norm", "Quad:-1", "3+4i"], "25"),
    (["quat-mul", "(2+3j)", "(5i-k)"], "7*i-17*k"),
    (["quat-mul", "i", "j"], "k"),
    (["classify", "Zn:6"], "units=[1,5] zero_divisors=[2,3,4] nilpotents=[0] idempotents=[0,1,3,4]"),
    (["mat-inv", "Zn:9", "[[2,5],[8,6]]"], "[[3,5],[8,7]]"),
    (["cramer", "Z", "[[2,7],[1,4]]", "[-25,-16]"], "[12,-7]"),
    (["quot-eval", "Quot(Fp:2,[1,1,1])", "[0,1]*[0,1]+[0,1]"], "1"),
    (["quot-eval", "Quot(Z,12)", "7*5+3"], "2"),
    (["ideal-lattice", "12"], "ideals: 1,2,3,4,6,12 prime: 2,3 maximal: 2,3"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_golden_transcripts(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "irreducible", "Q", "[-9,26,16,6,1]")
    second = run(capsys, "irreducible", "Q", "[-9,26,16,6,1]")
    assert first == second


def test_ring_failures_exit_one(capsys):
    code, out, err = run(capsys, "inv", "Zn:12", "8")
    assert code == 1 and out == ""
    assert err == "NotInvertible: 8 is not invertible modulo 12 (gcd 4)"

    code, _, err = run(capsys, "crt", "Z", "1:4", "2:6")
    assert code == 1 and err.startswith("NotComaximal:")

    code, _, err = run(capsys, "mat-inv", "Zn:9", "[[3,0],[0,1]]")
    assert code == 1
    assert err == "DeterminantNotUnit: determinant 3 is not a unit in Zn:9"


def test_parse_failures_exit_two(capsys):
    code, out, err = run(capsys, "eval", "Zn:12", "7*")
    assert (code, out) == (2, "")
    assert err == "parse error: unexpected end of expression"

    code, _, err = run(capsys, "gcd", "Fp:9", "1", "2")
    assert code == 2 and "prime" in err

    code, _, err = run(capsys, "laurent", "Fp:5", "[1,4,2]", "[0,1,3,1]")
    assert code == 2 and "--precision" in err


@pytest.mark.parametrize("argv", [
    ["eval", "Quad:-1", "[1]"],
    ["eval", "H", "{1}"],
    ["irreducible", "Quad:-1", "[ys]"],
])
def test_bracket_chunk_without_bracket_syntax_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"parse error: {argv[1]} has no literal {argv[2]!r}"


# Every operand is read as eval reads it: an expression in its context.
OPERAND_EXPRESSIONS = [
    (["inv", "Zn:40", "10+3"], "37"),
    (["gcd", "Z", "2*3", "4"], "2"),
    (["crt", "Z", "1+2:4", "8:13"], "47 mod 52"),
    (["inv", "Frac(Z)", "2+1"], "1/3"),
    (["inv", "Quot(Z,12)", "1/5"], "5"),
    (["phi", "2^4"], "8"),
    (["inv", "Frac(Poly(Q))", "1/2*x"], "2/(x)"),
    (["eval", "Poly(Poly(Z))", "[[0,1],0,1]"], "[x,0,1]"),
]


@pytest.mark.parametrize("argv,expected", OPERAND_EXPRESSIONS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_operands_read_as_expressions(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize("ctx", ["Q", "Frac(Z)"])
def test_an_operand_dividing_by_zero_is_not_a_unit(capsys, ctx):
    assert run(capsys, "inv", ctx, "1/0") == (
        1, "", f"NotInvertible: 0 is not a unit in {ctx}")


def test_a_word_in_z_is_an_unknown_symbol(capsys):
    assert run(capsys, "gcd", "Z", "abc", "4") == (
        2, "", "parse error: unknown symbol 'abc'")


def test_product_literal_evaluates(capsys):
    assert run(capsys, "eval", "Prod(Z,Zn:6)", "(1,2)") == (0, "(1,2)", "")


@pytest.mark.parametrize("text", ["(1,2)*x+(0,1)", "((1,2))*x+((0,1))"])
def test_polynomials_over_products_read_what_they_print(capsys, text):
    assert run(capsys, "eval", "Poly(Prod(Z,Zn:6))", text) == (
        0, "((1,2))*x+((0,1))", "")


def test_literals_of_several_chunks_read_as_expressions(capsys):
    assert run(capsys, "gcd", "Poly(Q)", "[1,1]*[1,-1]", "[1,1]") == (
        0, "x+1", "")
    assert run(capsys, "eval", "Mat(Poly(Z),2)", "x*[[1,2],[3,4]]") == (
        0, "[[x,2*x],[3*x,4*x]]", "")


# Inputs that once ended in a traceback: deep nesting and long runs of
# signs exhausted the recursion limit, and integers past the
# interpreter's digit limit raised ValueError.
FORMER_TRACEBACKS = [
    (["eval", "Z", "(" * 3000 + "1" + ")" * 3000], 1, "",
     "TooLarge: brackets nested deeper than 64"),
    (["eval", "Poly(" * 2000 + "Z" + ")" * 2000, "1"], 1, "",
     "TooLarge: brackets nested deeper than 64"),
    (["eval", "Z", "1+" + "-" * 5000 + "1"], 0, "2", ""),
    (["eval", "Z", "7" * 100001], 1, "",
     "TooLarge: integer literal of 100001 digits"),
    (["eval", "Z", "10^100000"], 1, "",
     "TooLarge: a result of more than 100000 digits"),
]


@pytest.mark.parametrize("argv,code,out,err", FORMER_TRACEBACKS, ids=[
    "parentheses", "contexts", "signs", "digits", "printed-digits"])
def test_former_tracebacks_end_in_one_typed_line(capsys, argv, code, out, err):
    got = run(capsys, *argv)
    assert got[:2] == (code, out)
    assert got[2].startswith(err) and "\n" not in got[2]


@pytest.mark.parametrize("literal", ["[1,2;5]", "[1,2,3,4,5;5]"])
def test_a_series_marker_must_match_the_context(capsys, literal):
    assert run(capsys, "eval", "Series(Q,3)", literal) == (
        2, "", "parse error: precision marker ;5 does not match Series(Q,3)")
    assert run(capsys, "eval", "Series(Q,3)", "[1,2;3]") == (0, "[1,2,0;3]", "")


def test_unknown_verb_exits_two(capsys):
    assert main(["no-such-verb"]) == 2
    capsys.readouterr()


def test_json_envelope_for_xgcd(capsys):
    code, out, _ = run(capsys, "--json", "xgcd", "Z", "252", "198")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "verb": "xgcd",
        "context": "Z",
        "result": "18 4 -5",
        "g": "18",
        "x": "4",
        "y": "-5",
    }


def test_json_envelope_for_classify(capsys):
    code, out, _ = run(capsys, "--json", "classify", "Zn:6")
    payload = json.loads(out)
    assert code == 0
    assert payload["units"] == ["1", "5"]
    assert payload["zero_divisors"] == ["2", "3", "4"]
    assert payload["nilpotents"] == ["0"]
    assert payload["idempotents"] == ["0", "1", "3", "4"]


def test_json_envelope_for_the_ideal_lattice(capsys):
    code, out, _ = run(capsys, "--json", "ideal-lattice", "12")
    payload = json.loads(out)
    assert code == 0
    assert payload["ideals"] == [1, 2, 3, 4, 6, 12]
    assert payload["prime"] == [2, 3] and payload["maximal"] == [2, 3]


def test_json_context_field_echoes_the_canonical_name(capsys):
    _, out, _ = run(capsys, "--json", "eval", "Quot(Fp:2,[1,1,1])", "[0,1]+[1,0]")
    payload = json.loads(out)
    assert payload["context"] == "Quot(Poly(Fp:2),x^2+x+1)"
    assert payload["result"] == "x+1"


def test_crt_reads_congruences_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3 mod 4\n8 mod 13\n"))
    code, out, _ = run(capsys, "crt", "Z")
    assert (code, out) == (0, "47 mod 52")


def test_precision_flag_overrides_the_declared_window(capsys):
    code, out, _ = run(capsys, "series-invert", "--precision", "3", "Fp:5", "[1,2,3]")
    assert (code, out) == (0, "[1,3,1;3]")


def test_prime_bound_flag_changes_the_certificate_search(capsys):
    # with the eisenstein prime capped below 5, the pipeline falls through
    # to the reduction test, which first succeeds at p=7
    code, out, _ = run(capsys, "irreducible", "--prime-bound", "3", "Q", "[-9,26,16,6,1]")
    assert (code, out) == (0, "IRREDUCIBLE cert=reduction p=7")


# Inputs that once ran for seconds to minutes (trial division, Pollard rho
# on a prime power, or work done before any size check).  Each runs in
# its own process under a 10 s timeout, so a regression fails the suite
# instead of hanging it.
P18 = "1000000000000000003"
P17 = "100000000000000003"
QUARTIC = "[1000000000000000000000000000007,0,0,0,1]"
# N/M x^0 + x^4 with N = 2^20 3^12 5^8, M = 7^10 11^8 13^8: the rational
# roots to try cost 21891870 Horner steps
COSTLY_ROOTS = "[217678233600000000/49393374747432745372392049,0,0,0,1]"
FORMER_HANGS = [
    (["eval", f"Zn:{P18}", "1"], 0, "1"),
    (["eval", f"Quad:{P18}", "1"], 0, "1"),
    (["phi", P18], 0, "1000000000000000002"),
    (["ideal-lattice", P18], 0, f"ideals: 1,{P18} prime: {P18} maximal: {P18}"),
    (["ideal-lattice", P17], 0, f"ideals: 1,{P17} prime: {P17} maximal: {P17}"),
    (["factor-int", "1000000000001"], 0, "73 * 137 * 99990001"),
    (["irreducible", "Q", QUARTIC], 0, "IRREDUCIBLE cert=reduction p=5"),
    (["eval", "Series(Z,99999999)", "1"], 1, ""),
    (["series-invert", "Fp:7", "[1,1;100000000]"], 1, ""),
    # the rational-root search is over the budget; reduction decides
    (["irreducible", "Q", "[160030080000,0,0,0,7016830618369]"], 0,
     "IRREDUCIBLE cert=reduction p=29"),
    (["factor-int", "1000000000000000006000000000000000009"], 0,
     "1000000000000000003^2"),
    (["irreducible", "Quad:-5", "10000000000000079"], 1, ""),
    (["irreducible", "--prime-bound", "100000000", "Q", "[1,0,0,0,1]"], 1, ""),
    # 2 * 10^9 Taylor shifts, priced once shift 0 has failed
    (["irreducible", "--shift-bound", "1000000000", "Q", "[1,0,-10,0,1]"], 1,
     ""),
    # the budget refusal of a context literal's modulus, not a parse error
    (["eval", f"Frac(Quot(Q,{COSTLY_ROOTS}))", "1/x"], 1, ""),
    # a gcd at every level of nested fraction fields
    (["eval", "Frac(" * 7 + "Z" + ")" * 7, "1+1"], 0, "2"),
    (["eval", "Frac(Poly(" * 5 + "Z" + "))" * 5, "x/(x+1)"], 0,
     "[0,[[[1]]]]/[[[[1]]],[[[1]]]]"),
]


def _ringkit_process(argv):
    src = str(Path(ringkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ringkit.cli", *argv],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("argv,code,out", FORMER_HANGS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_former_hangs_end_in_bounded_time(argv, code, out):
    done = _ringkit_process(argv)
    assert (done.returncode, done.stdout.rstrip("\n")) == (code, out)
    if code:
        assert "exceeds the work budget" in done.stderr


def test_results_print_up_to_the_digit_limit():
    # past CPython's default limit of 4300 digits, up to MAX_DIGITS
    done = _ringkit_process(["eval", "Z", "2^99999"])
    digits = done.stdout.rstrip("\n")
    assert (done.returncode, done.stderr, len(digits)) == (0, "", 30103)
    assert digits.isdigit() and digits.endswith(str(pow(2, 99999, 10**12)))
    done = _ringkit_process(["eval", "Z", "2^99999*10^70000"])
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "TooLarge: a result of more than 100000 digits\n")


def test_large_quartic_certificate_replays():
    f = PolyRing(QQ).parse_element(QUARTIC)
    verdict = irreducibility_pipeline(f)
    assert str(verdict) == "IRREDUCIBLE cert=reduction p=5"
    assert verify_certificate(f, verdict)


# Composed contexts whose elements hold more leaf payloads than the
# budget: evaluating in them took time doubling per level of nesting.
# Matrices nest only through a commutative base, so the second one puts
# 2 x 2 matrices over series nested 18 deep (2^18 leaves each).
SERIES_18 = "Series(" * 18 + "Zn:4" + ",2)" * 18
WIDE_CONTEXTS = [
    ["eval", "Series(" * 30 + "Zn:4" + ",2)" * 30, "x+1"],
    ["eval", f"Mat({SERIES_18},2)", "x+1"],
]


@pytest.mark.parametrize("argv", WIDE_CONTEXTS, ids=["series", "matrices"])
def test_contexts_wider_than_the_budget_are_refused(argv):
    test_former_hangs_end_in_bounded_time(argv, 1, "")


# F_p given as Quot(Z, p) is a prime field: these verbs refused it before
# (factor-poly and irreducible with "expected a polynomial over a prime
# field" and "no irreducibility test over Quot(Z,5)"), and now print what
# they print over Fp:p
@pytest.mark.parametrize("argv", [
    ["factor-poly", "{}", "[1,0,0,0,1]"],
    ["factor-poly", "{}", "[0,5,7,1]^3*[5,8,3]"],
    ["irreducible", "{}", "[2,0,1]"],
    ["irreducible", "{}", "[1,1,0,1]^2"],
    ["sqfree", "{}", "[1,2,1]*[3,0,0,1]"],
], ids=lambda v: " ".join(v))
def test_quotients_of_z_by_a_prime_are_prime_fields(capsys, argv):
    want = run(capsys, *[a.format("Fp:5") for a in argv])
    assert want[0] == 0
    assert run(capsys, *[a.format("Quot(Z,5)") for a in argv]) == want


def test_the_quot_z_certificate_replays(capsys):
    assert run(capsys, "irreducible", "Quot(Z,5)", "[2,0,1]") == (
        0, "IRREDUCIBLE cert=exhaustive", "")
    assert run(capsys, "factor-poly", "Quot(Z,5)", "[1,0,0,0,1]") == (
        0, "(x^2+2) * (x^2+3)", "")
    ctx = PolyRing(ringkit.parse_context("Quot(Z,5)"))
    for text in ("[2,0,1]", "[1,0,0,0,1]"):
        f = ctx.parse_element(text)
        verdict = irreducibility_pipeline(f)
        assert verify_certificate(f, verdict)
