import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import fieldsimp
from fieldsimp.arith import PrimeField, production_prime
from fieldsimp.cli import (ParseError, UnknownIdentifier, ZeroDenominator,
                           _build_arg_parser, parse_expression,
                           parse_problem_file, run)
from fieldsimp.fields import polynomial_generators
from fieldsimp.groebner import ExponentOverflow
from fieldsimp.poly import LEX, QQ, RationalFunction, Ring
from fieldsimp.simplify import MAX_SEARCH_MONOMIALS

from conftest import ALL_FIXTURES, FIXTURE_DIR, load_fixture, parse_many


RING = Ring(("x1", "x2", "x3"), QQ)


def rf(text, ring=RING):
    return parse_expression(text, ring)


# ----------------------------------------------------------------------
# expression grammar


def test_parse_polynomial():
    x1, x2 = parse_many(RING, ["x1", "x2"])
    assert rf("(x1^2 + x2^2)") == x1 * x1 + x2 * x2


def test_parse_seir_generator():
    ring = Ring(("b", "r", "k", "N"), QQ)
    b, r, k, N = parse_many(ring, ["b", "r", "k", "N"])
    assert rf("b*r/(k*N)", ring) == (b * r) / (k * N)


def test_parse_precedence_and_unary():
    x1, x2, x3 = parse_many(RING, ["x1", "x2", "x3"])
    assert rf("-x1^2") == -(x1 * x1)
    assert rf("2*x1^3*x2") == RationalFunction(
        RING.from_dict({(3, 1, 0): Fraction(2)}))
    assert rf("x1 - x2 - x3") == x1 - x2 - x3
    assert rf("x1/x2/x3") == x1 / (x2 * x3)
    assert rf("1/2*x1") == x1 / 2
    assert rf("x1^0") == RationalFunction(RING.one())


def test_parse_errors():
    with pytest.raises(ZeroDenominator):
        rf("x1/(x2 - x2)")
    with pytest.raises(UnknownIdentifier):
        rf("x1 + w")
    with pytest.raises(ParseError) as exc:
        rf("x1 + * x2")
    assert "line 1" in str(exc.value)
    with pytest.raises(ParseError):
        rf("x1^(-2)")
    with pytest.raises(ParseError):
        rf("(x1 + x2")


DEEP_INPUTS = ("(" * 2000 + "x" + ")" * 2000, "-" * 3000 + "x")


@pytest.mark.parametrize("text", DEEP_INPUTS, ids=["parentheses", "minus"])
def test_parse_deep_nesting(text):
    ring = Ring(("x",), QQ)
    with pytest.raises(ParseError, match="line 7, .*nested too deeply"):
        parse_expression(text, ring, line_no=7)
    # nesting within the limit still parses
    assert parse_expression("-" * 50 + "(" * 50 + "x" + ")" * 50, ring) \
        == RationalFunction(ring.variable(0))


@pytest.fixture
def digit_limit():
    """Python's default int-to-str limit, set for the test."""
    if not getattr(sys, "get_int_max_str_digits", int)():
        pytest.skip("this Python has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


def test_parse_power_past_digit_limit(digit_limit):
    ring = Ring(("x",), QQ)
    # 10^4300 has 4301 digits; a power whose coefficients may be too long
    # is refused at its `^`, before it is expanded
    assert parse_expression("10^4299", ring) == \
        RationalFunction(ring.from_int(10 ** 4299))
    assert parse_expression("x + 2^14000", ring).num.terms[1][1] == 2 ** 14000
    for text, col in (("10^4300", 3), ("(1/3)^9100", 6),
                      ("(x + 10^1000)^5", 14)):
        with pytest.raises(ParseError, match="line 4, col %d: power longer "
                           "than 4300 digits" % col):
            parse_expression(text, ring, line_no=4)


def test_roundtrip_fixture_corpus():
    for name in ALL_FIXTURES:
        gs = load_fixture(name)
        for g in gs.generators:
            assert parse_expression(g.render(), gs.ring) == g


def _random_rf(ring, rng):
    n = ring.arity

    def poly():
        d = {}
        for _ in range(rng.randint(1, 4)):
            mon = tuple(rng.randint(0, 3) for _ in range(n))
            d[mon] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return ring.from_dict(d)

    num = poly()
    if num.is_zero():
        num = ring.one()
    style = rng.random()
    if style < 0.3:
        den = ring.one()
    elif style < 0.5:
        mon = tuple(rng.randint(0, 2) for _ in range(n))
        den = ring.from_dict({mon: Fraction(rng.randint(1, 9))})
    else:
        den = poly()
        if den.is_zero():
            den = ring.one()
    return RationalFunction(num, den)


def test_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(500):
        f = _random_rf(RING, rng)
        assert parse_expression(f.render(), RING) == f


# ----------------------------------------------------------------------
# problem files


def test_parse_problem_file():
    text = "# demo\nvars: x1, x2\nx1 + x2   # trailing comment\n\nx1*x2\n"
    gs, warned = parse_problem_file(text)
    assert gs.ring.vars == ("x1", "x2")
    assert len(gs) == 2 and warned == []


def test_parse_problem_file_var_order():
    text = "vars: x1, x2\nx1 + x2\n"
    gs, _ = parse_problem_file(text, var_order=["x2", "x1"])
    assert gs.ring.vars == ("x2", "x1")
    with pytest.raises(ParseError):
        parse_problem_file(text, var_order=["x1", "x3"])


def test_parse_problem_file_lex():
    text = "vars: x1, x2\nx1 + x2\n"
    gs, _ = parse_problem_file(text, order_kind="lex")
    assert gs.ring.order == LEX


def test_parse_problem_file_constant_warning():
    gs, warned = parse_problem_file("vars: x1\n3/4\nx1\n")
    assert warned == ["3/4"]
    assert len(gs) == 1


def test_parse_problem_file_errors():
    with pytest.raises(ParseError):
        parse_problem_file("x1 + x2\n")
    with pytest.raises(ParseError):
        parse_problem_file("vars: x1\n")
    with pytest.raises(ParseError):
        parse_problem_file("vars: x1\n5\n")


# ----------------------------------------------------------------------
# driver exit codes


def fixture_path(name):
    return str(FIXTURE_DIR / (name + ".txt"))


def test_run_success(capsys):
    for extra in ([], ["--order", "lex"]):
        assert run(["--input", fixture_path("example_sym")] + extra) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2


def test_module_entry_point_runs_without_warning():
    # `python -m fieldsimp.cli` must not find the module already imported
    # by the package (runpy warns when it is)
    src = str(Path(fieldsimp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fieldsimp.cli",
         "--input", fixture_path("example_sym")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.strip().splitlines()) == 2


def test_bad_prime_restarts_without_traceback(tmp_path):
    # the input's coefficient denominator is the first harvest prime of
    # attempt 0, so attempt 1 (a fresh block of primes) must verify
    assert production_prime(0) == 4611686018427387847
    problem = tmp_path / "bad_prime.txt"
    problem.write_text("vars: x, y\n"
                       "x/(4611686018427387847*y+4611686018427387847)\n"
                       "x*y\n")
    src = str(Path(fieldsimp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "fieldsimp.cli", "--input", str(problem)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.split("\n")[:2] == ["x*y", "1/(y^2 + y)"]


@pytest.mark.parametrize("extra", [["--delta", "0"], ["--epsilon", "0.01"]],
                         ids=["delta", "epsilon"])
def test_run_config_error(extra, capsys):
    assert run(["--input", fixture_path("example_sym")] + extra) == 2
    assert "error:" in capsys.readouterr().err


def test_run_report_unwritable(tmp_path, capsys):
    report = tmp_path / "missing" / "r.json"
    assert run(["--input", fixture_path("example_sym"),
                "--report", str(report)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not report.exists()


def test_readme_options_match_parser():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = set(re.findall(r"^\| `(--[\w-]+)", readme.read_text(),
                                re.MULTILINE))
    parsed = {opt for action in _build_arg_parser()._actions
              for opt in action.option_strings
              if opt.startswith("--") and opt != "--help"}
    assert documented == parsed


def test_run_missing_file(capsys):
    assert run(["--input", "/nonexistent/problem.txt"]) == 2


def test_run_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("vars: x1\nx1 + w\n")
    assert run(["--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("vars: x, y\nx y\n", "line 2, col 3: unexpected 'y'"),
    ("vars: x, y\nx^-2\n",
     "line 2, col 2: exponents must be nonnegative integers"),
    ("vars:\nx\n", "line 1, col 1: empty variable list"),
    ("# a comment\n# and another\n", "missing `vars:` header"),
], ids=["juxtaposed_names", "negative_exponent", "empty_header",
        "comments_only"])
def test_run_parse_error_message(tmp_path, capsys, text, message):
    problem = tmp_path / "bad.txt"
    problem.write_text(text)
    assert run(["--input", str(problem)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("expr", ["x + \u00b2", "x + \u0663*y"],
                         ids=["superscript_two", "arabic_indic_three"])
def test_run_non_ascii_digit_is_a_parse_error(tmp_path, capsys, expr):
    # str.isdigit accepts both characters; an int token takes ASCII 0-9
    problem = tmp_path / "digits.txt"
    problem.write_text("vars: x, y\n%s\n" % expr, encoding="utf-8")
    assert run(["--input", str(problem)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: line 2, col 5: unexpected character")


@pytest.mark.parametrize("text,message", [
    ("vars: x, y\u00b2\nx + y\u00b2\n",
     "line 1, col 10: variable name 'y\u00b2'"),
    ("vars: x y, z\nx + z\n", "line 1, col 7: variable name 'x y'"),
    ("vars: 1a, b\nb\n", "line 1, col 7: variable name '1a'"),
    ("  vars: a,b,\u00e9\na\n", "line 1, col 13: variable name '\u00e9'"),
], ids=["superscript", "missing_comma", "leading_digit", "non_ascii_letter"])
def test_run_header_name_not_an_identifier(tmp_path, capsys, text, message):
    # header names follow the expression tokens' rule: an ASCII letter or
    # _, then ASCII letters, digits and _
    problem = tmp_path / "names.txt"
    problem.write_text(text, encoding="utf-8")
    assert run(["--input", str(problem)]) == 2
    assert capsys.readouterr().err == \
        "error: %s is not an identifier\n" % message


def test_run_header_name_repeated(tmp_path, capsys):
    # a repeated name is reported where it stands, as a bad name is
    problem = tmp_path / "names.txt"
    problem.write_text("vars: x, y,  x\nx + y\n", encoding="utf-8")
    assert run(["--input", str(problem)]) == 2
    assert capsys.readouterr().err == \
        "error: line 1, col 14: variable name 'x' is repeated\n"
    problem.write_text("vars: x, y\nx + y\n", encoding="utf-8")
    assert run(["--input", str(problem), "--var-order", "x, x"]) == 2
    assert capsys.readouterr().err == \
        "error: --var-order name 'x' is repeated\n"


def test_run_variable_named_like_the_homogenizing_one(tmp_path, capsys):
    # rational interpolation adds a variable to the ring; an identifier
    # header name cannot take its name
    problem = tmp_path / "h.txt"
    problem.write_text("vars: _h, x\n_h/x\nx^2\n", encoding="utf-8")
    assert run(["--input", str(problem), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert doc["output"] == ["1/x^2", "_h*x"]


def test_identifier_tokens_are_ascii():
    # str.isalnum accepts the superscript, so `y²` used to be one name
    with pytest.raises(ParseError) as exc:
        parse_expression("x + y\u00b2", Ring(("x", "y\u00b2"), QQ))
    assert str(exc.value) == "line 1, col 6: unexpected character '\u00b2'"


def test_run_var_order_splits_like_the_header(tmp_path, capsys):
    problem = tmp_path / "ab.txt"
    problem.write_text("vars: a, b,\na + b^2\na*b\n")
    # a trailing comma is dropped from --var-order as from the header
    assert run(["--input", str(problem), "--var-order", "b, a,"]) == 0
    assert capsys.readouterr().out == "b*a\nb^2 + a\n"
    assert run(["--input", str(problem), "--var-order", "b, 1a"]) == 2
    assert capsys.readouterr().err == \
        "error: --var-order name '1a' is not an identifier\n"


def test_run_exponent_too_large(tmp_path, capsys):
    # packed Groebner monomials hold exponents up to 65535
    big = tmp_path / "big.txt"
    for expr, top in (("x^70000", 70000), ("(x+1)^70000", 70000),
                      ("((x+1)^300)^300", 90000)):
        # a power is refused before it is expanded
        big.write_text("vars: x\n%s\n" % expr)
        assert run(["--input", str(big)]) == 2
        assert "exponent %d exceeds 65535" % top in capsys.readouterr().err


@pytest.mark.parametrize("expr,message", [
    ("y + (10^1000)^5", "col 14: power longer than"),
    ("y + 2^30000000", "col 6: power longer than"),
    ("y + " + "7" * 4401, "col 5: integer literal longer than"),
    ("y + 2^10000*2^10000", "col 1: coefficient longer than"),
    ("y + (x + 1)^20000", "col 12: power longer than"),
], ids=["power_of_power", "power", "literal", "product", "middle_terms"])
def test_run_coefficient_past_digit_limit(tmp_path, capsys, digit_limit,
                                          expr, message):
    # a coefficient Python cannot convert to text is a parse error, not a
    # traceback from the run that renders it
    problem = tmp_path / "digits.txt"
    problem.write_text("vars: x, y\nx\n%s\n" % expr)
    assert run(["--input", str(problem)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3, %s 4300 digits" % message)


def test_run_groebner_exponent_overflow(tmp_path, capsys):
    # under lex a Groebner basis of this problem needs y^65536, which no
    # packed monomial holds: a typed error, not a wrong basis
    problem = tmp_path / "overflow.txt"
    problem.write_text("vars: x, y\nx + y^65535\nx*y\n")
    assert run(["--input", str(problem), "--order", "lex"]) == 2
    assert "exceeds 65535" in capsys.readouterr().err


def test_search_degree_past_the_packed_exponent(tmp_path):
    # --delta 70000 asks the search for candidate monomials up to x^70000,
    # which no packed monomial holds: a typed error at once (unchecked, the
    # wrapped monomials would run the search for minutes).  The CLI's
    # search-size bound refuses it first; the search itself, called
    # directly, raises on the packed exponent
    problem = tmp_path / "x2.txt"
    problem.write_text("vars: x\nx^2\n")
    src = str(Path(fieldsimp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "fieldsimp.cli", "--input", str(problem),
         "--delta", "70000"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == ("error: delta 70000 gives 70001 candidate "
                           "monomials, over the bound 2000\n")
    genset, _ = parse_problem_file(problem.read_text())
    with pytest.raises(ExponentOverflow,
                       match="^a Groebner basis exponent exceeds 65535, "
                             "the largest a packed monomial holds$"):
        polynomial_generators(genset, 70000, PrimeField(production_prime(0)),
                              random.Random(0))


@pytest.mark.parametrize("name, text, delta, count", [
    ("seir34", None, 100, 26075972546), ("x2", "vars: x\nx^2\n", 2000, 2001)])
def test_search_size_bound_exits_2_at_once(tmp_path, capsys, name, text,
                                           delta, count):
    # C(n + delta, n) candidate monomials over MAX_SEARCH_MONOMIALS: the run
    # stops before any GB work (seir34 would build 2.6e10 candidates, and
    # x^2 at delta 2000 ran past 60 s in the search's echelon)
    path = fixture_path(name)
    if text is not None:
        path = tmp_path / (name + ".txt")
        path.write_text(text)
    start = time.perf_counter()
    assert run(["--input", str(path), "--delta", str(delta)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: delta %d gives %d candidate monomials, over the bound %d\n"
        % (delta, count, MAX_SEARCH_MONOMIALS))


def test_polynomial_member_beyond_one_prime(tmp_path, capsys):
    # the member x^2 + (1048571/1048573)^2*y^2 has a coefficient too large
    # to lift at one prime; its wrong lift must not reach the output
    problem = tmp_path / "large_coefficients.txt"
    problem.write_text("vars: x, y\n1048573*x + 1048571*y\nx*y\n")
    assert run(["--input", str(problem)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x + 1048571/1048573*y", "x*y"]


@pytest.mark.parametrize("flags", [[], ["--no-retain-originals"]])
def test_run_thirty_digit_coefficient(tmp_path, capsys, flags):
    # the coefficient lifts over four harvest primes at attempt 0
    problem = tmp_path / "thirty_digits.txt"
    problem.write_text(
        "vars: x, y\n123456789012345678901234567890*x + y\nx*y\n")
    assert run(["--input", str(problem), "--format", "json", *flags]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert doc["output"] == ["x + 1/123456789012345678901234567890*y", "x*y"]
    assert doc["primes"] == [production_prime(i)
                             for i in (0, 6, 7, 64, 2, 3)]


def test_run_budget_exhausted(capsys):
    code = run(["--input", fixture_path("heron"), "--eval-cap", "1"])
    assert code == 3
    assert capsys.readouterr().err == ("evaluation budget exhausted: GB "
                                       "evaluation budget ran out in the "
                                       "polynomial search\n")


def test_run_verification_failed(monkeypatch, capsys):
    from fieldsimp.simplify import VerificationFailed
    import fieldsimp.cli as cli

    def boom(genset, cfg):
        raise VerificationFailed("forced")

    monkeypatch.setattr(cli, "simplify", boom)
    assert run(["--input", fixture_path("example_sym")]) == 1
    assert "verification failed" in capsys.readouterr().err


def test_json_report_deterministic(tmp_path, capsys):
    blobs = []
    for name in ("example_sym", "lotka_volterra"):
        printed = None
        for attempt in (0, 1):
            out = tmp_path / ("%s_%d.json" % (name, attempt))
            code = run(["--input", fixture_path(name),
                        "--format", "json", "--report", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
            printed = json.loads(capsys.readouterr().out)
        assert blobs[-1] == blobs[-2]
        doc = json.loads(blobs[-1])
        assert set(doc) == {"input", "rounds", "pool", "output",
                            "verified", "primes", "seed"}
        assert doc["verified"] is True
        assert printed == doc


def heron_json(capsys, *flags):
    assert run(["--input", fixture_path("heron"), "--seed", "0",
                "--format", "json", *flags]) == 0
    return json.loads(capsys.readouterr().out)


def test_run_check_primes(capsys):
    # two final-check primes after the harvest prime, and no flag changes
    # how many
    doc = heron_json(capsys)
    assert len(doc["primes"]) == 3
    assert doc["verified"] is True
    assert doc["output"] == ["c^2", "b^2", "a^2"]
    for flag in ("--no-final-check", "--paranoid"):
        assert run(["--input", fixture_path("heron"), flag]) == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


def test_run_no_retain_originals(capsys):
    assert "original" in {e["provenance"] for e in heron_json(capsys)["pool"]}
    doc = heron_json(capsys, "--no-retain-originals")
    assert "original" not in {e["provenance"] for e in doc["pool"]}
    assert doc["output"] == ["c^2", "b^2", "a^2"]
    assert doc["verified"] is True


@pytest.mark.parametrize("text", DEEP_INPUTS, ids=["parentheses", "minus"])
def test_run_deep_nesting(tmp_path, text):
    problem = tmp_path / "deep.txt"
    problem.write_text("vars: x\n" + text + "\n")
    src = str(Path(fieldsimp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "fieldsimp.cli", "--input", str(problem)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "line 2" in done.stderr and "nested too deeply" in done.stderr


GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FIXTURES = ("example_sym", "heron", "lotka_volterra", "sir6",
                   "bruno2016", "power_sums", "seir34", "genlv", "bilirubin")
# the seed-0 runs keep the bare fixture name as their id; the lex runs pin
# the reports under the other ring order (obscured4 has no golden file in
# either order; a lex run of it takes about 17 s, so CI runs it once, under
# a timeout, and checks only that it verifies)
GOLDEN_RUNS = [pytest.param(name, 0, "degrevlex", id=name)
               for name in GOLDEN_FIXTURES] + [
    pytest.param(name, seed, "degrevlex", id="%s-seed%d" % (name, seed))
    for seed in (1, 2) for name in GOLDEN_FIXTURES] + [
    pytest.param(name, 0, "lex", id="%s-lex" % name)
    for name in GOLDEN_FIXTURES]


@pytest.mark.parametrize("name,seed,order", GOLDEN_RUNS)
def test_report_matches_golden(name, seed, order, capsys):
    # a change that moves a report on purpose regenerates its file with
    # `fieldsimp --input tests/fixtures/<name>.txt --format json --seed <seed>`
    # (<name>.seed<seed>.json), and a lex report with `--order lex` added
    # (<name>.lex.seed<seed>.json)
    assert run(["--input", fixture_path(name), "--format", "json",
                "--seed", str(seed), "--order", order]) == 0
    stem = name if order == "degrevlex" else "%s.%s" % (name, order)
    golden = (GOLDEN_DIR / ("%s.seed%d.json" % (stem, seed))).read_text(
        encoding="utf-8")
    assert capsys.readouterr().out == golden
