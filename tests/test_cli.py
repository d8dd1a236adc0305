import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fieldsimp
from fieldsimp.arith import production_prime
from fieldsimp.cli import (ParseError, UnknownIdentifier, ZeroDenominator,
                           parse_expression, parse_problem_file, run)
from fieldsimp.poly import LEX, QQ, RationalFunction, Ring

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
    # keep denominators monomial or univariate so normalization stays cheap
    style = rng.random()
    if style < 0.4:
        den = ring.one()
    elif style < 0.7:
        mon = tuple(rng.randint(0, 2) for _ in range(n))
        den = ring.from_dict({mon: Fraction(rng.randint(1, 9))})
    else:
        v = rng.randrange(n)
        d = {}
        for _ in range(rng.randint(1, 3)):
            mon = [0] * n
            mon[v] = rng.randint(0, 3)
            d[tuple(mon)] = Fraction(rng.randint(-9, 9) or 1)
        den = ring.from_dict(d)
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


def test_run_config_error(capsys):
    assert run(["--input", fixture_path("example_sym"), "--delta", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_missing_file(capsys):
    assert run(["--input", "/nonexistent/problem.txt"]) == 2


def test_run_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("vars: x1\nx1 + w\n")
    assert run(["--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_exponent_too_large(tmp_path, capsys):
    # packed Groebner monomials hold exponents up to 65535
    big = tmp_path / "big.txt"
    for expr, top in (("x^70000", 70000), ("(x+1)^70000", 70000),
                      ("((x+1)^300)^300", 90000)):
        # a power is refused before it is expanded
        big.write_text("vars: x\n%s\n" % expr)
        assert run(["--input", str(big)]) == 2
        assert "exponent %d exceeds 65535" % top in capsys.readouterr().err


def test_polynomial_member_beyond_one_prime(tmp_path, capsys):
    # the member x^2 + (1048571/1048573)^2*y^2 has a coefficient too large
    # to lift at one prime; its wrong lift must not reach the output
    problem = tmp_path / "large_coefficients.txt"
    problem.write_text("vars: x, y\n1048573*x + 1048571*y\nx*y\n")
    assert run(["--input", str(problem)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x + 1048571/1048573*y", "x*y"]


def test_run_budget_exhausted(capsys):
    code = run(["--input", fixture_path("heron"), "--eval-cap", "1"])
    assert code == 3


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
# bilirubin takes seconds per run, so it is pinned at seed 0 only; the
# seed-0 runs keep the bare fixture name as their id
GOLDEN_RUNS = [pytest.param(name, 0, id=name) for name in GOLDEN_FIXTURES] + [
    pytest.param(name, seed, id="%s-seed%d" % (name, seed))
    for seed in (1, 2) for name in GOLDEN_FIXTURES if name != "bilirubin"]


@pytest.mark.parametrize("name,seed", GOLDEN_RUNS)
def test_report_matches_golden(name, seed, capsys):
    # a change that moves a report on purpose regenerates its file with
    # `fieldsimp --input tests/fixtures/<name>.txt --format json --seed <seed>`
    assert run(["--input", fixture_path(name), "--format", "json",
                "--seed", str(seed)]) == 0
    golden = (GOLDEN_DIR / ("%s.seed%d.json" % (name, seed))).read_text(
        encoding="utf-8")
    assert capsys.readouterr().out == golden
