import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fieldsimp import poly as poly_module
from fieldsimp.arith import PrimeField, production_prime
from fieldsimp.cli import parse_expression
from fieldsimp.poly import (DEGREVLEX, LEX, NEG_INF, QQ, DivisionByZero,
                            MonomialOrder, MultiPoly, RationalFunction, Ring,
                            RingMismatch, gcd_q, lcm_q, try_divexact)

from conftest import load_fixture

P = production_prime(0)
FP = PrimeField(P)

RQ = Ring(("x1", "x2", "x3"), QQ)
RP = Ring(("x1", "x2", "x3"), FP)


def q(expr, ring=RQ):
    return parse_expression(expr, ring)


def qp(expr):
    return q(expr).num


mon3 = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@given(mon3, mon3, mon3)
def test_order_axioms(a, b, m):
    for order in (DEGREVLEX, LEX):
        ka, kb = order.key(a), order.key(b)
        # total: trichotomy via keys
        assert (ka < kb) + (ka > kb) + (ka == kb) == 1
        if ka < kb:
            am = tuple(x + y for x, y in zip(a, m))
            bm = tuple(x + y for x, y in zip(b, m))
            assert order.key(am) < order.key(bm)
        # the constant monomial is minimal
        assert order.key((0, 0, 0)) <= ka


def test_degrevlex_tie_rule():
    # rightmost nonzero entry of a - b positive means a < b
    a, b = (1, 0, 1), (0, 2, 0)
    assert DEGREVLEX.key(a) < DEGREVLEX.key(b)
    assert LEX.key(a) > LEX.key(b)


def _random_poly(ring, rng, max_terms=4, max_exp=3):
    d = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in ring.vars)
        if isinstance(ring.field, PrimeField):
            d[m] = rng.randrange(ring.field.p)
        elif rng.random() < 0.5:
            d[m] = rng.randint(-5, 5)
        else:
            d[m] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return ring.from_dict(d)


@pytest.mark.parametrize("ring", [RQ, RP])
def test_ring_axioms(ring):
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (_random_poly(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + ring.zero() == a
        assert a * ring.one() == a
        assert (a - a).is_zero() and -(-a) == a and (a - b) + b == a
        for f in (a + b, a - b, -a, a * b, a ** 3, a.scale(-1),
                  a.scale(P + 3)):
            for _, cf in f.terms:
                assert 0 < cf < P if ring is RP else \
                    type(cf) in (int, Fraction)
        pt = tuple(rng.randint(-9, 9) for _ in ring.vars)
        ref = sum(cf * math.prod(x ** e for x, e in zip(pt, m))
                  for m, cf in a.terms)
        assert a.evaluate(pt) == (ref % P if ring is RP else ref)


def test_add_sub_examples():
    x, y = qp("x1"), qp("x2")
    assert (x + y) + (x - y) == qp("2*x1")
    assert (x + y) * (x - y) == qp("x1^2 - x2^2")
    z = qp("x1^2 + x2") * RQ.zero()
    assert z.is_zero() and z.degree() == NEG_INF


def test_terms_sorted_and_normalized():
    f = qp("x1 + x2^2 + 3 + x1")
    mons = [m for m, _ in f.terms]
    key = RQ.order.key
    assert mons == sorted(mons, key=key, reverse=True)
    assert all(c != 0 for _, c in f.terms)
    assert len(set(mons)) == len(mons)


def test_ring_mismatch():
    other = Ring(("y",), QQ)
    with pytest.raises(RingMismatch):
        qp("x1") + other.variable(0)


def test_equal_rings_hash_equal():
    # a ring's hash is computed once, at construction, from what equality
    # compares: rings built separately hash equal and find each other as
    # dict keys, and a ring differing in any part is another key
    pairs = [(Ring(("x1", "x2", "x3"), QQ), RQ),
             (Ring(["x1", "x2", "x3"], PrimeField(P), MonomialOrder()), RP),
             (Ring(("a", "b"), FP, LEX), Ring(("a", "b"), FP, LEX))]
    for built, other in pairs:
        assert built is not other and built == other
        assert hash(built) == hash(other)
        assert {other: 1}[built] == 1
        assert {(built, 1): 2}[(other, 1)] == 2
    table = {RQ: 0, RP: 1, Ring(("x1", "x2", "x3"), QQ, LEX): 2,
             Ring(("x1", "x2"), QQ): 3}
    assert len(table) == 4
    assert table[Ring(("x1", "x2", "x3"), FP)] == 1


def test_evaluate_examples():
    assert qp("x1*x2 + 1").evaluate((2, 3, 0)) == 7
    assert RQ.zero().evaluate((1, 2, 3)) == 0
    f = RP.variable(0) * RP.variable(0)
    assert f.evaluate((P - 1, 0, 0)) == 1


def test_gcd_examples():
    assert gcd_q(qp("x1^2 - x2^2"), qp("x1 - x2"))[0] == qp("x1 - x2")
    assert gcd_q(qp("x1^3 + x2"), RQ.one())[0] == RQ.one()
    assert gcd_q(qp("x1*x2"), qp("x2*x3"))[0] == qp("x2")


def test_gcd_properties():
    rng = random.Random(5)
    for _ in range(25):
        a = _random_poly(RQ, rng, max_terms=3, max_exp=2)
        b = _random_poly(RQ, rng, max_terms=3, max_exp=2)
        g = _random_poly(RQ, rng, max_terms=2, max_exp=2)
        if a.is_zero() or b.is_zero():
            continue
        d = gcd_q(a, b)[0]
        assert try_divexact(a, d) is not None
        assert try_divexact(b, d) is not None
        if not g.is_zero():
            dg = gcd_q(a * g, b * g)[0]
            expected = (d * g).monic()
            assert dg == expected


def test_lcm_divisible_by_both():
    a, b = qp("x1^2 - x2^2"), qp("x1^2 - x1*x2")
    l = lcm_q(a, b)
    assert try_divexact(l, a) is not None
    assert try_divexact(l, b) is not None


@st.composite
def planted_gcds(draw, arity=4, exponent=3, terms=4, monomial=False):
    """(a g, b g) in 1..arity variables under either order, a, b and g with
    up to `terms` terms, exponents up to `exponent` and rational
    coefficients; with `monomial`, a and g have one term, so one operand
    is c x^m against a polynomial times a monomial, in either position."""
    n = draw(st.integers(1, arity))
    ring = Ring(tuple("x%d" % i for i in range(n)), QQ,
                draw(st.sampled_from((DEGREVLEX, LEX))))
    coeff = st.builds(Fraction, st.integers(-20, 20).filter(bool),
                      st.integers(1, 6))
    mons = st.tuples(*[st.integers(0, exponent)] * n)
    poly = st.dictionaries(mons, coeff, min_size=1, max_size=terms)
    term = st.dictionaries(mons, coeff, min_size=1, max_size=1)
    a = ring.from_dict(draw(term if monomial else poly))
    b = ring.from_dict(draw(poly))
    g = ring.from_dict(draw(term if monomial else poly))
    pair = a * g, b * g
    return pair[::-1] if monomial and draw(st.booleans()) else pair


def _sympy_poly(f, xs):
    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator) for m, c in f.terms},
        *xs, domain="QQ")


@settings(max_examples=60, deadline=None)
@given(planted_gcds())
def test_gcd_matches_sympy_with_cofactors(case):
    f, g = case
    _check_gcd_triple(f, g, gcd_q(f, g))


def _check_gcd_triple(f, g, triple):
    h, cf, cg = triple
    assert h.leading_coefficient() == 1
    assert h * cf == f and h * cg == g
    xs = sympy.symbols(f.ring.vars)
    quot, rem = sympy.div(_sympy_poly(h, xs),
                          sympy.gcd(_sympy_poly(f, xs), _sympy_poly(g, xs)))
    assert rem.is_zero and quot.is_ground


@settings(max_examples=60, deadline=None)
@given(planted_gcds(monomial=True))
def test_gcd_with_a_monomial_is_closed_form(case):
    # h = x^b with b the least exponents; neither the heuristic nor the
    # sequence runs, and the cofactors' terms stay in the ring's order
    f, g = case
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_heu_gcd", "_gcd_prs"):
            mp.setattr(poly_module, name,
                       lambda a, b, name=name: calls.append(name))
        triple = gcd_q(f, g)
    assert not calls
    h, cf, cg = triple
    assert h.num_terms() == 1
    assert all(c == c.ring.from_dict(dict(c.terms)) for c in (cf, cg))
    _check_gcd_triple(f, g, triple)


@settings(max_examples=60, deadline=None)
@given(planted_gcds(arity=3, exponent=2, terms=3))
def test_gcd_sequence_fallback_gives_the_same_triple(case):
    # draws small enough for the pseudo-remainder sequence, which the
    # heuristic falls back on when it gives up (on four variables and
    # exponents up to 3, the sequence can take minutes)
    f, g = case
    want = gcd_q(f, g)
    prs, calls = poly_module._gcd_prs, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_module, "_heu_gcd", lambda zf, zg: None)
        mp.setattr(poly_module, "_gcd_prs",
                   lambda a, b: calls.append(1) or prs(a, b))
        assert gcd_q(f, g) == want
    assert calls or f.num_terms() == 1 or g.num_terms() == 1


@pytest.mark.parametrize("digits, fallback", [(300, False), (400, True)])
def test_dense_gcd_past_the_size_guard_takes_the_sequence(digits, fallback,
                                                          monkeypatch):
    # with 400-digit coefficients an integer image of the cubed linear
    # factor would pass HEU_MAX_BITS, so the heuristic gives up on its own
    # and the pseudo-remainder sequence answers (0.025 s on a 2-core host);
    # with 300 digits the heuristic alone answers
    rng = random.Random(0)
    lin = "(%d*x + %d*y + %d*z + %d)" % tuple(
        rng.randrange(10 ** (digits - 1), 10 ** digits) for _ in range(4))
    prs, calls = poly_module._gcd_prs, []
    monkeypatch.setattr(poly_module, "_gcd_prs",
                        lambda a, b: calls.append(1) or prs(a, b))
    ring = Ring(("x", "y", "z"), QQ)
    start = time.perf_counter()
    f = parse_expression("(%s^3*(x + y + 1))/(%s^3*(x - y + 2))"
                         % (lin, lin), ring)
    assert time.perf_counter() - start < 5
    assert bool(calls) == fallback
    assert f == parse_expression("(x + y + 1)/(x - y + 2)", ring)


@pytest.mark.parametrize("expr", ["(x^60000*y - 3)/(x^40000*y^2 - 9)",
                                  "(x^60000 - 1)/(x^40000 - 1)"])
def test_sparse_high_degree_gcd_takes_the_size_guard(expr, monkeypatch):
    # an integer image of x^60000 would pass HEU_MAX_BITS, so the heuristic
    # gives up at once and the sequence takes these sparse inputs
    prs, calls = poly_module._gcd_prs, []
    monkeypatch.setattr(poly_module, "_gcd_prs",
                        lambda a, b: calls.append(1) or prs(a, b))
    start = time.perf_counter()
    f = parse_expression(expr, Ring(("x", "y"), QQ))
    assert time.perf_counter() - start < 0.1
    assert calls and not f.den.is_constant()


@pytest.mark.parametrize("expr, want", [("x^60000*y/x^50000", "x^10000*y"),
                                        ("x^40000*y^3/(x^30000*y)",
                                         "x^10000*y^2")])
def test_high_degree_monomial_gcd_takes_no_sequence(expr, want, monkeypatch):
    # an integer image of x^60000 would pass HEU_MAX_BITS, but a one-term
    # operand is answered in closed form before the heuristic could give up
    prs, calls = poly_module._gcd_prs, []
    monkeypatch.setattr(poly_module, "_gcd_prs",
                        lambda a, b: calls.append(1) or prs(a, b))
    ring = Ring(("x", "y"), QQ)
    start = time.perf_counter()
    f = parse_expression(expr, ring)
    assert time.perf_counter() - start < 0.1
    assert not calls and f == parse_expression(want, ring)


def test_mid_size_gcd_parses():
    # the pseudo-remainder sequence took more than a minute on this one
    ring = Ring(("x", "y", "z"), QQ)
    start = time.perf_counter()
    f = parse_expression("((x+y+z+1)^4*(x-2*y+3*z+5)^4)"
                         "/((x+y+z+1)*(x*y+7*z-3)^4)", ring)
    assert time.perf_counter() - start < 2
    assert f.den == parse_expression("(x*y+7*z-3)^4", ring).num
    assert f.num == parse_expression("(x+y+z+1)^3*(x-2*y+3*z+5)^4",
                                     ring).num


def test_rf_arithmetic_examples():
    x, y = q("x1"), q("x2")
    assert (x / y) * (y / x) == RationalFunction(RQ.one())
    raw = RationalFunction(qp("x1^2 - 1"), qp("x1 - 1"))
    assert raw.num == qp("x1 + 1") and raw.den == RQ.one()
    assert 1 / x + 1 / x == q("2/x1")
    with pytest.raises(DivisionByZero):
        x / (y - y)


def test_rf_normalization_unique():
    rng = random.Random(9)
    for _ in range(40):
        a = _random_poly(RQ, rng, max_terms=3, max_exp=2)
        b = _random_poly(RQ, rng, max_terms=3, max_exp=2)
        c = _random_poly(RQ, rng, max_terms=2, max_exp=1)
        if b.is_zero() or c.is_zero():
            continue
        f1 = RationalFunction(a, b)
        f2 = RationalFunction(a * c, b * c)
        assert f1 == f2
        # cross-multiplied equality agrees with the normalized comparison
        assert (f1.num * f2.den - f2.num * f1.den).is_zero()
        assert f1.den.leading_coefficient() == 1


def test_render_canonical():
    f = qp("3*x1^2*x2 - 1/2*x3")
    assert f.render() == "3*x1^2*x2 - 1/2*x3"
    assert RQ.zero().render() == "0"
    assert q("(x1+x2)/(x1*x2)").render() == "(x1 + x2)/(x1*x2)"


def test_constant_coefficient_and_support():
    f = qp("x1^2 + 4*x2 - 7")
    assert f.coefficient((0, 1, 0)) == 4
    assert f.coefficient((9, 0, 0)) == 0
    assert (1, 0, 0) not in f.support() and (2, 0, 0) in f.support()


def test_pow_and_monic():
    f = qp("2*x1 + 2")
    assert f ** 3 == f * f * f
    assert f ** 0 == RQ.one()
    assert f.monic() == qp("x1 + 1")
    with pytest.raises(ValueError):
        f ** -1


def test_q_inverses_are_fractions_never_floats():
    f = qp("3*x1 + 1")
    assert f.monic().terms == (((1, 0, 0), 1), ((0, 0, 0), Fraction(1, 3)))
    num, den = poly_module._monic_den(qp("x2 + 2"), f)
    assert num.terms == (((0, 1, 0), Fraction(1, 3)),
                         ((0, 0, 0), Fraction(2, 3)))
    assert den == f.monic()
    ratio = q("2*x2 + 1") / q("3*x1 + 6")
    assert ratio.num.terms == (((0, 1, 0), Fraction(2, 3)),
                               ((0, 0, 0), Fraction(1, 3)))
    assert ratio.den.terms == (((1, 0, 0), 1), ((0, 0, 0), 2))
    for p in (f.monic(), num, den, ratio.num, ratio.den):
        assert all(type(c) in (int, Fraction) for _, c in p.terms)


@pytest.mark.parametrize("name", [
    "bilirubin", "bruno2016", "example_sym", "genlv", "lotka_volterra",
    "power_sums", "seir34", "sir6"])
def test_integral_fixture_coefficients_are_ints(name):
    # heron and obscured4 divide by non-monic denominators, so some of their
    # coefficients are not integers; these eight fixtures have none
    genset = load_fixture(name)
    assert {type(c) for g in genset.generators for side in (g.num, g.den)
            for _, c in side.terms} == {int}


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
@pytest.mark.parametrize("field", [QQ, FP])
def test_one_term_product_matches_the_dict_path(field, order, monkeypatch):
    ring = Ring(("x1", "x2", "x3"), field, order)
    rng = random.Random(5)
    pairs = []
    for _ in range(40):
        a = _random_poly(ring, rng, max_terms=6)
        b = ring.zero()
        while b.num_terms() != 1:
            b = _random_poly(ring, rng, max_terms=1)
        if field is QQ and rng.random() < 0.3:
            b = ring.constant(rng.choice((1, -2, Fraction(3, 4))))
        pairs.append((a, b))

    def dict_product(a, b):
        d = {}
        for m1, c1 in a.terms:
            for m2, c2 in b.terms:
                m = tuple(x + y for x, y in zip(m1, m2))
                d[m] = d.get(m, 0) + c1 * c2
        return poly_module._from_sums(ring, d)
    want = [dict_product(a, b) for a, b in pairs]
    calls = []
    from_dict = Ring.from_dict
    monkeypatch.setattr(Ring, "from_dict",
                        lambda self, d: calls.append(1) or from_dict(self, d))
    for (a, b), w in zip(pairs, want):
        assert (a * b).terms == (b * a).terms == w.terms
    assert calls == []


def test_rf_pow_takes_no_gcd(monkeypatch):
    f = q("(x1 + 2*x2 + 3*x3 + 1)/(x1*x2 - x3 + 2)")
    want = {n: f ** n for n in (-3, 4)}
    calls = []
    gcd = poly_module.gcd_q
    monkeypatch.setattr(poly_module, "gcd_q",
                        lambda a, b: calls.append(1) or gcd(a, b))
    assert {n: f ** n for n in want} == want
    assert calls == []
    assert (f ** -3).den.leading_coefficient() == 1


rq_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
    st.integers(-3, 3).map(Fraction), max_size=3).map(RQ.from_dict)


@settings(max_examples=40, deadline=None)
@given(rq_polys, rq_polys, st.integers(-3, 4))
def test_rf_pow_matches_repeated_multiplication(a, b, n):
    assume(not b.is_zero())
    f = RationalFunction(a, b)
    if n < 0 and f.is_zero():
        with pytest.raises(DivisionByZero):
            f ** n
        return
    base, want = (f if n >= 0 else 1 / f), RationalFunction(RQ.one())
    for _ in range(abs(n)):
        want = want * base
    power = f ** n
    assert (power.num, power.den) == (want.num, want.den)


@st.composite
def rf_pairs(draw):
    """(f, g) in 1..3 variables under either order: a factor planted across
    the operands' numerators and denominators, denominators of 1, zero
    numerators, g = h - f for a sum h whose denominator cancels, g = f or -f
    for zero results, and rational coefficients of either sign, so a
    divisor's leading coefficient is rarely 1."""
    n = draw(st.integers(1, 3))
    ring = Ring(tuple("x%d" % i for i in range(n)), QQ,
                draw(st.sampled_from((DEGREVLEX, LEX))))
    coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                      st.integers(1, 4))
    poly = st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), coeff,
                           min_size=1, max_size=3).map(ring.from_dict)
    unit = st.just(ring.one())
    factor = draw(poly | unit)
    fn, fd, gn, gd = (draw(poly | unit) for _ in range(4))
    fn = draw(st.sampled_from((fn, ring.zero())))
    planted = draw(st.sampled_from(("fn gd", "fd gd", "fd gn", "")))
    fn, fd, gn, gd = (p * factor if name in planted else p
                      for p, name in zip((fn, fd, gn, gd),
                                         ("fn", "fd", "gn", "gd")))
    f, h = RationalFunction(fn, fd), RationalFunction(gn, gd)
    return f, draw(st.sampled_from((h, h - f, f, -f)))


@settings(max_examples=150, deadline=None)
@given(rf_pairs())
def test_rf_arithmetic_matches_the_constructor(pair):
    f, g = pair
    cases = [(f + g, f.num * g.den + g.num * f.den, f.den * g.den),
             (f - g, f.num * g.den - g.num * f.den, f.den * g.den),
             (f * g, f.num * g.num, f.den * g.den)]
    if g.is_zero():
        with pytest.raises(DivisionByZero):
            f / g
    else:
        cases.append((f / g, f.num * g.den, f.den * g.num))
    for got, num, den in cases:
        want = RationalFunction(num, den)
        assert (got.num.terms, got.den.terms) == \
            (want.num.terms, want.den.terms)


def test_rf_arithmetic_takes_gcds_of_factors_only(monkeypatch):
    f = q("(x1 + 2*x2)/(x1*x2 - x3 + 2)")
    g = q("(3*x3 - x1)/(x2^2 + x3)")
    p, r = q("x1^2 + x2"), q("1/2*x3 - 1")
    seen = []
    gcd = poly_module.gcd_q
    monkeypatch.setattr(poly_module, "gcd_q",
                        lambda a, b: seen.append((a, b)) or gcd(a, b))
    assert p + r - 3 == p * r / 3 + 5 - p * r / 3 + p + r - 8
    assert seen == []
    f * g
    assert seen == [(f.num, g.den), (g.num, f.den)]
    del seen[:]
    f / g
    assert seen == [(f.num, g.num), (g.den, f.den)]
    del seen[:]
    f + g
    assert seen == [(f.den, g.den)]
