import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldsimp import fields as fields_module
from fieldsimp import groebner as groebner_module
from fieldsimp import oms
from fieldsimp import poly as poly_module
from fieldsimp import simplify as simplify_module
from fieldsimp.arith import (FAIL, ZeroInverse, production_prime,
                            rational_reconstruct)
from fieldsimp.fields import (MembershipContext, _back_substitute, _extend,
                              _reduce, fields_equal, minimize,
                              polynomial_generators)
from fieldsimp.groebner import ExponentOverflow, ReducedGB
from fieldsimp.oms import EomsEvaluator, GeneratorSet, UnluckyPoint
from fieldsimp.poly import (DEGREVLEX, MultiPoly, PrimeField, QQ,
                            RationalFunction, Ring, lcm_q, sparse_terms,
                            values_at)
from fieldsimp.simplify import SimplifyConfig, simplify

from conftest import (ALL_FIXTURES, CHECK_PRIMES, apply_map, fields_equal_2p,
                      fixture_automorphisms, fresh_search, genset_of,
                      load_fixture, parse_many)
from oracle import (every_row_search, fp_echelon, in_fp_span, jacobian_rank,
                    monomials_up_to, specialize, symbolic_membership_space)

FIELDS = tuple(PrimeField(p) for p in CHECK_PRIMES)


def contains_2p(genset, candidate, seed=77):
    verdicts = []
    for k, field in enumerate(FIELDS):
        rng = random.Random(seed * 1000003 + k)
        verdicts.append(MembershipContext(genset, field,
                                          rng).contains(candidate))
    assert verdicts[0] == verdicts[1]
    return verdicts[0]


def lift_modp_poly(poly, q_ring, p):
    d = {}
    for m, c in poly.terms:
        v = rational_reconstruct(c, p)
        assert v is not None
        d[m] = v
    return q_ring.from_dict(d)


def test_contains_generators():
    gs = load_fixture("heron")
    for g in gs.generators:
        assert contains_2p(gs, g) is True


def test_contains_heron_square():
    gs = load_fixture("heron")
    a2 = parse_many(gs.ring, ["a^2"])[0]
    assert contains_2p(gs, a2) is True
    a = parse_many(gs.ring, ["a"])[0]
    assert contains_2p(gs, a) is False


def test_symmetric_field_excludes_x1():
    ring = Ring(("x1", "x2"), QQ)
    gs = genset_of(ring, ["x1 + x2", "x1*x2"])
    x1, x2 = parse_many(ring, ["x1", "x2"])
    assert contains_2p(gs, x1) is False
    assert contains_2p(gs, x1 + x2) is True
    assert contains_2p(gs, (x1 * x1 + x2 * x2) / (x1 * x2)) is True


def test_constant_candidate():
    ring = Ring(("x1", "x2"), QQ)
    gs = genset_of(ring, ["x1"])
    five = RationalFunction(ring.from_dict({(0, 0): Fraction(5)}))
    assert contains_2p(gs, five) is True


def test_variable_outside_a_smaller_field():
    ring = Ring(("x1", "x2"), QQ)
    gs = genset_of(ring, ["x2"])
    x1 = parse_many(ring, ["x1"])[0]
    for field in FIELDS:
        assert MembershipContext(gs, field,
                                 random.Random(5)).contains(x1) is False
    assert contains_2p(gs, x1) is False


@pytest.mark.parametrize("gens,candidate", [
    (["x^2", "y"], "x"),
    (["x^2 + y^2", "x*y"], "x + y"),
], ids=["x_over_x2_y", "sum_over_square_sum_product"])
def test_algebraic_non_member_rejected(gens, candidate):
    # the subfield has full transcendence degree, so only the ideal test
    # can rule the candidate out
    ring = Ring(("x", "y"), QQ)
    gs = genset_of(ring, gens)
    f = parse_many(ring, [candidate])[0]
    for k, field in enumerate(FIELDS):
        ctx = MembershipContext(gs, field, random.Random(k))
        assert ctx.transcendence_rank() == 2
        assert ctx.contains(f) is False
        assert ctx.contains(f * f) is True
    assert contains_2p(gs, f) is False


@st.composite
def sparse_fp_quotients(draw):
    """(quotients, point): two quotients (num, den) of random sparse F_p
    polynomials in up to 15 variables with exponents up to 65535, and a
    point with every coordinate in [1, p)."""
    p = draw(st.sampled_from((2, 5, 101, FIELDS[0].p)))
    n = draw(st.integers(1, 15))
    ring = Ring(tuple("x%d" % (i + 1) for i in range(n)), PrimeField(p))
    coeff = st.integers(1, p - 1)
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 65535))
    mons = st.tuples(*[exponent] * n)
    quotients = [tuple(ring.from_dict(draw(st.dictionaries(
        mons, coeff, min_size=lo, max_size=6))) for lo in (0, 1))
        for _ in range(2)]
    point = tuple(draw(st.lists(st.integers(1, p - 1), min_size=n,
                                max_size=n)))
    return quotients, point


def _reference_value(poly, point):
    """poly at point term by term, with no power shared between terms."""
    p = poly.ring.p
    value = sum(c * math.prod(pow(x, e, p) for x, e in zip(point, m))
                for m, c in poly.terms)
    return value if p is None else value % p


@settings(max_examples=200, deadline=None)
@given(sparse_fp_quotients())
def test_values_match_evaluate_over_fp(case):
    # one point's tables serve every query: the first quotient fills them,
    # the second reads them and adds the exponents they lack, and the
    # first again reads only filled entries
    (first, second), point = case
    p = first[0].ring.field.p
    powers = [{1: x} for x in point]
    for num, den in (first, second, first):
        want = [_reference_value(num, point), _reference_value(den, point)]
        assert values_at(sparse_terms(num.terms, den.terms), powers,
                         p) == want
        assert [num.evaluate(point), den.evaluate(point)] == want
    for x, table in zip(point, powers):
        assert table == {e: pow(x, e, p) for e in table}


@st.composite
def sparse_q_polys(draw):
    """(polys, point): three random sparse polynomials over Q in up to 6
    variables with exponents up to 9, and a rational point (zero and
    negative coordinates included)."""
    n = draw(st.integers(1, 6))
    ring = Ring(tuple("x%d" % (i + 1) for i in range(n)), QQ)
    small = st.integers(-20, 20)
    fraction = st.builds(Fraction, small, st.integers(1, 20))
    mons = st.tuples(*[st.integers(0, 9)] * n)
    polys = [ring.from_dict(draw(st.dictionaries(mons, fraction,
                                                 max_size=6)))
             for _ in range(3)]
    point = tuple(draw(st.lists(fraction | small, min_size=n, max_size=n)))
    return polys, point


@settings(max_examples=200, deadline=None)
@given(sparse_q_polys())
def test_values_exact_over_q(case):
    # over Q (p None) the values are exact, and shared tables give what
    # fresh ones and a term-by-term evaluation give
    polys, point = case
    powers = [{1: x} for x in point]
    want = [_reference_value(f, point) for f in polys]
    sparse = sparse_terms(*(f.terms for f in polys))
    assert values_at(sparse, powers, None) == want
    assert values_at(sparse[::-1], powers, None) == want[::-1]
    assert [f.evaluate(point) for f in polys] == want
    for x, table in zip(point, powers):
        assert table == {e: x ** e for e in table}


def _den_value(image, point):
    """q(b) for an F_p image (p, q) at a bare point b."""
    return values_at(sparse_terms(*(f.terms for f in image)),
                     [{1: x} for x in point], image[0].ring.field.p)[1]


def _x_ring(ctx):
    """F_p[x] at a membership context's prime, where candidates' images
    live."""
    return Ring(ctx.genset.ring.vars, ctx.field, ctx.genset.ring.order)


def test_den_value_zero_at_pole():
    gs = load_fixture("heron")
    ctx = MembershipContext(gs, FIELDS[0], random.Random(9))
    a = parse_many(gs.ring, ["a"])[0]
    pole = 1 / (a - Fraction(ctx.point[0]))
    assert _den_value(pole.modp(_x_ring(ctx)), ctx.point) == 0


def _candidate_pole(field):
    """The message of a query whose candidate has a pole at the point."""
    return "^candidate has a pole at the membership point mod %d$" % field.p


def test_candidate_pole_at_context_point_redraws():
    # a candidate with a pole at the context's point is a lost sample: no
    # point is redrawn, the query raises, the context keeps its point and
    # answers the next query, and contexts at other points still decide the
    # candidate
    gs = load_fixture("heron")
    field = FIELDS[0]
    ctx = MembershipContext(gs, field, random.Random(9))
    a = parse_many(gs.ring, ["a"])[0]
    g = gs.generators[0]
    num, den = g.modp(_x_ring(ctx))
    point = ctx.point
    # a function of g, with a pole where g takes its value at b
    value = num.evaluate(point) * pow(den.evaluate(point), -1,
                                      field.p) % field.p
    for cand, expected in ((1 / (g - Fraction(value)), True),
                           (1 / (a - Fraction(point[0])), False)):
        assert _den_value(cand.modp(_x_ring(ctx)), ctx.point) == 0
        with pytest.raises(UnluckyPoint, match=_candidate_pole(field)):
            ctx.contains(cand)
        assert ctx.point == point
        assert ctx.contains(g) is True
        assert contains_2p(gs, cand) is expected


def test_candidate_pole_at_every_draw():
    # the one point drawn has a = 5: the generators specialize there, the
    # context takes one draw per coordinate and the query that loses the
    # point takes none
    gs = load_fixture("heron")
    field = FIELDS[0]
    a = parse_many(gs.ring, ["a"])[0]
    draws = iter([5, 6, 7])

    class Scripted(random.Random):
        def randrange(self, *args):
            return next(draws)

    ctx = MembershipContext(gs, field, Scripted())
    with pytest.raises(UnluckyPoint, match=_candidate_pole(field)):
        ctx.contains(1 / (a - 5))
    assert ctx.point == (5, 6, 7)
    assert next(draws, None) is None
    assert oms.specialize_eoms(gs, ctx.point, ctx.gb_ring) is not FAIL


def test_ideal_pole_at_context_point_raises():
    # the first point drawn is a pole of x/(x + y), so of Q: the context
    # raises after that one draw, and the point drawn next from the same
    # stream gives a context whose ideal has no pole there
    gs = genset_of(Ring(("x", "y"), QQ), ["x/(x + y)", "y"])
    field = FIELDS[0]
    draws = iter([1, field.p - 1, 2, 3])

    class Scripted(random.Random):
        def randrange(self, *args):
            return next(draws)

    with pytest.raises(UnluckyPoint,
                       match="^no regular evaluation point mod %d$" % field.p):
        MembershipContext(gs, field, Scripted())
    ctx = MembershipContext(gs, field, Scripted())
    assert ctx.point == (2, 3)
    assert oms.specialize_eoms(gs, ctx.point, ctx.gb_ring) is not FAIL
    assert ctx.contains(gs.generators[0]) is True


def test_candidate_mapped_to_fp_once(monkeypatch):
    # a query that meets new monomials memoizes them all through one
    # weighted normal form; a repeated query, and another candidate over
    # the same monomials, read everything from the context's memo: nothing
    # is packed, evaluated at the point or normalized again, and a
    # repeated query reduces no coefficient through from_fraction
    gs = load_fixture("heron")
    ctx = MembershipContext(gs, FIELDS[0], random.Random(9))
    g = gs.generators[0]
    cand = g * g
    assert any(isinstance(c, Fraction)
               for f in (cand.num, cand.den) for _, c in f.terms)
    calls = dict.fromkeys(("from_fraction", "pack", "values_at",
                           "normal_form"), 0)

    def counting(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)

    counting(PrimeField, "from_fraction")
    counting(ReducedGB, "pack")
    counting(fields_module, "values_at")
    counting(ReducedGB, "normal_form")
    assert ctx.contains(cand) is True
    assert calls["normal_form"] == 1
    for query in (cand, 1 / cand, cand * 2):
        calls.update(dict.fromkeys(calls, 0))
        assert ctx.contains(query) is True
        assert (calls["pack"], calls["values_at"], calls["normal_form"]) \
            == (0, 0, 0)
    calls["from_fraction"] = 0
    assert ctx.contains(cand) is True
    assert calls["from_fraction"] == 0


def test_coefficient_with_the_prime_in_its_denominator():
    # a candidate coefficient with p in its denominator has no F_p image:
    # the query raises ZeroInverse, as PrimeField.from_fraction does
    gs = load_fixture("heron")
    field = FIELDS[0]
    ctx = MembershipContext(gs, field, random.Random(9))
    g = gs.generators[0]
    for cand in (g + Fraction(1, field.p), g / Fraction(field.p, 3)):
        with pytest.raises(ZeroInverse, match="^prime %d divides the "
                                              "denominator of " % field.p):
            ctx.contains(cand)
    assert ctx.contains(g) is True


@st.composite
def fp_matrices(draw):
    """(p, matrix, vector): independent rows, dependent and zero rows in a
    random order, and a vector that is in the row span about half the time."""
    p = draw(st.sampled_from((2, 5, 101, CHECK_PRIMES[0])))
    ncols = draw(st.integers(1, 5))
    entry = st.integers(-p, 2 * p)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, max_size=4))
    combo = st.lists(st.integers(0, p - 1), min_size=len(base),
                     max_size=len(base))

    def combine(coeffs):
        return [sum(c * r[j] for c, r in zip(coeffs, base))
                for j in range(ncols)]

    extra = [combine(c) for c in draw(st.lists(combo, max_size=3))]
    matrix = draw(st.permutations(base + extra))
    vector = combine(draw(combo)) if draw(st.booleans()) else draw(row)
    return p, matrix, vector


@settings(max_examples=300, deadline=None)
@given(fp_matrices())
@example((7, [], [0, 7]))
@example((7, [], [0, 1]))
def test_rref_matches_oracle(case):
    # sparse rows {column: value} in; rows stored right of their pivot
    p, matrix, vector = case

    def sparse(row):
        return {j: x for j, x in enumerate(row) if x}

    def dense(c, row):
        full = [0] * len(vector)
        full[c] = 1
        for j, x in row.items():
            full[j] = x
        return full

    echelon = []
    grown = [_extend(echelon, sparse(row), p) for row in matrix]
    reduced = _back_substitute(echelon, p)
    assert [dense(c, r) for c, r in reduced] == fp_echelon(matrix, p)
    assert [c for c, _ in echelon] == [c for c, _ in reduced]
    assert all(min(r, default=c + 1) > c and all(0 < x < p for x in r.values())
               for c, r in echelon + reduced)
    assert grown.count(True) == len(echelon)
    assert (not _reduce(echelon, sparse(vector), p)) \
        == in_fp_span(matrix, vector, p)


def test_transcendence_rank():
    heron = load_fixture("heron")
    sym = load_fixture("example_sym")
    for k, field in enumerate(FIELDS):
        assert MembershipContext(heron, field,
                                 random.Random(k)).transcendence_rank() == 3
        assert MembershipContext(sym, field,
                                 random.Random(k)).transcendence_rank() == 2


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_transcendence_rank_matches_jacobian_rank(name):
    gs = load_fixture(name)
    want = jacobian_rank(gs)
    for k, field in enumerate(FIELDS):
        ctx = MembershipContext(gs, field, random.Random(k))
        assert ctx.transcendence_rank() == want


@st.composite
def rank_cases(draw):
    """Generator sets in up to three variables: up to n random polynomials
    of degree at most 2 (so r < n or r = n), and in half the cases one more
    generator that is a rational function of the others."""
    n = draw(st.integers(1, 3))
    ring = Ring(tuple("x%d" % (i + 1) for i in range(n)), QQ)
    mons = [m for m in monomials_up_to(n, 2) if sum(m)]
    coeff = st.integers(-3, 3).filter(bool).map(Fraction)
    poly = st.dictionaries(st.sampled_from(mons), coeff, min_size=1,
                           max_size=3).map(ring.from_dict)
    gens = [RationalFunction(g) for g in draw(st.lists(poly, min_size=1,
                                                       max_size=n))]
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        c = Fraction(draw(st.integers(1, 5)))
        gens.append((a * b + c) / (a - c))
    return GeneratorSet(ring, gens)


@settings(max_examples=60, deadline=None)
@given(rank_cases())
def test_transcendence_rank_matches_jacobian_rank_random(gs):
    want = jacobian_rank(gs)
    for k, field in enumerate(FIELDS):
        ctx = MembershipContext(gs, field, random.Random(k))
        assert ctx.transcendence_rank() == want


@pytest.mark.parametrize("name", ["bruno2016", "genlv", "lotka_volterra",
                                  "seir34", "sir6"])
def test_context_gb_is_the_specialized_ideal(name):
    # where r < n the context reads the harvest's ideal, nothing appended
    gs = load_fixture(name)
    for k, field in enumerate(FIELDS):
        ctx = MembershipContext(gs, field, random.Random(k))
        assert ctx.transcendence_rank() < gs.ring.arity
        want = groebner_module.groebner(
            ctx.gb_ring, oms.specialize_eoms(gs, ctx.point, ctx.gb_ring))
        assert ctx._gb.packed == want.packed


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_membership_is_in_degrevlex_whatever_the_input_order(name):
    # neither membership in I_b nor its dimension depends on the order, and
    # a lex Buchberger run on power_sums' ideal does not end in minutes
    seen = []
    for order in ("degrevlex", "lex"):
        gs = load_fixture(name, order=order)
        members = list(gs.generators) + [gs.generators[0] ** 2]
        moved = [apply_map(sigma, g)
                 for sigma in fixture_automorphisms(name, gs.ring)
                 for g in gs.generators if apply_map(sigma, g) != g]
        ctx = MembershipContext(gs, FIELDS[0], random.Random(5))
        assert ctx.gb_ring.order == DEGREVLEX
        verdicts = [ctx.contains(f) for f in members + moved]
        assert verdicts == [True] * len(members) + [False] * len(moved)
        seen.append((ctx.point, ctx.transcendence_rank()))
    assert seen[0] == seen[1]


def test_fields_equal_reflexive():
    gs = load_fixture("heron")
    assert fields_equal_2p(gs, gs) is True


def test_fields_equal_power_sums_vs_elementary():
    gs = load_fixture("example_sym")
    elem = genset_of(gs.ring, ["x1 + x2", "x1*x2"])
    assert fields_equal_2p(gs, elem) is True


def test_fields_equal_square_is_smaller():
    ring = Ring(("x1",), QQ)
    a = genset_of(ring, ["x1"])
    b = genset_of(ring, ["x1^2"])
    assert fields_equal_2p(a, b) is False


def test_fields_equal_ring_mismatch():
    a = genset_of(Ring(("x1",), QQ), ["x1"])
    b = genset_of(Ring(("x1", "x2"), QQ), ["x1"])
    try:
        fields_equal(a, b, FIELDS[0], random.Random(0))
        assert False
    except ValueError:
        pass


def test_minimize_duplicates():
    ring = Ring(("x1", "x2"), QQ)
    x1, x2 = parse_many(ring, ["x1", "x2"])
    got = minimize([x1, x1, x2], ring, FIELDS[0], random.Random(1))
    assert got == [x1, x2]


def test_minimize_redundant_power_sum():
    ring = Ring(("x1", "x2"), QQ)
    e1, e2, p2 = parse_many(ring, ["x1 + x2", "x1*x2", "x1^2 + x2^2"])
    # p2 is a polynomial in the first two: e1^2 - 2 e2
    assert p2 == e1 * e1 - e2 - e2
    for k, field in enumerate(FIELDS):
        got = minimize([e1, e2, p2], ring, field, random.Random(k))
        assert len(got) == 2
        kept = GeneratorSet(ring, got)
        full = GeneratorSet(ring, [e1, e2, p2])
        assert fields_equal_2p(kept, full) is True


def test_minimize_singleton():
    ring = Ring(("x1",), QQ)
    x1 = parse_many(ring, ["x1"])[0]
    assert minimize([x1], ring, FIELDS[0], random.Random(2)) == [x1]


def test_polynomial_generators_single_variable():
    gs = genset_of(Ring(("x1", "x2"), QQ), ["x1"])
    field = FIELDS[0]
    basis = fresh_search(gs, 1, field, random.Random(3))
    assert [b.support() for b in basis] == [((1, 0),)]


def test_polynomial_generators_symmetric():
    gs = load_fixture("example_sym")
    field = FIELDS[0]
    basis = fresh_search(gs, 2, field, random.Random(4))
    assert len(basis) == 3
    # every basis element lifts to a Q polynomial inside the field
    for b in basis:
        cand = lift_modp_poly(b, gs.ring, field.p)
        assert contains_2p(gs, cand) is True


def _assert_reduced_basis_of_oracle_space(gs, basis, p, oracle=True):
    # monic, leading monomials distinct and descending, each element 0 at
    # the others' leading monomials, and with the constants the oracle's
    # space over Q (delta 2) reduced mod p
    key = gs.ring.order.key
    leads = [b.leading_monomial() for b in basis]
    assert all(b.leading_coefficient() == 1 for b in basis)
    assert leads == sorted(set(leads), key=key, reverse=True)
    for b in basis:
        assert all(b.coefficient(m) == 0 for m in leads
                   if m != b.leading_monomial())
    if oracle:
        monomials, kernel = symbolic_membership_space(gs, 2)
        got = [[b.coefficient(m) for m in monomials]
               for b in basis + [basis[0].ring.one()]]
        want = [[c.numerator * pow(c.denominator, -1, p) % p for c in row]
                for row in kernel]
        assert fp_echelon(got, p) == fp_echelon(want, p)


def test_polynomial_generators_reduced_in_leading_monomials():
    # the kernel reduced in its trailing monomials would give three
    # elements that all lead with x^2 here
    gs = genset_of(Ring(("x", "y"), QQ), ["x^2 + x", "y + x"])
    for field in FIELDS:
        for seed in range(3):
            basis = fresh_search(gs, 2, field, random.Random(seed))
            _assert_reduced_basis_of_oracle_space(gs, basis, field.p)


def test_polynomial_generators_match_oracle():
    # the exact space over Q, reduced mod p, spans the same F_p space
    cases = [load_fixture("heron"), load_fixture("lotka_volterra"),
             load_fixture("example_sym", order="lex")]
    for k, gs in enumerate(cases):
        for field in FIELDS:
            basis = fresh_search(gs, 2, field, random.Random(k))
            _assert_reduced_basis_of_oracle_space(gs, basis, field.p)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_polynomial_generators_reduced_basis_on_fixtures(name):
    # the symbolic oracle does not finish on bilirubin within minutes, so
    # its basis is checked for the echelon shape alone
    gs = load_fixture(name)
    field = FIELDS[0]
    basis = fresh_search(gs, 2, field, random.Random(0))
    _assert_reduced_basis_of_oracle_space(gs, basis, field.p,
                                          oracle=name != "bilirubin")


SEIR_ORDER = ["k", "N", "beta", "eps", "gamma", "mu", "r"]


def test_polynomial_generators_without_regular_point(monkeypatch):
    monkeypatch.setattr(oms, "coefficient_row", lambda *args: FAIL)
    with pytest.raises(UnluckyPoint, match="no regular specialization point"):
        fresh_search(load_fixture("heron"), 1, FIELDS[0],
                     random.Random(0))


def test_polynomial_generators_every_replay_lost(monkeypatch):
    # the learn succeeds, then every point is a lost sample: the first one
    # ends the search, and no second point is drawn
    replays = []

    def lost(self, point):
        replays.append(point)
        return FAIL

    monkeypatch.setattr(EomsEvaluator, "gb", lost)
    with pytest.raises(UnluckyPoint,
                       match="^trace replay failed in the polynomial search"):
        fresh_search(load_fixture("heron"), 1, FIELDS[0],
                     random.Random(0))
    assert len(replays) == 1


def test_polynomial_generators_replays_one_trace(monkeypatch):
    calls = {"groebner": 0, "gb_learn": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(fields_module, "groebner",
                        counting("groebner", fields_module.groebner))
    monkeypatch.setattr(oms, "gb_learn", counting("gb_learn", oms.gb_learn))
    gs = load_fixture("seir34", var_order=SEIR_ORDER)
    assert fresh_search(gs, 2, FIELDS[0], random.Random(6))
    # one Buchberger run per point would make 11 groebner calls here
    assert calls == {"groebner": 0, "gb_learn": 1}


def test_polynomial_generators_replays_compiled_normal_forms(monkeypatch):
    evaluators, compiled, read, served, reduced = [], [], [], [], []
    init, gb = EomsEvaluator.__init__, EomsEvaluator.gb
    compile_nfs, rows = (ReducedGB.compile_normal_forms,
                         ReducedGB.condition_rows)
    reduce_full = groebner_module._reduce_full

    def recording_init(self, *args):
        init(self, *args)
        evaluators.append(self)

    def recording_compile(self, monomials):
        forms = compile_nfs(self, monomials)
        compiled.append((self, len(reduced)))
        return forms

    def recording_rows(self, forms, live):
        read.append(self)
        return rows(self, forms, live)

    def recording_gb(self, point):
        got = gb(self, point)
        if got is not FAIL:
            served.append(got)
        return got

    def counting(*args):
        reduced.append(1)
        return reduce_full(*args)

    monkeypatch.setattr(EomsEvaluator, "__init__", recording_init)
    monkeypatch.setattr(EomsEvaluator, "gb", recording_gb)
    monkeypatch.setattr(ReducedGB, "compile_normal_forms", recording_compile)
    monkeypatch.setattr(ReducedGB, "condition_rows", recording_rows)
    monkeypatch.setattr(groebner_module, "_reduce_full", counting)
    gs = load_fixture("seir34", var_order=SEIR_ORDER)
    assert fresh_search(gs, 2, FIELDS[0], random.Random(6))
    # planned once, at the learn; each GB read once, the learned one too;
    # no reduction after the plan
    ev, = evaluators
    assert [g for g, _ in compiled] == [ev.learned]
    assert read == [ev.learned] + served
    assert len({id(g) for g in read}) == len(read)
    assert compiled[0][1] == len(reduced)


def test_polynomial_generators_a_failed_replay_ends_the_search(monkeypatch):
    # the second replay is forced to fail: the learned GB and the first
    # replay's are read, and the lost sample raises before another point
    gs = load_fixture("lotka_volterra")
    gb, rows = EomsEvaluator.gb, ReducedGB.condition_rows
    served, read = [], []

    def failing_second(self, point):
        served.append(FAIL if len(served) == 1 else gb(self, point))
        return served[-1]

    def recording_rows(self, plan, live):
        read.append(self)
        return rows(self, plan, live)

    monkeypatch.setattr(EomsEvaluator, "gb", failing_second)
    monkeypatch.setattr(ReducedGB, "condition_rows", recording_rows)
    with pytest.raises(UnluckyPoint,
                       match="^trace replay failed in the polynomial search"):
        fresh_search(gs, 2, FIELDS[0], random.Random(1))
    assert len(served) == 2 and served[0] is not FAIL and served[1] is FAIL
    assert len(read) == 2 and read[1] is served[0]


@pytest.mark.parametrize("seed", range(3))
def test_polynomial_generators_match_reference_normal_forms(monkeypatch,
                                                            seed):
    # the normal-form table against condition rows read off normal_form,
    # for the live rows alone; a row is numbered by its monomial's place
    # among the nonconstant monomials of the normal forms at the learn
    candidates, numbering = [], []
    compile_nfs = ReducedGB.compile_normal_forms

    def recording_compile(self, monomials):
        candidates.append(monomials)
        numbering.clear()
        return compile_nfs(self, monomials)

    def reference_rows(self, plan, live):
        rows = {}
        for i, m in enumerate(candidates[-1]):
            nf = self.normal_form(self.ring.from_dict({m: 1}))
            for mm, c in nf.terms:
                if any(mm):
                    rows.setdefault(mm, {})[i] = c
        if not numbering:
            numbering.extend(sorted(rows, key=self.ring.order.key))
        assert set(rows) <= set(numbering)
        return {r: rows[numbering[r]] for r in live
                if r < len(numbering) and numbering[r] in rows}

    field = FIELDS[0]
    for name in ALL_FIXTURES:
        if name == "bilirubin":
            continue
        gs = load_fixture(name)
        rng = random.Random(seed)
        basis = fresh_search(gs, 3, field, rng)
        with monkeypatch.context() as patch:
            patch.setattr(ReducedGB, "compile_normal_forms", recording_compile)
            patch.setattr(ReducedGB, "condition_rows", reference_rows)
            ref_rng = random.Random(seed)
            reference = fresh_search(gs, 3, field, ref_rng)
        assert [b.terms for b in basis] == [b.terms for b in reference], name
        assert rng.getstate() == ref_rng.getstate(), name


@pytest.mark.parametrize("name", ALL_FIXTURES + ("obscured4",))
def test_polynomial_generators_match_every_row_oracle(name):
    # retiring rows changes no basis, rng stream or replay count against
    # the search that reads every row of every point off normal_form; both
    # replay one evaluator per order and prime, from the same rng state
    deltas = (2,) if name == "bilirubin" else (2, 3)
    for order in ("degrevlex", "lex"):
        gs = load_fixture(name, order=order)
        for k, field in enumerate(FIELDS):
            rng = random.Random(k)
            ev = EomsEvaluator(gs, oms.gb_ring(gs, field, gs.ring.order), rng)
            state = rng.getstate()
            for delta in deltas:
                runs = []
                for search in (polynomial_generators, every_row_search):
                    rng.setstate(state)
                    start = ev.n_evals
                    basis = search(ev, delta, rng)
                    runs.append(([b.terms for b in basis], rng.getstate(),
                                 ev.n_evals - start))
                assert runs[0] == runs[1], (order, k, delta)
                # the learn point and one per replay: each point that does
                # not end the search adds rank, so points + len(basis) is
                # at most the number of candidate monomials
                points = 1 + runs[0][2]
                assert points + len(runs[0][0]) <= len(
                    monomials_up_to(gs.ring.arity, delta)), (order, k, delta)


@pytest.mark.parametrize("name, replays, rank", [("seir34", 33, 91),
                                                  ("genlv", 30, 49)])
def test_polynomial_generators_point_count(monkeypatch, name, replays, rank):
    # the search's points (the learn point, then one GB replay each), its
    # final rank and its work at seed 0, delta 3: a change to the number of
    # points or of rows reduced shows here, not only in wall time.  Every
    # condition row read is reduced once against the echelon, and a row
    # that reduced to zero is never read again (every row at every point
    # would be 374 and 93); the kernel is read off the one reduced echelon,
    # so there is one back-substitution
    replayed, echelons, read, reductions = [], [], [], []
    gb, back_substitute = EomsEvaluator.gb, fields_module._back_substitute
    rows, reduce_row = ReducedGB.condition_rows, fields_module._reduce

    def counting(self, point):
        replayed.append(point)
        return gb(self, point)

    def recording(echelon, p):
        echelons.append(len(echelon))
        return back_substitute(echelon, p)

    def recording_rows(self, plan, live):
        out = rows(self, plan, live)
        read.extend(out.values())
        return out

    def counting_reduce(echelon, v, p):
        reductions.extend(k for k, row in enumerate(read) if row is v)
        return reduce_row(echelon, v, p)

    monkeypatch.setattr(EomsEvaluator, "gb", counting)
    monkeypatch.setattr(fields_module, "_back_substitute", recording)
    monkeypatch.setattr(ReducedGB, "condition_rows", recording_rows)
    monkeypatch.setattr(fields_module, "_reduce", counting_reduce)
    gs = load_fixture(name)
    basis = fresh_search(gs, 3, FIELDS[0], random.Random(0))
    dim = len(monomials_up_to(gs.ring.arity, 3))
    assert len(replayed) == replays
    # the kernel leaves out the constant
    assert echelons == [rank] and len(basis) == dim - rank - 1
    assert sorted(reductions) == list(range(len(read)))
    assert len(read) == {"seir34": 102, "genlv": 52}[name]


@pytest.mark.parametrize("seed", range(2))
def test_polynomial_generators_wrong_retirement_cannot_reach_the_output(
        monkeypatch, seed):
    # every row retires at the second point, so the search stops with the
    # first point's conditions alone and returns non-members too; the
    # membership check before the pool keeps them out of the output
    gs = load_fixture("seir34")
    rows, bases, plans = ReducedGB.condition_rows, [], []
    search = simplify_module.polynomial_generators

    def retiring_rows(self, plan, live):
        # one plan per search, kept alive here; its second read is empty
        plans.append(plan)
        if sum(q is plan for q in plans) == 2:
            return {}
        return rows(self, plan, live)

    def recording_search(*args, **kwargs):
        bases.append(search(*args, **kwargs))
        return bases[-1]

    want = fresh_search(gs, 3, FIELDS[0], random.Random(seed))
    monkeypatch.setattr(ReducedGB, "condition_rows", retiring_rows)
    monkeypatch.setattr(simplify_module, "polynomial_generators",
                        recording_search)
    wrong = fresh_search(gs, 3, FIELDS[0], random.Random(seed))
    assert len(wrong) > len(want)
    output, report = simplify(gs, SimplifyConfig(seed=seed))
    assert report.verified and bases and all(len(b) > len(want) for b in bases)
    field = PrimeField(production_prime(24))
    ctx = MembershipContext(gs, field, random.Random(seed))
    polys = [expr for expr, tag in report.pool if tag == "polynomial"]
    assert polys
    assert all(ctx.contains(rf) for rf in parse_many(gs.ring, polys))
    assert fields_equal_2p(gs, GeneratorSet(gs.ring, output))


def test_polynomial_generators_reads_packed_normal_forms(monkeypatch):
    def refuse(self, poly):
        raise AssertionError("the search unpacked a normal form")

    monkeypatch.setattr(ReducedGB, "normal_form", refuse)
    gs = load_fixture("seir34", var_order=SEIR_ORDER)
    assert fresh_search(gs, 2, FIELDS[0], random.Random(6))


def test_denominator_dividing_a_power_of_q():
    # Q = a^2 b^2 c^2; denominators inside and outside Q share one GB
    gs = load_fixture("heron")
    members = ["1/a^2", "b^2/a^4", "a^2/(b^2*c^2)", "1/(a^2 + 1)"]
    others = ["1/a", "a/b^2", "1/(a + 1)"]
    for k, field in enumerate(FIELDS):
        ctx = MembershipContext(gs, field, random.Random(k))
        for text, expected in ([(t, True) for t in members]
                               + [(t, False) for t in others]):
            assert ctx.contains(parse_many(gs.ring, [text])[0]) is expected, \
                text


def test_candidate_from_another_ring_is_rejected():
    gs = load_fixture("heron")
    ctx = MembershipContext(gs, FIELDS[0], random.Random(0))
    other = Ring(("a", "b"), QQ)
    with pytest.raises(ValueError, match="candidate from a different ring"):
        ctx.contains(other.gens()[0])


def test_candidate_exponent_overflow_raises():
    # x^80000 is in Q(x^2, y) but past what a packed monomial holds: it
    # must raise, not wrap into another monomial and read False
    ring = Ring(("x", "y"), QQ)
    gs = genset_of(ring, ["x^2", "y"])
    x = parse_many(ring, ["x^40000"])[0]
    ctx = MembershipContext(gs, FIELDS[0], random.Random(0))
    with pytest.raises(ExponentOverflow, match="65535"):
        ctx.contains(x * x)
    assert ctx.contains(x) is True


def test_one_groebner_run_per_point(monkeypatch):
    # five denominators outside Q = a^2 b^2 c^2, asked three times each
    gs = load_fixture("heron")
    candidates = parse_many(gs.ring, [
        "b^2/(a^2 + 1)", "1/(b^2 + 2)", "c^2/(a^2 + b^2)", "a^2/(c^2 - 5)",
        "(a^2 + b^2)/(a^2*b^2 + 7)"])
    runs, gcds = [], []
    groebner, gcd_q = fields_module.groebner, poly_module.gcd_q

    def counting_groebner(ring, gens):
        runs.append(gens)
        return groebner(ring, gens)

    def counting_gcd(f, g):
        gcds.append(f)
        return gcd_q(f, g)

    monkeypatch.setattr(fields_module, "groebner", counting_groebner)
    monkeypatch.setattr(poly_module, "gcd_q", counting_gcd)
    # the run is made where the point is drawn, so the patch comes first
    rng = random.Random(3)
    ctx = MembershipContext(gs, FIELDS[0], rng)
    point = ctx.point
    for _ in range(3):
        assert all(ctx.contains(c) for c in candidates)
    assert runs == [oms.specialize_eoms(gs, point, ctx.gb_ring)]
    assert ctx.point == point
    assert gcds == []
    # a fresh point, a second context from the same stream, gets one
    # fresh run
    other = MembershipContext(gs, FIELDS[0], rng)
    assert other.contains(candidates[0]) is True
    assert runs[1:] == [oms.specialize_eoms(gs, other.point, other.gb_ring)]
    assert other.point != point


def _denominators_outside_q(name, gs, rng):
    """Members g_i/(g_j + c) and g_i g_k/(g_j - c) over all generators,
    and non-members over x_k + c that an automorphism of the field moves."""
    gens = gs.generators
    ring = gs.ring
    members = []
    for _ in range(2):
        gi, gj, gk = (rng.choice(gens) for _ in range(3))
        c = Fraction(rng.randint(1, 10 ** 6))
        members += [gi / (gj + c), gi * gk / (gj - c)]
    sigmas = fixture_automorphisms(name, ring)
    others = []
    while len(others) < 3:
        num = ring.zero()
        for _ in range(rng.randint(1, 3)):
            mon = [0] * ring.arity
            for _ in range(rng.randint(1, 3)):
                mon[rng.randrange(ring.arity)] += 1
            num = num + ring.from_dict({tuple(mon): Fraction(
                rng.randint(1, 5))})
        den = ring.variable(rng.randrange(ring.arity)) \
            + ring.constant(Fraction(rng.randint(1, 10 ** 6)))
        f = RationalFunction(num, den)
        if any(apply_map(s, f) != f for s in sigmas):
            others.append(f)
    return [(f, True) for f in members] + [(f, False) for f in others]


def _folded_verdict(ctx, cand):
    """The membership verdict at ctx.point with cand's denominator folded
    into Q: the normal form against the ideal with t lcm(Q, den)(y) - 1 in
    place of t Q(y) - 1."""
    ring, b, field = ctx.gb_ring, ctx.point, ctx.field
    image = cand.modp(_x_ring(ctx))
    assert _den_value(image, b) != 0
    gens = [specialize(*g.modp(_x_ring(ctx)), b, ring)
            for g in ctx.genset.generators]
    q = lcm_q(ctx.genset.common_denominator, cand.den) \
        .map_coefficients(_x_ring(ctx), field.from_fraction)
    gens.append(ring.from_dict({(1,) + m: c for m, c in q.terms})
                - ring.one())
    gb = groebner_module.groebner(ring, [g for g in gens if not g.is_zero()])
    return gb.normal_form(specialize(*image, b, ring)).is_zero()


@pytest.mark.parametrize("name", [n for n in ALL_FIXTURES
                                  if n != "bilirubin"])
def test_fold_changes_no_verdict(name):
    gs = load_fixture(name)
    for k, field in enumerate(FIELDS):
        ctx = MembershipContext(gs, field, random.Random(k))
        for cand, expected in _denominators_outside_q(name, gs,
                                                      random.Random(k)):
            assert not cand.den.is_constant()
            assert ctx.contains(cand) is expected, (name, cand)
            assert _folded_verdict(ctx, cand) is expected, (name, cand)


def _verdict_candidates(name, ctx, rng):
    """(h, member) for queries at the context's GB: h of in-field
    candidates, products and sums of two generators (member True), and of
    generators moved by an automorphism of the field, then random
    polynomials in (t, y) (member None: h is in the ideal or not)."""
    images = [g.modp(_x_ring(ctx)) for g in ctx.genset.generators]
    ring, p = ctx.gb_ring, ctx.field.p
    members = []
    for _ in range(4):
        (n1, d1), (n2, d2) = rng.choice(images), rng.choice(images)
        members += [(n1 * n2, d1 * d2), (n1 * d2 + n2 * d1, d1 * d2)]
    moved = [apply_map(sigma, g).modp(_x_ring(ctx))
             for sigma in fixture_automorphisms(name, ctx.genset.ring)
             for g in ctx.genset.generators if apply_map(sigma, g) != g]
    out = [(specialize(num, den, ctx.point, ring), member)
           for batch, member in ((members, True), (moved, None))
           for num, den in batch]
    for _ in range(8):
        out.append((ring.from_dict({
            tuple(rng.randint(0, 2) for _ in range(ring.arity)):
            rng.randrange(1, p) for _ in range(3)}), None))
    return [(h, member) for h, member in out if h is not FAIL]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_functional_verdict_matches_normal_form(name):
    # l(NF(h)) is 0 exactly where NF(h) is, at the context's GB: members
    # give 0, and every query with a nonzero normal form gives nonzero
    gs = load_fixture(name)
    nonzero = 0
    for k, field in enumerate(FIELDS):
        ctx = MembershipContext(gs, field, random.Random(k))
        assert ctx.contains(gs.generators[0]) is True    # builds its GB
        for h, member in _verdict_candidates(name, ctx, random.Random(k)):
            exact = ctx._gb.normal_form(h).is_zero()
            assert (ctx._gb.normal_form(h, ctx._weights) == 0) is exact
            assert member in (None, exact)
            nonzero += not exact
    assert nonzero >= 8


def test_functional_draws_are_deterministic():
    # the weights come from a stream seeded by the point and are drawn in
    # an order set by the terms and the basis alone, not by hashing
    gs = load_fixture("power_sums")
    ctx = MembershipContext(gs, FIELDS[0], random.Random(5))
    assert ctx.contains(gs.generators[0]) is True
    values = [ctx._gb.normal_form(h, ctx._weights) for h, _
              in _verdict_candidates("power_sums", ctx, random.Random(5))]
    assert values == [0] * 8 + [
        850675199821803735, 2142810763334966132, 1585928583177899458,
        3794053387125484737, 1796062863851481349, 3816230886136672921,
        386168193321531888, 1991424037047404919]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_functional_query_matches_specialized_normal_form(name):
    # a query sums l(NF(m)) over its monomials from the context's memo; the
    # verdict is that of l(NF(h)) = 0 for oracle.specialize's h at the same
    # GB, and that normal form draws no weight: the query filled every
    # monomial of h, so it read the same l
    gs = load_fixture(name)
    gens = sorted(gs.generators,
                  key=lambda g: g.num.degree() + g.den.degree())[:3]
    members = [1 / (g + Fraction(k + 2)) for k, g in enumerate(gens)]
    members += [gi * gj for gi in gens[:2] for gj in gens[1:]]
    # coefficients whose denominators mix within a term
    members += [gi * gj / 2 + gi / 7 + Fraction(1, 5)
                for gi in gens[:2] for gj in gens[1:] if gi != gj]
    moved = [apply_map(sigma, g)
             for sigma in fixture_automorphisms(name, gs.ring)
             for g in gs.generators if apply_map(sigma, g) != g]
    candidates = ([(f, True) for f in members]
                  + [(f, False) for f in moved]
                  + _denominators_outside_q(name, gs, random.Random(0)))
    assert any(not f.den.is_constant() for f, _ in candidates)
    for k, field in enumerate(FIELDS):
        ctx = MembershipContext(gs, field, random.Random(k))
        for cand, member in candidates:
            verdict = ctx.contains(cand)
            assert verdict is member, (name, cand)
            h = specialize(*cand.modp(_x_ring(ctx)), ctx.point, ctx.gb_ring)
            state = ctx._weights.getstate()
            assert (ctx._gb.normal_form(h, ctx._weights) == 0) is verdict
            assert ctx._weights.getstate() == state, (name, cand)


def test_contains_reads_the_normal_form_span(monkeypatch):
    # the verdict goes through ReducedGB.normal_form, whose span the
    # membership benchmark requires
    calls = []
    normal_form = ReducedGB.normal_form

    def recording(self, poly, weights=None):
        calls.append(weights)
        return normal_form(self, poly, weights)

    monkeypatch.setattr(ReducedGB, "normal_form", recording)
    gs = load_fixture("heron")
    ctx = MembershipContext(gs, FIELDS[0], random.Random(1))
    assert ctx.contains(parse_many(gs.ring, ["a^2 + b^2"])[0]) is True
    assert calls == [ctx._weights]


def test_polynomial_generators_seir():
    gs = load_fixture("seir34", var_order=SEIR_ORDER)
    field = FIELDS[0]
    basis = fresh_search(gs, 2, field, random.Random(6))
    expected = parse_many(gs.ring,
                          ["mu", "N", "eps + gamma", "k*eps", "eps*gamma"])
    # vectorize over the union of supports and check span membership
    mons = sorted({m for b in basis for m in b.support()}
                  | {m for e in expected for m in e.num.support()})
    idx = {m: i for i, m in enumerate(mons)}

    def vec(terms):
        row = [0] * len(mons)
        for m, c in terms:
            row[idx[m]] = c
        return row

    rows = [vec(b.terms) for b in basis]
    for e in expected:
        emod, _ = e.modp(basis[0].ring)
        assert in_fp_span(rows, vec(emod.monic().terms), field.p)
