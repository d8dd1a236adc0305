import itertools
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
from fieldsimp.arith import FAIL, rational_reconstruct
from fieldsimp.fields import (MembershipContext, _back_substitute, _extend,
                              _reduce, contains, fields_equal, minimize,
                              polynomial_generators)
from fieldsimp.groebner import ExponentOverflow, ReducedGB
from fieldsimp.oms import EomsEvaluator, GeneratorSet, UnluckyPoint
from fieldsimp.poly import (DEGREVLEX, MultiPoly, PrimeField, QQ,
                            RationalFunction, Ring, lcm_q, values_at)

from conftest import (ALL_FIXTURES, CHECK_PRIMES, apply_map, fields_equal_2p,
                      fixture_automorphisms, genset_of, load_fixture,
                      parse_many)
from oracle import (fp_echelon, in_fp_span, jacobian_rank, monomials_up_to,
                    specialize, symbolic_membership_space)

FIELDS = tuple(PrimeField(p) for p in CHECK_PRIMES)


def contains_2p(genset, candidate, seed=77):
    verdicts = []
    for k, field in enumerate(FIELDS):
        rng = random.Random(seed * 1000003 + k)
        verdicts.append(contains(genset, candidate, field, rng))
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
        assert values_at((num, den), powers, p) == want
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
    assert values_at(polys, powers, None) == want
    assert values_at(polys[::-1], powers, None) == want[::-1]
    assert [f.evaluate(point) for f in polys] == want
    for x, table in zip(point, powers):
        assert table == {e: x ** e for e in table}


def _den_value(image, point):
    """q(b) for an F_p image (p, q) at a bare point b."""
    return values_at(image, [{1: x} for x in point],
                     image[0].ring.field.p)[1]


def test_den_value_zero_at_pole():
    gs = load_fixture("heron")
    ctx = MembershipContext(gs, FIELDS[0], random.Random(9))
    a = parse_many(gs.ring, ["a"])[0]
    pole = 1 / (a - Fraction(ctx.point[0]))
    assert _den_value(pole.modp(ctx.x_ring), ctx.point) == 0


def test_candidate_pole_at_context_point_redraws():
    gs = load_fixture("heron")
    field = FIELDS[0]
    ctx = MembershipContext(gs, field, random.Random(9))
    a = parse_many(gs.ring, ["a"])[0]
    g = gs.generators[0]
    num, den = g.modp(ctx.x_ring)
    for expected in (True, False):
        point = ctx.point
        if expected:
            # a function of g, with a pole where g takes its value at b
            value = num.evaluate(point) * pow(den.evaluate(point), -1,
                                              field.p) % field.p
            cand = 1 / (g - Fraction(value))
        else:
            cand = 1 / (a - Fraction(point[0]))
        assert _den_value(cand.modp(ctx.x_ring), ctx.point) == 0
        assert ctx.contains(cand) is expected
        assert ctx.point != point
        assert contains_2p(gs, cand) is expected


def test_ideal_pole_at_context_point_redraws():
    # the first point drawn is a pole of x/(x + y), so of Q; the context
    # moves past it before any query, so the ideal never has a pole at its
    # point
    gs = genset_of(Ring(("x", "y"), QQ), ["x/(x + y)", "y"])
    field = FIELDS[0]
    draws = iter([1, field.p - 1, 2, 3])

    class Scripted(random.Random):
        def randrange(self, *args):
            return next(draws)

    ctx = MembershipContext(gs, field, Scripted())
    assert ctx.point == (2, 3)
    assert oms.specialize_eoms(gs, ctx.point, ctx.gb_ring) is not FAIL
    assert ctx.contains(gs.generators[0]) is True


def test_candidate_mapped_to_fp_once(monkeypatch):
    gs = load_fixture("heron")
    ctx = MembershipContext(gs, FIELDS[0], random.Random(9))
    g = gs.generators[0]
    cand = g * g
    assert ctx.contains(cand) is True
    calls = []
    map_coefficients = MultiPoly.map_coefficients

    def counting(self, *args):
        calls.append(self)
        return map_coefficients(self, *args)

    monkeypatch.setattr(MultiPoly, "map_coefficients", counting)
    assert ctx.contains(cand) is True
    # one image (num, den) gives p(b), q(b) and the terms of h
    assert len(calls) == 2


def test_candidate_pole_at_every_draw():
    # every point drawn has a = 5: the generators stay regular there and
    # specialize, and only the candidate 1/(a - 5) loses each point
    gs = load_fixture("heron")
    draws = itertools.count(6)
    drawn = []

    class Scripted(random.Random):
        def randrange(self, *args):
            if len(drawn) % 3 == 0:
                drawn.append(5)
            else:
                drawn.append(next(draws))
            return drawn[-1]

    ctx = MembershipContext(gs, FIELDS[0], Scripted())
    a = parse_many(gs.ring, ["a"])[0]
    with pytest.raises(UnluckyPoint, match="pole at every point drawn"):
        ctx.contains(1 / (a - 5))
    assert len(drawn) == 3 * (oms.POINT_ATTEMPTS + 1)
    assert oms.specialize_eoms(gs, ctx.point, ctx.gb_ring) is not FAIL


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
    basis = polynomial_generators(gs, 1, field, random.Random(3))
    assert [b.support() for b in basis] == [((1, 0),)]


def test_polynomial_generators_symmetric():
    gs = load_fixture("example_sym")
    field = FIELDS[0]
    basis = polynomial_generators(gs, 2, field, random.Random(4))
    assert len(basis) == 3
    # every basis element lifts to a Q polynomial inside the field
    for b in basis:
        cand = lift_modp_poly(b, gs.ring, field.p)
        assert contains_2p(gs, cand) is True


def test_polynomial_generators_match_oracle():
    # the exact space over Q, reduced mod p, spans the same F_p space
    cases = [load_fixture("heron"), load_fixture("lotka_volterra"),
             load_fixture("example_sym", order="lex")]
    for k, gs in enumerate(cases):
        monomials, kernel = symbolic_membership_space(gs, 2)
        for field in FIELDS:
            p = field.p
            basis = polynomial_generators(gs, 2, field, random.Random(k))
            # the oracle's space holds the constants too
            basis.append(basis[0].ring.one())
            got = [[b.coefficient(m) for m in monomials] for b in basis]
            want = [[c.numerator * pow(c.denominator, -1, p) % p for c in row]
                    for row in kernel]
            assert fp_echelon(got, p) == fp_echelon(want, p)


SEIR_ORDER = ["k", "N", "beta", "eps", "gamma", "mu", "r"]


def test_polynomial_generators_without_regular_point(monkeypatch):
    monkeypatch.setattr(oms, "specialize_eoms", lambda *args: FAIL)
    with pytest.raises(UnluckyPoint, match="no regular specialization point"):
        polynomial_generators(load_fixture("heron"), 1, FIELDS[0],
                              random.Random(0))


def test_polynomial_generators_every_replay_lost(monkeypatch):
    # the learn succeeds, then every point is a lost sample
    monkeypatch.setattr(EomsEvaluator, "gb", lambda self, point: FAIL)
    with pytest.raises(UnluckyPoint, match="did not stabilize"):
        polynomial_generators(load_fixture("heron"), 1, FIELDS[0],
                              random.Random(0))


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
    assert polynomial_generators(gs, 2, FIELDS[0], random.Random(6))
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

    def recording_rows(self, forms):
        read.append(self)
        return rows(self, forms)

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
    assert polynomial_generators(gs, 2, FIELDS[0], random.Random(6))
    # planned once, at the learn; each GB read once, the learned one too;
    # no reduction after the plan
    ev, = evaluators
    assert [g for g, _ in compiled] == [ev.learned]
    assert read == [ev.learned] + served
    assert len({id(g) for g in read}) == len(read)
    assert compiled[0][1] == len(reduced)


def test_polynomial_generators_skips_only_a_failed_replay(monkeypatch):
    # the second replay is forced to fail: that point alone is skipped,
    # every other point's GB is read, and the search ends on the same basis
    gs = load_fixture("lotka_volterra")
    field = FIELDS[0]
    want = polynomial_generators(gs, 2, field, random.Random(1))
    gb, rows = EomsEvaluator.gb, ReducedGB.condition_rows
    served, read = [], []

    def failing_second(self, point):
        served.append(FAIL if len(served) == 1 else gb(self, point))
        return served[-1]

    def recording_rows(self, plan):
        read.append(self)
        return rows(self, plan)

    monkeypatch.setattr(EomsEvaluator, "gb", failing_second)
    monkeypatch.setattr(ReducedGB, "condition_rows", recording_rows)
    got = polynomial_generators(gs, 2, field, random.Random(1))
    assert len(served) > 2 and served.count(FAIL) == 1 and served[1] is FAIL
    assert read[1:] == [g for g in served if g is not FAIL]
    assert [b.terms for b in got] == [b.terms for b in want]
    monomials, kernel = symbolic_membership_space(gs, 2)
    p = field.p
    rows_got = [[b.coefficient(m) for m in monomials]
                for b in got + [got[0].ring.one()]]
    rows_want = [[c.numerator * pow(c.denominator, -1, p) % p for c in row]
                 for row in kernel]
    assert fp_echelon(rows_got, p) == fp_echelon(rows_want, p)


@pytest.mark.parametrize("seed", range(3))
def test_polynomial_generators_match_reference_normal_forms(monkeypatch,
                                                            seed):
    # the normal-form table against condition rows read off normal_form
    candidates = []
    compile_nfs = ReducedGB.compile_normal_forms

    def recording_compile(self, monomials):
        candidates.append(monomials)
        return compile_nfs(self, monomials)

    def reference_rows(self, plan):
        rows = {}
        for i, m in enumerate(candidates[-1]):
            nf = self.normal_form(self.ring.from_dict({m: 1}))
            for mm, c in nf.terms:
                if any(mm):
                    rows.setdefault(mm, {})[i] = c
        return list(rows.values())

    field = FIELDS[0]
    for name in ALL_FIXTURES:
        if name == "bilirubin":
            continue
        gs = load_fixture(name)
        rng = random.Random(seed)
        basis = polynomial_generators(gs, 3, field, rng)
        with monkeypatch.context() as patch:
            patch.setattr(ReducedGB, "compile_normal_forms", recording_compile)
            patch.setattr(ReducedGB, "condition_rows", reference_rows)
            ref_rng = random.Random(seed)
            reference = polynomial_generators(gs, 3, field, ref_rng)
        assert [b.terms for b in basis] == [b.terms for b in reference], name
        assert rng.getstate() == ref_rng.getstate(), name


@pytest.mark.parametrize("name, replays, rank", [("seir34", 33, 91),
                                                  ("genlv", 30, 49)])
def test_polynomial_generators_point_count(monkeypatch, name, replays, rank):
    # the search's points (the learn point, then one GB replay each) and
    # its final rank at seed 0, delta 3: a change to the number of points
    # shows here, not only in wall time
    replayed, echelons = [], []
    gb, back_substitute = EomsEvaluator.gb, fields_module._back_substitute

    def counting(self, point):
        replayed.append(point)
        return gb(self, point)

    def recording(echelon, p):
        echelons.append(len(echelon))
        return back_substitute(echelon, p)

    monkeypatch.setattr(EomsEvaluator, "gb", counting)
    monkeypatch.setattr(fields_module, "_back_substitute", recording)
    gs = load_fixture(name)
    basis = polynomial_generators(gs, 3, FIELDS[0], random.Random(0))
    dim = len(monomials_up_to(gs.ring.arity, 3))
    assert len(replayed) == replays
    # the kernel leaves out the constant
    assert echelons == [rank, dim - rank - 1] and len(basis) == dim - rank - 1


def test_polynomial_generators_reads_packed_normal_forms(monkeypatch):
    def refuse(self, poly):
        raise AssertionError("the search unpacked a normal form")

    monkeypatch.setattr(ReducedGB, "normal_form", refuse)
    gs = load_fixture("seir34", var_order=SEIR_ORDER)
    assert polynomial_generators(gs, 2, FIELDS[0], random.Random(6))


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
    ctx = MembershipContext(gs, FIELDS[0], random.Random(3))
    candidates = parse_many(gs.ring, [
        "b^2/(a^2 + 1)", "1/(b^2 + 2)", "c^2/(a^2 + b^2)", "a^2/(c^2 - 5)",
        "(a^2 + b^2)/(a^2*b^2 + 7)"])
    runs, gcds = [], []
    groebner, gcd_q = fields_module.groebner, poly_module.gcd_q

    def counting_groebner(ring, gens):
        runs.append(ctx.point)
        return groebner(ring, gens)

    def counting_gcd(f, g):
        gcds.append(f)
        return gcd_q(f, g)

    monkeypatch.setattr(fields_module, "groebner", counting_groebner)
    monkeypatch.setattr(poly_module, "gcd_q", counting_gcd)
    point = ctx.point
    for _ in range(3):
        assert all(ctx.contains(c) for c in candidates)
    assert runs == [point] and ctx.point == point
    assert gcds == []
    # a fresh point gets one fresh run
    ctx._draw_point()
    assert ctx.contains(candidates[0]) is True
    assert runs == [point, ctx.point] and ctx.point != point


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
    image = cand.modp(ctx.x_ring)
    assert _den_value(image, b) != 0
    gens = [specialize(*g.modp(ctx.x_ring), b, ring)
            for g in ctx.genset.generators]
    q = lcm_q(ctx.genset.common_denominator, cand.den) \
        .map_coefficients(ctx.x_ring, field.from_fraction)
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
    images = [g.modp(ctx.x_ring) for g in ctx.genset.generators]
    ring, p = ctx.gb_ring, ctx.field.p
    members = []
    for _ in range(4):
        (n1, d1), (n2, d2) = rng.choice(images), rng.choice(images)
        members += [(n1 * n2, d1 * d2), (n1 * d2 + n2 * d1, d1 * d2)]
    moved = [apply_map(sigma, g).modp(ctx.x_ring)
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
def test_functional_query_matches_specialized_normal_form(name, monkeypatch):
    # the query packs h from the candidate's F_p image; phi of that h
    # equals phi of oracle.specialize's h on a twin context of the same
    # seed, query for query from an empty memo, so the weights are drawn in
    # the same order
    gs = load_fixture(name)
    values = []
    normal_form = ReducedGB.normal_form

    def recording(self, poly, weights=None):
        values.append(normal_form(self, poly, weights))
        return values[-1]

    gens = sorted(gs.generators,
                  key=lambda g: g.num.degree() + g.den.degree())[:3]
    # 1/(g + c), asked first, packs h's terms out of order: num's 1 before
    # den's g, while 1 is not yet in the memo
    members = [1 / (g + Fraction(k + 2)) for k, g in enumerate(gens)]
    members += [gi * gj for gi in gens[:2] for gj in gens[1:]]
    moved = [apply_map(sigma, g)
             for sigma in fixture_automorphisms(name, gs.ring)
             for g in gs.generators if apply_map(sigma, g) != g]
    candidates = ([(f, True) for f in members]
                  + [(f, False) for f in moved]
                  + _denominators_outside_q(name, gs, random.Random(0)))
    assert any(not f.den.is_constant() for f, _ in candidates)
    for k, field in enumerate(FIELDS):
        ctx, twin = (MembershipContext(gs, field, random.Random(k))
                     for _ in range(2))
        with monkeypatch.context() as patch:    # the twin's GB, no weights
            patch.setattr(ReducedGB, "normal_form", lambda *args: 0)
            assert twin.contains(gs.generators[0]) is True
        for cand, member in candidates:
            values.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ReducedGB, "normal_form", recording)
                verdict = ctx.contains(cand)
            assert verdict is member, (name, cand)
            assert ctx.point == twin.point
            h = specialize(*cand.modp(twin.x_ring), twin.point, twin.gb_ring)
            assert values == [twin._gb.normal_form(h, twin._weights)]


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
    basis = polynomial_generators(gs, 2, field, random.Random(6))
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
