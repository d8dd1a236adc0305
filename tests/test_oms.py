import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fieldsimp import groebner as groebner_module
from fieldsimp import oms
from fieldsimp import poly as poly_module
from fieldsimp.arith import ZeroInverse, production_prime
from fieldsimp.groebner import gb_apply, gb_learn, gb_replay, groebner
from fieldsimp.interp import FAIL, Blackbox
from fieldsimp.oms import (EomsEvaluator, EvaluationBudgetExceeded,
                           GeneratorSet, UnluckyPoint, coefficient_row,
                           gb_coefficients, gb_ring, specialize_eoms)
from fieldsimp.poly import (DEGREVLEX, LEX, MultiPoly, PrimeField, QQ,
                            RationalFunction, Ring, values_at)
from fieldsimp.simplify import _normalize_monic_num, reconstruct_candidates

from conftest import ALL_FIXTURES, CHECK_PRIMES, genset_of, load_fixture
from oracle import proportional, specialize

FP = PrimeField(CHECK_PRIMES[0])


def lifted_coefficients(genset, cutoff, order=None, seed=7, evaluator=None):
    """Interpolate GB coefficients mod p, lift to Q, normalize up to
    scaling, and drop constants."""
    ring = gb_ring(genset, FP, order or genset.ring.order)
    rng = random.Random(seed)
    report = gb_coefficients(genset, cutoff, ring, rng, evaluator=evaluator)
    assert report is not FAIL
    pairs = [(num.terms, den.terms) for num, den in report.interpolated()]
    lifted = reconstruct_candidates(pairs, genset.ring, FP.p)
    out = []
    for rf in lifted:
        if rf.num.is_constant():
            continue
        rf = _normalize_monic_num(rf)
        if not any(proportional(rf, other) for other in out):
            out.append(rf)
    return out, report


def test_specialize_single_variable():
    gs = genset_of(Ring(("x1",), QQ), ["x1"])
    ring = gb_ring(gs, FP)
    out = specialize_eoms(gs, (5,), ring)
    t, y1 = ring.gens()
    assert out == [y1 - ring.from_int(5), t - ring.one()]


def test_specialize_pole_fails():
    gs = genset_of(Ring(("x1",), QQ), ["1/x1"])
    ring = gb_ring(gs, FP)
    assert specialize_eoms(gs, (0,), ring) is FAIL


def test_specialize_power_sums_shape():
    gs = load_fixture("example_sym")
    ring = gb_ring(gs, FP)
    point = (3, 11)
    out = specialize_eoms(gs, point, ring)
    assert len(out) == 4
    t, y1, y2 = ring.gens()
    for d, h in zip((2, 3, 4), out[:3]):
        value = (pow(3, d, FP.p) + pow(11, d, FP.p)) % FP.p
        assert h == y1 ** d + y2 ** d - ring.from_int(value)
    assert out[3] == t - ring.one()


@st.composite
def specialize_cases(draw):
    """(generator set over Q, point, gb ring): 1-3 variables, 1-3
    generators p/q with coefficients in -3..3, p and q over one small pool
    of monomials and the powers of one variable, so that terms of p and q
    share monomials, or p a multiple of q in about one case out of four;
    the gb ring at p = 5 (poles are common) or a 62-bit prime, in either
    order, which need not be the generator set's."""
    n = draw(st.integers(1, 3))
    x_ring = Ring(tuple("x%d" % i for i in range(n)), QQ,
                  draw(st.sampled_from((DEGREVLEX, LEX))))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1,
                         max_size=4, unique=True))
    coeff = st.integers(-3, 3).filter(bool).map(Fraction)

    def poly(mons):
        mons = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=4,
                             unique=True))
        return x_ring.from_dict({m: draw(coeff) for m in mons})

    gens = []
    for _ in range(draw(st.integers(1, 3))):
        v = draw(st.integers(0, n - 1))
        powers = [tuple(e if i == v else 0 for i in range(n))
                  for e in range(3)]
        den = poly(pool + powers)
        num = den.scale(draw(coeff)) if draw(st.integers(0, 3)) == 0 \
            else poly(pool + powers)
        gens.append(RationalFunction(num, den))
    genset = GeneratorSet(x_ring, gens)
    field = PrimeField(draw(st.sampled_from((5, production_prime(0)))))
    coordinate = st.integers(0, 4) | st.integers(0, field.p - 1)
    point = tuple(draw(st.lists(coordinate, min_size=n, max_size=n)))
    ring = gb_ring(genset, field, draw(st.sampled_from((DEGREVLEX, LEX))))
    return genset, point, ring


@settings(max_examples=200, deadline=None)
@given(specialize_cases())
def test_specialize_matches_two_products(case):
    # per generator lift(p) q(a) - lift(q) p(a), then t Q(y) - 1: the
    # specialized ideal term for term, or FAIL exactly at a pole
    genset, point, ring = case
    field = ring.field
    x_ring = Ring(genset.ring.vars, field, genset.ring.order)
    try:
        images = [g.modp(x_ring) for g in genset.generators]
    except ZeroInverse:     # p divides a coefficient's denominator
        assume(False)
    q = genset.common_denominator.map_coefficients(x_ring,
                                                   field.from_fraction)

    def lift(f, t=0):
        return ring.from_dict({(t,) + m: c for m, c in f.terms})

    got = specialize_eoms(genset, point, ring)
    if any(den.evaluate(point) == 0 for _, den in images) \
            or q.evaluate(point) == 0:
        assert got is FAIL
        return
    expected = [lift(num).scale(den.evaluate(point))
                - lift(den).scale(num.evaluate(point)) for num, den in images]
    expected = [h for h in expected if not h.is_zero()]
    expected.append(lift(q, 1) - ring.one())
    assert [h.terms for h in got] == [h.terms for h in expected]


def test_specialize_reads_its_shape_without_sorting(monkeypatch):
    # the shape is built once per (generator set, gb ring); later points
    # only evaluate and scale it
    gs = load_fixture("power_sums")
    ring = gb_ring(gs, FP)
    rng = random.Random(5)
    assert specialize_eoms(gs, (2,) * gs.ring.arity, ring) is not FAIL
    calls = []
    from_dict = Ring.from_dict

    def counting(self, d):
        calls.append(self)
        return from_dict(self, d)

    monkeypatch.setattr(Ring, "from_dict", counting)
    for _ in range(5):
        point = tuple(rng.randrange(1, FP.p) for _ in gs.ring.vars)
        assert specialize_eoms(gs, point, ring) is not FAIL
    assert calls == []


def test_specialize_computes_each_power_once(monkeypatch):
    # one call reads every generator's num and den, and Q, through one set
    # of power tables of the point: each x_i^e with e > 1 in their support
    # is one pow, and x_i itself none
    gs = genset_of(Ring(("x", "y", "z"), QQ),
                   ["(x^3 + y^2*z)/(x^2 + z^3)", "x^2*y^3/(y + 2*z^2)",
                    "z^3 + x*y"])
    ring = gb_ring(gs, FP)
    specialize_eoms(gs, (2, 3, 5), ring)         # the shape, built once
    point = (7, 11, 13)
    calls, builtin_pow = [], pow

    def counting(x, e, p=None):
        calls.append((x, e))
        return builtin_pow(x, e, p)

    monkeypatch.setattr(poly_module, "pow", counting, raising=False)
    got = specialize_eoms(gs, point, ring)
    assert got is not FAIL
    polys = [side for g in gs.generators for side in (g.num, g.den)]
    polys.append(gs.common_denominator)
    assert sorted(calls) == sorted({(x, e) for f in polys
                                    for m in f.support()
                                    for x, e in zip(point, m) if e > 1})
    monkeypatch.undo()
    x_ring = Ring(gs.ring.vars, FP, gs.ring.order)
    expected = [specialize(*g.modp(x_ring), point, ring)
                for g in gs.generators]
    q = gs.common_denominator.map_coefficients(x_ring, FP.from_fraction)
    expected.append(ring.from_dict({(1,) + m: c for m, c in q.terms})
                    - ring.one())
    assert got == expected


def _dense_values_at(polys, point, p):
    """The values of MultiPolys at `point` read term by term over every
    coordinate, skipping the zero exponents: the form the shapes read
    before they kept only each term's nonzero exponents."""
    powers, values = [{1: x} for x in point], []
    for poly in polys:
        total = 0
        for m, c in poly.terms:
            for table, e in zip(powers, m):
                if e:
                    x = table.get(e)
                    if x is None:
                        x = table[e] = pow(table[1], e, p)
                    c *= x
            total += c
        values.append(total % p)
    return values


@pytest.mark.parametrize("name", ALL_FIXTURES + ("obscured4",))
def test_shape_reads_the_point_as_the_dense_images(name):
    # the shape keeps each image term's nonzero (coordinate, exponent)
    # factors; reading a point through them gives what the dense images
    # give, and coefficient_row fails exactly at a pole of Q (reached on
    # every fixture with a nonconstant Q)
    gs = load_fixture(name)
    ring = gb_ring(gs, FP)
    x_ring = Ring(gs.ring.vars, FP, gs.ring.order)
    images = [side for g in gs.generators for side in g.modp(x_ring)]
    images.append(gs.common_denominator.map_coefficients(
        x_ring, FP.from_fraction))
    sparse = gs.shape(ring)[0]
    rng, poles = random.Random(name), 0
    for k in range(40):
        top = 2 if k % 2 else FP.p - 1
        point = tuple(rng.randint(0, top) for _ in gs.ring.vars)
        want = _dense_values_at(images, point, FP.p)
        assert values_at(sparse, [{1: x} for x in point], FP.p) == want
        row = coefficient_row(gs, point, ring)
        assert (row is FAIL) == (want[-1] == 0)
        poles += row is FAIL
    assert poles or gs.common_denominator.is_constant()


def test_gb_coefficients_power_sums_lex():
    gs = load_fixture("example_sym")
    got, _ = lifted_coefficients(gs, 2, order=LEX)
    x1, x2 = (RationalFunction(g) for g in gs.ring.gens())
    expected = [x1 + x2, x1 * x2]
    assert len(got) == len(expected)
    for e in expected:
        assert any(proportional(rf, e) for rf in got)


SEIR_ORDER = ["k", "N", "beta", "eps", "gamma", "mu", "r"]


def test_gb_coefficients_seir_low_degree():
    gs = load_fixture("seir34", var_order=SEIR_ORDER)
    k, N, beta, eps, gamma, mu, r = (RationalFunction(g)
                                     for g in gs.ring.gens())
    got1, _ = lifted_coefficients(gs, 1)
    expected = [mu, eps + gamma, N]
    assert len(got1) == len(expected)
    for e in expected:
        assert any(proportional(rf, e) for rf in got1)

    got4, _ = lifted_coefficients(gs, 4)
    for e in expected + [eps * gamma, k / gamma, beta * r / gamma]:
        assert any(proportional(rf, e) for rf in got4)


def test_two_batch_consistency():
    gs = load_fixture("example_sym")
    runs = []
    for seed in (101, 202):
        got, _ = lifted_coefficients(gs, 2, seed=seed)
        runs.append(sorted(got, key=lambda rf: rf.render()))
    assert len(runs[0]) == len(runs[1])
    for a, b in zip(*runs):
        assert a == b


def test_early_stop_economy():
    gs = load_fixture("seir34", var_order=SEIR_ORDER)
    _, rep1 = lifted_coefficients(gs, 1, seed=5)
    _, rep4 = lifted_coefficients(gs, 4, seed=5)
    assert rep1.n_evals < rep4.n_evals
    assert any(val[0] == "high_degree" for val in rep1.entries.values())
    assert not any(val[0] == "high_degree" for val in rep4.entries.values())


def test_shared_evaluator_keeps_trace():
    gs = load_fixture("example_sym")
    ring = gb_ring(gs, FP)
    rng = random.Random(3)
    shared = EomsEvaluator(gs, ring, rng)
    trace, learned = shared.trace, shared.n_evals
    rep1 = gb_coefficients(gs, 1, ring, rng, evaluator=shared)
    rep2 = gb_coefficients(gs, 2, ring, rng, evaluator=shared)
    assert rep1 is not FAIL and rep2 is not FAIL
    # both cutoffs replay the trace learned at construction, and each pass
    # counts its own evaluations on the shared evaluator
    assert shared.trace is trace
    assert rep1.n_evals > 0 and rep2.n_evals > 0
    assert shared.n_evals == learned + rep1.n_evals + rep2.n_evals
    # a repeated point is evaluated again: an equal tuple, counted twice
    point = tuple(rng.randrange(1, FP.p) for _ in range(gs.ring.arity))
    before = shared.n_evals
    first = shared.eval(point)
    assert first is not FAIL
    assert shared.eval(point) == first
    assert shared.n_evals == before + 2


def test_shape_stability():
    gs = load_fixture("heron")
    ring = gb_ring(gs, FP)
    ev = EomsEvaluator(gs, ring, random.Random(9))
    keys = ev.coefficient_keys()
    rng = random.Random(10)
    successes = 0
    for _ in range(10):
        point = tuple(rng.randrange(1, FP.p) for _ in range(gs.ring.arity))
        got = ev.eval(point)
        if got is FAIL:
            continue
        successes += 1
        assert len(got) == len(keys)
        assert ev.coefficient_keys() is keys
    assert successes >= 8


def test_eval_packs_no_monomial_after_the_learn(monkeypatch):
    gs = load_fixture("heron")
    ev = EomsEvaluator(gs, gb_ring(gs, FP), random.Random(9))
    packs = []
    pack = groebner_module._Codec.pack

    def counting(self, e):
        packs.append(e)
        return pack(self, e)

    monkeypatch.setattr(groebner_module._Codec, "pack", counting)
    rng = random.Random(10)
    served = 0
    for _ in range(5):
        point = tuple(rng.randrange(1, FP.p) for _ in range(gs.ring.arity))
        served += ev.eval(point) is not FAIL
    assert served and packs == []


def test_generator_set_invariants():
    ring = Ring(("x1", "x2"), QQ)
    x1, x2 = ring.gens()
    gs = GeneratorSet(ring, [RationalFunction(x1), RationalFunction(x1),
                             RationalFunction(x2, x1)])
    assert len(gs) == 2
    assert gs.common_denominator == x1
    try:
        GeneratorSet(ring, [])
        assert False
    except ValueError:
        pass


def test_generator_set_rejects_bad_generators():
    ring = Ring(("x1", "x2"), QQ)
    x1, _ = ring.gens()
    fp_ring = Ring(("x1", "x2"), PrimeField(101))
    with pytest.raises(ValueError, match="generator sets live over Q"):
        GeneratorSet(fp_ring, [fp_ring.gens()[0]])
    other = Ring(("y1", "y2"), QQ)
    with pytest.raises(ValueError, match="generator from a different ring"):
        GeneratorSet(ring, [x1, other.gens()[0]])
    # from_dict skips the parser's own exponent check
    with pytest.raises(ValueError, match="exponent 65536 exceeds 65535"):
        GeneratorSet(ring, [x1, ring.from_dict({(65536, 1): 1})])


# ----------------------------------------------------------------------
# shared-point harvest


def test_harvest_evaluates_each_point_once(monkeypatch):
    # over two cutoffs on one evaluator: the second reads the first's
    # points, so no point is evaluated twice, and together they evaluate
    # what one call at the higher cutoff does
    gs = load_fixture("seir34", var_order=SEIR_ORDER)
    ring = gb_ring(gs, FP)
    ev = EomsEvaluator(gs, ring, random.Random(5))
    points = []
    evaluate = EomsEvaluator.eval

    def recording_eval(self, point):
        points.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(EomsEvaluator, "eval", recording_eval)
    rng, expected = random.Random(6), random.Random(6)
    total = 0
    for cutoff in (2, 4):
        rep = gb_coefficients(gs, cutoff, ring, rng, evaluator=ev)
        assert rep is not FAIL and rep.n_evals > 0
        total += rep.n_evals
        # the evaluator drew its seeds when it was made: given one, a call
        # reads nothing from the caller's stream
        assert rng.getstate() == expected.getstate()
    assert not any(val[0] == "high_degree" for val in rep.entries.values())
    assert points and len(set(points)) == len(points)
    assert total == len(points)
    # and they are the points of one harvest straight at cutoff 4
    two_rounds = set(points)
    del points[:]
    ev = EomsEvaluator(gs, ring, random.Random(5))
    assert gb_coefficients(gs, 4, ring, random.Random(6), evaluator=ev) \
        is not FAIL
    assert set(points) == two_rounds


def test_harvest_maps_nothing_to_fp(monkeypatch):
    # the F_p images of the generators and of Q belong to the GeneratorSet,
    # made once per prime by the evaluator's learn
    gs = load_fixture("seir34", var_order=SEIR_ORDER)
    ring = gb_ring(gs, FP)
    ev = EomsEvaluator(gs, ring, random.Random(5))
    mapped = []
    map_coefficients = MultiPoly.map_coefficients

    def counted(self, ring, fn):
        mapped.append(self)
        return map_coefficients(self, ring, fn)

    monkeypatch.setattr(MultiPoly, "map_coefficients", counted)
    rep = gb_coefficients(gs, 4, ring, random.Random(6), evaluator=ev)
    assert rep is not FAIL and rep.n_evals > 0
    assert mapped == []


def test_keys_share_points(monkeypatch):
    gs = load_fixture("seir34", var_order=SEIR_ORDER)
    made = []

    class RecordedBlackbox(Blackbox):
        __slots__ = ()

        def __init__(self, arity, fn):
            super().__init__(arity, fn)
            made.append(self)

    monkeypatch.setattr(oms, "Blackbox", RecordedBlackbox)
    _, rep = lifted_coefficients(gs, 4, seed=5)
    counts = [bb.count for bb in made]
    assert len(counts) == len(rep.entries) > 1
    assert rep.n_evals < sum(counts)
    # the keys read one line and one row schedule: beyond the busiest
    # key's points, only each other key's two check points can be new
    assert rep.n_evals <= max(counts) + 2 * (len(counts) - 1)


def counting_estimates(monkeypatch):
    estimated = []
    estimate = oms.estimate_degrees

    def counting(bb, cutoff, field, rng):
        estimated.append(cutoff)
        return estimate(bb, cutoff, field, rng)

    monkeypatch.setattr(oms, "estimate_degrees", counting)
    return estimated


def test_finished_keys_kept_across_cutoffs(monkeypatch):
    gs = load_fixture("seir34", var_order=SEIR_ORDER)
    ring = gb_ring(gs, FP)
    rng = random.Random(11)
    ev = EomsEvaluator(gs, ring, rng)
    estimated = counting_estimates(monkeypatch)
    rep1 = gb_coefficients(gs, 1, ring, rng, evaluator=ev)
    assert rep1 is not FAIL
    assert len(estimated) == len(rep1.entries)
    high = [key for key, val in rep1.entries.items()
            if val[0] == "high_degree"]
    ok = [key for key, val in rep1.entries.items() if val[0] == "ok"]
    assert high and ok
    del estimated[:]
    rep2 = gb_coefficients(gs, 2, ring, rng, evaluator=ev)
    assert rep2 is not FAIL
    assert estimated == [2] * len(high)
    for key in ok:
        assert rep2.entries[key] == rep1.entries[key]


def test_learn_at_a_special_point_is_rejected_by_its_check(monkeypatch):
    gs = load_fixture("example_sym")
    ring = gb_ring(gs, FP)
    generic = EomsEvaluator(gs, ring, random.Random(3)).support
    # at x2 = -x1 the odd power sum vanishes and the GB loses a term
    special = (5, FP.p - 5)
    learned = gb_learn(ring, specialize_eoms(gs, special, ring))[0]
    assert tuple(g.support() for g in learned) != generic
    drawn = []
    draw = EomsEvaluator._random_point

    def special_first(self, rng):
        drawn.append(special if not drawn else draw(self, rng))
        return drawn[-1]

    monkeypatch.setattr(EomsEvaluator, "_random_point", special_first)
    spent = []
    # the learn at the special point fails its check, and that ends it
    with pytest.raises(UnluckyPoint, match="no regular specialization point"):
        EomsEvaluator(gs, ring, random.Random(3), lambda: spent.append(1))
    assert len(drawn) == 2 and drawn[0] == special
    assert len(spent) == 1          # one learn and its check, no redraw


def test_learn_draws_its_points_and_seeds_from_the_callers_rng():
    # the learn point, its check point, then the harvest's two seeds
    gs = load_fixture("example_sym")
    rng = random.Random(3)
    ev = EomsEvaluator(gs, gb_ring(gs, FP), rng)
    expected = random.Random(3)
    point, _check = (tuple(expected.randrange(1, FP.p)
                           for _ in range(gs.ring.arity)) for _ in range(2))
    assert ev.seeds == (expected.getrandbits(64), expected.getrandbits(64))
    assert rng.getstate() == expected.getstate()
    assert ev.learned.polys \
        == groebner(ev.ring, specialize_eoms(gs, point, ev.ring)).polys


# ----------------------------------------------------------------------
# lost samples and the evaluation budget


def test_diverged_replays_keep_the_trace(monkeypatch):
    gs = load_fixture("example_sym")
    ev = EomsEvaluator(gs, gb_ring(gs, FP), random.Random(3))
    learned = ev.trace
    monkeypatch.setattr(oms, "gb_replay", lambda *args: FAIL)
    for _ in range(3):
        assert ev.eval((1, 2)) is FAIL
    # the learn and three replays, one GB evaluation each
    assert ev.trace is learned and ev.n_evals == 1 + 3
    monkeypatch.undo()
    assert ev.eval((1, 2)) is not FAIL


def test_support_mismatch_is_fail():
    gs = load_fixture("example_sym")
    ring = gb_ring(gs, FP)
    ev = EomsEvaluator(gs, ring, random.Random(3))
    learned = ev.trace
    # at x2 = -x1 the replay follows the trace but the GB loses a term
    point = (5, FP.p - 5)
    assert gb_apply(ring, specialize_eoms(gs, point, ring), learned) is FAIL
    assert ev.eval(point) is FAIL
    assert ev.trace is learned and ev.n_evals == 2


def test_a_vanished_shape_coefficient_fails_the_row_replay():
    gs = load_fixture("example_sym")
    ring = gb_ring(gs, FP)
    ev = EomsEvaluator(gs, ring, random.Random(3))
    # at x2 = -x1 the constant term of x1^3 + x2^3 - (a1^3 + a2^3) vanishes
    special, again, generic = (5, FP.p - 5), (7, FP.p - 7), (2, 3)
    row = coefficient_row(gs, special, ring)
    zeros = tuple(k for k, c in enumerate(row) if not c)
    assert len(zeros) == 1 and 0 not in coefficient_row(gs, generic, ring)
    # it vanishes at a replay point
    assert gb_replay(ring, row, ev.trace) is FAIL
    assert gb_apply(ring, specialize_eoms(gs, special, ring), ev.trace) \
        is FAIL
    assert ev.gb(special) is FAIL
    # it vanished at the learn point, and a generic point has the term
    _, trace = gb_learn(ring, specialize_eoms(gs, special, ring))
    assert gb_replay(ring, coefficient_row(gs, generic, ring), trace,
                     zeros) is FAIL
    assert gb_apply(ring, specialize_eoms(gs, generic, ring), trace) is FAIL
    # where it vanishes again, both entries replay to the GB
    want = groebner(ring, specialize_eoms(gs, again, ring)).polys
    assert gb_replay(ring, coefficient_row(gs, again, ring), trace,
                     zeros).polys == want
    assert gb_apply(ring, specialize_eoms(gs, again, ring), trace).polys \
        == want


def test_budget_stops_before_the_evaluation_past_the_cap(monkeypatch):
    gs = load_fixture("example_sym")
    ring = gb_ring(gs, FP)
    spent = []

    def spend():
        if len(spent) == 4:
            raise EvaluationBudgetExceeded("budget ran out at d=2")
        spent.append(1)

    ev = EomsEvaluator(gs, ring, random.Random(3), spend)
    replay, replays = oms.gb_replay, []

    def recording_replay(*args):
        replays.append(1)
        return replay(*args)

    monkeypatch.setattr(oms, "gb_replay", recording_replay)
    # the learn and three replays spend the budget of 4; the evaluator asks
    # for a fifth before it runs it
    with pytest.raises(EvaluationBudgetExceeded, match="at d=2$"):
        gb_coefficients(gs, 2, ring, random.Random(4), evaluator=ev)
    assert ev.n_evals == 1 + 3 and len(replays) == 3
