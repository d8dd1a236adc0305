import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsimp.arith import FAIL, PrimeField, production_prime
from fieldsimp.groebner import (TRACE_DIVERGED, gb_apply, gb_learn, gb_verify,
                                groebner)
from fieldsimp.oms import gb_ring, specialize_eoms
from fieldsimp.poly import LEX, MonomialOrder, Ring

from conftest import fields_equal_2p, load_fixture

# the package exports a function of the same name, so fetch the module
groebner_module = importlib.import_module("fieldsimp.groebner")

P = production_prime(0)
FP = PrimeField(P)
R2 = Ring(("x", "y"), FP)


def _poly(ring, d):
    return ring.from_dict(d)


def test_trivial_basis():
    x, y = R2.gens()
    gb = groebner(R2, [x, y])
    assert [g for g in gb] == sorted([x, y],
                                     key=lambda g: R2.order.key(g.leading_monomial()))


def test_unit_ideal():
    x = R2.variable(0)
    gb = groebner(R2, [x - R2.one(), x])
    assert gb.polys == [R2.one()]


def test_lex_two_generator_example():
    ring = Ring(("y", "x"), FP, LEX)     # y > x
    y, x = ring.gens()
    g1 = x * x - ring.one()
    g2 = (x - ring.one()) * y
    gb = groebner(ring, [g1, g2])
    expected = {x * y - y, x * x - ring.one()}
    assert set(gb.polys) == expected


def test_divisibility_past_a_degree_difference_of_2_16():
    # degrevlex packs the total degree on top; x divides x^40000 y^40000
    # although their degrees differ by more than 2^16
    x, y = R2.gens()
    big = R2.from_dict({(40000, 40000): 1})
    assert groebner(R2, [big + x, x]).polys == [x]
    assert groebner(R2, [big - R2.one(), x]).polys == [R2.one()]


def test_normal_form_examples():
    x, y = R2.gens()
    gb = groebner(R2, [x])
    assert gb.normal_form(x * x).is_zero()
    gb2 = groebner(R2, [x - y])
    assert gb2.normal_form(x + y) == y.scale(2)


def test_normal_form_of_ideal_member_is_zero():
    rng = random.Random(2)
    x, y = R2.gens()
    gb = groebner(R2, [x * x + y, x * y - R2.one()])
    for _ in range(10):
        combo = R2.zero()
        for g in gb.polys:
            q = _random_poly(R2, rng)
            combo = combo + q * g
        assert gb.normal_form(combo).is_zero()


def _nonconstant_terms(gb, monomial):
    """The nonconstant normal form of one monomial, unpacked into a dict."""
    nf, = gb.nonconstant_normal_forms([monomial])
    return {gb._codec.unpack(m): c for m, c in nf.items()}


def test_nonconstant_normal_forms_examples():
    gb_y = groebner(R2, [R2.variable(1)])
    assert _nonconstant_terms(gb_y, (0, 0)) == {}
    assert _nonconstant_terms(gb_y, (1, 0)) == {(1, 0): 1}
    gb3 = groebner(R2, [R2.variable(0) ** 2 - R2.from_int(5)])
    assert _nonconstant_terms(gb3, (2, 0)) == {}
    # equal monomials get equal keys, different ones different keys
    nfs = gb_y.nonconstant_normal_forms([(1, 0), (1, 0), (2, 0)])
    assert nfs[0].keys() == nfs[1].keys() and nfs[0].keys() != nfs[2].keys()


def _random_poly(ring, rng, max_terms=4, max_exp=3):
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in ring.vars)
        d[m] = rng.randrange(1, ring.field.p)
    return ring.from_dict(d)


def test_spair_closure_random_instances():
    # every S-polynomial of the returned basis reduces to zero, and every
    # input generator lies in the ideal
    for seed in range(8):
        rng = random.Random(seed)
        nvars = rng.randint(2, 3)
        ring = Ring(tuple("xyz"[:nvars]), FP,
                    MonomialOrder(rng.choice(["degrevlex", "lex"])))
        gens = [_random_poly(ring, rng, max_terms=3, max_exp=2)
                for _ in range(rng.randint(2, 3))]
        gb = groebner(ring, gens)
        for g in gens:
            assert gb.normal_form(g).is_zero()
        basis = gb.polys
        if basis == [ring.one()]:
            continue
        for i in range(len(basis)):
            for j in range(i):
                s = _spoly(basis[i], basis[j])
                assert gb.normal_form(s).is_zero()


def _spoly(f, g):
    field = f.ring.field
    lcm = tuple(map(max, f.leading_monomial(), g.leading_monomial()))
    d = {}
    for h, sign in ((f, field.one), (g, field.neg(field.one))):
        shift = [x - y for x, y in zip(lcm, h.leading_monomial())]
        c = field.mul(sign, field.inv(h.leading_coefficient()))
        for m, cf in h.terms:
            k = tuple(x + y for x, y in zip(m, shift))
            d[k] = field.add(d.get(k, field.zero), field.mul(cf, c))
    return f.ring.from_dict(d)


def test_canonical_under_permutation():
    rng = random.Random(17)
    for seed in range(6):
        ring = Ring(("x", "y", "z"), FP)
        gens = [_random_poly(ring, rng, max_terms=3, max_exp=2)
                for _ in range(3)]
        reference = groebner(ring, gens).polys
        for _ in range(3):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert groebner(ring, shuffled).polys == reference


def test_reduced_basis_invariants():
    rng = random.Random(23)
    ring = Ring(("x", "y", "z"), FP)
    gens = [_random_poly(ring, rng, max_terms=3, max_exp=2) for _ in range(3)]
    gb = groebner(ring, gens)
    lms = [g.leading_monomial() for g in gb]
    from fieldsimp.poly import mon_divides
    for i, g in enumerate(gb.polys):
        assert g.leading_coefficient() == 1
        for m, _ in g.terms[1:]:
            assert not any(mon_divides(l, m) for l in lms)
        for j, l in enumerate(lms):
            if j != i:
                assert not mon_divides(l, g.leading_monomial())


def test_learn_apply_identity():
    x, y = R2.gens()
    gens = [x * x + y, x * y - R2.one()]
    gb, trace = gb_learn(R2, gens)
    replayed = gb_apply(R2, gens, trace)
    assert replayed is not TRACE_DIVERGED
    assert replayed.polys == gb.polys


def test_apply_equals_untraced_on_specializations():
    genset = load_fixture("example_sym")
    ring = gb_ring(genset, FP)
    rng = random.Random(4)

    def spec():
        while True:
            pt = tuple(rng.randrange(1, P) for _ in range(genset.ring.arity))
            gens = specialize_eoms(genset, pt, ring)
            if gens is not None:
                return gens

    base = spec()
    gb, trace = gb_learn(ring, base)
    agree = 0
    for _ in range(30):
        gens = specialize_eoms(genset,
                               tuple(rng.randrange(1, P)
                                     for _ in range(genset.ring.arity)), ring)
        if gens is None:
            continue
        replay = gb_apply(ring, gens, trace)
        fresh = groebner(ring, gens)
        if replay is TRACE_DIVERGED:
            continue
        assert replay.polys == fresh.polys
        assert tuple(g.support() for g in replay) \
            == tuple(g.support() for g in gb)
        agree += 1
    assert agree >= 25


def test_apply_diverges_on_structurally_different_input():
    x, y = R2.gens()
    one = R2.one()
    _, trace = gb_learn(R2, [x * x + y, x * y - one])
    assert trace.supports == (((2, 0), (0, 1)), ((1, 1), (0, 0)))
    assert gb_apply(R2, [x * x + 2 * y, x * y - 3 * one], trace) \
        is not TRACE_DIVERGED
    for replayed in (
            # another number of nonzero inputs
            [x],
            [x * x + y, x * y - one, y * y],
            # a term off the learned support, as the leading monomial or
            # below it
            [x + y, y * y - one],
            [x * x + x + y, x * y - one],
            # the coefficient at the learned leading monomial vanishes
            [2 * y, x * y - one]):
        assert gb_apply(R2, replayed, trace) is TRACE_DIVERGED


def test_replay_keeps_inputs_equal_up_to_a_scalar():
    x, y = R2.gens()

    def gens(a):
        f = x * x + R2.from_int(a) * y
        return [f, f.scale(3), x * y - R2.one()]

    gb, trace = gb_learn(R2, gens(1))
    assert len(trace.supports) == 3
    assert gb.polys == groebner(R2, gens(1)[1:]).polys
    for a in (2, 5):
        replay = gb_apply(R2, gens(a), trace)
        assert replay is not FAIL
        assert replay.polys == groebner(R2, gens(a)).polys
    # copies learned equal must stay equal: f - f' = x y lies in the ideal,
    # which is then the unit ideal, and the learn never reduced x y
    f = x * x + x * y
    _, trace = gb_learn(R2, [f, f, x * y - R2.one()])
    assert groebner(R2, [f, x * x + 2 * x * y, x * y - R2.one()]).polys \
        == [R2.one()]
    assert gb_apply(R2, [f, x * x + 2 * x * y, x * y - R2.one()], trace) \
        is FAIL


def test_replay_diverges_at_each_event_check():
    x, y = R2.gens()
    one = R2.one()
    # learned, checked and replayed inputs share their supports, so each
    # replay passes the input check and fails at the branch its comment
    # names, on the fresh trace and on gb_verify's
    cases = [
        # recorded zero reduction; the replayed S-polynomial is -y, which
        # the learn never reduced (its S-polynomial vanished outright)
        ([x * y + y, x + one], [x * y + 2 * y, x + 2 * one],
         [x * y + y, x + 2 * one]),
        # recorded new element y^2; the replayed S-polynomial reduces to
        # zero, so the remainder's lead vanishes
        ([x * x - y * y, x - 2 * y], [x * x - y * y, x - 3 * y],
         [x * x - y * y, x - y]),
        # recorded new element x - y; the replay gives y, so the
        # remainder's lead vanishes
        ([x * y + y * y + 2 * x, y * y + y],
         [x * y + y * y + 3 * x, y * y + y], [x * y + y * y + x, y * y + y]),
    ]
    for learned, checked, replayed in cases:
        _, fresh = gb_learn(R2, learned)
        assert gb_learn(R2, replayed)[1].supports == fresh.supports
        for trace in (fresh, gb_verify(R2, checked, fresh)):
            assert gb_apply(R2, replayed, trace) is TRACE_DIVERGED
            assert gb_apply(R2, learned, trace) is not TRACE_DIVERGED


def test_quick_check_passes_only_on_a_slot_the_learn_reduced():
    x, y = R2.gens()
    one = R2.one()

    def gens(a, b, c, d):
        return [x * x + a * x + R2.from_int(b),
                x * x + x + c * y + R2.from_int(d), y + one]

    # S(f1, f2) = (a - 1) x - c y + b - d: at the learn (a = 1) its x slot
    # cancels, and the rest reduces to zero by y + 1
    _, fresh = gb_learn(R2, gens(1, 1, 1, 2))
    trace = gb_verify(R2, gens(1, 3, 2, 5), fresh)
    assert trace is not FAIL and len(trace.checks) == 1
    assert len(trace.programs) < len(fresh.programs)
    # the first nonzero slot is y, which the learn reduced: the GB
    good = gens(1, 1, 5, 6)
    assert gb_apply(R2, good, trace).polys == groebner(R2, good).polys
    # the first nonzero slot is x, which cancelled at the learn: the ideal
    # is the unit ideal, and only the quick check sees it
    bad = gens(3, 1, 1, 2)
    assert groebner(R2, bad).polys == [R2.one()]
    assert gb_apply(R2, bad, trace._replace(checks=())) is not FAIL
    assert gb_apply(R2, bad, trace) is FAIL
    assert gb_apply(R2, bad, fresh) is FAIL


def test_verify_fails_where_the_learned_support_does_not_hold():
    x, y = R2.gens()
    one = R2.one()
    # the learn at [x^2 - x, x^2 - 1] ends at [x - 1], while a generic
    # point of [a x^2 + b x, c x^2 + d] generates the unit ideal
    _, fresh = gb_learn(R2, [x * x - x, x * x - one])
    assert gb_verify(R2, [3 * x * x + x, 2 * x * x + 3 * one], fresh) is FAIL
    # at [x^2 + y, x y - 1] the full replay of [x^2 + 2x + y, x y + 3y - 1]
    # is the GB, but learned output terms vanish
    _, fresh = gb_learn(R2, [x * x + 2 * x + y, x * y + 3 * y - one])
    special = [x * x + y, x * y - one]
    assert gb_apply(R2, special, fresh).polys == groebner(R2, special).polys
    assert gb_verify(R2, special, fresh) is FAIL
    assert gb_verify(R2, [x * x + 5 * x + y, x * y + 7 * y - one], fresh) \
        is not FAIL


def test_replay_fails_on_a_slot_cancelled_only_at_the_learn():
    x, y = R2.gens()
    # S(f, g) reduces to (a + b^2) y^3 + y^2 for f = x^2 + a y^2 + y and
    # g = x y + b y^2: the y^3 slot cancels at the learn (a = -1, b = 1)
    _, trace = gb_learn(R2, [x * x - y * y + y, x * y + y * y])
    assert gb_apply(R2, [x * x + 2 * y * y + y, x * y + y * y], trace) \
        is FAIL
    # where it cancels again (a = -4, b = 2) the replay is the GB
    again = [x * x - 4 * y * y + y, x * y + 2 * y * y]
    assert gb_apply(R2, again, trace).polys == groebner(R2, again).polys


@pytest.mark.parametrize("p", [P, 101], ids=["production", "p101"])
def test_replay_is_never_a_wrong_basis(p):
    # the learn on [x^2 - x, x^2 - 1] reaches the unit ideal; replayed on
    # [3x^2 + x, 2x^2 + 3], whose basis is also [1], the trace runs to
    # [x - 9/2] instead of diverging
    ring = Ring(("x",), PrimeField(p))
    x, one = ring.variable(0), ring.one()
    _, trace = gb_learn(ring, [x * x - x, x * x - one])
    gens = [3 * x * x + x, 2 * x * x + 3 * one]
    replay = gb_apply(ring, gens, trace)
    assert replay is FAIL or replay.polys == groebner(ring, gens).polys


def test_replay_runs_no_reduction(monkeypatch):
    x, y = R2.gens()
    gens = [x * x + y, x * y - R2.one()]
    gb, trace = gb_learn(R2, gens)
    assert len(trace.programs) > len(trace.outputs)     # S-pair programs
    calls = []
    reduce_full = groebner_module._reduce_full

    def counting(*args):
        calls.append(1)
        return reduce_full(*args)

    monkeypatch.setattr(groebner_module, "_reduce_full", counting)
    assert gb_apply(R2, gens, trace).polys == gb.polys
    assert calls == []


def test_fields_equal_compiles_no_trace(monkeypatch):
    runs = []
    run = groebner_module._run_buchberger

    def refuse(*args):
        raise AssertionError("membership compiled a slot program")

    def counting(*args, **kwargs):
        runs.append(1)
        return run(*args, **kwargs)

    monkeypatch.setattr(groebner_module, "_compile", refuse)
    monkeypatch.setattr(groebner_module, "_run_buchberger", counting)
    gs = load_fixture("heron")
    assert fields_equal_2p(gs, gs) is True
    assert runs


@st.composite
def parametric_cases(draw):
    """(ring, generators, rng) in 2-3 variables: each generator is a dict
    monomial -> (c0, c1), the coefficient c0 + c1 a at the parameter a."""
    p = draw(st.sampled_from((101, P)))
    nvars = draw(st.integers(2, 3))
    ring = Ring(tuple("xyz"[:nvars]), PrimeField(p),
                MonomialOrder(draw(st.sampled_from(["degrevlex", "lex"]))))
    mon = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)) \
        .filter(any)
    gens = st.dictionaries(mon, coeff, min_size=1, max_size=3)
    return (ring, draw(st.lists(gens, min_size=2, max_size=3)),
            random.Random(draw(st.integers(0, 2 ** 32))))


def _at(ring, gens, a):
    p = ring.field.p
    return [ring.from_dict({m: (c0 + c1 * a) % p for m, (c0, c1) in g.items()})
            for g in gens]


@settings(max_examples=100, deadline=None)
@given(parametric_cases())
def test_replay_is_groebner_or_fail_on_parametric_ideals(case):
    ring, gens, rng = case
    p = ring.field.p
    learn_at = _at(ring, gens, rng.randrange(p))
    if all(g.is_zero() for g in learn_at):
        return
    _, trace = gb_learn(ring, learn_at)
    for _ in range(4):
        spec = _at(ring, gens, rng.randrange(p))
        if all(g.is_zero() for g in spec):
            continue
        replay = gb_apply(ring, spec, trace)
        if replay is FAIL:
            assert p != P       # a random point of a 62-bit field is regular
            continue
        # a fresh trace runs its zero reductions in full, so even a learn
        # at a special point replays to FAIL or the GB
        assert [g.terms for g in replay] \
            == [g.terms for g in groebner(ring, spec)]


@st.composite
def packed_order_cases(draw):
    """(ring, generators, probes) in 3 variables over a 62-bit prime."""
    ring = Ring(("x", "y", "z"), FP,
                MonomialOrder(draw(st.sampled_from(["degrevlex", "lex"]))))

    def polys(max_terms, max_exp):
        mon = st.tuples(*[st.integers(0, max_exp)] * 3)
        terms = st.dictionaries(mon, st.integers(1, P - 1), min_size=1,
                                max_size=max_terms)
        return st.lists(terms.map(ring.from_dict), min_size=1, max_size=3)

    return ring, draw(polys(3, 2)), draw(polys(6, 3))


@settings(max_examples=150, deadline=None)
@given(packed_order_cases())
def test_packed_results_keep_ring_order(case):
    # ReducedGB unpacks packed term lists in place: packed integer order
    # must be the ring order, for basis elements and normal forms alike
    ring, gens, probes = case
    key = ring.order.key

    def canonical(f):
        return (f.terms == ring.from_dict(dict(f.terms)).terms
                and all(0 < c < P for _, c in f.terms))

    gb = groebner(ring, gens)
    assert all(canonical(g) for g in gb)
    lms = [key(g.leading_monomial()) for g in gb]
    assert lms == sorted(set(lms))
    for h in probes + gens:
        assert canonical(gb.normal_form(h))
        for m in h.support():
            nf = gb.normal_form(ring.from_dict({m: 1}))
            plus = _nonconstant_terms(gb, m)
            assert canonical(nf) and all(0 < c < P for c in plus.values())
            assert plus == {t: c for t, c in nf.terms if any(t)}
