import heapq
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsimp import groebner as groebner_module
from fieldsimp import oms as oms_module
from fieldsimp.arith import FAIL, PrimeField, production_prime
from fieldsimp.groebner import (TRACE_DIVERGED, ExponentOverflow, gb_apply,
                                gb_learn, gb_replay, gb_verify, groebner)
from fieldsimp.oms import EomsEvaluator, gb_ring, specialize_eoms
from fieldsimp.poly import LEX, MonomialOrder, Ring

from conftest import fields_equal_2p, load_fixture

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


def test_exponent_overflow_raises():
    # under lex the basis of <x + y^65535, x y> holds y^65536, past the
    # 16-bit exponent field: the S-polynomial y^65536 overflows (unchecked,
    # it reads as a wrong basis [y^65535, x]); in the third ideal the
    # reduction of the S-polynomial x y^65535 - 1 does
    ring = Ring(("x", "y"), FP, LEX)
    x, y = ring.gens()
    for gens in ([x + y ** 65535, x * y], [x + y ** 65535, x * y + ring.one()],
                 [x + y ** 65535, x * x + ring.one()]):
        for run in (groebner, gb_learn):
            with pytest.raises(ExponentOverflow, match="65535"):
                run(ring, gens)
    with pytest.raises(ExponentOverflow):
        groebner(ring, [x + y ** 65535]).normal_form(x * y)
    gb = groebner(ring, [x + y ** 65534, x * y + ring.one()])
    assert gb.polys == [y ** 65535 - ring.one(), x + y ** 65534]


def test_functional_exponent_overflow_raises():
    # the functional's walk reaches the shifted monomials the normal form
    # does: y^65536 from x y, and x y^65535 on the way from x^2
    ring = Ring(("x", "y"), FP, LEX)
    x, y = ring.gens()
    gb = groebner(ring, [x + y ** 65535])
    for h in (x * y, x * x):
        with pytest.raises(ExponentOverflow, match="65535"):
            gb.normal_form(h)
        with pytest.raises(ExponentOverflow, match="65535"):
            gb.normal_form(h, random.Random(0))
    assert gb.normal_form(x + y ** 65535, random.Random(0)) == 0


@pytest.mark.parametrize("order", [R2.order, LEX], ids=["degrevlex", "lex"])
@pytest.mark.parametrize("top", [65536, 70000])
def test_every_entry_point_packs_through_the_checked_codec(order, top):
    # an input exponent past 65535 raises at the packing; unchecked, it
    # would wrap into a wrong basis (x^70000 reads as x^4464 y in degrevlex)
    ring = Ring(("x", "y"), FP, order)
    x, y = ring.gens()
    big = x ** top
    gb = groebner(ring, [x * x - y])
    for run in (lambda: groebner(ring, [big]),
                lambda: gb_learn(ring, [big - y]),
                lambda: gb.normal_form(big),
                lambda: gb.normal_form(big + y, random.Random(0)),
                lambda: gb.compile_normal_forms([(1, 0), (top, 0)])):
        with pytest.raises(ExponentOverflow, match="65535"):
            run()
    # and 65535 itself still packs
    assert gb.normal_form(x ** 65535) == x * y ** 32767


def test_functional_reads_packed_terms_in_any_order():
    # a dict of packed terms, shuffled and with zero coefficients, reads as
    # the MultiPoly it packs: the same normal form, and the same phi on a
    # twin basis, weight for weight
    x, y = R2.gens()
    gb, twin = (groebner(R2, [x * x + y, x * y - R2.one()]) for _ in range(2))
    weights, twin_weights = random.Random(0), random.Random(0)
    rng = random.Random(3)
    for _ in range(8):
        h = _random_poly(R2, rng)
        terms = [(gb.pack(m), c) for m, c in h.terms]
        terms += [(gb.pack((e, 9)), 0) for e in range(3)]
        rng.shuffle(terms)
        packed = dict(terms)
        assert gb.normal_form(packed) == twin.normal_form(h)
        assert gb.normal_form(packed, weights) == \
            twin.normal_form(h, twin_weights)
        assert packed == dict(terms)
    assert gb._phi == twin._phi


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


def _condition_rows(gb, monomials, at=None):
    """The normal forms of `monomials` planned at `gb`, read at `at` (by
    default `gb` itself), every row live, in row order."""
    plan = gb.compile_normal_forms(monomials)
    return list((at or gb).condition_rows(plan, range(plan[0])).values())


def _reference_rows(gb, monomials):
    """The condition rows read off `normal_form`: per nonconstant monomial
    of the normal forms, ascending, {index of a monomial: coefficient}."""
    rows = {}
    for i, m in enumerate(monomials):
        for t, c in gb.normal_form(gb.ring.from_dict({m: 1})).terms:
            if any(t):
                rows.setdefault(t, {})[i] = c
    return [rows[t] for t in sorted(rows, key=gb.ring.order.key)]


def test_compiled_normal_forms_examples():
    gb_y = groebner(R2, [R2.variable(1)])
    assert _condition_rows(gb_y, [(0, 0)]) == []
    assert _condition_rows(gb_y, [(1, 0)]) == [{0: 1}]
    gb3 = groebner(R2, [R2.variable(0) ** 2 - R2.from_int(5)])
    assert _condition_rows(gb3, [(2, 0)]) == []
    assert _condition_rows(gb3, [(3, 0)]) == [{0: 5}]
    # equal monomials share a condition row, different ones do not
    assert _condition_rows(gb_y, [(1, 0), (1, 0), (2, 0)]) \
        == [{0: 1, 1: 1}, {2: 1}]


def test_compiled_normal_forms_replay():
    # x^3 = (a^2 + b) x + a b modulo x^2 - a x - b: its x term cancels at
    # a = 2, b = -4 and not at a = 2, b = -3, on the same support; a plan
    # made at either reads the normal forms at both
    ring = Ring(("x",), FP)
    x, one = ring.variable(0), ring.one()
    special = groebner(ring, [x * x - 2 * x + 4 * one])
    regular = groebner(ring, [x * x - 2 * x + 3 * one])
    monomials = [(3,), (2,), (1,), (0,)]
    assert _reference_rows(special, monomials) == [{1: 2, 2: 1}]
    assert _reference_rows(regular, monomials) == [{0: 1, 1: 2, 2: 1}]
    for planned_at in (special, regular):
        for gb in (special, regular):
            assert _condition_rows(planned_at, monomials, at=gb) \
                == _reference_rows(gb, monomials)


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
    p = f.ring.field.p
    lcm = tuple(map(max, f.leading_monomial(), g.leading_monomial()))
    d = {}
    for h, sign in ((f, 1), (g, -1)):
        shift = [x - y for x, y in zip(lcm, h.leading_monomial())]
        c = sign * pow(h.leading_coefficient(), -1, p)
        for m, cf in h.terms:
            k = tuple(x + y for x, y in zip(m, shift))
            d[k] = (d.get(k, 0) + cf * c) % p
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


@st.composite
def sympy_cases(draw):
    """(ring, generators as dicts) in 1-3 variables over F_P, some with a
    constant input and some with a copy of an input up to a scalar."""
    nvars = draw(st.integers(1, 3))
    ring = Ring(tuple("xyz"[:nvars]), FP,
                MonomialOrder(draw(st.sampled_from(["degrevlex", "lex"]))))
    mon = st.tuples(*[st.integers(0, 2)] * nvars)
    gens = draw(st.lists(st.dictionaries(mon, st.integers(1, P - 1),
                                         min_size=1, max_size=3),
                         min_size=1, max_size=3))
    if draw(st.booleans()):
        scalar = draw(st.integers(2, P - 1))
        gens.append({m: c * scalar % P for m, c in draw(
            st.sampled_from(gens)).items()})
    if draw(st.integers(0, 5)) == 0:
        gens.append({(0,) * nvars: draw(st.integers(1, P - 1))})
    return ring, draw(st.permutations(gens))


@settings(max_examples=150, deadline=None)
@given(sympy_cases())
def test_groebner_matches_sympy(case):
    # the reduced basis is unique, so no pair order may change it
    ring, gens = case
    symbols = sympy.symbols(ring.vars)
    exprs = [sum(c * sympy.prod(s ** e for s, e in zip(symbols, m))
                 for m, c in g.items()) for g in gens]
    want = set()
    for g in sympy.groebner(exprs, *symbols, modulus=P, order={
            "degrevlex": "grevlex", "lex": "lex"}[ring.order.kind]).polys:
        d = {m: int(c) % P for m, c in g.terms()}
        inv = pow(d[max(d, key=ring.order.key)], -1, P)
        want.add(frozenset((m, c * inv % P) for m, c in d.items()))
    got = groebner(ring, [ring.from_dict(g) for g in gens])
    assert {frozenset(g.terms) for g in got} == want


@pytest.mark.parametrize("name,order,bound", [
    ("bilirubin", "degrevlex", 1600), ("bilirubin", "lex", 1700),
    ("obscured4", "lex", 400_000)])
def test_sugar_strategy_keeps_replays_small(name, order, bound):
    # under the normal strategy these traces replay in 10,689, 3,615 and
    # 1,864,863 multiply-subtracts, and under sugar in 1,439, 1,518 and
    # 342,920 (the learn at Random(0), production_prime(0))
    genset = load_fixture(name, order=order)
    ring = gb_ring(genset, FP, MonomialOrder(order))
    trace = EomsEvaluator(genset, ring, random.Random(0)).trace
    # a replay of the verified trace runs every step of its programs and
    # the first step of each quick check
    programs = [program[2] for program in trace.programs]
    programs += [steps for (_, _, steps), _ in trace.checks]
    assert sum(len(row) for steps in programs for _, _, row in steps) <= bound


@pytest.mark.parametrize("name", ["sir6", "lotka_volterra", "bruno2016"])
def test_replay_fills_slots_only_for_programs_with_steps(name, monkeypatch):
    # most minimal elements come out of interreduction unchanged; their
    # programs have no steps, and the slot plan gives them no region: the
    # element keeps the positions of the one it copies
    genset = load_fixture(name)
    ring = gb_ring(genset, FP)
    ev = EomsEvaluator(genset, ring, random.Random(0))
    trace = ev.trace
    copies = sum(not program[2] for program in trace.programs)
    assert copies
    calls = []
    replay = oms_module.gb_replay

    def counting(ring, row, trace, zeros=()):
        calls.extend(program for programs, _ in trace.plan[2]
                     for program in programs)
        calls.extend(trace.checks)
        return replay(ring, row, trace, zeros)

    monkeypatch.setattr(oms_module, "gb_replay", counting)
    rng = random.Random(1)
    point = tuple(rng.randrange(1, P) for _ in range(genset.ring.arity))
    gens = specialize_eoms(genset, point, ring)
    assert ev.gb(point).polys == groebner(ring, gens).polys
    assert len(calls) == len(trace.programs) - copies + len(trace.checks)


def test_replay_inverts_once_per_dependency_level(monkeypatch):
    # seir34's trace holds 10 inputs and 10 new elements; a replay makes
    # one modular inverse per dependency level, not one per element
    genset = load_fixture("seir34")
    ring = gb_ring(genset, FP)
    ev = EomsEvaluator(genset, ring, random.Random(0))
    levels = ev.trace.plan[2]
    elements = sum(len(news) for _, news in levels)
    rng = random.Random(1)
    point = tuple(rng.randrange(1, P) for _ in range(genset.ring.arity))
    want = groebner(ring, specialize_eoms(genset, point, ring)).polys
    calls = []

    def counting(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(groebner_module, "pow", counting, raising=False)
    assert ev.gb(point).polys == want
    assert len(calls) == len(levels) < elements
    assert all(args[1:] == (-1, P) for args in calls)


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
    # follows the trace, but learned output terms vanish
    _, fresh = gb_learn(R2, [x * x + 2 * x + y, x * y + 3 * y - one])
    special = [x * x + y, x * y - one]
    assert gb_apply(R2, special, fresh) is FAIL
    assert gb_verify(R2, special, fresh) is FAIL
    assert gb_verify(R2, [x * x + 5 * x + y, x * y + 7 * y - one], fresh) \
        is not FAIL


def test_replay_of_a_constant_input_is_the_learned_unit_ideal_or_fail():
    x, y = R2.gens()
    one = R2.one()
    # a learn that does not reach the unit ideal: a constant input is FAIL
    _, trace = gb_learn(R2, [x * x + y, x * y - one])
    assert gb_apply(R2, [x * x + y, 3 * one], trace) is FAIL
    # learns that reach it, with or without a constant input, replay like
    # any other trace: to [1] on their learned supports, FAIL off them
    for gens, same in (([x * x + y, 2 * one], [3 * x * x + 5 * y, 7 * one]),
                       ([x, x * y - one], [2 * x, 3 * x * y - 5 * one])):
        gb, trace = gb_learn(R2, gens)
        assert gb.polys == [one]
        assert gb_apply(R2, same, trace).polys == [one]
        assert gb_apply(R2, [x * y, 5 * one], trace) is FAIL


def test_replay_fails_on_a_vanished_tail_coefficient():
    x, y = R2.gens()
    one = R2.one()
    # the learn's GB is [x - 1, y + 2]; at x^2 + y the learned term 1 has
    # vanished, while no output term would: the input is off its support
    _, trace = gb_learn(R2, [x * x + y + one, x - one])
    assert gb_apply(R2, [x * x + y, x - one], trace) is FAIL
    again = [x * x + y + 3 * one, x - one]
    assert gb_apply(R2, again, trace).polys == groebner(R2, again).polys


def test_replay_fails_on_a_vanished_output_term():
    x, y = R2.gens()

    def gens(a, b, c):
        return [x + R2.from_int(a), y + x.scale(b) + R2.from_int(c)]

    # the GB of [x + a, y + b x + c] is [y + c - a b, x + a]: at c = a b its
    # learned constant vanishes, while every input keeps its support and
    # the programs run as learned
    gb, fresh = gb_learn(R2, gens(1, 1, 2))
    assert [g.render() for g in gb] == ["y + 1", "x + 1"]
    trace = gb_verify(R2, gens(3, 5, 4), fresh)
    assert [g.render() for g in groebner(R2, gens(1, 1, 1))] == ["y", "x + 1"]
    for learned in (fresh, trace):
        assert gb_apply(R2, gens(1, 1, 1), learned) is FAIL
        again = gens(2, 3, 7)
        assert gb_apply(R2, again, learned).polys == groebner(R2, again).polys


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
    # the learn on [x^2 - x, x^2 - 1] ends at [x - 1], short of the unit
    # ideal; replayed on [3x^2 + x, 2x^2 + 3], whose basis is [1], the
    # trace must diverge, not run to a basis [x - c]
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
def parametric_cases(draw, primes=(101, P)):
    """(ring, generators, rng) in 2-3 variables: each generator is a dict
    monomial -> (c0, c1), the coefficient c0 + c1 a at the parameter a."""
    p = draw(st.sampled_from(primes))
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


def _row(ring, gens, a):
    p = ring.field.p
    return [(c0 + c1 * a) % p for g in gens for _, (c0, c1) in sorted(
        g.items(), key=lambda t: ring.order.key(t[0]), reverse=True)]


@settings(max_examples=100, deadline=None)
@given(parametric_cases())
def test_replay_is_groebner_or_fail_on_parametric_ideals(case):
    ring, gens, rng = case
    p = ring.field.p
    a = rng.randrange(p)
    learn_at = _at(ring, gens, a)
    if all(g.is_zero() for g in learn_at):
        return
    _, trace = gb_learn(ring, learn_at)
    zeros = tuple(k for k, c in enumerate(_row(ring, gens, a)) if not c)
    for _ in range(4):
        a = rng.randrange(p)
        spec = _at(ring, gens, a)
        if all(g.is_zero() for g in spec):
            continue
        # the MultiPoly entry, and the row of every generator's coefficients
        # on its monomials, zeros kept, with the learn point's zeros
        for replay in (gb_apply(ring, spec, trace),
                       gb_replay(ring, _row(ring, gens, a), trace, zeros)):
            if replay is FAIL:
                assert p != P   # a random point of a 62-bit field is regular
                continue
            # a fresh trace runs its zero reductions in full, so even a
            # learn at a special point replays to FAIL or the GB
            assert [g.terms for g in replay] \
                == [g.terms for g in groebner(ring, spec)]


@settings(max_examples=100, deadline=None)
@given(parametric_cases(primes=(P,)))
def test_normal_form_table_matches_normal_form(case):
    # a plan made at one GB, read at it and at the replay of its trace at
    # another point, against the rows read off normal_form at each
    ring, gens, rng = case
    learn_at = _at(ring, gens, rng.randrange(P))
    if all(g.is_zero() for g in learn_at):
        return
    gb, trace = gb_learn(ring, learn_at)
    monomials = [tuple(rng.randint(0, 3) for _ in ring.vars)
                 for _ in range(rng.randint(1, 6))]
    plan = gb.compile_normal_forms(monomials)
    assert _condition_rows(gb, monomials) == _reference_rows(gb, monomials)
    other = gb_apply(ring, _at(ring, gens, rng.randrange(P)), trace)
    if other is not FAIL:
        assert other.packed_support() == gb.packed_support()
        assert list(other.condition_rows(plan, range(plan[0])).values()) \
            == _reference_rows(other, monomials)


@settings(max_examples=100, deadline=None)
@given(parametric_cases(primes=(P,)))
def test_condition_rows_read_live_rows_alone(case):
    # a random subset of the rows, in random order, read at the learned GB
    # and at a replay: the reference rows of those rows alone, in that
    # order; the rows are numbered by the full read, whose rows in order
    # are the reference rows
    ring, gens, rng = case
    learn_at = _at(ring, gens, rng.randrange(P))
    if all(g.is_zero() for g in learn_at):
        return
    gb, trace = gb_learn(ring, learn_at)
    monomials = [tuple(rng.randint(0, 3) for _ in ring.vars)
                 for _ in range(rng.randint(1, 6))]
    plan = gb.compile_normal_forms(monomials)
    rows = plan[0]
    for at in (gb, gb_apply(ring, _at(ring, gens, rng.randrange(P)), trace)):
        if at is FAIL:
            continue
        reference = _reference_rows(at, monomials)
        full = at.condition_rows(plan, range(rows))
        assert list(full.values()) == reference
        reference = dict(zip(full, reference))
        live = rng.sample(range(rows), rng.randint(0, rows))
        assert list(at.condition_rows(plan, live).items()) \
            == [(r, reference[r]) for r in live if r in reference]
        assert at.condition_rows(plan, []) == {}


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
            rows = _condition_rows(gb, [m])
            assert canonical(nf) and all(0 < c < P for row in rows
                                         for c in row.values())
            assert rows == _reference_rows(gb, [m])


def _reference_reduce_full(work, lms, tails, codec, p, steps=None):
    """The reduction kernel as it was before its values were left unreduced
    and its divisor searches memoized: the reference for its results."""
    CONST, GUARDS = codec.CONST, codec.GUARDS
    out = {}
    heap = [-m for m in work]
    heapq.heapify(heap)
    queued = set(work)
    while heap:
        m = -heapq.heappop(heap)
        queued.discard(m)
        c = work.pop(m, 0)
        if c == 0:
            continue
        base = m + CONST
        for idx, lm in enumerate(lms):
            q = base - lm
            if q >= 0 and not (q & GUARDS):
                q -= CONST
                if steps is not None:
                    steps.append((m, idx, q))
                for tm, tc in tails[idx]:
                    mm = q + tm
                    v = (work.get(mm, 0) - c * tc) % p
                    if v:
                        work[mm] = v
                        if mm not in queued:
                            queued.add(mm)
                            heapq.heappush(heap, -mm)
                    else:
                        work.pop(mm, None)
                break
        else:
            out[m] = c
    return out


@st.composite
def kernel_cases(draw):
    """(codec, p, basis, probes): monic packed term lists, in no particular
    relation to each other, and packed term dicts to reduce by them."""
    p = draw(st.sampled_from((101, P)))
    n = draw(st.integers(2, 3))
    codec = groebner_module._Codec(
        n, draw(st.sampled_from(["degrevlex", "lex"])))

    def dicts(max_exp, low, max_size):
        mon = st.tuples(*[st.integers(0, max_exp)] * n).map(codec.pack)
        return st.dictionaries(mon, st.integers(low, p - 1), min_size=1,
                               max_size=max_size)

    basis = draw(st.lists(dicts(3, 1, 4), min_size=1, max_size=5))
    basis = [groebner_module._monic_terms(d, p) for d in basis]
    return codec, p, basis, draw(st.lists(dicts(5, 0, 6), min_size=1,
                                          max_size=4))


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_reduce_full_matches_the_reference_kernel(case):
    # the basis grows one element at a time, as in a Buchberger run, and
    # one memo serves every reduction
    codec, p, basis, probes = case
    lms, tails, memo = [], [], {}
    for g in basis:
        lms.append(g[0][0])
        tails.append(g[1:])
        for d in probes:
            want_steps, got_steps = [], []
            want = _reference_reduce_full(dict(d), lms, tails, codec, p,
                                          want_steps)
            got = groebner_module._reduce_full(dict(d), lms, tails, codec, p,
                                               got_steps, memo)
            assert list(got.items()) == list(want.items())
            assert got_steps == want_steps


class _CountingList(list):
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return list.__getitem__(self, i)


def test_reduce_full_memo_skips_the_divisor_search():
    ring = Ring(("x", "y", "z"), FP)
    x, y, z = ring.gens()
    gb = groebner(ring, [x * x + y * z, y * y - x * z + ring.one(),
                         z ** 3 - x])
    codec = gb._codec
    lms, memo = _CountingList(gb._plms), {}
    probe = {codec.pack(m): c for m, c in ((x + y + z) ** 5).terms}
    runs = []
    for _ in range(2):
        lms.reads, steps = 0, []
        rem = groebner_module._reduce_full(dict(probe), lms, gb._ptails,
                                           codec, P, steps, memo)
        runs.append((rem, steps, lms.reads))
    (rem, steps, first), (rem2, steps2, second) = runs
    assert (rem, steps) == (rem2, steps2) and steps
    # the second run reads a leading monomial only for each step's
    # multiplier: every divisor comes from the memo
    assert first > len(steps) and second == len(steps)
