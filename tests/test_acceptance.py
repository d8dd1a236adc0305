"""End-to-end acceptance checks on the fixture corpus.

Every field-equality assertion runs at two independent 62-bit primes (see
conftest.fields_equal_2p).
"""

import json
import random
import time
from fractions import Fraction

import pytest

from fieldsimp.arith import production_prime
from fieldsimp.fields import MembershipContext, polynomial_generators
from fieldsimp.groebner import TRACE_DIVERGED, gb_apply, gb_learn, groebner
from fieldsimp.interp import (FAIL, Blackbox, estimate_degrees,
                              interpolate_rational)
from fieldsimp.oms import (EomsEvaluator, GeneratorSet, coefficient_row,
                           gb_coefficients, gb_ring, specialize_eoms)
from fieldsimp.poly import PrimeField, QQ, RationalFunction, Ring
from fieldsimp.simplify import (_normalize_monic_num, reconstruct_candidates,
                                simplicity_key)

from conftest import (ALL_FIXTURES, CHECK_PRIMES, apply_map,
                      fields_equal_2p, fixture_automorphisms, genset_of,
                      load_fixture, parse_many, simplify_fixture)
from oracle import (OracleTooHard, fp_echelon, in_fp_span, proportional,
                    symbolic_gb_coefficients, symbolic_membership_space)

FIELDS = tuple(PrimeField(p) for p in CHECK_PRIMES)
HARVEST_FIELD = PrimeField(production_prime(16))


def out_genset(genset, output):
    return GeneratorSet(genset.ring, output)


def lifted_coefficients(genset, cutoff, field, seed, evaluator=None):
    """Harvest GB coefficients mod p, lift to Q, normalize up to scaling,
    drop constants, dedup up to proportionality."""
    ring = gb_ring(genset, field, genset.ring.order)
    rng = random.Random(seed)
    report = gb_coefficients(evaluator or EomsEvaluator(genset, ring, rng),
                             cutoff)
    assert report is not FAIL
    pairs = [(num.terms, den.terms) for num, den in report.interpolated()]
    lifted = reconstruct_candidates(pairs, genset.ring, field.p)
    out = []
    for rf in lifted:
        if rf.num.is_constant():
            continue
        rf = _normalize_monic_num(rf)
        if not any(proportional(rf, other) for other in out):
            out.append(rf)
    return out, report


# ----------------------------------------------------------------------
# 1. symmetric power sums in two variables


def test_criterion_1_symmetric_power_sums():
    genset, runs = simplify_fixture("example_sym")
    output, _report, seconds = runs[0]
    assert seconds < 5
    target = genset_of(genset.ring, ["x1 + x2", "x1*x2"])
    assert fields_equal_2p(out_genset(genset, output), target) is True
    got = sorted(simplicity_key(g) for g in output)
    orig = sorted(simplicity_key(g) for g in genset.generators)
    assert len(got) <= len(orig)
    for a, b in zip(got, orig):
        assert a <= b


# ----------------------------------------------------------------------
# 2. squared triangle altitudes


def test_criterion_2_heron():
    genset, runs = simplify_fixture("heron")
    output, _report, seconds = runs[0]
    assert seconds < 30
    target = genset_of(genset.ring, ["a^2", "b^2", "c^2"])
    assert fields_equal_2p(out_genset(genset, output), target) is True


# ----------------------------------------------------------------------
# 3. SEIR34 staged harvest trace

SEIR_ORDER = ["k", "N", "beta", "eps", "gamma", "mu", "r"]


def test_criterion_3_seir_staged_trace():
    t0 = time.monotonic()
    genset = load_fixture("seir34", var_order=SEIR_ORDER)
    gens = dict(zip(SEIR_ORDER,
                    (RationalFunction(g) for g in genset.ring.gens())))
    k, N, beta = gens["k"], gens["N"], gens["beta"]
    eps, gamma, mu, r = gens["eps"], gens["gamma"], gens["mu"], gens["r"]

    def spans(candidates, targets):
        for t in targets:
            if not any(proportional(c, t) for c in candidates):
                return False
        return True

    got1, _ = lifted_coefficients(genset, 1, HARVEST_FIELD, seed=31)
    assert spans(got1, [mu, eps + gamma, N])
    assert len(got1) == 3

    got2, _ = lifted_coefficients(genset, 2, HARVEST_FIELD, seed=32)
    assert spans(got2, [mu, eps + gamma, N, eps * gamma, k / gamma])

    got4, _ = lifted_coefficients(genset, 4, HARVEST_FIELD, seed=34)
    assert spans(got4, [mu, eps + gamma, N, eps * gamma, k / gamma,
                        beta * r / gamma])

    # field equality first holds at d = 4
    assert fields_equal_2p(genset, out_genset(genset, got1)) is False
    assert fields_equal_2p(genset, out_genset(genset, got2)) is False
    assert fields_equal_2p(genset, out_genset(genset, got4)) is True
    assert time.monotonic() - t0 < 60

    default_genset, runs = simplify_fixture("seir34")
    output, _report, seconds = runs[0]
    assert seconds < 60
    target = genset_of(default_genset.ring,
                       ["mu", "N", "eps + gamma", "eps*gamma", "k*eps",
                        "beta*r/gamma"])
    assert fields_equal_2p(out_genset(default_genset, output), target) is True


# ----------------------------------------------------------------------
# 4. appendix fixtures, field-equality form

APPENDIX_TARGETS = {
    "lotka_volterra": ["d", "a*b", "a + b"],
    "bruno2016": ["kbeta", "kbeta10", "kcryOH + kcrybeta"],
    "genlv": ["r1", "r2", "b11", "b21", "b12/b22"],
    "sir6": ["N", "gamma", "k/beta"],
}


@pytest.mark.parametrize("name", sorted(APPENDIX_TARGETS))
def test_criterion_4_appendix_fields(name):
    genset, runs = simplify_fixture(name)
    output, _report, seconds = runs[0]
    assert seconds < 120
    target = genset_of(genset.ring, APPENDIX_TARGETS[name])
    assert fields_equal_2p(out_genset(genset, output), target) is True


# ----------------------------------------------------------------------
# 5. bilirubin minimality behavior

BILIRUBIN_PRINTED = [
    "k01",
    "k12*k13*k14",
    "k21*k31*k41",
    "k12 + k13 + k14",
    "k21 + k31 + k41",
    "k12*k13 + k12*k14 + k13*k14",
    "k21*k31 + k21*k41 + k31*k41",
    "k12*k31 + k12*k41 + k13*k21 + k13*k41 + k14*k21 + k14*k31",
]


def test_criterion_5_bilirubin_dependent_set():
    genset, runs = simplify_fixture("bilirubin")
    output, _report, _seconds = runs[0]
    target = genset_of(genset.ring, BILIRUBIN_PRINTED)
    assert fields_equal_2p(out_genset(genset, output), target) is True
    # the printed generating set is algebraically dependent
    for i, field in enumerate(FIELDS):
        ctx = MembershipContext(target, field, random.Random(50 + i))
        assert ctx.transcendence_rank() < 8


def test_criterion_5_bilirubin_minimized():
    # The candidate pool cannot reach a 7-element generating set here: the
    # survivors are k01, the elementary symmetric functions of the two rate
    # groups, and one pairing term; permuting one group alone fixes all but
    # the pairing term, so no survivor lies in the field of the others and
    # the minimized output is inclusion-minimal at 8 elements.
    genset, runs = simplify_fixture("bilirubin", minimize=True, runs=1)
    output, report, _seconds = runs[0]
    assert report.minimized is True
    assert len(output) <= 8
    full = out_genset(genset, output)
    target = genset_of(genset.ring, BILIRUBIN_PRINTED)
    assert fields_equal_2p(full, target) is True
    for i in range(len(output)):
        rest = out_genset(genset, output[:i] + output[i + 1:])
        assert fields_equal_2p(rest, full, seed=500 + i) is False


# ----------------------------------------------------------------------
# 6. interpolation round trip


def _sparse_poly(ring, rng, max_terms, max_deg, with_constant):
    n = ring.arity
    d = {(0,) * n: 1} if with_constant else {}
    for _ in range(rng.randint(1, max_terms)):
        mon = [0] * n
        budget = rng.randint(0 if with_constant else 1, max_deg)
        for _ in range(budget):
            mon[rng.randrange(n)] += 1
        d[tuple(mon)] = rng.randrange(1, ring.field.p)
    poly = ring.from_dict(d)
    return poly if not poly.is_zero() else ring.one()


def test_criterion_6_interpolation_roundtrip():
    field = PrimeField(production_prime(30))
    rng = random.Random(606)
    t0 = time.monotonic()
    explicit_fails = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        ring = Ring(tuple("x%d" % i for i in range(1, n + 1)), field)
        num = _sparse_poly(ring, rng, 12, 8, with_constant=False)
        den = _sparse_poly(ring, rng, 11, 8, with_constant=True)

        def fn(point, num=num, den=den):
            dv = den.evaluate(point)
            if dv == 0:
                return FAIL
            return field.div(num.evaluate(point), dv)

        bb = Blackbox(n, fn)
        est = estimate_degrees(bb, 16, field, rng)
        assert est == (num.degree(), den.degree())
        got = interpolate_rational(bb, est[0], est[1], ring, rng)
        if got is FAIL:
            explicit_fails += 1
            continue
        gn, gd = got
        # exactness up to the monic-denominator normalization
        assert (gn * den - gd * num).is_zero()
    assert explicit_fails <= 1
    assert time.monotonic() - t0 < 120


# ----------------------------------------------------------------------
# 7. tracing equivalence on SEIR34 specializations


def test_criterion_7_tracing_equivalence():
    genset = load_fixture("seir34")
    field = PrimeField(production_prime(18))
    ring = gb_ring(genset, field, genset.ring.order)
    rng = random.Random(707)
    n = genset.ring.arity
    shape = genset.shape(ring)

    def draw():
        while True:
            point = tuple(rng.randrange(1, field.p) for _ in range(n))
            row = coefficient_row(shape, point, ring)
            if row is not FAIL:
                return row, specialize_eoms(genset, point, ring)

    base, base_gens = draw()
    zeros = tuple(k for k, c in enumerate(base) if not c)
    _gb0, trace = gb_learn(ring, base_gens)
    diverged = 0
    for _ in range(100):
        row, gens = draw()
        applied = gb_apply(ring, row, trace, zeros)
        if applied is TRACE_DIVERGED:
            diverged += 1
            continue
        direct = groebner(ring, gens)
        assert [g.terms for g in applied.polys] == \
            [g.terms for g in direct.polys]
    assert diverged < 5


# ----------------------------------------------------------------------
# 8. interpolated GB coefficients against the symbolic oracle


def _random_parametric_instance(seed):
    rng = random.Random(8000 + seed)
    n = rng.randint(1, 3)
    ring = Ring(tuple("x%d" % i for i in range(1, n + 1)), QQ)
    gens = []
    for _ in range(rng.randint(1, 3)):
        d = {}
        for _ in range(rng.randint(1, 3)):
            mon = [0] * n
            for _ in range(rng.randint(0, 3)):
                mon[rng.randrange(n)] += 1
            d[tuple(mon)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        num = ring.from_dict(d)
        if num.is_zero():
            num = ring.variable(0)
        den = ring.one()
        if rng.random() < 0.3:
            den = ring.variable(rng.randrange(n))
        g = RationalFunction(num, den)
        if not g.is_constant():
            gens.append(g)
    if not gens:
        return None
    return GeneratorSet(ring, gens)


def _screened_instance(seed, field):
    """Accept only instances whose coefficients are few and low-degree, so
    both the oracle and the interpolation stay desk-scale."""
    genset = _random_parametric_instance(seed)
    if genset is None:
        return None
    ring = gb_ring(genset, field, genset.ring.order)
    rng = random.Random(300 + seed)
    try:
        evaluator = EomsEvaluator(genset, ring, rng)
    except RuntimeError:
        return None
    keys = evaluator.coefficient_keys()
    if len(keys) > 12:
        return None
    for key in keys:
        est = estimate_degrees(evaluator.coefficient_blackbox(key), 8,
                               field, rng)
        if est is FAIL or est == "STOPPED":
            return None
    return genset, ring, rng, evaluator


def test_criterion_8_gb_coefficient_oracle():
    field = PrimeField(production_prime(24))
    accepted = 0
    seed = 0
    while accepted < 20:
        assert seed < 200, "instance screening rejected too many draws"
        picked = _screened_instance(seed, field)
        seed += 1
        if picked is None:
            continue
        genset, ring, rng, evaluator = picked
        try:
            expected, exp_support = symbolic_gb_coefficients(
                genset, genset.ring.order)
        except OracleTooHard:
            continue
        accepted += 1
        report = gb_coefficients(evaluator, 16)
        assert report is not FAIL
        assert not any(val[0] == "high_degree"
                       for val in report.entries.values())
        assert tuple(evaluator.support) == tuple(exp_support)
        got = {}
        for key, (status, pair, _degs) in report.entries.items():
            assert status == "ok"
            num, den = pair
            lifted = reconstruct_candidates([(num.terms, den.terms)],
                                            genset.ring, field.p)
            assert lifted != "NEED_MORE_PRIMES"
            got[key] = lifted[0]
        assert got == expected


# ----------------------------------------------------------------------
# 9. polynomial generators against the symbolic kernel


def test_criterion_9_polynomial_generator_oracle():
    genset = load_fixture("example_sym")
    field = FIELDS[0]
    rng = random.Random(909)
    basis = polynomial_generators(EomsEvaluator(
        genset, gb_ring(genset, field, genset.ring.order), rng), 2, rng)
    mons, kernel = symbolic_membership_space(genset, 2)
    assert len(kernel) == 4
    # the oracle's space holds the constants too
    basis.append(basis[0].ring.one())
    assert len(basis) == 4
    idx = {m: i for i, m in enumerate(mons)}

    def vec_poly(poly):
        row = [0] * len(mons)
        for m, c in poly.terms:
            row[idx[m]] = c
        return row

    rows_pkg = [vec_poly(b) for b in basis]
    rows_ref = [[field.from_fraction(c) for c in row] for row in kernel]
    assert fp_echelon(rows_pkg, field.p) == fp_echelon(rows_ref, field.p)


def test_criterion_9_seir_polynomial_space():
    genset = load_fixture("seir34", var_order=SEIR_ORDER)
    field = FIELDS[0]
    rng = random.Random(919)
    basis = polynomial_generators(EomsEvaluator(
        genset, gb_ring(genset, field, genset.ring.order), rng), 2, rng)
    expected = parse_many(genset.ring,
                          ["mu", "N", "eps + gamma", "k*eps", "eps*gamma"])
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


# ----------------------------------------------------------------------
# 10. membership soundness at two primes


def _in_field_candidate(genset, rng):
    gens = genset.generators

    def pick():
        return rng.choice(gens)

    def const():
        return RationalFunction(genset.ring.constant(
            Fraction(rng.randint(1, 5))))

    op = rng.randrange(5)
    if op == 0:
        return pick() * pick()
    if op == 1:
        return pick() + const() * pick()
    if op == 2:
        return pick() * pick() + pick()
    if op == 3:
        return pick() * pick() - const() * pick()
    return pick() + pick() + const()


def _moved_candidate(genset, autos, rng):
    n = genset.ring.arity
    while True:
        d = {}
        for _ in range(rng.randint(1, 4)):
            mon = [0] * n
            for _ in range(rng.randint(1, 3)):
                mon[rng.randrange(n)] += 1
            d[tuple(mon)] = Fraction(rng.randint(-5, 5) or 1)
        f = RationalFunction(genset.ring.from_dict(d))
        if f.is_constant():
            continue
        if any(apply_map(sigma, f) != f for sigma in autos):
            return f


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_criterion_10_membership_soundness(name):
    genset = load_fixture(name)
    autos = fixture_automorphisms(name, genset.ring)
    # each map really is an automorphism of the field: it fixes the input
    for sigma in autos:
        for g in genset.generators:
            assert apply_map(sigma, g) == g
    fix_seed = ALL_FIXTURES.index(name)
    contexts = [MembershipContext(genset, field,
                                  random.Random(4000 + 10 * fix_seed + i))
                for i, field in enumerate(FIELDS)]
    rng = random.Random(5000 + fix_seed)
    for _ in range(50):
        cand = _in_field_candidate(genset, rng)
        for ctx in contexts:
            assert ctx.contains(cand) is True
    for _ in range(50):
        cand = _moved_candidate(genset, autos, rng)
        for ctx in contexts:
            assert ctx.contains(cand) is False


# ----------------------------------------------------------------------
# 11. determinism


def test_criterion_11_determinism():
    for name in ALL_FIXTURES:
        _genset, runs = simplify_fixture(name)
        docs = [json.dumps(rep.to_json_dict(), sort_keys=True)
                for _out, rep, _sec in runs[:2]]
        assert docs[0] == docs[1], name
        assert json.loads(docs[0])["verified"] is True
