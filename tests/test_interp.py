import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldsimp import interp
from fieldsimp.arith import PrimeField, production_prime
from fieldsimp.interp import (FAIL, Blackbox, admissible_ratio, ben_or_tiwari,
                              cauchy_interpolate, estimate_degrees,
                              interpolate_rational)
from fieldsimp.poly import Ring

P = production_prime(0)
FP = PrimeField(P)


def bb_of(num, den):
    """Blackbox for num/den, both MultiPoly over F_p."""
    ring = num.ring

    def fn(point):
        dv = den.evaluate(point)
        if dv == 0:
            return FAIL
        return num.evaluate(point) * pow(dv, -1, P) % P

    return Blackbox(ring.arity, fn)


def _ring(n):
    return Ring(tuple("x%d" % (i + 1) for i in range(n)), FP)


def test_cauchy_constant():
    got = cauchy_interpolate([1, 2], [5, 5], 0, 0, FP)
    assert got == ([5], [1])


def test_cauchy_one_over_u_plus_one():
    pts = [0, 1, 2, 3]
    vals = [pow(u + 1, -1, P) for u in pts]
    got = cauchy_interpolate(pts, vals, 0, 1, FP)
    assert got == ([1], [1, 1])


def test_cauchy_bound_too_small():
    pts = [1, 2, 3, 4]
    vals = [u * u % P for u in pts]
    assert cauchy_interpolate(pts, vals, 1, 0, FP) is FAIL


def test_cauchy_requires_enough_points():
    with pytest.raises(ValueError):
        cauchy_interpolate([1, 2], [1, 1], 1, 1, FP)
    with pytest.raises(ValueError):
        cauchy_interpolate([1, 1, 2, 3], [1, 1, 1, 1], 1, 1, FP)


def test_cauchy_random_rational_roundtrip():
    rng = random.Random(8)
    for _ in range(20):
        da, db = rng.randint(0, 3), rng.randint(0, 3)
        num = [rng.randrange(P) for _ in range(da)] + [rng.randrange(1, P)]
        den = [rng.randrange(P) for _ in range(db)] + [1]
        pts = list(range(1, da + db + 2 + 1))
        vals = []
        for u in pts:
            nv = sum(c * pow(u, i, P) for i, c in enumerate(num)) % P
            dv = sum(c * pow(u, i, P) for i, c in enumerate(den)) % P
            vals.append(nv * pow(dv, -1, P) % P)
        got = cauchy_interpolate(pts, vals, da, db, FP)
        assert got is not FAIL
        gn, gd = got
        for u in pts:
            nv = sum(c * pow(u, i, P) for i, c in enumerate(gn)) % P
            dv = sum(c * pow(u, i, P) for i, c in enumerate(gd)) % P
            fv = sum(c * pow(u, i, P) for i, c in enumerate(num)) % P \
                * pow(sum(c * pow(u, i, P) for i, c in enumerate(den)), -1, P)
            assert nv == dv * fv % P


@functools.cache
def _upolys(p, deg, monic):
    """Every polynomial over F_p of degree <= deg, or every monic one, as an
    ascending coefficient tuple without leading zeros."""
    if monic:
        return [c + (1,) for k in range(deg + 1)
                for c in itertools.product(range(p), repeat=k)]
    out = []
    for c in itertools.product(range(p), repeat=deg + 1):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        out.append(tuple(c))
    return out



def _uvalue(c, x, p):
    return sum(a * pow(x, i, p) for i, a in enumerate(c)) % p


@st.composite
def cauchy_cases(draw):
    """(p, points, values, deg_num, deg_den) at a small prime: random values,
    or those of a random rational function, often with a pole at a sample
    point (a random value there), so that non-coprime EEA pairs occur."""
    p = draw(st.sampled_from((5, 7, 11)))
    deg_num = draw(st.integers(0, 2))
    deg_den = draw(st.integers(0, 3 - deg_num))
    n = draw(st.integers(deg_num + deg_den + 2, p))
    points = draw(st.permutations(range(p)))[:n]
    coeff = st.integers(0, p - 1)
    if draw(st.booleans()):
        return p, points, draw(st.lists(coeff, min_size=n, max_size=n)), \
            deg_num, deg_den
    num = draw(st.lists(coeff, max_size=deg_num + 2))
    den = draw(st.lists(coeff, max_size=deg_den)) + [1]
    if draw(st.booleans()):
        den = interp._umul(den, [-draw(st.sampled_from(points)) % p, 1], p)
    values = []
    for u in points:
        dv = _uvalue(den, u, p)
        values.append(draw(coeff) if dv == 0
                      else _uvalue(num, u, p) * pow(dv, -1, p) % p)
    return p, points, values, deg_num, deg_den


@settings(max_examples=150, deadline=None)
@given(cauchy_cases())
def test_cauchy_fails_exactly_when_no_pair_fits(case):
    # brute force: every (num, den) within the bounds, den monic and nonzero
    # at every sample, with num(u) = den(u) v at every sample
    p, points, values, deg_num, deg_den = case
    fits = [(num, den) for den in _upolys(p, deg_den, True)
            if all(_uvalue(den, u, p) for u in points)
            for num in _upolys(p, deg_num, False)
            if all(_uvalue(num, u, p) == _uvalue(den, u, p) * v % p
                   for u, v in zip(points, values))]
    got = cauchy_interpolate(points, values, deg_num, deg_den, PrimeField(p))
    if not fits:
        assert got is FAIL
    else:
        # the pair in lowest terms: the one fit of least den degree
        least = min(len(den) for _, den in fits)
        assert [(tuple(got[0]), tuple(got[1]))] == \
            [fit for fit in fits if len(fit[1]) == least]


@st.composite
def prony_cases(draw):
    """(p, evals, terms) at a small prime: a random sequence of even length
    2T (terms None), or the sum of at most T terms c*root^i with distinct
    nonzero roots and nonzero c (terms their sorted (root, c) pairs)."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13, 101)))
    t = draw(st.integers(1, 4))
    if draw(st.booleans()):
        evals = draw(st.lists(st.integers(0, p - 1), min_size=2 * t,
                              max_size=2 * t))
        return p, evals, None
    terms = draw(st.dictionaries(st.integers(1, p - 1), st.integers(1, p - 1),
                                 max_size=t))
    evals = [sum(c * pow(r, i, p) for r, c in terms.items()) % p
             for i in range(2 * t)]
    return p, evals, sorted(terms.items())


@settings(max_examples=300, deadline=None)
@given(prony_cases())
@example((3, [2, 0, 2, 1, 2, 1], None))
@example((2, [0, 1, 1, 1], None))
def test_prony_never_raises_and_solves_its_prefix(case):
    p, evals, terms = case
    got = interp._prony(list(evals), PrimeField(p), {})
    if terms is not None:
        assert got == terms
    if got is not FAIL:
        roots = [r for r, _ in got]
        assert len(set(roots)) == len(roots) <= len(evals) // 2
        assert 0 not in roots
        # a decomposition reproduces every one of the 2T values, not only
        # the t that the transposed Vandermonde solve fits
        for i in range(len(evals)):
            assert sum(c * pow(r, i, p) for r, c in got) % p == evals[i]


def test_ben_or_tiwari_constant():
    ring = _ring(2)
    f = ben_or_tiwari([7, 7], (2, 3), 4, ring)
    assert f == ring.from_dict({(0, 0): 7})


def test_ben_or_tiwari_single_term():
    ring = _ring(2)
    evals = [3 * pow(12, i, P) % P for i in range(2)]
    f = ben_or_tiwari(evals, (2, 3), 3, ring)
    assert f == ring.from_dict({(2, 1): 3})


def test_ben_or_tiwari_two_terms():
    ring = _ring(2)
    evals = [(pow(2, i, P) + pow(3, i, P)) % P for i in range(4)]
    f = ben_or_tiwari(evals, (2, 3), 4, ring)
    assert f == ring.from_dict({(1, 0): 1, (0, 1): 1})


def test_ben_or_tiwari_fail():
    ring = _ring(2)
    # one term whose root 5 is not a product of the ratio primes 2, 3
    assert ben_or_tiwari([3, 15], (2, 3), 4, ring) is FAIL
    # one term x1^5, above the degree bound 4
    assert ben_or_tiwari([1, 32], (2, 3), 4, ring) is FAIL
    # no single term c * r^i gives 0, 1
    assert ben_or_tiwari([0, 1], (2, 3), 4, ring) is FAIL


def test_ben_or_tiwari_random_roundtrip():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 4)
        ring = _ring(n)
        ratio = admissible_ratio(n)
        d = {}
        for _ in range(rng.randint(1, 5)):
            d[tuple(rng.randint(0, 4) for _ in range(n))] = rng.randrange(1, P)
        f = ring.from_dict(d)
        t = f.num_terms()
        evals = [f.evaluate(tuple(pow(w, i, P) for w in ratio))
                 for i in range(2 * t)]
        got = ben_or_tiwari(evals, ratio, 4 * n, ring)
        assert got == f


def test_interpolate_constant():
    ring = _ring(2)
    bb = bb_of(ring.from_dict({(0, 0): 5}), ring.one())
    got = interpolate_rational(bb, 0, 0, ring, random.Random(0))
    assert got == (ring.from_dict({(0, 0): 5}), ring.one())


def test_interpolate_symmetric_pair():
    ring = _ring(2)
    num = ring.from_dict({(1, 0): 1, (0, 1): 1})
    den = ring.from_dict({(1, 1): 1})
    bb = bb_of(num, den)
    got = interpolate_rational(bb, 1, 2, ring, random.Random(1))
    assert got == (num, den)
    # cross-multiplied identity at fresh points
    rng = random.Random(99)
    gn, gd = got
    for _ in range(20):
        pt = tuple(rng.randrange(1, P) for _ in range(2))
        assert gn.evaluate(pt) * den.evaluate(pt) % P \
            == gd.evaluate(pt) * num.evaluate(pt) % P


def test_interpolate_wrong_degree_guess_fails():
    ring = _ring(1)
    sq = ring.from_dict({(2,): 1})
    bb = bb_of(sq, ring.one())
    assert interpolate_rational(bb, 1, 0, ring, random.Random(2)) is FAIL


def test_failing_interpolation_runs_one_schedule():
    # x^3 + y + 2xy is over its degree bound 2: the doubling guess reaches
    # the term bound C(2 + 2, 2) once, reading 2 * guard sequence points
    # and at most two check points per guess, with no second gamma drawn
    ring = _ring(2)
    f = ring.from_dict({(3, 0): 1, (0, 1): 1, (1, 1): 2})
    bb = bb_of(f, ring.one())
    assert interpolate_rational(bb, 2, 0, ring, random.Random(0)) is FAIL
    guard, guesses = 6, (1, 2, 4, 6)
    assert bb.count <= 2 * guard + 2 * len(guesses)


def test_interpolate_diversification_invariance():
    ring = _ring(3)
    num = ring.from_dict({(2, 0, 0): 3, (0, 1, 1): 1})
    den = ring.from_dict({(0, 0, 1): 1, (0, 0, 0): 1})
    results = []
    for seed in (5, 6):
        bb = bb_of(num, den)
        results.append(interpolate_rational(bb, 2, 1, ring,
                                            random.Random(seed)))
    assert results[0] == results[1] == (num, den)


def test_interpolate_evaluation_economy():
    # doubling overshoots by at most a factor of four over the baseline
    # 2 * terms * (deg sum + 2) evaluation count
    ring = _ring(2)
    num = ring.from_dict({(1, 0): 1, (0, 1): 1})
    den = ring.from_dict({(1, 1): 1})
    bb = bb_of(num, den)
    got = interpolate_rational(bb, 1, 2, ring, random.Random(3))
    assert got is not FAIL
    s_max = 2
    baseline = 2 * s_max * (1 + 2 + 2)
    assert bb.count <= 4 * baseline


def test_interpolate_polynomial_roundtrip():
    rng = random.Random(31)
    for n in range(1, 6):
        ring = _ring(n)
        cases = [ring.from_dict({(0,) * n: rng.randrange(1, P)})]
        cases += [_sparse(ring, rng, 6, 4) for _ in range(4)]
        for f in cases:
            bb = bb_of(f, ring.one())
            got = interpolate_rational(bb, f.degree(), 0, ring, rng)
            assert got == (f, ring.one())


def test_interpolate_polynomial_high_degree_reach():
    # the sequence f(gamma * (2, 3)^i) decodes 3^32 < p; one line per row
    # over the homogenized ratio (2, 3, 5) would not
    ring = _ring(2)
    f = ring.from_dict({(1, 0): 1, (0, 32): 1})
    bb = bb_of(f, ring.one())
    assert interpolate_rational(bb, 32, 0, ring, random.Random(4)) \
        == (f, ring.one())
    assert bb.count <= 100


def test_interpolate_polynomial_lost_sequence_point():
    # losing any one point, sequence points first, gives f or FAIL
    ring = _ring(3)
    f = ring.from_dict({(2, 1, 0): 5, (0, 0, 3): 7, (1, 0, 0): 1, (0,) * 3: 2})
    good = bb_of(f, ring.one())
    seen = []

    def losing(lost):
        def fn(point):
            seen.append(point)
            return FAIL if point == lost else good.fn(point)
        return Blackbox(3, fn)

    want = (f, ring.one())
    assert interpolate_rational(losing(None), 3, 0, ring,
                                random.Random(6)) == want
    for lost in list(seen):
        got = interpolate_rational(losing(lost), 3, 0, ring, random.Random(6))
        assert got is FAIL or got == want


def test_interpolate_verifies_each_candidate(monkeypatch):
    # a wrong polynomial within the degree bound for the first sequence is
    # rejected at fresh points, and the doubling guess goes on to f
    ring = _ring(2)
    f = ring.from_dict({(1, 1): 3, (0, 0): 5})
    real, lengths = interp.ben_or_tiwari, []

    def wrong_first(evals, ratio, degree_bound, seq_ring, roots_of=None):
        lengths.append(len(evals))
        if len(lengths) == 1:
            return seq_ring.from_dict({(1, 0): 1})
        return real(evals, ratio, degree_bound, seq_ring, roots_of)

    monkeypatch.setattr(interp, "ben_or_tiwari", wrong_first)
    got = interpolate_rational(bb_of(f, ring.one()), 2, 0, ring,
                               random.Random(7))
    assert got == (f, ring.one())
    assert lengths[:2] == [2, 4]


def test_estimate_degrees_constant():
    ring = _ring(2)
    bb = bb_of(ring.from_dict({(0, 0): 9}), ring.one())
    assert estimate_degrees(bb, 10, FP, random.Random(0)) == (0, 0)


def test_estimate_degrees_example():
    ring = _ring(2)
    num = ring.from_dict({(2, 0): 1, (0, 0): 1})
    den = ring.from_dict({(0, 1): 1})
    bb = bb_of(num, den)
    assert estimate_degrees(bb, 10, FP, random.Random(1)) == (2, 1)


def test_estimate_degrees_cutoff():
    ring = _ring(2)
    num = ring.from_dict({(6, 0): 1, (0, 0): 1})
    den = ring.from_dict({(0, 6): 1, (0, 1): 1, (0, 0): 1})
    bb = bb_of(num, den)
    assert estimate_degrees(bb, 4, FP, random.Random(2)) == "STOPPED"
    # u0, then the 2 * 4 + 2 samples of the last fit, on one line
    assert bb.count == 11


def test_estimate_degrees_lost_sample_fails():
    # a FAIL at u = 3 of the line ends the estimate: no second line is drawn
    f101 = PrimeField(101)
    ring = Ring(("x1", "x2"), f101)
    num = ring.from_dict({(2, 0): 1, (0, 1): 3})
    den = ring.from_dict({(1, 0): 1, (0, 1): 1, (0, 0): 5})
    calls = []

    def fn(point):
        calls.append(point)
        if len(calls) == 4:
            return FAIL
        return num.evaluate(point) * pow(den.evaluate(point), -1, 101) % 101

    rng = random.Random(3)
    assert estimate_degrees(Blackbox(2, fn), 10, f101, rng) is FAIL
    assert calls == [(88, 66), (100, 92), (69, 8), (38, 25)]  # u0, 1, 2, 3
    # the line's base, direction and u0, and nothing after them
    expected = random.Random(3)
    for bound in (0, 0, 1, 1, 0):
        expected.randrange(bound, 101)
    assert rng.getstate() == expected.getstate()


@st.composite
def powmod_cases(draw):
    """(p, b, e, mod) with `mod` monic of degree 1-24."""
    p = draw(st.sampled_from((5, 101, P)))
    coeff = st.integers(0, p - 1)
    mod = draw(st.lists(coeff, min_size=1, max_size=24)) + [1]
    return p, draw(coeff), draw(st.integers(0, 2 ** 62)), mod


def square_and_multiply(b, e, mod, p):
    """(x + b)^e mod `mod` by list arithmetic, right to left."""
    def mulmod(u, v):
        return interp._udivmod(interp._umul(u, v, p), mod, p)[1]

    base, want = mulmod([b, 1], [1]), mulmod([1], [1])
    while e:
        if e & 1:
            want = mulmod(want, base)
        base = mulmod(base, base)
        e >>= 1
    return want


@settings(max_examples=200, deadline=None)
@given(powmod_cases())
def test_upowmod_matches_square_and_multiply(case):
    p, b, e, mod = case
    assert interp._upowmod(b, e, mod, p) == square_and_multiply(b, e, mod, p)


def test_upowmod_squares_once_per_bit(monkeypatch):
    calls = []
    fold = interp._ufold

    def counting(r, folds, k, p):
        calls.append(r)
        return fold(r, folds, k, p)

    monkeypatch.setattr(interp, "_ufold", counting)
    e = (P - 1) // 2
    mod = [5, 0, 7, 1, 2, 9, 1]
    assert interp._upowmod(3, e, mod, P) == square_and_multiply(3, e, mod, P)
    # one reduction per squaring, one more per shift-and-add
    assert len(calls) == e.bit_length() + bin(e).count("1")


def test_uroots_at_two():
    # (p - 1)//2 is 0 at p = 2, so the roots are read at 0 and 1
    assert interp._uroots([0, 1, 1], 2) == [0, 1]
    assert interp._uroots([0, 1], 2) == [0]
    assert interp._uroots([1, 1], 2) == [1]
    assert interp._uroots([1, 1, 1], 2) == []


def test_roundtrip_smoke():
    # small version of the acceptance round-trip suite
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(1, 3)
        ring = _ring(n)
        num = _sparse(ring, rng, 4, 5)
        den = _sparse(ring, rng, 3, 4, constant=True)
        bb = bb_of(num, den)
        est = estimate_degrees(bb, 12, FP, rng)
        assert est == (num.degree(), den.degree())
        got = interpolate_rational(bb, est[0], est[1], ring, rng)
        assert got is not FAIL
        gn, gd = got
        assert (gn * den - gd * num).is_zero()


def _sparse(ring, rng, max_terms, max_deg, constant=False):
    n = ring.arity
    d = {}
    while not d or all(sum(m) == 0 for m in d):
        for _ in range(rng.randint(1, max_terms)):
            m = tuple(rng.randint(0, max_deg) for _ in range(n))
            if sum(m) <= max_deg:
                d[m] = rng.randrange(1, P)
    if constant:
        d[(0,) * n] = 1
    return ring.from_dict(d)
