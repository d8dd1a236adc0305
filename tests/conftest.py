"""Shared helpers: fixture loading, field-equality at two primes, and a
cache of pipeline runs so the expensive fixtures are simplified once."""

import random
import time
from fractions import Fraction
from pathlib import Path

from fieldsimp.arith import PrimeField, production_prime
from fieldsimp.cli import parse_expression, parse_problem_file
from fieldsimp.fields import fields_equal, polynomial_generators
from fieldsimp.oms import EomsEvaluator, GeneratorSet, gb_ring
from fieldsimp.poly import RationalFunction
from fieldsimp.simplify import SimplifyConfig, simplify

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# primes reserved for test-side verification (the pipeline draws from the
# start of the production sequence: attempt r takes 8*r plus its harvest
# offsets, and 8*r + 1..3 for its checks, so 17..19 in attempt 2)
CHECK_PRIME_INDICES = (26, 27)
CHECK_PRIMES = tuple(production_prime(i) for i in CHECK_PRIME_INDICES)


def fixture_path(name):
    return FIXTURE_DIR / (name + ".txt")


def load_fixture(name, var_order=None, order="degrevlex"):
    text = fixture_path(name).read_text(encoding="utf-8")
    genset, _warned = parse_problem_file(text, var_order, order)
    return genset


def parse_many(ring, exprs):
    return [parse_expression(e, ring) for e in exprs]


def genset_of(ring, exprs):
    return GeneratorSet(ring, parse_many(ring, exprs))


def fields_equal_2p(gs_a, gs_b, seed=1234):
    """Field equality checked independently at two reserved 62-bit primes;
    the two verdicts must agree."""
    verdicts = []
    for k, p in enumerate(CHECK_PRIMES):
        rng = random.Random(seed * 1000003 + k)
        verdicts.append(fields_equal(gs_a, gs_b, PrimeField(p), rng))
    assert verdicts[0] == verdicts[1], "primes disagree on field equality"
    return verdicts[0]


def fresh_search(genset, delta, field, rng):
    """The polynomial search on a new evaluator of `genset` at `field`, in
    the generators' order, learned from `rng` before the search draws its
    points from it."""
    ring = gb_ring(genset, field, genset.ring.order)
    return polynomial_generators(EomsEvaluator(genset, ring, rng), delta, rng)


# ----------------------------------------------------------------------
# cached pipeline runs (module-level so every test file shares them)

_RUNS = {}


def simplify_fixture(name, minimize=False, var_order=None, runs=2):
    """Run the pipeline on a fixture with seed 0, `runs` times.

    Returns (genset, [(output, report, seconds), ...]); cached, so the
    first caller pays and later callers reuse the results.
    """
    key = (name, minimize, tuple(var_order) if var_order else None)
    if key not in _RUNS or len(_RUNS[key][1]) < runs:
        genset = load_fixture(name, var_order=list(var_order)
                              if var_order else None)
        results = []
        for _ in range(runs):
            cfg = SimplifyConfig(minimize=minimize, seed=0)
            t0 = time.monotonic()
            out, rep = simplify(genset, cfg)
            results.append((out, rep, time.monotonic() - t0))
        _RUNS[key] = (genset, results)
    return _RUNS[key]


# ----------------------------------------------------------------------
# field automorphisms used to certify non-membership: a map fixing every
# input generator fixes the generated subfield pointwise, so any element
# it moves lies outside the field.


class VarPermutation:
    def __init__(self, images):
        self.images = tuple(images)   # images[i] = index that x_i maps to

    def apply_poly(self, poly):
        d = {}
        for m, c in poly.terms:
            e = [0] * len(m)
            for i, x in enumerate(m):
                e[self.images[i]] = x
            d[tuple(e)] = c
        return poly.ring.from_dict(d)


class VarScaling:
    def __init__(self, factors):
        self.factors = tuple(Fraction(f) for f in factors)

    def apply_poly(self, poly):
        d = {}
        for m, c in poly.terms:
            s = Fraction(1)
            for f, e in zip(self.factors, m):
                if e:
                    s *= f ** e
            d[m] = c * s
        return poly.ring.from_dict(d)


def apply_map(sigma, rf):
    if not isinstance(rf, RationalFunction):
        rf = RationalFunction(rf)
    return RationalFunction(sigma.apply_poly(rf.num), sigma.apply_poly(rf.den))


def _perm_from_pairs(n, swaps):
    images = list(range(n))
    for i, j in swaps:
        images[i], images[j] = images[j], images[i]
    return VarPermutation(images)


def _scaling(n, assignments):
    factors = [Fraction(1)] * n
    for i, f in assignments.items():
        factors[i] = Fraction(f)
    return VarScaling(factors)


def fixture_automorphisms(name, ring):
    """Maps that fix every input generator of the named fixture."""
    idx = {v: i for i, v in enumerate(ring.vars)}
    n = ring.arity
    if name == "example_sym":
        return [_perm_from_pairs(n, [(idx["x1"], idx["x2"])])]
    if name == "power_sums":
        return [_perm_from_pairs(n, [(idx["x"], idx["y"])]),
                _perm_from_pairs(n, [(idx["z"], idx["v"])])]
    if name == "heron":
        return [_scaling(n, {idx["a"]: -1}),
                _scaling(n, {idx["b"]: -1}),
                _scaling(n, {idx["c"]: -1})]
    if name == "lotka_volterra":
        return [_perm_from_pairs(n, [(idx["a"], idx["b"])]),
                _scaling(n, {idx["c"]: 2})]
    if name == "seir34":
        return [_scaling(n, {idx["beta"]: 2, idx["r"]: Fraction(1, 2)})]
    if name == "genlv":
        return [_scaling(n, {idx["b12"]: 3, idx["b22"]: 3})]
    if name == "sir6":
        return [_scaling(n, {idx["k"]: 2, idx["beta"]: 2})]
    if name == "bruno2016":
        return [_perm_from_pairs(n, [(idx["kcryOH"], idx["kcrybeta"])]),
                _scaling(n, {idx["kzea"]: 2}),
                _scaling(n, {idx["kOHbeta10"]: 2})]
    if name == "bilirubin":
        return [_perm_from_pairs(n, [(idx["k12"], idx["k13"]),
                                     (idx["k21"], idx["k31"])])]
    raise KeyError(name)


ALL_FIXTURES = ("example_sym", "heron", "seir34", "lotka_volterra",
                "bruno2016", "genlv", "sir6", "power_sums", "bilirubin")
