"""The benchmark's workloads: each turns a seed into a list of operations.

An operation is one closed-loop call into fieldsimp (a `simplify()` or a
membership query) whose answer is known in advance.  Set-up builds every
input, target and candidate, so the timed loop only makes library calls;
the checks run afterwards, at reference primes the pipeline never draws.

Work is fixed for a given --seconds, so two versions of the program do the
same work: `corpus` and `membership` are sized from --seconds by rates
measured on the reference machine (2 cores, Python 3.11.7), and `harvest`
is always one simplify() of power_sums.
"""

import functools
import random
from fractions import Fraction
from pathlib import Path

from fieldsimp.arith import PrimeField, production_prime
from fieldsimp.cli import parse_expression, parse_problem_file
from fieldsimp.fields import MembershipContext, fields_equal
from fieldsimp.oms import GeneratorSet
from fieldsimp.poly import RationalFunction
from fieldsimp.simplify import SimplifyConfig, simplicity_key, simplify

import answers

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# simplify._run_once draws production_prime(8*restart + 0..6) with
# restart <= 2, so indices 0..22 are taken; the checks use fresh ones.
REFERENCE_PRIME_INDICES = (24, 25)

CORPUS = ("example_sym", "heron", "seir34", "lotka_volterra", "bruno2016",
          "genlv", "sir6")
# Reference-machine rates that size a run from --seconds.
CORPUS_SWEEP_S = 3.1           # one simplify() of each CORPUS fixture
MEMBERSHIP_QUERIES_PER_S = 6   # in-field (and as many moved) per context

# out_cost of each fixture's output at the seed state, the same at config
# seeds 0..39 (power_sums: 0..5).  ROADMAP: outputs get no less simple.
REFERENCE_COST = {
    "example_sym": 8, "heron": 12, "seir34": 23, "lotka_volterra": 11,
    "bruno2016": 10, "genlv": 16, "sir6": 10, "power_sums": 41,
}


class Op:
    """One timed call with its known answer.

    `check(result)` says whether the result is correct; `fingerprint(result)`
    is what must repeat exactly on every run of the same seed.
    """

    __slots__ = ("label", "call", "check", "fingerprint")

    def __init__(self, label, call, check, fingerprint):
        self.label = label
        self.call = call
        self.check = check
        self.fingerprint = fingerprint


def fixture_files(names):
    return {name: FIXTURE_DIR / (name + ".txt") for name in names}


def load(name):
    text = (FIXTURE_DIR / (name + ".txt")).read_text(encoding="utf-8")
    genset, _warned = parse_problem_file(text)
    return genset


def target_of(genset, name, drop=None):
    exprs = [e for i, e in enumerate(answers.TARGETS[name]) if i != drop]
    return GeneratorSet(genset.ring,
                        [parse_expression(e, genset.ring) for e in exprs])


def reference_fields():
    return [PrimeField(production_prime(i)) for i in REFERENCE_PRIME_INDICES]


def out_cost(generators):
    """Sum over generators of degree sum plus term count."""
    return sum(k[0] + k[1] for k in map(simplicity_key, generators))


def gb_evals(report):
    return sum(r["n_evals"] for r in report.rounds)


def simplify_op(name, config_seed, fields):
    genset = load(name)
    target = target_of(genset, name)

    def check(result):
        output, report = result
        if not report.verified:
            return False
        if out_cost(output) > REFERENCE_COST[name]:
            return False
        out_gs = GeneratorSet(genset.ring, output)
        return all(
            fields_equal(out_gs, target, field,
                         random.Random("%s:%d:%d" % (name, config_seed, k)),
                         eps=1e-3)
            for k, field in enumerate(fields))

    def fingerprint(result):
        output, report = result
        return [gb_evals(report), out_cost(output)]

    return Op("%s@%d" % (name, config_seed),
              lambda: simplify(genset, SimplifyConfig(seed=config_seed)),
              check, fingerprint)


def answer_op(label, call, expected):
    """An op whose result must be the bool `expected`."""
    return Op(label, call, lambda result: result is expected,
              lambda result: result)


def harvest(seed, seconds):
    return [simplify_op("power_sums", seed, reference_fields())]


def corpus(seed, seconds):
    sweeps = max(1, round(seconds / CORPUS_SWEEP_S))
    fields = reference_fields()
    return [simplify_op(name, seed * sweeps + i, fields)
            for i in range(sweeps) for name in CORPUS]


def membership(seed, seconds):
    """fields_equal against the target (True) and, for independent targets,
    each drop-one subset (False); then one MembershipContext per fixture and
    prime, each queried with the fixture's in-field candidates (True) and
    candidates moved by an automorphism (False), one in eight of those
    rational."""
    per_kind = max(1, round(seconds * MEMBERSHIP_QUERIES_PER_S))
    rng = random.Random(seed)
    ops = []
    for name in answers.FIXTURES:
        source = load(name)
        queries = [(_in_field(source, i % 5, rng), True)
                   for i in range(per_kind)]
        queries += [(_moved(source, name, i % 8 == 7, rng), False)
                    for i in range(per_kind)]
        drops = range(len(answers.TARGETS[name])) \
            if answers.INDEPENDENT[name] else ()
        for k, field in enumerate(reference_fields()):
            tag = "%s/p%d" % (name, k)
            for drop in [None, *drops]:
                ops.append(_equal_op(name, field, drop, tag, seed))
            holder = []

            def build(genset=load(name), field=field,
                      ctx_rng=random.Random("%d:%s" % (seed, tag)),
                      holder=holder):
                holder.append(MembershipContext(genset, field, ctx_rng))
                return True

            ops.append(answer_op(tag + "/context", build, True))
            ops += [answer_op("%s/q%d" % (tag, i),
                              functools.partial(_query, holder, cand,
                                                i == len(queries) - 1),
                              expected)
                    for i, (cand, expected) in enumerate(queries)]
    return ops


def _query(holder, cand, last):
    """One membership query; the last one drops the context, as a caller
    done with it would, so its cached bases do not add up over a run."""
    try:
        return holder[0].contains(cand)
    finally:
        if last:
            holder.clear()


def _equal_op(name, field, drop, tag, seed):
    genset = load(name)
    target = target_of(genset, name, drop)
    label = "%s/equal%s" % (tag, "" if drop is None else "-drop%d" % drop)
    op_rng = random.Random("%d:%s" % (seed, label))
    return answer_op(label,
                     lambda: fields_equal(genset, target, field, op_rng),
                     drop is None)


def _in_field(genset, form, rng):
    """A candidate built from random generators by field operations of the
    given form (0..4); cycling through the forms keeps the mix of query
    costs the same at every seed."""
    gens = genset.generators

    def pick():
        return rng.choice(gens)

    def const():
        return RationalFunction(
            genset.ring.constant(Fraction(rng.randint(1, 5))))

    if form == 0:
        return pick() * pick()
    if form == 1:
        return pick() + const() * pick()
    if form == 2:
        return pick() * pick() + pick()
    if form == 3:
        return pick() * pick() - const() * pick()
    return pick() + pick() + const()


def _moved(genset, name, rational, rng):
    """A random polynomial, over x_j + c with random j and c when `rational`,
    that some automorphism of the field moves.  Such a denominator is new to
    the context, so where the Jacobian pre-test passes it costs the context
    one Buchberger run; that makes the number of runs the same at every
    seed."""
    ring = genset.ring
    maps = [answers.map_exponents(s, ring.vars)
            for s in answers.AUTOMORPHISMS[name]]
    n = ring.arity
    while True:
        d = {}
        for _ in range(rng.randint(1, 4)):
            mon = [0] * n
            for _ in range(rng.randint(1, 3)):
                mon[rng.randrange(n)] += 1
            d[tuple(mon)] = Fraction(rng.randint(-5, 5) or 1)
        den = None
        if rational:
            den = ring.variable(rng.randrange(n)) \
                + ring.constant(Fraction(rng.randint(1, 10 ** 6)))
        f = RationalFunction(ring.from_dict(d), den)
        if f.is_constant():
            continue
        if any(_image(f, images, factors) != f for images, factors in maps):
            return f


def _image(f, images, factors):
    ring = f.ring
    return RationalFunction(
        ring.from_dict(answers.apply_to_terms(images, factors, f.num.terms)),
        ring.from_dict(answers.apply_to_terms(images, factors, f.den.terms)))


WORKLOADS = {"harvest": harvest, "corpus": corpus, "membership": membership}
