"""Main simplification pipeline.

Low-degree polynomial members of the input field, then a degree-doubling
harvest of specialized-GB coefficients, each lifted to Q over as many
primes as makes it a member, read by a simplicity-sorted greedy filter one
degree-sum band per round (the rest of the pool at the cap) until its
output generates the input field; optional minimization, and a final
mutual-membership check at two fresh primes.
"""

import functools
import math
import random
from dataclasses import dataclass, field as dc_field

from .arith import (FAIL, PrimeField, ZeroInverse, crt_pair, production_prime,
                    rational_reconstruct)
from .fields import (GeneratorSet, MembershipContext, UnluckyPoint,
                     fields_equal, minimize, polynomial_generators)
from .oms import (EomsEvaluator, EvaluationBudgetExceeded, gb_coefficients,
                  gb_ring)
from .poly import RationalFunction

# the harvest doubles its degree cutoff up to this
MAX_HARVEST_DEGREE = 64

# an attempt's harvest primes, as production_prime indices past its block
# start 8*restart, clear of its check (+1) and final-check (+2, +3) indices
HARVEST_OFFSETS = (0, 6, 7, 64, 65, 66, 67, 68)

# attempts after the first, each in a fresh block of primes and rng stream
MAX_RESTARTS = 2

# the polynomial search's C(n + delta, n) candidates; work grows as their cube
MAX_SEARCH_MONOMIALS = 2000


class VerificationFailed(Exception):
    """No attempt produced a verified output; the message names the reason
    of every attempt."""


@dataclass
class SimplifyConfig:
    delta: int = 3
    minimize: bool = False
    retain_originals: bool = True
    seed: int = 0
    eval_cap: int = 10 ** 6

    @property
    def max_restarts(self):
        # read-only: perfbench/run.py reads it off a default config
        return MAX_RESTARTS

    def validate(self, arity=0):
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        if self.eval_cap < 1:
            raise ValueError("eval-cap must be positive")
        count = math.comb(arity + self.delta, arity)    # search candidates
        if count > MAX_SEARCH_MONOMIALS:
            raise ValueError(
                "delta %d gives %d candidate monomials, over the bound %d"
                % (self.delta, count, MAX_SEARCH_MONOMIALS))


@dataclass
class SimplificationReport:
    input_generators: list
    rounds: list = dc_field(default_factory=list)
    pool: list = dc_field(default_factory=list)       # (expr, provenance)
    output: list = dc_field(default_factory=list)
    minimized: bool = False
    verified: bool = False
    primes: list = dc_field(default_factory=list)
    seed: int = 0

    def to_json_dict(self):
        return {
            "input": [g.render() for g in self.input_generators],
            "rounds": self.rounds,
            "pool": [{"expr": e, "provenance": tag} for e, tag in self.pool],
            "output": [g.render() for g in self.output],
            "verified": self.verified,
            "primes": self.primes,
            "seed": self.seed,
        }


# ----------------------------------------------------------------------
# simplicity order (reciprocal-normalize, then degree sum, term count,
# denominator degree, then support tiebreaks, then canonical text)


def simplicity_key(f):
    a, b = f.num, f.den
    if a.degree() < b.degree():
        a, b = b, a
    key = f.ring.order.key
    sup_a = tuple(sorted((key(m) for m in a.support()), reverse=True))
    sup_b = tuple(sorted((key(m) for m in b.support()), reverse=True))
    return (int(a.degree()) + int(b.degree()),
            a.num_terms() + b.num_terms(),
            int(b.degree()),
            sup_a, sup_b,
            f.render())


# ----------------------------------------------------------------------
# rational reconstruction of modular candidates


def reconstruct_candidates(candidates_mod, q_ring, modulus):
    """Lift (num, den) pairs with residue coefficients to Q, or FAIL (more
    primes are needed) when any coefficient exceeds the lifting bound."""
    out = [_reconstruct_rf(num, den, q_ring, modulus)
           for num, den in candidates_mod]
    return FAIL if any(rf is FAIL for rf in out) else out


def _crt_pairs(reports, d):
    """(num terms, den terms) of every interpolated coefficient of round-d
    harvests at distinct primes, CRT-combined key by key (the identity for
    one harvest); VerificationFailed when they disagree on which keys were
    interpolated or on a coefficient's support, which no prime can mend."""
    harvests = [{key: val[1] for key, val in rep.entries.items()
                 if val[0] == "ok"} for rep in reports]
    first = harvests[0]
    if any(h.keys() != first.keys() for h in harvests):
        raise VerificationFailed("harvests at d=%d disagree on which "
                                 "coefficients interpolate" % d)
    pairs = []
    for key, pair in first.items():
        combined = []
        for k, poly in enumerate(pair):
            terms, modulus = poly.terms, poly.ring.field.p
            for h in harvests[1:]:
                other = h[key][k]
                if other.support() != poly.support():
                    raise VerificationFailed(
                        "harvests at d=%d disagree on the support of "
                        "coefficient %s" % (d, key))
                p = other.ring.field.p
                terms = tuple((m, crt_pair(c, modulus, c2, p)[0])
                              for (m, c), (_, c2) in zip(terms, other.terms))
                modulus *= p
            combined.append(terms)
        pairs.append(tuple(combined))
    return pairs


def _reconstruct_rf(num_terms, den_terms, q_ring, modulus):
    """Lift (num, den) residue terms to Q, or FAIL; den is never zero, as one
    of its coefficients lifts to 1 (interpolated dens are monic, or 1)."""
    sides = []
    for terms in (num_terms, den_terms):
        d = {}
        for m, c in terms:
            v = rational_reconstruct(c, modulus)
            if v is FAIL:
                return FAIL
            d[m] = v
        sides.append(q_ring.from_dict(d))
    num, den = sides
    return RationalFunction(num, den)


def _normalize_monic_num(rf):
    """Canonical pool representative up to constant scaling: monic
    numerator, denominator untouched (it is monic already); an entry
    already monic comes back as itself, so the pool's caches hit on
    identity."""
    num = rf.num.monic()
    return rf if num is rf.num else \
        RationalFunction(num, rf.den, _normalized=True)


# ----------------------------------------------------------------------
# pipeline


def _dedup_pool(entries):
    """Normalize each (rf, tag) entry to a monic numerator and drop the
    constants; entries equal up to a constant factor normalize to equal
    ones, of which the first is kept with its tag."""
    pool = {}
    for rf, tag in entries:
        if not rf.is_constant():
            pool.setdefault(_normalize_monic_num(rf), tag)
    return list(pool.items())


def simplify(genset, cfg=None):
    """Produce a simpler generating set of the same subfield.

    Returns (list of RationalFunction over Q, SimplificationReport).
    """
    if cfg is None:
        cfg = SimplifyConfig()
    cfg.validate(genset.ring.arity)
    nonconstant = [g for g in genset.generators if not g.is_constant()]
    if not nonconstant:
        raise ValueError("all generators are constant")
    if len(nonconstant) != len(genset.generators):
        genset = GeneratorSet(genset.ring, nonconstant)

    reasons = []
    for restart in range(MAX_RESTARTS + 1):
        try:
            return _run_once(genset, cfg, restart)
        except (VerificationFailed, UnluckyPoint, ZeroInverse) as exc:
            reasons.append("attempt %d: %s" % (restart, exc))
    raise VerificationFailed("; ".join(reasons))


def _run_once(genset, cfg, restart):
    # deterministic prime schedule: a fresh block per restart
    base = 8 * restart
    rng = random.Random(cfg.seed * 1000003 + restart)
    report = SimplificationReport(input_generators=list(genset.generators),
                                  seed=cfg.seed)
    q_ring = genset.ring

    # the attempt's GB evaluations, one learn per evaluator included, and
    # its budget; the first learn fits any budget, as eval_cap >= 1
    spent, stage = 0, "in the polynomial search"

    def spend():
        nonlocal spent
        if spent >= cfg.eval_cap:
            raise EvaluationBudgetExceeded(
                "GB evaluation budget ran out " + stage)
        spent += 1

    # one evaluator per harvest prime, kept across rounds
    evaluators = []

    def add_evaluator():
        prime = production_prime(base + HARVEST_OFFSETS[len(evaluators)])
        report.primes.append(prime)
        ring = gb_ring(genset, PrimeField(prime), q_ring.order)
        evaluators.append(EomsEvaluator(genset, ring, rng, spend))

    add_evaluator()
    check_field = PrimeField(production_prime(base + 1))
    # the attempt's one context on the input checks every lifted pool
    # entry, each distinct entry once
    is_member = functools.cache(
        MembershipContext(genset, check_field, rng).contains)

    # polynomial augmentation (degree cap delta) on the input, replaying
    # the first harvest evaluator's trace; a member lifted from one prime
    # may be wrong, so it too is checked
    polys = []
    for poly in polynomial_generators(evaluators[0], cfg.delta, rng):
        rf = _reconstruct_rf(poly.terms, ((q_ring._zero_mon, 1),),
                             q_ring, poly.ring.field.p)
        if rf is not FAIL and is_member(rf):   # else skip a failed lift
            polys.append((rf, "polynomial"))
    originals = _dedup_pool([(g, "original") for g in genset.generators])

    # the greedy filter reads one degree-sum band per round: simplicity_key
    # sorts by degree sum first, and a round finds only coefficients of
    # degree sum above the last cutoff, so the bands read the sorted pool
    sort_key = functools.cache(simplicity_key)
    kept, ctx = [], None

    def in_kept(rf):
        nonlocal ctx        # a context on kept, built again as kept grows
        if kept and (ctx is None or len(ctx.genset) < len(kept)):
            ctx = MembershipContext(GeneratorSet(q_ring, kept), check_field,
                                    rng)
        return bool(kept) and ctx.contains(rf)

    d, before, reports = 1, spent, []
    while True:
        stage = "at d=%d" % d
        for ev in evaluators[len(reports):]:    # a joining prime alone
            reports.append(gb_coefficients(ev, d))
            if reports[-1] is FAIL:
                raise VerificationFailed(
                    "coefficient interpolation failed at d=%d" % d)
        modulus = math.prod(ev.ring.field.p for ev in evaluators)
        lifted = reconstruct_candidates(_crt_pairs(reports, d), q_ring,
                                        modulus)
        if lifted is not FAIL:
            cands = _dedup_pool([(rf, "gb-coefficient") for rf in lifted])
        if lifted is FAIL or not all(is_member(rf) for rf, _ in cands):
            # a lift may be wrong: the next prime joins the round
            if len(evaluators) == len(HARVEST_OFFSETS):
                raise VerificationFailed(
                    "coefficients need more than %d harvest primes at d=%d"
                    % (len(HARVEST_OFFSETS), d))
            add_evaluator()
            continue
        report.rounds.append({"d": d, "n_coeffs": len(cands),
                              "n_evals": spent - before})
        before = spent
        pool = _dedup_pool((originals if cfg.retain_originals else [])
                           + cands + polys)
        pool.sort(key=lambda item: sort_key(item[0]))
        # the round at the cap reads the rest of the pool
        at_cap = 2 * d > MAX_HARVEST_DEGREE
        top = math.inf if at_cap else d
        for rf, _tag in pool:
            if d // 2 < sort_key(rf)[0] <= top and not in_kept(rf):
                kept.append(rf)
        # every entry read is a member, so once Q(kept) holds every
        # original not read yet it is the input field: stop
        if all(in_kept(g) for g, _ in originals
               if not cfg.retain_originals or sort_key(g)[0] > top):
            break
        if at_cap:
            raise VerificationFailed(
                "harvest reached the degree cap at d=%d" % d)
        d, reports = 2 * d, []
    report.pool = [(rf.render(), tag) for rf, tag in pool]

    if cfg.minimize and len(kept) > 1:
        kept = minimize(list(reversed(kept)), q_ring, check_field, rng)
        kept.sort(key=simplicity_key)
        report.minimized = True

    report.output = kept
    out_gs = GeneratorSet(q_ring, kept)
    for prime in (production_prime(base + 2), production_prime(base + 3)):
        report.primes.append(prime)
        if not fields_equal(genset, out_gs, PrimeField(prime), rng):
            raise VerificationFailed(
                "final verification failed at prime %d" % prime)
    report.verified = True
    return kept, report
