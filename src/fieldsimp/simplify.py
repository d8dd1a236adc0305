"""Main simplification pipeline.

Degree-doubling harvest of specialized-GB coefficients, low-degree
polynomial augmentation, simplicity-sorted greedy filtering, optional
minimization, rational reconstruction of every survivor, and a final
mutual-membership verification at fresh primes.
"""

import random
from dataclasses import dataclass, field as dc_field

from .arith import PrimeField, crt_pair, production_prime, rational_reconstruct
from .fields import (GeneratorSet, MembershipContext, UnluckyPoint,
                     fields_equal, minimize, polynomial_generators)
from .interp import FAIL, EvaluationBudgetExceeded
from .oms import EomsEvaluator, gb_coefficients, gb_ring
from .poly import RationalFunction

NEED_MORE_PRIMES = "NEED_MORE_PRIMES"


class VerificationFailed(Exception):
    """The final field-equality check rejected the candidate output."""


@dataclass
class SimplifyConfig:
    delta: int = 3
    eps: float = 0.01
    minimize: bool = False
    retain_originals: bool = True
    final_check: bool = True
    seed: int = 0
    eval_cap: int = 10 ** 6
    paranoid: bool = False
    max_harvest_degree: int = 64
    max_restarts: int = 2

    def validate(self):
        if not (0 < self.eps < 1):
            raise ValueError("eps must lie strictly between 0 and 1")
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        if self.eval_cap < 1:
            raise ValueError("eval-cap must be positive")


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


def simplicity_compare(f, g):
    """-1 / 0 / 1 with -1 meaning f is simpler."""
    kf, kg = simplicity_key(f), simplicity_key(g)
    return -1 if kf < kg else (1 if kf > kg else 0)


# ----------------------------------------------------------------------
# rational reconstruction of modular candidates


def reconstruct_candidates(candidates_mod, q_ring, modulus):
    """Lift (num, den) pairs with residue coefficients to Q, or
    NEED_MORE_PRIMES when any coefficient exceeds the lifting bound."""
    out = []
    for num_terms, den_terms in candidates_mod:
        rf = _reconstruct_rf(num_terms, den_terms, q_ring, modulus)
        if rf is None:
            return NEED_MORE_PRIMES
        out.append(rf)
    return out


def _reconstruct_rf(num_terms, den_terms, q_ring, modulus):
    def lift(terms):
        d = {}
        for m, c in terms:
            v = rational_reconstruct(c, modulus)
            if v is None:
                return None
            d[m] = v
        return d
    nd = lift(num_terms)
    if nd is None:
        return None
    dd = lift(den_terms)
    if dd is None:
        return None
    num = q_ring.from_dict(nd)
    den = q_ring.from_dict(dd)
    if den.is_zero():
        return None
    return RationalFunction(num, den)


def _normalize_monic_num(rf):
    """Canonical pool representative up to constant scaling: monic
    numerator, denominator untouched (it is monic already)."""
    if rf.is_zero():
        return rf
    lc = rf.num.leading_coefficient()
    if lc == 1:
        return rf
    return RationalFunction(rf.num.scale(1 / lc), rf.den, _normalized=True)


# ----------------------------------------------------------------------
# pipeline


class _Harvest:
    """Coefficient harvest at one prime in the monomial order of the
    generators' ring, reusable across degree cutoffs."""

    def __init__(self, genset, prime, rng):
        self.genset = genset
        self.field = PrimeField(prime)
        self.rng = rng
        ring = gb_ring(genset, self.field, genset.ring.order)
        self.evaluator = EomsEvaluator(genset, ring, rng)

    def n_evals(self):
        return self.evaluator.n_evals

    def coefficients(self, d, eval_cap):
        """{(element, monomial): (num, den)} mod p, or FAIL."""
        ev = self.evaluator
        rep = gb_coefficients(self.genset, d, ev.ring, self.rng,
                              eval_cap=eval_cap, evaluator=ev)
        if rep is FAIL:
            return FAIL, False
        merged = {key: val[1] if val[0] == "ok" else HIGH_DEGREE_MARK
                  for key, val in rep.entries.items()}
        return merged, rep.has_high_degree()


HIGH_DEGREE_MARK = "HIGH_DEGREE"


def _dedup_pool(entries):
    """Drop pool entries proportional to an earlier one."""
    out = []
    for rf, tag in entries:
        if rf.is_constant():
            continue
        if any(rf.proportional(prev) for prev, _ in out):
            continue
        out.append((rf, tag))
    return out


def simplify(genset, cfg=None):
    """Produce a simpler generating set of the same subfield.

    Returns (list of RationalFunction over Q, SimplificationReport).
    """
    if cfg is None:
        cfg = SimplifyConfig()
    cfg.validate()
    nonconstant = [g for g in genset.generators if not g.is_constant()]
    if not nonconstant:
        raise ValueError("all generators are constant")
    if len(nonconstant) != len(genset.generators):
        genset = GeneratorSet(genset.ring, nonconstant)

    last_error = None
    for restart in range(cfg.max_restarts + 1):
        try:
            return _run_once(genset, cfg, restart)
        except (_Restart, UnluckyPoint) as exc:
            last_error = exc
            continue
    raise VerificationFailed(str(last_error) if last_error
                             else "all restarts exhausted")


class _Restart(Exception):
    pass


def _run_once(genset, cfg, restart):
    # deterministic prime schedule: a fresh block per restart
    base = 8 * restart
    rng = random.Random(cfg.seed * 1000003 + restart)
    report = SimplificationReport(input_generators=list(genset.generators),
                                  seed=cfg.seed)
    tau = restart + 1

    harvest_prime = production_prime(base)
    report.primes.append(harvest_prime)
    harvest = _Harvest(genset, harvest_prime, rng)
    check_field = PrimeField(production_prime(base + 1))
    q_ring = genset.ring

    def check_budget():
        if harvest.n_evals() > cfg.eval_cap:
            raise EvaluationBudgetExceeded(
                "more than %d blackbox evaluations" % cfg.eval_cap)

    d = 1
    candidates = None
    incomplete = False
    while True:
        before = harvest.n_evals()
        merged, incomplete = harvest.coefficients(d, cfg.eval_cap)
        check_budget()
        if merged is FAIL:
            raise _Restart("coefficient interpolation failed at d=%d" % d)
        mod_pairs = [(v[0].terms, v[1].terms) for v in merged.values()
                     if v is not HIGH_DEGREE_MARK]
        lifted = reconstruct_candidates(mod_pairs, q_ring, harvest.field.p)
        if lifted is NEED_MORE_PRIMES:
            lifted = _crt_reconstruct(genset, cfg, merged, harvest,
                                      base, rng, report, d)
            if lifted is NEED_MORE_PRIMES:
                raise _Restart("rational reconstruction needs more primes")
        cands = _dedup_pool([(_normalize_monic_num(rf), "gb-coefficient")
                             for rf in lifted])
        report.rounds.append({"d": d, "n_coeffs": len(cands),
                              "n_evals": harvest.n_evals() - before})
        if cands:
            cand_gs = GeneratorSet(q_ring, [rf for rf, _ in cands])
            if fields_equal(genset, cand_gs, check_field, rng,
                            eps=cfg.eps / tau):
                candidates = cands
                break
        d *= 2
        if d > cfg.max_harvest_degree:
            raise _Restart("harvest reached the degree cap")

    # polynomial augmentation (degree cap delta); the verified coefficient
    # set stands in for the originals unless the harvest was truncated
    alg7_source = GeneratorSet(q_ring, [rf for rf, _ in candidates]) \
        if not incomplete else genset
    poly_basis = polynomial_generators(alg7_source, cfg.delta,
                                       harvest.field, rng)
    poly_cands = []
    for poly in poly_basis:
        rf = _reconstruct_rf(poly.terms, ((q_ring._zero_mon, 1),),
                             q_ring, harvest.field.p)
        if rf is None:
            continue        # optional augmentation: skip on lifting failure
        poly_cands.append((_normalize_monic_num(rf), "polynomial"))
    check_budget()

    pool = []
    if cfg.retain_originals:
        pool.extend((_normalize_monic_num(g), "original")
                    for g in genset.generators)
    pool.extend(candidates)
    pool.extend(poly_cands)
    pool = _dedup_pool(pool)
    pool.sort(key=lambda item: simplicity_key(item[0]))
    report.pool = [(rf.render(), tag) for rf, tag in pool]

    # greedy prefix filter
    kept = []
    ctx = None
    budget = cfg.eps / max(len(pool), 1)
    for rf, _tag in pool:
        if not kept:
            kept.append(rf)
            ctx = None
            continue
        if ctx is None:
            ctx = _context(GeneratorSet(q_ring, kept), check_field, rng)
        try:
            member = ctx.contains(rf, budget)
        except UnluckyPoint:
            ctx = _context(GeneratorSet(q_ring, kept), check_field, rng)
            member = ctx.contains(rf, budget)
        if not member:
            kept.append(rf)
            ctx = None

    if cfg.minimize and len(kept) > 1:
        kept = minimize(list(reversed(kept)), q_ring, check_field, rng,
                        eps=cfg.eps)
        kept.sort(key=simplicity_key)
        report.minimized = True

    report.output = kept
    if cfg.final_check:
        out_gs = GeneratorSet(q_ring, kept)
        n_check = 4 if cfg.paranoid else 2
        for i in range(n_check):
            prime = production_prime(base + 2 + i)
            report.primes.append(prime)
            fld = PrimeField(prime)
            if not fields_equal(genset, out_gs, fld, rng,
                                eps=cfg.eps / (2 ** tau)):
                raise _Restart("final verification failed at prime %d" % prime)
        report.verified = True
    return kept, report


def _context(genset, field, rng):
    for _ in range(3):
        try:
            return MembershipContext(genset, field, rng)
        except UnluckyPoint:
            continue
    raise UnluckyPoint("could not build a membership context")


def _crt_reconstruct(genset, cfg, merged, harvest, base, rng, report, d):
    """Second-prime harvest plus CRT combine when single-prime lifting
    fails."""
    prime2 = production_prime(base + 6)
    report.primes.append(prime2)
    harvest2 = _Harvest(genset, prime2, rng)
    merged2, _ = harvest2.coefficients(d, cfg.eval_cap)
    if merged2 is FAIL:
        return NEED_MORE_PRIMES
    m = harvest.field.p * prime2
    out = []
    for key, val in merged.items():
        if val is HIGH_DEGREE_MARK:
            continue
        val2 = merged2.get(key)
        if val2 is None or val2 is HIGH_DEGREE_MARK:
            return NEED_MORE_PRIMES
        pair = []
        for poly1, poly2 in zip(val, val2):
            if poly1.support() != poly2.support():
                return NEED_MORE_PRIMES
            terms = []
            for (mon, c1), (_, c2) in zip(poly1.terms, poly2.terms):
                r, _mod = crt_pair(c1, harvest.field.p, c2, prime2)
                terms.append((mon, r))
            pair.append(tuple(terms))
        rf = _reconstruct_rf(pair[0], pair[1], genset.ring, m)
        if rf is None:
            return NEED_MORE_PRIMES
        out.append(rf)
    return out
