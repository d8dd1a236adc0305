"""Ideals attached to a generating set and interpolation of the low-degree
coefficients of their specialized reduced Groebner bases.

This module owns the specialized ideal: `GeneratorSet.modp` owns its F_p
images, `specialize` builds its generators, and EomsEvaluator's traced GBs
at random points serve both the coefficient harvest and the
polynomial-generator search in `fields`.

For generators g_i = p_i/q_i of a subfield of k(x_1..x_n), the specialized
ideal at a point a is

    { p_i(y) q_i(a) - q_i(y) p_i(a) }  +  { t Q(y) - 1 },

with Q the lcm of the q_i and t a fresh variable ordered greatest.  The
reduced GB of this ideal, viewed as a function of a, has coefficients that
are rational functions of a generating the same subfield.  An evaluator
learns one trace and checks it once at an independent point before any
replay.  One traced GB evaluation at a point yields every coefficient at
once, so a harvest call gives all coefficient keys one shared random line
and one shared interpolation schedule: a distinct point costs one GB
evaluation whichever keys read it, and a sequence that several keys share
is solved once.  A key is interpolated when its degree sum is within the
requested cutoff, and a key found at one cutoff is not interpolated again
at a higher one.  The harvest's point memo is also where the evaluation
budget is enforced: it raises before an evaluation would overspend it.
"""

import random

from .arith import FAIL
from .groebner import MAX_EXPONENT, gb_apply, gb_learn, gb_verify
from .interp import Blackbox, estimate_degrees, interpolate_rational
from .poly import (QQ, DEGREVLEX, MultiPoly, RationalFunction, Ring, lcm_q)

# random points drawn for one learn or one membership test before giving up
POINT_ATTEMPTS = 16


class UnluckyPoint(RuntimeError):
    """Surfaced after repeated degenerate random specializations."""


class EvaluationBudgetExceeded(RuntimeError):
    """The next GB evaluation would spend more than the attempt's budget."""


class GeneratorSet:
    """Ambient x-variables plus a list of rational-function generators.

    Raises ValueError on an input exponent above MAX_EXPONENT; exponents
    that grow past it inside a Groebner basis are not checked.
    """

    def __init__(self, ring, generators):
        if ring.field != QQ:
            raise ValueError("generator sets live over Q")
        self.ring = ring
        gens = []
        for g in generators:
            if isinstance(g, MultiPoly):
                g = RationalFunction(g)
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if not any(g == h for h in gens):
                gens.append(g)
        if not gens:
            raise ValueError("empty generator set")
        top = max(g.max_exponent() for g in gens)
        if top > MAX_EXPONENT:
            raise ValueError("exponent %d exceeds %d" % (top, MAX_EXPONENT))
        self.generators = gens
        q = ring.one()
        for g in gens:
            if not g.den.is_constant():
                q = lcm_q(q, g.den)
        self.common_denominator = q
        self._modp = {}

    def __len__(self):
        return len(self.generators)

    def modp(self, field):
        """(x_ring, generator images (num, den), image of Q) over F_p,
        computed once per prime."""
        if field.p not in self._modp:
            x_ring = Ring(self.ring.vars, field, self.ring.order)
            self._modp[field.p] = (
                x_ring, [g.modp(x_ring) for g in self.generators],
                self.common_denominator.map_coefficients(
                    x_ring, field.from_fraction))
        return self._modp[field.p]


def gb_ring(genset, field, order=DEGREVLEX):
    """F_p[t, y_1..y_n] with t greatest."""
    names = ("t_",) + tuple("y_" + v for v in genset.ring.vars)
    return Ring(names, field, order)


def specialize(num, den, point, ring):
    """p(y) q(a) - q(y) p(a) in the (t, y) ring for the F_p images p = num
    and q = den, or FAIL when q(a) = 0."""
    qv = den.evaluate(point)
    if qv == 0:
        return FAIL
    pv = num.evaluate(point)
    p = ring.field.p
    d = {(0,) + m: c * qv % p for m, c in num.terms}
    for m, c in den.terms:
        k = (0,) + m
        d[k] = (d.get(k, 0) - c * pv) % p
    return ring.from_dict(d)


def specialize_eoms(genset, point, ring, extra_denominator=None):
    """Generators of the specialized ideal at `point`, or FAIL on a pole;
    `extra_denominator` (a membership candidate's) is folded into Q."""
    field = ring.field
    x_ring, images, qmod = genset.modp(field)
    out = []
    for num, den in images:
        h = specialize(num, den, point, ring)
        if h is FAIL:
            return FAIL
        if not h.is_zero():
            out.append(h)
    if extra_denominator is not None:
        qmod = lcm_q(genset.common_denominator, extra_denominator) \
            .map_coefficients(x_ring, field.from_fraction)
    if qmod.evaluate(point) == 0:
        return FAIL
    d = {(1,) + m: c for m, c in qmod.terms}            # t Q(y) - 1
    d[ring._zero_mon] = field.neg(field.one)
    out.append(ring.from_dict(d))
    return out


class EomsEvaluator:
    """Shared traced-GB evaluation of the specialized ideal.

    The constructor learns one trace, checked by gb_verify; a learn and its
    check count as one GB evaluation.  gb(a) replays it at a and returns the
    reduced GB, or FAIL; the support found at the learn point is enforced
    at every later point, and `learned` keeps the GB computed there.
    eval(a) returns the tuple of the non-leading coefficients of gb(a), in
    the order of coefficient_keys(): (element index, monomial) per
    coefficient.  `finished` keeps the "ok" report entries interpolated.
    """

    def __init__(self, genset, ring, rng):
        self.genset = genset
        self.ring = ring
        self.n_evals = 0
        self.finished = {}
        self._learn(rng)

    def _random_point(self, rng):
        p = self.ring.field.p
        return tuple(rng.randrange(1, p) for _ in self.genset.ring.vars)

    def _learn(self, rng):
        # the check point comes from a stream seeded by the learn point, so
        # rng advances as by the learn alone; a pole or a failed check
        # redraws both
        for _ in range(POINT_ATTEMPTS):
            point = self._random_point(rng)
            gens = specialize_eoms(self.genset, point, self.ring)
            check = self._random_point(random.Random(str(point)))
            check = specialize_eoms(self.genset, check, self.ring)
            if gens is FAIL or check is FAIL:
                continue
            self.n_evals += 1
            gb, trace = gb_learn(self.ring, gens)
            trace = gb_verify(self.ring, check, trace)
            if trace is FAIL:
                continue
            self.trace, self.learned = trace, gb
            self.support = tuple(g.support() for g in gb)
            self._keys = tuple((i, m) for i, supp in enumerate(self.support)
                               for m in supp[1:])
            return
        raise UnluckyPoint("no regular specialization point mod %d"
                           % self.ring.field.p)

    def gb(self, point):
        self.n_evals += 1
        gens = specialize_eoms(self.genset, point, self.ring)
        if gens is FAIL:
            return FAIL
        gb = gb_apply(self.ring, gens, self.trace)
        if gb is FAIL or gb.packed_support() != self.trace.outputs:
            return FAIL
        return gb

    def eval(self, point):
        gb = self.gb(point)
        if gb is FAIL:
            return FAIL
        return tuple(c for g in gb.packed for _, c in g[1:])

    def coefficient_keys(self):
        return self._keys

    def coefficient_blackbox(self, key):
        def fn(point):
            vals = self.eval(point)
            return FAIL if vals is FAIL else vals[self._keys.index(key)]
        return Blackbox(self.genset.ring.arity, fn)


class CoefficientReport:
    """Interpolated low-degree GB coefficients plus high-degree markers."""

    __slots__ = ("entries", "support", "n_evals")

    def __init__(self, entries, support, n_evals):
        self.entries = entries      # {(i, mon): ("ok", (num, den), degs)
                                    #          or ("high_degree", None)}
        self.support = support
        self.n_evals = n_evals

    def interpolated(self):
        return [val[1] for val in self.entries.values() if val[0] == "ok"]

    def has_high_degree(self):
        return any(val[0] == "high_degree" for val in self.entries.values())


def gb_coefficients(genset, degree_cutoff, ring, rng,
                    eval_cap=10 ** 6, evaluator=None):
    """Interpolate every reduced-GB coefficient with degree sum <= cutoff.

    Returns a CoefficientReport, or FAIL when interpolation keeps failing.
    Coefficients are returned mod p (reconstruction to Q is the caller's
    job).  A shared evaluator may be passed in to keep its learned trace
    and its finished keys across cutoffs.  Raises EvaluationBudgetExceeded
    before an evaluation would take this call past `eval_cap` GB
    evaluations.
    """
    if evaluator is None:
        evaluator = EomsEvaluator(genset, ring, rng)
    x_ring = genset.modp(ring.field)[0]
    # common random numbers: every key samples the same line and the same
    # gamma/sigma/row points, so one GB evaluation per point serves them all
    est_seed, int_seed = rng.getrandbits(64), rng.getrandbits(64)
    keys = evaluator.coefficient_keys()
    finished = evaluator.finished
    values = {}          # point -> coefficients in key order, or FAIL
    solved = {}          # sequences and Prony polynomials solved so far
    start_evals = evaluator.n_evals

    def coefficients(point):
        if point not in values:
            if evaluator.n_evals - start_evals >= eval_cap:
                raise EvaluationBudgetExceeded(
                    "GB evaluation budget ran out at d=%d" % degree_cutoff)
            values[point] = evaluator.eval(point)
        return values[point]

    entries = {}
    for index, key in enumerate(keys):
        done = finished.get(key)
        if done is not None and sum(done[2]) <= degree_cutoff:
            entries[key] = done
            continue

        def fn(point, index=index):
            vals = coefficients(point)
            return FAIL if vals is FAIL else vals[index]
        bb = Blackbox(genset.ring.arity, fn)
        est = estimate_degrees(bb, degree_cutoff, ring.field,
                               random.Random(est_seed))
        if est is FAIL:
            return FAIL
        if est == "STOPPED":
            entries[key] = ("high_degree", None)
            continue
        dn, dd = est
        got = interpolate_rational(bb, dn, dd, x_ring, random.Random(int_seed),
                                   solved)
        if got is FAIL:
            return FAIL
        entries[key] = finished[key] = ("ok", got, (dn, dd))
    return CoefficientReport(entries, evaluator.support,
                             evaluator.n_evals - start_evals)
