"""Ideals attached to a generating set and interpolation of the low-degree
coefficients of their specialized reduced Groebner bases.

This module owns the specialized ideal: `GeneratorSet.shape` owns its F_p
form less the point, the set's one F_p image per gb ring, and
`specialize_eoms` builds its generators on it, reading every value at the
point with `poly.values_at` through one set of power tables.
EomsEvaluator's traced GBs at random points serve both the coefficient
harvest and the polynomial-generator search in `fields`.

For generators g_i = p_i/q_i of a subfield of k(x_1..x_n), the specialized
ideal at a point a is

    { p_i(y) q_i(a) - q_i(y) p_i(a) }  +  { t Q(y) - 1 },

with Q the lcm of the q_i and t a fresh variable ordered greatest.  The
reduced GB of this ideal, viewed as a function of a, has coefficients that
are rational functions of a generating the same subfield.  An evaluator
learns one trace and checks it once at an independent point before any
replay.  One traced GB evaluation at a point yields every coefficient at
once, so an evaluator gives all coefficient keys, at every cutoff, one
shared random line and interpolation schedule: a distinct point costs one
GB evaluation whichever keys and rounds read it, and a sequence is solved
once.  A key is interpolated when its degree sum is within the requested
cutoff, and a key found at one cutoff is not interpolated again at a
higher one.  The evaluator's point memo is also where a harvest call
enforces the evaluation budget: it raises before an overspend.
"""

import random

from .arith import FAIL
from .groebner import MAX_EXPONENT, gb_apply, gb_learn, gb_verify
from .interp import Blackbox, estimate_degrees, interpolate_rational
from .poly import (QQ, DEGREVLEX, MultiPoly, RationalFunction, Ring, lcm_q,
                   values_at)

# random points drawn for one learn or one membership test before giving up
POINT_ATTEMPTS = 16


class UnluckyPoint(RuntimeError):
    """Surfaced after repeated degenerate random specializations."""


class EvaluationBudgetExceeded(RuntimeError):
    """The next GB evaluation would spend more than the attempt's budget."""


class GeneratorSet:
    """Ambient x-variables plus a list of rational-function generators.

    Raises ValueError on an input exponent above MAX_EXPONENT; exponents
    that grow past it inside a Groebner basis raise ExponentOverflow.
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
        self._shapes = {}

    def __len__(self):
        return len(self.generators)

    def shape(self, ring):
        """The specialized ideal less the point, once per gb ring: the F_p
        images of the generators' numerators and denominators in turn, then
        of Q; per generator the joint support of its num and den as (0, m)
        monomials in descending `ring` order, each with its num and den
        coefficients; and t Q(y) - 1."""
        if ring not in self._shapes:
            x_ring = Ring(self.ring.vars, ring.field, self.ring.order)
            images = [side for g in self.generators
                      for side in g.modp(x_ring)]
            images.append(self.common_denominator.map_coefficients(
                x_ring, ring.field.from_fraction))
            shapes = []
            for num, den in zip(images[:-1:2], images[1::2]):
                a, b = dict(num.terms), dict(den.terms)
                mons = sorted(a.keys() | b.keys(), reverse=True,
                              key=lambda m: ring.order.key((0,) + m))
                shapes.append([((0,) + m, a.get(m, 0), b.get(m, 0))
                               for m in mons])
            tq = ring.from_dict({(1,) + m: c for m, c in images[-1].terms})
            self._shapes[ring] = images, shapes, tq - ring.one()
        return self._shapes[ring]


def gb_ring(genset, field, order=DEGREVLEX):
    """F_p[t, y_1..y_n] with t greatest."""
    names = ("t_",) + tuple("y_" + v for v in genset.ring.vars)
    return Ring(names, field, order)


def specialize_eoms(genset, point, ring):
    """Generators of the specialized ideal at `point`: A q_i(a) - B p_i(a)
    over each generator's shape terms (m, A, B), zero terms and generators
    dropped, then t Q(y) - 1; or FAIL on a pole of a generator or of Q.
    Every p_i(a), q_i(a) and Q(a) is read through one set of power tables
    of the point."""
    images, shapes, tq = genset.shape(ring)
    p = ring.field.p
    *values, qv = values_at(images, [{1: x} for x in point], p)
    out = []
    for pv, dv, shape in zip(values[::2], values[1::2], shapes):
        if dv == 0:
            return FAIL
        terms = tuple((m, c) for m, a, b in shape
                      if (c := (a * dv - b * pv) % p))
        if terms:
            out.append(MultiPoly(ring, terms))
    if qv == 0:
        return FAIL
    return out + [tq]


class EomsEvaluator:
    """Shared traced-GB evaluation of the specialized ideal.

    The constructor learns one trace, checked by gb_verify; a learn and its
    check count as one GB evaluation.  gb(a) replays it at a and returns the
    reduced GB, or FAIL; gb_apply enforces the support found at the learn
    point at every later point, and `learned` keeps the GB computed there.
    eval(a) returns the tuple of the non-leading coefficients of gb(a), in
    the order of coefficient_keys(): (element index, monomial) per
    coefficient.  The trace and support never change, so the harvest keeps
    its sample table here for the evaluator's life: `seeds` (taken at the
    first gb_coefficients call), `values` (point -> eval(point)), `solved`
    (sequences and Prony roots) and `finished` (the "ok" report entries).
    """

    def __init__(self, genset, ring, rng):
        self.genset = genset
        self.ring = ring
        self.n_evals = 0
        self.seeds = None
        self.values = {}
        self.solved = {}
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
        return FAIL if gens is FAIL else gb_apply(self.ring, gens, self.trace)

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

    __slots__ = ("entries", "n_evals")

    def __init__(self, entries, n_evals):
        self.entries = entries      # {(i, mon): ("ok", (num, den), degs)
                                    #          or ("high_degree", None)}
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
    and its sample table: every cutoff reads the line, schedule and points
    of the first call, though each call draws two 64-bit seeds from `rng`.
    Raises EvaluationBudgetExceeded before an evaluation would take this
    call past `eval_cap` GB evaluations.
    """
    if evaluator is None:
        evaluator = EomsEvaluator(genset, ring, rng)
    x_ring = Ring(genset.ring.vars, ring.field, genset.ring.order)
    # common random numbers: every key of every call samples the same line
    # and gamma/sigma/row points, so one GB evaluation per point serves all
    seeds = rng.getrandbits(64), rng.getrandbits(64)
    evaluator.seeds = evaluator.seeds or seeds
    est_seed, int_seed = evaluator.seeds
    keys = evaluator.coefficient_keys()
    finished, values = evaluator.finished, evaluator.values
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
                                   evaluator.solved)
        if got is FAIL:
            return FAIL
        entries[key] = finished[key] = ("ok", got, (dn, dd))
    return CoefficientReport(entries, evaluator.n_evals - start_evals)
