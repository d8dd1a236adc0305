"""Ideals attached to a generating set and interpolation of the low-degree
coefficients of their specialized reduced Groebner bases.

This module owns the specialized ideal: `GeneratorSet.shape` owns its F_p
form less the point, the set's one F_p image per gb ring, and
`coefficient_row` reads its generators' coefficients on it, every value
at the point read with `poly.values_at` through one set of power tables;
`specialize_eoms` builds the generators from that row.  EomsEvaluator's
traced GBs at random points, replays of the row, serve both the
coefficient harvest and the polynomial-generator search in `fields`.

For generators g_i = p_i/q_i of a subfield of k(x_1..x_n), the specialized
ideal at a point a is

    { p_i(y) q_i(a) - q_i(y) p_i(a) }  +  { t Q(y) - 1 },

with Q the lcm of the q_i and t a fresh variable ordered greatest.  The
reduced GB of this ideal, viewed as a function of a, has coefficients that
are rational functions of a generating the same subfield.  An evaluator
learns one trace and checks it once at an independent point before any
replay; a pole at either point or a failed check raises UnluckyPoint, and
a replay that diverges is a lost sample (FAIL).  Neither is redrawn: it
ends the caller's attempt.  One traced GB evaluation at a point yields
every coefficient at once, so an evaluator gives all coefficient keys, at
every cutoff, one shared random line and interpolation schedule: a
distinct point costs one GB evaluation whichever keys and rounds read it,
and a sequence is solved once.  A key is interpolated when its degree sum
is within the requested cutoff, and a key found at one cutoff is not
interpolated again at a higher one.  Each GB evaluation, the learn or a
replay, is charged first to the evaluator's `spend`, the one place a
budget refuses it.
"""

import random

from .arith import FAIL
from .groebner import MAX_EXPONENT, gb_learn, gb_replay, gb_verify
from .interp import Blackbox, estimate_degrees, interpolate_rational
from .poly import (QQ, DEGREVLEX, MultiPoly, RationalFunction, Ring, lcm_q,
                   sparse_terms, values_at)


class UnluckyPoint(RuntimeError):
    """A degenerate random specialization ended the attempt."""


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
        self._shapes, self._lifted = {}, {}

    def __len__(self):
        return len(self.generators)

    def shape(self, ring):
        """The specialized ideal less the point, once per gb ring: the F_p
        images of the generators' numerators and denominators in turn, then
        of Q, as `sparse_terms`; per generator the joint support of its num
        and den as (0, m) monomials in descending `ring` order, each with
        its num and den coefficients; and t Q(y) - 1."""
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
                shapes.append([(self._lifted.setdefault(m, (0,) + m),
                                a.get(m, 0), b.get(m, 0)) for m in mons])
            tq = ring.from_dict({(1,) + m: c for m, c in images[-1].terms})
            self._shapes[ring] = (sparse_terms(*(f.terms for f in images)),
                                  shapes, tq - ring.one())
        return self._shapes[ring]


def gb_ring(genset, field, order=DEGREVLEX):
    """F_p[t, y_1..y_n] with t greatest."""
    names = ("t_",) + tuple("y_" + v for v in genset.ring.vars)
    return Ring(names, field, order)


def coefficient_row(genset, point, ring):
    """The coefficients of the specialized ideal's generators at `point`:
    A q_i(a) - B p_i(a) over each generator's shape terms (m, A, B) in turn,
    zeros kept, then those of t Q(y) - 1; or FAIL on a pole of a generator
    or of Q.  Every p_i(a), q_i(a) and Q(a) is read through one set of power
    tables of the point.  Only Q is tested for a pole: monic q_i divides the
    monic lcm Q over Z_(p), as `shape` would raise ZeroInverse on a
    coefficient with p in its denominator, so q_i(a) = 0 gives Q(a) = 0."""
    images, shapes, tq = genset.shape(ring)
    p = ring.field.p
    *values, qv = values_at(images, [{1: x} for x in point], p)
    if qv == 0:
        return FAIL
    return [(a * dv - b * pv) % p for pv, dv, shape in zip(
        values[::2], values[1::2], shapes) for _, a, b in shape] + [
            c for _, c in tq.terms]


def specialize_eoms(genset, point, ring):
    """Generators of the specialized ideal at `point`, its coefficient row
    on the shape terms with zero terms and generators dropped, then
    t Q(y) - 1; or FAIL on a pole."""
    row = coefficient_row(genset, point, ring)
    if row is FAIL:
        return FAIL
    _, shapes, tq = genset.shape(ring)
    row = iter(row)
    terms = [tuple((m, c) for (m, _, _), c in zip(sh, row) if c)
             for sh in shapes]
    return [MultiPoly(ring, t) for t in terms if t] + [tq]


class EomsEvaluator:
    """Shared traced-GB evaluation of the specialized ideal.

    The constructor learns one trace at one random point, checked by
    gb_verify at a second; the learn and its check count as one GB
    evaluation.  A pole at either point or a failed check raises
    UnluckyPoint: nothing is redrawn.  gb(a) replays the trace on the
    coefficient row at a and returns the reduced GB, or FAIL; gb_replay
    enforces the row's zero pattern at the learn point at every later point,
    and `learned` keeps the GB computed there.  The learn and each replay
    call `spend()`, which may raise to refuse it, then count in n_evals.
    eval(a) returns the tuple of the non-leading coefficients of gb(a), in
    the order of coefficient_keys(): (element index, monomial) per
    coefficient.  The trace and support never change, so the harvest keeps
    its sample table here for the evaluator's life: `seeds` (two 64-bit
    seeds drawn from `rng` after the learn), `values` (point ->
    eval(point)), `solved` (sequences and Prony roots) and `finished` (the
    "ok" report entries).
    """

    def __init__(self, genset, ring, rng, spend=lambda: None):
        self.genset = genset
        self.ring = ring
        self.spend = spend
        self.n_evals = 0
        self.values = {}
        self.solved = {}
        self.finished = {}
        self._learn(rng)
        self.seeds = rng.getrandbits(64), rng.getrandbits(64)

    def _random_point(self, rng):
        p = self.ring.field.p
        return tuple(rng.randrange(1, p) for _ in self.genset.ring.vars)

    def _learn(self, rng):
        points = [self._random_point(rng) for _ in range(2)]
        gens, check = (specialize_eoms(self.genset, a, self.ring)
                       for a in points)
        trace = FAIL
        if gens is not FAIL and check is not FAIL:
            self.spend()
            self.n_evals += 1
            gb, trace = gb_learn(self.ring, gens)
            trace = gb_verify(self.ring, check, trace)
        if trace is FAIL:
            raise UnluckyPoint("no regular specialization point mod %d"
                               % self.ring.field.p)
        self.trace, self.learned = trace, gb
        # the learn point's zeros: none, unless a shape term dropped there
        row = () if sum(map(len, self.genset.shape(self.ring)[1])) == sum(
            len(g.terms) for g in gens[:-1]) else coefficient_row(
                self.genset, points[0], self.ring)
        self._zeros = tuple(k for k, c in enumerate(row) if not c)
        self.support = tuple(g.support() for g in gb)
        self._keys = tuple((i, m) for i, supp in enumerate(self.support)
                           for m in supp[1:])
        self._index = {key: k for k, key in enumerate(self._keys)}

    def gb(self, point):
        self.spend()
        self.n_evals += 1
        row = coefficient_row(self.genset, point, self.ring)
        return FAIL if row is FAIL else gb_replay(self.ring, row, self.trace,
                                                  self._zeros)

    def eval(self, point):
        gb = self.gb(point)
        return FAIL if gb is FAIL else tuple(c for g in gb.packed
                                             for _, c in g[1:])

    def coefficient_keys(self):
        return self._keys

    def coefficient_blackbox(self, key):
        """One key's harvest blackbox, reading eval(point) via `values`."""
        k, values = self._index[key], self.values

        def fn(point):
            if point not in values:
                values[point] = self.eval(point)
            return FAIL if values[point] is FAIL else values[point][k]
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


def gb_coefficients(genset, degree_cutoff, ring, rng, evaluator=None):
    """Interpolate every reduced-GB coefficient with degree sum <= cutoff.

    Returns a CoefficientReport, or FAIL on the first key whose degree
    estimate or interpolation lost a sample or found no verified candidate.
    Coefficients are returned mod p (reconstruction to Q is the caller's
    job).  A shared evaluator may be passed in to keep its learned trace
    and its sample table: every cutoff reads the line, schedule and points
    of its seeds, and `rng` is read only to make an evaluator.  Each key
    reads the evaluator's coefficient_blackbox, and each GB evaluation is
    charged to its `spend`, which may raise.
    """
    evaluator = evaluator or EomsEvaluator(genset, ring, rng)
    x_ring = Ring(genset.ring.vars, ring.field, genset.ring.order)
    # common random numbers: every key of every call samples the same line
    # and gamma/sigma/row points, so one GB evaluation per point serves all
    est_seed, int_seed = evaluator.seeds
    finished, start_evals = evaluator.finished, evaluator.n_evals
    entries = {}
    for key in evaluator.coefficient_keys():
        done = finished.get(key)
        if done is not None and sum(done[2]) <= degree_cutoff:
            entries[key] = done
            continue
        bb = evaluator.coefficient_blackbox(key)
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
