"""Randomized subfield membership and the operations built on it.

Membership of a candidate f in k(g_1..g_m) is decided at a random point b:
a Jacobian row-span pre-test first, then a test of l(NF(h)) = 0 for
h = p_f(y) q_f(b) - q_f(y) p_f(b), where NF is the normal form against the
specialized ideal of the generators augmented with y_j - b_j for the
non-pivot variables j and l a random linear form on its quotient, drawn
per point (a non-member passes with probability 1/p per query).  All
computations run over a word-sized prime field, which stands in for the
sampling-range bounds of the underlying analysis (any fixed error budget is
met by a large enough prime): the Jacobian rows and candidate gradients
come by the quotient rule from one pass over the terms of the F_p images of
numerators and denominators, which reads each value and gradient together
from per-point power tables (points are drawn with every coordinate
nonzero); a query reuses its values to build h as packed terms.  Both the
rank test and the polynomial search keep an F_p row space as one
semi-echelon basis that grows a row at a time (`_extend`) and test a
vector against it by reducing it (`_reduce`); the search back-substitutes
once where it reads it.

The specialized ideal comes from `oms`: MembershipContext reads the F_p
images of the generators and of Q from `GeneratorSet.modp`, and the
polynomial search replays the trace of an `oms.EomsEvaluator` (the
pipeline passes the first evaluator of its harvest).
MembershipContext, whose ideal adds y_j - b_j, still draws its own point
and runs Buchberger there, once per point: a candidate's denominator is
never folded into Q, because at a random point that cannot change a
correct verdict (the argument is in MembershipContext's docstring).  A
point where a candidate has a pole is a lost sample, not a lost test:
MembershipContext is the one place that redraws such a point, and it
raises UnluckyPoint only when its draws run out.
"""

import bisect
import random

from .arith import FAIL
from .groebner import groebner
from .oms import (POINT_ATTEMPTS, EomsEvaluator, EvaluationBudgetExceeded,
                  GeneratorSet, UnluckyPoint, gb_ring, specialize_eoms)
from .poly import MultiPoly, RationalFunction


# points beyond one per candidate monomial for `polynomial_generators`
# (the dimension can drop by as little as one per point)
EXTRA_POINTS = 8


def _reduce(echelon, v, p):
    """`v` reduced by a semi-echelon basis: (pivot, row) pairs sorted by
    pivot, each row stored from its pivot, where it is 1.  An entry is taken
    mod p only when read as a pivot.  The result is zero iff `v` lies in the
    row space."""
    v = list(v)
    for c, row in echelon:
        f = v[c] % p
        if f:
            v[c:] = [x - f * y for x, y in zip(v[c:], row)]
    return [x % p for x in v]


def _extend(echelon, v, p):
    """Add `v` to the row space of the semi-echelon `echelon` in place;
    False when `v` already lay in it.  No stored row is rewritten."""
    v = _reduce(echelon, v, p)
    c = next((j for j, x in enumerate(v) if x), None)
    if c is None:
        return False
    inv = pow(v[c], -1, p)
    bisect.insort(echelon, (c, [x * inv % p for x in v[c:]]))
    return True


def _back_substitute(echelon, p):
    """The reduced echelon basis of a semi-echelon basis's row space, as
    (pivot, row) pairs of full rows, each row 0 at the other pivots."""
    done = []
    for c, row in reversed(echelon):
        done.insert(0, (c, _reduce([(d - c, r) for d, r in done], row, p)))
    return [(c, [0] * c + row) for c, row in done]


def _point_tables(point, p):
    """The inverses of a point's coordinates, all nonzero, and per
    coordinate a table of its powers x^e, each computed at its first use."""
    return [pow(x, -1, p) for x in point], [{1: x} for x in point]


def _gradient_modp(num, den, tables):
    """(gradient of num/den by the quotient rule, num value, den value) at
    the point of `tables` (`_point_tables`), for F_p polynomials num and
    den; None when den vanishes at the point."""
    p = num.ring.field.p
    dv, dgrad = _value_and_gradient(den, tables, p)
    if dv == 0:
        return None
    nv, ngrad = _value_and_gradient(num, tables, p)
    inv = pow(dv * dv, -1, p)
    return [(a * dv - nv * b) * inv % p for a, b in zip(ngrad, dgrad)], nv, dv


def _value_and_gradient(poly, tables, p):
    """Value and gradient of an F_p polynomial at a point, in one pass over
    its terms: a term c x^m adds m_i c x^m / x_i to entry i."""
    inverses, powers = tables
    value = 0
    grad = [0] * len(inverses)
    for m, c in poly.terms:
        v = c
        for row, e in zip(powers, m):
            if e:
                try:
                    v = v * row[e] % p
                except KeyError:
                    row[e] = pow(row[1], e, p)
                    v = v * row[e] % p
        value += v
        for i, e in enumerate(m):
            if e:
                grad[i] += e * v * inverses[i]
    return value % p, [g % p for g in grad]


class MembershipContext:
    """Cached point, pivot data, and specialized GB for repeated tests.

    The point b is drawn regular for every generator and for Q, with the
    tables (`_point_tables`) that the Jacobian rows and queries read.  The
    specialized ideal I at b (generators, t Q(y) - 1 and y_j - b_j for the
    non-pivot j) has one GB, computed at the first candidate that passes
    the Jacobian pre-test and kept until the next draw.  Every candidate
    p/q, whatever its denominator, is tested by l(NF(h)) = 0 for
    h = p(y) q(b) - q(y) p(b), NF its normal form against that GB and l a
    linear form on k[y]/I with weights from a stream seeded by b
    (ReducedGB.normal_form), in one pass over the candidate's F_p image
    that also gives p(b) and q(b); each monomial of h is packed once per
    context.  A member always gives 0; a non-member has NF(h) != 0 and
    gives 0 with probability 1/p, on top of the point's own error.

    Folding q into Q (saturating I by q as well) would only remove points
    from V(I), so it could only turn a False verdict into True.  For a
    non-member such a flip is wrong.  For a member f = A(g)/B(g) it is not
    needed once B(g(b)) != 0, which fails at a random b with probability at
    most deg/p (Schwartz-Zippel).  Then at every y in V(I) the generators
    are regular (Q(y) != 0) and take their values at b, so A(g)/B(g) is
    regular at y; f is in lowest terms over a UFD, so q(y) != 0 and
    f(y) = f(b), and h vanishes on V(I).  The radicality of I that the test
    already assumes then puts h in I.
    """

    def __init__(self, genset, field, rng):
        self.genset = genset
        self.field = field
        self.rng = rng
        self.x_ring, self._images, self._qpoly = genset.modp(field)
        self.gb_ring = gb_ring(genset, field, genset.ring.order)
        self._packed = {}
        self._draw_point()

    def _draw_point(self):
        """Move to a fresh point regular for every generator and for Q."""
        p = self.field.p
        for _ in range(POINT_ATTEMPTS):
            b = tuple(self.rng.randrange(1, p)
                      for _ in range(self.genset.ring.arity))
            at = _point_tables(b, p)
            rows = [_gradient_modp(num, den, at) for num, den in self._images]
            if None in rows or self._qpoly.evaluate(b) == 0:
                continue
            self.point, self._tables = b, at
            self._weights = random.Random(str(b))
            self.jacobian = [row for row, _, _ in rows]
            self._echelon = []
            for row in self.jacobian:
                _extend(self._echelon, row, p)
            self.rank = len(self._echelon)
            self.pivots = {c for c, _ in self._echelon}
            self.nonpivots = [j for j in range(self.genset.ring.arity)
                              if j not in self.pivots]
            self._gb = None
            return
        raise UnluckyPoint("no regular evaluation point mod %d" % p)

    def contains(self, candidate):
        """True iff the candidate lies in the generated subfield (with
        probability controlled by the prime size)."""
        if isinstance(candidate, MultiPoly):
            candidate = RationalFunction(candidate)
        if candidate.ring != self.genset.ring:
            raise ValueError("candidate from a different ring")
        if candidate.is_constant():
            return True
        image = candidate.modp(self.x_ring)
        for _ in range(POINT_ATTEMPTS):
            verdict = self._contains_at_point(image)
            if verdict is not FAIL:
                return verdict
            self._draw_point()
        raise UnluckyPoint("candidate has a pole at every point drawn mod %d"
                           % self.field.p)

    def _contains_at_point(self, image):
        """Membership verdict at the current point for a candidate's F_p
        image (num, den), or FAIL on a pole of the candidate."""
        got = _gradient_modp(*image, self._tables)
        if got is None:
            return FAIL
        grad, nv, dv = got
        p = self.field.p
        if any(_reduce(self._echelon, grad, p)):
            return False
        if self._gb is None:
            gens = specialize_eoms(self.genset, self.point, self.gb_ring)
            for j in self.nonpivots:
                gens.append(self.gb_ring.variable(1 + j)
                            - self.gb_ring.constant(self.point[j]))
            self._gb = groebner(self.gb_ring, gens)
        packed, h = self._packed, {}        # h = p(y) q(b) - q(y) p(b)
        for poly, scale in zip(image, (dv, -nv)):
            for m, c in poly.terms:
                k = packed.get(m)
                if k is None:
                    k = packed[m] = self._gb.pack((0,) + m)
                h[k] = (h.get(k, 0) + c * scale) % p
        return self._gb.normal_form(h, self._weights) == 0

    def transcendence_rank(self):
        return self.rank


def contains(genset, candidate, field, rng):
    """One-shot membership test."""
    return MembershipContext(genset, field, rng).contains(candidate)


def fields_equal(gs_a, gs_b, field, rng, eps=None):
    """Mutual containment of the two generating sets (`eps` is unused; it
    stays because perfbench/workloads.py passes it)."""
    if gs_a.ring != gs_b.ring:
        raise ValueError("generator sets from different rings")
    ctx_b = MembershipContext(gs_b, field, rng)
    if not all(ctx_b.contains(g) for g in gs_a.generators):
        return False
    ctx_a = MembershipContext(gs_a, field, rng)
    return all(ctx_a.contains(g) for g in gs_b.generators)


def minimize(generators, ring, field, rng):
    """Inclusion-minimal sublist generating the same field."""
    kept = [g if isinstance(g, RationalFunction) else RationalFunction(g)
            for g in generators]
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        if others and contains(GeneratorSet(ring, others), kept[i], field,
                               rng):
            kept.pop(i)
        else:
            i += 1
    return kept


def polynomial_generators(genset, delta, field, rng, evaluator=None,
                          eval_cap=10 ** 6):
    """Basis of { p in F_p[x] : deg p <= delta, p(x) in the subfield },
    constants left out.

    At a random point b, p = sum v_i m_i lies in the subfield only if the
    normal form of p(y) against the specialized ideal is a constant, so
    every nonconstant monomial in the normal forms of the candidate
    monomials m_i gives one linear condition on v.  The normal forms are
    compiled once, at the EomsEvaluator's learned GB, into slot programs;
    each point replays them on its GB (a replay of the learned trace) to
    read its conditions.  The conditions extend one semi-echelon basis:
    the first point is the learn point, and fresh points are drawn until
    one adds no row to it (a lost point, a failed GB replay or a nonzero
    cancelled slot, is skipped).  Returns the monic elements of the
    reduced echelon basis of its nullspace, leading monomials descending.
    An evaluator of `genset` at `field` may be passed in to replay its
    trace instead of learning one; each replay counts in its n_evals.
    Raises EvaluationBudgetExceeded before a replay would take this call
    past `eval_cap` GB evaluations.
    """
    ev = evaluator or EomsEvaluator(
        genset, gb_ring(genset, field, genset.ring.order), rng)
    x_ring = genset.modp(field)[0]
    n = genset.ring.arity
    p = field.p
    key = x_ring.order.key
    monomials = sorted(_monomials_up_to(n, delta), key=key)
    forms = ev.learned.compile_normal_forms([(0,) + mon for mon in monomials])
    dim = len(monomials)
    echelon = []
    gb, start = ev.learned, ev.n_evals
    for k in range(dim + EXTRA_POINTS):
        if k:
            if ev.n_evals - start >= eval_cap:
                raise EvaluationBudgetExceeded(
                    "GB evaluation budget ran out in the polynomial search")
            gb = ev.gb(tuple(rng.randrange(1, p) for _ in range(n)))
        rows = FAIL if gb is FAIL else gb.condition_rows(forms)
        if rows is FAIL:
            continue
        if not sum(_extend(echelon, row, p) for row in rows):
            break
    else:
        raise UnluckyPoint("kernel iteration did not stabilize")
    reduced = _back_substitute(echelon, p)
    pivots = {c for c, _ in reduced}
    kernel = []
    for f in range(dim):
        if f in pivots:
            continue
        vec = [0] * dim
        vec[f] = 1
        for c, row in reduced:
            vec[c] = -row[f] % p
        _extend(kernel, vec, p)
    polys = []
    for _, vec in _back_substitute(kernel, p):
        poly = x_ring.from_dict({m: c for m, c in zip(monomials, vec) if c})
        if not poly.is_constant():
            polys.append(poly.monic())
    polys.sort(key=lambda q: key(q.leading_monomial()), reverse=True)
    return polys


def _monomials_up_to(n, delta):
    out = [()]
    for _ in range(n):
        out = [m + (e,) for m in out for e in range(delta + 1 - sum(m))]
    return out
