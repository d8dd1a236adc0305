"""Randomized subfield membership and the operations built on it.

Membership of a candidate f = p/q in k(g_1..g_m) is decided at a random
point b by the criterion of Mueller-Quade and Steinwandt ("Basic algorithms
for rational function fields", J. Symbolic Comput. 1999): f lies in the
subfield iff h = p(y) q(b) - q(y) p(b) lies in the specialized ideal I_b of
the generators at a generic b.  The test reads l(NF(h)) = 0, for NF the
normal form against I_b and l a random linear form on its quotient, drawn
per point (a non-member passes with probability 1/p per query).  All
computations run over a word-sized prime field, which stands in for the
sampling-range bounds of the underlying analysis (any fixed error budget is
met by a large enough prime).  A query reads p(b) and q(b) off the
candidate's F_p image with `poly.values_at`, the point evaluator
`specialize_eoms` uses too, through the power tables of the context's
point, and builds h from them as packed terms.  The polynomial search
keeps the sparse rows of its conditions as one semi-echelon basis that
grows a row at a time (`_extend`), tests a row against it by reducing it
(`_reduce`) and back-substitutes once at the end.

The specialized ideal comes from `oms`, and the harvest, the polynomial
search and membership all read the one ideal `specialize_eoms` builds.  The
search replays the trace of an `oms.EomsEvaluator` (the pipeline passes the
first evaluator of its harvest).  MembershipContext draws its own point and
runs Buchberger there in degrevlex, once per point: a candidate's
denominator is never folded into Q, because at a random point that cannot
change a correct verdict (the argument is in MembershipContext's
docstring).  A point where a candidate has a pole is a lost sample, not a
lost test: MembershipContext is the one place that redraws such a point,
and it raises UnluckyPoint only when its draws run out.
"""

import bisect
import random

from .arith import FAIL
from .groebner import groebner
from .oms import (POINT_ATTEMPTS, EomsEvaluator, EvaluationBudgetExceeded,
                  GeneratorSet, UnluckyPoint, gb_ring, specialize_eoms)
from .poly import MultiPoly, RationalFunction, Ring, values_at


# points beyond one per candidate monomial for `polynomial_generators`
# (the dimension can drop by as little as one per point)
EXTRA_POINTS = 8


def _reduce(echelon, v, p):
    """The sparse row `v` ({column: value}) reduced by a semi-echelon basis:
    (pivot, row) pairs sorted by pivot, each row holding its entries right
    of its pivot, where it is 1.  The result is empty iff `v` lies in the
    row space."""
    v = dict(v)
    for c, row in echelon:
        f = v.pop(c, 0) % p
        if f:
            for j, y in row.items():
                v[j] = v.get(j, 0) - f * y
    return {j: x % p for j, x in v.items() if x % p}


def _extend(echelon, v, p):
    """Add the sparse row `v` to the row space of the semi-echelon basis
    `echelon` in place; False when `v` already lay in it."""
    v = _reduce(echelon, v, p)
    if not v:
        return False
    c = min(v)
    inv = pow(v.pop(c), -1, p)
    bisect.insort(echelon, (c, {j: x * inv % p for j, x in v.items()}))
    return True


def _back_substitute(echelon, p):
    """The reduced echelon basis of a semi-echelon basis's row space, in the
    same form, each row 0 at the other pivots."""
    done = []
    for c, row in reversed(echelon):
        done.insert(0, (c, _reduce(done, row, p)))
    return done


class MembershipContext:
    """Cached point, power tables and specialized GB for repeated tests.

    The point b is drawn regular for every generator and for Q, that is
    where `specialize_eoms` succeeds.  Its output is kept, and its reduced
    GB, the harvest's ideal I_b with nothing appended, is computed at the
    first query and kept until the next draw.  Every candidate p/q, whatever
    its denominator, is tested by l(NF(h)) = 0 for h = p(y) q(b) - q(y) p(b),
    NF its normal form against that GB and l a linear form on k[t, y]/I_b
    with weights from a stream seeded by b (ReducedGB.normal_form); p(b)
    and q(b) come from `values_at` on the candidate's F_p image and the
    point's power tables, kept until the next draw, and each monomial of h
    is packed once per context.  At a generic b, h lies in
    I_b exactly for a member (Mueller-Quade and Steinwandt).  A member
    always gives 0; a non-member has NF(h) != 0 and gives 0 with
    probability 1/p, on top of the point's own error.

    The GB is taken in degrevlex whatever the generators' order: neither
    membership in I_b nor its dimension depends on the monomial order, and
    a lex Buchberger run can take far longer than a degrevlex one.

    Folding q into Q (saturating I_b by q as well) would only remove points
    from V(I_b), so it could only turn a False verdict into True.  For a
    non-member such a flip is wrong.  For a member f = A(g)/B(g) it is not
    needed once B(g(b)) != 0, which fails at a random b with probability at
    most deg/p (Schwartz-Zippel).  Then at every y in V(I_b) the generators
    are regular (Q(y) != 0) and take their values at b, so A(g)/B(g) is
    regular at y; f is in lowest terms over a UFD, so q(y) != 0 and
    f(y) = f(b), and h vanishes on V(I_b).  The radicality of I_b that the
    test already assumes then puts h in I_b.

    V(I_b) is the fibre of g through b, with t fixed by Q, so the
    transcendence degree of the subfield is n - dim I_b.
    """

    def __init__(self, genset, field, rng):
        self.genset = genset
        self.field = field
        self.rng = rng
        self.x_ring = Ring(genset.ring.vars, field, genset.ring.order)
        self.gb_ring = gb_ring(genset, field)
        self._packed = {}
        self._draw_point()

    def _draw_point(self):
        """Move to a fresh point regular for every generator and for Q."""
        p = self.field.p
        for _ in range(POINT_ATTEMPTS):
            b = tuple(self.rng.randrange(1, p)
                      for _ in range(self.genset.ring.arity))
            gens = specialize_eoms(self.genset, b, self.gb_ring)
            if gens is FAIL:
                continue
            self.point, self._gens, self._gb = b, gens, None
            self._powers = [{1: x} for x in b]
            self._weights = random.Random(str(b))
            return
        raise UnluckyPoint("no regular evaluation point mod %d" % p)

    def _basis(self):
        """The reduced GB of I_b, computed at its first use."""
        if self._gb is None:
            self._gb = groebner(self.gb_ring, self._gens)
        return self._gb

    def contains(self, candidate):
        """True iff the candidate lies in the generated subfield (with
        probability controlled by the prime size)."""
        if isinstance(candidate, MultiPoly):
            candidate = RationalFunction(candidate)
        if candidate.ring != self.genset.ring:
            raise ValueError("candidate from a different ring")
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
        p = self.field.p
        pv, qv = values_at(image, self._powers, p)
        if qv == 0:
            return FAIL
        gb = self._basis()
        packed, h = self._packed, {}        # h = p(y) q(b) - q(y) p(b)
        for poly, scale in zip(image, (qv, -pv)):
            for m, c in poly.terms:
                k = packed.get(m)
                if k is None:
                    k = packed[m] = gb.pack((0,) + m)
                h[k] = (h.get(k, 0) + c * scale) % p
        return gb.normal_form(h, self._weights) == 0

    def transcendence_rank(self):
        return self.genset.ring.arity - self._basis().dimension()


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
    planned once, as one table, from the supports of the EomsEvaluator's
    learned GB; each point fills it on its GB (a replay of the learned
    trace) and reads its conditions as sparse rows.  They extend one
    semi-echelon basis: the first point is the learn point, and fresh
    points are drawn until one adds no row (a failed replay is skipped).
    Returns the monic elements of the reduced echelon basis of its
    nullspace, leading monomials descending.
    An evaluator of `genset` at `field` may be passed in to replay its
    trace instead of learning one; each replay counts in its n_evals.
    Raises EvaluationBudgetExceeded before a replay would take this call
    past `eval_cap` GB evaluations.
    """
    ev = evaluator or EomsEvaluator(
        genset, gb_ring(genset, field, genset.ring.order), rng)
    x_ring = Ring(genset.ring.vars, field, genset.ring.order)
    n, p = genset.ring.arity, field.p
    key = x_ring.order.key
    monomials = sorted(_monomials_up_to(n, delta), key=key)
    plan = ev.learned.compile_normal_forms([(0,) + mon for mon in monomials])
    echelon, gb, start = [], ev.learned, ev.n_evals
    for k in range(len(monomials) + EXTRA_POINTS):
        if k:
            if ev.n_evals - start >= eval_cap:
                raise EvaluationBudgetExceeded(
                    "GB evaluation budget ran out in the polynomial search")
            gb = ev.gb(tuple(rng.randrange(1, p) for _ in range(n)))
            if gb is FAIL:
                continue
        rows = gb.condition_rows(plan)
        if not sum(_extend(echelon, row, p) for row in rows):
            break
    else:
        raise UnluckyPoint("kernel iteration did not stabilize")
    reduced = _back_substitute(echelon, p)
    kernel = []       # column 0, the constant, is in no row: it is left out
    for f in set(range(1, len(monomials))).difference(c for c, _ in reduced):
        vec = {c: -row[f] for c, row in reduced if f in row}
        vec[f] = 1
        _extend(kernel, vec, p)
    polys = []
    for c, row in _back_substitute(kernel, p):
        row[c] = 1
        polys.append(x_ring.from_dict({monomials[j]: v
                                       for j, v in row.items()}).monic())
    polys.sort(key=lambda q: key(q.leading_monomial()), reverse=True)
    return polys


def _monomials_up_to(n, delta):
    out = [()]
    for _ in range(n):
        out = [m + (e,) for m in out for e in range(delta + 1 - sum(m))]
    return out
