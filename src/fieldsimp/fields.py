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
met by a large enough prime).  A query reduces the candidate's coefficients
mod p, sums p(b) and q(b) from a per-context memo of each monomial's value
(read once by `poly.values_at`, as `specialize_eoms` reads its point) and
packed key, then builds h from the keys.  The polynomial search reduces its
condition rows against one semi-echelon basis (`_reduce`, `_extend`),
retires a row that reduces to zero (Schwartz-Zippel: it stays zero but with
probability deg/p) and reads the kernel off its reduced form.

The specialized ideal comes from `oms`, and the harvest, the polynomial
search and membership all read the one ideal `specialize_eoms` builds.  The
search replays the trace of an `oms.EomsEvaluator` (the pipeline passes the
first evaluator of its harvest).  MembershipContext draws one point and
runs Buchberger there in degrevlex, once: a candidate's denominator is
never folded into Q, because at a random point that cannot change a
correct verdict (the argument is in MembershipContext's docstring).
Nothing here draws again after a lost sample: a pole of Q or of a
candidate at the context's point, or a failed replay in the polynomial
search, raises UnluckyPoint at once and ends the attempt, and
`simplify`'s restart at a fresh block of primes is the one retry.
"""

import bisect
import random

from .arith import FAIL
from .groebner import groebner
from .oms import (EomsEvaluator, GeneratorSet, UnluckyPoint, gb_ring,
                  specialize_eoms)
from .poly import MultiPoly, RationalFunction, Ring, values_at


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

    The point b is drawn once, and must be regular for every generator and
    for Q, that is where `specialize_eoms` succeeds; otherwise the context
    raises UnluckyPoint.  The reduced GB of its output, the harvest's ideal
    I_b with nothing appended, is computed with the draw (every context is
    queried) and kept with the context.  Every candidate p/q, whatever its
    denominator, is tested by l(NF(h)) = 0 for h = p(y) q(b) - q(y) p(b),
    NF its normal form against that GB and l a linear form on k[t, y]/I_b
    with weights from a stream seeded by b (ReducedGB.normal_form); p(b) and
    q(b) are summed from a memo of each monomial's value at b and packed
    key, filled at its first query.  A candidate with a pole at b (q(b) = 0)
    is a lost sample: the query raises UnluckyPoint.  At a generic b, h lies
    in I_b exactly for a member (Mueller-Quade and Steinwandt).  A member
    always gives 0; a non-member has NF(h) != 0 and gives 0 with probability
    1/p, on top of the point's own error.

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
        self.x_ring = Ring(genset.ring.vars, field, genset.ring.order)
        self.gb_ring = gb_ring(genset, field)
        self._memo = {}
        p = field.p
        self.point = tuple(rng.randrange(1, p)
                           for _ in range(genset.ring.arity))
        gens = specialize_eoms(genset, self.point, self.gb_ring)
        if gens is FAIL:
            raise UnluckyPoint("no regular evaluation point mod %d" % p)
        self._gb = groebner(self.gb_ring, gens)
        self._powers = [{1: x} for x in self.point]
        self._coords = tuple(range(len(self.point)))
        self._weights = random.Random(str(self.point))

    def contains(self, candidate):
        """True iff the candidate lies in the generated subfield (with
        probability controlled by the prime size); UnluckyPoint if it has
        a pole at the context's point."""
        if isinstance(candidate, MultiPoly):
            candidate = RationalFunction(candidate)
        if candidate.ring != self.genset.ring:
            raise ValueError("candidate from a different ring")
        p, memo, reduce = self.field.p, self._memo, self.field.from_fraction
        sides = []
        for poly in (candidate.num, candidate.den):
            total, terms = 0, []
            for m, c in poly.terms:
                c = c % p if c.__class__ is int else reduce(c)
                if c:               # m's value at b and its packed key
                    v, k = memo.get(m) or memo.setdefault(m, (values_at(
                        [[(1, m, self._coords)]], self._powers, p)[0],
                        self._gb.pack((0,) + m)))
                    total += c * v
                    terms.append((k, c))
            sides.append((terms, total % p))
        (num, pv), (den, qv) = sides
        if qv == 0:
            raise UnluckyPoint("candidate has a pole at the membership point "
                               "mod %d" % p)
        h = {}                              # h = p(y) q(b) - q(y) p(b)
        for terms, scale in ((num, qv), (den, -pv)):
            for k, c in terms:
                h[k] = (h.get(k, 0) + c * scale) % p
        return self._gb.normal_form(h, self._weights) == 0

    def transcendence_rank(self):
        return self.genset.ring.arity - self._gb.dimension()


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
        if others and MembershipContext(GeneratorSet(ring, others), field,
                                        rng).contains(kept[i]):
            kept.pop(i)
        else:
            i += 1
    return kept


def polynomial_generators(genset, delta, field, rng, evaluator=None):
    """Basis of { p in F_p[x] : deg p <= delta, p(x) in the subfield },
    constants left out.

    At a random point b, p = sum v_i m_i lies in the subfield only if the
    normal form of p(y) against the specialized ideal is a constant, so
    every nonconstant monomial in the normal forms of the candidate
    monomials m_i gives one linear condition on v.  The normal forms are
    planned once, as one table, from the supports of the EomsEvaluator's
    learned GB; each point fills it on its GB (a replay of the learned
    trace) and reads its live conditions as sparse rows (row r: the
    coefficients of its monomial in the NF_b(m_i)).  A failed replay raises
    UnluckyPoint.  From the learn point on, each live row is reduced once
    against E, the semi-echelon basis of earlier points' rows, drawn
    independently of b.  A zero residue, a rational function of b, is zero
    at every b and against any larger E but with probability deg/p
    (Schwartz-Zippel): the row retires; no live row left ends the search.
    Survivors extend the point's own rows, ascending, then join E.  A wrong
    retirement only enlarges the result, and `simplify._run_once` checks
    each member.
    E's columns ascend, so each free column f > 0 of its reduced form gives
    v_f = m_f - sum row_c[f] m_c, monic in m_f, 0 at the other free columns:
    the nullspace's reduced echelon basis, leading monomials descending.
    The search ends: each point that does not end it adds at least one row
    to E, column 0 is in no row, so rank(E) <= C(n + delta, n) - 1, and the
    points drawn plus the basis's length are at most C(n + delta, n).
    An evaluator of `genset` at `field` may be passed in to replay its
    trace instead of learning one; each replay is charged to its `spend`,
    which may raise, and counts in its n_evals.
    """
    ev = evaluator or EomsEvaluator(
        genset, gb_ring(genset, field, genset.ring.order), rng)
    x_ring = Ring(genset.ring.vars, field, genset.ring.order)
    n, p = genset.ring.arity, field.p
    monomials = sorted(_monomials_up_to(n, delta), key=x_ring.order.key)
    plan = ev.learned.compile_normal_forms([(0,) + mon for mon in monomials])
    echelon, live, gb = [], range(plan[0]), ev.learned
    while True:
        added, kept = [], []
        for r, row in gb.condition_rows(plan, live).items():
            row = _reduce(echelon, row, p)
            if row:
                kept.append(r)
                _extend(added, row, p)
        if not kept:
            break
        echelon, live = sorted(echelon + added), kept
        gb = ev.gb(tuple(rng.randrange(1, p) for _ in range(n)))
        if gb is FAIL:
            raise UnluckyPoint("trace replay failed in the polynomial "
                               "search mod %d" % p)
    reduced = _back_substitute(echelon, p)
    pivots = {c for c, _ in reduced}
    polys = []        # column 0, the constant, is in no row: it is left out
    for f in range(len(monomials) - 1, 0, -1):
        if f not in pivots:
            vec = {monomials[c]: -row[f] % p for c, row in reduced if f in row}
            vec[monomials[f]] = 1
            polys.append(x_ring.from_dict(vec))
    return polys


def _monomials_up_to(n, delta):
    out = [()]
    for _ in range(n):
        out = [m + (e,) for m in out for e in range(delta + 1 - sum(m))]
    return out
