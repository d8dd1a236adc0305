"""Reduced Groebner bases over F_p with learn/apply tracing.

Buchberger with the sugar strategy (Giovini, Mora, Niesi, Robbiano and
Traverso 1991), pairs taken by (sugar, packed lcm), and Gebauer-Moller pair
elimination.  A learn run compiles each reduction, as it runs, into one
slot plan over a single list of ints (Traverso's Groebner trace, rows fixed
in advance as in F4's symbolic preprocessing): the inputs' coefficients
first, then a region per reduction, a position per monomial it touched,
each step (source, reducer's tail, positions of the shifted tail).  A
replay (gb_replay on a coefficient row, gb_apply on MultiPolys on the
learned supports) runs the programs level by level as straight-line
multiply-subtract, with no heap and no divisor search, and makes each
level's new elements monic with one inversion.  groebner() records and
compiles nothing.  A fresh trace runs its zero reductions in full;
gb_verify checks it by one such replay at a second point, then cuts them to
quick checks.  A table of normal forms of given monomials, planned from one
GB's supports, fills on any GB of that support (the polynomial search).

The reduction kernel, like the replay, leaves coefficients unreduced until
they are read; a Buchberger run shares one memo of each monomial's first
divisor, valid while the divisors only grow.

Callers hand in and read exponent tuples.  Monomials are packed into single
integers by one checked packer, only inside the learn, the GB and its normal
forms, so that integer comparison realizes the monomial order and integer
addition realizes monomial multiplication; divisibility is a guard-bit test,
and a monomial past MAX_EXPONENT raises ExponentOverflow.  ReducedGB is built
from the packed basis, and its MultiPoly view on first use.
"""

import heapq
from collections import namedtuple

from .arith import FAIL
from .poly import MultiPoly

TRACE_DIVERGED = FAIL

_FIELD_BITS = 17           # bits per exponent field (1 guard + 16 value)
_M = (1 << 16) - 1
MAX_EXPONENT = _M          # largest exponent a packed monomial holds


class ExponentOverflow(ValueError):
    """A Groebner computation reached an exponent above MAX_EXPONENT."""


_OVERFLOW = ("a Groebner basis exponent exceeds %d, the largest a packed "
             "monomial holds" % MAX_EXPONENT)


class _Codec:
    """The one way into the packed form: exponent tuples to order-comparable
    integers, raising ExponentOverflow past MAX_EXPONENT.

    One 17-bit field per variable (a guard bit over 16 value bits).
    degrevlex layout, most significant first:
        [total degree | M - e_n | ... | M - e_1]
    lex layout:
        [e_1 | ... | e_n]
    Under both layouts, for packed a, b:
        a < b as integers  iff  a < b in the monomial order,
        mul(a, b) = a + b - CONST, and q = a + CONST - b is the packed
        quotient a/b whenever q >= 0 and none of its guard bits are set.
    """

    __slots__ = ("n", "kind", "CONST", "GUARDS", "_shifts", "_deg_shift")

    def __init__(self, n, kind):
        self.n = n
        self.kind = kind
        if kind == "degrevlex":
            # e_1 least significant, degree on top
            self._shifts = [_FIELD_BITS * i for i in range(n)]
            self._deg_shift = _FIELD_BITS * n
            self.CONST = sum(_M << s for s in self._shifts)
        else:
            self._shifts = [_FIELD_BITS * (n - 1 - i) for i in range(n)]
            self._deg_shift = None
            self.CONST = 0
        # q >= 0 covers the top field (in degrevlex, the degree: unbounded)
        self.GUARDS = sum((1 << 16) << s for s in self._shifts)

    def pack(self, e):
        if max(e) > MAX_EXPONENT:
            raise ExponentOverflow(_OVERFLOW)
        if self.kind == "degrevlex":
            v = sum(e) << self._deg_shift
            for x, s in zip(e, self._shifts):
                v += (_M - x) << s
            return v
        v = 0
        for x, s in zip(e, self._shifts):
            v += x << s
        return v

    def unpack(self, v):
        if self.kind == "degrevlex":
            return tuple(_M - ((v >> s) & _M) for s in self._shifts)
        return tuple((v >> s) & _M for s in self._shifts)

    def degree(self, v):
        if self.kind == "degrevlex":
            return v >> self._deg_shift
        return sum(self.unpack(v))


def _pack_terms(codec, poly):
    pack = codec.pack
    return {pack(m): c for m, c in poly.terms}


def _unpack_terms(ring, codec, terms):
    unpack = codec.unpack
    return MultiPoly(ring, tuple((unpack(m), c) for m, c in terms))


def _reduce_full(work, lms, tails, codec, p, steps=None, memo=None):
    """Fully reduce the packed term dict `work` by the basis view, appending
    (monomial, reducer index, packed multiplier) per step to `steps`.

    The values in `work` stay unreduced until a monomial is popped, and a
    monomial is in `work` exactly while it is queued (every shifted tail
    monomial is below the popped one).  `memo` maps a monomial to the index
    of its first divisor in `lms`, or to ~k when none of lms[:k] divides
    it; it stays valid only while `lms` grows by appending."""
    CONST, GUARDS = codec.CONST, codec.GUARDS
    memo = {} if memo is None else memo
    out = {}
    heap = [-m for m in work]
    heapq.heapify(heap)
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m) % p
        if c == 0:
            continue
        idx = memo.get(m, -1)
        if idx < 0:
            idx = memo[m] = _first_divisor(m, ~idx, lms, CONST, GUARDS)
            if idx < 0:
                out[m] = c
                continue
        q = m - lms[idx]
        if steps is not None:
            steps.append((m, idx, q))
        for tm, tc in tails[idx]:
            mm = q + tm
            v = work.get(mm)
            if v is None:
                if mm & GUARDS:
                    raise ExponentOverflow(_OVERFLOW)
                work[mm] = -c * tc
                heapq.heappush(heap, -mm)
            else:
                work[mm] = v - c * tc
    return out


def _first_divisor(m, start, lms, CONST, GUARDS):
    """Index of the first of lms[start:] dividing the packed monomial `m`,
    or ~len(lms) when none does."""
    base = m + CONST
    for idx in range(start, len(lms)):
        q = base - lms[idx]
        if q >= 0 and not (q & GUARDS):
            return idx
    return ~len(lms)


def _spoly_dict(f, g, lcm, codec, p):
    """S-polynomial of monic packed term lists f, g, whose leading monomials
    have the packed lcm `lcm`, as a packed dict."""
    qf, qg = lcm - f[0][0], lcm - g[0][0]
    d = {}
    for m, c in f:
        d[m + qf] = c
    for m, c in g:
        mm = m + qg
        v = (d.get(mm, 0) - c) % p
        if v:
            d[mm] = v
        else:
            d.pop(mm, None)
    if any(m & codec.GUARDS for m in d):
        raise ExponentOverflow(_OVERFLOW)
    return d


def _divides(a, b, codec):
    q = b + codec.CONST - a
    return q >= 0 and not (q & codec.GUARDS)


def _gm_update(pairs, basis_lms, exps, ecart, active, h_idx, codec):
    """Gebauer-Moller pair update after appending element h_idx; `exps`
    holds the leading monomials' exponent tuples and `ecart` each element's
    sugar less its leading monomial's degree.  Pairs are (sugar, packed lcm,
    i, j), with sugar max(s_i + deg lcm - deg lm_i, same for j), returned
    sorted in the sugar strategy's order; lm_i and lm_h are coprime when
    their lcm is their product."""
    pack = codec.pack
    lmh = basis_lms[h_idx]
    eh = exps[h_idx]
    lcm_h = {}

    def lcm_with_h(i):
        if i not in lcm_h:
            lcm_h[i] = pack(tuple(map(max, eh, exps[i])))
        return lcm_h[i]

    coprime = {i for i in active
               if lcm_with_h(i) == lmh + basis_lms[i] - codec.CONST}
    candidates = sorted(active)
    kept = []
    while candidates:
        i = candidates.pop(0)
        li = lcm_h[i]
        if i in coprime:
            keep = True
        else:
            keep = (all(not _divides(lcm_h[j], li, codec) or lcm_h[j] == li
                        for j in candidates)
                    and all(not _divides(lcm_h[j], li, codec) for j in kept))
        if keep:
            kept.append(i)
    new_pairs = [(codec.degree(lcm_h[i]) + max(ecart[i], ecart[h_idx]),
                  lcm_h[i], i, h_idx) for i in kept if i not in coprime]
    out = []
    for pair in pairs:
        _, lij, i, j = pair
        if (_divides(lmh, lij, codec) and lcm_with_h(i) != lij
                and lcm_with_h(j) != lij):
            continue
        out.append(pair)
    out.extend(new_pairs)
    out.sort()
    new_active = {i for i in active if not _divides(lmh, basis_lms[i], codec)}
    new_active.add(h_idx)
    return out, new_active


def _monic_terms(d, p):
    """Packed dict -> monic term list sorted descending."""
    items = sorted(d.items(), reverse=True)
    lc = items[0][1]
    if lc != 1:
        inv = pow(lc, -1, p)
        items = [(m, (c * inv) % p) for m, c in items]
    return items


class _Plan:
    """A trace's slot plan, filled as the learn compiles: one list of ints,
    the inputs' coefficients in turn, then a region per reduction.  An
    element (an input, a remainder or one it copies) is (slice, tail slice,
    level): inputs are 0, a reduction and its remainder one above what it
    reads.  A level holds programs and new elements."""

    def __init__(self, supports):
        self.supports, self.programs, self.elements = supports, [], []
        self.size, self.levels = 0, {}
        for support in supports:
            self.add(len(support), 0, len(support))

    def add(self, n, level, size, program=None):
        """Take `size` positions for `program`, the first n a new element."""
        programs, news = self.levels.setdefault(level, ([], []))
        if n:
            news.append(slice(self.size, self.size + n))
            self.elements.append(
                (news[-1], slice(self.size + 1, self.size + n), level))
        if program:
            programs.append(program)
            self.programs.append(program)
        self.size += size


def _compile(plan, first, steps, rem, basis):
    """Plan a learned reduction as (first operand, its positions, steps,
    remainder or None, cancelled positions), its region the remainder's
    monomials then the rest, each descending.  `first` is (basis index,
    packed shift), `steps` _reduce_full's records with basis indices; a step
    is (source, reducer's tail, shifted tail's positions), as the lead only
    clears the source.  An element left as it is keeps its positions."""
    elements = plan.elements
    i, shift = first
    if not steps:
        elements.append(elements[i])
        plan.programs.append((elements[i][0], (), (), elements[i][0], ()))
        return
    rows = [first] + [(r, q) for _, r, q in steps]
    touched = {m + q for r, q in rows for m, _ in basis[r]}
    order = sorted(rem, reverse=True)
    order += sorted(touched.difference(rem), reverse=True)
    slot = dict(zip(order, range(plan.size, plan.size + len(order))))
    program = (elements[i][0], tuple([slot[m + shift] for m, _ in basis[i]]),
               tuple([(slot[m], elements[r][1],
                       tuple([slot[t + q] for t, _ in basis[r][1:]]))
                      for m, r, q in steps]),
               slice(plan.size, plan.size + len(rem)) if rem else None,
               tuple([slot[m] for m in touched.difference(
                   rem, [m for m, _, _ in steps])]))
    plan.add(len(rem), 1 + max([elements[r][2] for r, _ in rows]),
             len(order), program)


def _interreduce(basis, codec, p, plan=None):
    """Minimalize and tail-reduce a basis whose S-pairs all reduce to zero;
    compile each reduction into `plan` when it is given."""
    lms = [g[0][0] for g in basis]
    minimal = []
    for k in sorted(range(len(basis)), key=lms.__getitem__):
        if not any(_divides(lms[h], lms[k], codec) for h in minimal):
            minimal.append(k)
    reduced = []
    for k in minimal:
        others = [h for h in minimal if h != k]
        steps = None if plan is None else []
        d = _reduce_full(dict(basis[k]), [lms[h] for h in others],
                         [basis[h][1:] for h in others], codec, p, steps)
        reduced.append(_monic_terms(d, p))
        if plan is not None:
            steps = [(m, others[r], q) for m, r, q in steps]
            _compile(plan, (k, 0), steps, d, basis)
    return reduced


GroebnerTrace = namedtuple("GroebnerTrace", (
    "supports",     # support of each nonzero input, exponent tuples in
                    # term order (the first is its leading monomial)
    "programs",     # _compile's, in order: new basis elements and (when
                    # fresh) zero reductions, with no remainder; then the GB's
    "checks",       # gb_verify's quick check per zero reduction
    "outputs",      # packed support of the reduced GB
    "plan"))        # codec, positions, per level (programs, new elements),
                    # the GB's elements (see _Plan)


class ReducedGB:
    """Reduced Groebner basis: monic packed term lists (each sorted
    descending) and their codec, ascending by leading monomial as handed
    over (`_interreduce` builds them in that order and a replay follows
    it); the MultiPoly view `polys` is built on first use."""

    __slots__ = ("ring", "packed", "_codec", "_plms", "_ptails", "_polys",
                 "_phi")

    def __init__(self, ring, basis, codec):
        self.ring = ring
        self._codec = codec
        self.packed = basis
        self._plms = [g[0][0] for g in self.packed]
        self._ptails = [g[1:] for g in self.packed]
        self._polys = None
        self._phi = {}

    @property
    def polys(self):
        if self._polys is None:
            self._polys = [_unpack_terms(self.ring, self._codec, g)
                           for g in self.packed]
        return self._polys

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.packed)

    def packed_support(self):
        return tuple(tuple(m for m, _ in g) for g in self.packed)

    def dimension(self):
        """The ideal's dimension: the largest number of variables that
        together contain no leading monomial's support (-1 for the unit
        ideal).  Some variable of the smallest support is left out."""
        supports = {frozenset(i for i, e in enumerate(self._codec.unpack(m))
                              if e) for m in self._plms}

        def free(supports, n):
            if not supports:
                return n
            return max((free({s for s in supports if i not in s}, n - 1)
                        for i in min(supports, key=len)), default=-1)
        return free(supports, len(self.ring.vars))

    def pack(self, e):
        """`e` packed for `normal_form` by the codec's one checked packer."""
        return self._codec.pack(e)

    def _walk(self, terms, known):
        """{m: index of m's first divisor, or < 0} for each m of nonzero
        coefficient in the packed `terms` and each q t reached from a
        reducible m = q lm(g) via g's tail monomials t, less those in `known`;
        depth first from the least, in post-order (each m after its q t)."""
        lms, tails, GUARDS = self._plms, self._ptails, self._codec.GUARDS
        CONST, out, memo = self._codec.CONST, {}, {}
        stack = sorted((m for m, c in terms.items() if c and m not in known),
                       reverse=True)
        while stack:
            m = stack.pop()
            if m in out:
                continue
            idx = memo.get(m)
            if idx is None:     # at m's second visit every q t < m is out
                idx = memo[m] = _first_divisor(m, 0, lms, CONST, GUARDS)
                if idx >= 0:
                    q = m - lms[idx]
                    todo = [mm for tm, _ in tails[idx]
                            if (mm := q + tm) not in known and mm not in out]
                    if todo:
                        if any(mm & GUARDS for mm in todo):
                            raise ExponentOverflow(_OVERFLOW)
                        stack += [m, *todo]
                        continue
            out[m] = idx
        return out

    def normal_form(self, poly, weights=None):
        """The normal form of `poly`, a MultiPoly or a dict of terms packed by
        `pack` (coefficients in [0, p)); given `weights`, a random.Random,
        instead phi(poly) = l(NF(poly)) in F_p for a random linear form l on
        the quotient, memoized on this GB per monomial: a standard monomial
        takes a weight drawn from `weights` at its first use, a reducible
        m = u lm(g) the value -sum c_t phi(u t) over the tail terms c_t t of
        g, as m = -u tail(g) mod the ideal.  So phi(poly) is 0 for a member
        and, for a non-member, with probability 1/p.  Every call on one GB
        must pass the same stream; the new monomials are filled in the
        post-order of `_walk`, in any order of the terms."""
        codec, p = self._codec, self.ring.field.p
        terms = poly if isinstance(poly, dict) else _pack_terms(codec, poly)
        if weights is None:
            d = _reduce_full(dict(terms), self._plms, self._ptails, codec, p)
            return _unpack_terms(self.ring, codec,
                                 sorted(d.items(), reverse=True))
        lms, tails, phi = self._plms, self._ptails, self._phi
        for m, idx in self._walk(terms, phi).items():
            if idx < 0:
                phi[m] = weights.randrange(p)
            else:
                q = m - lms[idx]
                phi[m] = -sum(tc * phi[q + tm] for tm, tc in tails[idx]) % p
        return sum(c * phi[m] for m, c in terms.items() if c) % p

    def compile_normal_forms(self, monomials):
        """The normal-form table of `monomials` (exponent tuples), planned
        from this GB's supports alone by `_walk`: (rows, steps, positions).
        Positions 0 .. rows-1 are the nonconstant standard monomials reached,
        ascending, and rows the constant; the reducible m = q lm(g) follow,
        ascending, each a step (index of g, positions of the q t for g's tail
        monomials t, bitmask of the rows its normal form can reach)."""
        lms, tails, CONST = self._plms, self._ptails, self._codec.CONST
        packed = [self._codec.pack(m) for m in monomials]
        divisor = self._walk(dict.fromkeys(packed, 1), {})
        order = sorted(divisor)
        standard = [m for m in order if divisor[m] < 0 and m != CONST]
        position = {m: r for r, m in enumerate(standard + [CONST])}
        steps, reach = [], [1 << r for r in range(len(standard))] + [0]
        for m in order:
            idx = divisor[m]
            if idx >= 0:
                q = m - lms[idx]
                position[m] = len(reach)
                shifted = [position[q + tm] for tm, _ in tails[idx]]
                reach.append(0)
                for k in shifted:
                    reach[-1] |= reach[k]
                steps.append((idx, shifted, reach[-1]))
        return len(standard), steps, [position[m] for m in packed]

    def condition_rows(self, plan, live):
        """A table planned at a GB of this support, filled from the least
        monomial up, NF(q lm(g)) = -sum c_t NF(q t) over g's tail terms, on
        the distinct rows in `live` alone (a retired row stays 0 but with
        probability deg/p, Schwartz-Zippel), skipping steps that reach none,
        read as {row: {monomial index: coefficient}} for its nonzero rows in
        order.  A replayed GB has the learned support: the plan holds."""
        rows, steps, positions = plan
        p, tails = self.ring.field.p, self._ptails
        mask = sum(1 << r for r in live)
        table = [{r: 1} if mask >> r & 1 else {} for r in range(rows)] + [{}]
        for idx, shifted, reach in steps:
            nf = {}
            if reach & mask:
                for (_, c), k in zip(tails[idx], shifted):
                    for r, v in table[k].items():
                        nf[r] = (nf.get(r, 0) - c * v) % p
            table.append(nf)
        out = {r: {} for r in live}
        for i, k in enumerate(positions):
            for r, v in table[k].items():
                if v:
                    out[r][i] = v
        return {r: row for r, row in out.items() if row}


def _run_buchberger(ring, generators, learn):
    """The reduced GB; with `learn`, also the compiled trace of the run.  The
    inputs are the nonzero generators, constants and scalar copies included."""
    p = ring.field.p
    codec = _Codec(len(ring.vars), ring.order.kind)
    inputs = [g for g in generators if not g.is_zero()]
    if not inputs:
        raise ValueError("no nonzero generators")
    basis = [_monic_terms(_pack_terms(codec, g), p) for g in inputs]
    lms = [g[0][0] for g in basis]
    exps = [codec.unpack(lm) for lm in lms]
    ecart = [g.degree() - sum(e) for g, e in zip(inputs, exps)]
    tails = [g[1:] for g in basis]
    pairs, active = [], set()
    for idx in range(len(basis)):
        pairs, active = _gm_update(pairs, lms, exps, ecart, active, idx,
                                   codec)

    plan = _Plan(tuple(g.support() for g in inputs)) if learn else None
    memo = {}
    while pairs:
        sugar, lcm, i, j = pairs.pop(0)
        s = _spoly_dict(basis[i], basis[j], lcm, codec, p)
        steps = [(lcm, j, lcm - lms[j])] if learn else None
        rem = _reduce_full(s, lms, tails, codec, p, steps, memo)
        if learn:
            _compile(plan, (i, lcm - lms[i]), steps, rem, basis)
        if not rem:
            continue
        h = _monic_terms(rem, p)
        basis.append(h)
        lms.append(h[0][0])
        exps.append(codec.unpack(h[0][0]))
        ecart.append(sugar - sum(exps[-1]))
        tails.append(h[1:])
        pairs, active = _gm_update(pairs, lms, exps, ecart, active,
                                   len(basis) - 1, codec)

    gb = ReducedGB(ring, _interreduce(basis, codec, p, plan), codec)
    if not learn:
        return gb
    levels = tuple((tuple(plan.levels[k][0]), tuple(plan.levels[k][1]))
                   for k in sorted(plan.levels))
    final = tuple(e[0] for e in plan.elements[-len(gb):])
    return gb, GroebnerTrace(plan.supports, tuple(plan.programs), (),
                             gb.packed_support(),
                             (codec, plan.size, levels, final))


def groebner(ring, generators):
    """Reduced Groebner basis of the given generators."""
    return _run_buchberger(ring, generators, learn=False)


def gb_learn(ring, generators):
    """Compute the reduced GB and compile a replayable trace."""
    return _run_buchberger(ring, generators, learn=True)


def gb_apply(ring, generators, trace):
    """Replay a trace on a structurally identical input: gb_replay on the
    nonzero inputs' coefficients, or FAIL on another number of them or one
    off its learned support (a term added or a learned term vanished)."""
    inputs = [g for g in generators if not g.is_zero()]
    if [g.support() for g in inputs] != list(trace.supports):
        return FAIL
    return gb_replay(ring, [c for g in inputs for _, c in g.terms], trace)


def gb_replay(ring, row, trace, zeros=()):
    """Replay a trace's slot plan on `row`, its inputs' coefficients in
    turn, each in term order, zero exactly at the positions `zeros`: the
    reduced GB, of support exactly `trace.outputs`, or FAIL on another zero
    pattern (a term added or a learned term vanished), a nonzero slot that
    cancelled at the learn (any a fresh trace's zero reduction leaves), a
    vanished remainder lead or output term, or a quick check whose first
    nonzero slot the learn did not go on to reduce (a lost sample, which
    ends the caller's attempt).  So a fresh trace replays to exactly FAIL or
    groebner()'s basis.  Slots are reduced mod p only when read; one pow per
    level makes its new elements monic in place (Montgomery's trick)."""
    if row.count(0) != len(zeros) or any(row[k] for k in zeros):
        return FAIL
    p = ring.field.p
    codec, size, levels, final = trace.plan
    v = [c for c in row if c] if zeros else list(row)
    v += [0] * (size - len(v))
    for programs, news in levels:
        for first, positions, steps, _, cancelled in programs:
            for s, c in zip(positions, v[first]):
                v[s] = c
            for src, tail, shifted in steps:
                c = v[src] % p
                for s, rc in zip(shifted, v[tail]):
                    v[s] -= c * rc
            for s in cancelled:
                if v[s] % p:
                    return FAIL
        prefix, acc = [], 1
        for new in reversed(news):
            prefix.append(acc)
            acc = acc * v[new.start] % p
        if not acc:             # a lead vanished
            return FAIL
        acc = pow(acc, -1, p)
        for new, before in zip(news, reversed(prefix)):
            a = new.start
            inv, acc, v[a] = acc * before % p, acc * v[a] % p, 1
            for s in range(a + 1, new.stop):
                v[s] = v[s] * inv % p
    for ((lo, hi), (first, positions), ((_, tail, shifted),)), reduced \
            in trace.checks:
        for s, c in zip(positions, v[first]):
            v[s] = c
        for s, c in zip(shifted, v[tail]):
            v[s] -= c
        for s in range(lo, hi):
            if v[s] % p:
                if s not in reduced:
                    return FAIL
                break
    basis = [v[element] for element in final]
    if any(0 in h for h in basis):
        return FAIL
    return ReducedGB(ring, [list(zip(monos, h))
                            for monos, h in zip(trace.outputs, basis)], codec)


def gb_verify(ring, generators, trace):
    """Check a fresh trace by its full replay on `generators`, taken at a
    second, independent point: FAIL unless that gives the learned support.
    Otherwise the trace cut for later replays: a zero reduction runs only
    its S-polynomial step below the lcm, in its own positions (the rest of
    its region stays 0), as a quick check of the first nonzero one."""
    if gb_apply(ring, generators, trace) is FAIL:
        return FAIL
    codec, size, levels, final = trace.plan
    checks = []
    for first, positions, steps, out, _ in trace.programs:
        if out is None:         # a zero reduction
            below = positions[1:] + steps[0][2]
            checks.append(((
                (min(below, default=0), max(below, default=-1) + 1),
                (slice(first.start + 1, first.stop), positions[1:]),
                steps[:1]), frozenset(src for src, _, _ in steps[1:])))
    return trace._replace(
        programs=tuple(pr for pr in trace.programs if pr[3]),
        checks=tuple(checks), plan=(codec, size, tuple(
            (tuple(pr for pr in programs if pr[3]), news)
            for programs, news in levels if news), final))
