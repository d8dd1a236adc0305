"""Reduced Groebner bases over F_p with learn/apply tracing.

Buchberger with the normal selection strategy and Gebauer-Moller pair
elimination.  A learn run compiles each reduction into a slot program
(Traverso's Groebner trace, rows fixed in advance as in F4's symbolic
preprocessing): one integer slot per monomial the reduction touched, the
first operand's slots, each step as (source slot, reducer, slots of the
shifted reducer), the remainder's slots and the slots that cancelled.  An
apply run maps each input's terms, as given, onto its learned support and
runs the programs as straight-line multiply-subtract on lists of ints, with
no heap and no divisor search.  groebner() records and compiles nothing.
A fresh trace runs its zero reductions in full; gb_verify checks it by one
such replay at a second point, then cuts them to quick checks.

Callers hand in and read exponent tuples.  Monomials are packed into single
integers only inside the learn, the GB and its normal forms, so that integer
comparison realizes the monomial order and integer addition realizes
monomial multiplication; divisibility is a guard-bit test.  ReducedGB is
built from the packed basis, and its MultiPoly view on first use.
"""

import heapq
from collections import namedtuple

from .arith import FAIL
from .poly import MultiPoly

TRACE_DIVERGED = FAIL

_FIELD_BITS = 17           # bits per exponent field (1 guard + 16 value)
_M = (1 << 16) - 1
MAX_EXPONENT = _M          # largest exponent a packed monomial holds


class _Codec:
    """Packs exponent tuples into order-comparable integers.

    One 17-bit field per variable (exponents must stay below 2^16).
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


def _reduce_full(work, lms, tails, codec, p, steps=None):
    """Fully reduce the packed term dict `work` by the basis view, appending
    (monomial, reducer index, packed multiplier) per step to `steps`."""
    CONST, GUARDS = codec.CONST, codec.GUARDS
    out = {}
    heap = [-m for m in work]
    heapq.heapify(heap)
    queued = set(work)
    while heap:
        m = -heapq.heappop(heap)
        queued.discard(m)
        c = work.pop(m, 0)
        if c == 0:
            continue
        base = m + CONST
        for idx, lm in enumerate(lms):
            q = base - lm
            if q >= 0 and not (q & GUARDS):
                q -= CONST
                if steps is not None:
                    steps.append((m, idx, q))
                for tm, tc in tails[idx]:
                    mm = q + tm
                    v = (work.get(mm, 0) - c * tc) % p
                    if v:
                        work[mm] = v
                        if mm not in queued:
                            queued.add(mm)
                            heapq.heappush(heap, -mm)
                    else:
                        work.pop(mm, None)
                break
        else:
            out[m] = c
    return out


def _spoly_dict(f, g, lcm, p):
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
    return d


def _divides(a, b, codec):
    q = b + codec.CONST - a
    return q >= 0 and not (q & codec.GUARDS)


def _gm_update(pairs, basis_lms, active, h_idx, codec):
    """Gebauer-Moller pair update after appending element h_idx; pairs are
    (lcm degree, packed lcm, i, j), so sorting them is the normal strategy;
    lm_i and lm_h are coprime when their lcm is their product."""
    pack, unpack = codec.pack, codec.unpack
    lmh = basis_lms[h_idx]
    eh = unpack(lmh)
    lcm_h = {}

    def lcm_with_h(i):
        if i not in lcm_h:
            lcm_h[i] = pack(tuple(map(max, eh, unpack(basis_lms[i]))))
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
    new_pairs = [(codec.degree(lcm_h[i]), lcm_h[i], i, h_idx) for i in kept
                 if i not in coprime]
    out = []
    for pair in pairs:
        _, lij, i, j = pair
        if (_divides(lmh, lij, codec) and lcm_with_h(i) != lij
                and lcm_with_h(j) != lij):
            continue
        out.append(pair)
    out.extend(new_pairs)
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


def _compile(first, steps, rem, basis):
    """Slot program (size, first operand, steps, output slots, cancelled
    slots) of one learned reduction, slots in descending monomial order.
    `first` is (basis index, packed shift); `steps` are _reduce_full's records
    with basis indices; the S-polynomial's second operand is its first step."""
    rows = [first] + [(i, q) for _, i, q in steps]
    order = sorted({m + q for i, q in rows for m, _ in basis[i]}, reverse=True)
    slot = {m: k for k, m in enumerate(order)}

    def row(i, q):
        return tuple(slot[m + q] for m, _ in basis[i])

    steps = tuple((slot[m], i, row(i, q)) for m, i, q in steps)
    out = tuple(sorted(slot[m] for m in rem))
    done = set(out).union(src for src, _, _ in steps)
    cancelled = tuple(k for k in range(len(order)) if k not in done)
    return len(order), (first[0], row(*first)), steps, out, cancelled


def _slots(program, basis, p):
    """Slot values, unreduced, after a program's first operand and steps;
    a step also clears its source slot, which is not read again."""
    size, (i, first), steps = program[:3]
    v = [0] * size
    for s, c in zip(first, basis[i]):
        v[s] = c
    for src, r, row in steps:
        c = v[src] % p
        if c:
            for s, rc in zip(row, basis[r]):
                v[s] -= c * rc
    return v


def _interreduce(basis, codec, p, programs=None):
    """Minimalize and tail-reduce a basis whose S-pairs all reduce to zero;
    append the program of each reduction to `programs` when it is given."""
    lms = [g[0][0] for g in basis]
    minimal = []
    for k in sorted(range(len(basis)), key=lms.__getitem__):
        if not any(_divides(lms[h], lms[k], codec) for h in minimal):
            minimal.append(k)
    reduced = []
    for k in minimal:
        others = [h for h in minimal if h != k]
        steps = None if programs is None else []
        d = _reduce_full(dict(basis[k]), [lms[h] for h in others],
                         [basis[h][1:] for h in others], codec, p, steps)
        reduced.append(_monic_terms(d, p))
        if programs is not None:
            steps = [(m, others[r], q) for m, r, q in steps]
            programs.append(_compile((k, 0), steps, d, basis))
    return reduced


GroebnerTrace = namedtuple("GroebnerTrace", (
    "supports",     # support of each nonzero input, exponent tuples in
                    # term order (the first is its leading monomial)
    "programs",     # slot programs: new basis elements and (when fresh)
                    # zero reductions, with no output slots; then the GB's
    "checks",       # gb_verify's per zero reduction: S-polynomial program
                    # (size, first, steps), slots the learn went on to reduce
    "outputs"))     # packed support of the reduced GB


class ReducedGB:
    """Reduced Groebner basis: monic elements sorted by leading monomial,
    built from packed term lists (each sorted descending) and their codec;
    the MultiPoly view `polys` is built on first use."""

    __slots__ = ("ring", "packed", "_codec", "_plms", "_ptails", "_polys")

    def __init__(self, ring, basis, codec):
        self.ring = ring
        self._codec = codec
        self.packed = sorted(basis, key=lambda g: g[0][0])
        self._plms = [g[0][0] for g in self.packed]
        self._ptails = [g[1:] for g in self.packed]
        self._polys = None

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

    def normal_form(self, poly):
        codec = self._codec
        d = _reduce_full(_pack_terms(codec, poly), self._plms,
                         self._ptails, codec, self.ring.field.p)
        return _unpack_terms(self.ring, codec, sorted(d.items(), reverse=True))

    def nonconstant_normal_forms(self, monomials):
        """The normal form of each monomial (an exponent tuple) without its
        constant term, as a dict keyed by packed monomials (opaque to the
        caller, equal for equal monomials)."""
        codec = self._codec
        out = [_reduce_full({codec.pack(m): 1}, self._plms, self._ptails,
                            codec, self.ring.field.p) for m in monomials]
        for d in out:
            d.pop(codec.CONST, None)        # the packed constant monomial
        return out


def _prepare(ring, generators):
    """Codec, the nonzero inputs (with copies equal up to a scalar, which
    _interreduce drops), and the unit GB when an input is constant."""
    codec = _Codec(len(ring.vars), ring.order.kind)
    inputs = [g for g in generators if not g.is_zero()]
    if not inputs:
        raise ValueError("no nonzero generators")
    unit = None
    if any(g.is_constant() for g in inputs):
        unit = ReducedGB(ring, [[(codec.CONST, 1)]], codec)
    return codec, inputs, unit


def _run_buchberger(ring, generators, learn):
    """The reduced GB; with `learn`, also the compiled trace of the run."""
    p = ring.field.p
    codec, inputs, unit = _prepare(ring, generators)
    if unit is not None:
        trace = GroebnerTrace((), (), (), unit.packed_support())
        return (unit, trace) if learn else unit
    basis = [_monic_terms(_pack_terms(codec, g), p) for g in inputs]
    lms = [g[0][0] for g in basis]
    pairs, active = [], set()
    for idx in range(len(basis)):
        pairs, active = _gm_update(pairs, lms, active, idx, codec)

    programs = []
    while pairs:
        pairs.sort()
        _, lcm, i, j = pairs.pop(0)
        s = _spoly_dict(basis[i], basis[j], lcm, p)
        tails = [g[1:] for g in basis]
        steps = [(lcm, j, lcm - lms[j])] if learn else None
        rem = _reduce_full(s, lms, tails, codec, p, steps)
        if learn:
            programs.append(_compile((i, lcm - lms[i]), steps, rem, basis))
        if not rem:
            continue
        h = _monic_terms(rem, p)
        basis.append(h)
        lms.append(h[0][0])
        pairs, active = _gm_update(pairs, lms, active, len(basis) - 1, codec)

    gb = ReducedGB(ring, _interreduce(basis, codec, p,
                                      programs if learn else None), codec)
    if not learn:
        return gb
    supports = tuple(g.support() for g in inputs)
    return gb, GroebnerTrace(supports, tuple(programs), (),
                             gb.packed_support())


def groebner(ring, generators):
    """Reduced Groebner basis of the given generators."""
    return _run_buchberger(ring, generators, learn=False)


def gb_learn(ring, generators):
    """Compute the reduced GB and compile a replayable trace."""
    return _run_buchberger(ring, generators, learn=True)


def gb_apply(ring, generators, trace):
    """Replay a trace on a structurally identical input.

    Returns the reduced GB, or FAIL when the replay stops matching the
    learn: another number of nonzero inputs, an input term off its learned
    support or a vanished learned lead, a nonzero slot that cancelled at
    the learn (any slot a fresh trace's zero reduction leaves), a remainder
    lead that vanishes, or a quick check whose first nonzero slot the learn
    did not go on to reduce (the caller discards the point).  So a fresh
    trace replays to exactly FAIL or groebner()'s basis.  Slots accumulate
    c * rc without a modulus and are reduced mod p only when read.
    """
    p = ring.field.p
    codec, inputs, unit = _prepare(ring, generators)
    if unit is not None:
        return unit
    if len(inputs) != len(trace.supports):
        return FAIL
    basis = []
    for g, support in zip(inputs, trace.supports):
        row = dict.fromkeys(support, 0)
        row.update(g.terms)
        # a term off the support, or a vanished learned leading coefficient
        if len(row) != len(support) or not row[support[0]]:
            return FAIL
        inv = pow(row[support[0]], -1, p)
        basis.append([c * inv % p for c in row.values()])
    for program in trace.programs:
        v = _slots(program, basis, p)
        if any(v[s] % p for s in program[4]):
            return FAIL
        if not program[3]:          # a zero reduction
            continue
        h = [v[s] % p for s in program[3]]
        if not h[0]:
            return FAIL
        inv = pow(h[0], -1, p)
        basis.append([c * inv % p for c in h])
    for program, reduced in trace.checks:
        v = _slots(program, basis, p)
        if next((k not in reduced for k, c in enumerate(v) if c % p), False):
            return FAIL
    final = basis[-len(trace.outputs):]
    return ReducedGB(ring, [[(m, c) for m, c in zip(monos, h) if c]
                            for monos, h in zip(trace.outputs, final)], codec)


def gb_verify(ring, generators, trace):
    """Check a fresh trace by its full replay on `generators`, taken at a
    second, independent point: FAIL unless that gives the learned support.
    Otherwise the trace cut for later replays: each zero reduction runs only
    its S-polynomial step, as a quick check."""
    replay = gb_apply(ring, generators, trace)
    if replay is FAIL or replay.packed_support() != trace.outputs:
        return FAIL
    checks = tuple(((n, first, steps[:1]), {src for src, _, _ in steps[1:]})
                   for n, first, steps, out, _ in trace.programs if not out)
    return trace._replace(programs=tuple(pr for pr in trace.programs if pr[3]),
                          checks=checks)
