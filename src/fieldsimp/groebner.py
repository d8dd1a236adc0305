"""Reduced Groebner bases over F_p with learn/apply tracing.

Buchberger with the normal selection strategy and Gebauer-Moller pair
elimination.  A learn run records the critical-pair schedule and which
S-polynomials reduced to zero; an apply run replays the schedule, skips the
recorded zero reductions, and returns FAIL as soon as the replay stops
matching.

Internally monomials are packed into single integers so that integer
comparison realizes the monomial order and integer addition realizes
monomial multiplication; divisibility is a guard-bit test.  ReducedGB is
built from the packed basis, and MultiPoly appears only at the API boundary.
"""

import heapq

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
            nfields = n + 1
        else:
            self._shifts = [_FIELD_BITS * (n - 1 - i) for i in range(n)]
            self._deg_shift = None
            self.CONST = 0
            nfields = n
        self.GUARDS = sum((1 << 16) << (_FIELD_BITS * i) for i in range(nfields))

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

    def lcm(self, a, b):
        ea, eb = self.unpack(a), self.unpack(b)
        return self.pack(tuple(max(x, y) for x, y in zip(ea, eb)))

    def coprime(self, a, b):
        ea, eb = self.unpack(a), self.unpack(b)
        return all(x == 0 or y == 0 for x, y in zip(ea, eb))


def _pack_terms(codec, poly):
    pack = codec.pack
    return {pack(m): c for m, c in poly.terms}


def _unpack_terms(ring, codec, terms):
    unpack = codec.unpack
    return MultiPoly(ring, tuple((unpack(m), c) for m, c in terms))


def _reduce_full(work, lms, tails, codec, p):
    """Fully reduce the packed term dict `work` by the basis view."""
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


def _top_reducible(m, lms, codec):
    base = m + codec.CONST
    GUARDS = codec.GUARDS
    for lm in lms:
        q = base - lm
        if q >= 0 and not (q & GUARDS):
            return True
    return False


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
    (lcm degree, packed lcm, i, j), so sorting them is the normal strategy."""
    lmh = basis_lms[h_idx]
    lcm_h = {i: codec.lcm(lmh, basis_lms[i]) for i in active}
    candidates = sorted(active)
    kept = []
    while candidates:
        i = candidates.pop(0)
        li = lcm_h[i]
        if codec.coprime(lmh, basis_lms[i]):
            keep = True
        else:
            keep = (all(not _divides(lcm_h[j], li, codec) or lcm_h[j] == li
                        for j in candidates)
                    and all(not _divides(lcm_h[j], li, codec) for j in kept))
        if keep:
            kept.append(i)
    new_pairs = [(codec.degree(lcm_h[i]), lcm_h[i], i, h_idx) for i in kept
                 if not codec.coprime(lmh, basis_lms[i])]
    out = []
    for pair in pairs:
        _, lij, i, j = pair
        if (_divides(lmh, lij, codec)
                and codec.lcm(basis_lms[i], lmh) != lij
                and codec.lcm(basis_lms[j], lmh) != lij):
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


def _interreduce(basis, codec, p):
    """Minimalize and tail-reduce a basis whose S-pairs all reduce to zero."""
    basis = sorted(basis, key=lambda g: g[0][0])
    minimal = []
    for g in basis:
        lm = g[0][0]
        if any(_divides(h[0][0], lm, codec) for h in minimal):
            continue
        minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        lms = [h[0][0] for j, h in enumerate(minimal) if j != i]
        tails = [h[1:] for j, h in enumerate(minimal) if j != i]
        d = _reduce_full(dict(g), lms, tails, codec, p)
        reduced.append(_monic_terms(d, p))
    return reduced


class GroebnerTrace:
    """Replay schedule from a learn run."""

    __slots__ = ("input_lms", "events")

    def __init__(self, input_lms, events):
        self.input_lms = input_lms          # leading monomials of the inputs
        self.events = events                # [(i, j, packed lcm,
                                            #   packed-lm-or-None)]


class ReducedGB:
    """Reduced Groebner basis: monic elements sorted by leading monomial,
    built from packed term lists (each sorted descending) and their codec."""

    __slots__ = ("ring", "polys", "_codec", "_plms", "_ptails")

    def __init__(self, ring, basis, codec):
        self.ring = ring
        self._codec = codec
        basis = sorted(basis, key=lambda g: g[0][0])
        self._plms = [g[0][0] for g in basis]
        self._ptails = [g[1:] for g in basis]
        self.polys = [_unpack_terms(ring, codec, g) for g in basis]

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def normal_form(self, poly):
        codec = self._codec
        d = _reduce_full(_pack_terms(codec, poly), self._plms,
                         self._ptails, codec, self.ring.field.p)
        return _unpack_terms(self.ring, codec, sorted(d.items(), reverse=True))

    def nf_plus(self, poly):
        """Normal form without its constant term (the smallest monomial)."""
        nf = self.normal_form(poly)
        if nf.terms and nf.terms[-1][0] == self.ring._zero_mon:
            return MultiPoly(self.ring, nf.terms[:-1])
        return nf


def _run_buchberger(spec_ring, generators, trace=None):
    """Shared engine.  With `trace`, replay it and return the reduced GB or
    FAIL; without, return the reduced GB and the trace of the run."""
    ring = spec_ring
    p = ring.field.p
    codec = _Codec(len(ring.vars), ring.order.kind)

    inputs = []
    seen = set()
    for g in generators:
        if g.is_zero():
            continue
        g = g.monic()
        if g.terms in seen:
            continue
        seen.add(g.terms)
        inputs.append(g)
    if not inputs:
        raise ValueError("no nonzero generators")
    input_lms = tuple(g.leading_monomial() for g in inputs)
    if any(g.is_constant() for g in inputs):
        gb = ReducedGB(ring, [[(codec.pack(ring._zero_mon), 1)]], codec)
        if trace is not None:
            return gb
        return gb, GroebnerTrace(input_lms, ())

    if trace is not None and trace.input_lms != input_lms:
        return FAIL

    basis = [sorted(_pack_terms(codec, g).items(), reverse=True)
             for g in inputs]
    lms = [g[0][0] for g in basis]

    if trace is not None:
        # The event list already fixes the critical-pair schedule (the
        # selection strategy depends only on leading monomials, which are
        # verified event by event), so no pair bookkeeping is needed, and
        # each recorded lcm is that of the pair's verified leading monomials.
        # The basis grows as in the learn run, so every recorded index
        # exists, and the reduced GB, minimalized by leading monomials
        # alone, has the learned leading monomials.
        for i, j, lcm, tlm in trace.events:
            s = _spoly_dict(basis[i], basis[j], lcm, p)
            if tlm is None:
                # recorded zero reduction: cheap sanity check, then skip
                if s and not _top_reducible(max(s), lms, codec):
                    return FAIL
                continue
            tails = [g[1:] for g in basis]
            rem = _reduce_full(s, lms, tails, codec, p)
            if not rem:
                return FAIL
            h = _monic_terms(rem, p)
            if h[0][0] != tlm:
                return FAIL
            basis.append(h)
            lms.append(h[0][0])
    else:
        pairs = []
        active = set()
        for idx in range(len(basis)):
            pairs, active = _gm_update(pairs, lms, active, idx, codec)

        events = []
        while pairs:
            pairs.sort()
            _, lcm, i, j = pairs.pop(0)
            s = _spoly_dict(basis[i], basis[j], lcm, p)
            tails = [g[1:] for g in basis]
            rem = _reduce_full(s, lms, tails, codec, p)
            if not rem:
                events.append((i, j, lcm, None))
                continue
            h = _monic_terms(rem, p)
            events.append((i, j, lcm, h[0][0]))
            basis.append(h)
            lms.append(h[0][0])
            pairs, active = _gm_update(pairs, lms, active,
                                       len(basis) - 1, codec)

    gb = ReducedGB(ring, _interreduce(basis, codec, p), codec)
    if trace is not None:
        return gb
    return gb, GroebnerTrace(input_lms, tuple(events))


def groebner(ring, generators):
    """Reduced Groebner basis of the given generators."""
    return _run_buchberger(ring, generators)[0]


def gb_learn(ring, generators):
    """Compute the reduced GB and record a replayable trace."""
    return _run_buchberger(ring, generators)


def gb_apply(ring, generators, trace):
    """Replay a trace on a structurally identical input.

    Returns the reduced GB, or FAIL when the replay assumptions fail (the
    caller discards the evaluation point).
    """
    return _run_buchberger(ring, generators, trace=trace)

