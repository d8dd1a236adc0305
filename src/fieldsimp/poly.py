"""Sparse multivariate polynomials and rational functions.

Coefficient fields are Q and F_p (ints mod p, see arith.PrimeField).  A
Q coefficient enters as an int when it is integral and as a
fractions.Fraction otherwise; arithmetic may still give an integral
Fraction, which equals and hashes like its int.  Coefficients combine with
Python's operators, which never give a float: a Q inverse is Fraction(1, c).
Over F_p each result coefficient is reduced once mod ring.p.  Terms are
kept in a flat list sorted strictly descending in the ring's monomial
order; the zero polynomial has an empty term list and total degree -inf.
"""

import heapq
import math
from fractions import Fraction
from operator import add, neg

from .arith import PrimeField

NEG_INF = float("-inf")


class RingMismatch(ValueError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


class RationalField:
    """The field Q; elements are int, or Fraction when not integral;
    never float."""

    zero = 0
    one = 1

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"

    def from_int(self, n):
        return int(n)

    def from_fraction(self, q):
        q = Fraction(q)
        return q.numerator if q.denominator == 1 else q


QQ = RationalField()


# ----------------------------------------------------------------------
# monomials: plain exponent tuples


def mon_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mon_divides(a, b):
    """True when a | b, i.e. a_i <= b_i for all i."""
    return all(x <= y for x, y in zip(a, b))


def mon_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


class MonomialOrder:
    """degrevlex or lex; the ring's first variable is the greatest one."""

    __slots__ = ("kind",)

    def __init__(self, kind="degrevlex"):
        if kind not in ("degrevlex", "lex"):
            raise ValueError("unknown monomial order %r" % kind)
        self.kind = kind

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.kind == self.kind

    def __hash__(self):
        return hash(("MonomialOrder", self.kind))

    def __repr__(self):
        return "MonomialOrder(%r)" % self.kind

    def key(self, e):
        """Sort key: key(a) < key(b) iff a < b in the order."""
        if self.kind == "degrevlex":
            # ties: the right-most nonzero entry of a - b positive means a < b
            return (sum(e), tuple(map(neg, reversed(e))))
        return tuple(e)


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


class Ring:
    """Ring descriptor: variable names (greatest first), field, order;
    p is the field's modulus over F_p and None over Q."""

    __slots__ = ("vars", "field", "order", "p", "_zero_mon", "_hash")

    def __init__(self, variables, field, order=DEGREVLEX):
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")
        self.field = field
        self.order = order
        self.p = field.p if isinstance(field, PrimeField) else None
        self._zero_mon = (0,) * len(self.vars)
        self._hash = hash((self.vars, field, order))

    @property
    def arity(self):
        return len(self.vars)

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, Ring) and other.vars == self.vars
                and other.field == self.field and other.order == self.order)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Ring(%r, %r, %r)" % (self.vars, self.field, self.order)

    # constructors ----------------------------------------------------
    def zero(self):
        return MultiPoly(self, ())

    def one(self):
        return self.constant(self.field.one)

    def constant(self, c):
        if c == self.field.zero:
            return self.zero()
        return MultiPoly(self, ((self._zero_mon, c),))

    def from_int(self, n):
        return self.constant(self.field.from_int(n))

    def variable(self, i):
        e = [0] * len(self.vars)
        e[i] = 1
        return MultiPoly(self, ((tuple(e), self.field.one),))

    def gens(self):
        return [self.variable(i) for i in range(len(self.vars))]

    def from_dict(self, d):
        zero = self.field.zero
        key = self.order.key
        terms = [(m, c) for m, c in d.items() if c != zero]
        terms.sort(key=lambda t: key(t[0]), reverse=True)
        return MultiPoly(self, tuple(terms))


class MultiPoly:
    """Immutable sparse polynomial; terms sorted descending in ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # predicates ------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1
                                  and self.terms[0][0] == self.ring._zero_mon)

    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m, _ in self.terms)

    def num_terms(self):
        return len(self.terms)

    def leading_monomial(self):
        return self.terms[0][0]

    def leading_coefficient(self):
        return self.terms[0][1]

    def coefficient(self, mon):
        for m, c in self.terms:
            if m == mon:
                return c
        return self.ring.field.zero

    def support(self):
        return tuple(m for m, _ in self.terms)

    # arithmetic ------------------------------------------------------
    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch("%r vs %r" % (self.ring, other.ring))

    def __add__(self, other):
        self._check(other)
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return _from_sums(self.ring, d)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(self.ring.field.from_fraction(other))
        self._check(other)
        if len(self.terms) == 1:
            self, other = other, self
        if len(other.terms) == 1:
            # both orders are multiplicative and a product of nonzero
            # field elements is nonzero: the terms stay sorted and nonzero
            ((m2, c2),), p = other.terms, self.ring.p
            return MultiPoly(self.ring, tuple(
                (tuple(map(add, m1, m2)),
                 c1 * c2 if p is None else c1 * c2 % p)
                for m1, c1 in self.terms))
        d = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(map(add, m1, m2))
                d[m] = d.get(m, 0) + c1 * c2
        return _from_sums(self.ring, d)

    __rmul__ = __mul__

    def scale(self, c):
        p = self.ring.p
        if p is not None:
            c %= p
        if not c:
            return self.ring.zero()
        if p is None:
            return MultiPoly(self.ring,
                             tuple((m, cf * c) for m, cf in self.terms))
        return MultiPoly(self.ring,
                         tuple((m, cf * c % p) for m, cf in self.terms))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative exponent on a polynomial")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.ring.one() if result is None else result

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and other.ring == self.ring
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

    def monic(self):
        if not self.terms:
            return self
        lc, p = self.terms[0][1], self.ring.p
        if lc == 1:
            return self
        return self.scale(Fraction(1, lc) if p is None else pow(lc, -1, p))

    # evaluation ------------------------------------------------------
    def evaluate(self, point):
        if len(point) != len(self.ring.vars):
            raise ValueError("point arity mismatch")
        return values_at(sparse_terms(self.terms), [{1: x} for x in point],
                         self.ring.p)[0]

    def map_coefficients(self, ring, fn):
        """Rebuild in `ring`, mapping coefficients by fn.  `ring` must have
        the same variables and monomial order (every caller maps Q into
        F_p), so the terms keep their order."""
        zero = ring.field.zero
        terms = []
        for m, c in self.terms:
            v = fn(c)
            if v != zero:
                terms.append((m, v))
        return MultiPoly(ring, tuple(terms))

    # rendering -------------------------------------------------------
    def render(self):
        if not self.terms:
            return "0"
        f = self.ring.field
        parts = []
        for m, c in self.terms:
            factors = []
            for name, e in zip(self.ring.vars, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            neg = False
            if isinstance(c, Fraction) or isinstance(c, int):
                if c < 0:
                    neg = True
                    c = -c
            cs = str(c)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors:
                body = cs + "*" + "*".join(factors)
            else:
                body = cs
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return "<MultiPoly %s>" % self.render()


def _from_sums(ring, d):
    """ring.from_dict(d) with d's sums and products reduced mod ring.p."""
    p = ring.p
    if p is not None:
        d = {m: c % p for m, c in d.items()}
    return ring.from_dict(d)


def sparse_terms(*polys):
    """Each of `polys`, a sequence of terms (m, c), as `values_at` reads it:
    per term (c, m, the coordinates where m is nonzero; equal ones shared)."""
    seen = {}
    return [tuple([(c, m, seen.setdefault(s, s)) for m, c in terms
                   for s in [tuple([i for i, e in enumerate(m) if e])]])
            for terms in polys]


def values_at(polys, powers, p):
    """The values at one point of `polys`, each as its `sparse_terms` (a
    term may name more coordinates: x^0 = 1), read through `powers`: per
    coordinate x a table {e: x^e}, {1: x} at first and filled at first use,
    so one point's tables serve many.  Mod p over F_p, exact over Q."""
    values = []
    for terms in polys:
        total = 0
        for c, m, support in terms:
            for i in support:
                table, e = powers[i], m[i]
                x = table.get(e)
                if x is None:
                    x = table[e] = pow(table[1], e, p)
                c *= x
            total += c
        values.append(total if p is None else total % p)
    return values


# ----------------------------------------------------------------------
# exact division and GCD over Q
#
# gcd_q answers a one-term operand in closed form, as sympy's _gcd_monom
# does.  Otherwise it runs the heuristic GCD of Char, Geddes and Gonnet
# (EUROSAM 1984) on integer polynomials, {monomial: int} dicts; exact
# divisions accept its result and give the cofactors.  It gives up after
# six values of xi, or before an image would pass HEU_MAX_BITS bits (sparse
# inputs of very high degree), and the primitive pseudo-remainder sequence
# _gcd_prs takes over.

HEU_MAX_BITS = 65536


def _divexact(f, g):
    """f/g for integer polynomials, or None when g does not divide f.
    Terms go lex-least first, the order a heap pops them in; a quotient
    term past deg_i f - deg_i g in some variable i proves None."""
    glm = min(g)
    glc = g[glm]
    tail = [(m, c) for m, c in g.items() if m != glm]
    room = [max(a) - max(b) for a, b in zip(zip(*f), zip(*g))]
    work = dict(f)
    heap = sorted(work)
    quot = {}
    while heap:
        m = heapq.heappop(heap)
        if m not in work:
            continue
        qm = mon_div(m, glm)
        qc, rem = divmod(work.pop(m), glc)
        if rem or not (mon_divides(glm, m) and mon_divides(qm, room)):
            return None
        quot[qm] = qc
        for tm, tc in tail:
            mm = mon_mul(qm, tm)
            if mm not in work:
                heapq.heappush(heap, mm)
            v = work.get(mm, 0) - qc * tc
            if v:
                work[mm] = v
            else:
                del work[mm]
    return quot


def _z_parts(f):
    """(F, c) with f = c F over Q and F a primitive integer polynomial."""
    den = math.lcm(*(c.denominator for _, c in f.terms))
    ints = {m: c.numerator * (den // c.denominator) for m, c in f.terms}
    g = math.gcd(*ints.values())
    return {m: v // g for m, v in ints.items()}, Fraction(g, den)


def try_divexact(f, g):
    """Return f/g when g divides f exactly over Q, else None: by Gauss's
    lemma, when g's integer primitive part divides f's over Z."""
    if g.is_zero():
        raise DivisionByZero("division by zero polynomial")
    if f.is_zero():
        return f
    (zf, cf), (zg, cg) = _z_parts(f), _z_parts(g)
    quot = _divexact(zf, zg)
    if quot is None:
        return None
    c = Fraction(cf, cg)
    return f.ring.from_dict({m: c * v for m, v in quot.items()})


def _coeffs_wrt(f, k):
    """View f as univariate in variable k: dict deg -> MultiPoly (x_k-free)."""
    ring = f.ring
    d = {}
    for m, c in f.terms:
        e = m[k]
        rest = list(m)
        rest[k] = 0
        d.setdefault(e, {})[tuple(rest)] = c
    return {e: ring.from_dict(td) for e, td in d.items()}


def _from_coeffs_wrt(ring, coeffs, k):
    d = {}
    for e, poly in coeffs.items():
        for m, c in poly.terms:
            mm = list(m)
            mm[k] += e
            d[tuple(mm)] = c
    return ring.from_dict(d)


def _gcd_many(polys):
    g = None
    for p in polys:
        g = p if g is None else _gcd_prs(g, p)
        if g.is_constant() and not g.is_zero():
            return g.ring.one()
    return g


def _content_pp(f, k):
    coeffs = _coeffs_wrt(f, k)
    cont = _gcd_many(list(coeffs.values()))
    pp = {e: try_divexact(p, cont) for e, p in coeffs.items()}
    return cont, _from_coeffs_wrt(f.ring, pp, k)


def _prem(a, b, k):
    """Pseudo-remainder of a by b as univariates in variable k."""
    ring = a.ring
    ca = _coeffs_wrt(a, k)
    cb = _coeffs_wrt(b, k)
    db = max(cb)
    lcb = cb[db]
    r = ca
    while r:
        dr = max(r)
        if dr < db:
            break
        lcr = r[dr]
        # r := lcb * r - lcr * x_k^(dr-db) * b
        nr = {}
        for e, p in r.items():
            if e == dr:
                continue
            nr[e] = p * lcb
        for e, p in cb.items():
            if e == db:
                continue
            ee = e + dr - db
            q = p * lcr
            nr[ee] = nr[ee] - q if ee in nr else -q
        r = {e: p for e, p in nr.items() if not p.is_zero()}
    return _from_coeffs_wrt(ring, r, k)


def _gcd_prs(f, g):
    """Monic gcd of nonzero f and g by primitive pseudo-remainder
    sequences; their coefficients swell on mid-size inputs."""
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    used = [i for i in range(f.ring.arity)
            if any(m[i] for m, _ in f.terms) or any(m[i] for m, _ in g.terms)]
    k = used[0]
    fc, fp = _content_pp(f, k)
    gc, gp = _content_pp(g, k)
    c = _gcd_prs(fc, gc)
    a, b = fp, gp
    if max(_coeffs_wrt(a, k)) < max(_coeffs_wrt(b, k)):
        a, b = b, a
    while True:
        r = _prem(a, b, k)
        if r.is_zero():
            break
        _, r = _content_pp(r, k)
        a, b = b, r
        if not any(m[k] for m, _ in b.terms):
            # remainder dropped to degree 0 in x_k: primitive => gcd is content-level
            return c.monic()
    _, pb = _content_pp(b, k)
    return (c * pb).monic()


def _z_eval(f, k, xi):
    """f at x_k = xi, zero terms dropped."""
    out = {}
    for m, c in f.items():
        rest = m[:k] + (0,) + m[k + 1:]
        out[rest] = out.get(rest, 0) + c * xi ** m[k]
    return {m: c for m, c in out.items() if c}


def _z_interp(h, k, xi):
    """The polynomial in x_k whose value at xi is h (free of x_k), each
    integer coefficient a symmetric residue mod xi."""
    out = {}
    e = 0
    while h:
        rest = {}
        for m, c in h.items():
            r = c % xi
            if r > xi // 2:
                r -= xi
            if r:
                out[m[:k] + (e,) + m[k + 1:]] = r
            if c != r:
                rest[m] = (c - r) // xi
        h = rest
        e += 1
    return out


def _root_bounds(f, k):
    """(r, r_lead), Cauchy bounds on the roots in x_k shared by all of f's
    coefficients over Z[other variables] (0 if one is free of x_k), and on
    those of its lex-leading coefficient.  They make the heuristic exact:
    let h divide f and g, c h(xi) = gcd(f(xi), g(xi)) with |c| <= xi/2,
    and gcd(f, g) = h q, so q(xi) divides c.  xi >= r_lead frees q of the
    other variables (its leading coefficient in them divides f's), and
    then xi >= 2 r gives |q(xi)| > xi/2 unless q is constant."""
    coeffs = {}
    for m, c in f.items():
        coeffs.setdefault(m[:k] + (0,) + m[k + 1:], []).append((m[k], abs(c)))

    def bound(terms):
        e, lc = max(terms)
        return max(c for _, c in terms) // lc + 2 if e else 0
    return min(map(bound, coeffs.values())), bound(coeffs[max(coeffs)])


def _heu_lift(f, g, images, k, xi):
    """(h, f/h, g/h) from the images' (gcd, cofactor, cofactor) at x_k = xi:
    h is the rebuilt gcd's primitive part, else the quotient of f, then of
    g, by its rebuilt cofactor, if it divides both; None otherwise."""
    h = _z_interp(images[0], k, xi)
    hc = math.gcd(*h.values())
    h = {m: v // hc for m, v in h.items()}
    cf = _divexact(f, h)
    if cf is not None and (cg := _divexact(g, h)) is not None:
        return h, cf, cg
    for a, b, i in ((f, g, 1), (g, f, 2)):
        co = _z_interp(images[i], k, xi)
        h = _divexact(a, co)
        if h is not None and (other := _divexact(b, h)) is not None:
            return (h, co, other) if i == 1 else (h, other, co)
    return None


def _heu_gcd(f, g):
    """(h, f/h, g/h) over Z for nonzero integer polynomials, or None when
    the heuristic gives up.  After the shared integer content is taken out,
    the last variable x_k in use is set to an integer xi (sympy's estimate
    from the coefficient sizes, raised to the bounds of _root_bounds), the
    images' gcd is found recursively, down to an integer gcd, and the
    result is rebuilt by xi-adic expansion."""
    c = math.gcd(*f.values(), *g.values())
    f = {m: v // c for m, v in f.items()}
    g = {m: v // c for m, v in g.items()}
    zero = (0,) * len(next(iter(f)))
    if zero in f and len(f) == 1 or zero in g and len(g) == 1:
        return {zero: c}, f, g
    k = max(i for m in (*f, *g) for i, e in enumerate(m) if e)
    deg = max(m[k] for m in (*f, *g))
    (rf, lf), (rg, lg) = _root_bounds(f, k), _root_bounds(g, k)
    b = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    xi = max(min(b, 99 * math.isqrt(b)), 2 * min(rf, rg), min(lf, lg))
    for _ in range(6):
        if deg * xi.bit_length() > HEU_MAX_BITS:
            return None
        ff, gg = _z_eval(f, k, xi), _z_eval(g, k, xi)
        if ff and gg:
            images = _heu_gcd(ff, gg)
            if images is None:
                return None
            found = _heu_lift(f, g, images, k, xi)
            if found:
                return {m: v * c for m, v in found[0].items()}, *found[1:]
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def gcd_q(f, g):
    """(h, f/h, g/h) for nonzero f and g, h = gcd(f, g) over Q monic in
    the ring's order.  When f or g has one term, h is x^b, b the least
    exponent of each variable over both (sympy's _gcd_monom), and the
    cofactors keep their coefficients and term order, since both orders
    are multiplicative.  Otherwise h comes from the heuristic on their
    integer primitive parts, or when it gives up, from the
    pseudo-remainder sequence with the cofactors from two divisions."""
    if f.ring != g.ring:
        raise RingMismatch("gcd of polynomials from different rings")
    ring = f.ring
    if f.is_zero() or g.is_zero():
        raise DivisionByZero("gcd with zero polynomial")
    if len(f.terms) == 1 or len(g.terms) == 1:
        b = tuple(map(min, *(m for m, _ in f.terms + g.terms)))
        if not any(b):
            return ring.one(), f, g
        zf, zg = (tuple((mon_div(m, b), c) for m, c in p.terms)
                  for p in (f, g))
        return (MultiPoly(ring, ((b, ring.field.one),)),
                MultiPoly(ring, zf), MultiPoly(ring, zg))
    (zf, cf), (zg, cg) = _z_parts(f), _z_parts(g)
    found = _heu_gcd(zf, zg)
    if found is None:
        h = _gcd_prs(f, g)
        return h, try_divexact(f, h), try_divexact(g, h)
    h, zf, zg = found
    if len(h) == 1 and not any(next(iter(h))):
        return ring.one(), f, g
    lc = h[max(h, key=ring.order.key)]
    cf, cg = cf * lc, cg * lc
    return (ring.from_dict({m: Fraction(v, lc) for m, v in h.items()}),
            ring.from_dict({m: cf * v for m, v in zf.items()}),
            ring.from_dict({m: cg * v for m, v in zg.items()}))


def lcm_q(f, g):
    """Monic lcm of nonzero f and g: f times the cofactor g/gcd(f, g)."""
    if f.is_zero() or g.is_zero():
        raise DivisionByZero("lcm with zero polynomial")
    return (f * gcd_q(f, g)[2]).monic()


# ----------------------------------------------------------------------
# rational functions over Q


class RationalFunction:
    """num/den over Q, coprime, denominator monic in the ring's order.

    The constructor takes the gcd of num and den, except for a polynomial
    over 1.  Arithmetic keeps the invariant by Henrici's algorithms (JACM
    1956; Knuth, TAOCP vol. 2, 4.5.1): it only takes gcds across the
    operands' factors, never of a product, and none when a denominator
    is 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            den, _normalized = num.ring.one(), True
        if num.ring != den.ring:
            raise RingMismatch("numerator and denominator rings differ")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if not _normalized:
            if num.is_zero():
                den = num.ring.one()
            else:
                num, den = _monic_den(*gcd_q(num, den)[1:])
        self.num = num
        self.den = den

    @property
    def ring(self):
        return self.num.ring

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def max_exponent(self):
        return max((e for side in (self.num, self.den)
                    for m in side.support() for e in m), default=0)

    # arithmetic -------------------------------------------------------
    def __add__(self, other):
        """a/b + c/d: with (g, b', d') = gcd(b, d) and t = a d' + c b',
        gcd(t, b' d) = gcd(t, g), so only g's factors can cancel."""
        other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_constant() and d.is_constant():
            return RationalFunction(a + c)
        g, b1, d1 = gcd_q(b, d)
        t = a * d1 + c * b1
        if t.is_zero():
            return RationalFunction(t)
        if g.is_constant():
            return RationalFunction(t, b1 * d, _normalized=True)
        _, t, g1 = gcd_q(t, g)
        return RationalFunction(t, b1 * g1 * d1, _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return RationalFunction(self.ring.zero())
        num, den = _cross(self.num, self.den, other.num, other.den)
        return RationalFunction(num, den, _normalized=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        if self.is_zero():
            return self
        num, den = _cross(self.num, self.den, other.den, other.num)
        return RationalFunction(*_monic_den(num, den), _normalized=True)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n):
        """Powers of a coprime pair are coprime, and a power of a monic
        denominator is monic, so no gcd is taken; a negative power swaps
        the pair and scales both by the new denominator's 1/lc."""
        if n >= 0:
            return RationalFunction(self.num ** n, self.den ** n,
                                    _normalized=True)
        if self.is_zero():
            raise DivisionByZero("0 to a negative power")
        return RationalFunction(*_monic_den(self.den ** -n, self.num ** -n),
                                _normalized=True)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.ring != self.ring:
                raise RingMismatch("rational functions from different rings")
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction(other)
        return RationalFunction(self.ring.constant(QQ.from_fraction(other)))

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            try:
                other = self._coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # modular image ----------------------------------------------------
    def modp(self, fp_ring):
        """Image (num, den) over F_p."""
        fn = fp_ring.field.from_fraction
        return (self.num.map_coefficients(fp_ring, fn),
                self.den.map_coefficients(fp_ring, fn))

    def render(self):
        if self.den.is_constant():
            return self.num.render()
        ns = self.num.render()
        ds = self.den.render()
        if self.num.num_terms() > 1:
            ns = "(%s)" % ns
        if self.den.num_terms() > 1 or not _is_bare_factor(ds):
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __repr__(self):
        return "<RationalFunction %s>" % self.render()


def _monic_den(num, den):
    """(num, den) scaled by den's 1/lc."""
    lc = den.leading_coefficient()
    if lc == 1:
        return num, den
    c = Fraction(1, lc)
    return num.scale(c), den.scale(c)


def _cross(a, b, c, d):
    """(a c, b d) / gcd for coprime pairs a/b and c/d with a and c
    nonzero: only gcd(a, d) and gcd(c, b) can cancel, and neither when
    its denominator side is constant."""
    if not d.is_constant():
        _, a, d = gcd_q(a, d)
    if not b.is_constant():
        _, c, b = gcd_q(c, b)
    return a * c, b * d


def _is_bare_factor(s):
    """True for a single power like `x1` or `x1^2` (no explicit coefficient)."""
    return all(ch.isalnum() or ch in "_^" for ch in s)
