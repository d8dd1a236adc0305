"""Sparse multivariate polynomials and rational functions.

Coefficient fields are Q (fractions.Fraction) and F_p (ints mod p, see
arith.PrimeField).  Terms are kept in a flat list sorted strictly descending
in the ring's monomial order; the zero polynomial has an empty term list and
total degree -inf.
"""

from fractions import Fraction

from .arith import PrimeField, ZeroInverse

NEG_INF = float("-inf")


class RingMismatch(ValueError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


class RationalField:
    """The field Q; elements are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroInverse("1/0 in Q")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroInverse("1/0 in Q")
        return a / b

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, q):
        return Fraction(q)


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
            return (sum(e), tuple(-x for x in reversed(e)))
        return tuple(e)


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


class Ring:
    """Ring descriptor: variable names (greatest first), field, order."""

    __slots__ = ("vars", "field", "order", "_zero_mon")

    def __init__(self, variables, field, order=DEGREVLEX):
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")
        self.field = field
        self.order = order
        self._zero_mon = (0,) * len(self.vars)

    @property
    def arity(self):
        return len(self.vars)

    def __eq__(self, other):
        return (isinstance(other, Ring) and other.vars == self.vars
                and other.field == self.field and other.order == self.order)

    def __hash__(self):
        return hash((self.vars, self.field, self.order))

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
        zero = self.ring.field.zero
        add = self.ring.field.add
        for m, c in other.terms:
            s = add(d.get(m, zero), c)
            if s == zero:
                d.pop(m, None)
            else:
                d[m] = s
        return self.ring.from_dict(d)

    def __neg__(self):
        neg = self.ring.field.neg
        return MultiPoly(self.ring, tuple((m, neg(c)) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(self.ring.field.from_fraction(other))
        self._check(other)
        f = self.ring.field
        zero = f.zero
        mul, add = f.mul, f.add
        d = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(x + y for x, y in zip(m1, m2))
                s = add(d.get(m, zero), mul(c1, c2))
                if s == zero:
                    d.pop(m, None)
                else:
                    d[m] = s
        return self.ring.from_dict(d)

    __rmul__ = __mul__

    def scale(self, c):
        if c == self.ring.field.zero:
            return self.ring.zero()
        mul = self.ring.field.mul
        return MultiPoly(self.ring,
                         tuple((m, mul(cf, c)) for m, cf in self.terms))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative exponent on a polynomial")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and other.ring == self.ring
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

    def monic(self):
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    # evaluation ------------------------------------------------------
    def evaluate(self, point):
        if len(point) != len(self.ring.vars):
            raise ValueError("point arity mismatch")
        f = self.ring.field
        if isinstance(f, PrimeField):
            p = f.p
            total = 0
            for m, c in self.terms:
                v = c
                for x, e in zip(point, m):
                    if e:
                        v = v * pow(x, e, p) % p
                total += v
            return total % p
        total = f.zero
        for m, c in self.terms:
            v = c
            for x, e in zip(point, m):
                if e:
                    v = f.mul(v, x ** e)
            total = f.add(total, v)
        return total

    def map_coefficients(self, ring, fn):
        """Rebuild in another ring (same vars), mapping coefficients by fn."""
        d = {}
        zero = ring.field.zero
        for m, c in self.terms:
            v = fn(c)
            if v != zero:
                d[m] = v
        return ring.from_dict(d)

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


# ----------------------------------------------------------------------
# exact division and GCD over Q


def try_divexact(f, g):
    """Return f/g when g divides f exactly, else None."""
    if g.is_zero():
        raise DivisionByZero("division by zero polynomial")
    if f.is_zero():
        return f
    ring = f.ring
    fld = ring.field
    key = ring.order.key
    work = dict(f.terms)
    quot = {}
    glm, glc = g.terms[0]
    gtail = g.terms[1:]
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        if not mon_divides(glm, m):
            return None
        qm = mon_div(m, glm)
        qc = fld.div(c, glc)
        quot[qm] = qc
        for tm, tc in gtail:
            mm = mon_mul(qm, tm)
            v = fld.sub(work.get(mm, fld.zero), fld.mul(qc, tc))
            if v == fld.zero:
                work.pop(mm, None)
            else:
                work[mm] = v
    return ring.from_dict(quot)


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
        g = p if g is None else gcd_q(g, p)
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


def gcd_q(f, g):
    """GCD over Q via primitive pseudo-remainder sequences, leading coeff 1."""
    if f.ring != g.ring:
        raise RingMismatch("gcd of polynomials from different rings")
    if f.is_zero():
        return g.monic() if not g.is_zero() else g
    if g.is_zero():
        return f.monic()
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    used = [i for i in range(f.ring.arity)
            if any(m[i] for m, _ in f.terms) or any(m[i] for m, _ in g.terms)]
    k = used[0]
    fc, fp = _content_pp(f, k)
    gc, gp = _content_pp(g, k)
    c = gcd_q(fc, gc)
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


def lcm_q(f, g):
    if f.is_zero() or g.is_zero():
        raise DivisionByZero("lcm with zero polynomial")
    return try_divexact(f * g, gcd_q(f, g)).monic()


# ----------------------------------------------------------------------
# rational functions over Q


class RationalFunction:
    """num/den over Q, coprime, denominator monic in the ring's order."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            den = num.ring.one()
        if num.ring != den.ring:
            raise RingMismatch("numerator and denominator rings differ")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if not _normalized:
            if num.is_zero():
                den = num.ring.one()
            else:
                g = gcd_q(num, den)
                if not g.is_constant():
                    num = try_divexact(num, g)
                    den = try_divexact(den, g)
                lc = den.leading_coefficient()
                if lc != QQ.one:
                    c = QQ.inv(lc)
                    num = num.scale(c)
                    den = den.scale(c)
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
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("0 to a negative power")
            return RationalFunction(self.den ** (-n), self.num ** (-n))
        return RationalFunction(self.num ** n, self.den ** n)

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

    def proportional(self, other):
        """True when self = c * other for a nonzero constant c."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.den != other.den:
            return False
        a, b = self.num, other.num
        if a.support() != b.support():
            return False
        c = QQ.div(a.leading_coefficient(), b.leading_coefficient())
        return a == b.scale(c)

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


def _is_bare_factor(s):
    """True for a single power like `x1` or `x1^2` (no explicit coefficient)."""
    return all(ch.isalnum() or ch in "_^" for ch in s)
