"""Interpolation stack over F_p.

Univariate rational interpolation via the extended Euclidean algorithm,
sparse polynomial interpolation from evaluations at powers of a prime-vector
ratio (Prony roots read among its monomials), blackbox multivariate recovery
(a polynomial straight from such a sequence; a rational function by
homogenizing, shifting, interpolating along lines and recovering each side
from its top coefficients), and total-degree estimation along a random line.

A lost sample (the blackbox's FAIL: a pole or a diverged replay) is never
redrawn here: degree estimation and interpolation return FAIL on the first
one, and the caller's attempt ends there.
"""

import functools
import itertools
import math
import random

from .arith import FAIL
from .poly import Ring


@functools.cache
def admissible_ratio(n):
    """Evaluation base: the first n primes (exponents recoverable by
    trial division), found once per arity."""
    out = []
    k = 2
    while len(out) < n:
        if all(k % q for q in out):
            out.append(k)
        k += 1
    return tuple(out)


class Blackbox:
    """Evaluation oracle: point in F_p^n -> value or FAIL."""

    __slots__ = ("arity", "fn", "count")

    def __init__(self, arity, fn):
        self.arity = arity
        self.fn = fn
        self.count = 0

    def __call__(self, point):
        self.count += 1
        return self.fn(point)


# ----------------------------------------------------------------------
# dense univariate helpers; polys are lists of coefficients, ascending


def _utrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _udeg(a):
    return len(a) - 1


def _uadd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _utrim(out)


def _uscale(a, c, p):
    return _utrim([x * c % p for x in a])


def _umul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _utrim(out)


def _udivmod(a, b, p):
    """(a // b, a % b); b != 0, as _ugcd and _half_eea divide only by a
    nonzero b, and _uroots and _prony by a factor of degree >= 1."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lb = pow(b[-1], -1, p)
    while len(a) >= len(b) and a:
        c = a[-1] * inv_lb % p
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[i + k] = (a[i + k] - c * y) % p
        _utrim(a)
    return _utrim(q), a


def _ugcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        _, r = _udivmod(a, b, p)
        a, b = b, r
    if a:
        a = _uscale(a, pow(a[-1], -1, p), p)
    return a


def _ueval(a, x, p):
    v = 0
    for c in reversed(a):
        v = (v * x + c) % p
    return v


def _lagrange(xs, ys, p):
    """Newton-form interpolation; O(D^2)."""
    n = len(xs)
    coeffs = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) * pow(xs[i] - xs[i - j], -1, p) % p
    poly = []
    for i in range(n - 1, -1, -1):
        poly = _umul(poly, [-xs[i] % p, 1], p)
        poly = _uadd(poly, [coeffs[i]], p)
    return poly


def _half_eea(r0, r1, bound, p):
    """Extended Euclid on (r0, r1), stopped at the first remainder r of
    degree <= bound (or zero).  Returns (r, t) with r = s*r0 + t*r1."""
    t0, t1 = [], [1]
    while r1 and _udeg(r1) > bound:
        q, r = _udivmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _uadd(t0, _uscale(_umul(q, t1, p), p - 1, p), p)
    return r1, t1


def cauchy_interpolate(points, values, deg_num, deg_den, field):
    """Rational interpolation with degree bounds via the EEA.

    Returns (num, den) as ascending coefficient lists with den monic, or
    FAIL when no coprime pair within the bounds matches every sample: the
    EEA row r = s*m + t*g has t != 0, deg r <= deg_num, r(u_i) = t(u_i) v_i
    and gcd(r, t) | m (s, t coprime), so it answers exactly when t is within
    deg_den and nonzero at every sample (von zur Gathen & Gerhard, ch. 5).
    """
    p = field.p
    if len(points) < deg_num + deg_den + 2:
        raise ValueError("need at least deg_num + deg_den + 2 sample points")
    if len(set(points)) != len(points):
        raise ValueError("sample points must be pairwise distinct")
    g = _lagrange(points, values, p)
    m = [1]
    for u in points:
        m = _umul(m, [-u % p, 1], p)
    # EEA rows: r = s*m + t*g; stop at the first remainder within the bound
    num, den = _half_eea(m, g, deg_num, p)
    if _udeg(den) > deg_den or any(_ueval(den, u, p) == 0 for u in points):
        return FAIL
    c = pow(den[-1], -1, p)
    return _uscale(num, c, p), _uscale(den, c, p)


# ----------------------------------------------------------------------
# root finding over F_p

# Past this many candidate roots a key's Prony roots are split by _uroots
# (probabilistic equal-degree splitting) and decoded by trial division.
MAX_ROOT_CANDIDATES = 1000


def _root_candidates(ratio, degree_bound, p):
    """{q^e: e} over the ratio primes q, for total degree |e| <= degree_bound
    and q^e < p: the roots ben_or_tiwari decodes.  None past
    MAX_ROOT_CANDIDATES of them (the count only grows prime by prime)."""
    table = {1: ()}
    for q in ratio:
        table = {v * q ** k: e + (k,) for v, e in table.items()
                 for k in range(degree_bound - sum(e) + 1) if v * q ** k < p}
        if len(table) > MAX_ROOT_CANDIDATES:
            return None
    return table


def _roots(mono, table, p):
    """Sorted distinct roots of the monic `mono`: those among the values of
    `table`, or all in F_p by _uroots when table is None."""
    if table is None:
        return _uroots(mono, p)
    values = list(table)        # Horner: (..(x + c_(t-1))*x ..)*x = -c_0
    for c in mono[-2:0:-1]:
        values = [(v + c) * x % p for v, x in zip(values, table)]
    last = -mono[0] % p
    return sorted(x for x, v in zip(table, values) if v == last)


def _uroots(a, p):
    """Distinct roots in F_p of a squarefree-ish univariate polynomial (a
    Prony polynomial past MAX_ROOT_CANDIDATES candidate roots).

    Las Vegas splitting on a local stream; the root set does not depend on
    its draws.  Every split factor is monic: a gcd or a quotient of monics."""
    a = _uscale(a, pow(a[-1], -1, p), p)
    if _udeg(a) == 1:
        return [-a[0] % p]
    if p == 2:      # the splitting exponent (p - 1)//2 would be 0
        return [x for x in (0, 1) if not _ueval(a, x, p)]
    rng = random.Random(0)
    # strip the factor supported on roots only: gcd(a, x^p - x)
    xp = _upowmod(0, p, a, p)
    lin = _ugcd(a, _uadd(xp, [0, p - 1], p), p)
    roots = []
    stack = [lin]
    while stack:
        f = stack.pop()
        if _udeg(f) <= 0:
            continue
        if _udeg(f) == 1:
            roots.append(-f[0] % p)
            continue
        while True:
            b = rng.randrange(p)
            h = _upowmod(b, (p - 1) // 2, f, p)
            g = _ugcd(f, _uadd(h, [p - 1], p), p)
            if 0 < _udeg(g) < _udeg(f):
                stack.append(g)
                q, _ = _udivmod(f, g, p)
                stack.append(q)
                break
    roots.sort()
    return roots


def _ufold(r, folds, k, p):
    """The packed r (k bits per coefficient) mod p and mod the monic of
    degree t whose packed x^(t+j) is folds[j]: fold each coefficient of
    degree t + j, taken mod p, times folds[j] onto the low t, then take
    those mod p."""
    t = len(folds)
    mask = (1 << k) - 1
    low, r = r & (1 << k * t) - 1, r >> k * t
    for fold in folds:
        if not r:
            break
        low += (r & mask) % p * fold
        r >>= k
    out = 0
    for shift in range(k * (t - 1), -1, -k):
        out = out << k | (low >> shift & mask) % p
    return out


def _upowmod(b, e, mod, p):
    """(x + b)^e mod the monic `mod` of degree t >= 1, for 0 <= b < p, left
    to right: one squaring per bit of e, and a shift and a scaled add per
    set bit, each reduced by one _ufold.  A residue is packed into one int
    (Kronecker substitution), so a squaring is one big-int product; a
    folded square's slots sum fewer than 2t products of residues."""
    t = len(mod) - 1
    k = 2 * p.bit_length() + t.bit_length() + 2
    folds = []                  # x^(t+j) mod `mod`, packed, j = 0..t-1
    row = [-c % p for c in mod[:-1]]
    for _ in range(t):
        folds.append(sum(c << k * i for i, c in enumerate(row)))
        row = [(c - row[-1] * m) % p for c, m in zip([0] + row[:-1], mod)]
    result = 1
    for bit in bin(e)[2:]:
        result = _ufold(result * result, folds, k, p)
        if bit == "1":
            result = _ufold((result << k) + b * result, folds, k, p)
    return _utrim([result >> k * i & (1 << k) - 1 for i in range(t)])


# ----------------------------------------------------------------------
# sparse interpolation from a geometric evaluation sequence


def _prony(evals, field, roots_of, table=None):
    """Recover {(root, coefficient)} with the sequence e_i = sum c_k root_k^i.

    Returns FAIL when the sequence is not explained by <= len(evals)/2
    distinct nonzero roots (caller enlarges the sequence), among the values
    of `table` if given (_roots).  `roots_of` keeps a Prony polynomial's
    roots once they are all it has in F_p, so no table's partial answer
    reaches another.  For even len(evals) = 2T the EEA cofactor lam is
    nonzero of degree <= T, 0 is no root (lam's lead is nonzero) and t
    distinct roots give L_k(m_k) != 0; each root m of mono makes
    mono / (z - m) exact.  As lam E = r mod z^(2T), the roots reproduce all
    2T values iff deg r < t (r/lam in partial fractions); r != 0, so this
    rejects t = 0 too.
    """
    p = field.p
    two_t = len(evals)
    t_bound = two_t // 2
    if all(v == 0 for v in evals):
        return []
    # Pade approximation of sum e_i z^i mod z^(2T) via the EEA; the
    # cofactor is Lambda~(z) = prod(1 - root*z)
    r, lam = _half_eea([0] * two_t + [1], _utrim(list(evals)), t_bound - 1, p)
    if lam[0] == 0:
        return FAIL
    lam = _uscale(lam, pow(lam[0], -1, p), p)
    t = _udeg(lam)
    if _udeg(r) >= t:
        return FAIL
    mono = tuple(reversed(lam))                 # prod(z - root), monic
    roots = roots_of.get(mono)
    if roots is None:
        roots = _roots(mono, table, p)
        if table is None or len(roots) == t:
            roots_of[mono] = roots
    if len(roots) != t:
        return FAIL
    # transposed Vandermonde solve, O(t^2): c_k = (sum_i L_k[i] e_i) / L_k(m_k)
    out = []
    for m in roots:
        lk, _ = _udivmod(mono, [-m % p, 1], p)
        s = 0
        for i, c in enumerate(lk):
            s = (s + c * evals[i]) % p
        denom = _ueval(lk, m, p)
        out.append((m, s * pow(denom, -1, p) % p))
    return out


def _exponent_from_root(root, ratio, degree_bound):
    """Exponent vector of a root over the ratio primes by trial division,
    or FAIL when it does not factor within the total degree bound."""
    e = []
    r = root
    for q in ratio:
        k = 0
        while r % q == 0 and k < degree_bound + 1:
            r //= q
            k += 1
        e.append(k)
    if r != 1 or sum(e) > degree_bound:
        return FAIL
    return tuple(e)


def ben_or_tiwari(evals, ratio, degree_bound, ring, roots_of=None):
    """Sparse interpolation from f(ratio^0), ..., f(ratio^(2T-1)).

    Exact when T is at least the number of terms of f; with smaller T the
    result is wrong and the caller must verify.  Returns FAIL when the
    sequence has no sparse explanation at this T or a root is no q^e < p
    within the total degree bound: found among those (_root_candidates), or
    past MAX_ROOT_CANDIDATES of them split and decoded by trial division.  A
    dict passed as `roots_of` (one prime's) keeps each (ratio, bound)'s
    candidates and each Prony polynomial's roots across calls.
    """
    roots_of = {} if roots_of is None else roots_of
    key = (ratio, degree_bound)
    if key not in roots_of:
        roots_of[key] = _root_candidates(ratio, degree_bound, ring.field.p)
    table = roots_of[key]
    sol = _prony(list(evals), ring.field, roots_of, table)
    if sol is FAIL:
        return FAIL
    d = {}
    for root, coeff in sol:
        e = _exponent_from_root(root, ratio, degree_bound) if table is None \
            else table.get(root, FAIL)
        if e is FAIL:
            return FAIL
        d[e] = coeff
    return ring.from_dict(d)


# ----------------------------------------------------------------------
# degree estimation (restriction to a random line)


def estimate_degrees(bb, cutoff, field, rng):
    """Total degrees (deg num, deg den) of the blackbox function, read off
    one random line.

    Returns (d_num, d_den), or "STOPPED" when their sum exceeds the cutoff,
    or FAIL on a lost sample.
    """
    p = field.p
    base = [rng.randrange(p) for _ in range(bb.arity)]
    direction = [rng.randrange(1, p) for _ in range(bb.arity)]
    u0 = rng.randrange(p)
    # (u, value) along the line: the check at u0 first, then the fit
    # samples at u = 1, 2, ...
    samples = []
    for u in itertools.chain((u0,), (u for u in itertools.count(1)
                                     if u != u0)):
        v = bb(tuple((a + u * b) % p for a, b in zip(base, direction)))
        if v is FAIL:
            return FAIL
        samples.append((u, v))
        t, odd = divmod(len(samples) - 3, 2)
        if t < 0 or odd:
            continue
        got = cauchy_interpolate(*zip(*samples[1:]), t, t, field)
        if got is not FAIL:
            num, den = got
            dv = _ueval(den, u0, p)
            if dv and _ueval(num, u0, p) == dv * samples[0][1] % p:
                dn = _udeg(num) if num else 0
                dd = _udeg(den)
                return "STOPPED" if dn + dd > cutoff else (dn, dd)
        if t == cutoff:
            return "STOPPED"


# ----------------------------------------------------------------------
# multivariate rational interpolation


def interpolate_rational(bb, deg_num, deg_den, ring, rng, solved=None):
    """Recover (num, den) in `ring` from a blackbox with known total degrees.

    A polynomial (deg_den = 0) is read straight off the sequence
    f(gamma*omega^i), omega the first n primes (Ben-Or & Tiwari).  A
    rational function is homogenized with an extra coordinate and shifted by
    a random vector; univariate rational interpolation along the lines
    u -> gamma*omega^i*u + sigma, at u = 1..deg_num + deg_den + 2, gives each
    side's top u-coefficient.  Each side is then sparse-interpolated with a
    doubling term-count guess, and a candidate is accepted only after a
    fresh-point consistency check.  gamma and sigma are drawn once: returns
    FAIL on a lost row, or when the guess reaches its bound without a
    verified candidate.  `solved` maps a sequence (values, degree bound,
    ring) to its ben_or_tiwari result, a (ratio, bound) to its candidate
    roots and a Prony polynomial to its roots: functions sampled at the same
    points solve each sequence, and find each polynomial's roots, once.
    """
    field = ring.field
    p = field.p
    n = bb.arity
    solved = {} if solved is None else solved
    degrees = (deg_num, deg_den) if deg_den else (deg_num,)
    # "h'" is no identifier, so no parsed variable name takes it
    seq_ring = Ring(("h'",) + ring.vars, field, ring.order) if deg_den \
        else ring
    ratio = admissible_ratio(seq_ring.arity)
    line = range(1, deg_num + deg_den + 3)
    guard = math.comb(n + deg_num + deg_den, n)
    gamma = [rng.randrange(1, p) for _ in range(seq_ring.arity)]
    if deg_den:
        sigma = [rng.randrange(1, p) for _ in range(n + 1)]

    def hat_eval(xi):
        # F_hat(xi) = xi_0^(deg_num - deg_den) * F(xi_1/xi_0, ..., xi_n/xi_0)
        x0 = xi[0]
        if x0 == 0:
            return FAIL
        ix0 = pow(x0, -1, p)
        v = bb(tuple(x * ix0 % p for x in xi[1:]))
        if v is FAIL:
            return FAIL
        return v * pow(x0, deg_num - deg_den, p) % p

    def row(i):
        # each side's value at gamma*omega^i, or FAIL on a lost sample
        scale = tuple(g * pow(w, i, p) % p for g, w in zip(gamma, ratio))
        if not deg_den:
            v = bb(scale)
            return FAIL if v is FAIL else (v,)
        values = []
        for u in line:
            v = hat_eval(tuple((s * u + o) % p for s, o in zip(scale, sigma)))
            if v is FAIL:
                return FAIL
            values.append(v)
        got = cauchy_interpolate(line, values, deg_num, deg_den, field)
        if got is FAIL:
            return FAIL
        unum, uden = got
        c0 = _ueval(uden, 0, p)
        if c0 == 0:
            return FAIL
        ic0 = pow(c0, -1, p)     # normalize den(0) = B_hat(sigma) to 1
        a_top = unum[deg_num] * ic0 % p if _udeg(unum) == deg_num else 0
        b_top = uden[deg_den] * ic0 % p if _udeg(uden) == deg_den else 0
        return (a_top, b_top)

    rows = []
    t_guess = 1
    while True:
        for i in range(len(rows), 2 * t_guess):
            r = row(i)
            if r is FAIL:
                return FAIL
            rows.append(r)
        polys = []
        for seq, deg in zip(zip(*rows), degrees):
            key = (seq, deg, seq_ring)
            if key not in solved:
                solved[key] = ben_or_tiwari(seq, ratio, deg, seq_ring, solved)
            if solved[key] is FAIL:
                break
            polys.append(solved[key])
        if len(polys) == len(degrees):
            cand = _descale(polys, degrees, gamma, ring)
            if cand is not FAIL and _verify(bb, cand, field, rng):
                return cand
        if t_guess >= guard:
            return FAIL
        t_guess = min(2 * t_guess, guard)


def _descale(polys, degrees, gamma, ring):
    """(num, den) in `ring`, den with lead coefficient 1, from the sides
    interpolated at gamma*omega^i: a term c*m becomes c/gamma^m.  One side
    is a polynomial (den 1) of degree at most its bound; two sides are
    homogenized, so each term has exactly its side's degree and loses its
    first coordinate.  FAIL on a term below that degree (a wrong sparsity
    guess; ben_or_tiwari keeps every term within it) or a zero den."""
    p = ring.field.p
    hom = len(polys) - 1
    out = []
    for poly, deg in zip(polys, degrees):
        d = {}
        for m, c in poly.terms:
            if hom and sum(m) < deg:
                return FAIL
            scale = 1
            for g, e in zip(gamma, m):
                if e:
                    scale = scale * pow(g, e, p) % p
            d[m[hom:]] = c * pow(scale, -1, p) % p
        out.append(ring.from_dict(d))
    num, den = out if hom else (out[0], ring.one())
    if den.is_zero():
        return FAIL
    ilc = pow(den.leading_coefficient(), -1, p)
    return num.scale(ilc), den.scale(ilc)


def _verify(bb, cand, field, rng):
    """True when num(x) = v*den(x) at two random points x, v the blackbox's
    value there; a lost sample is a mismatch."""
    num, den = cand
    p = field.p
    for _ in range(2):
        point = tuple(rng.randrange(p) for _ in range(bb.arity))
        v = bb(point)
        if v is FAIL or num.evaluate(point) != v * den.evaluate(point) % p:
            return False
    return True
