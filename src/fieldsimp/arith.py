"""Exact arithmetic substrate: prime fields, rational reconstruction, CRT.

FAIL is the one value every layer returns for a lost sample: a pole, a
diverged trace replay, a root that does not factor, a coefficient that
does not lift.  No sample is drawn again: a lost sample ends its attempt,
and `simplify`'s restart at a fresh block of primes is the one retry.  A
coefficient that does not lift is the one exception: the harvest adds a
prime, and a polynomial member that does not lift is left out.
"""

import math
from fractions import Fraction

FAIL = None


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting 0 in a prime field."""


class NonCoprimeModuli(ValueError):
    """Raised by crt_pair on moduli sharing a factor."""


# Deterministic Miller-Rabin. The listed bases are known to be exact for
# every n below 3.3 * 10^24, far beyond the word-sized moduli used here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n):
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PROVEN = set()     # the primes prev_prime found, which PrimeField trusts


def prev_prime(n):
    """Largest prime strictly below n."""
    k = n - 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k -= 1
    while not is_probable_prime(k):
        k -= 2
    _PROVEN.add(k)
    return k


_production_primes = []


def production_prime(i=0):
    """i-th member of the fixed descending sequence of primes below 2**62."""
    while len(_production_primes) <= i:
        upper = _production_primes[-1] if _production_primes else 2 ** 62
        _production_primes.append(prev_prime(upper))
    return _production_primes[i]


def inv(a, p):
    a %= p
    if a == 0:
        raise ZeroInverse("0 has no inverse mod %d" % p)
    return pow(a, -1, p)


class PrimeField:
    """F_p with canonical representatives in [0, p). Elements are plain ints."""

    __slots__ = ("p",)

    def __init__(self, p):
        if p not in _PROVEN and not is_probable_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p

    # element ops ----------------------------------------------------
    zero = 0
    one = 1

    def div(self, a, b):
        return a * inv(b, self.p) % self.p

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, q):
        """q mod p for an int or a Fraction."""
        if q.denominator == 1:
            return q.numerator % self.p
        den = q.denominator % self.p
        if not den:
            raise ZeroInverse("prime %d divides the denominator of %s"
                              % (self.p, q))
        return q.numerator % self.p * pow(den, -1, self.p) % self.p


def rational_reconstruct(r, m):
    """Lift residue r mod m to a fraction with |num|, den <= sqrt(m/2).
    When the true fraction lies past that bound, a wrong one within it may
    be returned, so the caller checks the lift.

    Returns an int when the lift is integral, a Fraction otherwise, or
    FAIL when no fraction within the bound exists (the caller treats FAIL
    as "need more primes").  Every EEA row keeps r_i = t_i r (mod m), so
    r1/t1 with gcd(r1, t1) = 1 is right mod m (Wang, Guy & Davenport 1982).
    """
    r %= m
    bound = math.isqrt(m // 2)
    if r == 0:
        return 0
    r0, t0 = m, 0
    r1, t1 = r, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return FAIL
    if math.gcd(r1, abs(t1)) != 1 or math.gcd(abs(t1), m) != 1:
        return FAIL
    f = Fraction(r1, t1)
    return f.numerator if f.denominator == 1 else f


def crt_pair(r1, m1, r2, m2):
    """Combine r mod m1 and r mod m2 into r mod m1*m2."""
    g = math.gcd(m1, m2)
    if g != 1:
        raise NonCoprimeModuli("moduli %d, %d share factor %d" % (m1, m2, g))
    # r = r1 + m1 * k with k = (r2 - r1) / m1 mod m2
    k = (r2 - r1) * inv(m1, m2) % m2
    m = m1 * m2
    return (r1 + m1 * k) % m, m
