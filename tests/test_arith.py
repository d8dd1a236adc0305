import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsimp import arith
from fieldsimp.arith import (FAIL, NonCoprimeModuli, PrimeField, ZeroInverse,
                             crt_pair, inv, is_probable_prime, prev_prime,
                             production_prime, rational_reconstruct)


def test_crt_example():
    assert crt_pair(1, 2, 2, 3) == (5, 6)


def test_crt_zero():
    m1, m2 = 97, 101
    assert crt_pair(0, m1, 0, m2) == (0, m1 * m2)


def test_crt_noncoprime():
    with pytest.raises(NonCoprimeModuli):
        crt_pair(1, 4, 1, 6)


def test_crt_random_congruences():
    rng = random.Random(7)
    m1, m2 = production_prime(0), production_prime(1)
    for _ in range(100):
        a = rng.randrange(m1 * m2)
        r, m = crt_pair(a % m1, m1, a % m2, m2)
        assert m == m1 * m2 and r == a


def test_production_primes_descending_below_2_62():
    ps = [production_prime(i) for i in range(6)]
    assert all(is_probable_prime(p) for p in ps)
    assert all(p < 2 ** 62 for p in ps)
    assert all(a > b for a, b in zip(ps, ps[1:]))
    assert ps[0] == prev_prime(2 ** 62)


def test_prime_field_tests_only_primes_prev_prime_did_not_find(monkeypatch):
    p, q = production_prime(3), production_prime(4)
    calls = []
    test = arith.is_probable_prime

    def counting(n):
        calls.append(n)
        return test(n)

    monkeypatch.setattr(arith, "is_probable_prime", counting)
    assert PrimeField(p).p == p and calls == []
    assert PrimeField(2 ** 31 - 1).p == 2 ** 31 - 1
    assert calls == [2 ** 31 - 1]
    for composite in (3 * p, p * q, 2 ** 31 + 1):
        with pytest.raises(ValueError, match="is not prime"):
            PrimeField(composite)
    assert calls == [2 ** 31 - 1, 3 * p, p * q, 2 ** 31 + 1]


def test_prev_prime_small():
    assert prev_prime(10) == 7
    assert prev_prime(8) == 7
    assert prev_prime(3) == 2


@pytest.mark.parametrize("p", [101, production_prime(0)])
def test_inverse_roundtrip(p):
    rng = random.Random(p)
    for _ in range(10 ** 4):
        a = rng.randrange(1, p)
        assert a * inv(a, p) % p == 1


def test_inverse_of_zero():
    with pytest.raises(ZeroInverse):
        inv(0, 101)


def test_prime_field_ops():
    f = PrimeField(101)
    assert f.div(1, 2) == 51
    assert f.from_fraction(Fraction(1, 3)) * 3 % 101 == 1
    with pytest.raises(ValueError):
        PrimeField(100)


def test_from_fraction():
    f = PrimeField(101)
    assert [f.from_fraction(q) for q in (7, -1, 202, Fraction(-5))] \
        == [7, 100, 0, 96]
    assert f.from_fraction(Fraction(-2, 3)) * 3 % 101 == 99
    for q in (Fraction(1, 101), Fraction(7, 303)):
        with pytest.raises(ZeroInverse):
            f.from_fraction(q)


def test_rational_reconstruct_roundtrip():
    p = production_prime(0)
    bound = math.isqrt(p // 2)
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randrange(-bound + 1, bound)
        b = rng.randrange(1, bound)
        f = Fraction(a, b)
        r = f.numerator * inv(f.denominator, p) % p
        assert rational_reconstruct(r, p) == f


def test_rational_reconstruct_one_prime_lift_is_a_wrong_fraction():
    # 10^12/(10^11 + 7) lies past the sqrt(p/2) bound of one 62-bit prime,
    # where a wrong preimage within the bound is returned; over two primes
    # it lifts to the true fraction
    p = production_prime(0)
    f = Fraction(10 ** 12, 10 ** 11 + 7)
    r = f.numerator * inv(f.denominator, p) % p
    assert rational_reconstruct(r, p) == Fraction(1337233736, 982273601)
    q = production_prime(6)
    r2, m = crt_pair(r, p, f.numerator * inv(f.denominator, q) % q, q)
    assert rational_reconstruct(r2, m) == f


def test_rational_reconstruct_zero():
    assert rational_reconstruct(0, 101) == Fraction(0)


def test_rational_reconstruct_gives_an_int_for_an_integral_lift():
    p = production_prime(0)
    for n in (0, 1, -1, 7, -123456, 2 ** 30):
        v = rational_reconstruct(n % p, p)
        assert type(v) is int and v == n
    assert type(rational_reconstruct(inv(3, p), p)) is Fraction


@st.composite
def reconstruct_cases(draw):
    """(r, m) with m a product of one to four factors, so mostly composite:
    a random residue, or the residue of a fraction within the bound."""
    m = math.prod(draw(st.lists(st.integers(2, 10 ** 5), min_size=1,
                                max_size=4)))
    bound = math.isqrt(m // 2)
    if draw(st.booleans()):
        return draw(st.integers(-2 * m, 2 * m)), m
    num = draw(st.integers(-bound, bound))
    den = draw(st.integers(1, max(bound, 1)))
    if math.gcd(den, m) != 1:
        return num, m
    return num * pow(den, -1, m) % m, m


@settings(max_examples=400, deadline=None)
@given(reconstruct_cases())
def test_rational_reconstruct_lift_is_congruent_and_within_bound(case):
    r, m = case
    got = rational_reconstruct(r, m)
    if got is FAIL:
        return
    f = Fraction(got)
    bound = math.isqrt(m // 2)
    assert abs(f.numerator) <= bound and f.denominator <= bound
    assert math.gcd(f.denominator, m) == 1
    assert (f.numerator - r * f.denominator) % m == 0


def test_crt_then_reconstruct_two_primes():
    # a fraction too large for one prime but fine for the product
    m1, m2 = production_prime(0), production_prime(1)
    f = Fraction(2 ** 40 + 1, 2 ** 40 - 3)
    r1 = f.numerator * inv(f.denominator, m1) % m1
    r2 = f.numerator * inv(f.denominator, m2) % m2
    single = rational_reconstruct(r1, m1)
    assert single is None or single != f
    r, m = crt_pair(r1, m1, r2, m2)
    assert rational_reconstruct(r, m) == f
