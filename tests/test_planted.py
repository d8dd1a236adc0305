"""A small planted-subfield profile: simple generators h_1..h_k are drawn,
obscured by Moebius maps, and the pipeline must find a field-equal set no
costlier than the planted one.

Each h_j has 1-3 terms of degree at most 2 in n <= 4 variables, k <= n.  It
is obscured as g_j = (a h_j + b c_j)/(c h_j + d) with c_j = h_{j-1} or 1 and
ad - bc != 0, so h_j = (b c_j - d g_j)/(c g_j - a) lies in Q(g_1..g_j) and
Q(g) = Q(h); one redundant h_1 h_k + 1 joins the input.
"""

import random

import pytest

from fieldsimp.oms import GeneratorSet
from fieldsimp.poly import DEGREVLEX, LEX, QQ, RationalFunction, Ring
from fieldsimp.simplify import SimplifyConfig, simplicity_key, simplify

from conftest import fields_equal_2p

SEEDS = range(12)


def _planted_poly(ring, rng):
    n = ring.arity
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * n
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = rng.choice((-3, -2, -1, 1, 2, 3))
        h = ring.from_dict(terms)
        if not h.is_constant():
            return h


def _obscure(h, c_j, rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c:
            return RationalFunction(a * h + b * c_j,
                                    c * h + d * c_j.ring.one())


def planted_case(seed, order):
    """(ring, planted h_1..h_k, obscured input) of one seed."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    k = rng.randint(1, n)
    ring = Ring(tuple("x%d" % i for i in range(1, n + 1)), QQ, order)
    planted = [_planted_poly(ring, rng) for _ in range(k)]
    obscured = [_obscure(h, planted[j - 1] if j and rng.random() < 0.5
                         else ring.one(), rng)
                for j, h in enumerate(planted)]
    redundant = RationalFunction(planted[0] * planted[-1] + ring.one())
    return ring, planted, obscured + [redundant]


def cost(generators):
    """Degree sum plus term count, summed over the generators."""
    return sum(k[0] + k[1] for k in map(simplicity_key, generators))


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
@pytest.mark.parametrize("seed", SEEDS)
def test_planted_subfield_is_recovered(seed, order):
    ring, planted, obscured = planted_case(seed, order)
    out, report = simplify(GeneratorSet(ring, obscured),
                           SimplifyConfig(seed=0))
    assert report.verified
    planted = [RationalFunction(h) for h in planted]
    assert fields_equal_2p(GeneratorSet(ring, out),
                           GeneratorSet(ring, planted))
    assert cost(out) <= cost(planted)
