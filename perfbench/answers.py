"""Known answers for the benchmark's correctness checks.

Each fixture's target is a hand-written generating set of the same field as
the fixture's input: the acceptance targets of tests/test_acceptance.py
(criteria 1-5) plus power_sums' elementary symmetric functions, which equal
its power sums by Newton's identities.  `INDEPENDENT` says whether a target
is algebraically independent; only those get drop-one negatives, because
dropping one element of an independent set lowers the transcendence degree
and so certainly gives a smaller field.  check_answers.py re-derives the
flags with a sympy Jacobian rank.

`AUTOMORPHISMS` lists maps that fix every input generator of a fixture, so
they fix the generated field pointwise: an element one of them moves is
certainly not in the field.  A map is ("swap", [(v, w), ...]), a product of
variable transpositions, or ("scale", {v: factor}).

This module imports nothing from fieldsimp, and nothing heavy, so that it
adds no time to set-up.
"""

from fractions import Fraction

FIXTURES = ("example_sym", "heron", "seir34", "lotka_volterra", "bruno2016",
            "genlv", "sir6", "power_sums", "bilirubin")

BILIRUBIN_PRINTED = [
    "k01",
    "k12*k13*k14",
    "k21*k31*k41",
    "k12 + k13 + k14",
    "k21 + k31 + k41",
    "k12*k13 + k12*k14 + k13*k14",
    "k21*k31 + k21*k41 + k31*k41",
    "k12*k31 + k12*k41 + k13*k21 + k13*k41 + k14*k21 + k14*k31",
]

TARGETS = {
    "example_sym": ["x1 + x2", "x1*x2"],
    "heron": ["a^2", "b^2", "c^2"],
    "seir34": ["mu", "N", "eps + gamma", "eps*gamma", "k*eps",
               "beta*r/gamma"],
    "lotka_volterra": ["d", "a*b", "a + b"],
    "bruno2016": ["kbeta", "kbeta10", "kcryOH + kcrybeta"],
    "genlv": ["r1", "r2", "b11", "b21", "b12/b22"],
    "sir6": ["N", "gamma", "k/beta"],
    "power_sums": [
        "x + y + z + u + v",
        "x*y + x*z + x*u + x*v + y*z + y*u + y*v + z*u + z*v + u*v",
        "x*y*z + x*y*u + x*y*v + x*z*u + x*z*v + x*u*v + y*z*u + y*z*v"
        " + y*u*v + z*u*v",
        "x*y*z*u + x*y*z*v + x*y*u*v + x*z*u*v + y*z*u*v",
        "x*y*z*u*v",
    ],
    "bilirubin": BILIRUBIN_PRINTED,
}

INDEPENDENT = {name: name != "bilirubin" for name in FIXTURES}

AUTOMORPHISMS = {
    "example_sym": [("swap", [("x1", "x2")])],
    "power_sums": [("swap", [("x", "y")]), ("swap", [("z", "v")])],
    "heron": [("scale", {"a": -1}), ("scale", {"b": -1}),
              ("scale", {"c": -1})],
    "lotka_volterra": [("swap", [("a", "b")]), ("scale", {"c": 2})],
    "seir34": [("scale", {"beta": 2, "r": Fraction(1, 2)})],
    "genlv": [("scale", {"b12": 3, "b22": 3})],
    "sir6": [("scale", {"k": 2, "beta": 2})],
    "bruno2016": [("swap", [("kcryOH", "kcrybeta")]),
                  ("scale", {"kzea": 2}), ("scale", {"kOHbeta10": 2})],
    "bilirubin": [("swap", [("k12", "k13"), ("k21", "k31")])],
}


def map_exponents(sigma, variables):
    """The automorphism as (images, factors) over the ring's variable
    order: variable i goes to factors[i] * variable images[i]."""
    kind, spec = sigma
    idx = {v: i for i, v in enumerate(variables)}
    images = list(range(len(variables)))
    factors = [Fraction(1)] * len(variables)
    if kind == "swap":
        for v, w in spec:
            i, j = idx[v], idx[w]
            images[i], images[j] = images[j], images[i]
    else:
        for v, f in spec.items():
            factors[idx[v]] = Fraction(f)
    return images, factors


def apply_to_terms(images, factors, terms):
    """Image of a polynomial's (monomial, coefficient) terms as a dict
    (`images` is a permutation, so no two terms meet)."""
    out = {}
    for m, c in terms:
        e = [0] * len(m)
        s = Fraction(1)
        for i, x in enumerate(m):
            if x:
                e[images[i]] = x
                s *= factors[i] ** x
        out[tuple(e)] = c * s
    return out
