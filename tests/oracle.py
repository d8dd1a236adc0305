"""Slow reference implementations used only by the test suite.

The reference Groebner engine is sympy's Buchberger run over the fraction
field Q(x), entirely independent of the package under test.  On top of it:
symbolic reduced-basis coefficients of the ideal attached to a generating
set, the exact rank of its Jacobian, and an exact Q-linear solver for the
low-degree polynomial membership space, and the generator of a specialized
ideal built term by term; the polynomial search that reads every condition
row at every point; and a test of proportionality for comparing lifted
coefficients up to scaling.
"""

from fractions import Fraction

import sympy
from sympy import QQ as SQQ
from sympy.polys.matrices import DomainMatrix

from fieldsimp.arith import FAIL
from fieldsimp.oms import UnluckyPoint
from fieldsimp.poly import RationalFunction, Ring


# points beyond one per candidate monomial for `every_row_search`, which
# skips a failed replay (each point it does not skip and that does not end
# it adds rank)
SEARCH_EXTRA_POINTS = 8


class OracleTooHard(Exception):
    """The symbolic computation exceeded the size guard; the test
    generator skips such instances."""


_ORDER_MAP = {"degrevlex": "grevlex", "lex": "lex"}


def _sym_vars(genset):
    xs = sympy.symbols([v + "_x" for v in genset.ring.vars])
    ys = sympy.symbols(["t_s"] + [v + "_y" for v in genset.ring.vars])
    return xs, ys


def _poly_to_expr(poly, syms):
    expr = sympy.Integer(0)
    for m, c in poly.terms:
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, m):
            if e:
                term *= s ** e
        expr += term
    return expr


def _frac_coeff_to_rf(coeff, x_ring):
    """Fraction-field element -> RationalFunction over the Q x-ring."""
    def lift(pe):
        d = {}
        for mon, c in pe.to_dict().items():
            d[tuple(int(e) for e in mon)] = Fraction(int(c.numerator),
                                                     int(c.denominator))
        return x_ring.from_dict(d)
    return RationalFunction(lift(coeff.numer), lift(coeff.denom))


def specialize(num, den, point, ring):
    """p(y) q(a) - q(y) p(a) in the (t, y) ring for the F_p images p = num
    and q = den, or FAIL when q(a) = 0."""
    qv = den.evaluate(point)
    if qv == 0:
        return FAIL
    pv = num.evaluate(point)
    p = ring.field.p
    d = {(0,) + m: c * qv % p for m, c in num.terms}
    for m, c in den.terms:
        k = (0,) + m
        d[k] = (d.get(k, 0) - c * pv) % p
    return ring.from_dict(d)


def symbolic_groebner(genset, order):
    """sympy GroebnerBasis of the parametric ideal of a generating set:
    p_i(y) q_i(x) - q_i(y) p_i(x) for every generator plus t Q(y) - 1,
    over Q(x), in variables (t, y_1..y_n) with t greatest."""
    xs, ys = _sym_vars(genset)
    polys = []
    for g in genset.generators:
        num_y = _poly_to_expr(g.num, ys[1:])
        den_y = _poly_to_expr(g.den, ys[1:])
        num_x = _poly_to_expr(g.num, xs)
        den_x = _poly_to_expr(g.den, xs)
        h = sympy.expand(num_y * den_x - den_y * num_x)
        if h != 0:
            polys.append(h)
    q_y = _poly_to_expr(genset.common_denominator, ys[1:])
    polys.append(sympy.expand(ys[0] * q_y - 1))
    try:
        gb = sympy.groebner(polys, *ys, order=_ORDER_MAP[order.kind],
                            domain=SQQ.frac_field(*xs), method="buchberger")
    except Exception as exc:           # pragma: no cover - defensive
        raise OracleTooHard(str(exc))
    return gb, xs, ys


def symbolic_gb_coefficients(genset, order):
    """{(element index, y-monomial): RationalFunction} for the non-leading
    support of the reduced fraction-field basis, plus the support list.
    Element order and in-element monomial order follow the given order,
    leading monomials ascending across elements (the same convention as
    the package's reduced bases)."""
    gb, xs, ys = symbolic_groebner(genset, order)
    key = order.key
    elements = []
    for p in gb.polys:
        terms = {tuple(int(e) for e in mon): coeff
                 for mon, coeff in p.rep.to_dict().items()}
        mons = sorted(terms, key=key, reverse=True)
        lead = terms[mons[0]]
        elements.append((mons, {m: terms[m] / lead for m in mons}))
    elements.sort(key=lambda item: key(item[0][0]))
    entries = {}
    support = []
    for i, (mons, terms) in enumerate(elements):
        support.append(tuple(mons))
        for m in mons[1:]:
            entries[(i, m)] = _frac_coeff_to_rf(terms[m], genset.ring)
    return entries, support


def jacobian_rank(genset):
    """Rank of the generators' Jacobian over Q(x), computed exactly by
    sympy's DomainMatrix over the fraction field of its entries."""
    xs, _ = _sym_vars(genset)
    exprs = [_poly_to_expr(g.num, xs) / _poly_to_expr(g.den, xs)
             for g in genset.generators]
    jac = sympy.Matrix(exprs).jacobian(xs)
    return DomainMatrix.from_Matrix(jac).to_field().rank()


# ----------------------------------------------------------------------
# exact low-degree membership space over Q


def monomials_up_to(n, delta):
    out = [()]
    for _ in range(n):
        out = [m + (e,) for m in out for e in range(delta + 1 - sum(m))]
    return out


def symbolic_membership_space(genset, delta):
    """Q-basis (echelonized coefficient vectors) of the space of
    polynomials of degree <= delta lying in the generated subfield,
    constants included.  Returns (monomial list, list of Fraction rows)."""
    order = genset.ring.order
    gb, xs, ys = symbolic_groebner(genset, order)
    n = genset.ring.arity
    monomials = sorted(monomials_up_to(n, delta), key=order.key)
    frac = SQQ.frac_field(*xs)
    # normal form of each candidate monomial; collect the coefficients of
    # every residual nonconstant y-monomial as Q(x) elements
    images = []
    residual_mons = set()
    for mon in monomials:
        expr = _poly_to_expr(genset.ring.from_dict({mon: Fraction(1)}), ys[1:])
        rem = gb.reduce(expr)[1]
        img = {}
        if rem != 0:
            p = sympy.Poly(rem, *ys, domain=frac)
            for m, c in p.rep.to_dict().items():
                m = tuple(int(e) for e in m)
                if sum(m) == 0:
                    continue
                img[m] = c
                residual_mons.add(m)
        images.append(img)
    # per residual monomial: the Q-linear constraints from clearing the
    # lcm denominator and matching every x-monomial coefficient
    constraints = []
    zero = frac.zero
    for m in sorted(residual_mons):
        entries = [img.get(m, zero) for img in images]
        ring = next(e.denom.ring for e in entries if e)
        den = ring.one
        for e in entries:
            if e:
                den = den * e.denom
        cleared = []
        for e in entries:
            if not e:
                cleared.append(None)
            else:
                cleared.append(e.numer * den.quo(e.denom))
        x_mons = sorted({xm for pe in cleared if pe is not None
                         for xm in pe.to_dict()})
        for xm in x_mons:
            row = []
            for pe in cleared:
                if pe is None:
                    row.append(Fraction(0))
                else:
                    c = pe.to_dict().get(xm)
                    row.append(Fraction(int(c.numerator),
                                        int(c.denominator)) if c is not None
                               else Fraction(0))
            constraints.append(row)
    kernel = _q_kernel(constraints, len(monomials))
    return monomials, kernel


def _q_kernel(rows, width):
    """Echelonized basis of the kernel of the given Fraction matrix."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(width) if c not in pivots]
    kernel = []
    for c in free:
        vec = [Fraction(0)] * width
        vec[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][c]
        kernel.append(vec)
    return _q_echelon(kernel)


def _q_echelon(vectors):
    if not vectors:
        return []
    m = [v[:] for v in vectors]
    cols = len(m[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return m[:r]


def every_row_search(genset, delta, field, rng, evaluator):
    """`fields.polynomial_generators` as it reads every condition row at
    every point: the same points, drawn from `rng` and replayed by
    `evaluator`, the rows read off `ReducedGB.normal_form` (one per
    nonconstant monomial of the normal forms), each added to a dense
    reduced echelon over F_p until a point adds no rank.  Returns the
    kernel's reduced echelon basis, constants left out, leading monomials
    descending."""
    x_ring = Ring(genset.ring.vars, field, genset.ring.order)
    n, p = genset.ring.arity, field.p
    monomials = sorted(monomials_up_to(n, delta), key=x_ring.order.key)
    echelon, gb = {}, evaluator.learned     # pivot column -> row
    for k in range(len(monomials) + SEARCH_EXTRA_POINTS):
        if k:
            gb = evaluator.gb(tuple(rng.randrange(1, p) for _ in range(n)))
            if gb is FAIL:
                continue
        rows = {}
        for i, m in enumerate(monomials):
            nf = gb.normal_form(gb.ring.from_dict({(0,) + m: 1}))
            for t, c in nf.terms:
                if any(t):
                    rows.setdefault(t, [0] * len(monomials))[i] = c
        rank = len(echelon)
        for row in rows.values():
            _add_to_rref(echelon, row, p)
        if len(echelon) == rank:
            break
    else:
        raise UnluckyPoint("kernel iteration did not stabilize")
    basis = []
    for f in range(len(monomials) - 1, 0, -1):
        if f not in echelon:
            vec = {monomials[c]: -row[f] % p for c, row in echelon.items()
                   if row[f]}
            vec[monomials[f]] = 1
            basis.append(x_ring.from_dict(vec))
    return basis


def _add_to_rref(echelon, row, p):
    """Add a dense row to a reduced echelon {pivot: row} over F_p."""
    for c, other in echelon.items():
        if row[c]:
            f = row[c]
            row = [(x - f * y) % p for x, y in zip(row, other)]
    c = next((c for c, x in enumerate(row) if x), None)
    if c is None:
        return
    inv = pow(row[c], -1, p)
    row = [x * inv % p for x in row]
    for d, other in echelon.items():
        if other[c]:
            f = other[c]
            echelon[d] = [(x - f * y) % p for x, y in zip(other, row)]
    echelon[c] = row


def fp_echelon(vectors, p):
    """Echelonized copy of integer row vectors over F_p."""
    m = [[x % p for x in v] for v in vectors]
    m = [v for v in m if any(v)]
    if not m:
        return []
    cols = len(m[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return m[:r]


def in_fp_span(vectors, candidate, p):
    base = fp_echelon(vectors, p)
    joined = fp_echelon(base + [candidate], p)
    return len(joined) == len(base)


def proportional(f, g):
    """True when the rational functions f and g have f = c g for a nonzero
    constant c."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    if f.den != g.den or f.num.support() != g.num.support():
        return False
    c = f.num.leading_coefficient() / g.num.leading_coefficient()
    return f.num == g.num.scale(c)
