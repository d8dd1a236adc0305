"""Command-line front end.

Problem files have a header line `vars: x1, x2, ...` followed by one
rational-function expression per nonempty line; `#` starts a comment.  The
header order defines the variable ranking of the monomial order (first is
greatest) unless --var-order overrides it.
"""

import argparse
import json
import math
import re
import sys

from .groebner import MAX_EXPONENT, ExponentOverflow
from .oms import EvaluationBudgetExceeded, GeneratorSet
from .poly import (QQ, DivisionByZero, MonomialOrder, RationalFunction, Ring)
from .simplify import SimplifyConfig, VerificationFailed, simplify


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)


class UnknownIdentifier(ParseError):
    pass


class ZeroDenominator(ParseError):
    pass


# ----------------------------------------------------------------------
# tokenizer + recursive-descent parser

# deepest nesting of parentheses and unary signs (a parenthesis level costs
# five Python frames, well inside the default recursion limit)
MAX_NESTING = 100

# a token is an ASCII integer, an identifier (the one rule for variable
# names, in the header and --var-order too), an operator, or the end of the
# line or a comment; str.isdigit and str.isalnum would also accept
# superscripts and other scripts' digits and letters
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
TOKEN = re.compile(r"[ \t]*(?:(?P<int>[0-9]+)|(?P<ident>%s)|(?P<op>[-+*/^()])"
                   r"|(?P<end>#.*|\Z)|(?P<bad>.))" % IDENTIFIER.pattern,
                   re.DOTALL)


def _tokenize(text, line_no=1):
    tokens, i = [], 0
    while True:
        match = TOKEN.match(text, i)
        kind, i = match.lastgroup, match.end()
        value, col = match.group(kind), match.start(kind) + 1
        if kind == "bad":
            raise ParseError("unexpected character %r" % value, line_no, col)
        if kind == "end":
            tokens.append(("end", "", line_no, col))
            return tokens
        tokens.append((value if kind == "op" else kind, value, line_no, col))


def _height(coefficients):
    """The largest numerator or denominator of the coefficients."""
    return max(max(abs(c.numerator), c.denominator) for c in coefficients)


def _cleared_norm(poly):
    """max(d, |d poly|_1) for d the lcm of the coefficient denominators:
    every numerator and denominator of a coefficient of poly^e is at most
    its e-th power."""
    d = math.lcm(*(c.denominator for _, c in poly.terms))
    return max(d, sum(abs(c.numerator) * (d // c.denominator)
                      for _, c in poly.terms))


class _Parser:
    def __init__(self, tokens, ring, var_index):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.var_index = var_index
        self.depth = 0
        # a longer coefficient cannot be rendered; 0 where there is no limit
        self.max_digits = getattr(sys, "get_int_max_str_digits", int)()

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[1] or "end"),
                             tok[2], tok[3])
        return tok

    def parse(self):
        first = self.peek()
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected %r" % tok[1], tok[2], tok[3])
        height = _height(c for poly in (value.num, value.den)
                         for _, c in poly.terms)
        # 8^limit < 10^limit, so a shorter height needs no exact test
        if self.max_digits and height.bit_length() > 3 * self.max_digits \
                and height >= 10 ** self.max_digits:
            raise ParseError("coefficient longer than %d digits"
                             % self.max_digits, first[2], first[3])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            tok = self.advance()
            rhs = self.unary()
            if tok[0] == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ZeroDenominator("division by zero", tok[2], tok[3])
                value = value / rhs
        return value

    def nested(self, tok, parse):
        """parse() one nesting level deeper, the level opened at `tok`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", tok[2], tok[3])
        value = parse()
        self.depth -= 1
        return value

    def unary(self):
        tok = self.peek()
        if tok[0] not in ("+", "-"):
            return self.power()
        self.advance()
        value = self.nested(tok, self.unary)
        return -value if tok[0] == "-" else value

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            tok = self.advance()
            if self.peek()[0] == "-":
                raise ParseError("exponents must be nonnegative integers",
                                 tok[2], tok[3])
            e = self.integer(self.expect("int"))
            top = e * base.max_exponent()
            if top > MAX_EXPONENT:      # refused before it is expanded
                raise ParseError("exponent %d exceeds %d"
                                 % (top, MAX_EXPONENT), tok[2], tok[3])
            # no numerator or denominator of a coefficient of base^e, its
            # denominator made monic, exceeds (norm(num) norm(den))^e
            norm = _cleared_norm(base.num) * _cleared_norm(base.den)
            if self.max_digits and e * math.log10(norm) >= self.max_digits:
                raise ParseError("power longer than %d digits"
                                 % self.max_digits, tok[2], tok[3])
            return base ** e
        return base

    def integer(self, tok):
        if self.max_digits and len(tok[1]) > self.max_digits:
            raise ParseError("integer literal longer than %d digits"
                             % self.max_digits, tok[2], tok[3])
        return int(tok[1])

    def atom(self):
        tok = self.advance()
        if tok[0] == "int":
            return RationalFunction(self.ring.from_int(self.integer(tok)))
        if tok[0] == "ident":
            idx = self.var_index.get(tok[1])
            if idx is None:
                raise UnknownIdentifier("unknown identifier %r" % tok[1],
                                        tok[2], tok[3])
            return RationalFunction(self.ring.variable(idx))
        if tok[0] == "(":
            value = self.nested(tok, self.expr)
            self.expect(")")
            return value
        raise ParseError("unexpected %r" % (tok[1] or "end"), tok[2], tok[3])


def parse_expression(text, ring, line_no=1):
    """Parse one expression into a RationalFunction over the given ring."""
    var_index = {name: i for i, name in enumerate(ring.vars)}
    return _Parser(_tokenize(text, line_no), ring, var_index).parse()


def _split_names(text, what, line_no=None, col=1):
    """The names of a comma-separated list, empty items dropped; a name
    that is no identifier, or a repeat, is a ParseError at its line and
    column, `col` that of text[0] (line_no None: a list with no line)."""
    names = []
    for item in text.split(","):
        name = item.strip()
        if name:
            if not IDENTIFIER.fullmatch(name) or name in names:
                reason = "is repeated" if name in names \
                    else "is not an identifier"
                raise ParseError("%s %r %s" % (what, name, reason),
                                 line_no, col + item.index(name))
            names.append(name)
        col += len(item) + 1
    return names


def parse_problem_file(text, var_order=None, order_kind="degrevlex"):
    """Parse a problem file into a GeneratorSet."""
    lines = text.splitlines()
    header = None
    exprs = []
    for idx, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            if not line.startswith("vars:"):
                raise ParseError("first line must be `vars: ...`", idx, 1)
            start = raw.index("vars:") + len("vars:")
            header = _split_names(line[len("vars:"):], "variable name", idx,
                                 start + 1)
            if not header:
                raise ParseError("empty variable list", idx, 1)
            continue
        exprs.append((idx, line))
    if header is None:
        raise ParseError("missing `vars:` header")
    if var_order:
        if sorted(var_order) != sorted(header):
            raise ParseError("--var-order must be a permutation of the header")
        header = var_order
    ring = Ring(header, QQ, MonomialOrder(order_kind))
    gens = []
    warned = []
    for line_no, text_line in exprs:
        rf = parse_expression(text_line, ring, line_no)
        if rf.is_constant():
            warned.append(text_line)
            continue
        gens.append(rf)
    if not gens:
        raise ParseError("no nonconstant generators")
    return GeneratorSet(ring, gens), warned


# ----------------------------------------------------------------------
# driver


def _build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="fieldsimp",
        description="Simplify a generating set of a subfield of Q(x1..xn).")
    ap.add_argument("--input", required=True, help="problem file")
    ap.add_argument("--order", default="degrevlex",
                    choices=["degrevlex", "lex"])
    ap.add_argument("--var-order",
                    help="comma-separated variable ranking (greatest first)")
    ap.add_argument("--delta", type=int, default=SimplifyConfig.delta,
                    help="degree cap for the polynomial-generator search")
    ap.add_argument("--minimize", action="store_true")
    ap.add_argument("--no-retain-originals", action="store_true")
    ap.add_argument("--seed", type=int, default=SimplifyConfig.seed)
    ap.add_argument("--eval-cap", type=int, default=SimplifyConfig.eval_cap)
    ap.add_argument("--format", default="text", choices=["text", "json"])
    ap.add_argument("--report", help="write the JSON report to this file")
    return ap


def run(argv):
    try:
        args = _build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        var_order = None
        if args.var_order:
            var_order = _split_names(args.var_order, "--var-order name")
        genset, warned = parse_problem_file(text, var_order, args.order)
        cfg = SimplifyConfig(
            delta=args.delta,
            minimize=args.minimize,
            retain_originals=not args.no_retain_originals,
            seed=args.seed,
            eval_cap=args.eval_cap,
        )
        cfg.validate(genset.ring.arity)
    except (OSError, ParseError, ValueError, DivisionByZero) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for w in warned:
        print("warning: dropping constant generator %r" % w, file=sys.stderr)
    try:
        output, report = simplify(genset, cfg)
    except VerificationFailed as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return 1
    except EvaluationBudgetExceeded as exc:
        print("evaluation budget exhausted: %s" % exc, file=sys.stderr)
        return 3
    except ExponentOverflow as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    doc = report.to_json_dict()
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for g in output:
            print(g.render())
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
