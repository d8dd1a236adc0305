"""Command-line front end.

Problem files have a header line `vars: x1, x2, ...` followed by one
rational-function expression per nonempty line; `#` starts a comment.  The
header order defines the variable ranking of the monomial order (first is
greatest) unless --var-order overrides it.
"""

import argparse
import json
import sys

from .groebner import MAX_EXPONENT
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


def _tokenize(text, line_no=1):
    tokens = []
    i, col = 0, 1
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            col += 1
            continue
        if ch == "#":
            break
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], line_no, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line_no, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, line_no, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line_no, col)
    tokens.append(("end", "", line_no, col))
    return tokens


class _Parser:
    def __init__(self, tokens, ring, var_index):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.var_index = var_index
        self.depth = 0

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
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected %r" % tok[1], tok[2], tok[3])
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
            e = int(self.expect("int")[1])
            top = e * base.max_exponent()
            if top > MAX_EXPONENT:      # refused before it is expanded
                raise ParseError("exponent %d exceeds %d"
                                 % (top, MAX_EXPONENT), tok[2], tok[3])
            return base ** e
        return base

    def atom(self):
        tok = self.advance()
        if tok[0] == "int":
            return RationalFunction(self.ring.from_int(int(tok[1])))
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
            header = [v.strip() for v in line[len("vars:"):].split(",")]
            header = [v for v in header if v]
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
    ap.add_argument("--delta", type=int, default=3,
                    help="degree cap for the polynomial-generator search")
    ap.add_argument("--epsilon", type=float, default=0.01)
    ap.add_argument("--minimize", action="store_true")
    ap.add_argument("--no-retain-originals", action="store_true")
    ap.add_argument("--no-final-check", action="store_true")
    ap.add_argument("--paranoid", action="store_true",
                    help="verify at additional primes")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--eval-cap", type=int, default=10 ** 6)
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
            var_order = [v.strip() for v in args.var_order.split(",")]
        genset, warned = parse_problem_file(text, var_order, args.order)
        cfg = SimplifyConfig(
            delta=args.delta,
            eps=args.epsilon,
            minimize=args.minimize,
            retain_originals=not args.no_retain_originals,
            final_check=not args.no_final_check,
            paranoid=args.paranoid,
            seed=args.seed,
            eval_cap=args.eval_cap,
        )
        cfg.validate()
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
    doc = report.to_json_dict()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
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
