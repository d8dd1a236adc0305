"""Re-derive the known answers in answers.py with sympy, not with fieldsimp.

Checks that each target's Jacobian rank matches its INDEPENDENT flag, and
that every listed automorphism fixes every input generator of its fixture.
The benchmark itself never imports sympy; run this once after editing
answers.py:

    python3 perfbench/check_answers.py
"""

import sys
from pathlib import Path

import sympy

from answers import (AUTOMORPHISMS, FIXTURES, INDEPENDENT, TARGETS,
                     map_exponents)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def read_fixture(name):
    variables, exprs = None, []
    for raw in (FIXTURE_DIR / (name + ".txt")).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if variables is None:
            variables = [v.strip() for v in line[len("vars:"):].split(",")]
        else:
            exprs.append(line)
    return variables, exprs


def to_sympy(text, symbols):
    return sympy.sympify(text.replace("^", "**"), locals=symbols)


def main():
    problems = []
    for name in FIXTURES:
        variables, inputs = read_fixture(name)
        symbols = {v: sympy.Symbol(v) for v in variables}
        xs = [symbols[v] for v in variables]
        target = [to_sympy(t, symbols) for t in TARGETS[name]]
        rank = sympy.Matrix(target).jacobian(xs).rank()
        independent = rank == len(target)
        if independent != INDEPENDENT[name]:
            problems.append("%s: Jacobian rank %d of %d targets, flag %s"
                            % (name, rank, len(target), INDEPENDENT[name]))
        for sigma in AUTOMORPHISMS[name]:
            images, factors = map_exponents(sigma, variables)
            subs = {xs[i]: factors[i] * xs[images[i]] for i in range(len(xs))}
            for text in inputs:
                g = to_sympy(text, symbols)
                if sympy.simplify(g.subs(subs, simultaneous=True) - g) != 0:
                    problems.append("%s: %r moves %s" % (name, sigma, text))
        print("%-15s rank %d/%d  %d automorphisms checked"
              % (name, rank, len(target), len(AUTOMORPHISMS[name])))
    for line in problems:
        print("MISMATCH", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
