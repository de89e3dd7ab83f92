#!/usr/bin/env python3
"""A stand-in SMT solver for the tests, so that run_solver, solve_all and
`fsmkit to-smt --solver` run end to end without an installed solver.

    python tests/stand_in_solver.py SCRIPT.smt2

It reads the script's declare-const and assert commands, tries every
assignment of the declared constants (a Bool over false/true, an Int over
the range an assertion (and (<= lo x) (<= x hi)) of the script allows,
where lo and hi are numerals n or (- n)) in
itertools.product order and evaluates the assertions with eval_sexpr, in
exact rationals.  An assertion is evaluated as soon as every constant it
mentions has a value, so a false one cuts off all the assignments that
extend the values so far.  It prints `sat` and the first model, as
define-fun lines, or `unsat`.  A constant of
any other sort, or an Int without such a guard, is an error (exit 1).
"""

import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fsmkit.aspmt import parse_sexprs  # noqa: E402


def eval_sexpr(sx, env):
    """The value of a parsed s-expression, with the constants in env; numbers
    are exact rationals."""
    if isinstance(sx, str):
        if sx == "true":
            return True
        if sx == "false":
            return False
        try:
            return Fraction(sx)
        except ValueError:
            return env[sx]
    op, args = sx[0], [eval_sexpr(a, env) for a in sx[1:]]
    if op == "+":
        return sum(args)
    if op == "-":
        return -args[0] if len(args) == 1 else args[0] - args[1]
    if op == "*":
        out = Fraction(1)
        for a in args:
            out *= a
        return out
    if op == "/":
        return args[0] / args[1]
    if op == "=":
        return args[0] == args[1]
    if op == "<=":
        return args[0] <= args[1]
    if op == "<":
        return args[0] < args[1]
    if op == ">=":
        return args[0] >= args[1]
    if op == ">":
        return args[0] > args[1]
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    if op == "not":
        return not args[0]
    if op == "=>":
        return (not args[0]) or args[1]
    if op == "ite":
        return args[1] if args[0] else args[2]
    raise ValueError(f"unknown operator {op!r}")


def _numeral(sx):
    """The int that sx writes as a numeral n or (- n), else None."""
    sign = 1
    if isinstance(sx, list) and len(sx) == 2 and sx[0] == "-":
        sign, sx = -1, sx[1]
    if isinstance(sx, str) and sx.lstrip("-").isdigit():
        return sign * int(sx)
    return None


def _bounds(assertion):
    """(x, lo, hi) when the assertion is (and (<= lo x) (<= x hi))."""
    if len(assertion) == 3 and assertion[0] == "and" \
            and all(isinstance(a, list) and len(a) == 3 and a[0] == "<="
                    for a in assertion[1:]):
        (_, lo, x), (_, y, hi) = assertion[1:]
        lo, hi = _numeral(lo), _numeral(hi)
        if x == y and lo is not None and hi is not None:
            return x, lo, hi
    return None


def _smt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v) if v >= 0 else f"(- {-v})"


def solve(text):
    commands = parse_sexprs(text)
    consts = [(c[1], c[2]) for c in commands if c[0] == "declare-const"]
    assertions = [c[1] for c in commands if c[0] == "assert"]
    ranges = {}
    for a in assertions:
        got = _bounds(a)
        if got:
            x, lo, hi = got
            ranges[x] = range(lo, hi + 1)
    domains = []
    for name, sort in consts:
        if sort == "Bool":
            domains.append((False, True))
        elif sort == "Int" and name in ranges:
            domains.append(ranges[name])
        else:
            raise SystemExit(f"stand-in solver: no finite range for {name}")
    names = [name for name, _ in consts]
    # an assertion is evaluated once every constant it mentions has a value
    depth = {n: k + 1 for k, n in enumerate(names)}
    due = [[] for _ in range(len(names) + 1)]
    for a in assertions:
        due[max(map(depth.get, _atoms(a) & depth.keys()), default=0)].append(a)

    def search(k, env):
        if not all(eval_sexpr(a, env) for a in due[k]):
            return None
        if k == len(names):
            return env
        for v in domains[k]:
            got = search(k + 1, {**env, names[k]: v})
            if got is not None:
                return got
        return None

    env = search(0, {})
    if env is None:
        return "unsat\n"
    sorts = dict(consts)
    return "sat\n(\n" + "".join(
        f"  (define-fun {n} () {sorts[n]} {_smt(v)})\n"
        for n, v in env.items()) + ")\n"


def _atoms(sx) -> set:
    """The atoms (names and numerals) of a parsed s-expression."""
    if isinstance(sx, str):
        return {sx}
    return set().union(*map(_atoms, sx))


if __name__ == "__main__":
    sys.stdout.write(solve(pathlib.Path(sys.argv[1]).read_text()))
