#!/usr/bin/env python3
"""A stand-in SMT solver for the tests, so that run_solver, solve_all and
`fsmkit to-smt --solver` run end to end without an installed solver.

    python tests/stand_in_solver.py SCRIPT.smt2

It reads the script's declare-const and assert commands, tries every
assignment of the declared constants in itertools.product order and
evaluates the assertions with eval_sexpr, in exact rationals.  A Bool
ranges over false/true; an Int or a Real x over the values that the first
assertion of one of these shapes allows:

    (and (<= lo x) (<= x hi))     an Int only; lo and hi numerals n or (- n)
    (or (= x c1) (= x c2) ...)    c1, c2, ... closed terms, such as 2.0,
    (= x c)                       (- 1) or (/ 3.0 2.0)

An assertion is evaluated as soon as every constant it mentions has a
value, so a false one cuts off all the assignments that extend the values
so far.  It prints `sat` and the first model, as define-fun lines, or
`unsat`.  A constant of any other sort, or an Int or a Real without such
an assertion, is an error (exit 1).
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


def _domain(assertion, sorts):
    """(x, values) when the assertion confines a constant x, an Int or a
    Real by sorts, to the finitely many values of one of the shapes in the
    module docstring; else None."""
    bounds = _bounds(assertion)
    if bounds is not None:
        x, lo, hi = bounds
        return (x, range(lo, hi + 1)) if sorts.get(x) == "Int" else None
    alts = assertion[1:] if assertion[0] == "or" else [assertion]
    if not alts or not all(isinstance(a, list) and len(a) == 3
                           and a[0] == "=" and isinstance(a[1], str)
                           for a in alts) \
            or len({a[1] for a in alts}) != 1 \
            or sorts.get(alts[0][1]) not in ("Int", "Real"):
        return None
    try:
        return alts[0][1], [eval_sexpr(a[2], {}) for a in alts]
    except KeyError:    # a c that mentions a constant
        return None


def _smt(v, sort):
    """v written as a value of sort: true or false, or a numeral of an Int
    or a Real, such as 2, 2.0 or (- (/ 3.0 2.0))."""
    if isinstance(v, bool):
        return "true" if v else "false"
    v = Fraction(v)
    text = str(abs(v.numerator)) + ("" if sort == "Int" else ".0")
    if v.denominator != 1:
        text = f"(/ {text} {v.denominator}.0)"
    return f"(- {text})" if v < 0 else text


def solve(text):
    commands = parse_sexprs(text)
    consts = [(c[1], c[2]) for c in commands if c[0] == "declare-const"]
    assertions = [c[1] for c in commands if c[0] == "assert"]
    sorts = dict(consts)
    ranges = {}
    for a in assertions:
        got = _domain(a, sorts) if isinstance(a, list) else None
        if got is not None:
            ranges.setdefault(*got)
    domains = []
    for name, sort in consts:
        if sort == "Bool":
            domains.append((False, True))
        elif name in ranges:
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
    return "sat\n(\n" + "".join(
        f"  (define-fun {n} () {sorts[n]} {_smt(v, sorts[n])})\n"
        for n, v in env.items()) + ")\n"


def _atoms(sx) -> set:
    """The atoms (names and numerals) of a parsed s-expression."""
    if isinstance(sx, str):
        return {sx}
    return set().union(*map(_atoms, sx))


if __name__ == "__main__":
    sys.stdout.write(solve(pathlib.Path(sys.argv[1]).read_text()))
