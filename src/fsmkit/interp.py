"""Finite many-sorted interpretations, classical satisfaction, enumeration.

Interpretations are the semantic substrate for every brute-force check.
Builtin arithmetic is exact: integers are Python ints, reals are Fractions.
A term whose value falls outside the finite domain of a user function map
evaluates to "undefined", and any atomic formula containing an undefined
term is false (so out-of-range arithmetic never raises).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .syntax import (
    ARITH_FUNCS, COMPARE_PREDS, App, Atom, And, Bottom, Equal,
    Exists, Forall, FsmError, Implies, Lit, Obj, Or, Record, Signature, Var,
    as_clist, repeated_element,
)


class EvaluationError(FsmError):
    """Partial builtin applied outside its domain (e.g. division by zero)."""


class DomainError(FsmError):
    pass


class InterpretationError(FsmError):
    """An interpretation that does not fit its signature and universe."""


#: marker for "no value" (out-of-domain function application)
UNDEF = object()


def elem_key(v):
    """A hashable key under which two values are equal exactly when an
    equation between them holds: == and the same bool-ness, so True and 1
    get different keys while 1 and Fraction(1) share one."""
    return isinstance(v, bool), v


class FiniteInterpretation(Record):
    __slots__ = ("signature", "universe", "funcs", "preds")

    def __init__(self, signature: Signature, universe: dict, funcs=None,
                 preds=None):
        self.signature = signature
        self.universe = universe                  # sort -> tuple of elements
        self.funcs = {} if funcs is None else funcs   # name -> {argtuple: elem}
        # name -> frozenset of argtuples
        self.preds = {k: frozenset(v) for k, v in (preds or {}).items()}

    # -- structural equality on the semantic content ----------------------
    def key(self):
        return (tuple(sorted((k, tuple(sorted(v.items(), key=repr))) for k, v in self.funcs.items())),
                tuple(sorted((k, tuple(sorted(v, key=repr))) for k, v in self.preds.items())))

    def same_universe(self, other):
        """Whether the two universes give each sort the same extent; a sort
        one of them leaves out reads its declared extent."""
        a, b = self.universe, other.universe
        return a is b or all(
            self.signature.extent(s, a) == other.signature.extent(s, b)
            for s in a.keys() | b.keys())

    def __eq__(self, other):
        return (isinstance(other, FiniteInterpretation)
                and self.same_universe(other) and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def extent(self, sort):
        """The elements of sort (Signature.extent over the universe);
        raises DomainError if it has no finite extent."""
        try:
            return self.universe[sort]
        except KeyError:
            ext = self.signature.extent(sort, self.universe)
        if ext is None:
            raise DomainError(f"no finite extent for sort {sort!r}")
        return ext

    def agrees_on(self, other: "FiniteInterpretation", names) -> bool:
        for n in names:
            if self.funcs.get(n) != other.funcs.get(n):
                return False
            if self.preds.get(n) != other.preds.get(n):
                return False
        return True

    # -- JSON --------------------------------------------------------------
    def to_json(self) -> dict:
        def enc(e):
            if isinstance(e, Fraction):
                return {"rat": [e.numerator, e.denominator]}
            return e
        return {
            "universe": {s: [enc(e) for e in ext] for s, ext in sorted(self.universe.items())},
            "funcs": {n: {",".join(map(str, k)): enc(v) for k, v in sorted(m.items(), key=repr)}
                      for n, m in sorted(self.funcs.items())},
            "preds": {n: sorted([list(t) for t in ext]) for n, ext in sorted(self.preds.items())},
        }

    @classmethod
    def from_json(cls, data: dict, signature: Signature) -> "FiniteInterpretation":
        """The interpretation to_json wrote; raises InterpretationError on
        JSON of another shape, and what validate() raises on one that does
        not fit its signature."""
        try:
            interp = cls._decode(data, signature)
            interp.validate()
        except (AttributeError, TypeError, ValueError, ZeroDivisionError) as e:
            raise InterpretationError(
                f"malformed interpretation JSON: {e}") from e
        return interp

    @classmethod
    def _decode(cls, data, signature):
        def dec(e):
            if isinstance(e, dict) and "rat" in e:
                # unpacking raises ValueError unless there are two parts
                numerator, denominator = e["rat"]
                return Fraction(numerator, denominator)
            return e

        universe = {s: tuple(dec(e) for e in ext) for s, ext in data.get("universe", {}).items()}
        elems = {str(e): e for ext in universe.values() for e in ext}

        def parse_elem(s):
            s = s.strip()
            if s in elems:
                return elems[s]
            try:
                return int(s)
            except ValueError:
                return s

        funcs = {}
        for n, m in data.get("funcs", {}).items():
            table = {}
            for k, v in m.items():
                args = tuple(parse_elem(a) for a in k.split(",") if a != "") if k else ()
                table[args] = dec(v)
            funcs[n] = table
        preds = {n: frozenset(tuple(t) for t in ext) for n, ext in data.get("preds", {}).items()}
        return cls(signature, universe, funcs, preds)

    def validate(self):
        """Raise DomainError if the universe gives a sort an empty extent
        or one that lists an element twice (see _check_extents), and
        InterpretationError unless every user symbol is interpreted, every
        interpreted symbol is declared, and every argument and value lies
        in the extent of its sort.  A function table may be partial (an
        application with no entry is undefined), and a sort with no finite
        extent is not checked."""
        _check_extents(self.universe)
        sig = self.signature
        keys = {}

        def check(elems, sorts, what):
            if len(elems) != len(sorts):
                raise InterpretationError(
                    f"{what}: {len(elems)} arguments, want {len(sorts)}")
            for e, s in zip(elems, sorts):
                if s not in keys:
                    ext = sig.extent(s, self.universe)
                    keys[s] = (None if ext is None
                               else {elem_key(x) for x in ext})
                if keys[s] is not None and elem_key(e) not in keys[s]:
                    raise InterpretationError(
                        f"{what}: {e!r} is outside sort {s!r}")

        for n in sig.user_symbols():
            if n not in (self.funcs if n in sig.functions else self.preds):
                raise InterpretationError(
                    f"symbol {n!r} missing from the interpretation")
        for kind, table, declared in (
                ("function", self.funcs, sig.functions),
                ("predicate", self.preds, sig.predicates)):
            for n in table:
                if n not in declared:
                    raise InterpretationError(f"undeclared {kind} {n!r}")
        for n, table in self.funcs.items():
            argsorts, valsort = sig.functions[n]
            for args, v in table.items():
                what = f"{n}({', '.join(map(repr, args))})"
                check(args, argsorts, what)
                check((v,), (valsort,), f"value of {what}")
        for n, ext in self.preds.items():
            for args in ext:
                check(args, sig.predicates[n],
                      f"{n}({', '.join(map(repr, args))})")


# ---------------------------------------------------------------------------
# evaluation

def eval_term(interp: FiniteInterpretation, t, env=None):
    """Evaluate a term; returns UNDEF for out-of-domain applications."""
    env = env or {}
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, Obj):
        return t.elem
    if isinstance(t, Var):
        if t not in env:
            raise FsmError(f"unbound variable {t!r}")
        return env[t]
    if isinstance(t, App):
        if t.fn in ARITH_FUNCS:
            vals = [eval_term(interp, a, env) for a in t.args]
            if any(v is UNDEF for v in vals):
                return UNDEF
            return _arith(t.fn, vals)
        table = interp.funcs.get(t.fn)
        if table is None:
            raise FsmError(f"uninterpreted function {t.fn!r}")
        vals = tuple(eval_term(interp, a, env) for a in t.args)
        if any(v is UNDEF for v in vals):
            return UNDEF
        return table.get(vals, UNDEF)
    raise TypeError(f"not a term: {t!r}")


def _arith(op, vals):
    for v in vals:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise EvaluationError(f"non-numeric operand {v!r} for {op!r}")
    a, b = vals
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise EvaluationError("division by zero")
        return Fraction(a) / Fraction(b)
    raise EvaluationError(f"unknown arithmetic op {op!r}")


def _compare(op, a, b):
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise EvaluationError(f"unknown comparison {op!r}")


def satisfies(interp: FiniteInterpretation, f, env=None) -> bool:
    """Classical many-sorted satisfaction; quantifiers range over sort extents."""
    env = env or {}
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        vals = [eval_term(interp, a, env) for a in f.args]
        if any(v is UNDEF for v in vals):
            return False
        if f.pred in COMPARE_PREDS:
            return _compare(f.pred, *vals)
        ext = interp.preds.get(f.pred)
        if ext is None:
            raise FsmError(f"uninterpreted predicate {f.pred!r}")
        return tuple(vals) in ext
    if isinstance(f, Equal):
        lv = eval_term(interp, f.left, env)
        rv = eval_term(interp, f.right, env)
        if lv is UNDEF or rv is UNDEF:
            return False
        # guard against True == 1 collisions across bool/numeric universes
        if isinstance(lv, bool) != isinstance(rv, bool):
            return False
        return lv == rv
    if isinstance(f, And):
        return satisfies(interp, f.left, env) and satisfies(interp, f.right, env)
    if isinstance(f, Or):
        return satisfies(interp, f.left, env) or satisfies(interp, f.right, env)
    if isinstance(f, Implies):
        return (not satisfies(interp, f.left, env)) or satisfies(interp, f.right, env)
    if isinstance(f, Forall):
        return all(satisfies(interp, f.body, {**env, f.var: e})
                   for e in interp.extent(f.var.sort))
    if isinstance(f, Exists):
        return any(satisfies(interp, f.body, {**env, f.var: e})
                   for e in interp.extent(f.var.sort))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# enumeration

def count_assignments(universe, sig, name) -> int:
    extent = FiniteInterpretation(sig, universe).extent
    if name in sig.functions:
        argsorts, valsort = sig.functions[name]
        values = len(extent(valsort))
    else:
        argsorts, values = sig.predicates[name], 2
    return values ** math.prod(len(extent(s)) for s in argsorts)


def _check_extents(universe):
    """Raise DomainError if some sort of universe has an empty extent, or
    one that lists an element twice (see syntax.repeated_element)."""
    for s, ext in universe.items():
        if len(ext) == 0:
            raise DomainError(f"empty extent for sort {s!r}")
        e = repeated_element(ext)
        if e is not None:
            raise DomainError(f"the extent of sort {s!r} lists the element "
                              f"{e!r} twice")


class Locations:
    """The ground locations of the symbols of a signature over a universe:
    each argument tuple of a function, which takes a value of its value
    sort, and each argument tuple of a predicate, which is false or true.

    A symbol gets consecutive positions, its argument tuples in
    itertools.product order, the first time it is asked for (span).  One
    table serves every enumeration and search of a run (see
    stable.Problem)."""

    def __init__(self, sig: Signature, universe: dict):
        self.sig = sig
        self.extent = FiniteInterpretation(sig, universe).extent
        self.index = {}     # (symbol, args) -> position
        self.keys = []      # position -> (symbol, args)
        self.values = []    # position -> the values it ranges over, in order
        self.spans = {}     # symbol -> range of its positions

    def span(self, n) -> range:
        if n in self.spans:
            return self.spans[n]
        sig = self.sig
        if n in sig.functions:
            argsorts, valsort = sig.functions[n]
            values = self.extent(valsort)
            if not values:
                raise DomainError(f"empty extent for sort {valsort!r}")
        elif n in sig.predicates:
            argsorts, values = sig.predicates[n], (False, True)
        else:
            raise FsmError(f"unknown symbol {n!r}")
        start = len(self.keys)
        for args in itertools.product(*map(self.extent, argsorts)):
            self.index[n, args] = len(self.keys)
            self.keys.append((n, args))
            self.values.append(values)
        self.spans[n] = range(start, len(self.keys))
        return self.spans[n]

    def positions(self, names) -> list:
        """The positions of the symbols in names, in span order."""
        return [p for n in names for p in self.span(n)]

    def interpretation(self, outside, positions, value_of):
        """outside with the given positions read from value_of(p), the
        value of position p; the other entries of their symbols' tables
        stay as outside has them."""
        funcs, preds = dict(outside.funcs), dict(outside.preds)
        tables = {}     # symbol -> its table, copied from outside
        for p in positions:
            n, args = self.keys[p]
            table = tables.get(n)
            if table is None:
                table = tables[n] = (dict(funcs.get(n, ()))
                                     if n in self.sig.functions
                                     else set(preds.get(n, ())))
            v = value_of(p)
            if isinstance(table, dict):
                table[args] = v
            elif v:
                table.add(args)
            else:
                table.discard(args)
        for n, table in tables.items():
            if isinstance(table, dict):
                funcs[n] = table
            else:
                preds[n] = frozenset(table)
        return FiniteInterpretation(outside.signature, outside.universe,
                                    funcs, preds)

    def completions(self, outside, positions, picked):
        """(key, I) for every completion of picked, which maps some of the
        positions to the index of their value: I is outside with the
        positions read from them, and key holds the index of each
        position's value, in the order of positions.  The free positions
        take their values in itertools.product order, the last varying
        fastest, so with nothing picked the keys ascend."""
        free = [p for p in positions if p not in picked]
        values = self.values
        picked = dict(picked)
        for combo in itertools.product(*[range(len(values[p]))
                                         for p in free]):
            picked.update(zip(free, combo))
            yield (tuple([picked[p] for p in positions]),
                   self.interpretation(outside, positions,
                                       lambda p: values[p][picked[p]]))


def enumerate_interpretations(sig: Signature, universe: dict):
    """Yield every interpretation of the user symbols of sig over universe,
    each exactly once, in the order of Locations.completions."""
    _check_extents(universe)
    table = Locations(sig, universe)
    for _, i in table.completions(FiniteInterpretation(sig, universe),
                                  table.positions(sig.user_symbols()), {}):
        yield i


def vary_on(interp: FiniteInterpretation, names):
    """Yield all interpretations agreeing with interp except possibly on
    names, in the order of Locations.completions."""
    _check_extents(interp.universe)
    outside = FiniteInterpretation(
        interp.signature, interp.universe,
        {k: v for k, v in interp.funcs.items() if k not in names},
        {k: v for k, v in interp.preds.items() if k not in names})
    table = Locations(interp.signature, interp.universe)
    for _, i in table.completions(outside, table.positions(names), {}):
        yield i


# ---------------------------------------------------------------------------
# the relation J <^c I

def less_on_c(j: FiniteInterpretation, i: FiniteInterpretation, c) -> bool:
    """J <^c I: agree off c, predicate containment on c, and differ on c."""
    c = as_clist(c)
    if not j.same_universe(i):
        raise FsmError("mismatched universes in less_on_c")
    sig = i.signature
    others = [n for n in sig.user_symbols() if n not in c.names]
    if not j.agrees_on(i, others):
        return False
    for p in c.pred_part(sig):
        if not j.preds.get(p, frozenset()) <= i.preds.get(p, frozenset()):
            return False
    return not j.agrees_on(i, c.names)
