"""Finite many-sorted interpretations, classical satisfaction, enumeration.

Interpretations are the semantic substrate for every brute-force check.
Builtin arithmetic is exact: integers are Python ints, reals are Fractions.
A term whose value falls outside the finite domain of a user function map
evaluates to "undefined", and any atomic formula containing an undefined
term is false (so out-of-range arithmetic never raises).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .syntax import (
    ARITH_FUNCS, COMPARE_PREDS, TAG_USER, App, Atom, And, Bottom, Equal,
    Exists, Forall, FsmError, Implies, Lit, Obj, Or, Signature, Var, as_clist,
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


@dataclass
class FiniteInterpretation:
    signature: Signature
    universe: dict                      # sort -> tuple of elements
    funcs: dict = field(default_factory=dict)   # name -> {argtuple: elem}
    preds: dict = field(default_factory=dict)   # name -> frozenset of argtuples

    def __post_init__(self):
        self.preds = {k: frozenset(v) for k, v in self.preds.items()}

    # -- structural equality on the semantic content ----------------------
    def key(self):
        return (tuple(sorted((k, tuple(sorted(v.items(), key=repr))) for k, v in self.funcs.items())),
                tuple(sorted((k, tuple(sorted(v, key=repr))) for k, v in self.preds.items())))

    def __eq__(self, other):
        return (isinstance(other, FiniteInterpretation)
                and self.universe == other.universe and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def extent(self, sort):
        if sort in self.universe:
            return self.universe[sort]
        decl = self.signature.sorts.get(sort)
        if decl is not None and decl.elements is not None:
            return decl.elements
        raise DomainError(f"no finite extent for sort {sort!r}")

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
        JSON of another shape or one that fails validate()."""
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
                return Fraction(e["rat"][0], e["rat"][1])
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
        """Raise InterpretationError unless every user symbol is interpreted,
        every interpreted symbol is declared, and every argument and value
        lies in the extent of its sort.  A function table may be partial
        (an application with no entry is undefined), and a sort with no
        finite extent is not checked."""
        sig = self.signature
        keys = {}

        def check(elems, sorts, what):
            if len(elems) != len(sorts):
                raise InterpretationError(
                    f"{what}: {len(elems)} arguments, want {len(sorts)}")
            for e, s in zip(elems, sorts):
                if s not in keys:
                    try:
                        keys[s] = {elem_key(x) for x in self.extent(s)}
                    except DomainError:
                        keys[s] = None
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

def _extent(universe, sort):
    if sort not in universe:
        raise DomainError(f"no finite extent for sort {sort!r}")
    return universe[sort]


def _domain_size(universe, argsorts):
    size = 1
    for s in argsorts:
        size *= len(_extent(universe, s))
    return size


def _func_assignments(universe, sig, name):
    argsorts, valsort = sig.functions[name]
    domain = list(itertools.product(*[_extent(universe, s) for s in argsorts]))
    values = _extent(universe, valsort)
    for combo in itertools.product(values, repeat=len(domain)):
        yield dict(zip(domain, combo))


def _pred_assignments(universe, sig, name):
    argsorts = sig.predicates[name]
    domain = list(itertools.product(*[_extent(universe, s) for s in argsorts]))
    for bits in itertools.product([False, True], repeat=len(domain)):
        yield frozenset(t for t, b in zip(domain, bits) if b)


def count_assignments(universe, sig, name) -> int:
    if name in sig.functions:
        argsorts, valsort = sig.functions[name]
        return len(_extent(universe, valsort)) ** _domain_size(universe, argsorts)
    return 2 ** _domain_size(universe, sig.predicates[name])


def enumerate_interpretations(sig: Signature, universe: dict,
                              fixed_funcs=None, fixed_preds=None,
                              vary=None):
    """Yield all total extensions of the fixed part, each exactly once.

    vary: restrict the varying symbols to this collection (default: every
    user symbol not pinned by the fixed part).
    """
    fixed_funcs = dict(fixed_funcs or {})
    fixed_preds = {k: frozenset(v) for k, v in (fixed_preds or {}).items()}
    for s, ext in universe.items():
        if len(ext) == 0:
            raise DomainError(f"empty extent for sort {s!r}")

    user = [n for n in list(sig.functions) + list(sig.predicates)
            if sig.background.get(n, TAG_USER) == TAG_USER]
    if vary is not None:
        vary = list(vary)
    else:
        vary = [n for n in user if n not in fixed_funcs and n not in fixed_preds]

    choices = []
    for n in vary:
        if n in sig.functions:
            choices.append((n, _func_assignments))
        elif n in sig.predicates:
            choices.append((n, _pred_assignments))
        else:
            raise FsmError(f"unknown symbol {n!r}")

    for combo in _lazy_product(
            [functools.partial(assignments, universe, sig, n)
             for n, assignments in choices]):
        funcs = dict(fixed_funcs)
        preds = dict(fixed_preds)
        for (n, _), a in zip(choices, combo):
            (funcs if n in sig.functions else preds)[n] = a
        yield FiniteInterpretation(sig, universe, funcs, preds)


_DONE = object()


def _lazy_product(factories):
    """itertools.product(*(f() for f in factories)), in the same order,
    without building any input first: the k-th input is restarted by calling
    factories[k] once per combination of the ones before it.  An odometer
    over a stack of iterators, so the depth is not limited by recursion."""
    if not factories:
        yield ()
        return
    iters, combo = [factories[0]()], []
    while iters:
        item = next(iters[-1], _DONE)
        if item is _DONE:
            iters.pop()
            if combo:
                combo.pop()
        elif len(iters) == len(factories):
            yield tuple(combo) + (item,)
        else:
            combo.append(item)
            iters.append(factories[len(iters)]())


def vary_on(interp: FiniteInterpretation, names):
    """Yield all interpretations agreeing with interp except possibly on names."""
    sig = interp.signature
    fixed_funcs = {k: v for k, v in interp.funcs.items() if k not in names}
    fixed_preds = {k: v for k, v in interp.preds.items() if k not in names}
    yield from enumerate_interpretations(sig, interp.universe,
                                         fixed_funcs, fixed_preds, vary=list(names))


# ---------------------------------------------------------------------------
# the relation J <^c I

def less_on_c(j: FiniteInterpretation, i: FiniteInterpretation, c) -> bool:
    """J <^c I: agree off c, predicate containment on c, and differ on c."""
    c = as_clist(c)
    if j.universe != i.universe:
        raise FsmError("mismatched universes in less_on_c")
    sig = i.signature
    others = [n for n in sig.user_symbols() if n not in c.names]
    if not j.agrees_on(i, others):
        return False
    for p in c.pred_part(sig):
        if not j.preds.get(p, frozenset()) <= i.preds.get(p, frozenset()):
            return False
    return not j.agrees_on(i, c.names)
