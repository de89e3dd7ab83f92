"""Eliminating intensional predicates in favor of functions and vice versa.

Both directions return the rewritten formula together with the auxiliary
axioms that pin down the new constant's behaviour, plus the corresponding
map on interpretations.  The function direction requires the input to be
plain with respect to the eliminated function (no nested occurrences).
"""

from __future__ import annotations

import itertools

from .syntax import (
    App, Atom, BOT, Choice, Equal, Exists, Formula, FragmentError, FsmError,
    Implies, Not, Or, Signature, Var, conj, close_universally, transform,
)
from .interp import FiniteInterpretation
from .transforms import is_f_plain


# ---------------------------------------------------------------------------
# predicates to two-valued functions

def two_value_names(f_name):
    """Names of the two fresh value constants for the function f_name."""
    return f"{f_name}__0", f"{f_name}__1"


def eliminate_predicate(f: Formula, p: str, f_name: str, sig: Signature):
    """Replace the intensional predicate p by a two-valued function.

    Returns (rewritten formula, supporting axioms, extended signature).
    The supporting axioms are [default, distinctness, totality]:

    * default: the choice closure of f(x) = v0 for every x,
    * distinctness: v0 != v1,
    * totality: not not forall x (f(x) = v0 | f(x) = v1).
    """
    if p not in sig.predicates:
        raise FsmError(f"unknown predicate {p!r}")
    argsorts = sig.predicates[p]
    valsort = sig.functions[f_name][1] if f_name in sig.functions else None
    ext = sig.copy()
    v0_name, v1_name = two_value_names(f_name)
    if f_name not in ext.functions:
        # value sort: reuse an argument sort when there is one, else a fresh
        # two-element sort
        if valsort is None:
            valsort = f"{f_name}__sort"
            ext.declare_sort(valsort, (v0_name, v1_name))
        ext.declare_func(f_name, argsorts, valsort)
    ext.declare_object(v0_name, valsort)
    ext.declare_object(v1_name, valsort)
    v0 = App(v0_name)
    v1 = App(v1_name)

    def step(g, new):
        if isinstance(g, Atom) and g.pred == p:
            return Equal(App(f_name, g.args), v1)
        return new

    xs = [Var(f"X{i+1}", s) for i, s in enumerate(argsorts)]
    fx = App(f_name, tuple(xs))
    default = close_universally(Choice(Equal(fx, v0)), xs)
    distinct = Not(Equal(v0, v1))
    total = Not(Not(close_universally(Or(Equal(fx, v0), Equal(fx, v1)), xs)))
    return transform(f, step), [default, distinct, total], ext


def map_pred_to_func(i: FiniteInterpretation, p: str, f_name: str,
                     ext: Signature) -> FiniteInterpretation:
    """The interpretation matching an input model after predicate
    elimination: f maps tuples in p to the v1 constant, others to v0."""
    v0_name, v1_name = two_value_names(f_name)
    argsorts, valsort = ext.functions[f_name]
    extent = FiniteInterpretation(ext, i.universe).extent
    values = extent(valsort)
    universe = {**i.universe, valsort: values}
    v0 = values[0] if v0_name not in values else v0_name
    v1 = values[1] if v1_name not in values else v1_name
    if v0 == v1:
        raise FsmError("value constants need two distinct elements")
    domain = itertools.product(*map(extent, argsorts))
    ext_i = i.preds.get(p, frozenset())
    table = {t: (v1 if t in ext_i else v0) for t in map(tuple, domain)}
    funcs = dict(i.funcs)
    funcs[f_name] = table
    funcs[v0_name] = {(): v0}
    funcs[v1_name] = {(): v1}
    preds = {k: v for k, v in i.preds.items() if k != p}
    return FiniteInterpretation(ext, universe, funcs, preds)


# ---------------------------------------------------------------------------
# functions to predicates (graph encoding)

def eliminate_function(f: Formula, f_name: str, p: str, sig: Signature):
    """Replace the intensional function f by its graph predicate p.

    The input must be plain in f (every occurrence at the root of one side
    of an equality, with f-free arguments).  Returns (rewritten formula,
    supporting axioms, extended signature); the axioms force p to be the
    graph of a total function:

    * uniqueness: forall x y z (p(x, y) & p(x, z) & y != z -> false),
    * existence: not not forall x exists y p(x, y).
    """
    if f_name not in sig.functions:
        raise FsmError(f"unknown function {f_name!r}")
    if not is_f_plain(f, [f_name]):
        raise FragmentError(f"formula is not plain in {f_name!r}")
    argsorts, valsort = sig.functions[f_name]
    ext = sig.copy()
    ext.declare_pred(p, tuple(argsorts) + (valsort,))

    def rewrite_eq(l, r):
        if isinstance(l, App) and l.fn == f_name:
            return Atom(p, l.args + (r,))
        if isinstance(r, App) and r.fn == f_name:
            return Atom(p, r.args + (l,))
        return Equal(l, r)

    def step(g, new):
        return rewrite_eq(g.left, g.right) if isinstance(g, Equal) else new

    xs = [Var(f"X{i+1}", s) for i, s in enumerate(argsorts)]
    y = Var("Y", valsort)
    z = Var("Z", valsort)
    unique = close_universally(
        Implies(conj([Atom(p, tuple(xs) + (y,)),
                      Atom(p, tuple(xs) + (z,)),
                      Not(Equal(y, z))]), BOT),
        xs + [y, z])
    exist = Not(Not(close_universally(Exists(y, Atom(p, tuple(xs) + (y,))), xs)))
    return transform(f, step), [unique, exist], ext


def map_func_to_pred(i: FiniteInterpretation, f_name: str, p: str,
                     ext: Signature) -> FiniteInterpretation:
    """Replace the function's map by its graph relation."""
    table = i.funcs.get(f_name)
    if table is None:
        raise FsmError(f"function {f_name!r} not interpreted")
    funcs = {k: v for k, v in i.funcs.items() if k != f_name}
    preds = dict(i.preds)
    preds[p] = frozenset(t + (v,) for t, v in table.items())
    return FiniteInterpretation(ext, dict(i.universe), funcs, preds)


def map_pred_to_func_graph(i: FiniteInterpretation, p: str, f_name: str,
                           sig: Signature) -> FiniteInterpretation:
    """Inverse of map_func_to_pred; requires the relation to be the graph
    of a total function."""
    rel = i.preds.get(p, frozenset())
    table = {}
    for t in rel:
        args, v = t[:-1], t[-1]
        if args in table:
            raise FsmError(f"relation {p!r} is not single-valued at {args!r}")
        table[args] = v
    argsorts, _ = sig.functions[f_name]
    for args in itertools.product(*map(i.extent, argsorts)):
        if args not in table:
            raise FsmError(f"relation {p!r} is not total at {args!r}")
    funcs = dict(i.funcs)
    funcs[f_name] = table
    preds = {k: v for k, v in i.preds.items() if k != p}
    return FiniteInterpretation(sig, dict(i.universe), funcs, preds)
