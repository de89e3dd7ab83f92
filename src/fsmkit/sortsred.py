"""Reduction of many-sorted formulas to a single-sorted setting.

Each sort s becomes a unary predicate sort_s over one merged sort of
individuals.  Quantifiers are relativized through the sort predicates, and
a block of supporting axioms constrains the sort predicates and pads the
behaviour of functions and predicates on ill-sorted argument tuples with
choice formulas (so that stability is not disputed by witnesses that only
differ on tuples with no many-sorted counterpart).
"""

from __future__ import annotations

import itertools

from .syntax import (
    And, App, Atom, Choice, Equal, Exists, Forall, Formula, FragmentError,
    FsmError, Implies, Lit, Not, Signature, TAG_USER, Var, conj,
    close_universally, disj, transform,
)
from .interp import FiniteInterpretation

#: the single sort of the reduced signature
MERGED_SORT = "obj"


def sort_pred(s: str) -> str:
    return f"sort_{s}"


def unsorted_signature(sig: Signature) -> Signature:
    out = Signature()
    out.declare_sort(MERGED_SORT)
    for s, decl in sig.sorts.items():
        if decl.tag != TAG_USER:
            continue
        out.declare_pred(sort_pred(s), (MERGED_SORT,))
    for n, (argsorts, valsort) in sig.functions.items():
        if sig.background.get(n) != TAG_USER:
            continue
        _require_user_sorts(sig, n, tuple(argsorts) + (valsort,))
        out.declare_func(n, (MERGED_SORT,) * len(argsorts), MERGED_SORT)
    for n, argsorts in sig.predicates.items():
        if sig.background.get(n) != TAG_USER:
            continue
        _require_user_sorts(sig, n, argsorts)
        out.declare_pred(n, (MERGED_SORT,) * len(argsorts))
    return out


def _require_user_sorts(sig, n, sorts):
    for s in sorts:
        if sig.sorts[s].tag != TAG_USER:
            raise FragmentError(
                f"symbol {n!r} uses builtin sort {s!r}; "
                "only declared sorts can be merged")


def relativize(f: Formula) -> Formula:
    """F with sorted quantifiers guarded by sort predicates."""
    def step(g, new):
        if isinstance(g, Var):
            return Var(g.name, MERGED_SORT)
        if isinstance(g, Lit):
            raise FragmentError("builtin literal in a formula being desorted")
        if isinstance(g, (Forall, Exists)):
            y = Var(g.var.name, MERGED_SORT)
            guard = Atom(sort_pred(g.var.sort), (y,))
            if isinstance(g, Forall):
                return Forall(y, Implies(guard, new.body))
            return Exists(y, And(guard, new.body))
        return new
    return transform(f, step)


def sort_axioms(sig: Signature) -> list:
    """The supporting axioms: subsort inclusions, nonemptiness of every
    sort, value closure of every function, and choice padding of functions
    and predicates on ill-sorted tuples."""
    out = []
    y = Var("Y", MERGED_SORT)
    user_sorts = [s for s, d in sig.sorts.items() if d.tag == TAG_USER]
    for sub, sup in sorted(sig.subsorts):
        if sub in user_sorts and sup in user_sorts and sub != sup:
            out.append(Forall(y, Implies(Atom(sort_pred(sub), (y,)),
                                         Atom(sort_pred(sup), (y,)))))
    for s in user_sorts:
        out.append(Exists(y, Atom(sort_pred(s), (y,))))
    for n, (argsorts, valsort) in sig.functions.items():
        if sig.background.get(n) != TAG_USER:
            continue
        ys = [Var(f"Y{i+1}", MERGED_SORT) for i in range(len(argsorts))]
        app = App(n, tuple(ys))
        well = conj([Atom(sort_pred(s), (v,)) for s, v in zip(argsorts, ys)])
        out.append(close_universally(
            Implies(well, Atom(sort_pred(valsort), (app,))), ys))
        if argsorts:
            ill = disj([Not(Atom(sort_pred(s), (v,)))
                        for s, v in zip(argsorts, ys)])
            yk = Var(f"Y{len(argsorts)+1}", MERGED_SORT)
            out.append(close_universally(
                Implies(ill, Choice(Equal(app, yk))), ys + [yk]))
    for n, argsorts in sig.predicates.items():
        if sig.background.get(n) != TAG_USER or not argsorts:
            continue
        ys = [Var(f"Y{i+1}", MERGED_SORT) for i in range(len(argsorts))]
        ill = disj([Not(Atom(sort_pred(s), (v,)))
                    for s, v in zip(argsorts, ys)])
        out.append(close_universally(
            Implies(ill, Choice(Atom(n, tuple(ys)))), ys))
    return out


def to_unsorted(f: Formula, sig: Signature):
    """Returns (relativized formula, supporting axioms, merged signature)."""
    return relativize(f), sort_axioms(sig), unsorted_signature(sig)


# ---------------------------------------------------------------------------
# interpretation maps

def interp_to_unsorted(i: FiniteInterpretation, sig: Signature,
                       default=None) -> FiniteInterpretation:
    """The single-sorted interpretation induced by a many-sorted one.

    Functions take a fixed default value on ill-sorted tuples; predicates
    are false there."""
    usig = unsorted_signature(sig)
    merged = []
    extents = {}
    for s, decl in sig.sorts.items():
        if decl.tag != TAG_USER:
            continue
        ext = sig.extent(s, i.universe)
        if ext is None:
            raise FsmError(f"no finite extent for sort {s!r}")
        extents[s] = tuple(ext)
        for e in ext:
            if e not in merged:
                merged.append(e)
    if not merged:
        raise FsmError("no elements to merge")
    if default is None:
        default = merged[0]

    universe = {MERGED_SORT: tuple(merged)}
    preds = {sort_pred(s): frozenset((e,) for e in ext)
             for s, ext in extents.items()}
    funcs = {}
    for n, (argsorts, valsort) in sig.functions.items():
        if sig.background.get(n) != TAG_USER:
            continue
        table = {}
        for args in itertools.product(merged, repeat=len(argsorts)):
            well = all(a in extents[s] for a, s in zip(args, argsorts))
            if well:
                table[args] = i.funcs[n][args]
            else:
                table[args] = default
        funcs[n] = table
    for n, argsorts in sig.predicates.items():
        if sig.background.get(n) != TAG_USER:
            continue
        ext = i.preds.get(n, frozenset())
        preds[n] = frozenset(
            t for t in ext
            if all(a in extents[s] for a, s in zip(t, argsorts)))
    return FiniteInterpretation(usig, universe, funcs, preds)


def related(l1: FiniteInterpretation, l2: FiniteInterpretation,
            sig: Signature) -> bool:
    """Whether two single-sorted interpretations agree wherever the
    argument tuple is well sorted (ill-sorted padding may differ)."""
    if l1.universe != l2.universe:
        return False
    extents = {}
    for s, decl in sig.sorts.items():
        if decl.tag != TAG_USER:
            continue
        e1 = l1.preds.get(sort_pred(s), frozenset())
        e2 = l2.preds.get(sort_pred(s), frozenset())
        if e1 != e2:
            return False
        extents[s] = {t[0] for t in e1}
    for n, (argsorts, _) in sig.functions.items():
        if sig.background.get(n) != TAG_USER:
            continue
        for args in itertools.product(*[sorted(extents[s], key=repr)
                                        for s in argsorts]):
            if l1.funcs[n].get(args) != l2.funcs[n].get(args):
                return False
    for n, argsorts in sig.predicates.items():
        if sig.background.get(n) != TAG_USER:
            continue
        for args in itertools.product(*[sorted(extents[s], key=repr)
                                        for s in argsorts]):
            if (args in l1.preds.get(n, frozenset())) != \
                    (args in l2.preds.get(n, frozenset())):
                return False
    return True
