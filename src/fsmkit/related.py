"""Reference oracles for neighbouring formalisms with intensional or
constraint-valued symbols: causal theories, IF-programs, constraint answer
set programs, linear-constraint programs, and functional reducts over
typed object constants.

Each oracle is implemented directly from its own defining fixpoint or
second-order condition, independently of the stable-model checkers, so the
two sides can be audited against each other.
"""

from __future__ import annotations

import itertools

from .syntax import (
    App, Atom, BOT, Bottom, Equal, Formula, FragmentError, FrozenRecord,
    FsmError, Implies, Not, Rule, Signature, TOP, _set, as_clist, conj,
    is_not, nodes, rename_symbols, symbols, transform,
)
from .interp import FiniteInterpretation, eval_term, satisfies
from .stable import Mirrors


# ---------------------------------------------------------------------------
# causal theories

class CausalRule(FrozenRecord):
    __slots__ = ("head", "body")

    def __init__(self, head: Formula, body: Formula):
        _set(self, "head", head)
        _set(self, "body", body)


def _is_definite(rule: CausalRule, flist) -> bool:
    h = rule.head
    if h == BOT:
        return True
    if isinstance(h, Equal) and isinstance(h.left, App) and h.left.fn in flist:
        others = set(flist)
        args_ok = all(not (symbols(a) & others) for a in h.left.args)
        val_ok = not (symbols(h.right) & others)
        return args_ok and val_ok
    return False


def causal_translate(rules, flist) -> Formula:
    """The formula whose stable models coincide with the causal models of a
    definite theory: each defining rule becomes not not B -> f(t) = t1, and
    each falsum rule becomes not B."""
    flist = as_clist(flist)
    parts = []
    for r in rules:
        if not _is_definite(r, flist):
            raise FragmentError(f"rule head {r.head!r} is not definite")
        if r.head == BOT:
            parts.append(Rule(Not(r.body), TOP).as_formula())
        else:
            parts.append(Rule(r.head, Not(Not(r.body))).as_formula())
    return conj(parts)


def causal_theory_formula(rules) -> Formula:
    return conj(Rule(r.head, r.body).as_formula() for r in rules)


def cm_check(rules, flist, i: FiniteInterpretation) -> bool:
    """Whether I is a causal model: I satisfies every rule, and the actual
    assignment of the explainable functions is the unique one satisfying
    the rule heads whose bodies hold."""
    flist = as_clist(flist)
    theory = causal_theory_formula(rules)
    if not satisfies(i, theory):
        return False
    mirrors = Mirrors(flist, i.signature)
    dagger = conj(Rule(rename_symbols(r.head, mirrors.names),
                       r.body).as_formula() for r in rules)
    return not any(satisfies(ext, dagger)
                   for _, ext in mirrors.witnesses(i, ordered=False))


# ---------------------------------------------------------------------------
# IF-programs

class IfRule(FrozenRecord):
    __slots__ = ("head", "body")

    def __init__(self, head: Formula, body: Formula = TOP):
        _set(self, "head", head)
        _set(self, "body", body)


def _diamond(f, mapping):
    """Replace occurrences of the listed functions with mirrors everywhere
    except inside subformulas beginning with negation.  f must be in the
    IF-rule fragment (see _check_if_fragment)."""
    def step(g, new):
        if is_not(g) is not None:
            return g
        if isinstance(g, Implies):
            raise FragmentError("embedded implication in an IF-rule")
        if isinstance(g, (Atom, Equal)):
            return rename_symbols(g, mapping)
        return new
    return transform(f, step)


def _check_if_fragment(f):
    """Reject any implication other than a negation."""
    if any(isinstance(g, Implies) and is_not(g) is None for g in nodes(f)):
        raise FragmentError("embedded implication in an IF-rule")


def if_check(rules, flist, i: FiniteInterpretation) -> bool:
    """The total-function semantics: I satisfies the program and no other
    assignment of the listed functions satisfies the variant with mirrors
    substituted at non-negated occurrences."""
    flist = as_clist(flist)
    for r in rules:
        _check_if_fragment(r.head)
        _check_if_fragment(r.body)
    program = conj(Rule(r.head, r.body).as_formula() for r in rules)
    if not satisfies(i, program):
        return False
    mirrors = Mirrors(flist, i.signature)
    variant = conj(Rule(_diamond(r.head, mirrors.names),
                        _diamond(r.body, mirrors.names)).as_formula()
                   for r in rules)
    return not any(satisfies(ext, variant)
                   for _, ext in mirrors.witnesses(i, ordered=False))


# ---------------------------------------------------------------------------
# constraint answer set programs

class CRule(FrozenRecord):
    """head None encodes falsum; constraints are ground sentences over the
    object constants (possibly negated), evaluated against the constraint
    valuation."""
    __slots__ = ("head", "pos", "neg", "constraints")

    def __init__(self, head: str | None, pos: tuple = (), neg: tuple = (),
                 constraints: tuple = ()):
        _set(self, "head", head)
        _set(self, "pos", pos)
        _set(self, "neg", neg)
        _set(self, "constraints", constraints)


def crules_atoms(rules):
    atoms = set()
    for r in rules:
        if r.head is not None:
            atoms.add(r.head)
        atoms.update(r.pos)
        atoms.update(r.neg)
    return atoms


def crules_to_formula(rules) -> Formula:
    parts = []
    for r in rules:
        body = conj([Atom(a) for a in r.pos]
                    + [Not(Atom(a)) for a in r.neg]
                    + list(r.constraints))
        head = Atom(r.head) if r.head is not None else BOT
        parts.append(Implies(body, head) if body != TOP else head)
    return conj(parts)


def _least_model_is(reduct, x) -> bool:
    """Whether x is the least model of a reduct of (head, body atoms)
    rules, where head None marks a constraint, and no constraint fires in
    it."""
    reduct = [(head, set(body)) for head, body in reduct]
    model = set()
    changed = True
    while changed:
        changed = False
        for head, body in reduct:
            if head is not None and head not in model and body <= model:
                model.add(head)
                changed = True
    return model == x and not any(head is None and body <= model
                                  for head, body in reduct)


def clingcon_answer_sets(rules, valuation: FiniteInterpretation):
    """All constraint answer sets relative to a fixed valuation of the
    object constants: X such that X is the minimal model of the reduct of
    the program at X and the valuation."""
    for r in rules:
        if r.head is not None and not isinstance(r.head, str):
            raise FragmentError(f"non-propositional head {r.head!r}")
    atoms = sorted(crules_atoms(rules))
    out = []
    for bits in itertools.product([False, True], repeat=len(atoms)):
        x = {a for a, b in zip(atoms, bits) if b}
        if _clingcon_holds(rules, x, valuation):
            out.append(frozenset(x))
    return out


def _clingcon_holds(rules, x, valuation):
    return _least_model_is([(r.head, r.pos) for r in rules
                            if all(satisfies(valuation, cn)
                                   for cn in r.constraints)
                            and not (set(r.neg) & x)], x)


# ---------------------------------------------------------------------------
# linear-constraint programs

class LinCon(FrozenRecord):
    """sum of coeff * variable compared with a constant."""
    __slots__ = ("coeffs", "op", "bound")

    def __init__(self, coeffs: tuple, op: str, bound: int):
        _set(self, "coeffs", coeffs)    # ((coefficient, variable-name), ...)
        _set(self, "op", op)            # one of <= >= = < >
        _set(self, "bound", bound)

    def holds(self, assign) -> bool:
        total = sum(c * assign[v] for c, v in self.coeffs)
        if self.op == "<=":
            return total <= self.bound
        if self.op == ">=":
            return total >= self.bound
        if self.op == "=":
            return total == self.bound
        if self.op == "<":
            return total < self.bound
        if self.op == ">":
            return total > self.bound
        raise FsmError(f"unknown comparison {self.op!r}")

    def variables(self):
        return [v for _, v in self.coeffs]


class LRule(FrozenRecord):
    __slots__ = ("head", "pos", "neg", "lcs")

    def __init__(self, head: str | None, pos: tuple = (), neg: tuple = (),
                 lcs: tuple = ()):
        _set(self, "head", head)
        _set(self, "pos", pos)
        _set(self, "neg", neg)
        _set(self, "lcs", lcs)          # theory atoms (LinCon)


class SliceRequired(FsmError):
    """Bounded satisfiability needs an explicit integer slice."""


def program_theory_atoms(rules):
    atoms = []
    for r in rules:
        for lc in r.lcs:
            if lc not in atoms:
                atoms.append(lc)
    return atoms


def theory_assignment_exists(require, forbid, slice_values):
    """Whether some integer assignment over the slice satisfies every
    constraint in require and falsifies every constraint in forbid."""
    names = sorted({v for lc in list(require) + list(forbid)
                    for v in lc.variables()})
    for combo in itertools.product(slice_values, repeat=len(names)):
        assign = dict(zip(names, combo))
        if all(lc.holds(assign) for lc in require) \
                and not any(lc.holds(assign) for lc in forbid):
            return True
    return False


def ljn_answer_check(rules, x, t, slice_values=None) -> bool:
    """Answer-set test for linear-constraint programs: the chosen theory
    atoms plus the negations of the unchosen ones must be satisfiable, the
    pair must satisfy the program, and x must be the smallest atom set
    satisfying the reduct."""
    if slice_values is None:
        raise SliceRequired("an integer slice is required for the "
                            "constraint satisfiability search")
    x = set(x)
    t = set(t)
    theory_atoms = program_theory_atoms(rules)
    if not t <= set(theory_atoms):
        raise FsmError("chosen theory atoms must occur in the program")
    forbid = [lc for lc in theory_atoms if lc not in t]
    if not theory_assignment_exists(sorted(t, key=repr), forbid, slice_values):
        return False
    # (X, T) satisfies the program
    for r in rules:
        if set(r.pos) <= x and not (set(r.neg) & x) and set(r.lcs) <= t:
            if r.head is None or r.head not in x:
                return False
    return _least_model_is([(r.head, r.pos) for r in rules
                            if not (set(r.neg) & x) and set(r.lcs) <= t], x)


def lrules_to_formula(rules, lc_formula) -> Formula:
    """FOL form of a linear-constraint program; lc_formula maps each theory
    atom to a ground arithmetic sentence over the object constants."""
    parts = []
    for r in rules:
        body = conj([Atom(a) for a in r.pos]
                    + [Not(Atom(a)) for a in r.neg]
                    + [lc_formula(lc) for lc in r.lcs])
        head = Atom(r.head) if r.head is not None else BOT
        parts.append(Implies(body, head) if body != TOP else head)
    return conj(parts)


# ---------------------------------------------------------------------------
# functional reducts over typed object constants

class LwRule(FrozenRecord):
    __slots__ = ("head", "pos", "neg")

    def __init__(self, head: Formula, pos: tuple = (), neg: tuple = ()):
        _set(self, "head", head)        # Atom or Bottom
        _set(self, "pos", pos)          # Atom | Equal, ground
        _set(self, "neg", neg)          # Atom | Equal, ground


def is_p_interpretation(i: FiniteInterpretation, sig: Signature) -> bool:
    """Object constants evaluate to themselves and every ground term lands
    on an object constant of the right sort."""
    for n, (argsorts, valsort) in sig.functions.items():
        if sig.background.get(n) != "user":
            continue
        if not argsorts:
            decl = sig.sorts.get(valsort)
            if decl is None or decl.elements is None or n not in decl.elements:
                continue
            table = i.funcs.get(n)
            if table is None or table.get(()) != n:
                return False
    return True


def _eval_ground_atom(i, g):
    if isinstance(g, Atom):
        vals = tuple(eval_term(i, a) for a in g.args)
        return ("atom", g.pred, vals)
    if isinstance(g, Equal):
        return ("eq", eval_term(i, g.left), eval_term(i, g.right))
    raise FragmentError(f"not an atomic body element: {g!r}")


def lw_answer_check(rules, i: FiniteInterpretation, sig: Signature) -> bool:
    """Five-step functional reduct followed by a minimal-model test of the
    resulting ground normal program."""
    if not is_p_interpretation(i, sig):
        raise FsmError("interpretation does not evaluate object constants "
                       "to themselves")
    reduct = []
    for r in rules:
        if not isinstance(r.head, (Atom, Bottom)):
            raise FragmentError(f"rule head {r.head!r} must be an atom or falsum")
        pos_atoms = []
        dead = False
        for g in r.pos:
            kind = _eval_ground_atom(i, g)
            if kind[0] == "eq":
                if kind[1] != kind[2]:
                    dead = True
                    break
            else:
                pos_atoms.append((kind[1], kind[2]))
        if dead:
            continue
        for g in r.neg:
            kind = _eval_ground_atom(i, g)
            if kind[0] == "eq":
                truth = kind[1] == kind[2]
            else:
                truth = kind[2] in i.preds.get(kind[1], frozenset())
            if truth:
                dead = True
                break
        if dead:
            continue
        if isinstance(r.head, Bottom):
            head = None
        else:
            head = ("atom", r.head.pred,
                    tuple(eval_term(i, a) for a in r.head.args))[1:]
        reduct.append((head, pos_atoms))

    true_atoms = {(p, t) for p, ext in i.preds.items() for t in ext
                  if sig.background.get(p) == "user"}
    return _least_model_is(reduct, true_atoms)


def lw_formula(rules) -> Formula:
    parts = []
    for r in rules:
        body = conj(list(r.pos) + [Not(g) for g in r.neg])
        parts.append(Implies(body, r.head) if body != TOP else r.head)
    return conj(parts)
