"""Grounding, reduct, the star construction, and two stable-model checkers.

The two checkers realize the same semantics by different routes:

* ``method="reduct"``: ground the sentence over the interpretation's finite
  universe, take the reduct relative to I, and search for a smaller witness J.
* ``method="second-order"``: build the star transform F*(d) over mirror
  constants d and test the defining second-order condition directly by
  enumerating candidate witness assignments for d, evaluating the indexed
  grounding of F* under each.

Their agreement is a continuously-audited invariant.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .syntax import (
    ARITH_FUNCS, And, App, Atom, BOT, Bottom, Equal, Exists, Forall, Formula,
    FsmError, Implies, Lit, Obj, Or, Signature, Var, as_clist, conjuncts,
    free_vars, guard_term, rename_symbols, transform,
)
from .interp import (
    COMPARE_PREDS, UNDEF, DomainError, FiniteInterpretation, _arith,
    _compare, _extent, elem_key, enumerate_interpretations, eval_term,
    less_on_c, satisfies, vary_on,
)


# ---------------------------------------------------------------------------
# ground formulas (finite specialization of infinitary ground formulas)

@dataclass(frozen=True)
class GBot:
    def __repr__(self):
        return "false"


GBOT = GBot()


@dataclass(frozen=True)
class GAtom:
    pred: str
    args: tuple = ()

    def __repr__(self):
        return f"{self.pred}({', '.join(map(repr, self.args))})" if self.args else self.pred


@dataclass(frozen=True)
class GEqual:
    left: object
    right: object

    def __repr__(self):
        return f"({self.left!r} = {self.right!r})"


@dataclass(frozen=True)
class GAnd:
    members: frozenset

    def __repr__(self):
        return "{" + ", ".join(map(repr, self.members)) + "}&"


@dataclass(frozen=True)
class GOr:
    members: frozenset

    def __repr__(self):
        return "{" + ", ".join(map(repr, self.members)) + "}|"


@dataclass(frozen=True)
class GImp:
    left: object
    right: object

    def __repr__(self):
        return f"({self.left!r} -> {self.right!r})"


@dataclass(frozen=True)
class GIndex:
    """The instances of one universally quantified guarded body (see
    _guard), keyed by the element their guard t = X binds X to.

    Under an interpretation only the instances keyed by the value of t can
    be false: in every other one each implication has a false antecedent,
    and so has a reduct that every J satisfies.  The same holds for F*
    under a mirror extension of I, where t is evaluated as in I.  cases
    holds (element, instance) per element of X's extent; table maps
    elem_key of each element to its instances.
    """
    term: object
    cases: tuple
    table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = {}
        for e, g in self.cases:
            table.setdefault(elem_key(e), []).append(g)
        object.__setattr__(self, "table", table)

    def guarded(self, interp):
        """The instances whose guard holds in interp."""
        v = eval_term(interp, self.term)
        return () if v is UNDEF else self.table.get(elem_key(v), ())


def gand(members) -> GAnd:
    return GAnd(frozenset(members))


def gor(members) -> GOr:
    return GOr(frozenset(members))


def ground(f: Formula, interp: FiniteInterpretation, env=None, *,
           index=False):
    """Structure-preserving grounding of a sentence relative to interp.

    Quantifiers become finite set-conjunctions/disjunctions over the
    variable's sort extent, with object names substituted for the variable.
    Ground terms are kept intact (only variables are replaced).  Only the
    universe of interp is read, so one grounding serves every candidate
    over that universe.  The top-level call (env is None) rejects a formula
    with free variables; nested calls bind every variable they meet.

    With index, a universal quantifier over a guarded implication
    (see _guard) becomes a GIndex on the ground guard term instead of a
    GAnd, so that gsat and the reduct visit one instance, not the extent.
    """
    if env is None:
        if free_vars(f):
            raise FsmError(f"ground: free variables in {f!r}")
        env = {}

    def g_term(t):
        if isinstance(t, Var):
            return Obj(env[t])
        if isinstance(t, App):
            return App(t.fn, tuple(g_term(a) for a in t.args))
        return t

    if isinstance(f, Bottom):
        return GBOT
    if isinstance(f, Atom):
        return GAtom(f.pred, tuple(g_term(a) for a in f.args))
    if isinstance(f, Equal):
        return GEqual(g_term(f.left), g_term(f.right))
    if isinstance(f, And):
        return gand([ground(f.left, interp, env, index=index),
                     ground(f.right, interp, env, index=index)])
    if isinstance(f, Or):
        return gor([ground(f.left, interp, env, index=index),
                    ground(f.right, interp, env, index=index)])
    if isinstance(f, Implies):
        return GImp(ground(f.left, interp, env, index=index),
                    ground(f.right, interp, env, index=index))
    if isinstance(f, Forall):
        cases = [(e, ground(f.body, interp, {**env, f.var: e}, index=index))
                 for e in interp.extent(f.var.sort)]
        guard = _guard(f) if index else None
        if guard is not None:
            return GIndex(g_term(guard), tuple(cases))
        return gand(g for _, g in cases)
    if isinstance(f, Exists):
        return gor([ground(f.body, interp, {**env, f.var: e}, index=index)
                    for e in interp.extent(f.var.sort)])
    raise TypeError(f"not a formula: {f!r}")


def _guard(f: Forall):
    """t when f is forall X ((... & t = X & ...) -> H), with the equation
    in either orientation and X not free in t; else None.

    The body may also be a conjunction of such implications, as star makes
    of one: (A* -> H*) & (A -> H).  Then t is the first guard of the first
    conjunct that every other conjunct's antecedent also holds.  When t
    mentions a symbol in c, A* holds both t^ = X and t = X, and only t is
    shared."""
    guards = [[t for a in conjuncts(g.left)
               if (t := guard_term(a, f.var)) is not None]
              if isinstance(g, Implies) else []
              for g in conjuncts(f.body)]
    first, *rest = guards
    return next((t for t in first if all(t in ts for ts in rest)), None)


def gsat(interp: FiniteInterpretation, g) -> bool:
    """Satisfaction of ground formulas."""
    if isinstance(g, GBot):
        return False
    if isinstance(g, GAtom):
        vals = [eval_term(interp, a) for a in g.args]
        if any(v is UNDEF for v in vals):
            return False
        if g.pred in COMPARE_PREDS:
            return _compare(g.pred, *vals)
        ext = interp.preds.get(g.pred)
        if ext is None:
            raise FsmError(f"uninterpreted predicate {g.pred!r}")
        return tuple(vals) in ext
    if isinstance(g, GEqual):
        lv, rv = eval_term(interp, g.left), eval_term(interp, g.right)
        if lv is UNDEF or rv is UNDEF:
            return False
        if isinstance(lv, bool) != isinstance(rv, bool):
            return False
        return lv == rv
    if isinstance(g, GAnd):
        return all(gsat(interp, m) for m in g.members)
    if isinstance(g, GOr):
        return any(gsat(interp, m) for m in g.members)
    if isinstance(g, GImp):
        return (not gsat(interp, g.left)) or gsat(interp, g.right)
    if isinstance(g, GIndex):
        return all(gsat(interp, m) for m in g.guarded(interp))
    raise TypeError(f"not a ground formula: {g!r}")


def reduct(g, interp: FiniteInterpretation):
    """Reduct relative to interp: false atoms and false implications become
    bottom, everything else is reduced recursively.

    One bottom-up pass: each atom is evaluated once, and whether a node
    holds in interp is derived from its members instead of re-evaluated.
    A GIndex reduces to the conjunction of its guarded instances: the
    others have a false antecedent, so every J satisfies their reduct.
    """
    return _reduct_pass(g, interp)[1]


def _reduct_pass(g, interp):
    """(interp satisfies g, reduct of g relative to interp)."""
    if isinstance(g, (GAtom, GEqual)):
        if gsat(interp, g):
            return True, g
        return False, GBOT
    if isinstance(g, GImp):
        left_sat, left = _reduct_pass(g.left, interp)
        right_sat, right = _reduct_pass(g.right, interp)
        if left_sat and not right_sat:
            return False, GBOT
        return True, GImp(left, right)
    if isinstance(g, (GAnd, GOr)):
        pairs = [_reduct_pass(m, interp) for m in g.members]
        holds = all if isinstance(g, GAnd) else any
        return (holds(s for s, _ in pairs),
                type(g)(frozenset(r for _, r in pairs)))
    if isinstance(g, GIndex):
        pairs = [_reduct_pass(m, interp) for m in g.guarded(interp)]
        return all(s for s, _ in pairs), gand(r for _, r in pairs)
    if isinstance(g, GBot):
        return False, GBOT
    raise TypeError(f"not a ground formula: {g!r}")


# ---------------------------------------------------------------------------
# the star construction F*(d)

def star(f: Formula, c, mirrors: dict) -> Formula:
    """F*(d) of the defining recursion; mirrors maps each member of c to a
    fresh similar constant name."""
    c = as_clist(c)
    missing = [n for n in c if n not in mirrors]
    if missing:
        raise FsmError(f"mirror list not similar to c: missing {missing}")

    def step(g, new):
        if isinstance(g, (Atom, Equal)):
            return And(rename_symbols(g, mirrors), g)
        if isinstance(g, Implies):
            return And(new, g)
        return new

    return transform(f, step)


class Mirrors:
    """The mirror constants d of c: a deterministic fresh name for each
    member of c, and the signature extended with them."""

    def __init__(self, c, sig: Signature):
        self.c = as_clist(c)
        taken = set(sig.functions) | set(sig.predicates)
        self.names = {}
        self.signature = sig.copy()
        for n in self.c:
            m = n + "^"
            while m in taken:
                m += "^"
            taken.add(m)
            self.names[n] = m
            if n in sig.functions:
                args, val = sig.functions[n]
                self.signature.declare_func(m, args, val)
            else:
                self.signature.declare_pred(m, sig.predicates[n])

    def witnesses(self, i: FiniteInterpretation, ordered: bool = True):
        """(J, I extended by J's values of c under the mirror names) for
        each candidate witness J of witnesses(i, c, ordered)."""
        for j in witnesses(i, self.c, ordered):
            funcs = dict(i.funcs)
            preds = dict(i.preds)
            for n, m in self.names.items():
                if n in i.signature.functions:
                    funcs[m] = j.funcs[n]
                else:
                    preds[m] = j.preds.get(n, frozenset())
            yield j, FiniteInterpretation(self.signature, i.universe,
                                          funcs, preds)


# ---------------------------------------------------------------------------
# the smaller witness J, searched on the reduct

_UNKNOWN = object()     # a term whose value depends on an unassigned location
_ABSENT = object()      # no entry in I's table


def smaller_witness(red, i: FiniteInterpretation, c):
    """A J with J <^c I that satisfies the ground reduct red = F^I, or None.

    Backtracking search over the c-locations: each argument tuple of a
    function in c, over the universe, takes a value of its value sort (I's
    value first), and each tuple in I(p) of a predicate p in c is in or out
    (in first).  Tuples outside I(p) stay false, which is the subset rule
    of <^c; off c, J is I.  Under a partial J, red is evaluated three-valued
    (Kleene): a branch is pruned as soon as red is false, and the search
    branches on the first unassigned location the evaluation reads.

    Lemma: I |= F implies I |= F^I, and a Kleene "true" holds under every
    completion of the partial J.  So the search succeeds as soon as red is
    true and either J already differs from I on c, or some unassigned
    location has a value other than I's: give it that value and I's values
    everywhere else.  This is also the relevance cut: the branch that gives
    every location red reads I's value ends true, so a location red never
    reads refutes stability at once.  A location where I's table has no
    entry differs from I under every value.
    """
    return _PartialJ(i, c).search(red)


class _PartialJ:
    """J agreeing with I off c, with the c-locations assigned so far.
    A location is (symbol, argument tuple)."""

    def __init__(self, i: FiniteInterpretation, c):
        c = as_clist(c)
        sig = i.signature
        self.i = i
        self.base = {}          # location -> I's value, or _ABSENT
        self.values = {}        # location -> the values it ranges over
        for n in c.names:
            if n in sig.functions:
                argsorts, valsort = sig.functions[n]
                values = _extent(i.universe, valsort)
                if not values:
                    raise DomainError(f"empty extent for sort {valsort!r}")
                table = i.funcs.get(n, {})
                for args in itertools.product(
                        *[_extent(i.universe, s) for s in argsorts]):
                    self.base[n, args] = table.get(args, _ABSENT)
                    self.values[n, args] = values
            elif n in sig.predicates:
                for args in i.preds.get(n, ()):
                    self.base[n, args] = True
                    self.values[n, args] = (True, False)
            else:
                raise FsmError(f"unknown symbol {n!r}")
        self.funcs_in_c = set(c.func_part(sig))
        self.preds_in_c = set(c.pred_part(sig))
        self.assigned = {}
        self.branch = None      # first unassigned location read, if any
        # assigned locations that differ from I (a predicate in c that I
        # leaves out differs from the empty extent J gives it), and
        # unassigned ones that could
        self.differing = sum(p not in i.preds for p in self.preds_in_c)
        self.free = sum(map(self._can_differ, self.base))

    def _differs(self, loc, v) -> bool:
        base = self.base[loc]
        return base is _ABSENT or v != base

    def _can_differ(self, loc) -> bool:
        base = self.base[loc]
        return base is _ABSENT or any(v != base for v in self.values[loc])

    def _options(self, loc):
        """The values of loc, I's first, and of the rest one per elem_key
        (gsat cannot tell apart values that share one)."""
        base = self.base[loc]
        if base is _ABSENT:
            return iter(self.values[loc])
        key = elem_key(base)
        return itertools.chain((base,), (v for v in self.values[loc]
                                         if elem_key(v) != key))

    def _assign(self, loc, v):
        self.assigned[loc] = v
        self.differing += self._differs(loc, v)

    def _unassign(self, loc):
        self.differing -= self._differs(loc, self.assigned.pop(loc))

    def search(self, red):
        trail = []      # (location, iterator over its remaining values)
        while True:
            v = self.evaluate(red)
            if v and (self.differing or self.free):
                return self.completion()
            if v is None:
                loc = self.branch
                values = self._options(loc)
                trail.append((loc, values))
                self.free -= self._can_differ(loc)
                self._assign(loc, next(values))
                continue
            while trail:
                loc, values = trail[-1]
                self._unassign(loc)
                v = next(values, _ABSENT)
                if v is not _ABSENT:
                    self._assign(loc, v)
                    break
                trail.pop()
                self.free += self._can_differ(loc)
            else:
                return None

    def evaluate(self, red):
        """red under the partial J: True, False, or None (unknown)."""
        self.branch = None
        return self.holds(red)

    def completion(self) -> FiniteInterpretation:
        """A total J extending the partial one that differs from I on c:
        I's values where unassigned, but one free location differs when
        no assigned one does."""
        values = dict(self.assigned)
        for loc, base in self.base.items():
            if loc not in values:
                values[loc] = self.values[loc][0] if base is _ABSENT else base
        if not self.differing:
            loc = next(loc for loc in self.base
                       if loc not in self.assigned and self._can_differ(loc))
            values[loc] = next(v for v in self.values[loc]
                               if self._differs(loc, v))
        funcs = dict(self.i.funcs)
        preds = dict(self.i.preds)
        for n in self.funcs_in_c:
            funcs[n] = {}
        for n in self.preds_in_c:
            preds[n] = set()
        for (n, args), v in values.items():
            if n in self.funcs_in_c:
                funcs[n][args] = v
            elif v:
                preds[n].add(args)
        return FiniteInterpretation(self.i.signature, self.i.universe,
                                    funcs, preds)

    def lookup(self, loc):
        """The value of a location, or _UNKNOWN; records the first
        unassigned location read."""
        v = self.assigned.get(loc, _UNKNOWN)
        if v is _UNKNOWN and self.branch is None:
            self.branch = loc
        return v

    def term(self, t):
        if isinstance(t, Obj):
            return t.elem
        if isinstance(t, Lit):
            return t.value
        if not isinstance(t, App):
            raise TypeError(f"not a ground term: {t!r}")
        vals = tuple(self.term(a) for a in t.args)
        if any(v is UNDEF for v in vals):
            return UNDEF
        if any(v is _UNKNOWN for v in vals):
            return _UNKNOWN
        if t.fn in ARITH_FUNCS:
            return _arith(t.fn, vals)
        if t.fn in self.funcs_in_c:
            loc = (t.fn, vals)
            return self.lookup(loc) if loc in self.base else UNDEF
        table = self.i.funcs.get(t.fn)
        if table is None:
            raise FsmError(f"uninterpreted function {t.fn!r}")
        return table.get(vals, UNDEF)

    def holds(self, g):
        """Kleene value of a ground formula: True, False or None."""
        if isinstance(g, (GAtom, GEqual)):
            if isinstance(g, GAtom):
                vals = tuple(self.term(a) for a in g.args)
            else:
                vals = (self.term(g.left), self.term(g.right))
            if any(v is UNDEF for v in vals):
                return False
            if any(v is _UNKNOWN for v in vals):
                return None
            if isinstance(g, GEqual):
                lv, rv = vals
                return isinstance(lv, bool) == isinstance(rv, bool) and lv == rv
            if g.pred in COMPARE_PREDS:
                return _compare(g.pred, *vals)
            if g.pred in self.preds_in_c:
                loc = (g.pred, vals)
                if loc not in self.base:
                    return False
                v = self.lookup(loc)
                return None if v is _UNKNOWN else v
            ext = self.i.preds.get(g.pred)
            if ext is None:
                raise FsmError(f"uninterpreted predicate {g.pred!r}")
            return vals in ext
        if isinstance(g, GImp):
            left = self.holds(g.left)
            if left is False:
                return True
            right = self.holds(g.right)
            return right if right is True or left is True else None
        if isinstance(g, (GAnd, GOr)):
            # the member that decides an And is false, an Or's is true
            decides = isinstance(g, GOr)
            value = not decides
            for m in g.members:
                v = self.holds(m)
                if v is decides:
                    return v
                if v is None:
                    value = None
            return value
        if isinstance(g, GBot):
            return False
        raise TypeError(f"not a reduct: {g!r}")


# ---------------------------------------------------------------------------
# stable-model checking

METHOD_REDUCT = "reduct"
METHOD_SECOND_ORDER = "second-order"
METHOD_BOTH = "both"


def witnesses(i: FiniteInterpretation, c, ordered: bool = True):
    """Candidate witnesses J: interpretations that agree with I off c and
    differ from it on c.  With ordered, only those with J <^c I, where each
    predicate in c is a subset of its extent in I."""
    c = as_clist(c)
    for j in vary_on(i, list(c.names)):
        if less_on_c(j, i, c) if ordered else not j.agrees_on(i, c.names):
            yield j


def check_stable(f: Formula, c, i: FiniteInterpretation,
                 method: str = METHOD_REDUCT, *, grounding=None,
                 starred=None) -> bool:
    """Whether I is a stable model of F relative to c.

    Callers that check many candidates over one universe build what the
    route needs once and pass it in (see prepare); what is None is built
    here.  The reduct route takes grounding, ground(f, ...) over I's
    universe (indexed or not), and uses it for the classical test too.
    The second-order route takes starred, the pair (Mirrors(c, sig),
    ground F*) of star_of; without it, the pair is built only once I has
    passed the classical test, which stays satisfies(i, f).
    """
    c = as_clist(c)
    if method == METHOD_REDUCT:
        if grounding is None:
            grounding = ground(f, i, index=True)
        if not gsat(i, grounding):
            return False
        return smaller_witness(reduct(grounding, i), i, c) is None
    if method == METHOD_SECOND_ORDER:
        if not satisfies(i, f):
            return False
        mirrors, gstar = starred or star_of(f, c, i.signature, i.universe)
        return not any(gsat(ext, gstar) for _, ext in mirrors.witnesses(i))
    raise FsmError(f"unknown method {method!r}")


def check_stable_both(f: Formula, c, i: FiniteInterpretation, *,
                      grounding=None, starred=None) -> bool:
    """Run both checkers, the witness search on the reduct and the
    enumeration of witnesses for F*, and fail loudly if they disagree."""
    a = check_stable(f, c, i, METHOD_REDUCT, grounding=grounding)
    b = check_stable(f, c, i, METHOD_SECOND_ORDER, starred=starred)
    if a != b:
        raise FsmError(f"stable checker divergence on {f!r}: reduct={a} second-order={b}")
    return a


def checker(method: str):
    """The check for method, called as fn(f, c, i, **prepare(...));
    METHOD_BOTH runs both checkers and compares them."""
    if method == METHOD_BOTH:
        return check_stable_both
    return functools.partial(check_stable, method=method)


def star_of(f: Formula, c, sig: Signature, universe: dict):
    """(Mirrors(c, sig), F*(d) grounded with the guard index over the
    universe) for the second-order route: gsat of the grounding under each
    mirror extension replaces satisfies of F*, and visits the guarded
    instances only."""
    mirrors = Mirrors(c, sig)
    base = FiniteInterpretation(mirrors.signature, universe)
    return mirrors, ground(star(f, c, mirrors.names), base, index=True)


def prepare(f: Formula, c, sig: Signature, universe: dict,
            method: str = METHOD_REDUCT) -> dict:
    """What every check of F over the universe shares, built once, as the
    keyword arguments of checker(method): the indexed grounding of F for
    the reduct route, and star_of (the mirrors and the indexed grounding
    of F*) for the second-order route."""
    shared = {}
    if method != METHOD_SECOND_ORDER:
        shared["grounding"] = ground(f, FiniteInterpretation(sig, universe),
                                     index=True)
    if method != METHOD_REDUCT:
        shared["starred"] = star_of(f, c, sig, universe)
    return shared


def stable_models(f: Formula, c, sig: Signature, universe: dict,
                  fixed_funcs=None, method: str = METHOD_REDUCT):
    """All stable models of F relative to c over the given finite universe.

    The functions in fixed_funcs keep the given tables; every other user
    symbol ranges over all its assignments.  What the checks share (see
    prepare) is built once, and every candidate is checked against it.
    method may also be METHOD_BOTH.
    """
    c = as_clist(c)
    check = checker(method)
    shared = prepare(f, c, sig, universe, method)
    return [i for i in enumerate_interpretations(sig, universe, fixed_funcs)
            if check(f, c, i, **shared)]


# ---------------------------------------------------------------------------
# multi-valued propositional stable models

class MvpError(FsmError):
    pass


def mvp_sat(assign: dict, f: Formula) -> bool:
    """Satisfaction of an mvp-formula under an assignment constant -> value.

    Mvp-atoms are written Equal(App(c), Lit(v)) (or Obj/plain value)."""
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Equal):
        c, v = _mvp_atom(f)
        return assign[c] == v
    if isinstance(f, And):
        return mvp_sat(assign, f.left) and mvp_sat(assign, f.right)
    if isinstance(f, Or):
        return mvp_sat(assign, f.left) or mvp_sat(assign, f.right)
    if isinstance(f, Implies):
        return (not mvp_sat(assign, f.left)) or mvp_sat(assign, f.right)
    raise MvpError(f"not an mvp-formula: {f!r}")


def _mvp_atom(f: Equal):
    if isinstance(f.left, App) and not f.left.args:
        c = f.left.fn
    else:
        raise MvpError(f"not an mvp-atom: {f!r}")
    if isinstance(f.right, Lit):
        return c, f.right.value
    if isinstance(f.right, Obj):
        return c, f.right.elem
    raise MvpError(f"not an mvp-atom: {f!r}")


def mvp_reduct(f: Formula, assign: dict) -> Formula:
    """Replace each maximal subformula not satisfied by the assignment with
    bottom."""
    if not mvp_sat(assign, f):
        return BOT
    if isinstance(f, (And, Or, Implies)):
        return type(f)(mvp_reduct(f.left, assign), mvp_reduct(f.right, assign))
    return f


def mvp_stable_check(f: Formula, assign: dict, domains: dict) -> bool:
    """Whether the assignment is the unique mvp-interpretation satisfying
    the reduct of F relative to it."""
    for c, v in assign.items():
        if c not in domains or v not in domains[c]:
            raise MvpError(f"value {v!r} not in the domain of {c!r}")
    red = mvp_reduct(f, assign)
    names = sorted(domains)
    sats = []
    for combo in itertools.product(*[domains[n] for n in names]):
        other = dict(zip(names, combo))
        if mvp_sat(other, red):
            sats.append(other)
            if len(sats) > 1:
                return False
    return sats == [assign]
