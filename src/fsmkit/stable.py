"""Grounding, reduct, the star construction, and two stable-model checkers.

The two checkers realize the same semantics by different routes:

* ``method="reduct"``: ground the sentence over the interpretation's finite
  universe, take the reduct relative to I, and search for a smaller witness J.
  stable_models finds its candidates I with the same search (_Search), run
  on the grounding and the support of its completion instead of the
  reduct, one ground component at a time.
* ``method="second-order"``: build the star transform F*(d) over mirror
  constants d and test the defining second-order condition directly by
  enumerating candidate witness assignments for d, evaluating the indexed
  grounding of F* under each.

Their agreement is a continuously-audited invariant.  A Problem holds
what every check and search of F over one universe shares.
"""

from __future__ import annotations

import functools
import itertools

from .syntax import (
    ARITH_FUNCS, And, App, Atom, BOT, Bottom, Equal, Exists, Forall, Formula,
    FragmentError, FrozenRecord, FsmError, Implies, Lit, Not, Obj, Or,
    Signature, TOP, Var, _set, as_clist, choice_of, close_existentially, conj,
    conjuncts, disjuncts, free_vars, guard_term, nodes, rename_symbols, subst,
    transform,
)
from .interp import (
    COMPARE_PREDS, UNDEF, FiniteInterpretation, Locations, _arith,
    _check_extents, _compare, elem_key, enumerate_interpretations,
    less_on_c, satisfies, vary_on,
)


# ---------------------------------------------------------------------------
# ground formulas (finite specialization of infinitary ground formulas)

class _GSet(FrozenRecord):
    """The members of a set-connective.  order holds them in the order they
    were built, without repeats; the evaluator, the reduct and the repr
    iterate it, so their work and output do not depend on the hash seed.
    It is not part of equality or the hash."""
    __slots__ = ("members", "order")
    _uncompared = ("order",)

    def __init__(self, members: frozenset, order: tuple):
        _set(self, "members", members)
        _set(self, "order", order)


class GAnd(_GSet):
    __slots__ = ()

    def __repr__(self):
        return "{" + ", ".join(map(repr, self.order)) + "}&"


class GOr(_GSet):
    __slots__ = ("choice",)
    _uncompared = ("order", "choice")

    def __init__(self, members: frozenset, order: tuple, choice: bool = False):
        _set(self, "members", members)
        _set(self, "order", order)
        #: a ground choice G | not G, which holds whatever G is
        _set(self, "choice", choice)

    def __repr__(self):
        return "{" + ", ".join(map(repr, self.order)) + "}|"


class GIndex:
    """The instances of one quantified guarded body (see _guard), keyed by
    the element their guard t = X binds X to, and grounded the first time
    their key is looked up.

    Under an interpretation only the instances keyed by the value of t can
    differ from the rest.  Under a universal quantifier every other
    instance has implications with a false antecedent only, so it holds,
    and so does its reduct under every J; under an existential one every
    other instance is a conjunction with the false conjunct t = X, so it
    fails, and its reduct is false under every J.  So the node is the
    conjunction (exists false) or the disjunction (exists true) of the
    instances its guard selects.  The same holds for F* under a mirror
    extension of I, where t is evaluated as in I.  So the node keeps a
    template, not the instances: the ground term t, the variable X and the
    body, the bindings env in force and X's extent over interp's universe.
    instances(v) grounds the instances keyed by v once and keeps them, so
    a key that many checks look up is grounded once.  A GIndex inside an
    instance of another (outer) keeps the instances of its last key only:
    each of its keys comes with one key of the outer node, and keeping
    every pair would grow as the product of their sorts.  Equality, the
    hash and the repr read the template and build nothing.
    """
    __slots__ = ("term", "var", "body", "exists", "env", "extent", "interp",
                 "outer", "_hash", "_elements", "_instances")

    def __init__(self, term, var, body, exists, env, extent, interp, outer):
        self.term, self.var, self.body, self.env = term, var, body, env
        self.exists = exists
        self.extent, self.interp = extent, interp
        self.outer = outer
        self._hash = None
        self._elements = None   # elem_key -> the elements of the extent
        self._instances = {}    # elem_key -> the instances grounded

    def instances(self, v) -> tuple:
        """The instances whose guard holds when t has the value v."""
        key = elem_key(v)
        got = self._instances.get(key)
        if got is None:
            if self.outer is not None:
                self._instances.clear()
            got = self._instances[key] = tuple(
                _ground(self.body, self.interp, {**self.env, self.var: e},
                        self)
                for e in self.elements().get(key, ()))
        return got

    def elements(self) -> dict:
        """elem_key -> the elements of the extent with that key; shared
        with the outer node over the same extent."""
        if self._elements is None:
            outer = self.outer
            if outer is not None and outer.extent is self.extent:
                self._elements = outer.elements()
            else:
                self._elements = {}
                for e in self.extent:
                    self._elements.setdefault(elem_key(e), []).append(e)
        return self._elements

    def _template(self):
        return (self.term, self.var, self.body, self.exists,
                tuple((x, Obj(e)) for x, e in self.env.items()))

    def __eq__(self, other):
        if not isinstance(other, GIndex):
            return NotImplemented
        return self._template() == other._template() and (
            self.extent is other.extent
            or list(map(Obj, self.extent)) == list(map(Obj, other.extent)))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._template())
        return self._hash

    def __repr__(self):
        quantifier = Exists if self.exists else Forall
        return f"GIndex({self.term!r}, {quantifier(self.var, self.body)!r})"


def gand(members) -> GAnd:
    # a set built from a dict reuses the dict's hashes
    unique = dict.fromkeys(members)
    return GAnd(frozenset(unique), tuple(unique))


def gor(members, choice=False) -> GOr:
    unique = dict.fromkeys(members)
    return GOr(frozenset(unique), tuple(unique), choice)


def ground(f: Formula, interp: FiniteInterpretation, *, index=False):
    """Structure-preserving grounding of a sentence relative to interp.

    Quantifiers become finite set-conjunctions/disjunctions over the
    variable's sort extent, with object names substituted for the variable.
    Ground terms are kept intact (only variables are replaced).  The rest
    stays in the formula AST: the leaves are BOT, Atom and Equal over
    ground terms (Obj, Lit, App), implications stay Implies, and GAnd, GOr
    and GIndex are the only nodes of ground formulas alone.  Only the
    universe of interp is read, so one grounding serves every candidate
    over that universe.  A formula with free variables is rejected.

    With index, a guarded quantifier (see _guard) becomes a GIndex on the
    ground guard term instead of a GAnd or a GOr.  It grounds an instance
    only when an evaluation looks up its key, so gsat and the reduct build
    and visit the guarded instances, not the extent.  The extent itself is
    read here, so a sort without one fails here as on the plain grounding.
    """
    if free_vars(f):
        raise FsmError(f"ground: free variables in {f!r}")
    return _ground(f, interp, {}, index)


def _ground(f, interp, env, index):
    # index is False, True, or the GIndex whose instance f is part of;
    # the most frequent node types come first
    if isinstance(f, Equal):
        return Equal(_ground_term(f.left, env), _ground_term(f.right, env))
    if isinstance(f, Implies):
        return Implies(_ground(f.left, interp, env, index),
                       _ground(f.right, interp, env, index))
    if isinstance(f, And):
        return gand([_ground(f.left, interp, env, index),
                     _ground(f.right, interp, env, index)])
    if isinstance(f, Atom):
        return Atom(f.pred, tuple([_ground_term(a, env) for a in f.args]))
    if isinstance(f, Bottom):
        return BOT
    if isinstance(f, Or):
        return gor([_ground(f.left, interp, env, index),
                    _ground(f.right, interp, env, index)],
                   choice_of(f) is not None)
    if isinstance(f, (Forall, Exists)):
        extent = interp.extent(f.var.sort)
        guard = _guard(f) if index else None
        exists = isinstance(f, Exists)
        if guard is not None:
            return GIndex(_ground_term(guard, env), f.var, f.body, exists,
                          env, extent, interp,
                          index if isinstance(index, GIndex) else None)
        instances = [_ground(f.body, interp, {**env, f.var: e}, index)
                     for e in extent]
        return gor(instances) if exists else gand(instances)
    raise TypeError(f"not a formula: {f!r}")


def _ground_term(t, env):
    if isinstance(t, Var):
        return Obj(env[t])
    if isinstance(t, App) and t.args:
        return App(t.fn, tuple([_ground_term(a, env) for a in t.args]))
    return t


def _guard(f):
    """The guard term t of a quantified formula f, or None.

    For forall X ((... & t = X & ...) -> H), t, with the equation in
    either orientation and X not free in t.  The body may also be a
    conjunction of such implications, as star makes of one:
    (A* -> H*) & (A -> H).  Then t is the first guard of the first
    conjunct that every other conjunct's antecedent also holds.  When t
    mentions a symbol in c, A* holds both t^ = X and t = X, and only t is
    shared.

    For exists X (... & t = X & ...), or a block exists X exists Y ... M
    whose matrix M is such a conjunction, the first such t in M in which
    neither X nor a variable the block binds is free.  Each inner
    quantifier of the block is then indexed on its own when an instance
    is grounded."""
    if isinstance(f, Exists):
        inner, matrix = {f.var}, f.body
        while isinstance(matrix, Exists):
            inner.add(matrix.var)
            matrix = matrix.body
        return next((t for a in conjuncts(matrix)
                     if (t := guard_term(a, f.var)) is not None
                     and not free_vars(t) & inner), None)
    guards = [[t for a in conjuncts(g.left)
               if (t := guard_term(a, f.var)) is not None]
              if isinstance(g, Implies) else []
              for g in conjuncts(f.body)]
    first, *rest = guards
    return next((t for t in first if all(t in ts for ts in rest)), None)


_UNKNOWN = object()     # a term whose value depends on an unassigned location


class _Kleene:
    """The three-valued (Kleene) value of ground formulas: True, False, or
    None (unknown).

    The symbols in searched are read from a partial assignment: index maps
    each of their locations to a position p, and value[p] is its value, or
    _UNKNOWN while p is unassigned; read is then the first unassigned
    position an evaluation read.  Every other symbol is read from the
    interpretation outside.  With nothing searched no value is unknown, and
    holds is classical satisfaction (gsat)."""

    def __init__(self, outside, searched=frozenset(), index=None,
                 value=None):
        self.outside = outside
        self.searched = searched
        self.index = index
        self.value = value
        self.read = None

    def term(self, t):
        if isinstance(t, Obj):
            return t.elem
        if isinstance(t, Lit):
            return t.value
        if not isinstance(t, App):
            raise TypeError(f"not a ground term: {t!r}")
        table = None
        if t.fn not in ARITH_FUNCS and t.fn not in self.searched:
            # before the arguments, so that an undefined one cannot hide it
            table = self.outside.funcs.get(t.fn)
            if table is None:
                raise FsmError(f"uninterpreted function {t.fn!r}")
        # the markers equal nothing but themselves, so `in` tests identity
        vals = tuple([self.term(a) for a in t.args])
        if UNDEF in vals:
            return UNDEF
        if _UNKNOWN in vals:
            return _UNKNOWN
        if table is not None:
            return table.get(vals, UNDEF)
        if t.fn in ARITH_FUNCS:
            return _arith(t.fn, vals)
        return self.lookup((t.fn, vals), UNDEF)

    def lookup(self, loc, missing):
        """The value of a location, missing if it has no position, or
        _UNKNOWN; records the first unassigned position read."""
        p = self.index.get(loc)
        if p is None:
            return missing
        v = self.value[p]
        if v is _UNKNOWN and self.read is None:
            self.read = p
        return v

    def guarded(self, g: GIndex):
        """The instances of g whose guard holds, or None while its term is
        unknown.  An undefined term guards none, so g is true if it is
        universal and false if it is existential."""
        v = self.term(g.term)
        if v is _UNKNOWN:
            return None
        return () if v is UNDEF else g.instances(v)

    def holds(self, g):
        """Kleene value of a ground formula: True, False or None."""
        if isinstance(g, Implies):
            left = self.holds(g.left)
            if left is False:
                return True
            right = self.holds(g.right)
            return right if right is True or left is True else None
        if isinstance(g, (Atom, Equal)):
            if isinstance(g, Atom):
                vals = tuple([self.term(a) for a in g.args])
            else:
                vals = (self.term(g.left), self.term(g.right))
            if UNDEF in vals:
                return False
            if _UNKNOWN in vals:
                return None
            if isinstance(g, Equal):
                lv, rv = vals
                return isinstance(lv, bool) == isinstance(rv, bool) and lv == rv
            if g.pred in COMPARE_PREDS:
                return _compare(g.pred, *vals)
            if g.pred in self.searched:
                v = self.lookup((g.pred, vals), False)
                return None if v is _UNKNOWN else v
            ext = self.outside.preds.get(g.pred)
            if ext is None:
                raise FsmError(f"uninterpreted predicate {g.pred!r}")
            return vals in ext
        if isinstance(g, GAnd):
            return self.all(g.order)
        if isinstance(g, GOr):
            value = self.any(g.order)
            # a choice G | not G is true while G is unknown (excluded middle)
            return g.choice or value
        if isinstance(g, GIndex):
            members = self.guarded(g)
            if members is None:
                return None
            return self.any(members) if g.exists else self.all(members)
        if isinstance(g, Bottom):
            return False
        raise TypeError(f"not a ground formula: {g!r}")

    def all(self, members):
        value = True
        for m in members:
            v = self.holds(m)
            if v is False:
                return False
            if v is None:
                value = None
        return value

    def any(self, members):
        value = False
        for m in members:
            v = self.holds(m)
            if v is True:
                return True
            if v is None:
                value = None
        return value


def gsat(interp: FiniteInterpretation, g) -> bool:
    """Satisfaction of ground formulas."""
    return _Kleene(interp).holds(g)


def reduct(g, interp: FiniteInterpretation):
    """Reduct relative to interp: false atoms and false implications become
    bottom, everything else is reduced recursively.

    One bottom-up pass: each atom is evaluated once, and whether a node
    holds in interp is derived from its members instead of re-evaluated.
    A GIndex reduces to the conjunction (the disjunction, for an
    existential) of the reducts of its guarded instances: every other
    instance has a reduct that every J satisfies (that no J satisfies).
    """
    return _reduct_pass(g, _Kleene(interp))[1]


def _reduct_pass(g, kleene):
    """(interp satisfies g, reduct of g relative to interp), where kleene
    evaluates under interp."""
    if isinstance(g, (Atom, Equal)):
        if kleene.holds(g):
            return True, g
        return False, BOT
    if isinstance(g, Implies):
        left_sat, left = _reduct_pass(g.left, kleene)
        right_sat, right = _reduct_pass(g.right, kleene)
        if left_sat and not right_sat:
            return False, BOT
        return True, Implies(left, right)
    if isinstance(g, (GAnd, GOr)):
        pairs = [_reduct_pass(m, kleene) for m in g.order]
        if isinstance(g, GAnd):
            return all(s for s, _ in pairs), gand(r for _, r in pairs)
        return any(s for s, _ in pairs), gor(r for _, r in pairs)
    if isinstance(g, GIndex):
        pairs = [_reduct_pass(m, kleene) for m in kleene.guarded(g)]
        if g.exists:
            return any(s for s, _ in pairs), gor(r for _, r in pairs)
        return all(s for s, _ in pairs), gand(r for _, r in pairs)
    if isinstance(g, Bottom):
        return False, BOT
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
# one search over ground locations (interp.Locations) for I and for J

_ABSENT = object()      # no entry in I's table
_DONE = object()


def _conjuncts(g) -> list:
    """The members of g's nested GAnds, in order; g itself if it is none."""
    out, stack = [], [g]
    while stack:
        h = stack.pop()
        if isinstance(h, GAnd):
            stack.extend(reversed(h.order))
        else:
            out.append(h)
    return out


class _Search(_Kleene):
    """Backtracking over the locations of some symbols, pruned by the Kleene
    value (see _Kleene) of a list of ground conjuncts.

    value[p] is the value of position p, or _UNKNOWN while p is unassigned.
    A conjunct not yet decided watches one unassigned position it reads,
    and is evaluated again only when that position is assigned: then it is
    true, or it is false and the branch is pruned, or it watches another
    unassigned position it reads.  So every undecided conjunct watches an
    unassigned position, and the watchers of an unassigned position are all
    undecided; backtracking restores this without moving a watch back."""

    def __init__(self, table: Locations, conjuncts, outside, searched):
        for n in searched:
            table.span(n)
        super().__init__(outside, frozenset(searched), table.index,
                         [_UNKNOWN] * len(table.keys))
        self.conjuncts = conjuncts
        self.watch = {}         # position -> the conjuncts that watch it
        self.undecided = 0
        self.recent = None      # the position a conjunct moved to last
        #: per assigned position, oldest first: [position, its remaining
        #: (index, value) options, conjuncts it decided, index of its value]
        self.trail = []

    def nodes(self, options):
        """Yield at each node where no conjunct is undecided.  Then every
        conjunct is Kleene-true, so it holds under every completion of the
        partial assignment (monotonicity).  options(p) lists the values
        position p is tried with, in order; the search branches on the
        position the most recently moved watch reads."""
        for k in range(len(self.conjuncts)):
            v = self.evaluate(k)
            if v is False:
                return
            if v is None:
                self._watch(k)
                self.undecided += 1
        trail = self.trail
        while True:
            if self.undecided:
                p = self._branch()
                trail.append([p, enumerate(options(p)), 0, None])
            else:
                yield
            while trail:
                top = trail[-1]
                p = top[0]
                if self.value[p] is not _UNKNOWN:
                    self.value[p] = _UNKNOWN
                    self.undecided += top[2]
                top[3], v = next(top[1], (None, _DONE))
                if v is _DONE:
                    trail.pop()
                    continue
                decided = self._assign(p, v)
                if decided is not None:
                    top[2] = decided
                    break
            else:
                return

    def _watch(self, k):
        self.watch.setdefault(self.read, []).append(k)
        self.recent = self.read

    def _branch(self):
        p = self.recent
        if self.value[p] is not _UNKNOWN or not self.watch[p]:
            p = next(q for q, ks in self.watch.items()
                     if ks and self.value[q] is _UNKNOWN)
        return p

    def _assign(self, p, v):
        """Give p the value v and evaluate the conjuncts that watch it: the
        number decided true, or None on a conflict, with p unassigned."""
        self.value[p] = v
        watchers = self.watch.get(p, ())
        stay, decided = [], 0
        for n, k in enumerate(watchers):
            r = self.evaluate(k)
            if r is None:
                self._watch(k)
                continue
            stay.append(k)
            if r is False:
                self.watch[p] = stay + watchers[n + 1:]
                self.value[p] = _UNKNOWN
                self.undecided += decided
                return None
            decided += 1
            self.undecided -= 1
        self.watch[p] = stay
        return decided

    def evaluate(self, k):
        """The Kleene value of conjunct k: True, False, or None (unknown),
        and then self.read is an unassigned position it reads."""
        self.read = None
        return self.holds(self.conjuncts[k])


def classical_models(g, sig: Signature, universe: dict, locations=None,
                     positions=None):
    """The interpretations over universe that satisfy g, a grounding of a
    sentence over universe, as pairs (key, I); sorted by key they come in
    enumerate_interpretations order.

    Backtracking search over the locations of every user symbol, each tried
    with every value in extent order, pruned by the Kleene value of g's
    conjuncts (see _Search).  Once no conjunct is undecided, every
    completion of the unassigned locations is a model (Kleene
    monotonicity), and Locations.completions yields all of them without
    evaluating g again.
    The conjuncts are evaluated as gsat evaluates them (see _Kleene): a
    choice G | not G evaluates G and is true when G is unknown (excluded
    middle), and a GIndex whose guard is unknown is unknown.

    The search evaluates a conjunct under a partial assignment that gsat
    would not have reached, so it can raise EvaluationError where
    filtering enumerate_interpretations with gsat does not, and the other
    way round (see tests/test_search.py).

    With positions, which must hold every location that g reads (one
    ground component, see _components), key holds the value indices of
    those positions alone, in their order, and I leaves every other
    location undefined or false.  Problem.models passes the component's
    conjuncts of F together with the support instances of its c-locations
    (see support), so the pairs are then the supported models of the
    component: every stable model is among them, tight or not, and when
    the Clark normal form is tight they are exactly the stable models.
    Each instance reads only its own component; one that read another
    would make the search branch outside positions, which raises FsmError
    rather than give a wrong answer.
    """
    _check_extents(universe)
    table = locations or Locations(sig, universe)
    outside, symbols = _outside(sig, universe)
    if positions is None:
        positions = table.positions(symbols)
    allowed = set(positions)

    def options(p):
        if p not in allowed:
            raise FsmError(f"ground component reads {table.keys[p]!r}, "
                           "outside its locations")
        return table.values[p]

    search = _Search(table, _conjuncts(g), outside, symbols)
    for _ in search.nodes(options):
        yield from table.completions(
            outside, positions, {top[0]: top[3] for top in search.trail})


def _outside(sig: Signature, universe: dict):
    """(the interpretation with an empty table for every user symbol, the
    user symbols): what a search of every user symbol starts from."""
    symbols = sig.user_symbols()
    funcs = {n: {} for n in symbols if n in sig.functions}
    preds = {n: () for n in symbols if n in sig.predicates}
    return FiniteInterpretation(sig, universe, funcs, preds), symbols


def smaller_witness(red, i: FiniteInterpretation, c, locations=None,
                    positions=None):
    """A J with J <^c I that satisfies the ground reduct red = F^I, or None.

    The search of _Search over the c-locations, on the conjuncts of red:
    each argument tuple of a function in c, over the universe, takes a
    value of its value sort (I's value first, then one value per other
    elem_key, since gsat cannot tell apart values that share one), and
    each tuple in I(p) of a predicate p in c is in or out (in first).
    Tuples outside I(p) stay false, which is the subset rule of <^c; off c,
    J is I.

    Lemmas: a Kleene "true" holds under every completion of the partial J
    (monotonicity).  So the search succeeds as soon as no conjunct of red
    is undecided and either J already differs from I on c, or some
    unassigned location has a value other than I's: give it that value and
    I's values everywhere else (the <^c success rule).  This is also the
    relevance cut: I |= F implies I |= F^I, so the branch that gives every
    location red reads I's value ends true, and a location red never reads
    refutes stability at once.  A location where I's table has no entry
    differs from I under every value.

    With positions, J differs from I only on the c-locations among those
    positions (one ground component, see _components), and red must read
    no other c-location.
    """
    c = as_clist(c)
    sig = i.signature
    table = locations or Locations(sig, i.universe)
    search = _Search(table, _conjuncts(red), i, c.names)
    value = search.value
    if positions is None:
        positions = table.positions(c.names)
    else:
        positions = [p for p in positions if table.keys[p][0] in c.names]
    base = {}       # location position -> I's value, or _ABSENT
    for p in positions:
        n, args = table.keys[p]
        if n in sig.functions:
            base[p] = i.funcs.get(n, {}).get(args, _ABSENT)
        elif args in i.preds.get(n, ()):
            base[p] = True
        else:
            value[p] = False
    # a predicate in c that I leaves out differs from the empty extent of J
    left_out = any(p not in i.preds for p in c.pred_part(sig))

    def differs(p, v):
        return base[p] is _ABSENT or v != base[p]

    def options(p):
        b = base[p]
        if b is _ABSENT:
            return table.values[p]
        key = elem_key(b)
        return (b, *(v for v in table.values[p] if elem_key(v) != key))

    def completed(p):
        """p's value in the J found: the assigned one, else I's value (or
        the first of its sort)."""
        v = value[p]
        if v is _UNKNOWN:
            v = table.values[p][0] if base[p] is _ABSENT else base[p]
        return v

    for _ in search.nodes(options):
        if not left_out and not any(value[p] is not _UNKNOWN
                                    and differs(p, value[p]) for p in base):
            free = next((p for p in base if value[p] is _UNKNOWN and any(
                differs(p, v) for v in table.values[p])), None)
            if free is None:
                continue
            value[free] = next(v for v in table.values[free]
                               if differs(free, v))
        return table.interpretation(i, positions, completed)
    return None


# ---------------------------------------------------------------------------
# independent ground components (the ground case of splitting)

def _element(t, env):
    """The element t names: an Obj or a Lit, or a variable env binds; else
    _UNKNOWN."""
    if isinstance(t, Obj):
        return t.elem
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, Var):
        return env.get(t, _UNKNOWN)
    return _UNKNOWN


def _reads(g, table: Locations, symbols) -> set:
    """The positions of the locations of symbols that evaluating the ground
    formula g, or its reduct, may read.  A term or an atom n(args) reads
    one location when every argument is an element, or a variable bound
    in a GIndex's env, and every location of n otherwise.  A leaf of g is
    a formula node, and nodes walks it as it is; a GIndex, universal or
    existential, reads its guard term and the terms of its body, whatever
    element the guard binds."""
    out = set()

    def walk(x, env):
        for h in nodes(x):
            if isinstance(h, App):
                n = h.fn
            elif isinstance(h, Atom):
                n = h.pred
            else:
                continue
            if n not in symbols:
                continue
            args = tuple([_element(a, env) for a in h.args])
            if _UNKNOWN in args:
                out.update(table.span(n))
            elif (n, args) in table.index:
                out.add(table.index[n, args])

    stack = [g]
    while stack:
        h = stack.pop()
        if isinstance(h, (GAnd, GOr)):
            stack.extend(h.order)
        elif isinstance(h, Implies):
            stack += (h.left, h.right)
        elif isinstance(h, GIndex):
            walk(h.term, {})
            walk(h.body, h.env)
        else:
            walk(h, {})
    return out


def _components(g, table: Locations, symbols) -> list:
    """The ground components of g over the locations of symbols, as pairs
    (the GAnd of their conjuncts, their positions).

    Union-find over the locations each top-level conjunct of g may read
    (_reads) joins two conjuncts when they share one.  The conjuncts that
    read none form one component without positions, and a location that
    no conjunct reads forms one without conjuncts.  Components come in the
    order of their first conjunct, then the unread locations; positions
    keep the order of table.positions(symbols)."""
    positions = table.positions(symbols)
    parent = {p: p for p in positions}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    conjuncts = _conjuncts(g)
    symbols = set(symbols)
    reads = [_reads(h, table, symbols) for h in conjuncts]
    for r in reads:
        if r:
            root = find(next(iter(r)))
            for p in r:
                parent[find(p)] = root
    groups = {}     # root (None: no locations) -> (conjuncts, positions)
    for h, r in zip(conjuncts, reads):
        root = find(next(iter(r))) if r else None
        groups.setdefault(root, ([], []))[0].append(h)
    for p in positions:
        groups.setdefault(find(p), ([], []))[1].append(p)
    return [(gand(hs), tuple(ps)) for hs, ps in groups.values()]


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


def star_of(f: Formula, c, sig: Signature, universe: dict):
    """(Mirrors(c, sig), F*(d) grounded with the guard index over the
    universe) for the second-order route: gsat of the grounding under each
    mirror extension replaces satisfies of F*.  A guard term is evaluated
    as in I, so every witness of one I looks up the same instances, and
    only those are ever grounded (see GIndex)."""
    mirrors = Mirrors(c, sig)
    base = FiniteInterpretation(mirrors.signature, universe)
    return mirrors, ground(star(f, c, mirrors.names), base, index=True)


def support(f: Formula, c, sig: Signature, universe: dict):
    """The support half of the completion of F, grounded with the index
    over the universe, one instance per c-location, and whether it decides
    stability alone: the pair (a dict mapping each location (n, args) of a
    member n of c to its instance, whether F's Clark normal form is tight
    on c), or None when the completion is not sound for F.

    Let F' be the Clark normal form of F (to_clark_normal_form), with one
    definition forall x (G -> p(x)) or forall x y (G -> f(x) = y) per
    member of c.  Its support is the conjunction of forall x (p(x) -> G)
    and forall x y (f(x) = y -> G).  F' is equivalent to F, so F and the
    support together are the completion of F'.  When F is c-plain, F and
    F' have the same stable models relative to c (p(a) with a in c is not
    c-plain, and its normal form forall X (X = a -> p(X)) has other stable
    models).

    Soundness needs no tightness: every stable model I of F' satisfies the
    support (Fages; Erdem and Lifschitz; the completion theorem for
    intensional functions).  Suppose I(p)(a) holds and G(a) is false in I,
    and let J be I with p(a) false; or suppose G(a, I(f)(a)) is false in
    I, and let J be I with another value of f(a), which is why every value
    sort of a function in c needs two elements.  Then J <^c I, and J
    satisfies the reduct of F' relative to I: the reduct of a definition
    instance whose body is false in I is true, the head of every other
    instance holds in I at a location J keeps, and the rest of F' is
    negative on c.  So I is not stable.  When F' is also tight on c, the
    converse holds: the models of F that satisfy the support are exactly
    its stable models.

    The instances.  Each is the support of one location: p(a) -> G(a) for
    a predicate, and G(a, f(a)) for a function (the value form).  The
    value form is equivalent to forall y (f(a) = y -> G(a, y)) wherever
    f(a) has a value, and every candidate of stable_models assigns every
    location of its component.  It is indexed better: in the forall y
    form, the index of an existential in G is keyed on f(a) until f(a) is
    assigned, and sits inside an instance of the index on y, so it keeps
    its last key only (see GIndex) and is grounded again for every
    candidate.  In the value form, the watertank's exists X (amt1 = X + 1
    & amt0 = X) is indexed once, at the top of the instance, on amt0.

    An instance reads only its own location's ground component (see
    _components).  G is split into its disjuncts once per member of c (see
    _case), and the instance of a location a keeps only the disjuncts
    whose head-argument equations x = e can hold for a, decided on
    elements.  What a kept disjunct reads, an instance of its rule in the
    grounding of F reads beside a, so both are in one component.  A
    dropped one may not be: the rule up(a1, 1) = X :- up(b1, 1) = Y & X !=
    Y is a disjunct of G for every location of up, and an instance for
    up(a2, 1) that kept it would read up(b1, 1), which another pair's
    component holds.
    """
    # transforms imports this module
    from .transforms import (
        _definitions, is_c_plain, is_tight, to_clark_normal_form,
    )
    c = as_clist(c)
    if not is_c_plain(f, c, sig):
        return None
    base = FiniteInterpretation(sig, universe)
    for n in c.func_part(sig):
        if len({elem_key(e) for e in base.extent(sig.functions[n][1])}) < 2:
            return None
    try:
        cnf = to_clark_normal_form(f, c, sig)
    except FragmentError:
        return None
    defs, _ = _definitions(cnf, c, sig)
    instances = {}
    for n in c:
        _, body, head = defs[n]
        if isinstance(head, Atom):
            xs, argsorts, slots = head.args, sig.predicates[n], {}
        else:
            xs, argsorts = head.left.args, sig.functions[n][0]
            slots = {head.right: head.left}
        slots.update((x, x) for x in xs)
        cases = [_case(d, xs, slots, Not(Not(head))) for d in disjuncts(body)]
        for args in itertools.product(*map(base.extent, argsorts)):
            keys = [elem_key(a) for a in args]
            env = dict(zip(xs, args))
            g = gor([_ground(d, base, env, True) for d, fixed in cases
                     if all(keys[k] == e for k, e in fixed)])
            if isinstance(head, Atom):
                g = Implies(_ground(head, base, env, True), g)
            instances[n, args] = g
    return instances, is_tight(cnf, c)


def _case(d: Formula, xs, slots: dict, fact: Formula):
    """One disjunct d of a definition's body G, prepared once for every
    location of its symbol: the pair (d', fixed).

    xs are the argument variables of the definition's head, and slots maps
    each variable of the head to the term that stands for it in the value
    form: an argument variable to itself, the value variable y of f to
    f(xs).  d' is d with y replaced by f(xs), and, below d's existential
    block, these conjuncts dropped:
    * fact, a choice rule's not not H, true wherever the support reads G;
    * x = e, with x in xs and e an element: d is false wherever x has a
      value with another key, so fixed holds (k, elem_key(e)) for x =
      xs[k], and the location keeps d' only if its arguments match fixed;
    * s = v, with s a variable of the head and v one of the block of the
      same sort: exists v (s = v & M) is M with v replaced by slots[s],
      since s's value is in v's extent (a location's arguments are, and so
      is the value a candidate gives f(xs)), and v leaves the block.
    So the block loses the variables that the head equations bind, and
    its guard index (see _guard) sits at the top of the instance."""
    block = []
    while isinstance(d, Exists):
        block.append(d.var)
        d = d.body
    index = {x: k for k, x in enumerate(xs)}
    mapping = {x: t for x, t in slots.items() if x is not t}
    fixed, rest = [], []
    for a in conjuncts(d):
        if isinstance(a, Implies) and a == fact:
            continue
        if isinstance(a, Equal):
            s, t = a.left, a.right
            if isinstance(t, Var) and t in slots:
                s, t = t, s
            if isinstance(s, Var) and s in slots:
                if (isinstance(t, Var) and t in block and t not in mapping
                        and t.sort == s.sort):
                    mapping[t] = slots[s]
                    continue
                if s in index and (e := _element(t, {})) is not _UNKNOWN:
                    fixed.append((index[s], elem_key(e)))
                    continue
        rest.append(a)
    if not rest:
        return TOP, fixed
    return close_existentially(subst(conj(rest), mapping),
                               [v for v in block if v not in mapping]), fixed


class Problem:
    """SM[F; c] over one finite universe, and what every check and search
    of it shares, each part built on first use and kept: grounding, the
    indexed grounding of F, which keeps the guarded instances it grounds
    (see GIndex); locations, the Locations table; components, the ground
    components of grounding (see _components); supported, support(...)
    (its instances and whether F is tight) or None; and starred, star_of.
    fsmkit check and compare build one problem per run, and stable_models,
    check_stable and check_stable_both one per call."""

    def __init__(self, f: Formula, c, sig: Signature, universe: dict):
        self.f = f
        self.c = as_clist(c)
        self.sig = sig
        self.universe = universe

    @functools.cached_property
    def grounding(self):
        return ground(self.f, FiniteInterpretation(self.sig, self.universe),
                      index=True)

    @functools.cached_property
    def locations(self) -> Locations:
        return Locations(self.sig, self.universe)

    @functools.cached_property
    def components(self) -> list:
        return _components(self.grounding, self.locations,
                           self.sig.user_symbols())

    @functools.cached_property
    def supported(self):
        return support(self.f, self.c, self.sig, self.universe)

    @functools.cached_property
    def starred(self):
        return star_of(self.f, self.c, self.sig, self.universe)

    def check(self, i: FiniteInterpretation,
              method: str = METHOD_REDUCT) -> bool:
        """Whether I, over the problem's universe, is a stable model of F
        relative to c.

        The reduct route tests I with gsat on grounding, then searches the
        reduct for a smaller witness (smaller_witness).  The second-order
        route keeps satisfies(i, f) as its classical test, and reads
        starred only once I has passed it.  METHOD_BOTH runs both and
        raises FsmError if they disagree."""
        if method == METHOD_REDUCT:
            return gsat(i, self.grounding) and smaller_witness(
                reduct(self.grounding, i), i, self.c, self.locations) is None
        if method == METHOD_SECOND_ORDER:
            if not satisfies(i, self.f):
                return False
            mirrors, gstar = self.starred
            return not any(gsat(ext, gstar) for _, ext in mirrors.witnesses(i))
        if method == METHOD_BOTH:
            a, b = (self.check(i, METHOD_REDUCT),
                    self.check(i, METHOD_SECOND_ORDER))
            if a != b:
                raise FsmError(f"stable checker divergence on {self.f!r}: "
                               f"reduct={a} second-order={b}")
            return a
        raise FsmError(f"unknown method {method!r}")

    def models(self, method: str = METHOD_REDUCT) -> list:
        """All stable models of F relative to c over the universe, in
        enumerate_interpretations order.  Every user symbol ranges over all
        its assignments; to fix a symbol outside c, filter the models.
        METHOD_SECOND_ORDER and METHOD_BOTH check every interpretation, as
        the generate-and-test reference.

        The reduct route searches each ground component (see _components)
        on its own, and the stable models are the products of one stable
        assignment per component, sorted into enumeration order.  This is
        exact, the ground case of the splitting theorem: when I |= F, the
        reduct F^I is the conjunction of the components' reducts, and a
        J <^c I that satisfies F^I still does when it takes I's values back
        outside one component where it differs from I.  Within a
        component, classical_models searches its conjuncts of F and, when F
        has a support, the instances of its c-locations, so its candidates
        are the supported models there.  Every stable model is supported,
        tight or not, and an instance reads only its own component.  When
        F's Clark normal form is tight, the candidates are the stable
        models, and none is checked.  Otherwise each gets the reduct and
        the witness search on the component's conjuncts of F, with no gsat:
        every candidate already satisfies them.
        """
        if method != METHOD_REDUCT:
            return [i for i in enumerate_interpretations(self.sig,
                                                         self.universe)
                    if self.check(i, method)]
        table, components = self.locations, self.components
        outside, symbols = _outside(self.sig, self.universe)
        instances, tight = self.supported or ({}, False)
        supports = [[] for _ in components]     # per component: its instances
        home = {p: k for k, (_, positions) in enumerate(components)
                for p in positions}
        for location, g in instances.items():
            supports[home[table.index[location]]].append(g)
        parts = []  # per component: its stable assignments, position -> index
        for (g, positions), more in zip(components, supports):
            candidates = classical_models(gand([g, *more]), self.sig,
                                          self.universe, table, positions)
            stable = [dict(zip(positions, key)) for key, i in candidates
                      if tight or smaller_witness(reduct(g, i), i, self.c,
                                                  table, positions) is None]
            if not stable:
                return []
            parts.append(stable)
        order = table.positions(symbols)
        values = table.values
        found = [{p: k for part in combo for p, k in part.items()}
                 for combo in itertools.product(*parts)]
        found.sort(key=lambda picked: [picked[p] for p in order])
        return [table.interpretation(outside, order,
                                     lambda p: values[p][picked[p]])
                for picked in found]


def check_stable(f: Formula, c, i: FiniteInterpretation,
                 method: str = METHOD_REDUCT) -> bool:
    """Whether I is a stable model of F relative to c (see Problem.check)."""
    return Problem(f, c, i.signature, i.universe).check(i, method)


def check_stable_both(f: Formula, c, i: FiniteInterpretation) -> bool:
    """Run both checkers, the witness search on the reduct and the
    enumeration of witnesses for F*, and fail loudly if they disagree."""
    return Problem(f, c, i.signature, i.universe).check(i, METHOD_BOTH)


def stable_models(f: Formula, c, sig: Signature, universe: dict,
                  method: str = METHOD_REDUCT) -> list:
    """All stable models of F relative to c over the given finite universe,
    in enumerate_interpretations order (see Problem.models)."""
    return Problem(f, c, sig, universe).models(method)


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
