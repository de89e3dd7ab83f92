"""Clark normal form, completion, tightness, unfolding, plainness checks,
and a bounded strong-equivalence checker.
"""

from __future__ import annotations

from .syntax import (
    App, Atom, BOT, ContractViolation, Equal, Exists, Forall, Formula,
    FragmentError, FreshNames, FsmError, Iff, Implies, Not, Record,
    Signature, TOP, Var, as_clist, choice_of, close_existentially,
    close_universally, conj, conjuncts, disj, free_vars, negative_on, nodes,
    strictly_positive, strictly_positive_symbols, subst, symbols, transform,
)
from .interp import FiniteInterpretation, enumerate_interpretations, satisfies
from .stable import Mirrors, star


# ---------------------------------------------------------------------------
# rule-shaped conjuncts

def _strip_foralls(f):
    variables = []
    while isinstance(f, Forall):
        variables.append(f.var)
        f = f.body
    return variables, f


def _split_rule(matrix):
    """Split a quantifier-free matrix into (body, head)."""
    if isinstance(matrix, Implies) and matrix.right != BOT:
        return matrix.left, matrix.right
    return TOP, matrix


def _head_constant(head, c):
    """The defined constant of a rule head, or None.

    Recognized heads: p(t), f(t) = t0 (left-rooted), and the choice form
    { H } of either.
    """
    inner = choice_of(head)
    target = inner if inner is not None else head
    if isinstance(target, Atom) and target.pred in c:
        return target.pred
    if isinstance(target, Equal) and isinstance(target.left, App) \
            and target.left.fn in c:
        return target.left.fn
    return None


# ---------------------------------------------------------------------------
# Clark normal form

def to_clark_normal_form(f: Formula, c, sig: Signature) -> Formula:
    """Rewrite a conjunction of rules into one definition per member of c.

    Each conjunct must be (the universal closure of) either a rule whose head
    defines a single member of c, or a constraint with no strictly positive
    occurrence of c.  The result has, for every member of c, exactly one
    conjunct forall x (G -> p(x)) or forall x y (G -> f(x) = y), with the
    original bodies collected as a disjunction of guarded existentials.
    """
    c = as_clist(c)
    defs = {n: [] for n in c}
    passthrough = []
    for item in conjuncts(f):
        variables, matrix = _strip_foralls(item)
        body, head = _split_rule(matrix)
        n = _head_constant(head, c)
        if n is None:
            if negative_on(matrix, c):
                passthrough.append(item)
                continue
            raise FragmentError(
                f"rule head defines no single intensional constant: {item!r}")
        defs[n].append((variables, body, head))

    taken = {v.name for item in conjuncts(f)
             for v in free_vars(_strip_foralls(item)[1])}
    for item in conjuncts(f):
        variables, _ = _strip_foralls(item)
        taken.update(v.name for v in variables)

    fresh = FreshNames("X", taken)
    parts = []
    for n in c:
        if n in sig.predicates:
            xs = [fresh.var(s) for s in sig.predicates[n]]
            target = Atom(n, tuple(xs))
            val_var = None
        else:
            argsorts, valsort = sig.functions[n]
            xs = [fresh.var(s) for s in argsorts]
            val_var = fresh.var(valsort)
            target = Equal(App(n, tuple(xs)), val_var)
        cases = [_cnf_case(n, rule, xs, val_var, target, c) for rule in defs[n]]
        parts.append(close_universally(
            Implies(disj(cases), target), xs + ([val_var] if val_var else [])))
    return conj(parts + passthrough)


def _cnf_case(n, rule, xs, val_var, target, c):
    variables, body, head = rule
    inner = choice_of(head)
    is_choice = inner is not None
    head = inner if is_choice else head

    if isinstance(head, Atom):
        head_terms = list(head.args)
    else:
        head_terms = list(head.left.args) + [head.right]
    slots = xs + ([val_var] if val_var is not None else [])
    assert len(head_terms) == len(slots)

    # head-variable shortcut: when the head arguments are distinct variables,
    # rename them to the definition variables instead of equating
    if all(isinstance(t, Var) for t in head_terms) \
            and len(set(head_terms)) == len(head_terms):
        mapping = dict(zip(head_terms, slots))
        body2 = subst(body, mapping)
        rest = [v for v in variables if v not in mapping]
        guards = []
    else:
        mapping = {}
        body2 = body
        rest = list(variables)
        guards = [Equal(s, t) for s, t in zip(slots, head_terms)]

    pieces = guards + ([] if body2 == TOP else [body2])
    if is_choice:
        pieces.append(Not(Not(target)))
    if not pieces:
        pieces = [TOP]
    return close_existentially(conj(pieces), rest)


def is_clark_normal_form(f: Formula, c, sig: Signature) -> bool:
    try:
        _definitions(f, c, sig)
        return True
    except ContractViolation:
        return False


def _definitions(f: Formula, c, sig: Signature):
    """Map each member of c to its single defining conjunct (G, target)."""
    c = as_clist(c)
    defs = {}
    passthrough = []
    for item in conjuncts(f):
        variables, matrix = _strip_foralls(item)
        if isinstance(matrix, Implies) and matrix.right != BOT:
            head = matrix.right
            n = None
            if isinstance(head, Atom) and head.pred in c \
                    and all(isinstance(t, Var) for t in head.args) \
                    and len(set(head.args)) == len(head.args):
                n = head.pred
            elif isinstance(head, Equal) and isinstance(head.left, App) \
                    and head.left.fn in c and isinstance(head.right, Var) \
                    and all(isinstance(t, Var) for t in head.left.args) \
                    and len(set(head.left.args + (head.right,))) == len(head.left.args) + 1:
                n = head.left.fn
            if n is not None:
                if n in defs:
                    raise ContractViolation(f"two definitions for {n!r}")
                defs[n] = (variables, matrix.left, head)
                continue
        if not negative_on(matrix, c):
            raise ContractViolation(
                f"conjunct is neither a definition nor a constraint: {item!r}")
        passthrough.append(item)
    missing = [n for n in c if n not in defs]
    if missing:
        raise ContractViolation(f"no definition for {missing}")
    return defs, passthrough


def complete(f: Formula, c, sig: Signature) -> Formula:
    """Completion: turn each definition's implication into a biconditional."""
    defs, passthrough = _definitions(f, c, sig)
    c = as_clist(c)
    parts = []
    for n in c:
        variables, body, head = defs[n]
        parts.append(close_universally(Iff(body, head), variables))
    return conj(parts + passthrough)


# ---------------------------------------------------------------------------
# dependency graph and tightness

def dependency_graph(f: Formula, c) -> dict:
    """Edges n -> m between members of c: n has a strictly positive
    occurrence in the consequent of a strictly positive implication whose
    antecedent has a strictly positive occurrence of m."""
    c = as_clist(c)
    edges = {n: set() for n in c}
    for g in strictly_positive(f):
        if isinstance(g, Implies):
            bodies = strictly_positive_symbols(g.left, c.members)
            for h in strictly_positive_symbols(g.right, c.members):
                edges[h] |= bodies
    return {n: sorted(ms) for n, ms in edges.items()}


def find_cycle(graph: dict):
    """A cycle in the graph as a list of nodes, or None.

    A depth-first search from each node in turn, with successors in list
    order; the path is kept on an explicit stack, so long chains do not hit
    the recursion limit."""
    color = {n: 0 for n in graph}          # 0 new, 1 on the path, 2 done
    parent = {}
    for root in graph:
        if color[root]:
            continue
        color[root] = 1
        path = [(root, iter(graph.get(root, ())))]
        while path:
            n, successors = path[-1]
            for m in successors:
                if m not in color:
                    continue
                if color[m] == 1:
                    cycle = [m, n]
                    cur = n
                    while cur != m:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
                if color[m] == 0:
                    parent[m] = n
                    color[m] = 1
                    path.append((m, iter(graph.get(m, ()))))
                    break
            else:
                color[n] = 2
                path.pop()
    return None


def is_tight(f: Formula, c) -> bool:
    return find_cycle(dependency_graph(f, c)) is None


# ---------------------------------------------------------------------------
# plainness

def _c_rooted(t, cf):
    return isinstance(t, App) and t.fn in cf


def _c_free(t, cf):
    return not (symbols(t) & cf)


def _plain_atom(g, cf):
    """The atom avoids cf, or is f(t) = t1 (either way round) with f in cf
    and t, t1 avoiding cf."""
    if isinstance(g, Atom):
        return all(_c_free(a, cf) for a in g.args)
    l, r = g.left, g.right
    if _c_rooted(l, cf):
        return all(_c_free(a, cf) for a in l.args) and _c_free(r, cf)
    if _c_rooted(r, cf):
        return all(_c_free(a, cf) for a in r.args) and _c_free(l, cf)
    return _c_free(l, cf) and _c_free(r, cf)


def is_f_plain(f: Formula, flist) -> bool:
    """Every atom either avoids the listed functions entirely or has the
    form f(t) = t1 with f listed and t, t1 avoiding them."""
    cf = set(flist)
    return all(_plain_atom(g, cf) for g in nodes(f)
               if isinstance(g, (Atom, Equal)))


def is_c_plain(f: Formula, c, sig: Signature) -> bool:
    c = as_clist(c)
    return is_f_plain(f, c.func_part(sig))


def is_head_c_plain(f: Formula, c, sig: Signature) -> bool:
    """Every strictly positive atomic occurrence is c-plain."""
    c = as_clist(c)
    cf = set(c.func_part(sig))
    return all(_plain_atom(g, cf) for g in strictly_positive(f)
               if isinstance(g, (Atom, Equal)))


# ---------------------------------------------------------------------------
# unfolding

def unfold(f: Formula, c, sig: Signature) -> Formula:
    """Flatten nested occurrences of the listed intensional functions.

    Each atom containing a listed function application in a non-root
    position is replaced by an existential: the atom with the offending
    subterms replaced by fresh variables, conjoined with defining guards
    (which are unfolded recursively).
    """
    c = as_clist(c)
    cf = set(c.func_part(sig))
    # every variable name of f, bound or free
    taken = {g.var.name if isinstance(g, (Forall, Exists)) else g.name
             for g in nodes(f) if isinstance(g, (Var, Forall, Exists))}
    fresh = FreshNames("U", taken)

    def offending_in_term(t, is_root):
        """Maximal c-rooted subterms of t, skipping the root when allowed."""
        if _c_rooted(t, cf):
            if is_root:
                out = []
                for a in t.args:
                    out.extend(offending_in_term(a, False))
                return out
            return [t]
        if isinstance(t, App):
            out = []
            for a in t.args:
                out.extend(offending_in_term(a, False))
            return out
        return []

    def unfold_atom(g):
        if isinstance(g, Atom):
            bad = []
            for a in g.args:
                bad.extend(offending_in_term(a, False))
        else:
            l, r = g.left, g.right
            if _c_rooted(l, cf):
                bad = offending_in_term(l, True) + offending_in_term(r, False)
            elif _c_rooted(r, cf):
                bad = offending_in_term(l, False) + offending_in_term(r, True)
            else:
                bad = offending_in_term(l, False) + offending_in_term(r, False)
        # keep first occurrence of each distinct offending term
        seen, uniq = set(), []
        for t in bad:
            if t not in seen:
                seen.add(t)
                uniq.append(t)
        if not uniq:
            return g
        mapping = {t: fresh.var(sig.sort_of_term(t)) for t in uniq}
        core = transform(g, lambda t, new: mapping.get(t, new))
        guards = [unfold_atom(Equal(t, x)) for t, x in mapping.items()]
        return close_existentially(conj([core] + guards), list(mapping.values()))

    return transform(f, lambda g, new: unfold_atom(g)
                     if isinstance(g, (Atom, Equal)) else new)


# ---------------------------------------------------------------------------
# bounded strong-equivalence checking

class SEReport(Record):
    __slots__ = ("equivalent", "checked", "max_size", "witness",
                 "mirror_witness", "reason")

    def __init__(self, equivalent: bool, checked: int, max_size: int,
                 witness: FiniteInterpretation | None = None,
                 mirror_witness: FiniteInterpretation | None = None,
                 reason: str = ""):
        self.equivalent = equivalent
        self.checked = checked
        self.max_size = max_size
        self.witness = witness
        self.mirror_witness = mirror_witness
        self.reason = reason

    def __bool__(self):
        return self.equivalent


def check_strong_equivalence_bounded(sig: Signature, f: Formula, g: Formula,
                                     c=None, max_size=3,
                                     universe_overrides=None) -> SEReport:
    """Search finite universes up to max_size for a refutation of strong
    equivalence: a classical model of exactly one of F, G, or a mirror
    assignment separating F* from G*.  A max_size below 1 searches
    nothing, so it is refused.
    """
    if max_size < 1:
        raise FsmError("bounded strong-equivalence search needs a universe "
                       f"size of at least 1, not {max_size}")
    if c is None:
        syms = symbols(f) | symbols(g)
        c = [n for n in sig.user_symbols() if n in syms]
    c = as_clist(c)
    overrides = dict(universe_overrides or {})

    mirrors = Mirrors(c, sig)
    fs = star(f, c, mirrors.names)
    gs = star(g, c, mirrors.names)

    checked = 0
    # every sort with a finite extent keeps it; each user sort without one
    # climbs the ladder of sizes 1..max_size
    fixed = dict(overrides)
    open_sorts = []
    for s, decl in sig.sorts.items():
        ext = sig.extent(s, overrides)
        if ext is not None:
            fixed[s] = ext
        elif decl.tag == "user":
            open_sorts.append(s)
    for k in range(1, max_size + 1):
        universe = dict(fixed)
        for s in open_sorts:
            universe[s] = tuple(f"{s}{j}" for j in range(k))
        for i in enumerate_interpretations(sig, universe):
            checked += 1
            if satisfies(i, f) != satisfies(i, g):
                return SEReport(False, checked, max_size, witness=i,
                                reason="classical models differ")
            for j, ext in mirrors.witnesses(i):
                if satisfies(ext, fs) != satisfies(ext, gs):
                    return SEReport(False, checked, max_size, witness=i,
                                    mirror_witness=j,
                                    reason="star transforms differ")
        if not open_sorts:
            break
    return SEReport(True, checked, max_size)
