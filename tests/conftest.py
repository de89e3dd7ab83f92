"""Shared fixtures: a small test signature and seeded random generators
for formulas and rule programs over tiny universes.
"""

import random

import pytest

from fsmkit.syntax import (
    And, App, Atom, BOT, Choice, Equal, Exists, Forall, Implies, Lit, Not,
    Or, Signature, Var, conj,
)


def small_signature(elements=(1, 2), with_unary_func=False):
    """Sort u over the given elements, object constants a and b, a unary
    predicate p, and a propositional constant q."""
    sig = Signature()
    sig.declare_sort("u", elements)
    sig.declare_func("a", (), "u")
    sig.declare_func("b", (), "u")
    sig.declare_pred("p", ("u",))
    sig.declare_pred("q", ())
    if with_unary_func:
        sig.declare_func("f", ("u",), "u")
    return sig


class FormulaGen:
    """Seeded random closed formulas over a small_signature.  With arith,
    terms may also be t + 1, which leaves the sort at its top element, and
    f(t + 1), which is then undefined."""

    def __init__(self, rng, sig, elements, arith=False):
        self.rng = rng
        self.sig = sig
        self.elements = elements
        self.has_f = "f" in sig.functions
        self.arith = arith
        self.counter = 0

    def term(self, env):
        choices = ["a", "b", "lit"]
        if env:
            choices.append("var")
        if self.has_f:
            choices.append("f")
        if self.arith:
            choices.append("succ")
        kind = self.rng.choice(choices)
        if kind == "succ":
            return App("+", (self.term_flat(env), Lit(1)))
        if kind == "lit":
            return Lit(self.rng.choice(self.elements))
        if kind == "var":
            return self.rng.choice(env)
        if kind == "f":
            arg = self.term_flat(env)
            if self.arith and self.rng.random() < 0.5:
                arg = App("+", (arg, Lit(1)))
            return App("f", (arg,))
        return App(kind, ())

    def term_flat(self, env):
        # nesting only one level deep keeps grounding cheap
        kind = self.rng.choice(["a", "b", "lit", "var"] if env
                               else ["a", "b", "lit"])
        if kind == "lit":
            return Lit(self.rng.choice(self.elements))
        if kind == "var":
            return self.rng.choice(env)
        return App(kind, ())

    def atom(self, env):
        kind = self.rng.choice(["eq", "p", "q"])
        if kind == "eq":
            return Equal(self.term(env), self.term(env))
        if kind == "p":
            return Atom("p", (self.term(env),))
        return Atom("q", ())

    def formula(self, depth, env=()):
        env = list(env)
        if depth <= 0 or self.rng.random() < 0.3:
            return self.atom(env)
        kind = self.rng.choice(
            ["and", "or", "imp", "not", "forall", "exists"])
        if kind == "not":
            return Not(self.formula(depth - 1, env))
        if kind in ("forall", "exists"):
            self.counter += 1
            v = Var(f"V{self.counter}", "u")
            body = self.formula(depth - 1, env + [v])
            return (Forall if kind == "forall" else Exists)(v, body)
        ctor = {"and": And, "or": Or, "imp": Implies}[kind]
        return ctor(self.formula(depth - 1, env), self.formula(depth - 1, env))


def definition_signature(elements=(1, 2)):
    """Sort u, functions f and g, predicate p: symbols to be defined."""
    sig = Signature()
    sig.declare_sort("u", elements)
    sig.declare_func("f", (), "u")
    sig.declare_func("g", (), "u")
    sig.declare_pred("p", ("u",))
    return sig


def _random_literal(rng, elements, target, earlier, exclude=()):
    """A body literal for a definition of target.  Strictly positive atoms
    only mention earlier symbols, so the dependency graph stays acyclic."""
    pool = ["eq"]
    pool += [("pos", s) for s in earlier]
    pool += [("neg", s) for s in ("f", "g", "p") if s not in exclude]
    kind = rng.choice(pool)
    t = rng.choice([target] + [Lit(e) for e in elements])
    if kind == "eq":
        return Equal(target, Lit(rng.choice(elements)))
    tag, s = kind
    if s == "p":
        atom = Atom("p", (t,))
    else:
        atom = Equal(App(s, ()), t)
    return atom if tag == "pos" else Not(atom)


#: the intensional symbols of definition_signature, in definition order
DEFINED = ["f", "g", "p"]


def _random_body(rng, elements, v, idx):
    """One or two literals (see _random_literal) for a definition of the
    symbol DEFINED[idx], about v, joined by & or |."""
    lits = [_random_literal(rng, elements, v, DEFINED[:idx],
                            exclude=(DEFINED[idx],))
            for _ in range(rng.randint(1, 2))]
    return lits[0] if len(lits) == 1 else rng.choice([And, Or])(*lits)


def _head(name, v):
    return Atom("p", (v,)) if name == "p" else Equal(App(name, ()), v)


def random_definition_program(rng, elements=(1, 2)):
    """A random tight program in definitional form: one universally closed
    definition per intensional symbol, bodies ordered to avoid cycles."""
    v = Var("V", "u")
    return definition_signature(elements), conj(
        Forall(v, Implies(_random_body(rng, elements, v, idx), _head(name, v)))
        for idx, name in enumerate(DEFINED))


def random_choice_program(rng, elements=(1, 2)):
    """A random tight program with choice rules and defaults, in the
    definitional form of random_definition_program: f picks any value by
    choice, g takes a default value unless a conditional rule gives it
    another, and p is defined by a choice rule or a plain one.  The choices
    give most programs several stable models."""
    v = Var("V", "u")
    default = Equal(App("g", ()), Lit(rng.choice(elements)))
    g_body = _random_body(rng, elements, v, 1)
    p_body = _random_body(rng, elements, v, 2)
    p_head = Choice(_head("p", v)) if rng.random() < 0.5 else _head("p", v)
    return definition_signature(elements), conj([
        Forall(v, Choice(_head("f", v))),
        Choice(default),
        Forall(v, Implies(g_body, _head("g", v))),
        Forall(v, Implies(p_body, p_head)),
    ])


@pytest.fixture
def rng():
    return random.Random(20240817)


def make_gen(seed, elements=(1, 2), with_unary_func=False, with_arith=False):
    sig = small_signature(elements, with_unary_func)
    gen = FormulaGen(random.Random(seed), sig, elements, with_arith)
    return sig, gen


def ring(n):
    """n switches s0 .. s(n-1) with the three per-switch rules of the
    switches demo, and a positive cycle through their values at time 1:
    s(i+1) takes the value of si unless it was flipped or already held it.
    up(si, 0) is true for odd i.  The program is not tight, it is one
    ground component, and it has 2 ** n + 1 stable models."""
    names = [f"s{i}" for i in range(n)]
    rules = [
        "up(S, 1) = X :- up(S, 0) = Y & flip(S) = true & X != Y.",
        "{ up(S, 1) = X } :- up(S, 0) = X.",
        "{ flip(S) = X }.",
    ]
    for i, s in enumerate(names):
        t = names[(i + 1) % n]
        rules.append(f"up({t}, 1) = X :- up({s}, 1) = X & flip({t}) = false"
                     f" & up({t}, 0) != X.")
    for i, s in enumerate(names):
        rules.append(f"up({s}, 0) = {'true' if i % 2 else 'false'}.")
    return "\n".join([
        f"sort switch = {{{', '.join(names)}}}.",
        "sort tm = 0..1.",
        "var S : switch.",
        "var X : bool.",
        "var Y : bool.",
        "func up : switch * tm -> bool.",
        "func flip : switch -> bool.",
        "intensional up, flip.",
        "",
    ] + rules) + "\n"


#: the positive cycles random_cyclic_program builds on: through p alone,
#: through the values of f and g, and through p and the value of f
CYCLES = ("pred", "func", "mixed")


def _cyclic_literal(rng, elements, v, w):
    """A body literal about v and w: an atom of f, g or p, positive or
    negated, or an equation between a variable and an element."""
    t = rng.choice([v, w, Lit(rng.choice(elements))])
    kind = rng.choice(["p", "f", "g", "eq", "neq"])
    if kind == "eq":
        return Equal(v, Lit(rng.choice(elements)))
    if kind == "neq":
        return Not(Equal(v, w))
    atom = Atom("p", (t,)) if kind == "p" else Equal(App(kind, ()), t)
    return Not(atom) if rng.random() < 0.3 else atom


def random_cyclic_program(rng, elements=(1, 2), cycle=None):
    """A random program over definition_signature that is not tight: one
    positive cycle from CYCLES (through p alone, through the values of f
    and g, or through p and the value of f), choice rules that give the
    cycle something to start from or not, and one to three random rules,
    each a body of one or two literals (see _cyclic_literal) and a head
    of f, g or p.  Every rule is universally closed over V and W."""
    v, w = Var("V", "u"), Var("W", "u")
    cycle = cycle or rng.choice(CYCLES)
    lit = lambda: _cyclic_literal(rng, elements, v, w)
    if cycle == "pred":
        loop = [(And(Atom("p", (w,)), Not(Equal(v, w))), _head("p", v))]
    elif cycle == "func":
        loop = [(Equal(App("g", ()), v), _head("f", v)),
                (And(Equal(App("f", ()), v), lit()), _head("g", v))]
    else:
        loop = [(Equal(App("f", ()), v), _head("p", v)),
                (And(Atom("p", (v,)), lit()), _head("f", v))]
    rules = [Forall(v, Forall(w, Implies(body, head)))
             for body, head in loop]
    for name in rng.sample(DEFINED, rng.randint(1, 3)):
        head = _head(name, rng.choice([v, Lit(rng.choice(elements))]))
        if rng.random() < 0.5:
            rules.append(Forall(v, Choice(head)))
        else:
            body = lit() if rng.random() < 0.5 else And(lit(), lit())
            rules.append(Forall(v, Forall(w, Implies(body, head))))
    rng.shuffle(rules)
    return definition_signature(elements), conj(rules)
