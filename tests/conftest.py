"""What more than one test module uses, so that no test module imports
another: a small test signature and seeded random generators for formulas
and rule programs over tiny universes; the demo loader and the benchmark's
switches generator; the environment of a child interpreter and a call
recorder; generate_and_test, the one generate-and-test reference of the
differential tests, and the witness-level and grounding-level references;
the edge-case signature of the guard index; disjoint copies of a program;
the switches demo as a causal theory; and the exact evaluation of emitted
SMT-LIB scripts.
"""

import importlib.util
import itertools
import os
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from fsmkit.aspmt import parse_sexprs
from fsmkit.interp import (
    FiniteInterpretation, elem_key, enumerate_interpretations, satisfies,
)
from fsmkit.parser import parse_program
from fsmkit.related import CausalRule
from fsmkit.stable import (
    GAnd, GIndex, GOr, classical_models, ground, gsat, reduct, star,
    star_of, witnesses,
)
from fsmkit.syntax import (
    And, App, Atom, Choice, Equal, Exists, Forall, Implies, Lit, Not,
    Obj, Or, Signature, TOP, Var, conj, fol_representation, nodes,
    rename_symbols,
)
from stand_in_solver import eval_sexpr

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
BENCH = ROOT / "perfbench"
#: the stand-in SMT solver, run as a script where a solver path is wanted
STAND_IN = pathlib.Path(__file__).resolve().parent / "stand_in_solver.py"


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


# ---------------------------------------------------------------------------
# programs: the demos and the benchmark's switches generator

def program(text, **universe):
    """(F, c, signature, universe) of a program's text: its FOL
    representation, its intensional symbols, its signature, and its
    universe with the extents given as keywords put in."""
    prog = parse_program(text)
    full = dict(prog.universe, **universe)
    return (fol_representation(prog), prog.intensional, prog.signature,
            full)


def demo(name, **universe):
    """program() of demos/<name>."""
    return program((DEMOS / name).read_text(), **universe)


def load_perfbench_gen():
    """perfbench/gen.py, the benchmark's input generators, as a module.  It
    is only read: no __pycache__ is left in the benchmark's directory."""
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  BENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


#: switches(n): the switches demo generalised to n independent pairs
#: (ak, bk), with ak down and bk up at time 0, as the benchmark writes it
switches = load_perfbench_gen().switches
#: 4096 candidates, 16 stable models
SWITCHES_2 = switches(2)


# ---------------------------------------------------------------------------
# child interpreters and call records

def fsmkit_env(**extra):
    """os.environ with extra set, for a child Python that imports the
    fsmkit of this checkout: src comes first on PYTHONPATH."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def record_calls(monkeypatch, holder, name):
    """The arguments of each call of holder.<name> from now on, one tuple
    per call."""
    calls = []
    inner = getattr(holder, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(holder, name, recording)
    return calls


# ---------------------------------------------------------------------------
# the references of the differential tests

def generate_and_test(sig, universe, check):
    """The interpretations of sig over universe that check accepts, in
    enumeration order.  With a stable-model check this is SM[F; c] by
    generate-and-test, the reference each search route of the stable models
    is compared with; with gsat against a grounding it gives the classical
    models, the reference of classical_models."""
    return [i for i in enumerate_interpretations(sig, universe) if check(i)]


def searched_models(g, sig, universe):
    """The classical models the search finds, in enumeration order."""
    found = sorted(classical_models(g, sig, universe),
                   key=lambda pair: pair[0])
    return [i for _, i in found]


def enumerated_witness_exists(red, i, c):
    """The reduct route's witness test before the search: try every J <^c I
    in the order witnesses yields them."""
    return any(gsat(j, red) for j in witnesses(i, c))


def index_nodes(g) -> int:
    """Number of GIndex nodes in a ground formula, grounding every
    instance of each through instances()."""
    n, stack = 0, [g]
    while stack:
        h = stack.pop()
        if isinstance(h, GIndex):
            n += 1
            for v in {elem_key(e): e for e in h.extent}.values():
                stack.extend(h.instances(v))
        elif isinstance(h, (GAnd, GOr)):
            stack.extend(h.members)
        elif isinstance(h, Implies):
            stack.extend((h.left, h.right))
    return n


def assert_index_agrees(f, c, interps, base):
    """For every I: the indexed grounding holds in I exactly when F does
    classically, and for every J differing from I on c, J satisfies the
    indexed reduct exactly when it satisfies the plain one.  Returns the
    number of GIndex nodes in the indexed grounding."""
    plain = ground(f, base)
    indexed = ground(f, base, index=True)
    for i in interps:
        holds = satisfies(i, f)
        assert gsat(i, indexed) == holds == gsat(i, plain), i.to_json()
        red_plain, red_indexed = reduct(plain, i), reduct(indexed, i)
        for j in witnesses(i, c, ordered=False):
            assert gsat(j, red_indexed) == gsat(j, red_plain), \
                (i.to_json(), j.to_json())
    return index_nodes(indexed)


def assert_star_index_agrees(f, c, interps, universe):
    """For every I and every (J, ext) of Mirrors.witnesses(I): the indexed
    grounding of F* that star_of builds holds in ext exactly when F* does
    classically.  Returns the number of GIndex nodes in that grounding."""
    mirrors, gstar = star_of(f, c, interps[0].signature, universe)
    fstar = star(f, c, mirrors.names)
    for i in interps:
        for j, ext in mirrors.witnesses(i):
            assert gsat(ext, gstar) == satisfies(ext, fstar), \
                (f, c, i.to_json(), j.to_json())
    return index_nodes(gstar)


# ---------------------------------------------------------------------------
# the edge cases of the guard index

X = Var("X", "u")
A = App("a", ())


def edge_signature(elements):
    """Sort u, a : -> u, a partial h : u -> u, t : -> bool, p over u."""
    sig = Signature()
    sig.declare_sort("u", elements)
    sig.declare_func("a", (), "u")
    sig.declare_func("h", ("u",), "u")
    sig.declare_func("t", (), "bool")
    sig.declare_pred("p", ("u",))
    return sig


def edge_interps(sig, elements):
    """Every a, t and p, with h empty, the identity on the first element
    only, or constant on the last element."""
    first, last = elements[0], elements[-1]
    tables = ({}, {(first,): first}, {(e,): last for e in elements})
    subsets = [frozenset((e,) for e in chosen)
               for k in range(len(elements) + 1)
               for chosen in itertools.combinations(elements, k)]
    for a, h, t, p in itertools.product(elements, tables, (False, True),
                                        subsets):
        yield FiniteInterpretation(
            sig, {"u": elements},
            funcs={"a": {(): a}, "h": h, "t": {(): t}}, preds={"p": p})


def guarded_by(guard):
    return Forall(X, Implies(guard, Atom("p", (X,))))


GUARDS = {
    "t=X": guarded_by(Equal(A, X)),
    "X=t": guarded_by(Equal(X, A)),
    "undef": guarded_by(Equal(App("h", (A,)), X)),      # h is partial
    "bool": guarded_by(Equal(App("t", ()), X)),         # bool t, int u
    "conjunct": Forall(X, Implies(
        And(Atom("p", (A,)), Equal(X, App("h", (A,)))),
        Equal(App("h", (X,)), A))),
    "outside": guarded_by(Equal(App("+", (A, Lit(1))), X)),
}
INTS = (0, 1, 2)
# == but distinct elements: the index keeps both under one key
EQUAL_ELEMENTS = (0, 1, Fraction(1))


# ---------------------------------------------------------------------------
# disjoint copies of a program

def disjoint_copies(sig, formulas, cs, unread):
    """(F, c, signature): F is the conjunction of the formulas, the k-th
    with every user symbol n of sig renamed to n + str(k), and c holds the
    renamed symbols of cs[k] for each k.  The signature declares the
    symbols of each copy that its formula mentions or its c holds, and
    also r, which no formula reads: a propositional constant or an object
    constant of sort u, in c when unread says so."""
    out = Signature()
    out.declare_sort("u", sig.sorts["u"].elements)
    parts, c = [], []
    for k, (f, names) in enumerate(zip(formulas, cs)):
        mentioned = {h.fn if isinstance(h, App) else h.pred
                     for h in nodes(f) if isinstance(h, (App, Atom))}
        mapping = {n: f"{n}{k}" for n in sig.user_symbols()
                   if n in mentioned or n in names}
        for n, m in mapping.items():
            if n in sig.functions:
                out.declare_func(m, *sig.functions[n])
            else:
                out.declare_pred(m, sig.predicates[n])
        parts.append(rename_symbols(f, mapping))
        c += [mapping[n] for n in names]
    kind, in_c = unread
    if kind == "pred":
        out.declare_pred("r", ())
    else:
        out.declare_func("r", (), "u")
    if in_c:
        c.append("r")
    f = parts[0]
    for g in parts[1:]:
        f = And(f, g)
    return f, tuple(c), out


# ---------------------------------------------------------------------------
# the switches demo as a causal theory

def up_at(s, t):
    return App("up", (Obj(s), Lit(t)))


def flip_of(s):
    return App("flip", (Obj(s),))


def switch_rules():
    rules = []
    for s in ("a", "b"):
        other = "b" if s == "a" else "a"
        for x in (False, True):
            rules.append(CausalRule(
                Equal(up_at(s, 1), Lit(x)),
                And(Equal(up_at(s, 0), Lit(not x)),
                    Equal(flip_of(s), Lit(True)))))
            rules.append(CausalRule(
                Equal(up_at(s, 1), Lit(x)),
                Equal(up_at(other, 1), Lit(not x))))
            rules.append(CausalRule(
                Equal(up_at(s, 1), Lit(x)),
                And(Equal(up_at(s, 1), Lit(x)),
                    Equal(up_at(s, 0), Lit(x)))))
            rules.append(CausalRule(
                Equal(flip_of(s), Lit(x)),
                Equal(flip_of(s), Lit(x))))
    rules.append(CausalRule(Equal(up_at("a", 0), Lit(False)), TOP))
    rules.append(CausalRule(Equal(up_at("b", 0), Lit(True)), TOP))
    return rules


def switch_interp(program, fa, fb, ua, ub):
    return FiniteInterpretation(
        program.signature, dict(program.universe),
        funcs={"up": {("a", 0): False, ("b", 0): True,
                      ("a", 1): ua, ("b", 1): ub},
               "flip": {("a",): fa, ("b",): fb}})


def load_switches():
    return parse_program((DEMOS / "switches.fsm").read_text())


CAUSAL_ROWS = {
    (False, False, False, True),
    (False, True, True, False),
    (True, False, True, False),
    (True, True, True, False),
    (False, False, True, False),
}
STABLE_ROWS = CAUSAL_ROWS - {(False, False, True, False)}


# ---------------------------------------------------------------------------
# emitted SMT-LIB scripts, evaluated exactly (stand_in_solver.eval_sexpr)

def script_holds(script, env):
    return all(eval_sexpr(parse_sexprs(a)[0], env) for a in script.assertions)
