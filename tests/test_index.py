"""The guard index of the grounding: differential tests against the plain
grounding and classical satisfaction, the guard edge cases, and work
counts that pin the per-candidate cost of the reduct route."""

import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from fsmkit import interp as interp_module
from fsmkit import stable as stable_module
from fsmkit.interp import (
    EvaluationError, FiniteInterpretation, enumerate_interpretations,
    satisfies,
)
from fsmkit.parser import parse_program
from fsmkit.stable import (
    METHOD_SECOND_ORDER, GAnd, GImp, GIndex, GOr, check_stable, ground, gsat,
    reduct, stable_models, witnesses,
)
from fsmkit.syntax import (
    And, App, Atom, Equal, Forall, FsmError, Implies, Lit, Obj, Or, Signature,
    Var, fol_representation,
)
from conftest import make_gen, random_definition_program

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def index_nodes(g) -> int:
    """Number of GIndex nodes in a ground formula."""
    n, stack = 0, [g]
    while stack:
        h = stack.pop()
        if isinstance(h, GIndex):
            n += 1
            stack.extend(m for _, m in h.cases)
        elif isinstance(h, (GAnd, GOr)):
            stack.extend(h.members)
        elif isinstance(h, GImp):
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


def demo(name, **universe):
    program = parse_program((DEMOS / name).read_text())
    full = dict(program.universe, **universe)
    return (fol_representation(program), program.intensional,
            program.signature, full)


# ---------------------------------------------------------------------------
# differential tests

def guarded_formula(gen, n):
    """forall V ((B & t = V) -> H), or with V = t, for random B, t and H."""
    v = Var(f"G{n}", "u")
    t = gen.term(())
    guard = Equal(t, v) if n % 2 else Equal(v, t)
    return Forall(v, Implies(And(gen.formula(2, [v]), guard),
                             gen.formula(2, [v])))


def test_index_agrees_on_random_formulas():
    indexed = 0
    for seed in range(4):
        sig, gen = make_gen(seed=seed, with_unary_func=seed % 2 == 1)
        universe = {"u": (1, 2)}
        base = FiniteInterpretation(sig, universe)
        formulas = [gen.formula(depth=3) for _ in range(15)]
        formulas += [guarded_formula(gen, n) for n in range(15)]
        for f in formulas:
            indexed += assert_index_agrees(
                f, ("a", "p"), enumerate_interpretations(sig, universe), base)
    assert indexed >= 60


def test_index_agrees_on_definition_programs():
    rng = random.Random(17)
    indexed = 0
    for _ in range(20):
        sig, f = random_definition_program(rng)
        universe = {"u": (1, 2)}
        indexed += assert_index_agrees(
            f, ("f", "g", "p"), enumerate_interpretations(sig, universe),
            FiniteInterpretation(sig, universe))
    assert indexed > 0


@pytest.mark.parametrize("name, universe, fixed, c", [
    ("watertank.fsm", {"amt": tuple(range(11))}, None, None),
    ("switches.fsm", {}, None, None),
    # two reals and six pinned symbols keep the car's candidates to 64; J
    # varies on a few symbols, since all twelve give 4095 per candidate
    ("car.fsm", {"real": (0, 1)},
     {"speed0": {(): 0}, "location0": {(): 0}, "duration0": {(): 1},
      "duration1": {(): 1}, "decel0": {(): False}, "decel1": {(): False}},
     ("speed1", "location1", "accel0")),
])
def test_index_agrees_on_demos(name, universe, fixed, c):
    f, intensional, sig, full = demo(name, **universe)
    interps = enumerate_interpretations(sig, full, fixed)
    assert assert_index_agrees(f, c or intensional, interps,
                               FiniteInterpretation(sig, full)) > 0


# ---------------------------------------------------------------------------
# guard edge cases

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


@pytest.mark.parametrize("guard, elements", [
    (name, INTS) for name in GUARDS] + [
    (name, EQUAL_ELEMENTS) for name in GUARDS])
def test_guard_edge_cases(guard, elements):
    formula = GUARDS[guard]
    sig = edge_signature(elements)
    base = FiniteInterpretation(sig, {"u": elements})
    assert isinstance(ground(formula, base, index=True), GIndex)
    assert assert_index_agrees(formula, ("a", "p"),
                               edge_interps(sig, elements), base) == 1


def test_equal_elements_share_one_key_and_bools_get_their_own():
    # the index alone: the plain grounding keys instances by Obj, below
    elements = (0, 1, Fraction(1), True)
    sig = edge_signature(elements)
    g = ground(GUARDS["t=X"], FiniteInterpretation(sig, {"u": elements}),
               index=True)
    i = next(edge_interps(sig, elements))
    for value, guarded_elements in ((1, [1, Fraction(1)]),
                                    (Fraction(1), [1, Fraction(1)]),
                                    (True, [True]), (0, [0])):
        i.funcs["a"] = {(): value}
        got = g.guarded(i)
        assert len(got) == len(guarded_elements)
        assert [type(m.right.args[0].elem) for m in got] \
            == [type(e) for e in guarded_elements]


def test_object_names_keep_bool_ness():
    # were Obj(True) == Obj(1), the plain grounding would keep only one of
    # the instances for X = 1 and X = True; with h(0) = True the one for
    # True fails and the one for 1 holds, so gsat could say true
    assert Obj(True) != Obj(1) and Obj(1) == Obj(Fraction(1))
    assert hash(Obj(True)) == hash((True,))
    elements = (0, 1, Fraction(1), True)
    sig = edge_signature(elements)
    i = FiniteInterpretation(sig, {"u": elements},
                             funcs={"a": {(): 0}, "h": {(0,): True},
                                    "t": {(): False}},
                             preds={"p": frozenset({(0,)})})
    f = GUARDS["conjunct"]
    # 1 and Fraction(1) still share one instance, True gets its own
    assert len(ground(f, i).members) == 3
    assert not satisfies(i, f)
    assert not gsat(i, ground(f, i))
    assert not gsat(i, ground(f, i, index=True))


def test_unguarded_quantifiers_stay_plain():
    sig = edge_signature((0, 1, 2))
    base = FiniteInterpretation(sig, {"u": (0, 1, 2)})
    for f in (guarded_by(Equal(App("h", (X,)), X)),         # X free in t
              guarded_by(Or(Atom("p", (A,)), Equal(A, X))),  # not a conjunct
              Forall(X, Equal(A, X))):                       # no implication
        assert isinstance(ground(f, base, index=True), GAnd)


def test_skipped_instances_are_not_evaluated():
    # the instance for X = 1 divides by zero; with a = 0 its guard is false,
    # so the index never evaluates it, while the plain reduct does
    sig = edge_signature((0, 1))
    f = Forall(X, Implies(Equal(A, X), Atom("p", (App(
        "/", (Lit(1), App("-", (X, Lit(1))))),))))
    i = FiniteInterpretation(sig, {"u": (0, 1)},
                             funcs={"a": {(): 0}, "h": {}, "t": {(): False}},
                             preds={"p": frozenset()})
    with pytest.raises(EvaluationError):
        reduct(ground(f, i), i)
    assert not check_stable(f, ("p",), i)
    i.funcs["a"] = {(): 1}
    with pytest.raises(EvaluationError):
        check_stable(f, ("p",), i)


# ---------------------------------------------------------------------------
# gsat on a missing predicate

def test_gsat_raises_like_satisfies_on_a_missing_predicate():
    sig = edge_signature((0, 1))
    i = FiniteInterpretation(sig, {"u": (0, 1)},
                             funcs={"a": {(): 0}, "h": {}, "t": {(): False}})
    f = Atom("p", (A,))
    with pytest.raises(FsmError, match="uninterpreted predicate 'p'"):
        satisfies(i, f)
    with pytest.raises(FsmError, match="uninterpreted predicate 'p'"):
        gsat(i, ground(f, i))
    with pytest.raises(FsmError, match="uninterpreted predicate 'p'"):
        check_stable(f, ("p",), i)


# ---------------------------------------------------------------------------
# work counts

def count_calls(monkeypatch, module, name, *also):
    """Route every call of module.name through a counter; also patches the
    same function where the modules in also bind it."""
    calls = [0]
    original = getattr(module, name)

    def counting(*args, **kw):
        calls[0] += 1
        return original(*args, **kw)
    for holder in (module,) + also:
        monkeypatch.setattr(holder, name, counting)
    return calls


def test_second_order_route_stars_once_per_run(monkeypatch):
    f, c, sig, universe = demo("watertank.fsm", amt=tuple(range(6)))
    calls = count_calls(monkeypatch, stable_module, "star")
    models = stable_models(f, c, sig, universe, method=METHOD_SECOND_ORDER)
    assert len(models) == 11
    assert calls[0] == 1


def test_term_evaluations_per_candidate_do_not_grow_with_the_sort(
        monkeypatch):
    per_candidate = []
    for n in (10, 20):
        f, c, sig, universe = demo("watertank.fsm", amt=tuple(range(n + 1)))
        calls = count_calls(monkeypatch, interp_module, "eval_term",
                            stable_module)
        assert len(stable_models(f, c, sig, universe)) == 2 * n + 1
        per_candidate.append(calls[0] / (2 * (n + 1) ** 2))
        monkeypatch.undo()
    # the plain grounding evaluates every instance: 96 and 167 per
    # candidate.  The index evaluates 17 to 23 at either size; where in that
    # range depends on the hash order of the ground conjunctions.
    assert per_candidate[1] < 1.5 * per_candidate[0]
    assert max(per_candidate) < 30
