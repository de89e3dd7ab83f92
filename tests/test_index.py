"""The guard index of the grounding: differential tests against the plain
grounding and classical satisfaction, on F and on F*, the guard edge cases
and shapes, and work counts that pin the per-candidate cost of the reduct
route and the per-witness cost of the second-order route."""

import functools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fsmkit import interp as interp_module
from fsmkit import stable as stable_module
from fsmkit.interp import (
    EvaluationError, FiniteInterpretation, enumerate_interpretations,
    satisfies, vary_on,
)
from fsmkit.stable import (
    METHOD_REDUCT, METHOD_SECOND_ORDER, GAnd, GIndex, Mirrors, _guard,
    _Kleene, check_stable, check_stable_both, ground, gsat, reduct, star,
    star_of, stable_models,
)
from fsmkit.syntax import (
    BOT, And, App, Atom, Equal, Forall, FsmError, Implies, Lit, Obj, Or,
    Signature, Var,
)
from conftest import (
    A, DEMOS, EQUAL_ELEMENTS, GUARDS, INTS, X, assert_index_agrees,
    assert_star_index_agrees, demo, edge_interps, edge_signature,
    fsmkit_env, guarded_by, make_gen, random_definition_program,
    record_calls,
)


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32), unary=st.booleans(),
       arith=st.booleans(), guarded=st.booleans(),
       c=st.sampled_from([("a", "p"), ("p",), ("a", "b"), ("q",), ("f",)]))
def test_one_evaluator_agrees_with_satisfies(seed, unary, arith, guarded,
                                             c):
    # with arith, a + 1 leaves u = {1, 2}: p(a + 1) is false, f(a + 1) is
    # undefined, and a guard a + 1 = X guards no instance
    sig, gen = make_gen(seed, with_unary_func=unary, with_arith=arith)
    if "f" in c and not unary:
        c = ("a", "p")
    universe = {"u": (1, 2)}
    f = guarded_formula(gen, 0) if guarded else gen.formula(depth=3)
    assert_index_agrees(f, c, enumerate_interpretations(sig, universe),
                        FiniteInterpretation(sig, universe))


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
    fixed = fixed or {}
    interps = vary_on(FiniteInterpretation(sig, full, fixed),
                      [n for n in sig.user_symbols() if n not in fixed])
    assert assert_index_agrees(f, c or intensional, interps,
                               FiniteInterpretation(sig, full)) > 0


@pytest.mark.parametrize("seed", range(3))
def test_star_index_agrees_on_random_formulas(seed):
    # 20 formulas per seed, half of them guarded, each under several c
    sig, gen = make_gen(seed=seed, with_unary_func=seed == 2)
    universe = {"u": (1, 2)}
    interps = list(enumerate_interpretations(sig, universe))
    # f gives four times the interpretations, so the largest c gives way
    cs = [("a", "p"), ("p",), ("a", "b")] + (
        [("f",), ("f", "p")] if seed == 2 else [("a", "b", "p", "q")])
    formulas = [gen.formula(depth=3) for _ in range(10)]
    formulas += [guarded_formula(gen, n) for n in range(10)]
    indexed = 0
    for f in formulas:
        for c in cs:
            indexed += assert_star_index_agrees(f, c, interps, universe)
    assert indexed >= 10 * len(cs)


def test_star_index_agrees_on_definition_programs():
    rng = random.Random(17)
    universe = {"u": (1, 2)}
    indexed = 0
    for _ in range(20):
        sig, f = random_definition_program(rng)
        interps = list(enumerate_interpretations(sig, universe))
        for c in (("f", "g", "p"), ("f",), ("g", "p")):
            indexed += assert_star_index_agrees(f, c, interps, universe)
    assert indexed > 0


@pytest.mark.parametrize("name, universe, fixed, c", [
    ("watertank.fsm", {"amt": tuple(range(11))}, None, None),
    ("switches.fsm", {}, None, None),
    ("car.fsm", {"real": (0, 1)},
     {"speed0": {(): 0}, "location0": {(): 0}, "duration0": {(): 1},
      "duration1": {(): 1}, "decel0": {(): False}, "decel1": {(): False}},
     ("speed1", "location1", "accel0")),
])
def test_star_index_agrees_on_demos(name, universe, fixed, c):
    f, intensional, sig, full = demo(name, **universe)
    fixed = fixed or {}
    interps = list(vary_on(FiniteInterpretation(sig, full, fixed),
                           [n for n in sig.user_symbols() if n not in fixed]))
    assert assert_star_index_agrees(f, c or intensional, interps, full) > 0


# ---------------------------------------------------------------------------
# guard edge cases

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
        got = _Kleene(i).guarded(g)
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


LIT_BOOL_NESS = """
from fsmkit.interp import FiniteInterpretation, satisfies
from fsmkit.stable import ground, gsat
from fsmkit.syntax import And, App, Equal, Lit, Signature

sig = Signature()
sig.declare_sort("u", (0, 1, True))
sig.declare_func("a", (), "u")
i = FiniteInterpretation(sig, {"u": (0, 1, True)}, funcs={"a": {(): 1}})
one, true = Equal(App("a", ()), Lit(1)), Equal(App("a", ()), Lit(True))
for f in (And(one, true), And(true, one)):
    assert not satisfies(i, f)
    assert gsat(i, ground(f, i)) == satisfies(i, f), f
"""


@pytest.mark.parametrize("hash_seed", ["1", "2", "3", "4"])
def test_literals_keep_bool_ness(hash_seed):
    # were Lit(True) == Lit(1), the conjunction would ground to a one-member
    # set holding either equation, and gsat would say true with a = 1
    assert Lit(True) != Lit(1) and Lit(1) == Lit(Fraction(1))
    assert hash(Lit(True)) == hash((True,))
    proc = subprocess.run([sys.executable, "-c", LIT_BOOL_NESS],
                          capture_output=True, text=True,
                          env=fsmkit_env(PYTHONHASHSEED=hash_seed),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]


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


def test_skipped_star_instances_are_not_evaluated():
    # b is in c and its sort v = {1, 2} keeps b - X nonzero in I, but the
    # witness b = 1 makes the mirror b^ - X zero at X = 1.  The guard a = X
    # is false there, so the index never evaluates that instance: the
    # second-order route now agrees with the reduct route instead of
    # raising, as satisfies of F* still does.
    sig = Signature()
    sig.declare_sort("u", (0, 1))
    sig.declare_sort("v", (1, 2))
    sig.declare_func("a", (), "u")
    sig.declare_func("b", (), "v")
    sig.declare_pred("p", ("u",))
    universe = {"u": (0, 1), "v": (1, 2)}
    by_b = App("/", (Lit(1), App("-", (App("b", ()), X))))
    f = Forall(X, Implies(And(Atom("p", (by_b,)), Equal(A, X)), BOT))
    i = FiniteInterpretation(sig, universe,
                             funcs={"a": {(): 0}, "b": {(): 2}},
                             preds={"p": frozenset()})
    assert satisfies(i, f)
    mirrors, _ = star_of(f, ("b",), sig, universe)
    (_, ext), = mirrors.witnesses(i)
    with pytest.raises(EvaluationError):
        satisfies(ext, star(f, ("b",), mirrors.names))
    assert not check_stable(f, ("b",), i, METHOD_SECOND_ORDER)
    assert not check_stable(f, ("b",), i, METHOD_REDUCT)
    assert not check_stable_both(f, ("b",), i)


# ---------------------------------------------------------------------------
# guard shapes

P_A, P_X = Atom("p", (A,)), Atom("p", (X,))
H_A = App("h", (A,))


def test_guard_of_a_single_implication():
    assert _guard(Forall(X, Implies(And(P_A, Equal(X, A)), P_X))) == A
    assert _guard(Forall(X, Implies(And(Equal(H_A, X), Equal(A, X)),
                                    P_X))) == H_A


def test_guard_of_the_starred_shape():
    # (A* -> H*) & (A -> H); a is not in c, so A* holds a = X twice
    f = guarded_by(Equal(A, X))
    mirrors = Mirrors(("p",), edge_signature(INTS))
    starred = star(f, ("p",), mirrors.names)
    assert isinstance(starred.body, And)
    assert all(isinstance(g, Implies)
               for g in (starred.body.left, starred.body.right))
    assert _guard(starred) == A


def test_guard_on_a_c_function_is_the_unmirrored_term():
    # a in c: A* holds a^ = X before a = X, and only a is shared
    f = GUARDS["conjunct"]
    sig = edge_signature(INTS)
    mirrors = Mirrors(("a", "h"), sig)
    starred = star(f, ("a", "h"), mirrors.names)
    assert _guard(starred) == H_A
    _, gstar = star_of(f, ("a", "h"), sig, {"u": INTS})
    assert isinstance(gstar, GIndex) and gstar.term == H_A


@pytest.mark.parametrize("body", [
    # one conjunct lacks the guard
    And(Implies(Equal(A, X), P_X), Implies(P_A, P_X)),
    # the conjuncts' guards differ
    And(Implies(Equal(A, X), P_X), Implies(Equal(H_A, X), P_X)),
    # a conjunct is not an implication
    And(Implies(Equal(A, X), P_X), P_X),
    And(P_X, Implies(Equal(A, X), P_X)),
], ids=["unguarded", "different", "no-implication", "no-implication-first"])
def test_guard_rejects(body):
    f = Forall(X, body)
    assert _guard(f) is None
    base = FiniteInterpretation(edge_signature(INTS), {"u": INTS})
    assert isinstance(ground(f, base, index=True), GAnd)


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


def test_gsat_raises_like_satisfies_on_a_missing_function():
    # k is missing and its argument h(a) is undefined: the missing table
    # is found before the argument could make the term undefined
    sig = edge_signature((0, 1))
    sig.declare_func("k", ("u",), "u")
    i = FiniteInterpretation(sig, {"u": (0, 1)},
                             funcs={"a": {(): 0}, "h": {}, "t": {(): False}},
                             preds={"p": frozenset()})
    f = Equal(App("k", (H_A,)), A)
    with pytest.raises(FsmError, match="uninterpreted function 'k'"):
        satisfies(i, f)
    with pytest.raises(FsmError, match="uninterpreted function 'k'"):
        gsat(i, ground(f, i))
    with pytest.raises(FsmError, match="uninterpreted function 'k'"):
        check_stable(f, ("a",), i)


# ---------------------------------------------------------------------------
# work counts

def test_second_order_route_stars_once_per_run(monkeypatch):
    f, c, sig, universe = demo("watertank.fsm", amt=tuple(range(6)))
    calls = record_calls(monkeypatch, stable_module, "star")
    top_level = record_calls(monkeypatch, stable_module, "ground")
    models = stable_models(f, c, sig, universe, method=METHOD_SECOND_ORDER)
    assert len(models) == 11
    assert len(calls) == 1
    # F* only: the second-order route does not ground F
    assert len(top_level) == 1 and top_level[0][0] != f


def count_term_evaluations(monkeypatch):
    """Count the terms the ground evaluator evaluates, and those satisfies
    evaluates; both count the nested terms too."""
    kleene = record_calls(monkeypatch, stable_module._Kleene, "term")
    classical = record_calls(monkeypatch, interp_module, "eval_term")
    return lambda: len(kleene) + len(classical)


def test_term_evaluations_per_candidate_do_not_grow_with_the_sort(
        monkeypatch):
    per_candidate = []
    for n in (10, 20):
        f, c, sig, universe = demo("watertank.fsm", amt=tuple(range(n + 1)))
        calls = count_term_evaluations(monkeypatch)
        assert len(stable_models(f, c, sig, universe)) == 2 * n + 1
        per_candidate.append(calls() / (2 * (n + 1) ** 2))
        monkeypatch.undo()
    # the plain grounding evaluates every instance: 96 and 167 per
    # candidate.  The index evaluates about 19 at either size, counting
    # those of the candidate search, and the same under every hash seed.
    assert per_candidate[1] < 1.5 * per_candidate[0]
    assert max(per_candidate) < 30


COUNT_EVALUATIONS = """
import json, sys
from fsmkit import interp, stable
from fsmkit.interp import FiniteInterpretation
from fsmkit.parser import parse_program
from fsmkit.syntax import fol_representation

calls = [0]
eval_term, term = interp.eval_term, stable._Kleene.term
def counting_eval_term(*args):
    calls[0] += 1
    return eval_term(*args)
def counting_term(*args):
    calls[0] += 1
    return term(*args)

prog = parse_program(sys.stdin.read())
f, c = fol_representation(prog), prog.intensional
per_witness = []
for n in (10, 20, 40):
    universe = dict(prog.universe, amt=tuple(range(n + 1)))
    # stable, no flush, amt0 in mid-sort
    i = FiniteInterpretation(prog.signature, universe,
                             funcs={"amt0": {(): n // 2},
                                    "amt1": {(): n // 2 + 1}},
                             preds={"flush": frozenset()})
    problem = stable.Problem(f, c, prog.signature, universe)
    count = sum(1 for _ in problem.starred[0].witnesses(i))
    calls[0] = 0
    interp.eval_term, stable._Kleene.term = counting_eval_term, counting_term
    assert problem.check(i, stable.METHOD_SECOND_ORDER)
    interp.eval_term, stable._Kleene.term = eval_term, term
    per_witness.append(calls[0] / count)
print(json.dumps(per_witness))
"""


@functools.cache
def evaluations_per_witness(hash_seed):
    """Term evaluations per witness of a stable watertank snapshot at
    amt=0..10/20/40, in a fresh interpreter under PYTHONHASHSEED=hash_seed."""
    proc = subprocess.run([sys.executable, "-c", COUNT_EVALUATIONS],
                          input=(DEMOS / "watertank.fsm").read_text(),
                          capture_output=True, text=True,
                          env=fsmkit_env(PYTHONHASHSEED=hash_seed),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_term_evaluations_per_witness_do_not_grow_with_the_sort(hash_seed):
    # satisfies of F* evaluates every instance: 39, 58 and 98 per witness at
    # amt=0..10/20/40.  The index evaluates the guarded one, and the
    # classical test I |= F, spread over the n witnesses, adds about the
    # same at every size: about 17 per witness, counting the terms of both
    # evaluators.  Ground conjunctions are evaluated in the order they were
    # built, so the count is the same under every hash seed.
    per_witness = evaluations_per_witness(hash_seed)
    assert per_witness[2] < 1.5 * per_witness[0]
    assert max(per_witness) < 40
    assert per_witness == evaluations_per_witness("1")


def test_a_check_grounds_the_same_instances_at_every_sort_size(monkeypatch):
    # both routes ground F or F* with the guard index, and a stable
    # snapshot looks up one key of each: the ground nodes built, the
    # guarded instances among them, do not grow with the sort
    built = []
    for n in (10, 20, 40):
        f, c, sig, universe = demo("watertank.fsm", amt=tuple(range(n + 1)))
        i = FiniteInterpretation(sig, universe,
                                 funcs={"amt0": {(): n // 2},
                                        "amt1": {(): n // 2 + 1}},
                                 preds={"flush": frozenset()})
        calls = record_calls(monkeypatch, stable_module, "ground")
        assert check_stable_both(f, c, i)
        built.append(len(calls))
        monkeypatch.undo()
    assert built[0] == built[1] == built[2], built
