"""The two searches of the reduct route, for the classical models I and
for a smaller witness J: differential tests against filtering and
enumerating every interpretation, the edge cases of partial tables and
one-element sorts, the work they do, and where their evaluation order
differs from gsat's on arithmetic errors."""

import functools
import itertools
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fsmkit.interp import (
    EvaluationError, FiniteInterpretation, enumerate_interpretations,
    less_on_c, vary_on,
)
from fsmkit import stable
from fsmkit.stable import (
    check_stable, ground, gsat, reduct, smaller_witness, stable_models,
)
from fsmkit.syntax import (
    And, App, Atom, BOT, Choice, Equal, Forall, Implies, Lit, Signature,
)
from conftest import (
    A, DEMOS, GUARDS, SWITCHES_2, X, demo, edge_interps, edge_signature,
    enumerated_witness_exists, fsmkit_env, generate_and_test, make_gen,
    program, random_definition_program, record_calls, searched_models,
    switches,
)

#: 2 ** 18 interpretations, 64 stable models
SWITCHES_3 = switches(3)


def assert_search_agrees(f, c, interps, base, plain=True):
    """For every classical model I among interps, under the indexed
    grounding (and, with plain, the plain one): the search finds a J exactly
    when enumeration does, and any J it returns is <^c I and satisfies the
    reduct.  Returns (models checked, models found stable)."""
    groundings = (ground(f, base, index=True),) + (
        (ground(f, base),) if plain else ())
    models = stable = 0
    for i in interps:
        if not gsat(i, groundings[0]):
            continue
        models += 1
        for g in groundings:
            red = reduct(g, i)
            j = smaller_witness(red, i, c)
            assert (j is not None) == enumerated_witness_exists(red, i, c), \
                (f, c, i.to_json())
            if j is not None:
                assert less_on_c(j, i, c) and gsat(j, red), \
                    (f, c, i.to_json(), j.to_json())
        stable += j is None
    return models, stable


# ---------------------------------------------------------------------------
# differential tests

def test_search_agrees_on_random_formulas():
    universe = {"u": (1, 2)}
    models = stable = 0
    for seed in range(3):
        sig, gen = make_gen(seed=seed + 40, with_unary_func=seed == 2)
        cs = [("a", "p"), ("p",), ("a", "b"), ("q",), ("a", "b", "p", "q")]
        if seed == 2:
            cs += [("f",), ("f", "p")]
        base = FiniteInterpretation(sig, universe)
        for _ in range(20):
            f = gen.formula(depth=3)
            for c in cs:
                m, s = assert_search_agrees(
                    f, c, enumerate_interpretations(sig, universe), base)
                models += m
                stable += s
    assert models > 2000 and 0 < stable < models


def test_search_agrees_on_definition_programs():
    rng = random.Random(23)
    universe = {"u": (1, 2)}
    stable = 0
    for _ in range(20):
        sig, f = random_definition_program(rng)
        base = FiniteInterpretation(sig, universe)
        # the intensional symbols, and strict subsets of them
        for c in (("f", "g", "p"), ("f",), ("g", "p")):
            stable += assert_search_agrees(
                f, c, enumerate_interpretations(sig, universe), base)[1]
    assert stable > 0


WATERTANK = (DEMOS / "watertank.fsm").read_text()
SWITCHES = (DEMOS / "switches.fsm").read_text()


@pytest.mark.parametrize("text, universe, c, models, stable", [
    (WATERTANK, {"amt": tuple(range(11))}, None, 132, 21),
    (SWITCHES, {}, None, 5, 4),
    (SWITCHES_2, {}, None, 25, 16),
    # c a strict subset of the intensional symbols
    (SWITCHES, {}, ("flip",), 5, 5),
    (SWITCHES, {}, ("up",), 5, 4),
], ids=["watertank", "switches", "switches-2", "switches-flip",
        "switches-up"])
def test_search_agrees_on_programs(text, universe, c, models, stable):
    f, intensional, sig, full = program(text, **universe)
    # 16 stable models with 4095 J each: the plain grounding would double
    # the enumeration without testing anything else
    got = assert_search_agrees(f, c or intensional,
                               enumerate_interpretations(sig, full),
                               FiniteInterpretation(sig, full),
                               plain=text is not SWITCHES_2)
    assert got == (models, stable)


def test_search_agrees_through_a_partial_function_outside_c():
    # h is partial and not in c, so h(a) is undefined for some a in c
    elements = (0, 1, 2)
    sig = edge_signature(elements)
    base = FiniteInterpretation(sig, {"u": elements})
    # p(h(a)) is stable where h(a) is defined, with p = {h(a)}
    formulas = list(GUARDS.values()) + [
        And(Equal(A, Lit(0)), Atom("p", (App("h", (A,)),)))]
    stable = 0
    for f in formulas:
        stable += assert_search_agrees(f, ("a", "p"),
                                       edge_interps(sig, elements), base)[1]
    assert stable > 0


# ---------------------------------------------------------------------------
# partial tables and one-element sorts

def partial_tank(amt1):
    f, c, sig, universe = demo("watertank.fsm", amt=tuple(range(6)))
    i = FiniteInterpretation(sig, universe,
                             funcs={"amt0": {(): 2}, "amt1": amt1},
                             preds={"flush": frozenset()})
    return f, c, i


def test_no_entry_in_a_c_table_differs_under_every_value():
    # I leaves amt1 undefined, so amt1 = 3 is false in I and the reduct of
    # the choice rule for amt0 = 2 holds in every J; and every J over amt1
    # differs from I, so each one is a smaller witness
    f, c, i = partial_tank({})
    red = reduct(ground(f, i, index=True), i)
    assert enumerated_witness_exists(red, i, c)
    j = smaller_witness(red, i, c)
    assert j is not None and less_on_c(j, i, c)
    assert not check_stable(f, c, i)
    f, c, i = partial_tank({(): 3})
    assert check_stable(f, c, i)


def test_search_agrees_on_partial_c_tables():
    sig, gen = make_gen(seed=3, with_unary_func=True)
    universe = {"u": (1, 2)}
    base = FiniteInterpretation(sig, universe)
    totals = list(vary_on(
        FiniteInterpretation(sig, universe, {}, {"q": frozenset()}),
        [n for n in sig.user_symbols() if n != "q"]))
    interps = []
    for i in totals:
        for dropped in ((1,), (2,)):
            funcs = dict(i.funcs)
            funcs["f"] = {k: v for k, v in i.funcs["f"].items()
                          if k != dropped}
            interps.append(FiniteInterpretation(sig, universe, funcs,
                                                i.preds))
    models = stable = 0
    for _ in range(20):
        f = gen.formula(depth=3)
        for c in (("f",), ("f", "p")):
            m, s = assert_search_agrees(f, c, interps, base)
            models += m
            stable += s
    # the reduct never reads f at the argument I leaves out, since f's
    # arguments are not in c, so J can fill it in: never stable
    assert models > 100 and stable == 0


def test_c_function_over_a_one_element_sort():
    sig = Signature()
    sig.declare_sort("one", (7,))
    sig.declare_sort("u", (0, 1))
    sig.declare_func("k", (), "one")
    sig.declare_func("h", ("u",), "one")
    sig.declare_pred("p", ("u",))
    universe = {"one": (7,), "u": (0, 1)}
    f = Forall(X, Implies(Atom("p", (X,)), Equal(App("h", (X,)), Lit(7))))
    full = {"k": {(): 7}, "h": {(0,): 7, (1,): 7}}
    for funcs, is_stable in (
            (full, True),
            # no second value: J can only differ where I has no entry
            ({"k": {}, "h": full["h"]}, False),
            ({"k": full["k"], "h": {(0,): 7}}, False)):
        i = FiniteInterpretation(sig, universe, funcs,
                                 {"p": frozenset({(0,)})})
        red = reduct(ground(f, i, index=True), i)
        assert enumerated_witness_exists(red, i, ("k", "h")) != is_stable
        assert (smaller_witness(red, i, ("k", "h")) is None) == is_stable
        assert check_stable(f, ("k", "h"), i) == is_stable


# ---------------------------------------------------------------------------
# the classical search against filtering every interpretation

def assert_searches_agree(f, c, sig, universe):
    """On both groundings the search finds the classical models that
    filtering finds, in the same order; and the reduct route, which runs on
    those, finds the stable models the second-order route finds."""
    base = FiniteInterpretation(sig, universe)
    for index in (False, True):
        g = ground(f, base, index=index)
        assert (searched_models(g, sig, universe)
                == generate_and_test(sig, universe,
                                     lambda i: gsat(i, g))), f
    assert (stable_models(f, c, sig, universe)
            == stable_models(f, c, sig, universe,
                             method="second-order")), (f, c)


FORMULA_CS = [("a", "p"), ("p",), ("a", "b"), ("q",), ("a", "b", "p", "q"),
              ("f",), ("f", "p")]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32), unary=st.booleans(),
       arith=st.booleans(), c=st.sampled_from(FORMULA_CS))
def test_classical_search_on_random_formulas(seed, unary, arith, c):
    # p is unary; with arith, a + 1 and f(b + 1) leave u = {1, 2}
    sig, gen = make_gen(seed, with_unary_func=unary, with_arith=arith)
    if "f" in c and not unary:
        c = ("a", "p")
    assert_searches_agree(gen.formula(depth=3), c, sig, {"u": (1, 2)})


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32),
       c=st.sampled_from([("f", "g", "p"), ("f",), ("g", "p")]))
def test_classical_search_on_definition_programs(seed, c):
    sig, f = random_definition_program(random.Random(seed))
    assert_searches_agree(f, c, sig, {"u": (1, 2)})


def test_classical_search_on_the_demos():
    for f, c, sig, universe in (
            demo("watertank.fsm", amt=tuple(range(6))),
            demo("switches.fsm"),
            program(SWITCHES_2)):
        g = ground(f, FiniteInterpretation(sig, universe), index=True)
        assert (searched_models(g, sig, universe)
                == generate_and_test(sig, universe, lambda i: gsat(i, g)))


# ---------------------------------------------------------------------------
# work per stable model

COUNT_EVALUATIONS = """
import json, sys
from fsmkit import stable
from fsmkit.parser import parse_program
from fsmkit.syntax import fol_representation

count = [0]
evaluate = stable._Search.evaluate
def counting(self, k):
    count[0] += 1
    return evaluate(self, k)
stable._Search.evaluate = counting

prog = parse_program(sys.stdin.read())
f, c = fol_representation(prog), prog.intensional
universe = dict(prog.universe)
problem = stable.Problem(f, c, prog.signature, universe)
models = stable.stable_models(f, c, prog.signature, universe)
total = count[0]
per_model = []
for m in models:
    count[0] = 0
    assert problem.check(m)
    per_model.append(count[0])
table = stable.Locations(prog.signature, universe)
print(json.dumps({"models": len(models), "total": total,
                  "locations": sum(len(table.span(n)) for n in c),
                  "per_model": per_model}))
"""


@functools.cache
def evaluation_counts(hash_seed):
    """Conjunct evaluations on the 2-pair switches program in a fresh
    interpreter under PYTHONHASHSEED=hash_seed: in the whole stable_models
    run, and in the witness search of each stable model."""
    proc = subprocess.run([sys.executable, "-c", COUNT_EVALUATIONS],
                          input=SWITCHES_2, capture_output=True, text=True,
                          env=fsmkit_env(PYTHONHASHSEED=hash_seed),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.mark.parametrize("hash_seed", ["1", "2", "3"])
def test_search_nodes_per_stable_model(hash_seed):
    # enumeration tries all 4095 J <^c I for each stable model; the search
    # evaluates a conjunct of the reduct a small multiple of the 12
    # locations times
    got = evaluation_counts(hash_seed)
    assert got["models"] == 16 and got["locations"] == 12
    assert max(got["per_model"]) <= 8 * got["locations"]


def test_search_work_does_not_depend_on_the_hash_seed():
    # ground conjunctions keep the order they were built in, and the
    # searches and gsat follow it, not the hash order of their sets
    counts = [evaluation_counts(str(seed)) for seed in range(5)]
    assert all(got == counts[0] for got in counts[1:]), counts


def switch_models(pairs):
    """Per pair (a, b), with a down and b up at time 0: either flip toggles
    both switches, and with no flip both stay.  The pairs do not interact,
    so there are 4 ** pairs models, as (flip, up) tables."""
    per_pair = []
    for k in range(1, pairs + 1):
        a, b = f"a{k}", f"b{k}"
        options = []
        for fa, fb in itertools.product((False, True), repeat=2):
            toggled = fa or fb
            options.append(({(a,): fa, (b,): fb},
                            {(a, 0): False, (b, 0): True,
                             (a, 1): toggled, (b, 1): not toggled}))
        per_pair.append(options)
    models = []
    for combo in itertools.product(*per_pair):
        flip, up = {}, {}
        for f, u in combo:
            flip.update(f)
            up.update(u)
        models.append((flip, up))
    return models


def test_three_pairs_of_switches(monkeypatch):
    # 2 ** 18 interpretations, 125 classical models, 64 stable ones.  The
    # pairs are three ground components, so stable_models checks the 5
    # classical models of each component: 15 witness searches, where the
    # whole program has 125 models.  Every check costs at most 8 conjunct
    # evaluations per location, the search included, and so does each
    # stable model's witness search on the whole program.
    evaluated = record_calls(monkeypatch, stable._Search, "evaluate")
    checked = record_calls(monkeypatch, stable, "smaller_witness")
    f, c, sig, universe = program(SWITCHES_3)
    models = stable_models(f, c, sig, universe)

    def tables(flip, up):
        return tuple(sorted(flip.items())), tuple(sorted(up.items()))

    assert len(models) == 64
    assert ({tables(m.funcs["flip"], m.funcs["up"]) for m in models}
            == {tables(*m) for m in switch_models(3)})
    table = stable.Locations(sig, universe)
    locations = sum(len(table.span(n)) for n in c)
    assert locations == 18 and len(checked) == 15
    assert len(evaluated) <= 8 * locations * len(checked)
    problem = stable.Problem(f, c, sig, universe)
    for m in models:
        evaluated.clear()
        assert problem.check(m)
        assert len(evaluated) <= 8 * locations


# ---------------------------------------------------------------------------
# arithmetic errors: the search evaluates in another order than gsat

def division_case(formula):
    """a and b in c over u = {0, 1}; I: a = b = 1, p = {1}."""
    sig = Signature()
    sig.declare_sort("u", (0, 1))
    sig.declare_func("a", (), "u")
    sig.declare_func("b", (), "u")
    sig.declare_pred("p", ("u",))
    i = FiniteInterpretation(sig, {"u": (0, 1)},
                             funcs={"a": {(): 1}, "b": {(): 1}},
                             preds={"p": frozenset({(1,)})})
    return formula, ("a", "b"), i


ONE_BY_A = Atom("p", (App("/", (Lit(1), A)),))
B = App("b", ())


def test_search_reaches_a_division_the_enumeration_stopped_before():
    # enumeration stops at its first J, a = b = 0, which falsifies b = 1;
    # the search gives b I's value first and then tries a = 0 under it
    f, c, i = division_case(Implies(Equal(B, Lit(1)), ONE_BY_A))
    red = reduct(ground(f, i), i)
    assert enumerated_witness_exists(red, i, c)
    with pytest.raises(EvaluationError):
        smaller_witness(red, i, c)
    with pytest.raises(EvaluationError):
        check_stable(f, c, i)


def test_search_skips_a_division_the_enumeration_reached():
    # enumeration's first J, a = b = 0, satisfies a = b and so divides by
    # zero; the search keeps a = 1, leaves b open and stops there, since
    # the reduct is true whatever b is
    f, c, i = division_case(Implies(Equal(A, B), ONE_BY_A))
    red = reduct(ground(f, i), i)
    with pytest.raises(EvaluationError):
        enumerated_witness_exists(red, i, c)
    j = smaller_witness(red, i, c)
    assert j.funcs == {"a": {(): 1}, "b": {(): 0}}
    assert not check_stable(f, c, i)



def test_choice_rule_skips_a_division_gsat_reaches():
    # {p(1/a)}: filtering with gsat divides by a = 0.  The search evaluates
    # a choice as gsat does, but a is open at the root, so p(1/a) is
    # unknown there and the choice is true: the search finds every
    # interpretation without dividing.  The stable-model check then runs
    # gsat on a = 0 and divides.
    f, c, i = division_case(Choice(ONE_BY_A))
    sig, universe = i.signature, i.universe
    g = ground(f, FiniteInterpretation(sig, universe), index=True)
    with pytest.raises(EvaluationError):
        generate_and_test(sig, universe, lambda i: gsat(i, g))
    assert (searched_models(g, sig, universe)
            == list(enumerate_interpretations(sig, universe)))
    with pytest.raises(EvaluationError):
        stable_models(f, ("p",), sig, universe)


def test_candidate_search_divides_where_gsat_short_circuits():
    # gsat meets a false conjunct before p(1/a) whenever a = 0.  The search
    # branches on a, which all three conjuncts read first; at a = 0 the
    # first two now wait for b, and the third divides by zero.
    a0, b0 = Equal(A, Lit(0)), Equal(B, Lit(0))
    f, c, i = division_case(And(And(Implies(And(a0, b0), BOT),
                                    Implies(a0, b0)), ONE_BY_A))
    sig, universe = i.signature, i.universe
    g = ground(f, FiniteInterpretation(sig, universe), index=True)
    assert generate_and_test(sig, universe, lambda i: gsat(i, g))
    with pytest.raises(EvaluationError):
        searched_models(g, sig, universe)
