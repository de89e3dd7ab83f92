"""The smaller-witness search of the reduct route: differential tests against
enumerating every J <^c I, the edge cases of partial tables and one-element
sorts, the work it does per stable model, and where its evaluation order
differs from gsat's on arithmetic errors."""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from fsmkit.interp import (
    EvaluationError, FiniteInterpretation, enumerate_interpretations,
    less_on_c,
)
from fsmkit.parser import parse_program
from fsmkit.stable import (
    check_stable, ground, gsat, reduct, smaller_witness, witnesses,
)
from fsmkit.syntax import (
    And, App, Atom, Equal, Forall, Implies, Lit, Signature,
    fol_representation,
)
from conftest import make_gen, random_definition_program
from test_index import GUARDS, X, A, edge_interps, edge_signature

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

#: the switches demo generalised to two independent pairs: 4096
#: candidates, 16 stable models
SWITCHES_2 = """\
sort switch = {a1, b1, a2, b2}.
sort tm = 0..1.
var S : switch.
var X : bool.
var Y : bool.
func up : switch * tm -> bool.
func flip : switch -> bool.
intensional up, flip.

up(S, 1) = X :- up(S, 0) = Y & flip(S) = true & X != Y.
{ up(S, 1) = X } :- up(S, 0) = X.
{ flip(S) = X }.
up(a1, 1) = X :- up(b1, 1) = Y & X != Y.
up(b1, 1) = X :- up(a1, 1) = Y & X != Y.
up(a2, 1) = X :- up(b2, 1) = Y & X != Y.
up(b2, 1) = X :- up(a2, 1) = Y & X != Y.
up(a1, 0) = false.
up(b1, 0) = true.
up(a2, 0) = false.
up(b2, 0) = true.
"""


def enumerated_witness_exists(red, i, c):
    """The reduct route's witness test before the search: try every J <^c I
    in the order witnesses yields them."""
    return any(gsat(j, red) for j in witnesses(i, c))


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


def program(text, **universe):
    prog = parse_program(text)
    full = dict(prog.universe, **universe)
    return (fol_representation(prog), prog.intensional, prog.signature,
            full)


def demo(name, **universe):
    return program((DEMOS / name).read_text(), **universe)


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
    totals = list(enumerate_interpretations(sig, universe,
                                            fixed_preds={"q": frozenset()}))
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
# work per stable model

COUNT_NODES = """
import json, sys
from fsmkit import stable
from fsmkit.parser import parse_program
from fsmkit.syntax import fol_representation

nodes = [0]
evaluate = stable._PartialJ.evaluate
def counting(self, red):
    nodes[0] += 1
    return evaluate(self, red)
stable._PartialJ.evaluate = counting

prog = parse_program(sys.stdin.read())
f, c = fol_representation(prog), prog.intensional
shared = stable.prepare(f, c, prog.signature, dict(prog.universe))
models = stable.stable_models(f, c, prog.signature, dict(prog.universe))
per_model = []
for m in models:
    nodes[0] = 0
    assert stable.check_stable(f, c, m, **shared)
    per_model.append(nodes[0])
locations = len(stable._PartialJ(models[0], c).base)
print(json.dumps({"models": len(models), "locations": locations,
                  "per_model": per_model}))
"""


@pytest.mark.parametrize("hash_seed", ["1", "2", "3"])
def test_search_nodes_per_stable_model(hash_seed):
    # enumeration tries all 4095 J <^c I for each stable model; the search
    # evaluates the reduct a small multiple of the 12 locations times.  The
    # branching order follows the hash order of the ground conjunctions.
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", COUNT_NODES],
                          input=SWITCHES_2, capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    assert got["models"] == 16 and got["locations"] == 12
    assert max(got["per_model"]) <= 8 * got["locations"]


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

