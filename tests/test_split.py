"""The reduct route's split into independent ground components: the
component table, a differential test of the split route against the
second-order route on programs made of disjoint copies, and the work the
split saves on independent pairs of switches."""

import random

from hypothesis import Phase, given, settings, strategies as st

from fsmkit import stable
from fsmkit.interp import FiniteInterpretation
from fsmkit.stable import ground, stable_models
from fsmkit.syntax import BOT, And, Atom, Equal, Lit, Or, Signature
from conftest import (
    demo, disjoint_copies, make_gen, program, random_definition_program,
    record_calls, switches,
)


def component_table(f, sig, universe):
    """(conjuncts, positions) of each ground component of f's indexed
    grounding, over the locations of every user symbol."""
    g = ground(f, FiniteInterpretation(sig, universe), index=True)
    table = stable.Locations(sig, universe)
    return [(len(stable._conjuncts(h)), len(positions))
            for h, positions in stable._components(g, table,
                                                   sig.user_symbols())]


def test_two_pairs_of_switches_are_two_components():
    # 32 conjuncts, 20 of them GIndex; a GIndex body reads the locations
    # of the switch its env binds, so the pairs stay apart
    f, _, sig, universe = program(switches(2))
    assert component_table(f, sig, universe) == [(16, 6), (16, 6)]


def test_watertank_is_one_component():
    f, _, sig, universe = demo("watertank.fsm")
    assert component_table(f, sig, universe) == [(2, 3)]


def test_unread_locations_and_conjuncts_that_read_none():
    # p(1) is one component; 1 = 1 | false reads no location and is one
    # without positions; p(2), q(1) and q(2) are read by nothing and are
    # one component each
    sig = Signature()
    sig.declare_sort("u", (1, 2))
    sig.declare_pred("p", ("u",))
    sig.declare_pred("q", ("u",))
    f = And(Atom("p", (Lit(1),)), Or(Equal(Lit(1), Lit(1)), BOT))
    universe = {"u": (1, 2)}
    assert component_table(f, sig, universe) == [
        (1, 1), (1, 0), (0, 1), (0, 1), (0, 1)]
    for c in (("p", "q"), ("p",)):
        assert (stable_models(f, c, sig, universe)
                == stable_models(f, c, sig, universe,
                                 method="second-order"))
    models = stable_models(f, ("p", "q"), sig, universe)
    assert [(m.preds["p"], m.preds["q"]) for m in models] == [
        (frozenset({(1,)}), frozenset())]


UNREAD = [("pred", True), ("pred", False), ("func", True), ("func", False)]
#: each shrink step would run the second-order enumeration again, so a
#: failing example is reported as drawn
NO_SHRINK = [Phase.generate]


def with_stable_model(draw, c, sig):
    """The first of up to 20 formulas from draw() that has a stable model
    relative to c, else the last, so that most products are not empty."""
    universe = {"u": sig.sorts["u"].elements}
    for _ in range(20):
        f = draw()
        if stable_models(f, c, sig, universe, method="second-order"):
            break
    return f


def assert_split_agrees(f, c, sig):
    universe = {"u": sig.sorts["u"].elements}
    assert (stable_models(f, c, sig, universe)
            == stable_models(f, c, sig, universe, method="second-order")), \
        (f, c)


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(seed=st.integers(0, 2 ** 32), unary=st.booleans(),
       cs=st.lists(st.sampled_from([("a", "p"), ("p",), ("a", "b"), ("q",),
                                    ("a", "b", "p", "q")]),
                   min_size=2, max_size=2),
       unread=st.sampled_from(UNREAD))
def test_split_agrees_on_copies_of_random_formulas(seed, unary, cs, unread):
    # each copy declares only the symbols it mentions or c holds, which
    # keeps the second-order route's enumeration small
    sig, gen = make_gen(seed, with_unary_func=unary)
    formulas = [with_stable_model(lambda: gen.formula(depth=3), c, sig)
                for c in cs]
    assert_split_agrees(*disjoint_copies(sig, formulas, cs, unread))


@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(seed=st.integers(0, 2 ** 32),
       cs=st.lists(st.sampled_from([("f", "g", "p"), ("f",), ("g", "p")]),
                   min_size=2, max_size=3),
       unread=st.sampled_from(UNREAD))
def test_split_agrees_on_copies_of_definition_programs(seed, cs, unread):
    # two or three copies over u = {1, 2}: up to 2 ** 13 interpretations
    rng = random.Random(seed)
    sig = random_definition_program(rng)[0]
    formulas = [with_stable_model(lambda: random_definition_program(rng)[1],
                                  c, sig)
                for c in cs]
    assert_split_agrees(*disjoint_copies(sig, formulas, cs, unread))


def evaluations(pairs, monkeypatch):
    """Conjunct evaluations (_Search.evaluate) of stable_models on the
    switches program with the given number of pairs."""
    evaluated = record_calls(monkeypatch, stable._Search, "evaluate")
    f, c, sig, universe = program(switches(pairs))
    assert len(stable_models(f, c, sig, universe)) == 4 ** pairs
    monkeypatch.undo()
    return len(evaluated)


def test_evaluations_grow_linearly_with_the_pairs(monkeypatch):
    # each pair is one component with the same search, so twice the pairs
    # cost twice the evaluations (the whole program: 502 at 2 pairs,
    # 1,004 at 4)
    two, four = evaluations(2, monkeypatch), evaluations(4, monkeypatch)
    assert four <= 2.2 * two
