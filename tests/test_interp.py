"""Finite interpretations: evaluation, enumeration, ordering, JSON."""

import itertools
import re
from fractions import Fraction

import pytest

from fsmkit.interp import (
    DomainError, FiniteInterpretation, InterpretationError, Locations,
    count_assignments, enumerate_interpretations, eval_term, less_on_c,
    satisfies, vary_on,
)
from fsmkit.parser import parse_program
from fsmkit.stable import classical_models, stable_models
from fsmkit.syntax import (
    BOT, TAG_USER, App, Atom, Equal, Exists, Forall, FsmError, Lit, Not, Var,
    as_clist,
)
from conftest import (
    DEMOS, definition_signature, demo, record_calls, small_signature,
)


def make_interp(sig, a=1, b=2, p=(1,), q=False):
    return FiniteInterpretation(
        sig, {"u": (1, 2)},
        funcs={"a": {(): a}, "b": {(): b}},
        preds={"p": frozenset((v,) for v in p), "q": frozenset([()] if q else [])})


def test_eval_term_and_satisfies():
    sig = small_signature()
    i = make_interp(sig)
    assert eval_term(i, App("a", ())) == 1
    assert satisfies(i, Equal(App("a", ()), Lit(1)))
    assert satisfies(i, Atom("p", (App("a", ()),)))
    assert not satisfies(i, Atom("q", ()))
    assert satisfies(i, Not(Atom("q", ())))


def test_satisfies_quantifiers():
    sig = small_signature()
    i = make_interp(sig, p=(1, 2))
    x = Var("X", "u")
    assert satisfies(i, Forall(x, Atom("p", (x,))))
    assert satisfies(i, Exists(x, Equal(App("b", ()), x)))
    j = make_interp(sig, p=(1,))
    assert not satisfies(j, Forall(x, Atom("p", (x,))))


def test_arithmetic_evaluation():
    sig = small_signature()
    i = make_interp(sig)
    t = App("+", (App("a", ()), App("b", ())))
    assert eval_term(i, t) == 3
    half = App("/", (Lit(1), Lit(2)))
    assert eval_term(i, half) == Fraction(1, 2)


def test_count_assignments_and_enumeration():
    sig = small_signature()
    universe = {"u": (1, 2)}
    assert count_assignments(universe, sig, "a") == 2
    assert count_assignments(universe, sig, "p") == 4
    interps = list(enumerate_interpretations(sig, universe))
    # 2 choices each for a and b, 4 for p, 2 for q
    assert len(interps) == 2 * 2 * 4 * 2
    assert len({(i.funcs["a"][()], i.funcs["b"][()],
                 tuple(sorted(i.preds["p"])), tuple(sorted(i.preds["q"])))
                for i in interps}) == len(interps)


def test_enumeration_with_fixed_parts():
    sig = small_signature()
    interps = list(vary_on(FiniteInterpretation(
        sig, {"u": (1, 2)}, {"a": {(): 1}, "b": {(): 2}},
        {"q": frozenset()}), ["p"]))
    assert len(interps) == 4
    assert all(i.funcs["a"][()] == 1 for i in interps)


def test_vary_on_keeps_the_rest():
    sig = small_signature()
    i = make_interp(sig)
    variants = list(vary_on(i, ["a"]))
    assert len(variants) == 2
    assert all(v.funcs["b"] == i.funcs["b"] and v.preds["p"] == i.preds["p"]
               for v in variants)


def test_less_on_c_ordering():
    sig = small_signature()
    c = as_clist(("a", "p"))
    i = make_interp(sig, p=(1, 2))
    smaller = make_interp(sig, p=(1,))
    assert less_on_c(smaller, i, c)
    assert not less_on_c(i, i, c)
    # functions listed in c may change freely; that alone makes J smaller
    other = make_interp(sig, a=2, p=(1, 2))
    assert less_on_c(other, i, c)
    # but a change outside c disqualifies
    outside = make_interp(sig, b=1, p=(1,))
    assert not less_on_c(outside, i, c)


def test_less_on_c_reads_a_left_out_sort_as_its_declared_extent():
    # J's universe leaves out the sort amt, I's lists it: the two universes
    # give amt the same extent, so they are compared as equal ones
    f, c, sig, universe = demo("watertank.fsm")
    i = next(m for m in stable_models(f, c, sig, universe)
             if m.funcs["amt1"][()] > 0)
    j = FiniteInterpretation(sig, {}, {**i.funcs, "amt1": {(): 0}},
                             dict(i.preds))
    assert less_on_c(j, i, c)
    with pytest.raises(FsmError, match="mismatched universes"):
        less_on_c(j, FiniteInterpretation(sig, {"amt": (0, 1)},
                                          dict(i.funcs), dict(i.preds)), c)


def test_agrees_on():
    sig = small_signature()
    i = make_interp(sig)
    j = make_interp(sig, p=())
    assert i.agrees_on(j, ("a", "b", "q"))
    assert not i.agrees_on(j, ("p",))


def test_out_of_domain_application_is_never_equal():
    sig = small_signature(with_unary_func=True)
    i = FiniteInterpretation(
        sig, {"u": (1, 2)},
        funcs={"a": {(): 1}, "b": {(): 2}, "f": {(1,): 1}},
        preds={"p": frozenset(), "q": frozenset()})
    from fsmkit.interp import UNDEF
    assert eval_term(i, App("f", (Lit(2),))) is UNDEF
    assert not satisfies(i, Equal(App("f", (Lit(2),)), Lit(1)))
    assert satisfies(i, Not(Equal(App("f", (Lit(2),)), Lit(1))))


def test_json_round_trip_with_fractions():
    sig = small_signature()
    i = make_interp(sig)
    data = i.to_json()
    back = FiniteInterpretation.from_json(data, sig)
    assert back == i
    sig2 = small_signature(elements=(Fraction(1, 2), Fraction(3, 2)))
    j = FiniteInterpretation(
        sig2, {"u": (Fraction(1, 2), Fraction(3, 2))},
        funcs={"a": {(): Fraction(1, 2)}, "b": {(): Fraction(3, 2)}},
        preds={"p": frozenset(), "q": frozenset()})
    assert FiniteInterpretation.from_json(j.to_json(), sig2) == j


@pytest.mark.parametrize("elements, rows", [
    (("a", 0), [[0], ["a"]]),
    ((0, "a"), [[0], ["a"]]),
    ((Fraction(1, 2), 2), [[{"rat": [1, 2]}], [2]]),
    (("b", Fraction(3, 2), 1), [[1], [{"rat": [3, 2]}], ["b"]]),
])
def test_json_writes_and_reads_the_rows_of_any_sort(elements, rows):
    # a row of names and numbers once could not be sorted, and a Fraction
    # in a row not be written; numbers come first, in value order, and
    # names after them
    sig = small_signature(elements=elements)
    i = FiniteInterpretation(
        sig, {"u": elements},
        funcs={"a": {(): elements[0]}, "b": {(): elements[1]}},
        preds={"p": frozenset((e,) for e in elements), "q": frozenset()})
    assert i.to_json()["preds"]["p"] == rows
    assert FiniteInterpretation.from_json(i.to_json(), sig) == i


def test_from_json_validates_against_signature_and_universe():
    sig = small_signature(with_unary_func=True)
    i = FiniteInterpretation(
        sig, {"u": (1, 2)},
        funcs={"a": {(): 1}, "b": {(): 2}, "f": {(1,): 2}},
        preds={"p": frozenset({(2,)}), "q": frozenset()})
    # a partial table is legal: f(2) reads as undefined
    assert FiniteInterpretation.from_json(i.to_json(), sig) == i
    for edit, message in [
            (lambda d: d["funcs"]["f"].update({"3": 1}), "f(3): 3 is outside"),
            (lambda d: d["funcs"]["a"].update({"": 3}), "value of a(): 3"),
            (lambda d: d["preds"]["p"].append([3]), "p(3): 3 is outside"),
            (lambda d: d["preds"]["q"].append([1]), "q(1): 1 arguments"),
            (lambda d: d["preds"].pop("q"), "symbol 'q' missing"),
            (lambda d: d["preds"].update({"r": []}), "undeclared predicate"),
            (lambda d: d["preds"].update({"q": 5}), "malformed"),
            (lambda d: d["funcs"].update({"a": [[[], 1]]}), "malformed"),
            (lambda d: d["funcs"]["a"].update({"": {"rat": [1, 0]}}),
             "malformed")]:
        data = i.to_json()
        edit(data)
        with pytest.raises(InterpretationError, match=re.escape(message)):
            FiniteInterpretation.from_json(data, sig)


# ---------------------------------------------------------------------------
# lazy enumeration

def materialized_enumeration(sig, universe, fixed_funcs=None,
                             fixed_preds=None, vary=None):
    """enumerate_interpretations as first written: itertools.product over
    the full list of every varied symbol's assignments, each listed by its
    own product over the symbol's argument tuples.  Reference for the
    order of the lazy one."""
    fixed_funcs = dict(fixed_funcs or {})
    fixed_preds = {k: frozenset(v) for k, v in (fixed_preds or {}).items()}
    if vary is None:
        vary = [n for n in list(sig.functions) + list(sig.predicates)
                if sig.background.get(n, TAG_USER) == TAG_USER
                and n not in fixed_funcs and n not in fixed_preds]
    choice_iters = []
    for n in vary:
        if n in sig.functions:
            argsorts, valsort = sig.functions[n]
            domain = list(itertools.product(*[universe[s] for s in argsorts]))
            choice_iters.append(
                [(n, "f", dict(zip(domain, combo))) for combo in
                 itertools.product(universe[valsort], repeat=len(domain))])
        else:
            domain = list(itertools.product(
                *[universe[s] for s in sig.predicates[n]]))
            choice_iters.append(
                [(n, "p", frozenset(t for t, b in zip(domain, bits) if b))
                 for bits in itertools.product([False, True],
                                               repeat=len(domain))])
    for combo in itertools.product(*choice_iters):
        funcs = dict(fixed_funcs)
        preds = dict(fixed_preds)
        for n, kind, a in combo:
            (funcs if kind == "f" else preds)[n] = a
        yield FiniteInterpretation(sig, universe, funcs, preds)


def enumeration_cases():
    yield small_signature(), {"u": (1, 2)}
    yield small_signature((1, 2, 3), with_unary_func=True), {"u": (1, 2, 3)}
    yield definition_signature(), {"u": (1, 2)}
    for name, universe in (("watertank.fsm", {"amt": tuple(range(5))}),
                           ("switches.fsm", {})):
        program = parse_program((DEMOS / name).read_text())
        yield program.signature, dict(program.universe, **universe)


@pytest.mark.parametrize("sig, universe", list(enumeration_cases()))
def test_lazy_enumeration_keeps_the_order(sig, universe):
    got = list(enumerate_interpretations(sig, universe))
    assert got and got == list(materialized_enumeration(sig, universe))
    # and with a fixed part and an explicit vary, as vary_on calls it
    first = got[len(got) // 2]
    names = sorted(first.funcs)[:1] + sorted(first.preds)[-1:]
    fixed_funcs = {k: v for k, v in first.funcs.items() if k not in names}
    fixed_preds = {k: v for k, v in first.preds.items() if k not in names}
    assert list(vary_on(first, names)) == list(materialized_enumeration(
        sig, universe, fixed_funcs, fixed_preds, vary=names))


def test_lazy_enumeration_builds_nothing_ahead(monkeypatch):
    # f : u -> u over 3 elements has 27 tables, a 3 of them, p 8 extents:
    # the first interpretation is decoded once from its locations
    made = record_calls(monkeypatch, Locations, "interpretation")
    sig = small_signature((1, 2, 3), with_unary_func=True)
    first = next(enumerate_interpretations(sig, {"u": (1, 2, 3)}))
    assert first.funcs == {"a": {(): 1}, "b": {(): 1},
                           "f": {(1,): 1, (2,): 1, (3,): 1}}
    assert len(made) == 1


@pytest.mark.parametrize("enumerator", [
    lambda sig, universe: enumerate_interpretations(sig, universe),
    lambda sig, universe: vary_on(FiniteInterpretation(
        sig, universe, {"a": {}, "b": {}},
        {"p": frozenset(), "q": frozenset()}), ["a"]),
    lambda sig, universe: classical_models(BOT, sig, universe),
], ids=["enumerate_interpretations", "vary_on", "classical_models"])
def test_an_empty_sort_is_refused_before_any_work(enumerator):
    with pytest.raises(DomainError, match="empty extent for sort 'u'"):
        next(enumerator(small_signature(), {"u": ()}))


@pytest.mark.parametrize("enumerator", [
    lambda sig, universe: enumerate_interpretations(sig, universe),
    lambda sig, universe: classical_models(BOT, sig, universe),
], ids=["enumerate_interpretations", "classical_models"])
def test_an_extent_that_lists_an_element_twice_is_refused(enumerator):
    # by type and value: 1 and Fraction(1) are == but both may be listed
    list(enumerator(small_signature(), {"u": (1, Fraction(1))}))
    with pytest.raises(DomainError, match="sort 'u' lists the element 1 "
                                          "twice"):
        next(enumerator(small_signature(), {"u": (1, 2, 1)}))


def test_enumerating_an_unknown_symbol_is_refused():
    with pytest.raises(FsmError, match="unknown symbol 'nope'"):
        next(vary_on(FiniteInterpretation(small_signature(), {"u": (1, 2)}),
                     ["nope"]))
