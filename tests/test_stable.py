"""Stable-model checking: grounding, reducts, the second-order route, and
agreement between the two methods on random inputs."""

import random

import pytest

from fsmkit import stable
from fsmkit.interp import (
    FiniteInterpretation, enumerate_interpretations, less_on_c, satisfies,
    vary_on,
)
from fsmkit.stable import (
    GAnd, GOr, METHOD_BOTH, METHOD_REDUCT, METHOD_SECOND_ORDER, Problem,
    check_stable, check_stable_both, gand, gor, ground, gsat,
    mvp_stable_check, reduct, stable_models, witnesses,
)
from fsmkit.syntax import (
    And, App, Atom, BOT, Bottom, Choice, Equal, Exists, Forall, FsmError,
    Implies, Lit, Not, Or, Signature, TOP, Var, conj,
)
from conftest import (
    demo, generate_and_test, make_gen, random_definition_program,
    record_calls, small_signature,
)


def prop_sig():
    sig = Signature()
    sig.declare_pred("p", ())
    sig.declare_pred("q", ())
    return sig


def prop_interp(sig, true_atoms):
    return FiniteInterpretation(
        sig, {}, preds={n: frozenset([()] if n in true_atoms else [])
                        for n in sig.predicates})


def test_ground_and_gsat_match_satisfies():
    sig = small_signature()
    i = FiniteInterpretation(
        sig, {"u": (1, 2)}, funcs={"a": {(): 1}, "b": {(): 2}},
        preds={"p": frozenset({(1,)}), "q": frozenset()})
    x = Var("X", "u")
    f = Forall(x, Implies(Atom("p", (x,)), Equal(App("a", ()), x)))
    assert gsat(i, ground(f, i))
    g = Exists(x, And(Atom("p", (x,)), Equal(App("b", ()), x)))
    assert not gsat(i, ground(g, i))


def test_reduct_removes_false_parts():
    sig = prop_sig()
    i = prop_interp(sig, {"p"})
    g = ground(And(Or(Atom("p", ()), Atom("q", ())),
                   Implies(Atom("q", ()), Atom("p", ()))), i)
    r = reduct(g, i)
    assert gsat(i, r)
    # q is false in i, so its occurrences collapse to falsum
    j = prop_interp(sig, set())
    assert not gsat(j, ground(Atom("p", ()), i))


def test_propositional_stable_basics():
    sig = prop_sig()
    p, q = Atom("p", ()), Atom("q", ())
    both = prop_interp(sig, {"p", "q"})
    none = prop_interp(sig, set())
    only_p = prop_interp(sig, {"p"})
    c = ("p", "q")
    # p alone: the minimal model is {p}
    f = And(p, Implies(q, q))
    assert check_stable_both(f, c, only_p)
    assert not check_stable_both(f, c, both)
    # p <- not q: {p} stable, {q} not
    g = Implies(Not(q), p)
    assert check_stable_both(g, c, only_p)
    assert not check_stable_both(g, c, prop_interp(sig, {"q"}))
    assert not check_stable_both(g, c, none)


def test_choice_rule_gives_both_answers():
    sig = prop_sig()
    p = Atom("p", ())
    c = ("p",)
    f = Choice(p)
    assert check_stable_both(f, c, prop_interp(sig, {"p"}))
    assert check_stable_both(f, c, prop_interp(sig, set()))


def test_known_functional_model():
    # f = 1 | f = g has only the rigid default model under minimization
    sig = Signature()
    sig.declare_sort("s", (1, 2))
    sig.declare_func("f", (), "s")
    sig.declare_func("g", (), "s")
    f_t, g_t = App("f", ()), App("g", ())
    formula = Or(Equal(f_t, Lit(1)), Equal(f_t, g_t))
    models = stable_models(formula, ("f", "g"), sig, {"s": (1, 2)})
    seen = {(m.funcs["f"][()], m.funcs["g"][()]) for m in models}
    for fv, gv in seen:
        assert fv == 1 or fv == gv


def test_stable_models_returns_full_interpretations():
    sig = prop_sig()
    f = Implies(Not(Atom("q", ())), Atom("p", ()))
    models = stable_models(f, ("p", "q"), sig, {})
    assert [sorted(m.preds["p"]) for m in models] == [[()]]


def test_methods_agree_on_random_formulas():
    sig, gen = make_gen(seed=7)
    universe = {"u": (1, 2)}
    checked = 0
    for _ in range(60):
        f = gen.formula(depth=3)
        for i in enumerate_interpretations(sig, universe):
            r = check_stable(f, ("a", "p"), i, METHOD_REDUCT)
            s = check_stable(f, ("a", "p"), i, METHOD_SECOND_ORDER)
            assert r == s, f"divergence on {f!r}"
            checked += 1
    assert checked >= 60 * 32


def test_check_stable_both_raises_nothing_on_agreement():
    sig = prop_sig()
    i = prop_interp(sig, {"p"})
    assert check_stable_both(And(Atom("p", ()), TOP), ("p", "q"), i) in (True, False)


def test_mvp_checks():
    # the multi-valued propositional view over explicit domains
    f = Equal(App("f", ()), Lit(1))
    domains = {"f": (1, 2)}
    assert mvp_stable_check(f, {"f": 1}, domains)
    assert not mvp_stable_check(f, {"f": 2}, domains)
    # choice over every value makes any assignment stable
    choice = conj(Choice(Equal(App("f", ()), Lit(v))) for v in (1, 2))
    assert mvp_stable_check(choice, {"f": 1}, domains)
    assert mvp_stable_check(choice, {"f": 2}, domains)
    # but a choice on a single atom only supports that value
    single = Choice(Equal(App("f", ()), Lit(1)))
    assert mvp_stable_check(single, {"f": 1}, domains)
    assert not mvp_stable_check(single, {"f": 2}, domains)


def test_mvp_agrees_with_interpretation_route():
    sig = Signature()
    sig.declare_sort("s", (1, 2))
    sig.declare_func("f", (), "s")
    formula = Or(Equal(App("f", ()), Lit(1)),
                 Not(Not(Equal(App("f", ()), Lit(2)))))
    for v in (1, 2):
        i = FiniteInterpretation(sig, {"s": (1, 2)}, funcs={"f": {(): v}})
        assert (mvp_stable_check(formula, {"f": v}, {"f": (1, 2)})
                == check_stable_both(formula, ("f",), i))


# ---------------------------------------------------------------------------
# ground once per universe, single-pass reduct

def two_pass_reduct(g, interp):
    """The reduct as first defined: test each implication with gsat, then
    reduce its sides again.  Reference for the single-pass reduct."""
    if isinstance(g, Bottom):
        return BOT
    if isinstance(g, (Atom, Equal)):
        return g if gsat(interp, g) else BOT
    if isinstance(g, GAnd):
        return gand(two_pass_reduct(m, interp) for m in g.members)
    if isinstance(g, GOr):
        return gor(two_pass_reduct(m, interp) for m in g.members)
    if isinstance(g, Implies):
        if not gsat(interp, g):
            return BOT
        return Implies(two_pass_reduct(g.left, interp),
                       two_pass_reduct(g.right, interp))
    raise TypeError(g)


def assert_reduct_matches_reference(f, sig, universe):
    """One grounding serves every candidate, and the single-pass reduct of it
    equals the reference; returns the number of candidates compared."""
    g = ground(f, FiniteInterpretation(sig, universe))
    n = 0
    for i in enumerate_interpretations(sig, universe):
        assert ground(f, i) == g
        assert reduct(g, i) == two_pass_reduct(g, i), f"{f!r} under {i.to_json()}"
        n += 1
    return n


def test_single_pass_reduct_matches_two_pass_on_demos():
    f, _, sig, universe = demo("watertank.fsm", amt=tuple(range(11)))
    assert assert_reduct_matches_reference(f, sig, universe) == 242
    f, _, sig, universe = demo("switches.fsm")
    assert assert_reduct_matches_reference(f, sig, universe) == 64


@pytest.mark.parametrize("name", ["watertank.fsm", "switches.fsm"])
@pytest.mark.parametrize("method", [METHOD_REDUCT, METHOD_SECOND_ORDER])
def test_a_universe_that_leaves_out_a_sort_reads_its_declared_extent(
        name, method):
    # the models over {} are those over the declared extents, and compare
    # equal to them although their universes are written {}
    f, c, sig, universe = demo(name)
    models = stable_models(f, c, sig, {}, method=method)
    assert [m.universe for m in models] == [{}] * len(models)
    assert models == stable_models(f, c, sig, universe, method=method)
    assert models


def test_single_pass_reduct_matches_two_pass_on_random_formulas():
    for seed in range(3):
        sig, gen = make_gen(seed=seed, with_unary_func=seed == 2)
        for _ in range(20):
            assert_reduct_matches_reference(gen.formula(depth=3), sig,
                                            {"u": (1, 2)})
    rng = random.Random(11)
    for _ in range(20):
        sig, f = random_definition_program(rng)
        assert_reduct_matches_reference(f, sig, {"u": (1, 2)})


def test_stable_models_with_shared_grounding_matches_per_candidate_checks():
    universe = {"u": (1, 2)}
    cases = []
    sig, gen = make_gen(seed=5)
    cases += [(gen.formula(depth=3), ("a", "p"), sig) for _ in range(25)]
    rng = random.Random(13)
    for _ in range(15):
        sig, f = random_definition_program(rng)
        cases.append((f, ("f", "g", "p"), sig))
    found = 0
    for f, c, sig in cases:
        expected = generate_and_test(
            sig, universe, lambda i: check_stable(f, c, i, METHOD_REDUCT))
        assert expected == generate_and_test(
            sig, universe,
            lambda i: check_stable(f, c, i, METHOD_SECOND_ORDER))
        for method in (METHOD_REDUCT, METHOD_SECOND_ORDER, METHOD_BOTH):
            assert stable_models(f, c, sig, universe, method=method) == expected
        found += len(expected)
    assert found > 0


def test_check_stable_uses_a_given_grounding():
    # every check of one Problem reads the grounding it built once, and
    # gives the verdict of a check that grounds F afresh
    f, _, sig, universe = demo("watertank.fsm", amt=tuple(range(4)))
    problem = Problem(f, ("amt1",), sig, universe)
    for i in enumerate_interpretations(sig, universe):
        assert (problem.check(i) == check_stable(f, ("amt1",), i)
                == problem.check(i, METHOD_BOTH))


def test_one_problem_grounds_f_and_its_star_once(monkeypatch):
    # watertank at amt=0..3: each of the 32 interpretations checked both
    # ways against one Problem, which grounds F once and F* once, and its
    # stable models afterwards reuse the grounding of F
    f, _, sig, universe = demo("watertank.fsm", amt=tuple(range(4)))
    interps = list(enumerate_interpretations(sig, universe))
    expected = [check_stable_both(f, ("amt1",), i) for i in interps]
    assert len(interps) == 32 and any(expected)
    grounded = record_calls(monkeypatch, stable, "ground")
    problem = Problem(f, ("amt1",), sig, universe)
    assert [problem.check(i, METHOD_BOTH) for i in interps] == expected
    assert len(grounded) == 2 and grounded[0][0] is f
    assert problem.models() == [i for i, v in zip(interps, expected) if v]
    assert len(grounded) == 2


def test_a_second_order_check_of_a_non_model_builds_no_star(monkeypatch):
    f, _, sig, universe = demo("watertank.fsm", amt=tuple(range(4)))
    starred = record_calls(monkeypatch, stable, "star")
    problem = Problem(f, ("amt1",), sig, universe)
    i = next(i for i in enumerate_interpretations(sig, universe)
             if not satisfies(i, f))
    assert not problem.check(i, METHOD_SECOND_ORDER)
    assert starred == []


def test_ground_rejects_free_variable_under_a_quantifier():
    sig = small_signature()
    i = FiniteInterpretation(sig, {"u": (1, 2)})
    f = Forall(Var("X", "u"), Atom("p", (Var("Y", "u"),)))
    with pytest.raises(FsmError, match="free variables"):
        ground(f, i)
    with pytest.raises(FsmError, match="free variables"):
        stable_models(f, ("p",), sig, {"u": (1, 2)})


def test_witnesses_with_and_without_the_subset_order():
    # with a predicate in c, J <^c I also needs p's extent to shrink; the
    # unordered witnesses only need J to differ from I on c
    sig = small_signature()
    i = FiniteInterpretation(sig, {"u": (1, 2)},
                             funcs={"a": {(): 1}, "b": {(): 2}},
                             preds={"p": {(1,)}, "q": set()})
    c = ["p", "a"]
    differ = [j for j in vary_on(i, c) if not j.agrees_on(i, c)]
    assert list(witnesses(i, c, ordered=False)) == differ
    assert list(witnesses(i, c)) == [j for j in differ if less_on_c(j, i, c)]
    assert len(differ) == 4 * 2 - 1
    assert len(list(witnesses(i, c))) == 2 * 2 - 1
