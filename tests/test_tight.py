"""The support of the reduct route and the guard index for an
existential: stable_models against generate-and-test (check_stable over
every interpretation) on tight programs and on programs with positive
cycles, the conditions under which no support is built, the existential
index against the plain grounding, and the work the support saves."""

import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from fsmkit import stable
from fsmkit.interp import FiniteInterpretation, enumerate_interpretations
from fsmkit.parser import parse_program
from fsmkit.stable import (
    METHOD_BOTH, GIndex, GOr, Problem, _guard, ground, gsat, stable_models,
    support,
)
from fsmkit.syntax import (
    And, App, Atom, Equal, Exists, Implies, Lit, Not, Or, Var,
    fol_representation,
)
from conftest import (
    A, CYCLES, EQUAL_ELEMENTS, INTS, SWITCHES_2, X, assert_index_agrees,
    assert_star_index_agrees, demo, disjoint_copies, edge_interps,
    edge_signature, generate_and_test, loops, make_gen, program,
    random_choice_program, random_cyclic_program, record_calls, ring,
    searched_models,
)


def assert_tight_path(f, c, sig, universe, taken=True):
    """stable_models equals generate-and-test, as a list, and the tight
    path is taken (or not) as expected.  Returns the models."""
    assert (support(f, c, sig, universe) is not None) == taken
    models = stable_models(f, c, sig, universe)
    problem = Problem(f, c, sig, universe)
    assert models == generate_and_test(sig, universe, problem.check), (f, c)
    return models


# ---------------------------------------------------------------------------
# the tight path against generate-and-test

#: the intensional symbols of each copy: all of them, or a subset as with
#: --relative-to
COPY_CS = [("f", "g", "p"), ("f",), ("g", "p"), ("f", "p")]


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate])
@given(seed=st.integers(0, 2 ** 32),
       cs=st.lists(st.sampled_from(COPY_CS), min_size=2, max_size=2),
       unread=st.sampled_from([("pred", True), ("pred", False),
                               ("func", False)]))
def test_tight_path_on_copies_of_choice_programs(seed, cs, unread):
    # choice rules and defaults, two disjoint copies (two or more ground
    # components), and r, which no rule reads
    rng = random.Random(seed)
    sig = random_choice_program(rng)[0]
    formulas = [random_choice_program(rng)[1] for _ in cs]
    f, c, sig = disjoint_copies(sig, formulas, cs, unread)
    universe = {"u": sig.sorts["u"].elements}
    table = stable.Locations(sig, universe)
    g = ground(f, FiniteInterpretation(sig, universe), index=True)
    assert len(stable._components(g, table, sig.user_symbols())) >= 2
    assert_tight_path(f, c, sig, universe)


def test_tight_path_finds_stable_models_of_choice_programs():
    # most choice programs have several stable models, so the lists
    # compared above are not all empty
    found = 0
    for seed in range(12):
        sig, f = random_choice_program(random.Random(seed))
        for c in COPY_CS:
            found += len(assert_tight_path(f, c, sig, {"u": (1, 2)}))
    assert found >= 60


def test_tight_path_on_the_watertank():
    f, c, sig, universe = demo("watertank.fsm", amt=tuple(range(8)))
    models = assert_tight_path(f, c, sig, universe)
    assert len(models) == 2 * 7 + 1
    assert len([m for m in models if m.funcs["amt0"] == {(): 3}]) == 2


#: out(H, n1) has a head variable over the subsort hub, out(N, n1) one over
#: node itself: the support binds N to the argument, but not H, which n3
#: is no value of
HUBS = """\
sort node = {n1, n2, n3}.
sort hub = {n1, n2}.
sort hub < node.
var N : node.
var H : hub.
var X : bool.
func inp : node -> bool.
func out : node * node -> bool.
intensional inp, out.

{ inp(N) = X }.
out(H, n1) = X :- inp(H) = X.
out(N, n1) = false :- inp(N) = false.
out(N, n2) = true.
out(N, n3) = X :- inp(N) = X.
"""


def test_tight_path_with_a_head_variable_over_a_subsort():
    f, c, sig, universe = program(HUBS)
    assert support(f, c, sig, universe)[1]
    assert len(assert_tight_path(f, c, sig, universe)) == 4


# ---------------------------------------------------------------------------
# programs that are not tight: supported candidates, each checked in full

#: the intensional symbols: all of them, so that the cycle counts, or a
#: subset, which may cut it
CYCLIC_CS = [("f", "g", "p"), ("f", "p"), ("g", "p"), ("p",), ("f", "g")]


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate])
@given(seed=st.integers(0, 2 ** 32), cycle=st.sampled_from(CYCLES),
       c=st.sampled_from(CYCLIC_CS))
def test_supported_candidates_on_programs_with_positive_cycles(seed, cycle,
                                                                c):
    # generate-and-test with both checkers, against the search of F and its
    # support, which checks every candidate in full when the Clark normal
    # form is not tight
    sig, f = random_cyclic_program(random.Random(seed), cycle=cycle)
    universe = {"u": (1, 2)}
    if c == CYCLIC_CS[0]:
        assert not support(f, c, sig, universe)[1]
    problem = Problem(f, c, sig, universe)
    expected = generate_and_test(sig, universe,
                                 lambda i: problem.check(i, METHOD_BOTH))
    assert stable_models(f, c, sig, universe) == expected, (f, c)


def test_the_support_prunes_programs_with_positive_cycles(monkeypatch):
    # over the cycles the generator builds, the support removes classical
    # models, and some supported candidates are still not stable (an
    # unfounded loop), so both halves of the path are exercised
    totals = dict.fromkeys(["classical", "candidates", "models"], 0)
    universe = {"u": (1, 2)}
    for seed in range(30):
        sig, f = random_cyclic_program(random.Random(seed),
                                       cycle=CYCLES[seed % 3])
        g = ground(f, FiniteInterpretation(sig, universe))
        interps = enumerate_interpretations(sig, universe)
        totals["classical"] += sum(stable.gsat(i, g) for i in interps)
        work = count_work(monkeypatch, f, CYCLIC_CS[0], sig, universe)
        assert work["smaller_witness"] == work["candidates"]
        totals["candidates"] += work["candidates"]
        totals["models"] += work["models"]
    assert totals["classical"] > totals["candidates"] > totals["models"] > 0, \
        totals


# ---------------------------------------------------------------------------
# where no support is built

ONE_VALUE = """\
sort one = {z}.
sort u = 1..2.
func h : -> one.
func k : -> u.
intensional h, k.
{ k = 1 }.
"""


def test_a_c_function_over_a_one_element_sort_falls_back():
    # no rule defines h, so its completion leaves h without a value, yet
    # every I is stable on h: no J can give it another value
    f, c, sig, universe = program(ONE_VALUE)
    models = assert_tight_path(f, c, sig, universe, taken=False)
    assert [m.funcs["h"] for m in models] == [{(): "z"}]


def test_a_non_plain_program_falls_back():
    # p(a) with a in c is not c-plain: its Clark normal form
    # forall X (X = a -> p(X)) has no stable model, p(a) has one per a
    sig, _ = make_gen(0)
    f = Atom("p", (A,))
    models = assert_tight_path(f, ("a", "p"), sig, {"u": (1, 2)},
                               taken=False)
    assert len(models) == 8


def test_a_program_that_is_not_tight_falls_back(monkeypatch):
    # the switches program has a support, one instance per location of up
    # and flip, but its normal form is not tight, so each supported
    # candidate is still checked in full
    f, c, sig, universe = program(SWITCHES_2)
    instances, tight = support(f, c, sig, universe)
    assert not tight
    assert sorted(instances) == sorted(
        [("up", (s, t)) for s in ("a1", "b1", "a2", "b2") for t in (0, 1)]
        + [("flip", (s,)) for s in ("a1", "b1", "a2", "b2")])
    work = count_work(monkeypatch, f, c, sig, universe)
    assert work["smaller_witness"] == work["candidates"] == 10
    assert_tight_path(f, c, sig, universe)


# ---------------------------------------------------------------------------
# the guard index of an existential

E = Var("E", "u")
W = Var("W", "u")


def guarded_exists(gen, n):
    """exists E (B & t = E), or with E = t, for random B and closed t; when
    n % 3 == 2, a block exists E exists W (B & W = s & t = E), where s may
    be E itself or mention it."""
    t = gen.term(())
    guard = Equal(t, E) if n % 2 else Equal(E, t)
    if n % 3 != 2:
        return Exists(E, And(gen.formula(2, [E]), guard))
    inner = Equal(W, gen.term([E]))
    return Exists(E, Exists(W, And(And(gen.formula(2, [E, W]), inner),
                                   guard)))


def in_context(gen, n):
    """A guarded existential alone, under a negation, as an antecedent, or
    beside a random formula."""
    e = guarded_exists(gen, n)
    return (e, Not(e), Implies(e, gen.formula(2)),
            Or(gen.formula(2), e))[n % 4]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32), unary=st.booleans(),
       arith=st.booleans(), n=st.integers(0, 11),
       c=st.sampled_from([("a", "p"), ("p",), ("a", "b"), ("f",)]))
def test_exists_index_agrees_with_the_plain_grounding(seed, unary, arith, n,
                                                      c):
    sig, gen = make_gen(seed, with_unary_func=unary, with_arith=arith)
    if "f" in c and not unary:
        c = ("a", "p")
    universe = {"u": (1, 2)}
    base = FiniteInterpretation(sig, universe)
    f = in_context(gen, n)
    interps = list(enumerate_interpretations(sig, universe))
    # gsat on both groundings equals satisfies, and so do the reducts
    # under every J that differs from I on c
    assert assert_index_agrees(f, c, interps, base) >= 1
    assert_star_index_agrees(f, c, interps, universe)
    g = ground(f, base, index=True)
    assert (searched_models(g, sig, universe)
            == generate_and_test(sig, universe, lambda i: gsat(i, g))), f
    assert (stable_models(f, c, sig, universe)
            == stable_models(f, c, sig, universe, method="second-order"))


def exists_guarded_by(guard):
    return Exists(X, And(guard, Atom("p", (X,))))


@pytest.mark.parametrize("guard", [
    Equal(A, X), Equal(X, A),
    Equal(App("h", (A,)), X),               # h is partial: false if undefined
    Equal(App("t", ()), X),                 # a bool over int elements
    Equal(App("+", (A, Lit(1))), X),        # outside the extent: false
], ids=["t=X", "X=t", "undef", "bool", "outside"])
@pytest.mark.parametrize("elements", [INTS, EQUAL_ELEMENTS],
                         ids=["ints", "equal-elements"])
def test_exists_guard_edge_cases(guard, elements):
    f = exists_guarded_by(guard)
    sig = edge_signature(elements)
    base = FiniteInterpretation(sig, {"u": elements})
    assert isinstance(ground(f, base, index=True), GIndex)
    assert assert_index_agrees(f, ("a", "p"), edge_interps(sig, elements),
                               base) == 1


def test_exists_guard_shapes():
    s = App("h", (E,))
    # a guard in a block may not mention a variable the block binds
    assert _guard(Exists(E, Exists(W, And(Equal(W, A), Equal(s, E))))) \
        is None
    assert _guard(Exists(E, Exists(W, And(Equal(W, s), Equal(A, E))))) == A
    assert _guard(Exists(E, Exists(W, And(Equal(W, E), Equal(E, W))))) \
        is None
    # no equation on E: a plain disjunction over the extent
    f = Exists(E, Atom("p", (E,)))
    assert _guard(f) is None
    base = FiniteInterpretation(edge_signature((0, 1)), {"u": (0, 1)})
    assert isinstance(ground(f, base, index=True), GOr)


# ---------------------------------------------------------------------------
# work

#: the functions of stable whose calls count_work counts
COUNTED = ("gsat", "reduct", "smaller_witness", "check_stable")


def count_work(monkeypatch, f, c, sig, universe):
    """The work of one stable_models run: the number of stable models
    ("models"), of candidates the searches of classical_models yield
    ("candidates"), and of calls of each function in COUNTED."""
    calls = {name: record_calls(monkeypatch, stable, name)
             for name in COUNTED}
    candidates = [0]

    def classical_models(*args, _inner=stable.classical_models, **kwargs):
        for pair in _inner(*args, **kwargs):
            candidates[0] += 1
            yield pair
    monkeypatch.setattr(stable, "classical_models", classical_models)
    count = {"models": len(stable_models(f, c, sig, universe)),
             "candidates": candidates[0]}
    count.update((name, len(args)) for name, args in calls.items())
    monkeypatch.undo()
    return count


def count_evaluations(monkeypatch, f, c, sig, universe):
    """The conjunct evaluations (_Search.evaluate) of one stable_models
    run."""
    evaluated = record_calls(monkeypatch, stable._Search, "evaluate")
    stable_models(f, c, sig, universe)
    monkeypatch.undo()
    return len(evaluated)


@pytest.mark.parametrize("top, evaluations",
                         [(20, 512), (40, 1812), (80, 6812), (160, 26412)])
def test_the_watertank_search_evaluations(monkeypatch, top, evaluations):
    # the search of the support and F refutes a conjunct only once it is
    # false, so its evaluations still grow as N ** 2 in the size N of amt;
    # searching amt1's support first evaluates it once per (amt1, amt0),
    # not once per (amt0, flush, amt1), which halves the constant
    # (1,028 / 3,648 / 13,688 / 52,968 with F first); propagating values
    # would bend the curve itself
    f, c, sig, universe = demo("watertank.fsm", amt=tuple(range(top + 1)))
    assert count_evaluations(monkeypatch, f, c, sig, universe) == evaluations


@pytest.mark.parametrize("k, evaluations",
                         [(3, 1534), (4, 4530), (5, 14786)])
def test_the_loops_search_evaluations(monkeypatch, k, evaluations):
    # not tight: the 2 ** k supported candidates are each refuted by the
    # witness search but one, the model that reaches nothing (3,077 /
    # 10,605 / 36,097 evaluations with F ahead of the support)
    f, c, sig, universe = program(loops(k))
    assert count_evaluations(monkeypatch, f, c, sig, universe) == evaluations


def test_loops_has_one_stable_model(monkeypatch):
    # its edges are the facts, and no cycle reaches itself from outside;
    # each of the 2 ** 3 supported candidates gets a witness search
    f, c, sig, universe = program(loops(3))
    (model,) = stable_models(f, c, sig, universe)
    assert model.preds["reach"] == frozenset()
    assert model.preds["edge"] == {
        pair for i in range(3) for pair in (
            (f"c{i}x0", f"c{i}x1"), (f"c{i}x1", f"c{i}x0"), (f"c{i}x0", "z"))}
    assert count_work(monkeypatch, f, c, sig, universe) == {
        "models": 1, "candidates": 8, "gsat": 0, "reduct": 8,
        "smaller_witness": 8, "check_stable": 0}


def count_checks(monkeypatch, f, c, sig, universe):
    """(stable models, calls of stable.reduct, calls of
    stable.smaller_witness) of one stable_models run."""
    work = count_work(monkeypatch, f, c, sig, universe)
    return work["models"], work["reduct"], work["smaller_witness"]


def test_the_tight_path_builds_no_reduct(monkeypatch):
    # watertank at amt=0..40: 81 stable models; the search yields those 81
    # and no other candidate, where it once yielded all 1,722 classical
    # models, each then checked with a reduct and a witness search
    f, c, sig, universe = demo("watertank.fsm", amt=tuple(range(41)))
    assert count_checks(monkeypatch, f, c, sig, universe) == (81, 0, 0)


def test_the_watertank_search_yields_only_its_stable_models(monkeypatch):
    # tight: the candidates are the stable models, and none is checked
    f, c, sig, universe = demo("watertank.fsm", amt=tuple(range(41)))
    assert count_work(monkeypatch, f, c, sig, universe) == {
        "models": 81, "candidates": 81, "gsat": 0, "reduct": 0,
        "smaller_witness": 0, "check_stable": 0}


def test_the_ring_search_yields_only_supported_candidates(monkeypatch):
    # not tight: 2 ** 6 + 1 supported candidates, where the search of F
    # alone yields 416 classical models; each gets a reduct and a witness
    # search but no gsat, since the search found it a model, and on the
    # ring every supported candidate is stable
    f, c, sig, universe = program(ring(6))
    assert count_work(monkeypatch, f, c, sig, universe) == {
        "models": 65, "candidates": 65, "gsat": 0, "reduct": 65,
        "smaller_witness": 65, "check_stable": 0}


def test_a_program_that_is_not_tight_checks_as_before(monkeypatch):
    # 2 components x 5 classical models, each checked in full
    f, c, sig, universe = program(SWITCHES_2)
    assert count_checks(monkeypatch, f, c, sig, universe) == (16, 10, 10)


def test_the_support_keeps_no_pair_of_nested_keys():
    # the value form: amt1's one instance holds exists X (amt1 = X + 1 &
    # amt0 = X) as one index at its top, on amt0, with nothing nested, so
    # it grounds each key once and keeps at most one instance per element
    # of amt
    f, c, sig, universe = demo("watertank.fsm", amt=tuple(range(21)))
    instances, tight = support(f, c, sig, universe)
    assert tight and list(instances) == [("amt1", ())]
    (index,) = [g for g in instances["amt1", ()].order
                if isinstance(g, GIndex)]
    assert index.outer is None and index.term == App("amt0", ())
    for v in range(21):
        (instance,) = index.instances(v)
        assert not any(isinstance(g, GIndex) for g in instance.order)
        assert index.instances(v)[0] is instance
    assert len(index._instances) == 21


def test_the_support_reads_a_choice_without_its_double_negation():
    # { b = X } :- a = X. has the one case a = b in the value form
    prog = parse_program("sort u = 0..2.\nvar X : u.\nfunc a : -> u.\n"
                         "func b : -> u.\nintensional b.\n"
                         "{ b = X } :- a = X.\n")
    f = fol_representation(prog)
    instances, tight = support(f, prog.intensional, prog.signature,
                               prog.universe)
    instance = instances["b", ()]
    assert tight and "->" not in repr(instance)
    assert instance.order == (Equal(App("a", ()), App("b", ())),)
