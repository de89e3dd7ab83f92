"""Normal forms, completion, tightness, unfolding, strong equivalence."""

import pickle
import random

import pytest

from fsmkit.interp import FiniteInterpretation, enumerate_interpretations, satisfies
from fsmkit.parser import parse_program
from fsmkit.stable import check_stable_both, stable_models
from fsmkit.syntax import (
    And, App, Atom, BOT, Choice, ContractViolation, Equal, Exists, Forall,
    FragmentError, Implies, IntensionalList, Lit, Not, Or, Signature, TOP,
    Var, as_clist, fol_representation,
)
from fsmkit.transforms import (
    check_strong_equivalence_bounded, complete, dependency_graph, find_cycle,
    is_c_plain, is_clark_normal_form, is_f_plain, is_head_c_plain, is_tight,
    to_clark_normal_form, unfold,
)
from conftest import random_definition_program


def sig_fp():
    sig = Signature()
    sig.declare_sort("s", (1, 2))
    sig.declare_func("f", (), "s")
    sig.declare_pred("p", ("s",))
    return sig


def test_to_clark_normal_form_shapes():
    sig = sig_fp()
    f_t = App("f", ())
    raw = And(Implies(Not(Atom("p", (Lit(1),))), Equal(f_t, Lit(2))),
              Forall(Var("X", "s"), Implies(Equal(f_t, Var("X", "s")),
                                            Atom("p", (Var("X", "s"),)))))
    cnf = to_clark_normal_form(raw, ("f", "p"), sig)
    assert is_clark_normal_form(cnf, ("f", "p"), sig)


def test_clark_normal_form_validation_rejects_junk():
    sig = sig_fp()
    not_cnf = Or(Equal(App("f", ()), Lit(1)), Atom("p", (Lit(1),)))
    assert not is_clark_normal_form(not_cnf, ("f", "p"), sig)
    with pytest.raises((ContractViolation, FragmentError)):
        complete(Exists(Var("X", "s"), Equal(App("f", ()), Var("X", "s"))),
                 ("f", "p"), sig)


def test_completion_flips_implications():
    sig = sig_fp()
    cnf = to_clark_normal_form(
        And(Equal(App("f", ()), Lit(1)), Atom("p", (Lit(2),))),
        ("f", "p"), sig)
    comp = complete(cnf, ("f", "p"), sig)
    i = FiniteInterpretation(
        sig, {"s": (1, 2)}, funcs={"f": {(): 1}},
        preds={"p": frozenset({(2,)})})
    assert satisfies(i, comp)
    # the completion also rules out extra atoms the program never derives
    j = FiniteInterpretation(
        sig, {"s": (1, 2)}, funcs={"f": {(): 1}},
        preds={"p": frozenset({(1,), (2,)})})
    assert not satisfies(j, comp)


def test_dependency_graph_and_tightness():
    sig = sig_fp()
    f_t = App("f", ())
    p1 = Atom("p", (Lit(1),))
    acyclic = Implies(Equal(f_t, Lit(1)), p1)
    graph = dependency_graph(acyclic, ("f", "p"))
    assert list(graph["p"]) == ["f"]
    assert list(graph["f"]) == []
    assert is_tight(acyclic, ("f", "p"))
    looped = And(Implies(p1, Equal(f_t, Lit(1))),
                 Implies(Equal(f_t, Lit(1)), p1))
    assert not is_tight(looped, ("f", "p"))
    assert find_cycle(dependency_graph(looped, ("f", "p")))
    # negated occurrences do not create edges
    negated = Implies(Not(p1), p1)
    assert is_tight(negated, ("p",))


def test_plainness_predicates():
    sig = Signature()
    sig.declare_sort("s", (1, 2))
    sig.declare_func("f", (), "s")
    sig.declare_func("h", ("s",), "s")
    sig.declare_pred("p", ("s",))
    f_t = App("f", ())
    assert is_f_plain(Equal(f_t, Lit(1)), ("f",))
    assert not is_f_plain(Atom("p", (f_t,)), ("f",))
    assert not is_f_plain(Equal(App("h", (f_t,)), Lit(1)), ("f",))
    assert is_c_plain(Equal(f_t, Lit(1)), ("f",), sig)
    nested = Equal(App("h", (f_t,)), Lit(1))
    assert not is_c_plain(nested, ("f",), sig)
    # head-plainness only inspects strictly positive occurrences
    assert not is_head_c_plain(nested, ("f",), sig)
    plain_head = Implies(Not(nested), Equal(f_t, Lit(1)))
    assert is_head_c_plain(plain_head, ("f",), sig)


def test_unfold_produces_plain_formula():
    sig = Signature()
    sig.declare_sort("s", tuple(range(1, 6)))
    sig.declare_func("a", (), "s")
    sig.declare_func("b", (), "s")
    f = Equal(App("+", (App("a", ()), App("b", ()))), Lit(5))
    uf = unfold(f, ("a", "b"), sig)
    assert is_c_plain(uf, ("a", "b"), sig)
    assert uf != f


def test_unfold_changes_stable_models_of_sum_constraint():
    sig = Signature()
    sig.declare_sort("s", tuple(range(1, 6)))
    sig.declare_func("a", (), "s")
    sig.declare_func("b", (), "s")
    universe = {"s": tuple(range(1, 6))}
    f = Equal(App("+", (App("a", ()), App("b", ()))), Lit(5))
    assert stable_models(f, ("a", "b"), sig, universe) == []
    unfolded = stable_models(unfold(f, ("a", "b"), sig), ("a", "b"),
                             sig, universe)
    pairs = {(m.funcs["a"][()], m.funcs["b"][()]) for m in unfolded}
    assert pairs == {(1, 4), (2, 3), (3, 2), (4, 1)}


def test_completion_matches_stable_models_on_generated_tight_programs():
    rng = random.Random(411)
    for _ in range(25):
        sig, f = random_definition_program(rng)
        assert is_tight(f, ("f", "g", "p"))
        comp = complete(to_clark_normal_form(f, ("f", "g", "p"), sig),
                        ("f", "g", "p"), sig)
        for i in enumerate_interpretations(sig, {"u": (1, 2)}):
            assert (satisfies(i, comp)
                    == check_stable_both(f, ("f", "g", "p"), i))


def test_strong_equivalence_accepts_known_laws():
    sig = Signature()
    sig.declare_pred("p", ())
    sig.declare_pred("q", ())
    sig.declare_pred("r", ())
    p, q, r = Atom("p", ()), Atom("q", ()), Atom("r", ())
    assert check_strong_equivalence_bounded(sig, Choice(p),
                                            Implies(Not(Not(p)), p))
    merged = Implies(Or(q, r), p)
    split = And(Implies(q, p), Implies(r, p))
    assert check_strong_equivalence_bounded(sig, merged, split)


def test_strong_equivalence_refutes_classical_only_pairs():
    sig = Signature()
    sig.declare_pred("p", ())
    p = Atom("p", ())
    report = check_strong_equivalence_bounded(sig, p, Not(Not(p)))
    assert not report
    assert report.reason
    assert not check_strong_equivalence_bounded(sig, Choice(p), TOP)


def test_strong_equivalence_negated_head_vs_constraint():
    sig = Signature()
    sig.declare_sort("s", None)
    sig.declare_func("c", (), "s")
    eq1 = Equal(App("c", ()), Lit(1))
    assert check_strong_equivalence_bounded(sig, Not(eq1), Implies(eq1, BOT),
                                            c=("c",))


# ---------------------------------------------------------------------------
# membership in c

class CountingNames(tuple):
    """A tuple of names that counts how often it is scanned."""
    scans = 0

    def __iter__(self):
        CountingNames.scans += 1
        return super().__iter__()

    def __contains__(self, name):
        CountingNames.scans += 1
        return super().__contains__(name)


def chain_scans(n):
    """Scans of c's names while dependency_graph and to_clark_normal_form
    run on the chain p0. p(k+1) :- p(k). of n intensional predicates."""
    names = [f"p{k}" for k in range(n)]
    text = "".join(f"pred {p}.\n" for p in names) + "p0.\n" + "".join(
        f"p{k + 1} :- p{k}.\n" for k in range(n - 1))
    prog = parse_program(text)
    f = fol_representation(prog)
    c = IntensionalList(CountingNames(names))
    CountingNames.scans = 0
    assert dependency_graph(f, c)["p1"] == ["p0"]
    to_clark_normal_form(f, c, prog.signature)
    return CountingNames.scans


def test_membership_in_c_does_not_scan_its_names():
    # a membership test per atom that scanned c, or built a set of it,
    # made both walks O(rules * |c|)
    assert chain_scans(40) == chain_scans(10)


def test_intensional_list_keeps_equality_hash_and_repr():
    c = as_clist(("b", "a"))
    assert c == IntensionalList(("b", "a")) != as_clist(("a", "b"))
    assert hash(c) == hash((("b", "a"),))
    assert repr(c) == "IntensionalList(names=('b', 'a'))"
    assert pickle.loads(pickle.dumps(c)) == c
    assert "a" in c and "z" not in c and list(c) == ["b", "a"]
