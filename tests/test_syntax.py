"""Formula construction, signatures, and syntactic analysis helpers."""

import pytest

from fsmkit.syntax import (
    And, App, Atom, BOT, Bottom, Choice, DeclarationError, Equal, Exists,
    Forall, Iff, Implies, IntensionalList, Lit, Not, Or, Rule,
    RULE_CONSTRAINT, Signature, SortError, TOP, Var, as_clist,
    close_universally, conj, conjuncts, disj, disjuncts, free_vars, is_not,
    negative_on, nodes, rename_symbols, strictly_positive_symbols, subst,
    symbols, transform,
)


def sig_pq():
    sig = Signature()
    sig.declare_sort("s", (1, 2))
    sig.declare_func("c", (), "s")
    sig.declare_pred("p", ("s",))
    sig.declare_pred("q", ())
    return sig


def test_not_is_implication_to_bottom():
    a = Atom("q", ())
    assert Not(a) == Implies(a, BOT)
    assert is_not(Not(a))
    assert not is_not(Implies(a, a))


def test_top_and_choice_sugar():
    a = Atom("q", ())
    assert TOP == Implies(BOT, BOT)
    assert Choice(a) == Or(a, Not(a))
    assert Iff(a, BOT) == And(Implies(a, BOT), Implies(BOT, a))


def test_conj_disj_helpers():
    a, b, c = Atom("q", ()), Atom("r", ()), Atom("s", ())
    f = conj([a, b, c])
    assert list(conjuncts(f)) == [a, b, c]
    assert conj([]) == TOP
    assert disj([]) == BOT
    assert conj([a]) == a


def test_free_vars_and_closure():
    x, y = Var("X", "s"), Var("Y", "s")
    f = Implies(Atom("p", (x,)), Exists(y, Equal(x, y)))
    assert free_vars(f) == {x}
    closed = close_universally(f, [x])
    assert closed == Forall(x, f)
    assert free_vars(closed) == set()


def test_subst_avoids_bound_occurrences():
    x = Var("X", "s")
    inner = Forall(x, Atom("p", (x,)))
    f = And(Atom("p", (x,)), inner)
    g = subst(f, {x: Lit(1)})
    assert g == And(Atom("p", (Lit(1),)), inner)


def test_rename_symbols():
    f = And(Atom("p", (App("c", ()),)), Atom("q", ()))
    g = rename_symbols(f, {"p": "p2", "c": "c2"})
    assert g == And(Atom("p2", (App("c2", ()),)), Atom("q", ()))


def test_symbol_collection():
    f = Implies(Atom("p", (App("c", ()),)), Atom("q", ()))
    assert symbols(App("c", ())) == {"c"}
    assert symbols(f) == {"p", "c", "q"}


def test_nodes_walks_subformulas_and_subterms_in_preorder():
    x = Var("X", "s")
    cx = App("c", (x,))
    body = Implies(Atom("p", (cx,)), Equal(x, Lit(1)))
    f = Forall(x, body)
    assert list(nodes(f)) == [f, body, body.left, cx, x, body.right, x,
                              Lit(1)]


def test_transform_rebuilds_bottom_up_and_keeps_bound_variables():
    x, y = Var("X", "s"), Var("Y", "s")
    f = Forall(x, Implies(Atom("p", (App("c", (x,)),)), Equal(x, Lit(1))))
    seen = []

    def record(g, new):
        seen.append(g)
        return new

    assert transform(f, record) == f
    assert seen == [x, App("c", (x,)), f.body.left, x, Lit(1), f.body.right,
                    f.body, f]
    renamed = transform(f, lambda g, new: y if g == x else new)
    assert renamed == Forall(x, Implies(Atom("p", (App("c", (y,)),)),
                                        Equal(y, Lit(1))))


def test_long_conjunctions_and_disjunctions():
    # a program of N rules is an N-deep conjunction: flattening it must not
    # recurse, and transform takes one frame per level
    atoms = [Atom(f"p{k}") for k in range(5000)]
    assert list(conjuncts(conj(atoms))) == atoms
    assert list(disjuncts(disj(atoms))) == atoms
    renamed = rename_symbols(conj(atoms[:600]), {"p0": "r"})
    assert list(conjuncts(renamed)) == [Atom("r")] + atoms[1:600]


def test_signature_declares_and_rejects_duplicates():
    sig = sig_pq()
    assert sig.functions["c"] == ((), "s")
    assert sig.predicates["p"] == ("s",)
    with pytest.raises(DeclarationError):
        sig.declare_func("c", (), "s")
    with pytest.raises(DeclarationError):
        sig.declare_pred("p", ("s",))


def test_signature_sort_checks():
    sig = sig_pq()
    with pytest.raises(DeclarationError):
        sig.declare_func("d", (), "nosuch")
    assert sig.sort_of_term(App("c", ())) == "s"


def test_subsorts():
    sig = Signature()
    sig.declare_sort("animal", None)
    sig.declare_sort("dog", None)
    sig.declare_subsort("dog", "animal")
    assert sig.is_subsort("dog", "animal")
    assert not sig.is_subsort("animal", "dog")
    assert sig.common_supersort("dog", "animal") == "animal"


def test_intensional_list():
    sig = sig_pq()
    c = as_clist(("c", "p"))
    assert isinstance(c, IntensionalList)
    assert set(c.names) == {"c", "p"}
    assert c.func_part(sig) == ("c",)
    assert c.pred_part(sig) == ("p",)


def test_rule_as_formula():
    head = Atom("q", ())
    body = Atom("p", (Lit(1),))
    r = Rule(head, body, RULE_CONSTRAINT)
    f = r.as_formula()
    assert BOT in conjuncts(f) or isinstance(f, Implies)


def test_negative_on_and_strictly_positive():
    p1 = Atom("p", (Lit(1),))
    q = Atom("q", ())
    f = Implies(Not(p1), q)
    assert negative_on(Not(p1), as_clist(("p",)))
    assert not negative_on(p1, as_clist(("p",)))
    assert strictly_positive_symbols(f, ("p", "q")) == {"q"}
    assert strictly_positive_symbols(And(p1, q), ("p", "q")) == {"p", "q"}
