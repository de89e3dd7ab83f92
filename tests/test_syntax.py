"""Formula construction, signatures, syntactic analysis helpers, and the
equality, hash and immutability of the record classes."""

import pathlib
import pickle

import pytest

from fsmkit.syntax import (
    And, App, Atom, BOT, Bottom, Choice, DeclarationError, Equal, Exists,
    Forall, Iff, Implies, IntensionalList, Lit, Not, Obj, Or, Rule,
    RULE_CONSTRAINT, Signature, TOP, Var, as_clist,
    close_universally, conj, conjuncts, disj, disjuncts, fol_representation,
    free_vars, is_not, negative_on, nodes, rename_symbols,
    strictly_positive_symbols, subst, symbols, transform,
)
from fsmkit.interp import FiniteInterpretation, elem_key
from fsmkit.parser import parse_program
from fsmkit.stable import GAnd, GIndex, GOr, ground

from conftest import make_gen


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


def test_subst_shares_the_subtrees_it_leaves_alone():
    x, y = Var("X", "s"), Var("Y", "s")
    untouched = And(Atom("q", (y, App("c"))), Exists(x, Equal(App("f", (x,)), y)))
    bound = Forall(x, Atom("p", (x,)))
    f = Implies(And(Atom("p", (x,)), untouched), bound)
    g = subst(f, {x: Lit(1)})
    assert g == Implies(And(Atom("p", (Lit(1),)), untouched), bound)
    assert g.left.right is untouched and g.right is bound
    assert subst(f, {}) is f
    assert subst(f, {Var("Z", "s"): Lit(1)}) is f
    t = App("g", (y, App("c")))
    assert subst(t, {x: Lit(1)}) is t
    assert subst(t, {y: x}) == App("g", (x, App("c")))
    assert subst(t, {y: x}).args[1] is t.args[1]


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


# ---------------------------------------------------------------------------
# the record classes: equality, hash and immutability

#: the fields that equality and the hash read, per class
COMPARED = {
    Var: ("name", "sort"), App: ("fn", "args"), Lit: ("value",),
    Obj: ("elem",), Bottom: (), Atom: ("pred", "args"),
    Equal: ("left", "right"), And: ("left", "right"), Or: ("left", "right"),
    Implies: ("left", "right"), Forall: ("var", "body"),
    Exists: ("var", "body"), GAnd: ("members",), GOr: ("members",),
}


def _fields(x):
    return tuple(getattr(x, f) for f in COMPARED[type(x)])


def _same_fields(x, y):
    # a Lit or an Obj also compares the bool-ness of its value
    if isinstance(x, (Lit, Obj)):
        return elem_key(_fields(x)[0]) == elem_key(_fields(y)[0])
    return _fields(x) == _fields(y)


def _ground_nodes(g):
    """Every node of a ground formula, with each guarded instance of a
    GIndex grounded, and the names in its atoms and equations."""
    stack = [g]
    while stack:
        g = stack.pop()
        if isinstance(g, GIndex):
            stack += (h for e in g.extent for h in g.instances(e))
            continue
        yield g
        if isinstance(g, (GAnd, GOr)):
            stack += g.order
        elif isinstance(g, (Implies, Equal)):
            stack += (g.left, g.right)
        elif isinstance(g, Atom):
            stack += g.args


def _record_samples():
    """Two equal but separately built copies of each node: the formulas of
    the conftest generator, and the ground nodes of watertank at 0..5."""
    copies = []
    for _ in range(2):
        nodes_ = []
        for seed in range(20):
            _, gen = make_gen(seed, with_unary_func=True, with_arith=True)
            for _ in range(10):
                nodes_ += nodes(gen.formula(4))
        prog = parse_program(
            (pathlib.Path(__file__).resolve().parent.parent / "demos"
             / "watertank.fsm").read_text())
        base = FiniteInterpretation(prog.signature, {"amt": tuple(range(6))})
        nodes_ += _ground_nodes(ground(fol_representation(prog), base,
                                       index=True))
        copies.append(nodes_)
    return copies


def test_records_compare_and_hash_their_fields():
    first, second = _record_samples()
    assert {type(x) for x in first} == set(COMPARED)
    for x, y in zip(first, second):
        assert hash(x) == hash(_fields(x)) == hash(y)
        assert x == y
    assert pickle.loads(pickle.dumps(first)) == first
    distinct = list({id(x): x for x in first[::5]}.values())
    for x in distinct:
        for y in distinct:
            assert (x == y) == (type(x) is type(y) and _same_fields(x, y))
        if isinstance(x, (And, Or, Implies)):
            assert all(kind(x.left, x.right) != x
                       for kind in (And, Or, Implies) if kind is not type(x))


def test_set_order_and_choice_stay_outside_equality():
    first, _ = _record_samples()
    sets = [x for x in first if isinstance(x, (GAnd, GOr))]
    assert any(isinstance(x, GOr) and x.choice for x in sets)
    for x in sets:
        other = type(x)(x.members, tuple(reversed(x.order)))
        assert other == x and hash(other) == hash(x)
        assert GAnd(x.members, x.order) != GOr(x.members, x.order)
        if isinstance(x, GOr):
            flipped = GOr(x.members, x.order, not x.choice)
            assert flipped == x and hash(flipped) == hash(x)


def test_records_refuse_assignment():
    first, _ = _record_samples()
    for x in {type(x): x for x in first}.values():
        for f in COMPARED[type(x)]:
            with pytest.raises(AttributeError):
                setattr(x, f, None)
    with pytest.raises(TypeError):
        hash(Signature())
    assert Signature() == Signature() != sig_pq()
