"""Oracles for neighbouring semantics and their agreement with the
stable-model checkers on small hand-checked domains."""

import itertools

import pytest

from fsmkit.interp import FiniteInterpretation
from fsmkit.related import (
    CausalRule, CRule, IfRule, LinCon, LRule, LwRule, SliceRequired,
    causal_translate, clingcon_answer_sets, cm_check, crules_to_formula,
    if_check, is_p_interpretation, ljn_answer_check, lw_answer_check,
    lw_formula, program_theory_atoms,
)
from fsmkit.stable import check_stable_both, stable_models
from fsmkit.syntax import (
    And, App, Atom, BOT, Equal, FragmentError, Implies, Lit, Not,
    Signature, TOP, fol_representation,
)
from conftest import (
    CAUSAL_ROWS, STABLE_ROWS, load_switches, switch_interp, switch_rules,
)


# ---------------------------------------------------------------------------
# causal theories

def test_switch_causal_models_are_exactly_the_expected_rows():
    program = load_switches()
    rules = switch_rules()
    accepted = {row for row in itertools.product((False, True), repeat=4)
                if cm_check(rules, ("up", "flip"), switch_interp(program, *row))}
    assert accepted == CAUSAL_ROWS


def test_switch_stable_models_drop_the_unfounded_row():
    program = load_switches()
    f = fol_representation(program)
    accepted = {row for row in itertools.product((False, True), repeat=4)
                if check_stable_both(f, program.intensional,
                                     switch_interp(program, *row))}
    assert accepted == STABLE_ROWS


def test_causal_translation_matches_cm_check_on_switches():
    program = load_switches()
    rules = switch_rules()
    tr = causal_translate(rules, ("up", "flip"))
    for row in itertools.product((False, True), repeat=4):
        i = switch_interp(program, *row)
        assert (cm_check(rules, ("up", "flip"), i)
                == check_stable_both(tr, ("up", "flip"), i))


def test_causal_translation_rejects_non_definite_rules():
    sig = Signature()
    sig.declare_sort("s", (1, 2, 3))
    sig.declare_func("f", (), "s")
    f_t = App("f", ())
    rules = [CausalRule(Not(Equal(f_t, Lit(1))), TOP),
             CausalRule(Not(Equal(f_t, Lit(2))), TOP)]
    with pytest.raises(FragmentError):
        causal_translate(rules, ("f",))
    # yet the theory itself has a causal model the translation cannot see
    i = FiniteInterpretation(sig, {"s": (1, 2, 3)}, funcs={"f": {(): 3}})
    assert cm_check(rules, ("f",), i)


# ---------------------------------------------------------------------------
# IF-programs

def c_sig(elements):
    sig = Signature()
    sig.declare_sort("s", elements)
    sig.declare_func("c", (), "s")
    sig.declare_func("d", (), "s")
    return sig


def test_if_accepts_where_stable_rejects():
    sig = c_sig((1, 2))
    c, d = App("c", ()), App("d", ())
    rules = [IfRule(Equal(d, Lit(2)), Equal(c, Lit(1))),
             IfRule(Equal(d, Lit(1)))]
    i = FiniteInterpretation(sig, {"s": (1, 2)},
                             funcs={"c": {(): 2}, "d": {(): 1}})
    assert if_check(rules, ("c", "d"), i)
    formula = And(Implies(Equal(c, Lit(1)), Equal(d, Lit(2))),
                  Equal(d, Lit(1)))
    assert not check_stable_both(formula, ("c", "d"), i)


def test_stable_accepts_where_if_rejects():
    sig = c_sig((1, 2, 3))
    c, d = App("c", ()), App("d", ())
    rules = [IfRule(Equal(c, Lit(1))), IfRule(Equal(d, Lit(1))),
             IfRule(Equal(c, Lit(2))), IfRule(Equal(d, Lit(2)))]
    # written as one formula: (c=1 | d=1) & (c=2 | d=2)
    from fsmkit.syntax import Or
    formula = And(Or(Equal(c, Lit(1)), Equal(d, Lit(1))),
                  Or(Equal(c, Lit(2)), Equal(d, Lit(2))))
    models = stable_models(formula, ("c", "d"), sig, {"s": (1, 2, 3)})
    pairs = {(m.funcs["c"][()], m.funcs["d"][()]) for m in models}
    assert pairs == {(1, 2), (2, 1)}
    rules = [IfRule(Or(Equal(c, Lit(1)), Equal(d, Lit(1)))),
             IfRule(Or(Equal(c, Lit(2)), Equal(d, Lit(2))))]
    for cv, dv in itertools.product((1, 2, 3), repeat=2):
        i = FiniteInterpretation(sig, {"s": (1, 2, 3)},
                                 funcs={"c": {(): cv}, "d": {(): dv}})
        assert not if_check(rules, ("c", "d"), i)


def test_if_distinguishes_negated_head_from_constraint():
    sig = Signature()
    sig.declare_sort("s", (1, 2))
    sig.declare_func("c", (), "s")
    eq1 = Equal(App("c", ()), Lit(1))
    as_head = [IfRule(Not(eq1), TOP)]
    as_constraint = [IfRule(BOT, eq1)]
    verdicts = {}
    for v in (1, 2):
        i = FiniteInterpretation(sig, {"s": (1, 2)}, funcs={"c": {(): v}})
        verdicts[v] = (if_check(as_head, ("c",), i),
                       if_check(as_constraint, ("c",), i),
                       check_stable_both(Not(eq1), ("c",), i))
    assert verdicts[1] == (False, False, False)
    assert verdicts[2] == (False, True, False)


def test_if_rejects_embedded_implications():
    sig = Signature()
    sig.declare_sort("s", (1, 2))
    sig.declare_func("c", (), "s")
    eq1 = Equal(App("c", ()), Lit(1))
    i = FiniteInterpretation(sig, {"s": (1, 2)}, funcs={"c": {(): 1}})
    with pytest.raises(FragmentError):
        if_check([IfRule(Implies(eq1, eq1))], ("c",), i)


# ---------------------------------------------------------------------------
# constraint answer set programs over a fixed numeric valuation

def amount_valuation(a0, a1):
    sig = Signature()
    sig.declare_sort("amt", tuple(range(11)))
    sig.declare_func("amt0", (), "amt")
    sig.declare_func("amt1", (), "amt")
    return sig, FiniteInterpretation(
        sig, {"amt": tuple(range(11))},
        funcs={"amt0": {(): a0}, "amt1": {(): a1}})


def tank_rules():
    a0, a1 = App("amt0", ()), App("amt1", ())
    step = Equal(a1, App("+", (a0, Lit(1))))
    drained = Equal(a1, Lit(0))
    return [CRule(None, neg=("flush",), constraints=(Not(step),)),
            CRule(None, pos=("flush",), constraints=(Not(drained),))]


def test_clingcon_answer_sets_on_the_tank():
    _, val = amount_valuation(5, 6)
    assert clingcon_answer_sets(tank_rules(), val) == [frozenset()]
    # without a rule deriving flush, a drained tank has no answer set
    _, val2 = amount_valuation(5, 0)
    assert clingcon_answer_sets(tank_rules(), val2) == []
    _, bad = amount_valuation(5, 9)
    assert clingcon_answer_sets(tank_rules(), bad) == []


def test_clingcon_with_a_flush_choice():
    choice = [CRule("flush", neg=("flush_n",)),
              CRule("flush_n", neg=("flush",))]
    rules = tank_rules() + choice
    _, val = amount_valuation(5, 6)
    assert clingcon_answer_sets(rules, val) == [frozenset({"flush_n"})]
    _, val2 = amount_valuation(5, 0)
    assert clingcon_answer_sets(rules, val2) == [frozenset({"flush"})]
    _, bad = amount_valuation(5, 9)
    assert clingcon_answer_sets(rules, bad) == []


def test_clingcon_matches_stable_models_of_the_formula():
    rules = tank_rules()
    formula = crules_to_formula(rules)
    for a1 in (0, 6, 9):
        sig, val = amount_valuation(5, a1)
        sig2 = sig.copy()
        sig2.declare_pred("flush", ())
        answers = clingcon_answer_sets(rules, val)
        for flush in (False, True):
            i = FiniteInterpretation(
                sig2, dict(val.universe), funcs=dict(val.funcs),
                preds={"flush": frozenset([()] if flush else [])})
            expected = frozenset(["flush"] if flush else []) in answers
            assert check_stable_both(formula, ("flush",), i) == expected


# ---------------------------------------------------------------------------
# linear-constraint programs

def ljn_rules():
    xz = LinCon(((1, "x"), (-1, "z")), ">", 0)
    xy = LinCon(((1, "x"), (-1, "y")), "<=", 0)
    yz = LinCon(((1, "y"), (-1, "z")), "<=", 0)
    return [
        LRule("a", lcs=(xz,)),
        LRule("b", lcs=(xy,)),
        LRule("c", pos=("b",), lcs=(yz,)),
        LRule(None, neg=("a",)),
        LRule("b", pos=("c",)),
    ], xz, xy, yz


def test_ljn_answer_set():
    rules, xz, xy, yz = ljn_rules()
    slc = tuple(range(0, 4))
    assert ljn_answer_check(rules, {"a"}, {xz}, slc)
    # choosing both comparisons also works: x=2, y=3, z=0 is a witness
    assert ljn_answer_check(rules, {"a", "b"}, {xz, xy}, slc)
    # but these candidates fail
    assert not ljn_answer_check(rules, set(), set(), slc)
    assert not ljn_answer_check(rules, {"b"}, {xy}, slc)
    # all three constraints at once are unsatisfiable together
    assert not ljn_answer_check(rules, {"a", "b", "c"}, {xz, xy, yz}, slc)


def test_ljn_requires_a_slice():
    rules, xz, _, _ = ljn_rules()
    with pytest.raises(SliceRequired):
        ljn_answer_check(rules, {"a"}, {xz})


def test_program_theory_atoms_order():
    rules, xz, xy, yz = ljn_rules()
    assert program_theory_atoms(rules) == [xz, xy, yz]


# ---------------------------------------------------------------------------
# functional reducts over typed object constants

def lw_sig():
    sig = Signature()
    sig.declare_sort("s", ("n1", "n2"))
    sig.declare_func("c", (), "s")
    sig.declare_func("n1", (), "s")
    sig.declare_func("n2", (), "s")
    sig.declare_pred("p", ("s",))
    return sig


def lw_interp(sig, c_val, p_ext):
    return FiniteInterpretation(
        sig, {"s": ("n1", "n2")},
        funcs={"c": {(): c_val}, "n1": {(): "n1"}, "n2": {(): "n2"}},
        preds={"p": frozenset((e,) for e in p_ext)})


def test_p_interpretation_requirement():
    sig = lw_sig()
    good = lw_interp(sig, "n1", ())
    assert is_p_interpretation(good, sig)
    bad = FiniteInterpretation(
        sig, {"s": ("n1", "n2")},
        funcs={"c": {(): "n1"}, "n1": {(): "n2"}, "n2": {(): "n2"}},
        preds={"p": frozenset()})
    assert not is_p_interpretation(bad, sig)
    with pytest.raises(Exception):
        lw_answer_check([], bad, sig)


def test_lw_answer_check_small_program():
    sig = lw_sig()
    c = App("c", ())
    rules = [
        LwRule(Atom("p", (c,))),
        LwRule(Atom("p", (App("n2", ()),)),
               neg=(Equal(c, App("n2", ())),)),
    ]
    # c = n1: p(n1) from the first rule, p(n2) from the second
    assert lw_answer_check(rules, lw_interp(sig, "n1", ("n1", "n2")), sig)
    assert not lw_answer_check(rules, lw_interp(sig, "n1", ("n1",)), sig)
    # c = n2: the second rule is blocked
    assert lw_answer_check(rules, lw_interp(sig, "n2", ("n2",)), sig)
    assert not lw_answer_check(rules, lw_interp(sig, "n2", ("n1", "n2")), sig)


def test_lw_matches_stable_models_of_the_formula():
    sig = lw_sig()
    c = App("c", ())
    rules = [
        LwRule(Atom("p", (c,))),
        LwRule(Atom("p", (App("n2", ()),)),
               neg=(Equal(c, App("n2", ())),)),
    ]
    f = lw_formula(rules)
    for c_val in ("n1", "n2"):
        for p_ext in ({}, {"n1"}, {"n2"}, {"n1", "n2"}):
            i = lw_interp(sig, c_val, tuple(sorted(p_ext)))
            assert (lw_answer_check(rules, i, sig)
                    == check_stable_both(f, ("p",), i))
