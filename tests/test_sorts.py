"""Merging a many-sorted signature into one sort with sort predicates."""

import itertools

import pytest

from fsmkit.interp import FiniteInterpretation, vary_on
from fsmkit.sortsred import (
    MERGED_SORT, interp_to_unsorted, related, relativize, sort_axioms,
    sort_pred, to_unsorted, unsorted_signature,
)
from fsmkit.stable import check_stable_both
from fsmkit.syntax import (
    And, App, Atom, Equal, Exists, Forall, FragmentError, Implies, Lit, Obj,
    Signature, Var, conj,
)


def sorted_sig():
    sig = Signature()
    sig.declare_sort("s1", ("e1", "e2"))
    sig.declare_func("f", ("s1",), "s1")
    return sig


def identity_formula():
    return And(Equal(App("f", (Obj("e1"),)), Obj("e1")),
               Equal(App("f", (Obj("e2"),)), Obj("e2")))


def test_unsorted_signature_shape():
    sig = sorted_sig()
    usig = unsorted_signature(sig)
    assert usig.predicates[sort_pred("s1")] == (MERGED_SORT,)
    assert usig.functions["f"] == ((MERGED_SORT,), MERGED_SORT)


def test_relativize_guards_quantifiers():
    x = Var("X", "s1")
    f = Forall(x, Equal(App("f", (x,)), x))
    r = relativize(f)
    assert isinstance(r, Forall)
    assert isinstance(r.body, Implies)
    assert r.body.left == Atom(sort_pred("s1"), (Var("X", MERGED_SORT),))


def test_relativize_rejects_builtin_literals():
    with pytest.raises(FragmentError):
        relativize(Equal(App("f", (Lit(1),)), Lit(1)))


def test_sort_axiom_families():
    sig = sorted_sig()
    axioms = sort_axioms(sig)
    # nonemptiness, value closure, and choice padding for f
    assert len(axioms) == 3
    assert isinstance(axioms[0], Exists)


def test_subsort_axiom_included():
    sig = Signature()
    sig.declare_sort("sup", ("e1", "e2"))
    sig.declare_sort("sub", ("e1",))
    sig.declare_subsort("sub", "sup")
    axioms = sort_axioms(sig)
    inclusion = axioms[0]
    assert isinstance(inclusion, Forall)
    assert inclusion.body.left == Atom(sort_pred("sub"),
                                       (Var("Y", MERGED_SORT),))


def big_universe_interp(usig, f_table, s1=("e1", "e2")):
    uni = {MERGED_SORT: ("e1", "e2", "x3", "x4")}
    return FiniteInterpretation(
        usig, uni, funcs={"f": f_table},
        preds={sort_pred("s1"): frozenset((e,) for e in s1)})


def test_padding_axioms_are_needed_on_larger_universes():
    """The identity interpretation extended with extra ill-sorted elements
    is stable only when the choice padding axioms are present."""
    sig = sorted_sig()
    rel, axioms, usig = to_unsorted(identity_formula(), sig)
    k = big_universe_interp(usig, {(x,): x for x in ("e1", "e2", "x3", "x4")})
    assert check_stable_both(conj([rel] + axioms), ("f",), k)
    without_padding = conj([rel] + axioms[:2])
    assert not check_stable_both(without_padding, ("f",), k)


def test_mapped_interpretation_is_stable_both_ways():
    sig = sorted_sig()
    f = identity_formula()
    rel, axioms, usig = to_unsorted(f, sig)
    full = conj([rel] + axioms)
    for table in itertools.product(("e1", "e2"), repeat=2):
        i = FiniteInterpretation(
            sig, {"s1": ("e1", "e2")},
            funcs={"f": {("e1",): table[0], ("e2",): table[1]}})
        l = interp_to_unsorted(i, sig)
        assert (check_stable_both(f, ("f",), i)
                == check_stable_both(full, ("f",), l))


def test_every_unsorted_stable_model_is_related_to_a_mapped_one():
    sig = sorted_sig()
    f = identity_formula()
    rel, axioms, usig = to_unsorted(f, sig)
    full = conj([rel] + axioms)
    mapped = []
    for table in itertools.product(("e1", "e2"), repeat=2):
        i = FiniteInterpretation(
            sig, {"s1": ("e1", "e2")},
            funcs={"f": {("e1",): table[0], ("e2",): table[1]}})
        if check_stable_both(f, ("f",), i):
            mapped.append(interp_to_unsorted(i, sig))
    uni = {MERGED_SORT: ("e1", "e2", "x3")}
    for l in vary_on(FiniteInterpretation(
            usig, uni,
            preds={sort_pred("s1"): frozenset({("e1",), ("e2",)})}), ("f",)):
        if check_stable_both(full, ("f",), l):
            assert any(related(l, interp_to_unsorted_on(m, uni), sig)
                       for m in mapped)


def interp_to_unsorted_on(l, uni):
    """Re-embed a mapped interpretation into a larger merged universe by
    padding the function with the first element."""
    table = dict(l.funcs["f"])
    for e in uni[MERGED_SORT]:
        table.setdefault((e,), uni[MERGED_SORT][0])
    return FiniteInterpretation(l.signature, uni, funcs={"f": table},
                                preds=l.preds)


def test_related_compares_only_well_sorted_tuples():
    sig = sorted_sig()
    usig = unsorted_signature(sig)
    a = big_universe_interp(usig, {("e1",): "e1", ("e2",): "e2",
                                   ("x3",): "x3", ("x4",): "x4"})
    b = big_universe_interp(usig, {("e1",): "e1", ("e2",): "e2",
                                   ("x3",): "e1", ("x4",): "e2"})
    assert related(a, b, sig)
    c = big_universe_interp(usig, {("e1",): "e2", ("e2",): "e2",
                                   ("x3",): "x3", ("x4",): "x4"})
    assert not related(a, c, sig)
