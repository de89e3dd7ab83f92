"""Swapping intensional predicates for two-valued functions and back."""

import pytest

from fsmkit.eliminations import (
    eliminate_function, eliminate_predicate, map_func_to_pred,
    map_pred_to_func, map_pred_to_func_graph, two_value_names,
)
from fsmkit.interp import (
    FiniteInterpretation, enumerate_interpretations, vary_on,
)
from fsmkit.stable import check_stable_both, stable_models
from fsmkit.syntax import (
    App, Atom, Equal, FragmentError, Implies, Lit, Not, Signature, TOP, Var,
    conj,
)


def test_two_value_names():
    assert two_value_names("f") == ("f__0", "f__1")


def pred_sig():
    sig = Signature()
    sig.declare_sort("u", (1, 2))
    sig.declare_pred("p", ("u",))
    return sig


def test_eliminate_predicate_shape():
    sig = pred_sig()
    x = Var("X", "u")
    f = Atom("p", (x,))
    g, axioms, ext = eliminate_predicate(f, "p", "fp", sig)
    assert "fp" in ext.functions
    assert "fp__sort" in ext.sorts
    assert ext.sorts["fp__sort"].elements == ("fp__0", "fp__1")
    # default, distinctness, and totality come along
    assert len(axioms) == 3


def test_predicate_elimination_bijection():
    """Stable models correspond one-to-one through the rewriting."""
    sig = pred_sig()
    x = Var("X", "u")
    f = Implies(Not(Atom("p", (Lit(1),))), Atom("p", (Lit(2),)))
    g, axioms, ext = eliminate_predicate(f, "p", "fp", sig)
    g_all = conj([g] + axioms)

    originals = [i for i in enumerate_interpretations(sig, {"u": (1, 2)})
                 if check_stable_both(f, ("p",), i)]
    assert originals
    fp_tables = []
    for i in originals:
        j = map_pred_to_func(i, "p", "fp", ext)
        assert check_stable_both(g_all, ("fp",), j)
        fp_tables.append(j.funcs["fp"])
    # count the stable models on the function side, holding the two value
    # constants at their canonical interpretation; must match one-to-one
    universe = {"u": (1, 2), "fp__sort": ("fp__0", "fp__1")}
    translated = [j for j in vary_on(FiniteInterpretation(
                      ext, universe,
                      {"fp__0": {(): "fp__0"}, "fp__1": {(): "fp__1"}},
                      {"p": frozenset()}), ("fp",))
                  if check_stable_both(g_all, ("fp",), j)]
    assert sorted(map(repr, (j.funcs["fp"] for j in translated))) \
        == sorted(map(repr, fp_tables))


def test_eliminate_function_requires_plain_occurrences():
    sig = Signature()
    sig.declare_sort("u", (1, 2))
    sig.declare_func("f", (), "u")
    sig.declare_pred("q", ("u",))
    not_plain = Atom("q", (App("f", ()),))
    with pytest.raises(FragmentError):
        eliminate_function(not_plain, "f", "pf", sig)


def test_function_elimination_bijection():
    sig = Signature()
    sig.declare_sort("u", (1, 2))
    sig.declare_func("f", (), "u")
    x = Var("X", "u")
    f = Equal(App("f", ()), Lit(2))
    g, axioms, ext = eliminate_function(f, "f", "pf", sig)
    assert "pf" in ext.predicates
    g_all = conj([g] + axioms)

    originals = [i for i in enumerate_interpretations(sig, {"u": (1, 2)})
                 if check_stable_both(f, ("f",), i)]
    assert len(originals) == 1
    for i in originals:
        j = map_func_to_pred(i, "f", "pf", ext)
        assert check_stable_both(g_all, ("pf",), j)
        back = map_pred_to_func_graph(j, "pf", "f", sig)
        assert back.funcs["f"] == i.funcs["f"]
    translated = [j for j in vary_on(FiniteInterpretation(
                      ext, {"u": (1, 2)}, {"f": {(): 1}}), ("pf",))
                  if check_stable_both(g_all, ("pf",), j)]
    assert len(translated) == len(originals)
    assert translated[0].preds["pf"] == frozenset({(2,)})


def test_graph_mapping_rejects_non_functional_predicates():
    sig = Signature()
    sig.declare_sort("u", (1, 2))
    sig.declare_pred("pf", ("u",))
    bad = FiniteInterpretation(sig, {"u": (1, 2)},
                               preds={"pf": frozenset({(1,), (2,)})})
    with pytest.raises(Exception):
        map_pred_to_func_graph(bad, "pf", "f", sig)


def test_function_elimination_breaks_down_on_singleton_universe():
    """With one element, adding the uniqueness-and-existence axioms for the
    replacement predicate is not conservative: the original trivial theory
    keeps its stable model while the translated one has none."""
    sig = Signature()
    sig.declare_sort("u", (1,))
    sig.declare_func("f", (), "u")
    assert len(stable_models(TOP, ("f",), sig, {"u": (1,)})) == 1

    g, axioms, ext = eliminate_function(TOP, "f", "pf", sig)
    g_all = conj([g] + axioms)
    assert stable_models(g_all, ("pf",), ext, {"u": (1,)}) == []
