"""Surface syntax: parsing, error reporting, and pretty-printing."""

import pytest
from hypothesis import given, settings, strategies as st

from fsmkit.interp import enumerate_interpretations, satisfies
from fsmkit.parser import (
    ParseError, parse_formula, parse_program, print_formula, print_program,
)
from fsmkit.syntax import (
    And, App, Atom, BOT, Equal, Forall, Implies, Not, Or, RULE_CHOICE,
    RULE_CONSTRAINT, Signature, Var,
)
from conftest import make_gen

WATERTANK = """\
sort amt = 0..20.
var X : amt.
func amt0 : -> amt.
func amt1 : -> amt.
pred flush.
intensional amt1.

{ amt1 = X + 1 } :- amt0 = X.
amt1 = 0 :- flush.
"""


def test_parse_program_declarations():
    p = parse_program(WATERTANK)
    assert p.universe["amt"] == tuple(range(21))
    assert p.signature.functions["amt1"] == ((), "amt")
    assert p.signature.predicates["flush"] == ()
    assert p.intensional == ("amt1",)
    assert len(p.rules) == 2
    assert p.rules[0].kind == RULE_CHOICE


def test_parse_enum_sort_and_named_elements():
    p = parse_program("""\
sort switch = {a, b}.
func up : switch -> bool.
intensional up.
up(a) = true.
""")
    assert p.universe["switch"] == ("a", "b")
    f = p.rules[0].as_formula()
    assert isinstance(f, Equal)


def test_parse_constraint_rule():
    p = parse_program("pred q.\nintensional q.\n:- not q.\n")
    assert p.rules[0].kind == RULE_CONSTRAINT
    assert p.rules[0].head == BOT


def test_parse_formula_connective_precedence():
    sig = Signature()
    sig.declare_pred("a", ())
    sig.declare_pred("b", ())
    sig.declare_pred("c", ())
    f = parse_formula("a | b & c", sig)
    assert f == Or(Atom("a", ()), And(Atom("b", ()), Atom("c", ())))
    g = parse_formula("not a -> b", sig)
    assert g == Implies(Not(Atom("a", ())), Atom("b", ()))


def test_parse_formula_quantifier_and_comparison():
    sig = Signature()
    sig.declare_sort("s", (1, 2))
    sig.declare_func("f", ("s",), "s")
    f = parse_formula("forall X (f(X) != X)", sig, var_sorts={"X": "s"})
    assert isinstance(f, Forall)
    assert f.var == Var("X", "s")
    assert f.body == Not(Equal(App("f", (Var("X", "s"),)), Var("X", "s")))


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_program("sort s = 0..3.\nfunc f : -> nosuch.\n")
    assert exc.value.span.line == 2


def test_parse_error_on_undeclared_symbol():
    with pytest.raises(ParseError):
        parse_program("pred q.\nq :- mystery.\n")


def test_print_program_round_trip():
    p = parse_program(WATERTANK)
    text = print_program(p)
    p2 = parse_program(text)
    assert print_program(p2) == text
    assert [r.as_formula() for r in p2.rules] == [r.as_formula() for r in p.rules]
    assert p2.universe == p.universe
    assert p2.intensional == p.intensional


def test_print_formula_round_trip():
    sig = Signature()
    sig.declare_sort("s", (1, 2))
    sig.declare_func("c", (), "s")
    sig.declare_pred("p", ("s",))
    vs = {"X": "s"}
    texts = [
        "c = 1 | not p(2)",
        "forall X (p(X) -> c = X)",
        "exists X (c != X)",
    ]
    for text in texts:
        f = parse_formula(text, sig, var_sorts=vs)
        assert parse_formula(print_formula(f), sig, var_sorts=vs) == f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32), unary=st.booleans(),
       arith=st.booleans())
def test_print_parse_round_trip_on_random_formulas(seed, unary, arith):
    # parsing may re-associate a chain of & or |, so the printed text is
    # compared, and the meaning on every interpretation over u = {1, 2}
    sig, gen = make_gen(seed, with_unary_func=unary, with_arith=arith)
    f = gen.formula(depth=3)
    text = print_formula(f)
    var_sorts = {f"V{k}": "u" for k in range(1, gen.counter + 1)}
    g = parse_formula(text, sig, var_sorts=var_sorts)
    assert print_formula(g) == text
    for i in enumerate_interpretations(sig, {"u": (1, 2)}):
        assert satisfies(i, g) == satisfies(i, f), (text, i.to_json())


def test_print_conjunction_chains():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    iff = And(Implies(p, q), Implies(q, p))
    # an iff at the bottom of the spine, in the middle and at the top
    f = And(And(And(iff, r), iff), Or(p, q))
    assert print_formula(f) == "(p <-> q) & r & (p <-> q) & (p | q)"
    assert print_formula(Not(And(And(p, q), r))) == "not (p & q & r)"
    assert print_formula(iff) == "p <-> q"
    deep = p
    for _ in range(5000):
        deep = And(deep, q)
    assert print_formula(deep) == " & ".join(["p"] + ["q"] * 5000)


def test_demo_files_parse():
    import pathlib
    demos = pathlib.Path(__file__).resolve().parent.parent / "demos"
    for name in ("watertank.fsm", "switches.fsm", "car.fsm"):
        p = parse_program((demos / name).read_text(), file=name)
        p.check()
        assert p.rules
