"""Long chains and deep nesting in the parser, the printer and the
syntactic walks.

A chain of not, ->, & or unary minus is parsed, walked and printed without
recursion, so its length is not limited.  Parentheses, braces, quantifier
bodies and argument lists still recurse; past MAX_NESTING levels they are
a ParseError at the opening token, which the CLI reports with exit 2.
"""

import contextlib
import io
import re

import pytest

from fsmkit.cli import main
from fsmkit.parser import (
    MAX_NESTING, ParseError, parse_formula, parse_program, print_formula,
    print_program,
)
from fsmkit.syntax import (
    And, App, Atom, BOT, Equal, Exists, Forall, Implies, Lit, Not, Or,
    Signature, Var, free_vars, is_not,
)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _file(tmp_path, text, name="deep.fsm"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_a_rule_body_of_5000_conjuncts(tmp_path):
    text = "pred p.\nintensional p.\np :- " + " & ".join(["p"] * 5000) + ".\n"
    path = _file(tmp_path, text)
    code, out, err = _cli(["parse", path])
    assert (code, err) == (0, "")
    assert out.endswith("p :- " + " & ".join(["p"] * 5000) + ".\n")
    code, out, err = _cli(["check-tight", path])
    assert (code, out, err) == (1, "not tight: p -> p\n", "")


def test_a_rule_body_of_5000_conjuncts_under_a_head_variable(tmp_path):
    # Clark normal form renames X in the body: subst walks the long body
    body = " & ".join(["q(X)"] * 5000)
    text = "sort s = {a, b}.\npred p : s.\npred q : s.\nvar X : s.\n" \
        f"intensional p.\np(X) :- {body}.\n"
    path = _file(tmp_path, text)
    assert _cli(["check-tight", path]) == (0, "tight\n", "")
    code, out, err = _cli(["complete", path])
    assert (code, err) == (0, "")
    assert out == "forall X1 (" + " & ".join(["q(X1)"] * 5000) \
        + " <-> p(X1))\n"


def test_free_vars_of_a_long_conjunction_and_of_shadowing_binders():
    x, y = Var("X", "s"), Var("Y", "s")
    f = Atom("p", (x,))
    for _ in range(5000):
        f = And(f, Atom("q", (y,)))
    assert free_vars(f) == {x, y}
    # X is bound twice on one path and free beside it
    g = And(Forall(x, And(Exists(x, Atom("p", (x,))), Atom("p", (x,)))),
            Atom("q", (x, App("f", (y,)))))
    assert free_vars(g) == {x, y}
    assert free_vars(Forall(x, Equal(x, y))) == {y}


def test_parentheses_nest_up_to_the_limit(tmp_path):
    ok = "pred p.\nintensional p.\np :- " + "(" * MAX_NESTING + "p" \
        + ")" * MAX_NESTING + ".\n"
    assert parse_program(ok).rules[0].body == Atom("p")
    deep = "pred p.\nintensional p.\np :- " + "(" * 350 + "p" + ")" * 350 + ".\n"
    with pytest.raises(ParseError) as exc:
        parse_program(deep, file="deep.fsm")
    # the opening parenthesis one past the limit
    col = len("p :- ") + MAX_NESTING + 1
    assert str(exc.value) == \
        f"deep.fsm:3:{col}: nesting deeper than {MAX_NESTING} levels"
    path = _file(tmp_path, deep)
    code, out, err = _cli(["check-tight", path])
    assert (code, out) == (2, "")
    assert err == f"{path}:3:{col}: nesting deeper than {MAX_NESTING} levels\n"


def test_nested_parentheses_around_a_formula_are_read_once(monkeypatch):
    # a group is tried as a term only when an operator or a comparison
    # follows it; reading each group as a term first, and then again as a
    # formula, took a number of calls quadratic in the depth
    from fsmkit.parser import Parser
    calls = []
    for name in ("_comparison", "_term"):
        method = getattr(Parser, name)
        monkeypatch.setattr(Parser, name, lambda self, m=method:
                            calls.append(1) or m(self))

    def count(depth):
        del calls[:]
        text = "pred p.\npred q.\np :- " + "(" * depth + "p & q" \
            + ")" * depth + ".\n"
        body = parse_program(text).rules[0].body
        assert body == And(Atom("p"), Atom("q"))
        return len(calls)

    assert count(200) <= 2 * count(100) + 10


@pytest.mark.parametrize("text, want", [
    ("((1 + 2)) = 3", Equal(App("+", (Lit(1), Lit(2))), Lit(3))),
    ("((o)) * 2 = 4", Equal(App("*", (App("o", ()), Lit(2))), Lit(4))),
    ("((r(1)))", Atom("r", (Lit(1),))),
    ("(((p)) & (r(o)))", And(Atom("p"), Atom("r", (App("o", ()),)))),
    ("(((o)) = 1 | p)", Or(Equal(App("o", ()), Lit(1)), Atom("p"))),
])
def test_a_parenthesized_term_or_formula_parses_as_before(text, want):
    sig = parse_program("pred p.\npred r : int.\nfunc o : -> int.\n"
                        ).signature
    assert parse_formula(text, sig) == want


@pytest.mark.parametrize("body", [
    "p(" + "g(" * 400 + "a" + ")" * 401,          # argument lists
    "{ " * 400 + "p(a)" + " }" * 400,             # choice braces
    "exists X (" * 400 + "p(X)" + ")" * 400,      # quantifier bodies
])
def test_other_nesting_past_the_limit_is_a_parse_error(body):
    text = "sort s = {a}.\nfunc g : s -> s.\npred p : s.\nvar X : s.\n" \
        f"intensional p.\n:- {body}.\n"
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert f"nesting deeper than {MAX_NESTING} levels" in str(exc.value)
    assert exc.value.span.line == 6


def test_a_chain_of_2000_negations(tmp_path):
    text = "pred p.\npred q.\nintensional p.\np :- " + "not " * 2000 + "q.\n"
    # walked in a loop: == on records recurses
    f = parse_program(text).rules[0].body
    for _ in range(2000):
        f = is_not(f)
    assert f == Atom("q")
    path = _file(tmp_path, text)
    code, out, err = _cli(["parse", path])
    assert (code, err) == (0, "")
    assert out.endswith("p :- " + "not " * 2000 + "q.\n")
    assert _cli(["check-tight", path])[:2] == (0, "tight\n")


def test_a_chain_of_3000_implications(tmp_path):
    text = "pred p.\nintensional p.\n:- " + " -> ".join(["p"] * 3000) + ".\n"
    f = parse_program(text).rules[0].body
    for _ in range(2999):
        assert isinstance(f, Implies) and f.left == Atom("p")
        f = f.right
    assert f == Atom("p")
    code, out, err = _cli(["parse", _file(tmp_path, text)])
    assert (code, err) == (0, "")
    assert out.endswith(":- " + " -> ".join(["p"] * 3000) + ".\n")


def test_a_chain_of_2000_unary_minus(tmp_path):
    text = "func f : -> int.\nintensional f.\nf = " + "- " * 2000 + "1.\n"
    head = parse_program(text).rules[0].head
    assert isinstance(head, Equal) and head.left == App("f")
    t = head.right
    for _ in range(2000):
        assert t.fn == "-" and t.args[0] == Lit(0)
        t = t.args[1]
    assert t == Lit(1)
    code, out, err = _cli(["parse", _file(tmp_path, text)])
    assert (code, err) == (0, "")
    assert out.endswith("f = " + "0 - (" * 1999 + "0 - 1" + ")" * 1999 + ".\n")


def test_a_sum_of_3000_terms_prints_and_parses_back():
    sig = Signature()
    sig.declare_func("f", (), "int")
    text = "f = " + " + ".join(["1"] * 3000)
    f = parse_formula(text, sig)
    assert print_formula(f) == text
    t = f.right
    for _ in range(2999):
        assert t.fn == "+" and t.args[1] == Lit(1)
        t = t.args[0]
    assert t == Lit(1)


def test_a_semantic_pass_too_deep_for_recursion_exits_2(tmp_path):
    # to-smt drops the chain's pairs of negations in a loop; grounding
    # still recurses once per negation
    text = "pred p.\npred q.\nintensional p.\np :- " + "not " * 2000 + "q.\n"
    path = _file(tmp_path, text)
    code, out, err = _cli(["to-smt", path])
    assert (code, err) == (0, "")
    assert "(assert (=> q p))\n(assert (=> p q))\n" in out
    code, out, err = _cli(["stable", path])
    assert (code, out) == (2, "")
    assert re.fullmatch(
        r"error: stable: recursion limit reached in \w+ \(\w+\.py:\d+\): "
        r"a formula is nested too deeply, or this is an internal error\n", err)


@pytest.mark.parametrize("text, want", [
    ("a -> b -> c", Implies(Atom("a"), Implies(Atom("b"), Atom("c")))),
    ("a <-> b <-> c",
     And(Implies(And(Implies(Atom("a"), Atom("b")), Implies(Atom("b"), Atom("a"))),
                 Atom("c")),
         Implies(Atom("c"),
                 And(Implies(Atom("a"), Atom("b")), Implies(Atom("b"), Atom("a")))))),
    ("a & b | c -> a | not b & c",
     Implies(Or(And(Atom("a"), Atom("b")), Atom("c")),
             Or(Atom("a"), And(Not(Atom("b")), Atom("c"))))),
    ("a -> b <-> c",
     And(Implies(Implies(Atom("a"), Atom("b")), Atom("c")),
         Implies(Atom("c"), Implies(Atom("a"), Atom("b"))))),
    ("not not a & false",
     And(Not(Not(Atom("a"))), BOT)),
])
def test_connectives_group_as_before(text, want):
    sig = Signature()
    for name in "abc":
        sig.declare_pred(name, ())
    assert parse_formula(text, sig) == want


@pytest.mark.parametrize("text, want", [
    ("x - y - z", App("-", (App("-", (Var("x", "int"), Var("y", "int"))),
                            Var("z", "int")))),
    ("x - y * z", App("-", (Var("x", "int"),
                            App("*", (Var("y", "int"), Var("z", "int")))))),
    ("-x * y", App("*", (App("-", (Lit(0), Var("x", "int"))), Var("y", "int")))),
    ("x / y / z", App("/", (App("/", (Var("x", "int"), Var("y", "int"))),
                            Var("z", "int")))),
    ("(x + y) * - - z",
     App("*", (App("+", (Var("x", "int"), Var("y", "int"))),
               App("-", (Lit(0), App("-", (Lit(0), Var("z", "int")))))))),
])
def test_arithmetic_groups_as_before(text, want):
    sig = Signature()
    sig.declare_func("f", (), "int")
    vs = {"x": "int", "y": "int", "z": "int"}
    assert parse_formula(f"f = {text}", sig, var_sorts=vs) == \
        Equal(App("f"), want)


def test_print_program_round_trips_deep_programs():
    text = "pred p.\npred q.\nintensional p.\np :- " + "not " * 1500 + "q.\n" \
        + ":- " + " -> ".join(["q"] * 1500) + ".\n"
    p = parse_program(text)
    assert print_program(parse_program(print_program(p))) == print_program(p)
