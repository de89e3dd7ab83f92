"""SMT-LIB emission and model decoding for theories with an arithmetic
background, checked against an exact-rational evaluation of the emitted
scripts (stand_in_solver.eval_sexpr)."""

import itertools
import random
from fractions import Fraction

import pytest

from fsmkit import aspmt
from fsmkit.aspmt import (
    BackgroundTheory, DecodeError, NotATInterpretationError, SmtError,
    decode_model, emit_smtlib,
    parse_sexprs, solve_all, solver_path, t_stable_check, validate_smtlib,
)
from fsmkit.cli import main
from fsmkit.interp import FiniteInterpretation
from fsmkit.parser import parse_program
from fsmkit.stable import stable_models
from fsmkit.syntax import (
    App, Equal, Exists, Forall, FragmentError, FreshNames, Implies, Lit,
    Signature, Var, conj,
)
from fsmkit.transforms import complete, to_clark_normal_form

from conftest import (
    DEMOS, STAND_IN, random_choice_program, record_calls, script_holds,
)


# ---------------------------------------------------------------------------
# fixtures

def water_tank():
    prog = parse_program((DEMOS / "watertank.fsm").read_text())
    f = conj(r.as_formula() for r in prog.rules)
    return prog, f


def tank_interp(prog, a0, a1, flush):
    return FiniteInterpretation(
        prog.signature, {"amt": tuple(range(21))},
        funcs={"amt0": {(): a0}, "amt1": {(): a1}},
        preds={"flush": frozenset([()] if flush else [])})


# ---------------------------------------------------------------------------
# the stability check relative to a background

def test_t_stable_check_tank_verdicts():
    prog, f = water_tank()
    bg = BackgroundTheory("integers")
    assert t_stable_check(f, prog.intensional, tank_interp(prog, 5, 6, False), bg)
    assert not t_stable_check(f, prog.intensional, tank_interp(prog, 5, 9, False), bg)
    assert t_stable_check(f, prog.intensional, tank_interp(prog, 5, 0, True), bg)


def test_t_stable_check_reads_a_slice_sort_the_interpretation_leaves_out(
        monkeypatch):
    # the interpretation's universe has no amt, so it takes the slice's
    prog, f = water_tank()
    bg = BackgroundTheory("integers", slice={"amt": tuple(range(4))})
    seen = record_calls(monkeypatch, aspmt, "check_stable")
    for a0, a1, flush, stable in ((2, 3, False, True), (2, 1, False, False),
                                  (3, 0, True, True)):
        i = FiniteInterpretation(
            prog.signature, {}, funcs={"amt0": {(): a0}, "amt1": {(): a1}},
            preds={"flush": frozenset([()] if flush else [])})
        assert t_stable_check(f, prog.intensional, i, bg) == stable
    assert [args[2].universe for args in seen] == [bg.slice] * 3


def test_t_stable_check_rejects_mismatched_slice():
    prog, f = water_tank()
    bg = BackgroundTheory("integers", slice={"amt": tuple(range(5))})
    with pytest.raises(NotATInterpretationError):
        t_stable_check(f, prog.intensional, tank_interp(prog, 5, 6, False), bg)


# ---------------------------------------------------------------------------
# emission

def test_emit_requires_background():
    prog, f = water_tank()
    with pytest.raises(SmtError):
        emit_smtlib(f, prog.intensional, prog.signature,
                    BackgroundTheory("none"))


@pytest.mark.parametrize("form", ["rules", "completed"])
def test_emit_refuses_a_formula_not_in_clark_normal_form(form):
    # the compiler completes what it is given: compiling the rules alone
    # would give their classical models, not the stable ones
    prog, f = water_tank()
    if form == "completed":
        f = complete(to_clark_normal_form(f, prog.intensional, prog.signature),
                     prog.intensional, prog.signature)
    with pytest.raises(FragmentError, match="not in Clark normal form"):
        emit_smtlib(f, prog.intensional, prog.signature,
                    BackgroundTheory("integers"))


def test_emission_is_deterministic_and_valid():
    prog, f = water_tank()
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    bg = BackgroundTheory("integers")
    s1 = emit_smtlib(cnf, prog.intensional, prog.signature, bg)
    s2 = emit_smtlib(cnf, prog.intensional, prog.signature, bg)
    assert s1.render() == s2.render()
    assert s1.logic == "QF_LIA"
    assert validate_smtlib(s1.render())


def test_emission_with_residual_quantifier_is_deterministic():
    # a quantifier that no guard eliminates gets a fresh name; the names must
    # not depend on how many scripts were emitted before
    prog = parse_program("""
func h : -> real.
func g : -> real.
var Y : real.
var Z : real.
intensional h.
h = Y :- Z > Y & Z < g.
""")
    f = conj(r.as_formula() for r in prog.rules)
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    bg = BackgroundTheory("reals")
    s1 = emit_smtlib(cnf, prog.intensional, prog.signature, bg).render()
    s2 = emit_smtlib(cnf, prog.intensional, prog.signature, bg).render()
    assert "(forall ((Q1 Real))" in s1
    assert s1 == s2


def test_residual_quantifiers_share_one_name_supply():
    # the rules are compiled one top-level conjunct at a time; the fresh
    # names still count across the whole script
    prog = parse_program("""
func h : -> real.
func k : -> real.
func g : -> real.
var Y : real.
var Z : real.
intensional h, k.
h = Y :- Z > Y & Z < g.
k = Y :- Z > Y & Z < h.
""")
    f = conj(r.as_formula() for r in prog.rules)
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    script = emit_smtlib(cnf, prog.intensional, prog.signature,
                         BackgroundTheory("reals"))
    assert [a for a in script.assertions if "forall" in a] == [
        "(forall ((X1 Real)) (forall ((Q1 Real)) "
        "(=> (and (> Q1 X1) (< Q1 g)) (= h X1))))",
        "(forall ((X2 Real)) (forall ((Q2 Real)) "
        "(=> (and (> Q2 X2) (< Q2 h)) (= k X2))))"]


def test_emission_includes_range_guards():
    prog, f = water_tank()
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    script = emit_smtlib(cnf, prog.intensional, prog.signature,
                         BackgroundTheory("integers"))
    assert "(and (<= 0 amt1) (<= amt1 20))" in script.assertions


def test_emitted_tank_models_equal_stable_models():
    """Classical models of the emitted completion, found by exhaustive
    exact-rational evaluation, coincide with the stable models."""
    prog, f = water_tank()
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    script = emit_smtlib(cnf, prog.intensional, prog.signature,
                         BackgroundTheory("integers"))
    expected = {(m.funcs["amt1"][()], bool(m.preds["flush"]))
                for m in stable_models(
                    f, prog.intensional, prog.signature,
                    {"amt": tuple(range(21))})
                if m.funcs["amt0"] == {(): 5}}
    got = set()
    for a1, flush in itertools.product(range(21), (False, True)):
        env = {"amt0": Fraction(5), "amt1": Fraction(a1), "flush": flush}
        if script_holds(script, env):
            got.add((a1, flush))
    assert got == expected


def test_car_script_is_quantifier_free_and_valid():
    prog = parse_program((DEMOS / "car.fsm").read_text())
    f = conj(r.as_formula() for r in prog.rules)
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    script = emit_smtlib(cnf, prog.intensional, prog.signature,
                         BackgroundTheory("reals"))
    assert script.logic == "QF_NRA"
    text = script.render()
    assert validate_smtlib(text)
    assert "forall" not in text and "exists" not in text
    # emission is reproducible byte for byte
    script2 = emit_smtlib(cnf, prog.intensional, prog.signature,
                          BackgroundTheory("reals"))
    assert script2.render() == text


def test_quantifier_elimination_on_guarded_bodies():
    sig = Signature()
    sig.declare_sort("t", (0, 1))
    sig.declare_func("speed", (), "real", tag="user")
    x = Var("X", "real")
    f = Forall(x, Implies(Equal(App("speed", ()), x),
                          Implies(Equal(x, Lit(3)), Equal(App("speed", ()), x))))
    out = aspmt._rewritten(f, sig, BackgroundTheory("reals"), FreshNames("Q"))
    assert not isinstance(out, (Forall, Exists))


def k_guards(k):
    """:- f0 = X0 & ... & f{k-1} = X{k-1} & X0 + ... + X{k-1} > 0 over real:
    k nested universals, each pinned down by a guard."""
    text = "".join(f"func f{n} : -> real.\nvar X{n} : real.\n"
                   for n in range(k))
    total = " + ".join(f"X{n}" for n in range(k))
    return text + ":- " + " & ".join(f"f{n} = X{n}" for n in range(k)) \
        + f" & {total} > 0.\n"


def test_the_rewrite_walk_is_linear_in_the_guards(monkeypatch):
    # one walk per rule: 3k + 2 calls of the walk and one rule call per
    # universal, where a retry of each rewritten body would be quadratic
    counts = []
    for k in (4, 8, 16, 32, 64):
        prog = parse_program(k_guards(k))
        f = conj(r.as_formula() for r in prog.rules)
        walked = record_calls(monkeypatch, aspmt, "_rewritten")
        ruled = record_calls(monkeypatch, aspmt, "_universal")
        script = emit_smtlib(f, prog.intensional, prog.signature,
                             BackgroundTheory("reals"))
        monkeypatch.undo()
        total = "f0"
        for n in range(1, k):
            total = f"(+ {total} f{n})"
        assert script.assertions == [f"(not (> {total} 0.0))"]
        counts.append((k, len(walked), len(ruled)))
    assert counts == [(k, 3 * k + 2, k) for k, _, _ in counts]


RESIDUAL = """
func s0 : -> real.
func s1 : -> real.
func d : -> real.
func f : -> real.
func g : -> real.
pred a.
var X : real.
var Y : real.
var D : real.
intensional s1, f.
s1 = Y :- a & s0 = X & d = D & Y = X + D.
f = Y :- Y > X & X > g.
"""


def test_to_smt_eliminates_one_rule_and_keeps_a_residual_quantifier(
        tmp_path, capsys):
    # the existentials the walk eliminates draw no fresh name, so the one
    # residual quantifier is Q1
    path = tmp_path / "residual.fsm"
    path.write_text(RESIDUAL)
    assert main(["to-smt", "--background", "reals", str(path)]) == 0
    assert capsys.readouterr().out == """(set-logic NRA)
(declare-const a Bool)
(declare-const d Real)
(declare-const f Real)
(declare-const g Real)
(declare-const s0 Real)
(declare-const s1 Real)
(assert a)
(assert (= s1 (+ s0 d)))
(assert (=> a (= s1 (+ s0 d))))
(assert (exists ((X Real)) (and (> f X) (> X g))))
(assert (forall ((X2 Real)) (forall ((Q1 Real)) \
(=> (and (> X2 Q1) (> Q1 g)) (= f X2)))))
(check-sat)
(get-model)
"""


@pytest.mark.parametrize("reduced, written", [
    ("f = Y :- g = X & X + 1 = Y.", "f = Y :- g + 1 = Y."),
    ("f = Y :- g = X.", "f = Y."),
])
def test_a_body_the_walk_reduces_compiles_as_the_body_it_reduces_to(
        reduced, written):
    # the elimination rules read a quantifier's rewritten body, so the
    # existential X that a guard eliminates leaves no trace
    decls = """
func f : -> real.
func g : -> real.
var X : real.
var Y : real.
intensional f.
"""
    scripts = []
    for rule in (reduced, written):
        prog = parse_program(decls + rule)
        f = conj(r.as_formula() for r in prog.rules)
        cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
        scripts.append(emit_smtlib(cnf, prog.intensional, prog.signature,
                                   BackgroundTheory("reals")).assertions)
    assert scripts[0] == scripts[1]


# ---------------------------------------------------------------------------
# decoding

def test_decode_model_round_trip():
    prog, f = water_tank()
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    bg = BackgroundTheory("integers")
    script = emit_smtlib(cnf, prog.intensional, prog.signature, bg)
    text = """sat
(model
  (define-fun amt0 () Int 5)
  (define-fun amt1 () Int 6)
  (define-fun flush () Bool false)
)"""
    i = decode_model(text, script, prog.signature, bg)
    assert i.funcs["amt0"][()] == 5
    assert i.funcs["amt1"][()] == 6
    assert i.preds["flush"] == frozenset()


PLACE = """
sort place = {home, work, gym}.
object here : place.
pred busy.
intensional busy.
:- here = gym.
busy :- here = work.
"""


def test_an_enumerated_value_sort_is_encoded_by_element_index():
    # here is an Int that ranges over the indices of home, work and gym;
    # an equation with a named element compares with its index, and a
    # model's index decodes to the element
    prog = parse_program(PLACE)
    f = conj(r.as_formula() for r in prog.rules)
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    bg = BackgroundTheory("integers")
    script = emit_smtlib(cnf, prog.intensional, prog.signature, bg)
    lines = script.render().splitlines()
    assert "(assert (or (= here 0) (= here 1) (= here 2)))" in lines
    assert "(assert (=> (= here 1) busy))" in lines
    i = decode_model("sat\n(model (define-fun busy () Bool true)"
                     " (define-fun here () Int 1))", script, prog.signature, bg)
    assert i.funcs == {"here": {(): "work"}}
    assert i.preds == {"busy": frozenset({()})}


def test_decode_model_reports_missing_symbols():
    prog, f = water_tank()
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    bg = BackgroundTheory("integers")
    script = emit_smtlib(cnf, prog.intensional, prog.signature, bg)
    with pytest.raises(DecodeError):
        decode_model("sat\n(model (define-fun amt0 () Int 5))",
                     script, prog.signature, bg)


def test_decode_model_converts_every_value():
    # a malformed value is reported even for a name the script never declared
    prog, f = water_tank()
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    bg = BackgroundTheory("integers")
    script = emit_smtlib(cnf, prog.intensional, prog.signature, bg)
    text = """(model
  (define-fun amt0 () Int 5)
  (define-fun amt1 () Int 6)
  (define-fun flush () Bool false)
  (define-fun extra () Int (f 1))
)"""
    with pytest.raises(DecodeError):
        decode_model(text, script, prog.signature, bg)


def test_solve_all_blocks_each_model_until_unsat(monkeypatch):
    prog, f = water_tank()
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    bg = BackgroundTheory("integers")
    script = emit_smtlib(cnf, prog.intensional, prog.signature, bg)
    replies = [
        ("sat", "(model (define-fun amt0 () Int 5) (define-fun amt1 () Int 6)"
                " (define-fun flush () Bool false))"),
        ("sat", "(model (define-fun amt0 () Int 3) (define-fun amt1 () Int 0)"
                " (define-fun flush () Bool true))"),
        ("unsat", ""),
    ]
    sent = []

    def fake_run_solver(s, solver=None, timeout_ms=60000):
        sent.append(s)
        return replies[len(sent) - 1]

    monkeypatch.setattr("fsmkit.aspmt.run_solver", fake_run_solver)
    models = solve_all(script, prog.signature, bg)
    assert [(m.funcs["amt0"][()], m.funcs["amt1"][()], m.preds["flush"])
            for m in models] == [(5, 6, frozenset()), (3, 0, frozenset({()}))]
    block1 = "(not (and (= amt0 5) (= amt1 6) (= flush false)))"
    block2 = "(not (and (= amt0 3) (= amt1 0) (= flush true)))"
    assert [s.assertions[len(script.assertions):] for s in sent] == \
        [[], [block1], [block1, block2]]
    assert all(s.declarations == script.declarations for s in sent)


def test_solve_all_with_a_solver_finds_the_stable_models(tmp_path):
    # a real solver run per model, through tests/stand_in_solver.py
    prog = parse_program(
        (DEMOS / "watertank.fsm").read_text().replace("0..20", "0..3"))
    f = conj(r.as_formula() for r in prog.rules)
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    bg = BackgroundTheory("integers")
    script = emit_smtlib(cnf, prog.intensional, prog.signature, bg)
    models = solve_all(script, prog.signature, bg, solver=str(STAND_IN))
    stable = stable_models(f, prog.intensional, prog.signature, prog.universe)
    assert len(models) == len(stable) == 7
    assert set(models) == set(stable)


def test_solve_all_reads_negative_values_back():
    # the slice amt=-2..2 gives the guards (<= (- 2) amt0) and models with
    # (- n) values, which solve_all decodes and writes into its blocks
    prog, f = water_tank()
    amt = tuple(range(-2, 3))
    bg = BackgroundTheory("integers", slice={"amt": amt})
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    script = emit_smtlib(cnf, prog.intensional, prog.signature, bg)
    assert "(and (<= (- 2) amt0) (<= amt0 2))" in script.assertions
    models = solve_all(script, prog.signature, bg, solver=str(STAND_IN))
    stable = stable_models(f, prog.intensional, prog.signature, {"amt": amt})
    assert len(models) == len(stable) == 9
    assert set(models) == set(stable)


def test_solve_all_agrees_with_stable_models_on_random_choice_programs():
    # the SMT route end to end: completion, emission, one stand-in solver
    # run per model found and one more for unsat, then decoding
    rng = random.Random(20240817)
    c = ["f", "g", "p"]
    bg = BackgroundTheory("integers")
    counts = []
    for _ in range(12):
        sig, f = random_choice_program(rng)
        script = emit_smtlib(to_clark_normal_form(f, c, sig), c, sig, bg)
        models = solve_all(script, sig, bg, solver=str(STAND_IN))
        stable = stable_models(f, c, sig, {"bool": (False, True),
                                           "u": (1, 2)})
        assert len(models) == len(set(models)), f
        assert set(models) == set(stable), f
        counts.append(len(stable))
    # the choice rules make most programs have several models
    assert sum(n >= 2 for n in counts) >= len(counts) // 2, counts


def test_parse_sexprs_rejects_unbalanced_text():
    with pytest.raises(DecodeError):
        parse_sexprs("(define-fun amt0 () Int 5")


def test_validate_smtlib_rejects_junk():
    with pytest.raises(DecodeError):
        validate_smtlib("(assert (= a b)")
    with pytest.raises(SmtError):
        validate_smtlib("")
    with pytest.raises(SmtError):
        validate_smtlib("(frobnicate x)")


def test_validate_smtlib_reports_the_first_fault_in_order():
    script = ("(set-logic QF_LIA)\n(declare-const a Int)\n"
              "(assert (and (= a 1) (< a 2#)))\n(assert (= a{ 3))\n"
              "(frob)\n(check-sat)\n")
    with pytest.raises(SmtError, match=r"lexically invalid token '2#'"):
        validate_smtlib(script)
    # a bad command in a later form is not reached before a bad token
    with pytest.raises(SmtError, match=r"lexically invalid token 'a\{'"):
        validate_smtlib(script.replace("2#", "2"))
    with pytest.raises(SmtError, match="unknown command 'frob'"):
        validate_smtlib(script.replace("2#", "2").replace("a{", "a"))
    # the command is checked before the atoms of its own form
    with pytest.raises(SmtError, match="unknown command 'frob'"):
        validate_smtlib("(frob 1#)")
    with pytest.raises(SmtError, match="top-level atom 'x'"):
        validate_smtlib("(check-sat) x (frob)")
    with pytest.raises(SmtError, match=r"unknown command \['assert'\]"):
        validate_smtlib("((assert) true)")
    # every atom shape the grammar allows
    assert validate_smtlib('(set-info :status |odd| "string" -12 3.50'
                           ' x.y!z)')


def test_solver_path_honours_environment(monkeypatch):
    monkeypatch.delenv("FSMKIT_SOLVER", raising=False)
    assert solver_path() is None
    assert solver_path("z3") == "z3"
    monkeypatch.setenv("FSMKIT_SOLVER", "/some/solver")
    assert solver_path() == "/some/solver"
