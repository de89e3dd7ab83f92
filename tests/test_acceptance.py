"""Acceptance gate: one test per shipping criterion, each printing a
single pass/fail line.  Run with -s to see the lines as they happen."""

import itertools
import pathlib
import random
import time
from fractions import Fraction

from fsmkit.aspmt import (
    BackgroundTheory, emit_smtlib, solve_all, solver_path, validate_smtlib,
)
from fsmkit.eliminations import (
    eliminate_function, eliminate_predicate, map_func_to_pred,
    map_pred_to_func, map_pred_to_func_graph,
)
from fsmkit.interp import (
    FiniteInterpretation, enumerate_interpretations, satisfies, vary_on,
)
from fsmkit.parser import parse_program
from fsmkit.related import (
    CRule, LinCon, LRule, LwRule, clingcon_answer_sets, cm_check,
    crules_to_formula, if_check, ljn_answer_check, lrules_to_formula,
    lw_answer_check, lw_formula, program_theory_atoms,
)
from fsmkit.sortsred import (
    MERGED_SORT, interp_to_unsorted, sort_pred, to_unsorted,
)
from fsmkit.stable import (
    METHOD_REDUCT, METHOD_SECOND_ORDER, check_stable, check_stable_both,
    stable_models,
)
from fsmkit.syntax import (
    And, App, Atom, BOT, Choice, Equal, Exists, Forall, Implies, Lit, Not,
    Obj, Or, Signature, TOP, Var, close_universally, conj,
    fol_representation,
)
from fsmkit.transforms import (
    complete, is_head_c_plain, is_tight, to_clark_normal_form, unfold,
)

from conftest import (
    CAUSAL_ROWS, STABLE_ROWS, STAND_IN, load_switches, make_gen,
    random_definition_program, script_holds, switch_interp, switch_rules,
)

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def verdict(n, ok, note=""):
    suffix = f" ({note})" if note else ""
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {n} failed"


# ---------------------------------------------------------------------------

def test_criterion_01_water_tank_verdicts():
    start = time.monotonic()
    prog = parse_program((DEMOS / "watertank.fsm").read_text())
    f = conj(r.as_formula() for r in prog.rules)

    def snap(a0, a1, flush):
        return FiniteInterpretation(
            prog.signature, {"amt": tuple(range(21))},
            funcs={"amt0": {(): a0}, "amt1": {(): a1}},
            preds={"flush": frozenset([()] if flush else [])})

    got = (check_stable(f, prog.intensional, snap(5, 6, False)),
           check_stable(f, prog.intensional, snap(5, 9, False)),
           check_stable(f, prog.intensional, snap(5, 0, True)))
    elapsed = time.monotonic() - start
    verdict(1, got == (True, False, True) and elapsed < 1.0,
            f"{elapsed:.3f}s")


def test_criterion_02_constrained_disjunctive_example():
    sig = Signature()
    sig.declare_sort("s", (1, 2))
    sig.declare_func("f", (), "s")
    sig.declare_func("g", (), "s")
    f_t, g_t = App("f", ()), App("g", ())
    f2 = And(Or(Equal(f_t, Lit(1)), Equal(g_t, Lit(1))),
             Or(Equal(f_t, Lit(2)), Equal(g_t, Lit(2))))
    formula = And(f2, Not(Equal(f_t, Lit(1))))
    models = stable_models(formula, ("f", "g"), sig, {"s": (1, 2)})
    pairs = {(m.funcs["f"][()], m.funcs["g"][()]) for m in models}
    verdict(2, pairs == {(2, 1)})


def test_criterion_03_reduct_and_second_order_agree():
    start = time.monotonic()
    failures = 0
    total = 0
    for seed, elements, count in ((31, (1, 2), 140), (33, (1, 2, 3), 60)):
        sig, gen = make_gen(seed, elements)
        interps = list(enumerate_interpretations(sig, {"u": elements}))
        pick = random.Random(seed)
        for _ in range(count):
            f = gen.formula(depth=4)
            i = pick.choice(interps)
            r = check_stable(f, ("a", "p"), i, METHOD_REDUCT)
            s = check_stable(f, ("a", "p"), i, METHOD_SECOND_ORDER)
            failures += r != s
            total += 1
    elapsed = time.monotonic() - start
    verdict(3, total >= 200 and failures == 0 and elapsed < 60.0,
            f"{total} instances, {elapsed:.1f}s")


def test_criterion_04_completion_equals_stable_on_tight_programs():
    start = time.monotonic()
    rng = random.Random(44)
    failures = 0
    total = 0
    for trial in range(100):
        elements = (1, 2, 3) if trial % 5 == 0 else (1, 2)
        sig, f = random_definition_program(rng, elements)
        c = ("f", "g", "p")
        assert is_tight(f, c)
        comp = complete(to_clark_normal_form(f, c, sig), c, sig)
        for i in enumerate_interpretations(sig, {"u": elements}):
            failures += satisfies(i, comp) != check_stable(f, c, i)
        total += 1
    elapsed = time.monotonic() - start
    verdict(4, total >= 100 and failures == 0 and elapsed < 60.0,
            f"{total} programs, {elapsed:.1f}s")


def _fplain_gen(rng, depth):
    atoms = [Equal(App("f", ()), Lit(1)), Equal(App("f", ()), Lit(2)),
             Atom("q", ())]
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(atoms)
    kind = rng.choice(["and", "or", "imp", "not"])
    if kind == "not":
        return Not(_fplain_gen(rng, depth - 1))
    ctor = {"and": And, "or": Or, "imp": Implies}[kind]
    return ctor(_fplain_gen(rng, depth - 1), _fplain_gen(rng, depth - 1))


def test_criterion_05_predicate_function_bijections():
    failures = 0

    # predicates to two-valued functions
    rng = random.Random(55)
    for _ in range(100):
        sig, gen = make_gen(rng.randrange(10**6))
        f = gen.formula(depth=3)
        g, axioms, ext = eliminate_predicate(f, "p", "fp", sig)
        g_all = conj([g] + axioms)
        for i in enumerate_interpretations(sig, {"u": (1, 2)}):
            lhs = check_stable(f, ("p",), i)
            rhs = check_stable(g_all, ("fp",), map_pred_to_func(i, "p", "fp", ext))
            failures += lhs != rhs

    # functions to predicates constrained to be graphs
    sig2 = Signature()
    sig2.declare_sort("u", (1, 2))
    sig2.declare_func("f", (), "u")
    sig2.declare_pred("q", ())
    for _ in range(100):
        f = _fplain_gen(rng, 3)
        g, axioms, ext = eliminate_function(f, "f", "pf", sig2)
        g_all = conj([g] + axioms)
        for i in enumerate_interpretations(sig2, {"u": (1, 2)}):
            lhs = check_stable(f, ("f",), i)
            j = map_func_to_pred(i, "f", "pf", ext)
            rhs = check_stable(g_all, ("pf",), j)
            failures += lhs != rhs
            if rhs:
                back = map_pred_to_func_graph(j, "pf", "f", sig2)
                failures += back.funcs["f"] != i.funcs["f"]

    # the translation is not faithful over a one-element universe
    sig3 = Signature()
    sig3.declare_sort("u", (1,))
    sig3.declare_func("f", (), "u")
    trivially_stable = len(stable_models(TOP, ("f",), sig3, {"u": (1,)})) == 1
    g, axioms, ext3 = eliminate_function(TOP, "f", "pf", sig3)
    no_translated = stable_models(conj([g] + axioms), ("pf",), ext3,
                                  {"u": (1,)}) == []
    verdict(5, failures == 0 and trivially_stable and no_translated)


def test_criterion_06_if_and_stable_disagreements():
    from fsmkit.related import IfRule
    ok = True

    # a self-supporting pair accepted by the total-function reading only
    sig = Signature()
    sig.declare_sort("s", (1, 2))
    sig.declare_func("c", (), "s")
    sig.declare_func("d", (), "s")
    c, d = App("c", ()), App("d", ())
    i = FiniteInterpretation(sig, {"s": (1, 2)},
                             funcs={"c": {(): 2}, "d": {(): 1}})
    rules = [IfRule(Equal(d, Lit(2)), Equal(c, Lit(1))), IfRule(Equal(d, Lit(1)))]
    formula = And(Implies(Equal(c, Lit(1)), Equal(d, Lit(2))), Equal(d, Lit(1)))
    ok &= if_check(rules, ("c", "d"), i)
    ok &= not check_stable_both(formula, ("c", "d"), i)

    # disjunctions: two stable models, no total-function models at all
    sig3 = Signature()
    sig3.declare_sort("s", (1, 2, 3))
    sig3.declare_func("c", (), "s")
    sig3.declare_func("d", (), "s")
    c, d = App("c", ()), App("d", ())
    f10 = And(Or(Equal(c, Lit(1)), Equal(d, Lit(1))),
              Or(Equal(c, Lit(2)), Equal(d, Lit(2))))
    models = stable_models(f10, ("c", "d"), sig3, {"s": (1, 2, 3)})
    ok &= ({(m.funcs["c"][()], m.funcs["d"][()]) for m in models}
           == {(1, 2), (2, 1)})
    if_rules = [IfRule(Or(Equal(c, Lit(1)), Equal(d, Lit(1)))),
                IfRule(Or(Equal(c, Lit(2)), Equal(d, Lit(2))))]
    for cv, dv in itertools.product((1, 2, 3), repeat=2):
        j = FiniteInterpretation(sig3, {"s": (1, 2, 3)},
                                 funcs={"c": {(): cv}, "d": {(): dv}})
        ok &= not if_check(if_rules, ("c", "d"), j)

    # a negated head and a constraint: stable treats them alike, the
    # total-function reading does not
    sig2 = Signature()
    sig2.declare_sort("s", (1, 2))
    sig2.declare_func("c", (), "s")
    eq1 = Equal(App("c", ()), Lit(1))
    f1_models = stable_models(Not(eq1), ("c",), sig2, {"s": (1, 2)})
    f2_models = stable_models(Implies(eq1, BOT), ("c",), sig2, {"s": (1, 2)})
    ok &= f1_models == [] and f2_models == []
    for v, expect_head, expect_con in ((1, False, False), (2, False, True)):
        j = FiniteInterpretation(sig2, {"s": (1, 2)}, funcs={"c": {(): v}})
        ok &= if_check([IfRule(Not(eq1), TOP)], ("c",), j) == expect_head
        ok &= if_check([IfRule(BOT, eq1)], ("c",), j) == expect_con
    verdict(6, ok)


def test_criterion_07_switch_domain():
    program = load_switches()
    rules = switch_rules()
    f = fol_representation(program)
    accepted_cm = {row for row in itertools.product((False, True), repeat=4)
                   if cm_check(rules, ("up", "flip"),
                               switch_interp(program, *row))}
    models = stable_models(f, program.intensional, program.signature,
                           dict(program.universe))
    accepted_sm = {(m.funcs["flip"][("a",)], m.funcs["flip"][("b",)],
                    m.funcs["up"][("a", 1)], m.funcs["up"][("b", 1)])
                   for m in models}
    verdict(7, accepted_cm == CAUSAL_ROWS and accepted_sm == STABLE_ROWS)


def _gen_sorted_formula(rng, depth, env=()):
    env = list(env)
    if depth <= 0 or rng.random() < 0.35:
        def term():
            t = rng.choice([Obj("e1"), Obj("e2")] + env)
            return App("f", (t,)) if rng.random() < 0.4 else t
        return Equal(term(), term())
    kind = rng.choice(["and", "or", "imp", "not", "forall", "exists"])
    if kind == "not":
        return Not(_gen_sorted_formula(rng, depth - 1, env))
    if kind in ("forall", "exists"):
        v = Var(f"W{depth}{len(env)}", "s1")
        body = _gen_sorted_formula(rng, depth - 1, env + [v])
        return (Forall if kind == "forall" else Exists)(v, body)
    ctor = {"and": And, "or": Or, "imp": Implies}[kind]
    return ctor(_gen_sorted_formula(rng, depth - 1, env),
                _gen_sorted_formula(rng, depth - 1, env))


def test_criterion_08_sort_merging():
    elems = ("e1", "e2")

    def sorted_sig():
        sig = Signature()
        sig.declare_sort("s1", elems)
        sig.declare_func("f", ("s1",), "s1")
        return sig

    # the identity interpretation padded with extra elements needs the
    # choice padding axioms to stay stable
    sig = sorted_sig()
    ident = And(Equal(App("f", (Obj("e1"),)), Obj("e1")),
                Equal(App("f", (Obj("e2"),)), Obj("e2")))
    rel, axioms, usig = to_unsorted(ident, sig)
    uni4 = {MERGED_SORT: ("e1", "e2", "x3", "x4")}
    k = FiniteInterpretation(
        usig, uni4, funcs={"f": {(x,): x for x in uni4[MERGED_SORT]}},
        preds={sort_pred("s1"): frozenset({("e1",), ("e2",)})})
    with_padding = check_stable_both(conj([rel] + axioms), ("f",), k)
    without_padding = check_stable_both(conj([rel] + axioms[:2]), ("f",), k)

    # the merged theory preserves and reflects stability
    rng = random.Random(88)
    failures = 0
    total = 0
    for _ in range(100):
        sig = sorted_sig()
        f = _gen_sorted_formula(rng, 2)
        rel, axioms, usig = to_unsorted(f, sig)
        full = conj([rel] + axioms)
        for table in itertools.product(elems, repeat=2):
            i = FiniteInterpretation(
                sig, {"s1": elems},
                funcs={"f": {("e1",): table[0], ("e2",): table[1]}})
            s = check_stable(f, ("f",), i)
            failures += s != check_stable(full, ("f",), interp_to_unsorted(i, sig))
        uni3 = {MERGED_SORT: ("e1", "e2", "x3")}
        for l in vary_on(FiniteInterpretation(
                usig, uni3,
                preds={sort_pred("s1"): frozenset({("e1",), ("e2",)})}),
                ("f",)):
            if check_stable(full, ("f",), l):
                restr = FiniteInterpretation(
                    sig, {"s1": elems},
                    funcs={"f": {t: v for t, v in l.funcs["f"].items()
                                 if t[0] in elems}})
                failures += not check_stable(f, ("f",), restr)
        total += 1
    verdict(8, with_padding and not without_padding
            and total >= 100 and failures == 0)


def test_criterion_09_constraint_semantics_bridges():
    ok = True

    # the tank constraints admit exactly the empty answer set
    a0, a1 = App("amt0", ()), App("amt1", ())
    step = Equal(a1, App("+", (a0, Lit(1))))
    drained = Equal(a1, Lit(0))
    tank = [CRule(None, neg=("flush",), constraints=(Not(step),)),
            CRule(None, pos=("flush",), constraints=(Not(drained),))]
    sig = Signature()
    sig.declare_sort("amt", tuple(range(11)))
    sig.declare_func("amt0", (), "amt")
    sig.declare_func("amt1", (), "amt")
    val = FiniteInterpretation(sig, {"amt": tuple(range(11))},
                               funcs={"amt0": {(): 5}, "amt1": {(): 6}})
    ok &= clingcon_answer_sets(tank, val) == [frozenset()]

    # the linear-constraint program has the expected answer pair
    xz = LinCon(((1, "x"), (-1, "z")), ">", 0)
    xy = LinCon(((1, "x"), (-1, "y")), "<=", 0)
    yz = LinCon(((1, "y"), (-1, "z")), "<=", 0)
    lrules = [LRule("a", lcs=(xz,)), LRule("b", lcs=(xy,)),
              LRule("c", pos=("b",), lcs=(yz,)), LRule(None, neg=("a",)),
              LRule("b", pos=("c",))]
    slc = tuple(range(0, 3))
    ok &= ljn_answer_check(lrules, {"a"}, {xz}, slc)
    ok &= xz.holds({"x": 2, "y": 1, "z": 0})

    # randomized agreement with the stable-model checker, three bridges
    rng = random.Random(99)
    checks14 = mism14 = 0
    for _ in range(40):
        sigc = Signature()
        sigc.declare_sort("n", tuple(range(4)))
        sigc.declare_func("c0", (), "n")
        sigc.declare_func("c1", (), "n")
        sigc.declare_pred("a1", ())
        sigc.declare_pred("a2", ())
        pool = [Equal(App("c0", ()), Lit(rng.randrange(4))),
                Not(Equal(App("c1", ()), Lit(rng.randrange(4)))),
                Equal(App("c0", ()), App("c1", ()))]
        atoms = ["a1", "a2"]
        rules = []
        for _ in range(rng.randint(2, 4)):
            head = rng.choice(atoms + [None])
            others = [a for a in atoms if a != head]
            pos = tuple(a for a in others if rng.random() < 0.3)
            neg = tuple(a for a in others
                        if a not in pos and rng.random() < 0.4)
            rules.append(CRule(head, pos, neg,
                               tuple(rng.sample(pool, rng.randint(0, 2)))))
        formula = crules_to_formula(rules)
        v = FiniteInterpretation(
            sigc, {"n": tuple(range(4))},
            funcs={"c0": {(): rng.randrange(4)}, "c1": {(): rng.randrange(4)}})
        answers = clingcon_answer_sets(rules, v)
        for bits in itertools.product((False, True), repeat=2):
            x = frozenset(a for a, b in zip(atoms, bits) if b)
            i = FiniteInterpretation(
                sigc, {"n": tuple(range(4))}, funcs=dict(v.funcs),
                preds={a: frozenset([()] if a in x else []) for a in atoms})
            mism14 += check_stable(formula, tuple(atoms), i) != (x in answers)
            checks14 += 1

    def lc_formula(lc):
        total = None
        for coef, var in lc.coeffs:
            term = (App(var, ()) if coef == 1
                    else App("*", (Lit(coef), App(var, ()))))
            total = term if total is None else App("+", (total, term))
        return Atom(lc.op, (total, Lit(lc.bound)))

    sigl = Signature()
    sigl.declare_sort("n", slc)
    for name in ("x", "y", "z"):
        sigl.declare_func(name, (), "n")
    for name in ("a", "b", "c"):
        sigl.declare_pred(name, ())
    lformula = lrules_to_formula(lrules, lc_formula)
    latoms = ("a", "b", "c")
    checks15 = mism15 = 0
    sample = random.Random(15)
    for _ in range(120):
        vx, vy, vz = (sample.choice(slc) for _ in range(3))
        x = {a for a in latoms if sample.random() < 0.5}
        i = FiniteInterpretation(
            sigl, {"n": slc},
            funcs={"x": {(): vx}, "y": {(): vy}, "z": {(): vz}},
            preds={p: frozenset([()] if p in x else []) for p in latoms})
        t = {lc for lc in program_theory_atoms(lrules)
             if lc.holds({"x": vx, "y": vy, "z": vz})}
        mism15 += (check_stable(lformula, latoms, i)
                   != ljn_answer_check(lrules, x, t, slc))
        checks15 += 1

    sigw = Signature()
    sigw.declare_sort("s", ("n1", "n2"))
    for name in ("c", "n1", "n2"):
        sigw.declare_func(name, (), "s")
    sigw.declare_pred("p", ("s",))
    c_t = App("c", ())
    checks16 = mism16 = 0
    wrng = random.Random(16)
    for _ in range(15):
        rules = [LwRule(Atom("p", (wrng.choice([c_t, App("n1", ()),
                                                App("n2", ())]),)))]
        if wrng.random() < 0.7:
            rules.append(LwRule(Atom("p", (App("n2", ()),)),
                                neg=(Equal(c_t, App("n2", ())),)))
        if wrng.random() < 0.5:
            rules.append(LwRule(Atom("p", (App("n1", ()),)),
                                pos=(Atom("p", (App("n2", ()),)),)))
        fw = lw_formula(rules)
        for c_val in ("n1", "n2"):
            for bits in itertools.product((False, True), repeat=2):
                ext = frozenset((e,) for e, b in zip(("n1", "n2"), bits) if b)
                i = FiniteInterpretation(
                    sigw, {"s": ("n1", "n2")},
                    funcs={"c": {(): c_val}, "n1": {(): "n1"},
                           "n2": {(): "n2"}},
                    preds={"p": ext})
                mism16 += (lw_answer_check(rules, i, sigw)
                           != check_stable(fw, ("p",), i))
                checks16 += 1

    verdict(9, ok and checks14 >= 100 and mism14 == 0
            and checks15 >= 100 and mism15 == 0
            and checks16 >= 100 and mism16 == 0,
            f"{checks14}/{checks15}/{checks16} checks")


def _choice_axiom(sig, name):
    if name in sig.predicates:
        xs = [Var(f"CX{i}", s) for i, s in enumerate(sig.predicates[name])]
        return close_universally(Choice(Atom(name, tuple(xs))), xs)
    argsorts, valsort = sig.functions[name]
    xs = [Var(f"CX{i}", s) for i, s in enumerate(argsorts)]
    y = Var("CY", valsort)
    return close_universally(Choice(Equal(App(name, tuple(xs)), y)), xs + [y])


def test_criterion_10_constraint_and_choice_properties():
    start = time.monotonic()
    c = ("a", "p")
    d = ("b", "q")

    # conjoining a formula without strictly positive intensional
    # occurrences commutes with stabilization
    mism_neg = 0
    total_neg = 0
    sig, gen = make_gen(101)
    interps = list(enumerate_interpretations(sig, {"u": (1, 2)}))
    pick = random.Random(101)
    while total_neg < 200:
        f = gen.formula(depth=3)
        g = Not(gen.formula(depth=2))
        for i in pick.sample(interps, 4):
            lhs = check_stable(And(f, g), c, i)
            rhs = check_stable(f, c, i) and satisfies(i, g)
            mism_neg += lhs != rhs
            total_neg += 1

    # shrinking the intensional list weakens; choice formulas compensate
    mism_ch = 0
    total_ch = 0
    sig, gen = make_gen(102)
    interps = list(enumerate_interpretations(sig, {"u": (1, 2)}))
    pick = random.Random(102)
    ch = conj(_choice_axiom(sig, n) for n in d)
    while total_ch < 200:
        f = gen.formula(depth=3)
        for i in pick.sample(interps, 4):
            s_cd = check_stable(f, c + d, i)
            s_c = check_stable(f, c, i)
            mism_ch += s_cd and not s_c
            mism_ch += check_stable(And(f, ch), c + d, i) != s_c
            total_ch += 1
    elapsed = time.monotonic() - start
    verdict(10, total_neg >= 200 and total_ch >= 200
            and mism_neg == 0 and mism_ch == 0,
            f"{total_neg}+{total_ch} checks, {elapsed:.1f}s")


def _nested_condition(rng, a, b, elements):
    shapes = [
        lambda: Equal(App("+", (a, b)), Lit(rng.choice(elements))),
        lambda: Equal(App("*", (a, b)), Lit(rng.choice(elements))),
        lambda: Atom("<", (a, b)),
        lambda: Equal(a, b),
    ]
    return rng.choice(shapes)()


def test_criterion_11_unfolding():
    sig = Signature()
    sig.declare_sort("s", tuple(range(1, 6)))
    sig.declare_func("a", (), "s")
    sig.declare_func("b", (), "s")
    universe = {"s": tuple(range(1, 6))}
    a, b = App("a", ()), App("b", ())
    f = Equal(App("+", (a, b)), Lit(5))
    none_before = stable_models(f, ("a", "b"), sig, universe) == []
    after = stable_models(unfold(f, ("a", "b"), sig), ("a", "b"),
                          sig, universe)
    pairs = {(m.funcs["a"][()], m.funcs["b"][()]) for m in after}
    example_ok = none_before and (1, 4) in pairs and len(pairs) >= 1

    # flattening preserves stable models when nesting stays out of the
    # strictly positive heads and the program is tight
    rng = random.Random(111)
    elements = (1, 2, 3)
    sig3 = Signature()
    sig3.declare_sort("s", elements)
    sig3.declare_func("a", (), "s")
    sig3.declare_func("b", (), "s")
    a, b = App("a", ()), App("b", ())
    failures = 0
    total = 0
    while total < 100:
        parts = [Implies(Not(_nested_condition(rng, a, b, elements)),
                         Equal(b, Lit(rng.choice(elements)))),
                 Implies(Not(_nested_condition(rng, a, b, elements)),
                         Equal(a, Lit(rng.choice(elements))))]
        if rng.random() < 0.5:
            parts.append(Not(_nested_condition(rng, a, b, elements)))
        f = conj(parts)
        if not (is_head_c_plain(f, ("a", "b"), sig3)
                and is_tight(f, ("a", "b"))):
            continue
        uf = unfold(f, ("a", "b"), sig3)
        for va, vb in itertools.product(elements, repeat=2):
            i = FiniteInterpretation(sig3, {"s": elements},
                                     funcs={"a": {(): va}, "b": {(): vb}})
            failures += (check_stable(f, ("a", "b"), i)
                         != check_stable(uf, ("a", "b"), i))
        total += 1
    verdict(11, example_ok and total >= 100 and failures == 0)


def test_criterion_12_smt_pipeline():
    # the driving domain compiles deterministically to a valid script
    prog = parse_program((DEMOS / "car.fsm").read_text())
    f = conj(r.as_formula() for r in prog.rules)
    cnf = to_clark_normal_form(f, prog.intensional, prog.signature)
    bg = BackgroundTheory("reals")
    script = emit_smtlib(cnf, prog.intensional, prog.signature, bg)
    text = script.render()
    deterministic = (emit_smtlib(cnf, prog.intensional, prog.signature,
                                 bg).render() == text)
    valid = validate_smtlib(text)

    # a hand-built plan: accelerate for 3/2, then brake for 3/2
    plan = {
        "accel0": True, "decel0": False, "accel1": False, "decel1": True,
        "duration0": Fraction(3, 2), "duration1": Fraction(3, 2),
        "speed0": Fraction(0), "speed1": Fraction(3), "speed2": Fraction(0),
        "location0": Fraction(0), "location1": Fraction(9, 4),
        "location2": Fraction(9, 2),
    }
    plan_ok = script_holds(script, plan)
    # and a broken plan is rejected
    broken = dict(plan, speed1=Fraction(4))
    plan_rejects = not script_holds(script, broken)

    # the configured solver, else tests/stand_in_solver.py
    solver = solver_path() or str(STAND_IN)
    note = f"solver: {pathlib.Path(solver).name}"
    tank = parse_program((DEMOS / "watertank.fsm").read_text())
    tf = conj(r.as_formula() for r in tank.rules)
    tcnf = to_clark_normal_form(tf, tank.intensional, tank.signature)
    tbg = BackgroundTheory("integers")
    tscript = emit_smtlib(tcnf, tank.intensional, tank.signature, tbg)
    tscript.assertions.append("(= amt0 5)")
    decoded = solve_all(tscript, tank.signature, tbg, solver=solver)
    got = {(m.funcs["amt1"][()], bool(m.preds["flush"])) for m in decoded}
    expected = {(m.funcs["amt1"][()], bool(m.preds["flush"]))
                for m in stable_models(
                    tf, tank.intensional, tank.signature,
                    {"amt": tuple(range(21))})
                if m.funcs["amt0"] == {(): 5}}
    solver_ok = len(expected) == 2 and got == expected

    verdict(12, deterministic and valid and plan_ok and plan_rejects
            and solver_ok, note)
