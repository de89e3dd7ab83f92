"""Side-by-side verdicts: stable models, causal models, IF-stable models.

Two small domains show where the semantics agree and where they split.

Part 1 is a pair of linked switches that cannot both be up or both be
down.  Flipping one switch directly changes it and indirectly changes the
other.  Causal models admit one extra scenario where both switches change
state with no flip at all; the stable-model reading rejects it.

Part 2 is a pair of one-line programs that are word-for-word the same
implication, written once as a negated head and once as a constraint.
Stable models treat them alike (neither has any); the IF reading tells
them apart.

Run:  python3 demos/demo_semantics_comparison.py
"""

import itertools
import pathlib

from fsmkit import (
    And, App, BOT, Equal, FiniteInterpretation, Lit, Not, Obj, TOP,
    Signature, check_stable_both, fol_representation,
)
from fsmkit.parser import parse_program
from fsmkit.related import CausalRule, IfRule, cm_check, if_check

HERE = pathlib.Path(__file__).parent


def up_at(s, t):
    return App("up", (Obj(s), Lit(t)))


def flip_of(s):
    return App("flip", (Obj(s),))


def switch_causal_rules():
    """The same domain as switches.fsm, phrased causally: a value holds at
    time 1 only if some rule makes it hold."""
    rules = []
    for s in ("a", "b"):
        other = "b" if s == "a" else "a"
        for x in (False, True):
            # direct effect of flipping
            rules.append(CausalRule(
                Equal(up_at(s, 1), Lit(x)),
                And(Equal(up_at(s, 0), Lit(not x)),
                    Equal(flip_of(s), Lit(True)))))
            # the two switches always disagree
            rules.append(CausalRule(
                Equal(up_at(s, 1), Lit(x)),
                Equal(up_at(other, 1), Lit(not x))))
            # inertia
            rules.append(CausalRule(
                Equal(up_at(s, 1), Lit(x)),
                And(Equal(up_at(s, 1), Lit(x)),
                    Equal(up_at(s, 0), Lit(x)))))
            # flipping is exogenous
            rules.append(CausalRule(
                Equal(flip_of(s), Lit(x)),
                Equal(flip_of(s), Lit(x))))
    rules.append(CausalRule(Equal(up_at("a", 0), Lit(False)), TOP))
    rules.append(CausalRule(Equal(up_at("b", 0), Lit(True)), TOP))
    return rules


def part_switches():
    program = parse_program((HERE / "switches.fsm").read_text(),
                            file="switches.fsm")
    f = fol_representation(program)
    crules = switch_causal_rules()
    print("flip(a) flip(b) up(a,1) up(b,1)   causal  stable")
    for fa, fb, ua, ub in itertools.product((False, True), repeat=4):
        i = FiniteInterpretation(
            program.signature, dict(program.universe),
            funcs={"up": {("a", 0): False, ("b", 0): True,
                          ("a", 1): ua, ("b", 1): ub},
                   "flip": {("a",): fa, ("b",): fb}})
        causal = cm_check(crules, ("up", "flip"), i)
        stable = check_stable_both(f, program.intensional, i)
        if causal or stable:
            marker = "  <- rejected as unfounded" if causal and not stable else ""
            print(f"{fa!s:7} {fb!s:7} {ua!s:7} {ub!s:7}   "
                  f"{causal!s:7} {stable!s}{marker}")


def part_negated_head():
    sig = Signature()
    sig.declare_sort("s", (1, 2))
    sig.declare_func("c", (), "s")
    c = App("c", ())
    as_head = [IfRule(Not(Equal(c, Lit(1))), TOP)]
    as_constraint = [IfRule(BOT, Equal(c, Lit(1)))]
    formula = Not(Equal(c, Lit(1)))
    print("\nc value   IF(head)  IF(constraint)  stable")
    for v in (1, 2):
        i = FiniteInterpretation(sig, {"s": (1, 2)}, funcs={"c": {(): v}})
        print(f"c={v}       {if_check(as_head, ('c',), i)!s:9} "
              f"{if_check(as_constraint, ('c',), i)!s:15} "
              f"{check_stable_both(formula, ('c',), i)!s}")


def main():
    part_switches()
    part_negated_head()


if __name__ == "__main__":
    main()
