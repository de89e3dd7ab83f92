"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same arguments
give the same program text, byte for byte.  The programs are written in the
fsmkit surface language and handed to the CLI as files.
"""

from __future__ import annotations

import hashlib
import random


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# switches: independent coupled pairs a_i / b_i

def switch_names(pairs: int):
    return [(f"a{k}", f"b{k}") for k in range(1, pairs + 1)]


def switch_initial(pairs: int) -> dict:
    """Initial state of every switch: as in the demo, a_i down, b_i up."""
    init = {}
    for a, b in switch_names(pairs):
        init[a], init[b] = False, True
    return init


def switches(pairs: int) -> str:
    """demos/switches.fsm generalised to `pairs` independent pairs.

    Within a pair the coupling rules of the demo apply (a switch at time 1
    is the opposite of its partner); across pairs there is no interaction.
    """
    names = switch_names(pairs)
    init = switch_initial(pairs)
    rules = [
        "up(S, 1) = X :- up(S, 0) = Y & flip(S) = true & X != Y.",
        "{ up(S, 1) = X } :- up(S, 0) = X.",
        "{ flip(S) = X }.",
    ]
    for a, b in names:
        rules.append(f"up({a}, 1) = X :- up({b}, 1) = Y & X != Y.")
        rules.append(f"up({b}, 1) = X :- up({a}, 1) = Y & X != Y.")
    for s in [s for pair in names for s in pair]:
        rules.append(f"up({s}, 0) = {'true' if init[s] else 'false'}.")
    elems = ", ".join(s for pair in names for s in pair)
    head = [
        f"sort switch = {{{elems}}}.",
        "sort tm = 0..1.",
        "var S : switch.",
        "var X : bool.",
        "var Y : bool.",
        "func up : switch * tm -> bool.",
        "func flip : switch -> bool.",
        "intensional up, flip.",
        "",
    ]
    return "\n".join(head + rules) + "\n"


# ---------------------------------------------------------------------------
# compile: demos/car.fsm unrolled over a horizon of `steps` steps

#: how many distinct rule orders the car generator produces; the compile
#: oracle holds one recorded digest set per order
CAR_VARIANTS = 8


def _car_step(t: int):
    u = t + 1
    return [
        f"{{ accel{t} = B }}.",
        f"{{ decel{t} = B }}.",
        f"{{ duration{t} = X }}.",
        f":- duration{t} < 0.",
        f":- accel{t} = true & decel{t} = true.",
        f"speed{u} = Y :- accel{t} = true & speed{t} = X & duration{t} = D"
        f" & Y = X + 2 * D.",
        f"speed{u} = Y :- decel{t} = true & speed{t} = X & duration{t} = D"
        f" & Y = X - 2 * D.",
        f":- accel{t} = true & speed{t} = X & duration{t} = D"
        f" & Y = X + 2 * D & Y > 10.",
        f":- decel{t} = true & speed{t} = X & duration{t} = D"
        f" & Y = X - 2 * D & Y < 0.",
        f"{{ speed{u} = X }} :- speed{t} = X.",
        f":- speed{u} > 10.",
        f"location{u} = Y :- location{t} = X & speed{t} = A & speed{u} = C"
        f" & duration{t} = D & Y = X + ((A + C) / 2) * D.",
    ]


def car(seed: int, steps: int) -> str:
    """A `steps`-step driving domain: 12 rules per step plus 5 for the
    initial state and the goal.  `seed % CAR_VARIANTS` picks the rule order;
    the rule set itself depends only on `steps`."""
    funcs = []
    for t in range(steps):
        funcs += [(f"accel{t}", "bool"), (f"decel{t}", "bool"),
                  (f"duration{t}", "real")]
    for t in range(steps + 1):
        funcs += [(f"speed{t}", "real"), (f"location{t}", "real")]
    rules = [":- speed0 > 10.", "speed0 = 0.", "location0 = 0.",
             f":- not (speed{steps} = 0).",
             f":- not (location{steps} = 4.5)."]
    for t in range(steps):
        rules += _car_step(t)
    random.Random(seed % CAR_VARIANTS).shuffle(rules)
    lines = [f"func {n} : -> {s}." for n, s in funcs]
    lines += [f"var {v} : {s}." for v, s in
              [("B", "bool"), ("X", "real"), ("Y", "real"), ("A", "real"),
               ("C", "real"), ("D", "real")]]
    lines.append("intensional " + ", ".join(n for n, _ in funcs) + ".")
    lines.append("")
    return "\n".join(lines + rules) + "\n"
