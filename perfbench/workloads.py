"""The four benchmark workloads and their oracles.

A workload is a batch of fsmkit CLI invocations (ops).  Each op carries the
exit code it must end with and a check of its standard output.  The
expected answers come from closed forms derived by hand (tank, switches),
from the construction of the input (check), or from digests recorded at a
known-good commit (compile) -- never from the code under test.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import gen

#: workload sizes; perfbench/NOTES.md gives the reasons
TANK_N = 40
SWITCH_PAIRS = 2
CHECK_N = 400
CAR_STEPS = 60

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")


@dataclass
class Op:
    label: str
    args: list
    rc: int
    check: Callable[[str], Optional[str]]   # stdout -> error or None


@dataclass
class Workload:
    ops: list
    inputs: dict          # input file -> sha256 of its text
    #: a batch runs every op once under each of these PYTHONHASHSEED values
    hash_seeds: tuple = (1,)


# ---------------------------------------------------------------------------
# model sets, decoded without the package


def _table_items(table):
    """(args, value) pairs of a function table in the models JSON.

    Accepts the current encoding (an object keyed by comma-joined
    arguments) and a list of [args, value] pairs."""
    if isinstance(table, dict):
        for key, value in table.items():
            yield (tuple(key.split(",")) if key else ()), value
    else:
        for args, value in table:
            yield tuple(str(a) for a in args), value


def model_facts(model: dict) -> frozenset:
    facts = set()
    for name, table in model["funcs"].items():
        for args, value in _table_items(table):
            facts.add((name, args, json.dumps(value)))
    for name, rows in model["preds"].items():
        for row in rows:
            facts.add((name, tuple(str(a) for a in row), "true"))
    return frozenset(facts)


def _facts(*items) -> frozenset:
    """Facts from (name, args, value) with args and value as Python data."""
    return frozenset((n, tuple(str(a) for a in args), json.dumps(v))
                     for n, args, v in items)


def models_check(expected: set):
    def check(stdout: str):
        try:
            got = [model_facts(m) for m in json.loads(stdout)]
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable model list: {e}"
        if len(got) != len(set(got)):
            return "duplicate models"
        if set(got) != expected:
            missing, extra = len(expected - set(got)), len(set(got) - expected)
            return f"model set differs: {missing} missing, {extra} extra"
        return None
    return check


# ---------------------------------------------------------------------------
# tank


def tank_models(n: int) -> set:
    """Stable models of demos/watertank.fsm over amt=0..n: with flush the
    tank is emptied (amt1 = 0); without flush it fills by one, which needs
    amt0 < n.  That is 2n + 1 models."""
    out = {_facts(("amt0", (), x), ("amt1", (), 0), ("flush", (), True))
           for x in range(n + 1)}
    out |= {_facts(("amt0", (), x), ("amt1", (), x + 1)) for x in range(n)}
    return out


def tank(seed, work):
    # the demo at a fixed size: the seed has nothing to vary here
    path = "demos/watertank.fsm"
    with open(path, encoding="utf-8") as fh:
        digest = gen.sha256(fh.read())
    op = Op("stable", ["stable", path, "--universe", f"amt=0..{TANK_N}"], 0,
            models_check(tank_models(TANK_N)))
    return Workload([op], {path: digest})


# ---------------------------------------------------------------------------
# switches


def switch_models(init: dict, pairs: int) -> set:
    """Per pair, four models: no flip leaves both switches as they were;
    any flip toggles both.  The pairs are independent, so the models are
    the product over pairs: 4 ** pairs."""
    per_pair = []
    for a, b in gen.switch_names(pairs):
        options = []
        for fa, fb in itertools.product((False, True), repeat=2):
            toggled = fa or fb
            options.append([
                ("flip", (a,), fa), ("flip", (b,), fb),
                ("up", (a, 0), init[a]), ("up", (b, 0), init[b]),
                ("up", (a, 1), init[a] != toggled),
                ("up", (b, 1), init[b] != toggled)])
        per_pair.append(options)
    return {_facts(*[f for part in combo for f in part])
            for combo in itertools.product(*per_pair)}


def switches(seed, work):
    # The input is the same for every seed.  Its cost hangs on details no
    # seed should move: the initial positions change the witnesses tried
    # from 75k to 92k, and the hash seed, which orders the frozensets of
    # ground formulas that gsat short-circuits over, changes the gsat calls
    # from 0.6M to 4.1M.  So a batch sums three fixed hash seeds.
    text = gen.switches(SWITCH_PAIRS)
    path = os.path.join(work, "switches.fsm")
    _write(path, text)
    expected = switch_models(gen.switch_initial(SWITCH_PAIRS), SWITCH_PAIRS)
    op = Op("stable", ["stable", path], 0, models_check(expected))
    return Workload([op], {path: gen.sha256(text)}, (1, 2, 3))


# ---------------------------------------------------------------------------
# check


def check_cases(seed, n):
    """Four watertank snapshots over amt=0..n with known verdicts:
    (label, amt0, amt1, flush, stable)."""
    rng = random.Random(seed)
    # the second-order check of the fill case costs in proportion to amt0
    # (0.04 s at amt0 = 0, 5.8 s at amt0 = 799 over 0..800), so both stable
    # cases keep amt0 near the middle of the sort for every seed
    x = n // 2 + rng.randrange(-5, 6)
    y = n // 2 + rng.randrange(-5, 6)
    z = rng.choice([v for v in range(1, n + 1) if v != x + 1])
    w = rng.randrange(1, n + 1)
    return [
        ("fill", x, x + 1, False, True),          # stable, no flush
        ("flush", y, 0, True, True),              # stable, flushed
        ("unsupported", x, z, False, False),      # a model, not stable
        ("non-model", y, w, True, False),         # violates amt1 = 0 :- flush
    ]


def check(seed, work):
    from fsmkit.interp import FiniteInterpretation
    from fsmkit.parser import parse_program

    path = "demos/watertank.fsm"
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    program = parse_program(text, file=path)
    universe = dict(program.universe, amt=tuple(range(CHECK_N + 1)))
    inputs = {path: gen.sha256(text)}
    ops = []
    for label, amt0, amt1, flush, stable in check_cases(seed, CHECK_N):
        interp = FiniteInterpretation(
            program.signature, universe,
            {"amt0": {(): amt0}, "amt1": {(): amt1}},
            {"flush": {()} if flush else set()})
        data = json.dumps(interp.to_json(), sort_keys=True)
        ipath = os.path.join(work, f"check-{label}.json")
        _write(ipath, data)
        inputs[ipath] = gen.sha256(data)
        want = json.dumps({"stable": stable})
        ops.append(Op(label, ["check", "--method", "both", "--interp", ipath,
                              path], 0 if stable else 1,
                      lambda out, want=want: None if out.strip() == want
                      else f"verdict {out.strip()!r}, want {want}"))
    return Workload(ops, inputs)


# ---------------------------------------------------------------------------
# compile

COMPILE_COMMANDS = (
    ("parse", ["parse"]),
    ("check-tight", ["check-tight"]),
    ("complete", ["complete"]),
    ("to-smt", ["to-smt", "--background", "reals"]),
)


def compile_(seed, work):
    text = gen.car(seed, CAR_STEPS)
    variant = str(seed % gen.CAR_VARIANTS)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["steps"] != CAR_STEPS or \
            golden["variants"][variant]["input"] != gen.sha256(text):
        raise SystemExit("perfbench: golden.json does not match the car "
                         "generator; run perfbench/record_golden.py")
    path = os.path.join(work, "car.fsm")
    _write(path, text)
    digests = golden["variants"][variant]
    ops = []
    for label, args in COMPILE_COMMANDS:
        want = digests[label]
        ops.append(Op(label, args + [path], 0,
                      lambda out, want=want: None if gen.sha256(out) == want
                      else "output differs from the recorded digest"))
    return Workload(ops, {path: gen.sha256(text)})


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


WORKLOADS = {"tank": tank, "switches": switches, "check": check,
             "compile": compile_}
