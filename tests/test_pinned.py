"""Exact-output pins for the parser and the formula transformations.

Each case is a CLI run (parsing, the tightness check, grounding,
completion, unfolding, both eliminations, sort merging, SMT emission) on a
demo or an inline program, a run of `stable` on the watertank and on a
ring of switches, the command-line surface (`--help` of the
program and of each subcommand, and the usage errors, at COLUMNS=80), the
error a malformed input raises (message, file:line:col and span), or a
library call
(star, relativize, rename_symbols, the IF-program diamond, unfolding and the
eliminations) on the seeded formula generators of conftest.py.  The SHA-256
of each printed result is recorded in pinned_outputs.json; every case must
keep printing the same bytes.  After an intended output change, regenerate
the file with

    PYTHONPATH=src python tests/test_pinned.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import sys
import tempfile
from unittest import mock

from fsmkit.cli import main
from fsmkit.eliminations import eliminate_function, eliminate_predicate
from fsmkit.parser import ParseError, parse_formula, parse_program
from fsmkit.related import _check_if_fragment, _diamond
from fsmkit.sortsred import relativize
from fsmkit.stable import Mirrors, star
from fsmkit.syntax import FsmError, Lit, Obj, as_clist, rename_symbols, transform
from fsmkit.transforms import complete, to_clark_normal_form, unfold

from conftest import make_gen, random_definition_program, ring

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = pathlib.Path(__file__).resolve().parent / "pinned_outputs.json"

MIXED = """\
sort node = {n1, n2, n3}.
sort color = {red, green}.
sort hub = {n1}.
sort hub < node.
func next : node -> node.
func paint : node -> color.
func home : -> node.
pred reach : node.
pred lit : node * color.
pred done.
var N : node.
var M : node.
var C : color.
var H : hub.
intensional next, paint, reach, done.

reach(home).
reach(next(N)) :- reach(N).
reach(next(next(N))) :- reach(N) & not lit(next(N), paint(next(N))).
{ next(N) = M } :- reach(N) & M != N.
paint(next(N)) = C :- lit(N, C) & not paint(N) = C.
{ paint(N) = C }.
lit(H, paint(home)) -> done.
done :- exists C (forall N (paint(N) = C | not reach(N))).
:- reach(N) & not exists M (next(M) = N).
"""

# a residual real quantifier that no guard eliminates (fresh Q names)
RESIDUAL = """\
func h : -> real.
func g : -> real.
var Y : real.
var Z : real.
intensional h.
h = Y :- Z > Y & Z < g.
"""

PROGRAMS = {
    "watertank": (ROOT / "demos" / "watertank.fsm").read_text(),
    "switches": (ROOT / "demos" / "switches.fsm").read_text(),
    "car": (ROOT / "demos" / "car.fsm").read_text(),
    "mixed": MIXED,
    "residual": RESIDUAL,
}

COMMANDS = {
    "parse": ["parse"],
    "check-tight": ["check-tight"],
    "ground": ["ground"],
    "complete": ["complete"],
    "unfold": ["unfold"],
    "desort": ["desort"],
    "to-smt": ["to-smt"],
    "to-smt-reals": ["to-smt", "--background", "reals"],
}

ELIMINATIONS = {
    "watertank": [["--pred", "flush", "--to-func", "flushf"],
                  ["--func", "amt1", "--to-pred", "amt1g"]],
    "switches": [["--func", "flip", "--to-pred", "flipg"],
                 ["--func", "up", "--to-pred", "upg"]],
    "car": [["--func", "speed1", "--to-pred", "speed1g"],
            ["--func", "location2", "--to-pred", "loc2g"]],
    "mixed": [["--pred", "reach", "--to-func", "reachf"],
              ["--pred", "done", "--to-func", "donef"],
              ["--func", "paint", "--to-pred", "paintg"]],
}


#: `stable` runs: the program text and the arguments before its path; the
#: ring is not tight, the watertank is
STABLE = {
    "ring-6": (ring(6), []),
    "watertank amt=0..80": (PROGRAMS["watertank"],
                            ["--universe", "amt=0..80"]),
}


# malformed programs: each raises a ParseError whose text and span are pinned
BAD_PROGRAMS = {
    "unexpected-char": "% header\n\n\t% indented comment\npred p.\n\t\tp :- p $ p.\n",
    "unexpected-char-first": "$",
    "unexpected-char-after-comment": "pred p. % c\np @.\n",
    "crlf": "pred p.\r\npred q.\r\n  p :- q ? q.\r\n",
    "unknown-sort": "pred p : nosuch.\n",
    "unknown-sort-func": "sort s = {a}.\nfunc f : s * t -> s.\n",
    "undeclared-symbol": "pred p.\np :- q.\n",
    "arity-pred": "pred p : int.\np(1, 2).\n",
    "arity-func": "func f : int -> int.\n:- f(1, 2) = 3.\n",
    "missing-dot": "pred p.\npred q.\np :- q\nq.\n",
    "missing-dot-eof": "pred p.\np\n  % trailing comment\n\n",
    "expected-term-eof": "pred p.\n:- \n",
    "non-numeric-lt": "sort s = {a, b}.\nobject o : s.\n:- o < 1.\n",
    "non-numeric-ge": "sort s = {a, b}.\nobject o : s.\n:- 2 >= o.\n",
    "no-common-supersort": "sort s = {a}.\nsort t = {b}.\nobject o : s.\n"
                           "object u : t.\n:- o = u.\n",
    "argument-sort": "sort s = {a}.\npred p : int.\nobject o : s.\n:- p(o).\n",
    "keyword-as-term": "pred p : int.\n:- p(forall).\n",
    "unsorted-variable": "pred p : int.\n:- forall X (p(X)).\n",
    "variable-applied": "var X : int.\npred p : int.\n:- p(X(1)).\n",
    "not-an-atom": "object o : int.\n:- o.\n",
    "range-bounds": "sort s = 1.5..3.\n",
    "range-bounds-fraction": "sort s = 1.5 .. 3.\n",
    "open-paren": "pred p.\npred q.\n:- (p & q.\n",
    "open-brace": "pred p.\n{ p :- p.\n",
    "expected-name": "pred 3.\n",
    "expected-number": "sort s = 1..x.\n",
}

# malformed formulas, parsed over this signature
BAD_FORMULAS = {
    "trailing-input": "p q",
    "trailing-paren": "p & q)",
    "empty": "  % only a comment",
}


def _formula_signature():
    return parse_program("pred p.\npred q.\n").signature


def _parse_error(parse, *args):
    try:
        parse(*args)
    except ParseError as e:
        return f"{e}\n{e.span!r}"
    return "no error"


def parse_error_outputs():
    outputs = {}
    for label, text in BAD_PROGRAMS.items():
        outputs[f"parse-error/{label}"] = _parse_error(
            parse_program, text, "bad.fsm")
    for label, text in BAD_FORMULAS.items():
        outputs[f"parse-error/formula/{label}"] = _parse_error(
            parse_formula, text, _formula_signature())
    return outputs


# the command-line surface: help texts and usage errors
SURFACE = {
    "help": ["--help"],
    **{f"{cmd} --help": [cmd, "--help"] for cmd in (
        "parse", "ground", "stable", "check", "complete", "check-tight",
        "unfold", "eliminate", "desort", "to-smt", "compare", "se-check")},
    "unknown-command": ["bogus", "x.fsm"],
    "missing-file": ["stable"],
    "no-such-file": ["stable", os.path.join("no", "such", "file.fsm")],
    "method-bogus": ["stable", "--method", "bogus", "x.fsm"],
}

#: argparse words and wraps its help differently from one Python version
#: to the next; the surface digests were recorded on this one
SURFACE_PYTHON = (3, 11)


def surface_outputs():
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return {f"cli/surface/{label}": _cli(argv)
                for label, argv in SURFACE.items()}


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def cli_outputs(work):
    outputs = {}
    for name, text in PROGRAMS.items():
        path = pathlib.Path(work) / f"{name}.fsm"
        path.write_text(text)
        for label, argv in COMMANDS.items():
            outputs[f"cli/{name}/{label}"] = _cli(argv + [str(path)])
        for argv in ELIMINATIONS.get(name, ()):
            label = " ".join(a.lstrip("-") for a in argv)
            outputs[f"cli/{name}/eliminate {label}"] = _cli(
                ["eliminate"] + argv + [str(path)])
    return outputs


def stable_outputs(work):
    outputs = {}
    for label, (text, argv) in STABLE.items():
        path = pathlib.Path(work) / "stable.fsm"
        path.write_text(text)
        outputs[f"cli/stable/{label}"] = _cli(["stable"] + argv + [str(path)])
    return outputs


def _objects_for_literals(f):
    """f with each builtin literal replaced by an object name, so that
    relativize accepts it."""
    return transform(f, lambda g, new: Obj(g.value) if isinstance(g, Lit)
                     else new)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except FsmError as e:
        return f"{type(e).__name__}: {e}"


def _if_variant(f, mirrors):
    """What if_check builds from one rule part: the fragment check, then the
    diamond."""
    _check_if_fragment(f)
    return _diamond(f, mirrors)


def generator_outputs():
    outputs = {}
    for seed in range(60):
        unary = seed % 2 == 1
        sig, gen = make_gen(seed, with_unary_func=unary)
        f = gen.formula(5)
        c = as_clist(["p", "q", "a"] + (["f"] if unary else []))
        mirrors = Mirrors(c, sig).names
        rename = {"p": "q", "q": "p", "a": "b", "f": "g"}
        outputs[f"gen/{seed}/star"] = repr(star(f, c, mirrors))
        outputs[f"gen/{seed}/rename"] = repr(rename_symbols(f, rename))
        outputs[f"gen/{seed}/relativize"] = _outcome(relativize, f)
        outputs[f"gen/{seed}/relativize-objects"] = _outcome(
            relativize, _objects_for_literals(f))
        outputs[f"gen/{seed}/diamond"] = _outcome(_if_variant, f, mirrors)
        outputs[f"gen/{seed}/unfold"] = _outcome(unfold, f, c, sig)
        # the formula and the axioms; the signature's repr is hash-ordered
        outputs[f"gen/{seed}/eliminate-pred"] = _outcome(
            lambda: eliminate_predicate(f, "p", "pf", sig)[:2])
        outputs[f"gen/{seed}/eliminate-func"] = _outcome(
            lambda: eliminate_function(f, "a", "ag", sig)[:2])
    rng = random.Random(20240817)
    for k in range(30):
        sig, f = random_definition_program(rng)
        c = ["f", "g", "p"]
        outputs[f"def/{k}/complete"] = _outcome(
            lambda: complete(to_clark_normal_form(f, c, sig), c, sig))
        outputs[f"def/{k}/unfold"] = _outcome(unfold, f, c, sig)
    return outputs


def all_outputs(work):
    return {**cli_outputs(work), **stable_outputs(work), **surface_outputs(),
            **parse_error_outputs(), **generator_outputs()}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_outputs_match_the_pinned_digests(tmp_path):
    pinned = json.loads(PINNED.read_text())
    got = {k: _digest(v) for k, v in all_outputs(tmp_path).items()}
    assert sorted(got) == sorted(pinned)
    changed = [k for k in pinned if got[k] != pinned[k]]
    if sys.version_info[:2] != SURFACE_PYTHON:
        changed = [k for k in changed if not k.startswith("cli/surface/")]
    assert not changed, changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = {k: _digest(v) for k, v in all_outputs(work).items()}
    PINNED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {PINNED}")
