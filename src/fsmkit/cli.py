"""Command-line front end.

Subcommands cover the whole pipeline: parse, ground, stable, check,
complete, check-tight, unfold, eliminate, desort, to-smt, compare,
se-check.  Exit codes: 0 success, 1 negative semantic answer (not stable,
no models, not tight, refuted), 2 usage or fragment errors.

Start-up is kept cheap, since each answer is one process: the module
imports only argparse, os and sys, and each command (and helper) imports
the layers it calls at the top of its body, so `--help` loads no layer and
`stable` loads no compiler.  `run` is the process entry: it calls `main`,
freezes the heap so that the garbage collection at shutdown skips every
object still alive, and exits.  `main` neither freezes nor exits, so tests
and tools call it in-process.
"""

import argparse
import os
import sys


EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2


#: the checkers of `stable --method` and `check --method`, by the names
#: that fsmkit.stable gives them (METHOD_*), spelled out so that building
#: the argument parser does not load the stable layer
METHODS = ("reduct", "second-order", "both")


def _load_program(path):
    from .parser import parse_program
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read(), file=path)


def _universe(program, overrides, declared=None):
    """The program's sort extents with the --universe specs applied; raises
    FsmError on a malformed spec, on a sort that is not among declared
    (by default the sorts of the program's signature, builtins included)
    or is bool, whose extent is fixed, on an empty range, on an element
    listed twice, or on a listed element that is not an integer where the
    declared extent is all integers."""
    from .syntax import BOOL, FsmError, all_ints, repeated_element
    if declared is None:
        declared = program.signature.sorts
    universe = {s: tuple(ext) for s, ext in program.universe.items()}
    for spec in overrides or []:
        name, eq, rng = spec.partition("=")
        if not eq:
            raise FsmError(f"bad universe spec {spec!r} (want sort=lo..hi)")
        if name not in declared:
            raise FsmError(f"universe spec {spec!r}: unknown sort {name!r}")
        if name == BOOL:
            raise FsmError(f"universe spec {spec!r}: the extent of sort "
                           f"{BOOL!r} is fixed")
        if ".." in rng:
            lo, hi = rng.split("..", 1)
            try:
                universe[name] = tuple(range(int(lo), int(hi) + 1))
            except ValueError:
                raise FsmError(f"bad universe spec {spec!r} (the bounds of "
                               "lo..hi must be integers)") from None
            if not universe[name]:
                raise FsmError(f"bad universe spec {spec!r} (empty range)")
        else:
            parts = [p.strip() for p in rng.split(",")]
            if "" in parts:
                raise FsmError(f"bad universe spec {spec!r} (empty element)")
            elements = tuple(map(_parse_element, parts))
            e = repeated_element(elements)
            if e is not None:
                raise FsmError(f"bad universe spec {spec!r} (element {e!r} "
                               "listed twice)")
            ext = program.universe.get(name)
            if ext and all_ints(ext) and not all_ints(elements):
                raise FsmError(f"bad universe spec {spec!r} (sort {name!r} "
                               "has integer elements)")
            universe[name] = elements
    return universe


def _parse_element(text):
    try:
        return int(text)
    except ValueError:
        return text


def _relative_names(sig, flag):
    """The symbols a --relative-to flag lists, or None without the flag;
    raises FsmError on one the signature does not declare."""
    from .syntax import FsmError
    if not flag:
        return None
    names = [p.strip() for p in flag.split(",") if p.strip()]
    for n in names:
        if n not in sig.functions and n not in sig.predicates:
            raise FsmError(f"unknown symbol {n!r}")
    return names


def _relative_to(program, flag):
    from .syntax import as_clist
    names = _relative_names(program.signature, flag)
    return as_clist(program.intensional if names is None else names)


def _merged_signature(a, b):
    """a with every declaration of b that a lacks; raises FsmError naming
    a sort or symbol that a and b declare differently."""
    from .syntax import FsmError
    merged = a.copy()
    clash = ((set(a.functions) & set(b.predicates))
             | (set(a.predicates) & set(b.functions)))
    if clash:
        raise FsmError(f"the two programs declare {min(clash)!r} "
                       "differently")
    for mine, theirs in ((merged.sorts, b.sorts),
                         (merged.functions, b.functions),
                         (merged.predicates, b.predicates),
                         (merged.background, b.background)):
        for name, decl in theirs.items():
            if mine.setdefault(name, decl) != decl:
                raise FsmError(f"the two programs declare {name!r} "
                               "differently")
    merged.subsorts |= b.subsorts
    return merged


def _canonical_models(models):
    import json
    out = [m.to_json() for m in models]
    out.sort(key=lambda m: json.dumps(m, sort_keys=True))
    return out


# ---------------------------------------------------------------------------
# subcommand bodies

def cmd_parse(args):
    from .parser import print_program
    program = _load_program(args.file)
    sys.stdout.write(print_program(program))
    return EXIT_OK


def cmd_ground(args):
    from .interp import FiniteInterpretation
    from .stable import ground
    from .syntax import fol_representation
    program = _load_program(args.file)
    universe = _universe(program, args.universe)
    _relative_to(program, args.relative_to)    # unused, but still checked
    f = fol_representation(program)
    base = FiniteInterpretation(program.signature, universe)
    print(repr(ground(f, base)))
    return EXIT_OK


def cmd_stable(args):
    import json
    from .stable import stable_models
    from .syntax import fol_representation
    program = _load_program(args.file)
    universe = _universe(program, args.universe)
    c = _relative_to(program, args.relative_to)
    f = fol_representation(program)
    models = stable_models(f, c, program.signature, universe,
                           method=args.method)
    json.dump(_canonical_models(models), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK if models else EXIT_NO


def cmd_check(args):
    import json
    from .interp import FiniteInterpretation
    from .stable import check_stable
    from .syntax import FsmError, fol_representation
    program = _load_program(args.file)
    c = _relative_to(program, args.relative_to)
    f = fol_representation(program)
    with open(args.interp, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise FsmError(str(e)) from None
    i = FiniteInterpretation.from_json(data, program.signature)
    verdict = check_stable(f, c.names, i, args.method)
    json.dump({"stable": verdict}, sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK if verdict else EXIT_NO


def cmd_complete(args):
    from .parser import print_formula
    from .syntax import fol_representation
    from .transforms import complete, to_clark_normal_form
    program = _load_program(args.file)
    c = _relative_to(program, args.relative_to)
    f = fol_representation(program)
    cnf = to_clark_normal_form(f, c, program.signature)
    print(print_formula(complete(cnf, c, program.signature)))
    return EXIT_OK


def cmd_check_tight(args):
    from .syntax import fol_representation
    from .transforms import dependency_graph, find_cycle, to_clark_normal_form
    program = _load_program(args.file)
    c = _relative_to(program, args.relative_to)
    f = fol_representation(program)
    cnf = to_clark_normal_form(f, c, program.signature)
    cycle = find_cycle(dependency_graph(cnf, c))
    if cycle is None:
        print("tight")
        return EXIT_OK
    print("not tight: " + " -> ".join(cycle))
    return EXIT_NO


def cmd_unfold(args):
    from .parser import print_formula
    from .syntax import fol_representation
    from .transforms import unfold
    program = _load_program(args.file)
    c = _relative_to(program, args.relative_to)
    f = fol_representation(program)
    print(print_formula(unfold(f, c, program.signature)))
    return EXIT_OK


def cmd_eliminate(args):
    from .eliminations import eliminate_function, eliminate_predicate
    from .parser import print_formula
    from .syntax import FsmError, fol_representation
    program = _load_program(args.file)
    f = fol_representation(program)
    if args.pred and args.to_func:
        new_f, axioms, _ = eliminate_predicate(f, args.pred, args.to_func,
                                               program.signature)
    elif args.func and args.to_pred:
        new_f, axioms, _ = eliminate_function(f, args.func, args.to_pred,
                                              program.signature)
    else:
        raise FsmError("need --pred P --to-func F or --func F --to-pred P")
    print(print_formula(new_f))
    for a in axioms:
        print(print_formula(a))
    return EXIT_OK


def cmd_desort(args):
    from .parser import print_formula
    from .sortsred import to_unsorted
    from .syntax import fol_representation
    program = _load_program(args.file)
    f = fol_representation(program)
    new_f, axioms, _ = to_unsorted(f, program.signature)
    print(print_formula(new_f))
    for a in axioms:
        print(print_formula(a))
    return EXIT_OK


def cmd_to_smt(args):
    from .aspmt import (
        BackgroundTheory, KIND_INTEGERS, KIND_REALS, emit_smtlib, run_solver,
        solve_all, solver_path, validate_smtlib,
    )
    from .syntax import fol_representation
    from .transforms import to_clark_normal_form
    program = _load_program(args.file)
    universe = _universe(program, args.universe)
    c = _relative_to(program, args.relative_to)
    f = fol_representation(program)
    cnf = to_clark_normal_form(f, c, program.signature)
    kind = KIND_REALS if args.background == "reals" else KIND_INTEGERS
    # the run's extents give the range guards and the decoded models
    bg = BackgroundTheory(kind, universe)
    script = emit_smtlib(cnf, c, program.signature, bg, logic=args.logic)
    text = script.render()
    validate_smtlib(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if solver_path(args.solver):
        if args.all_models:
            import json
            models = solve_all(script, program.signature, bg,
                               solver=args.solver, timeout_ms=args.timeout)
            json.dump(_canonical_models(models), sys.stdout, indent=2,
                      sort_keys=True)
            sys.stdout.write("\n")
            return EXIT_OK if models else EXIT_NO
        status, _ = run_solver(script, args.solver, args.timeout)
        print(status)
        return EXIT_OK if status == "sat" else EXIT_NO
    return EXIT_OK


def cmd_compare(args):
    import json
    from .interp import enumerate_interpretations
    from .related import CausalRule, IfRule, cm_check, if_check
    from .stable import Problem
    from .syntax import FragmentError, fol_representation
    program = _load_program(args.file)
    universe = _universe(program, args.universe)
    c = _relative_to(program, args.relative_to)
    semantics = [s.strip() for s in args.semantics.split(",") if s.strip()]
    supported = {"fsm", "if", "cm"}
    for s in semantics:
        if s not in supported:
            raise FragmentError(
                f"semantics {s!r} is only available through the library "
                "API (it needs rule structure beyond program files)")
    f = fol_representation(program)
    if_rules = [IfRule(_choice_free(r), r.body) for r in program.rules]
    cm_rules = [CausalRule(_choice_free(r), r.body) for r in program.rules]
    interps = list(enumerate_interpretations(program.signature, universe))
    checks = {"fsm": Problem(f, c, program.signature, universe).check,
              "if": lambda i: if_check(if_rules, c.names, i),
              "cm": lambda i: cm_check(cm_rules, c.names, i)}
    verdicts = {s: [checks[s](i) for i in interps] for s in semantics}
    json.dump({"interpretations": [i.to_json() for i in interps],
               "verdicts": verdicts}, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _choice_free(rule):
    from .syntax import RULE_CHOICE, Choice
    if rule.kind == RULE_CHOICE:
        return Choice(rule.head)
    return rule.head


def cmd_se_check(args):
    import json
    from .syntax import FsmError, fol_representation
    from .transforms import check_strong_equivalence_bounded
    p1 = _load_program(args.file)
    p2 = _load_program(args.file2)
    f = fol_representation(p1)
    g = fol_representation(p2)
    sig = _merged_signature(p1.signature, p2.signature)
    c = _relative_names(sig, args.relative_to)
    if c is None and set(p1.intensional) != set(p2.intensional):
        raise FsmError("the two programs declare different intensional "
                       "symbols; name them with --relative-to")
    overrides = (_universe(p1, args.universe, sig.sorts) if args.universe
                 else None)
    report = check_strong_equivalence_bounded(
        sig, f, g, c=c, max_size=args.max_universe,
        universe_overrides=overrides)
    if report.equivalent:
        print(f"no refutation up to universe size {args.max_universe} "
              f"({report.checked} interpretations)")
        return EXIT_OK
    print(f"refuted: {report.reason}")
    print(json.dumps(report.witness.to_json(), sort_keys=True))
    if report.mirror_witness is not None:
        print(json.dumps(report.mirror_witness.to_json(), sort_keys=True))
    return EXIT_NO


# ---------------------------------------------------------------------------
# argument wiring

def build_parser():
    top = argparse.ArgumentParser(
        prog="fsmkit",
        description="stable models with intensional functions: checking, "
                    "completion, and SMT compilation over finite domains")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, interp=False, second_file=False, universe=True):
        p.add_argument("file", help="program file")
        if second_file:
            p.add_argument("file2", help="second program file")
        p.add_argument("--relative-to", default=None,
                       help="comma-separated intensional constants")
        if universe:
            p.add_argument("--universe", action="append", default=[],
                           metavar="SORT=LO..HI",
                           help="override a sort extent (or SORT=E1,E2,...)")
        if interp:
            p.add_argument("--interp", required=True,
                           help="interpretation JSON file")

    p = sub.add_parser("parse", help="validate and echo a program")
    p.add_argument("file")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("ground", help="ground over the finite universe")
    common(p)
    p.set_defaults(fn=cmd_ground)

    p = sub.add_parser("stable", help="enumerate stable models")
    common(p)
    p.add_argument("--method", default=METHODS[0], choices=METHODS)
    p.set_defaults(fn=cmd_stable)

    p = sub.add_parser("check", help="check one interpretation")
    # the universe comes from the interpretation
    common(p, interp=True, universe=False)
    p.add_argument("--method", default=METHODS[0], choices=METHODS)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("complete", help="definitional completion")
    common(p, universe=False)
    p.set_defaults(fn=cmd_complete)

    p = sub.add_parser("check-tight", help="dependency-graph acyclicity")
    common(p, universe=False)
    p.set_defaults(fn=cmd_check_tight)

    p = sub.add_parser("unfold", help="flatten nested intensional functions")
    common(p, universe=False)
    p.set_defaults(fn=cmd_unfold)

    p = sub.add_parser("eliminate", help="swap a predicate and a function")
    p.add_argument("file")
    p.add_argument("--pred")
    p.add_argument("--to-func")
    p.add_argument("--func")
    p.add_argument("--to-pred")
    p.set_defaults(fn=cmd_eliminate)

    p = sub.add_parser("desort", help="merge sorts into one with sort predicates")
    p.add_argument("file")
    p.set_defaults(fn=cmd_desort)

    p = sub.add_parser("to-smt", help="compile a completed tight theory")
    common(p)
    p.add_argument("--logic", default=None)
    p.add_argument("--background", default="integers",
                   choices=["integers", "reals"])
    p.add_argument("--solver", default=None)
    p.add_argument("--all-models", action="store_true")
    p.add_argument("--timeout", type=int, default=60000,
                   help="solver timeout in milliseconds")
    p.add_argument("--out", default=None, help="write the script here")
    p.set_defaults(fn=cmd_to_smt)

    p = sub.add_parser("compare", help="verdict matrix across semantics")
    common(p)
    p.add_argument("--semantics", default="fsm,if,cm")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("se-check", help="bounded strong-equivalence search")
    common(p, second_file=True)
    p.add_argument("--max-universe", type=int, default=3)
    p.set_defaults(fn=cmd_se_check)

    return top


def _discard_stdout():
    """The reader went away (`| head`): say nothing, and send what is still
    buffered to devnull so that shutdown does not complain."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None):
    top = build_parser()
    try:
        args = top.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    # the except clauses below need these bound before the command runs
    from .parser import ParseError
    from .syntax import FsmError
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_ERROR
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return EXIT_ERROR
    except (FsmError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError as e:
        # grounding, the checks and SMT emission recurse once per level
        # of a formula, so a formula the parser takes can be too deep.  A
        # recursion bug in fsmkit lands here as well, so the message names
        # the function where the limit struck and does not blame the input.
        tb = e.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        where = (f"{code.co_name} "
                 f"({os.path.basename(code.co_filename)}:{tb.tb_lineno})")
        print(f"error: {args.command}: recursion limit reached in {where}: "
              f"a formula is nested too deeply, or this is an internal error",
              file=sys.stderr)
        return EXIT_ERROR


def run():
    """The process entry (`python -m fsmkit.cli`, the `fsmkit` script):
    main, then exit.  Cyclic garbage collection stays on while the command
    runs; gc.freeze() at the end moves every live object into the
    permanent generation, so that the collection the interpreter makes at
    shutdown no longer walks them all.  atexit handlers, module teardown
    and the flush of the standard streams still run."""
    code = main()
    try:
        sys.stdout.flush()       # what main leaves, such as --help
    except BrokenPipeError:
        _discard_stdout()
        code = EXIT_ERROR
    import gc
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
