"""Command-line interface: exit codes and machine-readable output."""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import jsonschema
import pytest

from fsmkit.cli import EXIT_ERROR, EXIT_NO, EXIT_OK, main
from fsmkit.parser import parse_program
from fsmkit.syntax import DeclarationError
from conftest import DEMOS, ROOT, STAND_IN, fsmkit_env

SCHEMAS = ROOT / "src" / "fsmkit" / "schemas"

TANK = DEMOS / "watertank.fsm"


#: the commands without --universe: check reads the universe from the
#: interpretation, and the others do not ground
NO_UNIVERSE = ("check", "complete", "check-tight", "unfold")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def tank_interp_file(tmp_path, a0, a1, flush):
    data = {
        "universe": {"amt": list(range(21))},
        "funcs": {"amt0": {"": a0}, "amt1": {"": a1}},
        "preds": {"flush": [[]] if flush else []},
    }
    path = tmp_path / "interp.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_round_trips_the_program(capsys):
    code, out = run(capsys, "parse", str(TANK))
    assert code == EXIT_OK
    assert "intensional amt1." in out


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.fsm"
    bad.write_text("func f : -> nosuch.\n")
    assert main(["parse", str(bad)]) == EXIT_ERROR


def test_missing_file_exits_2():
    assert main(["parse", "/no/such/file.fsm"]) == EXIT_ERROR


def test_stable_outputs_schema_valid_models(capsys):
    code, out = run(capsys, "stable", str(TANK))
    assert code == EXIT_OK
    models = json.loads(out)
    schema = json.loads((SCHEMAS / "models.json").read_text())
    jsonschema.validate(models, schema)
    # one stable model per amt0 value without flush, plus the flush models
    pairs = {(m["funcs"]["amt0"][""], m["funcs"]["amt1"][""],
              bool(m["preds"]["flush"])) for m in models}
    assert (5, 6, False) in pairs
    assert (5, 0, True) in pairs
    assert (5, 9, False) not in pairs


def _modules_added(code):
    """The modules that running code adds to sys.modules, in a fresh
    interpreter; modules loaded before it (sys) do not count.  The probe
    prints the list with repr, so that json counts when code loads it."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             f"{code}\n"
             "print(sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=fsmkit_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


LAYERS = ("aspmt", "eliminations", "interp", "parser", "related", "sortsred",
          "stable", "syntax", "transforms")


def test_importing_the_cli_adds_no_heavy_modules():
    # what --help pays for at start-up: no process pool, no subprocess
    # (only a solver run needs it), no dataclasses with the inspect
    # machinery it pulls in, no layer of fsmkit and no fractions
    added = _modules_added("import fsmkit.cli")
    assert {m for m in added if m.startswith("fsmkit")} == {"fsmkit",
                                                            "fsmkit.cli"}
    top = {m.split(".")[0] for m in added}
    assert not top & {"dataclasses", "inspect", "subprocess", "concurrent",
                      "multiprocessing", "fractions"}


def test_importing_the_package_loads_a_layer_only_when_a_name_is_read():
    assert {m for m in _modules_added("import fsmkit")
            if m.startswith("fsmkit")} == {"fsmkit"}
    added = _modules_added("import fsmkit\nfsmkit.parse_program")
    assert {"fsmkit.parser", "fsmkit.syntax"} <= added
    assert not {f"fsmkit.{m}" for m in ("stable", "transforms", "aspmt")} \
        & added


def test_a_stable_run_loads_no_compiler_and_no_oracle():
    added = _modules_added(
        "import contextlib, io\n"
        "from fsmkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['stable', {str(DEMOS / 'switches.fsm')!r}]) == 0")
    assert "fsmkit.stable" in added
    assert not {f"fsmkit.{m}" for m in ("aspmt", "related", "eliminations",
                                        "sortsred")} & added


@pytest.mark.parametrize("command", ["parse", "check-tight", "complete",
                                     "to-smt"])
def test_a_command_that_reads_no_json_loads_no_json(command):
    # only check reads JSON, and to-smt writes it only with a solver and
    # --all-models; FSMKIT_SOLVER is unset, so to-smt runs no solver
    added = _modules_added(
        "import contextlib, io, os\n"
        "os.environ.pop('FSMKIT_SOLVER', None)\n"
        "from fsmkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main([{command!r}, {str(TANK)!r}]) == 0")
    assert "json" not in added


def test_every_public_name_resolves_to_its_defining_module():
    import fsmkit
    names = dir(fsmkit)
    for name in fsmkit.__all__:
        home = importlib.import_module(f"fsmkit.{fsmkit._HOME[name]}")
        assert getattr(fsmkit, name) is getattr(home, name), name
        assert name in names, name
    assert sorted(fsmkit._HOME) == sorted(fsmkit.__all__)
    for layer in LAYERS:
        assert getattr(fsmkit, layer) is importlib.import_module(
            f"fsmkit.{layer}")
    namespace = {}
    exec("from fsmkit import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(
        fsmkit.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fsmkit.no_such_name


def test_the_package_exports_the_problem_of_the_stable_layer():
    import fsmkit
    import fsmkit.stable
    assert fsmkit.Problem is fsmkit.stable.Problem
    assert "Problem" in fsmkit.__all__


def test_the_method_choices_are_the_checkers_of_the_stable_layer():
    from fsmkit import cli, stable
    from fsmkit.parser import parse_program
    from fsmkit.syntax import FsmError, fol_representation
    assert cli.METHODS == (stable.METHOD_REDUCT, stable.METHOD_SECOND_ORDER,
                           stable.METHOD_BOTH)
    prog = parse_program("pred p.\nintensional p.\np.\n")
    problem = stable.Problem(fol_representation(prog), prog.intensional,
                             prog.signature, prog.universe)
    (model,) = problem.models()
    for method in cli.METHODS:
        assert problem.check(model, method) is True
    with pytest.raises(FsmError, match="unknown method"):
        problem.check(model, "no-such-method")


def test_the_installed_script_names_the_process_entry():
    # read as text: Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^fsmkit\s*=\s*"([\w.]+):(\w+)"', scripts, re.M)
    assert target is not None, scripts
    module = importlib.import_module(target.group(1))
    assert target.group(2) == "run"
    assert callable(getattr(module, target.group(2)))


def test_every_module_parses_at_the_declared_python_floor():
    """Every module of the package parses under the grammar of the oldest
    Python that pyproject.toml admits.  This checks syntax only: a library
    feature that is newer, such as a regular-expression construct that
    re compiles only on a later Python, still passes here."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M)
    assert floor is not None
    version = (int(floor.group(1)), int(floor.group(2)))
    modules = sorted((ROOT / "src" / "fsmkit").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=version)


@pytest.mark.parametrize("argv", [
    ["ground", str(DEMOS / "switches.fsm")],
    ["ground", str(TANK), "--universe", "amt=0..3"],
], ids=["switches", "watertank"])
def test_ground_prints_the_same_under_every_hash_seed(argv):
    # a ground conjunction or disjunction prints its members in the order
    # they were built, not in the hash order of its set
    env = fsmkit_env()
    outputs = set()
    for seed in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "fsmkit.cli", *argv], capture_output=True,
            env=dict(env, PYTHONHASHSEED=seed), timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_programs_past_a_thousand_rules(tmp_path):
    # 32 functions with 32 rules each: the program nests 1024 conjunctions
    # deep, its completion only about 64
    n = 32
    lines = ["sort s = 0..1."]
    lines += [f"func c{i} : -> s." for i in range(n)]
    lines += [f"pred q{j}." for j in range(n)]
    lines.append("intensional " + ", ".join(f"c{i}" for i in range(n)) + ".")
    lines += [f"c{i} = 1 :- q{j}." for i in range(n) for j in range(n)]
    src = tmp_path / "long.fsm"
    src.write_text("\n".join(lines) + "\n")
    env = fsmkit_env()
    for command in ("check-tight", "complete", "to-smt"):
        proc = subprocess.run(
            [sys.executable, "-m", "fsmkit.cli", command, str(src)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == EXIT_OK, (command, proc.stderr[-2000:])


@pytest.mark.parametrize("reverse", [False, True])
def test_a_chain_of_1201_intensional_predicates(tmp_path, reverse):
    # every walk over the program formula and over the dependency graph
    # goes 1201 levels deep; the reversed declaration order makes the
    # depth-first search in find_cycle follow the whole chain
    n = 1201
    names = [f"p{k}" for k in range(n)]
    lines = [f"pred {p}." for p in names]
    lines.append("intensional "
                 + ", ".join(reversed(names) if reverse else names) + ".")
    lines.append("p0.")
    lines += [f"p{k + 1} :- p{k}." for k in range(n - 1)]
    src = tmp_path / "chain.fsm"
    src.write_text("\n".join(lines) + "\n")
    env = fsmkit_env()
    for command in (["unfold"], ["desort"], ["check-tight"], ["complete"],
                    ["to-smt"], ["eliminate", "--pred", "p0", "--to-func", "f0"]):
        proc = subprocess.run(
            [sys.executable, "-m", "fsmkit.cli"] + command + [str(src)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == EXIT_OK, (command, proc.stderr[-2000:])


@pytest.mark.parametrize("argv", [["stable", "--method", "second-order"],
                                  ["compare"]])
def test_sort_without_finite_extent_exits_2(capsys, argv):
    # the car demo has real-valued functions, which cannot be enumerated
    assert main(argv + [str(DEMOS / "car.fsm")]) == EXIT_ERROR
    assert "no finite extent for sort 'real'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ground"],
    *[["stable", "--method", m] for m in ("reduct", "second-order", "both")],
    *[["check", "--method", m] for m in ("reduct", "second-order", "both")],
    ["complete"], ["check-tight"], ["unfold"], ["to-smt"], ["compare"],
    ["se-check"],
], ids=lambda argv: "-".join(a for a in argv if a != "--method"))
def test_an_undeclared_relative_to_symbol_exits_2(tmp_path, capsys, argv):
    if argv[0] == "check":
        argv = argv + ["--interp", tank_interp_file(tmp_path, 5, 6, False)]
    files = [str(TANK)] * (2 if argv[0] == "se-check" else 1)
    if argv[0] not in NO_UNIVERSE:
        argv = argv + ["--universe", "amt=0..1"]
    code = main(argv + ["--relative-to", "amt1,nope"] + files)
    assert code == EXIT_ERROR
    assert "error: unknown symbol 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("amt=0..x", "bad universe spec 'amt=0..x'"),
    ("amt=1.5..3", "bad universe spec 'amt=1.5..3'"),
    ("amt=", "bad universe spec 'amt='"),
    ("amt=1,,2", "bad universe spec 'amt=1,,2'"),
    ("nosuch=0..3", "universe spec 'nosuch=0..3': unknown sort 'nosuch'"),
    ("amt=5..1", "bad universe spec 'amt=5..1' (empty range)"),
    ("bool=7..9", "universe spec 'bool=7..9': the extent of sort 'bool' is "
                  "fixed"),
    ("bool=true", "universe spec 'bool=true': the extent of sort 'bool' is "
                  "fixed"),
], ids=["non-integer-bound", "fraction-bound", "empty", "empty-element",
        "undeclared-sort", "empty-range", "bool-range", "bool-list"])
def test_a_bad_universe_spec_exits_2(capsys, spec, message):
    assert main(["ground", str(TANK), "--universe", spec]) == EXIT_ERROR
    assert message in capsys.readouterr().err


def test_to_smt_refuses_an_empty_range(capsys):
    assert main(["to-smt", str(TANK), "--universe", "amt=5..1"]) \
        == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad universe spec 'amt=5..1' (empty range)" in captured.err


def test_universe_list_elements_are_stripped(capsys):
    code, out = run(capsys, "ground", str(TANK), "--universe", "amt= 1, 2")
    assert code == EXIT_OK
    assert "(amt0 = <1>)" in out and "' 1'" not in out
    code, out = run(capsys, "ground", str(DEMOS / "switches.fsm"),
                    "--universe", "switch= a , b")
    assert code == EXIT_OK and "<'a'>" in out and "' a'" not in out


def test_a_non_integer_element_of_an_integer_sort_exits_2(capsys):
    assert main(["ground", str(TANK), "--universe", "amt=a,b"]) \
        == EXIT_ERROR
    assert ("bad universe spec 'amt=a,b' (sort 'amt' has integer elements)"
            in capsys.readouterr().err)


def test_a_universe_spec_that_lists_an_element_twice_exits_2(capsys):
    # the tank would print each model with amt0 or amt1 = 1 twice
    assert main(["stable", str(TANK), "--universe", "amt=0,1,1"]) \
        == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: bad universe spec 'amt=0,1,1' (element 1 listed twice)"
            in captured.err)


def test_a_sort_that_lists_an_element_twice_exits_2(tmp_path, capsys):
    path = tmp_path / "twice.fsm"
    path.write_text("sort s = {a, a}.\nfunc f : -> s.\nintensional f.\n"
                    "{ f = a }.\n")
    assert main(["stable", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: sort 's' lists the element 'a' twice" in captured.err
    with pytest.raises(DeclarationError, match="'a' twice"):
        parse_program(path.read_text())


@pytest.mark.parametrize("command", NO_UNIVERSE)
def test_commands_that_do_not_ground_refuse_universe(tmp_path, capsys,
                                                     command):
    argv = [command, str(TANK), "--universe", "nosuch=0..3"]
    if command == "check":
        argv += ["--interp", tank_interp_file(tmp_path, 5, 6, False)]
    assert main(argv) == EXIT_ERROR
    assert "unrecognized arguments: --universe" in capsys.readouterr().err


def test_to_smt_honours_the_universe(tmp_path, capsys):
    # the range guards follow the overridden extent, and so do the models
    # the stand-in solver enumerates: the 7 stable models at amt=0..3
    scripts = []
    for spec in ("amt=0..3", "amt=0..20"):
        code, out = run(capsys, "to-smt", "--background", "integers",
                        str(TANK), "--universe", spec)
        assert code == EXIT_OK
        scripts.append(out)
    assert "(<= amt0 3)" in scripts[0] and "(<= amt0 20)" in scripts[1]
    code, out = run(capsys, "to-smt", "--background", "integers",
                    str(TANK))
    assert out == scripts[1]
    code, stable = run(capsys, "stable", str(TANK), "--universe",
                       "amt=0..3")
    assert code == EXIT_OK and len(json.loads(stable)) == 7
    code, out = run(capsys, "to-smt", "--background", "integers",
                    "--solver", str(STAND_IN), "--all-models",
                    "--out", str(tmp_path / "tank.smt2"), str(TANK),
                    "--universe", "amt=0..3")
    assert code == EXIT_OK and out == stable


def test_universe_specs_accept_builtin_and_second_program_sorts(
        tmp_path, capsys):
    assert main(["ground", str(TANK), "--universe", "amt=0..2",
                 "--universe", "int=0..2"]) == EXIT_OK
    a = tmp_path / "a.fsm"
    b = tmp_path / "b.fsm"
    a.write_text("pred p.\nintensional p.\n{ p }.\n")
    b.write_text("sort s = {e1}.\npred p.\nintensional p.\n{ p }.\n")
    assert main(["se-check", str(a), str(b), "--universe", "s=e1,e2"]) \
        == EXIT_OK
    assert main(["se-check", str(b), str(a), "--universe", "t=e1"]) \
        == EXIT_ERROR


def test_check_accepts_and_rejects(tmp_path, capsys):
    good = tank_interp_file(tmp_path, 5, 6, False)
    code, out = run(capsys, "check", "--interp", good, str(TANK))
    assert code == EXIT_OK
    assert json.loads(out) == {"stable": True}
    bad = tank_interp_file(tmp_path, 5, 9, False)
    code, out = run(capsys, "check", "--interp", bad, str(TANK))
    assert code == EXIT_NO
    assert json.loads(out) == {"stable": False}


def test_check_malformed_interp_exits_2(tmp_path, capsys):
    path = tmp_path / "interp.json"
    path.write_text("{not json")
    assert main(["check", "--interp", str(path), str(TANK)]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n")


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["funcs"]["amt1"].update({"": 99}),
     "value of amt1(): 99 is outside sort 'amt'"),
    (lambda d: d["funcs"]["amt1"].update({"": True}),
     "value of amt1(): True is outside sort 'amt'"),
    (lambda d: d["preds"].pop("flush"),
     "symbol 'flush' missing from the interpretation"),
    (lambda d: d["funcs"].pop("amt0"),
     "symbol 'amt0' missing from the interpretation"),
    (lambda d: d["funcs"].update({"amt2": {"": 1}}),
     "undeclared function 'amt2'"),
    (lambda d: d["preds"].update({"flush": [[1]]}),
     "flush(1): 1 arguments, want 0"),
    (lambda d: d["preds"].update({"flush": 5}),
     "malformed interpretation JSON"),
    (lambda d: d["funcs"]["amt1"].update({"": {"rat": [1]}}),
     "malformed interpretation JSON"),
    (lambda d: d["funcs"]["amt1"].update({"": {"rat": []}}),
     "malformed interpretation JSON"),
], ids=["value-outside", "bool-value", "no-flush", "no-amt0", "undeclared",
        "arity", "shape", "short-rat", "empty-rat"])
def test_check_rejects_an_interpretation_outside_the_signature(
        tmp_path, capsys, edit, message):
    path = pathlib.Path(tank_interp_file(tmp_path, 5, 6, False))
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    assert main(["check", "--interp", str(path), str(TANK)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("method", ["reduct", "second-order", "both"])
def test_check_refuses_a_repeated_element_on_every_method(tmp_path, capsys,
                                                          method):
    path = pathlib.Path(tank_interp_file(tmp_path, 5, 6, False))
    data = json.loads(path.read_text())
    data["universe"]["amt"] = [0, 1, 1] + list(range(2, 21))
    path.write_text(json.dumps(data))
    code = main(["check", "--method", method, "--interp", str(path),
                 str(TANK)])
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the extent of sort 'amt' lists the element 1 twice\n")


@pytest.mark.parametrize("method", ["reduct", "second-order", "both"])
@pytest.mark.parametrize("amt1, flush", [(6, False), (9, False), (0, True)])
def test_check_reads_a_sort_the_universe_leaves_out_from_its_declaration(
        tmp_path, capsys, method, amt1, flush):
    # the interpretation's universe leaves out amt, whose declared extent
    # is the full universe's 0..20
    full = tank_interp_file(tmp_path, 5, amt1, flush)
    want = run(capsys, "check", "--method", method, "--interp", full,
               str(TANK))
    path = tmp_path / "no-universe.json"
    path.write_text(json.dumps({**json.loads(pathlib.Path(full).read_text()),
                                "universe": {}}))
    assert run(capsys, "check", "--method", method, "--interp", str(path),
               str(TANK)) == want
    assert want[0] in (EXIT_OK, EXIT_NO)


def test_check_accepts_what_stable_prints(tmp_path, capsys):
    # every model `stable` prints loads again, and is stable
    _, out = run(capsys, "stable", str(TANK), "--universe", "amt=0..3")
    for k, model in enumerate(json.loads(out)):
        path = tmp_path / f"model{k}.json"
        path.write_text(json.dumps(model))
        code, verdict = run(capsys, "check", "--interp", str(path), str(TANK))
        assert (code, json.loads(verdict)) == (EXIT_OK, {"stable": True})


@pytest.mark.parametrize("amt0, amt1, flush, code", [
    (200, 201, False, EXIT_OK),         # fill: stable
    (203, 0, True, EXIT_OK),            # flush: stable
    (200, 57, False, EXIT_NO),          # unsupported: a model, not stable
    (203, 17, True, EXIT_NO),           # non-model: amt1 = 0 :- flush fails
], ids=["fill", "flush", "unsupported", "non-model"])
def test_check_both_methods_over_a_large_sort(tmp_path, capsys, amt0, amt1,
                                              flush, code):
    # the snapshots of the check benchmark, one sort of 401 elements
    path = tmp_path / "interp.json"
    path.write_text(json.dumps({
        "universe": {"amt": list(range(401))},
        "funcs": {"amt0": {"": amt0}, "amt1": {"": amt1}},
        "preds": {"flush": [[]] if flush else []},
    }))
    got, out = run(capsys, "check", "--method", "both", "--interp",
                   str(path), str(TANK))
    assert (got, json.loads(out)) == (code, {"stable": code == EXIT_OK})


def test_a_closed_pipe_exits_2_without_a_message():
    # `fsmkit stable ... | head -1`: the reader is gone before the models
    # are written; the reading end is closed first, so every write fails
    env = fsmkit_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fsmkit.cli", "stable", str(TANK),
             "--universe", "amt=0..40"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr == ""


# the process entry, `python -m fsmkit.cli`: cli.run, which freezes the
# heap before the interpreter shuts down

def _process(argv, **kw):
    return subprocess.run([sys.executable, "-m", "fsmkit.cli", *argv],
                          capture_output=True, env=fsmkit_env(), timeout=120, **kw)


@pytest.mark.parametrize("demo", ["watertank", "switches"])
def test_piped_stable_output_equals_the_in_process_output(capsys, demo):
    argv = ["stable", str(DEMOS / f"{demo}.fsm")]
    code, out = run(capsys, *argv)
    proc = _process(argv)
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert proc.stdout == out.encode("utf-8")


def test_to_smt_out_writes_the_whole_script(tmp_path, capsys):
    argv = ["to-smt", "--background", "reals", str(DEMOS / "car.fsm")]
    code, script = run(capsys, *argv)
    assert code == EXIT_OK
    out = tmp_path / "car.smt2"
    proc = _process(argv + ["--out", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, b"", b"")
    assert out.read_text(encoding="utf-8") == script


def test_a_reader_that_leaves_after_one_byte_gets_exit_2():
    # `fsmkit stable ... | head -c 1`: the models (about 290 kB) do not fit
    # in the pipe, so the writer is still writing when the reader goes
    proc = subprocess.Popen(
        [sys.executable, "-m", "fsmkit.cli", "stable", str(TANK),
         "--universe", "amt=0..100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fsmkit_env())
    try:
        assert proc.stdout.read(1) == b"["
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_ERROR
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


def test_check_tight(tmp_path, capsys):
    assert main(["check-tight", str(TANK)]) == EXIT_OK
    looped = tmp_path / "loop.fsm"
    looped.write_text("pred p.\npred q.\nintensional p, q.\np :- q.\nq :- p.\n")
    assert main(["check-tight", str(looped)]) == EXIT_NO


def test_complete_prints_a_formula(capsys):
    code, out = run(capsys, "complete", str(TANK))
    assert code == EXIT_OK
    assert "<->" in out


def test_unfold_flattens_sums(tmp_path, capsys):
    src = tmp_path / "sum.fsm"
    src.write_text("sort s = 1..5.\n"
                   "func a : -> s.\nfunc b : -> s.\n"
                   "intensional a, b.\n"
                   "a + b = 5.\n")
    code, out = run(capsys, "unfold", str(src))
    assert code == EXIT_OK
    assert "exists" in out


def test_to_smt_emits_valid_script(capsys):
    code, out = run(capsys, "to-smt", "--background", "integers", str(TANK))
    assert code == EXIT_OK
    assert out.startswith("(set-logic QF_LIA)")
    assert "(check-sat)" in out


def test_to_smt_all_models_equal_the_stable_models(tmp_path, capsys):
    # the solver is tests/stand_in_solver.py, which enumerates the script's
    # guarded ranges; each model found is blocked and the solver run again
    small = tmp_path / "tank.fsm"
    small.write_text(TANK.read_text().replace("0..20", "0..3"))
    code, stable = run(capsys, "stable", str(small))
    assert code == EXIT_OK and len(json.loads(stable)) == 7
    code, out = run(capsys, "to-smt", "--background", "integers",
                    "--solver", str(STAND_IN), "--all-models",
                    "--out", str(tmp_path / "tank.smt2"), str(small))
    assert code == EXIT_OK
    assert out == stable


def test_compare_verdicts(capsys):
    code, out = run(capsys, "compare", "--semantics", "fsm,if", str(TANK))
    assert code == EXIT_OK
    data = json.loads(out)
    schema = json.loads((SCHEMAS / "verdicts.json").read_text())
    jsonschema.validate(data, schema)
    assert set(data["verdicts"]) == {"fsm", "if"}
    assert len(data["interpretations"]) == len(data["verdicts"]["fsm"])


def test_compare_lists_one_verdict_per_interpretation_for_a_repeated_name(
        capsys):
    # a semantics named twice once got two verdicts per interpretation
    code, out = run(capsys, "compare", "--semantics", "fsm,if,fsm",
                    str(DEMOS / "switches.fsm"))
    assert code == EXIT_OK
    data = json.loads(out)
    n = len(data["interpretations"])
    assert n == 64
    assert {s: len(v) for s, v in data["verdicts"].items()} == {"fsm": n,
                                                                "if": n}


def test_se_check_accepts_and_refutes(tmp_path, capsys):
    a = tmp_path / "a.fsm"
    b = tmp_path / "b.fsm"
    c = tmp_path / "c.fsm"
    a.write_text("pred p.\nintensional p.\n{ p }.\n")
    b.write_text("pred p.\nintensional p.\np :- not not p.\n")
    c.write_text("pred p.\nintensional p.\np.\n")
    assert main(["se-check", str(a), str(b)]) == EXIT_OK
    code, out = run(capsys, "se-check", str(a), str(c))
    assert code == EXIT_NO


def test_se_check_merges_the_two_signatures(tmp_path, capsys):
    # each program declares a symbol the other does not
    a = tmp_path / "a.fsm"
    b = tmp_path / "b.fsm"
    a.write_text("pred p.\nintensional p.\np.\n")
    b.write_text("pred q.\nintensional q.\nq.\n")
    code, out = run(capsys, "se-check", str(a), str(b), "--relative-to", "p,q")
    assert code == EXIT_NO
    assert out.splitlines()[0] == "refuted: classical models differ"
    code = main(["se-check", str(a), str(b), "--relative-to", "p,r"])
    assert code == EXIT_ERROR
    assert "unknown symbol 'r'" in capsys.readouterr().err


def test_se_check_refuses_differing_intensional_lists(tmp_path, capsys):
    a = tmp_path / "a.fsm"
    b = tmp_path / "b.fsm"
    a.write_text("pred p.\nintensional p.\np.\n")
    b.write_text("pred q.\nintensional q.\nq.\n")
    code = main(["se-check", str(a), str(b)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR and captured.out == ""
    assert "different intensional symbols" in captured.err
    assert "--relative-to" in captured.err


@pytest.mark.parametrize("first, second, name", [
    ("pred p.\nintensional p.\np.\n",
     "func p : -> bool.\nintensional p.\np = true.\n", "p"),
    ("sort s = {x, y}.\npred p : s.\nintensional p.\np(x).\n",
     "sort s = {x}.\npred p : s.\nintensional p.\np(x).\n", "s"),
    ("sort s = {x}.\npred p : s.\nintensional p.\np(x).\n",
     "sort s = {x}.\npred p.\nintensional p.\np.\n", "p"),
], ids=["function-or-predicate", "sort", "arity"])
def test_se_check_refuses_conflicting_declarations(tmp_path, capsys, first,
                                                   second, name):
    a = tmp_path / "a.fsm"
    b = tmp_path / "b.fsm"
    a.write_text(first)
    b.write_text(second)
    code = main(["se-check", str(a), str(b)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR and captured.out == ""
    assert f"declare {name!r} differently" in captured.err


@pytest.mark.parametrize("size", ["0", "-1"])
def test_se_check_refuses_a_universe_size_below_1(tmp_path, capsys, size):
    # p. and q. are not strongly equivalent, and a search of no universe
    # must not report that it found no refutation
    head = "pred p.\npred q.\nintensional p, q.\n"
    a = tmp_path / "a.fsm"
    b = tmp_path / "b.fsm"
    a.write_text(head + "p.\n")
    b.write_text(head + "q.\n")
    assert main(["se-check", str(a), str(b)]) == EXIT_NO
    capsys.readouterr()
    code = main(["se-check", "--max-universe", size, str(a), str(b)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR and captured.out == ""
    assert f"universe size of at least 1, not {size}" in captured.err


def test_eliminate_predicate_roundtrip(capsys):
    code, out = run(capsys, "eliminate", "--pred", "flush", "--to-func",
                    "flushf", str(TANK))
    assert code == EXIT_OK
    assert "flushf" in out


def test_desort_prints_sort_predicates(tmp_path, capsys):
    src = tmp_path / "sorted.fsm"
    src.write_text("sort s1 = {e1, e2}.\n"
                   "func f : s1 -> s1.\n"
                   "intensional f.\n"
                   "f(e1) = e1.\n")
    code, out = run(capsys, "desort", str(src))
    assert code == EXIT_OK
    assert "sort_s1" in out
