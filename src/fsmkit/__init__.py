"""Stable models with intensional functions over finite structures.

The package provides exact, enumeration-based semantics (two independent
stable-model checkers), syntactic transforms (definitional normal form,
completion, unfolding, sort merging, predicate/function eliminations),
reference oracles for neighbouring formalisms, and an SMT-LIB compiler for
completed tight theories, plus a command-line front end.

`import fsmkit` loads no layer.  A public name, or a submodule read as an
attribute, is imported the first time it is read (PEP 562), so the
command-line front end and a script that needs one layer load only that
layer and the ones it imports.
"""

__version__ = "0.1.0"

#: the submodule that defines each public name
_HOME = {
    "And": "syntax", "App": "syntax", "Atom": "syntax", "BOT": "syntax",
    "Bottom": "syntax", "Choice": "syntax", "Equal": "syntax",
    "Exists": "syntax", "Forall": "syntax", "Formula": "syntax",
    "FsmError": "syntax", "Iff": "syntax", "Implies": "syntax",
    "IntensionalList": "syntax", "Lit": "syntax", "Not": "syntax",
    "Obj": "syntax", "Or": "syntax", "Program": "syntax", "Rule": "syntax",
    "Signature": "syntax", "TOP": "syntax", "Var": "syntax",
    "fol_representation": "syntax",
    "FiniteInterpretation": "interp", "enumerate_interpretations": "interp",
    "satisfies": "interp",
    "Problem": "stable", "check_stable": "stable",
    "check_stable_both": "stable", "stable_models": "stable",
    "check_strong_equivalence_bounded": "transforms", "complete": "transforms",
    "is_tight": "transforms", "to_clark_normal_form": "transforms",
    "unfold": "transforms",
    "parse_formula": "parser", "parse_program": "parser",
    "print_formula": "parser", "print_program": "parser",
}

__all__ = list(_HOME)

_SUBMODULES = ("aspmt", "cli", "eliminations", "interp", "parser", "related",
               "sortsred", "stable", "syntax", "transforms")


def __getattr__(name):
    from importlib import import_module
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
