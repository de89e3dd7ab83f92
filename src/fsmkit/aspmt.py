"""Background theories, bounded background-restricted stable checking, and
SMT-LIB compilation of completed tight theories.

The compile strategy targets finite-domain front ends over an integer or
real background: quantifiers over finite sorts are expanded, function
applications over finite argument tuples become per-tuple SMT constants,
and residual background-sort quantifiers are eliminated where an equality
guard determines the variable (the Speed(1) = y pattern), otherwise
emitted as SMT quantifiers.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction

from .syntax import (
    And, App, Atom, ARITH_FUNCS, BOOL, Bottom, COMPARE_PREDS,
    ContractViolation, Equal, Exists, Forall, Formula, FragmentError,
    FreshNames, FsmError, INT, Implies, Lit, Not, Obj, Or, REAL, Record,
    Signature, TOP, Var, all_ints, as_clist, conj, conjuncts, disj,
    free_vars, guard_term, iff_of, is_not, subst,
)
from .interp import FiniteInterpretation
from .stable import check_stable, METHOD_REDUCT
from .transforms import complete, find_cycle, dependency_graph


class NotATInterpretationError(FsmError):
    pass


class SmtError(FsmError):
    pass


KIND_INTEGERS = "integers"
KIND_REALS = "reals"
KIND_NONE = "none"


class BackgroundTheory(Record):
    """A fixed arithmetic background with an optional bounded slice: it
    maps a sort to a finite tuple of values, which replaces the sort's
    declared extent, if any, in the compiler and the enumeration-based
    checker."""
    __slots__ = ("kind", "slice")

    def __init__(self, kind: str = KIND_NONE, slice: dict | None = None):
        self.kind = kind
        self.slice = {} if slice is None else slice

    def numeric_smt_sort(self):
        if self.kind == KIND_REALS:
            return "Real"
        if self.kind == KIND_INTEGERS:
            return "Int"
        raise SmtError("no numeric background declared")


def _check_t_interpretation(i: FiniteInterpretation, c):
    """Reject interpretations that try to override background symbols."""
    for name in list(i.funcs):
        if name in ARITH_FUNCS or re.fullmatch(r"-?\d+", name):
            raise NotATInterpretationError(
                f"interpretation overrides the background symbol {name!r}")
    for name in list(i.preds):
        if name in COMPARE_PREDS:
            raise NotATInterpretationError(
                f"interpretation overrides the background symbol {name!r}")
    for name in c:
        if name in ARITH_FUNCS or name in COMPARE_PREDS:
            raise NotATInterpretationError(
                f"background symbol {name!r} cannot be intensional")


def t_stable_check(f: Formula, c, i: FiniteInterpretation,
                   bg: BackgroundTheory, method=METHOD_REDUCT) -> bool:
    """Stable-model check restricted to interpretations that agree with the
    arithmetic background; witnesses vary only the listed constants, so the
    background stays fixed throughout."""
    c = as_clist(c)
    _check_t_interpretation(i, c)
    if bg.slice:
        for s, ext in bg.slice.items():
            got = i.universe.get(s)
            if got is not None and tuple(got) != tuple(ext):
                raise NotATInterpretationError(
                    f"interpretation universe disagrees with the slice on {s!r}")
            if got is None:
                i = FiniteInterpretation(i.signature,
                                         {**i.universe, s: tuple(ext)},
                                         dict(i.funcs), dict(i.preds))
    return check_stable(f, c, i, method)


# ---------------------------------------------------------------------------
# SMT-LIB scripts

class SmtScript(Record):
    __slots__ = ("logic", "declarations", "assertions", "symbol_map")

    def __init__(self, logic: str, declarations: list | None = None,
                 assertions: list | None = None,
                 symbol_map: dict | None = None):
        self.logic = logic
        # (name, smt_sort)
        self.declarations = [] if declarations is None else declarations
        # sexpr strings
        self.assertions = [] if assertions is None else assertions
        # smt name -> origin info
        self.symbol_map = {} if symbol_map is None else symbol_map

    def render(self) -> str:
        lines = [f"(set-logic {self.logic})"]
        for name, sort in self.declarations:
            lines.append(f"(declare-const {name} {sort})")
        for a in self.assertions:
            lines.append(f"(assert {a})")
        lines += ["(check-sat)", "(get-model)"]
        return "\n".join(lines) + "\n"


def _rebuilt(f, left, right):
    """The binary connective f over left and right: f itself when both are
    its own children."""
    if left is f.left and right is f.right:
        return f
    return type(f)(left, right)


def _element_term(e):
    if isinstance(e, bool) or isinstance(e, (int, Fraction)):
        return Lit(e)
    return Obj(e)


def _guarded(f, var):
    """(t, rest) for the first conjunct of f that is a guard t = var, where
    rest lists the other conjuncts in order; None when no conjunct is."""
    cs = list(conjuncts(f))
    for idx, cj in enumerate(cs):
        t = guard_term(cj, var)
        if t is not None:
            return t, cs[:idx] + cs[idx + 1:]
    return None


def _rewritten(f, sig, bg, fresh):
    """f rewritten for the compiler in one walk: double negations dropped,
    each quantifier over a finite extent expanded into a conjunction or
    disjunction over its elements, and each quantifier over a background
    sort eliminated where an equality guard pins down its variable (the
    Speed(1) = y pattern); quantifiers that resist elimination remain.  A
    subformula that needs none of this is returned itself.

    A chain of negations is walked in a loop, so its length costs no
    recursion: its pairs are dropped, and an odd one out stays on the
    formula below the chain.  A background quantifier's body is rewritten
    first and the elimination rules read the result, so what a rule
    returns is not walked again.  fresh names the variables that prenexing
    introduces."""
    last, length = None, 0      # the chain's last negation, its length
    while (inner := is_not(f)) is not None:
        last, f, length = f, inner, length + 1
    if length % 2:
        new = _rewritten(f, sig, bg, fresh)
        return last if new is f else Not(new)
    if isinstance(f, (And, Or, Implies)):
        return _rebuilt(f, _rewritten(f.left, sig, bg, fresh),
                        _rewritten(f.right, sig, bg, fresh))
    if isinstance(f, (Forall, Exists)):
        ext = sig.extent(f.var.sort, bg.slice)
        if ext is not None:
            parts = [_rewritten(subst(f.body, {f.var: _element_term(e)}),
                                sig, bg, fresh) for e in ext]
            return conj(parts) if isinstance(f, Forall) else disj(parts)
        body = _rewritten(f.body, sig, bg, fresh)
        if isinstance(f, Forall):
            return _universal(f.var, body, fresh)
        guarded = _guarded(body, f.var)
        if guarded is not None:
            t, rest = guarded
            return subst(conj(rest), {f.var: t})
        return f if body is f.body else Exists(f.var, body)
    return f


def _universal(y, body, fresh):
    """forall y body, for a body already rewritten, with y eliminated
    where a guard pins it down.  Each rule builds its parts from rewritten
    pieces, so it only applies the rules to them again."""
    parts = iff_of(body)
    if parts is not None:
        a, b = parts
        # forall y ((t = y) <-> G): the forward instance plus the guarded
        # reverse implication
        for eq_side, g_side in ((a, b), (b, a)):
            t = guard_term(eq_side, y)
            if t is not None:
                return And(subst(g_side, {y: t}),
                           _universal(y, Implies(g_side, eq_side), fresh))
    if isinstance(body, Implies):
        a, b = body.left, body.right
        if isinstance(a, Or):
            return And(_universal(y, Implies(a.left, b), fresh),
                       _universal(y, Implies(a.right, b), fresh))
        if a == TOP:
            # all the walk left of an antecedent whose existentials guards
            # eliminated; prenexing and eliminating them would leave b
            return _universal(y, b, fresh)
        if isinstance(a, Exists):
            names = {v.name for v in free_vars(b) | free_vars(a)} | {y.name}
            z = fresh.var(a.var.sort, avoid=names)
            inner = subst(a.body, {a.var: z})
            return _universal(y, _universal(z, Implies(inner, b), fresh),
                              fresh)
        guarded = _guarded(a, y)
        if guarded is not None:
            t, rest = guarded
            return subst(Implies(conj(rest), b) if rest else b, {y: t})
    return Forall(y, body)


# ---------------------------------------------------------------------------
# compilation to SMT-LIB text

def _mangle_elem(e):
    if isinstance(e, bool):
        return "true" if e else "false"
    if isinstance(e, int):
        return str(e).replace("-", "m")
    return re.sub(r"[^A-Za-z0-9_]", "_", str(e))


class _Compiler:
    def __init__(self, sig: Signature, bg: BackgroundTheory):
        self.sig = sig
        self.bg = bg
        self.decls = {}        # smt name -> smt sort
        self.symbol_map = {}
        self.guards = {}       # smt name -> guard sexpr
        self.quantified = False    # whether any forall/exists was emitted
        self.num_sort = bg.numeric_smt_sort()

    # -- elements ----------------------------------------------------------
    def elem_index(self, sort, e):
        ext = self.sig.extent(sort, self.bg.slice)
        if ext is None:
            raise SmtError(f"sort {sort!r} has no finite extent")
        if all_ints(ext):
            return e
        return list(ext).index(e)

    def num_lit(self, v):
        if isinstance(v, Fraction):
            if self.num_sort != "Real":
                raise SmtError("rational literal in an integer background")
            if v.denominator == 1:
                return self.num_lit(v.numerator)
            if v < 0:
                return f"(- (/ {-v.numerator}.0 {v.denominator}.0))"
            return f"(/ {v.numerator}.0 {v.denominator}.0)"
        if self.num_sort == "Real":
            return f"(- {-v}.0)" if v < 0 else f"{v}.0"
        return f"(- {-v})" if v < 0 else str(v)

    # -- terms -------------------------------------------------------------
    def term(self, t, env):
        """Returns (sexpr, smt sort)."""
        if isinstance(t, Lit):
            if isinstance(t.value, bool):
                return ("true" if t.value else "false"), "Bool"
            return self.num_lit(t.value), self.num_sort
        if isinstance(t, Obj):
            if isinstance(t.elem, bool):
                return ("true" if t.elem else "false"), "Bool"
            if isinstance(t.elem, (int, Fraction)):
                return self.num_lit(t.elem), self.num_sort
            raise SmtError(f"cannot compile raw element {t.elem!r} without its sort")
        if isinstance(t, Var):
            if t.name not in env:
                raise SmtError(f"unbound variable {t.name!r}")
            return t.name, env[t.name]
        if isinstance(t, App):
            if t.fn in ARITH_FUNCS:
                args = [self.term(a, env) for a in t.args]
                return f"({t.fn} {' '.join(a for a, _ in args)})", self.num_sort
            return self.user_func(t, env)
        raise TypeError(f"not a term: {t!r}")

    def user_func(self, t: App, env):
        argsorts, valsort = self.sig.functions[t.fn]
        elems = tuple(self.ground_elem(a, s, env)
                      for a, s in zip(t.args, argsorts))
        name = "_".join([t.fn, *map(_mangle_elem, elems)])
        ext = self.sig.extent(valsort, self.bg.slice)
        if valsort == BOOL:
            smt_sort = "Bool"
        elif ext is not None or self.sig.is_subsort(valsort, REAL):
            smt_sort = self.num_sort
        else:
            raise SmtError(f"value sort {valsort!r} of {t.fn!r} is not compilable")
        self.declare(name, smt_sort, ("func", t.fn, elems, valsort))
        if ext is not None and valsort != BOOL:
            self.guards.setdefault(name, self.range_guard(name, valsort, ext))
        return name, smt_sort

    def ground_elem(self, a, sort, env):
        """A function/predicate argument must be a concrete element."""
        if isinstance(a, Obj):
            return a.elem
        if isinstance(a, Lit):
            return a.value
        if isinstance(a, App) and not a.args:
            # ground arithmetic like 0 + 1 stays symbolic; a plain object
            # constant names an element only through an interpretation, so
            # refuse it here
            raise SmtError(f"argument {a!r} is not a concrete element")
        if isinstance(a, App) and all(isinstance(x, (Lit, Obj)) for x in a.args) \
                and a.fn in ARITH_FUNCS:
            from .interp import eval_term
            return eval_term(None, a)
        raise SmtError(f"argument {a!r} of a compiled symbol was not eliminated")

    def range_guard(self, name, sort, ext):
        if all_ints(ext) and tuple(ext) == tuple(range(ext[0], ext[-1] + 1)):
            lo, hi = ext[0], ext[-1]
            return f"(and (<= {self.num_lit(lo)} {name}) (<= {name} {self.num_lit(hi)}))"
        if all(isinstance(x, (int, Fraction)) and not isinstance(x, bool)
               for x in ext):
            vals = ext
        else:
            # enum sorts are encoded by element index
            vals = range(len(ext))
        alts = " ".join(f"(= {name} {self.num_lit(v)})" for v in vals)
        return f"(or {alts})" if len(ext) > 1 else alts

    def declare(self, name, smt_sort, origin):
        old = self.decls.get(name)
        if old is not None and old != smt_sort:
            raise SmtError(f"name collision on {name!r}")
        self.decls[name] = smt_sort
        self.symbol_map.setdefault(name, origin)

    def _equal_side(self, t, other, env):
        """One side of an equality; a bare named element takes its index
        encoding from the value sort of the opposite side."""
        if isinstance(t, Obj) and isinstance(t.elem, str):
            sort = None
            if isinstance(other, App) and other.fn in self.sig.functions:
                sort = self.sig.functions[other.fn][1]
            elif isinstance(other, Var):
                sort = other.sort
            if sort is not None:
                return self.num_lit(self.elem_index(sort, t.elem)), self.num_sort
        return self.term(t, env)

    # -- formulas ----------------------------------------------------------
    def formula(self, f, env):
        if f == TOP:
            return "true"
        if isinstance(f, Bottom):
            return "false"
        neg = is_not(f)
        if neg is not None:
            return f"(not {self.formula(neg, env)})"
        if isinstance(f, Atom):
            if f.pred in COMPARE_PREDS:
                l, _ = self.term(f.args[0], env)
                r, _ = self.term(f.args[1], env)
                return f"({f.pred} {l} {r})"
            elems = tuple(self.ground_elem(a, s, env)
                          for a, s in zip(f.args, self.sig.predicates[f.pred]))
            name = "_".join([f.pred, *map(_mangle_elem, elems)])
            self.declare(name, "Bool", ("pred", f.pred, elems))
            return name
        if isinstance(f, Equal):
            l, ls = self._equal_side(f.left, f.right, env)
            r, rs = self._equal_side(f.right, f.left, env)
            if (ls == "Bool") != (rs == "Bool"):
                raise SmtError(f"boolean/numeric mismatch in {f!r}")
            return f"(= {l} {r})"
        if isinstance(f, And):
            return f"(and {self.formula(f.left, env)} {self.formula(f.right, env)})"
        if isinstance(f, Or):
            return f"(or {self.formula(f.left, env)} {self.formula(f.right, env)})"
        if isinstance(f, Implies):
            return f"(=> {self.formula(f.left, env)} {self.formula(f.right, env)})"
        if isinstance(f, (Forall, Exists)):
            v = f.var
            if not self.sig.is_subsort(v.sort, REAL) and v.sort not in (INT, REAL):
                raise SmtError(f"residual quantifier over non-background sort {v.sort!r}")
            q = "forall" if isinstance(f, Forall) else "exists"
            self.quantified = True
            body = self.formula(f.body, {**env, v.name: self.num_sort})
            return f"({q} (({v.name} {self.num_sort})) {body})"
        raise TypeError(f"not a formula: {f!r}")


def emit_smtlib(f: Formula, c, sig: Signature, bg: BackgroundTheory,
                logic=None) -> SmtScript:
    """Compile a tight theory in Clark normal form to an SMT-LIB script of
    its completion; raises FragmentError on a theory that is not tight or
    not in Clark normal form.
    """
    c = as_clist(c)
    if bg.kind == KIND_NONE:
        raise SmtError("SMT emission needs an integer or real background")
    cycle = find_cycle(dependency_graph(f, c))
    if cycle is not None:
        raise FragmentError(
            "theory is not tight; dependency cycle: " + " -> ".join(cycle))
    try:
        f = complete(f, c, sig)
    except ContractViolation as e:
        raise FragmentError(f"not in Clark normal form: {e}") from None
    # the rewrite maps a conjunction to the conjunction of its rewritten
    # conjuncts; rewriting one top-level conjunct at a time keeps the
    # recursion as deep as one rule, not as long as the program
    fresh = FreshNames("Q")
    comp = _Compiler(sig, bg)
    assertions = []
    for rule in conjuncts(f):
        for item in conjuncts(_rewritten(rule, sig, bg, fresh)):
            if item != TOP:
                assertions.append(comp.formula(item, {}))
    guard_assertions = [comp.guards[n] for n in comp.decls if n in comp.guards]
    if logic is None:
        logic = "NRA" if bg.kind == KIND_REALS else "LIA"
        if not comp.quantified:
            logic = "QF_" + logic
    return SmtScript(logic=logic,
                     declarations=sorted(comp.decls.items()),
                     assertions=guard_assertions + assertions,
                     symbol_map=comp.symbol_map)


# ---------------------------------------------------------------------------
# model decoding

class DecodeError(FsmError):
    pass


_SEXPR_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def parse_sexprs(text):
    stack = [[]]
    for tok in _SEXPR_TOKEN_RE.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) < 2:
                raise DecodeError("unbalanced parentheses in solver output")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise DecodeError("unbalanced parentheses in solver output")
    return stack[0]


def _value_of(sx):
    if isinstance(sx, list):
        if len(sx) == 2 and sx[0] == "-":
            return -_value_of(sx[1])
        if len(sx) == 3 and sx[0] == "/":
            return Fraction(_value_of(sx[1])) / Fraction(_value_of(sx[2]))
        raise DecodeError(f"unrecognized value {sx!r}")
    if sx == "true":
        return True
    if sx == "false":
        return False
    if re.fullmatch(r"-?\d+", sx):
        return int(sx)
    if re.fullmatch(r"-?\d+\.\d+", sx):
        return Fraction(sx)
    raise DecodeError(f"unrecognized value {sx!r}")


def _define_funs(text):
    """(name, value s-expression) of every define-fun in solver output, in
    order, at any depth."""
    stack = list(reversed(parse_sexprs(text)))
    while stack:
        sx = stack.pop()
        if isinstance(sx, list):
            if len(sx) >= 5 and sx[0] == "define-fun":
                yield sx[1], sx[4]
            else:
                stack.extend(reversed(sx))


def decode_model(text: str, script: SmtScript, sig: Signature,
                 bg: BackgroundTheory) -> FiniteInterpretation:
    """Turn a get-model response back into a finite interpretation over the
    declared slice."""
    # convert every value, so that a malformed one is reported even when
    # it is not needed
    defs = {}
    for name, raw in _define_funs(text):
        defs[name] = _value_of(raw)

    funcs, preds = {}, {}
    universe = {s: tuple(ext) for s in [*bg.slice, *sig.sorts]
                if (ext := sig.extent(s, bg.slice)) is not None}
    for name, _ in script.declarations:
        if name not in defs:
            raise DecodeError(f"model is missing {name!r}")
    # symbol_map has the keys of declarations, all present in defs now
    for name, origin in script.symbol_map.items():
        v = defs[name]
        if origin[0] == "pred":
            _, p, args = origin
            if not isinstance(v, bool):
                raise DecodeError(f"expected a boolean for {name!r}")
            if v:
                preds.setdefault(p, set()).add(args)
            else:
                preds.setdefault(p, set())
        else:
            _, fn, args, valsort = origin
            ext = sig.extent(valsort, bg.slice)
            if isinstance(v, Fraction) and v.denominator == 1 \
                    and bg.kind == KIND_INTEGERS:
                v = int(v)
            if ext is not None:
                if valsort != BOOL and not all_ints(ext):
                    v = list(ext)[int(v)]
                elif v not in ext:
                    raise DecodeError(
                        f"value {v!r} of {name!r} outside the sort {valsort!r}")
            funcs.setdefault(fn, {})[args] = v
    preds = {p: frozenset(ts) for p, ts in preds.items()}
    return FiniteInterpretation(sig, universe, funcs, preds)


# ---------------------------------------------------------------------------
# grammar validation

_SYMBOL = r"[A-Za-z~!@$%^&*+=<>.?/_-][A-Za-z0-9~!@$%^&*+=<>.?/_-]*"
#: a lexically valid atom: a numeral or decimal, a symbol, a keyword, a
#: quoted symbol or a string literal
_ATOM_RE = re.compile(r'-?\d+(?:\.\d+)?|' + _SYMBOL
                      + r'|:[A-Za-z-]+|\|[^|]*\||"[^"]*"')
_COMMANDS = {"set-logic", "set-option", "set-info", "declare-const",
             "declare-fun", "declare-sort", "define-fun", "assert",
             "check-sat", "get-model", "exit", "push", "pop"}


def validate_smtlib(text: str) -> bool:
    """A structural check of SMT-LIB v2 script text: balanced forms, known
    commands at top level, and lexically valid atoms.  Forms are checked in
    order, each one's atoms left to right, and the first fault is
    raised."""
    forms = parse_sexprs(text)
    if not forms:
        raise SmtError("empty script")
    valid = _ATOM_RE.fullmatch
    for form in forms:
        if not isinstance(form, list) or not form:
            raise SmtError(f"top-level atom {form!r} is not a command")
        if isinstance(form[0], list) or form[0] not in _COMMANDS:
            raise SmtError(f"unknown command {form[0]!r}")
        stack = [form]
        while stack:
            sx = stack.pop()
            if isinstance(sx, list):
                stack.extend(reversed(sx))
            elif not valid(sx):
                raise SmtError(f"lexically invalid token {sx!r}")
    return True


# ---------------------------------------------------------------------------
# optional external solver

def solver_path(explicit=None):
    return explicit or os.environ.get("FSMKIT_SOLVER") or None


def run_solver(script: SmtScript, solver=None, timeout_ms=60000):
    """Run the configured solver on a script; returns (status, model_text).

    status is "sat", "unsat", or "unknown"; model_text is the raw response
    after the status line (empty unless sat)."""
    # imported here, not at the top: only a solver run needs them, and
    # importing subprocess would add to the start-up of every command
    import subprocess
    import tempfile

    path = solver_path(solver)
    if path is None:
        raise SmtError("no solver configured (set FSMKIT_SOLVER or --solver)")
    with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as fh:
        fh.write(script.render())
        fname = fh.name
    try:
        out = subprocess.run([path, fname], capture_output=True, text=True,
                             timeout=timeout_ms / 1000.0)
    finally:
        os.unlink(fname)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SmtError(f"solver produced no output: {out.stderr.strip()}")
    status = lines[0].strip()
    if status not in ("sat", "unsat", "unknown"):
        raise SmtError(f"unexpected solver status {status!r}")
    return status, "\n".join(lines[1:])


def solve_all(script: SmtScript, sig: Signature, bg: BackgroundTheory,
              solver=None, timeout_ms=60000, limit=10000):
    """Enumerate models by iteratively blocking previous assignments of the
    declared constants.  Only usable when every constant ranges over a
    finite set (guards pin the integers; booleans are finite)."""
    models = []
    blocked = []
    for _ in range(limit):
        s = SmtScript(script.logic, list(script.declarations),
                      list(script.assertions) + blocked,
                      dict(script.symbol_map))
        status, model_text = run_solver(s, solver, timeout_ms)
        if status == "unsat":
            return models
        if status == "unknown":
            raise SmtError("solver returned unknown")
        interp = decode_model(model_text, script, sig, bg)
        models.append(interp)
        defs = dict(_define_funs(model_text))
        eqs = []
        for name, _ in script.declarations:
            raw = defs.get(name)
            if raw is None:
                continue
            rendered = raw if isinstance(raw, str) else _render_sexpr(raw)
            eqs.append(f"(= {name} {rendered})")
        blocked.append(f"(not (and {' '.join(eqs)}))")
    raise SmtError("model enumeration limit exceeded")


def _render_sexpr(sx):
    if isinstance(sx, list):
        return "(" + " ".join(_render_sexpr(c) for c in sx) + ")"
    return sx
