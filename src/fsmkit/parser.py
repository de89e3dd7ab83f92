"""Text front end: tokenizer, recursive-descent parser, pretty-printer.

Surface syntax (``%`` starts a line comment):

    sort level = 0..20.          % integer range sort
    sort switch = {a, b}.        % enumerated sort
    sort s1 < s2.                % subsort
    object amt0 : level.
    func loc : block * time -> place.
    pred flush.                  % propositional
    pred p : level.
    var X : level.
    intensional amt1.

    amt1 = 0 :- flush.
    { amt1 = X + 1 } :- amt0 = X.
    :- p(3).

Formulas use ``not & | -> <->``, ``forall X (...)``, ``exists X (...)``,
comparisons ``= != < <= > >=`` and arithmetic ``+ - * /``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .syntax import (
    And, App, Atom, BOT, Bottom, Choice, Equal, Exists, Forall, Formula,
    FrozenRecord, FsmError, Implies, INT, Lit, Not, Obj, Or, Program, REAL,
    Record, Rule, RULE_CHOICE, RULE_CONSTRAINT, RULE_PLAIN, Signature,
    SortError, TOP, Var, _set, choice_of, iff_of, is_not,
)


class SourceSpan(FrozenRecord):
    __slots__ = ("file", "line", "col", "end_line", "end_col")

    def __init__(self, file: str, line: int, col: int, end_line: int,
                 end_col: int):
        _set(self, "file", file)
        _set(self, "line", line)
        _set(self, "col", col)
        _set(self, "end_line", end_line)
        _set(self, "end_col", end_col)

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}"


class ParseError(FsmError):
    def __init__(self, message, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.span = span


KEYWORDS = {"sort", "object", "func", "pred", "intensional", "var",
            "forall", "exists", "not", "true", "false"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<num>\d+\.\d+(?!\.)|\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op><->|->|:-|\.\.|!=|<=|>=|[{}().,:*+\-/=<>&|])
""", re.VERBOSE)


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind      # 'num' | 'name' | 'op' | 'eof'
        self.text = text
        self.line = line
        self.col = col

    def span(self, file="<input>"):
        return SourceSpan(file, self.line, self.col, self.line, self.col + len(self.text))


def tokenize(text, file="<input>"):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             SourceSpan(file, line, col, line, col + 1))
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(Token(kind, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class Parser:
    def __init__(self, text, file="<input>", signature=None, var_sorts=None):
        self.file = file
        self.toks = tokenize(text, file)
        self.i = 0
        self.sig = signature if signature is not None else Signature()
        self.var_sorts = dict(var_sorts or {})   # var name -> sort

    # -- token plumbing ----------------------------------------------------
    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def accept(self, text):
        if self.peek().text == text:
            return self.next()
        return None

    def expect(self, text):
        t = self.peek()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.span(self.file))
        return self.next()

    def expect_name(self):
        t = self.peek()
        if t.kind != "name" or t.text in KEYWORDS:
            raise ParseError(f"expected a name, found {t.text or 'end of input'!r}",
                             t.span(self.file))
        return self.next()

    def err(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.span(self.file))

    # -- programs ----------------------------------------------------------
    def parse_program(self) -> Program:
        rules, intensional = [], []
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind == "name" and t.text in ("sort", "object", "func", "pred",
                                               "intensional", "var"):
                self._declaration(intensional)
            else:
                rules.append(self._rule())
        universe = {name: decl.elements for name, decl in self.sig.sorts.items()
                    if decl.elements is not None}
        prog = Program(self.sig, rules, tuple(intensional), universe)
        prog.check()
        return prog

    def _declaration(self, intensional):
        kw = self.next().text
        if kw == "sort":
            name = self.expect_name().text
            if self.accept("<"):
                sup = self.expect_name().text
                self.sig.declare_subsort(name, sup)
            else:
                self.expect("=")
                if self.peek().kind == "num":
                    lo = self._number()
                    self.expect("..")
                    hi = self._number()
                    if not isinstance(lo, int) or not isinstance(hi, int):
                        self.err("range bounds must be integers")
                    self.sig.declare_range_sort(name, lo, hi)
                else:
                    self.expect("{")
                    elems = [self._sort_element()]
                    while self.accept(","):
                        elems.append(self._sort_element())
                    self.expect("}")
                    self.sig.declare_sort(name, elems)
        elif kw == "object":
            name = self.expect_name().text
            self.expect(":")
            sort = self._sort_name()
            self.sig.declare_object(name, sort)
        elif kw == "func":
            name = self.expect_name().text
            self.expect(":")
            argsorts = []
            if not self.accept("->"):
                argsorts.append(self._sort_name())
                while self.accept("*"):
                    argsorts.append(self._sort_name())
                self.expect("->")
            val = self._sort_name()
            self.sig.declare_func(name, argsorts, val)
        elif kw == "pred":
            name = self.expect_name().text
            argsorts = []
            if self.accept(":"):
                argsorts.append(self._sort_name())
                while self.accept("*"):
                    argsorts.append(self._sort_name())
            self.sig.declare_pred(name, argsorts)
        elif kw == "intensional":
            intensional.append(self.expect_name().text)
            while self.accept(","):
                intensional.append(self.expect_name().text)
        elif kw == "var":
            name = self.expect_name().text
            self.expect(":")
            self.var_sorts[name] = self._sort_name()
        self.expect(".")

    def _sort_element(self):
        t = self.peek()
        if t.kind == "num":
            return self._number()
        return self.expect_name().text

    def _sort_name(self):
        t = self.expect_name()
        if t.text not in self.sig.sorts:
            self.err(f"unknown sort {t.text!r}", t)
        return t.text

    def _number(self):
        t = self.next()
        if t.kind != "num":
            self.err("expected a number", t)
        if "." in t.text:
            return Fraction(t.text)
        return int(t.text)

    # -- rules -------------------------------------------------------------
    def _rule(self) -> Rule:
        if self.accept(":-"):
            body = self.parse_formula()
            self.expect(".")
            return Rule(BOT, body, RULE_CONSTRAINT)
        head = self.parse_formula()
        kind = RULE_PLAIN
        inner = choice_of(head)
        if inner is not None:
            head, kind = inner, RULE_CHOICE
        if head == BOT:
            kind = RULE_CONSTRAINT
        body = TOP
        if self.accept(":-"):
            body = self.parse_formula()
        self.expect(".")
        return Rule(head, body, kind)

    # -- formulas ----------------------------------------------------------
    def parse_formula(self) -> Formula:
        f = self._implication()
        while self.accept("<->"):
            g = self._implication()
            f = And(Implies(f, g), Implies(g, f))
        return f

    def _implication(self):
        f = self._disjunction()
        if self.accept("->"):
            return Implies(f, self._implication())
        return f

    def _disjunction(self):
        f = self._conjunction()
        while self.accept("|"):
            f = Or(f, self._conjunction())
        return f

    def _conjunction(self):
        f = self._unary()
        while self.accept("&"):
            f = And(f, self._unary())
        return f

    def _unary(self):
        t = self.peek()
        if t.kind == "name" and t.text == "not":
            self.next()
            return Not(self._unary())
        if t.kind == "name" and t.text in ("forall", "exists"):
            self.next()
            names = [self.expect_name()]
            # multiple bound variables: forall X Y (...)
            while self.peek().kind == "name" and self.peek().text not in KEYWORDS:
                names.append(self.expect_name())
            variables = [self._variable(n) for n in names]
            self.expect("(")
            body = self.parse_formula()
            self.expect(")")
            ctor = Forall if t.text == "forall" else Exists
            for v in reversed(variables):
                body = ctor(v, body)
            return body
        return self._primary()

    def _variable(self, tok: Token) -> Var:
        if tok.text not in self.var_sorts:
            raise ParseError(f"variable {tok.text!r} has no declared sort",
                             tok.span(self.file))
        return Var(tok.text, self.var_sorts[tok.text])

    def _primary(self):
        t = self.peek()
        term_follows = ("=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/")
        if t.kind == "name" and t.text == "false" and self.peek(1).text not in term_follows:
            self.next()
            return BOT
        if t.kind == "name" and t.text == "true" and self.peek(1).text not in term_follows:
            self.next()
            return TOP
        if t.text == "{":
            self.next()
            inner = self.parse_formula()
            self.expect("}")
            return Choice(inner)
        if t.text == "(":
            # backtracking: a parenthesis may open a formula or an arithmetic term
            saved = self.i
            try:
                return self._comparison()
            except ParseError:
                self.i = saved
            self.next()
            f = self.parse_formula()
            self.expect(")")
            return f
        return self._comparison()

    def _comparison(self):
        t0 = self.peek()
        left = self._term()
        op_tok = self.peek()
        if op_tok.text in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            right = self._term()
            self._check_comparable(left, right, op_tok)
            if op_tok.text == "=":
                return Equal(left, right)
            if op_tok.text == "!=":
                return Not(Equal(left, right))
            return Atom(op_tok.text, (left, right))
        # bare predicate atom
        if isinstance(left, App) and left.fn in self.sig.predicates:
            self._check_atom_sorts(left.fn, left.args, t0)
            return Atom(left.fn, left.args)
        self.err("expected a comparison operator or predicate atom", t0)

    def _check_comparable(self, left, right, tok):
        s1 = self._term_sort(left, tok)
        s2 = self._term_sort(right, tok)
        if tok.text in ("<", "<=", ">", ">="):
            for s in (s1, s2):
                if s is not None and not self.sig.is_subsort(s, REAL):
                    raise ParseError(f"non-numeric operand of {tok.text!r} (sort {s!r})",
                                     tok.span(self.file))
            return
        if s1 is not None and s2 is not None and \
                self.sig.common_supersort(s1, s2) is None:
            raise ParseError(f"sorts {s1!r} and {s2!r} share no common supersort",
                             tok.span(self.file))

    def _check_atom_sorts(self, pred, args, tok):
        declared = self.sig.predicates[pred]
        if len(args) != len(declared):
            raise ParseError(f"predicate {pred!r} expects {len(declared)} arguments",
                             tok.span(self.file))
        for a, d in zip(args, declared):
            s = self._term_sort(a, tok)
            if s is not None and not self.sig.is_subsort(s, d) \
                    and self.sig.common_supersort(s, d) is None:
                raise ParseError(f"argument sort {s!r} incompatible with {d!r}",
                                 tok.span(self.file))

    def _term_sort(self, t, tok):
        try:
            return self.sig.sort_of_term(t, strict=False)
        except FsmError:
            return None

    # -- terms -------------------------------------------------------------
    def _term(self):
        return self._additive()

    def _additive(self):
        t = self._multiplicative()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            t = App(op, (t, self._multiplicative()))
        return t

    def _multiplicative(self):
        t = self._term_atom()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            t = App(op, (t, self._term_atom()))
        return t

    def _term_atom(self):
        t = self.peek()
        if t.text == "-":
            self.next()
            return App("-", (Lit(0), self._term_atom()))
        if t.kind == "num":
            return Lit(self._number())
        if t.text == "(":
            self.next()
            inner = self._additive()
            self.expect(")")
            return inner
        if t.kind == "name":
            if t.text == "true":
                self.next()
                return Lit(True)
            if t.text == "false":
                self.next()
                return Lit(False)
            if t.text in KEYWORDS:
                self.err(f"unexpected keyword {t.text!r}", t)
            name = self.next().text
            args = ()
            if self.accept("("):
                lst = [self._term()]
                while self.accept(","):
                    lst.append(self._term())
                self.expect(")")
                args = tuple(lst)
            if name in self.var_sorts:
                if args:
                    self.err(f"variable {name!r} applied to arguments", t)
                return Var(name, self.var_sorts[name])
            if name in self.sig.functions:
                declared = self.sig.functions[name][0]
                if len(args) != len(declared):
                    self.err(f"function {name!r} expects {len(declared)} arguments", t)
                return App(name, args)
            if name in self.sig.predicates:
                declared = self.sig.predicates[name]
                if len(args) != len(declared):
                    self.err(f"predicate {name!r} expects {len(declared)} arguments", t)
                return App(name, args)   # converted to Atom by _comparison
            if not args and any(
                    decl.elements is not None and name in decl.elements
                    for decl in self.sig.sorts.values()):
                return Obj(name)
            self.err(f"undeclared symbol {name!r}", t)
        self.err(f"expected a term, found {t.text or 'end of input'!r}", t)


def parse_program(text, file="<input>") -> Program:
    return Parser(text, file).parse_program()


def parse_formula(text, signature: Signature, var_sorts=None, file="<input>") -> Formula:
    p = Parser(text, file, signature, var_sorts)
    f = p.parse_formula()
    if p.peek().kind != "eof":
        p.err("trailing input after formula")
    return f


# ---------------------------------------------------------------------------
# pretty printer

_PREC = {"iff": 1, "implies": 2, "or": 3, "and": 4, "unary": 5, "atom": 6}


def _pt(t, prec):
    if isinstance(t, Lit):
        if isinstance(t.value, bool):
            return "true" if t.value else "false"
        if isinstance(t.value, Fraction) and t.value.denominator != 1:
            s = f"{t.value.numerator}/{t.value.denominator}"
            return f"({s})" if prec >= 2 else s
        return str(t.value)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Obj):
        return str(t.elem)
    if isinstance(t, App):
        if t.fn in ("+", "-") and len(t.args) == 2:
            s = f"{_pt(t.args[0], 1)} {t.fn} {_pt(t.args[1], 2)}"
            return f"({s})" if prec >= 2 else s
        if t.fn in ("*", "/") and len(t.args) == 2:
            s = f"{_pt(t.args[0], 2)} {t.fn} {_pt(t.args[1], 3)}"
            return f"({s})" if prec >= 3 else s
        if not t.args:
            return t.fn
        return f"{t.fn}({', '.join(_pt(a, 0) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


def print_formula(f) -> str:
    return _pf(f, 0)


def _pf(f, prec):
    if f == TOP:
        return "true"
    if isinstance(f, Bottom):
        return "false"
    neg = is_not(f)
    if neg is not None:
        inner = is_not(neg)
        if isinstance(neg, Equal) and inner is None:
            s = f"{_pt(neg.left, 1)} != {_pt(neg.right, 1)}"
            return f"({s})" if prec > _PREC["atom"] else s
        s = f"not {_pf(neg, _PREC['unary'])}"
        return f"({s})" if prec > _PREC["unary"] else s
    ch = choice_of(f)
    if ch is not None:
        return "{ " + _pf(ch, 0) + " }"
    iff = iff_of(f)
    if iff is not None:
        s = f"{_pf(iff[0], _PREC['iff'] + 1)} <-> {_pf(iff[1], _PREC['iff'] + 1)}"
        return f"({s})" if prec > _PREC["iff"] else s
    if isinstance(f, Atom):
        if f.pred in ("<", "<=", ">", ">=") and len(f.args) == 2:
            s = f"{_pt(f.args[0], 1)} {f.pred} {_pt(f.args[1], 1)}"
            return f"({s})" if prec > _PREC["atom"] else s
        if not f.args:
            return f.pred
        return f"{f.pred}({', '.join(_pt(a, 0) for a in f.args)})"
    if isinstance(f, Equal):
        s = f"{_pt(f.left, 1)} = {_pt(f.right, 1)}"
        return f"({s})" if prec > _PREC["atom"] else s
    if isinstance(f, And):
        # a program nests one conjunction per rule down the left spine:
        # walk it in a loop, up to a conjunct that prints as an iff
        parts = [f.right]
        f = f.left
        while isinstance(f, And) and iff_of(f) is None:
            parts.append(f.right)
            f = f.left
        parts.append(f)
        s = " & ".join(_pf(g, _PREC["and"]) for g in reversed(parts))
        return f"({s})" if prec > _PREC["and"] else s
    if isinstance(f, Or):
        s = f"{_pf(f.left, _PREC['or'])} | {_pf(f.right, _PREC['or'])}"
        return f"({s})" if prec > _PREC["or"] else s
    if isinstance(f, Implies):
        s = f"{_pf(f.left, _PREC['implies'] + 1)} -> {_pf(f.right, _PREC['implies'])}"
        return f"({s})" if prec > _PREC["implies"] else s
    if isinstance(f, (Forall, Exists)):
        q = "forall" if isinstance(f, Forall) else "exists"
        return f"{q} {f.var.name} ({_pf(f.body, 0)})"
    raise TypeError(f"not a formula: {f!r}")


def print_rule(r: Rule) -> str:
    if r.kind == RULE_CONSTRAINT:
        return f":- {print_formula(r.body)}."
    head = print_formula(r.head)
    if r.kind == RULE_CHOICE:
        head = "{ " + head + " }"
    if r.body == TOP:
        return f"{head}."
    return f"{head} :- {print_formula(r.body)}."


def print_program(p: Program) -> str:
    lines = []
    sig = p.signature
    from .syntax import BUILTIN_SORTS
    for name, decl in sig.sorts.items():
        if name in BUILTIN_SORTS:
            continue
        elems = decl.elements
        if elems is not None and elems and all(isinstance(e, int) and not isinstance(e, bool) for e in elems) \
                and elems == tuple(range(elems[0], elems[-1] + 1)):
            lines.append(f"sort {name} = {elems[0]}..{elems[-1]}.")
        elif elems is not None:
            lines.append(f"sort {name} = {{{', '.join(map(str, elems))}}}.")
    for sub, sup in sorted(sig.subsorts):
        if sub in BUILTIN_SORTS or sup in BUILTIN_SORTS:
            continue
        lines.append(f"sort {sub} < {sup}.")
    for name, (args, val) in sig.functions.items():
        if sig.background.get(name) != "user":
            continue
        if not args:
            lines.append(f"object {name} : {val}.")
        else:
            lines.append(f"func {name} : {' * '.join(args)} -> {val}.")
    for name, args in sig.predicates.items():
        if sig.background.get(name) != "user":
            continue
        if args:
            lines.append(f"pred {name} : {' * '.join(args)}.")
        else:
            lines.append(f"pred {name}.")
    var_sorts = {}
    for r in p.rules:
        for v in _rule_vars(r):
            var_sorts.setdefault(v.name, v.sort)
    for n, s in sorted(var_sorts.items()):
        lines.append(f"var {n} : {s}.")
    if p.intensional:
        lines.append(f"intensional {', '.join(p.intensional)}.")
    for r in p.rules:
        lines.append(print_rule(r))
    return "\n".join(lines) + "\n"


def _rule_vars(r: Rule):
    from .syntax import free_vars
    return sorted(free_vars(r.head) | free_vars(r.body), key=lambda v: v.name)
