"""Text front end: tokenizer, parser, pretty-printer.

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

The tokenizer makes one regular-expression pass and keeps the tokens in
flat lists of kinds, texts and offsets; a line and column are worked out
only for an error.  The parser descends recursively through parentheses,
braces, quantifier bodies and argument lists, at most MAX_NESTING levels
deep; deeper input is a ParseError.  Connectives and arithmetic operators
are parsed by precedence climbing over an explicit stack, and chains of
``not`` and unary minus in a loop, so a long chain costs no recursion.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction

from .syntax import (
    And, App, Atom, BOT, BUILTIN_SORTS, Bottom, Choice, Equal, Exists,
    Forall, Formula, FrozenRecord, FsmError, Iff, Implies, Lit, Not, Obj, Or,
    Program, REAL, Rule, RULE_CHOICE, RULE_CONSTRAINT, RULE_PLAIN, Signature,
    TOP, Var, _set, all_ints, choice_of, iff_of,
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

#: parentheses, braces, quantifier bodies and argument lists nest at most
#: this deep; each level costs the parser two stack frames
MAX_NESTING = 300

# one match per token: the whitespace and comments before it, then the
# token, the end of the text or a bad character.  The prefix takes every
# newline and comment, so the next character is the start of a token, a
# bad character or the end, and the alternation never makes it back off.
_TOKEN_RE = re.compile(r"""
    \s*(?:%[^\n]*\s*)*
    (?: (?P<num>\d+\.\d+(?!\.)|\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<op><->|->|:-|\.\.|!=|<=|>=|[{}().,:*+\-/=<>&|])
      | (?P<eof>\Z)
      | (?P<bad>.) )
""", re.VERBOSE)

_DECLARATIONS = ("sort", "object", "func", "pred", "intensional", "var")
_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")
_TERM_FOLLOWS = _COMPARISONS + ("+", "-", "*", "/")
#: binding strength and constructor of each binary connective; -> is the
#: one that groups to the right
_CONNECTIVES = {"<->": (1, Iff), "->": (2, Implies), "|": (3, Or),
                "&": (4, And)}
_ARITHMETIC = {"+": 1, "-": 1, "*": 2, "/": 2}
_ZERO = Lit(0)


def tokenize(text):
    """The tokens of text as three lists: kinds, texts and offsets into
    text.  A kind is 'num', 'name' or 'op'; the last token is 'eof', or
    'bad' at a character that starts no token."""
    kinds, texts, offsets = [], [], []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m.group(kind)
        kinds.append(kind)
        texts.append(tok)
        offsets.append(m.end() - len(tok))
        if kind == "eof" or kind == "bad":
            break
    return kinds, texts, offsets


class Parser:
    def __init__(self, text, file="<input>", signature=None, var_sorts=None):
        self.text = text
        self.file = file
        self._newlines = None        # offsets of the newlines, on demand
        self.kinds, self.texts, self.offsets = tokenize(text)
        if self.kinds[-1] == "bad":
            self.err(f"unexpected character {self.texts[-1]!r}",
                     len(self.texts) - 1)
        self.i = 0
        self.depth = 0
        self._closing = None         # '(' index -> its ')' index, on demand
        self.sig = signature if signature is not None else Signature()
        self.var_sorts = dict(var_sorts or {})   # var name -> sort

    # -- positions ---------------------------------------------------------
    def span(self, index):
        """The span of token index, its line found by bisecting the offsets
        of the newlines."""
        if self._newlines is None:
            self._newlines = [m.start() for m in re.finditer("\n", self.text)]
        offset = self.offsets[index]
        line = bisect_left(self._newlines, offset)
        col = offset - (self._newlines[line - 1] if line else -1)
        return SourceSpan(self.file, line + 1, col, line + 1,
                          col + len(self.texts[index]))

    def closing(self, index):
        """The index of the ')' that matches the '(' at token index, or
        None; every pair is found in one pass over the tokens."""
        if self._closing is None:
            self._closing, opened = {}, []
            for k, t in enumerate(self.texts):
                if t == "(":
                    opened.append(k)
                elif t == ")" and opened:
                    self._closing[opened.pop()] = k
        return self._closing.get(index)

    def err(self, msg, index=None):
        raise ParseError(msg, self.span(self.i if index is None else index))

    # -- token plumbing ----------------------------------------------------
    def next(self):
        i = self.i
        if self.kinds[i] != "eof":
            self.i = i + 1
        return self.texts[i]

    def accept(self, text):
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    def expect(self, text):
        found = self.texts[self.i]
        if found != text:
            self.err(f"expected {text!r}, found {found or 'end of input'!r}")
        self.i += 1

    def expect_name(self):
        i = self.i
        found = self.texts[i]
        if self.kinds[i] != "name" or found in KEYWORDS:
            self.err(f"expected a name, found {found or 'end of input'!r}")
        self.i = i + 1
        return found

    def _enter(self):
        """Count one more level of nesting at the current token."""
        if self.depth >= MAX_NESTING:
            self.err(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1

    # -- programs ----------------------------------------------------------
    def parse_program(self) -> Program:
        rules, intensional = [], []
        kinds, texts = self.kinds, self.texts
        while kinds[self.i] != "eof":
            if texts[self.i] in _DECLARATIONS:
                self._declaration(intensional)
            else:
                rules.append(self._rule())
        universe = {name: ext for name in self.sig.sorts
                    if (ext := self.sig.extent(name, {})) is not None}
        prog = Program(self.sig, rules, tuple(intensional), universe)
        prog.check()
        return prog

    def _declaration(self, intensional):
        kw = self.next()
        if kw == "sort":
            name = self.expect_name()
            if self.accept("<"):
                sup = self.expect_name()
                self.sig.declare_subsort(name, sup)
            else:
                self.expect("=")
                if self.kinds[self.i] == "num":
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
            name = self.expect_name()
            self.expect(":")
            sort = self._sort_name()
            self.sig.declare_object(name, sort)
        elif kw == "func":
            name = self.expect_name()
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
            name = self.expect_name()
            argsorts = []
            if self.accept(":"):
                argsorts.append(self._sort_name())
                while self.accept("*"):
                    argsorts.append(self._sort_name())
            self.sig.declare_pred(name, argsorts)
        elif kw == "intensional":
            intensional.append(self.expect_name())
            while self.accept(","):
                intensional.append(self.expect_name())
        elif kw == "var":
            name = self.expect_name()
            self.expect(":")
            self.var_sorts[name] = self._sort_name()
        self.expect(".")

    def _sort_element(self):
        if self.kinds[self.i] == "num":
            return self._number()
        return self.expect_name()

    def _sort_name(self):
        i = self.i
        name = self.expect_name()
        if name not in self.sig.sorts:
            self.err(f"unknown sort {name!r}", i)
        return name

    def _number(self):
        i = self.i
        text = self.next()
        if self.kinds[i] != "num":
            self.err("expected a number", i)
        if "." in text:
            return Fraction(text)
        return int(text)

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
        """Unary formulas joined by connectives, by precedence climbing:
        an operator waits on the stack until one that binds no tighter
        follows it (or, for ->, one that binds more loosely)."""
        f = self._unary()
        texts = self.texts
        entry = _CONNECTIVES.get(texts[self.i])
        if entry is None:
            return f
        operands, ops = [f], []
        while entry is not None:
            prec = entry[0]
            right_grouping = texts[self.i] == "->"
            self.i += 1
            while ops and (ops[-1][0] > prec
                           or ops[-1][0] == prec and not right_grouping):
                right = operands.pop()
                operands[-1] = ops.pop()[1](operands[-1], right)
            ops.append(entry)
            operands.append(self._unary())
            entry = _CONNECTIVES.get(texts[self.i])
        while ops:
            right = operands.pop()
            operands[-1] = ops.pop()[1](operands[-1], right)
        return operands[0]

    def _unary(self):
        """A unary formula: negations, then a quantifier, true, false, a
        choice, a parenthesis or a comparison.  Each level of nesting costs
        two frames, this and parse_formula."""
        texts = self.texts
        negations = 0
        while texts[self.i] == "not":
            negations += 1
            self.i += 1
        i = self.i
        t = texts[i]
        if t == "forall" or t == "exists":
            self.i = i + 1
            names = [self.expect_name()]
            # multiple bound variables: forall X Y (...)
            while self.kinds[self.i] == "name" and texts[self.i] not in KEYWORDS:
                names.append(self.expect_name())
            variables = []
            for k, name in enumerate(names):
                if name not in self.var_sorts:
                    self.err(f"variable {name!r} has no declared sort", i + 1 + k)
                variables.append(Var(name, self.var_sorts[name]))
            self._enter()
            self.expect("(")
            f = self.parse_formula()
            self.expect(")")
            self.depth -= 1
            ctor = Forall if t == "forall" else Exists
            for v in reversed(variables):
                f = ctor(v, f)
        elif t == "false" and texts[i + 1] not in _TERM_FOLLOWS:
            self.i = i + 1
            f = BOT
        elif t == "true" and texts[i + 1] not in _TERM_FOLLOWS:
            self.i = i + 1
            f = TOP
        elif t == "{":
            self._enter()
            self.i = i + 1
            f = Choice(self.parse_formula())
            self.expect("}")
            self.depth -= 1
        elif t == "(":
            # a parenthesis may open a formula or an arithmetic term.  The
            # term is tried first, backtracking to the formula on a
            # ParseError, only when an operator or a comparison follows
            # the matching ')' (or none matches).  Any other term group is
            # a predicate atom, which the formula reads alike, so such a
            # group is read once.
            j = self.closing(i)
            f = None
            if j is None or texts[j + 1] in _TERM_FOLLOWS:
                depth = self.depth
                try:
                    f = self._comparison()
                except ParseError:
                    self.i, self.depth = i, depth
            if f is None:
                self._enter()
                self.i = i + 1
                f = self.parse_formula()
                self.expect(")")
                self.depth -= 1
        else:
            f = self._comparison()
        for _ in range(negations):
            f = Not(f)
        return f

    def _comparison(self):
        t0 = self.i
        left = self._term()
        op_i = self.i
        op = self.texts[op_i]
        if op in _COMPARISONS:
            self.i += 1
            right = self._term()
            self._check_comparable(left, right, op_i)
            if op == "=":
                return Equal(left, right)
            if op == "!=":
                return Not(Equal(left, right))
            return Atom(op, (left, right))
        # bare predicate atom
        if isinstance(left, App) and left.fn in self.sig.predicates:
            self._check_atom_sorts(left.fn, left.args, t0)
            return Atom(left.fn, left.args)
        self.err("expected a comparison operator or predicate atom", t0)

    def _check_comparable(self, left, right, index):
        s1 = self._term_sort(left)
        s2 = self._term_sort(right)
        op = self.texts[index]
        if op in ("<", "<=", ">", ">="):
            for s in (s1, s2):
                if s is not None and not self.sig.is_subsort(s, REAL):
                    self.err(f"non-numeric operand of {op!r} (sort {s!r})", index)
            return
        if s1 is not None and s2 is not None and \
                self.sig.common_supersort(s1, s2) is None:
            self.err(f"sorts {s1!r} and {s2!r} share no common supersort", index)

    def _check_atom_sorts(self, pred, args, index):
        declared = self.sig.predicates[pred]
        if len(args) != len(declared):
            self.err(f"predicate {pred!r} expects {len(declared)} arguments", index)
        for a, d in zip(args, declared):
            s = self._term_sort(a)
            if s is not None and not self.sig.is_subsort(s, d) \
                    and self.sig.common_supersort(s, d) is None:
                self.err(f"argument sort {s!r} incompatible with {d!r}", index)

    def _term_sort(self, t):
        try:
            return self.sig.sort_of_term(t, strict=False)
        except FsmError:
            return None

    # -- terms -------------------------------------------------------------
    def _term(self):
        """Term atoms joined by + - * /, all grouping to the left, by
        precedence climbing as in parse_formula."""
        t = self._term_atom()
        texts = self.texts
        prec = _ARITHMETIC.get(texts[self.i])
        if prec is None:
            return t
        operands, ops = [t], []
        while prec is not None:
            op = texts[self.i]
            self.i += 1
            while ops and ops[-1][0] >= prec:
                right = operands.pop()
                operands[-1] = App(ops.pop()[1], (operands[-1], right))
            ops.append((prec, op))
            operands.append(self._term_atom())
            prec = _ARITHMETIC.get(texts[self.i])
        while ops:
            right = operands.pop()
            operands[-1] = App(ops.pop()[1], (operands[-1], right))
        return operands[0]

    def _term_atom(self):
        """A number, a parenthesized term, true, false, a variable, an
        application or an object name, after any number of unary minus
        signs.  Each level of nesting costs two frames, this and _term."""
        texts = self.texts
        minus = 0
        while texts[self.i] == "-":
            minus += 1
            self.i += 1
        i = self.i
        t = texts[i]
        kind = self.kinds[i]
        if kind == "num":
            term = Lit(self._number())
        elif t == "(":
            self._enter()
            self.i = i + 1
            term = self._term()
            self.expect(")")
            self.depth -= 1
        elif kind == "name":
            self.i = i + 1
            if t == "true":
                term = Lit(True)
            elif t == "false":
                term = Lit(False)
            elif t in KEYWORDS:
                self.err(f"unexpected keyword {t!r}", i)
            else:
                args = ()
                if texts[i + 1] == "(":
                    self._enter()
                    self.i = i + 2
                    lst = [self._term()]
                    while self.accept(","):
                        lst.append(self._term())
                    self.expect(")")
                    self.depth -= 1
                    args = tuple(lst)
                term = self._named(t, args, i)
        else:
            self.err(f"expected a term, found {t or 'end of input'!r}", i)
        for _ in range(minus):
            term = App("-", (_ZERO, term))
        return term

    def _named(self, t, args, i):
        """The term t(args) for the name at token i: a variable, an
        application or an object name."""
        sort = self.var_sorts.get(t)
        if sort is not None:
            if args:
                self.err(f"variable {t!r} applied to arguments", i)
            return Var(t, sort)
        sig = self.sig
        if t in sig.functions:
            declared = sig.functions[t][0]
            if len(args) != len(declared):
                self.err(f"function {t!r} expects {len(declared)} arguments", i)
            return App(t, args)
        if t in sig.predicates:
            declared = sig.predicates[t]
            if len(args) != len(declared):
                self.err(f"predicate {t!r} expects {len(declared)} arguments", i)
            return App(t, args)   # converted to Atom by _comparison
        if not args and any(
                decl.elements is not None and t in decl.elements
                for decl in sig.sorts.values()):
            return Obj(t)
        self.err(f"undeclared symbol {t!r}", i)


def parse_program(text, file="<input>") -> Program:
    return Parser(text, file).parse_program()


def parse_formula(text, signature: Signature, var_sorts=None, file="<input>") -> Formula:
    p = Parser(text, file, signature, var_sorts)
    f = p.parse_formula()
    if p.kinds[p.i] != "eof":
        p.err("trailing input after formula")
    return f


# ---------------------------------------------------------------------------
# pretty printer

# binding strengths of the printed operators
_IFF, _IMPLIES, _OR, _AND, _UNARY, _ATOM = 1, 2, 3, 4, 5, 6


def print_formula(f) -> str:
    return _render(f, 0)


def _render(x, prec):
    """x, a formula or a term, printed where an operator of binding
    strength prec encloses it.  _pieces splits a node into text and
    (child, prec) pairs, last first; they are expanded with an explicit
    stack, so a long chain of not, ->, & or arithmetic is not limited by
    the recursion limit."""
    out = []
    stack = [(x, prec)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
        else:
            stack += _pieces(*item)
    return "".join(out)


def _wrap(paren, *pieces):
    """The pieces, last first, in parentheses if paren."""
    return (")", *pieces, "(") if paren else pieces


def _pieces(x, prec):
    """The text and (child, prec) pairs that print x, last first."""
    cls = x.__class__
    if cls is Var:
        return (x.name,)
    if cls is App:
        fn, args = x.fn, x.args
        if len(args) == 2:
            if fn == "+" or fn == "-":
                return _wrap(prec >= 2, (args[1], 2), f" {fn} ", (args[0], 1))
            if fn == "*" or fn == "/":
                return _wrap(prec >= 3, (args[1], 3), f" {fn} ", (args[0], 2))
        if not args:
            return (fn,)
        return (")", *_arguments(args), f"{fn}(")
    if cls is Equal:
        return _wrap(prec > _ATOM, (x.right, 1), " = ", (x.left, 1))
    if cls is Implies:
        if x.right.__class__ is Bottom:
            neg = x.left
            if neg.__class__ is Bottom:
                return ("true",)
            if neg.__class__ is Equal:
                return _wrap(prec > _ATOM, (neg.right, 1), " != ", (neg.left, 1))
            return _wrap(prec > _UNARY, (neg, _UNARY), "not ")
        return _wrap(prec > _IMPLIES, (x.right, _IMPLIES), " -> ",
                     (x.left, _IMPLIES + 1))
    if cls is And:
        iff = iff_of(x)
        if iff is not None:
            return _wrap(prec > _IFF, (iff[1], _IFF + 1), " <-> ",
                         (iff[0], _IFF + 1))
        # a program nests one conjunction per rule down the left spine:
        # walk it in a loop, up to a conjunct that prints as an iff
        pieces = [(x.right, _AND)]
        x = x.left
        while x.__class__ is And and iff_of(x) is None:
            pieces += (" & ", (x.right, _AND))
            x = x.left
        pieces += (" & ", (x, _AND))
        return _wrap(prec > _AND, *pieces)
    if cls is Atom:
        args = x.args
        if x.pred in ("<", "<=", ">", ">=") and len(args) == 2:
            return _wrap(prec > _ATOM, (args[1], 1), f" {x.pred} ", (args[0], 1))
        if not args:
            return (x.pred,)
        return (")", *_arguments(args), f"{x.pred}(")
    if cls is Lit:
        v = x.value
        if isinstance(v, bool):
            return ("true" if v else "false",)
        if isinstance(v, Fraction) and v.denominator != 1:
            s = f"{v.numerator}/{v.denominator}"
            return (f"({s})" if prec >= 2 else s,)
        return (str(v),)
    if cls is Obj:
        return (str(x.elem),)
    if cls is Or:
        ch = choice_of(x)
        if ch is not None:
            return (" }", (ch, 0), "{ ")
        return _wrap(prec > _OR, (x.right, _OR), " | ", (x.left, _OR))
    if cls is Bottom:
        return ("false",)
    if cls is Forall or cls is Exists:
        q = "forall" if cls is Forall else "exists"
        return (")", (x.body, 0), f"{q} {x.var.name} (")
    raise TypeError(f"not a formula or term: {x!r}")


def _arguments(args):
    """The pieces of a comma-separated argument list, last first."""
    pieces = [(args[-1], 0)]
    for a in args[-2::-1]:
        pieces += (", ", (a, 0))
    return pieces


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
    for name, decl in sig.sorts.items():
        if name in BUILTIN_SORTS:
            continue
        elems = decl.elements
        if elems and all_ints(elems) \
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
