"""Many-sorted signatures, term/formula/rule ASTs, and syntactic analyses.

All AST values are immutable, hashable records (FrozenRecord), so they can
be shared freely, deduplicated structurally, and used as dict keys.

Negation is represented internally as ``Implies(F, Bottom)``; the printer
re-sugars it.  Choice ``{F}`` is ``Or(F, Not(F))``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, Union

# ---------------------------------------------------------------------------
# errors

class FsmError(Exception):
    """Base class for all fsmkit errors."""


class DeclarationError(FsmError):
    pass


class ContractViolation(FsmError):
    pass


class FragmentError(FsmError):
    """Input is outside the syntactic fragment an operation supports."""


# ---------------------------------------------------------------------------
# records

def _methods(names):
    """__eq__ and __hash__ over the fields in names: equal when of the same
    class with equal fields, hashed as the tuple of the fields."""
    if len(names) == 1:
        get = attrgetter(names[0])
        key = lambda x: (get(x),)

        def __hash__(self):
            return hash((get(self),))
    elif names:
        key = attrgetter(*names)

        def __hash__(self):
            return hash(key(self))
    else:
        key = lambda x: ()
        empty = hash(())

        def __hash__(self):
            return empty

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)
    return __eq__, __hash__


class Record:
    """Base of fsmkit's record classes.

    A subclass lists its own fields in __slots__ and sets them in its own
    __init__, which takes them in the same order.  Two records are equal
    when they are of the same class and their compared fields are equal:
    every field except those named in _uncompared.  The repr is
    Name(field=value, ...) over every field.  A Record can be changed and
    has no hash; a FrozenRecord cannot be changed and has one.
    """
    __slots__ = ()
    _fields = ()            # every field, a base class's first
    _uncompared = ()
    _hashable = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        # a class that defines __eq__ or __hash__ itself keeps its own
        eq, hash_ = _methods([f for f in cls._fields
                              if f not in cls._uncompared])
        if "__eq__" not in cls.__dict__:
            cls.__eq__ = eq
        if cls._hashable and "__hash__" not in cls.__dict__:
            cls.__hash__ = hash_

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)


#: sets a field of a FrozenRecord in its __init__
_set = object.__setattr__


class FrozenRecord(Record):
    """A Record whose fields cannot be assigned once __init__ has set them
    (through _set).  The hash is that of the tuple of compared fields."""
    __slots__ = ()
    _hashable = True

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# builtin vocabulary

INT = "int"
REAL = "real"
BOOL = "bool"
BUILTIN_SORTS = (INT, REAL, BOOL)

ARITH_FUNCS = ("+", "-", "*", "/")
COMPARE_PREDS = ("<", "<=", ">", ">=")

#: background tags for symbols
TAG_USER = "user"
TAG_INT = "builtin-int"
TAG_REAL = "builtin-real"
TAG_BOOL = "builtin-bool"


# ---------------------------------------------------------------------------
# terms

class Var(FrozenRecord):
    __slots__ = ("name", "sort")

    def __init__(self, name: str, sort: str):
        _set(self, "name", name)
        _set(self, "sort", sort)

    def __repr__(self):
        return f"{self.name}:{self.sort}"


class App(FrozenRecord):
    """Application of a (possibly 0-ary) function constant."""
    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: tuple = ()):
        _set(self, "fn", fn)
        _set(self, "args", args)

    def __repr__(self):
        if not self.args:
            return self.fn
        return f"{self.fn}({', '.join(map(repr, self.args))})"


class Lit(FrozenRecord):
    """A builtin literal: int, exact rational, or boolean.

    Equal as Obj is: == and the same bool-ness, so Lit(True) != Lit(1);
    the hash is hash((value,)).
    """
    __slots__ = ("value",)

    def __init__(self, value: Union[int, Fraction, bool]):
        _set(self, "value", value)

    def __eq__(self, other):
        if not isinstance(other, Lit):
            return NotImplemented
        return (isinstance(self.value, bool) == isinstance(other.value, bool)
                and self.value == other.value)

    def __hash__(self):
        return hash((self.value,))

    def __repr__(self):
        return repr(self.value)


class Obj(FrozenRecord):
    """Object name: a handle that denotes a universe element directly.

    Only produced by grounding; every interpretation maps Obj(e) to e.
    Two names are equal when an equation between their elements holds:
    == and the same bool-ness, so Obj(True) != Obj(1).  The hash is
    hash((elem,)), which keeps set orders as they were.
    """
    __slots__ = ("elem",)

    def __init__(self, elem):
        _set(self, "elem", elem)

    def __eq__(self, other):
        if not isinstance(other, Obj):
            return NotImplemented
        return (isinstance(self.elem, bool) == isinstance(other.elem, bool)
                and self.elem == other.elem)

    def __hash__(self):
        return hash((self.elem,))

    def __repr__(self):
        return f"<{self.elem!r}>"


Term = Union[Var, App, Lit, Obj]


# ---------------------------------------------------------------------------
# formulas

class Bottom(FrozenRecord):
    __slots__ = ()

    def __repr__(self):
        return "false"


class Atom(FrozenRecord):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple = ()):
        _set(self, "pred", pred)
        _set(self, "args", args)

    def __repr__(self):
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(map(repr, self.args))})"


class Equal(FrozenRecord):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        _set(self, "left", left)
        _set(self, "right", right)

    def __repr__(self):
        return f"({self.left!r} = {self.right!r})"


class And(FrozenRecord):
    __slots__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        _set(self, "left", left)
        _set(self, "right", right)

    def __repr__(self):
        return f"({self.left!r} & {self.right!r})"


class Or(FrozenRecord):
    __slots__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        _set(self, "left", left)
        _set(self, "right", right)

    def __repr__(self):
        return f"({self.left!r} | {self.right!r})"


class Implies(FrozenRecord):
    __slots__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        _set(self, "left", left)
        _set(self, "right", right)

    def __repr__(self):
        return f"({self.left!r} -> {self.right!r})"


class Forall(FrozenRecord):
    __slots__ = ("var", "body")

    def __init__(self, var: Var, body: "Formula"):
        _set(self, "var", var)
        _set(self, "body", body)

    def __repr__(self):
        return f"forall {self.var!r} ({self.body!r})"


class Exists(FrozenRecord):
    __slots__ = ("var", "body")

    def __init__(self, var: Var, body: "Formula"):
        _set(self, "var", var)
        _set(self, "body", body)

    def __repr__(self):
        return f"exists {self.var!r} ({self.body!r})"


Formula = Union[Bottom, Atom, Equal, And, Or, Implies, Forall, Exists]

BOT = Bottom()


def Not(f: Formula) -> Formula:
    return Implies(f, BOT)


TOP = Not(BOT)


def Iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


def Choice(f: Formula) -> Formula:
    """The choice formula {F} = F | not F."""
    return Or(f, Not(f))


def is_not(f: Formula):
    """If f is a negation Implies(G, Bottom), return G, else None."""
    if isinstance(f, Implies) and f.right == BOT:
        return f.left
    return None


def choice_of(f: Formula):
    """If f is a choice G | not G, return G, else None."""
    if isinstance(f, Or) and is_not(f.right) == f.left:
        return f.left
    return None


def iff_of(f: Formula):
    """If f is a biconditional (A -> B) & (B -> A) in which neither
    implication is a negation, return (A, B), else None."""
    if isinstance(f, And) and isinstance(f.left, Implies) \
            and isinstance(f.right, Implies) \
            and f.left.right != BOT and f.right.right != BOT \
            and f.left.left == f.right.right and f.left.right == f.right.left:
        return f.left.left, f.left.right
    return None


def conj(fs: Iterable[Formula]) -> Formula:
    fs = list(fs)
    if not fs:
        return TOP
    out = fs[0]
    for f in fs[1:]:
        out = And(out, f)
    return out


def disj(fs: Iterable[Formula]) -> Formula:
    fs = list(fs)
    if not fs:
        return BOT
    out = fs[0]
    for f in fs[1:]:
        out = Or(out, f)
    return out


def conjuncts(f: Formula) -> Iterator[Formula]:
    """Flatten a right/left-nested conjunction (does not cross TOP)."""
    return _flatten(f, And)


def disjuncts(f: Formula) -> Iterator[Formula]:
    return _flatten(f, Or)


def _flatten(f, kind):
    # an explicit stack: a program of N rules nests N conjunctions deep
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, kind):
            stack.append(g.right)
            stack.append(g.left)
        else:
            yield g


def close_universally(f: Formula, variables: Iterable[Var]) -> Formula:
    for v in reversed(list(variables)):
        f = Forall(v, f)
    return f


def close_existentially(f: Formula, variables: Iterable[Var]) -> Formula:
    for v in reversed(list(variables)):
        f = Exists(v, f)
    return f


# ---------------------------------------------------------------------------
# signatures

def repeated_element(elements):
    """The first element that elements lists a second time, or None.  Two
    elements are the same when they have one type and one value: 1 and
    Fraction(1) are ==, but a sort may list both."""
    seen = set()
    for e in elements:
        if (type(e), e) in seen:
            return e
        seen.add((type(e), e))
    return None


def all_ints(elements):
    """Whether every one of elements is an int and not a bool (so also
    when there are none)."""
    return all(isinstance(e, int) and not isinstance(e, bool)
               for e in elements)


class SortDecl(Record):
    __slots__ = ("name", "elements", "tag")

    def __init__(self, name: str, elements: tuple | None = None,
                 tag: str = TAG_USER):
        self.name = name
        #: tuple of elements if the sort carries a declared finite extent
        self.elements = elements
        self.tag = tag


class Signature(Record):
    """Sorts with a subsort partial order, typed function/predicate constants.

    Builtin sorts int/real/bool exist implicitly; declared integer range
    sorts are subsorts of int.
    """
    __slots__ = ("sorts", "subsorts", "functions", "predicates", "background")

    def __init__(self, sorts=None, subsorts=None, functions=None,
                 predicates=None, background=None):
        self.sorts = {} if sorts is None else sorts                # name -> SortDecl
        self.subsorts = set() if subsorts is None else subsorts    # (sub, super) pairs
        self.functions = {} if functions is None else functions    # name -> (argsorts, valsort)
        self.predicates = {} if predicates is None else predicates  # name -> argsorts
        self.background = {} if background is None else background  # symbol -> tag
        for s, tag in ((INT, TAG_INT), (REAL, TAG_REAL), (BOOL, TAG_BOOL)):
            if s not in self.sorts:
                elems = (False, True) if s == BOOL else None
                self.sorts[s] = SortDecl(s, elems, tag)
        self.subsorts.add((INT, REAL))

    def extent(self, sort, universe):
        """The elements of sort: those universe lists for it, else its
        declared elements, else None (a sort with no finite extent).  Every
        layer reads a sort's extent here, so a universe may leave out any
        sort that carries a declared one."""
        ext = universe.get(sort)
        if ext is None:
            decl = self.sorts.get(sort)
            ext = None if decl is None else decl.elements
        return ext

    # -- declarations ------------------------------------------------------
    def declare_sort(self, name, elements=None, tag=TAG_USER):
        if name in self.sorts:
            raise DeclarationError(f"sort {name!r} already declared")
        if elements is not None:
            elements = tuple(elements)
            e = repeated_element(elements)
            if e is not None:
                raise DeclarationError(
                    f"sort {name!r} lists the element {e!r} twice")
        self.sorts[name] = SortDecl(name, elements, tag)
        if elements is not None and all_ints(elements):
            # integer-valued extents live inside the builtin int sort
            self.subsorts.add((name, INT))

    def declare_range_sort(self, name, lo, hi):
        if lo > hi:
            raise DeclarationError(f"empty range sort {name!r}: {lo}..{hi}")
        self.declare_sort(name, range(lo, hi + 1))

    def declare_subsort(self, sub, sup):
        for s in (sub, sup):
            if s not in self.sorts:
                raise DeclarationError(f"unknown sort {s!r}")
        self.subsorts.add((sub, sup))
        if self._cycle_check(sub):
            raise DeclarationError(f"subsort cycle through {sub!r}")

    def declare_func(self, name, argsorts, valsort, tag=TAG_USER):
        self._check_fresh(name)
        for s in tuple(argsorts) + (valsort,):
            if s not in self.sorts:
                raise DeclarationError(f"unknown sort {s!r} for function {name!r}")
        self.functions[name] = (tuple(argsorts), valsort)
        self.background[name] = tag

    def declare_object(self, name, sort, tag=TAG_USER):
        self.declare_func(name, (), sort, tag)

    def declare_pred(self, name, argsorts, tag=TAG_USER):
        self._check_fresh(name)
        for s in argsorts:
            if s not in self.sorts:
                raise DeclarationError(f"unknown sort {s!r} for predicate {name!r}")
        self.predicates[name] = tuple(argsorts)
        self.background[name] = tag

    def _check_fresh(self, name):
        if name in self.functions or name in self.predicates:
            raise DeclarationError(f"symbol {name!r} already declared")

    def _cycle_check(self, start):
        seen, stack = set(), [start]
        while stack:
            s = stack.pop()
            for a, b in self.subsorts:
                if a == s and b != s:
                    if b == start:
                        return True
                    if b not in seen:
                        seen.add(b)
                        stack.append(b)
        return False

    # -- queries -----------------------------------------------------------
    def is_subsort(self, sub, sup):
        """Reflexive-transitive subsort test."""
        if sub == sup:
            return True
        seen, stack = set(), [sub]
        while stack:
            s = stack.pop()
            for a, b in self.subsorts:
                if a == s and b not in seen:
                    if b == sup:
                        return True
                    seen.add(b)
                    stack.append(b)
        return False

    def common_supersort(self, s1, s2):
        if self.is_subsort(s1, s2):
            return s2
        if self.is_subsort(s2, s1):
            return s1
        for s in self.sorts:
            if self.is_subsort(s1, s) and self.is_subsort(s2, s):
                return s
        return None

    def user_symbols(self):
        return [n for n in list(self.functions) + list(self.predicates)
                if self.background.get(n, TAG_USER) == TAG_USER]

    def copy(self):
        return Signature(dict(self.sorts), set(self.subsorts),
                         dict(self.functions), dict(self.predicates),
                         dict(self.background))

    def sort_of_term(self, t: Term, strict=True):
        """The sort of a term: real for arithmetic with a division or a real
        operand, int for other arithmetic, None for an object name (and,
        unless strict, for an unknown function).  Arithmetic is walked with
        a stack, operands left to right, so a long sum or chain of unary
        minus is not limited by the recursion limit."""
        if not (isinstance(t, App) and t.fn in ARITH_FUNCS):
            return self._operand_sort(t, strict)
        real = False
        stack = [t]
        while stack:
            g = stack.pop()
            if isinstance(g, App) and g.fn in ARITH_FUNCS:
                real = real or g.fn == "/"
                stack.extend(reversed(g.args))
            elif self._operand_sort(g, strict) == REAL:
                real = True
        return REAL if real else INT

    def _operand_sort(self, t, strict):
        if isinstance(t, Var):
            return t.sort
        if isinstance(t, Lit):
            if isinstance(t.value, bool):
                return BOOL
            if isinstance(t.value, int):
                return INT
            return REAL
        if isinstance(t, Obj):
            return None
        if t.fn in self.functions:
            return self.functions[t.fn][1]
        if strict:
            raise DeclarationError(f"unknown function {t.fn!r}")
        return None


# ---------------------------------------------------------------------------
# rules and programs

RULE_PLAIN = "plain"
RULE_CONSTRAINT = "constraint"
RULE_CHOICE = "choice-head"


class Rule(FrozenRecord):
    __slots__ = ("head", "body", "kind")

    def __init__(self, head: Formula, body: Formula, kind: str = RULE_PLAIN):
        _set(self, "head", head)    # Bottom for constraints; the bare head for choice rules
        _set(self, "body", body)
        _set(self, "kind", kind)

    def as_formula(self) -> Formula:
        head = Choice(self.head) if self.kind == RULE_CHOICE else self.head
        f = head if self.body == TOP else Implies(self.body, head)
        return close_universally(f, sorted(free_vars(f), key=lambda v: v.name))


class Program(Record):
    __slots__ = ("signature", "rules", "intensional", "universe")

    def __init__(self, signature: Signature, rules: list,
                 intensional: tuple = (), universe: dict | None = None):
        self.signature = signature
        self.rules = rules
        self.intensional = intensional
        #: declared per-sort finite extents (universe spec), from sort declarations
        self.universe = {} if universe is None else universe

    def check(self):
        for name in self.intensional:
            if name not in self.signature.functions and name not in self.signature.predicates:
                raise DeclarationError(f"intensional symbol {name!r} not declared")
        if len(set(self.intensional)) != len(self.intensional):
            raise DeclarationError("duplicate intensional symbol")


class IntensionalList(FrozenRecord):
    """The intensional symbols c, in their order.  members holds them as a
    frozenset for membership tests; it is not part of equality, the hash
    or the repr."""
    __slots__ = ("names", "members")
    _uncompared = ("members",)

    def __init__(self, names: tuple):
        _set(self, "names", names)
        _set(self, "members", frozenset(names))

    def __repr__(self):
        return f"IntensionalList(names={self.names!r})"

    def __reduce__(self):
        return IntensionalList, (self.names,)

    @classmethod
    def of(cls, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise DeclarationError("duplicate intensional symbol")
        return cls(names)

    def pred_part(self, sig: Signature):
        return tuple(n for n in self.names if n in sig.predicates)

    def func_part(self, sig: Signature):
        return tuple(n for n in self.names if n in sig.functions)

    def __contains__(self, name):
        return name in self.members

    def __iter__(self):
        return iter(self.names)

    def __len__(self):
        return len(self.names)


def as_clist(c) -> IntensionalList:
    if isinstance(c, IntensionalList):
        return c
    return IntensionalList.of(c)


# ---------------------------------------------------------------------------
# the generic walk

def nodes(x) -> Iterator:
    """Every subformula and subterm of x, x first, in pre-order from left to
    right.  A quantifier's own variable is not visited; its occurrences in
    the body are."""
    stack = [x]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, (And, Or, Implies, Equal)):
            stack.append(g.right)
            stack.append(g.left)
        elif isinstance(g, (Forall, Exists)):
            stack.append(g.body)
        elif isinstance(g, (Atom, App)):
            stack.extend(reversed(g.args))
        elif not isinstance(g, (Bottom, Var, Lit, Obj)):
            raise TypeError(f"not a formula/term: {g!r}")


def transform(x, fn):
    """Rebuild x bottom-up, replacing each node g by fn(g, rebuilt), where
    rebuilt is g over its already transformed children.

    Children are visited left to right, so fn is called in post-order.  A
    quantifier keeps its variable; fn sees the quantifier and can change
    it.  The walk keeps its own stack, so the depth of x is not limited by
    the recursion limit.
    """
    done = []                      # rebuilt subtrees, left to right
    stack = [(x, False)]
    while stack:
        g, expanded = stack.pop()
        if isinstance(g, (And, Or, Implies, Equal)):
            if not expanded:
                stack += ((g, True), (g.right, False), (g.left, False))
                continue
            right = done.pop()
            new = type(g)(done.pop(), right)
        elif isinstance(g, (Forall, Exists)):
            if not expanded:
                stack += ((g, True), (g.body, False))
                continue
            new = type(g)(g.var, done.pop())
        elif isinstance(g, (Atom, App)) and g.args:
            if not expanded:
                stack.append((g, True))
                stack += ((a, False) for a in reversed(g.args))
                continue
            args = tuple(done[-len(g.args):])
            del done[-len(g.args):]
            new = Atom(g.pred, args) if isinstance(g, Atom) else App(g.fn, args)
        elif isinstance(g, (Atom, App, Bottom, Var, Lit, Obj)):
            new = g
        else:
            raise TypeError(f"not a formula/term: {g!r}")
        done.append(fn(g, new))
    return done[0]


# ---------------------------------------------------------------------------
# free variables, substitution

def free_vars(f) -> set:
    """The variables with a free occurrence in a formula or term.

    The walk keeps its own stack, as nodes does, so a rule body of
    thousands of conjuncts is not limited by the recursion limit.  A
    quantifier's body is followed on the stack by _RELEASE, which ends the
    binding of its variable."""
    out = set()
    bound = []                     # the variables of the enclosing binders
    stack = [f]
    pop, push = stack.pop, stack.append
    while stack:
        g = pop()
        cls = g.__class__
        if cls is Var:
            if g not in bound:
                out.add(g)
        elif cls is App or cls is Atom:
            stack.extend(g.args)
        elif cls in _PAIRS:
            push(g.left)
            push(g.right)
        elif cls is Forall or cls is Exists:
            bound.append(g.var)
            push(_RELEASE)
            push(g.body)
        elif g is _RELEASE:
            bound.pop()
        elif cls not in _LEAVES:
            raise TypeError(f"not a formula/term: {g!r}")
    return out


_PAIRS = (And, Or, Implies, Equal)
_LEAVES = (Lit, Obj, Bottom)
_RELEASE = object()


def guard_term(f, var: Var):
    """t when f is the equation t = var or var = t and var is not free in
    t; else None."""
    if not isinstance(f, Equal):
        return None
    for t, x in ((f.left, f.right), (f.right, f.left)):
        if x == var and var not in free_vars(t):
            return t
    return None


def subst(f, mapping: dict):
    """Substitute terms for variables (mapping Var -> Term) in a formula or
    a term; a quantifier's own variable is not replaced in its body.  The
    records are immutable, so the result shares every subformula and
    subterm in which no mapped variable occurs, and is f itself when there
    is none."""
    return _subst(f, mapping) if mapping else f


def _subst(f, mapping):
    cls = f.__class__
    if cls is Var:
        return mapping.get(f, f)
    if cls is App or cls is Atom:
        args = f.args
        if not args:
            return f
        new = tuple([_subst(a, mapping) for a in args])
        for a, b in zip(args, new):
            if a is not b:
                return cls(f.fn if cls is App else f.pred, new)
        return f
    if cls in _PAIRS:
        # a rule body nests its conjuncts down the left spine: walk it in a
        # loop, so that its length is not limited by the recursion limit
        spine = []
        while f.__class__ in _PAIRS:
            spine.append(f)
            f = f.left
        new = _subst(f, mapping)
        for g in reversed(spine):
            right = _subst(g.right, mapping)
            if new is not g.left or right is not g.right:
                g = g.__class__(new, right)
            new = g
        return new
    if cls is Forall or cls is Exists:
        if f.var in mapping:
            mapping = {k: v for k, v in mapping.items() if k != f.var}
            if not mapping:
                return f
        body = _subst(f.body, mapping)
        return f if body is f.body else cls(f.var, body)
    if cls is Lit or cls is Obj or cls is Bottom:
        return f
    raise TypeError(f"not a formula/term: {f!r}")


def rename_symbols(f: Formula, mapping: dict) -> Formula:
    """Replace predicate/function constant names throughout a formula."""
    def rename(g, new):
        if isinstance(new, Atom):
            return Atom(mapping.get(new.pred, new.pred), new.args)
        if isinstance(new, App):
            return App(mapping.get(new.fn, new.fn), new.args)
        return new
    return transform(f, rename)


def symbols(x) -> set:
    """All predicate and function constant names occurring in a formula or
    term."""
    return {g.pred if isinstance(g, Atom) else g.fn
            for g in nodes(x) if isinstance(g, (Atom, App))}


class FreshNames:
    """Variables named prefix1, prefix2, ... that avoid the taken names.

    Each top-level operation owns one supply.  The count only moves
    forward, so no name is handed out twice.
    """

    def __init__(self, prefix: str, taken=()):
        self.prefix = prefix
        self.taken = set(taken)
        self.count = itertools.count(1)

    def var(self, sort: str, avoid=()) -> Var:
        """A fresh variable of the sort, also avoiding the names in avoid."""
        while True:
            name = f"{self.prefix}{next(self.count)}"
            if name not in self.taken and name not in avoid:
                return Var(name, sort)


# ---------------------------------------------------------------------------
# FOL representation of programs

def fol_representation(program: Program) -> Formula:
    """Conjunction of the universal closures of Body -> Head implications."""
    program.check()
    return conj(r.as_formula() for r in program.rules)


# ---------------------------------------------------------------------------
# polarity analysis

def strictly_positive(f: Formula) -> Iterator[Formula]:
    """Every subformula of f that lies inside no implication's antecedent,
    f first, in pre-order from left to right."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, (And, Or)):
            stack.append(g.right)
            stack.append(g.left)
        elif isinstance(g, Implies):
            stack.append(g.right)
        elif isinstance(g, (Forall, Exists)):
            stack.append(g.body)
        elif not isinstance(g, (Bottom, Atom, Equal)):
            raise TypeError(f"not a formula: {g!r}")


def strictly_positive_symbols(f: Formula, names) -> set:
    """The given constant names that occur strictly positively in f.  Pass
    a set (such as IntensionalList.members): each atom's symbols are
    intersected with names as given."""
    return {n for g in strictly_positive(f) if isinstance(g, (Atom, Equal))
            for n in symbols(g).intersection(names)}


def negative_on(f: Formula, c) -> bool:
    """True iff F has no strictly positive occurrence of any member of c."""
    names = as_clist(c).members
    return not any(symbols(g) & names for g in strictly_positive(f)
                   if isinstance(g, (Atom, Equal)))
