"""The polarity scans and the tracer's names, pinned against references.

The polarity analyses (strictly positive symbols, negative_on,
head-plainness and the dependency graph) are written on the one
strictly_positive walk.  The references below are the earlier definitions
by occurrence lists, kept here to check the walk against; find_cycle is
checked against its recursive definition.
"""

import ast
import importlib
import pathlib
import random

from fsmkit.interp import enumerate_interpretations
from fsmkit.stable import Mirrors, witnesses
from fsmkit.syntax import (
    And, App, Atom, BOT, Equal, Exists, Forall, Implies, Or, as_clist,
    negative_on, strictly_positive, strictly_positive_symbols,
)
from fsmkit.transforms import (
    _plain_atom, dependency_graph, find_cycle, is_head_c_plain,
)

from conftest import make_gen, random_definition_program, small_signature

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# reference definitions

def ref_occurrences(f, names):
    """(name, antecedent depth) of every occurrence of the names."""
    out = []

    def scan_term(t, depth):
        if isinstance(t, App):
            if t.fn in names:
                out.append((t.fn, depth))
            for a in t.args:
                scan_term(a, depth)

    def scan(g, depth):
        if isinstance(g, Atom):
            if g.pred in names:
                out.append((g.pred, depth))
            for a in g.args:
                scan_term(a, depth)
        elif isinstance(g, Equal):
            scan_term(g.left, depth)
            scan_term(g.right, depth)
        elif isinstance(g, (And, Or)):
            scan(g.left, depth)
            scan(g.right, depth)
        elif isinstance(g, Implies):
            scan(g.left, depth + 1)
            scan(g.right, depth)
        elif isinstance(g, (Forall, Exists)):
            scan(g.body, depth)

    scan(f, 0)
    return out


def ref_strictly_positive_symbols(f, names):
    return {n for n, depth in ref_occurrences(f, set(names)) if depth == 0}


def ref_negative_on(f, c):
    return not ref_strictly_positive_symbols(f, as_clist(c).names)


def ref_strictly_positive_atoms(f):
    if isinstance(f, (Atom, Equal)):
        yield f
    elif isinstance(f, (And, Or)):
        yield from ref_strictly_positive_atoms(f.left)
        yield from ref_strictly_positive_atoms(f.right)
    elif isinstance(f, Implies):
        yield from ref_strictly_positive_atoms(f.right)
    elif isinstance(f, (Forall, Exists)):
        yield from ref_strictly_positive_atoms(f.body)


def ref_is_head_c_plain(f, c, sig):
    cf = set(as_clist(c).func_part(sig))
    return all(_plain_atom(g, cf) for g in ref_strictly_positive_atoms(f))


def ref_dependency_graph(f, c):
    c = as_clist(c)
    edges = {n: set() for n in c}

    def scan(g, sp):
        if isinstance(g, (And, Or)):
            scan(g.left, sp)
            scan(g.right, sp)
        elif isinstance(g, (Forall, Exists)):
            scan(g.body, sp)
        elif isinstance(g, Implies):
            if sp:
                for h in ref_strictly_positive_symbols(g.right, c.names):
                    edges[h] |= ref_strictly_positive_symbols(g.left, c.names)
            scan(g.right, sp)
            scan(g.left, False)

    scan(f, True)
    return {n: sorted(ms) for n, ms in edges.items()}


def ref_find_cycle(graph):
    color = {n: 0 for n in graph}
    parent = {}

    def dfs(n):
        color[n] = 1
        for m in graph.get(n, ()):
            if m not in color:
                continue
            if color[m] == 1:
                cycle = [m, n]
                cur = n
                while cur != m:
                    cur = parent[cur]
                    cycle.append(cur)
                cycle.reverse()
                return cycle
            if color[m] == 0:
                parent[m] = n
                found = dfs(m)
                if found:
                    return found
        color[n] = 2
        return None

    for n in graph:
        if color[n] == 0:
            found = dfs(n)
            if found:
                return found
    return None


# ---------------------------------------------------------------------------
# the strictly positive walk against the references

C_CHOICES = (("p",), ("q",), ("a",), ("p", "q"), ("a", "b", "p", "q"))


def _agree(f, c, sig):
    c = as_clist(c)
    assert strictly_positive_symbols(f, c.names) \
        == ref_strictly_positive_symbols(f, c.names)
    assert negative_on(f, c) == ref_negative_on(f, c)
    assert is_head_c_plain(f, c, sig) == ref_is_head_c_plain(f, c, sig)
    assert dependency_graph(f, c) == ref_dependency_graph(f, c)


def test_polarity_scans_match_references_on_generated_formulas():
    for seed in range(200):
        unary = seed % 2 == 1
        sig, gen = make_gen(seed, with_unary_func=unary)
        f = gen.formula(5)
        for c in C_CHOICES:
            _agree(f, c + (("f",) if unary else ()), sig)


def test_polarity_scans_match_references_on_definition_programs():
    for seed in range(100):
        sig, f = random_definition_program(random.Random(seed))
        for c in (("f", "g", "p"), ("p",), ("f", "g")):
            _agree(f, c, sig)


def test_strictly_positive_skips_antecedents_in_preorder():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    inner = Implies(q, r)
    f = And(Implies(inner, p), Or(q, Implies(p, BOT)))
    assert list(strictly_positive(f)) == [
        f, Implies(inner, p), p, Or(q, Implies(p, BOT)), q,
        Implies(p, BOT), BOT]


def test_find_cycle_matches_recursive_definition():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(1, 7)
        names = [f"n{k}" for k in range(n)]
        rng.shuffle(names)
        graph = {a: sorted(b for b in names + ["x"] if rng.random() < 0.25)
                 for a in names}
        assert find_cycle(graph) == ref_find_cycle(graph)


def test_find_cycle_on_a_long_chain():
    n = 5000
    graph = {f"n{k}": [f"n{k + 1}"] if k + 1 < n else [] for k in range(n)}
    assert find_cycle(graph) is None
    graph[f"n{n - 1}"] = ["n0"]
    assert find_cycle(graph) == [f"n{k}" for k in range(n)] + ["n0"]


# ---------------------------------------------------------------------------
# mirrors

def test_mirrors_extend_each_witness_with_its_values_of_c():
    sig = small_signature(with_unary_func=True)
    sig.declare_pred("p^", ("u",))
    mirrors = Mirrors(("p", "f"), sig)
    assert mirrors.names == {"p": "p^^", "f": "f^"}
    i = next(iter(enumerate_interpretations(sig, {"u": (1, 2)})))
    pairs = list(mirrors.witnesses(i, ordered=False))
    assert [j for j, _ in pairs] == list(witnesses(i, ("p", "f"), False))
    for j, ext in pairs:
        assert ext.signature is mirrors.signature
        assert ext.preds["p^^"] == j.preds["p"]
        assert ext.funcs["f^"] == j.funcs["f"]
        assert all(ext.funcs[n] == i.funcs[n] for n in i.funcs)
        assert all(ext.preds[n] == i.preds[n] for n in i.preds)


# ---------------------------------------------------------------------------
# the benchmark tracer patches functions by name

def test_traced_names_resolve():
    source = (ROOT / "perfbench" / "tracecli.py").read_text(encoding="utf-8")
    traced = next(ast.literal_eval(node.value)
                  for node in ast.parse(source).body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED"
                          for t in node.targets))
    assert traced
    for module, attr, _, _ in traced:
        obj = importlib.import_module(f"fsmkit.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"fsmkit.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"fsmkit.{module}.{attr}"
