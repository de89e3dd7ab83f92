"""Run the fsmkit CLI with spans around the public functions of each layer.

Usage: python tracecli.py SPANS_PREFIX -- <fsmkit cli arguments>

The tracer lives outside the package.  It imports the fsmkit modules,
replaces each traced function in every module that holds a binding of it,
runs `fsmkit.cli.main`, and at exit writes the spans it kept in memory:
SPANS_PREFIX.json holds the names, the counters and where fsmkit was
imported from, SPANS_PREFIX.bin the span arrays.

Span rules:
* plain functions get one span per call;
* generators get one span per `next()`, flagged 1 when it yielded;
* recursive functions get a span for the outermost call only; nested calls
  are counted, not timed;
* check_stable and satisfies record their boolean result in the flag.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

LAYERS = ("parser", "syntax", "interp", "stable", "transforms", "aspmt", "cli")

# (module, attribute, kind, counter): kind is plain, gen, rec or
# classmethod; counter is "flag" (keep the boolean result in the span) or a
# key of MEASURES, whose value for each result is summed into a counter
TRACED = (
    ("parser", "parse_program", "plain", "rules"),
    ("parser", "print_program", "plain", None),
    ("parser", "print_formula", "plain", None),
    ("syntax", "fol_representation", "plain", "nodes"),
    ("interp", "enumerate_interpretations", "gen", None),
    ("interp", "vary_on", "gen", None),
    ("interp", "less_on_c", "plain", None),
    ("interp", "satisfies", "rec", "flag"),
    ("interp", "FiniteInterpretation.to_json", "plain", None),
    ("interp", "FiniteInterpretation.from_json", "classmethod", None),
    ("stable", "check_stable", "plain", "flag"),
    ("stable", "check_stable_both", "plain", None),
    ("stable", "ground", "rec", None),
    ("stable", "reduct", "rec", None),
    ("stable", "gsat", "rec", None),
    ("stable", "star", "plain", None),
    ("transforms", "to_clark_normal_form", "plain", None),
    ("transforms", "complete", "plain", "nodes"),
    ("transforms", "dependency_graph", "plain", None),
    ("transforms", "find_cycle", "plain", None),
    ("aspmt", "emit_smtlib", "plain", "assertions"),
    ("aspmt", "validate_smtlib", "plain", None),
    ("aspmt", "SmtScript.render", "plain", "bytes"),
)


def formula_nodes(f) -> int:
    """Number of connective, quantifier and atom nodes in a formula."""
    n, stack = 0, [f]
    while stack:
        g = stack.pop()
        n += 1
        kind = type(g).__name__
        if kind in ("And", "Or", "Implies"):
            stack.append(g.left)
            stack.append(g.right)
        elif kind in ("Forall", "Exists"):
            stack.append(g.body)
    return n


MEASURES = {
    "rules": lambda r: len(r.rules),
    "nodes": formula_nodes,
    "assertions": lambda r: len(r.assertions),
    "bytes": lambda r: len(r.encode("utf-8")),
}


class Recorder:
    """Spans in flat arrays: name index, start, end, parent span, flag."""

    def __init__(self, names):
        self.names = list(names)
        self.name_ix = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.flag = array("b")
        self.stack = []
        self.nested = [0] * len(self.names)
        self.counters = {}

    def open(self, ix):
        sid = len(self.name_ix)
        self.name_ix.append(ix)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.flag.append(-1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def write(self, prefix, where):
        meta = {"fsmkit_file": where, "names": self.names,
                "spans": len(self.name_ix),
                "nested": dict(zip(self.names, self.nested)),
                "counters": self.counters}
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.name_ix, self.start, self.end, self.parent,
                        self.flag):
                arr.tofile(fh)


def _wrap(rec, ix, fn, kind, counter):
    name = rec.names[ix]
    measure = MEASURES.get(counter)

    if kind == "gen":
        def traced(*args, **kw):
            gen = fn(*args, **kw)
            while True:
                sid = rec.open(ix)
                try:
                    item = next(gen)
                except StopIteration:
                    rec.flag[sid] = 0
                    return
                finally:
                    rec.close(sid)
                rec.flag[sid] = 1
                yield item
        return traced

    if kind == "rec":
        depth = [0]

        def traced(*args, **kw):
            if depth[0]:
                rec.nested[ix] += 1
                return fn(*args, **kw)
            depth[0] = 1
            sid = rec.open(ix)
            try:
                result = fn(*args, **kw)
            finally:
                depth[0] = 0
                rec.close(sid)
            if counter == "flag":
                rec.flag[sid] = 1 if result else 0
            return result
        return traced

    def traced(*args, **kw):
        sid = rec.open(ix)
        try:
            result = fn(*args, **kw)
        finally:
            rec.close(sid)
        if counter == "flag":
            rec.flag[sid] = 1 if result else 0
        elif measure is not None:
            rec.count(f"{name}.{counter}", measure(result))
        return result
    return traced


def install(rec):
    """Patch every traced function in each fsmkit module bound to it."""
    modules = [importlib.import_module(f"fsmkit.{m}") for m in LAYERS]
    package = sys.modules["fsmkit"]
    for ix, (mod_name, attr, kind, counter) in enumerate(TRACED):
        mod = sys.modules[f"fsmkit.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if kind == "classmethod":
                setattr(cls, meth, classmethod(
                    _wrap(rec, ix, raw.__func__, "plain", counter)))
            else:
                setattr(cls, meth, _wrap(rec, ix, raw, kind, counter))
            continue
        original = getattr(mod, attr)
        wrapped = _wrap(rec, ix, original, kind, counter)
        for holder in modules + [package]:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracecli.py SPANS_PREFIX -- <fsmkit arguments>",
              file=sys.stderr)
        return 2
    prefix, cli_args = argv[0], argv[2:]
    rec = Recorder(f"{m}.{a}" for m, a, _, _ in TRACED)
    install(rec)
    import fsmkit
    import fsmkit.cli
    try:
        return fsmkit.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        rec.write(prefix, fsmkit.__file__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
