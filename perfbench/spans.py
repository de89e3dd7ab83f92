"""Per-layer metrics and self times from the spans a traced op wrote."""

from __future__ import annotations

import json
from array import array

#: time metric -> (functions whose outermost spans it sums, functions whose
#: spans hide a nested span from it)
TIMES = {
    "stable.check_s": ({"stable.check_stable", "stable.check_stable_both"}, ()),
    "stable.ground_s": ({"stable.ground"}, ()),
    "stable.reduct_s": ({"stable.reduct"}, ()),
    "stable.gsat_s": ({"stable.gsat"}, ()),
    "stable.star_s": ({"stable.star"}, ()),
    # vary_on enumerates its witnesses through enumerate_interpretations;
    # those belong to vary_s, not to the candidate enumeration
    "interp.enum_s": ({"interp.enumerate_interpretations"}, {"interp.vary_on"}),
    "interp.vary_s": ({"interp.vary_on"}, ()),
    "interp.less_s": ({"interp.less_on_c"}, ()),
    "interp.sat_s": ({"interp.satisfies"}, ()),
    "interp.json_s": ({"interp.FiniteInterpretation.to_json",
                       "interp.FiniteInterpretation.from_json"}, ()),
    "parser.parse_s": ({"parser.parse_program"}, ()),
    "parser.print_s": ({"parser.print_program", "parser.print_formula"}, ()),
    "syntax.fol_s": ({"syntax.fol_representation"}, ()),
    "transforms.cnf_s": ({"transforms.to_clark_normal_form"}, ()),
    "transforms.complete_s": ({"transforms.complete"}, ()),
    "transforms.tight_s": ({"transforms.dependency_graph",
                            "transforms.find_cycle"}, ()),
    "aspmt.emit_s": ({"aspmt.emit_smtlib"}, ()),
    "aspmt.validate_s": ({"aspmt.validate_smtlib"}, ()),
    "aspmt.render_s": ({"aspmt.SmtScript.render"}, ()),
}

#: count metric -> counter the tracer summed from function results
COUNTERS = {
    "parser.rules": "parser.parse_program.rules",
    "syntax.fol_nodes": "syntax.fol_representation.nodes",
    "transforms.comp_nodes": "transforms.complete.nodes",
    "aspmt.assertions": "aspmt.emit_smtlib.assertions",
    "aspmt.script_bytes": "aspmt.SmtScript.render.bytes",
}

#: metrics of one op that add up over the ops of a batch
SUMMED = sorted(TIMES) + sorted(COUNTERS) + [
    "stable.checks", "stable.ground_calls", "stable.ground_nodes",
    "stable.witnesses", "stable.models", "stable.classical",
    "interp.interps", "interp.sat_calls"]


def load(prefix):
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = [array("H"), array("d"), array("d"), array("i"), array("b")]
    with open(prefix + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return meta, arrays


def analyse(prefix):
    """Metrics, per-function summary and fsmkit location of one traced op."""
    meta, (name_ix, start, end, parent, flag) = load(prefix)
    names = meta["names"]
    n = meta["spans"]
    name = [names[k] for k in name_ix]
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]

    def has_ancestor(i, stop):
        p = parent[i]
        while p >= 0:
            if name[p] in stop:
                return True
            p = parent[p]
        return False

    by_name = {}
    for i in range(n):
        by_name.setdefault(name[i], []).append(i)

    m = dict.fromkeys(SUMMED, 0)
    for metric, (fns, hidden) in TIMES.items():
        stop = set(fns) | set(hidden)
        m[metric] = sum(dur[i] for fn in fns for i in by_name.get(fn, ())
                        if not has_ancestor(i, stop))
    for metric, counter in COUNTERS.items():
        m[metric] = meta["counters"].get(counter, 0)

    first_sat = set()
    for i in range(n):
        nm, p = name[i], parent[i]
        if nm == "stable.check_stable":
            m["stable.checks"] += 1
            m["stable.models"] += flag[i] == 1
        elif nm == "stable.ground":
            m["stable.ground_calls"] += 1
        elif nm == "interp.vary_on":
            m["stable.witnesses"] += flag[i] == 1
        elif nm == "interp.enumerate_interpretations":
            if flag[i] == 1 and not (p >= 0 and name[p] == "interp.vary_on"):
                m["interp.interps"] += 1
        elif nm == "interp.satisfies":
            m["interp.sat_calls"] += 1
            # the first satisfies inside a check is the classical filter
            if p >= 0 and name[p] == "stable.check_stable" \
                    and p not in first_sat:
                first_sat.add(p)
                m["stable.classical"] += flag[i] == 1
    m["stable.ground_nodes"] = (m["stable.ground_calls"]
                                + meta["nested"]["stable.ground"])

    summary = {}
    for i in range(n):
        s = summary.setdefault(name[i], {"spans": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        s["spans"] += 1
        s["self_s"] += dur[i] - child[i]
        if not has_ancestor(i, {name[i]}):
            s["total_s"] += dur[i]
    for fn, s in summary.items():
        s["nested_calls"] = meta["nested"][fn]
    return m, summary, meta["fsmkit_file"]


def ratios(m):
    """Add the two answer ratios to summed batch metrics."""
    classical = m.pop("stable.classical")
    m["stable.stable_frac"] = m["stable.models"] / classical if classical else 0
    m["interp.model_frac"] = (classical / m["interp.interps"]
                              if m["interp.interps"] else 0)
    return m


def layer_self(summary):
    """Self time per layer (the module prefix of each traced function)."""
    out = {}
    for fn, s in summary.items():
        layer = fn.split(".")[0]
        out[layer] = out.get(layer, 0.0) + s["self_s"]
    return out
