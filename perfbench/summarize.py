"""Per-layer metrics from a trace file written by `tracing.Tracer.write`.

    python3 perfbench/summarize.py TRACE.jsonl

A span's self time is its duration minus the durations of its direct child
spans; a layer's self time is the sum over its spans.  Time spent in
unwrapped code (methods, private helpers) counts toward the nearest
enclosing span.  "Outer" time of a set of functions sums the spans of the
set that have no ancestor in the set, so recursion and nesting are not
counted twice.
"""

from __future__ import annotations

import json
import sys

from tracing import LAYERS

# every check kind a campaign can run; one timing metric each
CHECKS = (
    "skew", "alternating", "trilinear", "fundamental-identity", "simplicity",
    "kernel-ideal", "derived-series", "lower-central-series", "anticommute",
    "derivation-law", "involution-law", "functional-conditions",
    "closed-vs-determinant", "homomorphism", "grading", "ideal-divisibility",
    "parity-vanishing", "reachability", "monomial-parity-agreement",
    "involution-antisymmetry", "witt",
)

COUNTERS = ("brackets.evals", "carriers.elem_ops", "fields.ops", "fields.zero_one",
            "structure.bracket_indices_calls", "linalg.span_adds")


def unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def metric_names():
    """Every per-layer metric name, in report order."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += ["documents.parse_s", "campaigns.build_calls", "campaigns.build_s"]
    names += [f"campaigns.{check}_s" for check in CHECKS]
    names += ["brackets.tabulate_s", "brackets.fi_window_s", "brackets.fi_window_residuals",
              "brackets.fi_window_residuals_per_s", "brackets.agreement_s",
              "brackets.evals_per_s", "carriers.checks_s",
              "structure.fi_s", "structure.fi_residuals", "structure.fi_residuals_per_s",
              "structure.certify_s", "structure.lines", "structure.lines_per_s",
              "structure.derived_s", "structure.ideal_closure_s", "structure.skew_s",
              "lifts.build_s", "trace.verify_s", "trace.overhead_s"]
    names += list(COUNTERS)
    return names


def load(path):
    spans, counters, meta = [], {}, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counters" in rec:
                counters.update(rec["counters"])
            elif "meta" in rec:
                meta.update(rec["meta"])
            else:
                spans.append(rec)
    return spans, counters, meta


def summarize(spans, counters, meta):
    """Map every name of `metric_names()` to its value."""
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur[s["id"]]

    def outer(match):
        """Spans matching `match` with no matching ancestor."""
        out = []
        for s in spans:
            if not match(s):
                continue
            p = s["parent"]
            while p is not None and not match(by_id[p]):
                p = by_id[p]["parent"]
            if p is None:
                out.append(s)
        return out

    def outer_s(*names):
        return sum(dur[s["id"]] for s in outer(lambda s: s["name"] in names))

    def outer_value(name):
        return sum(s["value"] or 0 for s in outer(lambda s: s["name"] == name))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(dur[s["id"]] - child_time.get(s["id"], 0.0)
                                   for s in spans if s["name"].split(".")[0] == layer)
    m["documents.parse_s"] = outer_s("documents.parse_document")
    m["campaigns.build_calls"] = sum(s["name"] == "campaigns.build_context" for s in spans)
    m["campaigns.build_s"] = outer_s("campaigns.build_context")
    for check in CHECKS:
        m[f"campaigns.{check}_s"] = sum(
            dur[s["id"]] for s in spans
            if s["name"] == "campaigns.run_campaign" and s["tag"] == check)
    m["brackets.tabulate_s"] = outer_s("brackets.tabulate")
    m["brackets.fi_window_s"] = outer_s("brackets.check_fi_window")
    m["brackets.fi_window_residuals"] = outer_value("brackets.check_fi_window")
    m["brackets.fi_window_residuals_per_s"] = rate(m["brackets.fi_window_residuals"],
                                                   m["brackets.fi_window_s"])
    m["brackets.agreement_s"] = outer_s("brackets.check_agreement")
    brackets_s = sum(dur[s["id"]] for s in outer(lambda s: s["name"].startswith("brackets.")))
    m["brackets.evals_per_s"] = rate(counters.get("brackets.evals", 0), brackets_s)
    m["carriers.checks_s"] = sum(
        dur[s["id"]] for s in outer(lambda s: s["name"].startswith("carriers.check_")))
    m["structure.fi_s"] = outer_s("structure.verify_fundamental_identity")
    m["structure.fi_residuals"] = outer_value("structure.verify_fundamental_identity")
    m["structure.fi_residuals_per_s"] = rate(m["structure.fi_residuals"], m["structure.fi_s"])
    m["structure.certify_s"] = outer_s("structure.certify_simplicity")
    m["structure.lines"] = outer_value("structure.certify_simplicity")
    m["structure.lines_per_s"] = rate(m["structure.lines"], m["structure.certify_s"])
    m["structure.derived_s"] = outer_s("structure.derived_series",
                                       "structure.lower_central_series",
                                       "structure.derived_algebra",
                                       "structure.derived_subspace")
    m["structure.ideal_closure_s"] = outer_s("structure.ideal_closure")
    m["structure.skew_s"] = outer_s("structure.verify_skew")
    m["lifts.build_s"] = sum(dur[s["id"]] for s in outer(lambda s: s["name"].startswith("lifts.")))
    m["trace.verify_s"] = meta.get("traced_verify_s", 0.0)
    m["trace.overhead_s"] = meta.get("traced_verify_s", 0.0) - meta.get("untraced_verify_s", 0.0)
    for key in COUNTERS:
        m[key] = counters.get(key, 0)
    return {name: m[name] for name in metric_names()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 64
    for name, value in summarize(*load(argv[0])).items():
        print(f"{name:40s} {value:.6g} {unit(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
