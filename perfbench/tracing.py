"""In-memory span and counter tracing of trilie, installed from outside.

`Tracer.install()` wraps every public module-level function of the traced
trilie modules in a span recorder and rebinds each wrapper in every trilie
namespace that holds the original (so `from .x import f` call sites are
traced too).  Selected methods get call counters instead of spans, because
they run millions of times.  `uninstall()` restores every original.  Spans
stay in memory until `write()` dumps them, one JSON object per line.

A span is [id, name, tag, start, end, parent, doc, value]: `name` is
"<layer>.<function>", `tag` refines it (the check of a campaign), `parent`
is the id of the enclosing span, `doc` identifies the document being
verified and `value` holds a work count taken from the function's result.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from operator import attrgetter
from time import perf_counter

# trilie modules that form the layers, in call order
LAYERS = ("cli", "documents", "campaigns", "lifts", "brackets", "carriers",
          "structure", "linalg", "fields")

# public functions called once per bracket coefficient (57,659 times in one
# corpus pass): a span each would cost more than the work it times
UNSPANNED = {"brackets.parity_coefficient"}


def _check_kind(args, kwargs):
    camp = kwargs.get("camp", args[1] if len(args) > 1 else None)
    return camp.get("check") if isinstance(camp, dict) else None


# work counts read off results, and tags read off arguments
VALUES = {
    "brackets.check_fi_window": attrgetter("checked"),
    "structure.verify_fundamental_identity": attrgetter("checked"),
    "structure.certify_simplicity": attrgetter("lines_checked"),
}
TAGS = {"campaigns.run_campaign": _check_kind}


def _counted_methods(mods):
    """(class, attribute, counter) for every method whose calls are counted."""
    br, ca, fi, st, la = (mods[m] for m in ("brackets", "carriers", "fields",
                                             "structure", "linalg"))
    out = []
    for cls in vars(br).values():
        if inspect.isclass(cls) and issubclass(cls, br.TriBracket):
            out += [(cls, a, "brackets.evals") for a in ("eval_indices", "__call__")
                    if a in vars(cls)]
    out += [(ca.AlgebraElement, a, "carriers.elem_ops")
            for a in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale")]
    for cls in vars(fi).values():
        if inspect.isclass(cls) and issubclass(cls, fi.Field):
            out += [(cls, a, "fields.ops") for a in ("add", "sub", "mul", "neg", "inv")
                    if a in vars(cls)]
            out += [(cls, a, "fields.zero_one") for a in ("zero", "one") if a in vars(cls)]
    out.append((st.FiniteNLieAlgebra, "bracket_indices", "structure.bracket_indices_calls"))
    out.append((la.SpanBuilder, "add", "linalg.span_adds"))
    return out


class Tracer:
    """Spans and counters of one traced stretch between install and uninstall."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.doc = None          # id of the document being verified
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------
    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        tag_of, value_of = TAGS.get(name), VALUES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), name, tag_of(args, kwargs) if tag_of else None,
                   perf_counter(), None, stack[-1] if stack else None, self.doc, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = perf_counter()
            if value_of:
                rec[7] = value_of(out)
            return out
        return wrapper

    def _counter(self, key, orig):
        cell = self.counters.setdefault(key, [0])
        if isinstance(orig, property):
            fget = orig.fget

            def counted_get(obj):
                cell[0] += 1
                return fget(obj)
            return property(counted_get)

        def counted(*args, **kwargs):
            cell[0] += 1
            return orig(*args, **kwargs)
        return counted

    # -- patching ------------------------------------------------------------
    def install(self):
        mods = {m: sys.modules[f"trilie.{m}"] for m in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNSPANNED):
                    wrappers[fn] = self._span(name, fn)
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "trilie" or n.startswith("trilie."))]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        for cls, attr, key in _counted_methods(mods):
            orig = vars(cls)[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._counter(key, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path, meta):
        """Spans, then the counters, then `meta` (run-level figures)."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "tag", "start", "end", "parent", "doc", "value"),
                    rec))) + "\n")
            fh.write(json.dumps({"counters": {k: v[0] for k, v in
                                              sorted(self.counters.items())}}) + "\n")
            fh.write(json.dumps({"meta": meta}) + "\n")
