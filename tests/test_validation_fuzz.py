"""A document that validates runs to a verdict: one leaf of a bundled document
is changed, and `trilie verify` runs on it in process.

A change is one of: a list shortened, lengthened or emptied; a scalar (a
string the document's field parses) replaced by one of the field's edge
cases (a zero denominator, a residue >= p, `i` over Q, text that is no
scalar); an int replaced by 0, -1, 1 or 2.  The document's `name`, `description` and `meta` are left alone, and
`laurent-quotient-p5` (seconds of certification) is not drawn.  Exit 70 (a
bug in trilie) is never allowed, and a refused document (exit 64) names the
`$.` path of what it refuses.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from trilie.bundled import bundled_names, get_bundled
from trilie.cli import main
from trilie.fields import field_from_descriptor

NAMES = [n for n in bundled_names() if n != "laurent-quotient-p5"]
UNTOUCHED = ("name", "description", "meta")


def edge_scalars(field: dict) -> list:
    """Scalar strings at the edge of the field's grammar."""
    common = ["1/0", "0", "-1", "2", "x"]
    if field["kind"] == "prime":
        p = field["p"]
        return common + [str(p), str(p + 1), "-0/0"]
    if field["kind"] == "gaussian-rationals":
        return common + ["i", "1/0i", "1+1/0i", "-i"]
    return common + ["i", "1/2", "3/-0"]


def targets(obj, is_scalar, path=()):
    """(path, value) of every list, scalar and int (not bool) under `obj`."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if path or k not in UNTOUCHED:
                yield from targets(v, is_scalar, path + (k,))
        return
    if isinstance(obj, list):
        yield path, obj
        for k, v in enumerate(obj):
            yield from targets(v, is_scalar, path + (k,))
    elif is_scalar(obj) or (isinstance(obj, int) and not isinstance(obj, bool)):
        yield path, obj


def scalar_test(field: dict):
    """Whether a value is a string that `field` parses."""
    parse = field_from_descriptor(field).parse

    def is_scalar(value):
        try:
            return isinstance(value, str) and parse(value) is not None
        except ValueError:
            return False
    return is_scalar


def changes(value, scalars):
    """The strategy of one change to `value`."""
    if isinstance(value, list):
        longer = value + [value[-1] if value else "1"]
        return st.sampled_from([value[:-1], longer, []])
    if isinstance(value, str):
        return st.sampled_from(scalars)
    return st.sampled_from([0, -1, 1, 2])


@st.composite
def mutated_documents(draw):
    doc = get_bundled(draw(st.sampled_from(NAMES)))
    path, value = draw(st.sampled_from(list(targets(doc, scalar_test(doc["field"])))))
    new = draw(changes(value, edge_scalars(doc["field"])))
    *parents, last = path
    owner = doc
    for key in parents:
        owner = owner[key]
    owner[last] = new
    return doc, path, new


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=mutated_documents())
def test_a_changed_bundled_document_exits_with_a_verdict_or_a_path(case, tmp_path_factory):
    doc, path, new = case
    out = tmp_path_factory.mktemp("fuzz")
    file = out / "doc.json"
    file.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", str(file), "--budget", "100000", "--out-dir", str(out)])
    where = f"{doc['name']} at {list(path)} = {new!r}"
    assert code in (0, 1, 2, 64), f"{where}: exit {code}\n{err.getvalue()}"
    if code == 64:
        assert "$." in err.getvalue(), f"{where}: {err.getvalue()}"
