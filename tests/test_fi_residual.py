"""The shared FI scan against unmemoized oracles.

The oracle is the definition itself, evaluated on carrier elements:
[[x1,x2,x3],y1,y2] - sum_i [x1..[xi,y1,y2]..x3].  The scan works on basis
indices through a sparse bracket table; both must give the same carrier
element for every basis case, including the non-alternating negative control.
The scan, whose memo shares the evaluated vectors across cases, is compared
with the same definition evaluated through a multilinear bracket on random
tables of arity 2 and 3, alternating or not, and the checks must leave the
structure-constant vectors as they were.
"""

import collections
import copy
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trilie import structure
from trilie.brackets import check_fi_window
from trilie.bundled import get_bundled
from trilie.campaigns import build_context
from trilie.carriers import AlgebraElement
from trilie.fields import QI, QQ, GaussianRational, PrimeField
from trilie.structure import (
    FiniteNLieAlgebra,
    MAX_WITNESSES,
    _fi_cases,
    _fi_scan,
    _fi_scan_table,
    _perm_sign,
    certify_simplicity,
    derived_series,
    verify_fundamental_identity,
    verify_skew,
)


def residual_case(bracket, xs, ys):
    carrier = bracket.carrier
    ex = [carrier.monomial(i) for i in xs]
    ey = [carrier.monomial(i) for i in ys]
    lhs = bracket(bracket(*ex), *ey)
    rhs = carrier.zero()
    for t in range(3):
        args = list(ex)
        args[t] = bracket(ex[t], *ey)
        rhs = rhs + bracket(*args)
    return lhs - rhs


def fi_window(name):
    """Bracket and window of the document's fundamental-identity campaign."""
    ctx = build_context(get_bundled(name))
    return ctx.bracket, ctx.basis


@pytest.mark.parametrize("name", ["laurent-flip-unit", "control-pair-mismatch"])
def test_residual_matches_element_oracle(name):
    bracket, window = fi_window(name)
    carrier = bracket.carrier
    index = st.sampled_from(window)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.tuples(index, index, index), st.tuples(index, index))
    def check(xs, ys):
        checked, found = _fi_scan(lambda t: bracket.eval_indices(*t).terms,
                                  carrier.field, [(xs, ys)])
        res = found[0][2] if found else {}
        assert checked == 1 and AlgebraElement(carrier, res) == residual_case(bracket, xs, ys)

    check()


def test_window_check_reports_the_oracle_failures():
    # on the control's window, exhaustively and sampled: same cases checked,
    # same first witnesses, so the differential test above is not comparing
    # zeros only
    bracket, window = fi_window("control-pair-mismatch")
    carrier = bracket.carrier

    def oracle(cases):
        return [{"x": [carrier.index_str(i) for i in xs],
                 "y": [carrier.index_str(i) for i in ys],
                 "residual": str(res)}
                for xs, ys in cases
                for res in [residual_case(bracket, xs, ys)] if not res.is_zero()]

    cases = [(xs, ys) for xs in itertools.combinations(window, 3)
             for ys in itertools.combinations(window, 2)]
    want = oracle(cases)
    rep = check_fi_window(bracket, window)
    assert rep.checked == len(cases)
    assert want and rep.failures == want[:MAX_WITNESSES]
    # sampled draws are runs of one x-tuple, with repeated and unsorted indices
    cases = list(_fi_cases(window, 3, "sampled", samples=200, seed=4))
    want = oracle(cases)
    rep = check_fi_window(bracket, window, mode="sampled", samples=200, seed=4)
    assert rep.checked == len(cases)
    assert len(want) > MAX_WITNESSES and rep.failures == want[:MAX_WITNESSES]


# ---------------------------------------------------------------------------
# tabulated FI against an unmemoized oracle
# ---------------------------------------------------------------------------

FIELDS = [PrimeField(3), PrimeField(65521), QQ, QI]


def scalars(f):
    if isinstance(f, PrimeField):
        return st.integers(0, f.p - 1)
    q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return q if f is QQ else st.builds(GaussianRational, q, q)


@st.composite
def tables(draw, f):
    """A sparse alternating 3-ary table with d <= 6 over f (constants keyed
    by increasing triples; the algebra completes the signs)."""
    d = draw(st.integers(3, 6))
    keys = list(itertools.combinations(range(d), 3))
    vec = st.dictionaries(st.integers(0, d - 1), scalars(f), max_size=2)
    constants = draw(st.dictionaries(st.sampled_from(keys), vec, max_size=4))
    L = FiniteNLieAlgebra(f, d, 3, constants)
    mutation = (draw(st.sampled_from(keys)), draw(st.integers(0, d - 1)),
                draw(scalars(f).filter(bool)))
    return L, mutation


def oracle_residual(L, xs, ys):
    """[[x1..xn],y2..yn] - sum_i [x1..[xi,y2..yn]..xn] through the
    multilinear bracket and the field's own operations."""
    f = L.field
    ex = [{i: f.one} for i in xs]
    ey = [{j: f.one} for j in ys]
    out = dict(L.bracket_sparse([L.bracket_sparse(ex)] + ey))
    for t in range(len(xs)):
        args = list(ex)
        args[t] = L.bracket_sparse([ex[t]] + ey)
        for l, c in L.bracket_sparse(args).items():
            s = f.sub(out.get(l, f.zero), c)
            if f.is_zero(s):
                out.pop(l, None)
            else:
                out[l] = s
    return out


def oracle_report(L, cases):
    f = L.field
    failures = []
    for xs, ys in cases:
        res = oracle_residual(L, xs, ys)
        if res:
            failures.append({"x": list(xs), "y": list(ys), "residual": " + ".join(
                f"{f.render(res[l])}*{L.labels[l]}" for l in sorted(res))})
    return len(cases), failures[:5]


def sampled_cases(d, samples, seed):
    rng = random.Random(seed)
    return [(tuple(rng.choice(range(d)) for _ in range(3)),
             tuple(rng.choice(range(d)) for _ in range(2))) for _ in range(samples)]


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_tabulated_fi_matches_unmemoized_oracle(f):
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(tables(f))
    def check(drawn):
        L, (key, out, delta) = drawn
        for alg in (L, L.mutate_constant(key, out, delta)):
            d = alg.dim
            exhaustive = [(xs, ys) for xs in itertools.combinations(range(d), 3)
                          for ys in itertools.combinations(range(d), 2)]
            rep = verify_fundamental_identity(alg)
            assert (rep.checked, rep.failures) == oracle_report(alg, exhaustive)
            rep = verify_fundamental_identity(alg, mode="sampled", samples=60, seed=11)
            assert (rep.checked, rep.failures) == oracle_report(alg, sampled_cases(d, 60, 11))

    check()


# ---------------------------------------------------------------------------
# shared vectors are never changed, and the scan evaluates each tuple once
# ---------------------------------------------------------------------------

def quotient_and_mutant():
    L = build_context(get_bundled("laurent-quotient-p3")).algebra
    return [L, L.mutate_constant(min(L.constants), 0, L.field.one)]


@pytest.mark.parametrize("which", ["quotient", "mutated"])
def test_checks_leave_the_structure_constants_unchanged(which):
    L = quotient_and_mutant()[which == "mutated"]
    before = copy.deepcopy(L.constants)
    verify_skew(L)
    verify_fundamental_identity(L)
    verify_fundamental_identity(L, mode="sampled", samples=300, seed=3)
    derived_series(L)
    certify_simplicity(L)
    assert L.constants == before
    f = L.field
    for key, vec in L.constants.items():
        for perm in itertools.permutations(range(3)):
            got = L.bracket_indices(tuple(key[t] for t in perm))
            if _perm_sign(perm) == 1:
                assert got is vec
            else:
                assert got is not vec and got == {l: f.neg(c) for l, c in vec.items()}


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_scan_evaluates_each_distinct_tuple_once(mode):
    for L in quotient_and_mutant():
        calls = collections.Counter()

        def evaluate(t):
            calls[t] += 1
            return L.bracket_indices(t)

        checked, _ = _fi_scan(evaluate, L.field,
                              _fi_cases(range(L.dim), 3, mode, samples=500, seed=5))
        assert checked > 0 and calls and set(calls.values()) == {1}


# ---------------------------------------------------------------------------
# the scan against the oracle on random tables, alternating or not
# ---------------------------------------------------------------------------

class RawTable:
    """An n-ary bracket given on ordered basis tuples as it is: no sign
    completion, so it need not be alternating, and a tuple with a repeated
    index may have a nonzero bracket."""

    def __init__(self, f, table):
        self.field, self.table = f, table

    def evaluate(self, t):
        return self.table.get(t, {})

    def bracket_sparse(self, vecs):
        f = self.field
        out = {}
        for combo in itertools.product(*[v.items() for v in vecs]):
            coeff = f.one
            for _, c in combo:
                coeff = f.mul(coeff, c)
            for l, c in self.evaluate(tuple(i for i, _ in combo)).items():
                s = f.add(out.get(l, f.zero), f.mul(coeff, c))
                if f.is_zero(s):
                    out.pop(l, None)
                else:
                    out[l] = s
        return out


@st.composite
def fi_problems(draw):
    """(bracket, evaluate, cases): an alternating table (sign-completed by
    the algebra) or a raw one of arity 2 or 3, and the exhaustive or sampled
    cases of `_fi_cases`, or listed cases with repeated indices and runs of
    repeated x-tuples."""
    f = draw(st.sampled_from(FIELDS))
    n = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(n, 5))
    vec = st.dictionaries(st.integers(0, d - 1), scalars(f), max_size=2)
    if draw(st.booleans()):
        keys = list(itertools.combinations(range(d), n))
        alg = FiniteNLieAlgebra(f, d, n, draw(st.dictionaries(st.sampled_from(keys), vec,
                                                                max_size=5)))
        evaluate = alg.bracket_indices
    else:
        keys = list(itertools.product(range(d), repeat=n))
        alg = RawTable(f, draw(st.dictionaries(st.sampled_from(keys), vec, max_size=12)))
        evaluate = alg.evaluate
    mode = draw(st.sampled_from(["exhaustive", "sampled", "listed"]))
    if mode == "listed":
        index = st.integers(0, d - 1)
        runs = draw(st.lists(st.tuples(st.tuples(*[index] * n),
                                       st.lists(st.tuples(*[index] * (n - 1)),
                                                min_size=1, max_size=4)),
                             min_size=1, max_size=12))
        cases = [(xs, ys) for xs, yss in runs for ys in yss]
    else:
        cases = list(_fi_cases(range(d), n, mode, samples=draw(st.integers(1, 60)),
                               seed=draw(st.integers(0, 99))))
    return alg, evaluate, cases


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fi_problems())
def test_scan_matches_the_oracle_on_random_tables(problem):
    alg, evaluate, cases = problem
    want = [(xs, ys, res) for xs, ys in cases
            for res in [oracle_residual(alg, xs, ys)] if res]
    assert _fi_scan(evaluate, alg.field, cases) == (len(cases), want[:MAX_WITNESSES])


@st.composite
def alternating_tables(draw):
    """A sparse alternating table of arity 2 to 4 and dimension up to n + 2
    over F_7, Q or Q(i), constants keyed by increasing tuples."""
    f = draw(st.sampled_from([PrimeField(7), QQ, QI]))
    n = draw(st.integers(2, 4))
    d = draw(st.integers(n, n + 2))
    keys = list(itertools.combinations(range(d), n))
    vec = st.dictionaries(st.integers(0, d - 1), scalars(f), max_size=2)
    return FiniteNLieAlgebra(f, d, n, draw(st.dictionaries(st.sampled_from(keys), vec,
                                                            max_size=6)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alternating_tables(), st.data())
def test_table_scan_matches_the_oracle(L, data):
    # the table's ad rows, sign-completed for odd tails, against the
    # definition: exhaustive, on a chunk of x-tuples as a child process
    # scans it, and sampled (repeated and unsorted tuples)
    n, d = L.arity, L.dim

    def oracle(cases):
        cases = list(cases)
        want = [(xs, ys, res) for xs, ys in cases
                for res in [oracle_residual(L, xs, ys)] if res]
        return len(cases), want[:MAX_WITNESSES]

    assert _fi_scan_table(L, None) == oracle(_fi_cases(range(d), n))
    xtuples = list(itertools.combinations(range(d), n))
    lo = data.draw(st.integers(0, len(xtuples)))
    chunk = xtuples[lo:data.draw(st.integers(lo, len(xtuples)))]
    assert _fi_scan_table(L, chunk) == oracle(_fi_cases(range(d), n, xs=chunk))
    samples, seed = data.draw(st.integers(1, 60)), data.draw(st.integers(0, 99))
    assert (_fi_scan_table(L, None, "sampled", samples, seed)
            == oracle(_fi_cases(range(d), n, "sampled", samples, seed)))


def test_tabulated_fi_reports_the_oracle_witnesses_on_the_mutated_control():
    L = build_context(get_bundled("control-mutated-quotient")).algebra
    checked, want = oracle_report(L, list(_fi_cases(range(L.dim), 3)))
    rep = verify_fundamental_identity(L)
    assert len(want) == MAX_WITNESSES
    assert (rep.checked, rep.failures) == (checked, want)


def test_forked_chunks_keep_the_witness_order(monkeypatch):
    # a mutated p = 7 quotient (33,124 cases): one process, then two forked
    # chunks of x-tuples (the chunk size lowered so that the cases split),
    # give the same report, witnesses first in enumeration order
    doc = get_bundled("laurent-quotient-p5")
    doc["field"]["p"] = doc["carrier"]["p"] = 7
    L = build_context(doc).algebra
    L = L.mutate_constant(max(L.constants), 0, L.field.one)
    monkeypatch.setattr(structure, "available_cores", lambda: 1)
    one = verify_fundamental_identity(L)
    monkeypatch.setattr(structure, "available_cores", lambda: 2)
    monkeypatch.setattr(structure, "FI_CASES_PER_PROCESS", 20_000)
    two = verify_fundamental_identity(L)
    assert one.checked == 33_124 and len(one.failures) == MAX_WITNESSES
    assert two == one


def test_fi_scan_memory_stays_lean(monkeypatch):
    # the scan reads the table's sparse ad rows (`ad_index`) and builds its
    # columns of the nonzero [h, ys] once: at p = 11 (d = 22) it peaks near
    # 0.97 MiB, ad index and columns included.  One core keeps the
    # scan in this process, where tracemalloc sees it
    monkeypatch.setattr(structure, "available_cores", lambda: 1)
    doc = get_bundled("laurent-quotient-p5")
    doc["field"]["p"] = doc["carrier"]["p"] = 11
    L = build_context(doc).algebra
    tracemalloc.start()
    try:
        rep = verify_fundamental_identity(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.checked == 355_740 and rep.passed
    assert peak < 1.5 * 2 ** 20, peak
