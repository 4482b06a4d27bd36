"""The one mod-p eliminator and the line decisions built on it, against exact
oracles.

The eliminator is compared with `linalg.SpanBuilder` over `PrimeField(p)`
(Python integers, no overflow) on matrices with planted rank deficiency, at
primes on both sides of every dtype boundary up to int64.  The tiered line decision is
compared with the fixed-point `ideal_closure` on algebras whose lines are all
proper (a nilpotent algebra) or all full (the simple A_4), written in a
seeded random basis so that no line is special.  The threaded certificate is
compared with a serial loop that decides one line at a time, at several
thread counts and chunk sizes, and, on an algebra whose lines fill many
full-size chunks, with itself on one thread.  Past what int64 holds, the
certificate is refused before any line is enumerated.
"""

import concurrent.futures
import itertools
import json
import os
import random
import sys
import threading
import time

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import trilie.structure as structure
from trilie.bundled import get_bundled
from trilie.cli import main
from trilie.documents import parse_document, render_document
from trilie.fields import PrimeField
from trilie.linalg import SpanBuilder, Subspace
from trilie.structure import (
    FiniteNLieAlgebra,
    available_cores,
    _canonical_line_chunks,
    _eliminate,
    _fits,
    _line_stacks,
    _matrix_algebra_basis,
    _perm_sign,
    _proper_lines,
    _reduce,
    _residue_dtype,
    certify_simplicity,
    ideal_closure,
    is_ideal,
)

PRIMES = [2, 3, 89, 181, 191, 251, 65521, 2 ** 31 - 1]


def span(p, rows, width):
    sb = SpanBuilder(PrimeField(p), width)
    for row in rows:
        sb.add([int(x) for x in row])
    return sb.to_subspace()


@st.composite
def planted_batches(draw):
    """(p, batch): each matrix is an r x k times a k x c matrix mod p, so its
    rank is at most k; k runs from 0 to min(r, c)."""
    p = draw(st.sampled_from(PRIMES))
    n, r, c = (draw(st.integers(1, m)) for m in (4, 7, 7))
    entry = st.integers(0, p - 1)
    batch = []
    for _ in range(n):
        k = draw(st.integers(0, min(r, c)))
        A = [[draw(entry) for _ in range(k)] for _ in range(r)]
        C = [[draw(entry) for _ in range(c)] for _ in range(k)]
        batch.append([[sum(A[i][t] * C[t][j] for t in range(k)) % p for j in range(c)]
                      for i in range(r)])
    return p, batch


@settings(max_examples=300, deadline=None)
@given(planted_batches())
def test_eliminator_ranks_and_rows_match_span_builder(case):
    p, batch = case
    for m in batch:
        reduced = np.array(m, dtype=_residue_dtype(p, 1))
        piv = _eliminate(reduced, p)
        want = span(p, m, len(m[0]))
        assert piv.sum() == want.dim
        # the pivot rows, as reduced, span the row space of the input
        assert span(p, reduced[piv], len(m[0])) == want


def test_eliminator_keeps_leading_rows_with_distinct_first_columns():
    # what _matrix_algebra_basis relies on: its basis rows, in any order
    p = 251
    rng = np.random.default_rng(3)
    lead = np.triu(rng.integers(1, p, size=(4, 6)))[[2, 0, 3, 1]]
    rest = rng.integers(0, p, size=(5, 6))
    W = np.concatenate([lead, rest]).astype(_residue_dtype(p, 1))
    pivots = _eliminate(W, p)
    assert pivots[:4].all() and pivots.sum() == 6
    assert (W[:4] == lead).all()


@pytest.mark.parametrize("p, terms, dtype", [
    (89, 4, np.int16),      # A_4 over F_89: 4 * 88^2 = 30,976
    (5, 10, np.int16),      # the p = 5 quotient
    (181, 1, np.int16), (191, 1, np.int32), (46341, 1, np.int32),
    (46349, 1, np.int64), (2 ** 31 - 1, 2, np.int64),
])
def test_residue_dtype_is_the_narrowest_that_holds_the_sum(p, terms, dtype):
    assert _residue_dtype(p, terms) == np.dtype(dtype)


@pytest.mark.parametrize("p, terms", [(2 ** 31 - 1, 3), (4294967291, 1)])
def test_residue_dtype_refuses_a_sum_past_int64(p, terms):
    with pytest.raises(AssertionError):
        _residue_dtype(p, terms)


@pytest.mark.parametrize("dtype, p", [(np.int16, 181), (np.int32, 46337), (np.int64, 3037000493)])
def test_reduce_matches_numpy_mod_over_the_kernels_value_range(dtype, p):
    # p is the largest prime whose one-product reduction the dtype admits;
    # the kernel's values are what `_fits` admits: |x| + p - 1 <= max
    dtype = np.dtype(dtype)
    assert _fits(dtype, p, 1) and not _fits(dtype, sympy.nextprime(p), 1)
    hi = int(np.iinfo(dtype).max)
    lo = -(hi - (p - 1))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.integers(lo, hi), max_size=40))
    def check(values):
        x = np.array(values + [lo, hi, lo + 1, hi - 1, 0, -1, p, -p, (p - 1) ** 2,
                               -(p - 1) ** 2], dtype=dtype)
        want = x % p
        assert _reduce(x, p) is x and (x == want).all()

    check()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 251, 65521]), st.integers(2, 4), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_matrix_algebra_basis_spans_the_generated_algebra(p, d, count, rnd):
    gens = [np.eye(d, dtype=np.int64)]
    for _ in range(count):
        # sparse generators, so that proper subalgebras come up
        g = np.zeros((d, d), dtype=np.int64)
        for _ in range(rnd.randrange(1, d + 1)):
            g[rnd.randrange(d), rnd.randrange(d)] = rnd.randrange(p)
        gens.append(g)
    stack = np.array(gens, dtype=_residue_dtype(p, d)) % p
    got = span(p, _matrix_algebra_basis(stack, p).reshape(-1, d * d), d * d)
    # oracle: words in the generators, in Python integers, until closed
    sb, queue = SpanBuilder(PrimeField(p), d * d), []
    for g in gens:
        if sb.add([int(x) % p for x in g.reshape(-1)]):
            queue.append(g.astype(object) % p)
    while queue:
        m = queue.pop()
        for g in gens[1:]:
            prod = (m @ g.astype(object)) % p
            if sb.add([int(x) for x in prod.reshape(-1)]):
                queue.append(prod)
    assert got == sb.to_subspace()


# ---------------------------------------------------------------------------
# line decisions
# ---------------------------------------------------------------------------

def nilpotent(p):
    """[e1, e2, e3] = e0: every ideal closure is span{v, e0}, so proper."""
    return FiniteNLieAlgebra(PrimeField(p), 4, 3, {(1, 2, 3): {0: 1}})


def a4(p):
    """Filippov's simple A_4: [e_i, e_j, e_k] = eps_ijkl e_l."""
    return FiniteNLieAlgebra(PrimeField(p), 4, 3, {
        key: {l: _perm_sign(key + (l,)) % p}
        for key in itertools.combinations(range(4), 3)
        for l in set(range(4)) - set(key)})


def in_random_basis(L, seed):
    """L written in the basis f_a = sum_j T[a][j] e_j for a seeded random
    invertible T."""
    F, d, rng = L.field, L.dim, random.Random(seed)
    while True:
        T = [[rng.randrange(F.p) for _ in range(d)] for _ in range(d)]
        aug = SpanBuilder(F, 2 * d)
        for a in range(d):
            aug.add(T[a] + [int(a == b) for b in range(d)])
        if aug.pivots == list(range(d)):
            break
    Tinv = [row[d:] for row in aug.rows]      # [T | I] reduces to [I | T^-1]
    f = [{j: c for j, c in enumerate(row) if c} for row in T]
    constants = {}
    for key in itertools.combinations(range(d), L.arity):
        y = L.bracket_sparse([f[a] for a in key])
        constants[key] = {m: sum(y.get(j, 0) * Tinv[j][m] for j in range(d)) % F.p
                          for m in range(d)}
    return FiniteNLieAlgebra(F, d, L.arity, constants)


def dense_generators(L):
    """The identity, then per increasing (n-1)-tuple `rest` in order the d x d
    matrix of e_a -> [e_a, *rest] read off `bracket_indices`, zero or not."""
    d = L.dim
    mats = [[[int(i == j) for j in range(d)] for i in range(d)]]
    for rest in itertools.combinations(range(d), L.arity - 1):
        m = [[0] * d for _ in range(d)]
        for a in range(d):
            for l, c in L.bracket_indices((a,) + rest).items():
                m[l][a] = c
        mats.append(m)
    return mats


@pytest.mark.parametrize("make, zero_rests", [
    pytest.param(lambda: in_random_basis(a4(89), seed=89), 0, id="a4-f89-random-basis"),
    pytest.param(lambda: parse_document(render_document(
        get_bundled("laurent-quotient-p5"))).algebra, 0, id="laurent-quotient-p5"),
    pytest.param(lambda: a4_plus_center(89), 4, id="a4+center-f89"),
])
def test_generator_stack_is_the_ad_maps_of_bracket_indices(make, zero_rests):
    L = make()
    want = dense_generators(L)
    assert sum(not any(map(any, m)) for m in want) == zero_rests
    stacks = _line_stacks(L)
    gens = next(s for s in stacks if len(s) == len(want))
    assert gens.tolist() == want
    # the first stack is the identity and the first d + 2 ad maps, or all of them
    assert stacks[0].tolist() == want[:min(L.dim + 3, len(want))]


@pytest.mark.parametrize("p", [251, 1009])
@pytest.mark.parametrize("make, proper", [(nilpotent, True), (a4, False)])
def test_line_decisions_match_ideal_closure(p, make, proper):
    L = in_random_basis(make(p), seed=p)
    stacks = _line_stacks(L)
    V = next(_canonical_line_chunks(p, L.dim, 4000, stacks[0].dtype))
    got, settled = _proper_lines(stacks, V, p)
    got = set(got.tolist())
    assert got == (set(range(len(V))) if proper else set())
    # only the last, exact stack settles a proper line
    assert all(settled[i] == len(stacks) - 1 for i in got)
    for i in range(len(V)):
        closure = ideal_closure(L, Subspace(L.field, L.dim, [[int(x) for x in V[i]]]))
        assert (closure.dim < L.dim) == (i in got), i


# the largest prime p with 16 (p-1)^2 + p - 1 <= 2^63 - 1: at d = 4 a stack
# holds at most 16 matrices, and no sum of the certificate has more terms
INT64_D4_PRIME = 759250111


@pytest.mark.parametrize("p", [251, INT64_D4_PRIME])
def test_certificate_stops_at_the_first_line_of_a_nilpotent_algebra(p):
    L = in_random_basis(nilpotent(p), seed=p)
    cert = certify_simplicity(L, budget=p ** 3 + p ** 2 + p + 1)
    assert cert.verdict == "non-simple" and cert.lines_checked == 1
    first = [1, 0, 0, 0]
    assert cert.witness == ideal_closure(L, Subspace(L.field, 4, [first]))
    assert cert.witness.dim == 2 and is_ideal(L, cert.witness)


def a4_document(p):
    """A_4 over F_p as mutations of the zero wedge bracket on F_p[Z_4], with
    one simplicity campaign."""
    return {
        "version": 1, "name": f"a4-f{p}", "description": "A_4", "meta": {},
        "field": {"kind": "prime", "p": p},
        "carrier": {"shape": "group", "torsion": [4]},
        "maps": {},
        "bracket": {"form": "group-wedge", "hom": {"torsion": ["0"]}, "mutations": [
            {"args": list(key), "out": l, "add": str(c % p)}
            for key, vec in a4(p).constants.items() for l, c in vec.items()]},
        "basis": {"kind": "carrier"},
        "campaigns": [{"name": "simplicity", "check": "simplicity", "expect": "simple"}],
    }


def test_a_prime_past_the_int64_sums_is_refused_before_any_line(tmp_path, monkeypatch,
                                                               capsys):
    p = sympy.nextprime(INT64_D4_PRIME)
    assert sympy.prevprime(p) == INT64_D4_PRIME
    int64 = np.dtype(np.int64)
    assert _fits(int64, INT64_D4_PRIME, 16) and not _fits(int64, p, 16)

    def no_lines(*args):
        raise AssertionError("a line was enumerated")

    monkeypatch.setattr(structure, "_line_stacks", no_lines)
    monkeypatch.setattr(structure, "_canonical_line_chunks", no_lines)
    lines = p ** 3 + p ** 2 + p + 1
    for L in (in_random_basis(nilpotent(p), seed=p), a4(p)):
        with pytest.raises(structure.BudgetExceeded, match="past the int64 maximum"):
            certify_simplicity(L, budget=lines)
    # a budget that the lines exceed is still the budget's refusal
    with pytest.raises(structure.BudgetExceeded, match="budget is 1$"):
        certify_simplicity(a4(p), budget=1)
    # from the command line: a refused campaign, exit 2
    doc = tmp_path / "a4.json"
    doc.write_text(render_document(a4_document(p)))
    assert main(["verify", str(doc), "--budget", str(lines), "--out-dir", str(tmp_path)]) == 2
    assert "REFUSED" in capsys.readouterr().out
    report = json.loads((tmp_path / f"a4-f{p}.report.json").read_text())
    (result,) = report["campaigns"]
    assert result["verdict"] == "refused" and "int64" in result["notes"]["reason"]


# the largest prime p with 9 (p-1)^2 + p - 1 <= 2^63 - 1, for d = 3, and with
# 25 (p-1)^2 + p - 1 <= 2^63 - 1, for d = 5
INT64_D3_PRIME, INT64_D5_PRIME = 1012333499, 607400093


def test_line_enumeration_at_the_int64_bound():
    p = INT64_D3_PRIME
    int64 = np.dtype(np.int64)
    assert _fits(int64, p, 9) and not _fits(int64, sympy.nextprime(p), 9)
    V = next(_canonical_line_chunks(p, 3, 3, int64))
    assert V.dtype == int64 and V.tolist() == [[1, 0, 0], [1, 0, 1], [1, 0, 2]]


# ---------------------------------------------------------------------------
# the threaded line pipeline
# ---------------------------------------------------------------------------

def a4_plus_center(p, s=1):
    """A_4 (+) F z in the basis e_0 = u_0 + s z, e_1..e_3 = u_1..u_3, e_4 = z,
    with z central: e_0 generates everything, and a line is proper exactly
    when its z coordinate s x_0 + x_4 or its u part is zero, so the first
    proper line is e_0 - s e_4, the line numbered -s mod p (from 0)."""
    constants = {}
    for key in itertools.combinations(range(4), 3):
        (l,) = set(range(4)) - set(key)
        sign = _perm_sign(key + (l,)) % p
        # u_0 = e_0 - s e_4
        constants[key] = {0: sign, 4: -s * sign % p} if l == 0 else {l: sign}
    return FiniteNLieAlgebra(PrimeField(p), 5, 3, constants)


def laurent_quotient_p3():
    return parse_document(render_document(get_bundled("laurent-quotient-p3"))).algebra


def serial_certificate(L):
    """(verdict, lines_checked, witness, lines per stack, first proper line)
    of a plain loop that decides one line at a time."""
    p, d = L.field.p, L.dim
    stacks = _line_stacks(L)
    counts = [0] * len(stacks)
    checked = 0
    for V in _canonical_line_chunks(p, d, 4096, stacks[0].dtype):
        for line in V:
            proper, settled = _proper_lines(stacks, line[None], p)
            checked += 1
            counts[settled[0]] += 1
            if proper.size:
                line = [int(x) for x in line]
                witness = ideal_closure(L, Subspace(L.field, d, [line]))
                return "non-simple", checked, witness, counts, line
    return "simple", checked, None, counts, None


PIPELINE_CASES = {
    "a4-p5": (lambda: a4(5), "simple", 156),
    "a4-p7-random-basis": (lambda: in_random_basis(a4(7), seed=7), "simple", 400),
    "laurent-quotient-p3": (laurent_quotient_p3, "simple", 364),
    "a4+center-p7": (lambda: a4_plus_center(7), "non-simple", 7),
}


@pytest.fixture(scope="module", params=sorted(PIPELINE_CASES))
def pipeline_case(request):
    make, verdict, lines = PIPELINE_CASES[request.param]
    L = make()
    want = serial_certificate(L)
    assert want[:2] == (verdict, lines)
    return L, want


def small_chunks(monkeypatch, size):
    """Make the certificate enumerate its lines in chunks of `size` on the
    (patched) available cores, and return the list that records the size of
    each thread pool it starts."""
    monkeypatch.setattr(structure, "LINES_IN_FLIGHT", size * structure.available_cores())
    return recorded_pools(monkeypatch)


def recorded_pools(monkeypatch):
    """The list that records the `max_workers` of each thread pool started."""
    real, pools = concurrent.futures.ThreadPoolExecutor, []

    def pool(max_workers):
        pools.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
    return pools


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("size", [2, 5])
def test_pipeline_certificate_matches_a_serial_loop(pipeline_case, workers, size,
                                                    monkeypatch):
    L, (verdict, lines, witness, counts, line) = pipeline_case
    monkeypatch.setattr(structure, "available_cores", lambda: workers)
    pools = small_chunks(monkeypatch, size)
    real = structure._proper_lines

    def witness_chunk_last(stacks, V, p):
        # the chunk that holds the first proper line finishes after the
        # chunks behind it, which the certificate must not take first
        if line is not None and (V == line).all(axis=1).any():
            time.sleep(0.05)
        return real(stacks, V, p)

    monkeypatch.setattr(structure, "_proper_lines", witness_chunk_last)
    cert = certify_simplicity(L)
    assert (cert.verdict, cert.lines_checked, cert.witness) == (verdict, lines, witness)
    assert cert.notes["lines_per_stack"] == counts
    assert sum(counts) == lines
    assert pools == [workers]
    if witness is not None:
        assert witness.dim == 4 and is_ideal(L, witness)


def test_pipeline_with_more_threads_than_cores_switching_often(monkeypatch):
    L = laurent_quotient_p3()
    verdict, lines, _, counts, _ = serial_certificate(L)
    monkeypatch.setattr(structure, "available_cores", lambda: 8)
    pools = small_chunks(monkeypatch, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cert = certify_simplicity(L)
    finally:
        sys.setswitchinterval(interval)
    assert (cert.verdict, cert.lines_checked) == (verdict, lines) == ("simple", 364)
    assert cert.notes["lines_per_stack"] == counts
    assert pools == [8]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pipeline_keeps_at_most_one_chunk_per_thread_in_flight(workers, monkeypatch):
    monkeypatch.setattr(structure, "available_cores", lambda: workers)
    real_chunks, real_stripes = structure._canonical_line_chunks, structure._decide_stripes
    lock, drawn, done, sizes, ahead = threading.Lock(), [0], [0], [], []

    def chunks(p, d, chunk, dtype):
        sizes.append((d, chunk))
        for U in real_chunks(p, d, 16, dtype):
            with lock:
                ahead.append(drawn[0] - done[0])
                drawn[0] += 1
            yield U

    def slow_stripes(stacks, U, p):
        time.sleep(0.005)
        out = real_stripes(stacks, U, p)
        with lock:
            done[0] += 1
        return out

    monkeypatch.setattr(structure, "_canonical_line_chunks", chunks)
    monkeypatch.setattr(structure, "_decide_stripes", slow_stripes)
    # 25,260 lines, decided in stripes of 29 that start at (u, 0) for the 871
    # lines u of F_29^3: a chunk holds no more than one core's share of the
    # lines, so every core gets a thread
    cert = certify_simplicity(a4(29))
    assert cert.verdict == "simple" and cert.lines_checked == 25260
    # min(24,576 // workers * 16 // 125, ceil(25,260 / workers) // 29)
    # stripe starts per chunk, and never a chunk drawn past the window (871
    # stripe starts make 55 chunks of 16)
    assert sizes == [(3, {1: 871, 2: 435, 3: 290}[workers])]
    assert drawn[0] == done[0] == 55
    assert max(ahead) == workers - 1


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("make, lines", [pytest.param(lambda: a4(5), 156, id="a4-p5"),
                                         pytest.param(laurent_quotient_p3, 364,
                                                      id="laurent-quotient-p3")])
def test_fewer_lines_than_one_chunk_start_one_worker_thread(make, lines, cores, monkeypatch):
    # laurent-quotient-p3's 364 lines make one chunk
    monkeypatch.setattr(structure, "available_cores", lambda: cores)
    real_lines, pools, threads = structure._proper_lines, recorded_pools(monkeypatch), set()

    def lines_on_a_thread(stacks, V, p):
        threads.add(threading.current_thread())
        return real_lines(stacks, V, p)

    monkeypatch.setattr(structure, "_proper_lines", lines_on_a_thread)
    cert = certify_simplicity(make())
    assert (cert.verdict, cert.lines_checked) == ("simple", lines)
    assert pools == [1] and len(threads) == 1 and threading.main_thread() not in threads


def failing_chunk(monkeypatch, index):
    """Make the call of `_proper_lines` on chunk `index` (from 0) raise."""
    real, calls = structure._proper_lines, itertools.count()

    def failing(stacks, V, p):
        if next(calls) == index:
            raise ZeroDivisionError(f"chunk {index}")
        return real(stacks, V, p)

    monkeypatch.setattr(structure, "_proper_lines", failing)


def test_chunk_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(structure, "available_cores", lambda: 3)
    pools = small_chunks(monkeypatch, 4)
    failing_chunk(monkeypatch, 5)
    with pytest.raises(ZeroDivisionError, match="chunk 5"):
        certify_simplicity(a4(5))
    assert pools == [3]


# an algebra whose lines fill many chunks at every thread count: its first
# proper line is line 30,000, in the second chunk on one thread and past the
# first in-flight window on 2, 3 or 8
FULL_SIZE_P = 65521


def full_size_case(monkeypatch):
    """(algebra, its certificate on one thread)."""
    L = a4_plus_center(FULL_SIZE_P, s=-30000)
    monkeypatch.setattr(structure, "available_cores", lambda: 1)
    want = certify_simplicity(L, budget=FULL_SIZE_P ** 5)
    assert (want.verdict, want.lines_checked) == ("non-simple", 30001)
    return L, want


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_pipeline_on_full_size_chunks_matches_one_thread(workers, monkeypatch):
    L, want = full_size_case(monkeypatch)
    line, real = np.array([1, 0, 0, 0, 30000]), structure._proper_lines

    def witness_chunk_last(stacks, V, p):
        if (V == line).all(axis=1).any():
            time.sleep(0.05)
        return real(stacks, V, p)

    monkeypatch.setattr(structure, "_proper_lines", witness_chunk_last)
    monkeypatch.setattr(structure, "available_cores", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = certify_simplicity(L, budget=FULL_SIZE_P ** 5)
    finally:
        sys.setswitchinterval(interval)
    assert (got.verdict, got.lines_checked, got.witness, got.notes) == \
        (want.verdict, want.lines_checked, want.witness, want.notes)


def test_full_size_chunk_error_reaches_the_caller_from_threads(monkeypatch):
    L, _ = full_size_case(monkeypatch)
    monkeypatch.setattr(structure, "available_cores", lambda: 3)
    failing_chunk(monkeypatch, 2)
    before = set(threading.enumerate())
    with pytest.raises(ZeroDivisionError, match="chunk 2"):
        certify_simplicity(L, budget=FULL_SIZE_P ** 5)
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("make, error", [
    (lambda: a4(5), False), (lambda: a4_plus_center(7), False), (lambda: a4(5), True)])
def test_no_worker_thread_outlives_the_call(make, error, monkeypatch):
    monkeypatch.setattr(structure, "available_cores", lambda: 3)
    pools = small_chunks(monkeypatch, 4)
    if error:
        failing_chunk(monkeypatch, 5)
    before = set(threading.enumerate())
    try:
        certify_simplicity(make())
    except ZeroDivisionError:
        assert error
    assert set(threading.enumerate()) == before
    assert pools == [3]


@pytest.mark.parametrize("workers", [2, 3])
def test_int64_rows_give_the_same_certificate_on_threads(workers, monkeypatch):
    # p the largest prime int64 admits at d = 5: int64 rows whose sums come
    # within p - 1 of its maximum, lines decided one at a time (a stripe of
    # p lines is longer than the lines in flight), and the first proper line
    # is line 2,000, some chunks in
    p = INT64_D5_PRIME
    L = a4_plus_center(p, s=-2000)
    S = _line_stacks(L)[0]
    assert S.dtype == np.int64 and not structure._striped(p, 5, len(S))
    # the witness is in the first 4,096 lines: enumerate no more than those
    real = structure._canonical_line_chunks
    monkeypatch.setattr(structure, "_canonical_line_chunks", lambda p, d, chunk, dtype:
                        itertools.islice(real(p, d, chunk, dtype), -(-4096 // chunk)))
    monkeypatch.setattr(structure, "available_cores", lambda: 1)
    want = certify_simplicity(L, budget=p ** 5)
    assert (want.verdict, want.lines_checked) == ("non-simple", 2001)
    assert sum(want.notes["lines_per_stack"]) == 2001 and want.witness.dim == 4
    assert is_ideal(L, want.witness)
    monkeypatch.setattr(structure, "available_cores", lambda: workers)
    got = certify_simplicity(L, budget=p ** 5)
    assert (got.verdict, got.lines_checked, got.witness, got.notes) == \
        (want.verdict, want.lines_checked, want.witness, want.notes)


def test_available_cores_follows_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert available_cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert available_cores() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert available_cores() == 6
