"""The sketch pass of the line decisions, against exact oracles.

`_proper_lines` tries each row stack S first through its sketch T = R.S mod
p, d combinations of S's matrices, and sends only the lines whose T v is
singular on to S.  The batched nonsingularity test it runs on T is compared
with `linalg.SpanBuilder`; the line decisions are compared, on random
alternating tables in random bases, with a sketch-free reference (each line's
images under each full stack through `_eliminate`) and with `ideal_closure`; and with an all-zero
R, so that every line falls through, the threaded certificates stay those
of the sketched run.

Where p > d + 1 the certificate enumerates stripe starts v0, each standing
for the p lines v0 + t e_{d-1}, which the first stack's sketch decides from
d + 1 determinants; only the lines where they vanish become rows, for a
per-line sketches and the stacks.  The determinant kernel is compared with
sympy; the stripe blocks plus e_{d-1} with a brute-force enumeration of the
lines; the stripe decisions with the same reference, with the per-line path
and with `ideal_closure`, also with either sketch all zero; and the
threaded stripe certificate, simple or with its witness at a stripe's
first, middle or last line or past the first blocks, with the per-line
certificate and a serial loop.
"""

import contextlib
import functools
import itertools
import threading
import time
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import trilie.structure as structure
from trilie.fields import PrimeField
from trilie.linalg import Subspace
from trilie.structure import (
    FiniteNLieAlgebra,
    _canonical_line_chunks,
    _determinants,
    _eliminate,
    _line_stacks,
    _nonsingular,
    _decide_lines,
    _decide_stripes,
    _line_tasks,
    _proper_lines,
    _reduce,
    _residue_dtype,
    _sketch,
    _sketch_rows,
    _striped,
    certify_simplicity,
    ideal_closure,
)

from test_rank_kernel import (PIPELINE_CASES, a4, a4_plus_center, in_random_basis,
                              laurent_quotient_p3, planted_batches, serial_certificate, span)


# ---------------------------------------------------------------------------
# the nonsingularity test
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(planted_batches())
def test_nonsingular_matches_span_builder(case):
    p, batch = case
    # the square top-left corner of each planted matrix, batch innermost
    c = min(len(batch[0]), len(batch[0][0]))
    square = [[row[:c] for row in m[:c]] for m in batch]
    W = np.array(square, dtype=_residue_dtype(p, 1)).transpose(1, 2, 0).copy()
    got = _nonsingular(W, p)
    assert got.tolist() == [span(p, m, c).dim == c for m in square]


# ---------------------------------------------------------------------------
# the sketch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make, p, sketched", [
    # A_4: 7 generators, then the 16 basis matrices of M_4(F)
    (lambda: a4(89), 89, [True, True]),
    (lambda: a4(5), 5, [True, True]),
    # d = 6 over F_3: stacks of 9, 16 and 36 matrices
    (laurent_quotient_p3, 3, [False, True, True]),
])
def test_sketch_is_a_combination_of_the_stack_where_it_can_pay(make, p, sketched):
    stacks = _line_stacks(make())
    d = stacks[0].shape[1]
    assert [_sketch(S, p) is not None for S in stacks] == sketched
    for S in stacks:
        r, T = len(S), _sketch(S, p)
        assert (d / r + 1 / (p - 1) < 1) == (T is not None)
        if T is None:
            continue
        R = _sketch_rows(p, d, r)
        assert T.shape == (d, d, d) and T.dtype == S.dtype
        want = np.einsum("kr,rij->kij", R.astype(object), S.astype(object)) % p
        assert (T == want).all()
    assert not _sketch_rows(p, d, len(stacks[-1])).flags.writeable


def reference_lines(stacks, V, p):
    """`_proper_lines` without sketches: each stack's own rank decides."""
    d = V.shape[1]
    left = np.arange(len(V))
    settled = np.full(len(V), len(stacks) - 1, dtype=np.int8)
    for i, S in enumerate(stacks):
        W = _reduce(np.einsum("rij,bj->bri", S, V[left]), p)
        full = np.array([_eliminate(w, p).sum() == d for w in W], dtype=bool)
        settled[left[full]] = i
        left = left[~full]
    return left, settled


@st.composite
def alternating_tables(draw):
    """(algebra, lines): a random alternating table over F_p in a random basis,
    sparse enough that proper ideals come up, and up to 40 lines: the first
    canonical ones, then random ones."""
    p = draw(st.sampled_from([3, 5, 7, 89]))
    n = draw(st.integers(2, 4))
    d = draw(st.integers(n, 6))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    rnd = draw(st.randoms(use_true_random=False))
    constants = {}
    for key in itertools.combinations(range(d), n):
        if rnd.random() < density:
            constants[key] = {l: rnd.randrange(1, p) for l in range(d)
                              if rnd.random() < density}
    L = FiniteNLieAlgebra(PrimeField(p), d, n, constants)
    L = in_random_basis(L, seed=rnd.randrange(2 ** 32))
    dtype = _residue_dtype(p, d)
    first = next(_canonical_line_chunks(p, d, draw(st.integers(1, 20)), dtype))
    drawn = []
    for _ in range(draw(st.integers(0, 20))):
        v = [rnd.randrange(p) for _ in range(d)]
        k = next((i for i, x in enumerate(v) if x), None)
        if k is not None:
            inv = pow(v[k], -1, p)
            drawn.append([x * inv % p for x in v])
    V = np.concatenate([first, np.array(drawn, dtype=dtype).reshape(-1, d)])
    return L, V


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alternating_tables())
def test_line_decisions_match_a_sketch_free_reference_and_ideal_closure(case):
    L, V = case
    p, d = L.field.p, L.dim
    stacks = _line_stacks(L)
    proper, settled = _proper_lines(stacks, V, p)
    want_proper, want_settled = reference_lines(stacks, V, p)
    assert proper.tolist() == want_proper.tolist()
    assert settled.tolist() == want_settled.tolist()
    for i, v in enumerate(V):
        closure = ideal_closure(L, Subspace(L.field, d, [[int(x) for x in v]]))
        assert (closure.dim < d) == (i in proper), i


# ---------------------------------------------------------------------------
# every line through the full stacks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PIPELINE_CASES))
@pytest.mark.parametrize("workers", [1, 2])
def test_all_zero_sketch_gives_the_same_certificates(name, workers, monkeypatch):
    make, verdict, lines = PIPELINE_CASES[name]
    L = make()
    monkeypatch.setattr(structure, "available_cores", lambda: workers)
    monkeypatch.setattr(structure, "LINES_IN_FLIGHT", 5 * workers)
    want = certify_simplicity(L)
    assert (want.verdict, want.lines_checked) == (verdict, lines)

    real, verdicts = structure._nonsingular, []

    def recorded(W, p):
        # a zero sketch makes zero matrices; a stack's never are (it holds
        # the identity)
        zero = not W.any()
        out = real(W, p)
        if zero:
            verdicts.append(out)
        return out

    monkeypatch.setattr(structure, "_sketch_rows",
                        lambda p, d, r, seed=0: np.zeros((d, r), dtype=np.int64))
    monkeypatch.setattr(structure, "_nonsingular", recorded)
    got = certify_simplicity(L)
    assert (got.verdict, got.lines_checked, got.witness, got.notes) == \
        (want.verdict, want.lines_checked, want.witness, want.notes)
    # the sketch ran, and settled nothing
    assert verdicts and not any(v.any() for v in verdicts)


# ---------------------------------------------------------------------------
# the determinant kernel
# ---------------------------------------------------------------------------

# primes on both sides of each dtype boundary of `_fits(dtype, p, 1)`:
# p(p - 1) <= 32,767 up to 181, <= 2^31 - 1 up to 46,337, and <= 2^63 - 1 up
# to 3,037,000,493, the largest prime the kernels admit
DETERMINANT_PRIMES = [2, 3, 181, 191, 46337, 46349, 3037000493]


@st.composite
def square_batches(draw):
    """(p, batch) of c x c matrices mod p: each a c x k times k x c product,
    singular for k < c, or a row permutation of a triangle with a nonzero
    diagonal, nonsingular and needing row swaps; then maybe a zero column."""
    p = draw(st.sampled_from(DETERMINANT_PRIMES))
    c = draw(st.integers(1, 6))
    entry = st.integers(0, p - 1)
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            k = draw(st.integers(0, c))
            A = [[draw(entry) for _ in range(k)] for _ in range(c)]
            C = [[draw(entry) for _ in range(c)] for _ in range(k)]
            m = [[sum(A[i][t] * C[t][j] for t in range(k)) % p for j in range(c)]
                 for i in range(c)]
        else:
            m = [[draw(st.integers(1, p - 1)) if i == j else draw(entry) if i < j else 0
                  for j in range(c)] for i in range(c)]
            m = [m[i] for i in draw(st.permutations(range(c)))]
        if draw(st.booleans()):
            zero = draw(st.integers(0, c - 1))
            m = [[0 if j == zero else x for j, x in enumerate(row)] for row in m]
        batch.append(m)
    return p, batch


@settings(max_examples=300, deadline=None)
@given(square_batches())
def test_determinants_match_sympy(case):
    p, batch = case
    dtype = _residue_dtype(p, 1)
    W = np.array(batch, dtype=dtype).transpose(1, 2, 0).copy()
    got = _determinants(W, p)
    assert got.dtype == dtype
    assert [int(x) for x in got] == [sympy.Matrix(m).det() % p for m in batch]


def test_determinants_refuse_a_dtype_too_narrow_for_the_update():
    # 191 * 190 = 36,290 does not fit int16; 181 * 180 = 32,580 does
    W = np.array([[[1], [180]], [[180], [1]]], dtype=np.int16)
    with pytest.raises(AssertionError):
        _determinants(W.copy(), 191)
    assert _determinants(W.copy(), 181).tolist() == [(1 - 180 * 180) % 181]


# ---------------------------------------------------------------------------
# stripes
# ---------------------------------------------------------------------------

def canonical_lines(p, d):
    """The canonical lines of F_p^d in enumeration order, lazily, by brute
    force: pivot position first, then the tail lexicographically."""
    return ([0] * k + [1] + list(tail) for k in range(d)
            for tail in itertools.product(range(p), repeat=d - 1 - k))


def stripe_lines(U, p):
    """The lines (u, t), t = 0..p-1, of the stripes that start at (u, 0) for
    the rows u of U, in order."""
    V = np.repeat(U, p, axis=0)
    return np.concatenate([V, np.tile(np.arange(p, dtype=U.dtype), len(U))[:, None]], axis=1)


@st.composite
def enumerations(draw):
    """(p, d, block size): d + 1 < p, at most 8,011 lines, and a block of 1,
    about p, or up to all the lines."""
    p = draw(st.sampled_from([5, 7, 11, 13, 89]))
    d = draw(st.integers(2, 3 if p in (5, 89) else 4))
    lines = (p ** d - 1) // (p - 1)
    size = draw(st.sampled_from([1, p - 1, p, p + 1, 2 * p, lines - 1, lines])
                | st.integers(1, lines + p))
    return p, d, size


@settings(max_examples=150, deadline=None)
@given(enumerations())
def test_stripe_blocks_and_the_last_line_list_every_line_once_in_order(case):
    p, d, size = case
    dtype, want = _residue_dtype(p, d), list(canonical_lines(p, d))
    # per line: blocks of `size` lines that run across the pivot blocks
    tasks = list(_line_tasks(p, d, size, dtype, False))
    assert all(decide is _decide_lines for decide, _ in tasks)
    assert [len(V) for _, V in tasks[:-1]] == [size] * (len(tasks) - 1)
    assert np.concatenate([V for _, V in tasks]).tolist() == want
    # in stripes: blocks of size // p stripe starts (u, 0), then e_{d-1}
    tasks = list(_line_tasks(p, d, p * max(1, size // p), dtype, True))
    *stripes, (last_decide, last) = tasks
    assert all(decide is _decide_stripes for decide, _ in stripes)
    assert [len(U) for _, U in stripes[:-1]] == [max(1, size // p)] * (len(stripes) - 1)
    assert last_decide is _decide_lines and last.tolist() == [want[-1]] == [[0] * (d - 1) + [1]]
    got = np.concatenate([stripe_lines(U, p) for _, U in stripes] + [last])
    assert got.dtype == dtype and got.tolist() == want


@st.composite
def striped_tables(draw):
    """(algebra, stripe starts): a random alternating table over F_p, p > d + 1,
    in a random basis, sparse enough that proper ideals come up, whose first
    stack is sketched; the stripe starts u are up to three successive
    canonical lines of F_p^(d-1) from a drawn one, then random ones."""
    p = draw(st.sampled_from([7, 11, 13, 89]))
    n = draw(st.integers(2, 4))
    d = draw(st.integers(max(n, 2), 5))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    rnd = draw(st.randoms(use_true_random=False))
    constants = {}
    for key in itertools.combinations(range(d), n):
        if rnd.random() < density:
            constants[key] = {l: rnd.randrange(1, p) for l in range(d)
                              if rnd.random() < density}
    L = FiniteNLieAlgebra(PrimeField(p), d, n, constants)
    L = in_random_basis(L, seed=rnd.randrange(2 ** 32))
    dtype = _residue_dtype(p, d)
    starts = np.array(list(itertools.islice(canonical_lines(p, d - 1), 3 * p)), dtype=dtype)
    at = draw(st.integers(0, len(starts) - 1))
    drawn = []
    for _ in range(draw(st.integers(0, 3))):
        u = [rnd.randrange(p) for _ in range(d - 1)]
        k = next((i for i, x in enumerate(u) if x), None)
        if k is not None:
            inv = pow(u[k], -1, p)
            drawn.append([x * inv % p for x in u])
    U = np.concatenate([starts[at:at + draw(st.integers(1, 3))],
                        np.array(drawn, dtype=dtype).reshape(-1, d - 1)])
    return L, U


def recorded_proper_lines():
    """A patch that records the rows of each `_proper_lines` call."""
    real, calls = structure._proper_lines, []

    def recorded(stacks, V, p):
        calls.append(V.copy())
        return real(stacks, V, p)

    return mock.patch.object(structure, "_proper_lines", recorded), calls


def zero_sketch_rows(zero_seed):
    """A patch that makes the sketch rows of `zero_seed` all zero."""
    real = structure._sketch_rows
    return mock.patch.object(structure, "_sketch_rows", lambda p, d, r, seed=0:
                             np.zeros((d, r), dtype=np.int64) if seed == zero_seed
                             else real(p, d, r, seed))


def triple(out):
    lines, counts, row = out
    return lines, list(counts), None if row is None else row.tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(striped_tables())
def test_stripes_match_the_reference_the_per_line_path_and_ideal_closure(case):
    L, U = case
    p, d = L.field.p, L.dim
    stacks = _line_stacks(L)
    T = _sketch(stacks[0], p, 1)
    if T is None:
        return
    V = stripe_lines(U, p)
    patch, calls = recorded_proper_lines()
    with patch:
        got = triple(_decide_stripes(stacks, U, p))
    want = triple(_decide_lines(stacks, V, p))
    assert got == want
    # the sketch-free reference
    proper, settled = reference_lines(stacks, V, p)
    lines = int(proper[0]) + 1 if proper.size else len(V)
    assert got[:2] == (lines, np.bincount(settled[:lines], minlength=len(stacks)).tolist())
    for i, v in enumerate(V[:lines]):
        closure = ideal_closure(L, Subspace(L.field, d, [[int(x) for x in v]]))
        assert (closure.dim < d) == (i in proper), i
    # the rows made are the lines whose T v is singular, for the stripe
    # sketch T of seed 1, in order, up to and past the first proper one
    singular = ~_nonsingular(_reduce(np.einsum("kij,jb->kib", T, V.T), p), p)
    rows = np.concatenate(calls) if calls else V[:0]
    assert rows.tolist() == V[singular][:len(rows)].tolist()
    assert len(rows) >= singular[:lines].sum()
    # with either sketch all zero the decisions stay the same
    for seed in (0, 1):
        with zero_sketch_rows(seed):
            assert triple(_decide_stripes(stacks, U, p)) == want


@pytest.mark.parametrize("s, line", [
    # the witness is interpolated (t = 20 > d) or a node (t = 2 <= d)
    pytest.param(11, 20, id="interpolated"), pytest.param(29, 2, id="node")])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_witness_mid_stripe_matches_a_serial_loop(s, line, workers, monkeypatch):
    L = a4_plus_center(31, s)
    stacks = _line_stacks(L)
    assert _striped(31, 5, len(stacks[0]))
    verdict, lines, witness, counts, row = serial_certificate(L)
    assert (verdict, lines) == ("non-simple", line + 1)
    assert row == [1, 0, 0, 0, line]
    monkeypatch.setattr(structure, "available_cores", lambda: workers)
    real, starts = structure._decide_stripes, []

    def recorded(stacks, U, p):
        starts.append(U[0].tolist())
        return real(stacks, U, p)

    monkeypatch.setattr(structure, "_decide_stripes", recorded)
    cert = certify_simplicity(L)
    assert (cert.verdict, cert.lines_checked, cert.witness) == (verdict, lines, witness)
    assert cert.notes["lines_per_stack"] == counts
    # the first stripe, lines 0..30, was decided as a stripe
    assert starts and starts[0] == [1, 0, 0, 0]


def center_line_at(p, line):
    """A_4 (+) F z, z central, in the basis e_0 = z + w, e_1..e_4 = u_0..u_3
    of A_4, with w in A_4 chosen so that z is the canonical line numbered
    `line` < p^4.  The lines of pivot 0 are z + (w + u) for u in A_4, outside
    A_4, and proper only when w + u = 0: z is the first proper line, and its
    closure F z the witness."""
    digits = [line // p ** (3 - i) % p for i in range(4)]
    w = {i: -x % p for i, x in enumerate(digits) if x}
    A = a4(p)
    constants = {}
    for key in itertools.combinations(range(5), 3):
        if key[0] == 0:
            y = A.bracket_sparse([w, {key[1] - 1: 1}, {key[2] - 1: 1}])
        else:
            y = A.bracket_indices(tuple(k - 1 for k in key))
        constants[key] = {l + 1: c for l, c in y.items()}
    return FiniteNLieAlgebra(PrimeField(p), 5, 3, constants)


# (algebra, the index of its first proper line, or None); over F_7 a stripe
# is 7 lines, and with 16 lines in flight per thread a block is 2 stripes
STRIPE_CASES = {
    "a4-p7": (lambda: a4(7), None),
    "a4-p11-random-basis": (lambda: in_random_basis(a4(11), seed=11), None),
    "first-of-a-stripe": (lambda: center_line_at(7, 14), 14),
    "mid-stripe": (lambda: center_line_at(7, 24), 24),
    "last-of-a-stripe": (lambda: center_line_at(7, 34), 34),
    "past-the-first-blocks": (lambda: center_line_at(7, 150), 150),
}


@functools.lru_cache(maxsize=None)
def stripe_case(name):
    """(algebra, its `serial_certificate`)."""
    make, line = STRIPE_CASES[name]
    L = make()
    want = serial_certificate(L)
    assert want[0] == ("simple" if line is None else "non-simple")
    if line is not None:
        p = L.field.p
        assert want[1] == line + 1 and want[4] == [1] + [line // p ** (3 - i) % p
                                                         for i in range(4)]
        assert want[2].dim == 1
    return L, want


@pytest.mark.parametrize("zero_second", [False, True], ids=["sketch", "zero-second-sketch"])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(STRIPE_CASES))
def test_stripe_certificate_matches_the_per_line_one_and_a_serial_loop(
        name, workers, zero_second, monkeypatch):
    L, (verdict, lines, witness, counts, row) = stripe_case(name)
    monkeypatch.setattr(structure, "available_cores", lambda: workers)
    monkeypatch.setattr(structure, "LINES_IN_FLIGHT", 16 * workers)
    assert _striped(L.field.p, L.dim, len(_line_stacks(L)[0]))
    real, blocks = structure._decide_stripes, []

    def witness_block_last(stacks, U, p):
        # the block that holds the first proper line finishes after the
        # blocks behind it, which the certificate must not take first
        blocks.append(len(U))
        if row is not None and (U == row[:-1]).all(axis=1).any():
            time.sleep(0.05)
        return real(stacks, U, p)

    monkeypatch.setattr(structure, "_decide_stripes", witness_block_last)
    # the per-line sketches (seed 0) all zero, the stripe sketch (seed 1) not
    with zero_sketch_rows(0) if zero_second else contextlib.nullcontext():
        cert = certify_simplicity(L)
        with mock.patch.object(structure, "_striped", lambda p, d, r: False):
            per_line = certify_simplicity(L)
    for got in (cert, per_line):
        assert (got.verdict, got.lines_checked, got.witness) == (verdict, lines, witness)
        assert got.notes["lines_per_stack"] == counts
    # decided in blocks of 2 stripes (the last may be shorter)
    assert blocks and set(blocks[:-1]) == {2} and blocks[-1] in (1, 2)


@pytest.mark.parametrize("workers", [2, 3])
def test_stripe_block_error_reaches_the_caller_from_threads(workers, monkeypatch):
    monkeypatch.setattr(structure, "available_cores", lambda: workers)
    real, calls = structure._decide_stripes, itertools.count()

    def failing(stacks, U, p):
        if next(calls) == 2:
            raise ZeroDivisionError("block 2")
        return real(stacks, U, p)

    monkeypatch.setattr(structure, "_decide_stripes", failing)
    before = set(threading.enumerate())
    with pytest.raises(ZeroDivisionError, match="block 2"):
        certify_simplicity(a4(29))
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_stripe_longer_than_a_cores_share_of_the_lines_is_not_taken(workers, monkeypatch):
    # A_4 over F_29: d + 1 < p, so only the lines in flight bound the stripes
    r = len(_line_stacks(a4(29))[0])
    monkeypatch.setattr(structure, "available_cores", lambda: workers)
    monkeypatch.setattr(structure, "LINES_IN_FLIGHT", 29 * workers)
    assert _striped(29, 4, r)
    monkeypatch.setattr(structure, "LINES_IN_FLIGHT", 29 * workers - 1)
    assert not _striped(29, 4, r)
