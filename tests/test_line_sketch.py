"""The sketch pass of the line decisions, against exact oracles.

`_proper_lines` tries each row stack S first through its sketch T = R.S mod
p, d combinations of S's matrices, and sends only the lines whose T v is
singular on to S.  The batched nonsingularity test it runs on T is compared
with `linalg.SpanBuilder`; the line decisions are compared, on random
alternating tables in random bases, with a sketch-free reference (each full
stack through `_eliminate`) and with `ideal_closure`; and with an all-zero
R, so that every line falls through, the threaded certificates stay those
of the sketched run.

Where p > d + 1 the first stack's sketch decides whole stripes, runs of p
lines v0 + t e_{d-1}, from d + 1 determinants each.  The determinant kernel
is compared with sympy; the stripe decisions, on chunks that cut stripes,
with the same reference, with the per-line sketch path and with
`ideal_closure`; and a witness in the middle of a stripe with a serial loop.
"""

import itertools
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
    _proper_lines,
    _reduce,
    _residue_dtype,
    _sketch,
    _sketch_rows,
    _stripe_starts,
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


def test_nonsingular_past_int64():
    p = 2 ** 89 - 1
    W = np.array([[[1, 0], [p - 1, 2]], [[2, 4], [1, 2]]], dtype=object)
    assert _nonsingular(W.transpose(1, 2, 0).copy(), p).tolist() == [True, False]


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
        full = _eliminate(W, p).sum(axis=1) == d
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
        out = real(W, p)
        verdicts.append(out)
        return out

    monkeypatch.setattr(structure, "_sketch_rows",
                        lambda p, d, r: np.zeros((d, r), dtype=np.int64))
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
# p(p - 1) <= 32,767 up to 181, <= 2^31 - 1 up to 46,337, <= 2^63 - 1 up to
# 3,037,000,493, and Python integers past it
DETERMINANT_PRIMES = [2, 3, 181, 191, 46337, 46349, 3037000493, 3037000507]


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

def whole_stripes(V, p):
    """The first rows of V's runs of p rows v0 + t e_{d-1}, t = 0..p-1, by
    brute force."""
    step = np.eye(V.shape[1], dtype=V.dtype)[-1]
    return [j for j in range(len(V) - p + 1) if V[j, -1] == 0
            and all((V[j + t] == V[j] + t * step).all() for t in range(p))]


@pytest.mark.parametrize("p, d", [(7, 4), (89, 4), (13, 2)])
def test_stripe_starts_are_the_whole_stripes_of_a_chunk(p, d):
    dtype = _residue_dtype(p, d)
    for size in (1, p - 1, p, p + 1, 3 * p - 2):
        for V in itertools.islice(_canonical_line_chunks(p, d, size, dtype), 5):
            assert _stripe_starts(V, p).tolist() == whole_stripes(V, p)
    # the first chunk of p + 1 lines: the stripe e_0 + t e_{d-1}, and one line
    V = next(_canonical_line_chunks(p, d, p + 1, dtype))
    assert _stripe_starts(V, p).tolist() == [0]
    if d == 2:
        return
    # three stripes, then the last line, a middle line or a prefix entry of
    # the middle one spoilt: only the first and last stay whole
    V = next(_canonical_line_chunks(p, d, 3 * p, dtype))
    for spoil in (lambda V: np.delete(V, 2 * p - 1, axis=0),
                  lambda V: np.delete(V, p + p // 2, axis=0),
                  lambda V: np.where(np.arange(3 * p)[:, None] == p + 1,
                                     (V + np.eye(d, dtype=dtype)[0]) % p, V)):
        W = spoil(V)
        assert _stripe_starts(W, p).tolist() == whole_stripes(W, p) == [0, len(W) - p]


def per_line_lines(stacks, V, p):
    """`_proper_lines` with every line tested on its own."""
    with mock.patch.object(structure, "_striped", lambda p, d, r: False):
        return _proper_lines(stacks, V, p)


@st.composite
def striped_tables(draw):
    """(algebra, lines): a random alternating table over F_p, p > d + 1, in a
    random basis, sparse enough that proper ideals come up; the lines are up
    to three successive canonical chunks, of a size that cuts stripes, then
    random lines."""
    p = draw(st.sampled_from([7, 11, 13, 89]))
    n = draw(st.integers(2, 4))
    d = draw(st.integers(n, 5))
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
    size = draw(st.sampled_from([1, p - 1, p, p + 1]) | st.integers(1, 2 * p))
    start, count = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    chunks = list(itertools.islice(_canonical_line_chunks(p, d, size, dtype), start + count))
    first = np.concatenate(chunks[min(start, len(chunks) - 1):])
    drawn = []
    for _ in range(draw(st.integers(0, 10))):
        v = [rnd.randrange(p) for _ in range(d)]
        k = next((i for i, x in enumerate(v) if x), None)
        if k is not None:
            inv = pow(v[k], -1, p)
            drawn.append([x * inv % p for x in v])
    V = np.concatenate([first, np.array(drawn, dtype=dtype).reshape(-1, d)])
    return L, V


def recorded_stripes():
    """A patch that records the output of each `_stripe_decisions` call."""
    real, calls = structure._stripe_decisions, []

    def recorded(T, V, p):
        out = real(T, V, p)
        calls.append(out)
        return out

    return mock.patch.object(structure, "_stripe_decisions", recorded), calls


@settings(max_examples=300, deadline=None, derandomize=True)
@given(striped_tables())
def test_stripes_match_the_reference_the_per_line_path_and_ideal_closure(case):
    L, V = case
    p, d = L.field.p, L.dim
    stacks = _line_stacks(L)
    patch, calls = recorded_stripes()
    with patch:
        proper, settled = _proper_lines(stacks, V, p)
    want_proper, want_settled = reference_lines(stacks, V, p)
    assert proper.tolist() == want_proper.tolist()
    assert settled.tolist() == want_settled.tolist()
    one_proper, one_settled = per_line_lines(stacks, V, p)
    assert proper.tolist() == one_proper.tolist()
    assert settled.tolist() == one_settled.tolist()
    if _striped(p, d, len(stacks[0])):
        (striped, decided), = calls
        rows = [j + t for j in whole_stripes(V, p) for t in range(p)]
        assert np.flatnonzero(striped).tolist() == rows and len(decided) == len(rows)
    else:
        assert not calls
    for i, v in enumerate(V):
        closure = ideal_closure(L, Subspace(L.field, d, [[int(x) for x in v]]))
        assert (closure.dim < d) == (i in proper), i

    # with an all-zero sketch every stripe line falls through, and the
    # decisions stay the same
    patch, calls = recorded_stripes()
    with patch, mock.patch.object(structure, "_sketch_rows",
                                  lambda p, d, r: np.zeros((d, r), dtype=np.int64)):
        zero_proper, zero_settled = _proper_lines(stacks, V, p)
    assert zero_proper.tolist() == proper.tolist()
    assert zero_settled.tolist() == settled.tolist()
    assert all(not decided.any() for _, decided in calls)


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
    patch, calls = recorded_stripes()
    with patch:
        cert = certify_simplicity(L)
    assert (cert.verdict, cert.lines_checked, cert.witness) == (verdict, lines, witness)
    assert cert.notes["lines_per_stack"] == counts
    # the first stripe, lines 0..30, was decided as a stripe
    assert calls and calls[0][0][:31].all()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_stripe_longer_than_a_cores_share_of_the_lines_is_not_taken(workers, monkeypatch):
    # A_4 over F_29: d + 1 < p, so only the lines in flight bound the stripes
    r = len(_line_stacks(a4(29))[0])
    monkeypatch.setattr(structure, "available_cores", lambda: workers)
    monkeypatch.setattr(structure, "LINES_IN_FLIGHT", 29 * workers)
    assert _striped(29, 4, r)
    monkeypatch.setattr(structure, "LINES_IN_FLIGHT", 29 * workers - 1)
    assert not _striped(29, 4, r)
