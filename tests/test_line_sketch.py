"""The sketch pass of the line decisions, against exact oracles.

`_proper_lines` tries each row stack S first through its sketch T = R.S mod
p, d combinations of S's matrices, and sends only the lines whose T v is
singular on to S.  The batched nonsingularity test it runs on T is compared
with `linalg.SpanBuilder`; the line decisions are compared, on random
alternating tables in random bases, with a sketch-free reference (each full
stack through `_eliminate`) and with `ideal_closure`; and with an all-zero
R, so that every line falls through, the threaded certificates stay those
of the sketched run.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trilie.structure as structure
from trilie.fields import PrimeField
from trilie.linalg import Subspace
from trilie.structure import (
    FiniteNLieAlgebra,
    _canonical_line_chunks,
    _eliminate,
    _line_stacks,
    _nonsingular,
    _proper_lines,
    _reduce,
    _residue_dtype,
    _sketch,
    _sketch_rows,
    certify_simplicity,
    ideal_closure,
)

from test_rank_kernel import (PIPELINE_CASES, a4, in_random_basis, laurent_quotient_p3,
                              planted_batches, span)


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
