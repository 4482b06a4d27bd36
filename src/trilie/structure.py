"""Finite-dimensional n-Lie verification and certification core.

A `FiniteNLieAlgebra` is a dimension, an arity and a sparse table of skew
structure constants over an exact field.  On top of it: skew-symmetry and
fundamental-identity verification, ideal closure, derived and lower central
series, maximality, simplicity certification over prime fields (exhaustive
enumeration of one representative per line), and homomorphism checks.

The verification code is arity-generic: the bundled constructors are 3-ary,
and an ordinary Lie algebra (`lifts.LieAlgebra`) is the same table at arity 2.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from types import MappingProxyType
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .fields import Field, PrimeField
from .linalg import SpanBuilder, Subspace


class BudgetExceeded(RuntimeError):
    """Exhaustive certification would need more work than the budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"exhaustive line enumeration needs {required} lines, budget is {budget}"
        )
        self.required = required
        self.budget = budget


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# the one value of every zero bracket: read-only, so sharing it is safe
_EMPTY: Dict[int, object] = MappingProxyType({})


class FiniteNLieAlgebra:
    """Skew structure constants: {(i1<...<in): {l: coeff}} over a field."""

    def __init__(self, field: Field, dim: int, arity: int, constants: Dict,
                 labels: Optional[List[str]] = None, name: str = "",
                 meta: Optional[dict] = None):
        self.field = field
        self.dim = dim
        self.arity = arity
        self.name = name
        self.meta = dict(meta) if meta else {}
        self.labels = list(labels) if labels else [f"x{i}" for i in range(dim)]
        self.constants: Dict[Tuple[int, ...], Dict[int, object]] = {}
        def in_basis(i):
            return isinstance(i, int) and not isinstance(i, bool) and 0 <= i < dim

        for key, vec in constants.items():
            key = tuple(key)
            if len(key) != arity or not all(map(in_basis, key)):
                raise ValueError(f"bad structure-constant key {key}")
            if list(key) != sorted(key) or len(set(key)) != arity:
                raise ValueError(f"structure-constant key {key} must be strictly increasing")
            if not all(map(in_basis, vec)):
                raise ValueError(f"structure constant of {key} has an output index "
                                 f"that is not one of 0..{dim - 1}")
            cleaned = {l: c for l, c in vec.items() if not field.is_zero(c)}
            if cleaned:
                self.constants[key] = cleaned
        # key -> negation of its stored vector, made on first use
        self._negated: Dict[Tuple[int, ...], Dict[int, object]] = {}

    # -- evaluation ------------------------------------------------------
    def bracket_indices(self, idxs: Sequence[int]) -> Dict[int, object]:
        """Sparse bracket of basis elements in any order (sign-completed).

        The result is shared, not copied: the stored vector for an even
        permutation of its key, its cached negation for an odd one, and one
        read-only empty mapping for a zero bracket.  Callers must not mutate it.
        """
        if len(set(idxs)) != self.arity:
            return _EMPTY
        order = sorted(range(self.arity), key=lambda t: idxs[t])
        key = tuple(idxs[t] for t in order)
        vec = self.constants.get(key)
        if not vec:
            return _EMPTY
        # sign of the permutation sending the sorted tuple to the given one
        inv = [0] * self.arity
        for pos, t in enumerate(order):
            inv[t] = pos
        if _perm_sign(inv) == 1:
            return vec
        neg = self._negated.get(key)
        if neg is None:
            f = self.field
            neg = self._negated[key] = {l: f.neg(c) for l, c in vec.items()}
        return neg

    def bracket_sparse(self, vecs: Sequence[Dict[int, object]]) -> Dict[int, object]:
        """Multilinear extension on sparse coordinate dicts."""
        return self.field.combine(
            (l, math.prod(c for _, c in combo) * d)
            for combo in itertools.product(*[v.items() for v in vecs])
            for l, d in self.bracket_indices([i for i, _ in combo]).items())

    # -- helpers -----------------------------------------------------------
    def basis_row(self, i: int) -> List:
        row = [self.field.zero] * self.dim
        row[i] = self.field.one
        return row

    def mutate_constant(self, key: Tuple[int, ...], out_index: int, delta) -> "FiniteNLieAlgebra":
        """Copy of the algebra with one structure coefficient shifted by delta."""
        f = self.field
        constants = {k: dict(v) for k, v in self.constants.items()}
        vec = constants.setdefault(tuple(key), {})
        vec[out_index] = f.add(vec.get(out_index, f.zero), delta)
        return FiniteNLieAlgebra(f, self.dim, self.arity, constants, self.labels,
                                 name=self.name + "+mutation")

    def export_dict(self) -> dict:
        entries = []
        for key in sorted(self.constants):
            vec = self.constants[key]
            entries.append({
                "args": list(key),
                "value": [[l, self.field.render(vec[l])] for l in sorted(vec)],
            })
        doc = {
            "format": "nlie-structure-constants",
            "version": 1,
            "name": self.name,
            "field": self.field.descriptor(),
            "dim": self.dim,
            "arity": self.arity,
            "basis": list(self.labels),
            "constants": entries,
        }
        if self.meta:
            doc["meta"] = dict(sorted(self.meta.items()))
        return doc

    def __repr__(self):
        return f"FiniteNLieAlgebra(dim={self.dim}, arity={self.arity}, field={self.field!r})"


def algebra_from_dict(doc: dict) -> FiniteNLieAlgebra:
    from .fields import field_from_descriptor

    f = field_from_descriptor(doc["field"])
    constants = {}
    for entry in doc["constants"]:
        constants[tuple(entry["args"])] = {int(l): f.parse(c) for l, c in entry["value"]}
    return FiniteNLieAlgebra(f, int(doc["dim"]), int(doc["arity"]), constants,
                             labels=doc.get("basis"), name=doc.get("name", ""))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

# a check keeps the witnesses of at most this many failing cases
MAX_WITNESSES = 5


@dataclass
class CheckReport:
    """A finite law check: the cases it counted, the first `MAX_WITNESSES`
    failing cases as witnesses, named sub-checks and notes.  It passed when
    no case failed and every sub-check passed."""
    law: str
    checked: int = 0
    failures: List[dict] = dc_field(default_factory=list)
    details: Dict[str, "CheckReport"] = dc_field(default_factory=dict)
    notes: Dict[str, object] = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures and all(r.passed for r in self.details.values())

    def fails(self, bad: bool) -> bool:
        """Count one case; true when it failed and its witness is still wanted."""
        self.checked += 1
        return bad and len(self.failures) < MAX_WITNESSES

    def first_witness(self) -> Optional[dict]:
        if self.failures:
            return self.failures[0]
        for sub in self.details.values():
            w = sub.first_witness()
            if w is not None:
                return w
        return None


@dataclass
class SeriesReport:
    kind: str                       # "derived" | "lower-central"
    terms: List[Subspace]

    @property
    def dims(self) -> List[int]:
        return [t.dim for t in self.terms]

    @property
    def vanished(self) -> bool:
        return self.terms[-1].dim == 0

    @property
    def stabilized(self) -> bool:
        return (not self.vanished and len(self.terms) > 1
                and self.terms[-1].dim == self.terms[-2].dim)


@dataclass
class SimplicityCertificate:
    verdict: str                    # "simple" | "non-simple" | "evidence-only"
    method: str                     # "exhaustive-1dim" | "randomized" | "kernel-functional"
    lines_checked: int
    witness: Optional[Subspace] = None
    seed: Optional[int] = None
    notes: Dict[str, object] = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# skew-symmetry
# ---------------------------------------------------------------------------

def verify_skew(L: FiniteNLieAlgebra) -> CheckReport:
    """Evaluator respects permutation signs and kills repeated arguments."""
    f = L.field
    rep = CheckReport("skew-symmetry")
    for key in itertools.combinations(range(L.dim), L.arity):
        base = L.bracket_indices(key)
        for perm in itertools.permutations(range(L.arity)):
            tup = tuple(key[t] for t in perm)
            got = L.bracket_indices(tup)
            want = base if _perm_sign(perm) == 1 else {l: f.neg(c) for l, c in base.items()}
            if rep.fails(got != want):
                rep.failures.append({"tuple": list(tup), "got": _render_sparse(L, got),
                                     "want": _render_sparse(L, want)})
    # repeated arguments vanish
    for key in itertools.combinations_with_replacement(range(L.dim), L.arity):
        if len(set(key)) == L.arity:
            continue
        got = L.bracket_indices(key)
        if rep.fails(bool(got)):
            rep.failures.append({"tuple": list(key), "got": _render_sparse(L, got)})
    return rep


def _render_sparse(L: FiniteNLieAlgebra, vec: Dict[int, object]) -> str:
    if not vec:
        return "0"
    f = L.field
    return " + ".join(f"{f.render(c)}*{L.labels[l]}" for l, c in sorted(vec.items()))


# ---------------------------------------------------------------------------
# fundamental identity
# ---------------------------------------------------------------------------

def _fi_cases(window: Sequence, n: int, mode: str = "exhaustive", samples: int = 0,
              seed: int = 0, xs: Optional[Iterable[tuple]] = None
              ) -> Iterable[Tuple[tuple, tuple]]:
    """The (x, y) index tuples one FI check visits, in order.

    Exhaustive: strictly increasing x n-tuples (or just `xs`) times strictly
    increasing y (n-1)-tuples of the window (the residual is alternating in
    both groups).  Sampled: `samples` seeded draws of arbitrary tuples, x first.
    """
    if mode == "exhaustive":
        return itertools.product(itertools.combinations(window, n) if xs is None else xs,
                                 itertools.combinations(window, n - 1))
    if mode == "sampled":
        rng = random.Random(seed)
        return ((tuple(rng.choice(window) for _ in range(n)),
                 tuple(rng.choice(window) for _ in range(n - 1)))
                for _ in range(samples))
    raise ValueError(f"unknown mode {mode!r}")


class _Memo(dict):
    """fn(key) for each key, computed on the first lookup and then kept."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        out = self[key] = self.fn(key)
        return out


def _fi_scan(evaluate, f: Field, cases: Iterable[Tuple[tuple, tuple]]):
    """FI residual [[x1..xn],y2..yn] - sum_i [x1..[xi,y2..yn]..xn] of every
    case on basis indices, where `evaluate` brackets an index tuple into a
    sparse {index: coeff} dict.  Returns (cases checked, the first
    `MAX_WITNESSES` (xs, ys, residual) with a nonzero residual).

    This is the one memo of every FI check: each distinct ordered index tuple
    is evaluated once per scan, and the residuals share what `evaluate`
    returned (they only read it).  No sign completion happens here, so a
    non-alternating bracket is evaluated as it is.  The memo is keyed by a
    tuple's tail, then its head: memo[ys] is the ad map a -> [a, ys], so the
    left side and the [xi, ys] need no fresh key, nor does putting l in the
    first slot of xs.  A run of cases with the same x-tuple reads [xs] and
    slices the other slots once.  Products accumulate with the elements' own
    + and *, and `Field.sparse` normalizes the residual once at the end.
    """
    memo = _Memo(lambda tail: _Memo(lambda head: evaluate((head,) + tail)))
    checked, found, last = 0, [], None
    for xs, ys in cases:
        if xs != last:
            last, x0, row0 = xs, xs[0], memo[xs[1:]]
            top = row0[x0].items()
            # xi <- l for i >= 1 is memo[xs[1:i] + (l,) + xs[i+1:]][x0]
            slots = [(xs[i], xs[1:i], xs[i + 1:]) for i in range(1, len(xs))]
        col = memo[ys]
        acc: Dict[object, object] = {}
        for l, c in top:
            for m, d in col[l].items():
                s = acc.get(m)
                acc[m] = c * d if s is None else s + c * d
        for l, c in col[x0].items():
            c = -c
            for m, d in row0[l].items():
                s = acc.get(m)
                acc[m] = c * d if s is None else s + c * d
        for x, pre, post in slots:
            for l, c in col[x].items():
                c = -c
                for m, d in memo[pre + (l,) + post][x0].items():
                    s = acc.get(m)
                    acc[m] = c * d if s is None else s + c * d
        checked += 1
        res = f.sparse(acc)
        if res and len(found) < MAX_WITNESSES:
            found.append((xs, ys, res))
    return checked, found


def _fi_scan_table(L: FiniteNLieAlgebra, xs: Optional[List[tuple]],
                   mode: str = "exhaustive", samples: int = 0, seed: int = 0):
    """`_fi_scan` of the structure constants over the cases of `_fi_cases`."""
    return _fi_scan(L.bracket_indices, L.field,
                    _fi_cases(range(L.dim), L.arity, mode, samples, seed, xs))


def _fi_scan_child(send, L: FiniteNLieAlgebra, xs: List[tuple]) -> None:
    send.send(_fi_scan_table(L, xs))


# exhaustive tabulated FI cases per process: the largest bundled tables have
# 3,024 cases (gl3-trace-lift) and 5,400 (laurent-quotient-p5), so on any core
# count they scan in-process, and the p = 11 quotient's 355,740 split
FI_CASES_PER_PROCESS = 50_000


def verify_fundamental_identity(L: FiniteNLieAlgebra, mode: str = "exhaustive",
                                samples: int = 1000, seed: int = 0) -> CheckReport:
    """FI residual [[x1..xn],y2..yn] - sum_i [x1..[xi,y2..yn]..xn] on basis
    tuples, from the one case enumerator (`_fi_cases`) and memoized scan
    (`_fi_scan`) shared with `brackets.check_fi_window`; each distinct
    ordered tuple is looked up in the structure constants once per scan.

    `notes["covered"]` counts the full d^(2n-1) tuple space that exhaustive
    mode spans.  Exhaustive mode scans chunks of the x-tuples, each with its
    own memo, on one process per `FI_CASES_PER_PROCESS` cases, at most one per
    available core: the first chunk here, each other in a child process that
    sends its part back through a pipe and is joined when `multiprocessing`
    next starts one (a process pool costs this process 1 MiB more).  The
    witnesses stay the first in enumeration order.
    """
    n, d = L.arity, L.dim
    cases = math.comb(d, n) * math.comb(d, n - 1) if mode == "exhaustive" else 0
    processes = min(available_cores(), -(-cases // FI_CASES_PER_PROCESS))
    if processes > 1:
        import multiprocessing

        xtuples = list(itertools.combinations(range(d), n))
        size = -(-len(xtuples) // processes)
        recvs = []
        for i in range(size, len(xtuples), size):
            recv, send = multiprocessing.Pipe(duplex=False)
            multiprocessing.Process(target=_fi_scan_child, daemon=True,
                                    args=(send, L, xtuples[i:i + size])).start()
            send.close()  # so that recv() fails, not waits, if the child dies
            recvs.append(recv)
        parts = [_fi_scan_table(L, xtuples[:size])] + [recv.recv() for recv in recvs]
    else:
        parts = [_fi_scan_table(L, None, mode, samples, seed)]
    found = [case for _, cases in parts for case in cases][:MAX_WITNESSES]
    return CheckReport(
        "fundamental identity", sum(got for got, _ in parts),
        [{"x": list(xs), "y": list(ys), "residual": _render_sparse(L, res)}
         for xs, ys, res in found],
        notes={"covered": d ** (2 * n - 1)})


# ---------------------------------------------------------------------------
# ideals and series
# ---------------------------------------------------------------------------

def _bracket_images(L: FiniteNLieAlgebra, rows: Sequence[Sequence], count: int):
    """Nonzero brackets [r_1, ..., r_count, e_j1, ..., e_jm] as dense rows.

    The r's run over `count`-subsets of the dense `rows` (in order), the
    basis indices j1 < ... < jm fill the remaining arity - count slots.
    """
    f = L.field
    sparse = [{i: c for i, c in enumerate(r) if not f.is_zero(c)} for r in rows]
    rests = itertools.combinations(range(L.dim), L.arity - count)
    units = [[{i: f.one} for i in rest] for rest in rests]
    for combo in itertools.combinations(sparse, count):
        for tail in units:
            out = L.bracket_sparse(list(combo) + tail)
            if out:
                dense = [f.zero] * L.dim
                for l, c in out.items():
                    dense[l] = c
                yield dense


def ideal_closure(L: FiniteNLieAlgebra, seed: Subspace) -> Subspace:
    """Smallest subspace containing `seed` closed under all left multiplications.

    Fixed-point iteration: brackets of current generators with all basis
    (n-1)-tuples are folded in until the dimension stabilizes.
    """
    if seed.ambient != L.dim:
        raise ValueError("seed lives in the wrong ambient dimension")
    sb = SpanBuilder(L.field, L.dim)
    queue: List[List] = []
    for row in seed.basis:
        if sb.add(row):
            queue.append(list(row))
    while queue:
        for dense in _bracket_images(L, [queue.pop()], 1):
            if sb.add(dense):
                queue.append(dense)
                if sb.dim == L.dim:
                    return sb.to_subspace()
    return sb.to_subspace()


def is_ideal(L: FiniteNLieAlgebra, s: Subspace) -> bool:
    """[s, L, ..., L] contained in s, checked on basis generators."""
    return all(s.contains(dense) for dense in _bracket_images(L, s.basis, 1))


def is_maximal_codim1(L: FiniteNLieAlgebra, s: Subspace) -> bool:
    """An ideal of codimension 1 is maximal (anything larger is everything)."""
    return s.codim == 1 and is_ideal(L, s)


def derived_subspace(L: FiniteNLieAlgebra, s: Subspace) -> Subspace:
    """span of brackets of n elements of s."""
    return _span(L, _bracket_images(L, s.basis, L.arity))


def _span(L: FiniteNLieAlgebra, rows) -> Subspace:
    sb = SpanBuilder(L.field, L.dim)
    for row in rows:
        sb.add(row)
    return sb.to_subspace()


def _series(L: FiniteNLieAlgebra, kind: str, step) -> SeriesReport:
    """Iterate `step` from L until a term vanishes or stops shrinking (in d steps)."""
    terms = [Subspace.full(L.field, L.dim)]
    while True:
        terms.append(step(terms[-1]))
        if terms[-1].dim in (0, terms[-2].dim):
            return SeriesReport(kind, terms)


def derived_series(L: FiniteNLieAlgebra) -> SeriesReport:
    return _series(L, "derived", lambda s: derived_subspace(L, s))


def lower_central_series(L: FiniteNLieAlgebra) -> SeriesReport:
    return _series(L, "lower-central", lambda s: _span(L, _bracket_images(L, s.basis, 1)))


def derived_algebra(L: FiniteNLieAlgebra) -> Subspace:
    return derived_subspace(L, Subspace.full(L.field, L.dim))


# ---------------------------------------------------------------------------
# simplicity certification
# ---------------------------------------------------------------------------

DEFAULT_LINE_BUDGET = 5_000_000
RANDOM_PROBES = 8


def _line_count(p: int, d: int) -> int:
    return (p ** d - 1) // (p - 1)


def certify_simplicity(L: FiniteNLieAlgebra, budget: int = DEFAULT_LINE_BUDGET,
                       seed: int = 0) -> SimplicityCertificate:
    """Simplicity certificate.

    Over F_p (line count within budget): enumerate one representative per
    1-dimensional subspace and check that the ideal closure of each line is
    the whole algebra.  Sound and complete: any proper nonzero ideal contains
    a line whose closure stays inside it.  Each line is decided by ranks mod
    p over the row stacks of `_line_stacks`, computed by the one eliminator
    `_eliminate` in a dtype that provably cannot wrap (Python integers past
    int64); a proper closure is recomputed by `ideal_closure` as the witness.
    The lines are decided on every available core, and the certificate is
    the same for any number of cores: `notes["lines_per_stack"]` counts the
    lines each stack settled, and they sum to `lines_checked`.
    Over characteristic-zero fields: closures from each basis vector plus
    `RANDOM_PROBES` seeded random vectors give an evidence-only verdict,
    never "simple".
    """
    L1 = derived_algebra(L)
    if L1.dim == 0:
        witness = None
        if L.dim >= 2:
            witness = Subspace(L.field, L.dim, [L.basis_row(0)])
        return SimplicityCertificate(
            "non-simple", "exhaustive-1dim", 0, witness,
            notes={"reason": "derived algebra is zero"})

    if isinstance(L.field, PrimeField):
        required = _line_count(L.field.p, L.dim)
        if required > budget:
            raise BudgetExceeded(required, budget)
        return _certify_prime_exhaustive(L, L1)

    # characteristic zero: evidence only
    rng = random.Random(seed)
    probes = [L.basis_row(i) for i in range(L.dim)]
    for _ in range(RANDOM_PROBES):
        probes.append([L.field.random_element(rng) for _ in range(L.dim)])
    checked = 0
    for v in probes:
        if all(L.field.is_zero(c) for c in v):
            continue
        closure = ideal_closure(L, Subspace(L.field, L.dim, [v]))
        checked += 1
        if closure.dim < L.dim:
            return SimplicityCertificate("non-simple", "randomized", checked,
                                         closure, seed=seed)
    return SimplicityCertificate(
        "evidence-only", "randomized", checked, None, seed=seed,
        notes={"reason": "finite line enumeration is impossible over an "
                         "infinite field; all probed closures were full"})


def _ad_matrices(L: FiniteNLieAlgebra) -> List[List[List[int]]]:
    """Left-multiplication matrices M[rest][l][a] = coeff of e_l in [e_a, *rest]."""
    mats = []
    for rest in itertools.combinations(range(L.dim), L.arity - 1):
        m = [[0] * L.dim for _ in range(L.dim)]
        for a in range(L.dim):
            for l, c in L.bracket_indices((a,) + rest).items():
                m[l][a] = c
        mats.append(m)
    return mats


def _fits(dtype, p: int, terms: int) -> bool:
    """Whether `dtype` holds a sum of `terms` products of residues mod p, of
    either sign, and its reduction by `_reduce`, whose intermediate can
    exceed it by p - 1 in magnitude (p(p-1) for one product)."""
    import numpy as np

    return dtype == object or terms * (p - 1) ** 2 + p - 1 <= np.iinfo(dtype).max


def _reduce(x, p: int):
    """x mod p, in place, as x - (x // p) * p: numpy's `%` gives the same
    residues on fixed-width integers but takes several times as long."""
    x -= x // p * p
    return x


def _residue_dtype(p: int, terms: int):
    """The narrowest integer dtype that `_fits` (p, terms), else Python ints."""
    import numpy as np

    return next((np.dtype(t) for t in (np.int16, np.int32, np.int64)
                 if _fits(np.dtype(t), p, terms)), np.dtype(object))


# certification lines in flight over all threads, one chunk per thread: for
# fixed-width rows, and for Python-int rows, which take far more memory.
# Each thread allocates in a heap of its own, and two chunks of 16,384 lines
# raised the peak RSS of certifying A_4 over F_89 by 3% on 2 cores
LINES_IN_FLIGHT = 24576
OBJECT_LINES_IN_FLIGHT = 1024


def available_cores() -> int:
    """The number of cores this process may run on: its CPU affinity where
    the platform reports one, else the machine's CPU count."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _certify_prime_exhaustive(L: FiniteNLieAlgebra, L1: Subspace) -> SimplicityCertificate:
    """Decide the lines of `_canonical_line_chunks` in order, one chunk per
    call of `_proper_lines`, on one thread per available core, or per chunk
    if fewer (numpy releases the GIL in the kernel).  At most one chunk per
    thread is in flight, and results are taken in enumeration order: the
    first chunk with a proper line cancels the rest, so the verdict, witness,
    `lines_checked` and per-stack counts do not depend on the number of threads.
    """
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    p, d = L.field.p, L.dim
    stacks = _line_stacks(L)
    cores = available_cores()
    # never more threads than ceil(lines / chunk)
    chunk = max(1, (LINES_IN_FLIGHT if stacks[0].dtype != object
                    else OBJECT_LINES_IN_FLIGHT) // cores)
    workers = min(cores, -(-_line_count(p, d) // chunk))
    chunks = _canonical_line_chunks(p, d, chunk, stacks[0].dtype)
    checked, per_stack, row = 0, np.zeros(len(stacks), dtype=np.int64), None
    pool = ThreadPoolExecutor(max_workers=workers)

    def submit(V):
        return V, pool.submit(_proper_lines, stacks, V, p)

    try:
        pending = deque(map(submit, itertools.islice(chunks, workers)))
        while pending:
            V, future = pending.popleft()
            proper, settled = future.result()
            # lines up to and including the first proper one
            cut = int(proper[0]) + 1 if proper.size else len(V)
            checked += cut
            per_stack += np.bincount(settled[:cut], minlength=len(stacks))
            if proper.size:
                row = [int(x) for x in V[proper[0]]]
                break
            pending.extend(map(submit, itertools.islice(chunks, 1)))
    finally:
        # drop the chunks not yet started, and wait for the running ones
        pool.shutdown(cancel_futures=True)
    notes = {"lines_per_stack": per_stack.tolist()}
    if row is not None:
        # genuine proper closure: recompute it with the exact fixed-point
        # iteration and return it as the witness
        witness = ideal_closure(L, Subspace(L.field, d, [row]))
        return SimplicityCertificate("non-simple", "exhaustive-1dim", checked, witness,
                                     notes=notes)
    return SimplicityCertificate("simple", "exhaustive-1dim", checked, None,
                                 notes={"derived_dim": L1.dim, **notes})


def _line_stacks(L: FiniteNLieAlgebra):
    """Row stacks of d x d matrices mod p that decide the lines of L over F_p.

    The ideal closure of a line F.v is span{B v} over a basis B of the unital
    algebra generated by the ad maps, so the last stack, that basis, decides
    every line exactly.  The ones before it (a prefix of the generators, then
    all of them) span part of that algebra: rank d there already proves a
    full closure, more cheaply.  A stack no smaller than the next is dropped.
    Entries use the narrowest dtype holding a d-term product sum mod p.
    """
    import numpy as np

    p, d = L.field.p, L.dim
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    gens = np.array([eye] + _ad_matrices(L), dtype=_residue_dtype(p, d)) % p
    stacks = [gens[: d + 3], gens, _matrix_algebra_basis(gens, p)]
    return [s for s, after in zip(stacks, stacks[1:]) if len(s) < len(after)] + stacks[-1:]


def _proper_lines(stacks, V, p: int):
    """The lines (rows of V) whose closure `_line_stacks` finds proper: their
    indices, and for every line the index in `stacks` of the stack that
    settled it.  Each stack settles the lines it proves full; a rank below d
    is trusted only from the last, exact stack, which settles every line left."""
    import numpy as np

    d = V.shape[1]
    assert _fits(V.dtype, p, d)
    left = np.arange(V.shape[0])
    settled = np.full(V.shape[0], len(stacks) - 1, dtype=np.int8)
    for i, S in enumerate(stacks):
        W = _reduce(np.einsum("rij,bj->bri", S, V[left]), p)
        full = _eliminate(W, p).sum(axis=1) == d
        settled[left[full]] = i
        left = left[~full]
    return left, settled


def _canonical_line_chunks(p: int, d: int, chunk: int, dtype):
    """Canonical projective representatives: first nonzero coordinate is 1,
    enumerated by pivot position then lexicographic tail, in chunks."""
    import numpy as np

    for k in range(d):
        total = p ** (d - 1 - k)
        for start in range(0, total, chunk):
            cnt = min(chunk, total - start)
            V = np.zeros((cnt, d), dtype=dtype)
            V[:, k] = 1
            x = np.arange(start, start + cnt, dtype=object if dtype == object else np.int64)
            for col in range(d - 1, k, -1):
                V[:, col] = x % p
                x //= p
            yield V


def _eliminate(W, p: int):
    """Row-reduce a C-contiguous batch W (B, r, c) of matrices with entries
    in [0, p) modulo p, in place; returns the (B, r) mask of pivot rows, whose
    row sums are the ranks.

    This is the one mod-p pivot search of the module.  Rows are never
    swapped: column by column, the first row that is not yet a pivot and has
    a nonzero entry becomes the pivot, and every other such row r turns into
    piv*r - r[col]*pivot_row.  That fraction-free step needs no inverse, and
    its values stay within (p-1)^2 in magnitude, and reducing them within
    p(p-1), which W's dtype must hold.
    Rows that are zero in the column are left alone, so sparse matrices cost
    little, and a pivot row never changes once chosen: leading rows whose
    first nonzero entries lie in distinct columns, as the pivot rows of an
    earlier call do, all become pivots and come out as they went in.
    """
    import numpy as np

    assert _fits(W.dtype, p, 1) and W.flags.c_contiguous
    B, r, c = W.shape
    rows = W.reshape(B * r, c)      # a view, so the updates land in W
    pivots = np.zeros(B * r, dtype=bool)
    for col in range(c):
        live = (rows[:, col] != 0) & ~pivots
        if not live.any():
            continue
        # flat index of each matrix's first live row (of its row 0 if none)
        head = live.reshape(B, r).argmax(axis=1) + np.arange(0, B * r, r)
        pivots[head[live[head]]] = True
        live[head] = False
        clear = np.flatnonzero(live)
        P, X = rows[head[clear // r], col:], rows[clear, col:]
        rows[clear, col:] = _reduce(P[:, :1] * X - X[:, :1] * P, p)
    return pivots.reshape(B, r)


def _matrix_algebra_basis(gens, p: int):
    """Basis (r, d, d) of the unital algebra generated by the stack `gens`
    of d x d matrices mod p, where gens[0] is the identity.

    Candidates are eliminated in blocks under the basis found so far: the
    basis rows come first, so they stay pivots, and the candidates that
    become pivots are new members.  The next block is the products of the
    newest members with every generator, about 1,024 rows; it ends when every
    member has been multiplied out or the basis spans all d x d matrices.
    """
    import numpy as np

    d = gens.shape[1]
    assert _fits(gens.dtype, p, d)
    take = max(1, 1024 // len(gens))
    basis, members, block = gens[:0].reshape(0, d * d), gens[:0], gens
    while True:
        stack = np.concatenate([basis, block.reshape(-1, d * d)])
        pivots = _eliminate(stack[None], p)[0]
        new = stack[len(basis):][pivots[len(basis):]]
        members = np.concatenate([members, new.reshape(-1, d, d)])
        basis = stack[pivots]
        if not len(members) or len(basis) == d * d:
            return basis.reshape(-1, d, d)
        block = _reduce(members[-take:, None] @ gens[1:], p)
        members = members[:-take]
