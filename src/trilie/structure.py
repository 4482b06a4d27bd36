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

import functools
import itertools
import math
import operator
import os
import random
from dataclasses import dataclass, field as dc_field
from types import MappingProxyType
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .fields import Field, PrimeField, field_from_descriptor
from .linalg import SpanBuilder, Subspace


class BudgetExceeded(RuntimeError):
    """Exhaustive certification would need more lines than the budget allows,
    or, with `reason`, sums wider than its int64 kernel holds."""

    def __init__(self, required: int, budget: int, reason: Optional[str] = None):
        super().__init__(reason or f"exhaustive line enumeration needs {required} "
                                   f"lines, budget is {budget}")
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
                 labels: Optional[List[str]] = None, name: str = ""):
        self.field = field
        self.dim = dim
        self.arity = arity
        self.name = name
        self.meta: Dict[str, object] = {}
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
            cleaned = field.sparse(vec)
            if cleaned:
                self.constants[key] = cleaned

    # -- evaluation ------------------------------------------------------
    @functools.cached_property
    def ad_index(self) -> Dict[Tuple[int, ...], Dict[int, Dict[int, object]]]:
        """{tail: {a: [e_a, *tail]}} for every ordering `tail` of each
        (n-1)-subset of a stored key, heads a in increasing order, built on
        first use.  The even orderings of a rest share one row, whose vectors
        are the stored ones and their one negation per key, and the odd
        orderings share the row with the signs swapped.  The increasing rests
        come in increasing order, each before its other orderings.  A tail that
        is not listed (a repeated index, or a rest no key contains), or a head
        that is not, brackets to zero.  Its rows and vectors are shared, as
        the results of `bracket_indices` are: callers must not mutate them."""
        f, rows = self.field, {}
        for key, vec in self.constants.items():
            signed = (vec, {l: f.neg(c) for l, c in vec.items()})
            for i, a in enumerate(key):
                # moving e_a to the front of the key takes i transpositions
                even, odd = rows.setdefault(key[:i] + key[i + 1:], ({}, {}))
                even[a], odd[a] = signed[i % 2], signed[1 - i % 2]
        index = {}
        for rest in sorted(rows):
            signed = tuple(dict(sorted(row.items())) for row in rows[rest])
            for perm in itertools.permutations(range(len(rest))):
                index[tuple(rest[t] for t in perm)] = signed[_perm_sign(perm) == -1]
        return index

    def bracket_indices(self, idxs: Sequence[int]) -> Dict[int, object]:
        """Sparse bracket of basis elements in any order: the vector of the
        head idxs[0] in the `ad_index` row of the tail idxs[1:], or one
        read-only empty mapping for a zero bracket (repeated indices
        included).  The result is shared, not copied: do not mutate it.
        """
        return self.ad_index.get(tuple(idxs[1:]), _EMPTY).get(idxs[0], _EMPTY)

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
    no case failed and every sub-check passed.  Every law check but FI's
    (`_fi_scan`) counts its cases and keeps its witnesses through `scan`."""
    law: str
    checked: int = 0
    failures: List[dict] = dc_field(default_factory=list)
    details: Dict[str, "CheckReport"] = dc_field(default_factory=dict)
    notes: Dict[str, object] = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures and all(r.passed for r in self.details.values())

    def scan(self, cases: Iterable[tuple], witness) -> "CheckReport":
        """Count each (case, lhs, rhs) of `cases`, and keep `witness(case,
        lhs, rhs)` for each case whose two sides differ while fewer than
        `MAX_WITNESSES` are kept.  A zero law yields (case, value, zero); a
        yes/no law yields booleans.  Returns this report."""
        failures, checked = self.failures, 0
        for case, lhs, rhs in cases:
            checked += 1
            if lhs != rhs and len(failures) < MAX_WITNESSES:
                failures.append(witness(case, lhs, rhs))
        self.checked += checked
        return self

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
    """The evaluator against the stored constants: each ordering of a
    distinct tuple brackets to the constant of the sorted tuple, signed by
    the ordering, and a repeated tuple brackets to zero."""
    f = L.field
    perms = [(perm, _perm_sign(perm)) for perm in itertools.permutations(range(L.arity))]

    def cases():
        for key in itertools.combinations_with_replacement(range(L.dim), L.arity):
            if len(set(key)) < L.arity:
                yield key, L.bracket_indices(key), _EMPTY
                continue
            base = L.constants.get(key, _EMPTY)
            neg = {l: f.neg(c) for l, c in base.items()}
            for perm, sign in perms:
                tup = tuple(key[t] for t in perm)
                yield tup, L.bracket_indices(tup), base if sign == 1 else neg

    def witness(tup, got, want):
        out = {"tuple": list(tup), "got": _render_sparse(L, got)}
        if len(set(tup)) == L.arity:
            out["want"] = _render_sparse(L, want)
        return out

    return CheckReport("skew-symmetry").scan(cases(), witness)


def _render_sparse(L: FiniteNLieAlgebra, vec: Dict[int, object]) -> str:
    if not vec:
        return "0"
    f = L.field
    return " + ".join(f"{f.render(c)}*{L.labels[l]}" for l, c in sorted(vec.items()))


# ---------------------------------------------------------------------------
# fundamental identity
# ---------------------------------------------------------------------------

def _fi_cases(window: Sequence, n: int, mode: str = "exhaustive", samples: int = 0,
              seed: int = 0, xs: Optional[Iterable[tuple]] = None,
              ys: Optional[Iterable[tuple]] = None) -> Iterable[Tuple[tuple, tuple]]:
    """The (x, y) index tuples one FI check visits, in order.

    Exhaustive: strictly increasing x n-tuples (or just `xs`) times strictly
    increasing y (n-1)-tuples of the window (or just `ys`; the residual is
    alternating in both groups).  Sampled: `samples` seeded draws of
    arbitrary tuples, x first.
    """
    if mode == "exhaustive":
        return itertools.product(itertools.combinations(window, n) if xs is None else xs,
                                 itertools.combinations(window, n - 1) if ys is None else ys)
    if mode == "sampled":
        rng = random.Random(seed)
        return ((tuple(rng.choice(window) for _ in range(n)),
                 tuple(rng.choice(window) for _ in range(n - 1)))
                for _ in range(samples))
    raise ValueError(f"unknown mode {mode!r}")


class _Memo(dict):
    """fn(key) for each key, computed on the first lookup and then kept.
    `get` is that lookup too, so a memo reads like a dict of rows."""

    __slots__ = ("fn",)
    get = dict.__getitem__

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        out = self[key] = self.fn(key)
        return out


def _fi_columns(rows, yss: list):
    """The columns of a run's y-tuples, built on first use: cols[h] is
    {l: [(y position, coeff of e_l in [h, *ys])]} over the nonzero [h, ys]."""
    tails = [rows.get(ys) for ys in yss]

    def col(h):
        out: Dict[object, list] = {}
        for pos, row in enumerate(tails):
            for l, c in (_EMPTY if row is None else row.get(h) or _EMPTY).items():
                out.setdefault(l, []).append((pos, c))
        return out
    return _Memo(col)


def _fi_terms(rows, cols, xs: tuple):
    """The terms of the residuals of the run of xs, as (column entries,
    target, coeff): each entry (y position, c) stands for c x coeff at that
    target.  The top term [[xs], ys] first, walking the columns of the heads
    of [xs]; then -[xs with l in slot i] for each target l of the column of
    xs[i], bracketed into the slot once for all of its y positions."""
    row0 = rows.get(xs[1:])
    for h, d in (_EMPTY if row0 is None else row0.get(xs[0]) or _EMPTY).items():
        for m, ents in cols[h].items():
            yield ents, m, d
    for i, x in enumerate(xs):
        for l, ents in cols[x].items():
            # xs with l in slot i: a head of the row of xs[1:] in slot 0, a
            # tail index under the head xs[0] in any other
            row = row0 if i == 0 else rows.get(xs[1:i] + (l,) + xs[i + 1:])
            for m, d in (_EMPTY if row is None else row.get(xs[0] if i else l) or _EMPTY).items():
                yield ents, m, -d


def _fi_scan(bracket, f: Field, cases: Iterable[Tuple[tuple, tuple]]):
    """FI residual [[x1..xn],y2..yn] - sum_i [x1..[xi,y2..yn]..xn] of every
    case on basis indices.  Returns (cases checked, the first
    `MAX_WITNESSES` (xs, ys, residual) with a nonzero residual).

    This is the one FI scan.  It reads brackets from sparse ad rows: rows.get
    (tail) is the row {head: {index: coeff} of [head, *tail]}.  `bracket` is
    either such rows (a table's `ad_index`, where a missing tail or head is
    a zero bracket) or a function that brackets an index tuple into a sparse
    {index: coeff} dict, whose rows are then a memo of those dicts that
    evaluates each distinct ordered tuple once per scan, as it is: no sign
    completion, so a non-alternating bracket is checked as it is.  The
    residuals only read the rows.

    A run of cases with one x-tuple is scanned a column at a time, over the
    columns of `_fi_columns`: for a head h, the nonzero [h, ys] of the run's
    y-tuples, grouped by target l, built once while the runs share their
    y-tuples (in exhaustive mode, once per scan), and the terms of
    `_fi_terms` walk only their nonzero entries.  All products of a run go
    into one flat dict keyed by target x len(run) + y position: a table's
    targets are its indices, and a function's are numbered in order of first
    sight.  Products add with the elements' own
    + and *, and only the touched sums are normalized, once.  Witnesses are
    taken in y order, so they stay the first in enumeration order.
    """
    rows, number = bracket, None
    if callable(bracket):
        rows = _Memo(lambda tail: _Memo(lambda head: bracket((head,) + tail)))
        number = _Memo(lambda m: len(number))  # 0, 1, 2, ... in order of first sight
    normalize = f.normalize
    checked, found, yss = 0, [], None
    for xs, run in itertools.groupby(cases, operator.itemgetter(0)):
        run = [ys for _, ys in run]
        checked += len(run)
        if run != yss:
            yss, width = run, len(run)
            cols = _fi_columns(rows, yss)
        acc: Dict[int, object] = {}
        for ents, m, d in _fi_terms(rows, cols, xs):
            base = (m if number is None else number[m]) * width
            for pos, c in ents:
                k = base + pos
                s = acc.get(k)
                acc[k] = c * d if s is None else s + c * d
        bad: Dict[int, list] = {}
        for k, s in acc.items():
            s = normalize(s)
            if s:
                bad.setdefault(k % width, []).append((k // width, s))
        if bad and len(found) < MAX_WITNESSES:
            names = None if number is None else list(number)
            for pos in sorted(bad)[:MAX_WITNESSES - len(found)]:
                found.append((xs, yss[pos], {m if names is None else names[m]: s
                                             for m, s in bad[pos]}))
    return checked, found


def _fi_scan_table(L: FiniteNLieAlgebra, xs: Optional[List[tuple]],
                   mode: str = "exhaustive", samples: int = 0, seed: int = 0,
                   ys: Optional[List[tuple]] = None):
    """`_fi_scan` of the table's `ad_index` over the cases of `_fi_cases`."""
    return _fi_scan(L.ad_index, L.field,
                    _fi_cases(range(L.dim), L.arity, mode, samples, seed, xs, ys))


def _fi_scan_child(send, L: FiniteNLieAlgebra, ys: List[tuple], xs: List[tuple]) -> None:
    send.send(_fi_scan_table(L, xs, ys=ys))


def _ad_basis(L: FiniteNLieAlgebra) -> List[tuple]:
    """The increasing (n-1)-tails, in order, whose ad maps [., *tail] are
    independent of the earlier tails' ones: a basis of the span of all ad
    maps.  Each map is the sparse vector {head * d + target: coeff} of its
    `ad_index` row, reduced against the kept rows by their least keys; a
    tail the index does not list has the zero map."""
    f, d, index = L.field, L.dim, L.ad_index
    pivots: Dict[int, Dict[int, object]] = {}  # least key -> kept row, one there
    basis = []
    for tail in itertools.combinations(range(d), L.arity - 1):
        row = index.get(tail)
        vec = {} if row is None else {a * d + l: c for a, out in row.items()
                                      for l, c in out.items()}
        while vec:
            k = min(vec)
            kept = pivots.get(k)
            if kept is None:
                inv = f.inv(vec[k])
                pivots[k] = {key: f.mul(inv, c) for key, c in vec.items()}
                basis.append(tail)
                break
            c = vec[k]
            for key, e in kept.items():
                s = f.normalize(vec.get(key, 0) - c * e)
                if s:
                    vec[key] = s
                else:
                    del vec[key]
    return basis


def _fi_processes(L: FiniteNLieAlgebra, ys: List[tuple]):
    """The parts of `_fi_scan_table` over every x-tuple and the y-tuples
    `ys`, on one process per `FI_CASES_PER_PROCESS` scanned cases, at most
    one per available core: the first chunk of x-tuples here, each other in
    a child process that sends its part back through a pipe and is joined
    when `multiprocessing` next starts one (a process pool costs this
    process 1 MiB more)."""
    n, d = L.arity, L.dim
    cases = math.comb(d, n) * len(ys)
    processes = min(available_cores(), -(-cases // FI_CASES_PER_PROCESS))
    if processes <= 1:
        return [_fi_scan_table(L, None, ys=ys)]
    import multiprocessing

    xtuples = list(itertools.combinations(range(d), n))
    size = -(-len(xtuples) // processes)
    recvs = []
    for i in range(size, len(xtuples), size):
        recv, send = multiprocessing.Pipe(duplex=False)
        multiprocessing.Process(target=_fi_scan_child, daemon=True,
                                args=(send, L, ys, xtuples[i:i + size])).start()
        send.close()  # so that recv() fails, not waits, if the child dies
        recvs.append(recv)
    return [_fi_scan_table(L, xtuples[:size], ys=ys)] + [recv.recv() for recv in recvs]


# exhaustive tabulated FI cases scanned per process: the largest bundled
# tables scan 2,400 cases (laurent-quotient-p5) and 1,344 (gl3-trace-lift) on
# their bases of ad maps, so on any core count they scan in-process, and the
# p = 11 quotient's 67,760 (1,540 x-tuples by 44 tails) split in two
FI_CASES_PER_PROCESS = 50_000


def verify_fundamental_identity(L: FiniteNLieAlgebra, mode: str = "exhaustive",
                                samples: int = 1000, seed: int = 0) -> CheckReport:
    """FI residual [[x1..xn],y2..yn] - sum_i [x1..[xi,y2..yn]..xn] on basis
    tuples, from the one case enumerator (`_fi_cases`) and scan (`_fi_scan`)
    shared with `brackets.check_fi_window`.  The scan reads the brackets from
    the table's sparse ad rows, the rows of `L.ad_index` for every ordering
    of each rest, so it makes no `bracket_indices` call.

    The residual is linear in the matrix of ad_y = [., y2..yn], so in
    exhaustive mode the cases of the tails of `_ad_basis` decide all the
    others: if ad_y is a combination of the basis tails' ad maps, R(x, y) is
    the same combination of their residuals.  Exhaustive mode scans every
    x-tuple against those tails first.  If every residual is zero, so is
    every case's, and `checked` counts all C(d, n) C(d, n-1) cases decided.
    Otherwise it scans every tail, so the witnesses are the first nonzero
    residuals in enumeration order, unless the basis is every tail and the
    first pass already was that scan.  Each pass runs on the processes of
    `_fi_processes`, an x-tuple being one run of the scan over its y-tuples,
    so the scan builds its columns once per process.

    `notes["covered"]` counts the full d^(2n-1) tuple space that exhaustive
    mode spans.
    """
    n, d = L.arity, L.dim
    if mode == "exhaustive":
        tails, basis = list(itertools.combinations(range(d), n - 1)), _ad_basis(L)
        parts = _fi_processes(L, basis)
        if basis != tails and any(found for _, found in parts):
            parts = _fi_processes(L, tails)
        checked = math.comb(d, n) * len(tails)
    else:
        parts = [_fi_scan_table(L, None, mode, samples, seed)]
        checked = parts[0][0]
    found = [case for _, cases in parts for case in cases][:MAX_WITNESSES]
    return CheckReport(
        "fundamental identity", checked,
        [{"x": list(xs), "y": list(ys), "residual": _render_sparse(L, res)}
         for xs, ys, res in found],
        notes={"covered": d ** (2 * n - 1)})


# ---------------------------------------------------------------------------
# ideals and series
# ---------------------------------------------------------------------------

def _dense(L: FiniteNLieAlgebra, vecs: Iterable[Dict[int, object]]):
    """The nonzero sparse vectors of `vecs` as dense rows, in order."""
    for vec in vecs:
        if vec:
            row = [L.field.zero] * L.dim
            for l, c in vec.items():
                row[l] = c
            yield row


def _ad_images(L: FiniteNLieAlgebra, rows: Iterable[Sequence]):
    """Nonzero brackets [r, e_j1, ..., e_jm] as dense rows, lazily: for each
    dense row r in turn, one per increasing rest j1 < ... < jm in
    `L.ad_index`, in order (a rest outside the index brackets everything to
    zero)."""
    f, index = L.field, L.ad_index
    ads = [index[rest] for rest in itertools.combinations(range(L.dim), L.arity - 1)
           if rest in index]
    return _dense(L, (f.combine((l, r[a] * c) for a, vec in ad.items()
                                if not f.is_zero(r[a]) for l, c in vec.items())
                      for r in rows for ad in ads))


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
        for dense in _ad_images(L, [queue.pop()]):
            if sb.add(dense):
                queue.append(dense)
                if sb.dim == L.dim:
                    return sb.to_subspace()
    return sb.to_subspace()


def is_ideal(L: FiniteNLieAlgebra, s: Subspace) -> bool:
    """[s, L, ..., L] contained in s, checked on basis generators."""
    return all(s.contains(dense) for dense in _ad_images(L, s.basis))


def is_maximal_codim1(L: FiniteNLieAlgebra, s: Subspace) -> bool:
    """An ideal of codimension 1 is maximal (anything larger is everything)."""
    return s.codim == 1 and is_ideal(L, s)


def derived_subspace(L: FiniteNLieAlgebra, s: Subspace) -> Subspace:
    """span of brackets of n elements of s, made lazily, so that none is made
    after they span L (see `Subspace`)."""
    sparse = [{i: c for i, c in enumerate(r) if not L.field.is_zero(c)} for r in s.basis]
    products = map(L.bracket_sparse, itertools.combinations(sparse, L.arity))
    return Subspace(L.field, L.dim, _dense(L, products))


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
    return _series(L, "lower-central", lambda s: Subspace(L.field, L.dim, _ad_images(L, s.basis)))


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
    p over the row stacks of `_line_stacks`, computed by `_nonsingular` in
    a dtype that provably cannot wrap; a proper closure is recomputed by
    `ideal_closure` as the witness.  A stack holds at most d^2 matrices, so
    no sum has more terms: where d^2 (p-1)^2 + p - 1 is past the int64
    maximum, `BudgetExceeded` refuses before any line is enumerated, as it
    does past the line budget.  Where it pays, a stack is tried first on a
    d-matrix sketch, fixed combinations of its matrices (`_proper_lines`):
    an invertible sketch proves the closure full, a singular one proves
    nothing and the stack decides, so a sketch never settles a proper line
    and the certificate is the same without it.
    Where d + 1 < p (and p is at most one core's share of the lines in
    flight, `_striped`), the enumeration runs over stripe starts v0: the
    first stack's sketch decides the p lines v0 + t e_{d-1} from d + 1
    exact determinants, and only the lines where its determinant vanishes
    are made into rows, for a second, independent sketch and then the stacks
    (`_decide_stripes`), with the same decisions as line by line.
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
        import numpy as np

        p, d = L.field.p, L.dim
        required = _line_count(p, d)
        if required > budget:
            raise BudgetExceeded(required, budget)
        if not _fits(np.dtype(np.int64), p, d * d):
            raise BudgetExceeded(required, budget, (
                f"exhaustive line enumeration over F_{p} in dimension {d} forms sums "
                f"up to {d * d * (p - 1) ** 2 + p - 1}, past the int64 maximum "
                f"{2 ** 63 - 1}"))
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


def _fits(dtype, p: int, terms: int) -> bool:
    """Whether `dtype` holds a sum of `terms` products of residues mod p, of
    either sign, and its reduction by `_reduce`, whose intermediate can
    exceed it by p - 1 in magnitude (p(p-1) for one product)."""
    import numpy as np

    return terms * (p - 1) ** 2 + p - 1 <= np.iinfo(dtype).max


def _reduce(x, p: int):
    """x mod p, in place, as x - (x // p) * p: numpy's `%` gives the same
    residues on fixed-width integers but takes several times as long."""
    x -= x // p * p
    return x


def _residue_dtype(p: int, terms: int):
    """The narrowest of int16, int32 and int64 that `_fits` (p, terms), which
    `certify_simplicity` makes sure int64 does."""
    import numpy as np

    dtype = next((np.dtype(t) for t in (np.int16, np.int32)
                  if _fits(np.dtype(t), p, terms)), np.dtype(np.int64))
    assert _fits(dtype, p, terms)
    return dtype


# certification lines in flight over all threads, one chunk per thread.
# Each thread allocates in a heap of its own, and two chunks of 16,384 lines
# raised the peak RSS of certifying A_4 over F_89 by 3% on 2 cores
LINES_IN_FLIGHT = 24576


def available_cores() -> int:
    """The number of cores this process may run on: its CPU affinity where
    the platform reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _certify_prime_exhaustive(L: FiniteNLieAlgebra, L1: Subspace) -> SimplicityCertificate:
    """Decide the lines in order, one block of `_line_tasks` per call, on one
    thread per available core, or per block if fewer (numpy releases the GIL
    in the kernel).  At most one block per thread is in flight, and results
    are taken in enumeration order: the first block with a proper line
    cancels the rest, so the verdict, witness, `lines_checked` and per-stack
    counts do not depend on the number of threads.

    A block is `LINES_IN_FLIGHT` lines over the cores.  Where lines are
    decided in stripes (`_striped`), it is stripe starts instead: as many as
    take the entries of the d x d matrices of that many single lines,
    counting d + 2 matrices and p values for a stripe, but at least one, and
    no more than ceil(lines / cores) lines, so that every core still gets a
    block; the rows it makes are decided at most a block of single lines at
    a time.
    """
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    p, d = L.field.p, L.dim
    stacks = _line_stacks(L)
    dtype, cores, lines = stacks[0].dtype, available_cores(), _line_count(p, d)
    chunk = max(1, LINES_IN_FLIGHT // cores)
    striped = _striped(p, d, len(stacks[0]))
    if striped:
        # a line's entries are d * d, a stripe's (d + 2) * d * d + p
        chunk = p * max(1, min(chunk * d * d // ((d + 2) * d * d + p), -(-lines // cores) // p))
    # never more threads than ceil(lines / chunk)
    workers = min(cores, -(-lines // chunk))
    tasks = _line_tasks(p, d, chunk, dtype, striped)
    checked, per_stack, row = 0, np.zeros(len(stacks), dtype=np.int64), None
    pool = ThreadPoolExecutor(max_workers=workers)

    def submit(task):
        decide, V = task
        return pool.submit(decide, stacks, V, p)

    try:
        pending = deque(map(submit, itertools.islice(tasks, workers)))
        while pending:
            decided, counts, row = pending.popleft().result()
            checked += decided
            per_stack += counts
            if row is not None:
                break
            pending.extend(map(submit, itertools.islice(tasks, 1)))
    finally:
        # drop the blocks not yet started, and wait for the running ones
        pool.shutdown(cancel_futures=True)
    notes = {"lines_per_stack": per_stack.tolist()}
    if row is not None:
        # genuine proper closure: recompute it with the exact fixed-point
        # iteration and return it as the witness
        witness = ideal_closure(L, Subspace(L.field, d, [[int(x) for x in row]]))
        return SimplicityCertificate("non-simple", "exhaustive-1dim", checked, witness,
                                     notes=notes)
    return SimplicityCertificate("simple", "exhaustive-1dim", checked, None,
                                 notes={"derived_dim": L1.dim, **notes})


def _line_tasks(p: int, d: int, chunk: int, dtype, striped: bool):
    """The certification's blocks in enumeration order, as (decide, rows)
    pairs: `decide(stacks, rows, p)` gives the `_decide_lines` triple of the
    lines the rows stand for.

    Per line, the rows are the lines of `_canonical_line_chunks`, `chunk` at
    a time.  In stripes, every line but e_{d-1} is v0 + t e_{d-1} for one t
    in F_p and one stripe start v0 = (u, 0), u a canonical line of F_p^(d-1),
    and the enumeration lists each stripe's p lines in a row: the rows are
    the u, chunk // p at a time, for `_decide_stripes`, and the line e_{d-1}
    comes last on its own."""
    import numpy as np

    if not striped:
        for V in _canonical_line_chunks(p, d, chunk, dtype):
            yield _decide_lines, V
        return
    for U in _canonical_line_chunks(p, d - 1, chunk // p, dtype):
        yield _decide_stripes, U
    yield _decide_lines, np.eye(1, d, d - 1, dtype=dtype)


def _decide_lines(stacks, V, p: int):
    """The lines (rows of V) decided in order by `_proper_lines`: (how many
    lines up to and including the first proper one, or all of them; how many
    of those each stack settled; that line, or None)."""
    import numpy as np

    proper, settled = _proper_lines(stacks, V, p)
    cut = int(proper[0]) + 1 if proper.size else len(V)
    row = V[cut - 1] if proper.size else None
    return cut, np.bincount(settled[:cut], minlength=len(stacks)), row


def _decide_stripes(stacks, U, p: int):
    """`_decide_lines` of the stripes that start at v0 = (u, 0) for the rows u
    of U, each the p lines v0 + t e_{d-1}, t = 0..p-1, where `_striped` holds.

    Along a stripe, T(v0 + t e_{d-1}) = T v0 + t T e_{d-1} for the first
    stack's sketch T of seed 1, so det T v is a polynomial of degree at most
    d in t: its values at the nodes t = 0..d (`_determinants`) fix its value
    at every t in F_p through the (d + 1) x p Lagrange matrix of `_lagrange`.  A
    nonzero value is an invertible T v, which settles the line on the first
    stack.  Only the lines with a zero value become rows.  T, known singular
    on them, is not tried again: `_proper_lines` decides them with its
    sketches of seed 0, independent of T, then each stack's rank, so the
    lines are decided exactly as line by line."""
    import numpy as np

    d = U.shape[1] + 1
    T = _sketch(stacks[0], p, 1)
    # T v0 per stripe, the stripes innermost, then T v at each node
    A = _reduce(np.einsum("kij,jb->kib", T[:, :, :-1], U.T), p)
    step = _reduce(T[:, :, -1, None] * np.arange(d + 1, dtype=T.dtype), p)
    W = _reduce(A[:, :, None, :] + step[..., None], p).reshape(d, d, -1)
    values = _determinants(W, p).reshape(d + 1, -1).T @ _lagrange(p, d)
    # the lines with a zero value, as positions stripe * p + t, in order,
    # decided at most a per-line block at a time, up to the first proper one
    zeros = np.flatnonzero(_reduce(values.astype(_residue_dtype(p, d + 1)), p) == 0)
    size = LINES_IN_FLIGHT // available_cores()
    counts, decided, row = np.zeros(len(stacks), dtype=np.int64), 0, None
    for at in range(0, zeros.size, size):
        part = zeros[at:at + size]
        V = np.empty((part.size, d), dtype=U.dtype)
        V[:, :-1], V[:, -1] = U[part // p], part % p
        cut, got, row = _decide_lines(stacks, V, p)
        counts += got
        decided += cut
        if row is not None:
            break
    lines = int(zeros[decided - 1]) + 1 if row is not None else len(U) * p
    # the lines up to there with a nonzero value
    counts[0] += lines - decided
    return lines, counts, row


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

    p, d, n = L.field.p, L.dim, L.arity
    gens = np.zeros((1 + math.comb(d, n - 1), d, d), dtype=_residue_dtype(p, d))
    gens[0] = np.eye(d, dtype=gens.dtype)
    # gens[k][l][a] = coeff of e_l in [e_a, *rest] for the k-th rest, zero
    # for a rest outside the index
    for k, rest in enumerate(itertools.combinations(range(d), n - 1), 1):
        for a, vec in L.ad_index.get(rest, _EMPTY).items():
            gens[k, list(vec), a] = [c % p for c in vec.values()]
    stacks = [gens[: d + 3], gens, _matrix_algebra_basis(gens, p)]
    return [s for s, after in zip(stacks, stacks[1:]) if len(s) < len(after)] + stacks[-1:]


def _proper_lines(stacks, V, p: int):
    """The lines (rows of V) whose closure `_line_stacks` finds proper: their
    indices, and for every line the index in `stacks` of the stack that
    settled it.  Each stack settles the lines it proves full; a rank below d
    is trusted only from the last, exact stack, which settles every line left.

    A stack S is tried first through its sketch T (`_sketch`, seed 0), d
    matrices that are combinations of S's and so lie in the algebra the ad
    maps generate: an invertible T v proves span{S v}, and the closure, full,
    and the line counts as settled by S.  A singular T v proves nothing, so
    those lines go on to S itself: a sketch never settles a proper line, and
    the result is the same for any sketch."""
    import numpy as np

    d = V.shape[1]
    assert _fits(V.dtype, p, d)
    left = np.arange(V.shape[0])
    settled = np.full(V.shape[0], len(stacks) - 1, dtype=np.int8)
    for i, S in enumerate(stacks):
        T = _sketch(S, p) if left.size else None
        if T is not None:
            # the d x d matrix T v of each line, the lines innermost
            full = _nonsingular(_reduce(np.einsum("kij,jb->kib", T, V.T[:, left]), p), p)
            settled[left[full]] = i
            left = left[~full]
        if left.size:
            # the images S_k v of each line as the rows of an r x d matrix
            full = _nonsingular(_reduce(np.einsum("rij,jb->rib", S, V.T[:, left]), p), p)
            settled[left[full]] = i
            left = left[~full]
    return left, settled


def _sketched(p: int, d: int, r: int) -> bool:
    """Whether a stack of r matrices d x d mod p is tried on a sketch first:
    deciding a line on it costs at most about d/r of deciding it on the
    stack, and a line whose stack rank is d keeps rank d on it unless R.M,
    for the r x d matrix M of the line's images, is singular, which for a
    random R happens with probability about 1/(p - 1) (Cheung, Kwok & Lau,
    J. ACM 60 (2013)); so only where d/r + 1/(p - 1) < 1."""
    return d * (p - 1) + r < r * (p - 1)


def _sketch(S, p: int, seed: int = 0):
    """R.S mod p for the fixed d x r matrix R of `_sketch_rows` of `seed`: d
    matrices in S's dtype, each a combination of the r of S; None where
    `_sketched` says it cannot pay."""
    r, d = S.shape[:2]
    if not _sketched(p, d, r):
        return None
    R = _sketch_rows(p, d, r, seed)
    # r products per entry, in R's dtype, reduced into S's
    T = R @ S.reshape(r, d * d).astype(R.dtype)
    return _reduce(T, p).astype(S.dtype).reshape(d, d, d)


@functools.lru_cache(maxsize=None)
def _sketch_rows(p: int, d: int, r: int, seed: int = 0):
    """A fixed d x r matrix of residues mod p drawn with `seed`, read-only,
    in the narrowest dtype that holds a sum of r products mod p."""
    import numpy as np

    rng = random.Random(seed)
    R = np.array([[rng.randrange(p) for _ in range(r)] for _ in range(d)],
                 dtype=_residue_dtype(p, r))
    R.flags.writeable = False
    return R


def _striped(p: int, d: int, r: int) -> bool:
    """Whether the first stack, of r matrices d x d mod p, decides lines a
    stripe at a time (`_decide_stripes`): where it is sketched and
    d + 1 < p, so that the d + 1 interpolation nodes are distinct mod p and
    fewer than the p lines they decide, and where a stripe is no longer than
    one core's share of `LINES_IN_FLIGHT`, so that a block of whole stripes
    fits the lines in flight."""
    return d + 1 < p <= LINES_IN_FLIGHT // available_cores() and _sketched(p, d, r)


@functools.lru_cache(maxsize=None)
def _lagrange(p: int, d: int):
    """The (d + 1) x p matrix mod p whose column t takes the values of a
    polynomial of degree at most d at t = 0..d to its value at t, read-only,
    in float64: a product with residues sums d + 1 integers below p^2, and
    BLAS sums integers below 2^53 exactly, several times faster than
    numpy's integer matmul."""
    import numpy as np

    assert (d + 1) * (p - 1) ** 2 < 2 ** 53
    cols = []
    for t in range(p):
        col = []
        for m in range(d + 1):
            num = den = 1
            for j in range(d + 1):
                if j != m:
                    num, den = num * (t - j) % p, den * (m - j) % p
            col.append(num * pow(den, -1, p) % p)
        cols.append(col)
    M = np.array(cols, dtype=np.float64).T.copy()
    M.flags.writeable = False
    return M


def _determinants(W, p: int):
    """The determinant mod p of each square matrix W[:, :, b] of a batch
    (c, c, B) with entries in [0, p), in W's dtype; W is overwritten.

    Elimination with the batch innermost, as in `_nonsingular`, but with row
    swaps: column by column, each matrix's first row on or below the
    diagonal with a nonzero entry there is swapped up, which negates the
    determinant, and is the pivot P; every row x below it turns into
    P*x - x[col]*pivot_row, which scales the determinant by P.  The pivots
    end on the diagonal of a triangle, so the determinant is, up to the
    swaps' sign, their product divided by the scalings, which are inverted
    once at the end (Fermat: x^(p-2) = 1/x mod p).  As in `_eliminate`,
    values stay within (p-1)^2 in magnitude, and reducing them within
    p(p-1), which W's dtype must hold.
    """
    import numpy as np

    assert _fits(W.dtype, p, 1)
    c, _, B = W.shape
    det, scale = np.ones(B, dtype=W.dtype), np.ones(B, dtype=W.dtype)
    odd = np.zeros(B, dtype=bool)
    for col in range(c):
        head = (W[col:, col] != 0).argmax(axis=0) + col
        swap = np.flatnonzero(head != col)
        if swap.size:
            top = W[col, :, swap]
            W[col, :, swap] = W[head[swap], :, swap]
            W[head[swap], :, swap] = top
            odd[swap] ^= True
        P = W[col, col]
        det = _reduce(det * P, p)
        if not det.any():
            return det
        if col < c - 1:
            # the c - 1 - col rows below scale by P, so P_k is in the
            # scalings c - 1 - k times: once in each running product
            # P_0...P_j, k <= j < c - 1
            scale = _reduce(scale * det, p)
        X = W[col + 1:, col + 1:]
        X[...] = _reduce(P * X - W[col + 1:, col:col + 1] * W[col:col + 1, col + 1:], p)
    # det / scale = det * scale^(p - 2)
    inv, e = np.ones(B, dtype=W.dtype), p - 2
    while e:
        if e & 1:
            inv = _reduce(inv * scale, p)
        scale, e = _reduce(scale * scale, p), e >> 1
    det = _reduce(det * inv, p)
    det[odd] = _reduce(-det[odd], p)
    return det


def _nonsingular(W, p: int):
    """Whether each matrix W[:, :, b] of a batch (r, c, B) with entries in
    [0, p) has rank c mod p (is invertible, where square); W is overwritten.

    Dense elimination with the batch innermost, so every step is one
    vectorized pass over all B matrices.  Column by column, each matrix's
    first row with a nonzero entry there is the pivot P, and every row x
    turns into P[col]*x - x[col]*P: the other rows lose their entry in the
    column and the pivot row becomes zero, so it is never chosen again.  A
    column with no pivot means a rank below c.  As in `_eliminate`, values
    stay within (p-1)^2 in magnitude, and reducing them within p(p-1), which
    W's dtype must hold.  On square matrices it decides what
    `_determinants(W, p) != 0` does, without the row swaps and the final
    inversion, which on the small batches of the per-line test cost more
    than its updates of whole columns.
    """
    import numpy as np

    assert _fits(W.dtype, p, 1)
    _, c, B = W.shape
    full, cols, batch = np.ones(B, dtype=bool), np.arange(c)[:, None], np.arange(B)
    for col in range(c):
        head = (W[:, col] != 0).argmax(axis=0)
        P = W[head, cols[col:], batch]
        full &= P[0] != 0
        if not full.any():
            break
        X = W[:, col + 1:]
        X[...] = _reduce(P[:1] * X - W[:, col:col + 1] * P[1:], p)
    return full


def _canonical_line_chunks(p: int, d: int, chunk: int, dtype):
    """Canonical projective representatives: first nonzero coordinate is 1,
    enumerated by pivot position then lexicographic tail, in chunks of
    `chunk` lines (the last may be shorter) that run across pivot blocks."""
    import numpy as np

    lines = _line_count(p, d)
    for start in range(0, lines, chunk):
        V = np.zeros((min(chunk, lines - start), d), dtype=dtype)
        for k in range(d):
            # pivot k's block: the p^(d-1-k) lines after those of pivots < k
            first = lines - _line_count(p, d - k)
            lo, hi = max(start, first), min(start + len(V), first + p ** (d - 1 - k))
            if lo >= hi:
                continue
            block = V[lo - start:hi - start]
            block[:, k] = 1
            x = np.arange(lo - first, hi - first, dtype=np.int64)
            for col in range(d - 1, k, -1):
                block[:, col] = x % p
                x //= p
        yield V


def _eliminate(W, p: int):
    """Row-reduce a matrix W (r, c) with entries in [0, p) modulo p, in
    place; returns the mask of its pivot rows, whose sum is the rank.

    It is the pivot search for one matrix; `_nonsingular` and
    `_determinants` search a batch at once.  Rows are never swapped: column
    by column, the first row that is not yet a pivot and has a nonzero
    entry becomes the pivot, and every other such row r turns into
    piv*r - r[col]*pivot_row.  That fraction-free step needs no inverse, and
    its values stay within (p-1)^2 in magnitude, and reducing them within
    p(p-1), which W's dtype must hold.
    Rows that are zero in the column are left alone, so sparse matrices cost
    little, and a pivot row never changes once chosen: leading rows whose
    first nonzero entries lie in distinct columns, as the pivot rows of an
    earlier call do, all become pivots and come out as they went in.
    """
    import numpy as np

    assert _fits(W.dtype, p, 1)
    pivots = np.zeros(len(W), dtype=bool)
    for col in range(W.shape[1]):
        live = (W[:, col] != 0) & ~pivots
        if not live.any():
            continue
        head = live.argmax()
        pivots[head], live[head] = True, False
        clear = np.flatnonzero(live)
        P, X = W[head, col:], W[clear, col:]
        W[clear, col:] = _reduce(P[:1] * X - X[:, :1] * P, p)
    return pivots


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
        pivots = _eliminate(stack, p)
        new = stack[len(basis):][pivots[len(basis):]]
        members = np.concatenate([members, new.reshape(-1, d, d)])
        basis = stack[pivots]
        if not len(members) or len(basis) == d * d:
            return basis.reshape(-1, d, d)
        block = _reduce(members[-take:, None] @ gens[1:], p)
        members = members[:-take]
