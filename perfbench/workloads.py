"""Workload documents for the trilie benchmark.

Each workload is a list of definition documents made from a seed; the
program under test only ever sees the rendered files.  Run as a script, this
module is the set-up probe: it imports trilie, writes one workload's
documents and exits, so the parent can time a fresh process doing set-up.

    python3 perfbench/workloads.py --workload corpus --seed 3 --out-dir DIR
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("corpus", "certify-a4", "quotient-p11")

# the quotient certification the paper headlines; left out of the corpus
# because one certification alone outlasts a benchmark run
HEADLINE = "laurent-quotient-p5"
A4_PRIME = 89
QUOTIENT_PRIME = 11


def import_trilie():
    """Import trilie from this checkout's `src`, never from anywhere else."""
    if not os.path.isdir(os.path.join(SRC, "trilie")):
        raise SystemExit(f"no trilie sources under {SRC}")
    sys.path.insert(0, SRC)
    import trilie

    if not os.path.abspath(trilie.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported trilie from {trilie.__file__}, not from {SRC}")
    return trilie


def seeded_permutation(n: int, seed: int) -> list:
    """Seed 0 is the identity; any other seed is a shuffle of range(n)."""
    perm = list(range(n))
    if seed:
        random.Random(seed).shuffle(perm)
    return perm


def quotient_document(p: int, seed: int, simplicity: bool) -> dict:
    """The bundled p = 5 quotient document moved to prime p, with the carrier
    basis permuted by the seed.  Seed 0 keeps the carrier order, so p = 5,
    seed 0, with simplicity is the bundled document itself."""
    from trilie.bundled import get_bundled
    from trilie.carriers import QuotientLaurentAlgebra
    from trilie.fields import PrimeField

    doc = get_bundled(HEADLINE)
    if p != 5:
        doc["name"] = f"laurent-quotient-p{p}"
        doc["description"] = (f"{2 * p}-dimensional quotient of the parity "
                              f"bracket, p = {p}")
        doc["meta"]["construction"] = (
            f"the quotient construction of {HEADLINE} at p = {p}")
        doc["field"]["p"] = p
        doc["carrier"]["p"] = p
    if not simplicity:
        doc["campaigns"] = [c for c in doc["campaigns"] if c["check"] != "simplicity"]
    carrier = QuotientLaurentAlgebra(PrimeField(p), p)
    basis = carrier.basis_indices()
    perm = seeded_permutation(len(basis), seed)
    if perm != list(range(len(basis))):
        doc["basis"] = {"kind": "explicit",
                        "indices": [carrier.index_str(basis[k]) for k in perm]}
    return doc


def _perm_sign(seq) -> int:
    sign = 1
    for a, b in itertools.combinations(seq, 2):
        if a > b:
            sign = -sign
    return sign


def a4_scales(p: int, seed: int) -> list:
    """Seed 0 keeps the unit basis; any other seed rescales it."""
    if not seed:
        return [1] * 4
    rng = random.Random(seed)
    return [rng.randrange(1, p) for _ in range(4)]


def a4_document(p: int, seed: int) -> dict:
    """Filippov's simple 4-dimensional 3-Lie algebra A_4 over F_p:
    [u_i,u_j,u_k] = eps_ijkl u_l.  The document format has no bracket form
    for a bare table, so the table is stated as mutations of the zero
    bracket on F_p[Z_4] (a hom Z_4 -> F_p^+ vanishes for odd p).  The seed
    picks the basis e_perm[i] = c_i u_i; every seed gives an isomorphic
    algebra with the same number of lines to certify."""
    perm = seeded_permutation(4, seed)
    scale = a4_scales(p, seed)
    at = {pos: i for i, pos in enumerate(perm)}     # position -> u index
    mutations = []
    for key in itertools.combinations(range(4), 3):
        (out,) = set(range(4)) - set(key)
        i, j, k, l = (at[x] for x in key + (out,))
        # [c_i u_i, c_j u_j, c_k u_k] = c_i c_j c_k / c_l * eps_ijkl * (c_l u_l)
        coeff = _perm_sign((i, j, k, l)) * scale[i] * scale[j] * scale[k] * pow(scale[l], -1, p)
        mutations.append({"args": list(key), "out": out, "add": str(coeff % p)})
    return {
        "version": 1,
        "name": f"a4-f{p}",
        "description": f"Filippov's simple 4-dimensional 3-Lie algebra A_4 over F_{p}",
        "meta": {"construction": "[u_i,u_j,u_k] = eps_ijkl u_l in a rescaled, "
                                 "permuted basis, stated as mutations of the zero "
                                 "wedge bracket on F_p[Z_4]",
                 "expect": "all-pass"},
        "field": {"kind": "prime", "p": p},
        "carrier": {"shape": "group", "torsion": [4]},
        "maps": {},
        "bracket": {"form": "group-wedge", "hom": {"torsion": ["0"]},
                    "mutations": mutations},
        "basis": {"kind": "carrier"},
        "campaigns": [
            {"name": "skew", "check": "skew"},
            {"name": "fi", "check": "fundamental-identity", "mode": "exhaustive"},
            {"name": "derived", "check": "derived-series", "expect": "stabilizes-full"},
            {"name": "simplicity", "check": "simplicity", "expect": "simple"},
        ],
    }


def workload_documents(workload: str, seed: int) -> list:
    """The workload's documents for this seed, in the order they are run."""
    if workload == "corpus":
        from trilie.bundled import bundled_names, get_bundled

        return [get_bundled(n) for n in bundled_names() if n != HEADLINE]
    if workload == "certify-a4":
        return [a4_document(A4_PRIME, seed)]
    if workload == "quotient-p11":
        return [quotient_document(QUOTIENT_PRIME, seed, simplicity=False)]
    raise ValueError(f"unknown workload {workload!r}")


def write_documents(workload: str, seed: int, out_dir: str) -> list:
    """Render the workload's documents into out_dir; returns the paths."""
    from trilie.documents import render_document

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for doc in workload_documents(workload, seed):
        path = os.path.join(out_dir, f"{doc['name']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_document(doc))
        paths.append(path)
    return paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    import_trilie()
    write_documents(args.workload, args.seed, args.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
