"""Bundled algebra definition documents.

One document per construction the package certifies: cyclic and matrix group
algebras, the Laurent flip and parity families with their isomorphisms,
ideals and quotients, the truncated-polynomial functional brackets, the
Lie-algebra lifts, the Dirac gamma algebra, and two negative controls that
are expected to fail (their meta.expect says so).
"""

from __future__ import annotations

import copy
from typing import Dict, List


def _doc(name, description, construction, expect="all-pass", **body) -> dict:
    doc = {
        "version": 1,
        "name": name,
        "description": description,
        "campaigns": [],
        "meta": {"construction": construction, "expect": expect},
    }
    doc.update(body)
    return doc


_BUNDLED: List[dict] = [
    # -- group algebras ------------------------------------------------
    _doc(
        "cyclic-group-f3",
        "Group algebra of Z_3 over F_3 with the wedge bracket of the identity hom",
        "3-dimensional bracket [e_g,e_h,e_w] = a(w-h)e_{h+w-g} + a(g-w)e_{g+w-h} "
        "+ a(h-g)e_{g+h-w} on F_3[Z_3], a = identity; the hom kernel is a "
        "maximal ideal, so the algebra is not simple",
        field={"kind": "prime", "p": 3},
        carrier={"shape": "group", "torsion": [3]},
        maps={
            "neg": {"rule": "group-negation"},
            "alphastar": {"rule": "hom-derivation", "hom": {"torsion": ["1"]}},
        },
        bracket={"form": "group-wedge", "hom": {"torsion": ["1"]}},
        basis={"kind": "carrier"},
        campaigns=[
            {"name": "skew", "check": "skew"},
            {"name": "fi", "check": "fundamental-identity", "mode": "exhaustive"},
            {"name": "closed-vs-det", "check": "closed-vs-determinant",
             "rows": ["neg", "id", "alphastar"]},
            {"name": "anticommute", "check": "anticommute",
             "omega": "neg", "delta": "alphastar"},
            {"name": "kernel-ideal", "check": "kernel-ideal"},
            {"name": "simplicity", "check": "simplicity", "expect": "non-simple"},
        ],
    ),
    _doc(
        "cyclic-group-f5",
        "Group algebra of Z_5 over F_5 with the wedge bracket of the identity hom",
        "5-dimensional wedge bracket on F_5[Z_5]; the hom kernel is a maximal "
        "ideal of codimension 1",
        field={"kind": "prime", "p": 5},
        carrier={"shape": "group", "torsion": [5]},
        maps={
            "neg": {"rule": "group-negation"},
            "alphastar": {"rule": "hom-derivation", "hom": {"torsion": ["1"]}},
        },
        bracket={"form": "group-wedge", "hom": {"torsion": ["1"]}},
        basis={"kind": "carrier"},
        campaigns=[
            {"name": "skew", "check": "skew"},
            {"name": "fi", "check": "fundamental-identity", "mode": "exhaustive"},
            {"name": "kernel-ideal", "check": "kernel-ideal"},
            {"name": "simplicity", "check": "simplicity", "expect": "non-simple"},
        ],
    ),
    _doc(
        "matrix-group-2x2-f5",
        "Group algebra of the additive group of 2x2 matrices over F_5, "
        "half-sum hom",
        "625-dimensional wedge bracket on F_5[(Z_5)^4] with a(A) = (1/2) sum of "
        "the entries; certified non-simple through the kernel of the hom "
        "functional (structure constants are never tabulated at this size)",
        field={"kind": "prime", "p": 5},
        carrier={"shape": "group", "torsion": [5, 5, 5, 5]},
        maps={
            "neg": {"rule": "group-negation"},
            "alphastar": {"rule": "hom-derivation",
                          "hom": {"torsion": ["3", "3", "3", "3"]}},
        },
        bracket={"form": "group-wedge", "hom": {"torsion": ["3", "3", "3", "3"]}},
        basis={"kind": "carrier", "tabulate": False},
        campaigns=[
            {"name": "fi-sampled", "check": "fundamental-identity",
             "mode": "sampled", "samples": 150},
            {"name": "anticommute", "check": "anticommute",
             "omega": "neg", "delta": "alphastar", "bound": 1},
            {"name": "kernel-ideal", "check": "kernel-ideal"},
        ],
    ),
    _doc(
        "matrix-trace-group-f3",
        "Group algebra of 2x2 matrices over F_3 with the trace hom",
        "81-dimensional wedge bracket on F_3[(Z_3)^4] with a(A) = tr(A); the "
        "trace-hom kernel is a maximal ideal",
        field={"kind": "prime", "p": 3},
        carrier={"shape": "group", "torsion": [3, 3, 3, 3]},
        maps={
            "neg": {"rule": "group-negation"},
            "trstar": {"rule": "hom-derivation",
                       "hom": {"torsion": ["1", "0", "0", "1"]}},
        },
        bracket={"form": "group-wedge", "hom": {"torsion": ["1", "0", "0", "1"]}},
        basis={"kind": "carrier", "tabulate": False},
        campaigns=[
            {"name": "fi-sampled", "check": "fundamental-identity",
             "mode": "sampled", "samples": 150},
            {"name": "kernel-ideal", "check": "kernel-ideal"},
        ],
    ),
    _doc(
        "matrix-group-2x2-q",
        "Group algebra of integer 2x2 matrices over Q, half-sum hom",
        "infinite-dimensional wedge bracket on Q[Z^4]; window campaigns only",
        field={"kind": "rationals"},
        carrier={"shape": "group", "free": 4},
        maps={
            "neg": {"rule": "group-negation"},
            "alphastar": {"rule": "hom-derivation",
                          "hom": {"free": ["1/2", "1/2", "1/2", "1/2"]}},
        },
        bracket={"form": "group-wedge",
                 "hom": {"free": ["1/2", "1/2", "1/2", "1/2"]}},
        basis={"kind": "window", "bound": 1, "tabulate": False},
        campaigns=[
            {"name": "fi-sampled", "check": "fundamental-identity",
             "mode": "sampled", "samples": 120},
            {"name": "derivation-law", "check": "derivation-law",
             "map": "alphastar", "bound": 1},
            {"name": "anticommute", "check": "anticommute",
             "omega": "neg", "delta": "alphastar", "bound": 1},
        ],
    ),
    # -- Laurent flip family --------------------------------------------
    _doc(
        "laurent-flip-lambda2",
        "Laurent ring over Q with the flip-involution bracket, scale 2",
        "[t^l,t^m,t^n] = 2^l(n-m)t^{m+n-l} + 2^m(l-n)t^{n+l-m} + 2^n(m-l)t^{l+m-n} "
        "on Q[t,t^-1]; verified against the determinant with rows "
        "(flip involution, identity, t d/dt)",
        field={"kind": "rationals"},
        carrier={"shape": "laurent"},
        maps={
            "omega2": {"rule": "laurent-flip", "lambdas": ["2"]},
            "euler": {"rule": "laurent-derivation", "power": 1},
        },
        bracket={"form": "laurent-flip", "lambdas": ["2"]},
        basis={"kind": "window", "bound": 4, "tabulate": False},
        campaigns=[
            {"name": "alternating", "check": "alternating", "bound": 3},
            {"name": "involution-law", "check": "involution-law",
             "map": "omega2", "bound": 4},
            {"name": "anticommute", "check": "anticommute",
             "omega": "omega2", "delta": "euler", "bound": 8},
            {"name": "fi-window", "check": "fundamental-identity"},
            {"name": "closed-vs-det", "check": "closed-vs-determinant",
             "rows": ["omega2", "id", "euler"], "bound": 7},
        ],
    ),
    _doc(
        "laurent-flip-unit",
        "Laurent ring over Q with the unit flip bracket and its grading",
        "[t^l,t^m,t^n] = (n-m)t^{m+n-l} + (l-n)t^{n+l-m} + (m-l)t^{l+m-n}; the "
        "fixed and anti-fixed spaces of t^m -> t^-m are abelian subalgebras "
        "swapped by t d/dt",
        field={"kind": "rationals"},
        carrier={"shape": "laurent"},
        maps={
            "omega1": {"rule": "laurent-flip", "lambdas": ["1"]},
            "euler": {"rule": "laurent-derivation", "power": 1},
        },
        bracket={"form": "laurent-flip", "lambdas": ["1"]},
        basis={"kind": "window", "bound": 4, "tabulate": False},
        campaigns=[
            {"name": "fi-window", "check": "fundamental-identity"},
            {"name": "closed-vs-det", "check": "closed-vs-determinant",
             "rows": ["omega1", "id", "euler"], "bound": 7},
            {"name": "antisymmetry", "check": "involution-antisymmetry",
             "omega": "omega1", "bound": 3},
            {"name": "grading", "check": "grading", "delta": "euler", "bound": 4},
            {"name": "witt", "check": "witt", "bound": 2},
        ],
    ),
    _doc(
        "laurent-flip-iso",
        "Scaling isomorphism between flip brackets with scales 4 and 1",
        "sigma(t^m) = 2^m t^m intertwines the scale-4 flip bracket with the "
        "unit flip bracket and conjugates the two involutions",
        field={"kind": "rationals"},
        carrier={"shape": "laurent"},
        maps={},
        bracket={"form": "laurent-flip", "lambdas": ["4"]},
        basis={"kind": "window", "bound": 5, "tabulate": False},
        campaigns=[
            {"name": "iso", "check": "homomorphism",
             "map": {"rule": "monomial-scale", "base": "2"},
             "target": {"form": "laurent-flip", "lambdas": ["1"]},
             "bound": 5, "require_invertible": True,
             "intertwine": [
                 {"name": "omega",
                  "source": {"rule": "laurent-flip", "lambdas": ["4"]},
                  "target": {"rule": "laurent-flip", "lambdas": ["1"]}},
                 {"name": "delta",
                  "source": {"rule": "laurent-derivation", "power": 1},
                  "target": {"rule": "laurent-derivation", "power": 1}},
             ]},
        ],
    ),
    _doc(
        "laurent-multivar-flip",
        "Two-variable Laurent ring with a flip involution and one scaling "
        "derivation",
        "flip t^r -> (2^{r_1} 5^{r_2}) t^-r anticommutes with each scaling "
        "derivation t_j d/dt_j and yields a closed-form bracket",
        field={"kind": "rationals"},
        carrier={"shape": "laurent", "vars": 2},
        maps={
            "omega": {"rule": "laurent-flip", "lambdas": ["2", "5"]},
            "delta0": {"rule": "variable-scaling-derivation", "var": 0},
        },
        bracket={"form": "laurent-flip", "lambdas": ["2", "5"], "var": 0},
        basis={"kind": "window", "bound": 1, "tabulate": False},
        campaigns=[
            {"name": "involution-law", "check": "involution-law",
             "map": "omega", "bound": 1},
            {"name": "anticommute", "check": "anticommute",
             "omega": "omega", "delta": "delta0", "bound": 2},
            {"name": "closed-vs-det", "check": "closed-vs-determinant",
             "rows": ["omega", "id", "delta0"], "bound": 1},
            {"name": "fi-sampled", "check": "fundamental-identity",
             "mode": "sampled", "samples": 150},
        ],
    ),
    # -- Laurent parity family -------------------------------------------
    _doc(
        "laurent-even-shift-k1",
        "Laurent ring over Q with the parity bracket of t^2 d/dt",
        "[t^l,t^m,t^n] = {(-1)^l(n-m)+(-1)^m(l-n)+(-1)^n(m-l)} t^{l+m+n+1}; "
        "equal to the monomial bracket with the parity determinant "
        "coefficient and shift 1",
        field={"kind": "rationals"},
        carrier={"shape": "laurent"},
        maps={
            "sign": {"rule": "monomial-scale", "base": "-1"},
            "d2": {"rule": "laurent-derivation", "power": 2},
        },
        bracket={"form": "laurent-parity", "shift": 2},
        basis={"kind": "window", "bound": 4, "tabulate": False},
        campaigns=[
            {"name": "anticommute", "check": "anticommute",
             "omega": "sign", "delta": "d2", "bound": 8},
            {"name": "fi-window", "check": "fundamental-identity"},
            {"name": "closed-vs-det", "check": "closed-vs-determinant",
             "rows": ["sign", "id", "d2"], "bound": 7},
            {"name": "monomial-form", "check": "monomial-parity-agreement",
             "shift": 2, "bound": 6},
        ],
    ),
    _doc(
        "laurent-deriv-zero",
        "Laurent ring over Q with the parity bracket of d/dt; simplicity "
        "evidence",
        "[t^l,t^m,t^n] = {(-1)^l(n-m)+(-1)^m(l-n)+(-1)^n(m-l)} t^{l+m+n-1}; "
        "over Q the one-bracket reachability and coefficient-vanishing "
        "experiments support simplicity (finite enumeration cannot decide it)",
        field={"kind": "rationals"},
        carrier={"shape": "laurent"},
        maps={
            "sign": {"rule": "monomial-scale", "base": "-1"},
            "d0": {"rule": "laurent-derivation", "power": 0},
        },
        bracket={"form": "laurent-parity", "shift": 0},
        basis={"kind": "window", "bound": 4, "tabulate": False},
        campaigns=[
            {"name": "fi-window", "check": "fundamental-identity"},
            {"name": "closed-vs-det", "check": "closed-vs-determinant",
             "rows": ["sign", "id", "d0"], "bound": 7},
            {"name": "coefficient-vanishing", "check": "parity-vanishing",
             "bound": 8},
            {"name": "reachability", "check": "reachability", "bound": 4},
        ],
    ),
    _doc(
        "laurent-shift-iso-even",
        "Shift isomorphism between the parity brackets of d/dt and t^4 d/dt",
        "sigma(t^m) = t^{m-2} intertwines the shift-0 parity bracket with the "
        "shift-4 one",
        field={"kind": "rationals"},
        carrier={"shape": "laurent"},
        maps={},
        bracket={"form": "laurent-parity", "shift": 0},
        basis={"kind": "window", "bound": 5, "tabulate": False},
        campaigns=[
            {"name": "iso", "check": "homomorphism",
             "map": {"rule": "monomial-shift", "offset": -2},
             "target": {"form": "laurent-parity", "shift": 4},
             "bound": 5, "require_invertible": True},
        ],
    ),
    _doc(
        "laurent-shift-iso-odd",
        "Odd shift isomorphism over Q(i) with the unit anomaly on record",
        "sigma(t^m) = i t^{m-1} intertwines the shift-0 parity bracket with "
        "the shift-2 one away from the unit; the uniform rule moves 1 to "
        "i t^-1, which the report surfaces instead of resolving",
        field={"kind": "gaussian-rationals"},
        carrier={"shape": "laurent"},
        maps={},
        bracket={"form": "laurent-parity", "shift": 0},
        basis={"kind": "window", "bound": 5, "tabulate": False},
        campaigns=[
            {"name": "iso", "check": "homomorphism",
             "map": {"rule": "monomial-shift", "offset": -1, "coeff": "i"},
             "target": {"form": "laurent-parity", "shift": 2},
             "bound": 5, "exclude_unit": True, "require_invertible": True},
        ],
    ),
    # -- ideals and quotients ---------------------------------------------
    _doc(
        "laurent-ideal-pair-p3",
        "Principal ideals of the unit flip bracket over F_3",
        "(t^3 + t^-3) and (t^3 - t^-3) generate proper ideals of the unit "
        "flip bracket over F_3; membership is certified by exact Laurent "
        "division",
        field={"kind": "prime", "p": 3},
        carrier={"shape": "laurent"},
        maps={},
        bracket={"form": "laurent-flip", "lambdas": ["1"]},
        basis={"kind": "window", "bound": 3, "tabulate": False},
        campaigns=[
            {"name": "plus-ideal", "check": "ideal-divisibility", "sign": "+",
             "cofactor_bound": 2, "argument_bound": 3},
            {"name": "minus-ideal", "check": "ideal-divisibility", "sign": "-",
             "cofactor_bound": 2, "argument_bound": 3},
        ],
    ),
    _doc(
        "laurent-deriv-ideals-p3",
        "Principal ideals of the plain-derivative parity bracket over F_3",
        "the same two principal ideals stay ideals for the parity bracket of "
        "d/dt over F_3",
        field={"kind": "prime", "p": 3},
        carrier={"shape": "laurent"},
        maps={},
        bracket={"form": "laurent-parity", "shift": 0},
        basis={"kind": "window", "bound": 3, "tabulate": False},
        campaigns=[
            {"name": "plus-ideal", "check": "ideal-divisibility", "sign": "+",
             "cofactor_bound": 2, "argument_bound": 3},
            {"name": "minus-ideal", "check": "ideal-divisibility", "sign": "-",
             "cofactor_bound": 2, "argument_bound": 3},
        ],
    ),
    _doc(
        "laurent-quotient-p3",
        "6-dimensional simple quotient of the parity bracket, p = 3",
        "the parity bracket of d/dt on F_3[t,t^-1] modulo the ideal generated "
        "by t^3 - t^-3; basis t^-2..t^3, exponents add modulo 6; certified "
        "simple by exhaustive line enumeration",
        field={"kind": "prime", "p": 3},
        carrier={"shape": "quotient-laurent", "p": 3},
        maps={},
        bracket={"form": "quotient-parity"},
        basis={"kind": "carrier"},
        campaigns=[
            {"name": "skew", "check": "skew"},
            {"name": "fi", "check": "fundamental-identity", "mode": "exhaustive"},
            {"name": "derived", "check": "derived-series", "expect": "stabilizes-full"},
            {"name": "simplicity", "check": "simplicity", "expect": "simple"},
        ],
    ),
    _doc(
        "laurent-quotient-p5",
        "10-dimensional simple quotient of the parity bracket, p = 5",
        "the same quotient construction at p = 5: 2,441,406 lines enumerate "
        "every 1-dimensional subspace",
        field={"kind": "prime", "p": 5},
        carrier={"shape": "quotient-laurent", "p": 5},
        maps={},
        bracket={"form": "quotient-parity"},
        basis={"kind": "carrier"},
        campaigns=[
            {"name": "skew", "check": "skew"},
            {"name": "fi", "check": "fundamental-identity", "mode": "exhaustive"},
            {"name": "derived", "check": "derived-series", "expect": "stabilizes-full"},
            {"name": "simplicity", "check": "simplicity", "expect": "simple"},
        ],
    ),
    # -- truncated polynomial functional brackets ---------------------------
    _doc(
        "poly-beta-bracket",
        "Truncated polynomial ring with a functional-row bracket",
        "on Q[x]/(x^4) with D = x^2 d/dx and beta dual to {1, x}, the bracket "
        "beta(a)[b,c]_D + beta(b)[c,a]_D + beta(c)[a,b]_D is a 3-Lie algebra "
        "([1,x,x^2] = -2x^3, so the instance is not vacuous)",
        field={"kind": "rationals"},
        carrier={"shape": "poly-truncated", "n": 4},
        maps={
            "beta": {"rule": "table-functional", "values": ["1", "1", "0", "0"]},
            "dxx": {"rule": "table-map", "entries": [
                ["0", "0", "0", "0"],
                ["0", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "2", "0"],
            ]},
        },
        bracket={"form": "determinant", "rows": [{"functional": "beta"}, "id",
                                                 {"endo": "dxx"}]},
        basis={"kind": "carrier"},
        campaigns=[
            {"name": "derivation-law", "check": "derivation-law", "map": "dxx"},
            {"name": "conditions", "check": "functional-conditions",
             "beta": "beta", "delta": "dxx"},
            {"name": "skew", "check": "skew"},
            {"name": "fi", "check": "fundamental-identity", "mode": "exhaustive"},
        ],
    ),
    _doc(
        "poly-gamma-bracket",
        "Non-unital truncated polynomial ring with the twisted functional "
        "bracket",
        "on x Q[x]/(x^5) with D = x^2 d/dx, the parity involution w and gamma "
        "dual to x^3, the bracket gamma(a)((b-w(b))D(c)-(c-w(c))D(b)) + cyclic "
        "is a 3-Lie algebra ([x,x^2,x^3] = 4x^4)",
        field={"kind": "rationals"},
        carrier={"shape": "poly-truncated", "n": 5, "unital": False},
        maps={
            "gamma": {"rule": "table-functional", "values": ["0", "0", "1", "0"]},
            "omega": {"rule": "table-map", "entries": [
                ["-1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "-1", "0"],
                ["0", "0", "0", "1"],
            ]},
            "dxx": {"rule": "table-map", "entries": [
                ["0", "0", "0", "0"],
                ["1", "0", "0", "0"],
                ["0", "2", "0", "0"],
                ["0", "0", "3", "0"],
            ]},
            "idminus": {"rule": "id-minus", "inner": {"rule": "table-map", "entries": [
                ["-1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "-1", "0"],
                ["0", "0", "0", "1"],
            ]}},
        },
        bracket={"form": "determinant", "rows": [{"functional": "gamma"},
                                                 {"endo": "idminus"},
                                                 {"endo": "dxx"}]},
        basis={"kind": "carrier"},
        campaigns=[
            {"name": "involution-law", "check": "involution-law", "map": "omega"},
            {"name": "derivation-law", "check": "derivation-law", "map": "dxx"},
            {"name": "anticommute", "check": "anticommute",
             "omega": "omega", "delta": "dxx"},
            {"name": "conditions", "check": "functional-conditions",
             "gamma": "gamma", "delta": "dxx", "omega": "omega"},
            {"name": "skew", "check": "skew"},
            {"name": "fi", "check": "fundamental-identity", "mode": "exhaustive"},
        ],
    ),
    # -- Lie lifts and matrix constructions ---------------------------------
    _doc(
        "dirac-gamma",
        "The 4-dimensional algebra of Dirac gamma matrices over Q(i)",
        "[x,y,z] = [[x,y] g5, z] with g5 = g1 g2 g3 g4 inside the 4x4 matrix "
        "algebra; every bracket of basis matrices is certified to land back "
        "in the span, and the derived algebra is everything",
        field={"kind": "gaussian-rationals"},
        bracket={"form": "gamma"},
        campaigns=[
            {"name": "skew", "check": "skew"},
            {"name": "fi", "check": "fundamental-identity", "mode": "exhaustive"},
            {"name": "derived", "check": "derived-series", "expect": "stabilizes-full"},
            {"name": "simplicity", "check": "simplicity", "expect": "evidence-only"},
        ],
    ),
    _doc(
        "metric-sl2",
        "Two-dimensional metric extension of sl(2) with its Killing form",
        "5-dimensional algebra: [x0,x_i,x_j] = [x_i,x_j], the extra vector "
        "xminus is central, and [x_i,x_j,x_k] = B([x_i,x_j],x_k) xminus",
        field={"kind": "rationals"},
        bracket={"form": "metric-extension", "lie": "sl2", "form_matrix": "killing"},
        campaigns=[
            {"name": "skew", "check": "skew"},
            {"name": "fi", "check": "fundamental-identity", "mode": "exhaustive"},
        ],
    ),
    _doc(
        "gl2-trace-lift",
        "gl(2) with the trace lift bracket",
        "[A,B,C] = (tr A)[B,C] + (tr B)[C,A] + (tr C)[A,B] on gl(2); the "
        "derived series vanishes at step two",
        field={"kind": "rationals"},
        bracket={"form": "lie-lift", "lie": {"gl": 2}, "functional": "trace"},
        campaigns=[
            {"name": "skew", "check": "skew"},
            {"name": "fi", "check": "fundamental-identity", "mode": "exhaustive"},
            {"name": "solvable", "check": "derived-series",
             "expect": "vanishes", "at_step": 2},
        ],
    ),
    _doc(
        "gl3-trace-lift",
        "gl(3) with the trace lift bracket",
        "the same lift on gl(3): 9-dimensional, two-step solvable",
        field={"kind": "rationals"},
        bracket={"form": "lie-lift", "lie": {"gl": 3}, "functional": "trace"},
        campaigns=[
            {"name": "skew", "check": "skew"},
            {"name": "fi", "check": "fundamental-identity", "mode": "exhaustive"},
            {"name": "solvable", "check": "derived-series",
             "expect": "vanishes", "at_step": 2},
        ],
    ),
    # -- negative controls ---------------------------------------------------
    _doc(
        "control-mutated-quotient",
        "Quotient construction with one deliberately flipped structure "
        "constant",
        "the p = 3 quotient with +1 added to one coefficient: the fundamental "
        "identity must fail with a concrete witness",
        expect="any-fail",
        field={"kind": "prime", "p": 3},
        carrier={"shape": "quotient-laurent", "p": 3},
        maps={},
        bracket={"form": "quotient-parity",
                 "mutations": [{"args": [0, 1, 2], "out": 0, "add": "1"}]},
        basis={"kind": "carrier"},
        campaigns=[
            {"name": "fi", "check": "fundamental-identity", "mode": "exhaustive"},
        ],
    ),
    _doc(
        "control-pair-mismatch",
        "Determinant bracket built from a non-anticommuting pair",
        "the sign involution with t d/dt (odd power) does not anticommute; "
        "both the anticommutation law and the fundamental identity must fail "
        "with witnesses",
        expect="any-fail",
        field={"kind": "rationals"},
        carrier={"shape": "laurent"},
        maps={
            "sign": {"rule": "monomial-scale", "base": "-1"},
            "euler": {"rule": "laurent-derivation", "power": 1},
        },
        bracket={"form": "determinant", "rows": [{"endo": "sign"}, "id",
                                                 {"endo": "euler"}]},
        basis={"kind": "window", "bound": 2, "tabulate": False},
        campaigns=[
            {"name": "anticommute", "check": "anticommute",
             "omega": "sign", "delta": "euler", "bound": 8},
            {"name": "fi-window", "check": "fundamental-identity"},
        ],
    ),
]


BUNDLED: Dict[str, dict] = {doc["name"]: doc for doc in _BUNDLED}


def bundled_names() -> List[str]:
    return sorted(BUNDLED)


def get_bundled(name: str) -> dict:
    if name not in BUNDLED:
        raise KeyError(f"no bundled document named {name!r}")
    return copy.deepcopy(BUNDLED[name])
