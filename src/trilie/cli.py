"""Command-line front end: describe, verify and export algebra documents.

Usage:
    trilie list-bundled
    trilie describe laurent-quotient-p3
    trilie verify laurent-quotient-p3 [--seed N] [--budget N] [--out-dir DIR]
    trilie export laurent-quotient-p3 --out constants.json

DOC is either the name of a bundled document (see list-bundled) or a path to
a definition file.  `verify` prints one line per campaign, writes a
machine-readable report next to the console summary, and encodes the overall
verdict in the exit status for CI use.

Exit codes:
    0   every campaign passed
    1   at least one campaign failed
    2   a campaign was refused (line budget exceeded, line sums past int64,
        or no case of its law in the window), none failed
    64  configuration or usage error (including a --budget that is not a
        positive integer, a DOC that cannot be read, and an --out-dir or
        --out that cannot be created)
    70  internal error (a bug in trilie; the traceback goes to stderr)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Optional

from .bundled import bundled_names, get_bundled
from .campaigns import BuildContext, report_document, run_document
from .documents import ConfigError, parse_document, render_document

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_REFUSED = 2
EXIT_CONFIG = 64
EXIT_INTERNAL = 70   # BSD EX_SOFTWARE


def resolve_document(spec: str) -> BuildContext:
    """A bundled name or a file path; returns the validated, built document."""
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError("$", f"cannot read {spec!r}: {e.strerror}") from None
        except UnicodeDecodeError as e:
            raise ConfigError("$", f"{spec!r} is not UTF-8 text: {e.reason} "
                                   f"at byte {e.start}") from None
        return parse_document(text)
    if spec in bundled_names():
        # run the bundled dict through the text round trip so the production
        # parser is the single validation path
        return parse_document(render_document(get_bundled(spec)))
    raise ConfigError("$", f"{spec!r} is neither a bundled document nor a file")


class _Parser(argparse.ArgumentParser):
    """Raises `ConfigError` where argparse would exit 2, which means
    "refused" here, so that a usage error exits 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(self.prog, message)


def _create(path: str, option: str):
    """`path` opened for writing; a path that cannot be created is a
    configuration error of `option`."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as e:
        raise ConfigError(option, f"cannot create {path!r}: {e.strerror}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def create_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trilie",
        description="Construct 3-Lie algebras exactly and verify their claimed "
                    "properties on finite bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-bundled", help="list the bundled documents")

    p = sub.add_parser("describe", help="print a document's catalog entry")
    p.add_argument("doc", metavar="DOC")

    p = sub.add_parser("verify", help="run a document's campaigns")
    p.add_argument("doc", metavar="DOC")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled modes (default 0)")
    p.add_argument("--budget", type=_positive_int, default=None,
                   help="line budget override for simplicity certification")
    p.add_argument("--out-dir", default=".",
                   help="directory for the machine-readable report (default .)")

    p = sub.add_parser("export", help="write the structure-constant table")
    p.add_argument("doc", metavar="DOC")
    p.add_argument("--out", required=True, help="output path")
    return parser


def cmd_list_bundled() -> int:
    for name in bundled_names():
        doc = get_bundled(name)
        expect = doc["meta"].get("expect", "all-pass")
        tag = "" if expect == "all-pass" else f"  [expected outcome: {expect}]"
        print(f"{name:28s} {doc['description']}{tag}")
    return EXIT_OK


def cmd_describe(doc: dict) -> int:
    print(f"name:         {doc['name']}")
    print(f"description:  {doc['description']}")
    print(f"construction: {doc['meta']['construction']}")
    print(f"expectation:  {doc['meta'].get('expect', 'all-pass')}")
    print(f"field:        {json.dumps(doc['field'], sort_keys=True)}")
    if "carrier" in doc:
        print(f"carrier:      {json.dumps(doc['carrier'], sort_keys=True)}")
    if "bracket" in doc:
        print(f"bracket:      {json.dumps(doc['bracket'], sort_keys=True)}")
    if doc.get("maps"):
        print("maps:")
        for name in sorted(doc["maps"]):
            print(f"  {name}: {json.dumps(doc['maps'][name], sort_keys=True)}")
    if "basis" in doc:
        print(f"basis:        {json.dumps(doc['basis'], sort_keys=True)}")
    print("campaigns:")
    for camp in doc["campaigns"]:
        extras = {k: v for k, v in camp.items() if k not in ("name", "check")}
        suffix = f"  {json.dumps(extras, sort_keys=True)}" if extras else ""
        print(f"  {camp['name']}: {camp['check']}{suffix}")
    return EXIT_OK


def cmd_verify(ctx: BuildContext, seed: int, budget: Optional[int], out_dir: str) -> int:
    # made before any campaign runs, so that a bad --out-dir costs nothing
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError("--out-dir", f"cannot create {out_dir!r}: {e.strerror}") from None
    results = run_document(ctx, seed=seed, budget=budget)
    for r in results:
        counts = " ".join(f"{k}={v}" for k, v in sorted(r.counts.items()))
        print(f"[{r.verdict.upper():7s}] {r.name} ({r.check}) {counts} "
              f"({r.duration_s:.2f}s)")
        if r.verdict != "pass" and r.witness is not None:
            print(f"          witness: {json.dumps(r.witness, sort_keys=True, default=str)}")
    report = report_document(ctx.doc, results, seed)
    path = os.path.join(out_dir, f"{ctx.doc['name']}.report.json")
    with _create(path, "--out-dir") as fh:
        json.dump(report, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")
    verdict = report["verdict"]
    print(f"verdict: {verdict}  (report: {path})")
    return {"all-pass": EXIT_OK, "any-fail": EXIT_FAIL, "refused": EXIT_REFUSED}[verdict]


def cmd_export(ctx: BuildContext, out: str) -> int:
    if ctx.algebra is None:
        raise ConfigError("$.basis", "export needs a finite tabulated basis")
    with _create(out, "--out") as fh:
        json.dump(ctx.algebra.export_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {out} (dim {ctx.algebra.dim}, "
          f"{len(ctx.algebra.constants)} nonzero basis brackets)")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = create_parser().parse_args(argv)
        if args.command == "list-bundled":
            return cmd_list_bundled()
        ctx = resolve_document(args.doc)
        if args.command == "describe":
            return cmd_describe(ctx.doc)
        if args.command == "verify":
            return cmd_verify(ctx, args.seed, args.budget, args.out_dir)
        if args.command == "export":
            return cmd_export(ctx, args.out)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        # exit 1 must mean only "a campaign failed"
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
