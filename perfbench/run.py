"""trilie benchmark: end-to-end `trilie verify` timings, or per-layer traces.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 36 --trace 0

One client in a closed loop: the process verifies the workload's documents
one after another through `trilie.cli.main(["verify", DOC, ...])`, cycling
through them until the next document would end past `--seconds` (the first
pass always completes).  Every report is checked against
`perfbench/reference.json`.  The last line of standard output is the result
as JSON: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  setup_s       median wall time of a fresh process that imports trilie and
                writes the workload's documents (probes spread over the run)
  verify_s      one pass over the workload: the sum over its documents of
                the median wall time of their verify calls
  peak_rss_mib  peak resident set size of this process
--trace 1 makes one untraced and one traced pass over the workload and
reports the per-layer metrics of `summarize.py`; the span file is kept
under .perfbench_work/traces.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(workloads.ROOT, ".perfbench_work")
SETUP_PROBES = 11
# the report fields compared with the reference: verdicts, and the counts
# that say how much was checked
WORK_COUNTS = ("checked", "covered", "lines_checked")


def expected_of(report, exit_code):
    """The reference entry a verify call is judged by."""
    return {"exit": exit_code,
            "campaigns": {c["name"]: {"verdict": c["verdict"],
                                      "counts": {k: c["counts"][k] for k in WORK_COUNTS
                                                 if k in c["counts"]}}
                          for c in report["campaigns"]}}


def count_errors(expected, exit_code, report):
    """(attempted, failed) for one verify call: every expected campaign is
    attempted; one whose verdict or work counts differ, or that is missing,
    fails, and so does a wrong exit code."""
    attempted = len(expected["campaigns"])
    failed = int(exit_code != expected["exit"])
    got = expected_of(report, exit_code)["campaigns"] if report else {}
    for name, want in expected["campaigns"].items():
        failed += got.get(name) != want
    return attempted, failed


def verify_once(cli, path, name, seed, out_dir):
    """One `trilie verify` call: (seconds, exit code, report, exception);
    the exit code and report are None when the call raised."""
    report_path = os.path.join(out_dir, f"{name}.report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    argv = ["verify", path, "--seed", str(seed), "--out-dir", out_dir]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = cli.main(argv)
    except Exception as e:  # the caller counts it as an error and goes on
        return time.perf_counter() - t0, None, None, e
    elapsed = time.perf_counter() - t0
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    return elapsed, exit_code, report, None


class Verifier:
    """Runs verify calls in this process and judges each report."""

    def __init__(self, cli, seed, out_dir, reference):
        self.cli, self.seed, self.out_dir = cli, seed, out_dir
        self.reference = reference
        self.attempted = self.failed = 0
        self.problems = []

    def __call__(self, path, name):
        elapsed, exit_code, report, error = verify_once(self.cli, path, name, self.seed,
                                                        self.out_dir)
        attempted, failed = count_errors(self.reference[name], exit_code, report)
        if error is not None:
            self.problems.append(f"{name}: {type(error).__name__}: {error}")
        elif failed:
            self.problems.append(f"{name}: {failed} mismatches with the reference")
        self.attempted += attempted
        self.failed += failed
        return elapsed


def closed_loop(docs, seconds, verify):
    """Verify docs (path, name) in turn until the next one, at its last
    duration, would end past `seconds`; returns {name: [durations]}."""
    times = {name: [] for _, name in docs}
    t0 = time.perf_counter()
    k = 0
    while True:
        path, name = docs[k % len(docs)]
        if times[name] and time.perf_counter() - t0 + times[name][-1] > seconds:
            return times
        times[name].append(verify(path, name))
        k += 1


def pass_seconds(times):
    return sum(statistics.median(v) for v in times.values())


class SetupProbes:
    """Wall times of fresh processes that import trilie and write the
    workload's documents.  The probes are spread over the run, so that their
    median does not hang on the machine's speed at one moment."""

    def __init__(self, workload, seed, out_dir, every_s):
        self.cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
                    "--workload", workload, "--seed", str(seed), "--out-dir", out_dir]
        self.every_s = every_s
        self.start = time.perf_counter()
        self.times = []

    def probe(self):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up
        subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - t0)

    def probe_if_due(self):
        due = len(self.times) * self.every_s
        if len(self.times) < SETUP_PROBES and time.perf_counter() - self.start >= due:
            self.probe()

    def median(self):
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def git_commit():
    head = os.path.join(workloads.ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(workloads.ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def provenance(trilie, args):
    import numpy

    return {"git_commit": git_commit(), "trilie_file": trilie.__file__,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    trilie = workloads.import_trilie()
    from trilie import cli

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        paths = workloads.write_documents(args.workload, args.seed,
                                          os.path.join(run_dir, "docs"))
        docs = [(p, os.path.basename(p)[:-len(".json")]) for p in paths]
        verify = Verifier(cli, args.seed, os.path.join(run_dir, "reports"), reference)
        if args.trace:
            metrics = traced_metrics(args, docs, verify)
        else:
            probes = SetupProbes(args.workload, args.seed, os.path.join(run_dir, "probe"),
                                 args.seconds / SETUP_PROBES)

            def verify_then_probe(path, name):
                elapsed = verify(path, name)
                probes.probe_if_due()
                return elapsed

            verify_s = pass_seconds(closed_loop(docs, args.seconds, verify_then_probe))
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_s = probes.median()
            metrics = {"verify_s": (verify_s, "s"), "setup_s": (setup_s, "s"),
                       "peak_rss_mib": (peak_rss_mib, "MiB")}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in verify.problems:
        print(f"error: {problem}")
    print("provenance: " + json.dumps(provenance(trilie, args), sort_keys=True))
    print(f"error_rate: {verify.failed / max(verify.attempted, 1):.6g} "
          f"({verify.failed} of {verify.attempted} campaigns)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": verify.failed == 0,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_metrics(args, docs, verify):
    import summarize
    import tracing

    # one pass each, so that the counters repeat exactly from run to run
    untraced_s = pass_seconds(closed_loop(docs, 0, verify))
    tracer = tracing.Tracer()
    calls = itertools.count()

    def traced_verify(path, name):
        tracer.doc = f"{name}#{next(calls)}"
        return verify(path, name)

    tracer.install()
    try:
        traced_s = pass_seconds(closed_loop(docs, 0, traced_verify))
    finally:
        tracer.uninstall()
    trace_dir = os.path.join(WORK, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{args.workload}-s{args.seed}.jsonl")
    tracer.write(trace_path, {"untraced_verify_s": untraced_s, "traced_verify_s": traced_s,
                              "workload": args.workload, "seed": args.seed})
    print(f"trace: {trace_path}")
    values = summarize.summarize(*summarize.load(trace_path))
    return {name: (value, summarize.unit(name)) for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
