"""Rewrite perfbench/reference.json from the current code.

    python3 perfbench/make_reference.py

Verifies every workload's documents at seed 0 and records, per document,
the exit code and each campaign's verdict and work counts.  The benchmark
judges every run against this file, whatever its seed: sampled campaigns
draw a fixed number of samples and the seeded basis permutations do not
change how much is checked, so the recorded figures hold for every seed.
Regenerate only when a change is meant to alter verdicts or work counts.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main():
    workloads.import_trilie()
    from trilie import cli

    work = os.path.join(run.WORK, f"reference-{os.getpid()}")
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            for path in workloads.write_documents(workload, 0, work):
                name = os.path.basename(path)[:-len(".json")]
                _, exit_code, report, error = run.verify_once(cli, path, name, 0, work)
                if error is not None:
                    raise error
                reference[name] = run.expected_of(report, exit_code)
                print(f"{workload:14s} {name:28s} exit {exit_code}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
