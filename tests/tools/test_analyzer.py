#!/usr/bin/env python3
"""Golden-finding tests for tools/nashlb_analyzer.py (ctest:
analyzer_fixtures).

Three layers:

  1. the analyzer's own selftest (every rule must fire and must not
     fire on its synthetic snippets);
  2. fixture goldens: each fixtures/*.cpp|hpp is analyzed under a
     virtual src/ path that its rule covers, and its findings must
     match fixtures/*.expected byte-for-byte — exact rule, file, and
     line (the waiver fixtures pin the round-trip: reasoned waivers
     silence findings, a reasonless waiver is itself a finding);
  3. the clean-tree test: the analyzer over the real tree must exit 0;
  4. the coverage gate on a copy without .git (how `git archive`
     checkouts run): it reads the tree's report and fails when the tree
     waives an uncovered function that report does not list.

Exit: 0 all green, 1 any mismatch.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ANALYZER = os.path.join(ROOT, "tools", "nashlb_analyzer.py")
FIXTURES = os.path.join(HERE, "fixtures")

# fixture file -> (virtual path, expected exit code)
CASES = {
    "hot_alloc_bad.cpp": ("src/core/hot_alloc_bad.cpp", 1),
    "unordered_accum_bad.cpp": ("src/core/unordered_accum_bad.cpp", 1),
    "nondet_bad.cpp": ("src/core/nondet_bad.cpp", 1),
    "contract_bad.hpp": ("src/core/contract_bad.hpp", 1),
    "merge_bad.hpp": ("src/obs/merge_bad.hpp", 1),
    "waiver_roundtrip.cpp": ("src/core/waiver_roundtrip.cpp", 0),
    "waiver_missing_reason.cpp": ("src/core/waiver_missing_reason.cpp", 1),
    "wrapper_bad.cpp": ("src/core/dynamics.cpp", 1),
    "trace_arity_bad.cpp": ("src/obs/trace_arity_bad.cpp", 1),
    "journal_arity_bad.cpp": ("src/core/journal_arity_bad.cpp", 1),
    "histogram_bounds_bad.cpp": ("src/schemes/histogram_bounds_bad.cpp", 1),
    "raw_concurrency_bad.cpp": ("src/core/raw_concurrency_bad.cpp", 1),
}


def run(args):
    return subprocess.run([sys.executable, ANALYZER] + args,
                          capture_output=True, text=True)


def archive_copy_gate():
    """Runs the analyzer on a copy of src/ with no .git: with the tree's
    own report (must pass), with a report whose `waived` list lacks
    LoadState::max_drift (must fail with a contract-coverage finding),
    and with a report claiming a higher percentage but the same `waived`
    list (must pass: the percentage is not the gate)."""
    failures = []
    report_rel = os.path.join("bench_results", "analysis_report.json")
    with open(os.path.join(ROOT, report_rel), encoding="utf-8") as f:
        report = json.load(f)
    cov = report["contract_coverage"]
    cases = (("tree's report", cov["percent"], cov["waived"], 0),
             ("no max_drift waiver", cov["percent"],
              [w for w in cov["waived"] if w != "LoadState::max_drift"], 1),
             ("higher percent", 100.0, cov["waived"], 0))
    with tempfile.TemporaryDirectory() as copy:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(copy, "src"))
        os.makedirs(os.path.join(copy, "bench_results"))
        for label, percent, waived, want_exit in cases:
            mutated = json.loads(json.dumps(report))
            mutated["contract_coverage"]["percent"] = percent
            mutated["contract_coverage"]["waived"] = waived
            with open(os.path.join(copy, report_rel), "w",
                      encoding="utf-8") as f:
                json.dump(mutated, f)
            proc = run(["--no-selftest", copy])
            regressed = "contract coverage regressed" in proc.stderr
            if proc.returncode != want_exit or regressed != bool(want_exit):
                failures.append(
                    "copy without .git, %s: exit %d, expected %d\n%s%s"
                    % (label, proc.returncode, want_exit, proc.stdout,
                       proc.stderr))
    return failures


def main():
    failures = []

    proc = run(["--selftest-only"])
    if proc.returncode != 0:
        failures.append("selftest failed:\n%s%s" % (proc.stdout, proc.stderr))

    for name in sorted(CASES):
        virtual, want_exit = CASES[name]
        fixture = os.path.join(FIXTURES, name)
        expected_path = os.path.join(
            FIXTURES, os.path.splitext(name)[0] + ".expected")
        with open(expected_path, encoding="utf-8") as f:
            expected = f.read()
        proc = run(["--no-selftest", "--check-file",
                    "%s:%s" % (fixture, virtual)])
        if proc.returncode != want_exit:
            failures.append("%s: exit %d, expected %d\n%s%s"
                            % (name, proc.returncode, want_exit,
                               proc.stdout, proc.stderr))
        if proc.stdout != expected:
            failures.append(
                "%s: findings drifted from the golden file.\n"
                "--- expected (%s)\n%s--- got\n%s"
                % (name, os.path.basename(expected_path), expected,
                   proc.stdout))

    proc = run([ROOT])
    if proc.returncode != 0:
        failures.append("clean-tree run reported findings (exit %d):\n%s%s"
                        % (proc.returncode, proc.stdout, proc.stderr))

    failures.extend(archive_copy_gate())

    if failures:
        for f in failures:
            print("test_analyzer: FAIL: %s" % f, file=sys.stderr)
        print("test_analyzer: %d failure(s)" % len(failures),
              file=sys.stderr)
        return 1
    print("test_analyzer: OK — selftest, %d fixture goldens, clean tree, "
          "coverage gate on a copy without .git" % len(CASES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
