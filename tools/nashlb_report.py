#!/usr/bin/env python3
"""Run-report CLI: render bench telemetry to markdown, or diff two runs.

A "run directory" is anywhere bench artifacts land (the repo root, a
build directory, or a bench_results/ folder). The tool discovers, by
content rather than by name:

  * run manifests — manifest_*.json sidecars written by bench::banner
    (src/obs/manifest.hpp: git sha, OBS/CHECK/SANITIZE/WERROR switches,
    thread count, config hash, free-form extras);
  * convergence series — any CSV whose header is exactly
    obs::convergence_trace_columns() (per-round stopping norm, eps-Nash
    gap, potential, overall cost, active-set churn, utilization spread).

`render` writes one markdown report per run; `diff` lines two runs up
side-by-side and flags manifest drift (different build identity means
the numbers are not comparable) and lines up convergence summaries.
`selftest` synthesizes two fixture runs in a temp
directory and checks the render and the diff paths end-to-end — it runs
as the `check_report` ctest.

Usage:
  tools/nashlb_report.py render RUN_DIR [-o OUT.md]
  tools/nashlb_report.py diff DIR_A DIR_B [-o OUT.md]
  tools/nashlb_report.py selftest

Exit: 0 ok, 1 bad input or selftest failure. `diff` reports drift in
its markdown output but still exits 0 — it is a lens, not a gate (the
check_golden ctest gates what the benches write).
"""

import argparse
import csv
import json
import os
import sys
import tempfile

CONVERGENCE_COLUMNS = ["round", "norm", "eps_nash_gap", "potential",
                       "overall_cost", "active_set_churn", "util_spread"]
MANIFEST_SCALAR_KEYS = ["git_sha", "obs", "check", "sanitize", "werror",
                        "threads", "config_hash"]
SKIP_DIRS = {".git", "CMakeFiles", "_deps", "build-tsan"}


# --- discovery -----------------------------------------------------------

def iter_files(run_dir):
    for dirpath, dirnames, filenames in os.walk(run_dir):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            yield os.path.join(dirpath, name)


def read_csv_if_header(path, header):
    try:
        with open(path, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
    except (OSError, UnicodeDecodeError, csv.Error):
        return None
    if not rows or rows[0] != header:
        return None
    return [dict(zip(header, r)) for r in rows[1:] if len(r) == len(header)]


def to_float(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return float("nan")


def collect_run(run_dir):
    """Scans a run directory into {manifests, series}, each mapping a
    display name (path relative to run_dir) to parsed content."""
    run = {"manifests": {}, "series": {}}
    for path in iter_files(run_dir):
        rel = os.path.relpath(path, run_dir)
        base = os.path.basename(path)
        if base.endswith(".json") and base.startswith("manifest_"):
            try:
                with open(path, encoding="utf-8") as f:
                    run["manifests"][rel] = json.load(f)
            except (OSError, ValueError):
                continue
        elif base.endswith(".csv"):
            series = read_csv_if_header(path, CONVERGENCE_COLUMNS)
            if series is not None:
                run["series"][rel] = series
    return run


# --- rendering -----------------------------------------------------------

def md_table(header, rows):
    out = ["| " + " | ".join(header) + " |",
           "| " + " | ".join("---" for _ in header) + " |"]
    out.extend("| " + " | ".join(str(c) for c in row) + " |" for row in rows)
    return out


def manifest_rows(manifest):
    rows = [(k, manifest.get(k, "?")) for k in MANIFEST_SCALAR_KEYS]
    for key, value in sorted((manifest.get("extras") or {}).items()):
        rows.append(("extras." + key, value))
    return rows


def series_summary(series):
    """One summary dict per convergence series: round span, first/last
    norm, last finite eps-Nash gap, total churn."""
    norms = [to_float(r["norm"]) for r in series]
    gaps = [to_float(r["eps_nash_gap"]) for r in series]
    finite_gaps = [g for g in gaps if g == g]  # NaN != NaN
    return {
        "rounds": len(series),
        "first_norm": norms[0] if norms else float("nan"),
        "last_norm": norms[-1] if norms else float("nan"),
        "final_eps_nash": finite_gaps[-1] if finite_gaps else float("nan"),
        "total_churn": sum(int(to_float(r["active_set_churn"]))
                           for r in series),
    }


def fmt(value):
    if isinstance(value, float):
        return "nan" if value != value else "%.6g" % value
    return str(value)


def render(run_dir, run):
    lines = ["# nashlb run report: %s" % run_dir, ""]
    if run["manifests"]:
        lines.append("## Run manifests")
        lines.append("")
        for name, manifest in sorted(run["manifests"].items()):
            lines.append("### %s" % name)
            lines.append("")
            lines.extend(md_table(
                ["field", "value"],
                [(k, fmt(v)) for k, v in manifest_rows(manifest)]))
            lines.append("")
    for name, series in sorted(run["series"].items()):
        summary = series_summary(series)
        lines.append("## Convergence series %s" % name)
        lines.append("")
        lines.extend(md_table(
            ["rounds", "first norm", "last norm", "final eps-Nash",
             "total churn"],
            [[summary["rounds"], fmt(summary["first_norm"]),
              fmt(summary["last_norm"]), fmt(summary["final_eps_nash"]),
              summary["total_churn"]]]))
        lines.append("")
    if len(lines) == 2:
        lines.append("(no manifests or convergence series found)")
        lines.append("")
    return "\n".join(lines)


# --- diffing -------------------------------------------------------------

def diff_manifests(name, a, b, lines):
    drift = [(k, va, vb)
             for (k, va), (_, vb) in zip(manifest_rows(a), manifest_rows(b))
             if va != vb]
    extras_a = a.get("extras") or {}
    extras_b = b.get("extras") or {}
    for key in sorted(set(extras_a) ^ set(extras_b)):
        drift.append(("extras." + key, extras_a.get(key, "(absent)"),
                      extras_b.get(key, "(absent)")))
    for key in sorted(set(extras_a) & set(extras_b)):
        if extras_a[key] != extras_b[key]:
            drift.append(("extras." + key, extras_a[key], extras_b[key]))
    if drift:
        lines.append("### %s — DRIFT (runs are not directly comparable)"
                     % name)
        lines.append("")
        lines.extend(md_table(["field", "run A", "run B"],
                              [(k, fmt(va), fmt(vb))
                               for k, va, vb in drift]))
    else:
        lines.append("### %s — identical build + configuration" % name)
    lines.append("")


def diff_section(title, names_a, names_b, lines, row_fn):
    lines.append("## %s" % title)
    lines.append("")
    only_a = sorted(set(names_a) - set(names_b))
    only_b = sorted(set(names_b) - set(names_a))
    for name in only_a:
        lines.append("* `%s` only in run A" % name)
    for name in only_b:
        lines.append("* `%s` only in run B" % name)
    if only_a or only_b:
        lines.append("")
    for name in sorted(set(names_a) & set(names_b)):
        row_fn(name)


def diff(dir_a, dir_b, run_a, run_b):
    lines = ["# nashlb run diff", "",
             "* run A: %s" % dir_a,
             "* run B: %s" % dir_b, ""]

    def manifest_row(name):
        diff_manifests(name, run_a["manifests"][name],
                       run_b["manifests"][name], lines)

    def series_row(name):
        sa = series_summary(run_a["series"][name])
        sb = series_summary(run_b["series"][name])
        lines.append("### %s" % name)
        lines.append("")
        lines.extend(md_table(
            ["summary", "run A", "run B"],
            [(k, fmt(sa[k]), fmt(sb[k]))
             for k in ("rounds", "first_norm", "last_norm",
                       "final_eps_nash", "total_churn")]))
        lines.append("")

    diff_section("Run manifests", run_a["manifests"], run_b["manifests"],
                 lines, manifest_row)
    diff_section("Convergence series", run_a["series"], run_b["series"],
                 lines, series_row)
    return "\n".join(lines)


# --- selftest ------------------------------------------------------------

def write_fixture_run(root, git_sha, rounds):
    os.makedirs(root, exist_ok=True)
    manifest = {"git_sha": git_sha, "obs": True, "check": False,
                "sanitize": "OFF", "werror": True, "threads": 4,
                "config_hash": "%016x" % abs(hash(git_sha)),
                "extras": {"utilization": "0.6"}}
    with open(os.path.join(root, "manifest_P5.json"), "w",
              encoding="utf-8") as f:
        json.dump(manifest, f)
    with open(os.path.join(root, "convergence_roundrobin.csv"), "w",
              encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CONVERGENCE_COLUMNS)
        for k in range(1, rounds + 1):
            writer.writerow([k, 0.5 / k, 1e-7 if k == rounds else "nan",
                             2.0, 0.3, 1 if k == 1 else 0, 0.4])
    # Decoys the scanner must ignore: wrong-schema CSV and non-run JSON.
    with open(os.path.join(root, "other.csv"), "w", encoding="utf-8") as f:
        f.write("a,b\n1,2\n")
    with open(os.path.join(root, "notes.json"), "w", encoding="utf-8") as f:
        f.write("{\"unrelated\": true}\n")


def expect(condition, message, failures):
    if not condition:
        failures.append(message)


def selftest():
    failures = []
    with tempfile.TemporaryDirectory(prefix="nashlb_report_") as tmp:
        dir_a = os.path.join(tmp, "run_a")
        dir_b = os.path.join(tmp, "run_b")
        write_fixture_run(dir_a, "aaaa00000000", rounds=5)
        write_fixture_run(dir_b, "bbbb11111111", rounds=7)

        run_a = collect_run(dir_a)
        expect(list(run_a["manifests"]) == ["manifest_P5.json"],
               "manifest discovery found %r" % sorted(run_a["manifests"]),
               failures)
        expect(list(run_a["series"]) == ["convergence_roundrobin.csv"],
               "series discovery found %r (decoy not ignored?)"
               % sorted(run_a["series"]), failures)

        report = render(dir_a, run_a)
        for needle in ("aaaa00000000", "## Convergence series",
                       "final eps-Nash", "extras.utilization"):
            expect(needle in report,
                   "render is missing %r" % needle, failures)
        summary = series_summary(run_a["series"]
                                 ["convergence_roundrobin.csv"])
        expect(summary["rounds"] == 5 and summary["final_eps_nash"] == 1e-7
               and summary["total_churn"] == 1,
               "series summary wrong: %r" % summary, failures)

        run_b = collect_run(dir_b)
        report_ab = diff(dir_a, dir_b, run_a, run_b)
        expect("DRIFT" in report_ab and "bbbb11111111" in report_ab,
               "diff did not flag the git-sha drift", failures)
        expect("| rounds | 5 | 7 |" in report_ab,
               "diff did not line up the series round counts", failures)
        report_aa = diff(dir_a, dir_a, run_a, run_a)
        expect("DRIFT" not in report_aa,
               "identical runs must not report manifest drift", failures)
        expect("identical build + configuration" in report_aa,
               "identical runs must report identical manifests", failures)
    for message in failures:
        print("nashlb_report: selftest FAIL: %s" % message,
              file=sys.stderr)
    if failures:
        return 1
    print("nashlb_report: selftest OK (render + diff on fixture runs)")
    return 0


# --- entry point ---------------------------------------------------------

def emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        print("nashlb_report: wrote %s" % out_path)
    else:
        print(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_render = sub.add_parser("render", help="render one run to markdown")
    p_render.add_argument("run_dir")
    p_render.add_argument("-o", "--output")
    p_diff = sub.add_parser("diff", help="diff two runs side-by-side")
    p_diff.add_argument("dir_a")
    p_diff.add_argument("dir_b")
    p_diff.add_argument("-o", "--output")
    sub.add_parser("selftest", help="fixture-run selftest (ctest "
                   "check_report)")
    args = parser.parse_args()

    if args.command == "selftest":
        return selftest()
    if args.command == "render":
        if not os.path.isdir(args.run_dir):
            print("nashlb_report: not a directory: %s" % args.run_dir,
                  file=sys.stderr)
            return 1
        emit(render(args.run_dir, collect_run(args.run_dir)), args.output)
        return 0
    for d in (args.dir_a, args.dir_b):
        if not os.path.isdir(d):
            print("nashlb_report: not a directory: %s" % d, file=sys.stderr)
            return 1
    emit(diff(args.dir_a, args.dir_b, collect_run(args.dir_a),
              collect_run(args.dir_b)), args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
