#!/bin/sh
# GCC -fanalyzer gate over the solver core (ctest: check_gcc_analyzer).
#
# Runs GCC's interprocedural path-sensitive analyzer over every .cpp in
# src/core and src/util — the layers whose pointer/lifetime bugs would
# corrupt solves silently — so the tree has real static analysis even on
# boxes without LLVM, where clang-tidy SKIPs (docs/STATIC_ANALYSIS.md).
# The files compile in parallel, one job per CPU, each into its own log;
# the logs are then triaged in file order, so the report reads the same
# whatever order the jobs finish in.
#
# GCC's C++ analyzer support is explicitly experimental: findings are
# triaged into the suppression table below instead of being blanket-
# disabled, so a *new* warning id or a warning in a new file still
# fails the gate. Each entry records file, warning flag, and why it is
# a false positive.
#
# Exit: 0 clean (or all findings suppressed), 1 unsuppressed finding,
# 77 when g++ or -fanalyzer is unavailable (ctest SKIP).

set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 1

GXX="${CXX:-g++}"

if ! command -v "$GXX" >/dev/null 2>&1; then
  echo "check_gcc_analyzer: SKIP: no C++ compiler ($GXX)"
  exit 77
fi

# Probe: -fanalyzer must exist and accept C++ input on this toolchain.
probe_dir=$(mktemp -d) || exit 1
trap 'rm -rf "$probe_dir"' EXIT
printf 'int main() { return 0; }\n' > "$probe_dir/probe.cpp"
if ! "$GXX" -std=c++20 -fanalyzer -fsyntax-only "$probe_dir/probe.cpp" \
    >/dev/null 2>&1; then
  echo "check_gcc_analyzer: SKIP: $GXX does not support -fanalyzer on C++"
  exit 77
fi

# Triaged false positives: "<file-substring>|<warning-flag>|<why>".
# A diagnostic matching file AND flag is suppressed (and counted); any
# other analyzer diagnostic fails the gate.
suppressions="\
src/core/cost.cpp|-Wanalyzer-use-of-uninitialized-value|GCC 12 cannot see that std::vector's value-initialization writes every element through std::allocator; the 'uninitialized' read it traces into computer_response_times is vector storage the ctor zeroed (known experimental-C++ analyzer limitation)"

# One job per file: <dir>/<path with / as _>.log holds its diagnostics,
# and a .failed marker next to it records a failed compile. A file whose
# job never ran has no log, and fails the gate below.
logs="$probe_dir/logs"
mkdir "$logs" || exit 1
status=0
printf '%s\n' src/core/*.cpp src/util/*.cpp |
  xargs -P "$(nproc 2> /dev/null || echo 4)" -n 1 sh -c '
    out="$1/$(printf %s "$2" | tr / _)"
    "$0" -std=c++20 -Isrc -fanalyzer -c "$2" -o /dev/null 2> "$out.log" ||
      : > "$out.failed"' "$GXX" "$logs" || {
  echo "check_gcc_analyzer: FAIL: xargs could not run every job" >&2
  status=1
}

log="$probe_dir/diag.log"
: > "$log"
files=0
for f in src/core/*.cpp src/util/*.cpp; do
  [ -e "$f" ] || continue
  files=$((files + 1))
  out="$logs/$(printf %s "$f" | tr / _)"
  if [ ! -e "$out.log" ]; then
    echo "check_gcc_analyzer: FAIL: $f was not analyzed" >&2
    status=1
    continue
  fi
  if [ -e "$out.failed" ]; then
    echo "check_gcc_analyzer: FAIL: $f does not compile under -fanalyzer" >&2
    status=1
  fi
  cat "$out.log" >> "$log"
done

# One diagnostic per "warning:" line; the event traces GCC prints after
# each are context, not separate findings.
suppressed=0
findings=0
while IFS= read -r line; do
  case "$line" in
    *": warning: "*"[-Wanalyzer-"*) ;;
    *) continue ;;
  esac
  findings=$((findings + 1))
  matched=0
  old_ifs="$IFS"; IFS='
'
  for entry in $suppressions; do
    IFS="$old_ifs"
    sfile=${entry%%|*}
    rest=${entry#*|}
    sflag=${rest%%|*}
    case "$line" in
      *"$sfile"*"[$sflag]"*)
        matched=1
        suppressed=$((suppressed + 1))
        break
        ;;
    esac
  done
  IFS="$old_ifs"
  if [ "$matched" -eq 0 ]; then
    echo "check_gcc_analyzer: FAIL: unsuppressed analyzer finding:" >&2
    echo "  $line" >&2
    status=1
  fi
done < "$log"

if [ "$status" -ne 0 ]; then
  echo "check_gcc_analyzer: FAIL ($files files, $findings findings," \
    "$suppressed suppressed)" >&2
  exit 1
fi
echo "check_gcc_analyzer: OK — $files files under -fanalyzer," \
  "$findings findings, all $suppressed triaged as known false positives"
exit 0
