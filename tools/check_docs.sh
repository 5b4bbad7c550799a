#!/bin/sh
# Documentation drift check, wired as a ctest (see tests/CMakeLists.txt).
#
# Fails if:
#   * a src/<module>/ directory has no `<module>` row in README.md's
#     Architecture table, or a row of that table names no src/<module>/;
#   * docs/OBSERVABILITY.md, docs/STATIC_ANALYSIS.md or docs/SCALING.md
#     is missing, or README.md does not link it;
#   * a bench/bench_*.cpp is not named in EXPERIMENTS.md;
#   * README.md, EXPERIMENTS.md, DESIGN.md, docs/*.md or the verify skill
#     names a bench_<name> with no bench/bench_<name>.cpp, a
#     BENCH_<name>.json that is not at the repo root, or a file under
#     src/, tests/, tools/, bench/, examples/ or docs/ (a path ending in
#     .hpp, .cpp, .py, .sh, .md or .csv) that does not exist.
#
# Usage: tools/check_docs.sh [repo-root]   (default: script's parent dir)
set -u

root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
readme="$root/README.md"
status=0

fail() {
    echo "check_docs: FAIL: $1" >&2
    status=1
}

[ -f "$readme" ] || { echo "check_docs: FAIL: no README.md at $root" >&2; exit 1; }

# Every module directory under src/ must be documented in the README
# architecture table (a row containing the backquoted module name).
for dir in "$root"/src/*/; do
    module=$(basename "$dir")
    if ! grep -q "| \`$module\`" "$readme"; then
        fail "src/$module/ has no \`$module\` row in README.md's Architecture table"
    fi
done
# ...and every row of that table must name an existing module directory,
# so a row cannot outlive its library.
for module in $(awk '/^## Architecture/ { on = 1; next } /^## / { on = 0 }
                     on && /^\| `[^`]*` \|/' "$readme" |
                sed 's/^| `\([^`]*\)`.*/\1/'); do
    if [ ! -d "$root/src/$module" ]; then
        fail "README.md's Architecture table has a \`$module\` row but no src/$module/"
    fi
done

# The observability, static-analysis and scaling docs must exist and
# be reachable from the README.
for doc in OBSERVABILITY STATIC_ANALYSIS SCALING; do
    if [ ! -f "$root/docs/$doc.md" ]; then
        fail "docs/$doc.md is missing"
    elif ! grep -q "docs/$doc.md" "$readme"; then
        fail "README.md does not link docs/$doc.md"
    fi
done

# The observability doc must describe every exported instrument family;
# new sections guard against the doc silently lagging the obs layer.
for section in "## Histograms" "## Convergence telemetry" \
               "## Run manifests & nashlb-report"; do
    if [ -f "$root/docs/OBSERVABILITY.md" ] && \
       ! grep -q "^$section" "$root/docs/OBSERVABILITY.md"; then
        fail "docs/OBSERVABILITY.md is missing its \"$section\" section"
    fi
done

# The static-analysis doc must describe every gate check_all runs; the
# analyzer sections guard against the doc silently lagging the tools.
for section in "## Semantic analysis (\`nashlb-analyzer\`)" \
               "## GCC -fanalyzer gate"; do
    if [ -f "$root/docs/STATIC_ANALYSIS.md" ] && \
       ! grep -qF "$section" "$root/docs/STATIC_ANALYSIS.md"; then
        fail "docs/STATIC_ANALYSIS.md is missing its \"$section\" section"
    fi
done

# The scaling doc must keep the sections the class-aggregation layer
# and its certificate are specified by.
for section in "## Class construction" "## The symmetric within-class reply" \
               "## The eps-Nash bound" "## Choosing eps_phi and K"; do
    if [ -f "$root/docs/SCALING.md" ] && \
       ! grep -q "^$section" "$root/docs/SCALING.md"; then
        fail "docs/SCALING.md is missing its \"$section\" section"
    fi
done

# bench-registered: EXPERIMENTS.md maps every artifact back to the bench
# that regenerates it, so an unregistered bench is a result nobody can
# reproduce from the docs.
for bench in "$root"/bench/bench_*.cpp; do
    [ -e "$bench" ] || continue
    stem=$(basename "$bench" .cpp)
    if ! grep -qF "$stem" "$root/EXPERIMENTS.md" 2> /dev/null; then
        fail "bench/$stem.cpp is not named in EXPERIMENTS.md (add it to the CSV-regeneration map)"
    fi
done

# bench-exists / file-exists: the docs name only benches, baselines and
# repo files that exist, so a deleted program or source file cannot
# linger in them. bench_results/ and .bench_build/ are directories, not
# benches. A file path counts only where it starts a path (so
# nashbench/src/... is not read as src/...); brace forms such as
# parallel.{hpp,cpp} and ./build/ binaries are not matched. (nashbench/
# README.md is the frozen benchmark's; CHANGES.md and ROADMAP.md are
# history and plans.)
for doc in "$root/README.md" "$root/EXPERIMENTS.md" "$root/DESIGN.md" \
           "$root"/docs/*.md "$root/.claude/skills/verify/SKILL.md"; do
    [ -f "$doc" ] || continue
    rel=${doc#"$root"/}
    for name in $(grep -ow 'bench_[A-Za-z0-9_][A-Za-z0-9_]*' "$doc" |
                  sort -u); do
        case "$name" in bench_results|bench_build) continue ;; esac
        [ -f "$root/bench/$name.cpp" ] ||
            fail "$rel names $name, but there is no bench/$name.cpp"
    done
    for name in $(grep -ow 'BENCH_[A-Za-z0-9_]*\.json' "$doc" | sort -u); do
        [ -f "$root/$name" ] ||
            fail "$rel names $name, but there is no $name at the repo root"
    done
    for path in $(grep -oE '(^|[^A-Za-z0-9_./-])(src|tests|tools|bench|examples|docs)/[A-Za-z0-9_./-]*\.(hpp|cpp|py|sh|md|csv)' "$doc" |
                  sed 's|^[^A-Za-z0-9_./-]||' | sort -u); do
        [ -f "$root/$path" ] ||
            fail "$rel names $path, but there is no such file"
    done
done

if [ "$status" -eq 0 ]; then
    echo "check_docs: OK ($(ls -d "$root"/src/*/ | wc -l | tr -d ' ') modules documented)"
fi
exit "$status"
