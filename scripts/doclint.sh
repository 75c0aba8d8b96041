#!/usr/bin/env bash
# doclint: documentation consistency gate.
#
#  1. Every intra-repo markdown link in the top-level docs (README.md,
#     DESIGN.md, EXPERIMENTS.md, CHANGES.md) must resolve to a real file
#     or directory, and every `#anchor` must resolve to a real heading in
#     its target (GitHub slug rules: lowercase, punctuation stripped,
#     spaces become hyphens).
#  2. Every "<N> tests" claim in README.md must match the actual total
#     from `cargo test --workspace` output — so the headline count can
#     never go stale again.
#
# Standalone it runs the test suite itself; CI passes the already-captured
# log via DEVUDF_TEST_LOG to avoid a duplicate run.
set -euo pipefail
cd "$(dirname "$0")/.."

DOCS=(README.md DESIGN.md EXPERIMENTS.md CHANGES.md)
fail=0

# GitHub-style heading slugs of a markdown file, one per line.
anchors_of() {
    grep -E '^#{1,6} ' "$1" | sed -E 's/^#+ +//' |
        tr '[:upper:]' '[:lower:]' |
        sed -e 's/[^a-z0-9 _-]//g' -e 's/ /-/g'
}

echo "doclint: checking intra-repo links in ${DOCS[*]}"
for doc in "${DOCS[@]}"; do
    [[ -f "$doc" ]] || {
        echo "doclint: FAIL: $doc is missing"
        fail=1
        continue
    }
    # Every "](target)" in the file; external schemes are out of scope.
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        esac
        file="${target%%#*}"
        anchor=""
        [[ "$target" == *#* ]] && anchor="${target#*#}"
        [[ -z "$file" ]] && file="$doc" # pure "#anchor" self-link
        if [[ ! -e "$file" ]]; then
            echo "doclint: FAIL: $doc links to missing path '$file'"
            fail=1
            continue
        fi
        if [[ -n "$anchor" ]]; then
            # A here-string, not a pipe: `grep -q` exits at the first
            # match, and under pipefail the writer's SIGPIPE would fail it.
            if [[ ! -f "$file" ]] || ! grep -qxF "$anchor" <<<"$(anchors_of "$file")"; then
                echo "doclint: FAIL: $doc links to '$target' but '$file' has no heading '#$anchor'"
                fail=1
            fi
        fi
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//' || true)
done

echo "doclint: checking README test-count claims"
if [[ -n "${DEVUDF_TEST_LOG:-}" && -r "${DEVUDF_TEST_LOG}" ]]; then
    test_log=$(cat "$DEVUDF_TEST_LOG")
else
    echo "doclint: (no DEVUDF_TEST_LOG; running cargo test to count)"
    test_log=$(cargo test --offline --workspace -q 2>&1)
fi
actual=$(printf '%s\n' "$test_log" |
    grep -E '^test result:' |
    awk -F'[ ;]+' '{ s += $4 } END { print s + 0 }')
if [[ "$actual" -eq 0 ]]; then
    echo "doclint: FAIL: could not parse a test count from the cargo test log"
    fail=1
else
    while IFS= read -r claim; do
        if [[ "$claim" -ne "$actual" ]]; then
            echo "doclint: FAIL: README.md claims '$claim tests' but cargo test reports $actual"
            fail=1
        fi
    done < <(grep -oE '[0-9]+ tests' README.md | awk '{ print $1 }')
    echo "doclint: cargo test reports $actual tests"
fi

# 3. Every DESIGN.md section reference must resolve to a real `## N.`
#    heading: "DESIGN[.md] §N" citations in any top-level doc, and bare
#    "§N" self-references inside DESIGN.md itself. Dotted ids (§2.1 …)
#    cite the *paper's* sections and are out of scope.
echo "doclint: checking DESIGN.md section references"
design_sections=$(grep -E '^## ' DESIGN.md | sed -E 's/^## ([0-9]+[a-z]?)\..*/\1/;t;d')
check_section() {
    local id="$1" where="$2"
    if ! grep -qxF "$id" <<<"$design_sections"; then
        echo "doclint: FAIL: $where references DESIGN.md §$id but DESIGN.md has no '## $id.' heading"
        fail=1
    fi
}
for doc in "${DOCS[@]}"; do
    [[ -f "$doc" ]] || continue
    while IFS= read -r ref; do
        check_section "${ref#§}" "$doc"
    done < <(grep -oE 'DESIGN(\.md)? §[0-9]+[a-z]?' "$doc" | grep -oE '§[0-9]+[a-z]?' || true)
done
while IFS= read -r ref; do
    check_section "${ref#§}" "DESIGN.md"
done < <(grep -oE '§[0-9]+[a-z]?(\.[0-9]+)?' DESIGN.md | grep -vE '\.' || true)

# 4. Bench baselines may not go stale in either direction: every
#    `BENCH_*.json` mentioned in the top-level docs must exist as a
#    committed file, and every committed `BENCH_*.json` must be
#    documented in EXPERIMENTS.md (an orphaned baseline is a perf claim
#    nobody can audit).
echo "doclint: checking BENCH_*.json baselines against docs"
for doc in "${DOCS[@]}"; do
    [[ -f "$doc" ]] || continue
    while IFS= read -r mention; do
        if [[ ! -f "$mention" ]]; then
            echo "doclint: FAIL: $doc mentions '$mention' but no such baseline is committed"
            fail=1
        fi
    done < <(grep -oE 'BENCH_[A-Za-z0-9_]+\.json' "$doc" | sort -u || true)
done
for baseline in BENCH_*.json; do
    [[ -e "$baseline" ]] || continue # unmatched glob
    if ! grep -qF "$baseline" EXPERIMENTS.md; then
        echo "doclint: FAIL: committed baseline '$baseline' is not documented in EXPERIMENTS.md"
        fail=1
    fi
done

if [[ "$fail" -ne 0 ]]; then
    echo "doclint: FAILED"
    exit 1
fi
echo "doclint: OK"
