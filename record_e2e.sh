#!/bin/sh
# Records the end-to-end benchmark into BENCH_e2e.json: every workload of
# bench/ at seed 11, untraced then traced, wrapped with what is needed to
# compare two recordings (commit, toolchain, host). A change that claims
# a speed-up records over the file its parent committed, so
# `git log -p BENCH_e2e.json` is the trajectory; when the parent
# committed none, record it in a checkout of the parent and pass that
# file as the argument: it is embedded as "parent". Takes minutes; ci.sh
# runs it when SENSEAID_BENCH_E2E=1. Run from the repository root.
#
# usage: record_e2e.sh [parent's BENCH_e2e.json]
set -eu

go run -C bench . -workload all -seed 11 -out "$PWD/bench/out"

# "commit" is HEAD — the parent, when the change being measured is not
# committed yet — and "tree" the git tree of the working tree as
# `git add -A` would stage it (into a temporary index, so nothing is
# staged), which names exactly what ran; on a clean checkout it is
# HEAD's tree.
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
idx=$(mktemp)
tree=$( (cp "$(git rev-parse --git-dir)/index" "$idx" &&
    GIT_INDEX_FILE="$idx" git add -A &&
    GIT_INDEX_FILE="$idx" git write-tree) 2>/dev/null | cut -c1-12)
rm -f "$idx"
model=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1 | sed 's/[\\"]/\\&/g')
{
    printf '{\n'
    printf '  "schema": "senseaid-bench-e2e/1",\n'
    printf '  "commit": "%s",\n' "$commit"
    printf '  "tree": "%s",\n' "${tree:-unknown}"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "recorded_at": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "host": {"cpus": %s, "model": "%s", "kernel": "%s"},\n' \
        "$(getconf _NPROCESSORS_ONLN)" "$model" "$(uname -sr)"
    printf '  "summary": '
    cat bench/out/summary.json
    if [ -n "${1:-}" ]; then
        printf ',\n  "parent": '
        cat "$1"
    fi
    printf '}\n'
} > BENCH_e2e.json
