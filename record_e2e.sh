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

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
    commit="$commit-dirty"
fi
model=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1 | sed 's/[\\"]/\\&/g')
{
    printf '{\n'
    printf '  "schema": "senseaid-bench-e2e/1",\n'
    printf '  "commit": "%s",\n' "$commit"
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
