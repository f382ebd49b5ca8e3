#!/bin/sh
# CI gate: vet, build, the full test suite under the race detector, and a
# one-iteration benchmark smoke pass (catches benchmarks that no longer
# compile or crash without timing anything).
# Run from the repository root. Keep this the single command a contributor
# needs before pushing.
set -eux

# bench_diff prints, on one screen, how a BENCH_*.json just re-recorded
# differs from the one committed at HEAD (all of it when none is).
bench_diff() {
    git show "HEAD:$1" 2>/dev/null | diff -u - "$1" | head -n 40
}

go vet ./...
go build ./...
go test -race ./...
go test -run '^$' -bench . -benchtime 1x ./...
# The end-to-end benchmark is a module of its own (bench/go.mod), so the
# commands above never enter it: vet it and run its unit tests plus the
# toy-size smoke of each workload here, or a drift in the surface it pins
# (bench/README.md, "Pinned surface") goes unseen until the benchmark runs.
(cd bench && go vet . && go test .)
# Order-dependence and shared-state check on the packages the selection
# pass, the journal path, the transport (codec, coalescer, tracer,
# server, router) and the simulator (every run goes through the sharded
# fan-out) live in: race detector with the test order shuffled.
# Its full output (-v: the shuffle seed, every test and every race
# report) goes to a file that a failing run keeps, printing the file's
# path and its tail, so a rare failure leaves its evidence behind.
race_log=$(mktemp "${TMPDIR:-/tmp}/senseaid-race-shuffle.XXXXXX")
if ! go test -race -shuffle=on -v ./internal/core/... ./internal/geo/... ./internal/persist/... \
    ./internal/wire/... ./internal/obs/... ./internal/netserver/... ./internal/cluster/... \
    ./internal/sim/... > "$race_log" 2>&1; then
    echo "ci: the -race -shuffle=on run failed; its full output is in $race_log" >&2
    grep -E '^(--- FAIL|FAIL|panic:|WARNING: DATA RACE|-test.shuffle)' "$race_log" >&2 || true
    tail -n 80 "$race_log" >&2
    exit 1
fi
rm -f "$race_log"
# The end-to-end trace over real sockets, fifty times: a dispatch span
# whose flush callback lands after the delivery completed the trace must
# join the retained record, not corrupt the ring.
go test -race -count=50 -run '^TestEndToEndTrace$' ./internal/netserver
# The device-homing net, five times over: the seeded model test (every
# device operation against a plain map and the parent commit's journal
# bytes), the topology net (one seeded sequence of every operation,
# region-less and in three regions, held to the same results) and the two
# concurrent storms, whose interleavings differ run to run.
go test -race -shuffle=on -count=5 \
    -run '^(TestHomingAgainstModelAndParentJournal|TestTopologiesAgree|TestStripedRoutingStorm|TestOrchestratorConcurrentUse)$' \
    ./internal/core
# Journal codec fuzz smoke: ten seconds of holding JournalRecord's hand
# encoder and parser to encoding/json (byte-identical output, identical
# decode) beyond the seed corpus the ordinary test run replays.
go test -run '^$' -fuzz='^FuzzJournalRecordCodec$' -fuzztime=10s ./internal/core
# Journal validator fuzz smoke: ten seconds of holding the single-pass
# JSON validator persist.Load checks every record with to
# encoding/json.Valid (the same verdict on every input).
go test -run '^$' -fuzz='^FuzzValidJSON$' -fuzztime=10s ./internal/persist
# Aggregation estimator fuzz smoke: ten seconds of holding the tier, a
# tier restored halfway and agg.Batch bit for bit to the dense-histogram
# fold on arbitrary sample sequences.
go test -run '^$' -fuzz='^FuzzTierMatchesDenseFold$' -fuzztime=10s ./internal/agg
# Fault-injection smoke: the resilience suites (stalled peers, flaky
# links, server restart) in short mode, so a quick pre-push run still
# exercises the failure paths end to end.
go test -race -short -run 'Fault|Stall|Resilien|Reconnect|Restart|Idle|Flaky' \
    ./internal/faultconn ./internal/wire ./internal/netserver ./internal/client

# Selection benchmark record: measures the production selection pass
# against the copying path it replaced and the pre-index full scan
# (1k/10k/100k devices, 1% region, densities 5 and 20), writes
# BENCH_selection.json, and FAILS on an allocation-budget or speedup-ratio
# regression, or when a state report that changes grid cell allocates or
# costs over 4x one that does not (see TestRecordSelectionBench).
SENSEAID_BENCH_OUT="$PWD/BENCH_selection.json" \
    go test -run '^TestRecordSelectionBench$' -count=1 -v ./internal/core
bench_diff BENCH_selection.json

# End-to-end benchmark record (opt-in: it takes minutes, and its numbers
# mean something only on a machine doing nothing else): every bench/
# workload at seed 11 into BENCH_e2e.json; see record_e2e.sh.
if [ "${SENSEAID_BENCH_E2E:-}" = "1" ]; then
    ./record_e2e.sh
    bench_diff BENCH_e2e.json
fi

# Crash-restart smoke: kill -9 durability end to end. The in-process
# suite (abrupt-close fidelity, campaign resume, sharded recovery,
# corrupt-state refusal, randomized crash soak under fault injection)
# and the crash-point sweep (every append and commit boundary of a
# sharded campaign, whole and torn, loaded and recovered on both sides
# of the parallel-check split) run under the race detector; the binary
# test SIGKILLs a real senseaidd mid-campaign and requires the restart
# to reclaim the task. All of persist then runs three times in shuffled
# order: the SIGKILL of a child right after its appends return, the
# mapping and descriptor release checks, and the sweep again.
go test -race -count=1 \
    -run 'CrashRecovery|CorruptState|TornJournal|CrashRestartSoak|CrashPointSweep' \
    ./internal/netserver ./internal/persist
go test -race -shuffle=on -count=3 ./internal/persist/...
go test -count=1 -run '^TestCrashRestartBinaryEndToEnd$' .

# Tracing benchmark record: measures span start/finish on the sampled
# and unsampled paths, writes BENCH_obs.json, and FAILS when the
# unsampled fast path allocates (the tracing tax on untraced requests
# must stay zero-alloc) or when a full /tasks timeline store holds more
# than 40 bytes per event (see TestRecordObsBench).
SENSEAID_BENCH_OUT="$PWD/BENCH_obs.json" \
    go test -run '^TestRecordObsBench$' -count=1 -v ./internal/obs
bench_diff BENCH_obs.json

# Wire benchmark record: measures encode+frame+read+decode for the hot
# schedule/upload shapes under the JSON and binary codecs plus the write
# coalescer's syscall batching, writes BENCH_wire.json, and FAILS when
# binary loses its 2x frame-size edge, stops allocating less than JSON,
# a notify burst issued without yielding stops taking at most half a
# write per frame, or reading a binary or link frame from a buffered
# reader allocates anything but its body (see TestRecordWireBench).
SENSEAID_BENCH_OUT="$PWD/BENCH_wire.json" \
    go test -run '^TestRecordWireBench$' -count=1 -v ./internal/wire
bench_diff BENCH_wire.json

# Recovery benchmark record: replays a 10k-record journal at boot, times
# persist.Load over a 64 MB journal against the sequential read it
# replaced, the mapped journal append against one write(2) per record,
# and the journal record codec against encoding/json on the hot ops,
# writes BENCH_recovery.json, and FAILS when recovery exceeds its
# wall-clock budget, when Load is under 2x the sequential read, when an
# append allocates or is under 1.5x the write(2) path, when encoding a
# record allocates or is under 3x encoding/json, or when decoding is
# under 1.5x (see TestRecordRecoveryBench).
SENSEAID_BENCH_OUT="$PWD/BENCH_recovery.json" \
    go test -run '^TestRecordRecoveryBench$' -count=1 -v ./internal/netserver
bench_diff BENCH_recovery.json

# Cluster benchmark record: runs the same steady-state campaign against
# a worker directly and through the router tier, writes
# BENCH_cluster.json (delivery p99 both ways, selections/sec through the
# router), and FAILS when the routed p99 costs more than 2x the direct
# path's (see TestRecordClusterBench).
SENSEAID_BENCH_OUT="$PWD/BENCH_cluster.json" \
    go test -run '^TestRecordClusterBench$' -count=1 -v .
bench_diff BENCH_cluster.json

# Aggregation benchmark record: drives the streaming tier through the
# core's delivery tap, writes BENCH_agg.json, and FAILS below 1M
# uploads/min, on any per-upload allocation on the hot tap (windows
# inline or overflowing), on unbounded series memory, when a series
# costs 1.5 KiB or more, or when push lag p99 reaches one window (see
# TestRecordAggBench).
SENSEAID_BENCH_OUT="$PWD/BENCH_agg.json" \
    go test -run '^TestRecordAggBench$' -count=1 -v ./internal/agg
bench_diff BENCH_agg.json

# City-scale chaos soak: the seeded city-wide campaign (tower outage
# waves, primary SIGKILL + journal recovery, byzantine and clock-skewed
# reporters, a flash crowd, CAS storms) against the real sharded core,
# with the shared invariant suite checked at the quiesce point — any
# violation FAILS the gate and the message carries the scenario seed, so
# a red soak reproduces from one integer. Records steady-state
# selections/sec and dispatch p99 into BENCH_city.json. The pre-push
# default runs 10k simulated devices (time-boxed); SENSEAID_CHAOS=full
# runs the 100k acceptance soak. SENSEAID_CHAOS_DEVICES overrides both.
chaos_devices=10000
if [ "${SENSEAID_CHAOS:-}" = "full" ]; then
    chaos_devices=100000
fi
SENSEAID_BENCH_OUT="$PWD/BENCH_city.json" \
    SENSEAID_CHAOS_DEVICES="${SENSEAID_CHAOS_DEVICES:-$chaos_devices}" \
    go test -run '^TestRecordCityBench$' -count=1 -v -timeout 30m ./internal/chaos
bench_diff BENCH_city.json

# Shared-tier scenario: 100 concurrent campaigns on one cohort and one
# aggregation tier; every campaign's streamed windows must match the
# post-hoc batch computation exactly.
go test -count=1 -run '^TestHundredCampaignSharedAggregationTier$' ./internal/sim

# Multi-node failover smoke: a real router fronting a real primary with
# a journal-shipping standby; the primary is SIGKILLed mid-campaign and
# the standby must promote, re-enroll, and finish the campaign with zero
# duplicate deliveries and every device session reconnected.
go test -count=1 -run '^TestClusterFailoverEndToEnd$' .

# Loadgen smoke: 1k real device connections against a freshly built
# senseaidd over the wire protocol, bounded duration; fails if any
# registration fails or no schedule is delivered.
tmp=$(mktemp -d)
# The servers' stderr is captured for stop_server; a failing gate prints it.
trap 'rc=$?; kill $srv_pid 2>/dev/null || true; [ $rc -eq 0 ] || cat "$tmp"/*.err 2>/dev/null; rm -rf "$tmp"' EXIT INT TERM
# stop_server ends a smoke's server and fails the gate when what it wrote
# shows a crash or a race the client side did not notice (a recovered
# handler panic, a race report from a -race build), as bench/'s validity
# guard does for its own children.
stop_server() {
    kill $srv_pid 2>/dev/null || true
    wait $srv_pid 2>/dev/null || true
    if grep -E 'panic:|DATA RACE|fatal error:' "$@"; then
        echo "ci: server output shows a panic, a fatal error or a data race" >&2
        exit 1
    fi
}
go build -o "$tmp/senseaidd" ./cmd/senseaidd
go build -o "$tmp/senseaid-loadgen" ./cmd/senseaid-loadgen
"$tmp/senseaidd" -addr 127.0.0.1:0 -tick 100ms > "$tmp/senseaidd.out" 2> "$tmp/senseaidd.err" &
srv_pid=$!
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^sense-aid server listening on //p' "$tmp/senseaidd.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ]
"$tmp/senseaid-loadgen" -addr "$addr" -devices 1000 -duration 5s \
    -tasks 4 -density 5 -period 1s -min-selections 1
stop_server "$tmp/senseaidd.out" "$tmp/senseaidd.err"

# Wire v2 smoke: 5k device connections speaking the binary codec against
# a server with a bounded RPC worker pool — the production transport
# configuration at 5x the plain smoke's scale. -coalesce-interval is
# deprecated and ignored; it stays on this command line, as on bench/'s,
# to prove old command lines still parse.
# A tenth of the fleet rides faulty links (staggered mid-run connection
# kills plus added latency) and 5% answers with wrong-sensor garbage:
# the run fails if the server accepts a single garbage upload or a
# healthy-link registration fails.
"$tmp/senseaidd" -addr 127.0.0.1:0 -tick 100ms \
    -codec binary -coalesce-interval 2ms -rpc-workers 64 > "$tmp/senseaidd2.out" 2> "$tmp/senseaidd2.err" &
srv_pid=$!
addr=
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^sense-aid server listening on //p' "$tmp/senseaidd2.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ]
"$tmp/senseaid-loadgen" -addr "$addr" -devices 5000 -duration 5s \
    -codec binary -tasks 4 -density 5 -period 1s -min-selections 1 \
    -chaos-fraction 0.1 -chaos-drop-writes 20 -chaos-delay 1ms -byzantine 0.05
stop_server "$tmp/senseaidd2.out" "$tmp/senseaidd2.err"

# Shared-tier smoke: a real senseaid-cas subscribes to its own
# campaign's live aggregation windows against a server under loadgen
# traffic, and exits success only after a closed window actually
# arrives (senseaid-cas -subscribe fails on a windowless deadline).
go build -o "$tmp/senseaid-cas" ./cmd/senseaid-cas
"$tmp/senseaidd" -addr 127.0.0.1:0 -tick 100ms -agg-window 2s > "$tmp/senseaidd3.out" 2> "$tmp/senseaidd3.err" &
srv_pid=$!
addr=
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^sense-aid server listening on //p' "$tmp/senseaidd3.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ]
"$tmp/senseaid-loadgen" -addr "$addr" -devices 50 -duration 15s \
    -tasks 1 -density 2 -period 1s -min-selections 1 &
load_pid=$!
"$tmp/senseaid-cas" -addr "$addr" -period 1s -duration 15s -density 2 -subscribe
wait $load_pid
stop_server "$tmp/senseaidd3.out" "$tmp/senseaidd3.err"
