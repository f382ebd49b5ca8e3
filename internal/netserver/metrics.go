package netserver

import (
	"sync"
	"time"

	"senseaid/internal/obs"
	"senseaid/internal/wire"
)

// rpcSecondsBuckets spans 10 µs – 2.6 s: a handler is a JSON decode plus
// one core call, but the core mutex can queue behind a scheduling tick.
var rpcSecondsBuckets = obs.ExponentialBuckets(1e-5, 4, 10)

// snapshotSecondsBuckets spans 100 µs – 6.5 s: a snapshot is one state
// walk plus a JSON encode, an fsync, and a rename.
var snapshotSecondsBuckets = obs.ExponentialBuckets(1e-4, 4, 9)

// aggPushLagBuckets spans 1 ms – 16 s: push lag is bounded by the agg
// tick (a quarter window) plus one write, so the healthy range sits near
// the bottom and a full window of lag is an outlier.
var aggPushLagBuckets = obs.ExponentialBuckets(1e-3, 4, 8)

// netMetrics is the transport layer's slice of the metric vocabulary.
// RPC series are created lazily per message type (the type set is fixed
// by the protocol, so cardinality stays bounded).
type netMetrics struct {
	reg *obs.Registry

	connsDevice    *obs.Gauge
	connsCAS       *obs.Gauge
	connsNode      *obs.Gauge
	connsRouter    *obs.Gauge
	acceptedDevice *obs.Counter
	acceptedCAS    *obs.Counter
	acceptedNode   *obs.Counter
	acceptedRouter *obs.Counter // router links this worker opened (it dials them)
	casDisconnects *obs.Counter

	// dispatchRetries counts schedules re-sent on a device's fresh
	// connection after the first write landed on a connection the device
	// had already replaced (redial racing a dispatch).
	dispatchRetries *obs.Counter

	handshakeTimeouts *obs.Counter
	idleDisconnects   *obs.Counter
	rpcShed           *obs.Counter

	// Durability series (all zero when no state directory is set).
	restartsTotal         *obs.Counter
	recoveryLastUnix      *obs.Gauge
	recoveriesFresh       *obs.Counter
	recoveriesRestored    *obs.Counter
	recoveriesReset       *obs.Counter
	recoveryReplayed      *obs.Counter
	recoverySkipped       *obs.Counter
	recoverySeconds       [recoveryPhases]*obs.Gauge
	snapshotsOK           *obs.Counter
	snapshotsErr          *obs.Counter
	snapshotSeconds       *obs.Histogram
	snapshotBytes         *obs.Gauge
	journalAppends        *obs.Counter
	journalErrors         *obs.Counter
	journalTruncatedBytes *obs.Counter
	deliveriesUnroutable  *obs.Counter
	deliveriesReplayed    *obs.Counter

	// Replication series (journal shipping to standby nodes).
	replicaLinks   *obs.Gauge
	replShipErrors *obs.Counter

	uploadTail     *obs.Counter
	uploadPromoted *obs.Counter
	uploadUnknown  *obs.Counter

	// Live-aggregation tier series (DESIGN.md §15).
	aggWindows     *obs.Counter
	aggSeries      *obs.Gauge
	aggEvicted     *obs.Counter
	aggSubscribers *obs.Gauge
	aggPushLag     *obs.Histogram

	mu      sync.Mutex
	rpcHist map[string]*obs.Histogram
	rpcErrs map[string]*obs.Counter
}

func newNetMetrics(reg *obs.Registry) *netMetrics {
	role := func(r string) obs.Labels { return obs.Labels{"role": r} }
	path := func(p string) obs.Labels { return obs.Labels{"path": p} }
	m := &netMetrics{
		reg: reg,
		connsDevice: reg.Gauge("senseaid_net_connections",
			"Open peer connections by role.", role("device")),
		connsCAS: reg.Gauge("senseaid_net_connections",
			"Open peer connections by role.", role("cas")),
		acceptedDevice: reg.Counter("senseaid_net_connections_total",
			"Accepted peer connections by role.", role("device")),
		acceptedCAS: reg.Counter("senseaid_net_connections_total",
			"Accepted peer connections by role.", role("cas")),
		connsNode: reg.Gauge("senseaid_net_connections",
			"Open peer connections by role.", role("node")),
		acceptedNode: reg.Counter("senseaid_net_connections_total",
			"Accepted peer connections by role.", role("node")),
		connsRouter: reg.Gauge("senseaid_net_connections",
			"Open peer connections by role.", role("router")),
		acceptedRouter: reg.Counter("senseaid_net_connections_total",
			"Accepted peer connections by role.", role("router")),
		casDisconnects: reg.Counter("senseaid_cas_disconnects_total",
			"CAS connections lost with live tasks still registered.", nil),
		dispatchRetries: reg.Counter("senseaid_dispatch_retries_total",
			"Schedules re-sent on a device's replacement connection after a redial raced the dispatch.", nil),
		handshakeTimeouts: reg.Counter("senseaid_net_handshake_timeouts_total",
			"Connections dropped for not completing the hello in time.", nil),
		idleDisconnects: reg.Counter("senseaid_net_idle_disconnects_total",
			"Device connections dropped after the idle timeout.", nil),
		rpcShed: reg.Counter("senseaid_rpc_shed_total",
			"Messages rejected because the RPC worker queue stayed full past the backpressure wait.", nil),
		restartsTotal: reg.Counter("senseaid_restarts_total",
			"Process starts against this state directory after the first.", nil),
		recoveryLastUnix: reg.Gauge("senseaid_recovery_last_unix",
			"Unix time of the last boot-time recovery pass.", nil),
		recoveriesFresh: reg.Counter("senseaid_recoveries_total",
			"Boot-time recovery passes by outcome.", obs.Labels{"outcome": "fresh"}),
		recoveriesRestored: reg.Counter("senseaid_recoveries_total",
			"Boot-time recovery passes by outcome.", obs.Labels{"outcome": "restored"}),
		recoveriesReset: reg.Counter("senseaid_recoveries_total",
			"Boot-time recovery passes by outcome.", obs.Labels{"outcome": "reset"}),
		recoveryReplayed: reg.Counter("senseaid_recovery_replayed_records_total",
			"Journal records applied during boot-time recovery.", nil),
		recoverySkipped: reg.Counter("senseaid_recovery_skipped_records_total",
			"Journal records dropped during recovery (stale, duplicate, or malformed).", nil),
		snapshotsOK: reg.Counter("senseaid_snapshots_total",
			"State snapshot commits by outcome.", obs.Labels{"outcome": "ok"}),
		snapshotsErr: reg.Counter("senseaid_snapshots_total",
			"State snapshot commits by outcome.", obs.Labels{"outcome": "error"}),
		snapshotSeconds: reg.Histogram("senseaid_snapshot_seconds",
			"Wall time of one state snapshot commit.", snapshotSecondsBuckets, nil),
		snapshotBytes: reg.Gauge("senseaid_snapshot_bytes",
			"Size of the most recent snapshot file.", nil),
		journalAppends: reg.Counter("senseaid_journal_appends_total",
			"Mutation records appended to the journal.", nil),
		journalErrors: reg.Counter("senseaid_journal_errors_total",
			"Journal appends that failed (mutation lost until next snapshot).", nil),
		journalTruncatedBytes: reg.Counter("senseaid_journal_truncated_bytes_total",
			"Torn journal tail bytes discarded during recovery.", nil),
		deliveriesUnroutable: reg.Counter("senseaid_deliveries_unroutable_total",
			"Validated readings with no CAS connection claiming the task (buffered for reclaim, or dropped at the buffer caps).", nil),
		deliveriesReplayed: reg.Counter("senseaid_deliveries_replayed_total",
			"Buffered unroutable readings delivered when a CAS reclaimed the task.", nil),
		replicaLinks: reg.Gauge("senseaid_replica_links",
			"Standby replicas currently attached for journal shipping.", nil),
		replShipErrors: reg.Counter("senseaid_repl_ship_errors_total",
			"Snapshot or journal frames that failed to reach a replica (link dropped).", nil),
		uploadTail: reg.Counter("senseaid_uploads_total",
			"Crowdsensing uploads by radio path.", path(wire.PathTail)),
		uploadPromoted: reg.Counter("senseaid_uploads_total",
			"Crowdsensing uploads by radio path.", path(wire.PathPromoted)),
		uploadUnknown: reg.Counter("senseaid_uploads_total",
			"Crowdsensing uploads by radio path.", path("unknown")),
		aggWindows: reg.Counter("senseaid_agg_windows_total",
			"Base aggregation windows closed by the live-aggregation tier.", nil),
		aggSeries: reg.Gauge("senseaid_agg_series",
			"Live aggregation series (task, region, grid cell) the tier holds.", nil),
		aggEvicted: reg.Counter("senseaid_agg_evicted_total",
			"Aggregation series dropped by the tier: gone idle past retention, or evicted at the series cap.", nil),
		aggSubscribers: reg.Gauge("senseaid_agg_subscribers",
			"Live agg_push subscriptions.", nil),
		aggPushLag: reg.Histogram("senseaid_agg_push_lag_seconds",
			"Window end to agg_push flush completion, per push.",
			aggPushLagBuckets, nil),
		rpcHist: make(map[string]*obs.Histogram),
		rpcErrs: make(map[string]*obs.Counter),
	}
	for i, phase := range recoveryPhaseNames {
		m.recoverySeconds[i] = reg.Gauge("senseaid_recovery_seconds",
			"Wall time of each phase of the last boot or promotion recovery.", obs.Labels{"phase": phase})
	}
	return m
}

// The phases of a recovery pass, in the order it runs them.
const (
	phaseLoad   = iota // persist.Load: read, frame and check the state files
	phaseDecode        // snapshot and journal records into the core's types
	phaseReplay        // core.Recover, and the routing rebuild after it
	phaseCommit        // the post-recovery snapshot that opens a new epoch
	recoveryPhases
)

var recoveryPhaseNames = [recoveryPhases]string{"load", "decode", "replay", "commit"}

// noteRecoveryPhases records where the last recovery pass spent its time.
func (m *netMetrics) noteRecoveryPhases(phases [recoveryPhases]time.Duration) {
	for i, d := range phases {
		m.recoverySeconds[i].Set(d.Seconds())
	}
}

// noteRecovery records one boot-time recovery pass.
func (m *netMetrics) noteRecovery(info RecoveryInfo) {
	if info.Restarts > 0 {
		m.restartsTotal.Add(uint64(info.Restarts))
	}
	m.recoveryLastUnix.Set(float64(time.Now().Unix()))
	switch info.Outcome {
	case "restored":
		m.recoveriesRestored.Inc()
	case "reset":
		m.recoveriesReset.Inc()
	default:
		m.recoveriesFresh.Inc()
	}
	if info.Replayed > 0 {
		m.recoveryReplayed.Add(uint64(info.Replayed))
	}
	if info.Skipped > 0 {
		m.recoverySkipped.Add(uint64(info.Skipped))
	}
}

// upload returns the senseaid_uploads_total series for a wire path value,
// folding anything unrecognised into "unknown" so a hostile client cannot
// mint unbounded label values.
func (m *netMetrics) upload(path string) *obs.Counter {
	switch path {
	case wire.PathTail:
		return m.uploadTail
	case wire.PathPromoted:
		return m.uploadPromoted
	default:
		return m.uploadUnknown
	}
}

// knownTypes bounds the type label: peers choose the bytes in env.Type,
// so anything off-protocol is folded into a single "unknown" series.
var knownTypes = map[wire.MsgType]bool{
	wire.TypeHello: true, wire.TypeAck: true, wire.TypeError: true,
	wire.TypeRegister: true, wire.TypeDeregister: true,
	wire.TypeUpdatePrefs: true, wire.TypeStateReport: true,
	wire.TypeSenseData: true, wire.TypeSchedule: true,
	wire.TypeSubmitTask: true, wire.TypeUpdateTask: true,
	wire.TypeDeleteTask: true, wire.TypeSensedData: true,
	wire.TypeExportDevice: true, wire.TypeImportDevice: true,
	wire.TypeNodeHello: true, wire.TypeNodePing: true,
	wire.TypeSubscribeAgg: true, wire.TypeAggPush: true,
	wire.TypeStreamClose: true,
}

// observeRPC records one handled message: latency into senseaid_rpc_seconds
// and, on failure, senseaid_rpc_errors_total — both labelled by peer role
// and message type.
func (m *netMetrics) observeRPC(role string, t wire.MsgType, d time.Duration, failed bool) {
	if !knownTypes[t] {
		t = "unknown"
	}
	key := role + "|" + string(t)
	m.mu.Lock()
	h, ok := m.rpcHist[key]
	if !ok {
		labels := obs.Labels{"role": role, "type": string(t)}
		h = m.reg.Histogram("senseaid_rpc_seconds",
			"RPC handling latency by peer role and message type.",
			rpcSecondsBuckets, labels)
		m.rpcHist[key] = h
	}
	var e *obs.Counter
	if failed {
		e, ok = m.rpcErrs[key]
		if !ok {
			e = m.reg.Counter("senseaid_rpc_errors_total",
				"RPC handler failures by peer role and message type.",
				obs.Labels{"role": role, "type": string(t)})
			m.rpcErrs[key] = e
		}
	}
	m.mu.Unlock()
	h.Observe(d.Seconds())
	if e != nil {
		e.Inc()
	}
}
