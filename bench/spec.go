package main

import "time"

// sizes fixes one workload's inputs. The values below were calibrated
// on the commit that introduced the benchmark (see README.md, "Frozen
// sizes") and are part of the benchmark: changing one changes every
// number and invalidates comparisons with earlier runs.
type sizes struct {
	Devices int
	Tasks   int
	Density int
	Period  time.Duration // sampling period of every task

	// Socket workloads.
	ReportPeriod time.Duration // each device reports state this often
	Hoppers      int           // devices that change campus on every report
	Tick         time.Duration // senseaidd -tick
	Warm         time.Duration // load before the measured window opens

	// In-process workloads.
	AreaShare       float64 // share of the fleet inside one task area
	RoundsPerSecond float64 // virtual periods run per requested second
	ReportEvery     int     // city_mobile: a commuter reports every this many virtual seconds
}

type workload struct {
	Name   string
	Why    string
	Socket bool
	Routed bool // socket: through senseaid-router and two region primaries
	Mobile bool // in-process: write-dominated
	Sizes  sizes
}

// Latency limits. An upload that is acknowledged or delivered later than
// these counts as failed, exactly like one that is refused.
const (
	ackLimit     = 50 * time.Millisecond
	deliverLimit = 200 * time.Millisecond
)

var workloads = []workload{
	{
		Name:   "campus_direct",
		Why:    "the paper's deployment: 256 devices and one CAS on real sockets into one senseaidd; wire, netserver and persist do the work, cluster is bypassed",
		Socket: true,
		Sizes: sizes{
			Devices: 256, Tasks: 100, Density: 3, Period: 200 * time.Millisecond,
			ReportPeriod: 2 * time.Second, Tick: 20 * time.Millisecond, Warm: time.Second,
		},
	},
	{
		Name:   "campus_routed",
		Why:    "same generator through senseaid-router and two region primaries with 8 devices re-homing; only this workload runs cluster code",
		Socket: true, Routed: true,
		Sizes: sizes{
			Devices: 256, Tasks: 36, Density: 3, Period: 200 * time.Millisecond,
			ReportPeriod: 2 * time.Second, Hoppers: 8, Tick: 20 * time.Millisecond, Warm: time.Second,
		},
	},
	{
		Name: "city_core",
		Why:  "in-process, no sockets: 100k static devices, 400 tasks; spatial index, selection, journal and agg dominate, transport does nothing",
		Sizes: sizes{
			Devices: 100_000, Tasks: 400, Density: 20, Period: time.Second,
			AreaShare: 0.01, RoundsPerSecond: 3,
		},
	},
	{
		Name:   "city_mobile",
		Why:    "same fleet, write-dominated: 20% of devices report a move each virtual second beside 40 tasks; a selection gain paid for by costlier updates shows here",
		Mobile: true,
		Sizes: sizes{
			Devices: 100_000, Tasks: 40, Density: 20, Period: time.Second,
			AreaShare: 0.01, RoundsPerSecond: 8, ReportEvery: 5,
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric the harness prints. Every workload prints
// every metric: one a workload bypasses reads 0 in the per-layer list,
// and the end-to-end list holds only metrics that are never 0.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
	Moves  string  // per-layer only: the end-to-end metric it is expected to move, and where
}

// endToEnd is the list BENCHMARK.json's end_to_end must match.
//
// On the socket workloads cpu_us_per_upload and server_mem_mb are those
// of the server processes (all of them, router included) and recover_s
// is a SIGKILLed server restarting on its state directory until it
// listens again; on the in-process workloads they are the harness
// process's own CPU, its peak heap, and persist.Load + Recover into a
// fresh server. upload_ack is device send -> ack (ReceiveData call
// in-process); sched_to_deliver is schedule received -> that device's
// reading at the CAS (dispatch -> sink in-process).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "uploads_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_upload", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "upload_ack_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "sched_to_deliver_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "server_mem_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the list BENCHMARK.json's per_layer must match.
var perLayer = []metricDef{
	// wire: frames captured in the traced socket run, replayed through the codec.
	{Name: "wire.encode_ns_per_frame", Unit: "ns", Better: "lower", Moves: "cpu_us_per_upload, upload_ack_p50_us on campus_*"},
	{Name: "wire.decode_ns_per_frame", Unit: "ns", Better: "lower", Moves: "cpu_us_per_upload, upload_ack_p50_us on campus_*"},
	{Name: "wire.allocs_per_roundtrip", Unit: "count", Better: "lower", Moves: "cpu_us_per_upload on campus_*"},
	{Name: "wire.bytes_per_upload", Unit: "B", Better: "lower", Moves: "cpu_us_per_upload on campus_*"},
	{Name: "wire.frames_per_flush", Unit: "count", Better: "higher", Moves: "cpu_us_per_upload on campus_*"},
	{Name: "wire.cpu_us_per_upload", Unit: "us", Better: "lower", Moves: "cpu_us_per_upload on campus_*; none on city_*"},

	// netserver: client-side spans, /proc, /metrics.
	{Name: "netserver.register_us_p50", Unit: "us", Better: "lower", Moves: "setup_s on campus_*"},
	{Name: "netserver.report_rtt_us_p50", Unit: "us", Better: "lower", Moves: "cpu_us_per_upload on campus_*"},
	{Name: "netserver.due_to_schedule_us_p50", Unit: "us", Better: "lower", Moves: "sched_to_deliver_p50_us on campus_*"},
	{Name: "netserver.due_to_schedule_us_p99", Unit: "us", Better: "lower", Moves: "sched_to_deliver_p99_us on campus_*"},
	{Name: "netserver.stage_dispatch_us_p50", Unit: "us", Better: "lower", Moves: "sched_to_deliver_p50_us on campus_*"},
	{Name: "netserver.stage_deliver_us_p50", Unit: "us", Better: "lower", Moves: "sched_to_deliver_p50_us on campus_*"},
	{Name: "netserver.rpc_shed", Unit: "count", Better: "lower", Moves: "failed on campus_*"},
	{Name: "netserver.dispatch_retries", Unit: "count", Better: "lower", Moves: "failed on campus_*"},
	{Name: "netserver.rss_kb_per_conn", Unit: "kB", Better: "lower", Moves: "server_mem_mb on campus_*"},
	{Name: "netserver.goroutines_per_conn", Unit: "count", Better: "lower", Moves: "server_mem_mb on campus_*"},
	{Name: "netserver.residual_cpu_us_per_upload", Unit: "us", Better: "lower", Moves: "cpu_us_per_upload on campus_*"},
	{Name: "netserver.restart_s", Unit: "s", Better: "lower", Moves: "recover_s as an operator sees it: SIGKILLed binaries back on their state, fsync included"},
	{Name: "netserver.upload_ack_p99_us", Unit: "us", Better: "lower", Moves: "tail of upload_ack on campus_*"},
	{Name: "netserver.sched_to_deliver_p99_us", Unit: "us", Better: "lower", Moves: "tail of sched_to_deliver on campus_*"},

	// core: spans around the orchestrator's public calls, Stats(), its registry.
	{Name: "core.process_due_self_us_per_request", Unit: "us", Better: "lower", Moves: "uploads_per_s on city_core"},
	{Name: "core.select_us_per_request", Unit: "us", Better: "lower", Moves: "uploads_per_s on city_core; under 5% of cpu_us_per_upload on campus_*"},
	{Name: "core.candidates_per_selection", Unit: "count", Better: "lower", Moves: "uploads_per_s on city_core"},
	{Name: "core.receive_data_self_us", Unit: "us", Better: "lower", Moves: "uploads_per_s, upload_ack_p50_us on city_*"},
	{Name: "core.receive_data_us_p99", Unit: "us", Better: "lower", Moves: "tail of upload_ack on city_mobile (under concurrent reports)"},
	{Name: "core.update_state_us_p50", Unit: "us", Better: "lower", Moves: "uploads_per_s on city_mobile"},
	{Name: "core.update_state_us_p99", Unit: "us", Better: "lower", Moves: "uploads_per_s on city_mobile"},
	{Name: "core.reports_per_s", Unit: "1/s", Better: "higher", Moves: "uploads_per_s on city_mobile (same wall clock)"},
	{Name: "core.cell_move_ratio", Unit: "ratio", Better: "lower", Moves: "input property on city_mobile"},
	{Name: "core.rehome_ratio", Unit: "ratio", Better: "lower", Moves: "input property on city_mobile"},
	{Name: "core.waitlisted_ratio", Unit: "ratio", Better: "lower", Moves: "failed on every workload"},
	{Name: "core.register_us_per_device", Unit: "us", Better: "lower", Moves: "setup_s on city_*"},
	{Name: "core.allocs_per_upload", Unit: "count", Better: "lower", Moves: "uploads_per_s, server_mem_mb on city_core"},
	{Name: "core.cpu_us_per_upload", Unit: "us", Better: "lower", Moves: "cpu_us_per_upload on city_*; small share on campus_*"},
	{Name: "core.wait_us_per_upload", Unit: "us", Better: "lower", Moves: "uploads_per_s on city_mobile: time core calls waited for a lock or a processor"},

	// persist.
	{Name: "persist.append_us_per_record", Unit: "us", Better: "lower", Moves: "uploads_per_s on city_core; cpu_us_per_upload on campus_direct"},
	{Name: "persist.records_per_upload", Unit: "count", Better: "lower", Moves: "uploads_per_s, recover_s on city_core"},
	{Name: "persist.bytes_per_upload", Unit: "B", Better: "lower", Moves: "recover_s on city_core"},
	{Name: "persist.commit_ms", Unit: "ms", Better: "lower", Moves: "setup_s, recover_s"},
	{Name: "persist.load_ms", Unit: "ms", Better: "lower", Moves: "recover_s"},
	{Name: "persist.recover_replay_us_per_record", Unit: "us", Better: "lower", Moves: "recover_s"},
	{Name: "persist.cpu_us_per_upload", Unit: "us", Better: "lower", Moves: "cpu_us_per_upload on city_core, campus_direct"},

	// agg.
	{Name: "agg.ingest_ns_per_upload", Unit: "ns", Better: "lower", Moves: "uploads_per_s on city_core"},
	{Name: "agg.advance_us_per_tick", Unit: "us", Better: "lower", Moves: "uploads_per_s on city_core"},
	{Name: "agg.windows_closed", Unit: "count", Better: "higher", Moves: "work count"},
	{Name: "agg.late_dropped", Unit: "count", Better: "lower", Moves: "correctness of streamed windows"},

	// cluster: zero everywhere but campus_routed.
	{Name: "cluster.router_cpu_us_per_upload", Unit: "us", Better: "lower", Moves: "cpu_us_per_upload on campus_routed only"},
	{Name: "cluster.router_rss_mb", Unit: "MB", Better: "lower", Moves: "server_mem_mb on campus_routed only"},
	{Name: "cluster.rehomes", Unit: "count", Better: "higher", Moves: "work count on campus_routed"},
	{Name: "cluster.rehome_us_p50", Unit: "us", Better: "lower", Moves: "report latency of a hopping device on campus_routed"},
	{Name: "cluster.relay_errors", Unit: "count", Better: "lower", Moves: "failed on campus_routed"},
	{Name: "cluster.swap_retries", Unit: "count", Better: "lower", Moves: "failed on campus_routed"},

	// obs: what tracing costs, measured inside one invocation.
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "traced / untraced cpu_us_per_upload"},

	// budget: the unexplained remainder of cpu_us_per_upload.
	{Name: "budget.remainder_us_per_upload", Unit: "us", Better: "lower", Moves: "what the named shares do not explain"},

	// gen: health of the load generator itself; never gated.
	{Name: "gen.host_steal_share", Unit: "ratio", Better: "lower", Moves: "how far to trust any timing of this run"},
	{Name: "gen.cpu_share", Unit: "ratio", Better: "lower", Moves: "validity of a socket run"},
	{Name: "gen.report_late_us_p99", Unit: "us", Better: "lower", Moves: "validity of a socket run"},
	{Name: "gen.worker_queue_p99", Unit: "count", Better: "lower", Moves: "validity of a socket run"},
}
