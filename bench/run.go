package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"senseaid/internal/core"
	"time"

	"senseaid/internal/agg"
)

// runResult is one invocation's outcome for one workload: either the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
type runResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	Digest     string             `json:"input_digest"`
	Layout     string             `json:"layout"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Violations []string           `json:"violations,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Timings    map[string]summary `json:"timings,omitempty"`
	Budget     []budgetRow        `json:"budget,omitempty"`
	Notes      []string           `json:"notes,omitempty"`

	spans []span
}

// budgetRow is one line of the per-layer budget: a layer's share of the
// end-to-end CPU cost of one upload.
type budgetRow struct {
	Layer string  `json:"layer"`
	Us    float64 `json:"us_per_upload"`
	Share float64 `json:"share"`
}

// env is what every run needs from its surroundings.
type env struct {
	root    string // repository root
	bin     string // built servers (socket workloads)
	scratch string // state files; removed by the caller
	pin     bool   // start the idle spinners and, for socket runs, split the CPUs
	setups  int    // 0: the defaults below; the smoke tests ask for fewer
}

// Set-up is repeated so that setup_s is a median, not one sample.
const (
	campusSetups = 5
	citySetups   = 3
)

func (ev env) setupRepeats(def int) int {
	if ev.setups > 0 {
		return ev.setups
	}
	return def
}

// runWorkload is the single entry point: one workload, one seed, traced
// or not.
func runWorkload(ev env, w workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	res := &runResult{
		Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: make(map[string]float64), Timings: make(map[string]summary),
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = 0
	}
	var err error
	res.Layout = "loopback"
	if !w.Socket {
		res.Layout = fmt.Sprintf("in-process, GOMAXPROCS %d of %d CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if ev.pin {
		undo, layout := settleCPUs(w.Socket)
		defer undo()
		res.Layout += ", " + layout
	}
	switch {
	case w.Socket && !traced:
		err = campusE2E(ev, w, seed, seconds, res)
	case w.Socket:
		err = campusLayers(ev, w, seed, seconds, res)
	case !traced:
		err = cityE2E(ev, w, seed, seconds, res)
	default:
		err = cityLayers(ev, w, seed, seconds, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// noteSteal records how much CPU time the host took from the machine
// during the measurement and how many windows were left undisturbed.
func (r *runResult) noteSteal(stolen float64, clean []bool) {
	n := 0
	for _, c := range clean {
		if c {
			n++
		}
	}
	note := fmt.Sprintf("host stole %.1f%% of the machine's CPU time; %d of %d windows undisturbed", 100*stolen, n, len(clean))
	if n < minCleanWindows && n < len(clean) {
		note += ", so every window was used"
	}
	r.Notes = append(r.Notes, note)
	if r.Traced {
		r.Metrics["gen.host_steal_share"] = stolen
	}
}

func (r *runResult) timing(name string, samples []float64) summary {
	s := summarize(samples)
	r.Timings[name] = s
	return s
}

// ---- socket workloads -------------------------------------------------

func campusE2E(ev env, w workload, seed int64, seconds float64, res *runResult) error {
	in := genCampus(seed, w.Sizes, w.Routed)
	res.Digest = in.digest()
	var setups []float64
	for i := 0; i < ev.setupRepeats(campusSetups)-1; i++ {
		dir := filepath.Join(ev.scratch, fmt.Sprintf("probe-%d", i))
		p, err := runCampusPass(w, in, ev.bin, campusOpts{stateDir: dir})
		if err != nil {
			return err
		}
		p.close()
		setups = append(setups, p.setup.Seconds())
	}
	stateDir := filepath.Join(ev.scratch, "run")
	p, err := measuredPass(w, in, ev.bin, campusOpts{seconds: seconds, stateDir: stateDir}, res)
	if err != nil {
		return err
	}
	defer p.close()
	setups = append(setups, p.setup.Seconds())
	// Recovery: the killed servers' state into a fresh core, in this
	// process. (The traced run restarts the real binaries instead; that
	// figure includes an fsync and is as steady as the disk.)
	p.killServers()
	dirs, regions := p.stateDirs(in)
	rec, err := recoverFrom(dirs, regions, nil)
	if err != nil {
		return err
	}
	if got := int64(rec.standby.Stats().ReadingsAccepted); got != p.deliveries {
		p.violations = append(p.violations,
			fmt.Sprintf("journals replay to %d accepted readings, the CAS received %d", got, p.deliveries))
	}
	if got := rec.standby.DeviceCount(); got != len(in.Devices) {
		p.violations = append(p.violations,
			fmt.Sprintf("journals replay to %d devices, the fleet has %d", got, len(in.Devices)))
	}
	res.Attempted, res.Failed, res.Violations = p.attempted, p.failed, p.violations
	if p.failures != "" {
		res.Notes = append(res.Notes, p.failures)
	}
	m := res.Metrics
	m["setup_s"] = median(setups)
	m["uploads_per_s"] = cleanMedian(p.perWindow, nil, p.clean)
	m["cpu_us_per_upload"] = cleanMedian(p.cpuWindow, nil, p.clean)
	m["upload_ack_p50_us"] = p.ackUs.medianOf(0.5, p.clean)
	m["sched_to_deliver_p50_us"] = p.deliverUs.medianOf(0.5, p.clean)
	m["server_mem_mb"] = float64(p.serverRSS) / 1e6
	m["recover_s"] = medianRecovery(rec, dirs, regions)
	res.timing("upload_ack_us", p.ackUs.all())
	res.timing("sched_to_deliver_us", p.deliverUs.all())
	res.timing("due_to_schedule_us", p.lateUs)
	res.timing("setup_s", setups)
	res.noteSteal(p.stolen, p.clean)
	return nil
}

// medianRecovery repeats a recovery that took a fraction of a second
// (it only reads the state files) until the repeats add up to a second
// and a half, and returns the median duration in seconds, the first run
// included: tens of milliseconds measured once are mostly noise.
func medianRecovery(first *recovery, dirs []string, regions []core.Region) float64 {
	took := []float64{first.total.Seconds()}
	for spent := first.total; len(took) < 25 && spent < 1500*time.Millisecond; {
		rec, err := recoverFrom(dirs, regions, nil)
		if err != nil {
			break // the first run succeeded on the same files; report what there is
		}
		took = append(took, rec.total.Seconds())
		spent += rec.total
	}
	return median(took)
}

// measuredPasses is how often a measured pass is made before a
// disturbed generator invalidates the run.
const measuredPasses = 3

// measuredPass runs a measured pass and checks the generator. A pass
// whose generator was disturbed (another process took its CPU for a
// moment) is set aside and made again on a fresh state directory; a
// generator that is too slow for the load fails every pass and the run
// stays invalid.
func measuredPass(w workload, in inputs, bin string, o campusOpts, res *runResult) (*campusPass, error) {
	base := o.stateDir
	for n := 1; ; n++ {
		o.stateDir = filepath.Join(base, fmt.Sprintf("pass-%d", n))
		o.tr.reset()
		p, err := runCampusPass(w, in, bin, o)
		if err != nil {
			return nil, err
		}
		if err = checkGenerator(w, p, res); err == nil {
			return p, nil
		}
		p.close()
		if n == measuredPasses {
			return nil, err
		}
		res.Notes = append(res.Notes, fmt.Sprintf("pass %d set aside: %v", n, err))
	}
}

// checkGenerator is the run-validity guard for socket runs: a generator
// that used most of its CPUs, or ran its reports late, was measuring
// itself. Lateness is judged only when the host left the run alone: with
// CPU time being stolen, a late report says nothing about the generator.
func checkGenerator(w workload, p *campusPass, res *runResult) error {
	share := float64(p.genCPU) / (float64(p.wall) * float64(runtime.GOMAXPROCS(0)))
	if res.Traced {
		res.Metrics["gen.cpu_share"] = share
	}
	if share > 0.5 {
		return invalidf("generator used %.0f%% of its CPUs", 100*share)
	}
	lateP99 := p.reportLateTail()
	if lateP99 <= float64(w.Sizes.Tick)/1e3 {
		return nil
	}
	if p.stolen > stealLimit {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"state reports ran %.0f us late at p99 while the host was stealing CPU time; the lateness guard does not apply", lateP99))
		return nil
	}
	return invalidf("state reports ran %.0f us late at p99 (n=%d), more than one tick", lateP99, len(p.reportLate))
}

// reportLateTail is how late state reports started, at p99 or, in a run
// too short to have ten reports beyond that, at the highest percentile
// that does (a toy-size run must not be invalidated by one hiccup).
func (p *campusPass) reportLateTail() float64 {
	late := sortedCopy(p.reportLate)
	return quantile(late, supportedTail(len(late), 0.99))
}

func campusLayers(ev env, w workload, seed int64, seconds float64, res *runResult) error {
	in := genCampus(seed, w.Sizes, w.Routed)
	res.Digest = in.digest()
	half := seconds / 2
	ref, err := runCampusPass(w, in, ev.bin, campusOpts{
		seconds: half, stateDir: filepath.Join(ev.scratch, "ref"),
	})
	if err != nil {
		return err
	}
	ref.close()
	tr := newTracer()
	p, err := measuredPass(w, in, ev.bin, campusOpts{
		seconds: half, traced: true, tr: tr, stateDir: filepath.Join(ev.scratch, "traced"),
	}, res)
	if err != nil {
		return err
	}
	defer p.close()
	res.Attempted, res.Failed = p.attempted, p.failed
	if p.failures != "" {
		res.Notes = append(res.Notes, p.failures)
	}
	m := res.Metrics
	uploads := float64(p.uploads)
	serverUs := float64(p.serverCPU) / 1e3 / uploads

	// delta is a counter's growth over the window, summed over the servers.
	delta := func(name string, match ...string) float64 {
		return p.top.sumOver(p.after, name, match...) - p.top.sumOver(p.before, name, match...)
	}

	// wire
	reports := float64(len(p.reportRTT) + len(p.hopRTT))
	wc, err := replayWire(p.frames, reports/float64(len(p.recs)))
	if err != nil {
		return err
	}
	m["wire.encode_ns_per_frame"] = wc.encodeNs
	m["wire.decode_ns_per_frame"] = wc.decodeNs
	m["wire.allocs_per_roundtrip"] = wc.allocsPerRoundtrip
	m["wire.bytes_per_upload"] = wc.bytesPerUpload
	if flushes := delta("senseaid_wire_flushes_total"); flushes > 0 {
		// Frames a server wrote in the window: a schedule, an ack and a
		// delivery per upload, and an ack per report.
		m["wire.frames_per_flush"] = (3*uploads + reports*float64(p.wall)/float64(time.Since(p.epoch))) / flushes
	}
	wireUs := wc.serverNsPerUpload / 1e3
	m["wire.cpu_us_per_upload"] = wireUs

	// netserver
	m["netserver.register_us_p50"] = res.timing("register_us", p.registerUs).P50
	m["netserver.report_rtt_us_p50"] = res.timing("report_rtt_us", p.reportRTT).P50
	late := sortedCopy(p.lateUs)
	res.timing("due_to_schedule_us", p.lateUs)
	m["netserver.due_to_schedule_us_p50"] = quantile(late, 0.5)
	m["netserver.due_to_schedule_us_p99"] = quantile(late, supportedTail(len(late), 0.99))
	m["netserver.stage_dispatch_us_p50"] = p.stageP50("dispatch") * 1e6
	m["netserver.stage_deliver_us_p50"] = p.stageP50("deliver") * 1e6
	m["netserver.rpc_shed"] = delta("senseaid_rpc_shed_total")
	m["netserver.dispatch_retries"] = delta("senseaid_dispatch_retries_total")
	m["netserver.rss_kb_per_conn"] = p.idleRSSPerConn / 1e3
	m["netserver.goroutines_per_conn"] = p.idleGoroutines
	m["netserver.upload_ack_p99_us"] = p.ackUs.medianOf(0.99, p.clean)
	m["netserver.sched_to_deliver_p99_us"] = p.deliverUs.medianOf(0.99, p.clean)
	res.timing("upload_ack_us", p.ackUs.all())
	res.timing("sched_to_deliver_us", p.deliverUs.all())

	// persist: the traced run's own journals.
	p.killServers()
	dirs, regions := p.stateDirs(in)
	lane := tr.lane()
	pc, _, err := replayPersist(dirs, filepath.Join(ev.scratch, "replay"), regions, lane)
	if err != nil {
		return err
	}
	accepted := float64(p.deliveries)
	m["persist.append_us_per_record"] = pc.appendUs
	m["persist.records_per_upload"] = float64(pc.records) / accepted
	m["persist.bytes_per_upload"] = float64(pc.bytes) / accepted
	m["persist.commit_ms"] = pc.commitMs
	m["persist.load_ms"] = pc.loadMs
	m["persist.recover_replay_us_per_record"] = pc.replayUsPerRec
	persistUs := pc.appendUs * float64(pc.records) / accepted
	m["persist.cpu_us_per_upload"] = persistUs
	if pc.recoveredDevices != len(in.Devices) {
		p.violations = append(p.violations,
			fmt.Sprintf("journals replay to %d devices, the fleet has %d", pc.recoveredDevices, len(in.Devices)))
	}
	// The real thing: the killed binaries restarted on their state.
	restart, err := p.restart()
	if err != nil {
		return err
	}
	m["netserver.restart_s"] = restart.Seconds()
	res.Violations = append(append([]string(nil), ref.violations...), p.violations...)

	// core and agg: the same fleet and tasks through the in-process engine.
	cin := in
	cin.Regions = regions
	cs, err := coreShare(cin, w.Sizes)
	if err != nil {
		return err
	}
	cs.fill(m)
	aggNs := aggIngestNs(p.frames)
	m["agg.ingest_ns_per_upload"] = aggNs
	m["agg.windows_closed"] = delta("senseaid_agg_windows_total")
	aggUs := aggNs / 1e3

	// cluster
	routerUs := 0.0
	if w.Routed {
		routerUs = float64(p.routerCPU) / 1e3 / uploads
		m["cluster.router_cpu_us_per_upload"] = routerUs
		m["cluster.router_rss_mb"] = float64(p.routerRSS) / 1e6
		m["cluster.rehomes"] = p.routerDelta("senseaid_router_rehomes_total")
		m["cluster.rehome_us_p50"] = res.timing("rehome_report_rtt_us", p.hopRTT).P50
		m["cluster.relay_errors"] = p.routerDelta("senseaid_router_relay_errors_total")
		m["cluster.swap_retries"] = p.routerDelta("senseaid_router_swap_retries_total")
	}

	// obs and the budget.
	m["obs.trace_overhead_ratio"] = serverUs / (float64(ref.serverCPU) / 1e3 / float64(ref.uploads))
	residual := serverUs - wireUs - cs.cpuUs - persistUs - aggUs - routerUs
	m["netserver.residual_cpu_us_per_upload"] = residual
	m["budget.remainder_us_per_upload"] = residual
	res.Budget = budget(serverUs, []budgetRow{
		{Layer: "wire", Us: wireUs},
		{Layer: "core", Us: cs.cpuUs},
		{Layer: "persist", Us: persistUs},
		{Layer: "agg", Us: aggUs},
		{Layer: "cluster (router process)", Us: routerUs},
	}, "netserver + kernel sockets (remainder)")
	res.noteSteal(p.stolen, p.clean)
	m["gen.report_late_us_p99"] = p.reportLateTail()
	m["gen.worker_queue_p99"] = p.queueP99
	res.spans = tr.all()
	return nil
}

// budget completes a share table: named rows, then the remainder that
// makes them sum to total.
func budget(total float64, rows []budgetRow, remainderName string) []budgetRow {
	named := 0.0
	for i := range rows {
		named += rows[i].Us
	}
	rows = append(rows, budgetRow{Layer: remainderName, Us: total - named})
	for i := range rows {
		rows[i].Share = rows[i].Us / total
	}
	return append(rows, budgetRow{Layer: "cpu_us_per_upload (traced run)", Us: total, Share: 1})
}

// routerDelta is a router counter's growth over the window (0 when the
// workload has no router).
func (p *campusPass) routerDelta(name string) float64 {
	if len(p.after) == p.nServers {
		return 0
	}
	return p.after[p.nServers].sum(name) - p.before[p.nServers].sum(name)
}

// stageP50 estimates a server-side stage's median latency in seconds
// from the senseaid_stage_seconds histograms, over the window.
func (p *campusPass) stageP50(stage string) float64 {
	var after, before promText
	for i := 0; i < p.nServers; i++ {
		after = append(after, p.after[i]...)
		before = append(before, p.before[i]...)
	}
	return after.histQuantile(before, "senseaid_stage_seconds", 0.5, "stage", stage)
}

// coreCosts is the scheduling core's cost on a given fleet and task
// set, measured in-process.
type coreCosts struct {
	cpuUs          float64 // process CPU per upload, untraced
	selectUs       float64 // per request, from the core's own counter
	candidates     float64 // per selection
	processDueSelf float64 // us per request
	receiveSelf    float64 // us per upload
	waitlisted     float64 // ratio of requests
	registerUs     float64 // per device
}

func (c coreCosts) fill(m map[string]float64) {
	m["core.cpu_us_per_upload"] = c.cpuUs
	m["core.select_us_per_request"] = c.selectUs
	m["core.candidates_per_selection"] = c.candidates
	m["core.process_due_self_us_per_request"] = c.processDueSelf
	m["core.receive_data_self_us"] = c.receiveSelf
	m["core.waitlisted_ratio"] = c.waitlisted
	m["core.register_us_per_device"] = c.registerUs
}

// coreShareRounds is how many periods the in-process replay of a socket
// workload's fleet runs: enough uploads for a stable mean, well under a
// second of work.
const coreShareRounds = 60

// coreShare runs the fleet and tasks through the bare core (no journal,
// no tier): once untraced for its CPU per upload, once traced for the
// self times.
func coreShare(in inputs, sz sizes) (coreCosts, error) {
	var out coreCosts
	e, err := newEngine(in, sz, coreShareRounds, engineOpts{})
	if err != nil {
		return out, err
	}
	run := e.run(coreShareRounds)
	out.cpuUs = float64(run.cpu) / 1e3 / float64(run.uploads)
	out.registerUs = float64(e.regNs) / 1e3 / float64(len(in.Devices))
	// The traced engine's main lane reads this thread's CPU clock.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tr := newCPUTracer()
	te, err := newEngine(in, sz, coreShareRounds, engineOpts{tr: tr})
	if err != nil {
		return out, err
	}
	te.run(coreShareRounds)
	out.fromSpans(te, selfTimes(measuredSpans(tr.all())))
	return out, nil
}

// measuredSpans drops the spans of an engine's set-up (registrations,
// and the first period, which is trace 1), keeping the measured periods.
func measuredSpans(spans []span) []span {
	out := make([]span, 0, len(spans))
	for i := range spans {
		if spans[i].Trace > 1 {
			out = append(out, spans[i])
		}
	}
	return out
}

// fromSpans fills the span- and counter-derived fields from a traced
// engine's measured periods. Self times here are CPU, not wall: they
// answer what the call costs, and core.wait_us_per_upload carries what
// it waited.
func (c *coreCosts) fromSpans(e *engine, lt map[spanName]layerTimes) {
	if n := lt[spProcessDue].Count; n > 0 {
		// One process_due span per shard and period; a request per task in it.
		requests := float64(n) * float64(len(e.in.Tasks)) / float64(len(e.shards))
		c.processDueSelf = float64(lt[spProcessDue].CPU) / 1e3 / requests
	}
	if n := lt[spReceiveData].Count; n > 0 {
		c.receiveSelf = float64(lt[spReceiveData].CPU) / 1e3 / float64(n)
	}
	reg := e.coreMetrics()
	if sel := reg.sum("senseaid_requests_total"); sel > 0 {
		c.selectUs = reg.sum("senseaid_selection_ns") / 1e3 / sel
		c.candidates = reg.sum("senseaid_selection_candidates_total") / sel
		c.waitlisted = reg.sum("senseaid_requests_total", "outcome", "waitlisted") / sel
	}
}

// coreMetrics reads every shard's own metrics registry through its text
// exposition, the same format the admin endpoint serves.
func (e *engine) coreMetrics() promText {
	var all promText
	for i := range e.shards {
		sh, _, err := e.ss.Shard(i)
		if err != nil {
			continue
		}
		var buf bytes.Buffer
		if err := sh.Metrics().WriteText(&buf); err != nil {
			continue
		}
		p, err := parsePromText(&buf)
		if err != nil {
			continue
		}
		all = append(all, p...)
	}
	return all
}

// aggIngestNs times the tier's ingest over the delivered readings, in a
// tier shaped like senseaidd's (-agg-window 1s, default cells).
func aggIngestNs(f capturedFrames) float64 {
	if len(f.delivered) == 0 {
		return 0
	}
	tier := agg.New(agg.Config{Window: time.Second})
	n, start := 0, time.Now()
	for time.Since(start) < replayFloor {
		for i := range f.delivered {
			tier.Ingest(f.delivered[i].TaskID, "", f.delivered[i].Reading)
		}
		n += len(f.delivered)
	}
	return float64(time.Since(start)) / float64(n)
}

// ---- in-process workloads ---------------------------------------------

func cityRounds(w workload, seconds float64) int {
	r := int(w.Sizes.RoundsPerSecond*seconds + 0.5)
	if r < 3 {
		r = 3
	}
	return r
}

func cityE2E(ev env, w workload, seed int64, seconds float64, res *runResult) error {
	in := genCity(seed, w.Sizes, w.Mobile)
	res.Digest = in.digest()
	rounds := cityRounds(w, seconds)
	var setups []float64
	var e *engine
	last := ev.setupRepeats(citySetups) - 1
	for i := 0; i <= last; i++ {
		if e != nil {
			// A probe's journal is deleted at once: dirty pages older than
			// the kernel's 30 s expiry get written back, and that write-back
			// slowed later runs by a fifth on the calibration machine.
			e.close()
			e = nil
			removeAll(journalPath(ev.scratch, i-1))
			runtime.GC()
		}
		var err error
		e, err = newEngine(in, w.Sizes, rounds, engineOpts{
			stateDir: journalPath(ev.scratch, i), withAgg: true, mobile: w.Mobile,
		})
		if err != nil {
			return err
		}
		setups = append(setups, e.setupDur.Seconds())
	}
	defer e.close()
	run := e.run(rounds)
	rec, err := recoverFrom([]string{journalPath(ev.scratch, last)}, in.Regions, nil)
	if err != nil {
		return err
	}
	res.Violations = e.verify(rec)
	cityAttempts(e, in, rounds, res)
	m := res.Metrics
	m["setup_s"] = median(setups)
	m["uploads_per_s"] = cleanMedian(run.blocks, nil, run.clean)
	m["cpu_us_per_upload"] = cleanMedian(run.cpuBlocks, nil, run.clean)
	m["upload_ack_p50_us"] = run.ackBlocks.medianOf(0.5, run.clean)
	m["sched_to_deliver_p50_us"] = run.dlvBlocks.medianOf(0.5, run.clean)
	res.timing("upload_ack_us", run.ackUs)
	res.timing("sched_to_deliver_us", run.deliverUs)
	m["server_mem_mb"] = float64(run.liveHeap) / 1e6
	m["recover_s"] = rec.total.Seconds()
	res.timing("setup_s", setups)
	if w.Mobile {
		res.timing("update_state_us", run.updateUs)
	}
	res.noteSteal(run.stolen, run.clean)
	return nil
}

// cityAttempts counts what the run attempted and what failed:
// registrations, state reports, and every requested sample (a request
// that was waitlisted or expired fails all its samples; an upload that
// missed a latency limit fails too).
func cityAttempts(e *engine, in inputs, rounds int, res *runResult) {
	requested := int64(len(in.Tasks)) * int64(rounds) * int64(in.Density)
	var ok, updates, updateFail, late int64
	var worstUs float64
	for i := range e.shards {
		st := &e.shards[i]
		ok += st.delivered - st.recvErr
		// The engine's timing slices hold only the measured periods, so the
		// limits are applied there; set-up's single period is counted as met.
		// There is no wire here for an ack to cross: a ReceiveData call is
		// held to the delivery limit it is part of. (The ack limit, applied
		// to a call that shares two processors with the report generator,
		// fails one upload in a few million on the Go scheduler's 10 ms
		// time slices alone.)
		for k, us := range st.ackUs {
			if us > float64(deliverLimit)/1e3 || st.deliverUs[k] > float64(deliverLimit)/1e3 {
				late++
			}
			if us > worstUs {
				worstUs = us
			}
		}
	}
	for _, lg := range e.workers {
		updates += lg.updates
		updateFail += lg.fail
	}
	res.Attempted = int64(len(in.Devices)) + updates + requested
	res.Failed = updateFail + (requested - ok) + late
	if res.Failed < 0 {
		res.Failed = 0 // more deliveries than requested: verify reports it
	}
	if res.Failed > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%d failed: %d state reports; of %d requested samples %d never delivered, %d slower than %v (slowest ReceiveData %.0f us)",
			res.Failed, updateFail, requested, requested-ok, late, deliverLimit, worstUs))
	}
}

func cityLayers(ev env, w workload, seed int64, seconds float64, res *runResult) error {
	in := genCity(seed, w.Sizes, w.Mobile)
	res.Digest = in.digest()
	rounds := cityRounds(w, seconds/2)

	// Reference: the same periods untraced, for the overhead ratio and
	// for the figures tracing would disturb.
	ref, err := newEngine(in, w.Sizes, rounds, engineOpts{
		stateDir: journalPath(ev.scratch, 0), withAgg: true, mobile: w.Mobile,
	})
	if err != nil {
		return err
	}
	refRun := ref.run(rounds)
	refViol := ref.verify(nil)
	ref.close()
	ref = nil
	removeAll(journalPath(ev.scratch, 0)) // before its dirty pages age into write-back
	runtime.GC()

	// The traced engine's main lane reads this thread's CPU clock.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tr := newCPUTracer()
	dir := journalPath(ev.scratch, 1)
	e, err := newEngine(in, w.Sizes, rounds, engineOpts{
		stateDir: dir, withAgg: true, mobile: w.Mobile, tr: tr,
	})
	if err != nil {
		return err
	}
	defer e.close()
	run := e.run(rounds)
	lane := tr.lane()
	pc, rec, err := replayPersist([]string{dir}, filepath.Join(ev.scratch, "replay"), in.Regions, lane)
	if err != nil {
		return err
	}
	res.Violations = append(refViol, e.verify(rec)...)
	cityAttempts(e, in, rounds, res)

	res.spans = tr.all()
	lt := selfTimes(measuredSpans(res.spans))
	uploads := float64(run.uploads)
	// cpuOf and waitOf: thread CPU, and wall minus CPU, per upload.
	cpuOf := func(names ...spanName) float64 {
		var ns int64
		for _, n := range names {
			ns += lt[n].CPU
		}
		return float64(ns) / 1e3 / uploads
	}
	waitOf := func(names ...spanName) float64 {
		var ns int64
		for _, n := range names {
			ns += lt[n].Self - lt[n].CPU
		}
		return float64(ns) / 1e3 / uploads
	}
	m := res.Metrics
	var cc coreCosts
	cc.fromSpans(e, lt)
	cc.cpuUs = cpuOf(spProcessDue, spReceiveData, spUpdateState)
	m["core.wait_us_per_upload"] = waitOf(spProcessDue, spReceiveData, spUpdateState)
	cc.registerUs = float64(e.regNs) / 1e3 / float64(len(in.Devices))
	cc.fill(m)
	m["core.receive_data_us_p99"] = quantile(sortedCopy(refRun.ackUs), supportedTail(len(refRun.ackUs), 0.99))
	m["core.allocs_per_upload"] = float64(refRun.mallocs) / float64(refRun.uploads)
	if w.Mobile {
		us := sortedCopy(refRun.updateUs)
		res.timing("update_state_us", refRun.updateUs)
		m["core.update_state_us_p50"] = quantile(us, 0.5)
		m["core.update_state_us_p99"] = quantile(us, supportedTail(len(us), 0.99))
		m["core.reports_per_s"] = median(refRun.reportBlocks)
		m["core.cell_move_ratio"] = float64(refRun.cellMoves) / float64(refRun.updates)
		m["core.rehome_ratio"] = float64(refRun.rehomes) / float64(refRun.updates)
	}

	if n := lt[spPersistAppend].Count; n > 0 {
		m["persist.append_us_per_record"] = float64(lt[spPersistAppend].CPU) / 1e3 / float64(n)
	}
	total := float64(run.uploads + int64(len(in.Tasks)*in.Density)) // set-up's period uploaded too
	m["persist.records_per_upload"] = float64(pc.records) / total
	m["persist.bytes_per_upload"] = float64(pc.bytes) / total
	m["persist.commit_ms"] = pc.commitMs
	m["persist.load_ms"] = pc.loadMs
	m["persist.recover_replay_us_per_record"] = pc.replayUsPerRec
	persistUs := cpuOf(spPersistAppend)
	m["persist.cpu_us_per_upload"] = persistUs

	if n := lt[spAggIngest].Count; n > 0 {
		m["agg.ingest_ns_per_upload"] = float64(lt[spAggIngest].CPU) / float64(n)
	}
	if n := lt[spAggAdvance].Count; n > 0 {
		m["agg.advance_us_per_tick"] = float64(lt[spAggAdvance].CPU) / 1e3 / float64(n)
	}
	st := e.tier.Stats()
	m["agg.windows_closed"] = float64(st.WindowsClosed)
	m["agg.late_dropped"] = float64(st.LateSamples)
	aggUs := cpuOf(spAggIngest, spAggAdvance)

	cpuUs := float64(run.cpu) / 1e3 / uploads
	m["obs.trace_overhead_ratio"] = cpuUs / (float64(refRun.cpu) / 1e3 / float64(refRun.uploads))
	res.Budget = budget(cpuUs, []budgetRow{
		{Layer: "core", Us: cc.cpuUs},
		{Layer: "persist", Us: persistUs},
		{Layer: "agg", Us: aggUs},
		{Layer: "harness (dispatch, sink, tick, report generator)", Us: cpuOf(spDispatch, spSink, spTick, spReportBatch)},
	}, "GC workers, runtime, clock reads (remainder)")
	m["budget.remainder_us_per_upload"] = res.Budget[len(res.Budget)-2].Us
	res.noteSteal(run.stolen, run.clean)
	return nil
}

// removeAll deletes a scratch directory, reporting but not failing on an
// error (the numbers are already taken).
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: leaving %s behind: %v\n", dir, err)
	}
}
