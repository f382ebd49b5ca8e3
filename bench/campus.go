package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/client"
	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// The socket workloads. The servers are the real binaries, spawned as
// child processes on loopback; the fleet and the CAS are real
// connections made with internal/client and internal/cas.
//
// A device is a session in this protocol, so the 256 connections are
// workload input, not generator parallelism: their read loops sit in
// netpoll, and every upload and state report is issued by a pool of
// exactly nproc workers making synchronous RPCs. The server schedules
// on its own clock, so the load is open-loop at the rate the tasks fix.

// topology is one spawned server side.
type topology struct {
	router  *child
	servers []*child
	args    [][]string // each server's command line, for the restart
	admin   []string   // admin base URL per server
	rAdmin  string     // the router's admin base URL
	dial    string     // what devices and the CAS dial
	bin     string
}

func (t *topology) procs() []*child {
	if t.router != nil {
		return append(append([]*child(nil), t.servers...), t.router)
	}
	return t.servers
}

func (t *topology) health() error {
	for _, c := range t.procs() {
		if err := c.health(); err != nil {
			return err
		}
	}
	return nil
}

// stop kills every process. Nothing a run needs is written at a
// graceful shutdown, and a SIGKILLed server leaves its journal exactly
// as the run wrote it, which is what the replays read.
func (t *topology) stop() {
	for _, c := range t.procs() {
		c.kill()
	}
}

const startTimeout = 20 * time.Second

// spawn starts the servers for a workload and waits until they accept
// connections. Ports are ephemeral: the bound addresses are parsed from
// each process's "listening on" line.
func spawn(w workload, in inputs, bin, stateDir string, traced bool) (*topology, error) {
	t := &topology{bin: bin}
	sample := "0"
	if traced {
		sample = "1"
	}
	serverArgs := func(state string) []string {
		return []string{
			"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-codec", "binary", "-coalesce-interval", "2ms",
			"-tick", w.Sizes.Tick.String(),
			"-state-dir", state, "-snapshot-interval", "1h",
			"-agg-window", "1s", "-trace-sample", sample,
		}
	}
	fail := func(err error) (*topology, error) {
		t.stop()
		return nil, err
	}
	if !w.Routed {
		t.args = [][]string{serverArgs(filepath.Join(stateDir, "direct"))}
	} else {
		r, err := startChild("senseaid-router", filepath.Join(bin, "senseaid-router"),
			"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-coalesce-interval", "2ms")
		if err != nil {
			return nil, err
		}
		t.router = r
		addr, admin, err := ready(r, "router listening on")
		if err != nil {
			return fail(err)
		}
		t.dial, t.rAdmin = addr, admin
		for _, reg := range in.Regions {
			a := append(serverArgs(filepath.Join(stateDir, reg.Name)),
				"-regions", fmt.Sprintf("%s@%.6f,%.6f,%.0f", reg.Name, reg.Area.Center.Lat, reg.Area.Center.Lon, reg.Area.RadiusM),
				"-enroll", addr, "-node-id", reg.Name+"-1")
			t.args = append(t.args, a)
		}
	}
	if err := t.startServers(); err != nil {
		return fail(err)
	}
	return t, nil
}

// ready waits for a process's admin and listen lines and returns its
// listen address and admin base URL.
func ready(c *child, listenLine string) (addr, admin string, err error) {
	line, err := c.waitLine("admin endpoint on", startTimeout)
	if err != nil {
		return "", "", err
	}
	if admin, err = adminURL(line); err != nil {
		return "", "", err
	}
	if line, err = c.waitLine(listenLine, startTimeout); err != nil {
		return "", "", err
	}
	addr, err = listenAddr(line)
	return addr, admin, err
}

// startServers launches every senseaidd in t.args and waits until each
// is serving (and, routed, enrolled). It is also the restart path.
func (t *topology) startServers() error {
	t.admin = t.admin[:0]
	t.servers = t.servers[:0]
	for i, a := range t.args {
		c, err := startChild(fmt.Sprintf("senseaidd-%d", i), filepath.Join(t.bin, "senseaidd"), a...)
		if err != nil {
			return err
		}
		t.servers = append(t.servers, c)
	}
	for _, c := range t.servers {
		addr, admin, err := ready(c, "server listening on")
		if err != nil {
			return err
		}
		t.admin = append(t.admin, admin)
		if t.router == nil {
			t.dial = addr
		} else if _, err := c.waitLine("enrolled with router", startTimeout); err != nil {
			return err
		}
	}
	return nil
}

// scrapeAll scrapes every server (and the router, last).
func (t *topology) scrapeAll() ([]promText, error) {
	urls := t.admin
	if t.rAdmin != "" {
		urls = append(append([]string(nil), urls...), t.rAdmin)
	}
	out := make([]promText, len(urls))
	for i, base := range urls {
		p, err := scrape(base + "/metrics")
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// sumOver adds a family over the servers' scrapes (not the router's).
func (t *topology) sumOver(scrapes []promText, name string, match ...string) float64 {
	total := 0.0
	for i := range t.servers {
		total += scrapes[i].sum(name, match...)
	}
	return total
}

// acceptedReadings reads core.readings_accepted from every server's
// /statusz.
func (t *topology) acceptedReadings() (int64, error) {
	var total int64
	for i := range t.servers {
		resp, err := scrapeClient.Get(t.admin[i] + "/statusz")
		if err != nil {
			return 0, fmt.Errorf("statusz: %w", err)
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("statusz: %w", err)
		}
		var st struct {
			Status struct {
				Core struct {
					ReadingsAccepted int64 `json:"readings_accepted"`
				} `json:"core"`
			} `json:"status"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return 0, fmt.Errorf("statusz: %w", err)
		}
		total += st.Status.Core.ReadingsAccepted
	}
	return total, nil
}

// upRec is the harness's record of one schedule a device received and
// the upload that answered it. Times are ns since the pass's epoch.
type upRec struct {
	dev       int32
	failed    bool
	rx        int64 // schedule received
	send, ack int64 // upload RPC
	lateNs    int64 // rx minus Schedule.Due, wall clock
	reqID     string
	taskID    string
}

// dlvRec is the CAS side of the same upload, written only by the CAS
// connection's read loop.
type dlvRec struct {
	at   int64
	dups int32
	task string
	dev  string
}

type jobKind uint8

const (
	jobUpload jobKind = iota
	jobReport
)

type job struct {
	kind jobKind
	dev  int32
	idx  int32
	sch  wire.Schedule
	due  time.Time // report only: when the pacer meant it to start
	nth  int       // report only: the device's report number, which fixes where a hopper is
}

// workerLog is what one RPC worker observed; merged after the workers
// stop.
type workerLog struct {
	reportRTT  []float64 // us, devices that stay put
	hopRTT     []float64 // us, devices that re-home on this report
	reportLate []float64 // us
	reportFail int64
	reports    int64
	lane       *spanBuf
}

// campusOpts selects what one pass does.
type campusOpts struct {
	seconds  float64 // measured window; 0 stops at the first delivery (a set-up probe)
	traced   bool
	stateDir string
	tr       *tracer
}

// campusPass is what one pass measured.
type campusPass struct {
	setup      time.Duration
	registerUs []float64

	// The measured window.
	windows    int
	ackUs      *windowed
	deliverUs  *windowed
	lateUs     []float64
	uploads    int64         // acknowledged uploads whose schedule arrived in the window
	perWindow  []float64     // uploads per second
	cpuWindow  []float64     // server CPU us per upload
	clean      []bool        // windows the host stole no CPU time from
	stolen     float64       // share of the machine's CPU time stolen over the whole window
	serverCPU  time.Duration // all server-side processes, over the window
	routerCPU  time.Duration
	serverRSS  int64 // bytes at the end of the window
	routerRSS  int64
	genCPU     time.Duration
	wall       time.Duration
	reportRTT  []float64
	hopRTT     []float64
	reportLate []float64
	queueP99   float64

	// The whole pass.
	attempted, failed int64
	failures          string // what failed, when anything did
	violations        []string
	deliveries        int64
	idleRSSPerConn    float64    // bytes
	idleGoroutines    float64    // per connection
	before, after     []promText // per server, then the router
	nServers          int
	frames            capturedFrames
	recs              []upRec
	dlv               []dlvRec
	epoch             time.Time
	w0                int64

	// top is the server side, still running when the pass returns; the
	// caller must call close. stateDir is where its servers keep state.
	top      *topology
	stateDir string
}

// close kills whatever the pass left running.
func (p *campusPass) close() { p.top.stop() }

// stateDirs lists the servers' state directories, in region order, and
// the regions to recover them into: the enrolled regions, or for the
// single unsharded server one stand-in region holding its "core" store.
func (p *campusPass) stateDirs(in inputs) ([]string, []core.Region) {
	if len(in.Regions) == 0 {
		return []string{filepath.Join(p.stateDir, "direct")},
			[]core.Region{{Name: "core", Area: geo.Circle{Center: origin, RadiusM: 2 * campusSquareM}}}
	}
	var dirs []string
	for _, r := range in.Regions {
		dirs = append(dirs, filepath.Join(p.stateDir, r.Name))
	}
	return dirs, in.Regions
}

// capturedFrames holds a sample of the messages the traced run really
// exchanged, for the codec replay.
type capturedFrames struct {
	schedules []wire.Schedule
	uploads   []wire.SenseData
	delivered []wire.SensedData
	reports   []wire.StateReport
}

const captureCap = 2048

// jobQueueCap holds more than one full sampling period of schedules, so
// a stalled worker never blocks a connection's read loop (a blocked
// read loop would be the generator throttling the server).
const jobQueueCap = 8192

func runCampusPass(w workload, in inputs, bin string, o campusOpts) (*campusPass, error) {
	sz := w.Sizes
	nproc := runtime.GOMAXPROCS(0) // the generator's share of the machine
	out := &campusPass{epoch: time.Now(), stateDir: o.stateDir}
	since := func() int64 { return int64(time.Since(out.epoch)) }

	setupStart := time.Now()
	top, err := spawn(w, in, bin, o.stateDir, o.traced)
	if err != nil {
		return nil, err
	}
	out.top, out.nServers = top, len(top.servers)
	finished := false
	defer func() {
		if !finished {
			top.stop()
		}
	}()

	var idleBefore []procSample
	var goroutinesBefore float64
	if o.traced {
		for _, c := range top.servers {
			s, err := readProc(c.pid)
			if err != nil {
				return nil, err
			}
			idleBefore = append(idleBefore, s)
		}
		sc, err := top.scrapeAll()
		if err != nil {
			return nil, err
		}
		goroutinesBefore = top.sumOver(sc, "senseaid_go_goroutines")
	}

	// Fleet: dial and register from nproc workers.
	fleet := make([]*client.Client, len(in.Devices))
	closeFleet := func() {
		for _, c := range fleet {
			if c != nil {
				_ = c.Close()
			}
		}
	}
	defer closeFleet()
	regUs := make([]float64, len(in.Devices))
	var regFail atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < nproc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.Devices) {
					return
				}
				d := &in.Devices[i]
				t0 := time.Now()
				c, err := client.Dial(client.Config{
					Addr: top.dial, DeviceID: d.ID, Position: d.Home,
					BatteryPct: d.Battery, Sensors: d.Sensors, Codec: "binary",
				})
				if err == nil {
					if err = c.Register(); err != nil {
						_ = c.Close()
					}
				}
				if err != nil {
					regFail.Add(1)
					continue
				}
				regUs[i] = float64(time.Since(t0)) / 1e3
				fleet[i] = c
			}
		}()
	}
	wg.Wait()
	out.registerUs = regUs
	if n := regFail.Load(); n > 0 {
		return nil, fmt.Errorf("%d of %d registrations failed", n, len(in.Devices))
	}

	if o.traced {
		// Per-connection cost of an idle fleet, before any task exists.
		time.Sleep(200 * time.Millisecond)
		var rss int64
		for i, c := range top.servers {
			s, err := readProc(c.pid)
			if err != nil {
				return nil, err
			}
			rss += s.RSS - idleBefore[i].RSS
		}
		sc, err := top.scrapeAll()
		if err != nil {
			return nil, err
		}
		conns := float64(len(in.Devices))
		out.idleRSSPerConn = float64(rss) / conns
		out.idleGoroutines = (top.sumOver(sc, "senseaid_go_goroutines") - goroutinesBefore) / conns
	}

	// Records, sized for the whole pass with slack.
	perSecond := float64(sz.Tasks*sz.Density) / sz.Period.Seconds()
	capacity := int(perSecond*(o.seconds+sz.Warm.Seconds()+2)*1.2) + 1024
	recs := make([]upRec, capacity)
	dlv := make([]dlvRec, capacity)
	var nextIdx, overflow, dropped atomic.Int64
	var qhist [256]atomic.Int64
	// jobs is never closed: schedule handlers on 256 read loops send to it
	// until their connections die. Workers leave on quit instead.
	jobs := make(chan job, jobQueueCap)
	quit := make(chan struct{})

	var firstErr atomic.Value // the first refused upload, for the failure note
	var capMu sync.Mutex      // guards out.frames (traced only)
	for i := range fleet {
		i := i
		err := fleet[i].StartSensing(func(s wire.Schedule) {
			rx := since()
			idx := nextIdx.Add(1) - 1
			if idx >= int64(len(recs)) {
				overflow.Add(1)
				return
			}
			r := &recs[idx]
			r.dev, r.rx, r.reqID, r.taskID = int32(i), rx, s.RequestID, s.TaskID
			r.lateNs = int64(time.Since(s.Due))
			depth := len(jobs)
			if depth > 255 {
				depth = 255
			}
			qhist[depth].Add(1)
			select {
			case jobs <- job{kind: jobUpload, dev: int32(i), idx: int32(idx), sch: s}:
			default:
				r.failed = true
				dropped.Add(1)
			}
		})
		if err != nil {
			return nil, err
		}
	}

	// RPC workers.
	logs := make([]*workerLog, nproc)
	var workers sync.WaitGroup
	for k := range logs {
		lg := &workerLog{lane: o.tr.lane()}
		logs[k] = lg
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				var j job
				select {
				case <-quit:
					return
				case j = <-jobs:
				}
				d := &in.Devices[j.dev]
				switch j.kind {
				case jobUpload:
					sd := wire.SenseData{
						RequestID: j.sch.RequestID, Path: wire.PathTail,
						TraceID: j.sch.TraceID, SpanID: j.sch.SpanID,
						Reading: sensors.Reading{
							Sensor: j.sch.Sensor, Unit: j.sch.Sensor.Unit(),
							// The value carries the upload's index, so the CAS
							// side can match a delivery to its schedule.
							Value: float64(j.idx), At: time.Now(), Where: d.Home,
						},
					}
					r := &recs[j.idx]
					r.send = since()
					err := fleet[j.dev].SendSenseDataTraced(sd.RequestID, sd.Reading, sd.Path, sd.TraceID, sd.SpanID)
					r.ack = since()
					if err != nil {
						r.failed = true
						firstErr.CompareAndSwap(nil, fmt.Sprintf("%s from %s: %v", sd.RequestID, d.ID, err))
					}
					if o.traced && j.idx%8 == 0 {
						capMu.Lock()
						if len(out.frames.uploads) < captureCap {
							out.frames.uploads = append(out.frames.uploads, sd)
							out.frames.schedules = append(out.frames.schedules, j.sch)
						}
						capMu.Unlock()
					}
				case jobReport:
					start := time.Now()
					sr := wire.StateReport{Position: d.positionAt(j.nth), BatteryPct: d.Battery, LastComm: start}
					err := fleet[j.dev].ReportState(sr.Position, sr.BatteryPct, sr.LastComm)
					rtt := time.Since(start)
					lg.reports++
					if err != nil {
						lg.reportFail++
						continue
					}
					lg.reportLate = append(lg.reportLate, float64(start.Sub(j.due))/1e3)
					if d.Kind == devHopper {
						lg.hopRTT = append(lg.hopRTT, float64(rtt)/1e3)
					} else {
						lg.reportRTT = append(lg.reportRTT, float64(rtt)/1e3)
					}
					lg.lane.add(spReportRTT, 0, 0, start, start.Add(rtt))
					if o.traced {
						capMu.Lock()
						if len(out.frames.reports) < captureCap {
							out.frames.reports = append(out.frames.reports, sr)
						}
						capMu.Unlock()
					}
				}
			}
		}()
	}
	stopWorkers := func() { close(quit); workers.Wait() }

	// The CAS.
	app, err := cas.DialCodec(top.dial, "binary")
	if err != nil {
		stopWorkers()
		return nil, err
	}
	defer app.Close()
	var delivered, strays atomic.Int64
	firstDelivery := make(chan struct{})
	var firstOnce sync.Once
	err = app.ReceiveSensedData(func(sd wire.SensedData) {
		at := since()
		firstOnce.Do(func() { close(firstDelivery) })
		delivered.Add(1)
		idx := int(sd.Reading.Value)
		if idx < 0 || idx >= len(dlv) || float64(idx) != sd.Reading.Value {
			strays.Add(1)
			return
		}
		d := &dlv[idx]
		if d.at != 0 {
			d.dups++
			return
		}
		d.at, d.task, d.dev = at, sd.TaskID, sd.DeviceID
		if o.traced && idx%8 == 0 && len(out.frames.delivered) < captureCap {
			out.frames.delivered = append(out.frames.delivered, sd) // read loop only
		}
	})
	if err != nil {
		stopWorkers()
		return nil, err
	}

	// Tasks: starts staggered over one period, each running the same
	// whole number of periods, so every request (the last included) has a
	// full period until its deadline.
	base := time.Now().Add(150 * time.Millisecond)
	w0 := base.Add(sz.Warm)
	w1 := w0.Add(time.Duration(o.seconds * float64(time.Second)))
	periods := int64(math.Ceil(float64(w1.Sub(base)+100*time.Millisecond) / float64(sz.Period)))
	if o.seconds == 0 {
		periods = int64(2 * time.Second / sz.Period)
	}
	end := base.Add(time.Duration(periods) * sz.Period) // every request is due before this
	taskByID := make(map[string]int, len(in.Tasks))
	expected := periods * int64(len(in.Tasks)) * int64(sz.Density)
	for k, ts := range in.Tasks {
		start := base.Add(ts.Offset)
		id, err := app.Task(wire.TaskSpec{
			Sensor: sensors.Barometer, SamplingPeriod: sz.Period,
			Start: start, End: start.Add(time.Duration(periods) * sz.Period),
			Center: ts.Center, AreaRadiusM: ts.RadiusM, SpatialDensity: sz.Density,
		})
		if err != nil {
			stopWorkers()
			return nil, fmt.Errorf("submit task %d: %w", k, err)
		}
		taskByID[id] = k
	}

	select {
	case <-firstDelivery:
		out.setup = time.Since(setupStart)
	case <-time.After(10 * time.Second):
		stopWorkers()
		return nil, fmt.Errorf("no delivery within 10s of submitting the tasks")
	}
	if o.seconds == 0 {
		stopWorkers()
		if err := top.health(); err != nil {
			return nil, err
		}
		finished = true
		return out, nil
	}

	// State reports, paced evenly: device i reports at i/N of the period.
	stopPacer := make(chan struct{})
	var pacer sync.WaitGroup
	pacer.Add(1)
	go func() {
		defer pacer.Done()
		n := len(in.Devices)
		slot := sz.ReportPeriod / time.Duration(n)
		first := time.Now()
		for k := 0; ; k++ {
			due := first.Add(time.Duration(k) * slot)
			if d := time.Until(due); d > 0 {
				select {
				case <-stopPacer:
					return
				case <-time.After(d):
				}
			}
			select {
			case <-stopPacer:
				return
			case jobs <- job{kind: jobReport, dev: int32(k % n), due: due, nth: k/n + 1}:
			}
		}
	}()

	// Sample the processes, and the host's stolen time, at the edges of
	// the one-second windows the measured interval is cut into.
	type edge struct {
		at    time.Time
		procs []procSample
		gen   time.Duration
		steal time.Duration
	}
	sample := func() (edge, error) {
		e := edge{gen: selfCPU(), steal: readSteal()}
		for _, c := range top.procs() {
			s, err := readProc(c.pid)
			if err != nil {
				return e, err
			}
			e.procs = append(e.procs, s)
		}
		e.at = time.Now()
		return e, nil
	}
	time.Sleep(time.Until(w0) - 20*time.Millisecond)
	if out.before, err = top.scrapeAll(); err != nil {
		close(stopPacer)
		pacer.Wait()
		stopWorkers()
		return nil, err
	}
	out.windows = int(math.Ceil(o.seconds))
	edges := make([]edge, 0, out.windows+1)
	var edgeErr error
	for k := 0; k <= out.windows; k++ {
		time.Sleep(time.Until(w0.Add(w1.Sub(w0) * time.Duration(k) / time.Duration(out.windows))))
		e, err := sample()
		if err != nil {
			edgeErr = err
			break
		}
		edges = append(edges, e)
	}

	// Let the last requests run and drain: every expected schedule has
	// arrived and every upload has reached the CAS, or a second has passed
	// (whatever is still missing then counts as failed).
	time.Sleep(time.Until(end))
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		if n := nextIdx.Load(); n >= expected && delivered.Load() >= n {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stopPacer)
	pacer.Wait()
	stopWorkers()
	time.Sleep(50 * time.Millisecond) // last deliveries in flight
	if edgeErr != nil {
		return nil, edgeErr
	}
	if out.after, err = top.scrapeAll(); err != nil {
		return nil, err
	}
	if err := top.health(); err != nil {
		return nil, err
	}
	// Close waits for a connection's read loop, so once both have
	// returned every record a schedule or delivery handler wrote is
	// visible here, and none is written again.
	_ = app.Close()
	closeFleet()

	// Window accounting.
	first, last := edges[0], edges[out.windows]
	out.wall = last.at.Sub(first.at)
	out.w0 = int64(first.at.Sub(out.epoch))
	for i, c := range top.procs() {
		cpu := last.procs[i].CPU - first.procs[i].CPU
		out.serverCPU += cpu
		out.serverRSS += last.procs[i].RSS
		if c == top.router {
			out.routerCPU, out.routerRSS = cpu, last.procs[i].RSS
		}
	}
	out.genCPU = last.gen - first.gen
	out.stolen = stolenShare(last.steal-first.steal, out.wall, runtime.NumCPU())
	n := int(nextIdx.Load())
	if n > len(recs) {
		n = len(recs)
	}
	out.recs, out.dlv = recs[:n], dlv[:n]
	out.ackUs, out.deliverUs = newWindowed(out.windows), newWindowed(out.windows)
	out.perWindow = make([]float64, out.windows)
	out.cpuWindow = make([]float64, out.windows)
	out.clean = make([]bool, out.windows)
	starts := make([]int64, out.windows+1)
	for k := range edges {
		starts[k] = int64(edges[k].at.Sub(out.epoch))
	}
	var okSamples int64
	var why struct{ refused, ackLate, undelivered, deliverLate int64 }
	for i := range out.recs {
		r, d := &out.recs[i], &out.dlv[i]
		switch {
		case r.failed || r.ack == 0:
			why.refused++
		case r.ack-r.send > int64(ackLimit):
			why.ackLate++
		case d.at == 0:
			why.undelivered++
		case d.at-r.rx > int64(deliverLimit):
			why.deliverLate++
		default:
			okSamples++
		}
		if r.rx < starts[0] || r.rx >= starts[out.windows] {
			continue
		}
		out.lateUs = append(out.lateUs, float64(r.lateNs)/1e3)
		if r.failed || r.ack == 0 {
			continue
		}
		win := sort.Search(out.windows, func(k int) bool { return starts[k+1] > r.rx })
		out.uploads++
		out.perWindow[win]++
		out.ackUs.add(win, float64(r.ack-r.send)/1e3)
		if d.at > 0 {
			out.deliverUs.add(win, float64(d.at-r.rx)/1e3)
		}
	}
	for k := 0; k < out.windows; k++ {
		a, b := edges[k], edges[k+1]
		wall := b.at.Sub(a.at)
		var cpu time.Duration
		for i := range a.procs {
			cpu += b.procs[i].CPU - a.procs[i].CPU
		}
		if out.perWindow[k] > 0 {
			out.cpuWindow[k] = float64(cpu) / 1e3 / out.perWindow[k]
		}
		out.perWindow[k] /= wall.Seconds()
		out.clean[k] = stolenShare(b.steal-a.steal, wall, runtime.NumCPU()) <= stealLimit
	}
	var reports, reportFail int64
	for _, lg := range logs {
		out.reportRTT = append(out.reportRTT, lg.reportRTT...)
		out.hopRTT = append(out.hopRTT, lg.hopRTT...)
		out.reportLate = append(out.reportLate, lg.reportLate...)
		reports += lg.reports
		reportFail += lg.reportFail
	}
	var qTotal, qCum int64
	for i := range qhist {
		qTotal += qhist[i].Load()
	}
	for i := range qhist {
		qCum += qhist[i].Load()
		if float64(qCum) >= 0.99*float64(qTotal) {
			out.queueP99 = float64(i)
			break
		}
	}

	// Requests, registrations and reports all count as attempts.
	out.deliveries = delivered.Load()
	out.attempted = int64(len(in.Devices)) + reports + expected
	out.failed = reportFail + (expected - okSamples)
	if out.failed < 0 {
		out.failed = 0 // more schedules than computed: caught below as a violation
	}
	if out.failed > 0 {
		out.failures = fmt.Sprintf("%d failed: %d reports; of %d requested samples %d never scheduled, %d refused or dropped, %d acked after %v, %d never delivered, %d delivered after %v",
			out.failed, reportFail, expected, expected-int64(len(out.recs)), why.refused, why.ackLate, ackLimit, why.undelivered, why.deliverLate, deliverLimit)
		if e, ok := firstErr.Load().(string); ok {
			out.failures += "; first refusal: " + e
		}
	}
	out.violations = verifyCampus(in, out, taskByID, expected, overflow.Load()+dropped.Load(), strays.Load(), top)

	// Spans: one trace per request.
	if o.tr != nil {
		recordCampusSpans(o.tr, out)
	}

	finished = true
	return out, nil
}

// verifyCampus is the socket workloads' correctness gate.
func verifyCampus(in inputs, p *campusPass, taskByID map[string]int, expected, lost, strays int64, top *topology) []string {
	var v []string
	bad := func(format string, a ...any) {
		if len(v) < 10 {
			v = append(v, fmt.Sprintf(format, a...))
		}
	}
	if lost > 0 {
		bad("%d schedules overflowed the harness's own buffers", lost)
	}
	if strays > 0 {
		bad("%d deliveries carried a value no upload sent", strays)
	}
	type pair struct {
		req string
		dev int32
	}
	seen := make(map[pair]bool, len(p.recs))
	perReq := make(map[string]int)
	for i := range p.recs {
		r, d := &p.recs[i], &p.dlv[i]
		k := pair{r.reqID, r.dev}
		if seen[k] {
			bad("request %s scheduled twice on %s", r.reqID, in.Devices[r.dev].ID)
		}
		seen[k] = true
		perReq[r.reqID]++
		dev := &in.Devices[r.dev]
		ti, ok := taskByID[r.taskID]
		if !ok {
			bad("schedule for unknown task %s", r.taskID)
			continue
		}
		task := in.Tasks[ti]
		if !(geo.Circle{Center: task.Center, RadiusM: task.RadiusM}).Contains(dev.Home) {
			bad("%s selected for %s but is outside its area", dev.ID, r.taskID)
		}
		if !hasBarometer(dev.Sensors) {
			bad("%s selected for %s but has no barometer", dev.ID, r.taskID)
		}
		if d.dups > 0 {
			bad("upload %d (%s from %s) delivered %d times", i, r.reqID, dev.ID, d.dups+1)
		}
		if d.at > 0 && (d.task != r.taskID || d.dev != dev.ID) {
			bad("upload %d delivered as (%s, %s), sent as (%s, %s)", i, d.task, d.dev, r.taskID, dev.ID)
		}
	}
	for req, n := range perReq {
		if n != in.Density {
			bad("request %s reached %d devices, want %d", req, n, in.Density)
		}
	}
	if int64(len(p.recs)) > expected {
		bad("%d schedules received, at most %d expected", len(p.recs), expected)
	}
	accepted := int64(top.sumOver(p.after, "senseaid_uploads_total"))
	if accepted != p.deliveries {
		bad("servers accepted %d uploads (senseaid_uploads_total) but the CAS received %d", accepted, p.deliveries)
	}
	return v
}

func hasBarometer(s []sensors.Type) bool {
	for _, t := range s {
		if t == sensors.Barometer {
			return true
		}
	}
	return false
}

// recordCampusSpans turns the pass's records into the socket span tree:
// request > gen.schedule_rx > {gen.upload_rtt, gen.deliver} per device.
func recordCampusSpans(tr *tracer, p *campusPass) {
	lane := tr.lane()
	at := func(ns int64) time.Time { return p.epoch.Add(time.Duration(ns)) }
	type reqSpan struct {
		trace    uint32
		lo, hi   int64
		children []int
	}
	reqs := make(map[string]*reqSpan)
	var order []string
	for i := range p.recs {
		r, d := &p.recs[i], &p.dlv[i]
		if r.ack == 0 {
			continue
		}
		rs := reqs[r.reqID]
		if rs == nil {
			rs = &reqSpan{trace: uint32(len(reqs) + 1), lo: r.rx, hi: r.ack}
			reqs[r.reqID] = rs
			order = append(order, r.reqID)
		}
		rs.children = append(rs.children, i)
		if r.rx < rs.lo {
			rs.lo = r.rx
		}
		for _, e := range []int64{r.ack, d.at} {
			if e > rs.hi {
				rs.hi = e
			}
		}
	}
	for _, id := range order {
		rs := reqs[id]
		root := lane.add(spRequest, rs.trace, 0, at(rs.lo), at(rs.hi))
		for _, i := range rs.children {
			r, d := &p.recs[i], &p.dlv[i]
			hi := r.ack
			if d.at > hi {
				hi = d.at
			}
			rx := lane.add(spScheduleRx, rs.trace, root, at(r.rx), at(hi))
			lane.add(spUploadRTT, rs.trace, rx, at(r.send), at(r.ack))
			if d.at > 0 {
				lane.add(spDeliver, rs.trace, rx, at(r.ack), at(d.at))
			}
		}
	}
}

// killServers SIGKILLs every senseaidd (the router, if any, stays up),
// leaving each state directory exactly as the run wrote it.
func (p *campusPass) killServers() {
	for _, c := range p.top.servers {
		c.kill()
	}
}

// restart times the killed servers' command lines coming back on their
// state directories: process start, journal load and replay, the
// post-recovery snapshot with its fsync, listen (and, routed,
// enrolment). It then checks that no accepted reading was lost.
func (p *campusPass) restart() (time.Duration, error) {
	t0 := time.Now()
	if err := p.top.startServers(); err != nil {
		return 0, err
	}
	took := time.Since(t0)
	accepted, err := p.top.acceptedReadings()
	if err != nil {
		return 0, err
	}
	if accepted != p.deliveries {
		p.violations = append(p.violations,
			fmt.Sprintf("restarted servers report %d accepted readings, the CAS received %d", accepted, p.deliveries))
	}
	return took, p.top.health()
}
