package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/obs"
	"senseaid/internal/phone"
	"senseaid/internal/radio"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
	"senseaid/internal/traffic"
)

// Variant selects between the paper's two Sense-Aid builds.
type Variant int

// Variants. Basic keeps the stock RRC behaviour: a crowdsensing upload in
// the tail resets the inactivity timer, extending the high-power window.
// Complete assumes carrier cooperation: the tail expires on its original
// schedule despite the upload.
const (
	Basic Variant = iota + 1
	Complete
)

// String names the variant as the paper does.
func (v Variant) String() string {
	if v == Complete {
		return "Sense-Aid Complete"
	}
	return "Sense-Aid Basic"
}

// SenseAid runs the full middleware: devices register with the in-network
// server, the server expands tasks and selects the minimum qualified set
// per round, and selected clients sample on schedule and upload in radio
// tail windows (falling back to a promotion just before the deadline).
type SenseAid struct {
	// Variant is Basic or Complete (zero value: Basic).
	Variant Variant
	// Server overrides the server configuration; zero value uses
	// DefaultServerConfig.
	Server core.ServerConfig
	// ControlPeriod caps how often a device's service thread reports
	// state to the server (piggybacked on tail windows). Zero: 2 min.
	ControlPeriod time.Duration
	// CountControl includes control-plane traffic in the crowdsensing
	// energy account. The paper excludes it; the ablation bench turns
	// it on.
	CountControl bool
	// Regions, when non-empty, runs the middleware sharded: one core
	// instance per geographic region (the paper's per-edge physical
	// instantiation). Devices are homed by position and re-homed as they
	// move; tasks route to the shard covering their area. Empty runs one
	// shard covering every point. Either way the run drives the same
	// core.ShardedServer a live daemon serves.
	Regions []core.Region
	// OnReading, if set, observes every validated reading as it reaches
	// the application-server sink (task, device, reading). Adaptive
	// campaigns hang their controllers here.
	OnReading func(core.TaskID, string, sensors.Reading)
	// OnServer, if set, receives the in-simulation server right after
	// task submission, so callers can drive task mutations mid-run
	// (update_task_param) from simulation events.
	OnServer func(*core.ShardedServer)
	// Metrics, when set, receives the run's series — both the core
	// scheduler's (via the embedded server) and senseaid_uploads_total,
	// under the same names a live deployment exposes. Nil keeps them on
	// a private registry.
	Metrics *obs.Registry
}

var _ Framework = SenseAid{}

// Name implements Framework.
func (s SenseAid) Name() string { return s.variant().String() }

func (s SenseAid) variant() Variant {
	if s.Variant == Complete {
		return Complete
	}
	return Basic
}

// controlReportBytes is the size of one service-thread state report
// (battery level, IMEI hash, budget).
const controlReportBytes = 150

// scheduleMsgBytes is the size of one server->device sensing schedule.
const scheduleMsgBytes = 200

// saPendingUpload is one sampled reading waiting for a tail window.
type saPendingUpload struct {
	req     core.Request
	reading sensors.Reading
	forced  *simclock.Event
	done    bool
}

// tailFlushDelay is how long after a tail window opens the client needs
// to notice it and serialise the upload (the paper's Figure 6 shows the
// crowdsensing packet ~1.5 s into the tail; tPacketCapture-based inference
// is not instant). It is also what separates Basic from Complete: by the
// time the upload goes out, Basic's tail reset extends the high-power
// window by this much.
const tailFlushDelay = 500 * time.Millisecond

// saClient is the Sense-Aid client middleware on one phone: it watches
// for tail windows, reports state, and uploads pending readings.
type saClient struct {
	ph           *phone.Phone
	world        *World
	server       *core.ShardedServer
	resetTail    bool
	pending      []*saPendingUpload
	lastControl  time.Time
	controlGap   time.Duration
	flushPlanned bool
	res          *RunResult
	met          uploadMeter
}

// onTraffic fires on every organic transfer: the radio has just entered
// (or refreshed) its tail, the cheapest moment to talk. The client infers
// the tail from observed packets and flushes shortly after.
func (c *saClient) onTraffic(traffic.Transfer) {
	now := c.ph.Radio().LastComm()
	if len(c.pending) > 0 && !c.flushPlanned {
		c.flushPlanned = true
		c.world.Sched.ScheduleAfter(tailFlushDelay, func(time.Time) {
			c.flushPlanned = false
			c.flushPending()
		})
	}
	if now.Sub(c.lastControl) >= c.controlGap {
		c.lastControl = now
		c.ph.Radio().Send(controlReportBytes, radio.CauseControl, c.resetTail)
		c.reportState()
	}
}

// reportState delivers the device's control report to the server.
func (c *saClient) reportState() {
	_ = c.server.UpdateDeviceState(
		c.ph.ID(), c.ph.Position(), c.ph.Battery().Percent(), c.ph.Radio().LastComm())
}

// handleDispatch is the server's schedule arriving at the device.
func (c *saClient) handleDispatch(req core.Request) {
	// The schedule message itself is control-plane traffic.
	c.ph.Radio().Receive(scheduleMsgBytes, radio.CauseControl, c.resetTail)

	due := req.Due
	sched := c.world.Sched
	if due.Before(sched.Now()) {
		due = sched.Now()
	}
	sched.ScheduleAt(due, func(now time.Time) {
		c.ph.Wakeup()
		// No GPS: the network already knows the coarse location.
		reading, err := c.ph.Sample(req.Task.Sensor, func(pt geo.Point, at time.Time) float64 {
			return c.world.Field.At(pt, at)
		})
		if err != nil {
			return
		}
		p := &saPendingUpload{req: req, reading: reading}
		c.pending = append(c.pending, p)

		// Fallback: promote just before the deadline if no tail window
		// showed up.
		forceAt := req.Deadline.Add(-time.Second)
		if forceAt.Before(now) {
			forceAt = now
		}
		p.forced = sched.ScheduleAt(forceAt, func(time.Time) {
			if p.done {
				return
			}
			c.flushPending()
		})

		// If the radio is already in its tail, ship immediately.
		if c.ph.Radio().InTail() {
			c.flushPending()
		}
	})
}

// flushPending uploads every pending reading in one batched transfer —
// the multi-task economy Experiment 3 measures.
func (c *saClient) flushPending() {
	var live []*saPendingUpload
	for _, p := range c.pending {
		if !p.done {
			live = append(live, p)
		}
	}
	c.pending = c.pending[:0]
	if len(live) == 0 {
		return
	}
	for _, p := range live {
		p.done = true
		p.forced.Cancel()
	}
	sr := c.ph.Radio().Send(len(live)*CrowdsensePayloadBytes, radio.CauseCrowdsensing, c.resetTail)
	now := c.world.Sched.Now()
	for _, p := range live {
		if sr.Promoted {
			c.met.forced(1)
		} else {
			c.met.piggybacked(1)
		}
		if err := c.server.ReceiveData(p.req.ID(), c.ph.ID(), p.reading, now); err == nil {
			c.res.Readings++
		}
	}
	// E_i feedback for the selector's energy-fairness term: one transfer,
	// one estimate.
	c.server.NoteDeviceEnergy(c.ph.ID(), uploadEnergyEstimateJ(c.ph, sr.Promoted))
	if len(live) > 1 {
		c.met.sharedBatch(len(live))
	}
}

// uploadEnergyEstimateJ is the client's coarse self-report of what an
// upload cost, used only for the selector's E_i fairness term.
func uploadEnergyEstimateJ(ph *phone.Phone, promoted bool) float64 {
	prof := ph.Radio().Profile()
	if promoted {
		return prof.PromotionEnergyJ() + prof.FullTailEnergyJ()
	}
	return prof.TxW * prof.TxDuration(CrowdsensePayloadBytes).Seconds()
}

// Run implements Framework.
func (s SenseAid) Run(w *World, tasks []core.Task) (*RunResult, error) {
	res := &RunResult{Framework: s.Name()}
	meter := newUploadMeter(s.Metrics, res)
	_, end, err := taskWindow(tasks)
	if err != nil {
		return nil, err
	}
	cfg := s.Server
	if cfg.Selector == (core.SelectorConfig{}) {
		def := core.DefaultServerConfig()
		def.SelectAll = cfg.SelectAll
		cfg = def
	}
	if cfg.Metrics == nil {
		// The scheduler's series land beside the upload series, exactly
		// as netserver arranges for a live deployment.
		cfg.Metrics = s.Metrics
	}
	controlGap := s.ControlPeriod
	if controlGap <= 0 {
		controlGap = 2 * time.Minute
	}
	resetTail := s.variant() == Basic

	clients := make(map[string]*saClient, len(w.Phones))
	// The server invokes the Dispatcher from one goroutine per shard, but
	// the sim world (scheduler, radios, phones) is single-threaded by
	// design. Dispatches therefore buffer under a lock and the pump
	// replays them on its own thread, shard by shard in region-name order,
	// each shard's in the order it made them — the run stays deterministic
	// however the shards interleave.
	type bufferedDispatch struct {
		req core.Request
		dev string
	}
	var (
		dispatchMu sync.Mutex
		dispatched []bufferedDispatch
	)
	dispatcher := core.DispatcherFunc(func(req core.Request, dev core.DeviceState) {
		dispatchMu.Lock()
		dispatched = append(dispatched, bufferedDispatch{req: req, dev: dev.ID})
		dispatchMu.Unlock()
	})
	replayDispatches := func() {
		dispatchMu.Lock()
		buf := dispatched
		dispatched = nil
		dispatchMu.Unlock()
		sort.SliceStable(buf, func(i, j int) bool {
			return buf[i].req.Task.ID.Region() < buf[j].req.Task.ID.Region()
		})
		for _, d := range buf {
			if c, ok := clients[d.dev]; ok {
				c.handleDispatch(d.req)
			}
		}
	}
	server, err := core.NewShardedServer(cfg, dispatcher, s.Regions)
	if err != nil {
		return nil, fmt.Errorf("sim: sense-aid: %w", err)
	}

	// Bootstrap: every cohort member signs up for the campaign.
	for _, ph := range w.Phones {
		ph := ph
		c := &saClient{
			ph:         ph,
			world:      w,
			server:     server,
			resetTail:  resetTail,
			controlGap: controlGap,
			res:        res,
			met:        meter,
		}
		clients[ph.ID()] = c
		var sensorList []sensors.Type
		for t := sensors.Accelerometer; t <= sensors.LightMeter; t++ {
			if ph.HasSensor(t) {
				sensorList = append(sensorList, t)
			}
		}
		err := server.RegisterDevice(core.DeviceState{
			ID:         ph.ID(),
			Position:   ph.Position(),
			BatteryPct: ph.Battery().Percent(),
			LastComm:   ph.Radio().LastComm(),
			Sensors:    sensorList,
			Budget:     ph.Budget(),
		})
		if err != nil {
			return nil, fmt.Errorf("sim: sense-aid register %s: %w", ph.ID(), err)
		}
		ph.OnTraffic(func(tr traffic.Transfer) { c.onTraffic(tr) })
	}

	w.StartTraffic(end)

	// Submit tasks; the sink forwards to the observation hook (readings
	// are counted at ReceiveData time by the client flush path).
	sink := func(tid core.TaskID, dev string, r sensors.Reading) {
		if s.OnReading != nil {
			s.OnReading(tid, dev, r)
		}
	}
	for i := range tasks {
		t := tasks[i]
		if _, err := server.SubmitTask(t, w.Sched.Now(), sink); err != nil {
			return nil, fmt.Errorf("sim: sense-aid submit: %w", err)
		}
		// Round bookkeeping: count qualified devices at each due time.
		stored := t
		reqs, err := (&stored).Expand()
		if err == nil {
			for _, req := range reqs {
				area, sensor := req.Task.Area, req.Task.Sensor
				w.Sched.ScheduleAt(req.Due, func(time.Time) {
					probe := core.Task{Area: area, Sensor: sensor}
					res.Rounds++
					res.AvgQualified += float64(len(w.QualifiedForTask(&probe)))
				})
			}
		}
	}

	// Pump: drive the server at every request due time, refreshing the
	// eNodeB-sourced device state (position, radio timestamps) first.
	// Waitlisted requests (due time already past) are retried on the
	// wait-check period, per Algorithm 1's wait_check_thread.
	const waitCheckPeriod = 30 * time.Second
	var pumpAt func(at time.Time)
	pumpAt = func(at time.Time) {
		if at.Before(w.Sched.Now()) {
			at = w.Sched.Now()
		}
		w.Sched.ScheduleAt(at, func(now time.Time) {
			for _, ph := range w.Phones {
				clients[ph.ID()].reportState()
			}
			server.ProcessDue(now)
			replayDispatches()
			next, ok := server.NextWake()
			if !ok {
				return
			}
			if !next.After(now) {
				// Only waitlisted (past-due) requests remain: retry on
				// the wait-check period instead of spinning.
				next = now.Add(waitCheckPeriod)
			}
			// Never sleep past a wait-check period: mid-run task
			// mutations (update_task_param) can move NextWake earlier
			// than the instant this pump was scheduled for.
			if latest := now.Add(waitCheckPeriod); next.After(latest) {
				next = latest
			}
			pumpAt(next)
		})
	}
	if s.OnServer != nil {
		s.OnServer(server)
	}
	if first, ok := server.NextWake(); ok {
		pumpAt(first)
	}

	w.Sched.Drain()
	finishAverages(res)

	// AvgSelected from the server's selection log: selections per round.
	sels := server.Selections()
	if len(sels) > 0 {
		total := 0
		for _, sel := range sels {
			total += len(sel.Devices)
		}
		res.AvgSelected = float64(total) / float64(len(sels))
	}
	res.Selections = sels

	if s.CountControl {
		w.Settle()
		res.PerDeviceJ = make(map[string]float64, len(w.Phones))
		for _, ph := range w.Phones {
			e := ph.CrowdsenseEnergyJ(true)
			res.PerDeviceJ[ph.ID()] = e
			res.TotalCrowdJ += e
			if e > 0 {
				res.Participating++
			}
		}
	} else {
		res.collect(w)
	}
	return res, nil
}
