package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"

	"senseaid/internal/agg"
	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/reputation"
	"senseaid/internal/sensors"
)

// aggWindow is the live-aggregation base window a campaign runs the
// tier at; chosen so a 30-minute soak closes a healthy number of
// windows per series.
const aggWindow = 2 * time.Minute

// aggCellM is the aggregation grid cell edge, pinned explicitly so the
// tier, the batch ground truth, and the admission replica in
// admitLikeTier all key series identically.
const aggCellM = 500.0

// Report is the outcome of one campaign: the measurements and every
// invariant violation (empty Violations = the run is clean). Failure
// messages always carry the scenario seed, so any red run reproduces
// with one integer.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Devices  int    `json:"devices"`
	Ticks    int    `json:"ticks"`

	// Selections counts device dispatches; Deliveries counts accepted
	// uploads reaching their campaign sinks.
	Selections int `json:"selections"`
	Deliveries int `json:"deliveries"`
	// Rejected counts uploads the server refused (byzantine payloads,
	// stale clocks) — a healthy chaos run has plenty.
	Rejected int `json:"rejected"`
	// DarkReports counts state reports dropped for lack of coverage.
	DarkReports int `json:"dark_reports"`
	// Recoveries counts crash-recover cycles survived.
	Recoveries int `json:"recoveries"`

	// SelectionsPerSec and DispatchP99 measure the steady-state loop in
	// wall-clock terms (virtual time drives the schedule; the wall
	// measures the implementation).
	SelectionsPerSec   float64       `json:"selections_per_sec"`
	DispatchP99        time.Duration `json:"dispatch_p99"`
	DispatchP99Seconds float64       `json:"dispatch_p99_seconds"`
	WallSeconds        float64       `json:"wall_seconds"`

	Violations []string `json:"violations,omitempty"`
}

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// memJournal is an in-memory per-shard journal sink: the stand-in for
// internal/persist's files, holding exactly what a crash leaves behind.
type memJournal struct {
	mu   sync.Mutex
	recs []core.JournalRecord
}

func (j *memJournal) Append(rec core.JournalRecord) {
	j.mu.Lock()
	j.recs = append(j.recs, rec)
	j.mu.Unlock()
}

func (j *memJournal) Records() []core.JournalRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]core.JournalRecord, len(j.recs))
	copy(out, j.recs)
	return out
}

// truncateThrough drops records already inside a snapshot (journal
// rotation after a snapshot commits).
func (j *memJournal) truncateThrough(seq uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	keep := j.recs[:0]
	for _, r := range j.recs {
		if r.Seq > seq {
			keep = append(keep, r)
		}
	}
	j.recs = keep
}

// dispKey identifies one dispatch: the duplicate-delivery invariant is
// that no (request, device) pair is ever dispatched twice.
type dispKey struct {
	reqID string
	devID string
}

// openDispatch is a schedule the fleet still owes an answer.
type openDispatch struct {
	key      dispKey
	sensor   sensors.Type
	due      time.Time
	deadline time.Time
	sentAt   time.Time // virtual tick the dispatch arrived
}

// campaign is the live state of one run.
type campaign struct {
	sc     Scenario
	city   *City
	report *Report
	rng    *rand.Rand

	regions  []core.Region
	journals map[string]*memJournal
	snaps    map[string]core.SnapshotState
	tracker  *reputation.Tracker
	ss       *core.ShardedServer

	// Dispatcher/sink/tap state, shared with the server's callbacks
	// (which run concurrently during the ProcessDue fan-out).
	mu         sync.Mutex
	counts     map[dispKey]int
	open       []openDispatch
	latencies  []time.Duration
	procStart  time.Time // wall start of the in-flight ProcessDue
	deliveries int

	tier       *agg.Tier
	samples    []agg.Sample
	streamed   map[string][]agg.Window
	subscribed map[string]bool

	// Per-device behavior bookkeeping (single-threaded loop state).
	byIndex     map[string]int
	answers     map[string]int // answered schedules, drives byz alternation
	byzCaught   map[string]int // observed wrong-sensor rejections
	stormTasks  []core.TaskID
	virtualWall time.Time
}

// Run executes one scenario and reports. The run is deterministic in
// everything but the wall-clock measurements.
func Run(sc Scenario) (*Report, error) {
	sc.fill()
	city, err := GenerateCity(sc.City)
	if err != nil {
		return nil, err
	}
	c := &campaign{
		sc:   sc,
		city: city,
		report: &Report{
			Scenario: sc.Name,
			Seed:     sc.Seed,
			Devices:  len(city.Fleet),
		},
		rng:        rand.New(rand.NewSource(sc.Seed)),
		regions:    city.Regions,
		journals:   make(map[string]*memJournal),
		snaps:      make(map[string]core.SnapshotState),
		counts:     make(map[dispKey]int),
		tier:       agg.New(agg.Config{Window: aggWindow, CellSizeM: aggCellM}),
		streamed:   make(map[string][]agg.Window),
		subscribed: make(map[string]bool),
		byIndex:    make(map[string]int, len(city.Fleet)),
		answers:    make(map[string]int),
		byzCaught:  make(map[string]int),
	}
	for i, d := range city.Fleet {
		c.byIndex[d.ID] = i
	}
	if err := c.setup(); err != nil {
		return nil, err
	}
	c.soak()
	c.drain()
	c.check()
	return c.report, nil
}

// serverConfig builds the config for one server incarnation. Each
// incarnation gets a fresh reputation tracker (recovery imports the
// snapshot's scores and replays journaled outcomes into it); the
// journal sinks persist across incarnations — they are the disk.
func (c *campaign) serverConfig() core.ServerConfig {
	c.tracker = reputation.NewTracker(reputation.Config{})
	cfg := core.DefaultServerConfig()
	// Flappers and commuters legitimately cross task-area edges between
	// sensing and upload; region re-validation would reject honest
	// movers and drown the byzantine signal this campaign watches for.
	cfg.ValidateRegion = false
	cfg.Selector.MinReliability = 0.5
	cfg.Reputation = c.tracker
	cfg.ShardJournal = func(region string) core.JournalSink {
		j, ok := c.journals[region]
		if !ok {
			j = &memJournal{}
			c.journals[region] = j
		}
		return j
	}
	cfg.AggTap = func(task core.TaskID, region, _ string, r sensors.Reading) {
		c.mu.Lock()
		id := string(task)
		if !c.subscribed[id] {
			c.subscribed[id] = true
			c.tier.Subscribe(agg.Filter{Task: id}, func(p agg.Push) {
				c.streamed[id] = append(c.streamed[id], p.Windows...)
			})
		}
		c.tier.Ingest(id, region, r)
		c.samples = append(c.samples, agg.Sample{Task: id, Region: region, Reading: r})
		c.mu.Unlock()
	}
	return cfg
}

func (c *campaign) dispatcher() core.Dispatcher {
	return core.DispatcherFunc(func(req core.Request, dev core.DeviceState) {
		c.mu.Lock()
		k := dispKey{reqID: req.ID(), devID: dev.ID}
		c.counts[k]++
		c.open = append(c.open, openDispatch{
			key:      k,
			sensor:   req.Task.Sensor,
			due:      req.Due,
			deadline: req.Deadline,
			sentAt:   c.virtualWall,
		})
		c.latencies = append(c.latencies, time.Since(c.procStart))
		c.report.Selections++
		c.mu.Unlock()
	})
}

func (c *campaign) sink(task core.TaskID, deviceID string, reading sensors.Reading) {
	c.mu.Lock()
	c.deliveries++
	c.mu.Unlock()
}

func (c *campaign) setup() error {
	ss, err := core.NewShardedServer(c.serverConfig(), c.dispatcher(), c.regions)
	if err != nil {
		return err
	}
	c.ss = ss
	start := c.sc.City.Start
	c.virtualWall = start
	for _, d := range c.city.Fleet {
		if err := ss.RegisterDevice(c.city.DeviceState(d, start)); err != nil {
			return fmt.Errorf("register %s: %w", d.ID, err)
		}
	}
	// Steady-state sensing load: TasksPerRegion tasks per shard, areas
	// centered on each region's population, running the whole soak plus
	// the drain.
	end := start.Add(c.sc.Duration + 10*c.sc.Tick)
	for i, r := range c.regions {
		for t := 0; t < c.sc.TasksPerRegion; t++ {
			task := core.Task{
				Sensor:         sensors.Barometer,
				SamplingPeriod: 2 * c.sc.Tick,
				Start:          start.Add(time.Duration(t) * c.sc.Tick / 2),
				End:            end,
				Area:           geo.Circle{Center: r.Area.Center, RadiusM: r.Area.RadiusM},
				SpatialDensity: c.sc.Density,
			}
			if _, err := ss.SubmitTask(task, start, c.sink); err != nil {
				return fmt.Errorf("submit task %d/%s: %w", t, c.regions[i].Name, err)
			}
		}
	}
	// Baseline snapshot: every later crash recovers from here (or from
	// a newer EvSnapshot) plus the journal tail.
	c.snapshot()
	return nil
}

// snapshot captures per-shard snapshots and rotates the journals.
func (c *campaign) snapshot() {
	for i, r := range c.regions {
		sh, _, err := c.ss.Shard(i)
		if err != nil {
			c.report.violate("snapshot: shard %d: %v (seed %d)", i, err, c.sc.Seed)
			return
		}
		snap := sh.Snapshot()
		c.snaps[r.Name] = snap
		c.journals[r.Name].truncateThrough(snap.JournalSeq)
	}
}

// crashAndRecover models SIGKILL of every primary: the live incarnation
// is dropped on the floor and a fresh ShardedServer is rebuilt from the
// last snapshots plus whatever the journals captured, exactly the way
// the standby promotion path does it.
func (c *campaign) crashAndRecover() {
	old := c.ss
	_ = old // abandoned: no flush, no goodbye — that is the point
	ss, err := core.NewShardedServer(c.serverConfig(), c.dispatcher(), c.regions)
	if err != nil {
		c.report.violate("recovery: rebuild: %v (seed %d)", err, c.sc.Seed)
		return
	}
	sinkFor := func(core.TaskID) core.DataSink { return c.sink }
	for i, r := range c.regions {
		sh, _, err := ss.Shard(i)
		if err != nil {
			c.report.violate("recovery: shard %d: %v (seed %d)", i, err, c.sc.Seed)
			return
		}
		snap := c.snaps[r.Name]
		if _, err := sh.Recover(&snap, c.journals[r.Name].Records(), sinkFor); err != nil {
			c.report.violate("recovery: shard %s: %v (seed %d)", r.Name, err, c.sc.Seed)
			return
		}
	}
	c.ss = ss
	c.report.Recoveries++
}

// fireEvent applies one scheduled fault.
func (c *campaign) fireEvent(ev Event, now time.Time) {
	switch ev.Kind {
	case EvTowerOutage:
		towers := c.city.Net.Towers()
		for n := 0; n < ev.Count && n < len(towers); n++ {
			c.city.Net.SetTowerDown(towers[c.rng.Intn(len(towers))].ID, true)
		}
	case EvTowerRestore:
		for _, t := range c.city.Net.Towers() {
			c.city.Net.SetTowerDown(t.ID, false)
			c.city.Net.SetTowerLoss(t.ID, 0)
		}
	case EvTowerDegrade:
		towers := c.city.Net.Towers()
		for n := 0; n < ev.Count && n < len(towers); n++ {
			c.city.Net.SetTowerLoss(towers[c.rng.Intn(len(towers))].ID, ev.Loss)
		}
	case EvCrashPrimaries:
		c.crashAndRecover()
	case EvSnapshot:
		c.snapshot()
	case EvCASStorm:
		c.casStorm(ev.Count, now)
	}
}

// casStorm models a CAS reconnecting after a partition: it re-submits
// (idempotently) and submits new short-lived tasks in one burst, and
// deletes half of its previous burst.
func (c *campaign) casStorm(count int, now time.Time) {
	for i := 0; i < len(c.stormTasks)/2; i++ {
		if err := c.ss.DeleteTask(c.stormTasks[i]); err != nil {
			c.report.violate("cas storm: delete %s: %v (seed %d)", c.stormTasks[i], err, c.sc.Seed)
		}
	}
	c.stormTasks = c.stormTasks[len(c.stormTasks)/2:]
	region := c.regions[c.rng.Intn(len(c.regions))]
	for i := 0; i < count; i++ {
		task := core.Task{
			ClientID:       fmt.Sprintf("storm-%s-%d", now.Format("150405"), i),
			Sensor:         sensors.Barometer,
			SamplingPeriod: 2 * c.sc.Tick,
			Start:          now,
			End:            now.Add(8 * c.sc.Tick),
			Area:           geo.Circle{Center: region.Area.Center, RadiusM: region.Area.RadiusM / 2},
			SpatialDensity: c.sc.Density,
		}
		id, err := c.ss.SubmitTask(task, now, c.sink)
		if err != nil {
			c.report.violate("cas storm: submit: %v (seed %d)", err, c.sc.Seed)
			continue
		}
		// The reclaim: a reconnecting CAS retries the same ClientID and
		// must get the same task back, never a twin.
		again, err := c.ss.SubmitTask(task, now, c.sink)
		if err != nil || again != id {
			c.report.violate("cas storm: resubmit %s returned (%v, %v), want %s (seed %d)",
				task.ClientID, again, err, id, c.sc.Seed)
		}
		c.stormTasks = append(c.stormTasks, id)
	}
}

// soak is the measured steady-state loop: virtual time advances tick by
// tick; each tick fires due events, reports a rotating slice of the
// fleet, schedules, and answers outstanding dispatches.
func (c *campaign) soak() {
	sc := c.sc
	ticks := int(sc.Duration / sc.Tick)
	c.report.Ticks = ticks
	events := append([]Event(nil), sc.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	nextEv := 0

	start := sc.City.Start
	wallStart := time.Now()
	for step := 0; step < ticks; step++ {
		now := start.Add(time.Duration(step) * sc.Tick)
		c.virtualWall = now
		elapsed := now.Sub(start)
		for nextEv < len(events) && events[nextEv].At <= elapsed {
			c.fireEvent(events[nextEv], now)
			nextEv++
		}
		c.reportStates(step, now)
		c.processDue(now)
		c.answerDispatches(now)
		c.tier.Advance(now.Add(-2 * aggWindow))
	}
	wall := time.Since(wallStart)
	c.report.WallSeconds = wall.Seconds()
	if wall > 0 {
		c.report.SelectionsPerSec = float64(c.report.Selections) / wall.Seconds()
	}
	c.mu.Lock()
	lats := append([]time.Duration(nil), c.latencies...)
	c.mu.Unlock()
	c.report.DispatchP99 = p99Duration(lats)
	c.report.DispatchP99Seconds = c.report.DispatchP99.Seconds()
}

// reportStates sends this tick's slice of the fleet through the state
// path: positions from the mobility models, coverage and loss from the
// (possibly degraded) RAN, and deliberate garbage from the liars.
func (c *campaign) reportStates(step int, now time.Time) {
	sc := c.sc
	for i, d := range c.city.Fleet {
		if i%sc.ReportEvery != step%sc.ReportEvery {
			continue
		}
		pos := d.Model.PositionAt(now)
		loss, covered := c.city.Covered(pos)
		if !covered {
			c.report.DarkReports++
			continue
		}
		if loss > 0 && c.rng.Float64() < loss {
			c.report.DarkReports++
			continue
		}
		battery := 88 - float64(step%20)
		if d.Behavior == Byzantine && step%(3*sc.ReportEvery) == i%sc.ReportEvery {
			// The battery lie. The validation boundary must hold: the
			// update has to be rejected wholesale, never clamped in.
			bad := []float64{math.NaN(), 150, -20, math.Inf(1)}[c.rng.Intn(4)]
			if err := c.ss.UpdateDeviceState(d.ID, pos, bad, now); err == nil {
				c.report.violate("battery lie %v from %s accepted (seed %d)", bad, d.ID, sc.Seed)
			}
			continue
		}
		if err := c.ss.UpdateDeviceState(d.ID, pos, battery, now); err != nil {
			c.report.violate("honest report from %s rejected: %v (seed %d)", d.ID, err, sc.Seed)
		}
	}
}

// processDue runs the scheduling fan-out, timing each dispatch from the
// fan-out's start (the latency a device experiences between its shard
// waking and its schedule being pushed).
func (c *campaign) processDue(now time.Time) {
	c.mu.Lock()
	c.procStart = time.Now()
	c.mu.Unlock()
	c.ss.ProcessDue(now)
}

// answerDispatches plays the fleet's side of every outstanding
// schedule: honest devices upload plausible readings, byzantine ones
// alternate good rounds with garbage, clock-skewed ones stamp their
// skewed clocks, and devices in a coverage hole stay silent until the
// deadline expires them.
func (c *campaign) answerDispatches(now time.Time) {
	c.mu.Lock()
	open := c.open
	c.open = nil
	c.mu.Unlock()
	// The dispatcher appends from concurrent per-shard fan-out
	// goroutines, so the arrival order of `open` is scheduling noise.
	// Answering consumes the campaign RNG per dispatch; sorting first
	// keeps the draw order — and so the whole virtual outcome — a pure
	// function of the seed.
	sort.Slice(open, func(i, j int) bool {
		if open[i].key.reqID != open[j].key.reqID {
			return open[i].key.reqID < open[j].key.reqID
		}
		return open[i].key.devID < open[j].key.devID
	})

	var retry []openDispatch
	for _, od := range open {
		if od.sentAt.Equal(now) {
			// Arrived this tick; the device answers next tick.
			retry = append(retry, od)
			continue
		}
		if now.After(od.deadline) {
			continue // the server has already expired it
		}
		idx, ok := c.byIndex[od.key.devID]
		if !ok {
			c.report.violate("dispatch to unknown device %s (seed %d)", od.key.devID, c.sc.Seed)
			continue
		}
		d := c.city.Fleet[idx]
		pos := d.Model.PositionAt(now)
		if loss, covered := c.city.Covered(pos); !covered || (loss > 0 && c.rng.Float64() < loss) {
			retry = append(retry, od) // dark; try again while the deadline lasts
			continue
		}
		c.answers[d.ID]++
		reading := sensors.Reading{
			Sensor: od.sensor,
			Value:  1013 + c.rng.NormFloat64(),
			Unit:   "hPa",
			At:     now,
			Where:  pos,
		}
		wantReject := false
		switch d.Behavior {
		case Byzantine:
			// Every upload is garbage: the wrong sensor entirely. (The
			// alternating good/garbage inflation attack is pinned down
			// by the reputation and core unit suites; here the liars
			// lie flat out so the bleed-out invariant below is exact.)
			reading.Sensor = sensors.Gyroscope
			reading.Value = c.rng.Float64() * 1e6
			wantReject = true
		case ClockSkewed:
			reading.At = now.Add(d.Skew)
			wantReject = reading.At.Before(od.due.Add(-time.Minute))
		}
		err := c.ss.ReceiveData(od.key.reqID, od.key.devID, reading, now)
		switch {
		case wantReject && err == nil:
			c.report.violate("garbage from %s (%s) accepted on %s (seed %d)",
				d.ID, d.Behavior, od.key.reqID, c.sc.Seed)
		case wantReject:
			c.report.Rejected++
			if d.Behavior == Byzantine {
				c.byzCaught[d.ID]++
			}
		case err != nil:
			// Late answers to expired or crash-dropped requests are the
			// fleet's problem, not an invariant's: the server refusing
			// them is correct behavior.
			c.report.Rejected++
		}
	}
	c.mu.Lock()
	c.open = append(c.open, retry...)
	c.mu.Unlock()
}

// drain stops injecting faults, restores the RAN, and advances virtual
// time until every outstanding dispatch has been answered or expired —
// the quiesce point the invariants are defined at.
func (c *campaign) drain() {
	c.fireEvent(Event{Kind: EvTowerRestore}, c.virtualWall)
	now := c.virtualWall
	for i := 0; i < 40; i++ {
		now = now.Add(c.sc.Tick)
		c.virtualWall = now
		c.reportStates(i, now)
		c.processDue(now)
		c.answerDispatches(now)
		c.tier.Advance(now.Add(-2 * aggWindow))
		if c.ss.PendingDispatches() == 0 {
			break
		}
	}
	// Flush the tier past the newest possible sample BEFORE the clock
	// jump below: Advance skips (and the retention ring drops) windows
	// older than Retention, so the flush must stay within one retention
	// span of the last advance. The jump itself adds no samples — it only
	// expires tasks — so nothing needs emitting after it.
	c.tier.Advance(now.Add(2 * aggWindow))
	// Let every remaining task expire, then run one final fan-out so
	// the queues empty.
	now = now.Add(c.sc.Duration)
	c.processDue(now)
	c.virtualWall = now
}

// check runs the shared invariant suite. Every violation message
// carries the scenario seed.
func (c *campaign) check() {
	seed := c.sc.Seed
	rep := c.report

	// 1. No (request, device) pair was ever dispatched twice.
	c.mu.Lock()
	for k, n := range c.counts {
		if n > 1 {
			rep.violate("request %s dispatched %d times to %s (seed %d)", k.reqID, n, k.devID, seed)
		}
	}
	deliveries := c.deliveries
	samples := append([]agg.Sample(nil), c.samples...)
	c.mu.Unlock()
	rep.Deliveries = deliveries

	// 2. No lost accepted uploads: every upload the server accepted
	// reached its sink exactly once, across every crash and recovery.
	accepted := c.ss.Stats().ReadingsAccepted
	if deliveries != accepted {
		rep.violate("accepted %d uploads but delivered %d to sinks (seed %d)", accepted, deliveries, seed)
	}

	// 3. Quiesced: nothing pending after the drain.
	if n := c.ss.PendingDispatches(); n != 0 {
		rep.violate("%d dispatches still pending after drain (seed %d)", n, seed)
	}

	// 4. Homing and task routing: exactly one home per device, index
	// and stores agreeing, across every re-home and recovery.
	for _, v := range c.ss.CheckHomingInvariants() {
		rep.violate("%s (seed %d)", v, seed)
	}
	for _, v := range c.ss.CheckTaskRoutingInvariants() {
		rep.violate("%s (seed %d)", v, seed)
	}
	if got := c.ss.DeviceCount(); got != len(c.city.Fleet) {
		rep.violate("device count %d, want %d (seed %d)", got, len(c.city.Fleet), seed)
	}

	// 5. Streaming aggregation matches the post-hoc batch ground truth.
	// The tier drops a sample whose window precedes its series' open
	// window (closed windows are immutable), which a clock-skewed but
	// accepted reading can trigger when a same-cell peer already opened
	// the next window. That drop is by design, so the invariant is
	// two-sided: the tier's late count must equal the count this replay
	// of its admission rule predicts, and the streamed windows must
	// exactly match the batch over the admitted samples.
	admitted, lateWant := admitLikeTier(samples)
	if late := c.tier.Stats().LateSamples; late != uint64(lateWant) {
		rep.violate("tier counted %d late samples, admission replay predicts %d (seed %d)", late, lateWant, seed)
	}
	batch := make(map[string][]agg.Window)
	for _, bw := range agg.Batch(admitted, agg.Config{Window: aggWindow, CellSizeM: aggCellM}) {
		batch[bw.Key.Task] = append(batch[bw.Key.Task], bw)
	}
	for id, want := range batch {
		got := append([]agg.Window(nil), c.streamed[id]...)
		agg.SortWindows(got)
		if !reflect.DeepEqual(got, want) {
			rep.violate("task %s: streamed windows diverge from batch ground truth (%d vs %d windows, seed %d)",
				id, len(got), len(want), seed)
		}
	}
	for id, ws := range c.streamed {
		if len(ws) > 0 && len(batch[id]) == 0 {
			rep.violate("task %s streamed %d windows absent from batch (seed %d)", id, len(ws), seed)
		}
	}

	// 6. Byzantine bleed-out: a liar the server caught lying keeps no
	// useful reputation. One full garbage cycle (a rejection plus the
	// expiry of its abandoned round) must already sink it past the
	// selection cutoff.
	for id, caught := range c.byzCaught {
		if caught >= 1 {
			if score := c.tracker.Score(id); score >= 0.5 {
				rep.violate("byzantine %s caught %d times still scores %.3f (seed %d)", id, caught, score, seed)
			}
		}
	}

	// 7. The journals replay cleanly: a cold standby built from the
	// current snapshots plus the shipped journals reproduces the live
	// deployment's state.
	c.verifyReplay()
}

// verifyReplay cold-starts a standby from (snapshots, journals) and
// compares it against the live incarnation.
func (c *campaign) verifyReplay() {
	seed := c.sc.Seed
	rep := c.report
	cfg := c.serverConfig()
	// The standby must not append to the journals it is replaying.
	cfg.ShardJournal = nil
	standby, err := core.NewShardedServer(cfg, core.DispatcherFunc(func(core.Request, core.DeviceState) {}), c.regions)
	if err != nil {
		rep.violate("replay: rebuild: %v (seed %d)", err, seed)
		return
	}
	sinkFor := func(core.TaskID) core.DataSink { return func(core.TaskID, string, sensors.Reading) {} }
	for i, r := range c.regions {
		sh, _, err := standby.Shard(i)
		if err != nil {
			rep.violate("replay: shard %d: %v (seed %d)", i, err, seed)
			return
		}
		snap := c.snaps[r.Name]
		if _, err := sh.Recover(&snap, c.journals[r.Name].Records(), sinkFor); err != nil {
			rep.violate("replay: shard %s: %v (seed %d)", r.Name, err, seed)
			return
		}
	}
	if got, want := standby.DeviceCount(), c.ss.DeviceCount(); got != want {
		rep.violate("replay: standby has %d devices, live has %d (seed %d)", got, want, seed)
	}
	if got, want := standby.TaskCount(), c.ss.TaskCount(); got != want {
		rep.violate("replay: standby has %d tasks, live has %d (seed %d)", got, want, seed)
	}
	if got, want := standby.Stats().ReadingsAccepted, c.ss.Stats().ReadingsAccepted; got != want {
		rep.violate("replay: standby accepted %d readings, live %d (seed %d)", got, want, seed)
	}
	for _, v := range standby.CheckHomingInvariants() {
		rep.violate("replay: %s (seed %d)", v, seed)
	}
	for _, v := range standby.CheckTaskRoutingInvariants() {
		rep.violate("replay: %s (seed %d)", v, seed)
	}
}

// admitLikeTier replays the agg tier's admission rule over the sample
// stream (which the tap recorded in exact ingest order): a sample whose
// window index regresses below the max its series has seen is dropped
// as late; everything else is admitted. The replica only needs the
// regression rule — the tier's other late path (window at or below the
// last emit horizon) cannot fire here because the campaign advances the
// tier with a 2-window lag and accepted skews are under one window.
func admitLikeTier(samples []agg.Sample) (admitted []agg.Sample, late int) {
	type skey struct {
		task, region string
		cell         geo.Cell
	}
	grid := geo.Grid{SizeM: aggCellM}
	maxWin := make(map[skey]int64)
	admitted = make([]agg.Sample, 0, len(samples))
	for _, s := range samples {
		w := s.Reading.At.UnixNano() / int64(aggWindow)
		k := skey{task: s.Task, region: s.Region, cell: grid.CellOf(s.Reading.Where)}
		if prev, seen := maxWin[k]; seen && w < prev {
			late++
			continue
		}
		maxWin[k] = w
		admitted = append(admitted, s)
	}
	return admitted, late
}

func p99Duration(lats []time.Duration) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(math.Ceil(0.99*float64(len(lats)))) - 1
	if idx < 0 {
		idx = 0
	}
	return lats[idx]
}
