package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"senseaid/internal/agg"
	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/persist"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
)

// The in-process workloads: core.NewShardedServer + one persist.Store
// per region + agg.Tier, composed through the ServerConfig seams
// (ShardJournal, AggTap), the Dispatcher and the task sink. No sockets;
// a virtual clock stepped one sampling period at a time; the dispatcher
// answers every schedule with ReceiveData on the spot. Closed loop,
// fixed work: the number of periods is set by the requested seconds and
// the workload's RoundsPerSecond, not by how fast they run.
//
// The same engine, without journal or tier and over the campus fleet,
// gives the core's CPU share for the socket workloads' budget.

// virtualEpoch is where every in-process run's clock starts, so journal
// contents do not depend on when the run happens.
var virtualEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// Aggregation tier shape for the in-process runs: windows of five
// periods over 1 km cells keep the series count (and its memory) in
// proportion to the task count.
const (
	aggWindowPeriods = 5
	aggCellM         = 1000
	aggRetention     = 3
	// aggCheckEvery: streamed windows are compared with agg.Batch for
	// every this-many-th task, which bounds the samples the harness
	// must keep.
	aggCheckEvery = 16
)

// snapshotPayload is what the harness commits to a store: the same
// shape netserver writes, reduced to the field Recover needs.
type snapshotPayload struct {
	Core core.SnapshotState `json:"core"`
}

type engineOpts struct {
	stateDir string // "" runs without a journal
	withAgg  bool
	mobile   bool
	tr       *tracer
}

// shardState is everything the callbacks of one shard touch. Dispatch,
// ReceiveData, the journal sink, the tap and the task sink all run on
// the goroutine driving that shard's ProcessDue, so none of it is
// shared.
type shardState struct {
	lane *spanBuf
	cur  uint32 // span the shard's goroutine is inside, parent of the next child
	tick uint32 // trace number of the current tick

	dispatched, delivered int64
	recvErr               int64
	ackUs, deliverUs      []float64

	// Per-request bookkeeping for the selection checks.
	lastReq  string
	lastSeq  map[core.TaskID]int
	group    []string
	requests int64
	viol     []string

	samples []agg.Sample
}

func (s *shardState) bad(format string, a ...any) {
	if len(s.viol) < 5 {
		s.viol = append(s.viol, fmt.Sprintf(format, a...))
	}
}

type engine struct {
	in   inputs
	sz   sizes
	opts engineOpts

	ss        *core.ShardedServer
	stores    []*persist.Store
	tier      *agg.Tier
	aggCfg    agg.Config
	streamed  []agg.Window
	shards    []shardState
	regionIdx map[string]int
	taskShard map[core.TaskID]int
	checked   map[core.TaskID]bool // tasks whose agg windows are verified
	journalEr atomic.Int64

	main      *spanBuf
	now       time.Time
	round     int
	dispatchT []int64 // per shard: start of the dispatch in flight, ns

	// Mobile.
	phases   [][]int32 // device indexes reporting in each phase; last is "every second"
	lastPos  []geo.Point
	grid     geo.Grid
	workers  []*updateLog
	regNs    int64
	setupDur time.Duration
}

type updateLog struct {
	lane                       *spanBuf
	us                         []float64
	updates, cellMoves, rehome int64
	fail                       int64
}

// journalSink adapts one region's persist.Store to core.JournalSink.
type journalSink struct {
	e     *engine
	shard int
	store *persist.Store
}

func (j *journalSink) Append(rec core.JournalRecord) {
	st := &j.e.shards[j.shard]
	// Scheduling-path records are emitted by the goroutine driving this
	// shard, so they can be spans on its lane. Device-path records
	// (register, deregister, restore) come from whoever made the device
	// call; their cost stays inside that caller's span.
	span := -1
	switch rec.Op {
	case "register", "deregister", "restore", "prefs", "energy":
	default:
		span = st.lane.begin(spPersistAppend, st.tick, st.cur)
	}
	if err := j.store.Append(rec); err != nil {
		j.e.journalEr.Add(1)
	}
	if span >= 0 {
		st.lane.end(span)
	}
}

// newEngine builds the server, the stores and the tier, registers the
// fleet and submits the tasks for `rounds` periods.
func newEngine(in inputs, sz sizes, rounds int, o engineOpts) (*engine, error) {
	start := time.Now()
	e := &engine{
		in: in, sz: sz, opts: o,
		shards:    make([]shardState, len(in.Regions)),
		regionIdx: make(map[string]int),
		taskShard: make(map[core.TaskID]int),
		checked:   make(map[core.TaskID]bool),
		dispatchT: make([]int64, len(in.Regions)),
		main:      o.tr.lane(),
		now:       virtualEpoch,
		grid:      geo.Grid{SizeM: core.DefaultCellSizeM},
	}
	for i, r := range in.Regions {
		e.regionIdx[r.Name] = i
		e.shards[i].lane = o.tr.lane()
		e.shards[i].lastSeq = make(map[core.TaskID]int)
	}
	cfg := core.DefaultServerConfig()
	if o.stateDir != "" {
		for _, r := range in.Regions {
			st, err := persist.Open(o.stateDir, r.Name)
			if err != nil {
				return nil, err
			}
			e.stores = append(e.stores, st)
		}
		cfg.ShardJournal = func(region string) core.JournalSink {
			i := e.regionIdx[region]
			return &journalSink{e: e, shard: i, store: e.stores[i]}
		}
	}
	if o.withAgg {
		e.aggCfg = agg.Config{
			Window:    aggWindowPeriods * sz.Period,
			CellSizeM: aggCellM,
			Retention: aggRetention,
		}
		e.tier = agg.New(e.aggCfg)
		e.tier.Subscribe(agg.Filter{}, func(p agg.Push) {
			e.streamed = append(e.streamed, p.Windows...)
		})
		cfg.AggTap = e.tap
	}
	ss, err := core.NewShardedServer(cfg, core.DispatcherFunc(e.dispatch), in.Regions)
	if err != nil {
		return nil, err
	}
	e.ss = ss
	// The first snapshot opens the journal epoch, as a booting server's
	// post-recovery commit does.
	for i, st := range e.stores {
		sh, _, err := ss.Shard(i)
		if err != nil {
			return nil, err
		}
		if _, err := st.Commit(snapshotPayload{Core: sh.Snapshot()}); err != nil {
			return nil, err
		}
	}

	budget := power.DefaultBudget()
	regStart := time.Now()
	for i := range in.Devices {
		d := &in.Devices[i]
		sp := e.main.begin(spRegister, 0, 0)
		err := ss.RegisterDevice(core.DeviceState{
			ID: d.ID, Position: d.Home, BatteryPct: d.Battery,
			LastComm: virtualEpoch, Sensors: d.Sensors, Budget: budget,
		})
		if sp >= 0 {
			e.main.end(sp)
		}
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", d.ID, err)
		}
	}
	e.regNs = int64(time.Since(regStart))

	end := virtualEpoch.Add(time.Duration(rounds) * sz.Period)
	for k, ts := range in.Tasks {
		id, err := ss.SubmitTask(core.Task{
			Sensor: sensors.Barometer, SamplingPeriod: sz.Period,
			Start: virtualEpoch, End: end,
			Area:           geo.Circle{Center: ts.Center, RadiusM: ts.RadiusM},
			SpatialDensity: in.Density,
		}, virtualEpoch, e.sink)
		if err != nil {
			return nil, fmt.Errorf("submit task %d: %w", k, err)
		}
		e.taskShard[id] = ss.ShardFor(ts.Center)
		if k%aggCheckEvery == 0 {
			e.checked[id] = true
		}
	}

	if o.mobile {
		e.lastPos = make([]geo.Point, len(in.Devices))
		e.phases = make([][]int32, sz.ReportEvery+1)
		for i := range in.Devices {
			d := &in.Devices[i]
			e.lastPos[i] = d.Home
			switch d.Kind {
			case devFlapper:
				e.phases[sz.ReportEvery] = append(e.phases[sz.ReportEvery], int32(i))
			case devCommuter:
				e.phases[d.Phase] = append(e.phases[d.Phase], int32(i))
			}
		}
		for k := 0; k < runtime.GOMAXPROCS(0); k++ {
			e.workers = append(e.workers, &updateLog{lane: o.tr.lane()})
		}
	}

	// Set-up ends at the first delivery: run the first period.
	e.step()
	delivered := int64(0)
	for i := range e.shards {
		delivered += e.shards[i].delivered
	}
	if delivered == 0 {
		return nil, fmt.Errorf("first period delivered nothing")
	}
	e.setupDur = time.Since(start)
	return e, nil
}

// readingFor is the deterministic value a device reports.
func readingFor(dev *core.DeviceState, s sensors.Type, at time.Time) sensors.Reading {
	frac := dev.Position.Lat*1000 - math.Floor(dev.Position.Lat*1000)
	return sensors.Reading{Sensor: s, Value: 980 + 60*frac, Unit: s.Unit(), At: at, Where: dev.Position}
}

// dispatch is the fleet: every schedule is answered at once, on the
// goroutine driving the shard that issued it.
func (e *engine) dispatch(req core.Request, dev core.DeviceState) {
	sh := e.taskShard[req.Task.ID]
	st := &e.shards[sh]
	parent := st.cur
	sp := st.lane.begin(spDispatch, st.tick, parent)
	if sp >= 0 {
		st.cur = st.lane.id(sp)
	}
	id := req.ID()
	if id != st.lastReq {
		e.closeGroup(st)
		st.lastReq = id
		st.requests++
		if last, ok := st.lastSeq[req.Task.ID]; ok && req.Seq <= last {
			st.bad("request %s scheduled after #%d of the same task", id, last)
		}
		st.lastSeq[req.Task.ID] = req.Seq
	}
	for _, d := range st.group {
		if d == dev.ID {
			st.bad("request %s dispatched twice to %s", id, dev.ID)
		}
	}
	st.group = append(st.group, dev.ID)
	if !req.Task.Area.Contains(dev.Position) {
		st.bad("%s selected for %s but is outside its area", dev.ID, id)
	}
	if !dev.HasSensor(req.Task.Sensor) {
		st.bad("%s selected for %s but lacks the sensor", dev.ID, id)
	}
	st.dispatched++

	t0 := time.Now()
	e.dispatchT[sh] = t0.UnixNano()
	rsp := st.lane.begin(spReceiveData, st.tick, st.cur)
	if rsp >= 0 {
		st.cur = st.lane.id(rsp)
	}
	err := e.ss.ReceiveData(id, dev.ID, readingFor(&dev, req.Task.Sensor, e.now), e.now)
	if rsp >= 0 {
		st.lane.end(rsp)
	}
	st.ackUs = append(st.ackUs, float64(time.Since(t0))/1e3)
	if err != nil {
		st.recvErr++
	}
	if sp >= 0 {
		st.lane.end(sp)
	}
	st.cur = parent
}

// closeGroup checks that the request just finished reached exactly
// `density` devices.
func (e *engine) closeGroup(st *shardState) {
	if st.lastReq != "" && len(st.group) != e.in.Density {
		st.bad("request %s reached %d devices, want %d", st.lastReq, len(st.group), e.in.Density)
	}
	st.group = st.group[:0]
}

// tap is the AggTap: the tier's feed, plus the samples kept for the
// batch comparison.
func (e *engine) tap(task core.TaskID, region, _ string, r sensors.Reading) {
	st := &e.shards[e.regionIdx[region]]
	sp := st.lane.begin(spAggIngest, st.tick, st.cur)
	e.tier.Ingest(string(task), region, r)
	if sp >= 0 {
		st.lane.end(sp)
	}
	if e.checked[task] {
		st.samples = append(st.samples, agg.Sample{Task: string(task), Region: region, Reading: r})
	}
}

// sink is every task's DataSink: the CAS.
func (e *engine) sink(task core.TaskID, _ string, _ sensors.Reading) {
	sh := e.taskShard[task]
	st := &e.shards[sh]
	sp := st.lane.begin(spSink, st.tick, st.cur)
	st.delivered++
	st.deliverUs = append(st.deliverUs, float64(time.Now().UnixNano()-e.dispatchT[sh])/1e3)
	if sp >= 0 {
		st.lane.end(sp)
	}
}

// step runs one period: the scheduling pass (and, mobile, this second's
// state reports beside it), then the tier's advance.
func (e *engine) step() {
	tick := uint32(e.round + 1)
	tsp := e.main.begin(spTick, tick, 0)
	tickID := e.main.id(tsp)
	var wg sync.WaitGroup
	if e.opts.tr == nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.ss.ProcessDue(e.now)
		}()
	} else {
		// Traced: drive each shard directly, as ShardedServer.ProcessDue
		// does, so each shard's pass is its own span.
		for i := range e.shards {
			st := &e.shards[i]
			st.tick = tick
			srv, _, err := e.ss.Shard(i)
			if err != nil {
				continue // cannot happen: i ranges over the shards
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				runtime.LockOSThread() // the lane reads this thread's CPU clock
				defer runtime.UnlockOSThread()
				sp := st.lane.begin(spProcessDue, tick, tickID)
				st.cur = st.lane.id(sp)
				srv.ProcessDue(e.now)
				st.lane.end(sp)
				st.cur = 0
			}()
		}
	}
	if e.opts.mobile {
		e.reportStates(&wg, tick, tickID)
	}
	wg.Wait()
	for i := range e.shards {
		e.closeGroup(&e.shards[i])
		e.shards[i].lastReq = ""
	}
	if e.tier != nil {
		sp := e.main.begin(spAggAdvance, tick, tickID)
		e.tier.Advance(e.now)
		if sp >= 0 {
			e.main.end(sp)
		}
	}
	if tsp >= 0 {
		e.main.end(tsp)
	}
	e.round++
	e.now = e.now.Add(e.sz.Period)
}

// reportStates issues this virtual second's state reports from nproc
// goroutines, concurrently with the scheduling pass: every flapper, and
// the commuters whose phase it is.
func (e *engine) reportStates(wg *sync.WaitGroup, tick, tickID uint32) {
	lists := [][]int32{e.phases[e.sz.ReportEvery], e.phases[e.round%e.sz.ReportEvery]}
	n := len(e.workers)
	for k, lg := range e.workers {
		wg.Add(1)
		go func(k int, lg *updateLog) {
			defer wg.Done()
			if lg.lane != nil {
				runtime.LockOSThread() // the lane reads this thread's CPU clock
				defer runtime.UnlockOSThread()
			}
			// The batch span holds the generator's own work (positions,
			// cell and shard arithmetic); its children are the calls.
			batch := lg.lane.begin(spReportBatch, tick, tickID)
			batchID := lg.lane.id(batch)
			if batch >= 0 {
				defer lg.lane.end(batch)
			}
			for _, list := range lists {
				for j := k; j < len(list); j += n {
					i := list[j]
					d := &e.in.Devices[i]
					pos := d.positionAt(e.round + 1)
					prev := e.lastPos[i]
					if e.grid.CellOf(prev) != e.grid.CellOf(pos) {
						lg.cellMoves++
					}
					if e.ss.ShardFor(prev) != e.ss.ShardFor(pos) {
						lg.rehome++
					}
					sp := lg.lane.begin(spUpdateState, tick, batchID)
					t0 := time.Now()
					err := e.ss.UpdateDeviceState(d.ID, pos, d.Battery, e.now)
					lg.us = append(lg.us, float64(time.Since(t0))/1e3)
					if sp >= 0 {
						lg.lane.end(sp)
					}
					lg.updates++
					if err != nil {
						lg.fail++
					}
					e.lastPos[i] = pos
				}
			}
		}(k, lg)
	}
}

// cityRun is what the measured periods of one engine produced.
type cityRun struct {
	rounds       int
	uploads      int64
	wall         time.Duration
	cpu          time.Duration
	blocks       []float64 // uploads per second, one per block of periods
	cpuBlocks    []float64 // process CPU us per upload, per block
	reportBlocks []float64 // state reports per second, per block
	ackBlocks    *windowed // ReceiveData call us, by block
	dlvBlocks    *windowed // dispatch -> sink us, by block
	clean        []bool    // blocks the host stole no CPU time from
	stolen       float64   // share of the machine's CPU time stolen over the run
	liveHeap     uint64
	mallocs      uint64
	ackUs        []float64
	deliverUs    []float64
	updateUs     []float64
	updates      int64
	cellMoves    int64
	rehomes      int64
}

// run executes the remaining periods (the first ran during set-up) in
// blocks, timing each block, and returns the totals.
func (e *engine) run(rounds int) cityRun {
	// Timings from set-up are not part of the measurement.
	for i := range e.shards {
		e.shards[i].ackUs = e.shards[i].ackUs[:0]
		e.shards[i].deliverUs = e.shards[i].deliverUs[:0]
	}
	delivered := func() (n int64) {
		for i := range e.shards {
			n += e.shards[i].delivered
		}
		return n
	}
	updates := func() (n int64) {
		for _, lg := range e.workers {
			n += lg.updates
		}
		return n
	}
	left := rounds - e.round
	nBlocks := 10
	if left < nBlocks {
		nBlocks = left
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	out := cityRun{rounds: left, ackBlocks: newWindowed(nBlocks), dlvBlocks: newWindowed(nBlocks)}
	d0, u0 := delivered(), updates()
	cpu0, steal0, t0 := selfCPU(), readSteal(), time.Now()
	seen := make([]int, len(e.shards)) // timing samples already assigned to a block
	for b := 0; b < nBlocks; b++ {
		per := left / nBlocks
		if b < left%nBlocks {
			per++
		}
		bd, bu, bc, bs, bt := delivered(), updates(), selfCPU(), readSteal(), time.Now()
		for r := 0; r < per; r++ {
			e.step()
		}
		wall := time.Since(bt)
		n := float64(delivered() - bd)
		out.blocks = append(out.blocks, n/wall.Seconds())
		out.cpuBlocks = append(out.cpuBlocks, float64(selfCPU()-bc)/1e3/n)
		out.reportBlocks = append(out.reportBlocks, float64(updates()-bu)/wall.Seconds())
		out.clean = append(out.clean, stolenShare(readSteal()-bs, wall, runtime.NumCPU()) <= stealLimit)
		for i := range e.shards {
			st := &e.shards[i]
			for k := seen[i]; k < len(st.ackUs); k++ {
				out.ackBlocks.add(b, st.ackUs[k])
				out.dlvBlocks.add(b, st.deliverUs[k])
			}
			seen[i] = len(st.ackUs)
		}
	}
	out.wall = time.Since(t0)
	out.cpu = selfCPU() - cpu0
	out.stolen = stolenShare(readSteal()-steal0, out.wall, runtime.NumCPU())
	runtime.ReadMemStats(&ms1)
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	out.uploads = delivered() - d0
	out.updates = updates() - u0
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	out.liveHeap = ms1.HeapAlloc
	for i := range e.shards {
		out.ackUs = append(out.ackUs, e.shards[i].ackUs...)
		out.deliverUs = append(out.deliverUs, e.shards[i].deliverUs...)
	}
	for _, lg := range e.workers {
		out.updateUs = append(out.updateUs, lg.us...)
		out.cellMoves += lg.cellMoves
		out.rehomes += lg.rehome
	}
	return out
}

// recovery is what loading the run's own journals into a fresh server
// cost.
type recovery struct {
	total    time.Duration
	load     time.Duration
	replay   time.Duration
	records  int
	bytes    int64
	standby  *core.ShardedServer
	recsByRg [][]core.JournalRecord
}

// recoverFrom loads every region's snapshot and journal and replays them
// into a fresh sharded server: the cold-standby path. dirs holds one
// state directory per region, or a single one they all share.
func recoverFrom(dirs []string, regions []core.Region, lane *spanBuf) (*recovery, error) {
	start := time.Now()
	standby, err := core.NewShardedServer(core.DefaultServerConfig(),
		core.DispatcherFunc(func(core.Request, core.DeviceState) {}), regions)
	if err != nil {
		return nil, err
	}
	rec := &recovery{standby: standby}
	noSink := func(core.TaskID) core.DataSink {
		return func(core.TaskID, string, sensors.Reading) {}
	}
	for i, r := range regions {
		st, err := persist.Open(dirs[i%len(dirs)], r.Name)
		if err != nil {
			return nil, err
		}
		sp := lane.begin(spPersistLoad, 0, 0)
		t0 := time.Now()
		res, err := st.Load()
		rec.load += time.Since(t0)
		if sp >= 0 {
			lane.end(sp)
		}
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", r.Name, err)
		}
		if res.TruncatedBytes > 0 {
			return nil, fmt.Errorf("load %s: %d journal bytes were torn", r.Name, res.TruncatedBytes)
		}
		sp = lane.begin(spRecover, 0, 0)
		t0 = time.Now()
		var snap *core.SnapshotState
		if res.Snapshot != nil {
			var p snapshotPayload
			if err := json.Unmarshal(res.Snapshot, &p); err != nil {
				return nil, fmt.Errorf("snapshot %s: %w", r.Name, err)
			}
			snap = &p.Core
		}
		records := make([]core.JournalRecord, len(res.Records))
		for k, raw := range res.Records {
			if err := json.Unmarshal(raw, &records[k]); err != nil {
				return nil, fmt.Errorf("journal %s record %d: %w", r.Name, k, err)
			}
			rec.bytes += int64(len(raw)) + 8
		}
		sh, _, err := standby.Shard(i)
		if err != nil {
			return nil, err
		}
		if _, err := sh.Recover(snap, records, noSink); err != nil {
			return nil, fmt.Errorf("recover %s: %w", r.Name, err)
		}
		rec.replay += time.Since(t0)
		if sp >= 0 {
			lane.end(sp)
		}
		rec.records += len(records)
		rec.recsByRg = append(rec.recsByRg, records)
	}
	standby.RebuildRouting()
	rec.total = time.Since(start)
	return rec, nil
}

// verify is the in-process workloads' correctness gate.
func (e *engine) verify(rec *recovery) []string {
	var v []string
	bad := func(format string, a ...any) {
		if len(v) < 10 {
			v = append(v, fmt.Sprintf(format, a...))
		}
	}
	var delivered, dispatched, recvErr int64
	for i := range e.shards {
		st := &e.shards[i]
		v = append(v, st.viol...)
		delivered += st.delivered
		dispatched += st.dispatched
		recvErr += st.recvErr
	}
	stats := e.ss.Stats()
	if int64(stats.ReadingsAccepted) != delivered {
		bad("core accepted %d readings, sinks received %d", stats.ReadingsAccepted, delivered)
	}
	if recvErr > 0 || dispatched != delivered {
		bad("%d dispatches, %d deliveries, %d ReceiveData errors", dispatched, delivered, recvErr)
	}
	if n := e.journalEr.Load(); n > 0 {
		bad("%d journal appends failed", n)
	}
	if e.tier != nil {
		// Close every window still open, then compare with the batch truth.
		e.tier.Advance(e.now.Add(2 * e.aggCfg.Window))
		var samples []agg.Sample
		for i := range e.shards {
			samples = append(samples, e.shards[i].samples...)
		}
		want := agg.Batch(samples, e.aggCfg)
		var got []agg.Window
		for _, w := range e.streamed {
			if e.checked[core.TaskID(w.Key.Task)] {
				got = append(got, w)
			}
		}
		agg.SortWindows(got)
		if !reflect.DeepEqual(got, want) {
			bad("streamed agg windows differ from agg.Batch over the same samples (%d streamed, %d batch)", len(got), len(want))
		}
		if late := e.tier.Stats().LateSamples; late > 0 {
			bad("agg tier dropped %d samples as late", late)
		}
	}
	if rec != nil {
		if got, want := rec.standby.TaskCount(), e.ss.TaskCount(); got != want {
			bad("recovered server has %d tasks, live has %d", got, want)
		}
		if got, want := rec.standby.DeviceCount(), e.ss.DeviceCount(); got != want {
			bad("recovered server has %d devices, live has %d", got, want)
		}
		for i, r := range e.in.Regions {
			live, _, _ := e.ss.Shard(i)
			cold, _, _ := rec.standby.Shard(i)
			a, errA := snapshotJSON(live, e.opts.mobile)
			b, errB := snapshotJSON(cold, e.opts.mobile)
			if errA != nil || errB != nil {
				bad("snapshot %s: %v %v", r.Name, errA, errB)
			} else if !bytes.Equal(a, b) {
				bad("recovered shard %s differs from the live one (snapshot JSON %d vs %d bytes)", r.Name, len(b), len(a))
			}
		}
	}
	return v
}

// snapshotJSON renders a shard's snapshot for comparison. State
// reports are not journaled (a recovered server learns positions from
// the next report), so a mobile run compares everything but the three
// fields a report carries.
func snapshotJSON(s *core.Server, maskReports bool) ([]byte, error) {
	snap := s.Snapshot()
	if maskReports {
		for i := range snap.Devices {
			d := &snap.Devices[i]
			d.Position, d.BatteryPct, d.LastComm = geo.Point{}, 0, time.Time{}
		}
	}
	return json.Marshal(snap)
}

// close releases the stores.
func (e *engine) close() {
	for _, st := range e.stores {
		_ = st.Close()
	}
}

// journalPath is where the harness keeps one engine's state.
func journalPath(base string, n int) string {
	return filepath.Join(base, fmt.Sprintf("engine-%d", n))
}
