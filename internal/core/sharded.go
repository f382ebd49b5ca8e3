package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"senseaid/internal/geo"
	"senseaid/internal/obs"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
)

// The paper's server is "logically centralized; in its physical
// instantiation, each entity is distributed into multiple instances,
// resident at the edge of the cellular network. Each instance will be
// located spatially close to the mobile devices" — and the conclusion
// names "scalability of our framework to large geographic regions" as
// ongoing work. ShardedServer is that instantiation: one Server instance
// per geographic region, with tasks routed to the shard covering their
// area and devices homed (and re-homed as they move) to the shard
// covering their position.

// Region is one edge shard's coverage area.
type Region struct {
	Name string
	Area geo.Circle
}

// ShardedServer fronts a set of per-region Server instances behind the
// Orchestrator interface. Each shard owns its concurrency (see Server);
// the sharded layer adds the task-routing index and the device stripes.
// ProcessDue and NextWake fan out across shards concurrently, so the
// shared Dispatcher must tolerate concurrent calls.
//
// A device's home is the shard whose store holds its record; there is no
// device index to fall out of step with the stores. An operation asks the
// shard covering the position it carries, then (rarely) the few others.
//
// Lock hierarchy: deviceStripe.mu -> (per-shard) Server locks, and
// ShardedServer.taskMu as a leaf (nothing is called with it held). The
// stripes and the task lock are independent — an upload resolving its
// task never queues behind a device report — and only storedIn holds more
// than one stripe. No shard ever calls back up into the sharded layer.
type ShardedServer struct {
	shards []shardEntry // immutable after construction

	// devices are locks, not maps: every device operation holds the
	// stripe its device's ID hashes to across the shard calls, so
	// operations on one device are atomic with respect to each other (the
	// shard holding a device cannot change between asking and acting) and
	// journaled in the order they happened, while operations on devices of
	// other stripes — a re-home included — proceed side by side.
	devices [deviceStripes]deviceStripe

	// taskMu guards taskHome.
	taskMu sync.RWMutex
	// taskHome maps a (shard-prefixed, globally unique) task ID to the
	// shard that owns it.
	taskHome map[TaskID]int
}

// deviceStripes is how many device locks there are. A re-home holds one
// for two journal appends, so a goroutine reporting for another device
// waits behind it with probability 1/deviceStripes: negligible at 256 for
// any worker count a machine will run, and the array costs only 16 kB.
const deviceStripes = 256

// deviceStripe is one device lock, padded to a cache line so
// neighbouring stripes do not share one.
type deviceStripe struct {
	mu sync.Mutex
	_  [64 - 8]byte
}

// stripe returns the stripe a device ID hashes to (FNV-1a).
func (s *ShardedServer) stripe(id string) *deviceStripe {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return &s.devices[h%deviceStripes]
}

type shardEntry struct {
	region Region
	// area is region.Area prepared once: every registration, state report
	// and task submission asks which region holds a point.
	area   geo.PreparedCircle
	server *Server
}

// NewShardedServer builds one Server per region, all sharing a dispatcher
// and configuration. Each shard generates task IDs under its region name
// ("west/task-1"), so task and request IDs are globally unique and two
// shards can never mint colliding IDs.
func NewShardedServer(cfg ServerConfig, d Dispatcher, regions []Region) (*ShardedServer, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("core: sharded server needs at least one region")
	}
	seen := make(map[string]bool, len(regions))
	s := &ShardedServer{taskHome: make(map[TaskID]int)}
	for _, r := range regions {
		if r.Name == "" {
			return nil, fmt.Errorf("core: region with empty name")
		}
		// Region names become task-ID prefixes ("west/task-1") and appear
		// in request IDs ("west/task-1#0"): '/' would make prefixes
		// ambiguous, '#' would break ReceiveData's split at the first '#',
		// and whitespace is asking for flag-parsing trouble. Reject them at
		// construction so a malformed -regions flag fails at startup
		// instead of silently rejecting every upload.
		if strings.ContainsAny(r.Name, "#/") || strings.IndexFunc(r.Name, unicode.IsSpace) >= 0 {
			return nil, fmt.Errorf("core: region name %q contains '#', '/', or whitespace", r.Name)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("core: duplicate region %q", r.Name)
		}
		if r.Area.RadiusM <= 0 || !r.Area.Center.Valid() {
			return nil, fmt.Errorf("core: region %q has invalid area", r.Name)
		}
		seen[r.Name] = true
		shardCfg := cfg
		shardCfg.TaskIDPrefix = r.Name + "/"
		// Spans carry the region tag instead of a metric label: the
		// shared senseaid_stage_seconds family keeps one label set
		// ({stage}) while the trace tree still shows which shard ran
		// each stage.
		shardCfg.TraceRegion = r.Name
		// Each shard journals to its own per-region sink (its own state
		// files); a plain Journal would interleave shards in one file.
		shardCfg.Journal = nil
		if cfg.ShardJournal != nil {
			shardCfg.Journal = cfg.ShardJournal(r.Name)
		}
		if cfg.Metrics != nil {
			// Distinct shard labels keep per-shard gauges (queue depths,
			// device counts) from overwriting each other on the shared
			// registry.
			labels := obs.Labels{"shard": r.Name}
			for k, v := range cfg.MetricsLabels {
				labels[k] = v
			}
			shardCfg.MetricsLabels = labels
		}
		srv, err := NewServer(shardCfg, d)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, shardEntry{region: r, area: r.Area.Prepare(), server: srv})
	}
	return s, nil
}

// Shards returns the number of shards.
func (s *ShardedServer) Shards() int { return len(s.shards) }

// ShardFor returns the index of the first region containing the point, or
// -1 when the point is outside every region.
func (s *ShardedServer) ShardFor(p geo.Point) int {
	for i := range s.shards {
		if s.shards[i].area.Contains(p) {
			return i
		}
	}
	return -1
}

// RegionName returns a shard's region name.
func (s *ShardedServer) RegionName(i int) string {
	if i < 0 || i >= len(s.shards) {
		return ""
	}
	return s.shards[i].region.Name
}

// ask puts a question about a device to every shard but skip (-1: every
// shard) until one answers yes: the one loop by which a device is found.
// It stays answered while the caller holds the device's stripe.
func (s *ShardedServer) ask(skip int, q func(*Server) bool) bool {
	for i := range s.shards {
		if i != skip && q(s.shards[i].server) {
			return true
		}
	}
	return false
}

// takeFromOther removes a device from its home shard when that is any
// shard but keep (-1: any at all), handing over its record. Callers take
// before they store: ProcessDue takes no stripe, and a tick that saw the
// device in two shards would dispatch it twice, where in neither it misses
// at most one selection round. Caller holds the device's stripe.
func (s *ShardedServer) takeFromOther(id string, keep int) (rec DeviceState, ok bool) {
	s.ask(keep, func(sh *Server) bool {
		rec, ok = sh.takeDevice(id)
		return ok
	})
	return rec, ok
}

// RegisterDevice homes a device to the shard covering its position. A
// device that registers again from another region leaves its old shard
// first, after the incoming record is validated, so it is never stored
// in two and the store that follows cannot fail and leave it homeless.
func (s *ShardedServer) RegisterDevice(d DeviceState) error {
	i := s.ShardFor(d.Position)
	if i < 0 {
		return fmt.Errorf("core: device %s at %s is outside every region", d.ID, d.Position)
	}
	if err := validate(&d); err != nil {
		return err
	}
	st := s.stripe(d.ID)
	st.mu.Lock()
	defer st.mu.Unlock()
	s.takeFromOther(d.ID, i)
	return s.shards[i].server.RegisterDevice(d)
}

// DeregisterDevice removes a device from its home shard.
func (s *ShardedServer) DeregisterDevice(id string) {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	s.takeFromOther(id, -1)
}

// UpdateDeviceState applies a state report, re-homing the device if it
// moved into another shard's region. The shard covering the reported
// position is handed the report first: for a device that stayed in its
// region that is the whole operation. When that store does not know the
// device it is a re-home — the record moves verbatim with the report
// applied, so responsiveness, reliability and the fairness counters
// survive the crossing. A position outside all coverage leaves the
// device where it is with a stale record; it will fail region
// qualification anyway. Throughout, the device's stripe is held: nothing
// else can touch this device, and no device outside the stripe waits.
func (s *ShardedServer) UpdateDeviceState(id string, pos geo.Point, batteryPct float64, at time.Time) (err error) {
	target := s.ShardFor(pos)
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	// A store validates the report before it looks the device up: a
	// malformed one fails with the record still in its home.
	var found bool
	report := func(sh *Server) bool {
		found, err = sh.devices.updateState(id, pos, batteryPct, at)
		return found || err != nil
	}
	switch {
	case target < 0:
		s.ask(-1, report)
	case !report(s.shards[target].server):
		if rec, ok := s.takeFromOther(id, target); ok {
			rec.Position, rec.BatteryPct, rec.LastComm = pos, batteryPct, at
			s.shards[target].server.putDevice(&rec)
			return nil
		}
	}
	if err == nil && !found {
		err = fmt.Errorf("core: update for unregistered device %s", id)
	}
	return err
}

// UpdateDevicePrefs changes a device's budget on its home shard. The
// stripe is held while the shards are asked, so a concurrent re-home
// cannot carry the record past the question into a shard already asked.
func (s *ShardedServer) UpdateDevicePrefs(id string, b power.Budget) error {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	var err error
	if !s.ask(-1, func(sh *Server) bool {
		var found bool
		found, err = sh.updatePrefs(id, b)
		return found || err != nil
	}) {
		return fmt.Errorf("core: prefs: unknown device %s", id)
	}
	return err
}

// NoteDeviceEnergy records spent energy against the device's home shard.
// As with UpdateDevicePrefs, the stripe is held while the shards are
// asked so the energy lands on the record's current home even under
// concurrent re-homing.
func (s *ShardedServer) NoteDeviceEnergy(id string, joules float64) {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	s.ask(-1, func(sh *Server) bool { return sh.noteEnergy(id, joules) })
}

// ExportDevice removes a device from its home shard and returns the
// record — the sending half of cross-node re-homing.
func (s *ShardedServer) ExportDevice(id string) (DeviceState, error) {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := s.takeFromOther(id, -1)
	if !ok {
		return DeviceState{}, fmt.Errorf("core: export: unknown device %s", id)
	}
	return rec, nil
}

// RestoreDevice homes an exported record to the shard covering its
// position — the receiving half of cross-node re-homing. Like the
// in-process crossing, the device is visible to at most one shard at
// every instant: an ID another shard already stores leaves that shard
// first.
func (s *ShardedServer) RestoreDevice(rec DeviceState) error {
	target := s.ShardFor(rec.Position)
	if target < 0 {
		return fmt.Errorf("core: restore %s: no region covers %s", rec.ID, rec.Position)
	}
	if err := validate(&rec); err != nil {
		return err
	}
	st := s.stripe(rec.ID)
	st.mu.Lock()
	defer st.mu.Unlock()
	s.takeFromOther(rec.ID, target)
	return s.shards[target].server.RestoreDevice(rec)
}

// SubmitTask routes a task to the shard covering its area center. The
// returned ID carries the owning region ("west/task-3") and is the only
// name the task answers to — per-shard counters restart at task-1, so a
// bare ID would be ambiguous across shards.
func (s *ShardedServer) SubmitTask(t Task, now time.Time, sink DataSink) (TaskID, error) {
	i := s.ShardFor(t.Area.Center)
	if i < 0 {
		return "", fmt.Errorf("core: task area %s is outside every region", t.Area)
	}
	// The routing entry is in place before anyone can look the task up:
	// the shard may dispatch the task's first request as soon as its own
	// lock drops, and the upload answering it must find its shard. The
	// shard's SubmitTask never calls back into this layer.
	s.taskMu.Lock()
	defer s.taskMu.Unlock()
	id, err := s.shards[i].server.SubmitTask(t, now, sink)
	if err != nil {
		return "", err
	}
	s.taskHome[id] = i
	return id, nil
}

// shardForTask resolves a shard-prefixed task ID to its owning shard.
func (s *ShardedServer) shardForTask(id TaskID) (int, error) {
	s.taskMu.RLock()
	i, ok := s.taskHome[id]
	s.taskMu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("core: unknown task %s", id)
	}
	return i, nil
}

// DeleteTask removes a task from its owning shard and drops its routing
// entry (task churn must not grow the index without bound).
func (s *ShardedServer) DeleteTask(id TaskID) error {
	i, err := s.shardForTask(id)
	if err != nil {
		return err
	}
	if err := s.shards[i].server.DeleteTask(id); err != nil {
		return err
	}
	s.taskMu.Lock()
	delete(s.taskHome, id)
	s.taskMu.Unlock()
	return nil
}

// UpdateTaskParams mutates a task on its owning shard.
func (s *ShardedServer) UpdateTaskParams(id TaskID, now time.Time, mutate func(*Task)) error {
	i, err := s.shardForTask(id)
	if err != nil {
		return err
	}
	return s.shards[i].server.UpdateTaskParams(id, now, mutate)
}

// shardForRequest resolves a request ID ("<taskID>#<seq>") to the shard
// owning its task; task IDs carry their region prefix, so the route is
// unambiguous.
func (s *ShardedServer) shardForRequest(reqID string) (int, error) {
	taskPart := reqID
	for i := 0; i < len(reqID); i++ {
		if reqID[i] == '#' {
			taskPart = reqID[:i]
			break
		}
	}
	return s.shardForTask(TaskID(taskPart))
}

// ReceiveData routes a device's reading to the shard owning the request's
// task.
func (s *ShardedServer) ReceiveData(reqID, deviceID string, reading sensors.Reading, now time.Time) error {
	i, err := s.shardForRequest(reqID)
	if err != nil {
		return err
	}
	return s.shards[i].server.ReceiveData(reqID, deviceID, reading, now)
}

// NoteDispatchFailure routes a delivery failure to the shard owning the
// request's task; the shard clears the pending entry and marks the
// device unresponsive. Unknown requests are ignored — the task may have
// been deleted between the dispatch and the failure report.
func (s *ShardedServer) NoteDispatchFailure(reqID, deviceID string) {
	i, err := s.shardForRequest(reqID)
	if err != nil {
		return
	}
	s.shards[i].server.NoteDispatchFailure(reqID, deviceID)
}

// ProcessDue drives every shard's scheduling loop concurrently: regions
// are independent by construction (a device is homed to exactly one
// shard, a task to exactly one shard), so the per-edge instances schedule
// in parallel exactly as the paper's physical deployment would.
func (s *ShardedServer) ProcessDue(now time.Time) {
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(srv *Server) {
			defer wg.Done()
			srv.ProcessDue(now)
		}(sh.server)
	}
	wg.Wait()
}

// NextWake returns the earliest wake instant across shards, polling the
// shards concurrently.
func (s *ShardedServer) NextWake() (time.Time, bool) {
	type wake struct {
		t  time.Time
		ok bool
	}
	wakes := make([]wake, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, srv *Server) {
			defer wg.Done()
			wakes[i].t, wakes[i].ok = srv.NextWake()
		}(i, sh.server)
	}
	wg.Wait()
	var best time.Time
	ok := false
	for _, w := range wakes {
		if w.ok && (!ok || w.t.Before(best)) {
			best, ok = w.t, true
		}
	}
	return best, ok
}

// Stats aggregates counters across shards.
func (s *ShardedServer) Stats() Stats {
	var total Stats
	for _, sh := range s.shards {
		st := sh.server.Stats()
		total.TasksSubmitted += st.TasksSubmitted
		total.RequestsGenerated += st.RequestsGenerated
		total.RequestsSatisfied += st.RequestsSatisfied
		total.RequestsWaitlisted += st.RequestsWaitlisted
		total.RequestsExpired += st.RequestsExpired
		total.ReadingsAccepted += st.ReadingsAccepted
		total.ReadingsRejected += st.ReadingsRejected
		total.DispatchesMissed += st.DispatchesMissed
		total.DispatchesFailed += st.DispatchesFailed
	}
	return total
}

// Selections merges the shards' retained selection logs, oldest first.
func (s *ShardedServer) Selections() []Selection {
	var all []Selection
	for _, sh := range s.shards {
		all = append(all, sh.server.Selections()...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At.Before(all[j].At) })
	return all
}

// SelectionsDropped sums selection-log overwrites across shards.
func (s *ShardedServer) SelectionsDropped() uint64 {
	var total uint64
	for _, sh := range s.shards {
		total += sh.server.SelectionsDropped()
	}
	return total
}

// TaskCount sums stored tasks across shards.
func (s *ShardedServer) TaskCount() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.server.TaskCount()
	}
	return total
}

// RebuildRouting reconstructs the task-routing index from the shards'
// current state. It is the recovery path's last step: after each shard's
// Server has restored its snapshot and journal, the sharded layer
// re-learns which shard owns which task (devices are found in the stores
// the recovery filled). Call it before the sharded server takes traffic.
func (s *ShardedServer) RebuildRouting() {
	s.taskMu.Lock()
	defer s.taskMu.Unlock()
	s.taskHome = make(map[TaskID]int)
	for i, sh := range s.shards {
		for _, id := range sh.server.TaskIDs() {
			s.taskHome[id] = i
		}
	}
}

// Shard exposes one shard's Server for inspection and tests.
func (s *ShardedServer) Shard(i int) (*Server, Region, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, Region{}, fmt.Errorf("core: shard %d out of range", i)
	}
	return s.shards[i].server, s.shards[i].region, nil
}
