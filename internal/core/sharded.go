package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"senseaid/internal/geo"
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
// covering their position. A deployment without regions is the same
// orchestrator with one unnamed shard that covers every point.

// Region is one edge shard's coverage area.
type Region struct {
	Name string
	Area geo.Circle
}

// ShardedServer is the Sense-Aid orchestrator: every frontend (the
// networked server, the simulation framework) drives one, and only this
// package knows how many regions it has. Each shard is a Server and owns
// its concurrency; the sharded layer adds the device stripes. Every
// method is safe for concurrent use, and Dispatcher and DataSink
// callbacks run outside the scheduling locks, so they may call back in.
// ProcessDue and NextWake fan out across shards concurrently, so the
// shared Dispatcher must tolerate concurrent calls.
//
// A device's home is the shard whose store holds its record, and a
// task's is the shard its ID names (TaskID.Region); there is no index to
// fall out of step with the shards. A device operation asks the shard
// covering the position it carries, then (rarely) the few others.
//
// Lock hierarchy: deviceStripe.mu -> (per-shard) Server locks. Task
// operations take no lock of this layer, and only storedIn holds more
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
	// and task submission asks which region holds a point. The unnamed
	// shard has no area and covers every point.
	area   geo.PreparedCircle
	server *Server
}

// NewShardedServer builds one Server per region, all sharing a dispatcher
// and configuration, each journaling to cfg.ShardJournal(region name).
// Each shard generates task IDs under its region name ("west/task-1"),
// so task and request IDs are globally unique and name their shard.
//
// Without regions it builds one unnamed shard covering every point: its
// task IDs carry no prefix ("task-1"), its spans no region tag and its
// metrics no shard label, and it journals to cfg.ShardJournal("") — a
// region-less deployment exactly as a lone Server would run it.
func NewShardedServer(cfg ServerConfig, d Dispatcher, regions []Region) (*ShardedServer, error) {
	s := &ShardedServer{}
	if len(regions) == 0 {
		if err := s.addShard(cfg, d, Region{}); err != nil {
			return nil, err
		}
		return s, nil
	}
	seen := make(map[string]bool, len(regions))
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
		if err := s.addShard(cfg, d, r); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// addShard builds the shard for one region. Each journals to its own
// per-region sink (its own state files); a plain Journal would interleave
// shards in one file.
func (s *ShardedServer) addShard(cfg ServerConfig, d Dispatcher, r Region) error {
	cfg.Journal = nil
	if cfg.ShardJournal != nil {
		cfg.Journal = cfg.ShardJournal(r.Name)
	}
	srv, err := newServer(cfg, d, r.Name)
	if err != nil {
		return err
	}
	s.shards = append(s.shards, shardEntry{region: r, area: r.Area.Prepare(), server: srv})
	return nil
}

// Shards returns the number of shards.
func (s *ShardedServer) Shards() int { return len(s.shards) }

// ShardFor returns the index of the first region containing the point, or
// -1 when the point is outside every region.
func (s *ShardedServer) ShardFor(p geo.Point) int {
	for i := range s.shards {
		if sh := &s.shards[i]; sh.region.Name == "" || sh.area.Contains(p) {
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
		err = fmt.Errorf("core: update: unknown device %s", id)
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
	return s.shards[i].server.SubmitTask(t, now, sink)
}

// shardOf returns the shard a task or request ID names (TaskID.Region),
// or nil when no shard has that name.
func (s *ShardedServer) shardOf(id string) *Server {
	name := TaskID(id).Region()
	for i := range s.shards {
		if s.shards[i].region.Name == name {
			return s.shards[i].server
		}
	}
	return nil
}

// DeleteTask removes a task from the shard its ID names.
func (s *ShardedServer) DeleteTask(id TaskID) error {
	sh := s.shardOf(string(id))
	if sh == nil {
		return fmt.Errorf("core: unknown task %s", id)
	}
	return sh.DeleteTask(id)
}

// UpdateTaskParams mutates a task on the shard its ID names.
func (s *ShardedServer) UpdateTaskParams(id TaskID, now time.Time, mutate func(*Task)) error {
	sh := s.shardOf(string(id))
	if sh == nil {
		return fmt.Errorf("core: unknown task %s", id)
	}
	return sh.UpdateTaskParams(id, now, mutate)
}

// ReceiveData hands a device's reading to the shard the request's task
// ID names.
func (s *ShardedServer) ReceiveData(reqID, deviceID string, reading sensors.Reading, now time.Time) error {
	sh := s.shardOf(reqID)
	if sh == nil {
		return fmt.Errorf("core: unknown task for request %s", reqID)
	}
	return sh.ReceiveData(reqID, deviceID, reading, now)
}

// NoteDispatchFailure hands a delivery failure to the shard the request's
// task ID names; the shard clears the pending entry and marks the device
// unresponsive.
func (s *ShardedServer) NoteDispatchFailure(reqID, deviceID string) {
	if sh := s.shardOf(reqID); sh != nil {
		sh.NoteDispatchFailure(reqID, deviceID)
	}
}

// ProcessDue drives every shard's scheduling loop concurrently: regions
// are independent by construction (a device is homed to exactly one
// shard, a task to exactly one shard), so the per-edge instances schedule
// in parallel exactly as the paper's physical deployment would.
func (s *ShardedServer) ProcessDue(now time.Time) {
	s.each(func(srv *Server) { srv.ProcessDue(now) })
}

// NextWake returns the earliest wake instant across shards, polling the
// shards concurrently.
func (s *ShardedServer) NextWake() (best time.Time, ok bool) {
	var mu sync.Mutex
	s.each(func(srv *Server) {
		t, has := srv.NextWake()
		mu.Lock()
		if has && (!ok || t.Before(best)) {
			best, ok = t, true
		}
		mu.Unlock()
	})
	return best, ok
}

// each runs f on every shard at once: the last on the caller's goroutine,
// the rest on one goroutine each, so a one-shard deployment spawns none.
func (s *ShardedServer) each(f func(*Server)) {
	last := len(s.shards) - 1
	var wg sync.WaitGroup
	wg.Add(last)
	for _, sh := range s.shards[:last] {
		go func(srv *Server) {
			defer wg.Done()
			f(srv)
		}(sh.server)
	}
	f(s.shards[last].server)
	wg.Wait()
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

// RebuildRouting is a no-op, kept for callers written when the sharded
// layer kept a task-routing index that recovery had to rebuild. Tasks now
// route by the region their ID names and devices live in the stores the
// recovery filled, so there is nothing left to rebuild.
func (s *ShardedServer) RebuildRouting() {}

// Shard exposes one shard's Server for inspection and tests.
func (s *ShardedServer) Shard(i int) (*Server, Region, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, Region{}, fmt.Errorf("core: shard %d out of range", i)
	}
	return s.shards[i].server, s.shards[i].region, nil
}
