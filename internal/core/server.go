package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/obs"
	"senseaid/internal/power"
	"senseaid/internal/reputation"
	"senseaid/internal/sensors"
)

// Dispatcher delivers a sensing schedule to one selected device. The
// simulation implements it by poking the simulated client; the networked
// server implements it by pushing a schedule message down the device's
// connection.
//
// Dispatch is invoked after the server's scheduling lock is released, so
// an implementation may call back into the orchestrator. A sharded
// deployment drives its shards concurrently, so Dispatch must be safe for
// concurrent calls.
type Dispatcher interface {
	// Dispatch asks the device to take the request's sample and upload
	// it by the request's deadline.
	Dispatch(req Request, device DeviceState)
}

// DispatcherFunc adapts a function to the Dispatcher interface.
type DispatcherFunc func(req Request, device DeviceState)

// Dispatch implements Dispatcher.
func (f DispatcherFunc) Dispatch(req Request, device DeviceState) { f(req, device) }

// DataSink receives validated crowdsensing data for one task; the
// crowdsensing application server registers one per task. The sink runs
// after the scheduling lock is released, so it may call back into the
// orchestrator (adaptive campaigns update task parameters from here).
type DataSink func(task TaskID, deviceID string, reading sensors.Reading)

// Selection records one execution of the device selector, feeding the
// Figure 9 fairness trace.
type Selection struct {
	Request string    `json:"request"`
	At      time.Time `json:"at"`
	Devices []string  `json:"devices"`
}

// Stats counts server outcomes.
type Stats struct {
	TasksSubmitted     int `json:"tasks_submitted"`
	RequestsGenerated  int `json:"requests_generated"`
	RequestsSatisfied  int `json:"requests_satisfied"`
	RequestsWaitlisted int `json:"requests_waitlisted"`
	RequestsExpired    int `json:"requests_expired"`
	ReadingsAccepted   int `json:"readings_accepted"`
	ReadingsRejected   int `json:"readings_rejected"`
	DispatchesMissed   int `json:"dispatches_missed"`
	DispatchesFailed   int `json:"dispatches_failed"`
}

// ServerConfig parameterises the Sense-Aid server.
type ServerConfig struct {
	// Selector holds scoring weights and cutoffs.
	Selector SelectorConfig
	// ValidateRegion re-checks that the reporting device is still inside
	// the task area when its data arrives (one of the paper's two
	// disqualification causes).
	ValidateRegion bool
	// SelectAll disables the minimum-set orchestration: every qualified
	// device is tasked (still requiring at least the spatial density).
	// This is the paper's section 5.2 ablation — "even without the
	// global orchestration, Sense-Aid is effective because it triggers
	// each device to upload crowdsensing data at an opportune time."
	SelectAll bool
	// Reputation, when set, scores devices from their upload outcomes
	// (accepted / rejected / missed / round outlier) and feeds the
	// scores back into the selector's reliability factor.
	Reputation *reputation.Tracker
	// OutlierKMAD is the truth-discovery strictness for per-round
	// outlier flagging (default 4 robust deviations).
	OutlierKMAD float64
	// OutlierToleranceAbs is the sensor noise floor added to the outlier
	// threshold (default 0.5, suiting barometric hPa).
	OutlierToleranceAbs float64
	// FairnessWindow resets the selector's per-device E_i and U_i
	// counters periodically — the paper counts them "since the beginning
	// of some reasonable time interval, say the week". Zero disables
	// automatic resets (callers may still ResetWindow by hand).
	FairnessWindow time.Duration
	// Metrics receives the server's operational counters, gauges, and
	// latency histograms (see internal/obs). Nil uses a fresh private
	// registry, so counters always work; frontends pass their own so the
	// core's series appear on the shared /metrics endpoint. A region's
	// shard labels its series {shard="<region>"}, so the shards' gauges
	// and counters stay separate on a shared registry.
	Metrics *obs.Registry
	// SelectionLogSize bounds the in-memory selection log (a ring buffer;
	// overwrites are counted by senseaid_selections_dropped_total). Zero
	// means DefaultSelectionLogSize.
	SelectionLogSize int
	// Journal, when set, receives a record of every persistent mutation
	// (the internal/persist subsystem appends them to the on-disk
	// journal). Appends run after the scheduling lock is released — the
	// same discipline as Dispatcher and DataSink callbacks — so an
	// implementation may do file I/O; it must be safe for concurrent use.
	// Nil disables journaling with no overhead on the scheduling path.
	Journal JournalSink
	// ShardJournal supplies each shard of a ShardedServer its journal
	// sink, keyed by region name ("" for the unnamed shard of a
	// deployment without regions): each shard persists to its own state
	// files. NewShardedServer uses it in place of Journal; NewServer
	// ignores it.
	ShardJournal func(region string) JournalSink
	// Tracer, when set, records schedule/select/upload spans for tasks
	// that carry a trace context and feeds the senseaid_stage_seconds
	// histograms. Nil disables tracing with no overhead beyond nil
	// checks. Sharded deployments share one tracer across shards.
	Tracer *obs.Tracer
	// Timeline, when set, receives per-task lifecycle events
	// (submitted/scheduled/selected/uploaded) for the admin /tasks
	// endpoint. Nil disables timelines.
	Timeline *obs.TimelineStore
	// AggTap, when set, receives every validated reading right after the
	// scheduling lock is released — the live-aggregation tier's feed
	// (internal/agg). It runs on the delivery path of every accepted
	// upload, so it must be fast and allocation-free in steady state; it
	// may call back into the server. Every shard of a ShardedServer calls
	// the tap, naming its region ("" for the unnamed shard). Nil disables
	// the tap with no overhead beyond a nil check.
	AggTap func(task TaskID, region string, deviceID string, reading sensors.Reading)
}

// DefaultServerConfig returns the stock configuration.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{Selector: DefaultSelectorConfig(), ValidateRegion: true}
}

// pendingDispatch tracks one outstanding schedule on one device.
type pendingDispatch struct {
	req      Request
	deviceID string
	// at is when the dispatch was decided — the start of the upload
	// stage span recorded when the reading arrives.
	at time.Time
}

// Server is the Sense-Aid server core: datastores, task handler (run and
// wait queues), device selector and task scheduler, per Algorithm 1. The
// environment drives time: call ProcessDue whenever the clock reaches a
// request's due time (NextWake says when that is) and data flows in via
// ReceiveData.
//
// Every method is safe for concurrent use: the server owns its own
// concurrency. Task and scheduling mutators serialise on an internal lock;
// device operations go to the DeviceStore, which carries its own lock, so
// control reports never contend with a scheduling pass; Stats and
// Selections keep their dedicated lock-free-of-the-scheduler read path, so
// monitoring never stops the scheduler. Dispatcher and DataSink callbacks
// are invoked only after the scheduling lock is released, so they may call
// back into the server.
//
// Lock hierarchy (acquire downwards, never upwards):
//
//	Server.mu -> DeviceStore.mu -> Server.statsMu
type Server struct {
	cfg ServerConfig
	// region is the name of the region this server is the shard of: it
	// prefixes minted task IDs ("west/task-1"), labels the server's own
	// series {shard="west"} and tags its spans — a tag, not a label, so
	// senseaid_stage_seconds keeps one label set. Empty for the unnamed
	// shard and for a lone Server.
	region   string
	selector *Selector
	devices  *DeviceStore
	dispatch Dispatcher

	// mu guards the scheduling state below: task store, queues, pending
	// dispatches, the round buffers, and the fairness window anchor.
	mu    sync.Mutex
	tasks map[TaskID]*Task
	sinks map[TaskID]DataSink
	run   requestQueue
	wait  requestQueue
	// due is processDueLocked's reused batch of requests leaving run.
	due     []Request
	pending map[string][]pendingDispatch // request ID -> outstanding
	// collected buffers one round's values per request for the
	// truth-discovery outlier check.
	collected map[string]map[string]float64
	nextTask  int
	// byClientID maps caller-supplied task identities to stored tasks for
	// idempotent resubmission (rebuilt from Task.ClientID on recovery).
	byClientID map[string]TaskID
	// jbuf stages journal records born under mu until the lock is
	// released; jseq numbers every record (see journal.go).
	jbuf *journalBatch
	// jidle parks the batch that is not in use. Not under mu: a batch
	// comes back from jemit, which runs after the lock is released.
	jidle atomic.Pointer[journalBatch]

	// windowStart anchors the current fairness accounting window.
	windowStart time.Time

	// scr is the scheduling pass's reusable selection scratch (running
	// top-k and the winners copied out of the store). Guarded by mu:
	// schedule and checkWaitQueue run with mu held, and everything kept
	// from it (outbound dispatches, selection log entries, pending
	// records) is copied before the next request reuses it.
	scr SelectScratch

	jseq atomic.Uint64

	registry *obs.Registry
	met      serverMetrics

	// tracer and timeline record per-task observability; both are
	// nil-safe, so the scheduling path calls them unconditionally.
	tracer   *obs.Tracer
	timeline *obs.TimelineStore

	// statsMu guards stats and sellog: the one corner of the server that
	// concurrent readers (admin endpoint, monitoring loops) may touch
	// while a scheduling pass runs.
	statsMu sync.Mutex
	stats   Stats
	sellog  selectionLog
}

// NewServer builds a lone server around a dispatcher: the shard type on
// its own, with no region. Frontends drive a ShardedServer instead.
func NewServer(cfg ServerConfig, d Dispatcher) (*Server, error) {
	return newServer(cfg, d, "")
}

// newServer builds the shard for a region ("" for none).
func newServer(cfg ServerConfig, d Dispatcher, region string) (*Server, error) {
	if d == nil {
		return nil, fmt.Errorf("core: nil dispatcher")
	}
	sel, err := NewSelector(cfg.Selector)
	if err != nil {
		return nil, err
	}
	if cfg.OutlierKMAD <= 0 {
		cfg.OutlierKMAD = 4
	}
	if cfg.OutlierToleranceAbs == 0 {
		cfg.OutlierToleranceAbs = 0.5
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var labels obs.Labels
	if region != "" {
		labels = obs.Labels{"shard": region}
	}
	return &Server{
		cfg:        cfg,
		region:     region,
		selector:   sel,
		devices:    NewDeviceStore(),
		tasks:      make(map[TaskID]*Task),
		sinks:      make(map[TaskID]DataSink),
		run:        requestQueue{byDue: true},
		pending:    make(map[string][]pendingDispatch),
		collected:  make(map[string]map[string]float64),
		byClientID: make(map[string]TaskID),
		dispatch:   d,
		registry:   reg,
		met:        newServerMetrics(reg, labels),
		sellog:     newSelectionLog(cfg.SelectionLogSize),
		tracer:     cfg.Tracer,
		timeline:   cfg.Timeline,
	}, nil
}

// noteOutcome records a reputation outcome and refreshes the device's
// reliability in the datastore; a no-op without a tracker. Outcomes are
// journaled explicitly so replay reproduces the exact EWMA fold without
// re-running truth discovery. Called with s.mu held (every caller is on
// the scheduling path), so the record is staged via jlog.
func (s *Server) noteOutcome(deviceID string, o reputation.Outcome) {
	if s.cfg.Reputation == nil {
		return
	}
	s.cfg.Reputation.Record(deviceID, o)
	s.devices.SetReliability(deviceID, s.cfg.Reputation.Score(deviceID))
	s.jlog(JournalRecord{Op: opOutcome, DeviceID: deviceID, Outcome: int(o)})
}

// Devices exposes the device datastore (registration, control reports).
func (s *Server) Devices() *DeviceStore { return s.devices }

// RegisterDevice adds or replaces a device record.
func (s *Server) RegisterDevice(d DeviceState) error {
	stored, n, err := s.devices.register(d)
	if err != nil {
		return err
	}
	s.met.devices.Set(float64(n))
	if s.cfg.Journal != nil {
		// Journal the record as stored (Register defaults responsiveness
		// and reliability), so replay restores it verbatim — the copy the
		// store made under its own lock, so a deregister or report landing
		// right behind the registration cannot change what is journaled.
		rec := stored // escapes; copied here so an unjournaled server allocates nothing
		s.jdirect(JournalRecord{Op: opRegister, Device: &rec})
	}
	return nil
}

// DeregisterDevice removes a device; an ID the store does not hold
// journals nothing.
func (s *Server) DeregisterDevice(id string) { s.takeDevice(id) }

// takeDevice removes a device, journaling a deregister, and hands over its
// record (DeviceStore.take); an ID the store does not hold journals nothing.
func (s *Server) takeDevice(id string) (DeviceState, bool) {
	rec, n, ok := s.devices.take(id)
	if ok {
		s.met.devices.Set(float64(n))
		s.jdirect(JournalRecord{Op: opDeregister, DeviceID: id})
	}
	return rec, ok
}

// putDevice stores a record takeDevice handed out of another shard,
// journaling a restore. It was valid where it was stored and nothing else
// refers to its Sensors array, so it is neither checked nor copied again.
func (s *Server) putDevice(rec *DeviceState) {
	s.met.devices.Set(float64(s.devices.put(rec)))
	if s.cfg.Journal != nil {
		journaled := *rec // escapes; copied here so an unjournaled re-home allocates nothing
		s.jdirect(JournalRecord{Op: opRestore, Device: &journaled})
	}
}

// UpdateDeviceState applies a device's periodic control report.
func (s *Server) UpdateDeviceState(id string, pos geo.Point, batteryPct float64, at time.Time) error {
	return s.devices.UpdateState(id, pos, batteryPct, at)
}

// UpdateDevicePrefs changes a device's crowdsensing budget, preserving
// its liveness state and fairness counters.
func (s *Server) UpdateDevicePrefs(id string, b power.Budget) error {
	found, err := s.updatePrefs(id, b)
	if err == nil && !found {
		return fmt.Errorf("core: prefs: unknown device %s", id)
	}
	return err
}

// updatePrefs is UpdateDevicePrefs telling "not stored here" (false,
// nil) from a refused budget; only a budget that was stored is journaled.
func (s *Server) updatePrefs(id string, b power.Budget) (found bool, err error) {
	if found, err = s.devices.updateBudget(id, b); found {
		s.jdirect(JournalRecord{Op: opPrefs, DeviceID: id, Budget: &b})
	}
	return found, err
}

// NoteDeviceEnergy adds crowdsensing energy spent by a device (the
// selector's E_i fairness term); energy for an ID the store does not hold
// journals nothing.
func (s *Server) NoteDeviceEnergy(id string, joules float64) { s.noteEnergy(id, joules) }

// noteEnergy is NoteDeviceEnergy reporting whether the store holds the
// device.
func (s *Server) noteEnergy(id string, joules float64) bool {
	found := s.devices.NoteEnergy(id, joules)
	if found && joules > 0 {
		s.jdirect(JournalRecord{Op: opEnergy, DeviceID: id, Joules: joules})
	}
	return found
}

// Stats returns a copy of the server counters. Safe to call concurrently
// with the scheduler.
func (s *Server) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// Selections returns the retained selection log, oldest first (Figure 9's
// raw data). The log is a bounded ring: SelectionsDropped reports how many
// older entries have been overwritten. Safe to call concurrently with the
// scheduler.
func (s *Server) Selections() []Selection {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.sellog.snapshot()
}

// SelectionsDropped counts selection-log entries lost to the ring buffer.
func (s *Server) SelectionsDropped() uint64 {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.sellog.dropped
}

// Metrics exposes the registry the server reports into.
func (s *Server) Metrics() *obs.Registry { return s.registry }

// TaskCount returns the number of stored tasks (for status endpoints).
func (s *Server) TaskCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tasks)
}

// bump applies a stats mutation under the stats lock and mirrors it onto
// a registry counter (nil skips the mirror, for gauge-like fields).
func (s *Server) bump(ctr *obs.Counter, f func(*Stats)) {
	if ctr != nil {
		ctr.Inc()
	}
	s.statsMu.Lock()
	f(&s.stats)
	s.statsMu.Unlock()
}

// Task returns a stored task.
func (s *Server) Task(id TaskID) (Task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[id]
	if !ok {
		return Task{}, false
	}
	return *t, true
}

// SubmitTask validates, stores and expands a task; its requests join the
// run queue. The sink receives the task's validated readings.
//
// Submission is idempotent on Task.ClientID: resubmitting the same
// client identity with a byte-identical spec returns the existing task's
// ID (rebinding the sink to the caller, who may be a CAS that
// reconnected after a restart) instead of minting a twin; the same
// identity with a different spec is an error. Without a ClientID every
// submission is a new task, as before.
func (s *Server) SubmitTask(t Task, now time.Time, sink DataSink) (TaskID, error) {
	if sink == nil {
		return "", fmt.Errorf("core: task needs a data sink")
	}
	// The signature is computed over the spec exactly as submitted, before
	// Normalize pins Start/End, so a retry of a duration-based spec still
	// matches the stored (normalized) task.
	sig := specSig(t)
	var recs *journalBatch
	defer func() { s.jemit(recs) }()
	s.mu.Lock()
	defer func() { recs = s.jtake(); s.mu.Unlock() }()
	if t.ClientID != "" {
		if existing, ok := s.byClientID[t.ClientID]; ok {
			if prev := s.tasks[existing]; prev != nil && prev.SpecSig == sig {
				s.sinks[existing] = sink
				return existing, nil
			}
			return "", fmt.Errorf("core: client task %q already exists as %s with a different spec", t.ClientID, existing)
		}
	}
	s.nextTask++
	t.ID = TaskID(fmt.Sprintf("task-%d", s.nextTask))
	if s.region != "" {
		t.ID = TaskID(s.region) + "/" + t.ID
	}
	t.SpecSig = sig
	if err := t.Normalize(now); err != nil {
		return "", err
	}
	reqs, err := (&t).Expand()
	if err != nil {
		return "", err
	}
	stored := t
	s.tasks[stored.ID] = &stored
	s.sinks[stored.ID] = sink
	if stored.ClientID != "" {
		s.byClientID[stored.ClientID] = stored.ID
	}
	for i := range reqs {
		reqs[i].Task = &stored
		s.run.push(reqs[i])
	}
	// Journal a private copy: the stored task can be mutated in place by
	// UpdateTaskParams after the lock drops, racing the sink's marshal.
	jt := stored
	s.jlog(JournalRecord{Op: opSubmit, At: now, Task: &jt, NextTask: s.nextTask})
	s.timeline.Note(string(stored.ID), "submitted", fmt.Sprintf("requests=%d", len(reqs)), now)
	s.timeline.Bind(string(stored.ID), stored.TraceID)
	s.met.tasksSubmitted.Inc()
	s.met.reqGenerated.Add(uint64(len(reqs)))
	s.statsMu.Lock()
	s.stats.TasksSubmitted++
	s.stats.RequestsGenerated += len(reqs)
	s.statsMu.Unlock()
	s.syncGauges()
	return stored.ID, nil
}

// UpdateTaskParams applies a mutation to an existing task; future requests
// are regenerated from now with the new parameters (past rounds stand).
func (s *Server) UpdateTaskParams(id TaskID, now time.Time, mutate func(*Task)) error {
	var recs *journalBatch
	defer func() { s.jemit(recs) }()
	s.mu.Lock()
	defer func() { recs = s.jtake(); s.mu.Unlock() }()
	t, ok := s.tasks[id]
	if !ok {
		return fmt.Errorf("core: update: unknown task %s", id)
	}
	updated := *t
	mutate(&updated)
	updated.ID = id
	updated.ClientID = t.ClientID
	updated.SpecSig = t.SpecSig
	if updated.Start.Before(now) {
		updated.Start = now
	}
	if err := updated.Validate(); err != nil {
		return err
	}
	reqs, err := (&updated).Expand()
	if err != nil {
		return err
	}
	// Drop the old schedule, install the new one.
	s.run.removeTask(id)
	s.wait.removeTask(id)
	*t = updated
	for i := range reqs {
		reqs[i].Task = t
		s.run.push(reqs[i])
	}
	jt := updated
	s.jlog(JournalRecord{Op: opUpdateTask, Task: &jt})
	s.met.reqGenerated.Add(uint64(len(reqs)))
	s.statsMu.Lock()
	s.stats.RequestsGenerated += len(reqs)
	s.statsMu.Unlock()
	s.syncGauges()
	return nil
}

// DeleteTask removes a task and its pending requests.
func (s *Server) DeleteTask(id TaskID) error {
	var recs *journalBatch
	defer func() { s.jemit(recs) }()
	s.mu.Lock()
	defer func() { recs = s.jtake(); s.mu.Unlock() }()
	t, ok := s.tasks[id]
	if !ok {
		return fmt.Errorf("core: delete: unknown task %s", id)
	}
	delete(s.tasks, id)
	delete(s.sinks, id)
	if t.ClientID != "" {
		delete(s.byClientID, t.ClientID)
	}
	s.run.removeTask(id)
	s.wait.removeTask(id)
	s.jlog(JournalRecord{Op: opDeleteTask, TaskID: id})
	s.syncGauges()
	return nil
}

// NextWake returns the earliest instant the server needs the environment
// to call ProcessDue: the soonest due time across both queues.
func (s *Server) NextWake() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best time.Time
	ok := false
	if r, has := s.run.peek(); has {
		best, ok = r.Due, true
	}
	if r, has := s.wait.peek(); has && (!ok || r.Due.Before(best)) {
		best, ok = r.Due, true
	}
	return best, ok
}

// outbound is one dispatch decided during a scheduling pass. Dispatches
// are delivered after the scheduling lock is released so a Dispatcher can
// block on I/O (or call back into the server) without stalling concurrent
// mutators.
type outbound struct {
	req Request
	dev DeviceState
}

// ProcessDue runs the Algorithm 1 loop at an instant: roll the fairness
// window if due, expire dead requests and missed dispatches, retry the
// wait queue, then pop and schedule every run-queue request whose due
// time has arrived. Safe for concurrent use.
func (s *Server) ProcessDue(now time.Time) {
	s.met.rounds.Inc()
	var out []outbound
	s.mu.Lock()
	s.processDueLocked(now, &out)
	// Snapshot each outbound request's task while still under the lock:
	// the dispatcher runs after release and may hold the request past a
	// flush delay, while update_task_param rewrites the live *Task in
	// place. Strings and times are immutable, so a shallow copy is a
	// consistent read-only view.
	for i := range out {
		t := *out[i].req.Task
		out[i].req.Task = &t
	}
	s.syncGauges()
	recs := s.jtake()
	s.mu.Unlock()
	s.jemit(recs)
	for _, o := range out {
		s.dispatch.Dispatch(o.req, o.dev)
	}
}

func (s *Server) processDueLocked(now time.Time, out *[]outbound) {
	if s.cfg.FairnessWindow > 0 {
		if s.windowStart.IsZero() {
			s.windowStart = now
			s.jlog(JournalRecord{Op: opOpenWindow, At: now})
		}
		if elapsed := now.Sub(s.windowStart); elapsed >= s.cfg.FairnessWindow {
			// However many window boundaries passed, one reset covers them
			// (zeroing the counters is idempotent), and the anchor advances
			// to the boundary at or before now in O(1): a restored anchor
			// from long before the crash must not spin this once per missed
			// window, journaling each.
			s.devices.ResetWindow()
			s.windowStart = s.windowStart.Add(elapsed - elapsed%s.cfg.FairnessWindow)
			s.jlog(JournalRecord{Op: opResetWindow, At: s.windowStart})
		}
	}
	s.expireDispatches(now)
	s.checkWaitQueue(now, out)
	// Everything due leaves the run queue at once and is scheduled in
	// deadline order. Popping a deadline-sorted queue only while its head
	// is due would hold a due request behind a later one with an earlier
	// deadline, for as long as depended on which other tasks shared the
	// queue — and so on how the deployment is sharded.
	due := s.due[:0]
	for {
		r, ok := s.run.peek()
		if !ok || r.Due.After(now) {
			break
		}
		due = append(due, s.run.pop())
	}
	slices.SortFunc(due, cmpDeadline)
	for _, r := range due {
		if r.Deadline.Before(now) {
			s.bump(s.met.reqExpired, func(st *Stats) { st.RequestsExpired++ })
			ref := refOf(r)
			s.jlog(JournalRecord{Op: opReqExpired, Req: &ref, From: "run"})
			continue
		}
		s.schedule(r, now, out)
	}
	clear(due)
	s.due = due[:0]
}

// schedule runs the device selector for one request and queues dispatches
// to the chosen devices; unsatisfiable requests move to the wait queue.
// Called with s.mu held.
func (s *Server) schedule(r Request, now time.Time, out *[]outbound) {
	// Spans join the trace the task was submitted under (inert for
	// untraced tasks); select is a child of schedule so the trace tree
	// shows the selector's share of the pass.
	span := s.tracer.StartSpan(r.Task.TraceContext(), obs.StageSchedule, s.region)
	defer span.Finish()
	id := r.ID() // formatted once: the ID keys the pending map, the log and the timeline
	s.timeline.Note(string(r.Task.ID), "scheduled", id, now)
	selSpan := s.tracer.StartSpan(span.Context(), obs.StageSelect, s.region)
	selStart := time.Now()
	// One pass over the datastore's spatial index, in place: the scan is
	// O(devices near the task area), copies only the winners, and the
	// reused scratch keeps the steady state allocation-free.
	want := r.Task.SpatialDensity
	keep := want
	if s.cfg.SelectAll {
		keep = keepAll
	}
	inArea, qualified := s.selector.pick(s.devices, r.Task, now, keep, &s.scr)
	elapsed := time.Since(selStart)
	// Waitlisting is an expected outcome, not a span failure: the select
	// span closes cleanly either way so scarce-device periods don't
	// flood the retained-trace ring with error promotions.
	selSpan.Finish()
	s.met.selectionSeconds.Observe(elapsed.Seconds())
	s.met.selectionNS.Add(uint64(elapsed.Nanoseconds()))
	s.met.selectionCands.Add(uint64(inArea))
	if qualified < want {
		// n > N: "move t to wait queue".
		s.wait.push(r)
		s.bump(s.met.reqWaitlisted, func(st *Stats) { st.RequestsWaitlisted++ })
		ref := refOf(r)
		s.jlog(JournalRecord{Op: opWaitlist, Req: &ref})
		return
	}
	selected := s.scr.winners
	sel := Selection{Request: id, At: now, Devices: make([]string, 0, len(selected))}
	pending := s.pending[id]
	for _, d := range selected {
		pending = append(pending, pendingDispatch{req: r, deviceID: d.ID, at: now})
		sel.Devices = append(sel.Devices, d.ID)
		*out = append(*out, outbound{req: r, dev: d})
	}
	s.pending[id] = pending
	s.devices.NoteSelected(sel.Devices...)
	if s.timeline != nil {
		s.timeline.Note(string(r.Task.ID), "selected", fmt.Sprintf("%s devices=%d", id, len(selected)), now)
	}
	ref := refOf(r)
	s.jlog(JournalRecord{Op: opDispatch, At: now, Req: &ref, Devices: sel.Devices})
	s.statsMu.Lock()
	dropped := s.sellog.add(sel)
	s.stats.RequestsSatisfied++
	s.statsMu.Unlock()
	if dropped {
		s.met.selectionsDropped.Inc()
	}
	s.met.reqSatisfied.Inc()
}

// checkWaitQueue is the wait_check_thread: requests whose density can now
// be met go back through scheduling; requests past deadline expire.
// Called with s.mu held.
func (s *Server) checkWaitQueue(now time.Time, out *[]outbound) {
	var keep []Request
	for s.wait.Len() > 0 {
		r := s.wait.pop()
		if r.Deadline.Before(now) {
			// No longer waitlisted: the gauge comes down as the expiry
			// counter goes up, so outcomes never exceed generated.
			s.bump(s.met.reqExpired, func(st *Stats) {
				st.RequestsWaitlisted--
				st.RequestsExpired++
			})
			ref := refOf(r)
			s.jlog(JournalRecord{Op: opReqExpired, Req: &ref, From: "wait"})
			continue
		}
		if _, qualified := s.selector.pick(s.devices, r.Task, now, 0, &s.scr); qualified >= r.Task.SpatialDensity {
			// Satisfiable now: hand straight to the scheduler (moving
			// it to the run queue and popping it would be equivalent).
			s.bump(nil, func(st *Stats) { st.RequestsWaitlisted-- })
			s.schedule(r, now, out)
			continue
		}
		keep = append(keep, r)
	}
	for _, r := range keep {
		s.wait.push(r)
	}
}

// expireDispatches marks devices that missed their upload deadline as
// unresponsive so the selector avoids them until they deliver again.
// Called with s.mu held.
func (s *Server) expireDispatches(now time.Time) {
	// Requests are visited in ID order, not the map's, so a pass journals
	// the same records in the same order every time.
	var expired []string
	for id, list := range s.pending {
		for _, p := range list {
			if p.req.Deadline.Before(now) {
				expired = append(expired, id)
				break
			}
		}
	}
	slices.Sort(expired)
	for _, id := range expired {
		list := s.pending[id]
		var live []pendingDispatch
		for _, p := range list {
			if p.req.Deadline.Before(now) {
				s.devices.SetResponsive(p.deviceID, false)
				s.jlog(JournalRecord{Op: opMiss, ReqID: id, DeviceID: p.deviceID})
				s.noteOutcome(p.deviceID, reputation.OutcomeMissed)
				s.bump(s.met.dispatchExpiries, func(st *Stats) { st.DispatchesMissed++ })
				continue
			}
			live = append(live, p)
		}
		if len(live) == 0 {
			delete(s.pending, id)
			s.finishRound(id)
		} else {
			s.pending[id] = live
		}
	}
}

// finishRound runs the truth-discovery outlier check once a request has
// no outstanding dispatches, then drops the round's buffered values.
// Called with s.mu held.
func (s *Server) finishRound(reqID string) {
	values, ok := s.collected[reqID]
	if !ok {
		return
	}
	delete(s.collected, reqID)
	if s.cfg.Reputation == nil {
		return
	}
	flagged := reputation.FlagOutliers(values, s.cfg.OutlierKMAD, s.cfg.OutlierToleranceAbs)
	// Outcomes are journaled in device order, not the map's.
	devs := make([]string, 0, len(values))
	for dev := range values {
		devs = append(devs, dev)
	}
	slices.Sort(devs)
	for _, dev := range devs {
		if flagged[dev] {
			s.noteOutcome(dev, reputation.OutcomeOutlier)
		} else {
			s.noteOutcome(dev, reputation.OutcomeAccepted)
		}
	}
}

// ReceiveData ingests one reading from a device for a request, validates
// it, and forwards it to the task's application server sink. The data
// path runs through the Sense-Aid server (never device -> CAS directly)
// both for privacy filtering and so unresponsive devices are noticed.
// The sink runs after the scheduling lock is released, so a sink may call
// back into the server (adaptive campaigns mutate task parameters from
// the reading path).
func (s *Server) ReceiveData(reqID string, deviceID string, reading sensors.Reading, now time.Time) error {
	s.mu.Lock()
	sink, taskID, err := s.receiveDataLocked(reqID, deviceID, reading, now)
	recs := s.jtake()
	s.mu.Unlock()
	s.jemit(recs)
	if err != nil {
		return err
	}
	if s.cfg.AggTap != nil {
		s.cfg.AggTap(taskID, s.region, deviceID, reading)
	}
	if sink != nil {
		sink(taskID, deviceID, reading)
	}
	return nil
}

// receiveDataLocked performs the validation and bookkeeping of ReceiveData
// under the scheduling lock and returns the sink to invoke (with its task
// ID) once the lock is dropped. Called with s.mu held; the caller drains
// the journal batch after unlocking.
func (s *Server) receiveDataLocked(reqID string, deviceID string, reading sensors.Reading, now time.Time) (DataSink, TaskID, error) {
	list := s.pending[reqID]
	idx := -1
	for i, p := range list {
		if p.deviceID == deviceID {
			idx = i
			break
		}
	}
	if idx == -1 {
		s.bump(s.met.readingsRejected, func(st *Stats) { st.ReadingsRejected++ })
		s.jlog(JournalRecord{Op: opReject, ReqID: reqID, DeviceID: deviceID})
		return nil, "", fmt.Errorf("core: unsolicited data from %s for %s", deviceID, reqID)
	}
	p := list[idx]

	if err := s.validateReading(p.req, deviceID, reading); err != nil {
		s.bump(s.met.readingsRejected, func(st *Stats) { st.ReadingsRejected++ })
		s.jlog(JournalRecord{Op: opReject, ReqID: reqID, DeviceID: deviceID})
		s.noteOutcome(deviceID, reputation.OutcomeRejected)
		return nil, "", err
	}

	// Journal before the round bookkeeping, so any outcome records from a
	// completing round replay after the receive that triggered them.
	s.jlog(JournalRecord{Op: opReceive, ReqID: reqID, DeviceID: deviceID, Value: reading.Value})

	// Clear the pending entry and restore responsiveness.
	s.pending[reqID] = append(list[:idx], list[idx+1:]...)
	s.devices.SetResponsive(deviceID, true)
	s.bump(s.met.readingsAccepted, func(st *Stats) { st.ReadingsAccepted++ })

	// The upload stage ran from the dispatch decision until this
	// reading's arrival; it is recorded retroactively because its two
	// endpoints live in different calls. Pending entries rebuilt by
	// journal recovery have no dispatch time — their duration would be
	// garbage, so they are not measured.
	if !p.at.IsZero() {
		s.tracer.RecordSpan(p.req.Task.TraceContext(), obs.StageUpload, s.region, p.at, now, "")
	}
	s.timeline.Note(string(p.req.Task.ID), "uploaded", deviceID, now)

	// Buffer the value for the round's truth-discovery check; the check
	// (and the accepted/outlier outcomes) runs when the round completes.
	if s.cfg.Reputation != nil {
		vals, ok := s.collected[reqID]
		if !ok {
			vals = make(map[string]float64)
			s.collected[reqID] = vals
		}
		vals[deviceID] = reading.Value
	}
	if len(s.pending[reqID]) == 0 {
		delete(s.pending, reqID)
		s.finishRound(reqID)
	}
	return s.sinks[p.req.Task.ID], p.req.Task.ID, nil
}

// NoteDispatchFailure reports that a dispatched schedule never reached
// its device. Without it the core would believe the request pending
// until its deadline, holding a selection slot for a device that never
// saw the schedule. The failed entry is cleared, the device is marked
// unresponsive (the selector skips it until it delivers again), and the
// miss feeds the reputation tracker like a deadline expiry would — so
// the next scheduling round can pick a replacement immediately.
func (s *Server) NoteDispatchFailure(reqID, deviceID string) {
	var recs *journalBatch
	defer func() { s.jemit(recs) }()
	s.mu.Lock()
	defer func() { recs = s.jtake(); s.mu.Unlock() }()
	list := s.pending[reqID]
	idx := -1
	for i, p := range list {
		if p.deviceID == deviceID {
			idx = i
			break
		}
	}
	if idx == -1 {
		return // already delivered, expired, or never dispatched
	}
	s.pending[reqID] = append(list[:idx], list[idx+1:]...)
	s.devices.SetResponsive(deviceID, false)
	s.jlog(JournalRecord{Op: opDispatchFail, ReqID: reqID, DeviceID: deviceID})
	s.noteOutcome(deviceID, reputation.OutcomeMissed)
	s.bump(s.met.dispatchFailures, func(st *Stats) { st.DispatchesFailed++ })
	if len(s.pending[reqID]) == 0 {
		delete(s.pending, reqID)
		s.finishRound(reqID)
	}
}

// validateReading applies the paper's data checks: right sensor, sane
// timestamp, and (optionally) the device still inside the task region.
func (s *Server) validateReading(req Request, deviceID string, reading sensors.Reading) error {
	if reading.Sensor != req.Task.Sensor {
		return fmt.Errorf("core: %s sent %s data for a %s task", deviceID, reading.Sensor, req.Task.Sensor)
	}
	if reading.At.Before(req.Due.Add(-time.Minute)) {
		return fmt.Errorf("core: stale reading from %s (taken %v, due %v)", deviceID, reading.At, req.Due)
	}
	if s.cfg.ValidateRegion && !req.Task.Area.Contains(reading.Where) {
		return fmt.Errorf("core: reading from %s outside task region", deviceID)
	}
	return nil
}
