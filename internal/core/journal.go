package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"

	"senseaid/internal/obs"
	"senseaid/internal/power"
	"senseaid/internal/reputation"
)

// This file is the core's durability contract: what one Server persists
// (SnapshotState), the mutation grammar it journals between snapshots
// (JournalRecord), and how a fresh server rebuilds itself from the two
// (Recover). The byte-level framing, CRC checking, and file rotation
// live in internal/persist; the core only defines the payloads, so the
// two packages compose without a dependency cycle.
//
// Journal ordering: every record carries a sequence number from one
// monotonic per-server counter. Records born on the scheduling path
// (submit, dispatch, receive, expiry …) are numbered with Server.mu
// held, so their order is exact. Device-path records (register, prefs,
// energy …) are numbered after their mutation commits, without the
// scheduling lock — a snapshot racing one of those may both contain the
// mutation and precede the record's number, in which case replay applies
// the record a second time. Re-applying register/restore/deregister/
// prefs is idempotent; a doubly-applied energy record inflates E_i by
// one report, inside the fairness window's tolerance (the counters reset
// every window). DESIGN.md §11 carries the full crash-consistency
// argument.

// Journal record operations. Grammar (fields beyond Seq/Op):
//
//	submit        Task, NextTask        task stored (normalized), counter floor
//	update_task   Task                  full updated task; requests regenerate
//	delete_task   TaskID
//	register      Device                stored record (post-defaulting)
//	restore       Device                verbatim record (sharded re-home)
//	deregister    DeviceID
//	prefs         DeviceID, Budget
//	energy        DeviceID, Joules
//	dispatch      Req, Devices, At      selection satisfied; pending per device
//	waitlist      Req                   request parked (density unmet)
//	req_expired   Req, From             deadline passed unserved ("run"|"wait")
//	miss          ReqID, DeviceID       upload deadline missed
//	dispatch_fail ReqID, DeviceID       schedule never reached the device
//	receive       ReqID, DeviceID, Value   validated reading accepted
//	reject        ReqID, DeviceID       reading failed validation (stats only)
//	outcome       DeviceID, Outcome     reputation event (explicit, no inference)
//	reset_window  At                    fairness counters zeroed
//
// Reputation outcomes are journaled explicitly rather than re-derived
// from receive/miss records, so replay never re-runs truth discovery:
// the EWMA fold is replayed with the exact outcomes the live server
// recorded, in order.
const (
	opSubmit       = "submit"
	opUpdateTask   = "update_task"
	opDeleteTask   = "delete_task"
	opRegister     = "register"
	opRestore      = "restore"
	opDeregister   = "deregister"
	opPrefs        = "prefs"
	opEnergy       = "energy"
	opDispatch     = "dispatch"
	opWaitlist     = "waitlist"
	opReqExpired   = "req_expired"
	opMiss         = "miss"
	opDispatchFail = "dispatch_fail"
	opReceive      = "receive"
	opReject       = "reject"
	opOutcome      = "outcome"
	opResetWindow  = "reset_window"
)

// RequestRef names one request without its task pointer, so queue and
// pending state serialize; Recover re-attaches the stored task.
type RequestRef struct {
	TaskID   TaskID    `json:"task"`
	Seq      int       `json:"seq"`
	Due      time.Time `json:"due"`
	Deadline time.Time `json:"deadline"`
}

func refOf(r Request) RequestRef {
	return RequestRef{TaskID: r.Task.ID, Seq: r.Seq, Due: r.Due, Deadline: r.Deadline}
}

// reqFromRef re-attaches a reference to its stored task. Caller holds
// s.mu. False when the task is gone (a hostile or stale record).
func (s *Server) reqFromRef(ref *RequestRef) (Request, bool) {
	if ref == nil || ref.Seq < 0 {
		return Request{}, false
	}
	t, ok := s.tasks[ref.TaskID]
	if !ok {
		return Request{}, false
	}
	return Request{Task: t, Seq: ref.Seq, Due: ref.Due, Deadline: ref.Deadline}, true
}

// JournalRecord is one journaled mutation. One flat struct with
// omitempty union fields keeps the decode path free of per-op types;
// Op selects which fields are meaningful (see the grammar above).
type JournalRecord struct {
	Seq      uint64        `json:"n"`
	Op       string        `json:"op"`
	At       time.Time     `json:"at,omitempty"`
	Task     *Task         `json:"task,omitempty"`
	NextTask int           `json:"next_task,omitempty"`
	TaskID   TaskID        `json:"task_id,omitempty"`
	Device   *DeviceState  `json:"device,omitempty"`
	DeviceID string        `json:"device_id,omitempty"`
	Devices  []string      `json:"devices,omitempty"`
	Budget   *power.Budget `json:"budget,omitempty"`
	Joules   float64       `json:"joules,omitempty"`
	Req      *RequestRef   `json:"req,omitempty"`
	ReqID    string        `json:"req_id,omitempty"`
	Value    float64       `json:"value,omitempty"`
	From     string        `json:"from,omitempty"`
	Outcome  int           `json:"outcome,omitempty"`
}

// JournalSink receives journal records. Appends happen after the
// scheduling lock is released (the same discipline as Dispatcher and
// DataSink callbacks), so an implementation may do file I/O; it must be
// safe for concurrent use (device-path records are appended without the
// scheduling lock, and shards run concurrently).
type JournalSink interface {
	Append(rec JournalRecord)
}

// journalBatch is one locked section's staged records. A server keeps
// two and alternates them — one staging under s.mu while the other is
// being emitted outside it — so the steady state grows no slices.
type journalBatch struct {
	recs []JournalRecord
}

// jlog stages one record while s.mu is held; the staged batch is drained
// by jtake just before the lock is released and emitted by jemit after,
// preserving the DESIGN.md §8 rule that no I/O runs under the
// scheduling lock. The sequence number is assigned here, under the
// lock, so scheduling-path order is exact.
func (s *Server) jlog(rec JournalRecord) {
	if s.cfg.Journal == nil {
		return
	}
	rec.Seq = s.jseq.Add(1)
	if s.jbuf == nil {
		if s.jbuf = s.jidle.Swap(nil); s.jbuf == nil {
			// First use, or both batches are out being emitted.
			s.jbuf = new(journalBatch)
		}
	}
	s.jbuf.recs = append(s.jbuf.recs, rec)
}

// jtake drains the staged records. Caller holds s.mu.
func (s *Server) jtake() *journalBatch {
	b := s.jbuf
	s.jbuf = nil
	return b
}

// jemit appends drained records to the sink; called without s.mu. The
// batch then goes back for reuse, zeroed so the records it held (their
// tasks, device records, ID lists) are not pinned until it next fills.
func (s *Server) jemit(b *journalBatch) {
	if b == nil {
		return
	}
	for i := range b.recs {
		s.cfg.Journal.Append(b.recs[i])
	}
	clear(b.recs)
	b.recs = b.recs[:0]
	s.jidle.Store(b)
}

// jdirect numbers and appends one device-path record. Called without
// s.mu, after the device mutation committed: the number is therefore
// assigned post-mutation (see the ordering note at the top of the file).
func (s *Server) jdirect(rec JournalRecord) {
	if s.cfg.Journal == nil {
		return
	}
	rec.Seq = s.jseq.Add(1)
	s.cfg.Journal.Append(rec)
}

// PendingRecord serializes one outstanding dispatch.
type PendingRecord struct {
	Req      RequestRef `json:"req"`
	DeviceID string     `json:"device"`
}

// SnapshotState is everything one Server persists: tasks (with their
// client identities), both request queues, outstanding dispatches with
// their deadlines, the in-flight truth-discovery buffers, device records
// (liveness, reliability, fairness counters), reputation state, the
// stats counters, and the journal sequence the snapshot is consistent
// with. Sinks are deliberately absent — they are live callbacks; Recover
// takes a factory to rebind them.
type SnapshotState struct {
	JournalSeq  uint64                        `json:"journal_seq"`
	NextTask    int                           `json:"next_task"`
	WindowStart time.Time                     `json:"window_start,omitzero"`
	Tasks       []Task                        `json:"tasks,omitempty"`
	Run         []RequestRef                  `json:"run,omitempty"`
	Wait        []RequestRef                  `json:"wait,omitempty"`
	Pending     []PendingRecord               `json:"pending,omitempty"`
	Collected   map[string]map[string]float64 `json:"collected,omitempty"`
	Devices     []DeviceState                 `json:"devices,omitempty"`
	Reputation  *reputation.State             `json:"reputation,omitempty"`
	Stats       Stats                         `json:"stats"`
}

// sortRefs orders request references like the queues' Less, so two
// snapshots of identical state compare equal regardless of heap layout.
func sortRefs(refs []RequestRef) {
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		if !a.Deadline.Equal(b.Deadline) {
			return a.Deadline.Before(b.Deadline)
		}
		if !a.Due.Equal(b.Due) {
			return a.Due.Before(b.Due)
		}
		if a.TaskID != b.TaskID {
			return a.TaskID < b.TaskID
		}
		return a.Seq < b.Seq
	})
}

// Snapshot captures the server's persistent state at one instant,
// consistent with every journal record numbered at or below its
// JournalSeq. Safe for concurrent use.
func (s *Server) Snapshot() SnapshotState {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SnapshotState{
		JournalSeq:  s.jseq.Load(),
		NextTask:    s.nextTask,
		WindowStart: s.windowStart,
	}
	taskIDs := make([]TaskID, 0, len(s.tasks))
	for id := range s.tasks {
		taskIDs = append(taskIDs, id)
	}
	sort.Slice(taskIDs, func(i, j int) bool { return taskIDs[i] < taskIDs[j] })
	for _, id := range taskIDs {
		snap.Tasks = append(snap.Tasks, *s.tasks[id])
	}
	for _, r := range s.run.items {
		snap.Run = append(snap.Run, refOf(r))
	}
	for _, r := range s.wait.items {
		snap.Wait = append(snap.Wait, refOf(r))
	}
	sortRefs(snap.Run)
	sortRefs(snap.Wait)
	reqIDs := make([]string, 0, len(s.pending))
	for id := range s.pending {
		reqIDs = append(reqIDs, id)
	}
	sort.Strings(reqIDs)
	for _, id := range reqIDs {
		for _, p := range s.pending[id] {
			snap.Pending = append(snap.Pending, PendingRecord{Req: refOf(p.req), DeviceID: p.deviceID})
		}
	}
	if len(s.collected) > 0 {
		snap.Collected = make(map[string]map[string]float64, len(s.collected))
		for req, vals := range s.collected {
			cp := make(map[string]float64, len(vals))
			for dev, v := range vals {
				cp[dev] = v
			}
			snap.Collected[req] = cp
		}
	}
	snap.Devices = s.devices.All()
	if s.cfg.Reputation != nil {
		st := s.cfg.Reputation.Export()
		snap.Reputation = &st
	}
	s.statsMu.Lock()
	snap.Stats = s.stats
	s.statsMu.Unlock()
	return snap
}

// RecoveryResult summarizes a Recover pass.
type RecoveryResult struct {
	// Applied counts journal records folded into the restored state.
	Applied int
	// Skipped counts records and snapshot entries that were malformed,
	// referenced missing state, or duplicated an already-applied sequence
	// number. Recovery never fails on one bad record — the corrupt unit
	// is dropped and counted, everything salvageable is kept.
	Skipped int
}

// Recover installs a snapshot and replays journal records on a fresh
// server. Records at or below the snapshot's sequence (already inside
// it) and duplicate sequences (the retained previous journal epoch) are
// filtered; the rest apply in sequence order. sinkFor supplies the data
// sink for every restored task — sinks are live callbacks and cannot be
// persisted, so the frontend rebinds them (the netserver routes to
// whichever CAS currently claims the task).
//
// Recover must run before the server serves traffic: it refuses a
// server that already holds tasks, devices, or journal history.
func (s *Server) Recover(snap *SnapshotState, records []JournalRecord, sinkFor func(TaskID) DataSink) (RecoveryResult, error) {
	var res RecoveryResult
	if sinkFor == nil {
		return res, fmt.Errorf("core: recover needs a sink factory")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tasks) != 0 || s.devices.Len() != 0 || s.jseq.Load() != 0 {
		return res, fmt.Errorf("core: recover on a server that already has state")
	}
	var last uint64
	if snap != nil {
		last = snap.JournalSeq
		s.installSnapshotLocked(snap, sinkFor, &res)
	}
	// The caller's records are read in place, never copied or written
	// (applyRecord does not write through its record): directly when they
	// are already in sequence order, else through a stably sorted
	// permutation — device-path appends land a few places out of order
	// (see the top of the file), so a busy journal rarely is sorted, and
	// a stable sort's insertion passes make short work of one that nearly
	// is.
	var order []int32
	if !slices.IsSortedFunc(records, func(a, b JournalRecord) int { return cmp.Compare(a.Seq, b.Seq) }) {
		order = make([]int32, len(records))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(records[a].Seq, records[b].Seq) })
	}
	for k := range records {
		rec := &records[k]
		if order != nil {
			rec = &records[order[k]]
		}
		if rec.Seq <= last {
			// Inside the snapshot already, a duplicate from the retained
			// previous epoch, or an unnumbered (hostile) record.
			res.Skipped++
			continue
		}
		if s.applyRecord(rec, sinkFor) {
			res.Applied++
		} else {
			res.Skipped++
		}
		last = rec.Seq
	}
	s.jseq.Store(last)
	s.met.devices.Set(float64(s.devices.Len()))
	s.syncGauges()
	return res, nil
}

// installSnapshotLocked loads a snapshot's contents. Caller holds s.mu
// on a fresh server. Malformed entries are skipped and counted, never
// fatal: a snapshot is operator-visible JSON under a CRC, so decode-level
// corruption is caught upstream and anything wrong here is either
// hand-editing or a version skew — salvage what validates.
func (s *Server) installSnapshotLocked(snap *SnapshotState, sinkFor func(TaskID) DataSink, res *RecoveryResult) {
	if snap.NextTask > 0 {
		s.nextTask = snap.NextTask
	}
	s.windowStart = snap.WindowStart
	for i := range snap.Tasks {
		t := snap.Tasks[i]
		if t.ID == "" || t.Validate() != nil {
			res.Skipped++
			continue
		}
		stored := t
		s.tasks[stored.ID] = &stored
		s.sinks[stored.ID] = sinkFor(stored.ID)
		if stored.ClientID != "" {
			s.byClientID[stored.ClientID] = stored.ID
		}
	}
	for i := range snap.Run {
		if r, ok := s.reqFromRef(&snap.Run[i]); ok {
			s.run.push(r)
		} else {
			res.Skipped++
		}
	}
	for i := range snap.Wait {
		if r, ok := s.reqFromRef(&snap.Wait[i]); ok {
			s.wait.push(r)
		} else {
			res.Skipped++
		}
	}
	for i := range snap.Pending {
		p := snap.Pending[i]
		r, ok := s.reqFromRef(&p.Req)
		if !ok || p.DeviceID == "" {
			res.Skipped++
			continue
		}
		id := r.ID()
		s.pending[id] = append(s.pending[id], pendingDispatch{req: r, deviceID: p.DeviceID})
	}
	for req, vals := range snap.Collected {
		if req == "" || len(vals) == 0 {
			continue
		}
		cp := make(map[string]float64, len(vals))
		for dev, v := range vals {
			cp[dev] = v
		}
		s.collected[req] = cp
	}
	for i := range snap.Devices {
		if err := s.devices.Restore(snap.Devices[i]); err != nil {
			res.Skipped++
		}
	}
	if snap.Reputation != nil && s.cfg.Reputation != nil {
		s.cfg.Reputation.Import(*snap.Reputation)
	}
	s.restoreStats(snap.Stats)
}

// restoreStats reinstates the counters and re-inflates their registry
// mirrors, so neither Stats() nor /metrics resets to zero across a
// restart (a restart must be distinguishable from a traffic cliff only
// by senseaid_restarts_total). RequestsWaitlisted is a current count,
// not a cumulative one, so its event counter is not seeded from it.
func (s *Server) restoreStats(st Stats) {
	s.statsMu.Lock()
	s.stats = st
	s.statsMu.Unlock()
	add := func(ctr *obs.Counter, n int) {
		if n > 0 {
			ctr.Add(uint64(n))
		}
	}
	add(s.met.tasksSubmitted, st.TasksSubmitted)
	add(s.met.reqGenerated, st.RequestsGenerated)
	add(s.met.reqSatisfied, st.RequestsSatisfied)
	add(s.met.reqExpired, st.RequestsExpired)
	add(s.met.dispatchExpiries, st.DispatchesMissed)
	add(s.met.dispatchFailures, st.DispatchesFailed)
	add(s.met.readingsAccepted, st.ReadingsAccepted)
	add(s.met.readingsRejected, st.ReadingsRejected)
}

// applyRecord folds one journal record into the state, mirroring exactly
// what the live mutator did — no re-validation of readings, no re-run of
// selection or truth discovery, the same stats and metric bumps. Caller
// holds s.mu. Returns false (and changes nothing) for malformed records
// or references to missing state; it must never panic, whatever the
// record contains — journals are attacker-reachable bytes on disk — and
// must never write through rec, which is the caller's record in place.
func (s *Server) applyRecord(rec *JournalRecord, sinkFor func(TaskID) DataSink) bool {
	switch rec.Op {
	case opSubmit:
		if rec.Task == nil || rec.Task.ID == "" || rec.Task.Validate() != nil {
			return false
		}
		if _, exists := s.tasks[rec.Task.ID]; exists {
			return false
		}
		stored := *rec.Task
		reqs, err := (&stored).Expand()
		if err != nil {
			return false
		}
		s.tasks[stored.ID] = &stored
		s.sinks[stored.ID] = sinkFor(stored.ID)
		if stored.ClientID != "" {
			s.byClientID[stored.ClientID] = stored.ID
		}
		for i := range reqs {
			reqs[i].Task = &stored
			s.run.push(reqs[i])
		}
		if rec.NextTask > s.nextTask {
			s.nextTask = rec.NextTask
		}
		s.met.tasksSubmitted.Inc()
		s.met.reqGenerated.Add(uint64(len(reqs)))
		s.statsMu.Lock()
		s.stats.TasksSubmitted++
		s.stats.RequestsGenerated += len(reqs)
		s.statsMu.Unlock()
		return true

	case opUpdateTask:
		if rec.Task == nil || rec.Task.ID == "" || rec.Task.Validate() != nil {
			return false
		}
		t, ok := s.tasks[rec.Task.ID]
		if !ok {
			return false
		}
		updated := *rec.Task
		reqs, err := (&updated).Expand()
		if err != nil {
			return false
		}
		s.run.removeTask(updated.ID)
		s.wait.removeTask(updated.ID)
		*t = updated
		for i := range reqs {
			reqs[i].Task = t
			s.run.push(reqs[i])
		}
		s.met.reqGenerated.Add(uint64(len(reqs)))
		s.statsMu.Lock()
		s.stats.RequestsGenerated += len(reqs)
		s.statsMu.Unlock()
		return true

	case opDeleteTask:
		t, ok := s.tasks[rec.TaskID]
		if !ok {
			return false
		}
		delete(s.tasks, rec.TaskID)
		delete(s.sinks, rec.TaskID)
		if t.ClientID != "" {
			delete(s.byClientID, t.ClientID)
		}
		s.run.removeTask(rec.TaskID)
		s.wait.removeTask(rec.TaskID)
		return true

	case opRegister, opRestore:
		if rec.Device == nil {
			return false
		}
		if err := s.devices.Restore(*rec.Device); err != nil {
			return false
		}
		return true

	case opDeregister:
		if rec.DeviceID == "" {
			return false
		}
		s.devices.Deregister(rec.DeviceID)
		return true

	case opPrefs:
		if rec.DeviceID == "" || rec.Budget == nil {
			return false
		}
		return s.devices.UpdateBudget(rec.DeviceID, *rec.Budget) == nil

	case opEnergy:
		if rec.DeviceID == "" {
			return false
		}
		s.devices.NoteEnergy(rec.DeviceID, rec.Joules)
		return true

	case opDispatch:
		r, ok := s.reqFromRef(rec.Req)
		if !ok || len(rec.Devices) == 0 {
			return false
		}
		id := r.ID()
		s.run.remove(r.Task.ID, r.Seq)
		if s.wait.remove(r.Task.ID, r.Seq) {
			s.bump(nil, func(st *Stats) { st.RequestsWaitlisted-- })
		}
		sel := Selection{Request: id, At: rec.At}
		for _, dev := range rec.Devices {
			if dev == "" {
				continue
			}
			s.pending[id] = append(s.pending[id], pendingDispatch{req: r, deviceID: dev})
			sel.Devices = append(sel.Devices, dev)
		}
		s.devices.NoteSelected(sel.Devices...)
		s.statsMu.Lock()
		s.sellog.add(sel)
		s.stats.RequestsSatisfied++
		s.statsMu.Unlock()
		s.met.reqSatisfied.Inc()
		return true

	case opWaitlist:
		r, ok := s.reqFromRef(rec.Req)
		if !ok {
			return false
		}
		s.run.remove(r.Task.ID, r.Seq)
		if s.wait.remove(r.Task.ID, r.Seq) {
			// Re-waitlisted from the wait-check path: the live flow
			// decremented before rescheduling, so cancel before the
			// increment below and the net effect matches.
			s.bump(nil, func(st *Stats) { st.RequestsWaitlisted-- })
		}
		s.wait.push(r)
		s.bump(s.met.reqWaitlisted, func(st *Stats) { st.RequestsWaitlisted++ })
		return true

	case opReqExpired:
		r, ok := s.reqFromRef(rec.Req)
		if !ok {
			return false
		}
		s.run.remove(r.Task.ID, r.Seq)
		fromWait := s.wait.remove(r.Task.ID, r.Seq)
		s.bump(s.met.reqExpired, func(st *Stats) {
			if fromWait {
				st.RequestsWaitlisted--
			}
			st.RequestsExpired++
		})
		return true

	case opMiss, opDispatchFail:
		if rec.ReqID == "" || rec.DeviceID == "" || !s.removePendingLocked(rec.ReqID, rec.DeviceID) {
			return false
		}
		s.devices.SetResponsive(rec.DeviceID, false)
		if rec.Op == opMiss {
			s.bump(s.met.dispatchExpiries, func(st *Stats) { st.DispatchesMissed++ })
		} else {
			s.bump(s.met.dispatchFailures, func(st *Stats) { st.DispatchesFailed++ })
		}
		return true

	case opReceive:
		if rec.ReqID == "" || rec.DeviceID == "" || !s.pendingHasLocked(rec.ReqID, rec.DeviceID) {
			// A record referencing no outstanding dispatch is stale or
			// hostile; it must not disturb the round buffers.
			return false
		}
		if s.cfg.Reputation != nil {
			// Buffer before the pending removal, exactly like the live
			// path: a round-completing receive feeds its own value into the
			// round buffer before removal drops the emptied round. (The
			// truth-discovery outcomes themselves replay from their own
			// journaled records, not by re-running FlagOutliers.)
			vals, ok := s.collected[rec.ReqID]
			if !ok {
				vals = make(map[string]float64)
				s.collected[rec.ReqID] = vals
			}
			vals[rec.DeviceID] = rec.Value
		}
		s.removePendingLocked(rec.ReqID, rec.DeviceID)
		s.devices.SetResponsive(rec.DeviceID, true)
		s.bump(s.met.readingsAccepted, func(st *Stats) { st.ReadingsAccepted++ })
		return true

	case opReject:
		s.bump(s.met.readingsRejected, func(st *Stats) { st.ReadingsRejected++ })
		return true

	case opOutcome:
		o := reputation.Outcome(rec.Outcome)
		if rec.DeviceID == "" || o < reputation.OutcomeAccepted || o > reputation.OutcomeMissed {
			return false
		}
		if s.cfg.Reputation != nil {
			s.cfg.Reputation.Record(rec.DeviceID, o)
			s.devices.SetReliability(rec.DeviceID, s.cfg.Reputation.Score(rec.DeviceID))
		}
		return true

	case opResetWindow:
		s.devices.ResetWindow()
		if !rec.At.IsZero() {
			s.windowStart = rec.At
		}
		return true

	default:
		return false
	}
}

// pendingHasLocked reports whether a (request, device) dispatch is
// outstanding. Caller holds s.mu.
func (s *Server) pendingHasLocked(reqID, deviceID string) bool {
	for _, p := range s.pending[reqID] {
		if p.deviceID == deviceID {
			return true
		}
	}
	return false
}

// removePendingLocked clears one (request, device) pending entry,
// dropping the round buffers when the round empties. Caller holds s.mu.
func (s *Server) removePendingLocked(reqID, deviceID string) bool {
	list := s.pending[reqID]
	idx := -1
	for i, p := range list {
		if p.deviceID == deviceID {
			idx = i
			break
		}
	}
	if idx == -1 {
		return false
	}
	s.pending[reqID] = append(list[:idx], list[idx+1:]...)
	if len(s.pending[reqID]) == 0 {
		delete(s.pending, reqID)
		delete(s.collected, reqID)
	}
	return true
}

// ExportDevice removes a device and returns its full record — the
// sending half of re-homing a device to another node. The journal sees
// a plain deregister here and a restore on the importing side, so after
// the move each node's state files hold the device exactly once. Copy
// and removal are one step (takeDevice): a report is either in the
// exported record or refused as unknown, never applied to a record that
// has already been copied out.
func (s *Server) ExportDevice(id string) (DeviceState, error) {
	rec, ok := s.takeDevice(id)
	if !ok {
		return DeviceState{}, fmt.Errorf("core: export: unknown device %s", id)
	}
	return rec, nil
}

// RestoreDevice stores a device record verbatim — the receiving half of
// re-homing a device from another node — journaling the move like any
// other device mutation so the record lands in this server's state files.
func (s *Server) RestoreDevice(rec DeviceState) error {
	n, err := s.devices.restore(rec)
	if err != nil {
		return err
	}
	s.met.devices.Set(float64(n))
	s.jdirect(JournalRecord{Op: opRestore, Device: &rec})
	return nil
}

// TaskIDs returns the stored task IDs, sorted (routing-index rebuilds
// after recovery).
func (s *Server) TaskIDs() []TaskID {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]TaskID, 0, len(s.tasks))
	for id := range s.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// specSig canonicalizes a submitted spec for the idempotency check:
// the JSON encoding of the task exactly as the caller sent it, with the
// identity fields cleared. Computed before Normalize, so a resubmit of a
// duration-based spec (whose Start the server later pins) still matches.
func specSig(t Task) string {
	t.ID = ""
	t.ClientID = ""
	t.SpecSig = ""
	// Trace context is per-submission, not part of the spec: a CAS
	// retrying after a reconnect carries a fresh trace ID and must still
	// match the stored task.
	t.TraceID = ""
	t.RootSpan = ""
	b, err := json.Marshal(t)
	if err != nil {
		return ""
	}
	return string(b)
}
