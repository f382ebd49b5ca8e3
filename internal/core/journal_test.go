package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/reputation"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// memJournal is an in-memory JournalSink for tests.
type memJournal struct {
	mu   sync.Mutex
	recs []JournalRecord
}

func (m *memJournal) Append(rec JournalRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = append(m.recs, rec)
}

func (m *memJournal) records() []JournalRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.recs)
}

// jsonRoundTrip pushes records through their on-disk JSON encoding, so
// the replay tests exercise exactly what a restart would read.
func jsonRoundTrip(t *testing.T, recs []JournalRecord) []JournalRecord {
	t.Helper()
	out := make([]JournalRecord, len(recs))
	for i, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal record %d: %v", i, err)
		}
		if err := json.Unmarshal(b, &out[i]); err != nil {
			t.Fatalf("unmarshal record %d: %v", i, err)
		}
	}
	return out
}

func journaledConfig(j JournalSink) ServerConfig {
	cfg := DefaultServerConfig()
	cfg.Reputation = reputation.NewTracker(reputation.Config{})
	cfg.Journal = j
	return cfg
}

func nopSink(TaskID, string, sensors.Reading) {}

// registerJournaled registers devices through the server (the journaled
// path); registerFresh writes straight to the DeviceStore, which by
// design does not journal.
func registerJournaled(t *testing.T, s *Server, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := s.RegisterDevice(freshDevice(id)); err != nil {
			t.Fatalf("RegisterDevice(%s): %v", id, err)
		}
	}
}

// runCampaign drives a server through a representative slice of every
// journaled mutation: registrations, a periodic task, dispatches,
// accepted readings (completing a truth-discovery round), a waitlisted
// task, a deadline miss, a dispatch failure, prefs and energy updates,
// and a deregistration. Returns the final instant.
func runCampaign(t *testing.T, s *Server) time.Time {
	t.Helper()
	registerJournaled(t, s, "dev-a", "dev-b", "dev-c")
	id, err := s.SubmitTask(validTask(), simclock.Epoch, nopSink)
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	// An unsatisfiable task (density 5 > 3 devices) parks on the wait queue.
	wide := validTask()
	wide.SpatialDensity = 5
	if _, err := s.SubmitTask(wide, simclock.Epoch, nopSink); err != nil {
		t.Fatalf("SubmitTask(wide): %v", err)
	}

	s.ProcessDue(simclock.Epoch) // dispatch round #0
	reading := func(at time.Time, v float64) sensors.Reading {
		return sensors.Reading{Sensor: sensors.Barometer, At: at, Where: geo.CSDepartment, Value: v}
	}
	req0 := string(id) + "#0"
	for _, dev := range []string{"dev-a", "dev-b"} {
		if err := s.ReceiveData(req0, dev, reading(simclock.Epoch, 1013), simclock.Epoch); err != nil {
			// Only the selected pair can deliver; the third device's data
			// is unsolicited and journals a reject.
			t.Logf("ReceiveData(%s): %v", dev, err)
		}
	}
	// Unsolicited upload: journaled as a reject.
	_ = s.ReceiveData(req0, "dev-c", reading(simclock.Epoch, 1013), simclock.Epoch)

	if err := s.UpdateDevicePrefs("dev-c", power.DefaultBudget()); err != nil {
		t.Fatalf("UpdateDevicePrefs: %v", err)
	}
	s.NoteDeviceEnergy("dev-a", 2.5)

	s.ProcessDue(simclock.Epoch.Add(10 * time.Minute)) // dispatch round #1
	req1 := string(id) + "#1"
	// Fail the delivery to one device that round #1 actually selected.
	var victim string
	for _, p := range s.Snapshot().Pending {
		if p.Req.TaskID == id && p.Req.Seq == 1 {
			victim = p.DeviceID
			break
		}
	}
	if victim == "" {
		t.Fatal("round #1 dispatched to no devices")
	}
	s.NoteDispatchFailure(req1, victim)
	// Round #1's other device misses its deadline; round #2 dispatches.
	s.ProcessDue(simclock.Epoch.Add(25 * time.Minute))

	s.DeregisterDevice("dev-c")
	return simclock.Epoch.Add(25 * time.Minute)
}

// normalize strips the fields allowed to differ between a live server
// and its replayed twin (nothing, today) for comparison.
func normalize(s SnapshotState) SnapshotState {
	s.JournalSeq = 0
	return s
}

func TestJournalReplayRebuildsServer(t *testing.T) {
	j := &memJournal{}
	live, err := NewServer(journaledConfig(j), &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	runCampaign(t, live)
	want := live.Snapshot()

	restored, err := NewServer(journaledConfig(nil), &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer(restored): %v", err)
	}
	res, err := restored.Recover(nil, jsonRoundTrip(t, j.records()), func(TaskID) DataSink { return nopSink })
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.Skipped != 0 {
		t.Errorf("replay skipped %d records from a clean journal", res.Skipped)
	}
	if res.Applied != len(j.records()) {
		t.Errorf("applied %d of %d records", res.Applied, len(j.records()))
	}
	got := restored.Snapshot()
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Errorf("replayed state diverges from live state\nlive:     %+v\nreplayed: %+v", normalize(want), normalize(got))
	}
	if want.JournalSeq != got.JournalSeq {
		t.Errorf("journal seq: live %d, replayed %d", want.JournalSeq, got.JournalSeq)
	}
}

func TestSnapshotPlusTailReplay(t *testing.T) {
	j := &memJournal{}
	live, err := NewServer(journaledConfig(j), &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	// First half of the campaign, then a snapshot, then more traffic.
	registerJournaled(t, live, "dev-a", "dev-b", "dev-c")
	id, err := live.SubmitTask(validTask(), simclock.Epoch, nopSink)
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	live.ProcessDue(simclock.Epoch)
	mid := live.Snapshot()

	req0 := string(id) + "#0"
	reading := sensors.Reading{Sensor: sensors.Barometer, At: simclock.Epoch, Where: geo.CSDepartment, Value: 1012}
	for _, dev := range []string{"dev-a", "dev-b"} {
		_ = live.ReceiveData(req0, dev, reading, simclock.Epoch)
	}
	live.ProcessDue(simclock.Epoch.Add(10 * time.Minute))
	want := live.Snapshot()

	// Round-trip the snapshot through JSON like the persist layer would.
	blob, err := json.Marshal(mid)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var snap SnapshotState
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}

	restored, err := NewServer(journaledConfig(nil), &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer(restored): %v", err)
	}
	// Hand Recover the FULL journal: records up to the snapshot's seq
	// must be recognized as already-applied (the persist layer retains
	// the previous epoch's file, so overlap is the normal case).
	res, err := restored.Recover(&snap, jsonRoundTrip(t, j.records()), func(TaskID) DataSink { return nopSink })
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.Skipped == 0 {
		t.Error("no records skipped despite full-journal overlap with the snapshot")
	}
	got := restored.Snapshot()
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Errorf("snapshot+tail state diverges\nlive:     %+v\nreplayed: %+v", normalize(want), normalize(got))
	}
}

// Recover reads the caller's records in place: it leaves them exactly as
// they were, and a shuffled journal with duplicated and unnumbered
// records replays to the state the sorted journal replays to.
func TestRecoverReplaysInPlaceInAnyOrder(t *testing.T) {
	j := &memJournal{}
	live, err := NewServer(journaledConfig(j), &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	runCampaign(t, live)
	replay := func(recs []JournalRecord) (SnapshotState, RecoveryResult) {
		t.Helper()
		restored, err := NewServer(journaledConfig(nil), &recordingDispatcher{})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		before := jsonRoundTrip(t, recs) // a deep copy
		res, err := restored.Recover(nil, recs, func(TaskID) DataSink { return nopSink })
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if !reflect.DeepEqual(recs, before) {
			t.Fatal("Recover changed the caller's records")
		}
		return restored.Snapshot(), res
	}
	sorted := jsonRoundTrip(t, j.records())
	want, _ := replay(sorted)
	if !reflect.DeepEqual(want, live.Snapshot()) {
		t.Fatal("the sorted journal does not replay to the live state")
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		recs := jsonRoundTrip(t, sorted)
		extra := 1 + rng.Intn(5)
		for i := 0; i < extra; i++ {
			recs = append(recs, recs[rng.Intn(len(sorted))])
		}
		recs = append(recs, JournalRecord{Op: opResetWindow}, JournalRecord{Op: opDeregister, DeviceID: "dev-a"})
		rng.Shuffle(len(recs), func(a, b int) { recs[a], recs[b] = recs[b], recs[a] })
		got, res := replay(recs)
		if res.Applied != len(sorted) || res.Skipped != extra+2 {
			t.Errorf("trial %d: applied %d, skipped %d; want %d and %d", trial, res.Applied, res.Skipped, len(sorted), extra+2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: a shuffled journal replays differently\nsorted:   %+v\nshuffled: %+v", trial, want, got)
		}
	}
}

func TestRecoverRefusesNonFreshServer(t *testing.T) {
	s, _ := newTestServer(t)
	submitValid(t, s, 2, nil)
	if _, err := s.Recover(nil, nil, func(TaskID) DataSink { return nopSink }); err == nil {
		t.Fatal("Recover succeeded on a server that already holds tasks")
	}
	s2, _ := newTestServer(t)
	if _, err := s2.Recover(nil, nil, nil); err == nil {
		t.Fatal("Recover accepted a nil sink factory")
	}
}

func TestRecoverSkipsMalformedRecords(t *testing.T) {
	hostile := []JournalRecord{
		{Seq: 1, Op: "no_such_op"},
		{Seq: 2, Op: opSubmit},                                      // nil task
		{Seq: 3, Op: opSubmit, Task: &Task{ID: "x"}},                // invalid spec
		{Seq: 4, Op: opDispatch, Req: &RequestRef{TaskID: "ghost"}}, // unknown task
		{Seq: 5, Op: opOutcome, DeviceID: "d", Outcome: 99},         // bad outcome
		{Seq: 6, Op: opRegister},                                    // nil device
		{Seq: 7, Op: opReceive, ReqID: "ghost#0", DeviceID: "d"},    // no pending
		{Seq: 0, Op: opResetWindow},                                 // unnumbered
	}
	s, err := NewServer(journaledConfig(nil), &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	res, err := s.Recover(nil, hostile, func(TaskID) DataSink { return nopSink })
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.Applied != 0 {
		t.Errorf("applied %d hostile records", res.Applied)
	}
	if res.Skipped != len(hostile) {
		t.Errorf("skipped %d of %d hostile records", res.Skipped, len(hostile))
	}
	if s.TaskCount() != 0 || s.Devices().Len() != 0 {
		t.Error("hostile records created state")
	}
}

func TestSubmitTaskIdempotentOnClientID(t *testing.T) {
	s, _ := newTestServer(t)
	registerFresh(t, s, "dev-a", "dev-b")
	spec := validTask()
	spec.ClientID = "cas-1/campaign"

	id1, err := s.SubmitTask(spec, simclock.Epoch, nopSink)
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	// Same client identity, byte-identical spec: same task, no twin —
	// even when resubmitted later in wall-clock time (the retry case).
	var delivered []string
	sink2 := func(_ TaskID, dev string, _ sensors.Reading) { delivered = append(delivered, dev) }
	id2, err := s.SubmitTask(spec, simclock.Epoch.Add(time.Minute), sink2)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if id1 != id2 {
		t.Fatalf("resubmit minted a new task: %s then %s", id1, id2)
	}
	if st := s.Stats(); st.TasksSubmitted != 1 {
		t.Fatalf("TasksSubmitted = %d, want 1", st.TasksSubmitted)
	}

	// The resubmit rebound the sink: readings now reach sink2.
	s.ProcessDue(simclock.Epoch)
	reading := sensors.Reading{Sensor: sensors.Barometer, At: simclock.Epoch, Where: geo.CSDepartment, Value: 1010}
	req0 := string(id1) + "#0"
	if err := s.ReceiveData(req0, "dev-a", reading, simclock.Epoch); err != nil {
		t.Fatalf("ReceiveData: %v", err)
	}
	if len(delivered) != 1 || delivered[0] != "dev-a" {
		t.Fatalf("rebound sink saw %v, want [dev-a]", delivered)
	}

	// Same identity, different spec: refused.
	changed := spec
	changed.SpatialDensity++
	if _, err := s.SubmitTask(changed, simclock.Epoch, nopSink); err == nil {
		t.Fatal("conflicting spec accepted under the same ClientID")
	}

	// No client identity: every submission is a new task, as before.
	anon := validTask()
	a1, _ := s.SubmitTask(anon, simclock.Epoch, nopSink)
	a2, _ := s.SubmitTask(anon, simclock.Epoch, nopSink)
	if a1 == a2 {
		t.Fatal("anonymous submissions deduplicated")
	}
}

func TestClientIDSurvivesRecovery(t *testing.T) {
	j := &memJournal{}
	live, err := NewServer(journaledConfig(j), &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	registerJournaled(t, live, "dev-a", "dev-b")
	spec := validTask()
	spec.ClientID = "cas-1/campaign"
	id, err := live.SubmitTask(spec, simclock.Epoch, nopSink)
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	snap := live.Snapshot()

	for _, from := range []struct {
		name string
		snap *SnapshotState
		recs []JournalRecord
	}{
		{"from-journal", nil, jsonRoundTrip(t, j.records())},
		{"from-snapshot", &snap, nil},
	} {
		t.Run(from.name, func(t *testing.T) {
			restored, err := NewServer(journaledConfig(nil), &recordingDispatcher{})
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			if _, err := restored.Recover(from.snap, from.recs, func(TaskID) DataSink { return nopSink }); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			// The restart-retry: resubmitting the identical spec must find
			// the restored task, not double-schedule the campaign.
			got, err := restored.SubmitTask(spec, simclock.Epoch.Add(time.Hour), nopSink)
			if err != nil {
				t.Fatalf("post-recovery resubmit: %v", err)
			}
			if got != id {
				t.Fatalf("post-recovery resubmit minted %s, want %s", got, id)
			}
			if st := restored.Stats(); st.TasksSubmitted != 1 {
				t.Fatalf("TasksSubmitted = %d after recovery+resubmit, want 1", st.TasksSubmitted)
			}
		})
	}
}

func TestStatsSurviveRecovery(t *testing.T) {
	j := &memJournal{}
	live, err := NewServer(journaledConfig(j), &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	runCampaign(t, live)
	want := live.Stats()
	if want.TasksSubmitted == 0 || want.ReadingsAccepted == 0 || want.DispatchesFailed == 0 {
		t.Fatalf("campaign produced trivial stats: %+v", want)
	}

	restored, err := NewServer(journaledConfig(nil), &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if _, err := restored.Recover(nil, j.records(), func(TaskID) DataSink { return nopSink }); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := restored.Stats(); got != want {
		t.Errorf("stats diverge after recovery:\nlive:     %+v\nrestored: %+v", want, got)
	}
}

func TestFairnessWindowSurvivesRecovery(t *testing.T) {
	j := &memJournal{}
	cfg := journaledConfig(j)
	cfg.FairnessWindow = 10 * time.Minute
	live, err := NewServer(cfg, &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	registerJournaled(t, live, "dev-a")
	live.NoteDeviceEnergy("dev-a", 5)
	live.ProcessDue(simclock.Epoch)
	// Two windows elapse: counters reset, the anchor advances.
	live.ProcessDue(simclock.Epoch.Add(25 * time.Minute))
	want := live.Snapshot()

	cfg2 := journaledConfig(nil)
	cfg2.FairnessWindow = 10 * time.Minute
	restored, err := NewServer(cfg2, &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if _, err := restored.Recover(nil, j.records(), func(TaskID) DataSink { return nopSink }); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	got := restored.Snapshot()
	if !got.WindowStart.Equal(want.WindowStart) {
		t.Errorf("window anchor: live %v, restored %v", want.WindowStart, got.WindowStart)
	}
	d, ok := restored.Devices().Get("dev-a")
	if !ok || d.EnergySpentJ != 0 {
		t.Errorf("window reset not replayed: %+v", d)
	}

	// A crash before the first reset: the anchor comes back from its own
	// record, which keeps the counters, and the next tick resets at the
	// boundary the live server would have.
	j = &memJournal{}
	cfg.Journal = j
	live, err = NewServer(cfg, &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	registerJournaled(t, live, "dev-a")
	live.ProcessDue(simclock.Epoch)
	live.NoteDeviceEnergy("dev-a", 5)
	live.ProcessDue(simclock.Epoch.Add(5 * time.Minute))
	restored, err = NewServer(cfg2, &recordingDispatcher{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if _, err := restored.Recover(nil, jsonRoundTrip(t, j.records()), func(TaskID) DataSink { return nopSink }); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got, want := restored.Snapshot(), live.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered before the first reset\nlive:     %+v\nrestored: %+v", want, got)
	}
	for _, s := range []*Server{live, restored} {
		s.ProcessDue(simclock.Epoch.Add(12 * time.Minute))
	}
	got, want = restored.Snapshot(), live.Snapshot()
	got.JournalSeq = want.JournalSeq // only the live server journals the reset
	if !reflect.DeepEqual(got, want) || !want.WindowStart.Equal(simclock.Epoch.Add(10*time.Minute)) {
		t.Errorf("the first reset after recovery\nlive:     %+v\nrestored: %+v", want, got)
	}
}

func TestShardedRecoveryAndRouting(t *testing.T) {
	east := Region{Name: "east", Area: geo.Circle{Center: geo.CSDepartment, RadiusM: 2000}}
	westCenter := geo.Point{Lat: geo.CSDepartment.Lat + 0.1, Lon: geo.CSDepartment.Lon}
	west := Region{Name: "west", Area: geo.Circle{Center: westCenter, RadiusM: 2000}}

	journals := map[string]*memJournal{"east": {}, "west": {}}
	cfg := DefaultServerConfig()
	cfg.ShardJournal = func(region string) JournalSink { return journals[region] }
	live, err := NewShardedServer(cfg, &recordingDispatcher{}, []Region{east, west})
	if err != nil {
		t.Fatalf("NewShardedServer: %v", err)
	}
	d1 := freshDevice("dev-east")
	d2 := freshDevice("dev-east2")
	d3 := freshDevice("dev-west")
	d3.Position = westCenter
	for _, d := range []DeviceState{d1, d2, d3} {
		if err := live.RegisterDevice(d); err != nil {
			t.Fatalf("RegisterDevice(%s): %v", d.ID, err)
		}
	}
	id, err := live.SubmitTask(validTask(), simclock.Epoch, nopSink)
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	live.ProcessDue(simclock.Epoch)

	// Rebuild a fresh sharded deployment from the per-shard journals.
	cfg2 := DefaultServerConfig()
	restored, err := NewShardedServer(cfg2, &recordingDispatcher{}, []Region{east, west})
	if err != nil {
		t.Fatalf("NewShardedServer(restored): %v", err)
	}
	for i := 0; i < restored.Shards(); i++ {
		srv, region, err := restored.Shard(i)
		if err != nil {
			t.Fatalf("Shard(%d): %v", i, err)
		}
		if _, err := srv.Recover(nil, jsonRoundTrip(t, journals[region.Name].records()), func(TaskID) DataSink { return nopSink }); err != nil {
			t.Fatalf("Recover(%s): %v", region.Name, err)
		}
	}
	restored.RebuildRouting()

	// Device routing rebuilt: a prefs update for the west device lands.
	if err := restored.UpdateDevicePrefs("dev-west", power.DefaultBudget()); err != nil {
		t.Fatalf("UpdateDevicePrefs after recovery: %v", err)
	}
	// Task routing rebuilt: data for the dispatched request is accepted.
	reading := sensors.Reading{Sensor: sensors.Barometer, At: simclock.Epoch, Where: geo.CSDepartment, Value: 1011}
	req0 := string(id) + "#0"
	if err := restored.ReceiveData(req0, "dev-east", reading, simclock.Epoch); err != nil {
		t.Fatalf("ReceiveData after recovery: %v", err)
	}
	if st := restored.Stats(); st.ReadingsAccepted != 1 {
		t.Fatalf("ReadingsAccepted = %d, want 1", st.ReadingsAccepted)
	}
}

func TestUpdateTaskPreservesClientIdentity(t *testing.T) {
	s, _ := newTestServer(t)
	spec := validTask()
	spec.ClientID = "cas-9/t"
	id, err := s.SubmitTask(spec, simclock.Epoch, nopSink)
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	if err := s.UpdateTaskParams(id, simclock.Epoch, func(t *Task) {
		t.SpatialDensity = 1
		t.ClientID = "hijack" // mutations cannot rebind identity
	}); err != nil {
		t.Fatalf("UpdateTaskParams: %v", err)
	}
	got, _ := s.Task(id)
	if got.ClientID != "cas-9/t" {
		t.Fatalf("ClientID after update = %q", got.ClientID)
	}
	// The identity still resolves to this task.
	again, err := s.SubmitTask(spec, simclock.Epoch, nopSink)
	if err != nil || again != id {
		t.Fatalf("resubmit after update: id=%s err=%v", again, err)
	}
}
