package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// recordingDispatcher captures dispatches for assertions. A sharded
// server dispatches from concurrent per-shard goroutines, so appends
// are locked; tests may read calls directly after ProcessDue returns
// (the fan-out joins before returning).
type recordingDispatcher struct {
	mu    sync.Mutex
	calls []struct {
		req Request
		dev DeviceState
	}
}

func (r *recordingDispatcher) Dispatch(req Request, dev DeviceState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, struct {
		req Request
		dev DeviceState
	}{req, dev})
}

func newTestServer(t *testing.T) (*Server, *recordingDispatcher) {
	t.Helper()
	d := &recordingDispatcher{}
	s, err := NewServer(DefaultServerConfig(), d)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s, d
}

func registerFresh(t *testing.T, s *Server, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := s.Devices().Register(freshDevice(id)); err != nil {
			t.Fatalf("Register(%s): %v", id, err)
		}
	}
}

func submitValid(t *testing.T, s *Server, density int, sink DataSink) TaskID {
	t.Helper()
	tk := validTask()
	tk.SpatialDensity = density
	if sink == nil {
		sink = func(TaskID, string, sensors.Reading) {}
	}
	id, err := s.SubmitTask(tk, simclock.Epoch, sink)
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	return id
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(DefaultServerConfig(), nil); err == nil {
		t.Fatal("nil dispatcher accepted")
	}
	bad := DefaultServerConfig()
	bad.Selector.MaxUses = 0
	if _, err := NewServer(bad, &recordingDispatcher{}); err == nil {
		t.Fatal("invalid selector config accepted")
	}
}

func TestSubmitTaskGeneratesRequests(t *testing.T) {
	s, _ := newTestServer(t)
	id := submitValid(t, s, 2, nil)
	if !strings.HasPrefix(string(id), "task-") {
		t.Fatalf("task ID = %q", id)
	}
	st := s.Stats()
	if st.TasksSubmitted != 1 || st.RequestsGenerated != 6 {
		t.Fatalf("stats = %+v, want 1 task / 6 requests", st)
	}
	if _, ok := s.Task(id); !ok {
		t.Fatal("task not stored")
	}
	if next, ok := s.NextWake(); !ok || !next.Equal(simclock.Epoch) {
		t.Fatalf("NextWake = %v, want task start", next)
	}
}

func TestSubmitTaskRejectsInvalid(t *testing.T) {
	s, _ := newTestServer(t)
	tk := validTask()
	tk.SpatialDensity = 0
	if _, err := s.SubmitTask(tk, simclock.Epoch, func(TaskID, string, sensors.Reading) {}); err == nil {
		t.Fatal("invalid task accepted")
	}
	if _, err := s.SubmitTask(validTask(), simclock.Epoch, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

func TestProcessDueDispatchesDensityDevices(t *testing.T) {
	s, d := newTestServer(t)
	registerFresh(t, s, "a", "b", "c", "d")
	submitValid(t, s, 2, nil)

	s.ProcessDue(simclock.Epoch)
	if len(d.calls) != 2 {
		t.Fatalf("dispatched to %d devices, want 2 (spatial density)", len(d.calls))
	}
	if s.Stats().RequestsSatisfied != 1 {
		t.Fatalf("satisfied = %d, want 1", s.Stats().RequestsSatisfied)
	}
	// Selection log records the round.
	sels := s.Selections()
	if len(sels) != 1 || len(sels[0].Devices) != 2 {
		t.Fatalf("selection log = %+v", sels)
	}
	// Fairness counters moved.
	for _, c := range d.calls {
		got, _ := s.Devices().Get(c.dev.ID)
		if got.TimesUsed != 1 {
			t.Fatalf("device %s TimesUsed = %d, want 1", c.dev.ID, got.TimesUsed)
		}
	}
}

func TestProcessDueRespectsDueTime(t *testing.T) {
	s, d := newTestServer(t)
	registerFresh(t, s, "a", "b")
	submitValid(t, s, 1, nil)

	s.ProcessDue(simclock.Epoch.Add(-time.Second))
	if len(d.calls) != 0 {
		t.Fatal("dispatched before due time")
	}
	s.ProcessDue(simclock.Epoch)
	if len(d.calls) != 1 {
		t.Fatalf("dispatched %d, want 1", len(d.calls))
	}
	// The remaining 5 requests stay queued.
	if next, ok := s.NextWake(); !ok || !next.Equal(simclock.Epoch.Add(10*time.Minute)) {
		t.Fatalf("NextWake = %v, want +10min", next)
	}
}

func TestUnsatisfiableGoesToWaitQueueThenRecovers(t *testing.T) {
	s, d := newTestServer(t)
	registerFresh(t, s, "only")
	submitValid(t, s, 2, nil) // needs 2, have 1

	s.ProcessDue(simclock.Epoch)
	if len(d.calls) != 0 {
		t.Fatal("dispatched an unsatisfiable request")
	}
	if s.Stats().RequestsWaitlisted != 1 {
		t.Fatalf("waitlisted = %d, want 1", s.Stats().RequestsWaitlisted)
	}

	// A second device appears before the deadline: the wait check must
	// rescue the request.
	registerFresh(t, s, "second")
	s.ProcessDue(simclock.Epoch.Add(time.Minute))
	if len(d.calls) != 2 {
		t.Fatalf("dispatched %d after recovery, want 2", len(d.calls))
	}
	if st := s.Stats(); st.RequestsSatisfied != 1 || st.RequestsWaitlisted != 0 {
		t.Fatalf("stats after recovery = %+v", st)
	}
}

func TestWaitlistedRequestExpires(t *testing.T) {
	s, _ := newTestServer(t)
	registerFresh(t, s, "only")
	submitValid(t, s, 2, nil)

	s.ProcessDue(simclock.Epoch)
	// Past the first request's deadline (due + period = 10 min).
	s.ProcessDue(simclock.Epoch.Add(11 * time.Minute))
	if s.Stats().RequestsExpired == 0 {
		t.Fatal("stale waitlisted request never expired")
	}
}

func TestReceiveDataFlowsToSink(t *testing.T) {
	s, d := newTestServer(t)
	registerFresh(t, s, "a", "b")
	var got []string
	id := submitValid(t, s, 1, func(task TaskID, dev string, r sensors.Reading) {
		got = append(got, dev)
	})
	s.ProcessDue(simclock.Epoch)
	req := d.calls[0].req
	dev := d.calls[0].dev

	reading := sensors.Reading{
		Sensor: sensors.Barometer, Value: 1013, Unit: "hPa",
		At: simclock.Epoch.Add(time.Second), Where: geo.CSDepartment,
	}
	if err := s.ReceiveData(req.ID(), dev.ID, reading, reading.At); err != nil {
		t.Fatalf("ReceiveData: %v", err)
	}
	if len(got) != 1 || got[0] != dev.ID {
		t.Fatalf("sink saw %v, want [%s]", got, dev.ID)
	}
	if s.Stats().ReadingsAccepted != 1 {
		t.Fatalf("accepted = %d, want 1", s.Stats().ReadingsAccepted)
	}
	_ = id
}

// TestAggTapSeesAcceptedReadings pins the live-aggregation tap contract:
// every accepted upload reaches the tap (with the shard's region), rejected
// uploads never do, and the tap fires before the task's own sink.
func TestAggTapSeesAcceptedReadings(t *testing.T) {
	type tapped struct {
		task   TaskID
		region string
		dev    string
		value  float64
	}
	var taps []tapped
	var sinkSeen int
	cfg := DefaultServerConfig()
	cfg.AggTap = func(task TaskID, region string, deviceID string, r sensors.Reading) {
		if sinkSeen != 0 {
			t.Error("sink ran before the agg tap")
		}
		taps = append(taps, tapped{task, region, deviceID, r.Value})
	}
	d := &recordingDispatcher{}
	s, err := newServer(cfg, d, "west") // region west's shard
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	registerFresh(t, s, "a", "b")
	id := submitValid(t, s, 1, func(TaskID, string, sensors.Reading) { sinkSeen++ })
	s.ProcessDue(simclock.Epoch)
	req := d.calls[0].req
	dev := d.calls[0].dev

	reading := sensors.Reading{
		Sensor: sensors.Barometer, Value: 1013, Unit: "hPa",
		At: simclock.Epoch.Add(time.Second), Where: geo.CSDepartment,
	}
	if err := s.ReceiveData(req.ID(), dev.ID, reading, reading.At); err != nil {
		t.Fatalf("ReceiveData: %v", err)
	}
	if len(taps) != 1 {
		t.Fatalf("tap saw %d readings, want 1", len(taps))
	}
	if got := taps[0]; got.task != id || got.region != "west" || got.dev != dev.ID || got.value != 1013 {
		t.Fatalf("tap saw %+v", got)
	}
	if sinkSeen != 1 {
		t.Fatalf("sink ran %d times, want 1", sinkSeen)
	}

	// A rejected upload (wrong sensor) must not reach the tap.
	bad := reading
	bad.Sensor = sensors.Gyroscope
	if s.ReceiveData(req.ID(), dev.ID, bad, bad.At) == nil {
		t.Fatal("wrong-sensor data accepted")
	}
	if len(taps) != 1 {
		t.Fatalf("tap saw rejected reading: %+v", taps)
	}
}

func TestReceiveDataRejections(t *testing.T) {
	s, d := newTestServer(t)
	registerFresh(t, s, "a", "b")
	submitValid(t, s, 1, nil)
	s.ProcessDue(simclock.Epoch)
	req := d.calls[0].req
	dev := d.calls[0].dev
	at := simclock.Epoch.Add(time.Second)

	// Unsolicited device.
	other := "b"
	if dev.ID == "b" {
		other = "a"
	}
	reading := sensors.Reading{Sensor: sensors.Barometer, At: at, Where: geo.CSDepartment}
	if err := s.ReceiveData(req.ID(), other, reading, at); err == nil {
		t.Fatal("unsolicited data accepted")
	}

	// Wrong sensor.
	bad := reading
	bad.Sensor = sensors.Gyroscope
	if err := s.ReceiveData(req.ID(), dev.ID, bad, at); err == nil {
		t.Fatal("wrong-sensor data accepted")
	}

	// Outside region (ValidateRegion on by default).
	bad = reading
	bad.Where = geo.Offset(geo.CSDepartment, 5000, 0)
	if err := s.ReceiveData(req.ID(), dev.ID, bad, at); err == nil {
		t.Fatal("out-of-region data accepted")
	}

	// Stale reading.
	bad = reading
	bad.At = simclock.Epoch.Add(-time.Hour)
	if err := s.ReceiveData(req.ID(), dev.ID, bad, at); err == nil {
		t.Fatal("stale data accepted")
	}

	if s.Stats().ReadingsRejected != 4 {
		t.Fatalf("rejected = %d, want 4", s.Stats().ReadingsRejected)
	}

	// The request is still pending, so valid data is still accepted.
	if err := s.ReceiveData(req.ID(), dev.ID, reading, at); err != nil {
		t.Fatalf("valid data after rejections: %v", err)
	}
}

func TestMissedDispatchMarksUnresponsive(t *testing.T) {
	s, d := newTestServer(t)
	registerFresh(t, s, "a", "b")
	submitValid(t, s, 1, nil)
	s.ProcessDue(simclock.Epoch)
	missed := d.calls[0].dev.ID

	// Let the deadline pass without data.
	s.ProcessDue(simclock.Epoch.Add(11 * time.Minute))
	got, _ := s.Devices().Get(missed)
	if got.Responsive {
		t.Fatal("device that missed its upload still responsive")
	}
	if s.Stats().DispatchesMissed != 1 {
		t.Fatalf("missed = %d, want 1", s.Stats().DispatchesMissed)
	}

	// Next round must pick the other device.
	if len(d.calls) < 2 {
		t.Fatalf("second round never dispatched; calls = %d", len(d.calls))
	}
	for _, c := range d.calls[1:] {
		if c.dev.ID == missed {
			t.Fatal("unresponsive device selected again")
		}
	}
}

func TestDeleteTaskDropsRequests(t *testing.T) {
	s, d := newTestServer(t)
	registerFresh(t, s, "a")
	id := submitValid(t, s, 1, nil)
	if err := s.DeleteTask(id); err != nil {
		t.Fatalf("DeleteTask: %v", err)
	}
	if err := s.DeleteTask(id); err == nil {
		t.Fatal("double delete accepted")
	}
	s.ProcessDue(simclock.Epoch.Add(time.Hour))
	if len(d.calls) != 0 {
		t.Fatal("deleted task still dispatched")
	}
	if _, ok := s.NextWake(); ok {
		t.Fatal("deleted task still queued")
	}
}

func TestUpdateTaskParams(t *testing.T) {
	s, d := newTestServer(t)
	registerFresh(t, s, "a", "b", "c")
	id := submitValid(t, s, 1, nil)

	// Raise the density mid-flight.
	err := s.UpdateTaskParams(id, simclock.Epoch, func(tk *Task) {
		tk.SpatialDensity = 3
	})
	if err != nil {
		t.Fatalf("UpdateTaskParams: %v", err)
	}
	s.ProcessDue(simclock.Epoch)
	if len(d.calls) != 3 {
		t.Fatalf("dispatched %d after update, want 3", len(d.calls))
	}

	if err := s.UpdateTaskParams("task-404", simclock.Epoch, func(*Task) {}); err == nil {
		t.Fatal("update of unknown task accepted")
	}
	if err := s.UpdateTaskParams(id, simclock.Epoch, func(tk *Task) { tk.SpatialDensity = 0 }); err == nil {
		t.Fatal("invalid update accepted")
	}
}

func TestDeviceStoreBasics(t *testing.T) {
	st := NewDeviceStore()
	if err := st.Register(DeviceState{}); err == nil {
		t.Fatal("empty ID registered")
	}
	bad := freshDevice("x")
	bad.Budget.CriticalBatteryPct = 200
	if err := st.Register(bad); err == nil {
		t.Fatal("invalid budget registered")
	}

	if err := st.Register(freshDevice("b")); err != nil {
		t.Fatal(err)
	}
	if err := st.Register(freshDevice("a")); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	all := st.All()
	if all[0].ID != "a" || all[1].ID != "b" {
		t.Fatal("All() not sorted by ID")
	}

	if err := st.UpdateState("a", geo.EEDepartment, 73, simclock.Epoch.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	got, _ := st.Get("a")
	if got.BatteryPct != 73 || got.Position != geo.EEDepartment {
		t.Fatalf("update not applied: %+v", got)
	}
	if err := st.UpdateState("ghost", geo.EEDepartment, 50, simclock.Epoch); err == nil {
		t.Fatal("update of unknown device accepted")
	}

	st.NoteSelected("a")
	st.NoteEnergy("a", 12.5)
	st.NoteEnergy("a", -3) // ignored
	got, _ = st.Get("a")
	if got.TimesUsed != 1 || got.EnergySpentJ != 12.5 {
		t.Fatalf("counters = %+v", got)
	}

	st.ResetWindow()
	got, _ = st.Get("a")
	if got.TimesUsed != 0 || got.EnergySpentJ != 0 {
		t.Fatal("ResetWindow did not clear counters")
	}

	st.Deregister("a")
	if _, ok := st.Get("a"); ok {
		t.Fatal("deregistered device still present")
	}
}

func TestQueueOrdering(t *testing.T) {
	var q requestQueue
	tk := validTask()
	tk.ID = "t1"
	reqs, err := tk.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Push in reverse.
	for i := len(reqs) - 1; i >= 0; i-- {
		q.push(reqs[i])
	}
	for i := range reqs {
		got := q.pop()
		if got.Seq != i {
			t.Fatalf("pop %d returned seq %d", i, got.Seq)
		}
	}
	if _, ok := q.peek(); ok {
		t.Fatal("drained queue still peeks")
	}
}

func TestQueueRemoveTask(t *testing.T) {
	var q requestQueue
	t1, t2 := validTask(), validTask()
	t1.ID, t2.ID = "t1", "t2"
	r1, err := t1.Expand()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := t2.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(r1, r2...) {
		q.push(r)
	}
	if removed := q.removeTask("t1"); removed != len(r1) {
		t.Fatalf("removed %d, want %d", removed, len(r1))
	}
	for q.Len() > 0 {
		if r := q.pop(); r.Task.ID != "t2" {
			t.Fatalf("t1 request survived removal: %s", r.ID())
		}
	}
}

func TestFairnessWindowResets(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.FairnessWindow = time.Hour
	d := &recordingDispatcher{}
	s, err := NewServer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	registerFresh(t, s, "a", "b")
	s.Devices().NoteSelected("a")
	s.Devices().NoteEnergy("a", 42)

	// First ProcessDue anchors the window; counters stand.
	s.ProcessDue(simclock.Epoch)
	if got, _ := s.Devices().Get("a"); got.TimesUsed != 1 || got.EnergySpentJ != 42 {
		t.Fatalf("counters reset too early: %+v", got)
	}
	// Within the window: still standing.
	s.ProcessDue(simclock.Epoch.Add(30 * time.Minute))
	if got, _ := s.Devices().Get("a"); got.TimesUsed != 1 {
		t.Fatalf("counters reset mid-window: %+v", got)
	}
	// Past the window: reset.
	s.ProcessDue(simclock.Epoch.Add(61 * time.Minute))
	if got, _ := s.Devices().Get("a"); got.TimesUsed != 0 || got.EnergySpentJ != 0 {
		t.Fatalf("window did not reset counters: %+v", got)
	}
}
