package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// Regression: per-shard counters both restart at task-1, so two shards
// mint same-numbered tasks. The region prefix is what keeps the IDs —
// and therefore data routing and deletion — unambiguous.
func TestSameNumberedTasksAcrossShards(t *testing.T) {
	s, d := newSharded(t)
	westPos := geo.UniversityGym
	eastPos := geo.Offset(geo.UniversityGym, 0, 5000)

	wdev := freshDevice("wdev")
	wdev.Position = westPos
	edev := freshDevice("edev")
	edev.Position = eastPos
	for _, dev := range []DeviceState{wdev, edev} {
		if err := s.RegisterDevice(dev); err != nil {
			t.Fatalf("RegisterDevice(%s): %v", dev.ID, err)
		}
	}

	var mu sync.Mutex
	got := map[TaskID][]string{} // task -> devices whose readings reached its sink
	sinkFor := func(want TaskID) DataSink {
		return func(id TaskID, dev string, _ sensors.Reading) {
			mu.Lock()
			defer mu.Unlock()
			got[want] = append(got[want], dev)
			if id != want {
				t.Errorf("sink for %s got reading tagged %s", want, id)
			}
		}
	}

	submit := func(center geo.Point, want TaskID) TaskID {
		tk := validTask()
		tk.Area = geo.Circle{Center: center, RadiusM: 400}
		tk.SpatialDensity = 1
		id, err := s.SubmitTask(tk, simclock.Epoch, sinkFor(want))
		if err != nil {
			t.Fatalf("SubmitTask: %v", err)
		}
		return id
	}
	idW := submit(westPos, "west/task-1")
	idE := submit(eastPos, "east/task-1")
	if idW != "west/task-1" || idE != "east/task-1" {
		t.Fatalf("IDs = %s / %s, want west/task-1 / east/task-1", idW, idE)
	}

	s.ProcessDue(simclock.Epoch)
	d.mu.Lock()
	reqFor := map[string]string{} // device -> request ID
	for _, c := range d.calls {
		reqFor[c.dev.ID] = c.req.ID()
	}
	d.mu.Unlock()
	if len(reqFor) != 2 {
		t.Fatalf("dispatched to %d devices, want 2 (%v)", len(reqFor), reqFor)
	}

	// Both request IDs end "#1"; only the region prefix distinguishes
	// them. Each reading must land in its own task's sink.
	for dev, pos := range map[string]geo.Point{"wdev": westPos, "edev": eastPos} {
		r := sensors.Reading{Sensor: sensors.Barometer, At: simclock.Epoch.Add(time.Second), Where: pos}
		if err := s.ReceiveData(reqFor[dev], dev, r, r.At); err != nil {
			t.Fatalf("ReceiveData(%s, %s): %v", reqFor[dev], dev, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got[idW]) != 1 || got[idW][0] != "wdev" {
		t.Fatalf("west sink saw %v, want [wdev]", got[idW])
	}
	if len(got[idE]) != 1 || got[idE][0] != "edev" {
		t.Fatalf("east sink saw %v, want [edev]", got[idE])
	}

	// Deleting the west task-1 must not disturb the east task-1.
	if err := s.DeleteTask(idW); err != nil {
		t.Fatalf("DeleteTask(%s): %v", idW, err)
	}
	if err := s.UpdateTaskParams(idE, simclock.Epoch, func(tk *Task) { tk.SpatialDensity = 2 }); err != nil {
		t.Fatalf("east task gone after deleting west task: %v", err)
	}
	if n := s.TaskCount(); n != 1 {
		t.Fatalf("TaskCount = %d, want 1", n)
	}
}

// Regression: task churn must not leave anything behind. Tasks route by
// the region their ID names, so there is no routing entry to drop: a
// deleted task is gone from its shard and answers to nothing.
func TestDeleteTaskDropsRoutingEntry(t *testing.T) {
	s, _ := newSharded(t)
	for i := 0; i < 3; i++ {
		tk := validTask()
		tk.Area = geo.Circle{Center: geo.UniversityGym, RadiusM: 400}
		id, err := s.SubmitTask(tk, simclock.Epoch, func(TaskID, string, sensors.Reading) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteTask(id); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteTask(id); err == nil {
			t.Fatalf("deleted task %s deleted again", id)
		}
	}
	if n := s.TaskCount(); n != 0 {
		t.Fatalf("%d tasks stored after delete, want 0", n)
	}
	if v := s.CheckTaskRoutingInvariants(); len(v) > 0 {
		t.Fatalf("routing invariants violated: %v", v)
	}
}

// Regression: update_preferences must change only the budget. The old
// path re-registered the device, which silently rehabilitated devices
// the scheduler had marked unresponsive and zeroed fairness counters.
func TestUpdateBudgetPreservesLiveness(t *testing.T) {
	store := NewDeviceStore()
	if err := store.Register(freshDevice("d1")); err != nil {
		t.Fatal(err)
	}
	store.SetResponsive("d1", false)
	store.NoteSelected("d1")
	store.NoteEnergy("d1", 3)
	store.SetReliability("d1", 0.5)

	b := power.DefaultBudget()
	b.CriticalBatteryPct = 35
	if err := store.UpdateBudget("d1", b); err != nil {
		t.Fatalf("UpdateBudget: %v", err)
	}
	rec, ok := store.Get("d1")
	if !ok {
		t.Fatal("device gone")
	}
	if rec.Budget != b {
		t.Fatalf("budget not applied: %+v", rec.Budget)
	}
	if rec.Responsive {
		t.Fatal("budget update rehabilitated an unresponsive device")
	}
	if rec.TimesUsed != 1 || rec.EnergySpentJ != 3 {
		t.Fatalf("fairness counters reset: used=%d energy=%v", rec.TimesUsed, rec.EnergySpentJ)
	}
	if rec.Reliability != 0.5 {
		t.Fatalf("reliability reset: %v", rec.Reliability)
	}

	bad := b
	bad.CriticalBatteryPct = -1
	if err := store.UpdateBudget("d1", bad); err == nil {
		t.Fatal("invalid budget accepted")
	}
	if err := store.UpdateBudget("ghost", b); err == nil {
		t.Fatal("unknown device accepted")
	}
}

// The same invariant through a lone shard and a sharded deployment.
func TestUpdateDevicePrefsPreservesLiveness(t *testing.T) {
	single, _ := newTestServer(t)
	sharded, _ := newSharded(t)
	cases := []struct {
		name string
		orch interface {
			RegisterDevice(DeviceState) error
			UpdateDevicePrefs(string, power.Budget) error
		}
		store func() *DeviceStore
		pos   geo.Point
	}{
		{"single", single, single.Devices, geo.CSDepartment},
		{"sharded", sharded, func() *DeviceStore {
			sh, _, err := sharded.Shard(0)
			if err != nil {
				t.Fatal(err)
			}
			return sh.Devices()
		}, geo.UniversityGym},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := freshDevice("d1")
			d.Position = c.pos
			if err := c.orch.RegisterDevice(d); err != nil {
				t.Fatal(err)
			}
			c.store().SetResponsive("d1", false)
			b := power.DefaultBudget()
			b.CriticalBatteryPct = 42
			if err := c.orch.UpdateDevicePrefs("d1", b); err != nil {
				t.Fatalf("UpdateDevicePrefs: %v", err)
			}
			rec, ok := c.store().Get("d1")
			if !ok || rec.Responsive || rec.Budget.CriticalBatteryPct != 42 {
				t.Fatalf("record = %+v ok=%v, want unresponsive with new budget", rec, ok)
			}
		})
	}
}

// Re-homing a device across shards must carry liveness state with it.
func TestRehomePreservesUnresponsiveness(t *testing.T) {
	s, _ := newSharded(t)
	d := freshDevice("mover")
	d.Position = geo.UniversityGym
	if err := s.RegisterDevice(d); err != nil {
		t.Fatal(err)
	}
	shard0, _, err := s.Shard(0)
	if err != nil {
		t.Fatal(err)
	}
	shard0.Devices().SetResponsive("mover", false)

	eastPos := geo.Offset(geo.UniversityGym, 0, 5000)
	if err := s.UpdateDeviceState("mover", eastPos, 50, simclock.Epoch.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	shard1, _, err := s.Shard(1)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := shard1.Devices().Get("mover")
	if !ok {
		t.Fatal("device missing from east shard")
	}
	if rec.Responsive {
		t.Fatal("crossing a region boundary rehabilitated an unresponsive device")
	}
}

// orchestrator is the method set TestOrchestratorConcurrentUse hammers:
// every operation a frontend drives.
type orchestrator interface {
	RegisterDevice(d DeviceState) error
	DeregisterDevice(id string)
	UpdateDeviceState(id string, pos geo.Point, batteryPct float64, at time.Time) error
	UpdateDevicePrefs(id string, b power.Budget) error
	NoteDeviceEnergy(id string, joules float64)
	SubmitTask(t Task, now time.Time, sink DataSink) (TaskID, error)
	UpdateTaskParams(id TaskID, now time.Time, mutate func(*Task)) error
	DeleteTask(id TaskID) error
	ReceiveData(reqID, deviceID string, reading sensors.Reading, now time.Time) error
	ProcessDue(now time.Time)
	NextWake() (time.Time, bool)
	Stats() Stats
	Selections() []Selection
	SelectionsDropped() uint64
	TaskCount() int
}

// Hammer every orchestrator method concurrently against a deployment
// without regions (one unnamed shard) and one with two. The assertions
// during the run are weak on purpose — the test exists for the race
// detector, which turns any locking mistake into a failure; both are held
// to their homing guarantees once they stop.
func TestOrchestratorConcurrentUse(t *testing.T) {
	regions := campusRegions()
	positions := []geo.Point{regions[0].Area.Center, regions[1].Area.Center}

	build := map[string][]Region{"single": nil, "sharded": regions}
	for name, regions := range build {
		t.Run(name, func(t *testing.T) {
			journals := map[string]*memJournal{"": {}}
			for _, r := range regions {
				journals[r.Name] = &memJournal{}
			}
			cfg := DefaultServerConfig()
			cfg.ShardJournal = func(region string) JournalSink { return journals[region] }
			ss, err := NewShardedServer(cfg, &recordingDispatcher{}, regions)
			if err != nil {
				t.Fatal(err)
			}
			var o orchestrator = ss
			var wg sync.WaitGroup    // finite mutator workers
			var loops sync.WaitGroup // scheduler/reader loops, stopped after mutators drain

			// Device workers: register, report state (moving between
			// regions, exercising sharded re-homing), tweak prefs, spend
			// energy, deregister.
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					id := fmt.Sprintf("dev-%d", w)
					for i := 0; i < 25; i++ {
						d := freshDevice(id)
						d.Position = positions[(w+i)%len(positions)]
						if err := o.RegisterDevice(d); err != nil {
							t.Errorf("RegisterDevice: %v", err)
							return
						}
						at := simclock.Epoch.Add(time.Duration(i) * time.Second)
						_ = o.UpdateDeviceState(id, positions[(w+i+1)%len(positions)], 80, at)
						b := power.DefaultBudget()
						b.CriticalBatteryPct = float64(10 + i%20)
						_ = o.UpdateDevicePrefs(id, b)
						o.NoteDeviceEnergy(id, 0.5)
						if i%5 == 4 {
							o.DeregisterDevice(id)
						}
					}
				}(w)
			}

			// Task workers: submit, mutate, ingest a bogus reading, delete.
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 15; i++ {
						tk := validTask()
						tk.Area = geo.Circle{Center: positions[w%len(positions)], RadiusM: 400}
						id, err := o.SubmitTask(tk, simclock.Epoch, func(TaskID, string, sensors.Reading) {})
						if err != nil {
							t.Errorf("SubmitTask: %v", err)
							return
						}
						_ = o.UpdateTaskParams(id, simclock.Epoch, func(tk *Task) { tk.SpatialDensity = 1 })
						r := sensors.Reading{Sensor: sensors.Barometer, At: simclock.Epoch, Where: tk.Area.Center}
						_ = o.ReceiveData(string(id)+"#1", "nobody", r, simclock.Epoch)
						if err := o.DeleteTask(id); err != nil {
							t.Errorf("DeleteTask: %v", err)
							return
						}
					}
				}(w)
			}

			// The scheduler tick and the read side run throughout.
			stop := make(chan struct{})
			loops.Add(1)
			go func() {
				defer loops.Done()
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					o.ProcessDue(simclock.Epoch.Add(time.Duration(i) * time.Second))
					o.NextWake()
					i++
				}
			}()
			for r := 0; r < 2; r++ {
				loops.Add(1)
				go func() {
					defer loops.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						_ = o.Stats()
						_ = o.Selections()
						_ = o.SelectionsDropped()
						_ = o.TaskCount()
					}
				}()
			}

			done := make(chan struct{})
			go func() {
				wg.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("concurrent workers wedged")
			}
			close(stop)
			loops.Wait()

			// Whatever interleaving the run took, every device ended in
			// exactly one shard, and each shard's journal tells its story.
			if v := ss.CheckHomingInvariants(); len(v) > 0 {
				t.Errorf("homing invariants violated: %v", v)
			}
			if v := ss.CheckTaskRoutingInvariants(); len(v) > 0 {
				t.Errorf("routing invariants violated: %v", v)
			}
			checkHomesAndJournals(t, ss, journals, 0)
		})
	}
}

// TestExportDeviceAtomicWithReports hammers state reports against
// exports of the same device. An acknowledged report must be in the
// record the export returns: when copy and removal were two steps, a
// report landing between them was acknowledged, applied to a record that
// had already been copied out, and lost on the importing node.
func TestExportDeviceAtomicWithReports(t *testing.T) {
	s, _ := newTestServer(t)
	const rounds = 400
	for round := 0; round < rounds; round++ {
		if err := s.RegisterDevice(freshDevice("mover")); err != nil {
			t.Fatal(err)
		}
		var (
			wg        sync.WaitGroup
			started   atomic.Bool
			lastAcked int
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Report until the device is gone; the last report acknowledged
			// is the one before the first refusal.
			for n := 1; ; n++ {
				at := simclock.Epoch.Add(time.Duration(n) * time.Second)
				if err := s.UpdateDeviceState("mover", geo.CSDepartment, float64(n%100), at); err != nil {
					return
				}
				lastAcked = n
				started.Store(true)
			}
		}()
		for !started.Load() {
			time.Sleep(time.Microsecond)
		}
		rec, err := s.ExportDevice("mover")
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		want := simclock.Epoch.Add(time.Duration(lastAcked) * time.Second)
		if !rec.LastComm.Equal(want) || rec.BatteryPct != float64(lastAcked%100) {
			t.Fatalf("round %d: export carries the report of %v (battery %v), the last acknowledged was %v (battery %d): a report was lost",
				round, rec.LastComm, rec.BatteryPct, want, lastAcked%100)
		}
	}
}
