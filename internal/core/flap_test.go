package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/mobility"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// The grid-edge flap soak: a fleet of devices square-waving across the
// west/east shard boundary while both shards schedule concurrently. The
// re-homing protocol promises a flapping device is never visible to two
// shards at once (no double-dispatch for one request) and never falls
// out of both (no stranding). This is the core-level half of the
// mobility satellite; the cluster package runs the networked version.

// flapFixture is the two-region deployment both soaks run on: west and
// east meet at a boundary, one repeating task per region keeps both
// shards dispatching, every dispatch is counted by (request, device),
// and each shard journals to memory.
type flapFixture struct {
	ss         *ShardedServer
	west, east geo.Point
	journals   map[string]*memJournal

	mu     sync.Mutex
	counts map[flapDispatch]int
}

type flapDispatch struct {
	reqID string
	devID string
}

func newFlapFixture(t *testing.T, taskEnd time.Time, period time.Duration) *flapFixture {
	t.Helper()
	f := &flapFixture{
		west:     geo.Point{Lat: 40.0, Lon: -86.95},
		east:     geo.Point{Lat: 40.0, Lon: -86.85},
		journals: map[string]*memJournal{"west": {}, "east": {}},
		counts:   make(map[flapDispatch]int),
	}
	regions := []Region{
		{Name: "west", Area: geo.Circle{Center: f.west, RadiusM: 4500}},
		{Name: "east", Area: geo.Circle{Center: f.east, RadiusM: 4500}},
	}
	disp := DispatcherFunc(func(req Request, dev DeviceState) {
		f.mu.Lock()
		f.counts[flapDispatch{req.ID(), dev.ID}]++
		f.mu.Unlock()
	})
	cfg := DefaultServerConfig()
	cfg.ValidateRegion = false // flappers legitimately leave the task area mid-round
	cfg.ShardJournal = func(region string) JournalSink { return f.journals[region] }
	ss, err := NewShardedServer(cfg, disp, regions)
	if err != nil {
		t.Fatal(err)
	}
	f.ss = ss
	for _, r := range regions {
		tk := Task{
			Sensor:         sensors.Barometer,
			SamplingPeriod: period,
			Start:          simclock.Epoch,
			End:            taskEnd,
			Area:           geo.Circle{Center: r.Area.Center, RadiusM: 4500},
			SpatialDensity: 4,
		}
		if _, err := ss.SubmitTask(tk, simclock.Epoch, func(TaskID, string, sensors.Reading) {}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// answerOpen uploads a reading for everything dispatched so far, so
// rounds keep completing. Replies to requests already answered are
// rejected; only the routing matters here.
func (f *flapFixture) answerOpen(now time.Time) {
	f.mu.Lock()
	open := make([]flapDispatch, 0, len(f.counts))
	for k := range f.counts {
		open = append(open, k)
	}
	f.mu.Unlock()
	for _, k := range open {
		reading := sensors.Reading{Sensor: sensors.Barometer, Value: 1013, Unit: "hPa", At: now, Where: f.west}
		_ = f.ss.ReceiveData(k.reqID, k.devID, reading, now)
	}
}

// checkQuiesced asserts what must hold once the traffic stops: no
// request reached the same device twice, every device is stored in
// exactly one shard and routed there, and every task is routed.
func (f *flapFixture) checkQuiesced(t *testing.T, seed int64) {
	t.Helper()
	f.mu.Lock()
	for k, n := range f.counts {
		if n > 1 {
			t.Errorf("request %s dispatched %d times to %s (double-dispatch)", k.reqID, n, k.devID)
		}
	}
	total := len(f.counts)
	f.mu.Unlock()
	if total == 0 {
		t.Fatal("soak dispatched nothing; scenario is vacuous")
	}
	if v := f.ss.CheckHomingInvariants(); len(v) > 0 {
		t.Fatalf("homing invariants violated (seed %d):\n%s", seed, v)
	}
	if v := f.ss.CheckTaskRoutingInvariants(); len(v) > 0 {
		t.Fatalf("task routing invariants violated (seed %d):\n%s", seed, v)
	}
}

func TestBoundaryFlapSoak(t *testing.T) {
	const (
		flappers = 32
		ticks    = 120
		tick     = 15 * time.Second
		seed     = 1803
	)
	f := newFlapFixture(t, simclock.Epoch.Add(time.Duration(ticks+1)*tick), 2*tick)
	ss, west, east := f.ss, f.west, f.east

	models := make([]mobility.Model, flappers)
	for i := 0; i < flappers; i++ {
		// Per-device seeded phase: the fleet crosses out of step, so every
		// tick sees some devices mid-flap in each direction.
		models[i] = mobility.NewPingPong(west, east, simclock.Epoch, 2*tick, seed+int64(i))
		d := freshDevice(fmt.Sprintf("flap-%03d", i))
		d.Position = models[i].PositionAt(simclock.Epoch)
		if err := ss.RegisterDevice(d); err != nil {
			t.Fatal(err)
		}
	}

	for step := 0; step < ticks; step++ {
		now := simclock.Epoch.Add(time.Duration(step) * tick)
		// State reports race the scheduling fan-out on purpose: re-homing
		// happens while ProcessDue is mid-flight on both shards.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, m := range models {
				id := fmt.Sprintf("flap-%03d", i)
				if err := ss.UpdateDeviceState(id, m.PositionAt(now), 80, now); err != nil {
					t.Errorf("tick %d: update %s: %v", step, id, err)
					return
				}
			}
		}()
		ss.ProcessDue(now)
		wg.Wait()

		f.answerOpen(now)
	}

	f.checkQuiesced(t, seed)
	if got := ss.DeviceCount(); got != flappers {
		t.Fatalf("device count = %d, want %d (stranded or duplicated)", got, flappers)
	}
}

// TestStripedRoutingStorm is the soak for the striped device index: every
// kind of device operation at once, on IDs that collide on purpose,
// while both shards schedule. In-region reporters and boundary flappers
// (crossing both ways at the same moment) are the city's traffic; the
// churn workers fight over a handful of IDs with Register from either
// region, Deregister, Export-then-Restore into the other region, prefs,
// energy and reports. Whatever interleaving the run takes, each device's
// operations must have been atomic — the quiesce checks — and journaled
// in the order they happened: each shard's journal replays to the device
// set, budgets and energy the live shard ended with.
func TestStripedRoutingStorm(t *testing.T) {
	const (
		statics  = 16 // per region
		flappers = 16
		churners = 6 // IDs, each fought over by every churn worker
		workers  = 3
		rounds   = 150
		tick     = 15 * time.Second
		seed     = 2917
	)
	f := newFlapFixture(t, simclock.Epoch.Add(time.Hour), 2*tick)
	ss := f.ss
	sides := [2]geo.Point{f.west, f.east}
	register := func(id string, pos geo.Point) {
		d := freshDevice(id)
		d.Position = pos
		if err := ss.RegisterDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < statics; i++ {
		register(fmt.Sprintf("static-w-%02d", i), f.west)
		register(fmt.Sprintf("static-e-%02d", i), f.east)
	}
	for i := 0; i < flappers; i++ {
		register(fmt.Sprintf("flap-%02d", i), sides[i%2])
	}

	var wg sync.WaitGroup
	// In-region reporters: never leave their shard.
	for side, prefix := range []string{"static-w", "static-e"} {
		wg.Add(1)
		go func(pos geo.Point, prefix string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				at := simclock.Epoch.Add(time.Duration(r) * time.Second)
				for i := 0; i < statics; i++ {
					id := fmt.Sprintf("%s-%02d", prefix, i)
					if err := ss.UpdateDeviceState(id, geo.Offset(pos, float64(r), float64(i)), 70, at); err != nil {
						t.Errorf("in-region report %s: %v", id, err)
						return
					}
				}
			}
		}(sides[side], prefix)
	}
	// Flappers: even ones start west, odd ones east, all cross every
	// round, so each round re-homes in both directions at once.
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func(half int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				at := simclock.Epoch.Add(time.Duration(r) * time.Second)
				for i := half; i < flappers; i += 2 {
					id := fmt.Sprintf("flap-%02d", i)
					if err := ss.UpdateDeviceState(id, sides[(i+r)%2], 60, at); err != nil {
						t.Errorf("flap %s: %v", id, err)
						return
					}
				}
			}
		}(half)
	}
	// Churn: every worker runs every operation over the same few IDs, out
	// of step with the others. Errors are expected (a report for a device
	// another worker just deregistered) and are not the subject.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				at := simclock.Epoch.Add(time.Duration(r) * time.Second)
				id := fmt.Sprintf("churn-%d", (r+w)%churners)
				here, there := sides[(r+w)%2], sides[(r+w+1)%2]
				switch (r/churners + w) % 6 {
				case 0:
					d := freshDevice(id)
					d.Position = here
					if err := ss.RegisterDevice(d); err != nil {
						t.Errorf("churn register %s: %v", id, err)
						return
					}
				case 1:
					_ = ss.UpdateDeviceState(id, there, 50, at)
				case 2:
					if rec, err := ss.ExportDevice(id); err == nil {
						rec.Position = there
						if err := ss.RestoreDevice(rec); err != nil {
							t.Errorf("churn restore %s: %v", id, err)
							return
						}
					}
				case 3:
					_ = ss.UpdateDevicePrefs(id, power.Budget{TotalJ: float64(100 + r), CriticalBatteryPct: 10})
					ss.NoteDeviceEnergy(id, 0.25)
				case 4:
					ss.DeregisterDevice(id)
				case 5:
					_ = ss.UpdateDeviceState(id, here, 55, at)
				}
			}
		}(w)
	}
	// The scheduler ticks, and answers what it dispatched, until the
	// device traffic has drained.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for step := 0; ; step++ {
		now := simclock.Epoch.Add(time.Duration(step) * tick)
		ss.ProcessDue(now)
		f.answerOpen(now)
		select {
		case <-done:
		default:
			continue
		}
		break
	}

	f.checkQuiesced(t, seed)
	homes := ss.DeviceHomes()
	if got := ss.DeviceCount(); got != len(homes) || got < 2*statics+flappers {
		t.Fatalf("device count = %d, %d devices homed, fleet without churners is %d", got, len(homes), 2*statics+flappers)
	}
	for i := 0; i < flappers; i++ {
		// rounds is even, so every flapper ends on the side it started.
		if id := fmt.Sprintf("flap-%02d", i); homes[id] != i%2 {
			t.Errorf("%s ended in shard %d, want %d", id, homes[id], i%2)
		}
	}

	checkHomesAndJournals(t, ss, f.journals, seed)
}

// checkHomesAndJournals asserts, at a quiesce point, that DeviceHomes is
// exactly the shards' contents — every stored device homed to the shard
// that stores it, nothing homed that is not stored — and that operations
// were journaled in the order they happened: each shard's journal,
// replayed alone, rebuilds that shard's device set, budgets and energy
// as they are.
func checkHomesAndJournals(t *testing.T, ss *ShardedServer, journals map[string]*memJournal, seed int64) {
	t.Helper()
	homes := ss.DeviceHomes()
	stored := 0
	for i := 0; i < ss.Shards(); i++ {
		live, region, err := ss.Shard(i)
		if err != nil {
			t.Fatal(err)
		}
		name := region.Name
		mustCheckIndex(t, "shard "+name, live.Devices())
		want := live.Devices().All()
		stored += len(want)
		for _, d := range want {
			if home, ok := homes[d.ID]; !ok || home != i {
				t.Errorf("device %s is stored in shard %s, DeviceHomes says %d (present %v)", d.ID, name, home, ok)
			}
		}
		replayed, err := NewServer(DefaultServerConfig(), DispatcherFunc(func(Request, DeviceState) {}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := replayed.Recover(nil, journals[name].records(), func(TaskID) DataSink { return nopSink }); err != nil {
			t.Fatalf("replay %s: %v", name, err)
		}
		got := replayed.Devices().All()
		if len(want) != len(got) {
			t.Fatalf("shard %s holds %d devices, its journal replays to %d (seed %d)", name, len(want), len(got), seed)
		}
		for k := range want {
			if want[k].ID != got[k].ID || want[k].Budget != got[k].Budget || want[k].EnergySpentJ != got[k].EnergySpentJ {
				t.Errorf("shard %s device %s: live budget %+v energy %v, replayed %s budget %+v energy %v",
					name, want[k].ID, want[k].Budget, want[k].EnergySpentJ, got[k].ID, got[k].Budget, got[k].EnergySpentJ)
			}
		}
	}
	if stored != len(homes) {
		t.Errorf("%d devices stored, %d homed", stored, len(homes))
	}
}
