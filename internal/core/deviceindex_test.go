package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// checkIndex verifies the slab layout's invariants: every registered ID
// has exactly one record, in the slab and at the index its slot names;
// that slab is the one of the record's cell; no slab is kept empty or
// carries more slack than the capacity policy allows; and nothing is
// reachable past a slab's end (a swap-remove that left the tail behind
// would keep a departed device's strings alive, and double it on the
// next append's copy).
func (s *DeviceStore) checkIndex() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	records := 0
	for cell, b := range s.cells {
		n := len(b.recs)
		switch {
		case b.cell != cell:
			return fmt.Errorf("slab of cell %v filed under %v", b.cell, cell)
		case n == 0:
			return fmt.Errorf("cell %v: empty slab retained", cell)
		case cap(b.recs) > n+slabSlackSteps*slabStep(n):
			return fmt.Errorf("cell %v: capacity %d for %d records exceeds the slack bound", cell, cap(b.recs), n)
		}
		records += n
		for i := range b.recs {
			d := &b.recs[i]
			sl, ok := s.devices[d.ID]
			switch {
			case d.ID == "":
				return fmt.Errorf("cell %v record %d: zero record reachable", cell, i)
			case !ok:
				return fmt.Errorf("cell %v record %d: device %s is not registered", cell, i, d.ID)
			case sl.slab != b || sl.idx != i:
				return fmt.Errorf("device %s: slot says cell %v index %d, record is at %v index %d", d.ID, sl.slab.cell, sl.idx, cell, i)
			case s.grid.CellOf(d.Position) != cell:
				return fmt.Errorf("device %s at %v is in the slab of cell %v", d.ID, d.Position, cell)
			}
		}
		tail := b.recs[n:cap(b.recs)]
		for i := range tail {
			if tail[i].ID != "" || tail[i].Sensors != nil {
				return fmt.Errorf("cell %v: live data past the slab's end at %d", cell, n+i)
			}
		}
	}
	// Every record is where the slot of its ID says, so no ID has two;
	// equal counts then mean every ID has one.
	if records != len(s.devices) {
		return fmt.Errorf("%d records in slabs, %d devices registered", records, len(s.devices))
	}
	return nil
}

// mustCheckIndex fails the test on a broken store invariant.
func mustCheckIndex(t *testing.T, label string, s *DeviceStore) {
	t.Helper()
	if err := s.checkIndex(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// fullScanIn is the reference the spatial index must agree with:
// All() filtered by area.Contains.
func fullScanIn(s *DeviceStore, area geo.Circle) []DeviceState {
	var out []DeviceState
	for _, d := range s.All() {
		if area.Contains(d.Position) {
			out = append(out, d)
		}
	}
	return out
}

// sameAsScan checks both readers of the index against the full scan: the
// oracle's CandidatesIn record by record, and the production selection
// pass (which copies no candidates) by how many records it found inside.
func sameAsScan(t *testing.T, label string, store *DeviceStore, area geo.Circle) {
	t.Helper()
	want := fullScanIn(store, area)
	sameDeviceSets(t, label, store.CandidatesIn(area), want)
	var sc SelectScratch
	task := Task{Sensor: sensors.Barometer, Area: area, SpatialDensity: 1}
	if inArea, _ := benchSelector(t).pick(store, &task, simclock.Epoch, 0, &sc); inArea != len(want) {
		t.Fatalf("%s: selection pass found %d records inside, full scan %d", label, inArea, len(want))
	}
}

func sameDeviceSets(t *testing.T, label string, indexed, scanned []DeviceState) {
	t.Helper()
	if len(indexed) != len(scanned) {
		t.Fatalf("%s: indexed returned %d devices, full scan %d", label, len(indexed), len(scanned))
	}
	for i := range indexed {
		if indexed[i].ID != scanned[i].ID {
			t.Fatalf("%s: device %d: indexed %s, full scan %s", label, i, indexed[i].ID, scanned[i].ID)
		}
		if indexed[i].Position != scanned[i].Position {
			t.Fatalf("%s: device %s: positions diverge", label, indexed[i].ID)
		}
	}
}

// TestCandidatesInMatchesFullScan is the index's property test: across
// random registers, moves (including cross-cell moves), deregisters, and
// Restore-based re-homes, CandidatesIn(area) returns exactly the devices
// that filtering All() with Contains would.
func TestCandidatesInMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	store := NewDeviceStore()
	base := geo.CSDepartment
	randPos := func() geo.Point {
		// Spread over ~8x8 km so devices cross many 500 m cells.
		return geo.Offset(base, rng.Float64()*8000-4000, rng.Float64()*8000-4000)
	}
	randArea := func() geo.Circle {
		return geo.Circle{Center: randPos(), RadiusM: 50 + rng.Float64()*3000}
	}
	live := make(map[string]bool)
	for step := 0; step < 4000; step++ {
		id := fmt.Sprintf("dev-%03d", rng.Intn(300))
		switch rng.Intn(5) {
		case 0, 1: // register (also re-register under the same ID)
			err := store.Register(DeviceState{
				ID: id, Position: randPos(), BatteryPct: float64(rng.Intn(101)),
				Sensors: []sensors.Type{sensors.Barometer},
				Budget:  power.DefaultBudget(),
			})
			if err != nil {
				t.Fatal(err)
			}
			live[id] = true
		case 2: // move via a state report
			if live[id] {
				if err := store.UpdateState(id, randPos(), 50, simclock.Epoch); err != nil {
					t.Fatal(err)
				}
			}
		case 3: // re-home path: the record moves verbatim via Restore
			if live[id] {
				rec, ok := store.Get(id)
				if !ok {
					t.Fatalf("live device %s missing", id)
				}
				rec.Position = randPos()
				if err := store.Restore(rec); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			store.Deregister(id)
			delete(live, id)
		}
		mustCheckIndex(t, fmt.Sprintf("step %d", step), store)
		if step%50 == 0 {
			area := randArea()
			sameAsScan(t, fmt.Sprintf("step %d", step), store, area)
		}
	}
	// Fallback envelope: an area the grid cannot cover must agree too.
	huge := geo.Circle{Center: base, RadiusM: 5_000_000}
	sameAsScan(t, "huge-area fallback", store, huge)
}

// TestCandidatesInAcrossShardedRehomes drives devices back and forth
// across a two-region ShardedServer and checks each shard's index stays
// exact through the Deregister/Restore crossings.
func TestCandidatesInAcrossShardedRehomes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	west := geo.CSDepartment
	east := geo.Offset(west, 0, 10_000)
	regions := []Region{
		{Name: "west", Area: geo.Circle{Center: west, RadiusM: 2000}},
		{Name: "east", Area: geo.Circle{Center: east, RadiusM: 2000}},
	}
	s, err := NewShardedServer(DefaultServerConfig(), DispatcherFunc(func(Request, DeviceState) {}), regions)
	if err != nil {
		t.Fatal(err)
	}
	centers := []geo.Point{west, east}
	for i := 0; i < 60; i++ {
		if err := s.RegisterDevice(DeviceState{
			ID:       fmt.Sprintf("dev-%02d", i),
			Position: geo.Offset(centers[i%2], rng.Float64()*1000-500, rng.Float64()*1000-500),
			Sensors:  []sensors.Type{sensors.Barometer},
			Budget:   power.DefaultBudget(), BatteryPct: 80,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 500; step++ {
		id := fmt.Sprintf("dev-%02d", rng.Intn(60))
		pos := geo.Offset(centers[rng.Intn(2)], rng.Float64()*1000-500, rng.Float64()*1000-500)
		if err := s.UpdateDeviceState(id, pos, 70, simclock.Epoch.Add(time.Duration(step)*time.Second)); err != nil {
			t.Fatal(err)
		}
		for i := range regions {
			shard, reg, err := s.Shard(i)
			if err != nil {
				t.Fatal(err)
			}
			mustCheckIndex(t, fmt.Sprintf("step %d shard %s", step, reg.Name), shard.Devices())
		}
		if step%25 == 0 {
			for i := range regions {
				shard, reg, err := s.Shard(i)
				if err != nil {
					t.Fatal(err)
				}
				area := geo.Circle{Center: reg.Area.Center, RadiusM: 800 + rng.Float64()*1500}
				sameAsScan(t, fmt.Sprintf("step %d shard %s", step, reg.Name), shard.Devices(), area)
			}
		}
	}
}

// TestSlabSlackBounded runs a commute — every round half the fleet moves
// to another cell, crowding a few cells and draining the rest, then the
// other way — and requires the slabs' total capacity to stay within 30%
// of the records they hold plus a constant per occupied cell, at every
// round: the bound doubling capacities would break.
func TestSlabSlackBounded(t *testing.T) {
	const (
		fleet  = 20_000
		rounds = 12
	)
	rng := rand.New(rand.NewSource(5))
	store := NewDeviceStore()
	home := func() geo.Point { // ~400 cells
		return geo.Offset(geo.CSDepartment, rng.Float64()*10_000, rng.Float64()*10_000)
	}
	downtown := func() geo.Point { // ~16 cells
		return geo.Offset(geo.CSDepartment, 4000+rng.Float64()*2000, 4000+rng.Float64()*2000)
	}
	ids := make([]string, fleet)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev-%05d", i)
		if err := store.Register(DeviceState{
			ID: ids[i], Position: home(), BatteryPct: 80,
			Sensors: []sensors.Type{sensors.Barometer}, Budget: power.DefaultBudget(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < rounds; round++ {
		dest := home
		if round%2 == 0 {
			dest = downtown
		}
		for _, i := range rng.Perm(fleet)[:fleet/2] {
			if err := store.UpdateState(ids[i], dest(), 80, simclock.Epoch); err != nil {
				t.Fatal(err)
			}
		}
		mustCheckIndex(t, fmt.Sprintf("round %d", round), store)
		capacity := 0
		for _, b := range store.cells {
			capacity += cap(b.recs)
		}
		if bound := 1.3*float64(store.Len()) + 8*float64(len(store.cells)); float64(capacity) > bound {
			t.Fatalf("round %d: slabs hold capacity for %d records, bound %.0f (%d devices in %d cells)",
				round, capacity, bound, store.Len(), len(store.cells))
		}
	}
}

// TestSensorsDetachedFromCaller covers the aliasing bug: the store must
// not share a Sensors backing array with either the registering caller's
// slice or the copies it hands out.
func TestSensorsDetachedFromCaller(t *testing.T) {
	store := NewDeviceStore()
	in := []sensors.Type{sensors.Barometer}
	if err := store.Register(DeviceState{
		ID: "d1", Position: geo.CSDepartment, BatteryPct: 80,
		Sensors: in, Budget: power.DefaultBudget(),
	}); err != nil {
		t.Fatal(err)
	}
	in[0] = sensors.Type(99) // caller keeps mutating its own slice
	got, _ := store.Get("d1")
	if !got.HasSensor(sensors.Barometer) {
		t.Fatal("register aliased the caller's Sensors slice")
	}
	got.Sensors[0] = sensors.Type(98) // reader mutates its copy
	again, _ := store.Get("d1")
	if !again.HasSensor(sensors.Barometer) {
		t.Fatal("Get shares the live record's Sensors backing array")
	}
	all := store.All()
	all[0].Sensors[0] = sensors.Type(97)
	final, _ := store.Get("d1")
	if !final.HasSensor(sensors.Barometer) {
		t.Fatal("All shares the live record's Sensors backing array")
	}
}

// TestSensorsConcurrentReadVsReregister is the -race witness for the
// aliasing fix: readers inspect Sensors while another goroutine
// re-registers the same device, mutating its own input slice between
// calls. Pre-fix, the store aliased that slice and the detector fired.
func TestSensorsConcurrentReadVsReregister(t *testing.T) {
	store := NewDeviceStore()
	mine := []sensors.Type{sensors.Barometer, sensors.GPS}
	reg := func() error {
		return store.Register(DeviceState{
			ID: "d1", Position: geo.CSDepartment, BatteryPct: 80,
			Sensors: mine, Budget: power.DefaultBudget(),
		})
	}
	if err := reg(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mine[i%2] = sensors.Barometer // writer: mutate own slice, re-register
			if err := reg(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if d, ok := store.Get("d1"); ok {
					_ = d.HasSensor(sensors.Barometer)
				}
				for _, d := range store.CandidatesIn(geo.Circle{Center: geo.CSDepartment, RadiusM: 100}) {
					_ = d.HasSensor(sensors.Barometer)
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestUpdateStateValidation covers the input-validation boundary: NaN,
// infinities, out-of-range battery, and invalid coordinates must be
// rejected without touching the record.
func TestUpdateStateValidation(t *testing.T) {
	store := NewDeviceStore()
	if err := store.Register(DeviceState{
		ID: "d1", Position: geo.CSDepartment, BatteryPct: 80,
		Sensors: []sensors.Type{sensors.Barometer}, Budget: power.DefaultBudget(),
	}); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name    string
		pos     geo.Point
		battery float64
	}{
		{"nan battery", geo.CSDepartment, math.NaN()},
		{"+inf battery", geo.CSDepartment, math.Inf(1)},
		{"-inf battery", geo.CSDepartment, math.Inf(-1)},
		{"negative battery", geo.CSDepartment, -1},
		{"battery over 100", geo.CSDepartment, 100.5},
		{"nan lat", geo.Point{Lat: math.NaN(), Lon: 0}, 50},
		{"lat out of range", geo.Point{Lat: 95, Lon: 0}, 50},
		{"lon out of range", geo.Point{Lat: 0, Lon: 181}, 50},
	}
	for _, tc := range bad {
		if err := store.UpdateState("d1", tc.pos, tc.battery, simclock.Epoch); err == nil {
			t.Errorf("%s: UpdateState accepted pos=%v battery=%v", tc.name, tc.pos, tc.battery)
		}
	}
	got, _ := store.Get("d1")
	if got.BatteryPct != 80 || got.Position != geo.CSDepartment {
		t.Fatalf("rejected updates mutated the record: %+v", got)
	}
	// Register must apply the same boundary.
	if err := store.Register(DeviceState{
		ID: "d2", Position: geo.CSDepartment, BatteryPct: math.NaN(),
		Budget: power.DefaultBudget(),
	}); err == nil {
		t.Error("Register accepted NaN battery")
	}
	if err := store.Register(DeviceState{
		ID: "d2", Position: geo.Point{Lat: 91, Lon: 0}, BatteryPct: 50,
		Budget: power.DefaultBudget(),
	}); err == nil {
		t.Error("Register accepted invalid position")
	}
	// Valid updates still pass and re-bucket the device.
	moved := geo.Offset(geo.CSDepartment, 3000, 3000)
	if err := store.UpdateState("d1", moved, 42, simclock.Epoch); err != nil {
		t.Fatal(err)
	}
	cands := store.CandidatesIn(geo.Circle{Center: moved, RadiusM: 100})
	if len(cands) != 1 || cands[0].ID != "d1" {
		t.Fatalf("moved device not found at new cell: %+v", cands)
	}
}
