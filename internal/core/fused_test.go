package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// Differential tests: the production selection pass (Selector.pick /
// SelectIn — in-place scan, prepared containment, bounded heap) against
// the oracle in oracle_test.go (copy out, exact haversine, full sort).
// Same winners, same order, same counts, for every mode.

// diffFleet is one seeded scenario: a store, a task area, and the
// selector both paths share.
type diffFleet struct {
	store *DeviceStore
	sel   *Selector
	area  geo.Circle
	now   time.Time
	rng   *rand.Rand
	next  int
}

// randomDevice draws a device around the area: half of them within a few
// metres of the boundary (where the planar pre-test must hand over to
// the haversine), the rest anywhere out to 1.5 radii. Fairness counters
// and battery come from small discrete sets so scores tie often and the
// ID tie-break is exercised; one device in five trips a hard cut-off.
func (f *diffFleet) randomDevice() DeviceState {
	rng := f.rng
	dist := rng.Float64() * 1.5 * f.area.RadiusM
	if rng.Intn(2) == 0 {
		dist = f.area.RadiusM + (rng.Float64()*2-1)*math.Max(5, f.area.RadiusM*1e-3)
	}
	ang := rng.Float64() * 2 * math.Pi
	pos := geo.Offset(f.area.Center, dist*math.Sin(ang), dist*math.Cos(ang))
	if pos.Lon > 180 { // an offset across the antimeridian lands on its far side
		pos.Lon -= 360
	} else if pos.Lon < -180 {
		pos.Lon += 360
	}
	if !pos.Valid() {
		pos = f.area.Center // an offset over the pole leaves the map
	}
	f.next++
	d := DeviceState{
		ID:         fmt.Sprintf("dev-%05d", f.next),
		Position:   pos,
		BatteryPct: float64(40 + 20*rng.Intn(3)),
		TimesUsed:  rng.Intn(3),
		LastComm:   f.now.Add(-time.Duration(rng.Intn(3)) * time.Minute),
		Sensors:    []sensors.Type{sensors.Barometer},
		Budget:     power.DefaultBudget(),
		Responsive: true, Reliability: 1,
	}
	switch rng.Intn(25) {
	case 0:
		d.Responsive = false
	case 1:
		d.Sensors = []sensors.Type{sensors.Accelerometer}
	case 2:
		d.BatteryPct = d.Budget.CriticalBatteryPct
	case 3:
		d.EnergySpentJ = d.Budget.TotalJ
	case 4:
		d.Reliability = 0.1
	}
	return d
}

func newDiffFleet(t *testing.T, seed int64, area geo.Circle, n int) *diffFleet {
	t.Helper()
	cfg := DefaultSelectorConfig()
	cfg.Rho = 2
	cfg.MinReliability = 0.5
	sel, err := NewSelector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &diffFleet{
		store: NewDeviceStore(), sel: sel, area: area,
		now: simclock.Epoch.Add(time.Hour), rng: rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < n; i++ {
		// Restore keeps the drawn liveness and reliability verbatim.
		if err := f.store.Restore(f.randomDevice()); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// churn applies a few random writes through every index-maintaining
// path, so the scan is compared on an index that has been edited.
func (f *diffFleet) churn(t *testing.T, steps int) {
	t.Helper()
	ids := f.store.All()
	for i := 0; i < steps && len(ids) > 0; i++ {
		d := ids[f.rng.Intn(len(ids))]
		moved := f.randomDevice()
		switch f.rng.Intn(4) {
		case 0:
			moved.ID = d.ID
			if err := f.store.Register(moved); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, ok := f.store.Get(d.ID); ok {
				if err := f.store.UpdateState(d.ID, moved.Position, moved.BatteryPct, f.now); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			moved.ID = d.ID
			if err := f.store.Restore(moved); err != nil {
				t.Fatal(err)
			}
		case 3:
			f.store.Deregister(d.ID)
		}
	}
}

func (f *diffFleet) request(density int) Request {
	return Request{
		Task: &Task{
			ID: "diff-task", Sensor: sensors.Barometer, Area: f.area, SpatialDensity: density,
			Start: f.now, End: f.now.Add(time.Hour),
		},
		Due: f.now, Deadline: f.now.Add(time.Hour),
	}
}

// compare runs every mode of the pass against the oracle on the fleet as
// it stands.
func (f *diffFleet) compare(t *testing.T, label string) {
	t.Helper()
	var (
		sc    SelectScratch
		cands []DeviceState
		osc   oracleScratch
	)
	probe := f.request(1)
	cands = f.store.AppendCandidatesIn(cands[:0], f.area)
	wantIn := len(cands)
	wantQualified := f.sel.CountQualified(probe, cands)

	// Count-only: the wait-queue re-check's mode.
	inArea, qualified := f.sel.pick(f.store, probe.Task, f.now, 0, &sc)
	if inArea != wantIn || qualified != wantQualified {
		t.Fatalf("%s: count-only pass saw %d in area / %d qualified, oracle %d / %d",
			label, inArea, qualified, wantIn, wantQualified)
	}
	if len(sc.winners) != 0 {
		t.Fatalf("%s: count-only pass kept %d winners", label, len(sc.winners))
	}

	// Top-k for a spread of k, k = N among them.
	ks := []int{1, 2, wantQualified / 2, wantQualified - 1, wantQualified}
	for _, k := range ks {
		if k < 1 {
			continue
		}
		req := f.request(k)
		want, werr := oracleSelect(f.sel, f.store, req, f.now, &cands, &osc)
		got, gerr := f.sel.SelectIn(f.store, req, f.now, &sc)
		if werr != nil || gerr != nil {
			t.Fatalf("%s k=%d: oracle err %v, fused err %v", label, k, werr, gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s k=%d of %d: winners differ\nfused  %v\noracle %v", label, k, wantQualified, deviceIDs(got), deviceIDs(want))
		}
	}

	// k = N+1: both refuse, with the same account of the shortfall.
	req := f.request(wantQualified + 1)
	_, werr := oracleSelect(f.sel, f.store, req, f.now, &cands, &osc)
	_, gerr := f.sel.SelectIn(f.store, req, f.now, &sc)
	var wantErr, gotErr *ErrNotEnoughDevices
	if !errors.As(werr, &wantErr) || !errors.As(gerr, &gotErr) {
		t.Fatalf("%s k=N+1: oracle err %v, fused err %v; want ErrNotEnoughDevices from both", label, werr, gerr)
	}
	if *gotErr != *wantErr {
		t.Fatalf("%s k=N+1: fused %+v, oracle %+v", label, *gotErr, *wantErr)
	}

	// SelectAll: every qualified device, in rank order — the oracle's
	// answer for k = N.
	if wantQualified > 0 {
		want, err := oracleSelect(f.sel, f.store, f.request(wantQualified), f.now, &cands, &osc)
		if err != nil {
			t.Fatal(err)
		}
		f.sel.pick(f.store, probe.Task, f.now, keepAll, &sc)
		if !reflect.DeepEqual(sc.winners, want) {
			t.Fatalf("%s keep-all: winners differ\nfused  %v\noracle %v", label, deviceIDs(sc.winners), deviceIDs(want))
		}
	}
}

func deviceIDs(ds []DeviceState) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.ID
	}
	return out
}

// TestFusedSelectionMatchesOracle sweeps radii from 50 m to 50 km and
// latitudes from the equator to 89 degrees, comparing on the fleet as
// registered and again after churn.
func TestFusedSelectionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 120; trial++ {
		lat := rng.Float64() * 89
		if trial%2 == 1 {
			lat = -lat
		}
		radius := 50 * math.Pow(1000, rng.Float64()) // log-uniform 50 m .. 50 km
		area := geo.Circle{
			Center:  geo.Point{Lat: lat, Lon: rng.Float64()*340 - 170},
			RadiusM: radius,
		}
		f := newDiffFleet(t, int64(trial), area, 150+rng.Intn(250))
		label := fmt.Sprintf("trial %d (%v)", trial, area)
		f.compare(t, label)
		f.churn(t, 100)
		f.compare(t, label+" after churn")
		mustCheckIndex(t, label, f.store)
	}
}

// TestFusedSelectionFallbackAreas pins the areas Grid.Cover refuses (the
// scan walks the whole population) and the ones the planar containment
// test refuses (every point takes the haversine).
func TestFusedSelectionFallbackAreas(t *testing.T) {
	areas := map[string]geo.Circle{
		"beyond the grid's latitude": {Center: geo.Point{Lat: 86.5, Lon: 20}, RadiusM: 3000},
		"near the pole":              {Center: geo.Point{Lat: 89.9, Lon: -40}, RadiusM: 8000},
		"across the antimeridian":    {Center: geo.Point{Lat: 10, Lon: 179.99}, RadiusM: 5000},
		"antimeridian, west side":    {Center: geo.Point{Lat: -35, Lon: -179.995}, RadiusM: 2000},
		"radius past the planar cap": {Center: geo.Point{Lat: 40, Lon: -86}, RadiusM: 250_000},
		"continental":                {Center: geo.Point{Lat: 40, Lon: -86}, RadiusM: 5_000_000},
		"more cells than the index":  {Center: geo.Point{Lat: 40, Lon: -86}, RadiusM: 60_000},
	}
	seed := int64(100)
	for name, area := range areas {
		seed++
		f := newDiffFleet(t, seed, area, 300)
		f.compare(t, name)
		f.churn(t, 60)
		f.compare(t, name+" after churn")
		mustCheckIndex(t, name, f.store)
	}
}

// TestFusedSelectionBreaksTiesByID: identical devices score identically,
// so the winners are exactly the lowest IDs, in ID order.
func TestFusedSelectionBreaksTiesByID(t *testing.T) {
	f := newDiffFleet(t, 1, geo.Circle{Center: geo.CSDepartment, RadiusM: 500}, 0)
	perm := rand.New(rand.NewSource(3)).Perm(200)
	for _, i := range perm {
		if err := f.store.Register(DeviceState{
			ID: fmt.Sprintf("twin-%03d", i), Position: geo.CSDepartment, BatteryPct: 80,
			LastComm: f.now, Sensors: []sensors.Type{sensors.Barometer}, Budget: power.DefaultBudget(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var sc SelectScratch
	got, err := f.sel.SelectIn(f.store, f.request(7), f.now, &sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range got {
		if want := fmt.Sprintf("twin-%03d", i); d.ID != want {
			t.Fatalf("winner %d is %s, want %s (all: %v)", i, d.ID, want, deviceIDs(got))
		}
	}
	f.compare(t, "all tied")
}

// TestSelectAllServerTasksEveryQualifiedDevice drives the SelectAll
// ablation through the scheduler: every qualified device is dispatched,
// best first.
func TestSelectAllServerTasksEveryQualifiedDevice(t *testing.T) {
	f := newDiffFleet(t, 9, geo.Circle{Center: geo.CSDepartment, RadiusM: 800}, 200)
	cfg := DefaultServerConfig()
	cfg.Selector = f.sel.cfg
	cfg.SelectAll = true
	var dispatched []string
	srv, err := NewServer(cfg, DispatcherFunc(func(_ Request, d DeviceState) { dispatched = append(dispatched, d.ID) }))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.store.All() {
		if err := srv.Devices().Restore(d); err != nil {
			t.Fatal(err)
		}
	}
	task := Task{Sensor: sensors.Barometer, Area: f.area, SpatialDensity: 3, Start: f.now, End: f.now}
	if _, err := srv.SubmitTask(task, f.now, func(TaskID, string, sensors.Reading) {}); err != nil {
		t.Fatal(err)
	}
	srv.ProcessDue(f.now)

	var cands []DeviceState
	var osc oracleScratch
	cands = f.store.AppendCandidatesIn(cands, f.area)
	n := f.sel.CountQualified(f.request(1), cands)
	want, err := oracleSelect(f.sel, f.store, f.request(n), f.now, &cands, &osc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dispatched, deviceIDs(want)) {
		t.Fatalf("SelectAll dispatched %v, want every qualified device in rank order %v", dispatched, deviceIDs(want))
	}
}

// TestSelectionConcurrentWithIndexWrites runs selections from several
// goroutines while others move, re-register, re-home and deregister
// devices in the same cells. Under -race this checks the pass reads the
// store only under its lock; in any mode it checks every winner was
// copied as a consistent, eligible record.
func TestSelectionConcurrentWithIndexWrites(t *testing.T) {
	area := geo.Circle{Center: geo.CSDepartment, RadiusM: 600}
	f := newDiffFleet(t, 77, area, 400)
	const density = 10
	req := f.request(density)
	ids := deviceIDs(f.store.All())
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			// Each writer draws from its own generator and fleet view.
			wf := &diffFleet{store: f.store, area: area, now: f.now, rng: rand.New(rand.NewSource(seed))}
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[wf.rng.Intn(len(ids))]
				d := wf.randomDevice()
				d.ID = id
				var err error
				switch wf.rng.Intn(4) {
				case 0:
					// Fails only when the other writer has just deregistered id.
					_ = f.store.UpdateState(id, d.Position, d.BatteryPct, f.now)
				case 1:
					err = f.store.Restore(d)
				case 2:
					err = f.store.Register(d)
				case 3:
					f.store.Deregister(id)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w) + 500)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var sc SelectScratch
			for i := 0; i < 400; i++ {
				got, err := f.sel.SelectIn(f.store, req, f.now, &sc)
				var short *ErrNotEnoughDevices
				if errors.As(err, &short) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != density {
					t.Errorf("selected %d devices, want %d", len(got), density)
					return
				}
				seen := make(map[string]bool, len(got))
				for _, d := range got {
					if seen[d.ID] {
						t.Errorf("device %s selected twice in one pass", d.ID)
					}
					seen[d.ID] = true
					if !area.Contains(d.Position) || f.sel.cutoff(req.Task, &d) != "" {
						t.Errorf("winner %s was copied out ineligible: %+v", d.ID, d)
					}
				}
				f.sel.pick(f.store, req.Task, f.now, 0, &sc) // the count-only mode reads the same records
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	mustCheckIndex(t, "after concurrent writes", f.store)
}
