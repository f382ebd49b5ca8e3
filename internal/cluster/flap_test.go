package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"senseaid/internal/client"
	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/mobility"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// The networked half of the grid-edge flap soak (core has the in-process
// version): devices square-wave across the west/east node boundary while
// both workers schedule, proving the cross-node re-homing path never
// double-dispatches one request to a device and never strands a flapper
// with no home. Run under -race in CI.

// flapDevice is routedDevice plus schedule accounting: every schedule's
// RequestID is tallied per device so the test can prove no request was
// pushed to the same device twice.
func flapDevice(t *testing.T, routerAddr, id string, pos geo.Point, tally func(dev, reqID string)) (*client.Client, func(geo.Point)) {
	t.Helper()
	var mu sync.Mutex
	cur := pos
	c, err := client.Dial(client.Config{
		Addr:       routerAddr,
		DeviceID:   id,
		Position:   pos,
		BatteryPct: 90,
		Sensors:    []sensors.Type{sensors.Barometer},
	})
	if err != nil {
		t.Fatalf("client.Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Register(); err != nil {
		t.Fatalf("Register(%s): %v", id, err)
	}
	if err := c.StartSensing(func(sch wire.Schedule) {
		tally(id, sch.RequestID)
		mu.Lock()
		where := cur
		mu.Unlock()
		reading := sensors.Reading{
			Sensor: sch.Sensor, Value: 1013.25, Unit: "hPa",
			At: time.Now(), Where: where,
		}
		go func() {
			if err := c.SendSenseData(sch.RequestID, reading); err != nil &&
				!strings.Contains(err.Error(), "closed") {
				t.Logf("SendSenseData(%s): %v", id, err)
			}
		}()
	}); err != nil {
		t.Fatalf("StartSensing(%s): %v", id, err)
	}
	return c, func(p geo.Point) {
		mu.Lock()
		cur = p
		mu.Unlock()
	}
}

func TestClusterBoundaryFlapSoak(t *testing.T) {
	const (
		flappers = 6
		seed     = 902
		soakFor  = 2500 * time.Millisecond
	)
	r := startRouter(t)
	westSrv := startWorker(t, r, westRegion, "west-1", "")
	eastSrv := startWorker(t, r, eastRegion, "east-1", "")

	var tmu sync.Mutex
	schedules := make(map[string]int) // "device reqID" -> times pushed
	tally := func(dev, reqID string) {
		tmu.Lock()
		schedules[dev+" "+reqID]++
		tmu.Unlock()
	}

	type flapper struct {
		dev    *client.Client
		moveTo func(geo.Point)
		model  mobility.Model
	}
	start := time.Now()
	var fleet []flapper
	for i := 0; i < flappers; i++ {
		id := fmt.Sprintf("flap-%d", i)
		dev, moveTo := flapDevice(t, r.Addr(), id, westCenter, tally)
		fleet = append(fleet, flapper{
			dev: dev, moveTo: moveTo,
			// Seeded phases: the fleet crosses out of step.
			model: mobility.NewPingPong(westCenter, eastCenter, start, 300*time.Millisecond, seed+int64(i)),
		})
	}

	app, deliveries := collectingCAS(t, r.Addr())
	// Constant dispatch pressure on both sides of the boundary while the
	// fleet flaps. Density 1: a region briefly empty of flappers must not
	// stall the round.
	if _, err := app.Task(regionSpec(westCenter, 1, soakFor+time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Task(regionSpec(eastCenter, 1, soakFor+time.Second)); err != nil {
		t.Fatal(err)
	}

	for time.Since(start) < soakFor {
		now := time.Now()
		for _, f := range fleet {
			pos := f.model.PositionAt(now)
			f.moveTo(pos)
			if err := f.dev.ReportState(pos, 85, now); err != nil {
				t.Fatalf("ReportState: %v", err)
			}
		}
		time.Sleep(50 * time.Millisecond)
	}

	waitFor(t, 10*time.Second, "re-homes to happen during the soak", func() bool {
		return r.met.rehomes.Value() >= uint64(flappers)
	})
	if n := r.met.rehomeErrors.Value(); n != 0 {
		t.Fatalf("%d re-home errors during flap soak (seed %d)", n, seed)
	}

	// No request was ever pushed twice to one device.
	tmu.Lock()
	for key, n := range schedules {
		if n > 1 {
			t.Errorf("schedule %s pushed %d times (double-dispatch, seed %d)", key, n, seed)
		}
	}
	pushed := len(schedules)
	tmu.Unlock()
	if pushed == 0 {
		t.Fatal("soak pushed no schedules; scenario is vacuous")
	}

	// Dispatch pressure must have produced deliveries, not just pushes.
	if len(deliveries()) == 0 {
		t.Fatal("no deliveries during flap soak")
	}

	// No flapper stranded or double-homed: park everyone in west, let the
	// re-homes settle, then every device must be stored on exactly one
	// node — and each node's own routing invariants must hold.
	for _, f := range fleet {
		f.moveTo(westCenter)
		if err := f.dev.ReportState(westCenter, 85, time.Now()); err != nil {
			t.Fatalf("parking ReportState: %v", err)
		}
	}
	westCore := westSrv.Orchestrator()
	eastCore := eastSrv.Orchestrator()
	waitFor(t, 10*time.Second, "every flapper homed exactly once, in west", func() bool {
		westHomes := westCore.DeviceHomes()
		eastHomes := eastCore.DeviceHomes()
		for i := 0; i < flappers; i++ {
			id := fmt.Sprintf("flap-%d", i)
			_, inWest := westHomes[id]
			_, inEast := eastHomes[id]
			if !inWest || inEast {
				return false
			}
		}
		return true
	})
	for _, c := range []*core.ShardedServer{westCore, eastCore} {
		if v := c.CheckHomingInvariants(); len(v) > 0 {
			t.Fatalf("homing invariants violated after soak (seed %d):\n%s", seed, strings.Join(v, "\n"))
		}
	}
}
