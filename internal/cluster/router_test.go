package cluster

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/client"
	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/netserver"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// Two disjoint regions ~8.5 km apart; devices and tasks land in one or
// the other by position.
var (
	westCenter = geo.Point{Lat: 40.0, Lon: -86.95}
	eastCenter = geo.Point{Lat: 40.0, Lon: -86.85}
	westRegion = core.Region{Name: "west", Area: geo.Circle{Center: westCenter, RadiusM: 3000}}
	eastRegion = core.Region{Name: "east", Area: geo.Circle{Center: eastCenter, RadiusM: 3000}}
)

func startRouter(t *testing.T) *Router {
	t.Helper()
	r, err := Listen(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("cluster.Listen: %v", err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// startWorker boots a single-region worker and enrolls it with the
// router as the region's primary.
func startWorker(t *testing.T, r *Router, region core.Region, nodeID, stateDir string) *netserver.Server {
	t.Helper()
	s, err := netserver.Listen(netserver.Config{
		Addr:       "127.0.0.1:0",
		TickPeriod: 20 * time.Millisecond,
		Regions:    []core.Region{region},
		StateDir:   stateDir,
	})
	if err != nil {
		t.Fatalf("netserver.Listen(%s): %v", region.Name, err)
	}
	t.Cleanup(func() { _ = s.Close() })
	if err := s.Enroll(r.Addr(), nodeID); err != nil {
		t.Fatalf("Enroll(%s): %v", nodeID, err)
	}
	return s
}

// routedDevice connects a device to the ROUTER and answers every
// schedule with a barometer reading taken at its current position. The
// returned setter moves the device (the next readings carry the new
// position).
func routedDevice(t *testing.T, routerAddr, id string, pos geo.Point) (*client.Client, func(geo.Point)) {
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

func regionSpec(center geo.Point, density int, window time.Duration) wire.TaskSpec {
	now := time.Now()
	return wire.TaskSpec{
		Sensor:         sensors.Barometer,
		SamplingPeriod: 150 * time.Millisecond,
		Start:          now,
		End:            now.Add(window),
		Center:         center,
		AreaRadiusM:    2500,
		SpatialDensity: density,
	}
}

// collectingCAS dials the router and records every delivery.
func collectingCAS(t *testing.T, routerAddr string) (*cas.CAS, func() []wire.SensedData) {
	t.Helper()
	app, err := cas.Dial(routerAddr)
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	t.Cleanup(func() { _ = app.Close() })
	var mu sync.Mutex
	var got []wire.SensedData
	if err := app.ReceiveSensedData(func(sd wire.SensedData) {
		mu.Lock()
		got = append(got, sd)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	return app, func() []wire.SensedData {
		mu.Lock()
		defer mu.Unlock()
		return append([]wire.SensedData(nil), got...)
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestRouterRoutesByRegion(t *testing.T) {
	r := startRouter(t)
	startWorker(t, r, westRegion, "west-1", "")
	startWorker(t, r, eastRegion, "east-1", "")

	_, _ = routedDevice(t, r.Addr(), "dev-west", westCenter)
	_, _ = routedDevice(t, r.Addr(), "dev-east", eastCenter)

	app, deliveries := collectingCAS(t, r.Addr())

	westTask, err := app.Task(regionSpec(westCenter, 1, 700*time.Millisecond))
	if err != nil {
		t.Fatalf("west Task: %v", err)
	}
	eastTask, err := app.Task(regionSpec(eastCenter, 1, 700*time.Millisecond))
	if err != nil {
		t.Fatalf("east Task: %v", err)
	}
	if !strings.HasPrefix(westTask, "west/") || !strings.HasPrefix(eastTask, "east/") {
		t.Fatalf("task IDs %q / %q do not carry their region prefixes", westTask, eastTask)
	}

	waitFor(t, 5*time.Second, "deliveries from both regions", func() bool {
		var west, east int
		for _, sd := range deliveries() {
			switch sd.TaskID {
			case westTask:
				west++
			case eastTask:
				east++
			}
		}
		return west >= 1 && east >= 1
	})
	for _, sd := range deliveries() {
		switch sd.TaskID {
		case westTask:
			if sd.DeviceID != "dev-west" {
				t.Fatalf("west task served by %q", sd.DeviceID)
			}
		case eastTask:
			if sd.DeviceID != "dev-east" {
				t.Fatalf("east task served by %q", sd.DeviceID)
			}
		}
	}

	// Updates and deletes route by the task ID's region prefix.
	if err := app.UpdateTaskParam(wire.UpdateTask{TaskID: eastTask, SpatialDensity: 1}); err != nil {
		t.Fatalf("UpdateTaskParam across router: %v", err)
	}
	if err := app.DeleteTask(westTask); err != nil {
		t.Fatalf("DeleteTask across router: %v", err)
	}
	if err := app.DeleteTask("task-noprefix"); err == nil {
		t.Fatal("prefix-less task ID was routable")
	}
}

func TestRouterRehomesDeviceAcrossNodes(t *testing.T) {
	r := startRouter(t)
	startWorker(t, r, westRegion, "west-1", "")
	startWorker(t, r, eastRegion, "east-1", "")

	dev, moveTo := routedDevice(t, r.Addr(), "nomad", westCenter)
	app, deliveries := collectingCAS(t, r.Addr())

	// Prove the device lives in west first.
	westTask, err := app.Task(regionSpec(westCenter, 1, 500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "west delivery before the move", func() bool {
		for _, sd := range deliveries() {
			if sd.TaskID == westTask && sd.DeviceID == "nomad" {
				return true
			}
		}
		return false
	})

	// The device crosses the boundary: its state report routes it east.
	moveTo(eastCenter)
	if err := dev.ReportState(eastCenter, 85, time.Now()); err != nil {
		t.Fatalf("ReportState after crossing: %v", err)
	}
	waitFor(t, 5*time.Second, "re-home to be counted", func() bool {
		return r.met.rehomes.Value() >= 1
	})

	// An east campaign must now be served by the moved device over the
	// same client connection.
	eastTask, err := app.Task(regionSpec(eastCenter, 1, 700*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "east delivery after the move", func() bool {
		for _, sd := range deliveries() {
			if sd.TaskID == eastTask && sd.DeviceID == "nomad" {
				return true
			}
		}
		return false
	})
	if r.met.rehomeErrors.Value() != 0 {
		t.Fatalf("re-home errors: %d", r.met.rehomeErrors.Value())
	}
}

func TestRouterPromotesStandbyAndStateSurvives(t *testing.T) {
	r := startRouter(t)
	primaryDir, standbyDir := t.TempDir(), t.TempDir()

	primary, err := netserver.Listen(netserver.Config{
		Addr:       "127.0.0.1:0",
		TickPeriod: 20 * time.Millisecond,
		Regions:    []core.Region{westRegion},
		StateDir:   primaryDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Enroll(r.Addr(), "west-1"); err != nil {
		t.Fatal(err)
	}

	standby, err := netserver.RunStandby(netserver.StandbyConfig{
		PrimaryAddr: primary.Addr(),
		RouterAddr:  r.Addr(),
		NodeID:      "west-2",
		Region:      westRegion,
		StateDir:    standbyDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = standby.Close() })

	// The standby may attach before the submission (the campaign reaches
	// it as journal records) or after (as a snapshot over the wire frame
	// limit, shipped in parts).
	app, _ := collectingCAS(t, r.Addr())
	spec := regionSpec(westCenter, 1, time.Hour)
	spec.ClientTaskID = "campaign-1"
	taskID, err := app.Task(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the submission has been shipped into the standby's
	// replicated files (their bytes carry the client task ID).
	waitFor(t, 5*time.Second, "shipping to reach the standby", func() bool {
		entries, err := os.ReadDir(standbyDir)
		if err != nil {
			return false
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(standbyDir, e.Name()))
			if err == nil && strings.Contains(string(b), "campaign-1") {
				return true
			}
		}
		return false
	})

	// The primary dies, and its link with it.
	_ = primary.Close()

	select {
	case <-standby.Promoted():
	case <-time.After(10 * time.Second):
		t.Fatal("standby never promoted")
	}
	if r.met.promotions.Value() != 1 {
		t.Fatalf("promotions = %d, want 1", r.met.promotions.Value())
	}

	// Boot the successor on the replicated state and enroll it; the
	// campaign must already be there: resubmitting the same client task
	// ID returns the old task instead of creating a twin.
	successor := startWorker(t, r, westRegion, "west-2", standbyDir)
	if rec := successor.Recovery(); rec.Replayed == 0 && !strings.Contains(rec.Outcome, "snapshot") {
		t.Logf("successor recovery: %+v", rec)
	}
	app2, _ := collectingCAS(t, r.Addr())
	gotID, err := app2.Task(spec) // byte-identical resubmit → idempotent
	if err != nil {
		t.Fatalf("resubmit after failover: %v", err)
	}
	if gotID != taskID {
		t.Fatalf("failover lost the campaign: resubmit returned %q, originally %q", gotID, taskID)
	}
}

// TestRouterRefusesV1Hello: a device or CAS hello asking for the retired
// v1 protocol, or for no version at all, is answered with a readable
// error naming version 2, and the connection is closed.
func TestRouterRefusesV1Hello(t *testing.T) {
	r := startRouter(t)
	for _, role := range []wire.Role{wire.RoleDevice, wire.RoleCAS} {
		for _, version := range []int{1, 0} {
			nc, err := net.DialTimeout("tcp", r.Addr(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
			hello, err := wire.Encode(wire.TypeHello, 1, wire.Hello{Role: role, Version: version})
			if err != nil {
				t.Fatal(err)
			}
			if err := wire.WriteFrame(nc, hello); err != nil {
				t.Fatal(err)
			}
			resp, err := wire.ReadFrame(nc)
			if err != nil {
				t.Fatalf("%s hello at version %d: no answer: %v", role, version, err)
			}
			var e wire.Error
			if resp.Type != wire.TypeError || wire.Decode(resp, &e) != nil || !strings.Contains(e.Message, "version 2") {
				t.Fatalf("%s hello at version %d answered %s %q, want an error naming version 2", role, version, resp.Type, e.Message)
			}
			if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("%s hello at version %d: connection still open after the refusal (read: %v)", role, version, err)
			}
			_ = nc.Close()
		}
	}
}
