package netserver

import (
	"strings"
	"sync"
	"testing"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/client"
	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// startServer brings up a server on a loopback port with a fast tick.
func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := Listen(Config{Addr: "127.0.0.1:0", TickPeriod: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// autoDevice is a device client that answers every schedule immediately.
func autoDevice(t *testing.T, addr, id string) *client.Client {
	t.Helper()
	c, err := client.Dial(client.Config{
		Addr:       addr,
		DeviceID:   id,
		Position:   geo.CSDepartment,
		BatteryPct: 90,
		Sensors:    []sensors.Type{sensors.Barometer},
	})
	if err != nil {
		t.Fatalf("client.Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Register(); err != nil {
		t.Fatalf("Register: %v", err)
	}
	err = c.StartSensing(func(sch wire.Schedule) {
		reading := sensors.Reading{
			Sensor: sch.Sensor,
			Value:  1013.25,
			Unit:   "hPa",
			At:     time.Now(),
			Where:  geo.CSDepartment,
		}
		// Uploads happen from the handler goroutine, as a real client's
		// tail-window callback would.
		go func() {
			if err := c.SendSenseData(sch.RequestID, reading); err != nil &&
				!strings.Contains(err.Error(), "closed") {
				t.Logf("SendSenseData: %v", err)
			}
		}()
	})
	if err != nil {
		t.Fatalf("StartSensing: %v", err)
	}
	return c
}

func barometerSpec(density int) wire.TaskSpec {
	now := time.Now()
	return wire.TaskSpec{
		Sensor:         sensors.Barometer,
		SamplingPeriod: 150 * time.Millisecond,
		Start:          now,
		End:            now.Add(700 * time.Millisecond),
		Center:         geo.CSDepartment,
		AreaRadiusM:    500,
		SpatialDensity: density,
	}
}

func TestEndToEndDataFlow(t *testing.T) {
	s := startServer(t)
	autoDevice(t, s.Addr(), "device-1")

	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	defer func() { _ = app.Close() }()

	var mu sync.Mutex
	var got []wire.SensedData
	if err := app.ReceiveSensedData(func(sd wire.SensedData) {
		mu.Lock()
		got = append(got, sd)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("ReceiveSensedData: %v", err)
	}

	taskID, err := app.Task(barometerSpec(1))
	if err != nil {
		t.Fatalf("Task: %v", err)
	}
	if !strings.HasPrefix(taskID, "task-") {
		t.Fatalf("task ID = %q", taskID)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d readings after 5s", n)
		}
		time.Sleep(20 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, sd := range got {
		if sd.TaskID != taskID {
			t.Fatalf("reading for task %q, want %q", sd.TaskID, taskID)
		}
		if sd.DeviceID != "device-1" {
			t.Fatalf("reading from %q", sd.DeviceID)
		}
		if sd.Reading.Sensor != sensors.Barometer || sd.Reading.Value != 1013.25 {
			t.Fatalf("reading = %+v", sd.Reading)
		}
	}
}

func TestUnsatisfiableTaskWaits(t *testing.T) {
	s := startServer(t)
	autoDevice(t, s.Addr(), "lonely")

	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()

	if _, err := app.Task(barometerSpec(5)); err != nil {
		t.Fatalf("Task: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	st := s.Stats()
	if st.RequestsSatisfied != 0 {
		t.Fatalf("density-5 task satisfied with one device: %+v", st)
	}
	if st.RequestsWaitlisted == 0 && st.RequestsExpired == 0 {
		t.Fatalf("unsatisfiable request neither waitlisted nor expired: %+v", st)
	}
}

func TestTaskLifecycleRPCs(t *testing.T) {
	s := startServer(t)
	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()

	spec := barometerSpec(1)
	spec.End = time.Now().Add(time.Hour)
	id, err := app.Task(spec)
	if err != nil {
		t.Fatalf("Task: %v", err)
	}
	if err := app.UpdateTaskParam(wire.UpdateTask{TaskID: id, SpatialDensity: 2}); err != nil {
		t.Fatalf("UpdateTaskParam: %v", err)
	}
	if err := app.UpdateTaskParam(wire.UpdateTask{TaskID: "task-404", SpatialDensity: 2}); err == nil {
		t.Fatal("update of unknown task succeeded")
	}
	if err := app.DeleteTask(id); err != nil {
		t.Fatalf("DeleteTask: %v", err)
	}
	if err := app.DeleteTask(id); err == nil {
		t.Fatal("double delete succeeded")
	}
	if err := app.DeleteTask(""); err == nil {
		t.Fatal("empty task ID accepted")
	}
}

func TestInvalidTaskRejected(t *testing.T) {
	s := startServer(t)
	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()

	bad := barometerSpec(0) // zero density
	if _, err := app.Task(bad); err == nil {
		t.Fatal("zero-density task accepted")
	}
}

func TestDevicePreferencesAndStateReport(t *testing.T) {
	s := startServer(t)
	c := autoDevice(t, s.Addr(), "prefs-dev")

	if err := c.UpdatePreferences(power.Budget{TotalJ: 100, CriticalBatteryPct: 50}); err != nil {
		t.Fatalf("UpdatePreferences: %v", err)
	}
	if err := c.UpdatePreferences(power.Budget{TotalJ: -1}); err == nil {
		t.Fatal("invalid budget accepted")
	}
	if err := c.ReportState(geo.EEDepartment, 42, time.Now()); err != nil {
		t.Fatalf("ReportState: %v", err)
	}
}

// TestDeregister leaves a few hundred times over. The server hangs up
// right after acking a deregistration, so the client's read loop and its
// own Close race to close the socket; whichever loses must not turn the
// other's success into "use of closed network connection".
func TestDeregister(t *testing.T) {
	s := startServer(t)
	for i := 0; i < 300; i++ {
		c, err := client.Dial(client.Config{
			Addr:       s.Addr(),
			DeviceID:   "leaver",
			Position:   geo.CSDepartment,
			BatteryPct: 50,
			Sensors:    []sensors.Type{sensors.Barometer},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Register(); err != nil {
			t.Fatal(err)
		}
		if err := c.Deregister(); err != nil {
			t.Fatalf("Deregister %d: %v", i, err)
		}
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := client.Dial(client.Config{DeviceID: "x"}); err == nil {
		t.Fatal("empty addr accepted")
	}
	if _, err := client.Dial(client.Config{Addr: "127.0.0.1:1"}); err == nil {
		t.Fatal("empty device ID accepted")
	}
	if _, err := cas.Dial(""); err == nil {
		t.Fatal("empty CAS addr accepted")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMultipleDevicesShareLoad(t *testing.T) {
	s := startServer(t)
	for _, id := range []string{"m1", "m2", "m3"} {
		autoDevice(t, s.Addr(), id)
	}
	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()

	var mu sync.Mutex
	seen := make(map[string]int)
	if err := app.ReceiveSensedData(func(sd wire.SensedData) {
		mu.Lock()
		seen[sd.DeviceID]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	spec := barometerSpec(1)
	spec.End = time.Now().Add(1200 * time.Millisecond)
	if _, err := app.Task(spec); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(6 * time.Second)
	for {
		mu.Lock()
		distinct := len(seen)
		mu.Unlock()
		if distinct >= 2 {
			return // fairness rotated across devices
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("selection never rotated: %v", seen)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
