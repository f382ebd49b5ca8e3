package netserver

// Regression tests for two scheduler-transport races:
//
//   - The tick loop used to run on a wall-clock ticker while stamping
//     ProcessDue with the injected clock, so simulated time could not
//     drive the scheduler at all. TestTickLoopDrivenByInjectedClock
//     proves the loop sleeps and wakes on Config.Clock alone.
//
//   - dispatch released connMu between the device→conn lookup and the
//     write, so a device redialing in that window got its schedule
//     aimed at the dying old connection and was then marked
//     unresponsive despite the healthy new one.
//     TestDispatchRetriesOnRedialedConnection pins the
//     generation-check recovery.

import (
	"net"
	"sync"
	"testing"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/obs"
	"senseaid/internal/simclock"
	"senseaid/internal/wire"
)

func TestTickLoopDrivenByInjectedClock(t *testing.T) {
	fc := simclock.NewFakeClock(time.Time{}) // starts at simclock.Epoch
	s, err := Listen(Config{
		Addr:       "127.0.0.1:0",
		TickPeriod: time.Hour, // a wall ticker would never fire in-test
		Clock:      fc,
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	autoDevice(t, s.Addr(), "sim-device")
	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()

	var mu sync.Mutex
	var got int
	if err := app.ReceiveSensedData(func(wire.SensedData) {
		mu.Lock()
		got++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	// One request due 30 virtual minutes in: within the loop's first
	// hour-long sleep, with a deadline (75m) past the wake-up (60m).
	start := fc.Now()
	spec := barometerSpec(1)
	spec.Start = start.Add(30 * time.Minute)
	spec.End = start.Add(75 * time.Minute)
	spec.SamplingPeriod = 45 * time.Minute
	if _, err := app.Task(spec); err != nil {
		t.Fatalf("Task: %v", err)
	}

	// Virtual time stands still, so no amount of wall time may dispatch.
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	early := got
	mu.Unlock()
	if early != 0 {
		t.Fatalf("dispatched %d readings with the virtual clock frozen — tick loop is wall-driven", early)
	}
	if fc.AfterCalls() == 0 {
		t.Fatal("tick loop never slept on the injected clock")
	}

	// Make sure the loop is parked on the clock, then move time past the
	// request's due point.
	deadline := time.Now().Add(2 * time.Second)
	for fc.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tick loop never armed a waiter on the fake clock")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fc.Advance(time.Hour)

	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := got
		mu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no delivery after advancing the virtual clock (stats %+v)", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// registerRaw runs the hello+register exchange for one raw device
// connection and returns it.
func registerRaw(t *testing.T, addr, deviceID string) net.Conn {
	t.Helper()
	nc := rawSession(t, addr, wire.RoleDevice)
	reg, err := wire.Binary.Encode(wire.TypeRegister, 2, wire.Register{
		DeviceID: deviceID, Position: barometerSpec(1).Center, BatteryPct: 90,
		Sensors: barometerSensors(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Binary.WriteFrame(nc, reg); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Binary.ReadFrame(nc); err != nil {
		t.Fatal(err)
	}
	return nc
}

func TestDispatchRetriesOnRedialedConnection(t *testing.T) {
	s := startServer(t)

	// First session: what dispatch's lookup will capture.
	_ = registerRaw(t, s.Addr(), "flappy")
	var stale *conn
	var staleGen uint64
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.connMu.Lock()
		stale = s.devices["flappy"]
		staleGen = s.devGen["flappy"]
		s.connMu.Unlock()
		if stale != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("device never bound")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The device redials (the window between dispatch's lookup and its
	// write); the map now binds the device at a newer generation.
	ncB := registerRaw(t, s.Addr(), "flappy")
	deadline = time.Now().Add(2 * time.Second)
	for {
		s.connMu.Lock()
		cur := s.devices["flappy"]
		s.connMu.Unlock()
		if cur != nil && cur != stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("redial never rebound the device")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The old connection is already dying — its write must fail.
	_ = stale.nc.Close()

	failedBefore := s.Stats().DispatchesFailed
	span := s.tracer.StartSpan(obs.TraceContext{}, obs.StageDispatch, "")
	s.sendSchedule(stale, staleGen, wire.Schedule{
		RequestID: "task-1#0", TaskID: "task-1",
		Due: time.Now(), Deadline: time.Now().Add(time.Minute),
	}, span, "task-1#0", "task-1", "flappy", true)

	// The schedule must land on the live connection...
	_ = ncB.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		env, err := wire.Binary.ReadFrame(ncB)
		if err != nil {
			t.Fatalf("live connection never saw the schedule: %v", err)
		}
		if env.Type == wire.TypeSchedule {
			var sch wire.Schedule
			if err := wire.Decode(env, &sch); err != nil {
				t.Fatal(err)
			}
			if sch.RequestID != "task-1#0" {
				t.Fatalf("schedule for %q, want task-1#0", sch.RequestID)
			}
			break
		}
	}

	// ...be counted as a retry, and never reach NoteDispatchFailure.
	deadline = time.Now().Add(2 * time.Second)
	for s.met.dispatchRetries.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retry not counted in senseaid_dispatch_retries_total")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if failed := s.Stats().DispatchesFailed; failed != failedBefore {
		t.Fatalf("DispatchesFailed rose %d → %d despite a healthy redialed connection", failedBefore, failed)
	}
}
