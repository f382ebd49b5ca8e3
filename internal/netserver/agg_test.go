package netserver

import (
	"math"
	"sync"
	"testing"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/simclock"
	"senseaid/internal/wire"
)

// aggServer brings up a server with a fast aggregation window so tests
// see closed windows within a few hundred milliseconds.
func aggServer(t *testing.T, window time.Duration) *Server {
	t.Helper()
	s, err := Listen(Config{
		Addr:       "127.0.0.1:0",
		TickPeriod: 20 * time.Millisecond,
		AggWindow:  window,
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// subscribe opens a collecting subscription and returns a snapshot
// function.
func subscribe(t *testing.T, app *cas.CAS, sub wire.SubscribeAgg) func() []wire.AggWindow {
	t.Helper()
	var mu sync.Mutex
	var got []wire.AggWindow
	id, err := app.SubscribeAgg(sub, func(w wire.AggWindow) {
		mu.Lock()
		got = append(got, w)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("SubscribeAgg: %v", err)
	}
	if id == "" {
		t.Fatal("empty subscription id")
	}
	return func() []wire.AggWindow {
		mu.Lock()
		defer mu.Unlock()
		return append([]wire.AggWindow(nil), got...)
	}
}

func TestAggSubscriptionEndToEnd(t *testing.T) {
	s := aggServer(t, 150*time.Millisecond)
	autoDevice(t, s.Addr(), "device-1")

	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	defer func() { _ = app.Close() }()
	windows := subscribe(t, app, wire.SubscribeAgg{})
	if got := s.met.aggSubscribers.Value(); got != 1 {
		t.Fatalf("aggSubscribers gauge = %v, want 1", got)
	}

	taskID, err := app.Task(barometerSpec(1))
	if err != nil {
		t.Fatalf("Task: %v", err)
	}

	waitFor(t, 5*time.Second, "a closed window for the task", func() bool {
		for _, w := range windows() {
			if w.TaskID == taskID && w.Count >= 1 {
				return true
			}
		}
		return false
	})
	for _, w := range windows() {
		if w.TaskID != taskID || w.Count == 0 {
			continue
		}
		// Every upload in the test carries 1013.25 hPa, so all rollup
		// statistics collapse onto it (the p50/p99 come from a log-scale
		// histogram — allow its bucket width).
		if w.Mean != 1013.25 || w.Min != 1013.25 || w.Max != 1013.25 {
			t.Fatalf("window stats = mean %v min %v max %v, want 1013.25", w.Mean, w.Min, w.Max)
		}
		if math.Abs(w.P50-1013.25) > 1013.25*0.01 || math.Abs(w.P99-1013.25) > 1013.25*0.01 {
			t.Fatalf("window quantiles p50=%v p99=%v, want ~1013.25", w.P50, w.P99)
		}
		if !w.End.After(w.Start) {
			t.Fatalf("window [%v, %v) is empty or inverted", w.Start, w.End)
		}
	}
	if s.met.aggWindows.Value() == 0 {
		t.Fatal("senseaid_agg_windows_total never incremented")
	}
	// The lag is observed once the push's write completes, which the
	// subscriber can beat to reading the window.
	waitFor(t, 5*time.Second, "the push lag histogram to observe the push", func() bool {
		return s.met.aggPushLag.Count() > 0
	})

	// The subscriber disconnecting releases its tier subscription.
	_ = app.Close()
	waitFor(t, 5*time.Second, "subscription teardown", func() bool {
		return s.agg.Subscribers() == 0
	})
}

func TestAggSubscribeRejectedWhenDisabled(t *testing.T) {
	s, err := Listen(Config{
		Addr:       "127.0.0.1:0",
		TickPeriod: 20 * time.Millisecond,
		AggWindow:  -1, // aggregation tier off
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	defer func() { _ = app.Close() }()
	if _, err := app.SubscribeAgg(wire.SubscribeAgg{}, func(wire.AggWindow) {}); err == nil {
		t.Fatal("subscribe succeeded on a server with the tier disabled")
	}
}

// TestAggSubscribersSeeIdenticalWindows pins parity on the push path:
// two CASes subscribed to the same aggregate receive equal window
// payloads.
func TestAggSubscribersSeeIdenticalWindows(t *testing.T) {
	s := aggServer(t, 150*time.Millisecond)
	autoDevice(t, s.Addr(), "device-1")

	v1, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	defer func() { _ = v1.Close() }()
	v2, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	defer func() { _ = v2.Close() }()

	w1 := subscribe(t, v1, wire.SubscribeAgg{})
	w2 := subscribe(t, v2, wire.SubscribeAgg{})

	taskID, err := v1.Task(barometerSpec(1))
	if err != nil {
		t.Fatalf("Task: %v", err)
	}

	// Both subscribed before the campaign started, so both must see the
	// campaign's windows. Wait until each side holds a window for the
	// task, then compare the overlap.
	forTask := func(ws []wire.AggWindow) map[time.Time]wire.AggWindow {
		m := make(map[time.Time]wire.AggWindow)
		for _, w := range ws {
			if w.TaskID == taskID {
				m[w.Start] = w
			}
		}
		return m
	}
	waitFor(t, 5*time.Second, "windows on both subscribers", func() bool {
		return len(forTask(w1())) >= 1 && len(forTask(w2())) >= 1
	})
	// Give the slower side a beat to drain in-flight pushes, then demand
	// at least one shared window start with identical payloads.
	time.Sleep(200 * time.Millisecond)
	m1, m2 := forTask(w1()), forTask(w2())
	shared := 0
	for start, a := range m1 {
		b, ok := m2[start]
		if !ok {
			continue
		}
		shared++
		if a != b {
			t.Fatalf("payload divergence for window %v:\n first:  %+v\n second: %+v", start, a, b)
		}
	}
	if shared == 0 {
		t.Fatalf("no shared window between subscribers (%d windows, %d)", len(m1), len(m2))
	}
}

// TestUnroutableDeliveriesReplayOnReclaim pins the delivery-path fix: a
// campaign restored from the state dir keeps collecting while its CAS is
// away, and the buffered readings replay when the CAS reclaims the task
// by resubmitting its ClientTaskID.
//
// The restarted server runs on a virtual clock the test moves one
// sampling period at a time, once the previous reading has been
// buffered. Each request's deadline is one period (150 ms) after it is
// due; on wall time, a loaded -race host that took longer than that to
// carry the first schedule to the device and its upload back after the
// restart marked the only device unresponsive, and nothing was selected
// again.
func TestUnroutableDeliveriesReplayOnReclaim(t *testing.T) {
	dir := t.TempDir()
	s1, err := Listen(Config{Addr: "127.0.0.1:0", TickPeriod: 20 * time.Millisecond, StateDir: dir})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}

	app, err := cas.Dial(s1.Addr())
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	spec := barometerSpec(1)
	spec.End = spec.Start.Add(time.Hour)
	spec.ClientTaskID = "campaign-replay"
	taskID, err := app.Task(spec)
	if err != nil {
		t.Fatalf("Task: %v", err)
	}

	// Server restarts (gracefully, so the campaign persists); its CAS
	// does not come back right away.
	_ = app.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	clock := simclock.NewFakeClock(time.Now())
	s2, err := Listen(Config{
		Addr: "127.0.0.1:0", TickPeriod: 20 * time.Millisecond, StateDir: dir,
		Clock:     clock,
		AggWindow: -1, // the tick loop is then the clock's only sleeper
	})
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	t.Cleanup(func() { _ = s2.Close() })

	// A device keeps sensing for the recovered campaign; with no CAS
	// connected the deliveries are unroutable — and now buffered. Each
	// period the tick dispatches the request that fell due, and the
	// device's upload of it is buffered before the clock moves on.
	autoDevice(t, s2.Addr(), "device-1")
	for n := 1; n <= 2; n++ {
		waitFor(t, 5*time.Second, "the tick loop to sleep on the clock", func() bool {
			return clock.Waiters() > 0
		})
		clock.Advance(spec.SamplingPeriod)
		waitFor(t, 5*time.Second, "an unroutable delivery to be buffered", func() bool {
			return s2.met.deliveriesUnroutable.Value() >= uint64(n)
		})
	}

	// The CAS returns and reclaims its campaign: the same ClientTaskID
	// resubmit maps onto the stored task, and the buffered readings
	// arrive through the normal delivery callback.
	app2, err := cas.Dial(s2.Addr())
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer func() { _ = app2.Close() }()
	var mu sync.Mutex
	var got []wire.SensedData
	if err := app2.ReceiveSensedData(func(sd wire.SensedData) {
		mu.Lock()
		got = append(got, sd)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	reclaimed, err := app2.Task(spec)
	if err != nil {
		t.Fatalf("reclaim Task: %v", err)
	}
	if reclaimed != taskID {
		t.Fatalf("reclaim returned %q, original task was %q", reclaimed, taskID)
	}
	waitFor(t, 5*time.Second, "buffered deliveries to replay", func() bool {
		if s2.met.deliveriesReplayed.Value() == 0 {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		for _, sd := range got {
			if sd.TaskID == taskID {
				return true
			}
		}
		return false
	})
}

// TestAggStateSpillsAcrossRestart pins the retention spill: open window
// state written at graceful shutdown is restored on the next boot, so a
// restart (or a standby promotion on the replicated files) does not
// forget the windows in flight.
func TestAggStateSpillsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	// A long window stays open across the whole first life.
	s1, err := Listen(Config{
		Addr:       "127.0.0.1:0",
		TickPeriod: 20 * time.Millisecond,
		StateDir:   dir,
		AggWindow:  time.Minute,
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	autoDevice(t, s1.Addr(), "device-1")
	app, err := cas.Dial(s1.Addr())
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	if _, err := app.Task(barometerSpec(1)); err != nil {
		t.Fatalf("Task: %v", err)
	}
	waitFor(t, 5*time.Second, "uploads to reach the tier", func() bool {
		return s1.agg.Stats().Series >= 1
	})
	series := s1.agg.Stats().Series
	_ = app.Close()
	if err := s1.Close(); err != nil { // graceful: spills the tier
		t.Fatalf("Close: %v", err)
	}

	s2, err := Listen(Config{
		Addr:       "127.0.0.1:0",
		TickPeriod: 20 * time.Millisecond,
		StateDir:   dir,
		AggWindow:  time.Minute,
	})
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	t.Cleanup(func() { _ = s2.Close() })
	if got := s2.agg.Stats().Series; got != series {
		t.Fatalf("restart restored %d series, want %d", got, series)
	}
}
