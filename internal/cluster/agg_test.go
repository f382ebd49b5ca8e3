package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/core"
	"senseaid/internal/netserver"
	"senseaid/internal/wire"
)

// startAggWorker is startWorker with a fast aggregation window.
func startAggWorker(t *testing.T, r *Router, region core.Region, nodeID string) *netserver.Server {
	t.Helper()
	s, err := netserver.Listen(netserver.Config{
		Addr:       "127.0.0.1:0",
		TickPeriod: 20 * time.Millisecond,
		Regions:    []core.Region{region},
		AggWindow:  150 * time.Millisecond,
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

func subscribeVia(t *testing.T, app *cas.CAS, sub wire.SubscribeAgg) (string, func() []wire.AggWindow) {
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
	return id, func() []wire.AggWindow {
		mu.Lock()
		defer mu.Unlock()
		return append([]wire.AggWindow(nil), got...)
	}
}

// TestRouterFansOutAggSubscriptions drives the subscription tier across
// the cluster: an unscoped subscribe_agg reaches every region primary,
// and the client merges window pushes from all of them on one
// connection, and two subscribers see identical payloads.
func TestRouterFansOutAggSubscriptions(t *testing.T) {
	r := startRouter(t)
	startAggWorker(t, r, westRegion, "west-1")
	startAggWorker(t, r, eastRegion, "east-1")

	_, _ = routedDevice(t, r.Addr(), "dev-west", westCenter)
	_, _ = routedDevice(t, r.Addr(), "dev-east", eastCenter)

	appA, err := cas.Dial(r.Addr())
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	defer func() { _ = appA.Close() }()
	appB, err := cas.Dial(r.Addr())
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	defer func() { _ = appB.Close() }()

	idA, winA := subscribeVia(t, appA, wire.SubscribeAgg{})
	if len(strings.Split(idA, ",")) != 2 {
		t.Fatalf("fan-out subscription id = %q, want one id per region", idA)
	}
	_, winB := subscribeVia(t, appB, wire.SubscribeAgg{})

	westTask, err := appA.Task(regionSpec(westCenter, 1, time.Second))
	if err != nil {
		t.Fatalf("west Task: %v", err)
	}
	eastTask, err := appA.Task(regionSpec(eastCenter, 1, time.Second))
	if err != nil {
		t.Fatalf("east Task: %v", err)
	}

	regionsSeen := func(ws []wire.AggWindow) (west, east bool) {
		for _, w := range ws {
			if w.TaskID == westTask && w.Region == "west" && w.Count >= 1 {
				west = true
			}
			if w.TaskID == eastTask && w.Region == "east" && w.Count >= 1 {
				east = true
			}
		}
		return
	}
	waitFor(t, 10*time.Second, "windows from both regions on both subscribers", func() bool {
		w1, e1 := regionsSeen(winA())
		w2, e2 := regionsSeen(winB())
		return w1 && e1 && w2 && e2
	})

	// Payload parity: any window the two subscribers share must be
	// identical.
	time.Sleep(200 * time.Millisecond)
	type key struct {
		task  string
		start time.Time
	}
	index := func(ws []wire.AggWindow) map[key]wire.AggWindow {
		m := make(map[key]wire.AggWindow)
		for _, w := range ws {
			m[key{w.TaskID, w.Start}] = w
		}
		return m
	}
	m1, m2 := index(winA()), index(winB())
	shared := 0
	for k, a := range m1 {
		if b, ok := m2[k]; ok {
			shared++
			if a != b {
				t.Fatalf("divergence for %v:\n first:  %+v\n second: %+v", k, a, b)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no shared windows between the two subscribers")
	}

	// A task-scoped subscription routes to that task's region only: a
	// single-region subscription id, and only that task's windows.
	idWest, winWest := subscribeVia(t, appA, wire.SubscribeAgg{Task: westTask})
	if strings.Contains(idWest, ",") {
		t.Fatalf("task-scoped subscription id = %q, want a single region's id", idWest)
	}
	waitFor(t, 10*time.Second, "scoped windows", func() bool {
		return len(winWest()) >= 1
	})
	for _, w := range winWest() {
		if w.TaskID != westTask {
			t.Fatalf("scoped subscription leaked window for %q", w.TaskID)
		}
	}
}
