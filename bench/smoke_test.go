package main

import (
	"os"
	"testing"
	"time"
)

// The smoke tests run every workload once at toy size (16 devices on
// sockets, 2000 in process, about a second each), half of them traced,
// through the same code paths as a real run. They exist so that a
// change to a surface the harness pins - a constructor, a flag, a
// start-up line, a metric name - fails here rather than in the first
// benchmark run. CPUs are not split and no spinner runs: the numbers
// are not looked at, only that every metric appears and the run
// verifies.

func smokeEnv(t *testing.T) env {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServers(root)
	if err != nil {
		t.Fatal(err)
	}
	replayFloor = 5 * time.Millisecond
	return env{root: root, bin: bin, scratch: t.TempDir(), setups: 2}
}

func smokeWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	if w.Socket {
		w.Sizes.Devices, w.Sizes.Tasks, w.Sizes.Density = 16, 4, 2
		w.Sizes.Warm, w.Sizes.ReportPeriod = 200*time.Millisecond, 400*time.Millisecond
		if w.Routed {
			w.Sizes.Hoppers = 2
		}
	} else {
		w.Sizes.Devices, w.Sizes.Tasks, w.Sizes.Density = 2000, 16, 5
		w.Sizes.AreaShare = 0.05
	}
	return w
}

func checkSmoke(t *testing.T, res *runResult, defs []metricDef, mustBeSet ...string) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	line := driverLine(res)
	if len(line.Metrics) != len(defs) {
		t.Errorf("%d metrics in the result line, %d defined", len(line.Metrics), len(defs))
	}
	for _, name := range mustBeSet {
		if res.Metrics[name] <= 0 {
			t.Errorf("%s = %g, want a positive value", name, res.Metrics[name])
		}
	}
	if res.Traced && len(res.spans) == 0 {
		t.Error("a traced run recorded no spans")
	}
	if len(res.Budget) > 0 {
		var named, total float64
		for _, r := range res.Budget[:len(res.Budget)-1] {
			named += r.Us
		}
		total = res.Budget[len(res.Budget)-1].Us
		if d := named - total; d > 1e-6*total || d < -1e-6*total {
			t.Errorf("budget rows sum to %g, the total is %g", named, total)
		}
	}
}

func endToEndNames() []string {
	var names []string
	for _, d := range endToEnd {
		names = append(names, d.Name)
	}
	return names
}

func TestSmokeCampusDirect(t *testing.T) {
	ev := smokeEnv(t)
	res, err := runWorkload(ev, smokeWorkload(t, "campus_direct"), 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	checkSmoke(t, res, endToEnd, endToEndNames()...)
}

func TestSmokeCampusRouted(t *testing.T) {
	ev := smokeEnv(t)
	res, err := runWorkload(ev, smokeWorkload(t, "campus_routed"), 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	checkSmoke(t, res, perLayer,
		"wire.cpu_us_per_upload", "netserver.register_us_p50", "netserver.restart_s",
		"core.cpu_us_per_upload", "persist.records_per_upload",
		"cluster.router_cpu_us_per_upload", "cluster.rehomes", "cluster.rehome_us_p50")
}

func TestSmokeCityCore(t *testing.T) {
	ev := smokeEnv(t)
	res, err := runWorkload(ev, smokeWorkload(t, "city_core"), 1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	checkSmoke(t, res, perLayer,
		"core.process_due_self_us_per_request", "core.select_us_per_request",
		"core.receive_data_self_us", "persist.append_us_per_record",
		"persist.load_ms", "agg.ingest_ns_per_upload", "agg.windows_closed")
	for _, layer := range []string{"wire.cpu_us_per_upload", "netserver.register_us_p50", "cluster.router_cpu_us_per_upload"} {
		if res.Metrics[layer] != 0 {
			t.Errorf("%s = %g on a workload that bypasses the layer", layer, res.Metrics[layer])
		}
	}
}

func TestSmokeCityMobile(t *testing.T) {
	ev := smokeEnv(t)
	res, err := runWorkload(ev, smokeWorkload(t, "city_mobile"), 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	checkSmoke(t, res, endToEnd, endToEndNames()...)
}

// TestNoChildrenLeftBehind runs last in file order within this package's
// smoke tests: whatever they spawned must be gone.
func TestNoChildrenLeftBehind(t *testing.T) {
	children.mu.Lock()
	n := len(children.list)
	children.mu.Unlock()
	if n != 0 {
		t.Errorf("%d child processes still tracked", n)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	killAllChildren()
	os.Exit(code)
}
