package senseaid

// Multi-node acceptance tests. TestClusterFailoverEndToEnd is the
// node-kill story at the process level: a real senseaid-router fronts a
// real senseaidd primary with a journal-shipping standby, device daemons
// and a CAS campaign run through the router, the primary is SIGKILLed
// mid-campaign, and the standby must promote, re-enroll, and carry the
// campaign forward — with zero duplicate deliveries and every device
// session resuming via its reconnect supervisor.
//
// TestRecordClusterBench (gated on SENSEAID_BENCH_OUT, run from ci.sh)
// measures what the router tier costs: upload→delivery latency for the
// same campaign served directly by a worker vs forwarded through the
// router, plus steady-state selections/sec through the router. It FAILS
// when the routed p99 exceeds twice the direct p99 (above an absolute
// floor, so sub-millisecond runs on fast machines don't flake).

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/client"
	"senseaid/internal/cluster"
	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/netserver"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// clusterDaemon starts a device daemon dialing addr that answers every
// schedule with a freshly stamped barometer reading.
func clusterDaemon(t *testing.T, addr, id string, pos geo.Point) *client.Daemon {
	t.Helper()
	d, err := client.StartDaemon(client.DaemonConfig{
		Client: client.Config{
			Addr:       addr,
			DeviceID:   id,
			Position:   pos,
			BatteryPct: 90,
			Sensors:    []sensors.Type{sensors.Barometer},
		},
		Sampler: func(s sensors.Type) (sensors.Reading, error) {
			return sensors.Reading{
				Sensor: s, Value: 1013.25, Unit: "hPa",
				At: time.Now(), Where: pos,
			}, nil
		},
		ReportPeriod: 200 * time.Millisecond,
		ReconnectMin: 200 * time.Millisecond,
		ReconnectMax: time.Second,
	})
	if err != nil {
		t.Fatalf("StartDaemon(%s): %v", id, err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

func TestClusterFailoverEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test builds and runs executables")
	}
	bin := t.TempDir()
	for _, tool := range []string{"senseaidd", "senseaid-router"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}

	routerAddr := freeAddr(t)
	primaryAddr := freeAddr(t)
	standbyAddr := freeAddr(t)
	primaryDir, standbyDir := t.TempDir(), t.TempDir()
	const region = "west@40.4274,-86.9169,3000"

	router := exec.Command(filepath.Join(bin, "senseaid-router"), "-addr", routerAddr)
	routerOut := startCapture(t, router, "senseaid-router")
	defer stop(t, router)
	waitForLine(t, routerOut, "router listening", 10*time.Second)

	primary := exec.Command(filepath.Join(bin, "senseaidd"),
		"-addr", primaryAddr, "-tick", "50ms",
		"-regions", region, "-state-dir", primaryDir, "-snapshot-interval", "200ms",
		"-enroll", routerAddr, "-node-id", "west-1")
	primaryOut := startCapture(t, primary, "senseaidd-primary")
	defer stop(t, primary)
	waitForLine(t, primaryOut, "enrolled with router", 10*time.Second)

	standby := exec.Command(filepath.Join(bin, "senseaidd"),
		"-addr", standbyAddr, "-tick", "50ms",
		"-regions", region, "-state-dir", standbyDir, "-snapshot-interval", "200ms",
		"-standby-of", primaryAddr, "-enroll", routerAddr, "-node-id", "west-2")
	standbyOut := startCapture(t, standby, "senseaidd-standby")
	defer stop(t, standby)
	waitForLine(t, standbyOut, "replicating region west", 10*time.Second)

	// Two devices inside the region, both dialing the ROUTER.
	van1 := clusterDaemon(t, routerAddr, "van-1", geo.CSDepartment)
	van2 := clusterDaemon(t, routerAddr, "van-2", geo.Offset(geo.CSDepartment, 200, 200))

	// The campaign, also through the router. The collector outlives the
	// CAS connection so deliveries from before and after the failover
	// land in one ledger.
	var mu sync.Mutex
	var got []wire.SensedData
	collect := func(sd wire.SensedData) {
		mu.Lock()
		got = append(got, sd)
		mu.Unlock()
	}
	deliveries := func() []wire.SensedData {
		mu.Lock()
		defer mu.Unlock()
		return append([]wire.SensedData(nil), got...)
	}

	now := time.Now()
	spec := wire.TaskSpec{
		Sensor:         sensors.Barometer,
		SamplingPeriod: 300 * time.Millisecond,
		Start:          now,
		End:            now.Add(60 * time.Second),
		Center:         geo.CSDepartment,
		AreaRadiusM:    2500,
		SpatialDensity: 1,
		ClientTaskID:   "cluster-campaign",
	}
	connectCAS := func() (*cas.CAS, string, error) {
		app, err := cas.Dial(routerAddr)
		if err != nil {
			return nil, "", err
		}
		if err := app.ReceiveSensedData(collect); err != nil {
			_ = app.Close()
			return nil, "", err
		}
		id, err := app.Task(spec) // byte-identical every time → idempotent
		if err != nil {
			_ = app.Close()
			return nil, "", err
		}
		return app, id, nil
	}

	app, taskID, err := connectCAS()
	if err != nil {
		t.Fatalf("CAS through router: %v", err)
	}
	defer func() { _ = app.Close() }()
	if !strings.HasPrefix(taskID, "west/") {
		t.Fatalf("task ID %q lacks its region prefix", taskID)
	}

	waitUntilCluster(t, 10*time.Second, "deliveries before the kill", func() bool {
		return len(deliveries()) >= 2
	})

	// Don't pull the trigger until the submission has been shipped into
	// the standby's replicated journal.
	waitUntilCluster(t, 10*time.Second, "journal shipping to reach the standby", func() bool {
		entries, err := os.ReadDir(standbyDir)
		if err != nil {
			return false
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(standbyDir, e.Name()))
			if err == nil && strings.Contains(string(b), "cluster-campaign") {
				return true
			}
		}
		return false
	})

	// kill -9 the primary mid-campaign: no drain, no goodbye on the trunk.
	killAt := time.Now()
	if err := primary.Process.Kill(); err != nil {
		t.Fatalf("kill primary: %v", err)
	}
	_, _ = primary.Process.Wait()

	// The router notices the dead trunk and promotes; the standby boots a
	// full server on its replicated state and enrolls as west's primary.
	waitForLine(t, standbyOut, "promoted: taking over region west", 15*time.Second)
	waitForLine(t, standbyOut, "enrolled with router", 15*time.Second)

	// The CAS connection died with its upstream; redial the router and
	// resubmit the same spec — the successor must hand back the original
	// task, not a twin.
	select {
	case <-app.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("CAS connection survived its region's death")
	}
	var reclaimed string
	deadline := time.Now().Add(20 * time.Second)
	for {
		var rerr error
		app, reclaimed, rerr = connectCAS()
		if rerr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("CAS could not rejoin after failover: %v", rerr)
		}
		time.Sleep(300 * time.Millisecond)
	}
	defer func() { _ = app.Close() }()
	if reclaimed != taskID {
		t.Fatalf("failover lost the campaign: resubmit returned %q, originally %q", reclaimed, taskID)
	}

	// The campaign keeps producing on the promoted node, served by
	// devices whose daemons redialed on their own.
	waitUntilCluster(t, 30*time.Second, "deliveries after the failover", func() bool {
		fresh := 0
		for _, sd := range deliveries() {
			if sd.Reading.At.After(killAt) {
				fresh++
			}
		}
		return fresh >= 2
	})
	waitUntilCluster(t, 30*time.Second, "device daemons to reconnect", func() bool {
		return van1.Reconnects() >= 1 && van2.Reconnects() >= 1
	})

	// Zero duplicate deliveries across the whole run: every reading is
	// device-stamped to the nanosecond, so a replayed dispatch delivering
	// the same reading twice would collide.
	seen := map[string]int{}
	for _, sd := range deliveries() {
		key := fmt.Sprintf("%s|%s|%d|%g", sd.TaskID, sd.DeviceID, sd.Reading.At.UnixNano(), sd.Reading.Value)
		seen[key]++
	}
	for key, n := range seen {
		if n > 1 {
			t.Errorf("reading delivered %d times across the failover: %s", n, key)
		}
	}

	if err := app.DeleteTask(taskID); err != nil {
		t.Fatalf("DeleteTask through the promoted node: %v", err)
	}
}

// waitUntilCluster polls cond until it holds or the deadline passes.
func waitUntilCluster(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// clusterBenchRecord is the shape of BENCH_cluster.json.
type clusterBenchRecord struct {
	// Schema, Commit and Tree stamp the record the way record_e2e.sh
	// stamps BENCH_e2e.json: HEAD, and the git tree of the working tree
	// that was measured.
	Schema            string  `json:"schema"`
	Commit            string  `json:"commit"`
	Tree              string  `json:"tree"`
	SingleP99Seconds  float64 `json:"single_p99_seconds"`
	ClusterP99Seconds float64 `json:"cluster_p99_seconds"`
	OverheadRatio     float64 `json:"overhead_ratio"`
	SelectionsPerSec  float64 `json:"selections_per_sec"`
	SingleDeliveries  int     `json:"single_deliveries"`
	ClusterDeliveries int     `json:"cluster_deliveries"`
	MaxRatio          float64 `json:"max_ratio"`
	FloorSeconds      float64 `json:"floor_seconds"`
}

// measureDeliveryPath runs a short steady-state campaign against addr
// and returns the per-delivery upload→delivery latencies (seconds,
// measured from the device's schedule-time stamp to CAS receipt) and
// the delivery count. The dispatch fan-out itself is tick-quantized on
// the worker either way, so the stamp isolates exactly the path the
// router adds hops to.
func measureDeliveryPath(t *testing.T, addr string, window time.Duration) []float64 {
	t.Helper()
	dev, err := client.Dial(client.Config{
		Addr:       addr,
		DeviceID:   "bench-dev",
		Position:   geo.CSDepartment,
		BatteryPct: 90,
		Sensors:    []sensors.Type{sensors.Barometer},
	})
	if err != nil {
		t.Fatalf("client.Dial(%s): %v", addr, err)
	}
	defer func() { _ = dev.Close() }()
	if err := dev.Register(); err != nil {
		t.Fatal(err)
	}
	if err := dev.StartSensing(func(sch wire.Schedule) {
		reading := sensors.Reading{
			Sensor: sch.Sensor, Value: 1013.25, Unit: "hPa",
			At: time.Now(), Where: geo.CSDepartment,
		}
		go func() {
			if err := dev.SendSenseData(sch.RequestID, reading); err != nil &&
				!strings.Contains(err.Error(), "closed") {
				t.Logf("SendSenseData: %v", err)
			}
		}()
	}); err != nil {
		t.Fatal(err)
	}

	app, err := cas.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	var mu sync.Mutex
	var lat []float64
	if err := app.ReceiveSensedData(func(sd wire.SensedData) {
		mu.Lock()
		lat = append(lat, time.Since(sd.Reading.At).Seconds())
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	now := time.Now()
	if _, err := app.Task(wire.TaskSpec{
		Sensor:         sensors.Barometer,
		SamplingPeriod: 50 * time.Millisecond,
		Start:          now,
		End:            now.Add(window),
		Center:         geo.CSDepartment,
		AreaRadiusM:    2500,
		SpatialDensity: 1,
	}); err != nil {
		t.Fatalf("Task: %v", err)
	}
	time.Sleep(window + 500*time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(lat) == 0 {
		t.Fatalf("campaign against %s delivered nothing", addr)
	}
	return append([]float64(nil), lat...)
}

func p99(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := (len(s)*99 + 99) / 100
	if idx > len(s) {
		idx = len(s)
	}
	return s[idx-1]
}

// TestRecordClusterBench measures the router tier's forwarding tax and
// writes BENCH_cluster.json. Gated on SENSEAID_BENCH_OUT (ci.sh sets
// it); FAILS when the routed delivery p99 costs more than 2x the direct
// path's, once above the absolute floor.
func TestRecordClusterBench(t *testing.T) {
	out := os.Getenv("SENSEAID_BENCH_OUT")
	if out == "" {
		t.Skip("SENSEAID_BENCH_OUT not set; benchmark recording runs from ci.sh")
	}
	const (
		window       = 4 * time.Second
		maxRatio     = 2.0
		floorSeconds = 0.050
	)
	region := core.Region{Name: "west", Area: geo.Circle{Center: geo.CSDepartment, RadiusM: 3000}}

	// Direct: one worker, clients on its own listener.
	single, err := netserver.Listen(netserver.Config{
		Addr: "127.0.0.1:0", TickPeriod: 20 * time.Millisecond,
		Regions: []core.Region{region},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = single.Close() }()
	directLat := measureDeliveryPath(t, single.Addr(), window)

	// Routed: the same worker shape enrolled behind a router; clients
	// dial the router and every frame crosses the relay both ways.
	r, err := cluster.Listen(cluster.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	worker, err := netserver.Listen(netserver.Config{
		Addr: "127.0.0.1:0", TickPeriod: 20 * time.Millisecond,
		Regions: []core.Region{region},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = worker.Close() }()
	trunk, err := worker.Enroll(r.Addr(), "west-1", "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = trunk.Close() }()
	routedLat := measureDeliveryPath(t, r.Addr(), window)

	commit, tree := gitStamp()
	rec := clusterBenchRecord{
		Schema:            "senseaid-bench-cluster/1",
		Commit:            commit,
		Tree:              tree,
		SingleP99Seconds:  p99(directLat),
		ClusterP99Seconds: p99(routedLat),
		SelectionsPerSec:  float64(len(routedLat)) / window.Seconds(),
		SingleDeliveries:  len(directLat),
		ClusterDeliveries: len(routedLat),
		MaxRatio:          maxRatio,
		FloorSeconds:      floorSeconds,
	}
	if rec.SingleP99Seconds > 0 {
		rec.OverheadRatio = rec.ClusterP99Seconds / rec.SingleP99Seconds
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("direct p99 %.4fs (%d deliveries), routed p99 %.4fs (%d deliveries, %.1f selections/s) -> %s",
		rec.SingleP99Seconds, rec.SingleDeliveries,
		rec.ClusterP99Seconds, rec.ClusterDeliveries, rec.SelectionsPerSec, out)

	if rec.ClusterP99Seconds > floorSeconds && rec.ClusterP99Seconds > maxRatio*rec.SingleP99Seconds {
		t.Fatalf("router tier costs %.2fx the direct dispatch p99 (%.4fs vs %.4fs), budget %.1fx",
			rec.OverheadRatio, rec.ClusterP99Seconds, rec.SingleP99Seconds, maxRatio)
	}
}

// gitStamp names what a record measured: HEAD's short hash, and the git
// tree of the working tree as `git add -A` would stage it — written
// through a copy of the index, so nothing is staged — cut to 12
// characters as record_e2e.sh does. "unknown" outside a git checkout.
func gitStamp() (commit, tree string) {
	commit, tree = "unknown", "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	gitDir, err := exec.Command("git", "rev-parse", "--git-dir").Output()
	if err != nil {
		return commit, tree
	}
	index, err := os.ReadFile(filepath.Join(strings.TrimSpace(string(gitDir)), "index"))
	if err != nil {
		return commit, tree
	}
	tmp, err := os.CreateTemp("", "senseaid-index-")
	if err != nil {
		return commit, tree
	}
	defer os.Remove(tmp.Name())
	_, werr := tmp.Write(index)
	if cerr := tmp.Close(); werr != nil || cerr != nil {
		return commit, tree
	}
	env := append(os.Environ(), "GIT_INDEX_FILE="+tmp.Name())
	add := exec.Command("git", "add", "-A")
	add.Env = env
	if err := add.Run(); err != nil {
		return commit, tree
	}
	write := exec.Command("git", "write-tree")
	write.Env = env
	if out, err := write.Output(); err == nil && len(strings.TrimSpace(string(out))) >= 12 {
		tree = strings.TrimSpace(string(out))[:12]
	}
	return commit, tree
}
