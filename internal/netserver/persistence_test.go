package netserver

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/core"
	"senseaid/internal/faultconn"
	"senseaid/internal/geo"
	"senseaid/internal/obs"
	"senseaid/internal/persist"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// startDurable brings up a server persisting to dir. Periodic snapshots
// are disabled so recovery leans on the journal — the hard path.
func startDurable(t *testing.T, dir string, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Addr:             "127.0.0.1:0",
		TickPeriod:       20 * time.Millisecond,
		StateDir:         dir,
		SnapshotInterval: -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Listen(cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// durableSpec is a campaign that outlives a mid-test crash: absolute
// window so a resubmit carries identical bytes, client task ID so the
// resubmit deduplicates.
func durableSpec(clientID string) wire.TaskSpec {
	now := time.Now()
	return wire.TaskSpec{
		ClientTaskID:   clientID,
		Sensor:         sensors.Barometer,
		SamplingPeriod: 150 * time.Millisecond,
		Start:          now,
		End:            now.Add(30 * time.Second),
		Center:         geo.CSDepartment,
		AreaRadiusM:    500,
		SpatialDensity: 1,
	}
}

// collectingCAS dials a CAS, subscribes, and submits the spec.
func collectingCAS(t *testing.T, addr string, spec wire.TaskSpec) (*cas.CAS, string, func() int) {
	t.Helper()
	app, err := cas.Dial(addr)
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	t.Cleanup(func() { _ = app.Close() })
	var mu sync.Mutex
	count := 0
	if err := app.ReceiveSensedData(func(wire.SensedData) {
		mu.Lock()
		count++
		mu.Unlock()
	}); err != nil {
		t.Fatalf("ReceiveSensedData: %v", err)
	}
	id, err := app.Task(spec)
	if err != nil {
		t.Fatalf("Task: %v", err)
	}
	return app, id, func() int {
		mu.Lock()
		defer mu.Unlock()
		return count
	}
}

// TestCrashRecoveryStateFidelity kills a server mid-campaign (no final
// snapshot, no journal sync) and asserts the restarted server rebuilds
// the exact persisted state: tasks, queues, pending dispatches with
// their deadlines, device records, reputation, and stats. The successor
// gets an hour-long tick so nothing reschedules between recovery and
// the comparison.
func TestCrashRecoveryStateFidelity(t *testing.T) {
	dir := t.TempDir()
	s1 := startDurable(t, dir, nil)
	if got := s1.Recovery().Outcome; got != "fresh" {
		t.Fatalf("first boot outcome = %q, want fresh", got)
	}
	autoDevice(t, s1.Addr(), "dev-fid")
	_, _, readings := collectingCAS(t, s1.Addr(), durableSpec("fid-1"))
	waitFor(t, 5*time.Second, "first reading", func() bool { return readings() >= 1 })
	if err := s1.closeAbrupt(); err != nil {
		t.Fatalf("closeAbrupt: %v", err)
	}
	// The core outlives its transport; this is the exact state the dead
	// process held (every journal record was emitted before closeAbrupt
	// returned).
	want := s1.Orchestrator().(*core.Server).Snapshot()

	s2 := startDurable(t, dir, func(c *Config) { c.TickPeriod = time.Hour })
	rec := s2.Recovery()
	if rec.Outcome != "restored" || rec.Restarts != 1 {
		t.Fatalf("recovery = %+v, want restored with 1 restart", rec)
	}
	if rec.Replayed == 0 {
		t.Fatalf("recovery replayed no journal records: %+v", rec)
	}
	got := s2.Orchestrator().(*core.Server).Snapshot()

	// Compare the persisted forms: marshaling strips the monotonic clock
	// readings live time.Time values carry and disk round-trips lose.
	wantJSON, err := json.MarshalIndent(want, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("recovered state differs from crashed state:\nbefore crash:\n%s\nafter recovery:\n%s", wantJSON, gotJSON)
	}
	if len(want.Pending) == 0 && want.Stats.ReadingsAccepted == 0 {
		t.Fatalf("campaign produced no persistent evidence (pending=%d readings=%d); test proved nothing",
			len(want.Pending), want.Stats.ReadingsAccepted)
	}

	if v := metricValue(s2.Metrics(), "senseaid_restarts_total", nil); v != 1 {
		t.Fatalf("senseaid_restarts_total = %v, want 1", v)
	}
	if v := metricValue(s2.Metrics(), "senseaid_recovery_last_unix", nil); v <= 0 {
		t.Fatalf("senseaid_recovery_last_unix = %v, want > 0", v)
	}
	if v := metricValue(s2.Metrics(), "senseaid_recoveries_total", obs.Labels{"outcome": "restored"}); v != 1 {
		t.Fatalf(`senseaid_recoveries_total{outcome="restored"} = %v, want 1`, v)
	}
	requireRecoveryPhases(t, s2)
}

// TestCrashRecoveryCampaignResumes is the operator story: kill -9 mid
// campaign, restart against the same state directory, and the campaign
// finishes — the CAS reclaims its task by resubmitting the same client
// task ID (no duplicate task is scheduled) and readings keep flowing
// under the original task ID.
func TestCrashRecoveryCampaignResumes(t *testing.T) {
	dir := t.TempDir()
	spec := durableSpec("resume-1")

	s1 := startDurable(t, dir, nil)
	autoDevice(t, s1.Addr(), "dev-res")
	_, taskID, readings := collectingCAS(t, s1.Addr(), spec)
	waitFor(t, 5*time.Second, "pre-crash reading", func() bool { return readings() >= 1 })
	preStats := s1.Stats()
	if err := s1.closeAbrupt(); err != nil {
		t.Fatalf("closeAbrupt: %v", err)
	}

	s2 := startDurable(t, dir, nil)
	post := s2.Stats()
	if post.TasksSubmitted != preStats.TasksSubmitted {
		t.Fatalf("TasksSubmitted across restart: %d -> %d", preStats.TasksSubmitted, post.TasksSubmitted)
	}
	if post.ReadingsAccepted < preStats.ReadingsAccepted {
		t.Fatalf("ReadingsAccepted went backwards: %d -> %d", preStats.ReadingsAccepted, post.ReadingsAccepted)
	}
	if n := s2.Status().CoreTasks; n != 1 {
		t.Fatalf("restored core tasks = %d, want 1", n)
	}

	// The CAS retries its submission on the new connection; the server
	// must return the original task, not mint a twin.
	autoDevice(t, s2.Addr(), "dev-res")
	_, taskID2, readings2 := collectingCAS(t, s2.Addr(), spec)
	if taskID2 != taskID {
		t.Fatalf("resubmit returned %q, want original %q", taskID2, taskID)
	}
	if got := s2.Stats().TasksSubmitted; got != preStats.TasksSubmitted {
		t.Fatalf("resubmit created a duplicate: TasksSubmitted = %d, want %d", got, preStats.TasksSubmitted)
	}
	waitFor(t, 5*time.Second, "post-restart reading", func() bool { return readings2() >= 1 })
}

// TestCrashRecoverySharded runs the kill-9 flow on the sharded topology:
// per-region state files, per-shard recovery, and the routing indexes
// rebuilt so post-restart traffic still reaches the right shard.
func TestCrashRecoverySharded(t *testing.T) {
	dir := t.TempDir()
	sharded := func(c *Config) { c.Regions = testRegions() }
	spec := durableSpec("shard-1")

	s1 := startDurable(t, dir, sharded)
	autoDevice(t, s1.Addr(), "dev-shard")
	_, taskID, readings := collectingCAS(t, s1.Addr(), spec)
	if !strings.HasPrefix(taskID, "west/") {
		t.Fatalf("task ID %q not owned by west", taskID)
	}
	waitFor(t, 5*time.Second, "pre-crash reading", func() bool { return readings() >= 1 })
	if err := s1.closeAbrupt(); err != nil {
		t.Fatalf("closeAbrupt: %v", err)
	}
	for _, name := range []string{"west.snap", "east.snap"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("per-region state file %s: %v", name, err)
		}
	}

	s2 := startDurable(t, dir, sharded)
	rec := s2.Recovery()
	if rec.Outcome != "restored" || rec.Restarts != 1 {
		t.Fatalf("recovery = %+v, want restored with 1 restart", rec)
	}
	if n := s2.Status().CoreTasks; n != 1 {
		t.Fatalf("restored core tasks = %d, want 1", n)
	}

	// Routing survived: the restored device record is findable (prefs
	// route by device home) and a reclaimed task keeps flowing.
	if err := s2.Orchestrator().UpdateDevicePrefs("dev-shard", power.DefaultBudget()); err != nil {
		t.Fatalf("prefs after recovery (device routing lost?): %v", err)
	}
	autoDevice(t, s2.Addr(), "dev-shard")
	_, taskID2, readings2 := collectingCAS(t, s2.Addr(), spec)
	if taskID2 != taskID {
		t.Fatalf("resubmit returned %q, want original %q", taskID2, taskID)
	}
	waitFor(t, 5*time.Second, "post-restart reading", func() bool { return readings2() >= 1 })
}

// TestRecoverySkipsSchemaBadRecords: a CRC-valid record that does not
// decode as a journal record is dropped and counted as skipped — even
// one whose sequence number did decode — wherever it falls among the
// ranges the records are decoded in.
func TestRecoverySkipsSchemaBadRecords(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.Open(dir, storeNameSingle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Commit(persistedState{}); err != nil {
		t.Fatal(err)
	}
	const records, bad = 3000, 3
	for i := 1; i <= records; i++ {
		if i%1000 == 500 {
			err = store.AppendRaw(json.RawMessage(fmt.Sprintf(`{"n":%d,"op":"energy","device_id":"d","joules":"lots"}`, i)))
		} else {
			err = store.Append(core.JournalRecord{Seq: uint64(i), Op: "energy", DeviceID: "d", Joules: 0.01})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	rec := startDurable(t, dir, nil).Recovery()
	if rec.Replayed != records-bad || rec.Skipped != bad {
		t.Fatalf("replayed %d, skipped %d; want %d and %d", rec.Replayed, rec.Skipped, records-bad, bad)
	}
}

// TestCorruptStateRefused flips bytes in the snapshot and asserts the
// default posture: the server refuses to start rather than silently
// serving from damaged state, and -state-recover moves the files aside
// (keeping them for post-mortem) and starts fresh.
func TestCorruptStateRefused(t *testing.T) {
	dir := t.TempDir()
	s1 := startDurable(t, dir, nil)
	_, _, _ = collectingCAS(t, s1.Addr(), durableSpec("corrupt-1"))
	if err := s1.Close(); err != nil { // graceful: snapshot written
		t.Fatalf("Close: %v", err)
	}

	snapPath := filepath.Join(dir, "core.snap")
	if err := os.WriteFile(snapPath, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := Listen(Config{Addr: "127.0.0.1:0", StateDir: dir})
	if err == nil {
		t.Fatal("Listen accepted a corrupt snapshot")
	}
	if !persist.IsCorrupt(err) {
		t.Fatalf("error does not identify corruption: %v", err)
	}
	if !strings.Contains(err.Error(), "state-recover") {
		t.Fatalf("error does not point at the recovery flag: %v", err)
	}

	s2 := startDurable(t, dir, func(c *Config) { c.StateRecover = true })
	rec := s2.Recovery()
	if rec.Outcome != "reset" {
		t.Fatalf("recovery outcome = %q, want reset", rec.Outcome)
	}
	if s2.Status().CoreTasks != 0 {
		t.Fatalf("fresh start after reset still has tasks")
	}
	if _, err := os.Stat(snapPath + ".corrupt"); err != nil {
		t.Fatalf("damaged snapshot not preserved for post-mortem: %v", err)
	}
	if v := metricValue(s2.Metrics(), "senseaid_recoveries_total", obs.Labels{"outcome": "reset"}); v != 1 {
		t.Fatalf(`senseaid_recoveries_total{outcome="reset"} = %v, want 1`, v)
	}
}

// TestTornJournalTailRecovered crashes, then corrupts the journal's
// tail (the artifact of a crash mid-append) and asserts recovery
// replays the intact prefix instead of refusing or panicking.
func TestTornJournalTailRecovered(t *testing.T) {
	dir := t.TempDir()
	s1 := startDurable(t, dir, nil)
	autoDevice(t, s1.Addr(), "dev-torn")
	_, _, readings := collectingCAS(t, s1.Addr(), durableSpec("torn-1"))
	waitFor(t, 5*time.Second, "reading", func() bool { return readings() >= 1 })
	if err := s1.closeAbrupt(); err != nil {
		t.Fatalf("closeAbrupt: %v", err)
	}

	// Tear the newest journal epoch mid-record.
	entries, err := filepath.Glob(filepath.Join(dir, "core.journal.*"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no journal files: %v (%v)", entries, err)
	}
	tail := entries[len(entries)-1]
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	s2 := startDurable(t, dir, nil)
	rec := s2.Recovery()
	if rec.Outcome != "restored" || rec.Replayed == 0 {
		t.Fatalf("recovery = %+v, want restored with replayed records", rec)
	}
	if v := metricValue(s2.Metrics(), "senseaid_journal_truncated_bytes_total", nil); v != 3 {
		t.Fatalf("truncated bytes metric = %v, want 3", v)
	}
}

// TestCrashRestartSoak is the randomized crash soak: repeated abrupt
// kills at varying points mid-traffic, with fault-injected connections,
// against one state directory. Every restart must recover (never
// refuse, never panic), and the client-task-ID dedupe must hold no
// matter where the crash landed. Run under -race in CI.
func TestCrashRestartSoak(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	iterations := 6
	if testing.Short() {
		iterations = 3
	}
	spec := durableSpec("soak-1")
	taskSubmits := 0
	for i := 0; i < iterations; i++ {
		seed := int64(i)
		s := startDurable(t, dir, func(c *Config) {
			c.WrapConn = func(nc net.Conn) net.Conn {
				return faultconn.Wrap(nc, faultconn.Policy{Seed: seed, DropProb: 0.01})
			}
			// Odd iterations also snapshot aggressively, so crashes land
			// on every mix of snapshot-plus-journal-tail.
			if i%2 == 1 {
				c.SnapshotInterval = 30 * time.Millisecond
			}
		})
		rec := s.Recovery()
		if i == 0 {
			if rec.Outcome != "fresh" {
				t.Fatalf("iteration 0 outcome = %q", rec.Outcome)
			}
		} else if rec.Outcome != "restored" || rec.Restarts != i {
			t.Fatalf("iteration %d recovery = %+v, want restored with %d restarts", i, rec, i)
		}

		// Best-effort traffic: the fault policy may kill any of these
		// connections, and that is the point — the crash must be safe at
		// whatever point the traffic reached.
		if c, err := dialQuietDevice(s.Addr(), fmt.Sprintf("soak-dev-%d", i%2)); err == nil {
			defer func() { _ = c.Close() }()
		}
		if app, err := cas.Dial(s.Addr()); err == nil {
			if _, err := app.Task(spec); err == nil {
				taskSubmits++
			}
			_ = app.Close()
		}
		time.Sleep(time.Duration(20+rng.Intn(150)) * time.Millisecond)
		if err := s.closeAbrupt(); err != nil {
			t.Fatalf("iteration %d closeAbrupt: %v", i, err)
		}
		if n := s.Orchestrator().Stats().TasksSubmitted; n > 1 {
			t.Fatalf("iteration %d: %d tasks from %d submits of one client task ID", i, n, taskSubmits)
		}
	}
	// The directory must still boot a healthy server.
	final := startDurable(t, dir, nil)
	if final.Recovery().Restarts != iterations {
		t.Fatalf("final restarts = %d, want %d", final.Recovery().Restarts, iterations)
	}
	if n := final.Stats().TasksSubmitted; taskSubmits > 0 && n != 1 {
		t.Fatalf("final TasksSubmitted = %d after %d idempotent submits", n, taskSubmits)
	}
}

// dialQuietDevice registers a device that never answers schedules —
// soak traffic that exercises dispatch failures and misses too.
func dialQuietDevice(addr, id string) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	rc, err := wire.NewRPCConn(nc, wire.RoleDevice, nil)
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	if _, err := rc.Call(wire.TypeRegister, wire.Register{
		DeviceID:   id,
		Position:   geo.CSDepartment,
		BatteryPct: 80,
		Sensors:    []sensors.Type{sensors.Barometer},
		Budget:     power.DefaultBudget(),
	}); err != nil {
		_ = rc.Close()
		return nil, err
	}
	return nc, nil
}

// recoveryBudgetSeconds bounds boot-time recovery for the bench's 10k
// journal records. Replay is in-memory map work; even with the
// post-recovery snapshot commit it finishes in well under a second on
// any hardware CI uses.
const recoveryBudgetSeconds = 2.0

// plainJournalRecord is core.JournalRecord without its codec methods:
// encoding/json's reflection over the same struct, which defines the
// journal format and is what the record's own codec is measured against.
type plainJournalRecord core.JournalRecord

// hotJournalRecords is one record of each op the steady state journals,
// shaped like production's (a 20-device dispatch, region-prefixed IDs).
func hotJournalRecords() []core.JournalRecord {
	at := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	dev := core.DeviceState{
		ID: "3f9a1c0e5b7d2a48", Position: geo.CSDepartment, BatteryPct: 87.5, EnergySpentJ: 1.25, TimesUsed: 3,
		LastComm: at, Sensors: []sensors.Type{sensors.Barometer, sensors.Accelerometer},
		Budget: power.DefaultBudget(), Responsive: true, Reliability: 0.97,
	}
	devices := make([]string, 20)
	for i := range devices {
		devices[i] = fmt.Sprintf("3f9a1c0e5b7d%04x", i)
	}
	ref := core.RequestRef{TaskID: "west/task-17", Seq: 42, Due: at, Deadline: at.Add(time.Minute)}
	budget := power.DefaultBudget()
	return []core.JournalRecord{
		{Seq: 1000001, Op: "register", Device: &dev},
		{Seq: 1000002, Op: "restore", Device: &dev},
		{Seq: 1000003, Op: "deregister", DeviceID: dev.ID},
		{Seq: 1000004, Op: "dispatch", At: at, Req: &ref, Devices: devices},
		{Seq: 1000005, Op: "receive", ReqID: "west/task-17#42", DeviceID: dev.ID, Value: 1013.25},
		{Seq: 1000006, Op: "outcome", DeviceID: dev.ID, Outcome: 1},
		{Seq: 1000007, Op: "miss", ReqID: "west/task-17#42", DeviceID: dev.ID},
		{Seq: 1000008, Op: "prefs", DeviceID: dev.ID, Budget: &budget},
		{Seq: 1000009, Op: "energy", DeviceID: dev.ID, Joules: 0.0125},
	}
}

// codecBenchCase is one way of encoding or decoding the hot records.
type codecBenchCase struct {
	Name        string  `json:"name"`
	NsPerRecord float64 `json:"ns_per_record"`
	AllocsPerOp int64   `json:"allocs_per_record"`
	BytesPerOp  int64   `json:"bytes_per_record"`
}

// benchJournalCodec times the record codec against encoding/json over
// the hot records, one record per iteration, cycling through the ops.
func benchJournalCodec(t *testing.T) map[string]codecBenchCase {
	recs := hotJournalRecords()
	raws := make([][]byte, len(recs))
	for i, r := range recs {
		raw, err := r.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := json.Marshal((*plainJournalRecord)(&recs[i])); err != nil || string(want) != string(raw) {
			t.Fatalf("%s: codec wrote %s, encoding/json %s (%v)", r.Op, raw, want, err)
		}
		raws[i] = raw
	}
	cases := []struct {
		name string
		run  func(i int)
	}{
		{"encode/codec-reused-buffer", func() func(int) {
			var buf []byte
			return func(i int) { buf, _ = recs[i%len(recs)].AppendJSON(buf[:0]) }
		}()},
		{"encode/oracle", func(i int) { _, _ = json.Marshal((*plainJournalRecord)(&recs[i%len(recs)])) }},
		// What recovery calls on records persist.Load has validated.
		{"decode/codec", func(i int) {
			var r core.JournalRecord
			_ = r.UnmarshalJSON(raws[i%len(raws)])
		}},
		// What any other caller gets: json.Unmarshal scans the input twice
		// (once to validate, once to find the value's end) before the
		// record sees it.
		{"decode/codec-via-json.Unmarshal", func(i int) {
			var r core.JournalRecord
			_ = json.Unmarshal(raws[i%len(raws)], &r)
		}},
		{"decode/oracle", func(i int) {
			var r plainJournalRecord
			_ = json.Unmarshal(raws[i%len(raws)], &r)
		}},
	}
	out := make(map[string]codecBenchCase, len(cases))
	for _, c := range cases {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run(i)
			}
		})
		out[c.name] = codecBenchCase{
			Name:        c.name,
			NsPerRecord: float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		t.Logf("%s: %.0f ns/record, %d allocs/record", c.name, out[c.name].NsPerRecord, res.AllocsPerOp())
	}
	return out
}

// Speed-up floors for the record codec over encoding/json, on the hot
// records. Measured: encode 4.5x, decode 5-6x; 1.25-1.5x through
// json.Unmarshal, which scans the input twice before the record sees it
// and so has the floor that only says the fast path is still being taken.
const (
	codecEncodeMin        = 3.0
	codecDecodeMin        = 1.5
	codecDecodeViaJSONMin = 1.1
)

// loadOracle is persist.Load's journal read as it was before each record
// was checked once and in parallel: read the file, then frame, CRC and
// encoding/json.Valid one record at a time on one goroutine, collecting
// the records into a slice and that slice into the result. It returns
// how many records passed.
func loadOracle(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var recs, all []json.RawMessage
	for off := 0; len(raw)-off >= 8; {
		n := int(binary.BigEndian.Uint32(raw[off:]))
		if n == 0 || n > persist.MaxRecordBytes || len(raw)-off-8 < n {
			break
		}
		p := raw[off+8 : off+8+n]
		if crc32.ChecksumIEEE(p) != binary.BigEndian.Uint32(raw[off+4:]) || !json.Valid(p) {
			break
		}
		recs = append(recs, p)
		off += 8 + n
	}
	all = append(all, recs...)
	return len(all), nil
}

// loadBenchMB is the journal the Load measurement reads.
const loadBenchMB = 64

// loadSpeedupMin is the floor on persist.Load's speed over loadOracle.
// Measured on 2 cores: 3-4x (2.4x of it the single-pass validator).
const loadSpeedupMin = 2.0

// benchLoad writes a loadBenchMB journal of the hot records and times
// persist.Load and loadOracle over it, best of three each, in MB/s.
func benchLoad(t *testing.T) map[string]interface{} {
	dir := t.TempDir()
	recs := hotJournalRecords()
	var raw []byte
	n := 0
	for ; len(raw) < loadBenchMB<<20; n++ {
		r := recs[n%len(recs)]
		r.Seq = uint64(n + 1)
		start := len(raw)
		raw = append(raw, make([]byte, 8)...)
		raw, _ = r.AppendJSON(raw)
		binary.BigEndian.PutUint32(raw[start:], uint32(len(raw)-start-8))
		binary.BigEndian.PutUint32(raw[start+4:], crc32.ChecksumIEEE(raw[start+8:]))
	}
	path := filepath.Join(dir, "core.journal.1")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mb := float64(len(raw)) / (1 << 20)
	best := func(run func() int) float64 {
		var fastest time.Duration
		for i := 0; i < 3; i++ {
			runtime.GC()
			start := time.Now()
			if got := run(); got != n {
				t.Fatalf("read %d of %d records", got, n)
			}
			if d := time.Since(start); i == 0 || d < fastest {
				fastest = d
			}
		}
		return mb / fastest.Seconds()
	}
	load := best(func() int {
		st, err := persist.Open(dir, "core")
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Records)
	})
	oracle := best(func() int {
		got, err := loadOracle(path)
		if err != nil {
			t.Fatal(err)
		}
		return got
	})
	t.Logf("persist.Load %.0f MB/s, sequential oracle %.0f MB/s over %.0f MB", load, oracle, mb)
	return map[string]interface{}{
		"journal_mb":       mb,
		"records":          n,
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"load_mb_per_s":    load,
		"oracle_mb_per_s":  oracle,
		"load_over_oracle": load / oracle,
	}
}

// appendSpeedupMin is the floor on persist.Store.Append's speed over
// writeAppender on one goroutine. Measured on 2 cores: ~2x.
const appendSpeedupMin = 1.5

// appendBenchRecords is how many 250-byte records one append measurement
// writes.
const appendBenchRecords = 100_000

// writeAppender is persist.Store.Append as it was before the journal was
// mapped: the same frame, one write(2) per record under a mutex, on an
// O_APPEND file.
type writeAppender struct {
	mu   sync.Mutex
	f    *os.File
	pool sync.Pool
}

func (w *writeAppender) append(rec []byte) error {
	bp := w.pool.Get().(*[]byte)
	frame := binary.BigEndian.AppendUint32((*bp)[:0], uint32(len(rec)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(rec))
	frame = append(frame, rec...)
	w.mu.Lock()
	_, err := w.f.Write(frame)
	w.mu.Unlock()
	*bp = frame
	w.pool.Put(bp)
	return err
}

// benchAppend times persist.Store.Append and writeAppender over
// appendBenchRecords 250-byte records from 1 and 4 goroutines, best of
// three each, and counts Append's allocations.
func benchAppend(t *testing.T) map[string]interface{} {
	rec := persist.Encoded(`{"pad":"` + strings.Repeat("x", 240) + `"}`)
	nsPerRecord := func(g int, appendOne func() error) float64 {
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < appendBenchRecords/g; k++ {
					if err := appendOne(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		return float64(time.Since(start).Nanoseconds()) / appendBenchRecords
	}
	openMapped := func(dir string) *persist.Store {
		st, err := persist.Open(dir, "core")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Commit(persistedState{}); err != nil {
			t.Fatal(err)
		}
		return st
	}
	res := map[string]interface{}{
		"record_bytes": len(rec),
		"records":      appendBenchRecords,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
	}
	for _, g := range []int{1, 4} {
		mapped, write := math.Inf(1), math.Inf(1)
		for i := 0; i < 3; i++ {
			dir := t.TempDir()
			st := openMapped(dir)
			mapped = math.Min(mapped, nsPerRecord(g, func() error { return st.Append(&rec) }))
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(filepath.Join(dir, "write"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			w := &writeAppender{f: f, pool: sync.Pool{New: func() any { return new([]byte) }}}
			write = math.Min(write, nsPerRecord(g, func() error { return w.append(rec) }))
			_ = f.Close() // the bytes are not read back
			_ = os.RemoveAll(dir)
		}
		t.Logf("%d goroutines: mapped append %.0f ns/record, write(2) %.0f", g, mapped, write)
		res[fmt.Sprintf("goroutines_%d", g)] = map[string]float64{
			"mapped_ns_per_record": mapped,
			"write_ns_per_record":  write,
			"write_over_mapped":    write / mapped,
		}
	}
	st := openMapped(t.TempDir())
	defer st.Close()
	res["mapped_allocs_per_record"] = testing.AllocsPerRun(1000, func() {
		if err := st.Append(&rec); err != nil {
			t.Fatal(err)
		}
	})
	return res
}

// headCommit names the commit the recording ran on top of ("unknown"
// outside a git checkout; "-dirty" when the tree had local changes).
func headCommit() string {
	rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(rev))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

// TestRecordRecoveryBench measures boot-time recovery over a 10k-record
// journal, persist.Load over a loadBenchMB journal against the
// sequential oracle, persist.Store.Append against the write(2) per
// record it replaced, and the journal record codec against
// encoding/json, and writes BENCH_recovery.json in the BENCH_*.json
// common schema so the trajectories are recorded in CI. Gated on
// SENSEAID_BENCH_OUT (ci.sh sets it); FAILS when recovery exceeds its
// wall-clock budget, when Load is under loadSpeedupMin times the oracle,
// when Append allocates or is under appendSpeedupMin times the write(2)
// path on one goroutine, when encoding a record into a reused buffer
// allocates or is less than codecEncodeMin times faster than
// encoding/json, or when decoding has lost its margin over it.
func TestRecordRecoveryBench(t *testing.T) {
	out := os.Getenv("SENSEAID_BENCH_OUT")
	if out == "" {
		t.Skip("SENSEAID_BENCH_OUT not set; benchmark recording runs from ci.sh")
	}
	dir := t.TempDir()
	store, err := persist.Open(dir, "core")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Commit(persistedState{}); err != nil {
		t.Fatal(err)
	}
	const records = 10_000
	dev := core.DeviceState{
		ID: "bench-dev", Position: geo.CSDepartment, BatteryPct: 90,
		LastComm: time.Now(), Sensors: []sensors.Type{sensors.Barometer},
		Budget: power.DefaultBudget(), Responsive: true, Reliability: 1,
	}
	if err := store.Append(core.JournalRecord{Seq: 1, Op: "register", Device: &dev}); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= records; i++ {
		if err := store.Append(core.JournalRecord{Seq: uint64(i), Op: "energy", DeviceID: "bench-dev", Joules: 0.01}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	s, err := Listen(Config{Addr: "127.0.0.1:0", StateDir: dir, SnapshotInterval: -1, TickPeriod: time.Hour})
	elapsed := time.Since(start).Seconds()
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer func() { _ = s.Close() }()
	rec := s.Recovery()
	if rec.Replayed != records {
		t.Fatalf("replayed %d of %d records", rec.Replayed, records)
	}

	load := benchLoad(t)
	appends := benchAppend(t)
	codec := benchJournalCodec(t)
	over := func(slow, fast string) float64 {
		return codec[slow].NsPerRecord / math.Max(codec[fast].NsPerRecord, 1)
	}
	ratios := map[string]float64{
		"encode_oracle_over_codec":          over("encode/oracle", "encode/codec-reused-buffer"),
		"decode_oracle_over_codec":          over("decode/oracle", "decode/codec"),
		"decode_oracle_over_codec_via_json": over("decode/oracle", "decode/codec-via-json.Unmarshal"),
	}
	cases := make([]codecBenchCase, 0, len(codec))
	for _, c := range codec {
		cases = append(cases, c)
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })

	doc := map[string]interface{}{
		"schema":      "senseaid-bench-recovery/4",
		"go":          runtime.Version(),
		"recorded_at": time.Now().UTC().Format(time.RFC3339),
		"commit":      headCommit(),
		"replay": map[string]interface{}{
			"records":          records,
			"replayed":         rec.Replayed,
			"recovery_seconds": elapsed,
			"budget_seconds":   recoveryBudgetSeconds,
		},
		"load":         load,
		"append":       appends,
		"codec":        cases,
		"codec_ratios": ratios,
		"gates": []string{
			fmt.Sprintf("%d-record replay <= %.0f s", records, recoveryBudgetSeconds),
			fmt.Sprintf("persist.Load over a %d MB journal >= %.1fx the sequential oracle", loadBenchMB, loadSpeedupMin),
			fmt.Sprintf("persist.Store.Append, 1 goroutine: >= %.1fx one write(2) per record, 0 allocs/record", appendSpeedupMin),
			"encode into a reused buffer: 0 allocs/record",
			fmt.Sprintf("encode: oracle ns/record over codec >= %.1f", codecEncodeMin),
			fmt.Sprintf("decode: oracle ns/record over codec >= %.1f (>= %.1f through json.Unmarshal)", codecDecodeMin, codecDecodeViaJSONMin),
		},
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recovered %d records in %.3fs; codec ratios %v -> %s", records, elapsed, ratios, out)
	if elapsed > recoveryBudgetSeconds {
		t.Errorf("recovery took %.3fs for %d records, budget %.1fs", elapsed, records, recoveryBudgetSeconds)
	}
	if r := load["load_over_oracle"].(float64); r < loadSpeedupMin {
		t.Errorf("persist.Load is %.2fx the sequential oracle, want >= %.1fx", r, loadSpeedupMin)
	}
	if r := appends["goroutines_1"].(map[string]float64)["write_over_mapped"]; r < appendSpeedupMin {
		t.Errorf("persist.Store.Append is %.2fx one write(2) per record, want >= %.1fx", r, appendSpeedupMin)
	}
	if n := appends["mapped_allocs_per_record"].(float64); n != 0 {
		t.Errorf("persist.Store.Append allocates %v times per record, want 0", n)
	}
	if n := codec["encode/codec-reused-buffer"].AllocsPerOp; n != 0 {
		t.Errorf("encoding into a reused buffer allocates %d times per record, want 0", n)
	}
	for name, min := range map[string]float64{
		"encode_oracle_over_codec":          codecEncodeMin,
		"decode_oracle_over_codec":          codecDecodeMin,
		"decode_oracle_over_codec_via_json": codecDecodeViaJSONMin,
	} {
		if ratios[name] < min {
			t.Errorf("%s = %.2f, want >= %.2f", name, ratios[name], min)
		}
	}
}
