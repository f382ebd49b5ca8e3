package persist_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/persist"
	"senseaid/internal/power"
	"senseaid/internal/reputation"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// The crash-point sweep: a short seeded campaign runs through a sharded
// core journaling into one persist.Store per region, and after every
// journal append and every snapshot commit — every point a SIGKILL can
// leave the state directory at — a copy of the state files must load and
// recover to the state the journal describes at that point. That state
// is the in-memory replay of the records handed to the stores so far,
// and at the end of every operation it must equal the live server's
// (compared as snapshot JSON, shard by shard). Each append's copy is
// also torn part-way through the record just written — the bytes after
// the tear zeroed in place, as a kill mid-copy into the mapped journal
// leaves them, and then cut off — and must recover to the previous point
// with the torn bytes reported.

var (
	sweepWest    = core.Region{Name: "west", Area: geo.Circle{Center: geo.CSDepartment, RadiusM: 2000}}
	sweepEast    = core.Region{Name: "east", Area: geo.Circle{Center: geo.Offset(geo.CSDepartment, 0, 8000), RadiusM: 2000}}
	sweepRegions = []core.Region{sweepWest, sweepEast}
)

func discard(core.TaskID, string, sensors.Reading) {}

func sinkFor(core.TaskID) core.DataSink { return discard }

// newSweepServer builds the deployment. The shards share one reputation
// tracker (a ServerConfig is copied per shard), and each shard's
// snapshot carries all of it; so every task, and with it every outcome,
// is in east, the region recovered last. There is no fairness window:
// its anchor is set at the first tick and journaled only with the first
// reset, so a crash before that re-anchors at the restarted server's
// first tick (ROADMAP item 8).
func newSweepServer(journal func(region string) core.JournalSink) (*core.ShardedServer, error) {
	cfg := core.DefaultServerConfig()
	cfg.Reputation = reputation.NewTracker(reputation.Config{})
	cfg.ShardJournal = journal
	return core.NewShardedServer(cfg, core.DispatcherFunc(func(core.Request, core.DeviceState) {}), sweepRegions)
}

// stateJSON is every shard's snapshot as JSON, in region order.
func stateJSON(ss *core.ShardedServer) string {
	var b strings.Builder
	for i := 0; i < ss.Shards(); i++ {
		sh, _, _ := ss.Shard(i)
		raw, err := json.Marshal(sh.Snapshot())
		if err != nil {
			panic(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	return b.String()
}

type sweep struct {
	t      *testing.T
	rng    *rand.Rand
	dir    string // the live state directory
	copy   string // where each point's files are copied to
	stores []*persist.Store

	mu     sync.Mutex // boundaries are checked one at a time; shards append concurrently
	snaps  []*core.SnapshotState
	mem    [][]core.JournalRecord // every record handed to each store
	ends   []int64                // the bytes of records in each store's open epoch
	prev   string                 // the state at the previous point
	points int
	err    string // the first failed check; reported by the test goroutine

	small, large bool // a point whose journals were all below / one above the split
}

type sweepSink struct {
	w     *sweep
	shard int
}

func (k sweepSink) Append(rec core.JournalRecord) {
	w := k.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.stores[k.shard].Append(rec); err != nil {
		w.fail("append: %v", err)
		return
	}
	raw, err := rec.AppendJSON(nil)
	if err != nil {
		w.fail("encode: %v", err)
		return
	}
	var again core.JournalRecord // what a restart reads back
	if err := again.UnmarshalJSON(raw); err != nil {
		w.fail("decode %s: %v", raw, err)
		return
	}
	w.mem[k.shard] = append(w.mem[k.shard], again)
	w.ends[k.shard] += int64(8 + len(raw))
	w.point(k.shard, len(raw))
}

func (w *sweep) fail(format string, a ...any) {
	if w.err == "" {
		w.err = fmt.Sprintf("point %d: ", w.points) + fmt.Sprintf(format, a...)
	}
}

// replay is the state a fresh deployment recovers from snapshots and
// records.
func (w *sweep) replay(snaps []*core.SnapshotState, recs [][]core.JournalRecord) string {
	ss, err := newSweepServer(nil)
	if err != nil {
		w.fail("%v", err)
		return ""
	}
	for i := range sweepRegions {
		sh, _, _ := ss.Shard(i)
		if _, err := sh.Recover(snaps[i], recs[i], sinkFor); err != nil {
			w.fail("recover %s: %v", sweepRegions[i].Name, err)
		}
	}
	ss.RebuildRouting()
	return stateJSON(ss)
}

// recoverDir loads and replays a copy of the state directory.
func (w *sweep) recoverDir() (state string, truncated int64) {
	snaps := make([]*core.SnapshotState, len(sweepRegions))
	recs := make([][]core.JournalRecord, len(sweepRegions))
	for i, r := range sweepRegions {
		st, err := persist.Open(w.copy, r.Name)
		if err != nil {
			w.fail("open: %v", err)
			return "", 0
		}
		res, err := st.Load()
		if err != nil {
			w.fail("load %s: %v", r.Name, err)
			return "", 0
		}
		truncated += res.TruncatedBytes
		if res.Snapshot != nil {
			snaps[i] = new(core.SnapshotState)
			if err := json.Unmarshal(res.Snapshot, snaps[i]); err != nil {
				w.fail("snapshot %s: %v", r.Name, err)
			}
		}
		recs[i] = make([]core.JournalRecord, len(res.Records))
		for k, raw := range res.Records {
			if err := recs[i][k].UnmarshalJSON(raw); err != nil {
				w.fail("record %s: %v", raw, err)
			}
		}
	}
	return w.replay(snaps, recs), truncated
}

// point checks one crash point: appended is the store an append just
// wrote a recordLen-byte record to, or -1 after a commit.
func (w *sweep) point(appended, recordLen int) {
	if w.err != "" {
		return
	}
	w.points++
	want := w.replay(w.snaps, w.mem)
	if err := copyFiles(w.copy, w.dir); err != nil {
		w.fail("copy: %v", err)
		return
	}
	// The split is by the records' bytes: a live journal file also holds
	// the zeros reserved after them.
	largest := slices.Max(w.ends)
	w.small = w.small || largest < 2*persist.CheckSplitBytes
	w.large = w.large || largest >= 2*persist.CheckSplitBytes
	if got, cut := w.recoverDir(); got != want || cut != 0 {
		w.fail("the files recover (%d bytes cut) to\n%s\nthe journal describes\n%s", cut, got, want)
		return
	}
	if appended >= 0 {
		st := w.stores[appended]
		path := filepath.Join(w.copy, fmt.Sprintf("%s.journal.%d", st.Name(), st.Epoch()))
		raw, err := os.ReadFile(path)
		if err != nil {
			w.fail("%v", err)
			return
		}
		end := w.ends[appended]
		start := end - int64(8+recordLen)
		at := start + 1 + w.rng.Int63n(end-start-1)
		// Zeroed from the tear to the end of the file, then cut there. What
		// is left of the record is torn — unless it is all zeros, which Load
		// takes for space reserved ahead of the last record.
		for _, size := range []int64{int64(len(raw)), at} {
			torn := append(raw[:at:at], make([]byte, size-at)...)
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				w.fail("%v", err)
				return
			}
			wantCut := size - start
			if len(bytes.TrimLeft(raw[start:at], "\x00")) == 0 {
				wantCut = 0
			}
			if got, cut := w.recoverDir(); got != w.prev || cut != wantCut {
				w.fail("a record torn at %d of %s (%d bytes) recovers (%d bytes cut, want %d) to\n%s\nnot the previous point's\n%s",
					at, path, size, cut, wantCut, got, w.prev)
				return
			}
		}
	}
	w.prev = want
}

// copyFiles replaces dst with a copy of the files in src.
func copyFiles(dst, src string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// commit snapshots every shard into its store, each commit a crash point.
func (w *sweep) commit(live *core.ShardedServer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range sweepRegions {
		sh, _, _ := live.Shard(i)
		snap := sh.Snapshot()
		if _, err := w.stores[i].Commit(snap); err != nil {
			w.t.Fatal(err)
		}
		w.ends[i] = 0
		raw, _ := json.Marshal(snap)
		w.snaps[i] = new(core.SnapshotState)
		if err := json.Unmarshal(raw, w.snaps[i]); err != nil {
			w.t.Fatal(err)
		}
		w.point(-1, 0)
	}
}

// settled is the end of an operation: every point so far passed, and the
// journal describes the live state.
func (w *sweep) settled(live *core.ShardedServer, op string) {
	w.t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	got := w.replay(w.snaps, w.mem)
	if w.err != "" {
		w.t.Fatalf("after %s, %s", op, w.err)
	}
	if want := stateJSON(live); got != want {
		w.t.Fatalf("after %s the journal replays to\n%s\nthe live state is\n%s", op, got, want)
	}
}

func TestCrashPointSweep(t *testing.T) {
	// Load checks a large file on several goroutines only when it may use
	// several; make sure it may, whatever the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	w := &sweep{
		t:     t,
		rng:   rand.New(rand.NewSource(8)),
		dir:   t.TempDir(),
		copy:  filepath.Join(t.TempDir(), "copy"),
		snaps: make([]*core.SnapshotState, len(sweepRegions)),
		mem:   make([][]core.JournalRecord, len(sweepRegions)),
		ends:  make([]int64, len(sweepRegions)),
	}
	for _, r := range sweepRegions {
		st, err := persist.Open(w.dir, r.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		w.stores = append(w.stores, st)
	}
	w.prev = w.replay(w.snaps, w.mem)
	live, err := newSweepServer(func(region string) core.JournalSink {
		for i, r := range sweepRegions {
			if r.Name == region {
				return sweepSink{w, i}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w.commit(live) // opens the first journal epochs
	w.settled(live, "the first commit")

	rng := rand.New(rand.NewSource(23))
	now := simclock.Epoch
	centers := []geo.Point{sweepWest.Area.Center, sweepEast.Area.Center}
	var devices []string
	home := make(map[string]int)
	for i := 0; i < 14; i++ {
		id := fmt.Sprintf("dev-%02d", i)
		shard := min(i%3, 1) // a third in west, the rest in east
		d := core.DeviceState{
			ID: id, Position: geo.Offset(centers[shard], rng.Float64()*500, rng.Float64()*500),
			BatteryPct: 50 + 50*rng.Float64(), LastComm: now, Responsive: true,
			Sensors: []sensors.Type{sensors.Barometer}, Budget: power.DefaultBudget(),
		}
		if err := live.RegisterDevice(d); err != nil {
			t.Fatal(err)
		}
		devices = append(devices, id)
		home[id] = shard
		w.settled(live, "register "+id)
	}

	committed := false
	for minute := 0; !w.large && minute < 600; minute++ {
		if minute%20 == 0 { // half-hour campaigns, two at a time
			task := core.Task{
				ClientID: fmt.Sprintf("campaign-%d", minute), Sensor: sensors.Barometer,
				SamplingPeriod: time.Minute, Start: now, End: now.Add(30 * time.Minute),
				Area: geo.Circle{Center: sweepEast.Area.Center, RadiusM: 1500}, SpatialDensity: 2 + minute%40/20,
			}
			if _, err := live.SubmitTask(task, now, discard); err != nil {
				t.Fatal(err)
			}
			w.settled(live, "a submit")
		}
		now = now.Add(time.Minute)
		live.ProcessDue(now)
		w.settled(live, fmt.Sprintf("the tick at minute %d", minute))
		east, _, _ := live.Shard(1)
		for _, p := range east.Snapshot().Pending {
			reqID := fmt.Sprintf("%s#%d", p.Req.TaskID, p.Req.Seq)
			switch r := rng.Float64(); {
			case r < 0.7:
				reading := sensors.Reading{Sensor: sensors.Barometer, At: now, Where: sweepEast.Area.Center, Value: 1013 + 3*rng.NormFloat64()}
				if err := live.ReceiveData(reqID, p.DeviceID, reading, now); err != nil {
					t.Fatal(err)
				}
				live.NoteDeviceEnergy(p.DeviceID, 0.1+rng.Float64())
			case r < 0.8:
				live.NoteDispatchFailure(reqID, p.DeviceID)
			} // else the upload misses its deadline at a later tick
			w.settled(live, "an upload for "+reqID)
		}
		id := devices[rng.Intn(len(devices))]
		switch rng.Intn(3) {
		case 0:
			b := power.Budget{TotalJ: 100 + 200*rng.Float64(), CriticalBatteryPct: 15}
			if err := live.UpdateDevicePrefs(id, b); err != nil {
				t.Fatal(err)
			}
		case 1: // a report from the other region: the device re-homes
			to := 1 - home[id]
			if err := live.UpdateDeviceState(id, geo.Offset(centers[to], rng.Float64()*500, 0), 40+60*rng.Float64(), now); err != nil {
				t.Fatal(err)
			}
			home[id] = to
		}
		w.settled(live, "a device operation on "+id)
		if minute == 15 {
			w.commit(live)
			w.settled(live, "the commit")
			committed = true
		}
	}
	if !committed || !w.small || !w.large {
		t.Fatalf("the sweep never crossed the split (committed %v, small %v, large %v)", committed, w.small, w.large)
	}
	t.Logf("%d crash points checked over %v", w.points, now.Sub(simclock.Epoch))
}
