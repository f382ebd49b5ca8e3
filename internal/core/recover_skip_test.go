package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/mobility"
	"senseaid/internal/power"
	"senseaid/internal/reputation"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// Recover skips the register and restore records a later record of the
// same device supersedes (see superseded). plainRecover is the replay
// without that skip — every record the filter lets through applied one
// by one, in sequence order — kept here only as the oracle the skip is
// held to.
func plainRecover(s *Server, snap *SnapshotState, records []JournalRecord) RecoveryResult {
	sinkFor := func(TaskID) DataSink { return nopSink }
	var res RecoveryResult
	s.mu.Lock()
	defer s.mu.Unlock()
	var last uint64
	if snap != nil {
		last = snap.JournalSeq
		s.installSnapshotLocked(snap, sinkFor, &res)
	}
	sorted := slices.Clone(records)
	slices.SortStableFunc(sorted, func(a, b JournalRecord) int { return cmp.Compare(a.Seq, b.Seq) })
	for i := range sorted {
		rec := &sorted[i]
		if rec.Seq <= last {
			res.Skipped++
			continue
		}
		if s.applyRecord(rec, sinkFor) {
			res.Applied++
		} else {
			res.Skipped++
		}
		last = rec.Seq
	}
	s.jseq.Store(last)
	return res
}

// skipReplayConfig is the configuration both replays run under.
func skipReplayConfig() ServerConfig {
	cfg := journaledConfig(nil)
	cfg.FairnessWindow = 3 * time.Minute
	return cfg
}

// checkSkipMatchesPlain replays snap and records both ways, each on its
// own copy, and requires the same state and the same counts. It returns
// how many records the skip left out of the store.
func checkSkipMatchesPlain(t *testing.T, label string, snap *SnapshotState, records []JournalRecord) int {
	t.Helper()
	copySnap := func() *SnapshotState {
		if snap == nil {
			return nil
		}
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		out := new(SnapshotState)
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fast, err := NewServer(skipReplayConfig(), &recordingDispatcher{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewServer(skipReplayConfig(), &recordingDispatcher{})
	if err != nil {
		t.Fatal(err)
	}
	recs := jsonRoundTrip(t, records)
	var last uint64
	if snap != nil {
		last = snap.JournalSeq
	}
	order := make([]int32, len(recs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(recs[a].Seq, recs[b].Seq) })
	skipped := 0
	for _, s := range superseded(recs, order, last) {
		if s {
			skipped++
		}
	}
	got, err := fast.Recover(copySnap(), recs, func(TaskID) DataSink { return nopSink })
	if err != nil {
		t.Fatalf("%s: Recover: %v", label, err)
	}
	want := plainRecover(plain, copySnap(), jsonRoundTrip(t, records))
	if got != want {
		t.Errorf("%s: Recover counted %+v, the plain replay %+v", label, got, want)
	}
	if a, b := fast.Snapshot(), plain.Snapshot(); !reflect.DeepEqual(a, b) {
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		t.Fatalf("%s: Recover and the plain replay differ\nskip:  %s\nplain: %s", label, ja, jb)
	}
	return skipped
}

// skipRun is one seeded sharded run: flappers crossing the boundary of
// two regions, static devices, a task per region answered in part, and
// prefs, energy, dispatch failures, re-registrations and deregistrations
// in between. It returns each shard's journal and each shard's snapshot
// taken part-way.
func skipRun(t *testing.T, seed int64) ([][]JournalRecord, []*SnapshotState) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	west, east := geo.Point{Lat: 40.0, Lon: -86.95}, geo.Point{Lat: 40.0, Lon: -86.85}
	regions := []Region{
		{Name: "west", Area: geo.Circle{Center: west, RadiusM: 4500}},
		{Name: "east", Area: geo.Circle{Center: east, RadiusM: 4500}},
	}
	journals := []*memJournal{{}, {}}
	var mu sync.Mutex
	var dispatched []flapDispatch
	disp := DispatcherFunc(func(req Request, dev DeviceState) {
		mu.Lock()
		dispatched = append(dispatched, flapDispatch{req.ID(), dev.ID})
		mu.Unlock()
	})
	cfg := skipReplayConfig()
	cfg.ValidateRegion = false
	cfg.ShardJournal = func(region string) JournalSink {
		if region == "west" {
			return journals[0]
		}
		return journals[1]
	}
	ss, err := NewShardedServer(cfg, disp, regions)
	if err != nil {
		t.Fatal(err)
	}
	const ticks, tick = 40, 15 * time.Second
	for _, r := range regions {
		tk := Task{
			Sensor: sensors.Barometer, SamplingPeriod: 2 * tick, Start: simclock.Epoch,
			End: simclock.Epoch.Add(ticks * tick), SpatialDensity: 3,
			Area: geo.Circle{Center: r.Area.Center, RadiusM: 4500},
		}
		if _, err := ss.SubmitTask(tk, simclock.Epoch, nopSink); err != nil {
			t.Fatal(err)
		}
	}
	var models []mobility.Model
	var ids []string
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("dev-%02d", i)
		var m mobility.Model = mobility.Stationary{P: geo.Offset([]geo.Point{west, east}[i%2], 300*rng.Float64(), 300*rng.Float64())}
		if i < 16 {
			m = mobility.NewPingPong(west, east, simclock.Epoch, time.Duration(2+rng.Intn(4))*tick, seed*100+int64(i))
		}
		d := freshDevice(id)
		d.Position = m.PositionAt(simclock.Epoch)
		if err := ss.RegisterDevice(d); err != nil {
			t.Fatal(err)
		}
		models, ids = append(models, m), append(ids, id)
	}
	var snaps []*SnapshotState
	cut := 5 + rng.Intn(ticks-10)
	now := simclock.Epoch
	for k := 0; k < ticks; k++ {
		now = now.Add(tick)
		for i, id := range ids {
			if rng.Intn(3) > 0 {
				_ = ss.UpdateDeviceState(id, models[i].PositionAt(now), 20+80*rng.Float64(), now)
			}
		}
		ss.ProcessDue(now)
		mu.Lock()
		open := dispatched
		dispatched = nil
		mu.Unlock()
		slices.SortFunc(open, func(a, b flapDispatch) int {
			return cmp.Or(cmp.Compare(a.reqID, b.reqID), cmp.Compare(a.devID, b.devID))
		})
		for _, p := range open {
			switch r := rng.Float64(); {
			case r < 0.6:
				reading := sensors.Reading{Sensor: sensors.Barometer, Value: 1013 + rng.NormFloat64(), Unit: "hPa", At: now, Where: west}
				_ = ss.ReceiveData(p.reqID, p.devID, reading, now)
			case r < 0.7:
				ss.NoteDispatchFailure(p.reqID, p.devID)
			} // else the upload misses its deadline
		}
		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(5) {
		case 0:
			_ = ss.UpdateDevicePrefs(id, power.Budget{TotalJ: 100 + 200*rng.Float64(), CriticalBatteryPct: 15})
		case 1:
			ss.NoteDeviceEnergy(id, rng.Float64())
		case 2:
			ss.DeregisterDevice(id)
		case 3: // a re-registration, at the device's current position
			d := freshDevice(id)
			d.Position = models[slices.Index(ids, id)].PositionAt(now)
			_ = ss.RegisterDevice(d)
		}
		if k == cut {
			for i := range regions {
				sh, _, _ := ss.Shard(i)
				snap := sh.Snapshot()
				snaps = append(snaps, &snap)
			}
		}
	}
	return [][]JournalRecord{journals[0].records(), journals[1].records()}, snaps
}

// namingRecord is a record naming device d, of a kind chosen by rng:
// the ops that read or write one device's entry, valid or not, the ops
// that replace or remove it, and device records replay refuses.
func namingRecord(rng *rand.Rand, d DeviceState) JournalRecord {
	bogus := &RequestRef{TaskID: "ghost", Seq: 0}
	switch rng.Intn(12) {
	case 0:
		return JournalRecord{Op: opPrefs, DeviceID: d.ID, Budget: &power.Budget{TotalJ: 50 + rng.Float64(), CriticalBatteryPct: 10}}
	case 1:
		return JournalRecord{Op: opEnergy, DeviceID: d.ID, Joules: rng.Float64()}
	case 2:
		return JournalRecord{Op: opOutcome, DeviceID: d.ID, Outcome: int(reputation.OutcomeMissed)}
	case 3:
		return JournalRecord{Op: opDispatch, Req: bogus, Devices: []string{"dev-none", d.ID}}
	case 4:
		return JournalRecord{Op: opReceive, ReqID: "ghost#0", DeviceID: d.ID, Value: 1}
	case 5:
		return JournalRecord{Op: opMiss, ReqID: "ghost#0", DeviceID: d.ID}
	case 6:
		return JournalRecord{Op: opDeregister, DeviceID: d.ID}
	case 7:
		d.BatteryPct = rng.Float64() * 100
		d.TimesUsed = rng.Intn(3)
		return JournalRecord{Op: opRestore, Device: &d}
	case 8: // refused: a position off the globe
		d.Position.Lat = 200
		return JournalRecord{Op: []string{opRegister, opRestore}[rng.Intn(2)], Device: &d}
	case 9: // refused: a negative energy
		d.EnergySpentJ = -1
		return JournalRecord{Op: opRestore, Device: &d}
	case 10:
		return JournalRecord{Op: opResetWindow, At: simclock.Epoch.Add(time.Duration(rng.Intn(600)) * time.Second)}
	default: // a register naming the device only in its DeviceID
		other := freshDevice("dev-other")
		return JournalRecord{Op: opRegister, DeviceID: d.ID, Device: &other}
	}
}

// perturb turns a live journal into a hostile one: records naming a
// device inserted after its register and restore records, records with
// no device or an empty one, the whole renumbered, a tail of the
// previous epoch repeated, and the order shuffled. The snapshot's cut
// moves with the renumbering.
func perturb(rng *rand.Rand, recs []JournalRecord, snap *SnapshotState) ([]JournalRecord, *SnapshotState) {
	slices.SortStableFunc(recs, func(a, b JournalRecord) int { return cmp.Compare(a.Seq, b.Seq) })
	var out []JournalRecord
	var cut uint64
	for _, r := range recs {
		out = append(out, r)
		if snap != nil && r.Seq <= snap.JournalSeq {
			cut = uint64(len(out))
		}
		if r.Device != nil && rng.Intn(3) == 0 {
			out = append(out, namingRecord(rng, *r.Device))
		}
		switch rng.Intn(40) {
		case 0:
			out = append(out, JournalRecord{Op: opRestore})
		case 1:
			out = append(out, JournalRecord{Op: opDeregister})
		case 2:
			out = append(out, JournalRecord{Op: opRegister, Device: &DeviceState{}})
		}
	}
	for i := range out {
		out[i].Seq = uint64(i + 1)
	}
	if snap != nil {
		moved := *snap
		moved.JournalSeq = cut
		snap = &moved
	}
	if n := len(out); n > 0 {
		from := rng.Intn(n)
		out = append(out, out[from:min(n, from+1+rng.Intn(30))]...)
	}
	if rng.Intn(4) > 0 {
		rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	}
	return out, snap
}

func TestRecoverSkipMatchesPlainReplay(t *testing.T) {
	skipped := 0
	for seed := int64(1); seed <= 8; seed++ {
		journals, snaps := skipRun(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for i, recs := range journals {
			label := fmt.Sprintf("seed %d shard %d", seed, i)
			skipped += checkSkipMatchesPlain(t, label+" as journaled", nil, recs)
			skipped += checkSkipMatchesPlain(t, label+" from its snapshot", snaps[i], recs)
			for trial := 0; trial < 6; trial++ {
				var snap *SnapshotState
				if trial%2 == 1 {
					snap = snaps[i]
				}
				hostile, moved := perturb(rng, slices.Clone(recs), snap)
				skipped += checkSkipMatchesPlain(t, fmt.Sprintf("%s trial %d", label, trial), moved, hostile)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no record was superseded: the comparison is vacuous")
	}
}
