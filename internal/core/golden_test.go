package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/persist"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// The journal's bytes are a compatibility surface: state directories
// written before JournalRecord had its own codec must replay, and what
// the codec writes must replay through encoding/json. testdata/golden
// holds one store ("core": a snapshot taken mid-run, the journal epoch
// before it and the one after) and final.json, the live server's
// SnapshotState when the run ended. They were written by commit 56ca288,
// the last one whose journal went through encoding/json in both
// directions, by running this file's scenario there with
// SENSEAID_WRITE_GOLDEN=<dir>. Do not regenerate them from a later
// commit: that they predate the hand codec is the point.

// storeSink journals into a persist.Store, as the daemons do.
type storeSink struct {
	t  *testing.T
	st *persist.Store
}

func (s storeSink) Append(rec JournalRecord) {
	if err := s.st.Append(rec); err != nil {
		s.t.Errorf("journal append: %v", err)
	}
}

// goldenScenario drives one journaled server through every op of the
// grammar, with strings that need each kind of escaping, floats in both
// notations, nil and empty sensor lists, and zero and non-zero times.
// commit is called once, part-way, for the caller to snapshot and rotate.
func goldenScenario(t *testing.T, s *Server, commit func()) {
	t.Helper()
	at := func(min int) time.Time { return simclock.Epoch.Add(time.Duration(min) * time.Minute) }
	reading := func(when time.Time, v float64) sensors.Reading {
		return sensors.Reading{Sensor: sensors.Barometer, At: when, Where: geo.CSDepartment, Value: v}
	}
	registerJournaled(t, s, "dev-a", "dev-b", "dev-c")
	odd := freshDevice("dev <d>&\"\\\t\u00e9\u2028")
	odd.DeviceType = "Pixel <7> & \"co\"\u2029"
	odd.Position = geo.Offset(geo.CSDepartment, 120.5, -0.25)
	odd.BatteryPct = 1e-7
	odd.Budget = power.Budget{TotalJ: 1e21, CriticalBatteryPct: 12.5}
	bare := freshDevice("dev-nil-sensors")
	bare.Sensors = nil
	empty := freshDevice("dev-empty-sensors")
	empty.Sensors = []sensors.Type{}
	empty.Reliability = 0.25
	for _, d := range []DeviceState{odd, bare, empty} {
		if err := s.RegisterDevice(d); err != nil {
			t.Fatalf("RegisterDevice(%q): %v", d.ID, err)
		}
	}

	tk := validTask()
	tk.ClientID = "cas-1/<campaign>&\u00e9"
	tk.TraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	id, err := s.SubmitTask(tk, at(0), nopSink)
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	wide := validTask() // density beyond the fleet: waitlists, then expires
	wide.SpatialDensity = 9
	wideID, err := s.SubmitTask(wide, at(0), nopSink)
	if err != nil {
		t.Fatalf("SubmitTask(wide): %v", err)
	}
	s.ProcessDue(at(0))
	selected := func(seq int) []string {
		var devs []string
		for _, p := range s.Snapshot().Pending {
			if p.Req.TaskID == id && p.Req.Seq == seq {
				devs = append(devs, p.DeviceID)
			}
		}
		if len(devs) == 0 {
			t.Fatalf("round #%d dispatched to no devices", seq)
		}
		return devs
	}
	req0 := string(id) + "#0"
	for i, dev := range selected(0) {
		if err := s.ReceiveData(req0, dev, reading(at(0), 1013.25+0.1*float64(i)), at(0)); err != nil {
			t.Fatalf("ReceiveData(%s): %v", dev, err)
		}
	}
	_ = s.ReceiveData(req0, "dev-nil-sensors", reading(at(0), 1013), at(0)) // unsolicited: a reject
	if err := s.UpdateDevicePrefs("dev-c", power.Budget{TotalJ: 250.5, CriticalBatteryPct: 0}); err != nil {
		t.Fatalf("UpdateDevicePrefs: %v", err)
	}
	s.NoteDeviceEnergy("dev-a", 2.5)
	s.NoteDeviceEnergy("dev-b", 1e-7)

	commit()

	s.ProcessDue(at(10))
	req1 := string(id) + "#1"
	s.NoteDispatchFailure(req1, selected(1)[0])
	s.ProcessDue(at(25)) // round #1's other device misses; round #2 dispatches; wide's first request expires
	rec, err := s.ExportDevice("dev-c")
	if err != nil {
		t.Fatalf("ExportDevice: %v", err)
	}
	rec.Position = geo.Offset(geo.CSDepartment, -40, 75)
	rec.LastComm = at(26).Add(123456789 * time.Nanosecond)
	if err := s.RestoreDevice(rec); err != nil {
		t.Fatalf("RestoreDevice: %v", err)
	}
	if err := s.UpdateTaskParams(id, at(27), func(t *Task) { t.SpatialDensity = 1 }); err != nil {
		t.Fatalf("UpdateTaskParams: %v", err)
	}
	s.ProcessDue(at(35)) // past the fairness window: reset_window
	if err := s.DeleteTask(wideID); err != nil {
		t.Fatalf("DeleteTask: %v", err)
	}
	s.DeregisterDevice("dev-b")
}

func goldenConfig(j JournalSink) ServerConfig {
	cfg := journaledConfig(j)
	cfg.FairnessWindow = 30 * time.Minute
	return cfg
}

// runGolden runs the scenario against a store in dir and returns the
// live server's final snapshot as JSON.
func runGolden(t *testing.T, dir string) []byte {
	t.Helper()
	st, err := persist.Open(dir, "core")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	live, err := NewServer(goldenConfig(storeSink{t, st}), &recordingDispatcher{})
	if err != nil {
		t.Fatal(err)
	}
	commit := func() {
		if _, err := st.Commit(live.Snapshot()); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	commit() // opens the first journal epoch
	goldenScenario(t, live, commit)
	final, err := json.Marshal(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// recoverGolden loads dir's store and replays it into a fresh server,
// decoding each record with decode; it returns the recovered server's
// snapshot as JSON and the raw records.
func recoverGolden(t *testing.T, dir string, decode func(raw []byte, rec *JournalRecord) error) ([]byte, []json.RawMessage) {
	t.Helper()
	st, err := persist.Open(dir, "core")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if res.TruncatedBytes != 0 {
		t.Fatalf("Load discarded %d journal bytes", res.TruncatedBytes)
	}
	var snap SnapshotState
	if err := json.Unmarshal(res.Snapshot, &snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	recs := make([]JournalRecord, len(res.Records))
	for i, raw := range res.Records {
		if err := decode(raw, &recs[i]); err != nil {
			t.Fatalf("record %d %s: %v", i, raw, err)
		}
	}
	restored, err := NewServer(goldenConfig(nil), &recordingDispatcher{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Recover(&snap, recs, func(TaskID) DataSink { return nopSink }); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	got, err := json.Marshal(restored.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return got, res.Records
}

func decodeJournalJSON(raw []byte, rec *JournalRecord) error { return json.Unmarshal(raw, rec) }

func TestGoldenJournalFromParentRecovers(t *testing.T) {
	if dir := os.Getenv("SENSEAID_WRITE_GOLDEN"); dir != "" {
		final := runGolden(t, dir)
		if got, _ := recoverGolden(t, dir, decodeJournalJSON); !bytes.Equal(got, final) {
			t.Fatalf("scenario does not recover to its own live state\nlive:      %s\nrecovered: %s", final, got)
		}
		if err := os.WriteFile(filepath.Join(dir, "final.json"), final, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	// Work on a copy: opening a store must never be able to touch the fixture.
	dir := t.TempDir()
	names, err := filepath.Glob("testdata/golden/core.*")
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture under testdata/golden (%v)", err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/golden/final.json")
	if err != nil {
		t.Fatal(err)
	}
	got, raws := recoverGolden(t, dir, decodeJournalJSON)
	if !bytes.Equal(got, want) {
		t.Errorf("golden state recovers differently\nwant: %s\ngot:  %s", want, got)
	}

	// Record by record: the hand parser reads what encoding/json reads,
	// and the hand encoder writes back the bytes the parent wrote.
	ops := make(map[string]bool)
	for i, raw := range raws {
		var fast JournalRecord
		var oracle journalRecordPlain
		if err := json.Unmarshal(raw, &fast); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if err := json.Unmarshal(raw, &oracle); err != nil {
			t.Fatalf("record %d (oracle): %v", i, err)
		}
		if !reflect.DeepEqual(fast, JournalRecord(oracle)) {
			t.Errorf("record %d decodes differently\nraw:    %s\nfast:   %+v\noracle: %+v", i, raw, fast, oracle)
		}
		// Everything but a Task or an escaped string is the parser's own.
		if fast.Task == nil && !bytes.ContainsRune(raw, '\\') && !(&jsonCursor{b: raw}).record(new(JournalRecord)) {
			t.Errorf("record %d fell off the fast path: %s", i, raw)
		}
		again, err := fast.AppendJSON(nil)
		if err != nil || !bytes.Equal(again, raw) {
			t.Errorf("record %d re-encodes differently (%v)\nparent: %s\nchange: %s", i, err, raw, again)
		}
		ops[fast.Op] = true
	}
	for _, op := range []string{opSubmit, opUpdateTask, opDeleteTask, opRegister, opRestore, opDeregister,
		opPrefs, opEnergy, opDispatch, opWaitlist, opReqExpired, opMiss, opDispatchFail, opReceive,
		opReject, opOutcome, opResetWindow} {
		if !ops[op] {
			t.Errorf("fixture holds no %q record", op)
		}
	}
}

// The other direction: a journal written through the hand encoder (and
// persist's self-encoding append) replays through encoding/json alone to
// the state the live server reached.
func TestJournalWrittenByCodecReplaysThroughOracle(t *testing.T) {
	dir := t.TempDir()
	want := runGolden(t, dir)
	got, _ := recoverGolden(t, dir, func(raw []byte, rec *JournalRecord) error {
		return json.Unmarshal(raw, (*journalRecordPlain)(rec))
	})
	if !bytes.Equal(got, want) {
		t.Errorf("oracle replay diverges from the live server\nlive:   %s\noracle: %s", want, got)
	}
}
