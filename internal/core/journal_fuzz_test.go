package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"senseaid/internal/reputation"
	"senseaid/internal/simclock"
)

// FuzzRecoverFromJournal feeds arbitrary JSON through the journal-record
// decode + replay path: whatever bytes end up in a journal file (torn
// writes survive the persist layer's CRC only by forging it, hand edits
// don't), Recover must never panic, must reach the state and counts the
// record-by-record replay reaches, and must leave the server usable.
func FuzzRecoverFromJournal(f *testing.F) {
	seed := func(recs ...JournalRecord) []byte {
		var out []byte
		for _, r := range recs {
			b, _ := json.Marshal(r)
			out = append(out, b...)
			out = append(out, '\n')
		}
		return out
	}
	task := validTask()
	task.ID = "task-1"
	dev := freshDevice("dev-a")
	f.Add(seed(
		JournalRecord{Seq: 1, Op: opRegister, Device: &dev},
		JournalRecord{Seq: 2, Op: opSubmit, Task: &task, NextTask: 1},
		JournalRecord{Seq: 3, Op: opDispatch, Req: &RequestRef{TaskID: "task-1", Due: task.Start, Deadline: task.End}, Devices: []string{"dev-a"}},
		JournalRecord{Seq: 4, Op: opReceive, ReqID: "task-1#0", DeviceID: "dev-a", Value: 3},
	))
	f.Add(seed(JournalRecord{Seq: 1, Op: opOutcome, DeviceID: "dev-a", Outcome: -1}))
	f.Add([]byte(`{"n":1,"op":"submit","task":{"id":"x"}}` + "\n" + `garbage`))
	f.Add([]byte(`{"n":18446744073709551615,"op":"reset_window"}`))
	moved := dev
	moved.Position.Lat += 0.01
	f.Add(seed(
		JournalRecord{Seq: 1, Op: opRegister, Device: &dev},
		JournalRecord{Seq: 2, Op: opPrefs, DeviceID: "dev-a", Budget: &dev.Budget},
		JournalRecord{Seq: 3, Op: opRestore, Device: &moved},
		JournalRecord{Seq: 5, Op: opDeregister, DeviceID: "dev-a"},
		JournalRecord{Seq: 4, Op: opResetWindow},
		JournalRecord{Seq: 3, Op: opDeregister, DeviceID: "dev-a"},
		JournalRecord{Seq: 6, Op: opRestore, Device: &dev},
		JournalRecord{Seq: 7, Op: opRegister, Device: &DeviceState{ID: "dev-a"}},
		JournalRecord{Seq: 8, Op: opEnergy, DeviceID: "dev-a", Joules: 1},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func() []JournalRecord {
			var recs []JournalRecord
			dec := json.NewDecoder(bytes.NewReader(data))
			for {
				var r JournalRecord
				if err := dec.Decode(&r); err != nil {
					return recs
				}
				recs = append(recs, r)
			}
		}
		newServer := func() *Server {
			cfg := DefaultServerConfig()
			cfg.Reputation = reputation.NewTracker(reputation.Config{})
			s, err := NewServer(cfg, &recordingDispatcher{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s, plain := newServer(), newServer()
		res, err := s.Recover(nil, decode(), func(TaskID) DataSink { return nopSink })
		if err != nil {
			return // refusal is fine; panics are not
		}
		if want := plainRecover(plain, nil, decode()); res != want {
			t.Fatalf("Recover counted %+v, the record-by-record replay %+v", res, want)
		}
		if got, want := s.Snapshot(), plain.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Recover and the record-by-record replay differ\nskip:  %+v\nplain: %+v", got, want)
		}
		// Whatever replayed, the server must still schedule and snapshot.
		s.ProcessDue(simclock.Epoch.Add(time.Hour))
		snap := s.Snapshot()
		if blob, err := json.Marshal(snap); err != nil {
			t.Fatalf("post-recovery snapshot does not marshal: %v", err)
		} else if len(blob) == 0 {
			t.Fatal("empty snapshot")
		}
	})
}
