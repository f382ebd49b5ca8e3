package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// hotSeedRecords is one clean record per op the steady state writes:
// each must take the hand parser and come back exactly.
func hotSeedRecords() []JournalRecord {
	dev := freshDevice("dev-a")
	dev.LastComm = simclock.Epoch.Add(1234567 * time.Microsecond)
	dev.DeviceType = "Pixel 7"
	empty := freshDevice("dev-empty")
	empty.Sensors = []sensors.Type{}
	empty.Responsive = false
	bare := freshDevice("dev-\u00e7a-va") // valid UTF-8 needs no escape
	bare.Sensors = nil
	ref := &RequestRef{TaskID: "west/task-1", Seq: 3, Due: simclock.Epoch, Deadline: simclock.Epoch.Add(10 * time.Minute)}
	budget := power.Budget{TotalJ: 250.5}
	return []JournalRecord{
		{Seq: 3, Op: opDeleteTask, TaskID: "west/task-1"},
		{Seq: 4, Op: opRegister, Device: &dev},
		{Seq: 5, Op: opRestore, Device: &empty},
		{Seq: 6, Op: opRegister, Device: &bare},
		{Seq: 7, Op: opDeregister, DeviceID: "dev-a"},
		{Seq: 8, Op: opPrefs, DeviceID: "dev-a", Budget: &budget},
		{Seq: 9, Op: opEnergy, DeviceID: "dev-a", Joules: 0.30000000000000004},
		{Seq: 10, Op: opDispatch, At: simclock.Epoch, Req: ref, Devices: []string{"dev-a", "dev-b", "dev-c"}},
		{Seq: 11, Op: opWaitlist, Req: ref},
		{Seq: 12, Op: opReqExpired, Req: ref, From: "wait"},
		{Seq: 13, Op: opMiss, ReqID: "west/task-1#3", DeviceID: "dev-a"},
		{Seq: 14, Op: opDispatchFail, ReqID: "west/task-1#3", DeviceID: "dev-a"},
		{Seq: 15, Op: opReceive, ReqID: "west/task-1#3", DeviceID: "dev-a", Value: 1013.25},
		{Seq: 16, Op: opReceive, ReqID: "west/task-1#3", DeviceID: "dev-a", Value: -1e-7},
		{Seq: 17, Op: opReject, ReqID: "west/task-1#3", DeviceID: "dev-a"},
		{Seq: 18, Op: opOutcome, DeviceID: "dev-a", Outcome: -1},
		{Seq: 19, Op: opResetWindow, At: simclock.Epoch.Add(time.Nanosecond)},
		{Seq: 999999999999999999, Op: "an op nobody wrote"},
		{},
	}
}

// hostileSeedRecords is the cold ops plus the shapes two encoders
// disagree on first when they disagree at all: strings that need every
// kind of escaping, floats at the notation cut-offs, negative zero, an
// empty but present slice, zoned times, and a time still carrying its
// monotonic reading.
func hostileSeedRecords() []JournalRecord {
	task := validTask()
	task.ID = "west/task-1"
	task.ClientID = "cas <1> & \"co\""
	hostile := freshDevice("d\x00\x1f\x7f<>&\"\\\b\f\n\r\t\u00e9\u2028\u2029\xff\xc0\xaf\U0001F4F1")
	hostile.DeviceType = "\xed\xa0\x80 a surrogate half, in bytes"
	hostile.Position = geo.Point{Lat: -0.0000001, Lon: 179.99999999999997}
	hostile.BatteryPct = 1e-6
	hostile.EnergySpentJ = 999999999999999900000
	hostile.Reliability = math.Copysign(0, -1)
	hostile.Budget = power.Budget{TotalJ: 1e21, CriticalBatteryPct: 5e-324}
	hostile.LastComm = time.Date(2017, 12, 11, 9, 0, 0, 1, time.FixedZone("", -(5*3600+30*60)))
	ref := &RequestRef{TaskID: "west/<task>", Seq: -3, Due: simclock.Epoch.In(time.FixedZone("CET", 3600))}
	// Either side of every edge of the float writer's integer path.
	var edges []JournalRecord
	for _, f := range []float64{
		math.Copysign(0, -1), 0, 100, -100, 0.5, -0.5, 1e15, 1e21, -1e21,
		1 << 53, -(1 << 53), 1<<53 - 1, -(1<<53 - 1), 1<<53 + 2, 1 << 63, -(1 << 63), math.MaxFloat64,
	} {
		edges = append(edges, JournalRecord{Seq: 20, Op: opReceive, ReqID: "t#0", DeviceID: "dev-a", Value: f, Joules: -f})
	}
	return append(edges, []JournalRecord{
		{Seq: 1, Op: opSubmit, At: simclock.Epoch, Task: &task, NextTask: 1},
		{Seq: 2, Op: opUpdateTask, Task: &task},
		{Seq: 5, Op: opRestore, Device: &hostile},
		{Seq: 10, Op: opDispatch, At: simclock.Epoch, Req: ref, Devices: []string{"dev <b>", "\"", ""}},
		{Seq: math.MaxUint64, Op: "\\", At: time.Now(), Devices: []string{}, Joules: math.Copysign(0, -1)},
	}...)
}

func codecSeedRecords() []JournalRecord {
	return append(hotSeedRecords(), hostileSeedRecords()...)
}

// oracleJSON is encoding/json's encoding of a record: the format.
func oracleJSON(r JournalRecord) ([]byte, error) {
	return json.Marshal((*journalRecordPlain)(&r))
}

// checkEncode holds AppendJSON to the oracle for one record and returns
// the encoding (nil when both refuse).
func checkEncode(t *testing.T, r JournalRecord) []byte {
	t.Helper()
	want, wantErr := oracleJSON(r)
	prefix := []byte("kept")
	got, err := r.AppendJSON(prefix)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON error = %v, encoding/json error = %v\nrecord: %+v", err, wantErr, r)
	}
	if err != nil {
		if string(got) != "kept" {
			t.Fatalf("AppendJSON returned %q beside its error, want dst unchanged", got)
		}
		return nil
	}
	if !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "kept" {
		t.Fatalf("AppendJSON diverges from encoding/json\noracle: %s\ncodec:  %s", want, got)
	}
	if viaMarshal, err := json.Marshal(r); err != nil || !bytes.Equal(viaMarshal, want) {
		t.Fatalf("json.Marshal(record) = %s, %v\nwant %s", viaMarshal, err, want)
	}
	return want
}

// checkDecode holds both ways into UnmarshalJSON (through json.Unmarshal,
// which validates first, and called directly) to the oracle for one
// input, valid JSON or not, and returns the decoded record.
func checkDecode(t *testing.T, data []byte) (JournalRecord, bool) {
	t.Helper()
	var want journalRecordPlain
	wantErr := json.Unmarshal(data, &want)
	var got, direct JournalRecord
	err := json.Unmarshal(data, &got)
	directErr := direct.UnmarshalJSON(data)
	if (err != nil) != (wantErr != nil) || (directErr != nil) != (wantErr != nil) {
		t.Fatalf("decode errors differ: json.Unmarshal %v, UnmarshalJSON %v, oracle %v\ninput: %q", err, directErr, wantErr, data)
	}
	if !reflect.DeepEqual(got, JournalRecord(want)) || !reflect.DeepEqual(direct, JournalRecord(want)) {
		t.Fatalf("decode diverges from encoding/json\ninput:  %q\noracle: %+v\ncodec:  %+v\ndirect: %+v", data, want, got, direct)
	}
	return got, err == nil
}

// checkRoundTrip takes a record through encode and decode twice, both
// directions held to the oracle each time. The first trip may lose what
// JSON cannot carry (invalid UTF-8 becomes U+FFFD, an empty slice under
// omitempty becomes nil); the second must lose nothing.
func checkRoundTrip(t *testing.T, r JournalRecord) {
	t.Helper()
	enc := checkEncode(t, r)
	if enc == nil {
		return
	}
	once, ok := checkDecode(t, enc)
	if !ok {
		t.Fatalf("own encoding does not decode: %s", enc)
	}
	twice, _ := checkDecode(t, checkEncode(t, once))
	if !reflect.DeepEqual(twice, once) {
		t.Fatalf("second round trip changed the record\nonce:  %+v\ntwice: %+v", once, twice)
	}
}

func TestJournalRecordCodecRoundTrip(t *testing.T) {
	for _, r := range hotSeedRecords() {
		enc := checkEncode(t, r)
		if !(&jsonCursor{b: enc}).record(new(JournalRecord)) {
			t.Errorf("canonical record fell off the fast path: %s", enc)
		}
		if back, _ := checkDecode(t, enc); !reflect.DeepEqual(back, r) {
			t.Errorf("decode(encode(r)) != r\nr:    %+v\nback: %+v", r, back)
		}
	}
	for _, r := range hostileSeedRecords() {
		checkRoundTrip(t, r)
	}
}

// A value encoding/json refuses is refused, not written.
func TestJournalRecordCodecRefusals(t *testing.T) {
	dev := freshDevice("dev-a")
	dev.BatteryPct = math.NaN()
	far := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	zone := time.Date(2017, 1, 1, 0, 0, 0, 0, time.FixedZone("", 25*3600))
	for _, r := range []JournalRecord{
		{Op: opReceive, Value: math.Inf(1)},
		{Op: opEnergy, Joules: math.NaN()},
		{Op: opRegister, Device: &dev},
		{Op: opResetWindow, At: far},
		{Op: opResetWindow, At: zone},
		{Op: opWaitlist, Req: &RequestRef{Due: far}},
	} {
		if enc := checkEncode(t, r); enc != nil {
			t.Errorf("encoded %s, want a refusal", enc)
		}
	}
}

// Decoding into a record that already holds data keeps encoding/json's
// merge semantics: absent keys leave fields alone.
func TestJournalRecordDecodeMerges(t *testing.T) {
	in := []byte(`{"n":7,"op":"energy","at":"0001-01-01T00:00:00Z","device_id":"dev-a","joules":2.5}`)
	got := JournalRecord{ReqID: "kept", Devices: []string{"x"}}
	want := journalRecordPlain(got)
	if err := json.Unmarshal(in, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(in, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, JournalRecord(want)) || got.ReqID != "kept" {
		t.Errorf("merge decode = %+v, want %+v", got, want)
	}
}

// FuzzJournalRecordCodec holds the hand codec to encoding/json, which
// defines the format, on whatever the fuzzer makes of the seeds: any
// input decodes (or fails to) exactly as the method-less alias does, and
// any record that came out of a decode encodes byte-for-byte as the
// alias does and survives the round trip.
func FuzzJournalRecordCodec(f *testing.F) {
	for _, r := range codecSeedRecords() {
		if b, err := oracleJSON(r); err == nil {
			f.Add(b)
		}
	}
	for _, s := range []string{
		`{"n":1,"op":"receive","at":"0001-01-01T00:00:00Z","device_id":"d","req_id":"t#0","value":1e3}`,
		`{"n":01,"op":"receive","at":"0001-01-01T00:00:00Z"}`,
		`{"n":1,"op":"receive","at":"0001-01-01T00:00:00Z","value":-0}`,
		`{"n":1,"op":"receive","at":"0001-01-01T00:00:00Z","value":9007199254740992,"joules":-9007199254740992}`,
		`{"n":1,"op":"receive","at":"0001-01-01T00:00:00Z","value":9007199254740991,"joules":1e15}`,
		`{"n":1,"op":"receive","at":"0001-01-01T00:00:00Z","value":1e21,"joules":100}`,
		`{"n":1,"op":"energy","at":"0001-01-01T00:00:00Z","joules":0.5}`,
		`{"n":1,"op":"receive","at":"0001-01-01T00:00:00Z","value":1E400}`,
		`{"n":1,"op":"energy","at":null,"joules":0.1e-2,"joules":7}`,
		`{"n":1.0,"op":"outcome","at":"2017-12-11T09:00:00+24:00","outcome":-0}`,
		`{"N":1,"OP":"x","at":"2017-12-11T09:00:00.5Z","Device_ID":"folded"}`,
		` {"n":1,"op":"x","at":"0001-01-01T00:00:00Z"} `,
		`{"n":1,"op":"x","at":"0001-01-01T00:00:00Z","unknown":[1,{"a":null}],"devices":[]}`,
		`{"n":1,"op":"dispatch","at":"0001-01-01T00:00:00Z","devices":["a","b\\u0041","c]\\"d"],"req":null}`,
		`{"n":1,"op":"register","at":"0001-01-01T00:00:00Z","device":{"id":"a","position":{"lat":1,"lon":2},"battery_pct":3,"energy_spent_j":4,"times_used":5,"last_comm":"0001-01-01T00:00:00Z","sensors":[1,2],"budget":{"totalj":1,"CriticalBatteryPct":2},"responsive":true,"reliability":1}}`,
		`{"n":18446744073709551615,"op":"reset_window","at":"9999-12-31T23:59:59.999999999Z"}`,
		`{"n":1,"op":"x","at":"0001-01-01T00:00:00Z"}trailing`,
		`null`, `[]`, `{`, ``, "{\"n\":1,\"op\":\"\xff\",\"at\":\"0001-01-01T00:00:00Z\"}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, ok := checkDecode(t, data); ok {
			checkRoundTrip(t, rec)
		}
	})
}
