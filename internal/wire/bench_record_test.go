package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/gitstamp"
	"senseaid/internal/sensors"
)

// benchSchedule and benchUpload are the two hot frame shapes on the
// wire: the server's per-request dispatch and the device's reading
// upload (with trace context, as the production path carries it).
func benchSchedule() Schedule {
	return Schedule{
		RequestID: "task-42#7",
		TaskID:    "task-42",
		Sensor:    sensors.Barometer,
		Due:       time.Unix(1754699990, 0).UTC(),
		Deadline:  time.Unix(1754700000, 0).UTC(),
		TraceID:   "00112233445566778899aabbccddeeff",
		SpanID:    "0123456789abcdef",
	}
}

func benchUpload() SenseData {
	return SenseData{
		RequestID: "task-42#7",
		Reading: sensors.Reading{
			Sensor: sensors.Barometer,
			Value:  1013.25,
			Unit:   "hPa",
			At:     time.Unix(1754700000, 123456789).UTC(),
			Where:  geo.CSDepartment,
		},
		TraceID: "00112233445566778899aabbccddeeff",
		SpanID:  "0123456789abcdef",
	}
}

// codecRoundTrip is one full frame lifecycle: encode the payload,
// append the frame, read it back, decode the payload — both ends of
// one message as the RPC layer performs them.
func codecRoundTrip(tb testing.TB, c Codec, mt MsgType, payload interface{}, out interface{}, frame *[]byte) int {
	env, err := c.Encode(mt, 7, payload)
	if err != nil {
		tb.Fatal(err)
	}
	*frame, err = c.AppendFrame((*frame)[:0], env)
	if err != nil {
		tb.Fatal(err)
	}
	got, err := c.ReadFrame(bytes.NewReader(*frame))
	if err != nil {
		tb.Fatal(err)
	}
	if err := Decode(got, out); err != nil {
		tb.Fatal(err)
	}
	return len(*frame)
}

// BenchmarkCodecRoundTrip measures encode+frame+read+decode for the
// two hot message shapes under the binary codec and, for comparison,
// the v1 JSON framing the hello still uses.
func BenchmarkCodecRoundTrip(b *testing.B) {
	cases := []struct {
		name    string
		mt      MsgType
		payload interface{}
		out     func() interface{}
	}{
		{"schedule", TypeSchedule, benchSchedule(), func() interface{} { return &Schedule{} }},
		{"upload", TypeSenseData, benchUpload(), func() interface{} { return &SenseData{} }},
	}
	for _, codec := range []Codec{jsonV1, Binary} {
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/%s", codec.Name(), c.name), func(b *testing.B) {
				b.ReportAllocs()
				var frame []byte
				out := c.out()
				for i := 0; i < b.N; i++ {
					codecRoundTrip(b, codec, c.mt, c.payload, out, &frame)
				}
			})
		}
	}
}

// coalesceWrites pushes bursts of notify frames through a coalescer,
// each burst issued without yielding and then left to the deferred
// flusher, and returns how many write syscalls they took. One write per
// frame (burst*bursts) is what the burst would cost unbatched.
func coalesceWrites(tb testing.TB, burst, bursts int) int {
	nc := &countingConn{}
	co := NewCoalescer(nc, Binary, CoalescerConfig{})
	defer func() { _ = co.Close() }()
	env, err := Binary.Encode(TypeSchedule, 0, benchSchedule())
	if err != nil {
		tb.Fatal(err)
	}
	flushed := make(chan error, 1)
	for i := 0; i < bursts; i++ {
		for j := 0; j < burst-1; j++ {
			if err := co.Send(env, false, nil); err != nil {
				tb.Fatal(err)
			}
		}
		if err := co.Send(env, false, func(err error) { flushed <- err }); err != nil {
			tb.Fatal(err)
		}
		if err := <-flushed; err != nil {
			tb.Fatal(err)
		}
	}
	w, _ := nc.stats()
	return w
}

// bufferedReadAllocs is what reading one upload frame from a
// bufio.Reader allocates under codec c, as a session's read loop does.
func bufferedReadAllocs(tb testing.TB, c Codec) float64 {
	env, err := c.Encode(TypeSenseData, 7, benchUpload())
	if err != nil {
		tb.Fatal(err)
	}
	frame, err := c.AppendFrame(nil, env)
	if err != nil {
		tb.Fatal(err)
	}
	const runs = 100
	br := bufio.NewReader(bytes.NewReader(bytes.Repeat(frame, runs+1)))
	return testing.AllocsPerRun(runs, func() {
		if _, err := c.ReadFrame(br); err != nil {
			tb.Fatal(err)
		}
	})
}

// wireBenchRecord is one measured case in BENCH_wire.json.
type wireBenchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	FrameBytes  int     `json:"frame_bytes"`
}

// TestRecordWireBench runs the codec benchmark matrix and writes
// BENCH_wire.json so the wire-cost trajectory is recorded in CI. It is
// gated on SENSEAID_BENCH_OUT (ci.sh sets it); besides recording, it
// FAILS when the binary codec's frame is not at least 2x smaller than
// the v1 JSON framing's (jsonV1) for either hot shape, when binary
// allocates at least as much as JSON per round-trip, when coalescing stops cutting write syscalls
// by at least 2x on a notify burst, or when reading a binary or link
// frame from a buffered reader allocates anything but its body.
func TestRecordWireBench(t *testing.T) {
	out := os.Getenv("SENSEAID_BENCH_OUT")
	if out == "" {
		t.Skip("SENSEAID_BENCH_OUT not set; benchmark recording runs from ci.sh")
	}
	cases := []struct {
		name    string
		mt      MsgType
		payload interface{}
		out     func() interface{}
	}{
		{"schedule", TypeSchedule, benchSchedule(), func() interface{} { return &Schedule{} }},
		{"upload", TypeSenseData, benchUpload(), func() interface{} { return &SenseData{} }},
	}
	var records []wireBenchRecord
	byName := make(map[string]wireBenchRecord)
	for _, codec := range []Codec{jsonV1, Binary} {
		for _, c := range cases {
			name := fmt.Sprintf("%s/%s", codec.Name(), c.name)
			var frameBytes int
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				var frame []byte
				dst := c.out()
				for i := 0; i < b.N; i++ {
					frameBytes = codecRoundTrip(b, codec, c.mt, c.payload, dst, &frame)
				}
			})
			rec := wireBenchRecord{
				Name:        name,
				NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
				FrameBytes:  frameBytes,
			}
			records = append(records, rec)
			byName[name] = rec
			t.Logf("%s: %.0f ns/op, %d allocs/op, %d B/op, %d-byte frame",
				rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp, rec.FrameBytes)
		}
	}

	// Gate 1: the binary frame carries the same payload in <= half the
	// bytes — the codec's reason to exist.
	for _, c := range cases {
		j := byName["json/"+c.name]
		b := byName["binary/"+c.name]
		if b.FrameBytes*2 > j.FrameBytes {
			t.Errorf("%s: binary frame is %dB vs JSON %dB — lost the 2x size advantage",
				c.name, b.FrameBytes, j.FrameBytes)
		}
		// Gate 2: binary must also allocate less per round-trip.
		if b.AllocsPerOp >= j.AllocsPerOp {
			t.Errorf("%s: binary round-trip allocates %d/op vs JSON %d/op — no hygiene win",
				c.name, b.AllocsPerOp, j.AllocsPerOp)
		}
	}

	// Gate 3: a 32-frame notify burst issued without yielding must take
	// at most half the write syscalls of frame-per-write.
	const burst, bursts = 32, 8
	base := burst * bursts
	batched := coalesceWrites(t, burst, bursts)
	writeRatio := float64(base) / float64(batched)
	if writeRatio < 2 {
		t.Errorf("coalescing: %d writes vs %d frames (%.1fx) — want >= 2x fewer syscalls",
			batched, base, writeRatio)
	}
	t.Logf("coalescing: %d-frame bursts took %d writes for %d frames (%.1fx)",
		burst, batched, base, writeRatio)

	// Gate 4: a session's read loop pays one allocation per binary or
	// link frame, its body; the length prefix is read in place.
	readAllocs := make(map[string]float64)
	for _, c := range []Codec{Binary, Link} {
		readAllocs[c.Name()] = bufferedReadAllocs(t, c)
		if readAllocs[c.Name()] != 1 {
			t.Errorf("%s: ReadFrame on a buffered reader makes %.1f allocations, want 1 (the body)",
				c.Name(), readAllocs[c.Name()])
		}
	}
	t.Logf("buffered ReadFrame allocations per frame: %v", readAllocs)

	commit, tree := gitstamp.Stamp()
	doc := struct {
		Schema     string             `json:"schema"`
		Commit     string             `json:"commit"`
		Tree       string             `json:"tree"`
		Benchmark  string             `json:"benchmark"`
		Go         string             `json:"go"`
		RecordedAt string             `json:"recorded_at"`
		WriteRatio float64            `json:"write_syscall_ratio_uncoalesced_over_coalesced"`
		ReadAllocs map[string]float64 `json:"buffered_read_allocs_per_frame"`
		Cases      []wireBenchRecord  `json:"cases"`
	}{
		Schema:     "senseaid-bench-wire/1",
		Commit:     commit,
		Tree:       tree,
		Benchmark:  "BenchmarkCodecRoundTrip (internal/wire)",
		Go:         runtime.Version(),
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		WriteRatio: writeRatio,
		ReadAllocs: readAllocs,
		Cases:      records,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
