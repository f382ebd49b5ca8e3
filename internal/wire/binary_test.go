package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
)

// wireTime builds the times the codecs move: unix sec+nsec in UTC, the
// same normal form the binary decoder produces, so decoded values can be
// compared structurally.
func wireTime(sec int64, nsec int64) time.Time {
	return time.Unix(sec, nsec).UTC()
}

// samplePayloads covers every message type's payload struct with
// non-zero values in every field.
func samplePayloads() map[MsgType]interface{} {
	reading := sensors.Reading{
		Sensor: sensors.Barometer,
		Value:  1013.25,
		Unit:   "hPa",
		At:     wireTime(1754700000, 123456789),
		Where:  geo.Point{Lat: 40.4237, Lon: -86.9212},
	}
	return map[MsgType]interface{}{
		TypeHello: Hello{Role: RoleDevice, Version: 2},
		TypeAck:   Ack{Ref: "task-7", Version: 2},
		TypeError: Error{Message: "no such task"},
		TypeRegister: Register{
			DeviceID:   "device-abc123",
			Position:   geo.Point{Lat: -33.8688, Lon: 151.2093},
			BatteryPct: 87.5,
			Sensors:    []sensors.Type{sensors.Barometer, sensors.GPS, sensors.Accelerometer},
			DeviceType: "pixel-9",
			Budget:     power.Budget{TotalJ: 120, CriticalBatteryPct: 15},
		},
		TypeUpdatePrefs: UpdatePrefs{Budget: power.Budget{TotalJ: 60, CriticalBatteryPct: 30}},
		TypeStateReport: StateReport{
			Position:   geo.Point{Lat: 51.5, Lon: -0.12},
			BatteryPct: 42,
			LastComm:   wireTime(1754700100, 0),
		},
		TypeSchedule: Schedule{
			RequestID: "task-1#4",
			TaskID:    "task-1",
			Sensor:    sensors.Barometer,
			Due:       wireTime(1754700200, 5000),
			Deadline:  wireTime(1754700260, 0),
			TraceID:   "00112233445566778899aabbccddeeff",
			SpanID:    "0123456789abcdef",
		},
		TypeSenseData: SenseData{
			RequestID: "task-1#4",
			Reading:   reading,
			Path:      PathTail,
			TraceID:   "00112233445566778899aabbccddeeff",
			SpanID:    "fedcba9876543210",
		},
		TypeSubmitTask: TaskSpec{
			ClientTaskID:     "campaign-9",
			Sensor:           sensors.Barometer,
			SamplingPeriod:   2 * time.Second,
			SamplingDuration: time.Minute,
			Start:            wireTime(1754700000, 0),
			End:              wireTime(1754786400, 0),
			Center:           geo.Point{Lat: 40.4237, Lon: -86.9212},
			AreaRadiusM:      500,
			SpatialDensity:   5,
			DeviceType:       "pixel-9",
			TraceID:          "ffeeddccbbaa99887766554433221100",
			SpanID:           "0011223344556677",
		},
		TypeUpdateTask: UpdateTask{
			TaskID:         "west/task-3",
			SamplingPeriod: 5 * time.Second,
			SpatialDensity: 9,
			AreaRadiusM:    750,
			End:            wireTime(1754790000, 0),
		},
		TypeDeleteTask: DeleteTask{TaskID: "west/task-3"},
		TypeSensedData: SensedData{
			TaskID:   "task-1",
			DeviceID: "pseudonym-42",
			Reading:  reading,
			TraceID:  "00112233445566778899aabbccddeeff",
			SpanID:   "89abcdef01234567",
		},
		TypeSubscribeAgg: SubscribeAgg{Task: "west/task-1", Region: "west", Every: 1, Span: 3},
		TypeAggPush: AggPush{
			Sub: "agg-4",
			Windows: []AggWindow{
				{
					TaskID: "west/task-1", Region: "west",
					CellLat: 8995, CellLon: -19338,
					Start: wireTime(1754700000, 0), End: wireTime(1754700060, 0),
					Count: 17, Mean: 1012.4, Min: 1009.1, Max: 1016.8,
					P50: 1012.1, P99: 1016.5, FreshnessMS: 2150,
				},
				{
					TaskID: "west/task-2", Region: "west",
					CellLat: 8996, CellLon: -19337,
					Start: wireTime(1754700000, 0), End: wireTime(1754700060, 0),
					Count: 4, Mean: -3.25, Min: -7.5, Max: 0,
					P50: -3.1, P99: -0.1, FreshnessMS: 480,
				},
			},
		},
	}
}

// newOut returns a fresh pointer of the same payload struct type.
func newOut(payload interface{}) interface{} {
	switch payload.(type) {
	case Hello:
		return &Hello{}
	case Ack:
		return &Ack{}
	case Error:
		return &Error{}
	case Register:
		return &Register{}
	case UpdatePrefs:
		return &UpdatePrefs{}
	case StateReport:
		return &StateReport{}
	case Schedule:
		return &Schedule{}
	case SenseData:
		return &SenseData{}
	case TaskSpec:
		return &TaskSpec{}
	case UpdateTask:
		return &UpdateTask{}
	case DeleteTask:
		return &DeleteTask{}
	case SensedData:
		return &SensedData{}
	case SubscribeAgg:
		return &SubscribeAgg{}
	case AggPush:
		return &AggPush{}
	case SnapshotShip:
		return &SnapshotShip{}
	}
	return nil
}

// jsonEq compares two payload values by their canonical JSON form,
// sidestepping time.Time's internal representation differences.
func jsonEq(t *testing.T, a, b interface{}) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return bytes.Equal(ab, bb)
}

// jsonV1 is the v1 JSON framing, which only the hello still uses, shaped
// as a Codec so that tests can hold the binary codec against it.
var jsonV1 Codec = v1Frames{}

type v1Frames struct{}

func (v1Frames) Name() string { return "json" }

func (v1Frames) Encode(t MsgType, seq uint64, payload interface{}) (Envelope, error) {
	return Encode(t, seq, payload)
}

func (v1Frames) Decode(env Envelope, out interface{}) error { return Decode(env, out) }

func (v1Frames) AppendFrame(dst []byte, env Envelope) ([]byte, error) {
	w := bytes.NewBuffer(dst)
	err := WriteFrame(w, env)
	return w.Bytes(), err
}

func (v1Frames) WriteFrame(w io.Writer, env Envelope) error { return WriteFrame(w, env) }

func (v1Frames) ReadFrame(r io.Reader) (Envelope, error) { return ReadFrame(r) }

// roundTrip pushes a payload through one codec's full path: Encode,
// AppendFrame, ReadFrame, Decode.
func roundTrip(t *testing.T, c Codec, mt MsgType, seq uint64, payload interface{}) (interface{}, int) {
	t.Helper()
	env, err := c.Encode(mt, seq, payload)
	if err != nil {
		t.Fatalf("%s encode %s: %v", c.Name(), mt, err)
	}
	frame, err := c.AppendFrame(nil, env)
	if err != nil {
		t.Fatalf("%s frame %s: %v", c.Name(), mt, err)
	}
	got, err := c.ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("%s read %s: %v", c.Name(), mt, err)
	}
	if got.Type != mt {
		t.Fatalf("%s: type %s round-tripped as %s", c.Name(), mt, got.Type)
	}
	if got.Seq != seq {
		t.Fatalf("%s: seq %d round-tripped as %d", c.Name(), seq, got.Seq)
	}
	out := newOut(payload)
	if err := c.Decode(got, out); err != nil {
		t.Fatalf("%s decode %s: %v", c.Name(), mt, err)
	}
	return out, len(frame)
}

// TestBinaryRoundTripAllPayloads proves the v2 codec carries every
// message type's payload losslessly, and that the binary frame is
// smaller than the v1 JSON frame for every one of them.
func TestBinaryRoundTripAllPayloads(t *testing.T) {
	for mt, payload := range samplePayloads() {
		binOut, binLen := roundTrip(t, Binary, mt, 42, payload)
		jsonOut, jsonLen := roundTrip(t, jsonV1, mt, 42, payload)
		if !jsonEq(t, binOut, jsonOut) {
			t.Errorf("%s: binary and json decode disagree:\n  binary: %+v\n  json:   %+v", mt, binOut, jsonOut)
		}
		if !jsonEq(t, binOut, payload) {
			t.Errorf("%s: binary round-trip lost data:\n  in:  %+v\n  out: %+v", mt, payload, binOut)
		}
		if binLen >= jsonLen {
			t.Errorf("%s: binary frame (%d bytes) not smaller than json (%d bytes)", mt, binLen, jsonLen)
		}
	}
}

// TestCrossCodecPropertyRoundTrip is the randomized interop property:
// for arbitrary field values, decoding a payload moved through the v2
// binary framing yields the same struct as moving it through v1 JSON.
func TestCrossCodecPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randStr := func() string {
		n := rng.Intn(24)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			// Mix ASCII and multi-byte runes; JSON escapes must agree.
			if rng.Intn(4) == 0 {
				sb.WriteRune(rune(0x3b1 + rng.Intn(24))) // Greek letters
			} else {
				sb.WriteByte(byte(32 + rng.Intn(95)))
			}
		}
		return sb.String()
	}
	randTime := func() time.Time {
		if rng.Intn(4) == 0 {
			return time.Time{}
		}
		return wireTime(rng.Int63n(4e9)-1e9, rng.Int63n(1e9))
	}
	randF := func() float64 { return (rng.Float64() - 0.5) * 1e6 }

	for i := 0; i < 300; i++ {
		var mt MsgType
		var payload interface{}
		switch i % 4 {
		case 0:
			mt, payload = TypeSchedule, Schedule{
				RequestID: randStr(), TaskID: randStr(),
				Sensor: sensors.Type(rng.Intn(12)),
				Due:    randTime(), Deadline: randTime(),
				TraceID: randStr(), SpanID: randStr(),
			}
		case 1:
			mt, payload = TypeSenseData, SenseData{
				RequestID: randStr(),
				Reading: sensors.Reading{
					Sensor: sensors.Type(rng.Intn(12)), Value: randF(),
					Unit: randStr(), At: randTime(),
					Where: geo.Point{Lat: randF(), Lon: randF()},
				},
				Path: randStr(), TraceID: randStr(), SpanID: randStr(),
			}
		case 2:
			mt, payload = TypeRegister, Register{
				DeviceID:   randStr(),
				Position:   geo.Point{Lat: randF(), Lon: randF()},
				BatteryPct: randF(),
				Sensors: func() []sensors.Type {
					s := make([]sensors.Type, rng.Intn(5))
					for j := range s {
						s[j] = sensors.Type(rng.Intn(12))
					}
					if len(s) == 0 {
						return nil
					}
					return s
				}(),
				DeviceType: randStr(),
				Budget:     power.Budget{TotalJ: randF(), CriticalBatteryPct: randF()},
			}
		case 3:
			mt, payload = TypeSubmitTask, TaskSpec{
				ClientTaskID: randStr(), Sensor: sensors.Type(rng.Intn(12)),
				SamplingPeriod:   time.Duration(rng.Int63n(1e12)),
				SamplingDuration: time.Duration(rng.Int63n(1e13)),
				Start:            randTime(), End: randTime(),
				Center:      geo.Point{Lat: randF(), Lon: randF()},
				AreaRadiusM: randF(), SpatialDensity: rng.Intn(100),
				DeviceType: randStr(), TraceID: randStr(), SpanID: randStr(),
			}
		}
		seq := rng.Uint64()
		binOut, _ := roundTrip(t, Binary, mt, seq, payload)
		jsonOut, _ := roundTrip(t, jsonV1, mt, seq, payload)
		if !jsonEq(t, binOut, jsonOut) {
			t.Fatalf("iteration %d (%s): codecs disagree\n  binary: %+v\n  json:   %+v",
				i, mt, binOut, jsonOut)
		}
	}
}

// TestBinaryReadFrameRejectsOversizedLength: a hostile length prefix is
// refused before any payload buffer is allocated.
func TestBinaryReadFrameRejectsOversizedLength(t *testing.T) {
	cases := [][]byte{
		binary.AppendUvarint(nil, MaxMessageBytes+1),
		binary.AppendUvarint(nil, 1<<40),
		binary.AppendUvarint(nil, 1<<62),
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},       // varint overflow
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, // too long
		binary.AppendUvarint(nil, 0),                                       // zero-length frame
	}
	for i, c := range cases {
		// Pad with garbage the decoder must never read as a body.
		data := append(append([]byte{}, c...), bytes.Repeat([]byte{'x'}, 64)...)
		if _, err := Binary.ReadFrame(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: oversized/invalid length prefix accepted", i)
		}
	}
}

// TestBinaryReadFrameTruncation: every strict prefix of a valid frame is
// an error (or clean EOF at zero bytes), never a panic or a hang.
func TestBinaryReadFrameTruncation(t *testing.T) {
	env, err := Binary.Encode(TypeSenseData, 9, samplePayloads()[TypeSenseData])
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Binary.AppendFrame(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := Binary.ReadFrame(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("frame truncated to %d/%d bytes decoded without error", cut, len(frame))
		}
	}
	if _, err := Binary.ReadFrame(bytes.NewReader(frame)); err != nil {
		t.Fatalf("full frame failed: %v", err)
	}
}

// TestBinaryUnknownTypeCode: a frame with an unassigned type code is a
// decode error.
func TestBinaryUnknownTypeCode(t *testing.T) {
	body := []byte{99, 0, payloadBinary}
	frame := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	if _, err := Binary.ReadFrame(bytes.NewReader(frame)); err == nil {
		t.Fatal("unknown type code accepted")
	}
}

// TestBinaryBadPayloadEncoding: the payload-encoding byte only has two
// assigned values.
func TestBinaryBadPayloadEncoding(t *testing.T) {
	body := []byte{binAck, 0, 7}
	frame := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	if _, err := Binary.ReadFrame(bytes.NewReader(frame)); err == nil {
		t.Fatal("unassigned payload-encoding byte accepted")
	}
}

// TestBinaryTruncatedPayloadFields: a payload cut mid-field must decode
// as an error, whatever the cut point.
func TestBinaryTruncatedPayloadFields(t *testing.T) {
	full, ok := appendBinaryPayload(nil, samplePayloads()[TypeRegister].(Register))
	if !ok {
		t.Fatal("Register should have a binary payload encoder")
	}
	for cut := 0; cut < len(full); cut++ {
		var reg Register
		if err := decodeBinaryPayload(TypeRegister, full[:cut], &reg); err == nil {
			t.Fatalf("payload truncated to %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

// TestBinaryTrailingBytesIgnored: a newer peer may append fields; the
// decoder reads what it knows and ignores the rest.
func TestBinaryTrailingBytesIgnored(t *testing.T) {
	payload, _ := appendBinaryPayload(nil, DeleteTask{TaskID: "task-5"})
	payload = append(payload, 0xDE, 0xAD, 0xBE, 0xEF)
	var dt DeleteTask
	if err := decodeBinaryPayload(TypeDeleteTask, payload, &dt); err != nil {
		t.Fatalf("trailing bytes rejected: %v", err)
	}
	if dt.TaskID != "task-5" {
		t.Fatalf("got %q", dt.TaskID)
	}
}

// TestBinaryJSONFallbackPayload: payload types the binary codec does not
// know ride inside the binary frame as JSON and still decode.
func TestBinaryJSONFallbackPayload(t *testing.T) {
	type extension struct {
		Custom string `json:"custom"`
	}
	env, err := Binary.Encode(TypeAck, 3, extension{Custom: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Binary.AppendFrame(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Binary.ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	var out extension
	if err := Decode(got, &out); err != nil {
		t.Fatal(err)
	}
	if out.Custom != "hello" {
		t.Fatalf("got %q", out.Custom)
	}
}

// TestBinaryNilPayloadRoundTrip: acks with no payload are legal frames.
// A whole snapshot_ship frame has the payload bytes it had before
// snapshots could travel in parts, so either side of an upgrade reads the
// other's frames; a whole snapshot and a part both round-trip through
// both codecs.
func TestSnapshotShipParts(t *testing.T) {
	whole := SnapshotShip{Store: "core", Payload: json.RawMessage(`{"journal_seq":7}`)}
	env, err := Binary.Encode(TypeSnapshotShip, 1, whole)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"store":"core","payload":{"journal_seq":7}}`; string(env.Payload) != want {
		t.Fatalf("whole snapshot payload = %s, want %s", env.Payload, want)
	}
	// A part leaves Payload empty, which encodes and so decodes as null.
	part := SnapshotShip{Store: "west", Payload: json.RawMessage("null"), Part: 2, Last: true, Chunk: []byte("\x00{\"tasks\":[\xff")}
	for _, c := range []Codec{jsonV1, Binary} {
		for _, in := range []SnapshotShip{whole, part} {
			out, _ := roundTrip(t, c, TypeSnapshotShip, 3, in)
			if !reflect.DeepEqual(*out.(*SnapshotShip), in) {
				t.Errorf("%s: %+v round-tripped as %+v", c.Name(), in, *out.(*SnapshotShip))
			}
		}
	}
}

func TestBinaryNilPayloadRoundTrip(t *testing.T) {
	env, err := Binary.Encode(TypeAck, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Binary.AppendFrame(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Binary.ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeAck || got.Seq != 11 || len(got.Payload) != 0 {
		t.Fatalf("round-trip mangled the empty ack: %+v", got)
	}
}

// TestBinaryAppendFrameRejectsOversizedBeforeMutating: an over-limit
// frame must not leave partial bytes in the coalescing buffer.
func TestBinaryAppendFrameRejectsOversizedBeforeMutating(t *testing.T) {
	big := Envelope{Type: TypeSenseData, Payload: bytes.Repeat([]byte{'p'}, MaxMessageBytes), binPayload: true}
	dst := []byte("existing")
	out, err := Binary.AppendFrame(dst, big)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if string(out) != "existing" {
		t.Fatalf("failed append mutated dst: %d bytes", len(out))
	}
}

// TestBinaryStreamOfFrames: multiple coalesced frames parse back out of
// one contiguous buffer — the receive side of write coalescing.
func TestBinaryStreamOfFrames(t *testing.T) {
	var buf []byte
	var want []MsgType
	for i := 0; i < 20; i++ {
		mt := TypeSchedule
		if i%3 == 0 {
			mt = TypeAck
		}
		env, err := Binary.Encode(mt, uint64(i+1), Ack{Ref: fmt.Sprintf("r%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		buf, err = Binary.AppendFrame(buf, env)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, mt)
	}
	r := bytes.NewReader(buf)
	for i, mt := range want {
		env, err := Binary.ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.Type != mt || env.Seq != uint64(i+1) {
			t.Fatalf("frame %d: got %s seq %d", i, env.Type, env.Seq)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after draining the stream", r.Len())
	}
}

// TestCodecByName pins the codec names still accepted: every one is
// Binary, and any other name is refused with an error naming binary.
func TestCodecByName(t *testing.T) {
	for _, name := range []string{"", "binary", "v2"} {
		if c, err := CodecByName(name); err != nil || c != Binary {
			t.Fatalf("%q resolved to %v, %v; want binary", name, c, err)
		}
	}
	for _, name := range []string{"json", "v1", "protobuf"} {
		if _, err := CodecByName(name); err == nil || !strings.Contains(err.Error(), "binary") {
			t.Fatalf("%q: error %v, want a refusal naming binary", name, err)
		}
	}
}
