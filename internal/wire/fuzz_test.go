package wire

import (
	"bufio"
	"bytes"
	"testing"
	"time"

	"senseaid/internal/sensors"
)

// FuzzReadFrame throws arbitrary bytes at the frame decoder: it must
// return an error or a well-formed envelope, never panic or over-read.
func FuzzReadFrame(f *testing.F) {
	// Seed with a valid frame and near-miss corruptions.
	env, err := Encode(TypeStateReport, 3, StateReport{BatteryPct: 50})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, env); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:3])
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'})
	f.Add([]byte(`{"type":"ack"}`))

	// Frames with and without trace-context fields: a schedule carrying
	// trace_id/span_id, the same schedule without them (an old peer), a
	// device upload echoing the context, and near-miss corruptions of
	// the trace fields themselves (wrong length, non-hex, wrong type).
	frame := func(t MsgType, payload interface{}) []byte {
		env, err := Encode(t, 7, payload)
		if err != nil {
			f.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteFrame(&b, env); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	traced := Schedule{
		RequestID: "task-1#0",
		TaskID:    "task-1",
		TraceID:   "00112233445566778899aabbccddeeff",
		SpanID:    "0123456789abcdef",
	}
	plain := traced
	plain.TraceID, plain.SpanID = "", ""
	f.Add(frame(TypeSchedule, traced))
	f.Add(frame(TypeSchedule, plain))
	f.Add(frame(TypeSenseData, SenseData{
		RequestID: "task-1#0",
		TraceID:   traced.TraceID,
		SpanID:    traced.SpanID,
	}))
	f.Add(frame(TypeSubmitTask, TaskSpec{TraceID: "zz", SpanID: "tooshort"}))
	f.Add([]byte(`{"type":"schedule","payload":{"trace_id":12345,"span_id":{}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.Type == "" {
			t.Fatal("decoded envelope without a type")
		}
	})
}

// FuzzReadFrameBinary throws arbitrary bytes at the v2 binary frame
// decoder — and, when a frame parses, at the payload decoder for its
// type. Like the v1 target it must error or produce a well-formed
// envelope, never panic, over-read, or allocate from a hostile length.
func FuzzReadFrameBinary(f *testing.F) {
	// Seed with binary encodings of the same corpus the v1 fuzzer uses,
	// so both decoders are exercised on equivalent shapes.
	frame := func(t MsgType, seq uint64, payload interface{}) []byte {
		env, err := Binary.Encode(t, seq, payload)
		if err != nil {
			f.Fatal(err)
		}
		b, err := Binary.AppendFrame(nil, env)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := frame(TypeStateReport, 3, StateReport{BatteryPct: 50})
	f.Add(valid)
	f.Add(valid[:3])
	f.Add([]byte{0})                            // zero-length frame
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // huge varint length
	f.Add([]byte{2, binAck, 0})                 // header-only ack, truncated enc byte
	f.Add([]byte{3, 99, 0, 0})                  // unknown type code
	traced := Schedule{
		RequestID: "task-1#0",
		TaskID:    "task-1",
		TraceID:   "00112233445566778899aabbccddeeff",
		SpanID:    "0123456789abcdef",
	}
	plain := traced
	plain.TraceID, plain.SpanID = "", ""
	f.Add(frame(TypeSchedule, 7, traced))
	f.Add(frame(TypeSchedule, 7, plain))
	f.Add(frame(TypeSenseData, 7, SenseData{
		RequestID: "task-1#0",
		Reading: sensors.Reading{
			Sensor: sensors.Barometer, Value: 1013.25, Unit: "hPa",
			At: time.Unix(1754700000, 0).UTC(),
		},
		TraceID: traced.TraceID,
		SpanID:  traced.SpanID,
	}))
	f.Add(frame(TypeSubmitTask, 7, TaskSpec{TraceID: "zz", SpanID: "tooshort"}))
	f.Add(frame(TypeRegister, 1, Register{
		DeviceID: "fuzz-dev",
		Sensors:  []sensors.Type{sensors.Barometer, sensors.GPS},
	}))
	// Aggregation subscription channel: a subscribe, a push with a
	// windows list (slice length guard), and an empty push.
	f.Add(frame(TypeSubscribeAgg, 2, SubscribeAgg{Task: "west/task-1", Region: "west", Every: 1, Span: 3}))
	f.Add(frame(TypeAggPush, 0, samplePayloads()[TypeAggPush]))
	f.Add(frame(TypeAggPush, 0, AggPush{Sub: "agg-1"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Binary.ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.Type == "" {
			t.Fatal("decoded envelope without a type")
		}
		// The payload decoder must be as robust as the framer.
		out := newOut(samplePayloads()[got.Type])
		if out != nil && len(got.Payload) > 0 {
			_ = Decode(got, out)
		}
	})
}

// FuzzReadLinkFrame throws arbitrary bytes at the router↔worker link
// framing: a stream id prefix in front of a v2 binary frame. Hostile or
// missing stream ids, a prefix cut short, frames on unknown streams and
// frames a peer does not serve on control stream 0 must error or parse,
// never panic — and LinkFrameBuffered must agree with ReadFrame about
// whether a whole frame is there. (What each end does with a control
// frame it does not serve is pinned by netserver's
// TestLinkControlStream and cluster's TestLinkGarbageClosesLinkAndClients:
// an error reply, or a closed link.)
func FuzzReadLinkFrame(f *testing.F) {
	frame := func(stream uint64, t MsgType, seq uint64, payload interface{}) []byte {
		env, err := Binary.Encode(t, seq, payload)
		if err != nil {
			f.Fatal(err)
		}
		b, err := Link.AppendFrame(nil, env.OnStream(stream))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := frame(3, TypeStateReport, 9, StateReport{BatteryPct: 50})
	f.Add(valid)
	f.Add(valid[:1]) // stream id only
	f.Add(valid[:3]) // truncated inner frame
	f.Add(frame(1, TypeHello, 0, Hello{Role: RoleDevice, Version: ProtocolVersion}))
	f.Add(frame(1<<40, TypeStreamClose, 0, nil))                                     // close for a stream nobody opened
	f.Add(frame(^uint64(0), TypeAck, 1, Ack{Ref: "x"}))                              // largest stream id
	f.Add(append([]byte{0}, valid[1:]...))                                           // stream 0
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})  // overlong stream id
	f.Add([]byte{0x80})                                                              // stream id cut mid-varint
	f.Add(append(append([]byte{}, valid...), valid...))                              // two frames back to back
	f.Add(frame(0, TypeSubmitTask, 1<<62, TaskSpec{}))                               // a control type stream 0 does not carry
	f.Add(frame(0, TypeAck, 1<<62+7, Ack{}))                                         // a reply to a seq nobody sent
	f.Add(frame(0, TypeHello, 0, Hello{Role: RoleDevice, Version: ProtocolVersion})) // a device hello on stream 0

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), 64)
		_, _ = br.Peek(len(data)) // buffer what fits, as a socket read would
		whole := LinkFrameBuffered(br)
		got, err := Link.ReadFrame(br)
		if err != nil {
			return
		}
		if got.Type == "" {
			t.Fatal("decoded envelope without a type")
		}
		if !whole && len(data) <= 64 {
			t.Fatal("LinkFrameBuffered said no whole frame, but one parsed from the buffer alone")
		}
	})
}
