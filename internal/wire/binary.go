package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
)

// The v2 binary framing. One frame is:
//
//	uvarint  bodyLen        (validated against MaxMessageBytes before any
//	                         payload buffer is allocated)
//	body:
//	  byte     typeCode     (fixed enumeration below; 0 is invalid)
//	  uvarint  seq
//	  byte     payloadEnc   (0 = wire-binary payload, 1 = JSON payload
//	                         fallback for message types the binary payload
//	                         codec does not know)
//	  payload  bytes
//
// Payload structs are encoded field by field in declaration order with
// the primitives below (uvarint/zigzag varint, length-prefixed strings,
// IEEE-754 bits for floats, flagged unix sec+nsec for times). Trailing
// bytes after the last known field are ignored, so a newer peer may
// append fields; a frame that ends before a field completes is a decode
// error, never a panic or an over-read.

// Frame type codes. The values are the protocol — never renumber.
const (
	binInvalid byte = iota
	binHello
	binAck
	binError
	binRegister
	binDeregister
	binUpdatePrefs
	binStateReport
	binSenseData
	binSchedule
	binSubmitTask
	binUpdateTask
	binDeleteTask
	binSensedData
	// Node-to-node messages (PR 8). Their payloads have no hand-rolled
	// binary encoders, so they always ride the JSON fallback byte.
	binNodeHello
	binNodePing
	binExportDevice
	binImportDevice
	binAttachDevice
	binPromote
	binSnapshotShip
	binJournalShip
	// Live-aggregation subscription channel (PR 9).
	binSubscribeAgg
	binAggPush
	// Router↔worker link streams.
	binStreamClose
)

var typeToCode = map[MsgType]byte{
	TypeHello:       binHello,
	TypeAck:         binAck,
	TypeError:       binError,
	TypeRegister:    binRegister,
	TypeDeregister:  binDeregister,
	TypeUpdatePrefs: binUpdatePrefs,
	TypeStateReport: binStateReport,
	TypeSenseData:   binSenseData,
	TypeSchedule:    binSchedule,
	TypeSubmitTask:  binSubmitTask,
	TypeUpdateTask:  binUpdateTask,
	TypeDeleteTask:  binDeleteTask,
	TypeSensedData:  binSensedData,

	TypeNodeHello:    binNodeHello,
	TypeNodePing:     binNodePing,
	TypeExportDevice: binExportDevice,
	TypeImportDevice: binImportDevice,
	TypeAttachDevice: binAttachDevice,
	TypePromote:      binPromote,
	TypeSnapshotShip: binSnapshotShip,
	TypeJournalShip:  binJournalShip,

	TypeSubscribeAgg: binSubscribeAgg,
	TypeAggPush:      binAggPush,

	TypeStreamClose: binStreamClose,
}

var codeToType = func() map[byte]MsgType {
	m := make(map[byte]MsgType, len(typeToCode))
	for t, c := range typeToCode {
		m[c] = t
	}
	return m
}()

// payloadEnc values in the frame header.
const (
	payloadBinary byte = 0
	payloadJSON   byte = 1
)

type binaryCodec struct{}

func (binaryCodec) Name() string { return "binary" }
func (binaryCodec) Version() int { return ProtocolVersionBinary }

func (binaryCodec) Encode(t MsgType, seq uint64, payload interface{}) (Envelope, error) {
	if _, ok := typeToCode[t]; !ok {
		met.errEncode.Inc()
		return Envelope{}, fmt.Errorf("wire: no binary type code for %s", t)
	}
	if payload == nil {
		return Envelope{Type: t, Seq: seq, binPayload: true}, nil
	}
	if body, ok := appendBinaryPayload(nil, payload); ok {
		return Envelope{Type: t, Seq: seq, Payload: body, binPayload: true}, nil
	}
	// Unknown payload type: carry it as JSON inside the binary frame so
	// ad-hoc messages (tests, future extensions) still move.
	b, err := json.Marshal(payload)
	if err != nil {
		met.errEncode.Inc()
		return Envelope{}, fmt.Errorf("wire: marshal %s: %w", t, err)
	}
	return Envelope{Type: t, Seq: seq, Payload: b}, nil
}

func (binaryCodec) Decode(env Envelope, out interface{}) error {
	return Decode(env, out)
}

func (binaryCodec) AppendFrame(dst []byte, env Envelope) ([]byte, error) {
	code, ok := typeToCode[env.Type]
	if !ok {
		met.errEncode.Inc()
		return dst, fmt.Errorf("wire: no binary type code for %s", env.Type)
	}
	enc := payloadJSON
	if env.binPayload {
		enc = payloadBinary
	}
	var seqBuf [binary.MaxVarintLen64]byte
	seqLen := binary.PutUvarint(seqBuf[:], env.Seq)
	bodyLen := 1 + seqLen + 1 + len(env.Payload)
	if bodyLen > MaxMessageBytes {
		met.errFrame.Inc()
		return dst, fmt.Errorf("wire: frame of %d bytes exceeds limit", bodyLen)
	}
	dst = binary.AppendUvarint(dst, uint64(bodyLen))
	dst = append(dst, code)
	dst = append(dst, seqBuf[:seqLen]...)
	dst = append(dst, enc)
	return append(dst, env.Payload...), nil
}

func (c binaryCodec) WriteFrame(w io.Writer, env Envelope) error {
	frame, err := c.AppendFrame(nil, env)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		met.errIO.Inc()
		return fmt.Errorf("wire: write frame: %w", err)
	}
	met.bytesTx.Add(uint64(len(frame)))
	return nil
}

func (binaryCodec) ReadFrame(r io.Reader) (Envelope, error) {
	n, prefixLen, err := readUvarintBounded(r)
	if err != nil {
		return Envelope{}, err // io.EOF passes through for clean shutdown
	}
	// Reject a hostile length prefix before allocating anything: the
	// bound is checked against the raw varint value, so a peer cannot
	// make the server allocate an unbounded buffer.
	if n == 0 || n > MaxMessageBytes {
		met.errFrame.Inc()
		return Envelope{}, fmt.Errorf("wire: bad frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		met.errIO.Inc()
		return Envelope{}, fmt.Errorf("wire: read body: %w", err)
	}
	met.bytesRx.Add(uint64(prefixLen) + n)
	// body: typeCode, uvarint seq, payloadEnc, payload.
	t, ok := codeToType[body[0]]
	if !ok {
		met.errDecode.Inc()
		return Envelope{}, fmt.Errorf("wire: unknown binary type code %d", body[0])
	}
	seq, seqLen := binary.Uvarint(body[1:])
	if seqLen <= 0 || 1+seqLen+1 > len(body) {
		met.errDecode.Inc()
		return Envelope{}, fmt.Errorf("wire: truncated binary frame header")
	}
	enc := body[1+seqLen]
	if enc != payloadBinary && enc != payloadJSON {
		met.errDecode.Inc()
		return Envelope{}, fmt.Errorf("wire: unknown payload encoding %d", enc)
	}
	env := Envelope{Type: t, Seq: seq, binPayload: enc == payloadBinary}
	if payload := body[1+seqLen+1:]; len(payload) > 0 {
		env.Payload = payload
	}
	return env, nil
}

// readUvarintBounded reads a uvarint length prefix byte by byte (at most
// MaxVarintLen64 bytes), so no payload-sized read happens before the
// bound check. A bare io.EOF on the very first byte passes through for
// clean shutdown; EOF mid-varint is an unexpected-EOF error.
func readUvarintBounded(r io.Reader) (v uint64, n int, err error) {
	var one [1]byte
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if _, err := io.ReadFull(r, one[:]); err != nil {
			if i == 0 {
				return 0, 0, err
			}
			met.errIO.Inc()
			return 0, 0, fmt.Errorf("wire: read frame length: %w", err)
		}
		b := one[0]
		if shift >= 64 || (shift == 63 && b > 1) {
			met.errFrame.Inc()
			return 0, 0, fmt.Errorf("wire: frame length varint overflows")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i + 1, nil
		}
		shift += 7
	}
	met.errFrame.Inc()
	return 0, 0, fmt.Errorf("wire: frame length varint too long")
}

// --- primitive encoders ---

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendVarint(dst, t.Unix())
	return binary.AppendUvarint(dst, uint64(t.Nanosecond()))
}

func appendPoint(dst []byte, p geo.Point) []byte {
	dst = appendF64(dst, p.Lat)
	return appendF64(dst, p.Lon)
}

func appendBudget(dst []byte, b power.Budget) []byte {
	dst = appendF64(dst, b.TotalJ)
	return appendF64(dst, b.CriticalBatteryPct)
}

func appendReading(dst []byte, r sensors.Reading) []byte {
	dst = binary.AppendVarint(dst, int64(r.Sensor))
	dst = appendF64(dst, r.Value)
	dst = appendString(dst, r.Unit)
	dst = appendTime(dst, r.At)
	return appendPoint(dst, r.Where)
}

func appendAggWindow(dst []byte, w *AggWindow) []byte {
	dst = appendString(dst, w.TaskID)
	dst = appendString(dst, w.Region)
	dst = binary.AppendVarint(dst, int64(w.CellLat))
	dst = binary.AppendVarint(dst, int64(w.CellLon))
	dst = appendTime(dst, w.Start)
	dst = appendTime(dst, w.End)
	dst = binary.AppendUvarint(dst, w.Count)
	dst = appendF64(dst, w.Mean)
	dst = appendF64(dst, w.Min)
	dst = appendF64(dst, w.Max)
	dst = appendF64(dst, w.P50)
	dst = appendF64(dst, w.P99)
	return binary.AppendVarint(dst, w.FreshnessMS)
}

// --- primitive decoder ---

// binReader walks a binary payload. The first malformed field poisons the
// reader; every later read returns a zero value and the error survives to
// the final check, so struct decoders read unconditionally and check once.
type binReader struct {
	b   []byte
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or malformed %s", what)
	}
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail("string")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *binReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *binReader) time() time.Time {
	if r.err != nil {
		return time.Time{}
	}
	if len(r.b) < 1 {
		r.fail("time flag")
		return time.Time{}
	}
	flag := r.b[0]
	r.b = r.b[1:]
	if flag == 0 {
		return time.Time{}
	}
	if flag != 1 {
		r.fail("time flag")
		return time.Time{}
	}
	sec := r.varint()
	nsec := r.uvarint()
	if r.err != nil || nsec >= 1e9 {
		r.fail("time")
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

func (r *binReader) point() geo.Point {
	return geo.Point{Lat: r.f64(), Lon: r.f64()}
}

func (r *binReader) budget() power.Budget {
	return power.Budget{TotalJ: r.f64(), CriticalBatteryPct: r.f64()}
}

func (r *binReader) reading() sensors.Reading {
	return sensors.Reading{
		Sensor: sensors.Type(r.varint()),
		Value:  r.f64(),
		Unit:   r.str(),
		At:     r.time(),
		Where:  r.point(),
	}
}

func (r *binReader) aggWindow() AggWindow {
	return AggWindow{
		TaskID:      r.str(),
		Region:      r.str(),
		CellLat:     int32(r.varint()),
		CellLon:     int32(r.varint()),
		Start:       r.time(),
		End:         r.time(),
		Count:       r.uvarint(),
		Mean:        r.f64(),
		Min:         r.f64(),
		Max:         r.f64(),
		P50:         r.f64(),
		P99:         r.f64(),
		FreshnessMS: r.varint(),
	}
}

// --- payload struct codecs ---

// appendBinaryPayload encodes a known payload struct; ok is false for
// types the binary payload codec does not know (the caller falls back to
// JSON inside the binary frame).
func appendBinaryPayload(dst []byte, payload interface{}) (_ []byte, ok bool) {
	switch p := payload.(type) {
	case Hello:
		dst = appendString(dst, string(p.Role))
		dst = binary.AppendVarint(dst, int64(p.Version))
	case Ack:
		dst = appendString(dst, p.Ref)
		dst = binary.AppendVarint(dst, int64(p.Version))
	case Error:
		dst = appendString(dst, p.Message)
	case Register:
		dst = appendString(dst, p.DeviceID)
		dst = appendPoint(dst, p.Position)
		dst = appendF64(dst, p.BatteryPct)
		dst = binary.AppendUvarint(dst, uint64(len(p.Sensors)))
		for _, s := range p.Sensors {
			dst = binary.AppendVarint(dst, int64(s))
		}
		dst = appendString(dst, p.DeviceType)
		dst = appendBudget(dst, p.Budget)
	case UpdatePrefs:
		dst = appendBudget(dst, p.Budget)
	case StateReport:
		dst = appendPoint(dst, p.Position)
		dst = appendF64(dst, p.BatteryPct)
		dst = appendTime(dst, p.LastComm)
	case Schedule:
		dst = appendString(dst, p.RequestID)
		dst = appendString(dst, p.TaskID)
		dst = binary.AppendVarint(dst, int64(p.Sensor))
		dst = appendTime(dst, p.Due)
		dst = appendTime(dst, p.Deadline)
		dst = appendString(dst, p.TraceID)
		dst = appendString(dst, p.SpanID)
	case SenseData:
		dst = appendString(dst, p.RequestID)
		dst = appendReading(dst, p.Reading)
		dst = appendString(dst, p.Path)
		dst = appendString(dst, p.TraceID)
		dst = appendString(dst, p.SpanID)
	case TaskSpec:
		dst = appendString(dst, p.ClientTaskID)
		dst = binary.AppendVarint(dst, int64(p.Sensor))
		dst = binary.AppendVarint(dst, int64(p.SamplingPeriod))
		dst = binary.AppendVarint(dst, int64(p.SamplingDuration))
		dst = appendTime(dst, p.Start)
		dst = appendTime(dst, p.End)
		dst = appendPoint(dst, p.Center)
		dst = appendF64(dst, p.AreaRadiusM)
		dst = binary.AppendVarint(dst, int64(p.SpatialDensity))
		dst = appendString(dst, p.DeviceType)
		dst = appendString(dst, p.TraceID)
		dst = appendString(dst, p.SpanID)
	case UpdateTask:
		dst = appendString(dst, p.TaskID)
		dst = binary.AppendVarint(dst, int64(p.SamplingPeriod))
		dst = binary.AppendVarint(dst, int64(p.SpatialDensity))
		dst = appendF64(dst, p.AreaRadiusM)
		dst = appendTime(dst, p.End)
	case DeleteTask:
		dst = appendString(dst, p.TaskID)
	case SensedData:
		dst = appendString(dst, p.TaskID)
		dst = appendString(dst, p.DeviceID)
		dst = appendReading(dst, p.Reading)
		dst = appendString(dst, p.TraceID)
		dst = appendString(dst, p.SpanID)
	case SubscribeAgg:
		dst = appendString(dst, p.Task)
		dst = appendString(dst, p.Region)
		dst = binary.AppendVarint(dst, int64(p.Every))
		dst = binary.AppendVarint(dst, int64(p.Span))
	case AggPush:
		dst = appendString(dst, p.Sub)
		dst = binary.AppendUvarint(dst, uint64(len(p.Windows)))
		for i := range p.Windows {
			dst = appendAggWindow(dst, &p.Windows[i])
		}
	default:
		return dst, false
	}
	return dst, true
}

// decodeBinaryPayload decodes a binary payload into a known struct
// pointer. Trailing bytes are ignored (a newer peer appended fields); a
// payload that runs out mid-field is an error.
func decodeBinaryPayload(t MsgType, payload []byte, out interface{}) error {
	r := &binReader{b: payload}
	switch p := out.(type) {
	case *Hello:
		p.Role = Role(r.str())
		p.Version = int(r.varint())
	case *Ack:
		p.Ref = r.str()
		p.Version = int(r.varint())
	case *Error:
		p.Message = r.str()
	case *Register:
		p.DeviceID = r.str()
		p.Position = r.point()
		p.BatteryPct = r.f64()
		n := r.uvarint()
		if r.err == nil && n > uint64(len(r.b)) {
			r.fail("sensor list")
		}
		if r.err == nil && n > 0 {
			p.Sensors = make([]sensors.Type, 0, n)
			for i := uint64(0); i < n; i++ {
				p.Sensors = append(p.Sensors, sensors.Type(r.varint()))
			}
		}
		p.DeviceType = r.str()
		p.Budget = r.budget()
	case *UpdatePrefs:
		p.Budget = r.budget()
	case *StateReport:
		p.Position = r.point()
		p.BatteryPct = r.f64()
		p.LastComm = r.time()
	case *Schedule:
		p.RequestID = r.str()
		p.TaskID = r.str()
		p.Sensor = sensors.Type(r.varint())
		p.Due = r.time()
		p.Deadline = r.time()
		p.TraceID = r.str()
		p.SpanID = r.str()
	case *SenseData:
		p.RequestID = r.str()
		p.Reading = r.reading()
		p.Path = r.str()
		p.TraceID = r.str()
		p.SpanID = r.str()
	case *TaskSpec:
		p.ClientTaskID = r.str()
		p.Sensor = sensors.Type(r.varint())
		p.SamplingPeriod = time.Duration(r.varint())
		p.SamplingDuration = time.Duration(r.varint())
		p.Start = r.time()
		p.End = r.time()
		p.Center = r.point()
		p.AreaRadiusM = r.f64()
		p.SpatialDensity = int(r.varint())
		p.DeviceType = r.str()
		p.TraceID = r.str()
		p.SpanID = r.str()
	case *UpdateTask:
		p.TaskID = r.str()
		p.SamplingPeriod = time.Duration(r.varint())
		p.SpatialDensity = int(r.varint())
		p.AreaRadiusM = r.f64()
		p.End = r.time()
	case *DeleteTask:
		p.TaskID = r.str()
	case *SensedData:
		p.TaskID = r.str()
		p.DeviceID = r.str()
		p.Reading = r.reading()
		p.TraceID = r.str()
		p.SpanID = r.str()
	case *SubscribeAgg:
		p.Task = r.str()
		p.Region = r.str()
		p.Every = int(r.varint())
		p.Span = int(r.varint())
	case *AggPush:
		p.Sub = r.str()
		n := r.uvarint()
		if r.err == nil && n > uint64(len(r.b)) {
			r.fail("window list")
		}
		if r.err == nil && n > 0 {
			p.Windows = make([]AggWindow, 0, n)
			for i := uint64(0); i < n; i++ {
				p.Windows = append(p.Windows, r.aggWindow())
			}
		}
	default:
		met.errDecode.Inc()
		return fmt.Errorf("wire: no binary payload decoder for %T", out)
	}
	if r.err != nil {
		met.errDecode.Inc()
		return fmt.Errorf("wire: decode %s: %w", t, r.err)
	}
	return nil
}
