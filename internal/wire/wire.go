// Package wire defines the Sense-Aid network protocol: length-prefixed
// JSON messages exchanged between devices, the Sense-Aid server, and
// crowdsensing application servers (CAS).
//
// Every connection starts with a Hello identifying the peer's role. The
// device API mirrors the paper's client-side library (register,
// deregister, update_preferences, start_sensing, send_sense_data) and the
// CAS API mirrors its server-side library (task, update_task_param,
// delete_task, receive_sensed_data).
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
)

// MaxMessageBytes bounds a single frame; crowdsensing payloads are small,
// so anything larger indicates a corrupt or hostile stream.
const MaxMessageBytes = 1 << 20

// MsgType discriminates envelope payloads.
type MsgType string

// Message types.
const (
	// Connection setup.
	TypeHello MsgType = "hello"
	TypeAck   MsgType = "ack"
	TypeError MsgType = "error"

	// Device -> server (the paper's client-side library calls).
	TypeRegister    MsgType = "register"
	TypeDeregister  MsgType = "deregister"
	TypeUpdatePrefs MsgType = "update_preferences"
	TypeStateReport MsgType = "state_report"
	TypeSenseData   MsgType = "send_sense_data"

	// Server -> device.
	TypeSchedule MsgType = "schedule"

	// CAS -> server (the paper's server-side library calls).
	TypeSubmitTask MsgType = "task"
	TypeUpdateTask MsgType = "update_task_param"
	TypeDeleteTask MsgType = "delete_task"

	// Server -> CAS.
	TypeSensedData MsgType = "receive_sensed_data"
)

// Role identifies a peer.
type Role string

// Roles.
const (
	RoleDevice Role = "device"
	RoleCAS    Role = "cas"
)

// Envelope is the frame body: a type tag, a correlation ID for
// request/response pairs, and a type-specific payload.
type Envelope struct {
	Type    MsgType         `json:"type"`
	Seq     uint64          `json:"seq,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`

	// binPayload records that Payload holds the v2 wire-binary payload
	// encoding rather than JSON. Envelopes remember how they were
	// encoded so Decode works regardless of which codec framed them.
	binPayload bool
	// stream is the link stream the frame travels on (see Link); 0 for
	// a frame on a connection of its own.
	stream uint64
}

// Stream names the link stream the envelope was read from or is bound
// for; 0 off a link.
func (e Envelope) Stream() uint64 { return e.stream }

// OnStream returns the envelope bound for stream id of a link.
func (e Envelope) OnStream(id uint64) Envelope {
	e.stream = id
	return e
}

// BinaryPayload reports whether the envelope's payload is in the v2
// wire-binary encoding. A relay (the router tier) uses it to decide
// whether a frame read from one connection can be re-framed verbatim
// for another: a JSON payload fits either codec, a binary payload must
// be decoded and re-encoded before it can ride a v1 connection.
func (e Envelope) BinaryPayload() bool { return e.binPayload }

// Hello opens every connection. It is always framed with the v1 JSON
// codec, whatever Version asks for, so any server can read it; the
// negotiated codec takes over after the Hello/Ack exchange (see
// CodecForVersion).
type Hello struct {
	Role Role `json:"role"`
	// Version names the protocol revision — and thereby the codec — the
	// peer wants to speak: 1 is the JSON envelope, 2 the binary framing.
	Version int `json:"version"`
}

// ProtocolVersion is the v1 protocol revision: JSON envelopes behind a
// 4-byte length prefix. Old peers speak only this.
const ProtocolVersion = 1

// ProtocolVersionBinary is the v2 protocol revision: compact binary
// framing (varint length + type byte + binary payloads). Negotiated in
// the Hello exchange; servers that cap at v1 answer a v2 Hello with a
// plain Ack and the connection stays on JSON.
const ProtocolVersionBinary = 2

// Ack is a generic success response; Ref optionally names a created
// resource (a task ID, a device ID). On the Hello ack, Version reports
// the protocol revision the server accepted (omitted when v1, so the v1
// ack stays byte-identical for old clients).
type Ack struct {
	Ref     string `json:"ref,omitempty"`
	Version int    `json:"version,omitempty"`
}

// Error is a failure response.
type Error struct {
	Message string `json:"message"`
}

// Register announces a device and its capabilities.
type Register struct {
	// DeviceID is the hash of the IMEI (never the IMEI itself).
	DeviceID   string         `json:"device_id"`
	Position   geo.Point      `json:"position"`
	BatteryPct float64        `json:"battery_pct"`
	Sensors    []sensors.Type `json:"sensors"`
	DeviceType string         `json:"device_type,omitempty"`
	Budget     power.Budget   `json:"budget"`
}

// UpdatePrefs changes a device's crowdsensing preferences.
type UpdatePrefs struct {
	Budget power.Budget `json:"budget"`
}

// StateReport is the service thread's periodic control message: current
// battery, coarse position, and the tail-time stamp.
type StateReport struct {
	Position   geo.Point `json:"position"`
	BatteryPct float64   `json:"battery_pct"`
	LastComm   time.Time `json:"last_comm"`
}

// Schedule asks a device to sense and upload for one request.
//
// TraceID/SpanID carry the task's trace context to the device; a
// well-behaved client echoes them on the resulting SenseData so the
// upload joins the trace. Both are optional — old peers that omit them
// (and old servers that ignore them) interoperate unchanged, because
// the JSON codec drops unknown fields and omits empty ones.
type Schedule struct {
	RequestID string       `json:"request_id"`
	TaskID    string       `json:"task_id"`
	Sensor    sensors.Type `json:"sensor"`
	Due       time.Time    `json:"due"`
	Deadline  time.Time    `json:"deadline"`
	TraceID   string       `json:"trace_id,omitempty"`
	SpanID    string       `json:"span_id,omitempty"`
}

// SenseData carries one reading from a device. Path records how the
// upload rode the radio — "tail" when it reused an existing LTE tail
// window, "promoted" when the radio had to be woken for it — so the
// server can account energy outcomes without trusting clocks to line up.
type SenseData struct {
	RequestID string          `json:"request_id"`
	Reading   sensors.Reading `json:"reading"`
	Path      string          `json:"path,omitempty"`
	// TraceID/SpanID echo the Schedule's trace context (optional).
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Upload path values for SenseData.Path.
const (
	PathTail     = "tail"
	PathPromoted = "promoted"
)

// TaskSpec is the CAS-facing task description (Table 1).
type TaskSpec struct {
	// ClientTaskID, when set, makes submission idempotent: resubmitting
	// the same ClientTaskID with the same spec returns the existing
	// task's ID instead of creating a twin, so a CAS that retries after
	// a reconnect (or a server restart) cannot double-schedule.
	ClientTaskID     string        `json:"client_task_id,omitempty"`
	Sensor           sensors.Type  `json:"sensor_type"`
	SamplingPeriod   time.Duration `json:"sampling_period"`
	SamplingDuration time.Duration `json:"sampling_duration,omitempty"`
	Start            time.Time     `json:"start_time,omitempty"`
	End              time.Time     `json:"end_time,omitempty"`
	Center           geo.Point     `json:"center"`
	AreaRadiusM      float64       `json:"area_radius"`
	SpatialDensity   int           `json:"spatial_density"`
	DeviceType       string        `json:"device_type,omitempty"`
	// TraceID/SpanID, when set by a CAS that traces its own requests,
	// become the identity of the server-side trace (optional).
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// UpdateTask mutates an existing task's parameters; zero fields are left
// unchanged.
type UpdateTask struct {
	TaskID         string        `json:"task_id"`
	SamplingPeriod time.Duration `json:"sampling_period,omitempty"`
	SpatialDensity int           `json:"spatial_density,omitempty"`
	AreaRadiusM    float64       `json:"area_radius,omitempty"`
	End            time.Time     `json:"end_time,omitempty"`
}

// DeleteTask removes a task.
type DeleteTask struct {
	TaskID string `json:"task_id"`
}

// SensedData delivers one validated reading to the CAS.
type SensedData struct {
	TaskID   string          `json:"task_id"`
	DeviceID string          `json:"device_id"`
	Reading  sensors.Reading `json:"reading"`
	// TraceID/SpanID carry the delivery's trace context back to the
	// CAS (optional), closing the submit → delivery loop.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Encode marshals a payload into an envelope.
func Encode(t MsgType, seq uint64, payload interface{}) (Envelope, error) {
	var raw json.RawMessage
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			met.errEncode.Inc()
			return Envelope{}, fmt.Errorf("wire: marshal %s: %w", t, err)
		}
		raw = b
	}
	return Envelope{Type: t, Seq: seq, Payload: raw}, nil
}

// Decode unmarshals an envelope payload into out, honouring the payload
// encoding the envelope was framed with (JSON for v1 envelopes and
// JSON-fallback binary frames, wire-binary for v2 envelopes).
func Decode(env Envelope, out interface{}) error {
	if len(env.Payload) == 0 {
		met.errDecode.Inc()
		return fmt.Errorf("wire: %s: empty payload", env.Type)
	}
	if env.binPayload {
		return decodeBinaryPayload(env.Type, env.Payload, out)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		met.errDecode.Inc()
		return fmt.Errorf("wire: unmarshal %s: %w", env.Type, err)
	}
	return nil
}

// WriteFrame writes one envelope as a 4-byte big-endian length followed by
// its JSON encoding — the v1 framing.
func WriteFrame(w io.Writer, env Envelope) error {
	if env.binPayload {
		met.errEncode.Inc()
		return fmt.Errorf("wire: envelope holds a binary payload; re-encode for the json codec")
	}
	body, err := json.Marshal(env)
	if err != nil {
		met.errEncode.Inc()
		return fmt.Errorf("wire: marshal envelope: %w", err)
	}
	if len(body) > MaxMessageBytes {
		met.errFrame.Inc()
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		met.errIO.Inc()
		return fmt.Errorf("wire: write header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		met.errIO.Inc()
		return fmt.Errorf("wire: write body: %w", err)
	}
	met.bytesTx.Add(uint64(len(hdr) + len(body)))
	return nil
}

// ReadFrame reads one v1 envelope. The length prefix is validated
// against MaxMessageBytes before the payload buffer is allocated.
func ReadFrame(r io.Reader) (Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Envelope{}, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxMessageBytes {
		met.errFrame.Inc()
		return Envelope{}, fmt.Errorf("wire: bad frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		met.errIO.Inc()
		return Envelope{}, fmt.Errorf("wire: read body: %w", err)
	}
	met.bytesRx.Add(uint64(len(hdr)) + uint64(n))
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		met.errDecode.Inc()
		return Envelope{}, fmt.Errorf("wire: unmarshal envelope: %w", err)
	}
	if env.Type == "" {
		met.errDecode.Inc()
		return Envelope{}, fmt.Errorf("wire: envelope missing type")
	}
	return env, nil
}
