package core

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"senseaid/internal/power"
	"senseaid/internal/sensors"
)

// This file is JournalRecord's JSON codec. The journal is the busiest
// writer in the server (one record per dispatch, reading, outcome and
// device move) and all of recovery's decode cost, so the record writes
// and reads itself instead of going through encoding/json's reflection.
// There is still exactly one format: AppendJSON's output is byte-for-byte
// what encoding/json produces for the same struct (journalRecordPlain
// below is that oracle, and FuzzJournalRecordCodec holds the two
// together), and UnmarshalJSON parses only that canonical form itself,
// handing everything else to encoding/json. Old journals replay,
// standbys receive the bytes they always did, and a field added to
// JournalRecord without a matching line here fails the fuzz test instead
// of silently vanishing from the journal.

// journalRecordPlain is JournalRecord without its methods: what
// encoding/json sees when the codec defers to it.
type journalRecordPlain JournalRecord

// AppendJSON appends the record's journal encoding to dst — the form
// internal/persist frames without validating it again. The ops that
// make up the steady state are written by hand; a Task (submit,
// update_task) is cold and goes through encoding/json, as does any
// record holding a value encoding/json would refuse (NaN, a year past
// 9999), so the refusal is encoding/json's own. On error dst is
// returned unchanged.
func (r JournalRecord) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonWriter{b: dst}
	w.record(&r)
	if !w.refer {
		return w.b, nil
	}
	plain := journalRecordPlain(r) // a copy, so that r itself stays off the heap
	b, err := json.Marshal(&plain)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// MarshalJSON implements json.Marshaler through AppendJSON, so a record
// has one encoding whichever way it is asked for.
func (r JournalRecord) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, 256))
}

// jsonWriter appends encoding/json-identical JSON to b. refer is set
// when a value came up that only encoding/json may judge; the caller
// then discards b's tail and defers the whole record to it.
type jsonWriter struct {
	b     []byte
	refer bool
}

func (w *jsonWriter) record(r *JournalRecord) {
	w.raw(`{"n":`)
	w.b = strconv.AppendUint(w.b, r.Seq, 10)
	w.raw(`,"op":`)
	w.str(r.Op)
	// A struct is never "empty" to encoding/json, so omitempty on At does
	// nothing: the zero time is always written.
	w.raw(`,"at":`)
	w.time(r.At)
	if r.Task != nil {
		b, err := json.Marshal(r.Task)
		if err != nil {
			w.refer = true
			return
		}
		w.raw(`,"task":`)
		w.b = append(w.b, b...)
	}
	if r.NextTask != 0 {
		w.raw(`,"next_task":`)
		w.int(r.NextTask)
	}
	if r.TaskID != "" {
		w.raw(`,"task_id":`)
		w.str(string(r.TaskID))
	}
	if d := r.Device; d != nil {
		w.raw(`,"device":{"id":`)
		w.str(d.ID)
		w.raw(`,"position":{"lat":`)
		w.float(d.Position.Lat)
		w.raw(`,"lon":`)
		w.float(d.Position.Lon)
		w.raw(`},"battery_pct":`)
		w.float(d.BatteryPct)
		w.raw(`,"energy_spent_j":`)
		w.float(d.EnergySpentJ)
		w.raw(`,"times_used":`)
		w.int(d.TimesUsed)
		w.raw(`,"last_comm":`)
		w.time(d.LastComm)
		if d.Sensors == nil {
			w.raw(`,"sensors":null`)
		} else {
			w.raw(`,"sensors":[`)
			for i, s := range d.Sensors {
				if i > 0 {
					w.raw(`,`)
				}
				w.int(int(s))
			}
			w.raw(`]`)
		}
		if d.DeviceType != "" {
			w.raw(`,"device_type":`)
			w.str(d.DeviceType)
		}
		w.raw(`,"budget":`)
		w.budget(&d.Budget)
		if d.Responsive {
			w.raw(`,"responsive":true,"reliability":`)
		} else {
			w.raw(`,"responsive":false,"reliability":`)
		}
		w.float(d.Reliability)
		w.raw(`}`)
	}
	if r.DeviceID != "" {
		w.raw(`,"device_id":`)
		w.str(r.DeviceID)
	}
	if len(r.Devices) > 0 {
		w.raw(`,"devices":[`)
		for i, id := range r.Devices {
			if i > 0 {
				w.raw(`,`)
			}
			w.str(id)
		}
		w.raw(`]`)
	}
	if r.Budget != nil {
		w.raw(`,"budget":`)
		w.budget(r.Budget)
	}
	if r.Joules != 0 {
		w.raw(`,"joules":`)
		w.float(r.Joules)
	}
	if q := r.Req; q != nil {
		w.raw(`,"req":{"task":`)
		w.str(string(q.TaskID))
		w.raw(`,"seq":`)
		w.int(q.Seq)
		w.raw(`,"due":`)
		w.time(q.Due)
		w.raw(`,"deadline":`)
		w.time(q.Deadline)
		w.raw(`}`)
	}
	if r.ReqID != "" {
		w.raw(`,"req_id":`)
		w.str(r.ReqID)
	}
	if r.Value != 0 {
		w.raw(`,"value":`)
		w.float(r.Value)
	}
	if r.From != "" {
		w.raw(`,"from":`)
		w.str(r.From)
	}
	if r.Outcome != 0 {
		w.raw(`,"outcome":`)
		w.int(r.Outcome)
	}
	w.raw(`}`)
}

// budget writes a power.Budget, which carries no field tags.
func (w *jsonWriter) budget(b *power.Budget) {
	w.raw(`{"TotalJ":`)
	w.float(b.TotalJ)
	w.raw(`,"CriticalBatteryPct":`)
	w.float(b.CriticalBatteryPct)
	w.raw(`}`)
}

func (w *jsonWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *jsonWriter) int(n int) { w.b = strconv.AppendInt(w.b, int64(n), 10) }

// zeroTimeJSON is the zero time.Time as the journal carries it — on most
// records (receive, outcome, miss, every device op), which is why both
// directions short-cut it.
const zeroTimeJSON = `"0001-01-01T00:00:00Z"`

// time writes t as time.Time.MarshalJSON does: RFC 3339 with
// nanoseconds, quoted. MarshalJSON refuses a year outside [0,9999] and a
// zone offset of a day or more; the two tests below are its own, made on
// the formatted text.
func (w *jsonWriter) time(t time.Time) {
	if t == (time.Time{}) {
		w.raw(zeroTimeJSON)
		return
	}
	w.raw(`"`)
	n0 := len(w.b)
	w.b = t.AppendFormat(w.b, time.RFC3339Nano)
	if w.b[n0+len("9999")] != '-' {
		w.refer = true
	}
	if w.b[len(w.b)-1] != 'Z' {
		z := w.b[len(w.b)-len("+07:00"):]
		if c := z[0]; ('0' <= c && c <= '9') || 10*(z[1]-'0')+(z[2]-'0') >= 24 {
			w.refer = true
		}
	}
	w.raw(`"`)
}

// float writes f as encoding/json does (ES6 number-to-string: shortest
// digits, exponent form only below 1e-6 or from 1e21, exponent unpadded).
// NaN and the infinities have no JSON form. Battery levels, budgets and
// energies are mostly whole numbers: below 2^53 those print as their
// integer digits with no shortest-digits search (-0 prints "-0").
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.refer = true
		return
	}
	if -(1<<53) < f && f < 1<<53 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			w.b = strconv.AppendInt(w.b, i, 10)
			return
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// jsonPlain marks the ASCII bytes that stand for themselves inside a
// JSON string under encoding/json's default (HTML-safe) escaping.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// str writes s quoted and escaped exactly as json.Marshal does: control
// characters, quote, backslash and the HTML-sensitive <, >, & escaped,
// invalid UTF-8 replaced by U+FFFD, U+2028 and U+2029 escaped,
// everything else verbatim.
func (w *jsonWriter) str(s string) {
	dst := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonPlain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case c == 0x2028 || c == 0x2029: // line and paragraph separator
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	w.b = append(dst, '"')
}

// UnmarshalJSON implements json.Unmarshaler. A zero record reading the
// canonical form — what AppendJSON writes: these keys, this order, no
// whitespace, no escapes — is filled by the hand parser; anything else
// (a Task, a hand-edited or foreign record, a target that already holds
// data and so wants encoding/json's merge semantics) is decoded by
// encoding/json. The parser accepts only inputs on which the two agree,
// so there is no second grammar to keep in step.
func (r *JournalRecord) UnmarshalJSON(b []byte) error {
	if r.isZero() {
		d := jsonCursor{b: b}
		if d.record(r) {
			return nil
		}
		*r = JournalRecord{}
	}
	return json.Unmarshal(b, (*journalRecordPlain)(r))
}

func (r *JournalRecord) isZero() bool {
	return r.Seq == 0 && r.Op == "" && r.At == (time.Time{}) && r.Task == nil &&
		r.NextTask == 0 && r.TaskID == "" && r.Device == nil && r.DeviceID == "" &&
		r.Devices == nil && r.Budget == nil && r.Joules == 0 && r.Req == nil &&
		r.ReqID == "" && r.Value == 0 && r.From == "" && r.Outcome == 0
}

// jsonCursor walks canonical journal JSON. Every method reports whether
// the input matched; the first mismatch abandons the fast path.
type jsonCursor struct {
	b []byte
	i int
}

// record parses one whole canonical record. A "task" key (submit,
// update_task) matches nothing below and falls out at the closing brace.
func (d *jsonCursor) record(r *JournalRecord) bool {
	if !(d.has(`{"n":`) && d.uint(&r.Seq) && d.has(`,"op":`) && d.op(&r.Op) && d.has(`,"at":`) && d.time(&r.At)) {
		return false
	}
	if d.key(`,"next_task":`) && !d.int(&r.NextTask) {
		return false
	}
	if d.key(`,"task_id":`) && !d.str((*string)(&r.TaskID)) {
		return false
	}
	if d.key(`,"device":`) {
		r.Device = new(DeviceState)
		if !d.device(r.Device) {
			return false
		}
	}
	if d.key(`,"device_id":`) && !d.str(&r.DeviceID) {
		return false
	}
	if d.key(`,"devices":[`) {
		r.Devices = make([]string, 0, d.countStrings())
		for {
			var id string
			if !d.str(&id) {
				return false
			}
			r.Devices = append(r.Devices, id)
			if !d.has(`,`) {
				break
			}
		}
		if !d.has(`]`) {
			return false
		}
	}
	if d.key(`,"budget":`) {
		r.Budget = new(power.Budget)
		if !d.budget(r.Budget) {
			return false
		}
	}
	if d.key(`,"joules":`) && !d.float(&r.Joules) {
		return false
	}
	if d.key(`,"req":`) {
		q := new(RequestRef)
		r.Req = q
		if !(d.has(`{"task":`) && d.str((*string)(&q.TaskID)) && d.has(`,"seq":`) && d.int(&q.Seq) &&
			d.has(`,"due":`) && d.time(&q.Due) && d.has(`,"deadline":`) && d.time(&q.Deadline) && d.has(`}`)) {
			return false
		}
	}
	if d.key(`,"req_id":`) && !d.str(&r.ReqID) {
		return false
	}
	if d.key(`,"value":`) && !d.float(&r.Value) {
		return false
	}
	if d.key(`,"from":`) && !d.str(&r.From) {
		return false
	}
	if d.key(`,"outcome":`) && !d.int(&r.Outcome) {
		return false
	}
	return d.has(`}`) && d.i == len(d.b)
}

func (d *jsonCursor) device(v *DeviceState) bool {
	if !(d.has(`{"id":`) && d.str(&v.ID) &&
		d.has(`,"position":{"lat":`) && d.float(&v.Position.Lat) && d.has(`,"lon":`) && d.float(&v.Position.Lon) &&
		d.has(`},"battery_pct":`) && d.float(&v.BatteryPct) &&
		d.has(`,"energy_spent_j":`) && d.float(&v.EnergySpentJ) &&
		d.has(`,"times_used":`) && d.int(&v.TimesUsed) &&
		d.has(`,"last_comm":`) && d.time(&v.LastComm) &&
		d.has(`,"sensors":`)) {
		return false
	}
	switch {
	case d.has(`null`):
	case d.has(`[]`):
		v.Sensors = []sensors.Type{}
	case d.has(`[`):
		for {
			var s int
			if !d.int(&s) {
				return false
			}
			v.Sensors = append(v.Sensors, sensors.Type(s))
			if !d.has(`,`) {
				break
			}
		}
		if !d.has(`]`) {
			return false
		}
	default:
		return false
	}
	if d.has(`,"device_type":`) && !d.str(&v.DeviceType) {
		return false
	}
	if !(d.has(`,"budget":`) && d.budget(&v.Budget)) {
		return false
	}
	switch {
	case d.has(`,"responsive":true`):
		v.Responsive = true
	case d.has(`,"responsive":false`):
	default:
		return false
	}
	return d.has(`,"reliability":`) && d.float(&v.Reliability) && d.has(`}`)
}

func (d *jsonCursor) budget(v *power.Budget) bool {
	return d.has(`{"TotalJ":`) && d.float(&v.TotalJ) &&
		d.has(`,"CriticalBatteryPct":`) && d.float(&v.CriticalBatteryPct) && d.has(`}`)
}

// key is has for an optional member's `,"name":`. A record holds two or
// three of the dozen it is asked about, so the name's first letter is
// looked at before the whole of it is compared.
func (d *jsonCursor) key(s string) bool {
	return d.i+2 < len(d.b) && d.b[d.i+2] == s[2] && d.has(s)
}

// has consumes s if it comes next.
func (d *jsonCursor) has(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// strBytes consumes a quoted string that needs no unescaping and returns
// its contents: no backslash, no control character, valid UTF-8 —
// exactly the strings encoding/json would return unchanged.
func (d *jsonCursor) strBytes() ([]byte, bool) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, false
	}
	start := d.i + 1
	ascii := true
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[start:j]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			d.i = j + 1
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (d *jsonCursor) str(v *string) bool {
	s, ok := d.strBytes()
	if ok {
		*v = string(s)
	}
	return ok
}

// countStrings counts the strings of the array the cursor stands in,
// without consuming it, so the slice is allocated once. Only a capacity
// hint: an array the parser goes on to refuse may be miscounted.
func (d *jsonCursor) countStrings() int {
	n, inString := 0, false
	for _, c := range d.b[d.i:] {
		if c == '"' {
			if inString = !inString; inString {
				n++
			}
		} else if c == ']' && !inString {
			break
		}
	}
	return n
}

// journalOps lists the grammar's op names, commonest first, so decoding
// a record reuses the constant instead of allocating its op string.
var journalOps = [...]string{
	opReceive, opOutcome, opDispatch, opRestore, opDeregister, opRegister,
	opMiss, opEnergy, opPrefs, opWaitlist, opReqExpired, opDispatchFail,
	opReject, opResetWindow, opDeleteTask,
}

// op is str for the Op field.
func (d *jsonCursor) op(v *string) bool {
	s, ok := d.strBytes()
	if !ok {
		return false
	}
	for _, name := range journalOps {
		if string(s) == name {
			*v = name
			return true
		}
	}
	*v = string(s)
	return true
}

// time consumes a quoted timestamp through time.Time's own UnmarshalJSON,
// the function encoding/json would call with the same bytes.
func (d *jsonCursor) time(v *time.Time) bool {
	if d.has(zeroTimeJSON) {
		return true
	}
	start := d.i
	if _, ok := d.strBytes(); !ok {
		return false
	}
	return v.UnmarshalJSON(d.b[start:d.i]) == nil
}

// skipDigits returns the index after the run of decimal digits at j.
func (d *jsonCursor) skipDigits(j int) int {
	for j < len(d.b) && d.b[j]-'0' <= 9 {
		j++
	}
	return j
}

// uint consumes a non-negative integer: digits with no leading zero and
// nothing that would make it a fraction or exponent (which an integer
// field refuses). At most 18 digits, so it cannot overflow; longer ones
// are rare enough to leave to encoding/json.
func (d *jsonCursor) uint(v *uint64) bool {
	end := d.skipDigits(d.i)
	w := end - d.i
	if w == 0 || w > 18 || (w > 1 && d.b[d.i] == '0') {
		return false
	}
	if end < len(d.b) && (d.b[end] == '.' || d.b[end]|0x20 == 'e') {
		return false
	}
	var n uint64
	for _, c := range d.b[d.i:end] {
		n = n*10 + uint64(c-'0')
	}
	*v, d.i = n, end
	return true
}

func (d *jsonCursor) int(v *int) bool {
	neg := d.has(`-`)
	var n uint64
	if !d.uint(&n) || (neg && n == 0) {
		return false // "-0" is a valid integer, but nothing writes it
	}
	if neg {
		*v = -int(n)
	} else {
		*v = int(n)
	}
	return true
}

// float consumes a JSON number and converts it with strconv.ParseFloat,
// as encoding/json does.
func (d *jsonCursor) float(v *float64) bool {
	j := d.i
	if j < len(d.b) && d.b[j] == '-' {
		j++
	}
	end := d.skipDigits(j)
	if end == j || (end-j > 1 && d.b[j] == '0') {
		return false
	}
	if end < len(d.b) && d.b[end] == '.' {
		j, end = end+1, d.skipDigits(end+1)
		if end == j {
			return false
		}
	}
	if end < len(d.b) && d.b[end]|0x20 == 'e' {
		j = end + 1
		if j < len(d.b) && (d.b[j] == '+' || d.b[j] == '-') {
			j++
		}
		if end = d.skipDigits(j); end == j {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(d.b[d.i:end]), 64)
	if err != nil {
		return false
	}
	*v, d.i = f, end
	return true
}
