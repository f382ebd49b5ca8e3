package obs

import (
	"math"
	"sync"
	"time"
)

// Stage names used across the serving layers. One task's journey is
// submit → schedule → select → dispatch → upload → deliver; every stage
// feeds the senseaid_stage_seconds histogram whether or not the trace
// was sampled, so latency data stays complete at any sampling rate.
const (
	StageSubmit   = "submit"   // CAS task RPC handled by the frontend
	StageSchedule = "schedule" // one request's scheduling pass in the core
	StageSelect   = "select"   // device selection proper (child of schedule)
	StageDispatch = "dispatch" // schedule frame pushed to a device
	StageUpload   = "upload"   // dispatch decision until the reading arrives
	StageDeliver  = "deliver"  // validated reading pushed to the CAS
	// StageJournalAppend is not a step of a task's journey but a cost
	// every journaled step pays: one record encoded, written to the state
	// store and queued for the replicas. It has no span — a record belongs
	// to no one trace — only the histogram (see ObserveStage).
	StageJournalAppend = "journal_append"
)

// stageNames lists the known stages; unknown span names fold into the
// "other" series so the histogram family's label set stays bounded.
var stageNames = []string{StageSubmit, StageSchedule, StageSelect, StageDispatch, StageUpload, StageDeliver, StageJournalAppend}

// maxSpansPerTrace bounds one trace's span list; a runaway task (a
// campaign scheduling hundreds of rounds) keeps its earliest spans and
// counts the rest as dropped.
const maxSpansPerTrace = 128

// TracerConfig parameterises a Tracer. The zero value samples every
// trace, flags operations slower than 500ms, and keeps the last 128
// completed traces.
type TracerConfig struct {
	// Registry receives senseaid_stage_seconds and the trace counters;
	// nil disables metrics (spans still assemble into traces).
	Registry *Registry
	// SampleRate is the head-sampling probability in [0, 1]. Zero or
	// negative samples nothing; values >= 1 sample everything. Errors
	// and slow operations are always retained regardless of the rate.
	SampleRate float64
	// SampleRateSet distinguishes an explicit SampleRate of 0 from the
	// zero value (which defaults to 1).
	SampleRateSet bool
	// SlowThreshold promotes any span at least this slow into the
	// retained set and emits a log line. Zero means the 500ms default;
	// negative disables slow-op handling.
	SlowThreshold time.Duration
	// RingSize is how many finished traces to retain for /traces
	// (default 128).
	RingSize int
	// MaxActive bounds in-flight sampled traces; the oldest is evicted
	// (retained incomplete) when the table is full (default 512).
	MaxActive int
	// Logger receives slow-op lines; nil discards them.
	Logger *Logger
}

// DefaultSlowThreshold is the slow-op promotion cutoff when
// TracerConfig.SlowThreshold is zero.
const DefaultSlowThreshold = 500 * time.Millisecond

// SpanRecord is one finished operation inside a retained trace.
type SpanRecord struct {
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Region   string    `json:"region,omitempty"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"duration_seconds"`
	Error    string    `json:"error,omitempty"`
	Slow     bool      `json:"slow,omitempty"`
}

// TraceRecord is one retained trace: the root identity plus every span
// that finished while the trace was active.
type TraceRecord struct {
	TraceID string    `json:"trace_id"`
	Root    string    `json:"root,omitempty"`
	Start   time.Time `json:"start"`
	// Complete is true when the trace was finalised by Complete (the
	// task reached delivery); false for evictions and synthesized
	// slow/error traces.
	Complete bool `json:"complete"`
	// Dropped counts spans discarded after maxSpansPerTrace.
	Dropped int          `json:"dropped_spans,omitempty"`
	Spans   []SpanRecord `json:"spans"`
}

// activeTrace is a sampled trace still assembling spans.
type activeTrace struct {
	id      TraceID
	root    string
	start   time.Time
	spans   []SpanRecord
	dropped int
}

// Tracer assembles spans into traces with head sampling and a bounded
// ring of retained results. All methods are safe for concurrent use and
// safe on a nil receiver (every call becomes a no-op), so serving
// layers hold one unconditionally.
type Tracer struct {
	log       *Logger
	slow      time.Duration
	threshold uint64 // sample iff next random uint64 < threshold
	ringCap   int
	maxActive int
	ids       idGen

	stageHist map[string]*Histogram // read-only after construction
	otherHist *Histogram

	sampledTotal   *Counter
	completedTotal *Counter
	slowOpsTotal   *Counter
	evictedTotal   *Counter

	mu     sync.Mutex
	active map[TraceID]*activeTrace
	order  []TraceID // active-trace insertion order, oldest first
	ring   []TraceRecord
	next   int // ring write cursor
	filled int
}

// stageBuckets spans 10µs to ~40s: selection passes sit at the bottom,
// device upload round-trips at the top.
var stageBuckets = ExponentialBuckets(10e-6, 4, 12)

// NewTracer builds a tracer from cfg (see TracerConfig for defaults).
func NewTracer(cfg TracerConfig) *Tracer {
	t := &Tracer{
		log:       cfg.Logger,
		slow:      cfg.SlowThreshold,
		ringCap:   cfg.RingSize,
		maxActive: cfg.MaxActive,
		active:    make(map[TraceID]*activeTrace),
	}
	if t.slow == 0 {
		t.slow = DefaultSlowThreshold
	}
	if t.ringCap <= 0 {
		t.ringCap = 128
	}
	if t.maxActive <= 0 {
		t.maxActive = 512
	}
	t.ring = make([]TraceRecord, t.ringCap)
	rate := cfg.SampleRate
	if rate == 0 && !cfg.SampleRateSet {
		rate = 1
	}
	switch {
	case rate <= 0:
		t.threshold = 0
	case rate >= 1:
		t.threshold = math.MaxUint64
	default:
		t.threshold = uint64(rate * float64(math.MaxUint64))
	}
	t.ids.seed(seedFromClock())

	if reg := cfg.Registry; reg != nil {
		const hist = "senseaid_stage_seconds"
		const help = "Latency of each task-processing stage, by stage name."
		t.stageHist = make(map[string]*Histogram, len(stageNames))
		for _, st := range stageNames {
			t.stageHist[st] = reg.Histogram(hist, help, stageBuckets, Labels{"stage": st})
		}
		t.otherHist = reg.Histogram(hist, help, stageBuckets, Labels{"stage": "other"})
		t.sampledTotal = reg.Counter("senseaid_traces_sampled_total",
			"Traces selected by head sampling.", nil)
		t.completedTotal = reg.Counter("senseaid_traces_completed_total",
			"Traces finalised end-to-end (task reached delivery).", nil)
		t.slowOpsTotal = reg.Counter("senseaid_trace_slow_ops_total",
			"Spans promoted into the retained set for exceeding the slow threshold.", nil)
		t.evictedTotal = reg.Counter("senseaid_traces_evicted_total",
			"Active traces evicted incomplete to bound memory.", nil)
	}
	return t
}

// SlowThreshold returns the slow-op promotion cutoff.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.slow
}

// Span is one in-flight operation. It is a plain value — starting and
// finishing an unsampled span performs no heap allocation (gated by
// BenchmarkSpanUnsampled). The zero Span is inert: Finish is a no-op.
type Span struct {
	t       *Tracer
	ctx     TraceContext
	parent  SpanID
	name    string
	region  string
	start   time.Time
	sampled bool
}

// Context returns the span's propagation context (its trace ID and its
// own span ID), for stamping onto outgoing wire frames or child spans.
func (s Span) Context() TraceContext { return s.ctx }

// Sampled reports whether the span's trace is being retained.
func (s Span) Sampled() bool { return s.sampled }

// StartTrace mints a new trace rooted at a span called name and makes
// the head-sampling decision for the whole trace.
func (t *Tracer) StartTrace(name, region string) Span {
	if t == nil {
		return Span{}
	}
	ctx := TraceContext{Trace: t.ids.traceID(), Span: t.ids.spanID()}
	return t.startRoot(ctx, SpanID{}, name, region)
}

// StartTraceFrom adopts a caller-supplied context (a CAS that already
// traces its own request) as the trace identity and roots a span under
// it. An invalid parent falls back to StartTrace.
func (t *Tracer) StartTraceFrom(parent TraceContext, name, region string) Span {
	if t == nil {
		return Span{}
	}
	if !parent.Valid() {
		return t.StartTrace(name, region)
	}
	ctx := TraceContext{Trace: parent.Trace, Span: t.ids.spanID()}
	return t.startRoot(ctx, parent.Span, name, region)
}

func (t *Tracer) startRoot(ctx TraceContext, parent SpanID, name, region string) Span {
	s := Span{t: t, ctx: ctx, parent: parent, name: name, region: region, start: time.Now()}
	if t.threshold == math.MaxUint64 || (t.threshold > 0 && t.ids.next() < t.threshold) {
		s.sampled = true
		t.registerActive(ctx.Trace, name, s.start)
		if t.sampledTotal != nil {
			t.sampledTotal.Inc()
		}
	}
	return s
}

// StartSpan opens a child span under parent. If the parent context is
// invalid (no trace on the request) the span is inert; if the trace is
// not in the active table the span still times its stage histogram but
// is not retained (unless slow or failed).
func (t *Tracer) StartSpan(parent TraceContext, name, region string) Span {
	if t == nil || !parent.Valid() {
		return Span{}
	}
	s := Span{
		t:      t,
		ctx:    TraceContext{Trace: parent.Trace, Span: t.ids.spanID()},
		parent: parent.Span,
		name:   name,
		region: region,
		start:  time.Now(),
	}
	t.mu.Lock()
	_, s.sampled = t.active[parent.Trace]
	t.mu.Unlock()
	return s
}

// Finish closes the span successfully.
func (s Span) Finish() { s.finish("") }

// FinishErr closes the span with err (nil behaves like Finish). Failed
// spans are always retained, sampled or not.
func (s Span) FinishErr(err error) {
	if err == nil {
		s.finish("")
		return
	}
	s.finish(err.Error())
}

func (s Span) finish(errMsg string) {
	t := s.t
	if t == nil {
		return
	}
	d := time.Since(s.start)
	t.ObserveStage(s.name, d)
	slow := t.slow > 0 && d >= t.slow
	if errMsg == "" && !slow && !s.sampled {
		return // the zero-allocation fast path
	}
	t.record(s.ctx, s.parent, s.name, s.region, s.start, d, errMsg, slow)
}

// RecordSpan retains an operation measured retroactively — the upload
// stage, whose start (the dispatch decision) and end (the reading's
// arrival) happen in different calls — with the same sampling, slow-op,
// and histogram behaviour as a started span.
func (t *Tracer) RecordSpan(parent TraceContext, name, region string, start, end time.Time, errMsg string) {
	if t == nil || !parent.Valid() {
		return
	}
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	t.ObserveStage(name, d)
	slow := t.slow > 0 && d >= t.slow
	t.mu.Lock()
	_, sampled := t.active[parent.Trace]
	t.mu.Unlock()
	if errMsg == "" && !slow && !sampled {
		return
	}
	ctx := TraceContext{Trace: parent.Trace, Span: t.ids.spanID()}
	t.record(ctx, parent.Span, name, region, start, d, errMsg, slow)
}

// Complete finalises a trace: its assembled spans move from the active
// table into the retained ring. A span started before Complete and
// finishing after it joins the retained record while that is still in
// the ring; spans started afterwards only feed histograms (unless slow
// or failed).
func (t *Tracer) Complete(id TraceID) {
	if t == nil || id.IsZero() {
		return
	}
	t.mu.Lock()
	at, ok := t.active[id]
	if ok {
		t.dropActiveLocked(id)
		t.pushLocked(t.finalize(at, true))
	}
	t.mu.Unlock()
	if ok && t.completedTotal != nil {
		t.completedTotal.Inc()
	}
}

// Recent returns retained traces, newest first.
func (t *Tracer) Recent() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRecord, 0, t.filled)
	for i := 0; i < t.filled; i++ {
		out = append(out, t.ring[(t.next-1-i+t.ringCap*2)%t.ringCap])
	}
	return out
}

// ActiveCount returns the number of in-flight sampled traces.
func (t *Tracer) ActiveCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}

// ObserveStage feeds a stage's senseaid_stage_seconds histogram; unknown
// names fold into the "other" series. Every finished span comes through
// here; work that is timed but is no trace's span (a journal append)
// calls it directly. Alloc-free (the map is read-only after
// construction) and safe on a nil Tracer.
func (t *Tracer) ObserveStage(name string, d time.Duration) {
	if t == nil || t.stageHist == nil {
		return
	}
	h, ok := t.stageHist[name]
	if !ok {
		h = t.otherHist
	}
	h.ObserveDuration(d)
}

// record appends a finished span to its trace: the active one, or — for
// a span that finishes after its trace completed or was evicted (a
// dispatch whose flush callback runs after the delivery) — the retained
// record while it is still in the ring. Only a slow or failed span whose
// trace is in neither place gets a synthesized single-span record.
func (t *Tracer) record(ctx TraceContext, parent SpanID, name, region string, start time.Time, d time.Duration, errMsg string, slow bool) {
	rec := SpanRecord{
		SpanID:   ctx.Span.String(),
		ParentID: parent.String(),
		Name:     name,
		Region:   region,
		Start:    start,
		Duration: d.Seconds(),
		Error:    errMsg,
		Slow:     slow,
	}
	t.mu.Lock()
	if at, ok := t.active[ctx.Trace]; ok {
		if len(at.spans) < maxSpansPerTrace {
			at.spans = append(at.spans, rec)
		} else {
			at.dropped++
		}
	} else if tr := t.retainedLocked(ctx.Trace); tr != nil {
		if len(tr.Spans) < maxSpansPerTrace {
			// Copy on append: Recent hands out records sharing this array.
			tr.Spans = append(tr.Spans[:len(tr.Spans):len(tr.Spans)], rec)
		} else {
			tr.Dropped++
		}
	} else if errMsg != "" || slow {
		t.pushLocked(TraceRecord{
			TraceID: ctx.Trace.String(),
			Root:    name,
			Start:   start,
			Spans:   []SpanRecord{rec},
		})
	}
	t.mu.Unlock()
	if slow {
		if t.slowOpsTotal != nil {
			t.slowOpsTotal.Inc()
		}
		t.log.Infof("obs: slow op stage=%s dur=%s trace=%s span=%s region=%s err=%q",
			name, d, ctx.Trace, ctx.Span, region, errMsg)
	}
}

// registerActive inserts a sampled trace, evicting the oldest active
// trace (retained incomplete) when the table is full.
func (t *Tracer) registerActive(id TraceID, root string, start time.Time) {
	t.mu.Lock()
	var evicted *activeTrace
	if len(t.active) >= t.maxActive && len(t.order) > 0 {
		old := t.order[0]
		evicted = t.active[old]
		t.dropActiveLocked(old)
		if evicted != nil {
			t.pushLocked(t.finalize(evicted, false))
		}
	}
	t.active[id] = &activeTrace{id: id, root: root, start: start}
	t.order = append(t.order, id)
	t.mu.Unlock()
	if evicted != nil && t.evictedTotal != nil {
		t.evictedTotal.Inc()
	}
}

func (t *Tracer) dropActiveLocked(id TraceID) {
	delete(t.active, id)
	for i, o := range t.order {
		if o == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

func (t *Tracer) finalize(at *activeTrace, complete bool) TraceRecord {
	return TraceRecord{
		TraceID:  at.id.String(),
		Root:     at.root,
		Start:    at.start,
		Complete: complete,
		Dropped:  at.dropped,
		Spans:    at.spans,
	}
}

// retainedLocked finds the newest ring record of trace id, or nil.
func (t *Tracer) retainedLocked(id TraceID) *TraceRecord {
	want := id.String()
	for i := 1; i <= t.filled; i++ {
		if tr := &t.ring[(t.next-i+t.ringCap)%t.ringCap]; tr.TraceID == want {
			return tr
		}
	}
	return nil
}

func (t *Tracer) pushLocked(rec TraceRecord) {
	t.ring[t.next] = rec
	t.next = (t.next + 1) % t.ringCap
	if t.filled < t.ringCap {
		t.filled++
	}
}
