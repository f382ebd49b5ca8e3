package obs

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	var g idGen
	g.seed(1)
	id := g.traceID()
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("trace id %q: want 32 hex digits", s)
	}
	back, ok := ParseTraceID(s)
	if !ok || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", s, back, ok)
	}
	sp := g.spanID()
	if len(sp.String()) != 16 {
		t.Fatalf("span id %q: want 16 hex digits", sp.String())
	}
	back2, ok := ParseSpanID(sp.String())
	if !ok || back2 != sp {
		t.Fatalf("ParseSpanID round trip failed")
	}

	for _, bad := range []string{"", "zz", strings.Repeat("0", 32), strings.Repeat("g", 32), "abc"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
	if (TraceContext{}).Valid() {
		t.Error("zero context reports valid")
	}
	ctx := ParseTraceContext(s, sp.String())
	if !ctx.Valid() || ctx.Trace != id || ctx.Span != sp {
		t.Fatalf("ParseTraceContext = %+v", ctx)
	}
	// A malformed span ID degrades to trace-only context, not invalid.
	ctx = ParseTraceContext(s, "nope")
	if !ctx.Valid() || !ctx.Span.IsZero() {
		t.Fatalf("trace-only context = %+v", ctx)
	}
}

func TestIDGenUnique(t *testing.T) {
	var g idGen
	g.seed(seedFromClock())
	seen := make(map[TraceID]bool)
	for i := 0; i < 10_000; i++ {
		id := g.traceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID after %d draws", i)
		}
		seen[id] = true
	}
}

func TestTracerAssemblesTrace(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{Registry: reg})

	root := tr.StartTrace("submit", "")
	if !root.Sampled() {
		t.Fatal("default tracer must sample everything")
	}
	rootCtx := root.Context()
	if !rootCtx.Valid() {
		t.Fatal("root context invalid")
	}
	root.Finish()

	child := tr.StartSpan(rootCtx, "schedule", "west")
	grand := tr.StartSpan(child.Context(), "select", "west")
	grand.Finish()
	child.Finish()
	tr.RecordSpan(rootCtx, "upload", "", time.Now().Add(-10*time.Millisecond), time.Now(), "")

	if got := tr.ActiveCount(); got != 1 {
		t.Fatalf("ActiveCount = %d, want 1", got)
	}
	tr.Complete(rootCtx.Trace)
	if got := tr.ActiveCount(); got != 0 {
		t.Fatalf("ActiveCount after Complete = %d", got)
	}

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("Recent = %d traces, want 1", len(recent))
	}
	rec := recent[0]
	if rec.TraceID != rootCtx.Trace.String() || !rec.Complete || rec.Root != "submit" {
		t.Fatalf("trace record = %+v", rec)
	}
	byName := map[string]SpanRecord{}
	for _, s := range rec.Spans {
		byName[s.Name] = s
	}
	for _, name := range []string{"submit", "schedule", "select", "upload"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("trace missing span %q: %+v", name, rec.Spans)
		}
	}
	if byName["schedule"].ParentID != rootCtx.Span.String() {
		t.Errorf("schedule parent = %q, want root %q", byName["schedule"].ParentID, rootCtx.Span.String())
	}
	if byName["select"].ParentID != byName["schedule"].SpanID {
		t.Errorf("select parent = %q, want schedule %q", byName["select"].ParentID, byName["schedule"].SpanID)
	}
	if byName["schedule"].Region != "west" {
		t.Errorf("region not recorded: %+v", byName["schedule"])
	}

	// Every stage fed its histogram.
	for _, st := range []string{"submit", "schedule", "select", "upload"} {
		h := reg.Histogram("senseaid_stage_seconds", "", stageBuckets, Labels{"stage": st})
		if h.Count() != 1 {
			t.Errorf("stage %q histogram count = %d, want 1", st, h.Count())
		}
	}
	// Spans finishing after Complete still feed histograms, silently.
	tr.StartSpan(rootCtx, "schedule", "").Finish()
	h := reg.Histogram("senseaid_stage_seconds", "", stageBuckets, Labels{"stage": "schedule"})
	if h.Count() != 2 {
		t.Errorf("post-complete histogram count = %d, want 2", h.Count())
	}
	if len(tr.Recent()) != 1 {
		t.Error("post-complete span was retained")
	}
}

// TestTracerLateSpanJoinsCompletedTrace: a sampled span that finishes
// after its trace completed (a dispatch whose flush callback runs after
// the delivery) joins the retained record instead of pushing a second,
// incomplete record for the same trace that evicts a real one.
func TestTracerLateSpanJoinsCompletedTrace(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 2})
	root := tr.StartTrace("submit", "")
	root.Finish()
	late := tr.StartSpan(root.Context(), "dispatch", "")
	tr.Complete(root.Context().Trace)
	late.Finish()

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("ring holds %d records for one trace: %+v", len(recent), recent)
	}
	rec := recent[0]
	if !rec.Complete || rec.Root != "submit" || len(rec.Spans) != 2 || rec.Spans[1].Name != "dispatch" {
		t.Fatalf("late span did not join the completed record: %+v", rec)
	}

	// Once the trace has left the ring, a late span is dropped — unless
	// it failed, which is always retained.
	lost := tr.StartTrace("submit", "")
	lateOK := tr.StartSpan(lost.Context(), "dispatch", "")
	lateErr := tr.StartSpan(lost.Context(), "deliver", "")
	tr.Complete(lost.Context().Trace)
	for i := 0; i < 2; i++ {
		tr.Complete(tr.StartTrace("submit", "").Context().Trace)
	}
	lateOK.Finish()
	lateErr.FinishErr(errors.New("cas gone"))
	recent = tr.Recent()
	if recent[0].Root != "deliver" || recent[0].Complete || recent[1].Root != "submit" {
		t.Fatalf("late spans of an evicted trace: %+v", recent)
	}
}

func TestTracerUnsampled(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{Registry: reg, SampleRate: 0, SampleRateSet: true})

	root := tr.StartTrace("submit", "")
	if root.Sampled() {
		t.Fatal("rate-0 tracer sampled a trace")
	}
	root.Finish()
	tr.StartSpan(root.Context(), "schedule", "").Finish()
	tr.Complete(root.Context().Trace)

	if got := tr.Recent(); len(got) != 0 {
		t.Fatalf("unsampled trace retained: %+v", got)
	}
	// Histograms still populate.
	if h := reg.Histogram("senseaid_stage_seconds", "", stageBuckets, Labels{"stage": "submit"}); h.Count() != 1 {
		t.Errorf("unsampled submit histogram count = %d", h.Count())
	}
}

func TestTracerPromotesErrorsAndSlowOps(t *testing.T) {
	var sb strings.Builder
	logger := NewLogger(log.New(&sb, "", 0), LevelInfo)
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{
		Registry:      reg,
		SampleRate:    0,
		SampleRateSet: true,
		SlowThreshold: time.Nanosecond,
		Logger:        logger,
	})

	// A failed span of an unsampled trace is retained as a synthesized
	// single-span trace.
	root := tr.StartTrace("submit", "")
	sp := tr.StartSpan(root.Context(), "dispatch", "east")
	time.Sleep(time.Millisecond) // guarantee a nonzero duration past the 1ns threshold
	sp.FinishErr(errors.New("device gone"))

	recent := tr.Recent()
	if len(recent) == 0 {
		t.Fatal("error span not retained")
	}
	found := false
	for _, rec := range recent {
		for _, s := range rec.Spans {
			if s.Name == "dispatch" && s.Error == "device gone" && s.Slow {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("dispatch error span missing: %+v", recent)
	}
	if c := reg.Counter("senseaid_trace_slow_ops_total", "", nil); c.Value() == 0 {
		t.Error("slow-op counter not incremented")
	}
	if out := sb.String(); !strings.Contains(out, "slow op") || !strings.Contains(out, root.Context().Trace.String()) {
		t.Errorf("slow-op log line missing trace ID: %q", out)
	}

	// Negative threshold disables slow promotion.
	quiet := NewTracer(TracerConfig{SampleRate: 0, SampleRateSet: true, SlowThreshold: -1})
	quiet.StartTrace("submit", "").Finish()
	if len(quiet.Recent()) != 0 {
		t.Error("slow promotion ran with negative threshold")
	}
}

func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 4})
	var last TraceID
	for i := 0; i < 10; i++ {
		s := tr.StartTrace("submit", "")
		s.Finish()
		last = s.Context().Trace
		tr.Complete(last)
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recent))
	}
	if recent[0].TraceID != last.String() {
		t.Fatalf("Recent not newest-first: %+v", recent[0])
	}
}

func TestTracerMaxActiveEviction(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{Registry: reg, MaxActive: 2, RingSize: 8})
	a := tr.StartTrace("submit", "")
	b := tr.StartTrace("submit", "")
	c := tr.StartTrace("submit", "") // evicts a
	if got := tr.ActiveCount(); got != 2 {
		t.Fatalf("ActiveCount = %d, want 2", got)
	}
	recent := tr.Recent()
	if len(recent) != 1 || recent[0].TraceID != a.Context().Trace.String() || recent[0].Complete {
		t.Fatalf("evicted trace record = %+v", recent)
	}
	if v := reg.Counter("senseaid_traces_evicted_total", "", nil).Value(); v != 1 {
		t.Fatalf("evicted counter = %d", v)
	}
	_ = b
	_ = c
}

func TestTracerSpanCapPerTrace(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartTrace("submit", "")
	root.Finish()
	for i := 0; i < maxSpansPerTrace+10; i++ {
		tr.StartSpan(root.Context(), "schedule", "").Finish()
	}
	tr.Complete(root.Context().Trace)
	rec := tr.Recent()[0]
	if len(rec.Spans) != maxSpansPerTrace {
		t.Fatalf("span count = %d, want cap %d", len(rec.Spans), maxSpansPerTrace)
	}
	if rec.Dropped != 11 { // root + cap spans kept; 11 over
		t.Fatalf("dropped = %d, want 11", rec.Dropped)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	s := tr.StartTrace("submit", "")
	s.Finish()
	s.FinishErr(errors.New("x"))
	tr.StartSpan(TraceContext{}, "a", "").Finish()
	tr.RecordSpan(TraceContext{}, "a", "", time.Now(), time.Now(), "")
	tr.Complete(TraceID{})
	if tr.Recent() != nil || tr.ActiveCount() != 0 || tr.SlowThreshold() != 0 {
		t.Fatal("nil tracer misbehaved")
	}
	// Inert span from a valid tracer with an invalid parent.
	real := NewTracer(TracerConfig{})
	inert := real.StartSpan(TraceContext{}, "schedule", "")
	inert.Finish()
	if inert.Context().Valid() {
		t.Fatal("inert span has a context")
	}
}

func TestTimelineStore(t *testing.T) {
	ts := NewTimelineStore(2, 3)
	base := time.Now()
	ts.Note("task-1", "submitted", "2 requests", base)
	ts.Bind("task-1", "abc123")
	ts.Note("task-1", "scheduled", "task-1#0", base.Add(time.Millisecond))
	ts.Note("task-1", "selected", "dev-1", base.Add(2*time.Millisecond))
	ts.Note("task-1", "dispatched", "dev-1", base.Add(3*time.Millisecond)) // over cap

	tl, ok := ts.Get("task-1")
	if !ok {
		t.Fatal("task-1 missing")
	}
	if tl.TraceID != "abc123" {
		t.Errorf("trace binding lost: %+v", tl)
	}
	if len(tl.Events) != 3 || tl.Dropped != 1 {
		t.Fatalf("events = %d dropped = %d, want 3/1", len(tl.Events), tl.Dropped)
	}
	for i, want := range []string{"submitted", "scheduled", "selected"} {
		if tl.Events[i].Stage != want {
			t.Errorf("event %d = %q, want %q", i, tl.Events[i].Stage, want)
		}
	}

	// An event noted late (a flush outcome arriving after later stages)
	// lands at its time; equal times keep the order they were noted in.
	late := NewTimelineStore(0, 0)
	late.Note("t", "uploaded", "", base.Add(2*time.Millisecond))
	late.Note("t", "dispatched", "", base.Add(time.Millisecond))
	late.Note("t", "delivered", "", base.Add(2*time.Millisecond))
	lt, _ := late.Get("t")
	for i, want := range []string{"dispatched", "uploaded", "delivered"} {
		if lt.Events[i].Stage != want {
			t.Fatalf("late-noted timeline = %+v, want dispatched, uploaded, delivered", lt.Events)
		}
	}

	// Task eviction: capacity 2, oldest goes.
	ts.Note("task-2", "submitted", "", base)
	ts.Note("task-3", "submitted", "", base)
	if _, ok := ts.Get("task-1"); ok {
		t.Error("task-1 survived eviction")
	}
	ids := ts.Tasks()
	if len(ids) != 2 || ids[0] != "task-3" {
		t.Fatalf("Tasks = %v", ids)
	}

	// Nil store is inert.
	var nilTS *TimelineStore
	nilTS.Note("x", "y", "", base)
	nilTS.Bind("x", "t")
	if _, ok := nilTS.Get("x"); ok || nilTS.Tasks() != nil {
		t.Fatal("nil timeline store misbehaved")
	}
}

func TestTimelineConcurrent(t *testing.T) {
	ts := NewTimelineStore(8, 64)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				ts.Note(fmt.Sprintf("task-%d", i%16), "scheduled", "", time.Now())
				ts.Get(fmt.Sprintf("task-%d", (i+g)%16))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
