package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"senseaid/internal/gitstamp"
)

// benchTracer builds a tracer with metrics attached (the production
// shape: every span finish feeds a stage histogram) at the given rate.
func benchTracer(rate float64) *Tracer {
	return NewTracer(TracerConfig{
		Registry:      NewRegistry(),
		SampleRate:    rate,
		SampleRateSet: true,
	})
}

// BenchmarkSpanUnsampled measures the fast path every request pays when
// its trace lost the sampling coin flip: start a child span, finish it,
// observe the stage histogram. The gate in TestRecordObsBench requires
// this path to be allocation-free.
func BenchmarkSpanUnsampled(b *testing.B) {
	tr := benchTracer(0)
	root := tr.StartTrace("submit", "")
	ctx := root.Context()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.StartSpan(ctx, "schedule", "").Finish()
	}
}

// BenchmarkSpanSampled measures the retained path: the span is appended
// to its active trace under the tracer lock. Allocations are expected
// here (span records, ID hex) — the bench exists to keep the cost in
// view, not to forbid it.
func BenchmarkSpanSampled(b *testing.B) {
	tr := benchTracer(1)
	root := tr.StartTrace("submit", "")
	ctx := root.Context()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.StartSpan(ctx, "schedule", "").Finish()
	}
}

// BenchmarkStartTraceUnsampled measures minting a trace that loses the
// sampling decision — the per-submit cost at low sample rates.
func BenchmarkStartTraceUnsampled(b *testing.B) {
	tr := benchTracer(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.StartTrace("submit", "").Finish()
	}
}

// timelineStore is what the held-bytes measurement fills: a
// TimelineStore, or the slice store it replaced.
type timelineStore interface {
	Bind(task, traceID string)
	Note(task, stage, detail string, at time.Time)
}

// heldBytesPerEvent fills every timeline of a default-sized store to its
// event cap and returns the heap the events added, per event. The
// timelines exist before the measurement starts and the details are
// shared strings, so what is counted is the events' own storage.
func heldBytesPerEvent(ts timelineStore) float64 {
	const tasks, events = 256, 512
	ids := make([]string, tasks)
	for i := range ids {
		ids[i] = fmt.Sprintf("task-%d", i)
		ts.Bind(ids[i], "00112233445566778899aabbccddeeff")
	}
	base := time.Date(2026, 10, 17, 12, 0, 0, 0, time.Local)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for e := 0; e < events; e++ {
		for i, id := range ids {
			ts.Note(id, timelineStages[(i+e)%len(timelineStages)], "dev-1", base.Add(time.Duration(e)*time.Millisecond))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(ts)
	return float64(int64(ms.HeapAlloc)-int64(before)) / (tasks * events)
}

// obsBenchRecord is one measured case in BENCH_obs.json.
type obsBenchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// TestRecordObsBench runs the span-path benchmarks and writes
// BENCH_obs.json so the tracing overhead trajectory is recorded in CI.
// Gated on SENSEAID_BENCH_OUT (ci.sh sets it); besides recording, it
// FAILS when the unsampled span start/finish path allocates at all —
// that path runs on every request at production sample rates, so any
// allocation there is a regression — or when a full timeline store
// holds more than 40 bytes per event (DESIGN.md §7).
func TestRecordObsBench(t *testing.T) {
	out := os.Getenv("SENSEAID_BENCH_OUT")
	if out == "" {
		t.Skip("SENSEAID_BENCH_OUT not set; benchmark recording runs from ci.sh")
	}
	cases := []struct {
		name string
		run  func(b *testing.B)
	}{
		{"span-unsampled", BenchmarkSpanUnsampled},
		{"span-sampled", BenchmarkSpanSampled},
		{"start-trace-unsampled", BenchmarkStartTraceUnsampled},
	}
	var records []obsBenchRecord
	byName := make(map[string]obsBenchRecord)
	for _, c := range cases {
		res := testing.Benchmark(c.run)
		rec := obsBenchRecord{
			Name:        c.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		records = append(records, rec)
		byName[rec.Name] = rec
		t.Logf("%s: %.0f ns/op, %d allocs/op, %d B/op", rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp)
	}

	// Gate: the unsampled paths must not allocate.
	for _, name := range []string{"span-unsampled", "start-trace-unsampled"} {
		if rec := byName[name]; rec.AllocsPerOp != 0 {
			t.Errorf("%s allocates %d/op (%d B/op), want 0 — the unsampled fast path regressed",
				name, rec.AllocsPerOp, rec.BytesPerOp)
		}
	}

	// Gate: the timeline store's memory bound is 40 bytes per event.
	held := heldBytesPerEvent(NewTimelineStore(0, 0))
	sliceHeld := heldBytesPerEvent(newRefTimelineStore(0, 0))
	t.Logf("timeline: %.1f B held per event (the []TimelineEvent store held %.1f)", held, sliceHeld)
	if held > 40 {
		t.Errorf("a full timeline store holds %.1f B per event, want <= 40", held)
	}

	commit, tree := gitstamp.Stamp()
	doc := struct {
		Schema     string           `json:"schema"`
		Commit     string           `json:"commit"`
		Tree       string           `json:"tree"`
		Benchmark  string           `json:"benchmark"`
		Go         string           `json:"go"`
		RecordedAt string           `json:"recorded_at"`
		Gate       string           `json:"gate"`
		Cases      []obsBenchRecord `json:"cases"`
		Timeline   map[string]any   `json:"timeline"`
	}{
		Schema:     "senseaid-bench-obs/1",
		Commit:     commit,
		Tree:       tree,
		Benchmark:  "BenchmarkSpan* (internal/obs)",
		Go:         runtime.Version(),
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		Gate:       "span-unsampled and start-trace-unsampled must be 0 allocs/op; a full timeline store holds at most 40 B per event",
		Cases:      records,
		Timeline: map[string]any{
			"tasks":                       256,
			"events_per_task":             512,
			"held_bytes_per_event":        held,
			"slice_store_bytes_per_event": sliceHeld,
		},
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
