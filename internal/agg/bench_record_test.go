package agg

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/gitstamp"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// TestRecordAggBench is the aggregation tier's CI gate (ci.sh sets
// SENSEAID_BENCH_OUT to BENCH_agg.json; without it the test skips).
// Three promises are measured and enforced:
//
//  1. The ingest tap keeps up at 1M uploads/min with ZERO allocations
//     per upload in steady state — the tap sits on the core's delivery
//     path for every accepted reading, so a per-upload allocation is a
//     GC tax on the whole server. Both window shapes are held to it:
//     series whose windows stay in their inline buckets, and series
//     whose every window outgrows them into a dense block.
//  2. Series memory is bounded under retention: windows roll through
//     the ring forever without growing the heap, and a series whose
//     windows hold a few distinct values costs under 1.5 KiB.
//  3. Subscription push lag p99 stays under one base window on a live
//     tick cadence — a "1-minute mean" subscriber sees each window
//     well before the next one closes.
func TestRecordAggBench(t *testing.T) {
	out := os.Getenv("SENSEAID_BENCH_OUT")
	if out == "" {
		t.Skip("SENSEAID_BENCH_OUT not set; skipping benchmark record")
	}

	// --- Gate 1: hot-tap throughput and allocations -------------------
	const nKeys = 256
	clk := simclock.NewFakeClock(simclock.Epoch)
	tier := New(Config{Window: time.Second, Retention: 5, CellSizeM: 500, Clock: clk})
	type feed struct {
		task, region string
		r            sensors.Reading
	}
	feeds := make([]feed, nKeys)
	for i := range feeds {
		feeds[i] = feed{
			task:   fmt.Sprintf("west/task-%d", i%16),
			region: "west",
			r: sensors.Reading{
				Sensor: sensors.Barometer,
				Value:  950 + float64(i%100),
				Unit:   "hPa",
				At:     simclock.Epoch,
				Where:  geo.Point{Lat: 40 + float64(i%16)*0.01, Lon: -86 - float64(i/16)*0.01},
			},
		}
	}
	// Warm every series so the measured loop is pure steady state.
	for i := range feeds {
		tier.Ingest(feeds[i].task, feeds[i].region, feeds[i].r)
	}
	ingest := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		at := simclock.Epoch
		for i := 0; i < b.N; i++ {
			f := &feeds[i%nKeys]
			if i%nKeys == 0 {
				at = at.Add(100 * time.Millisecond) // windows keep rolling
			}
			f.r.At = at
			tier.Ingest(f.task, f.region, f.r)
		}
	})
	nsPerUpload := float64(ingest.T.Nanoseconds()) / float64(ingest.N)
	uploadsPerMin := 60e9 / nsPerUpload
	if a := ingest.AllocsPerOp(); a != 0 {
		t.Errorf("ingest tap allocates: %d allocs/op (budget 0)", a)
	}
	if uploadsPerMin < 1_000_000 {
		t.Errorf("ingest tap sustains %.0f uploads/min, need >= 1,000,000", uploadsPerMin)
	}
	// The same tap on series whose every window sees more distinct
	// buckets than it keeps inline: each window moves to a dense block,
	// which must be the one recycled from the ring, not a new one.
	const nWide = 16
	wideTier := New(Config{Window: time.Second, Retention: 5, CellSizeM: 500, Clock: clk})
	wide := make([]feed, nWide)
	for i := range wide {
		wide[i] = feeds[i]
		wide[i].r.Value = 0
	}
	ingestWide := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		at := simclock.Epoch
		for i := 0; i < b.N; i++ {
			f := &wide[i%nWide]
			if i%nWide == 0 {
				at = at.Add(100 * time.Millisecond) // ten rounds per window
			}
			f.r.At = at
			// Values across 20 binades: every round a new bucket.
			f.r.Value = float64(int64(1) << ((i / nWide) % 20))
			wideTier.Ingest(f.task, f.region, f.r)
		}
	})
	if a := ingestWide.AllocsPerOp(); a != 0 {
		t.Errorf("ingest tap allocates on overflowing windows: %d allocs/op (budget 0)", a)
	}
	if st := wideTier.Stats(); st.WindowsClosed > 0 {
		// Every window those series closed overflowed its inline buckets.
		wideTier.mu.Lock()
		for _, s := range wideTier.series {
			if s.n > 0 && s.ring[(s.head-1+len(s.ring))%len(s.ring)].hist.dense == nil {
				t.Errorf("the wide ingest run closed a window that stayed inline")
			}
		}
		wideTier.mu.Unlock()
	}

	// --- Gate 2: bounded series memory under retention ----------------
	heapAfter := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heapAfter()
	clk2 := simclock.NewFakeClock(simclock.Epoch)
	tier2 := New(Config{Window: time.Second, Retention: 5, CellSizeM: 500, Clock: clk2})
	tier2.Subscribe(Filter{}, func(Push) {}) // emission path exercised too
	runWindows := func(n int) {
		for w := 0; w < n; w++ {
			for i := range feeds {
				f := &feeds[i]
				f.r.At = clk2.Now()
				tier2.Ingest(f.task, f.region, f.r)
			}
			clk2.Advance(time.Second)
			tier2.Advance(clk2.Now())
		}
	}
	runWindows(50) // fill retention, settle allocations
	warm := heapAfter()
	runWindows(400)
	settled := heapAfter()
	liveSeries := tier2.Stats().Series
	runtime.KeepAlive(tier2) // the heap readings above must include it
	growth := int64(settled) - int64(warm)
	// 400 further windows through a full ring must not grow the heap
	// beyond noise (GC bookkeeping, test machinery).
	const growthBudget = 1 << 20
	if growth > growthBudget {
		t.Errorf("series memory grew %d bytes over 400 windows (budget %d): retention is not bounding the ring", growth, growthBudget)
	}
	// What one series costs: the settled heap the tier added, over its
	// live series. Each of these series sees one value, so its windows
	// stay inline — the common case, where a window holds a handful of
	// samples.
	bytesPerSeries := (float64(settled) - float64(base)) / float64(liveSeries)
	const seriesBudget = 1536
	if liveSeries != nKeys || bytesPerSeries >= seriesBudget {
		t.Errorf("%d live series cost %.0f bytes each (budget < %d, want %d series)",
			liveSeries, bytesPerSeries, seriesBudget, nKeys)
	}

	// --- Gate 3: push lag p99 under one window (live clock) -----------
	const lagWindow = 200 * time.Millisecond
	tier3 := New(Config{Window: lagWindow, Retention: 5, CellSizeM: 500})
	var lagMu sync.Mutex
	var lags []time.Duration
	tier3.Subscribe(Filter{}, func(p Push) {
		now := time.Now()
		lagMu.Lock()
		for _, w := range p.Windows {
			lags = append(lags, now.Sub(w.End))
		}
		lagMu.Unlock()
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // uploader: ~100 samples/s across a few cells
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		i := 0
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				f := &feeds[i%nKeys]
				i++
				f.r.At = now
				tier3.Ingest(f.task, f.region, f.r)
			}
		}
	}()
	go func() { // the server's tick loop stand-in
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				tier3.Advance(now)
			}
		}
	}()
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()
	lagMu.Lock()
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	var lagP50, lagP99 time.Duration
	if n := len(lags); n > 0 {
		lagP50 = lags[n/2]
		lagP99 = lags[n*99/100]
	}
	nLags := len(lags)
	lagMu.Unlock()
	if nLags == 0 {
		t.Errorf("push-lag run emitted no windows")
	}
	if lagP99 >= lagWindow {
		t.Errorf("push lag p99 = %v, must stay under one window (%v)", lagP99, lagWindow)
	}

	commit, tree := gitstamp.Stamp()
	doc := map[string]interface{}{
		"schema":      "senseaid-bench-agg/1",
		"commit":      commit,
		"tree":        tree,
		"go":          runtime.Version(),
		"recorded_at": time.Now().UTC().Format(time.RFC3339),
		"ingest": map[string]interface{}{
			"ns_per_upload":          nsPerUpload,
			"allocs_per_op":          ingest.AllocsPerOp(),
			"uploads_per_min":        uploadsPerMin,
			"series":                 nKeys,
			"ops":                    ingest.N,
			"overflow_allocs_per_op": ingestWide.AllocsPerOp(),
			"overflow_ns_per_upload": float64(ingestWide.T.Nanoseconds()) / float64(ingestWide.N),
			"overflow_series":        nWide,
		},
		"memory": map[string]interface{}{
			"base_heap_bytes":     base,
			"warm_heap_bytes":     warm,
			"settled_heap_bytes":  settled,
			"growth_bytes":        growth,
			"growth_budget":       growthBudget,
			"windows_run":         450,
			"live_series":         liveSeries,
			"bytes_per_series":    bytesPerSeries,
			"series_bytes_budget": seriesBudget,
		},
		"push_lag": map[string]interface{}{
			"window_ms": lagWindow.Milliseconds(),
			"p50_ms":    float64(lagP50) / 1e6,
			"p99_ms":    float64(lagP99) / 1e6,
			"emissions": nLags,
		},
		"gates": []string{
			"ingest allocs/op == 0, inline and overflowing windows",
			"uploads/min >= 1e6",
			fmt.Sprintf("heap growth over 400 windows <= %d bytes", growthBudget),
			fmt.Sprintf("bytes per series < %d", seriesBudget),
			"push lag p99 < 1 window",
		},
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("ingest: %.0f ns/upload (%.1fM uploads/min, %d allocs/op; %d allocs/op overflowing); %.0f bytes/series; heap growth %d bytes / 400 windows; push lag p50 %v p99 %v",
		nsPerUpload, uploadsPerMin/1e6, ingest.AllocsPerOp(), ingestWide.AllocsPerOp(), bytesPerSeries, growth, lagP50, lagP99)
}
