package obs

import (
	"io"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestCounterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", Labels{"path": "tail"})
	b := r.Counter("x_total", "x", Labels{"path": "tail"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("x_total", "x", Labels{"path": "promoted"})
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
	a.Inc()
	a.Add(2)
	if got := b.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("sibling series moved: %d", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth", nil)
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.GaugeFunc("live", "live value", nil, func() float64 { return v })
	snap := r.Snapshot()
	if len(snap) != 1 || *snap[0].Series[0].Value != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}
	v = 9
	if *r.Snapshot()[0].Series[0].Value != 9 {
		t.Fatal("GaugeFunc not re-evaluated")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1}, nil)
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() < 5.6 || h.Sum() > 5.61 {
		t.Fatalf("sum = %v", h.Sum())
	}
	// Cumulative buckets: le=0.01 -> 1, le=0.1 -> 3, le=1 -> 4, +Inf -> 5.
	snap := r.Snapshot()[0].Series[0]
	want := map[string]uint64{"0.01": 1, "0.1": 3, "1": 4, "+Inf": 5}
	for k, n := range want {
		if snap.Buckets[k] != n {
			t.Fatalf("bucket %s = %d, want %d (all: %v)", k, snap.Buckets[k], n, snap.Buckets)
		}
	}
	h.ObserveDuration(30 * time.Millisecond)
	if h.Count() != 6 {
		t.Fatal("ObserveDuration did not count")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "m", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "m", nil)
}

func TestLabelKeyMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "m", Labels{"path": "tail"})
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting label keys did not panic")
		}
	}()
	r.Counter("m", "m", Labels{"role": "device"})
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name accepted")
		}
	}()
	r.Counter("9bad-name", "", nil)
}

// TestConcurrentHotPath hammers one registry from many goroutines while
// another exposes it — series registered lazily and GaugeFunc callbacks
// replaced mid-exposition included; run under -race (ci.sh) this is the
// registry's thread-safety regression.
func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, iters = 8, 2000
	stop := make(chan struct{})
	exposed := make(chan struct{})
	go func() {
		defer close(exposed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Snapshot()
			_ = r.WriteText(io.Discard)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hot_total", "hot", nil)
			g := r.Gauge("hot_gauge", "hot", nil)
			h := r.Histogram("hot_seconds", "hot", DefBuckets, nil)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.02)
				if i%50 == 0 {
					r.Counter("lazy_total", "lazy", Labels{"n": strconv.Itoa(w*iters + i)}).Inc()
					r.GaugeFunc("live", "live", nil, func() float64 { return float64(w) })
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-exposed
	if got := r.Counter("hot_total", "hot", nil).Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("hot_gauge", "hot", nil).Value(); got != workers*iters {
		t.Fatalf("gauge = %v, want %d", got, workers*iters)
	}
	if got := r.Histogram("hot_seconds", "hot", DefBuckets, nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

// TestHotPathAllocationFree is the satellite requirement's hard check:
// counter increments must not allocate.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "", nil)
	g := r.Gauge("alloc_gauge", "", nil)
	h := r.Histogram("alloc_seconds", "", DefBuckets, nil)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.03) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op", n)
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(0.001, 10, 3)
	want := []float64{0.001, 0.01, 0.1}
	for i := range want {
		if got[i] < want[i]*0.999 || got[i] > want[i]*1.001 {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
}
