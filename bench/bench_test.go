package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) string {
			var in inputs
			if w.Socket {
				in = genCampus(seed, w.Sizes, w.Routed)
			} else {
				sz := w.Sizes
				sz.Devices = 5000
				in = genCity(seed, sz, w.Mobile)
			}
			return in.digest()
		}
		if a, b := gen(11), gen(11); a != b {
			t.Errorf("%s: seed 11 gave digests %s and %s", w.Name, a, b)
		}
		if a, b := gen(11), gen(12); a == b {
			t.Errorf("%s: seeds 11 and 12 gave the same digest %s", w.Name, a)
		}
	}
}

func TestGeneratedGeometry(t *testing.T) {
	w, _ := workloadByName("campus_routed")
	in := genCampus(5, w.Sizes, true)
	hoppers := 0
	for _, d := range in.Devices {
		if d.Kind != devHopper {
			continue
		}
		hoppers++
		// A hopper's two spots are in different regions and inside no task area.
		if in.Regions[0].Area.Contains(d.Home) == in.Regions[0].Area.Contains(d.Alt) {
			t.Errorf("%s does not change region when it hops", d.ID)
		}
		for _, task := range in.Tasks {
			for _, p := range []struct{ lat, lon float64 }{{d.Home.Lat, d.Home.Lon}, {d.Alt.Lat, d.Alt.Lon}} {
				if distM(task.Center.Lat, task.Center.Lon, p.lat, p.lon) <= task.RadiusM {
					t.Errorf("%s parks inside a task area", d.ID)
				}
			}
		}
	}
	if hoppers != w.Sizes.Hoppers {
		t.Errorf("%d hoppers, want %d", hoppers, w.Sizes.Hoppers)
	}

	m, _ := workloadByName("city_mobile")
	sz := m.Sizes
	sz.Devices = 10000
	city := genCity(5, sz, true)
	for _, d := range city.Devices {
		if d.Kind != devFlapper {
			continue
		}
		west := city.Regions[0].Area
		if !west.Contains(d.Home) || west.Contains(d.Alt) || !city.Regions[1].Area.Contains(d.Alt) {
			t.Fatalf("flapper %s does not straddle the shard boundary", d.ID)
		}
	}
}

// distM is an equirectangular distance, good to well under a metre at
// these ranges; the test's own arithmetic, independent of internal/geo.
func distM(lat1, lon1, lat2, lon2 float64) float64 {
	const r = 6371000.0
	x := (lon2 - lon1) * math.Pi / 180 * math.Cos((lat1+lat2)/2*math.Pi/180)
	y := (lat2 - lat1) * math.Pi / 180
	return r * math.Hypot(x, y)
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 20000, want: 0.999, got: 0.999}, // 20 beyond p99.9
		{n: 9999, want: 0.999, got: 0.99},   // 9.999 beyond p99.9: not enough
		{n: 1000, want: 0.99, got: 0.99},    // exactly 10 beyond p99
		{n: 999, want: 0.99, got: 0.95},
		{n: 100, want: 0.99, got: 0.90},
		{n: 40, want: 0.99, got: 0.75},
		{n: 39, want: 0.99, got: 0.5},
		{n: 0, want: 0.99, got: 0.5},
	} {
		if got := supportedTail(c.n, c.want); got != c.got {
			t.Errorf("supportedTail(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if q := quantile(s, 0.5); q != 50 {
		t.Errorf("median of 1..100 = %g, want 50", q)
	}
	if q := quantile(s, 0.99); q != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", q)
	}
	sum := summarize(s)
	if sum.N != 100 || sum.P50 != 50 || sum.TailQ != 0.90 || sum.Tail != 90 {
		t.Errorf("summarize(1..100) = %+v", sum)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}

	// One disturbed window moves the whole-run median but not the median
	// of window medians.
	w := newWindowed(5)
	for win := 0; win < 5; win++ {
		for i := 0; i < 100; i++ {
			v := 10.0
			if win == 2 {
				v = 1000
			}
			w.add(win, v)
		}
	}
	if got := w.medianOf(0.5, nil); got != 10 {
		t.Errorf("median of window medians = %g, want 10", got)
	}
	// Windows the host disturbed are set aside - unless too few are left.
	per := []float64{10, 50, 12, 60, 11}
	if got := cleanMedian(per, nil, []bool{true, false, true, false, true}); got != 11 {
		t.Errorf("clean median = %g, want 11", got)
	}
	if got := cleanMedian(per, nil, []bool{true, false, false, false, true}); got != 12 {
		t.Errorf("with two clean windows every window counts: median = %g, want 12", got)
	}
	if got := cleanMedian(per, []bool{true, true, false, true, true}, nil); got != 30.5 {
		t.Errorf("median over existing windows = %g, want 30.5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// parent [0,100); children [10,30), [20,50) overlapping, [90,120)
	// running past the parent; grandchild [12,18) under the first child.
	spans := []span{
		{ID: 1, Name: spTick, Start: 0, End: 100, CPU: 60},
		{ID: 2, Parent: 1, Name: spProcessDue, Start: 10, End: 30, CPU: 15},
		{ID: 3, Parent: 1, Name: spProcessDue, Start: 20, End: 50, CPU: 20},
		{ID: 4, Parent: 1, Name: spAggAdvance, Start: 90, End: 120, CPU: 5},
		{ID: 5, Parent: 2, Name: spDispatch, Start: 12, End: 18, CPU: 4},
		// Same parent, another lane: its CPU ran on another thread.
		{ID: 1<<24 | 1, Parent: 1, Name: spUpdateState, Start: 60, End: 70, CPU: 9},
	}
	lt := selfTimes(spans)
	// Children cover [10,50) + [60,70) + [90,100) = 60 of the parent's 100.
	if got := lt[spTick].Self; got != 40 {
		t.Errorf("tick self = %d, want 40", got)
	}
	// CPU: 60 minus same-lane children 15+20+5; the other lane's 9 is not the parent's.
	if got := lt[spTick].CPU; got != 20 {
		t.Errorf("tick self CPU = %d, want 20", got)
	}
	// process_due: (20-6) + 30 wall, (15-4) + 20 CPU, two spans.
	if got := lt[spProcessDue]; got.Self != 44 || got.CPU != 31 || got.Count != 2 {
		t.Errorf("process_due = %+v, want self 44, cpu 31, count 2", got)
	}
	if got := lt[spAggAdvance].Self; got != 30 {
		t.Errorf("agg.advance self = %d, want its full 30", got)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(spans) {
		t.Fatalf("%d lines for %d spans", len(lines), len(spans))
	}
	var first struct {
		Trace, ID, Parent uint32
		Name              string
		Start             int64 `json:"start_ns"`
		End               int64 `json:"end_ns"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "core.process_due" || first.Parent != 1 || first.Start != 10 || first.End != 30 {
		t.Errorf("span line decodes to %+v", first)
	}
}

func TestTracerLanes(t *testing.T) {
	var none *tracer
	b := none.lane()
	i := b.begin(spTick, 1, 0)
	b.end(i)
	if b.id(i) != 0 || none.all() != nil {
		t.Error("a nil tracer must record nothing")
	}
	tr := newTracer()
	l1, l2 := tr.lane(), tr.lane()
	a := l1.begin(spTick, 1, 0)
	c := l2.begin(spProcessDue, 1, l1.id(a))
	l2.end(c)
	l1.end(a)
	all := tr.all()
	if len(all) != 2 || all[0].ID == all[1].ID || all[1].Parent != all[0].ID {
		t.Errorf("lanes recorded %+v", all)
	}
	if all[0].End < all[0].Start {
		t.Errorf("span ends before it starts: %+v", all[0])
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	const stat = "4242 (sense) aid (x)) S 1 4242 4242 0 -1 4194560 1500 0 3 0 " +
		"250 75 0 0 20 0 9 0 123456 1234567890 2048 18446744073709551615 " +
		"1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	s, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3250 * time.Millisecond; s.CPU != want {
		t.Errorf("CPU = %v, want %v (utime 250 + stime 75 ticks)", s.CPU, want)
	}
	if want := int64(2048 * os.Getpagesize()); s.RSS != want {
		t.Errorf("RSS = %d, want %d", s.RSS, want)
	}
	if _, err := parseProcStat("no command field"); err == nil {
		t.Error("a line without ')' must not parse")
	}
	if _, err := parseProcStat("1 (x) S 1 2 3"); err == nil {
		t.Error("a truncated line must not parse")
	}
	if d, err := parseSchedstat("606170 1057353 3\n"); err != nil || d != 606170 {
		t.Errorf("schedstat = %v, %v", d, err)
	}
	const procStat = "cpu  319550 0 60903 780940 1945 0 16648 64943 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	if d, err := parseSteal(procStat); err != nil || d != 64943*10*time.Millisecond {
		t.Errorf("steal = %v, %v", d, err)
	}
	if _, err := parseSteal("intr 1 2 3\n"); err == nil {
		t.Error("a file without a cpu line must not parse")
	}
	if got := stolenShare(time.Second, 10*time.Second, 2); got != 0.05 {
		t.Errorf("stolen share = %g, want 0.05", got)
	}
	self, err := readProc(os.Getpid())
	if err != nil || self.RSS <= 0 {
		t.Errorf("reading this process: %+v, %v", self, err)
	}
}

func TestParsePromText(t *testing.T) {
	const page = `# HELP senseaid_uploads_total Uploads by path.
# TYPE senseaid_uploads_total counter
senseaid_uploads_total{path="tail"} 120
senseaid_uploads_total{path="promoted"} 3
senseaid_go_goroutines 17
senseaid_odd{note="a \"quoted\" \\ value",shard="west"} 2.5
# TYPE senseaid_stage_seconds histogram
senseaid_stage_seconds_bucket{stage="deliver",le="0.001"} 10
senseaid_stage_seconds_bucket{stage="deliver",le="0.002"} 30
senseaid_stage_seconds_bucket{stage="deliver",le="0.004"} 40
senseaid_stage_seconds_bucket{stage="deliver",le="+Inf"} 40
senseaid_stage_seconds_sum{stage="deliver"} 0.07
senseaid_stage_seconds_count{stage="deliver"} 40
senseaid_stage_seconds_bucket{stage="dispatch",le="0.001"} 5
senseaid_stage_seconds_bucket{stage="dispatch",le="+Inf"} 5
`
	p, err := parsePromText(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("senseaid_uploads_total"); got != 123 {
		t.Errorf("uploads sum = %g, want 123", got)
	}
	if got := p.sum("senseaid_uploads_total", "path", "tail"); got != 120 {
		t.Errorf("tail uploads = %g, want 120", got)
	}
	if got := p.sum("senseaid_go_goroutines"); got != 17 {
		t.Errorf("goroutines = %g", got)
	}
	if got := p.sum("senseaid_absent"); got != 0 {
		t.Errorf("an absent family sums to %g", got)
	}
	var odd promSample
	for _, s := range p {
		if s.Name == "senseaid_odd" {
			odd = s
		}
	}
	if odd.Labels["note"] != `a "quoted" \ value` || odd.Labels["shard"] != "west" || odd.Value != 2.5 {
		t.Errorf("escaped labels parsed as %+v", odd)
	}
	// Rank 20 of 40 falls in (0.001, 0.002], half way through its 20 samples.
	if got := p.histQuantile(nil, "senseaid_stage_seconds", 0.5, "stage", "deliver"); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("deliver p50 = %g, want 0.0015", got)
	}
	// Against an earlier scrape holding the first 10 samples, the other
	// 30 are left: rank 15 of 30 is three quarters through that bucket.
	base, _ := parsePromText(strings.NewReader(`senseaid_stage_seconds_bucket{stage="deliver",le="0.001"} 10
senseaid_stage_seconds_bucket{stage="deliver",le="0.002"} 10
senseaid_stage_seconds_bucket{stage="deliver",le="0.004"} 10
senseaid_stage_seconds_bucket{stage="deliver",le="+Inf"} 10
`))
	if got := p.histQuantile(base, "senseaid_stage_seconds", 0.5, "stage", "deliver"); math.Abs(got-0.00175) > 1e-12 {
		t.Errorf("deliver p50 over the interval = %g, want 0.00175", got)
	}
	if _, err := parsePromText(strings.NewReader("broken{a=\"b\n")); err == nil {
		t.Error("an unterminated label must not parse")
	}
}

func TestListenLines(t *testing.T) {
	if a, err := listenAddr("sense-aid server listening on 127.0.0.1:40123"); err != nil || a != "127.0.0.1:40123" {
		t.Errorf("listenAddr = %q, %v", a, err)
	}
	if u, err := adminURL("admin endpoint on http://127.0.0.1:9/metrics"); err != nil || u != "http://127.0.0.1:9" {
		t.Errorf("adminURL = %q, %v", u, err)
	}
	if _, err := listenAddr("shutting down"); err == nil {
		t.Error("a line without an address must not parse")
	}
	if !alarming("panic: runtime error") || !alarming("WARNING: DATA RACE") || !alarming("fatal error: all goroutines are asleep") || alarming("listening") {
		t.Error("alarming() misjudges a line")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	higher := metricDef{Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d                  metricDef
		base, next, sb, sn float64
		want               string
		why                string
	}{
		{lower, 100, 105, 0, 0, "ok", "5% worse is inside the bound"},
		{lower, 100, 111, 0, 0, "worse", "11% worse"},
		{lower, 100, 50, 0, 0, "ok", "better"},
		{higher, 100, 89, 0, 0, "worse", "throughput fell 11%"},
		{higher, 100, 120, 0, 0, "ok", "throughput rose"},
		{lower, 100, 130, 0.2, 0, "unresolved", "base spread wider than the bound"},
		{lower, 100, 100, 0, 0.11, "unresolved", "new spread wider than the bound"},
	} {
		if got := verdict(c.d, c.base, c.next, c.sb, c.sn); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.why, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json, which the driver
// reads, in step with the lists the harness prints from.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, b.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := b.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the harness %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		g := b.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the harness %+v", i, g, d)
		}
		if seen[d.Name] {
			t.Errorf("%s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}
