package agg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/simclock"
)

// The estimator oracle: the tier and Batch must produce, window for
// window and bit for bit, what the dense fold produces — every window a
// full [histSize]uint32 histogram, folded and read exactly as the tier
// did before windows went sparse. denseWin, denseQuantile and
// denseMerge are that fold, kept here so a change to the tier's storage
// cannot move the reference with it.

type denseWin struct {
	idx    int64
	count  uint64
	sum    float64
	min    float64
	max    float64
	lastAt int64
	hist   [histSize]uint32
}

func (w *denseWin) observe(v float64, nanos int64) {
	if w.count == 0 || v < w.min {
		w.min = v
	}
	if w.count == 0 || v > w.max {
		w.max = v
	}
	w.count++
	w.sum += v
	if nanos > w.lastAt {
		w.lastAt = nanos
	}
	w.hist[bucketOf(v)]++
}

func denseQuantile(h *[histSize]uint32, n uint64, q float64, min, max float64) float64 {
	if n == 0 {
		return 0
	}
	rank := uint64(q*float64(n-1)) + 1
	var cum uint64
	clamp := func(v float64) float64 {
		if v < min {
			return min
		}
		if v > max {
			return max
		}
		return v
	}
	for b := 256; b >= 129; b-- {
		if cum += uint64(h[b]); cum >= rank {
			return clamp(bucketMid(b))
		}
	}
	if cum += uint64(h[0]); cum >= rank {
		return clamp(0)
	}
	for b := 1; b <= 128; b++ {
		if cum += uint64(h[b]); cum >= rank {
			return clamp(bucketMid(b))
		}
	}
	return clamp(max)
}

// denseMerge folds the windows of ws (newest first, as the ring is read)
// into the Window spanning base windows [lo, hi].
func denseMerge(key Key, lo, hi int64, window time.Duration, ws []*denseWin) (Window, bool) {
	var m denseWin
	first := true
	for _, w := range ws {
		if first {
			m.min, m.max = w.min, w.max
			first = false
		} else {
			if w.min < m.min {
				m.min = w.min
			}
			if w.max > m.max {
				m.max = w.max
			}
		}
		m.count += w.count
		m.sum += w.sum
		if w.lastAt > m.lastAt {
			m.lastAt = w.lastAt
		}
		for b := range w.hist {
			m.hist[b] += w.hist[b]
		}
	}
	if m.count == 0 {
		return Window{}, false
	}
	start := time.Unix(0, lo*int64(window)).UTC()
	end := time.Unix(0, (hi+1)*int64(window)).UTC()
	return Window{
		Key: key, Start: start, End: end,
		Count: m.count, Sum: m.sum, Mean: m.sum / float64(m.count),
		Min: m.min, Max: m.max,
		P50:       denseQuantile(&m.hist, m.count, 0.50, m.min, m.max),
		P99:       denseQuantile(&m.hist, m.count, 0.99, m.min, m.max),
		Freshness: end.Sub(time.Unix(0, m.lastAt)),
	}, true
}

// oracleFilters are the subscription shapes the oracle drives: plain
// tumbling, a sliding 3-window view, and coarser 2- and 5-window
// tumbling rollups.
var oracleFilters = []Filter{{Span: 1, Every: 1}, {Span: 3, Every: 1}, {Span: 2, Every: 2}, {Span: 5, Every: 5}}

var oracleCfg = Config{Window: time.Minute, Retention: 5, CellSizeM: 500}

// denseExpect computes, from the samples alone, every window each of
// oracleFilters must emit, and how many base windows outgrew the
// inline buckets.
func denseExpect(samples []Sample) (want [][]Window, overflowed, inline int) {
	cfg := oracleCfg
	cfg.fill()
	grid := geo.Grid{SizeM: cfg.CellSizeM}
	byKey := make(map[Key]map[int64]*denseWin)
	for _, s := range samples {
		k := Key{Task: s.Task, Region: s.Region, Cell: grid.CellOf(s.Reading.Where)}
		nanos := s.Reading.At.UnixNano()
		idx := windowIndex(nanos, int64(cfg.Window))
		if byKey[k] == nil {
			byKey[k] = make(map[int64]*denseWin)
		}
		w := byKey[k][idx]
		if w == nil {
			w = &denseWin{idx: idx}
			byKey[k][idx] = w
		}
		w.observe(s.Reading.Value, nanos)
	}
	for _, ws := range byKey {
		for _, w := range ws {
			used := 0
			for _, c := range w.hist {
				if c != 0 {
					used++
				}
			}
			if used > inlinePairs {
				overflowed++
			} else {
				inline++
			}
		}
	}
	want = make([][]Window, len(oracleFilters))
	for fi, f := range oracleFilters {
		for k, ws := range byKey {
			lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
			for idx := range ws {
				lo, hi = min(lo, idx), max(hi, idx)
			}
			for end := lo; end <= hi+int64(f.Span)-1; end++ {
				if (end+1)%int64(f.Every) != 0 {
					continue
				}
				var in []*denseWin
				for idx := end; idx > end-int64(f.Span); idx-- {
					if w := ws[idx]; w != nil {
						in = append(in, w)
					}
				}
				if w, ok := denseMerge(k, end-int64(f.Span)+1, end, cfg.Window, in); ok {
					want[fi] = append(want[fi], w)
				}
			}
		}
		SortWindows(want[fi])
	}
	return want, overflowed, inline
}

// sameWindow is bit equality on every field.
func sameWindow(a, b Window) bool {
	bits := math.Float64bits
	return a.Key == b.Key && a.Start.Equal(b.Start) && a.End.Equal(b.End) &&
		a.Count == b.Count && bits(a.Sum) == bits(b.Sum) && bits(a.Mean) == bits(b.Mean) &&
		bits(a.Min) == bits(b.Min) && bits(a.Max) == bits(b.Max) &&
		bits(a.P50) == bits(b.P50) && bits(a.P99) == bits(b.P99) && a.Freshness == b.Freshness
}

func requireSameWindows(t *testing.T, what string, got, want []Window) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameWindow(got[i], want[i]) {
			t.Fatalf("%s: window %d\n got  %+v\n want %+v", what, i, got[i], want[i])
		}
	}
}

// oracleTier is a tier on a virtual clock with one collecting
// subscription per oracle filter.
type oracleTier struct {
	tier *Tier
	clk  *simclock.FakeClock
	got  [][]Window
}

func newOracleTier(at time.Time) *oracleTier {
	ot := &oracleTier{clk: simclock.NewFakeClock(at), got: make([][]Window, len(oracleFilters))}
	cfg := oracleCfg
	cfg.Clock = ot.clk
	ot.tier = New(cfg)
	return ot
}

func (ot *oracleTier) subscribe() {
	for i, f := range oracleFilters {
		i := i
		ot.tier.Subscribe(f, func(p Push) { ot.got[i] = append(ot.got[i], p.Windows...) })
	}
}

// feed ingests one sample, first moving the clock (and window time) up
// to it, as the server's tick loop does.
func (ot *oracleTier) feed(s Sample) {
	if d := s.Reading.At.Sub(ot.clk.Now()); d > 0 {
		ot.clk.Advance(d)
		ot.tier.Advance(ot.clk.Now())
	}
	ot.tier.Ingest(s.Task, s.Region, s.Reading)
}

func (ot *oracleTier) flush() {
	for i := 0; i < 8; i++ {
		ot.clk.Advance(ot.tier.Window())
		ot.tier.Advance(ot.clk.Now())
	}
}

// canonicalSnapshot re-encodes a SnapshotState blob with its series in
// key order. The series come out of a map, so their order is the only
// part of the bytes a tier does not fix; everything else, each
// window's histogram pairs included, is compared as written.
func canonicalSnapshot(t testing.TB, blob []byte) []byte {
	t.Helper()
	var st savedTier
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	sort.Slice(st.Series, func(i, j int) bool {
		a, b := &st.Series[i], &st.Series[j]
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		if a.Lat != b.Lat {
			return a.Lat < b.Lat
		}
		return a.Lon < b.Lon
	})
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func snapshotOf(t testing.TB, tier *Tier) []byte {
	t.Helper()
	blob, err := tier.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	return canonicalSnapshot(t, blob)
}

// checkAgainstDenseFold streams the samples (time-ordered) through a
// tier, restores a second tier from a snapshot taken halfway, and
// requires the tier, the restored tier and Batch to match the dense
// fold exactly.
func checkAgainstDenseFold(t *testing.T, samples []Sample) (overflowed, inline int) {
	t.Helper()
	if len(samples) == 0 {
		return 0, 0
	}
	want, overflowed, inline := denseExpect(samples)

	a := newOracleTier(samples[0].Reading.At)
	a.subscribe()
	half := len(samples) / 2
	for _, s := range samples[:half] {
		a.feed(s)
	}
	before := make([]int, len(oracleFilters))
	for i := range a.got {
		before[i] = len(a.got[i])
	}
	snap := snapshotOf(t, a.tier)
	b := newOracleTier(a.clk.Now())
	if err := b.tier.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := snapshotOf(t, b.tier); !bytes.Equal(got, snap) {
		t.Fatalf("restored tier snapshots differently:\n got  %s\n want %s", got, snap)
	}
	b.subscribe()
	for _, s := range samples[half:] {
		a.feed(s)
		b.feed(s)
	}
	if ga, gb := snapshotOf(t, a.tier), snapshotOf(t, b.tier); !bytes.Equal(ga, gb) {
		t.Fatalf("restored tier diverged from the original:\n restored %s\n original %s", gb, ga)
	}
	a.flush()
	b.flush()

	for i, f := range oracleFilters {
		after := append([]Window(nil), a.got[i][before[i]:]...)
		SortWindows(a.got[i])
		requireSameWindows(t, fmt.Sprintf("tier %+v", f), a.got[i], want[i])
		SortWindows(after)
		SortWindows(b.got[i])
		requireSameWindows(t, fmt.Sprintf("restored tier %+v", f), b.got[i], after)
	}
	requireSameWindows(t, "Batch", Batch(samples, oracleCfg), want[0])
	return overflowed, inline
}

var (
	oracleTasks  = []string{"west/task-1", "west/task-2", "east/task-1"}
	oraclePoints = []geo.Point{{Lat: 40, Lon: -86}, {Lat: 40.02, Lon: -86}, {Lat: 40, Lon: -86.03}}
	// edgeValues sit on the estimator's edges: zeros of both signs, the
	// clamp boundaries of the covered range from either side, and
	// magnitudes far outside it.
	edgeValues = []float64{
		0, math.Copysign(0, -1),
		math.Ldexp(1, -9), math.Nextafter(math.Ldexp(1, -9), 0), math.Ldexp(1, -10),
		math.Ldexp(1, 23), math.Nextafter(math.Ldexp(1, 23), 0), math.Ldexp(1, 24),
		-math.Ldexp(1, -9), -math.Ldexp(1, 23), -math.Nextafter(math.Ldexp(1, 23), 0),
		5e-324, -5e-324, 1e-300, 1e30, -1e30,
	}
)

// oracleSamples is a seeded, time-ordered sample sequence over nine
// series. Some series draw from a palette of at most inlinePairs
// values, so their windows stay inline; the rest spread values over
// many binades, both signs and the edge values, so theirs overflow.
// Which series does which changes with the seed, so ring slots and
// sliding merges mix inline and dense windows.
func oracleSamples(seed int64, n int) []Sample {
	rng := rand.New(rand.NewSource(seed))
	palettes := make([][]float64, len(oracleTasks)*len(oraclePoints)) // nil: wide
	for i := range palettes {
		if rng.Intn(2) == 0 {
			p := make([]float64, 1+rng.Intn(inlinePairs))
			for j := range p {
				p[j] = math.Round((rng.Float64()*200-100)*4) / 4
			}
			palettes[i] = p
		}
	}
	at := simclock.Epoch.Add(time.Duration(rng.Int63n(int64(time.Hour))))
	maxGap := 200 + rng.Intn(2800) // ms; sets how full a window gets
	out := make([]Sample, 0, n)
	for len(out) < n {
		at = at.Add(time.Duration(rng.Intn(maxGap)) * time.Millisecond)
		ki := rng.Intn(len(palettes))
		var v float64
		switch p := palettes[ki]; {
		case p != nil:
			v = p[rng.Intn(len(p))]
		case rng.Intn(8) == 0:
			v = edgeValues[rng.Intn(len(edgeValues))]
		default:
			v = math.Ldexp(1+rng.Float64(), rng.Intn(80)-40)
			if rng.Intn(3) == 0 {
				v = -v
			}
		}
		task := oracleTasks[ki%len(oracleTasks)]
		out = append(out, Sample{
			Task:    task,
			Region:  task[:4],
			Reading: reading(at, v, oraclePoints[ki/len(oracleTasks)]),
		})
	}
	return out
}

func TestTierMatchesDenseFold(t *testing.T) {
	var overflowed, inline int
	for seed := int64(1); seed <= 20; seed++ {
		o, i := checkAgainstDenseFold(t, oracleSamples(seed, 3000))
		overflowed += o
		inline += i
	}
	if overflowed == 0 || inline == 0 {
		t.Fatalf("the seeds cover %d overflowed and %d inline windows, want both", overflowed, inline)
	}
}

// encodeSamples and decodeSamples are the fuzz target's input format:
// per sample one series byte, a little-endian uint16 of milliseconds
// since the previous sample, and the value's float64 bits.
const fuzzRecord = 11

func encodeSamples(samples []Sample) []byte {
	var out []byte
	prev := simclock.Epoch
	for _, s := range samples {
		ki := 0
		for i, task := range oracleTasks {
			if task == s.Task {
				ki = i
			}
		}
		for i, p := range oraclePoints {
			if p == s.Reading.Where {
				ki += i * len(oracleTasks)
			}
		}
		var rec [fuzzRecord]byte
		rec[0] = byte(ki)
		binary.LittleEndian.PutUint16(rec[1:], uint16(s.Reading.At.Sub(prev)/time.Millisecond))
		binary.LittleEndian.PutUint64(rec[3:], math.Float64bits(s.Reading.Value))
		out = append(out, rec[:]...)
		prev = s.Reading.At
	}
	return out
}

func decodeSamples(data []byte) []Sample {
	var out []Sample
	at := simclock.Epoch
	for ; len(data) >= fuzzRecord; data = data[fuzzRecord:] {
		ki := int(data[0]) % (len(oracleTasks) * len(oraclePoints))
		at = at.Add(time.Duration(binary.LittleEndian.Uint16(data[1:])) * time.Millisecond)
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[3:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue // validation upstream rejects these
		}
		task := oracleTasks[ki%len(oracleTasks)]
		out = append(out, Sample{
			Task:    task,
			Region:  task[:4],
			Reading: reading(at, v, oraclePoints[ki/len(oracleTasks)]),
		})
	}
	return out
}

// FuzzTierMatchesDenseFold holds the tier, a restored tier and Batch to
// the dense fold on arbitrary sample sequences, starting from the
// property test's.
func FuzzTierMatchesDenseFold(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		s := oracleSamples(seed, 400)
		// Rebase on the epoch so the encoded first gap fits its uint16.
		shift := s[0].Reading.At.Sub(simclock.Epoch)
		for i := range s {
			s[i].Reading.At = s[i].Reading.At.Add(-shift)
		}
		f.Add(encodeSamples(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstDenseFold(t, decodeSamples(data))
	})
}

// goldenSnapshotPath holds a SnapshotState of goldenTier (series in
// key order) written by the dense tier, the last one before windows
// went sparse; the spill format must not move. Do not regenerate it
// from the current tier: a change that alters the bytes is a format
// change, and says so.
var goldenSnapshotPath = filepath.Join("testdata", "snapshot.golden.json")

// goldenTier ingests a fixed sequence (oracle seed 32) and stops with
// windows still open, so the snapshot holds open windows and full
// rings, inline and dense alike.
func goldenTier() *Tier {
	samples := oracleSamples(32, 1200)
	ot := newOracleTier(samples[0].Reading.At)
	ot.subscribe()
	for _, s := range samples {
		ot.feed(s)
	}
	return ot.tier
}

func TestSnapshotMatchesGolden(t *testing.T) {
	got := snapshotOf(t, goldenTier())
	want, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SnapshotState differs from %s:\n got  %s\n want %s", goldenSnapshotPath, got, want)
	}
	// The golden bytes restore and snapshot back to themselves.
	tier := New(Config{Window: oracleCfg.Window, Retention: oracleCfg.Retention})
	if err := tier.Restore(want); err != nil {
		t.Fatal(err)
	}
	if again := snapshotOf(t, tier); !bytes.Equal(again, want) {
		t.Fatalf("golden snapshot does not round-trip:\n got  %s\n want %s", again, want)
	}
}

// TestRestoreOddHistograms pins what Restore does with a histogram no
// tier writes: a bucket listed twice keeps its last count, an
// out-of-range bucket is skipped, and a zero count leaves the bucket
// empty — in a window that stays inline and in one that does not.
func TestRestoreOddHistograms(t *testing.T) {
	const in = `{"window_ns":60000000000,"last_emit":5,"series":[` +
		`{"task":"t","lat":1,"lon":2,"cur":{"idx":6,"count":9,"sum":1,"min":0,"max":1,"last_at":1,` +
		`"hist":[[5,3],[300,1],[5,7],[9,4],[9,0],[1,2]]},` +
		`"ring":[{"idx":4,"count":30,"sum":2,"min":0,"max":2,"last_at":1,` +
		`"hist":[[10,1],[2,1],[3,1],[257,9],[4,1],[5,1],[6,1],[2,5],[7,0],[8,1]]}],"last_at":1}]}`
	const want = `{"window_ns":60000000000,"last_emit":5,"series":[` +
		`{"task":"t","lat":1,"lon":2,"cur":{"idx":6,"count":9,"sum":1,"min":0,"max":1,"last_at":1,` +
		`"hist":[[1,2],[5,7]]},` +
		`"ring":[{"idx":4,"count":30,"sum":2,"min":0,"max":2,"last_at":1,` +
		`"hist":[[2,5],[3,1],[4,1],[5,1],[6,1],[8,1],[10,1]]}],"last_at":1}]}`
	tier := New(Config{Window: time.Minute})
	if err := tier.Restore([]byte(in)); err != nil {
		t.Fatal(err)
	}
	got, err := tier.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("restored histograms:\n got  %s\n want %s", got, want)
	}
}
