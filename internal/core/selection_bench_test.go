package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// selectionAllocBudget is the CI gate on the production selection pass:
// steady-state allocations per selection must stay at or under this.
// The pass is designed to be allocation-free once its scratch has grown;
// the budget leaves slack for runtime internals, not for per-candidate
// allocations.
const selectionAllocBudget = 32

// fusedOverOracleMin is the CI gate on what the fused pass buys: at 100k
// devices, density 20, it must be at least this many times faster than
// the copying path it replaced, on a cached region and on rotating ones.
const fusedOverOracleMin = 4

// moveOverReportMax is the CI gate on the store's write side: a state
// report that changes cell may cost at most this many times one that
// does not, and may not allocate. A move touches about seven cold cache
// lines (the lookup, the record, the record swapped into its place and
// that one's slot, the new slab's end) where a report touches three, so
// the ratio sits near 2.5 on either side of the slab layout; the gate
// catches a move that starts allocating or re-hashing per record.
const moveOverReportMax = 4

// benchSpreadM is the square the benchmark population is scattered over.
const benchSpreadM = 10_000

// benchRegion returns a task region holding ~regionPct of a population
// spread uniformly over benchSpreadM²: area fraction = pi*r^2 / spread^2.
func benchRegion(regionPct float64) geo.Circle {
	r := benchSpreadM * math.Sqrt(regionPct/100/math.Pi)
	center := geo.Offset(geo.CSDepartment, benchSpreadM/2, benchSpreadM/2)
	return geo.Circle{Center: center, RadiusM: r}
}

// benchStore registers n devices spread uniformly over the benchmark
// square, all barometer-capable and selectable.
func benchStore(tb testing.TB, n int) *DeviceStore {
	tb.Helper()
	rng := rand.New(rand.NewSource(2017))
	store := NewDeviceStore()
	for i := 0; i < n; i++ {
		d := DeviceState{
			ID:         fmt.Sprintf("dev-%06d", i),
			Position:   geo.Offset(geo.CSDepartment, rng.Float64()*benchSpreadM, rng.Float64()*benchSpreadM),
			BatteryPct: float64(30 + rng.Intn(70)),
			TimesUsed:  rng.Intn(5),
			LastComm:   simclock.Epoch,
			Sensors:    []sensors.Type{sensors.Barometer},
			Budget:     power.DefaultBudget(),
		}
		if err := store.Register(d); err != nil {
			tb.Fatal(err)
		}
	}
	return store
}

func benchRequest(tb testing.TB, area geo.Circle, density int) Request {
	tb.Helper()
	task := Task{
		ID:             "bench-task",
		Sensor:         sensors.Barometer,
		SamplingPeriod: 10 * time.Minute,
		Start:          simclock.Epoch,
		End:            simclock.Epoch.Add(time.Hour),
		Area:           area,
		SpatialDensity: density,
	}
	reqs, err := (&task).Expand()
	if err != nil {
		tb.Fatal(err)
	}
	return reqs[0]
}

func benchSelector(tb testing.TB) *Selector {
	tb.Helper()
	cfg := DefaultSelectorConfig()
	cfg.MaxUses = 1 << 30
	sel, err := NewSelector(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sel
}

// selectionCase is one measured selection path over one store.
type selectionCase struct {
	name    string
	devices int
	run     func(b *testing.B)
}

// benchDensities are the spatial densities measured: the paper's campus
// scale and the end-to-end benchmark's city scale (skipped where the 1%
// region of a small population cannot hold it).
var benchDensities = []int{5, 20}

// selectionCases builds the benchmark matrix for one population size,
// with the task region holding ~1% of it:
//
//   - full-scan: the pre-index path (copy and sort the whole datastore,
//     qualify with the reason map, rank) — O(total devices) per request;
//   - oracle: the indexed copying path production ran until the fused
//     pass replaced it (copy the in-area candidates out, qualify, sort
//     them all);
//   - fused: the production pass (Selector.SelectIn).
//
// Those cases select over one region again and again, so its records
// stay in the processor's cache. The cold cases (largest population
// only) rotate through coldRegions different regions, as a server with
// many tasks does: every pass reads records the previous ones evicted.
func selectionCases(tb testing.TB, n int) []selectionCase {
	store := benchStore(tb, n)
	sel := benchSelector(tb)
	area := benchRegion(1)
	var cold []Request
	if n == benchSizes[len(benchSizes)-1] {
		rng := rand.New(rand.NewSource(400))
		span := benchSpreadM - 2*area.RadiusM
		for i := 0; i < coldRegions; i++ {
			center := geo.Offset(geo.CSDepartment, area.RadiusM+rng.Float64()*span, area.RadiusM+rng.Float64()*span)
			cold = append(cold, benchRequest(tb, geo.Circle{Center: center, RadiusM: area.RadiusM}, 20))
		}
	}
	cases := []selectionCase{{
		name: fmt.Sprintf("full-scan/density=5/devices=%d", n), devices: n,
		run: func(b *testing.B) {
			req := benchRequest(b, area, 5)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(req, store.All(), simclock.Epoch); err != nil {
					b.Fatal(err)
				}
			}
		},
	}}
	oracleCase := func(name string, reqs []Request) selectionCase {
		return selectionCase{name: name, devices: n, run: func(b *testing.B) {
			var cands []DeviceState
			var sc oracleScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oracleSelect(sel, store, reqs[i%len(reqs)], simclock.Epoch, &cands, &sc); err != nil {
					b.Fatal(err)
				}
			}
		}}
	}
	fusedCase := func(name string, reqs []Request) selectionCase {
		return selectionCase{name: name, devices: n, run: func(b *testing.B) {
			var sc SelectScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sel.SelectIn(store, reqs[i%len(reqs)], simclock.Epoch, &sc); err != nil {
					b.Fatal(err)
				}
			}
		}}
	}
	for _, k := range benchDensities {
		if n/100 < 2*k {
			continue // the 1% region must hold the density with room to rank
		}
		warm := []Request{benchRequest(tb, area, k)}
		cases = append(cases,
			oracleCase(fmt.Sprintf("oracle/density=%d/devices=%d", k, n), warm),
			fusedCase(fmt.Sprintf("fused/density=%d/devices=%d", k, n), warm))
	}
	if cold != nil {
		cases = append(cases,
			oracleCase(fmt.Sprintf("oracle-cold/density=20/devices=%d", n), cold),
			fusedCase(fmt.Sprintf("fused-cold/density=20/devices=%d", n), cold))
	}
	return cases
}

// updateCases measures the store's write side over a populated store,
// one device picked at random per operation: a state report that stays
// in its cell, one that changes cell (each device commutes between its
// home and a point 750 m north, so the population is a steady mix and
// slabs sit between their capacity marks), and a re-registration in
// place.
func updateCases(tb testing.TB, n int) []selectionCase {
	store := benchStore(tb, n)
	fleet := store.All()
	work := make([]geo.Point, n)
	for k := range fleet {
		work[k] = geo.Offset(fleet[k].Position, 750, 0)
	}
	away := make([]bool, n)
	rng := rand.New(rand.NewSource(9))
	report := func(move bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := rng.Intn(n)
				pos := fleet[k].Position
				if move {
					if away[k] = !away[k]; away[k] {
						pos = work[k]
					}
				}
				if err := store.UpdateState(fleet[k].ID, pos, 50, simclock.Epoch); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return []selectionCase{
		{name: fmt.Sprintf("update/in-cell/devices=%d", n), devices: n, run: report(false)},
		{name: fmt.Sprintf("update/re-register/devices=%d", n), devices: n, run: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := store.Register(fleet[rng.Intn(n)]); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: fmt.Sprintf("update/cell-move/devices=%d", n), devices: n, run: report(true)},
	}
}

// BenchmarkDeviceStoreUpdateState measures the writes that share the
// store with selection; see updateCases.
func BenchmarkDeviceStoreUpdateState(b *testing.B) {
	for _, c := range updateCases(b, benchSizes[len(benchSizes)-1]) {
		b.Run(c.name, c.run)
	}
}

var benchSizes = []int{1_000, 10_000, 100_000}

// coldRegions is how many task regions the cold cases rotate through:
// the end-to-end benchmark's task count.
const coldRegions = 400

// BenchmarkSelection measures one device selection as the registered
// population grows; see selectionCases for the three paths.
func BenchmarkSelection(b *testing.B) {
	for _, n := range benchSizes {
		for _, c := range selectionCases(b, n) {
			b.Run(c.name, c.run)
		}
	}
}

// benchRecord is one measured case in BENCH_selection.json.
type benchRecord struct {
	Name        string  `json:"name"`
	Devices     int     `json:"devices"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// TestRecordSelectionBench runs the selection benchmark matrix and the
// store's write-side cases and
// writes BENCH_selection.json in the BENCH_*.json common schema. It is
// gated on SENSEAID_BENCH_OUT (ci.sh sets it); besides recording, it
// FAILS when the production pass allocates more than
// selectionAllocBudget per selection at any size, when it is less than
// fusedOverOracleMin times faster than the copying path it replaced at
// 100k devices and density 20 (same region every time, or a rotation of
// regions), when it has lost its 10x advantage in time and
// allocations over the pre-index full scan, or when a state report that
// changes cell allocates or costs more than moveOverReportMax times one
// that does not.
func TestRecordSelectionBench(t *testing.T) {
	out := os.Getenv("SENSEAID_BENCH_OUT")
	if out == "" {
		t.Skip("SENSEAID_BENCH_OUT not set; benchmark recording runs from ci.sh")
	}
	var records []benchRecord
	byName := make(map[string]benchRecord)
	record := func(cases []selectionCase) {
		for _, c := range cases {
			res := testing.Benchmark(c.run)
			rec := benchRecord{
				Name:        c.name,
				Devices:     c.devices,
				NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			}
			records = append(records, rec)
			byName[rec.Name] = rec
			t.Logf("%s: %.0f ns/op, %d allocs/op, %d B/op", rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp)
		}
	}
	for _, n := range benchSizes {
		record(selectionCases(t, n))
	}
	record(updateCases(t, benchSizes[len(benchSizes)-1]))

	// Gate 1: the production pass's allocation hygiene.
	for _, rec := range records {
		if strings.HasPrefix(rec.Name, "fused") && rec.AllocsPerOp > selectionAllocBudget {
			t.Errorf("%s allocates %d/op, budget %d — the hot path regressed",
				rec.Name, rec.AllocsPerOp, selectionAllocBudget)
		}
	}

	// Gate 2: the fused pass against the path it replaced.
	ratios := make(map[string]float64)
	for _, k := range benchDensities {
		oracle := byName[fmt.Sprintf("oracle/density=%d/devices=100000", k)]
		fused := byName[fmt.Sprintf("fused/density=%d/devices=100000", k)]
		ratios[fmt.Sprintf("oracle_over_fused_ns_100k_density_%d", k)] = oracle.NsPerOp / math.Max(fused.NsPerOp, 1)
	}
	ratios["oracle_over_fused_ns_100k_density_20_cold"] = byName["oracle-cold/density=20/devices=100000"].NsPerOp /
		math.Max(byName["fused-cold/density=20/devices=100000"].NsPerOp, 1)
	for _, name := range []string{"oracle_over_fused_ns_100k_density_20", "oracle_over_fused_ns_100k_density_20_cold"} {
		if ratios[name] < fusedOverOracleMin {
			t.Errorf("%s = %.1f: the fused pass must be >= %dx faster than the copying path", name, ratios[name], fusedOverOracleMin)
		}
	}

	// Gate 3: the index must still beat the full scan by >= 10x at 100k
	// devices, in both time and allocations.
	full := byName["full-scan/density=5/devices=100000"]
	fused := byName["fused/density=5/devices=100000"]
	ratios["fullscan_over_fused_ns_100k"] = full.NsPerOp / math.Max(fused.NsPerOp, 1)
	ratios["fullscan_over_fused_allocs_100k"] = float64(full.AllocsPerOp) / math.Max(float64(fused.AllocsPerOp), 1)
	for _, name := range []string{"fullscan_over_fused_ns_100k", "fullscan_over_fused_allocs_100k"} {
		if ratios[name] < 10 {
			t.Errorf("%s = %.1f, want >= 10", name, ratios[name])
		}
	}

	// Gate 4: the write side sharing the store with the pass.
	report := byName["update/in-cell/devices=100000"]
	move := byName["update/cell-move/devices=100000"]
	ratios["cell_move_over_in_cell_report_ns_100k"] = move.NsPerOp / math.Max(report.NsPerOp, 1)
	if move.AllocsPerOp != 0 {
		t.Errorf("a cell move allocates %d/op in steady state, want 0", move.AllocsPerOp)
	}
	if r := ratios["cell_move_over_in_cell_report_ns_100k"]; r > moveOverReportMax {
		t.Errorf("a cell move costs %.1fx an in-cell report, want <= %d", r, moveOverReportMax)
	}

	doc := map[string]interface{}{
		"schema":                   "senseaid-bench-selection/2",
		"go":                       runtime.Version(),
		"recorded_at":              time.Now().UTC().Format(time.RFC3339),
		"commit":                   headCommit(),
		"region_pct_of_population": 1,
		"ratios":                   ratios,
		"cases":                    records,
		"gates": []string{
			fmt.Sprintf("fused allocs/op <= %d at every size and density", selectionAllocBudget),
			fmt.Sprintf("oracle ns/op over fused ns/op >= %d at 100k devices, density 20, one region and rotating regions", fusedOverOracleMin),
			"full-scan over fused >= 10 at 100k devices, in ns/op and allocs/op",
			fmt.Sprintf("a state report that changes cell: 0 allocs/op and <= %dx one that does not, at 100k devices", moveOverReportMax),
		},
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%v)", out, ratios)
}

// headCommit names the commit the recording ran on top of ("unknown"
// outside a git checkout; "-dirty" when the tree had local changes).
func headCommit() string {
	rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(rev))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}
