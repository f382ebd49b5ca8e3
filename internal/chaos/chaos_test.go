package chaos

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"senseaid/internal/gitstamp"
)

// Every scenario must finish with zero invariant violations; a failure
// prints the report (which carries the scenario seed) so the run
// reproduces from one integer.

func runClean(t *testing.T, sc Scenario) *Report {
	t.Helper()
	rep, err := Run(sc)
	if err != nil {
		t.Fatalf("%s (seed %d): %v", sc.Name, sc.Seed, err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("%s (seed %d): %d invariant violations:\n%s",
			sc.Name, sc.Seed, len(rep.Violations), strings.Join(rep.Violations, "\n"))
	}
	if rep.Selections == 0 {
		t.Fatalf("%s (seed %d): soak dispatched nothing; scenario is vacuous", sc.Name, sc.Seed)
	}
	if rep.Deliveries == 0 {
		t.Fatalf("%s (seed %d): soak delivered nothing", sc.Name, sc.Seed)
	}
	t.Logf("%s (seed %d): %d devices, %d ticks, %d selections, %d deliveries, %d rejected, %d dark, %d recoveries, p99 %v",
		sc.Name, sc.Seed, rep.Devices, rep.Ticks, rep.Selections, rep.Deliveries,
		rep.Rejected, rep.DarkReports, rep.Recoveries, rep.DispatchP99)
	return rep
}

func TestTowerOutageCampaign(t *testing.T) {
	rep := runClean(t, TowerOutageScenario(11, 600))
	if rep.DarkReports == 0 {
		t.Fatal("tower outages opened no coverage holes; the fault wave was vacuous")
	}
}

func TestPrimaryCrashCampaign(t *testing.T) {
	rep := runClean(t, CrashScenario(12, 500))
	if rep.Recoveries != 2 {
		t.Fatalf("survived %d recoveries, want 2", rep.Recoveries)
	}
}

func TestByzantineFloodCampaign(t *testing.T) {
	rep := runClean(t, ByzantineScenario(13, 400))
	if rep.Rejected == 0 {
		t.Fatal("a fleet with 15 percent liars produced no rejected uploads")
	}
}

func TestFlashCrowdCampaign(t *testing.T) {
	runClean(t, FlashCrowdScenario(14, 600))
}

// TestCityWideCampaign is the kitchen sink at test scale: outages,
// primary SIGKILLs, byzantine and clock-skewed reporters, a flash
// crowd, and CAS storms in one seeded run.
func TestCityWideCampaign(t *testing.T) {
	devices := 2000
	if testing.Short() {
		devices = 800
	}
	rep := runClean(t, CityWideScenario(15, devices))
	if rep.Recoveries != 2 {
		t.Fatalf("survived %d recoveries, want 2", rep.Recoveries)
	}
	if rep.Rejected == 0 {
		t.Fatal("no byzantine or skewed upload was ever rejected")
	}
}

// TestSeedReproducesVirtualOutcome re-runs a scenario with its seed and
// requires the virtual-time outcome (selections, deliveries, dark
// reports) to repeat exactly — the property that makes a printed seed
// an actual repro.
func TestSeedReproducesVirtualOutcome(t *testing.T) {
	a := runClean(t, TowerOutageScenario(77, 300))
	b := runClean(t, TowerOutageScenario(77, 300))
	if a.Selections != b.Selections || a.Deliveries != b.Deliveries ||
		a.Rejected != b.Rejected || a.DarkReports != b.DarkReports {
		t.Fatalf("seed 77 diverged across runs:\n%+v\n%+v", a, b)
	}
}

// cityBenchRecord is the BENCH_city.json schema.
type cityBenchRecord struct {
	Schema             string  `json:"schema"`
	Commit             string  `json:"commit"`
	Tree               string  `json:"tree"`
	Scenario           string  `json:"scenario"`
	Seed               int64   `json:"seed"`
	Devices            int     `json:"devices"`
	Ticks              int     `json:"ticks"`
	Selections         int     `json:"selections"`
	Deliveries         int     `json:"deliveries"`
	Rejected           int     `json:"rejected"`
	Recoveries         int     `json:"recoveries"`
	SelectionsPerSec   float64 `json:"selections_per_sec"`
	DispatchP99Seconds float64 `json:"dispatch_p99_seconds"`
	WallSeconds        float64 `json:"wall_seconds"`
	Violations         int     `json:"violations"`
}

// TestRecordCityBench runs the city-wide chaos soak at scale (default
// 100k simulated devices; SENSEAID_CHAOS_DEVICES overrides), requires
// zero invariant violations, and writes BENCH_city.json with the
// steady-state selections/sec and dispatch p99. Gated on
// SENSEAID_BENCH_OUT (ci.sh sets it).
func TestRecordCityBench(t *testing.T) {
	out := os.Getenv("SENSEAID_BENCH_OUT")
	if out == "" {
		t.Skip("SENSEAID_BENCH_OUT not set; benchmark recording runs from ci.sh")
	}
	devices := 100_000
	if v := os.Getenv("SENSEAID_CHAOS_DEVICES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("SENSEAID_CHAOS_DEVICES=%q: not a positive integer", v)
		}
		devices = n
	}
	const seed = 1803
	sc := CityWideScenario(seed, devices)
	start := time.Now()
	rep, err := Run(sc)
	if err != nil {
		t.Fatalf("city-wide soak (seed %d): %v", seed, err)
	}
	commit, tree := gitstamp.Stamp()
	rec := cityBenchRecord{
		Schema:             "senseaid-bench-city/1",
		Commit:             commit,
		Tree:               tree,
		Scenario:           rep.Scenario,
		Seed:               rep.Seed,
		Devices:            rep.Devices,
		Ticks:              rep.Ticks,
		Selections:         rep.Selections,
		Deliveries:         rep.Deliveries,
		Rejected:           rep.Rejected,
		Recoveries:         rep.Recoveries,
		SelectionsPerSec:   rep.SelectionsPerSec,
		DispatchP99Seconds: rep.DispatchP99Seconds,
		WallSeconds:        rep.WallSeconds,
		Violations:         len(rep.Violations),
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d devices, %d ticks in %.1fs wall: %d selections (%.1f/s), %d deliveries, %d rejected, %d recoveries, dispatch p99 %.4fs -> %s",
		rec.Devices, rec.Ticks, time.Since(start).Seconds(), rec.Selections,
		rec.SelectionsPerSec, rec.Deliveries, rec.Rejected, rec.Recoveries,
		rec.DispatchP99Seconds, out)
	if len(rep.Violations) > 0 {
		t.Fatalf("city-wide soak (seed %d): %d invariant violations:\n%s",
			seed, len(rep.Violations), strings.Join(rep.Violations, "\n"))
	}
	if rep.Selections == 0 || rep.Deliveries == 0 {
		t.Fatalf("city-wide soak (seed %d) was vacuous: %+v", seed, rec)
	}
}
