// Package senseaid's root benchmark harness regenerates every table and
// figure of the paper's evaluation (run with `go test -bench=. -benchmem`)
// and adds ablation benches for the design choices DESIGN.md calls out.
//
// Each benchmark reports the headline metric of its figure via
// b.ReportMetric, so a bench run doubles as a compact reproduction report:
//
//   - J/total, J/device  — energy figures (8, 11, 13, 14, 2)
//   - savingPct          — Table 2 comparisons
//   - devices/round      — figures 7, 10, 12
//   - tailSec            — figure 6
package senseaid

import (
	"fmt"
	"testing"
	"time"

	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/obs"
	"senseaid/internal/power"
	"senseaid/internal/radio"
	"senseaid/internal/reputation"
	"senseaid/internal/sensors"
	"senseaid/internal/sim"
	"senseaid/internal/simclock"
	"senseaid/internal/study"
	"senseaid/internal/wire"
)

func benchConfig() study.Config { return study.Config{Devices: 20, Seed: 2017} }

// --- Figures 1, 2, 6: motivation and mechanism ---

func BenchmarkFigure1Survey(b *testing.B) {
	var buckets []study.SurveyBucket
	for i := 0; i < b.N; i++ {
		buckets = study.SurveyFigure1()
	}
	b.ReportMetric(buckets[0].Percent, "tolerant2pct%")
}

func BenchmarkFigure2CaseStudy(b *testing.B) {
	var cells []study.Figure2Cell
	for i := 0; i < b.N; i++ {
		cells = study.RunFigure2()
	}
	for _, c := range cells {
		if c.App == "Pressurenet" && c.Network == "LTE" && c.PeriodMin == 5 {
			b.ReportMetric(c.BatteryPct, "pressurenetLTE%")
		}
	}
}

func BenchmarkFigure6TailTimeline(b *testing.B) {
	var f study.Figure6Result
	for i := 0; i < b.N; i++ {
		f = study.RunFigure6()
	}
	b.ReportMetric(f.TailSeconds, "tailSec")
}

// --- Experiment 1: Figures 7, 8 ---

func BenchmarkFigure7QualifiedDevices(b *testing.B) {
	var exp *study.ExperimentResult
	for i := 0; i < b.N; i++ {
		var err error
		exp, err = study.RunExperiment1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := exp.Tests[len(exp.Tests)-1]
	b.ReportMetric(last.Basic.AvgQualified, "qualified@1000m")
}

func BenchmarkFigure8EnergyByRadius(b *testing.B) {
	var exp *study.ExperimentResult
	for i := 0; i < b.N; i++ {
		var err error
		exp, err = study.RunExperiment1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := exp.Tests[len(exp.Tests)-1]
	b.ReportMetric(last.Basic.TotalCrowdJ, "basicJ@1000m")
	b.ReportMetric(last.PCS.TotalCrowdJ, "pcsJ@1000m")
	b.ReportMetric(last.Savings()[study.RowCompleteOverPCS]*100, "savingPct")
}

// --- Figure 9: fairness ---

func BenchmarkFigure9Fairness(b *testing.B) {
	var f *study.Figure9Result
	for i := 0; i < b.N; i++ {
		var err error
		f, err = study.RunFigure9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	max := 0
	for _, c := range f.Counts {
		if c > max {
			max = c
		}
	}
	b.ReportMetric(float64(max), "maxSelections")
}

// --- Experiment 2: Figures 10, 11 ---

func BenchmarkFigure10SelectedDevices(b *testing.B) {
	var exp *study.ExperimentResult
	for i := 0; i < b.N; i++ {
		var err error
		exp, err = study.RunExperiment2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(exp.Tests[0].Basic.AvgSelected, "sa-devices/round")
	b.ReportMetric(exp.Tests[0].Periodic.AvgSelected, "periodic-devices/round")
}

func BenchmarkFigure11EnergyByPeriod(b *testing.B) {
	var exp *study.ExperimentResult
	for i := 0; i < b.N; i++ {
		var err error
		exp, err = study.RunExperiment2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	oneMin := exp.Tests[0]
	b.ReportMetric(oneMin.Basic.AvgPerParticipantJ(), "basicJ/device@1min")
	b.ReportMetric(oneMin.PCS.AvgPerParticipantJ(), "pcsJ/device@1min")
}

// --- Experiment 3: Figures 12, 13 ---

func BenchmarkFigure12SelectedByTasks(b *testing.B) {
	var exp *study.ExperimentResult
	for i := 0; i < b.N; i++ {
		var err error
		exp, err = study.RunExperiment3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := exp.Tests[len(exp.Tests)-1]
	b.ReportMetric(last.Basic.AvgSelected, "sa-devices/round@15tasks")
}

func BenchmarkFigure13EnergyByTasks(b *testing.B) {
	var exp *study.ExperimentResult
	for i := 0; i < b.N; i++ {
		var err error
		exp, err = study.RunExperiment3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := exp.Tests[len(exp.Tests)-1]
	b.ReportMetric(last.Basic.AvgPerParticipantJ(), "basicJ/device@15tasks")
	b.ReportMetric(last.Savings()[study.RowCompleteOverPCS]*100, "savingPct@15tasks")
}

// --- Figure 14: PCS accuracy model ---

func BenchmarkFigure14PCSAccuracy(b *testing.B) {
	var f *study.Figure14Result
	for i := 0; i < b.N; i++ {
		var err error
		f, err = study.RunFigure14(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range f.Points {
		if p.Accuracy == 0.4 {
			b.ReportMetric(p.PerDeviceJ, "pcsJ/device@40%")
		}
		if p.Accuracy == 1.0 {
			b.ReportMetric(p.PerDeviceJ, "pcsJ/device@100%")
		}
	}
	b.ReportMetric(f.BasicPerDeviceJ, "basicJ/device")
}

// --- Table 2 ---

func BenchmarkTable2Summary(b *testing.B) {
	var tbl *study.Table2
	for i := 0; i < b.N; i++ {
		e1, err := study.RunExperiment1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		e2, err := study.RunExperiment2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		e3, err := study.RunExperiment3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		tbl = study.BuildTable2(e1, e2, e3)
	}
	// Report Experiment 1's Complete/Periodic row — the paper's 94.9%.
	for _, row := range tbl.Blocks[0].Rows {
		if row.Label == study.RowCompleteOverPeriodic {
			b.ReportMetric(row.Avg*100, "exp1savingPct")
		}
	}
}

// --- Ablations (DESIGN.md section 6) ---

// representativeTask is the 1 km / density 2 / 10 min task used by the
// ablations.
func representativeTask() core.Task {
	return core.Task{
		Sensor:         sensors.Barometer,
		SamplingPeriod: 10 * time.Minute,
		Start:          simclock.Epoch,
		End:            simclock.Epoch.Add(90 * time.Minute),
		Area:           geo.Circle{Center: geo.CSDepartment, RadiusM: 1000},
		SpatialDensity: 2,
	}
}

func runSA(b *testing.B, fw sim.Framework, seed int64) *sim.RunResult {
	b.Helper()
	w, err := sim.NewWorld(sim.WorldConfig{NumDevices: 20, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	res, err := fw.Run(w, []core.Task{representativeTask()})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationTailReset isolates the paper's own ablation: Basic
// (stock RRC tail reset) vs Complete (carrier-cooperative no-reset).
func BenchmarkAblationTailReset(b *testing.B) {
	var basic, complete *sim.RunResult
	for i := 0; i < b.N; i++ {
		basic = runSA(b, sim.SenseAid{Variant: sim.Basic}, 2017)
		complete = runSA(b, sim.SenseAid{Variant: sim.Complete}, 2017)
	}
	b.ReportMetric(basic.TotalCrowdJ, "basicJ")
	b.ReportMetric(complete.TotalCrowdJ, "completeJ")
}

// BenchmarkAblationSelectAllQualified measures orchestration off: every
// qualified device is tasked, but uploads still ride tail windows (the
// paper: select-all Sense-Aid still beats PCS by 54.5%).
func BenchmarkAblationSelectAllQualified(b *testing.B) {
	var selectAll, pcs *sim.RunResult
	for i := 0; i < b.N; i++ {
		selectAll = runSA(b, sim.SenseAid{Server: core.ServerConfig{SelectAll: true}}, 2017)
		w, err := sim.NewWorld(sim.WorldConfig{NumDevices: 20, Seed: 2017})
		if err != nil {
			b.Fatal(err)
		}
		pcs, err = sim.PCS{Seed: 2017}.Run(w, []core.Task{representativeTask()})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(selectAll.TotalCrowdJ, "selectAllJ")
	b.ReportMetric(study.Saving(selectAll.TotalCrowdJ, pcs.TotalCrowdJ)*100, "savingOverPCSPct")
}

// BenchmarkAblationSelectorWeights zeroes the fairness term (beta): the
// selection imbalance (max-min selections per device) shows what the
// weight buys.
func BenchmarkAblationSelectorWeights(b *testing.B) {
	imbalance := func(res *sim.RunResult) float64 {
		counts := map[string]int{}
		for _, sel := range res.Selections {
			for _, id := range sel.Devices {
				counts[id]++
			}
		}
		max, min := 0, 1<<30
		for _, c := range counts {
			if c > max {
				max = c
			}
			if c < min {
				min = c
			}
		}
		if min == 1<<30 {
			min = 0
		}
		return float64(max - min)
	}

	noBeta := core.DefaultServerConfig()
	noBeta.Selector.Beta = 0
	var fair, unfair *sim.RunResult
	for i := 0; i < b.N; i++ {
		fair = runSA(b, sim.SenseAid{}, 2017)
		unfair = runSA(b, sim.SenseAid{Server: noBeta}, 2017)
	}
	b.ReportMetric(imbalance(fair), "imbalanceFair")
	b.ReportMetric(imbalance(unfair), "imbalanceNoBeta")
}

// BenchmarkAblationControlAccounting includes the control-plane traffic
// the paper excludes from its energy numbers.
func BenchmarkAblationControlAccounting(b *testing.B) {
	var with, without *sim.RunResult
	for i := 0; i < b.N; i++ {
		without = runSA(b, sim.SenseAid{}, 2017)
		with = runSA(b, sim.SenseAid{CountControl: true}, 2017)
	}
	b.ReportMetric(without.TotalCrowdJ, "excludingControlJ")
	b.ReportMetric(with.TotalCrowdJ, "includingControlJ")
}

// BenchmarkAblationTrafficDensity runs Sense-Aid on a quiet cohort (20-min
// mean session gaps): fewer tail windows, more forced promotions.
func BenchmarkAblationTrafficDensity(b *testing.B) {
	var quiet *sim.RunResult
	for i := 0; i < b.N; i++ {
		w, err := sim.NewWorld(sim.WorldConfig{NumDevices: 20, Seed: 2017, Quiet: true})
		if err != nil {
			b.Fatal(err)
		}
		quiet, err = sim.SenseAid{}.Run(w, []core.Task{representativeTask()})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(quiet.TotalCrowdJ, "quietJ")
	b.ReportMetric(float64(quiet.Uploads.Forced), "forcedUploads")
}

// --- Micro-benchmarks of the core data paths ---

func BenchmarkSelectorSelect(b *testing.B) {
	sel, err := core.NewSelector(core.DefaultSelectorConfig())
	if err != nil {
		b.Fatal(err)
	}
	store := core.NewDeviceStore()
	for i := 0; i < 500; i++ {
		if err := store.Register(core.DeviceState{
			ID:         deviceID(i),
			Position:   geo.Offset(geo.CSDepartment, float64(i%40)*20, float64(i%25)*20),
			BatteryPct: float64(30 + i%70),
			TimesUsed:  i % 5,
			LastComm:   simclock.Epoch,
			Sensors:    []sensors.Type{sensors.Barometer},
			Budget:     power.DefaultBudget(),
		}); err != nil {
			b.Fatal(err)
		}
	}
	task := representativeTask()
	task.ID = "bench"
	reqs, err := task.Expand()
	if err != nil {
		b.Fatal(err)
	}
	var sc core.SelectScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.SelectIn(store, reqs[0], simclock.Epoch, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

func deviceID(i int) string {
	return string([]byte{byte('a' + i%26), byte('a' + (i/26)%26), byte('0' + i%10)})
}

func BenchmarkWireFrameRoundTrip(b *testing.B) {
	env, err := wire.Encode(wire.TypeSenseData, 1, wire.SenseData{
		RequestID: "task-1#3",
		Reading: sensors.Reading{
			Sensor: sensors.Barometer, Value: 1013.25, Unit: "hPa",
			At: simclock.Epoch, Where: geo.CSDepartment,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	buf := &loopBuffer{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.reset()
		if err := wire.WriteFrame(buf, env); err != nil {
			b.Fatal(err)
		}
		if _, err := wire.ReadFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// loopBuffer is a reusable in-memory frame buffer.
type loopBuffer struct {
	data []byte
	off  int
}

func (l *loopBuffer) reset()                      { l.data = l.data[:0]; l.off = 0 }
func (l *loopBuffer) Write(p []byte) (int, error) { l.data = append(l.data, p...); return len(p), nil }
func (l *loopBuffer) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// BenchmarkRegistryHotPath proves the observability layer is cheap enough
// to sit on every scheduling and upload path: a counter increment is a
// single atomic add (target < 50 ns, zero allocations), and gauge/histogram
// writes stay lock-free.
func BenchmarkRegistryHotPath(b *testing.B) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_total", "hot-path counter", obs.Labels{"path": "tail"})
	g := reg.Gauge("bench_depth", "hot-path gauge", nil)
	h := reg.Histogram("bench_seconds", "hot-path histogram", obs.DefBuckets, nil)

	b.Run("counter-inc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctr.Inc()
		}
	})
	b.Run("gauge-set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(float64(i))
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.003)
		}
	})
	b.Run("counter-inc-parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				ctr.Inc()
			}
		})
	})
}

// --- Scalability (the paper's "large geographic regions" ongoing work) ---

// BenchmarkScaleShardedSelection compares one scheduling pass over a large
// device population on a single server vs a four-region ShardedServer.
// Sharding bounds each selection scan to one region's devices.
func BenchmarkScaleShardedSelection(b *testing.B) {
	const perRegion = 250
	regions := []core.Region{
		{Name: "r1", Area: geo.Circle{Center: geo.CSDepartment, RadiusM: 1500}},
		{Name: "r2", Area: geo.Circle{Center: geo.Offset(geo.CSDepartment, 0, 10_000), RadiusM: 1500}},
		{Name: "r3", Area: geo.Circle{Center: geo.Offset(geo.CSDepartment, 10_000, 0), RadiusM: 1500}},
		{Name: "r4", Area: geo.Circle{Center: geo.Offset(geo.CSDepartment, 10_000, 10_000), RadiusM: 1500}},
	}
	noop := core.DispatcherFunc(func(core.Request, core.DeviceState) {})

	makeDevice := func(region, i int) core.DeviceState {
		return core.DeviceState{
			ID:         fmt.Sprintf("r%d-dev-%03d", region, i),
			Position:   geo.Offset(regions[region].Area.Center, float64(i%30)*20, float64(i%20)*20),
			BatteryPct: 80,
			LastComm:   simclock.Epoch,
			Sensors:    []sensors.Type{sensors.Barometer},
			Budget:     power.DefaultBudget(),
			Responsive: true,
		}
	}
	makeTask := func(region int) core.Task {
		t := representativeTask()
		t.Area = geo.Circle{Center: regions[region].Area.Center, RadiusM: 800}
		return t
	}

	// Each iteration submits one fresh one-shot round per region and
	// measures the scheduling pass over the full device population.
	oneShot := func(region int) core.Task {
		t := makeTask(region)
		t.SamplingPeriod = 0
		t.End = time.Time{}
		return t
	}
	sink := func(core.TaskID, string, sensors.Reading) {}

	b.Run("single", func(b *testing.B) {
		cfg := core.DefaultServerConfig()
		cfg.Selector.MaxUses = 1 << 30
		srv, err := core.NewServer(cfg, noop)
		if err != nil {
			b.Fatal(err)
		}
		for r := range regions {
			for i := 0; i < perRegion; i++ {
				if err := srv.Devices().Register(makeDevice(r, i)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for r := range regions {
				if _, err := srv.SubmitTask(oneShot(r), simclock.Epoch, sink); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			srv.ProcessDue(simclock.Epoch)
		}
	})

	b.Run("sharded", func(b *testing.B) {
		cfg := core.DefaultServerConfig()
		cfg.Selector.MaxUses = 1 << 30
		srv, err := core.NewShardedServer(cfg, noop, regions)
		if err != nil {
			b.Fatal(err)
		}
		for r := range regions {
			for i := 0; i < perRegion; i++ {
				if err := srv.RegisterDevice(makeDevice(r, i)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for r := range regions {
				if _, err := srv.SubmitTask(oneShot(r), simclock.Epoch, sink); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			srv.ProcessDue(simclock.Epoch)
		}
	})
}

// BenchmarkLargeCohortStudy runs the representative task on a 200-device
// cohort — an order of magnitude beyond the user study — to demonstrate
// the simulator scales.
func BenchmarkLargeCohortStudy(b *testing.B) {
	var res *sim.RunResult
	for i := 0; i < b.N; i++ {
		w, err := sim.NewWorld(sim.WorldConfig{NumDevices: 200, Seed: 2017})
		if err != nil {
			b.Fatal(err)
		}
		res, err = sim.SenseAid{}.Run(w, []core.Task{representativeTask()})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AvgQualified, "qualified/round")
	b.ReportMetric(res.TotalCrowdJ, "J/total")
}

// BenchmarkAblationReputationWeight shows what the reliability factor
// buys: a cohort with one device feeding garbage, selected with and
// without the reputation cutoff. The metric is the fraction of readings
// the garbage device contributed.
func BenchmarkAblationReputationWeight(b *testing.B) {
	run := func(withReputation bool) float64 {
		// A fast-reacting tracker: one garbage round halves the trust.
		tracker := reputation.NewTracker(reputation.Config{Alpha: 0.5})
		cfg := core.DefaultServerConfig()
		if withReputation {
			cfg.Reputation = tracker
			cfg.Selector.Rho = 5
			cfg.Selector.MinReliability = 0.45
		}
		var liarReadings, total int
		dispatched := make(chan struct{}, 1)
		_ = dispatched
		d := core.DispatcherFunc(func(core.Request, core.DeviceState) {})
		srv, err := core.NewServer(cfg, d)
		if err != nil {
			b.Fatal(err)
		}
		// Four honest devices plus one liar, all at the CS department.
		ids := []string{"h1", "h2", "h3", "h4", "liar"}
		for _, id := range ids {
			err := srv.Devices().Register(core.DeviceState{
				ID: id, Position: geo.CSDepartment, BatteryPct: 90,
				LastComm: simclock.Epoch,
				Sensors:  []sensors.Type{sensors.Barometer},
				Budget:   power.DefaultBudget(),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		task := representativeTask()
		task.SpatialDensity = 4
		if _, err := srv.SubmitTask(task, simclock.Epoch, func(_ core.TaskID, dev string, _ sensors.Reading) {
			total++
			if dev == "liar" {
				liarReadings++
			}
		}); err != nil {
			b.Fatal(err)
		}
		// Drive nine rounds; every selected device answers, the liar
		// with garbage.
		for round := 0; round < 9; round++ {
			now := simclock.Epoch.Add(time.Duration(round) * 10 * time.Minute)
			srv.ProcessDue(now)
			for _, sel := range srv.Selections() {
				if !sel.At.Equal(now) {
					continue
				}
				for _, dev := range sel.Devices {
					value := 1013.2
					if dev == "liar" {
						value = 300
					}
					reading := sensors.Reading{
						Sensor: sensors.Barometer, Value: value, Unit: "hPa",
						At: now.Add(time.Second), Where: geo.CSDepartment,
					}
					reqID := sel.Request
					_ = srv.ReceiveData(reqID, dev, reading, now.Add(time.Second))
				}
			}
		}
		if total == 0 {
			return 0
		}
		return float64(liarReadings) / float64(total)
	}

	var with, without float64
	for i := 0; i < b.N; i++ {
		without = run(false)
		with = run(true)
	}
	b.ReportMetric(without*100, "liarSharePct-off")
	b.ReportMetric(with*100, "liarSharePct-on")
}

// BenchmarkAblation3GRadio runs the representative Sense-Aid task on a 3G
// cohort: slower promotions, longer but cooler tails. The paper's Figure 2
// contrast (LTE hotter than 3G) should persist through the full framework.
func BenchmarkAblation3GRadio(b *testing.B) {
	run := func(prof radio.PowerProfile) *sim.RunResult {
		w, err := sim.NewWorld(sim.WorldConfig{NumDevices: 20, Seed: 2017, Profile: prof})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.SenseAid{}.Run(w, []core.Task{representativeTask()})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var lte, g3 *sim.RunResult
	for i := 0; i < b.N; i++ {
		lte = run(radio.LTE())
		g3 = run(radio.ThreeG())
	}
	b.ReportMetric(lte.TotalCrowdJ, "lteJ")
	b.ReportMetric(g3.TotalCrowdJ, "threeGJ")
}
