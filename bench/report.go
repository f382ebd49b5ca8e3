package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// printResult writes every metric as "name value unit", the timings
// with their sample counts, the budget table, and any violations.
func printResult(w io.Writer, res *runResult) {
	kind, defs := "end-to-end (untraced)", endToEnd
	if res.Traced {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "# %s seed %d, %.0fs, %s, inputs %s; %s\n",
		res.Workload, res.Seed, res.Seconds, kind, res.Digest, res.Layout)
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %14.4f %s", d.Name, res.Metrics[d.Name], d.Unit)
		if d.Moves != "" {
			fmt.Fprintf(w, "%*s-> %s", 6-len(d.Unit), "", d.Moves)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-40s %14d\n", "attempted", res.Attempted)
	fmt.Fprintf(w, "%-40s %14d\n", "failed", res.Failed)
	if res.Attempted > 0 {
		fmt.Fprintf(w, "%-40s %14.6f ratio\n", "failed_ratio", float64(res.Failed)/float64(res.Attempted))
	}
	for _, name := range sortedKeys(res.Timings) {
		t := res.Timings[name]
		fmt.Fprintf(w, "timing %-33s n=%-8d p50 %.2f  p%g %.2f\n", name, t.N, t.P50, 100*t.TailQ, t.Tail)
	}
	if len(res.Budget) > 0 {
		fmt.Fprintln(w, "budget: CPU per upload by layer")
		for _, r := range res.Budget {
			fmt.Fprintf(w, "  %-42s %10.3f us %6.1f%%\n", r.Layer, r.Us, 100*r.Share)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
}

// saveResult writes <workload>.<e2e|layers>.json and, for a traced run,
// <workload>.spans.jsonl.
func saveResult(dir string, res *runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if res.Traced {
		kind = "layers"
		if err := writeSpans(filepath.Join(dir, res.Workload+".spans.jsonl"), res.spans); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, res.Workload+"."+kind+".json"), res)
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// summaryFile is what -workload all writes and -compare reads. Sets
// holds one entry per -repeat; each maps workload -> metric -> value
// for the end-to-end metrics. Claim is always null: a run of the
// benchmark states numbers, never a gain.
type summaryFile struct {
	Schema     string                          `json:"schema"`
	Go         string                          `json:"go"`
	CPUs       int                             `json:"cpus"`
	GOMAXPROCS int                             `json:"gomaxprocs"`
	Loopback   bool                            `json:"loopback"`
	RecordedAt string                          `json:"recorded_at"`
	Seed       int64                           `json:"seed"`
	Seconds    float64                         `json:"seconds"`
	Sets       []map[string]map[string]float64 `json:"sets"`
	Layers     map[string]map[string]float64   `json:"layers"`
	Failed     map[string]int64                `json:"failed"`
	Claim      *string                         `json:"claim"`
}

// runAll runs every workload untraced then traced, `repeat` times, and
// writes summary.json (and repeatability.json when repeat > 1).
func runAll(ev env, seed int64, seconds float64, repeat int, outDir string) int {
	sum := summaryFile{
		Schema: "senseaid-bench/1", Go: runtime.Version(), CPUs: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Loopback: true,
		RecordedAt: time.Now().UTC().Format(time.RFC3339), Seed: seed, Seconds: seconds,
		Layers: make(map[string]map[string]float64), Failed: make(map[string]int64),
	}
	code := 0
	for rep := 0; rep < repeat; rep++ {
		set := make(map[string]map[string]float64)
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := runOne(ev, w, seed, seconds, traced)
				if err != nil {
					return report(err)
				}
				printResult(os.Stdout, res)
				fmt.Println()
				if err := saveResult(outDir, res); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return exitFailed
				}
				if !res.Correct {
					code = exitFailed
				}
				if traced {
					sum.Layers[w.Name] = res.Metrics
				} else {
					set[w.Name] = res.Metrics
					sum.Failed[w.Name] += res.Failed
				}
			}
		}
		sum.Sets = append(sum.Sets, set)
	}
	if err := writeJSON(filepath.Join(outDir, "summary.json"), sum); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return exitFailed
	}
	if repeat > 1 {
		if err := writeRepeatability(filepath.Join(outDir, "repeatability.json"), sum); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return exitFailed
		}
	}
	return code
}

// spreadOf is the widest relative difference between any two sets'
// values of one metric (0 with a single set).
func spreadOf(sets []map[string]map[string]float64, workload, metric string) float64 {
	worst := 0.0
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if d := relDiff(sets[i][workload][metric], sets[j][workload][metric]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// medianOver is a metric's median across a file's sets.
func medianOver(sets []map[string]map[string]float64, workload, metric string) float64 {
	var v []float64
	for _, s := range sets {
		if x, ok := s[workload][metric]; ok {
			v = append(v, x)
		}
	}
	return median(v)
}

// writeRepeatability records, per workload and end-to-end metric, how
// far the repeated sets disagreed and whether that is within the bound.
func writeRepeatability(path string, sum summaryFile) error {
	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Values   []float64 `json:"values"`
		RelDiff  float64   `json:"rel_diff"`
		Bound    float64   `json:"bound"`
		Within   bool      `json:"within_bound"`
	}
	var rows []row
	fmt.Println("repeatability: widest relative difference between sets")
	for _, w := range workloads {
		for _, d := range endToEnd {
			r := row{Workload: w.Name, Metric: d.Name, Bound: d.Bound}
			for _, s := range sum.Sets {
				r.Values = append(r.Values, s[w.Name][d.Name])
			}
			r.RelDiff = spreadOf(sum.Sets, w.Name, d.Name)
			r.Within = r.RelDiff <= d.Bound
			rows = append(rows, r)
			fmt.Printf("  %-14s %-26s %6.1f%% (bound %3.0f%%) %v\n", w.Name, d.Name, 100*r.RelDiff, 100*d.Bound, r.Within)
		}
	}
	return writeJSON(path, rows)
}

// compareFiles prints one row per workload and end-to-end metric: base,
// new, ratio, the bound, and a verdict. A metric whose own run-to-run
// spread (in either file) is wider than its bound cannot be judged and
// is reported unresolved, not unchanged.
func compareFiles(basePath, newPath string) error {
	load := func(path string) (summaryFile, error) {
		var s summaryFile
		raw, err := os.ReadFile(path)
		if err != nil {
			return s, err
		}
		if err := json.Unmarshal(raw, &s); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		if len(s.Sets) == 0 {
			return s, fmt.Errorf("%s: no result sets", path)
		}
		return s, nil
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	next, err := load(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-26s %14s %14s %7s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			b := medianOver(base.Sets, w.Name, d.Name)
			n := medianOver(next.Sets, w.Name, d.Name)
			fmt.Printf("%-14s %-26s %14.4f %14.4f %7.3f %5.0f%%  %s\n",
				w.Name, d.Name, b, n, n/b, 100*d.Bound, verdict(d, b, n,
					spreadOf(base.Sets, w.Name, d.Name), spreadOf(next.Sets, w.Name, d.Name)))
		}
	}
	for _, w := range workloads {
		if base.Failed[w.Name] != 0 || next.Failed[w.Name] != 0 {
			fmt.Printf("%-14s failed operations: base %d, new %d\n", w.Name, base.Failed[w.Name], next.Failed[w.Name])
		}
	}
	return nil
}

// verdict judges one metric: "worse" when the new median is worse than
// the base by more than the bound, "unresolved" when either side's own
// spread exceeds the bound, "ok" otherwise.
func verdict(d metricDef, base, next, baseSpread, nextSpread float64) string {
	if baseSpread > d.Bound || nextSpread > d.Bound {
		return "unresolved"
	}
	worse := (next - base) / base
	if d.Better == "higher" {
		worse = (base - next) / base
	}
	if worse > d.Bound {
		return "worse"
	}
	return "ok"
}

// runSeconds is how long the driver is told one run measures.
const runSeconds = 10

// printManifest writes BENCHMARK.json: the command, the paths, and the
// workload and metric lists exactly as the harness prints from them.
func printManifest(w io.Writer) error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, named{wl.Name, wl.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
