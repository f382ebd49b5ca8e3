// Command bench is Sense-Aid's end-to-end benchmark with a per-layer
// budget. See README.md in this directory.
//
//	go run -C bench . -workload all -seed 11          every workload, untraced then traced
//	go run -C bench . --workload city_core --seed 3 --seconds 10 --trace 0
//	go run -C bench . -compare a.json b.json
//	go run -C bench . -manifest > BENCHMARK.json
//
// With -workload <name> the last line of standard output is one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
//
// Exit status: 0 success; 1 a run failed or its outputs were wrong;
// 3 the run was invalid (a server crashed or exited early, or the
// generator was overloaded in every measured pass) and printed no
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

const (
	exitFailed  = 1
	exitInvalid = 3
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 11, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.String("trace", "0", "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	outDir := flag.String("out", "", "directory for result and span files (default bench/out with -workload all, none otherwise)")
	repeat := flag.Int("repeat", 1, "with -workload all: run the whole set this many times and write repeatability.json")
	compare := flag.Bool("compare", false, "compare two summary files given as arguments")
	spinner := flag.Bool("spin", false, "internal: run as an idle-priority spinner (see affinity.go)")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json, generated from the harness's own metric and workload lists")
	flag.Parse()

	if *spinner {
		return spin()
	}
	if *manifest {
		if err := printManifest(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return exitFailed
		}
		return 0
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two summary files")
			return exitFailed
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return exitFailed
		}
		return 0
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be positive")
		return exitFailed
	}

	// One process; the fleet is workload input, not generator threads.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}

	// Children are killed on every exit path, a signal included.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()
	defer killAllChildren()

	ev, err := prepare()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return exitFailed
	}
	defer removeAll(ev.scratch)

	if *name == "all" {
		if *outDir == "" {
			*outDir = filepath.Join(ev.root, "bench", "out")
		}
		return runAll(ev, *seed, *seconds, *repeat, *outDir)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return exitFailed
	}
	if *trace != "0" && *trace != "1" {
		fmt.Fprintf(os.Stderr, "bench: -trace %q: want 0 or 1\n", *trace)
		return exitFailed
	}
	res, err := runOne(ev, w, *seed, *seconds, *trace == "1")
	if err != nil {
		return report(err)
	}
	printResult(os.Stdout, res)
	if *outDir != "" {
		if err := saveResult(*outDir, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return exitFailed
		}
	}
	line, err := json.Marshal(driverLine(res))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return exitFailed
	}
	fmt.Println(string(line))
	if !res.Correct {
		return exitFailed
	}
	return 0
}

// report prints a run's error and picks the exit code.
func report(err error) int {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	if errors.Is(err, errInvalidRun) {
		return exitInvalid
	}
	return exitFailed
}

// prepare finds the repository, builds the servers and makes the
// scratch directory.
func prepare() (env, error) {
	root, err := repoRoot()
	if err != nil {
		return env{}, err
	}
	bin, err := buildServers(root)
	if err != nil {
		return env{}, err
	}
	scratch, err := scratchDir(root, "run")
	if err != nil {
		return env{}, err
	}
	return env{root: root, bin: bin, scratch: scratch, pin: true}, nil
}

// runOne runs one workload once, in its own scratch subdirectory.
func runOne(ev env, w workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	sub := ev
	dir, err := os.MkdirTemp(ev.scratch, w.Name+"-")
	if err != nil {
		return nil, err
	}
	sub.scratch = dir
	defer removeAll(dir)
	return runWorkload(sub, w, seed, seconds, traced)
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func driverLine(res *runResult) driverResult {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	out := driverResult{
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	return out
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
