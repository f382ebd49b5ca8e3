package main

import (
	"math"
	"sort"
)

// sortedCopy returns an ascending copy.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank q-quantile of an ascending slice
// (0 for an empty one). The small epsilon keeps 0.9*100 from rounding up
// to rank 91.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder lists the tail percentiles a timing may be reported at, in
// per mille, highest first.
var tailLadder = []int{999, 990, 950, 900, 750}

// supportedTail applies the reporting rule for tails: the highest
// percentile, no higher than want, that still has at least ten samples
// beyond it. With fewer than forty samples even p75 is unsupported and
// the median is returned.
func supportedTail(n int, want float64) float64 {
	for _, pm := range tailLadder {
		q := float64(pm) / 1000
		if q > want {
			continue
		}
		if n*(1000-pm) >= 10*1000 {
			return q
		}
	}
	return 0.5
}

// summary is how a timing is printed: sample count, median, and the
// highest supported tail percentile with its value.
type summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailQ float64 `json:"tail_q"`
	Tail  float64 `json:"tail"`
}

// summarize sorts a copy of the samples and applies the reporting rule.
func summarize(samples []float64) summary {
	s := sortedCopy(samples)
	q := supportedTail(len(s), 1)
	return summary{N: len(s), P50: quantile(s, 0.5), TailQ: q, Tail: quantile(s, q)}
}

// median of an unsorted slice (0 for an empty one); the input is not
// modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// windowed splits timed samples into consecutive windows and reports,
// for each requested percentile, the median across windows of the
// per-window percentile. One disturbed second (a noisy neighbour, a GC
// cycle landing badly) then moves one window, not the reported figure;
// a shift that persists moves every window and therefore the median.
// Windows with no samples are skipped, and so are windows in which the
// host stole CPU time (see cleanMedian). A tail percentile a window
// cannot support is lowered by the reporting rule.
type windowed struct {
	windows [][]float64
}

func newWindowed(n int) *windowed { return &windowed{windows: make([][]float64, n)} }

func (w *windowed) add(window int, v float64) {
	if window < 0 || window >= len(w.windows) {
		return
	}
	w.windows[window] = append(w.windows[window], v)
}

func (w *windowed) count() int {
	n := 0
	for _, s := range w.windows {
		n += len(s)
	}
	return n
}

// all returns every sample, for whole-run summaries.
func (w *windowed) all() []float64 {
	out := make([]float64, 0, w.count())
	for _, s := range w.windows {
		out = append(out, s...)
	}
	return out
}

func (w *windowed) medianOf(q float64, clean []bool) float64 {
	per := make([]float64, len(w.windows))
	have := make([]bool, len(w.windows))
	for i, s := range w.windows {
		if len(s) == 0 {
			continue
		}
		c := sortedCopy(s)
		per[i], have[i] = quantile(c, supportedTail(len(c), q)), true
	}
	return cleanMedian(per, have, clean)
}

// minCleanWindows is how many undisturbed windows a run needs before the
// disturbed ones are set aside; with fewer, every window counts.
const minCleanWindows = 3

// cleanMedian is the median of the per-window values that exist (have)
// and whose window the host left alone (clean, nil for "all clean").
// Windows are set aside on an independent signal - stolen CPU time read
// from the kernel - never on the measured value itself. When fewer than
// minCleanWindows remain, the host was busy throughout and the median is
// taken over every window instead.
func cleanMedian(per []float64, have, clean []bool) float64 {
	var kept, all []float64
	for i, v := range per {
		if have != nil && !have[i] {
			continue
		}
		all = append(all, v)
		if clean == nil || clean[i] {
			kept = append(kept, v)
		}
	}
	if len(kept) < minCleanWindows {
		return median(all)
	}
	return median(kept)
}

// relDiff is |a-b| over their mean (0 when both are 0).
func relDiff(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
