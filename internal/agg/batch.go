package agg

import (
	"sort"

	"senseaid/internal/geo"
	"senseaid/internal/sensors"
)

// Post-hoc reference computation. Batch re-derives, from a flat list of
// samples, exactly the tumbling windows the streaming tier emits for
// them — independently (group, then fold), not by replaying the Tier.
// Count, sum, mean, min, and max are exact by construction; p50/p99 are
// estimator-defined (the fixed log-bucket histogram in hist.go), and
// Batch applies the same estimator, so streaming output is directly
// comparable. The sim's 100-campaign shared-tier scenario uses this as
// its ground truth.

// Sample is one delivered reading with the routing context the tap sees.
type Sample struct {
	Task    string
	Region  string
	Reading sensors.Reading
}

// Batch computes every non-empty tumbling base window for the samples
// under cfg's window/grid, sorted by (task, region, cell, start) for
// deterministic comparison.
func Batch(samples []Sample, cfg Config) []Window {
	cfg.fill()
	grid := geo.Grid{SizeM: cfg.CellSizeM}
	type slot struct {
		key Key
		idx int64
	}
	acc := make(map[slot]*win)
	for _, s := range samples {
		nanos := s.Reading.At.UnixNano()
		sl := slot{
			key: Key{Task: s.Task, Region: s.Region, Cell: grid.CellOf(s.Reading.Where)},
			idx: windowIndex(nanos, int64(cfg.Window)),
		}
		w := acc[sl]
		if w == nil {
			w = &win{idx: sl.idx}
			acc[sl] = w
		}
		w.observe(s.Reading.Value, nanos, nil)
	}
	out := make([]Window, 0, len(acc))
	for sl, w := range acc {
		var counts block
		w.hist.each(func(b int, c uint32) { counts[b] = c })
		out = append(out, w.rollup(sl.key, sl.idx, sl.idx, cfg.Window, &counts))
	}
	SortWindows(out)
	return out
}

// SortWindows orders windows by (task, region, cell, start) — the
// canonical order for comparing a streamed set against a batch set.
func SortWindows(ws []Window) {
	sort.Slice(ws, func(i, j int) bool {
		a, b := &ws[i], &ws[j]
		if a.Key.Task != b.Key.Task {
			return a.Key.Task < b.Key.Task
		}
		if a.Key.Region != b.Key.Region {
			return a.Key.Region < b.Key.Region
		}
		if a.Key.Cell.Lat != b.Key.Cell.Lat {
			return a.Key.Cell.Lat < b.Key.Cell.Lat
		}
		if a.Key.Cell.Lon != b.Key.Cell.Lon {
			return a.Key.Cell.Lon < b.Key.Cell.Lon
		}
		return a.Start.Before(b.Start)
	})
}
