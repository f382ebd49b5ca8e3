package core

import (
	"slices"
	"sort"
	"strings"
	"time"

	"senseaid/internal/geo"
)

// The selection oracle: the copying path production ran before the fused
// pass (fetch a copy of every in-area record, qualify with the exact
// haversine, score, fully sort, take the head). It lives in test files
// only — as the differential tests' reference and the micro-benchmark's
// baseline — and shares nothing with Selector.pick but score and cutoff.

// CandidatesIn returns copies of every device inside the area, sorted by
// ID: the indexed equivalent of filtering All() with area.Contains.
func (s *DeviceStore) CandidatesIn(area geo.Circle) []DeviceState {
	out := s.AppendCandidatesIn(nil, area)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AppendCandidatesIn appends a copy of every device inside the area to
// dst, in no particular order, visiting only the slabs of the cells
// overlapping the area (or all of them, when the grid refuses the area).
func (s *DeviceStore) AppendCandidatesIn(dst []DeviceState, area geo.Circle) []DeviceState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.grid.Cover(area)
	appendIn := func(cell *slab) {
		for _, d := range cell.recs {
			if area.Contains(d.Position) {
				dst = append(dst, d)
			}
		}
	}
	if !ok || b.Count() > len(s.cells) {
		for _, cell := range s.cells {
			appendIn(cell)
		}
		return dst
	}
	for la := b.LatMin; la <= b.LatMax; la++ {
		for lo := b.LonMin; lo <= b.LonMax; lo++ {
			if cell := s.cells[geo.Cell{Lat: la, Lon: lo}]; cell != nil {
				appendIn(cell)
			}
		}
	}
	return dst
}

// disqualify returns the reason d is ineligible for the request, or ""
// when it qualifies, testing the area with the exact haversine.
func (s *Selector) disqualify(req Request, d *DeviceState) DisqualifyReason {
	switch {
	case !d.Responsive:
		return ReasonUnresponsive
	case !req.Task.Area.Contains(d.Position):
		return ReasonOutOfRegion
	default:
		return s.cutoff(req.Task, d)
	}
}

// Qualify splits devices into those eligible for the request and, for the
// rest, the reason they were excluded.
func (s *Selector) Qualify(req Request, devices []DeviceState) (qualified []DeviceState, excluded map[string]DisqualifyReason) {
	excluded = make(map[string]DisqualifyReason)
	for i := range devices {
		if r := s.disqualify(req, &devices[i]); r != "" {
			excluded[devices[i].ID] = r
		} else {
			qualified = append(qualified, devices[i])
		}
	}
	return qualified, excluded
}

// CountQualified reports how many of devices are eligible for the request.
func (s *Selector) CountQualified(req Request, devices []DeviceState) int {
	n := 0
	for i := range devices {
		if s.disqualify(req, &devices[i]) == "" {
			n++
		}
	}
	return n
}

// scoredDevice pairs a candidate copy with its score.
type scoredDevice struct {
	dev   DeviceState
	score float64
}

// oracleScratch holds SelectFrom's reusable buffers.
type oracleScratch struct {
	scored   []scoredDevice
	selected []DeviceState
}

// Select picks the request's spatial-density-many best devices from a
// slice (lowest score first, ties by device ID) into a fresh slice.
func (s *Selector) Select(req Request, devices []DeviceState, now time.Time) ([]DeviceState, error) {
	var sc oracleScratch
	sel, err := s.SelectFrom(req, devices, now, &sc)
	if err != nil {
		return nil, err
	}
	return slices.Clone(sel), nil
}

// SelectFrom qualifies the candidates, scores each once, sorts them all
// and returns the head. The result aliases the scratch.
func (s *Selector) SelectFrom(req Request, candidates []DeviceState, now time.Time, sc *oracleScratch) ([]DeviceState, error) {
	sc.scored = sc.scored[:0]
	for i := range candidates {
		if s.disqualify(req, &candidates[i]) != "" {
			continue
		}
		sc.scored = append(sc.scored, scoredDevice{dev: candidates[i], score: s.Score(candidates[i], now)})
	}
	n := req.Task.SpatialDensity
	if n > len(sc.scored) {
		return nil, &ErrNotEnoughDevices{Request: req.ID(), Want: n, Got: len(sc.scored)}
	}
	slices.SortFunc(sc.scored, func(a, b scoredDevice) int {
		if a.score != b.score {
			if a.score < b.score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.dev.ID, b.dev.ID)
	})
	sc.selected = sc.selected[:0]
	for i := 0; i < n; i++ {
		sc.selected = append(sc.selected, sc.scored[i].dev)
	}
	return sc.selected, nil
}

// oracleSelect is the parent commit's whole selection path over a store:
// copy the in-area candidates out, then SelectFrom.
func oracleSelect(sel *Selector, store *DeviceStore, req Request, now time.Time, cands *[]DeviceState, sc *oracleScratch) ([]DeviceState, error) {
	*cands = store.AppendCandidatesIn((*cands)[:0], req.Task.Area)
	return sel.SelectFrom(req, *cands, now, sc)
}
