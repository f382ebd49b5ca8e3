package agg

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"senseaid/internal/geo"
)

// Spill format (DESIGN.md §15). The tier snapshots into the owner's
// persist store so a restart — or a standby promoting on a replicated
// state directory — resumes with its recent windows instead of a cold
// ring. Histograms are stored sparsely: they are mostly zeros, and the
// snapshot rides the same fsync'd commit path as core state.

type savedWin struct {
	Idx    int64       `json:"idx"`
	Count  uint64      `json:"count"`
	Sum    float64     `json:"sum"`
	Min    float64     `json:"min"`
	Max    float64     `json:"max"`
	LastAt int64       `json:"last_at"`
	Hist   [][2]uint32 `json:"hist,omitempty"` // sparse [bucket, count]
}

type savedSeries struct {
	Task   string     `json:"task"`
	Region string     `json:"region,omitempty"`
	Lat    int32      `json:"lat"`
	Lon    int32      `json:"lon"`
	Cur    *savedWin  `json:"cur,omitempty"`
	Ring   []savedWin `json:"ring,omitempty"` // oldest first
	LastAt int64      `json:"last_at"`
}

type savedTier struct {
	WindowNS int64         `json:"window_ns"`
	LastEmit int64         `json:"last_emit"`
	Series   []savedSeries `json:"series"`
}

func saveWin(w *win) savedWin {
	sw := savedWin{Idx: w.idx, Count: w.count, Sum: w.sum, Min: w.min, Max: w.max, LastAt: w.lastAt}
	w.hist.each(func(b int, c uint32) { sw.Hist = append(sw.Hist, [2]uint32{uint32(b), c}) })
	return sw
}

func loadWin(sw savedWin) win {
	w := win{idx: sw.Idx, count: sw.Count, sum: sw.Sum, min: sw.Min, max: sw.Max, lastAt: sw.LastAt}
	for _, bc := range sw.Hist {
		if int(bc[0]) < histSize { // a bucket listed twice keeps its last count
			*w.hist.slot(int(bc[0]), nil) = bc[1]
		}
	}
	return w
}

// SnapshotState serializes every series (open window, retention ring,
// emission watermark) for spill to a persist store.
func (t *Tier) SnapshotState() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := savedTier{WindowNS: int64(t.cfg.Window), LastEmit: t.lastEmit}
	for _, s := range t.series {
		ss := savedSeries{
			Task:   s.key.Task,
			Region: s.key.Region,
			Lat:    s.key.Cell.Lat,
			Lon:    s.key.Cell.Lon,
			LastAt: s.lastAt,
		}
		if s.active {
			cw := saveWin(&s.cur)
			ss.Cur = &cw
		}
		for i := s.n - 1; i >= 0; i-- { // oldest first
			w := &s.ring[(s.head-1-i+2*len(s.ring))%len(s.ring)]
			ss.Ring = append(ss.Ring, saveWin(w))
		}
		st.Series = append(st.Series, ss)
	}
	return json.Marshal(st)
}

// Restore replaces the tier's state with a snapshot taken by
// SnapshotState. A snapshot from a tier with a different base window is
// refused: its window indexes mean different instants.
func (t *Tier) Restore(data []byte) error {
	var st savedTier
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("agg: restore: %w", err)
	}
	if st.WindowNS != int64(t.cfg.Window) {
		return fmt.Errorf("agg: restore: snapshot window %s != configured %s",
			time.Duration(st.WindowNS), t.cfg.Window)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.series = make(map[Key]*series, len(st.Series))
	t.lastEmit = st.LastEmit
	t.openFloor, t.idleFloor = math.MaxInt64, math.MaxInt64
	for _, ss := range st.Series {
		k := Key{Task: ss.Task, Region: ss.Region, Cell: geo.Cell{Lat: ss.Lat, Lon: ss.Lon}}
		s := &series{key: k, ring: make([]win, t.cfg.Retention), lastAt: ss.LastAt}
		ring := ss.Ring
		if len(ring) > t.cfg.Retention {
			ring = ring[len(ring)-t.cfg.Retention:]
		}
		for _, sw := range ring {
			s.ring[s.head] = loadWin(sw)
			s.head = (s.head + 1) % len(s.ring)
			if s.n < len(s.ring) {
				s.n++
			}
		}
		if ss.Cur != nil {
			s.cur = loadWin(*ss.Cur)
			s.active = true
			t.openFloor = min(t.openFloor, s.cur.idx)
		}
		t.idleFloor = min(t.idleFloor, s.lastAt)
		t.series[k] = s
	}
	return nil
}
