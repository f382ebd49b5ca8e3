// Package agg is fusion's streaming sibling: the live-aggregation tier
// (DESIGN.md §15). Where internal/fusion answers "what does the field
// look like right now" from raw retained samples, agg maintains rolling
// windowed rollups — count/mean/min/max/p50/p99 plus freshness, keyed
// by (task, region, grid cell) — fed synchronously from the validated
// delivery path and streamed to subscribers instead of being polled.
//
// Time is windowed on the injected simclock.Clock in fixed tumbling
// base windows; sliding and coarser views are expressed as merges of
// consecutive base windows (a subscription's Span) emitted on a cadence
// (its Every), so one retained ring per series serves every
// subscription shape. The ingest path is allocation-free in steady
// state: series storage is allocated per key on first sight, and a
// sample lands as a histogram increment plus a handful of scalar
// updates. A window's histogram is sparse until it outgrows a few
// inline buckets; the dense block it then needs is recycled from the
// ring slot the series' previous close overwrote.
package agg

import (
	"math"
	"sync"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// Key identifies one aggregation series: a campaign's readings in one
// grid cell of one region. Comparable, so the hot path can index the
// series map without allocating.
type Key struct {
	Task   string
	Region string
	Cell   geo.Cell
}

// Window is one emitted rollup: a [Start, End) span of a series with
// its summary statistics. Freshness is End minus the newest sample in
// the span — how stale the series already was when the window closed.
type Window struct {
	Key        Key
	Start, End time.Time
	Count      uint64
	Sum        float64
	Mean       float64
	Min, Max   float64
	P50, P99   float64
	Freshness  time.Duration
}

// Filter scopes a subscription. Empty Task/Region match every series.
// Span is the number of base windows merged per emission (1 = plain
// tumbling; >1 = sliding when Every < Span, coarser tumbling when
// Every == Span). Every is the emission cadence in base windows.
type Filter struct {
	Task   string
	Region string
	Every  int // emit every N base windows; <=0 means 1
	Span   int // merge the last N base windows; <=0 means 1, capped at retention
}

// Push is one subscriber notification: every window that closed for
// one subscription in one advance, batched so the transport can send a
// single frame.
type Push struct {
	Sub     uint64
	Windows []Window
}

// Config sizes a Tier.
type Config struct {
	// Window is the base (tumbling) window length. Default one minute.
	Window time.Duration
	// Retention is how many closed base windows each series keeps, which
	// also caps a subscription's Span. Default 5.
	Retention int
	// CellSizeM is the aggregation grid's cell edge. Default 500m.
	CellSizeM float64
	// MaxSeries soft-caps the series map; past it, the stalest series is
	// evicted to admit a new one. Default 65536.
	MaxSeries int
	// Clock supplies time for window assignment of At-less samples and
	// for idle-series expiry. Default the real clock.
	Clock simclock.Clock
}

func (c *Config) fill() {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.Retention <= 0 {
		c.Retention = 5
	}
	if c.CellSizeM <= 0 {
		c.CellSizeM = 500
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = 1 << 16
	}
	if c.Clock == nil {
		c.Clock = simclock.RealClock{}
	}
}

// win is one base window's accumulator: the scalar summary plus the
// quantile histogram. The same struct serves as the live accumulator
// (series.cur) and as a retained closed window (series.ring slots) —
// closing a window is a single struct copy, which hands the window's
// dense block, if it has one, to the ring slot.
type win struct {
	idx    int64 // window index: start = idx * Window
	count  uint64
	sum    float64
	min    float64
	max    float64
	lastAt int64 // UnixNano of the newest sample
	hist   hist
}

// series is one key's state: the open window plus a circular retention
// ring of closed ones (newest at (head-1+len)%len). The ring is
// allocated once at series creation; a dense block a window outgrows
// its inline buckets into is taken from spare, which holds the block
// of the last ring slot a close overwrote, so the steady state never
// grows.
type series struct {
	key    Key
	active bool // cur holds samples
	cur    win
	ring   []win // fixed capacity = retention; filled slots = n
	head   int   // next ring slot to overwrite
	n      int
	lastAt int64  // newest sample ever (idle expiry, eviction order)
	spare  *block // a dense block no window holds, for the next overflow
}

type sub struct {
	id uint64
	f  Filter
	fn func(Push)
}

// dispatch is one push Advance delivers after releasing the tier lock.
type dispatch struct {
	fn func(Push)
	p  Push
}

// Stats is a Tier's cumulative health snapshot.
type Stats struct {
	Series        int    // live series
	WindowsClosed uint64 // base windows closed since start
	LateSamples   uint64 // samples older than their series' open window
	Evicted       uint64 // series evicted (cap pressure or idle expiry)
}

// Tier is the live-aggregation engine. Safe for concurrent use; Ingest
// is the hot path and holds the lock only for scalar work.
type Tier struct {
	cfg  Config
	grid geo.Grid

	mu       sync.Mutex
	series   map[Key]*series
	subs     map[uint64]*sub
	nextSub  uint64
	lastEmit int64 // newest window index already offered to subscribers
	stats    Stats
	// openFloor and idleFloor let Advance skip the series walks on the
	// ticks that have nothing to do. openFloor is at most every open
	// window's index, idleFloor at most every series' lastAt; Ingest
	// lowers them, and the walk that reads one recomputes it exactly.
	openFloor int64
	idleFloor int64
}

// New builds a Tier. The zero Config is usable (1-minute windows,
// 5-window retention, 500m cells, real clock).
func New(cfg Config) *Tier {
	cfg.fill()
	return &Tier{
		cfg:       cfg,
		grid:      geo.Grid{SizeM: cfg.CellSizeM},
		series:    make(map[Key]*series),
		subs:      make(map[uint64]*sub),
		lastEmit:  -1 << 62,
		openFloor: math.MaxInt64,
		idleFloor: math.MaxInt64,
	}
}

// Window reports the configured base window length.
func (t *Tier) Window() time.Duration { return t.cfg.Window }

// Ingest feeds one validated reading into its series. This sits on the
// core's delivery path for every accepted upload: steady state must not
// allocate (the only allocations happen on first sight of a key).
func (t *Tier) Ingest(task, region string, r sensors.Reading) {
	at := r.At
	if at.IsZero() {
		at = t.cfg.Clock.Now()
	}
	nanos := at.UnixNano()
	w := windowIndex(nanos, int64(t.cfg.Window))
	k := Key{Task: task, Region: region, Cell: t.grid.CellOf(r.Where)}

	t.mu.Lock()
	s := t.series[k]
	if s == nil {
		s = t.newSeriesLocked(k)
	}
	t.foldLocked(s, w, r.Value, nanos)
	if s.lastAt < t.idleFloor {
		t.idleFloor = s.lastAt // a new series, or one whose sample was late
	}
	t.mu.Unlock()
}

// foldLocked lands one sample of window w in its series.
func (t *Tier) foldLocked(s *series, w int64, v float64, nanos int64) {
	if s.active && w != s.cur.idx {
		if w < s.cur.idx {
			// Older than the open window. Closed windows are immutable —
			// they may already have been emitted — so count and drop.
			t.stats.LateSamples++
			return
		}
		t.closeLocked(s)
	}
	if !s.active {
		if w <= t.lastEmit {
			// The sample's window was already offered to subscribers;
			// reopening it would put a duplicate index in the ring.
			t.stats.LateSamples++
			return
		}
		s.active = true
		s.cur = win{idx: w}
		if w < t.openFloor {
			t.openFloor = w
		}
	}
	s.cur.observe(v, nanos, &s.spare)
	if nanos > s.lastAt {
		s.lastAt = nanos
	}
}

// observe folds one sample in. spare is a dense block to recycle should
// the histogram overflow its inline buckets (nil: allocate one).
func (w *win) observe(v float64, nanos int64, spare **block) {
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
	*w.hist.slot(bucketOf(v), spare)++
}

// newSeriesLocked admits a key, evicting the stalest series when the
// soft cap is hit. Creation is the only allocating path under Ingest.
func (t *Tier) newSeriesLocked(k Key) *series {
	if len(t.series) >= t.cfg.MaxSeries {
		var victim *series
		for _, s := range t.series {
			if victim == nil || s.lastAt < victim.lastAt {
				victim = s
			}
		}
		if victim != nil {
			delete(t.series, victim.key)
			t.stats.Evicted++
		}
	}
	s := &series{key: k, ring: make([]win, t.cfg.Retention)}
	t.series[k] = s
	return s
}

// closeLocked retires the open window into the retention ring. The
// dense block of the window it overwrites becomes the series' spare.
func (t *Tier) closeLocked(s *series) {
	if d := s.ring[s.head].hist.dense; d != nil {
		s.spare = d
	}
	s.ring[s.head] = s.cur
	s.head = (s.head + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	s.active = false
	t.stats.WindowsClosed++
}

// Subscribe registers a window consumer. fn is called from Advance —
// outside the tier lock, so it may re-enter the tier — with every batch
// of windows matching the filter. It returns the subscription id.
func (t *Tier) Subscribe(f Filter, fn func(Push)) uint64 {
	if f.Every <= 0 {
		f.Every = 1
	}
	if f.Span <= 0 {
		f.Span = 1
	}
	t.mu.Lock()
	if f.Span > t.cfg.Retention {
		f.Span = t.cfg.Retention
	}
	t.nextSub++
	id := t.nextSub
	t.subs[id] = &sub{id: id, f: f, fn: fn}
	t.mu.Unlock()
	return id
}

// Unsubscribe drops a subscription. Safe for unknown ids.
func (t *Tier) Unsubscribe(id uint64) {
	t.mu.Lock()
	delete(t.subs, id)
	t.mu.Unlock()
}

// Subscribers reports the live subscription count.
func (t *Tier) Subscribers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.subs)
}

// Stats snapshots the tier's counters.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Series = len(t.series)
	return st
}

// Advance moves window time forward to now: it closes every base
// window that has fully elapsed, emits matching rollups to
// subscribers, and expires idle series. The owner calls it on its tick
// cadence; subscriber callbacks run after the tier lock is released.
//
// Each of the two series walks runs only when it has work: the close
// and emit walk when a window is due (a base window closes once per
// Window, while the owner ticks many times per window), the expiry walk
// when the oldest series may have gone idle.
func (t *Tier) Advance(now time.Time) {
	due := windowIndex(now.UnixNano(), int64(t.cfg.Window)) - 1 // newest fully-elapsed window
	// Idle expiry: a series whose newest sample predates the whole
	// retention horizon can never emit again; let it go.
	horizon := now.Add(-time.Duration(t.cfg.Retention+1) * t.cfg.Window).UnixNano()
	var pushes []dispatch

	t.mu.Lock()
	if due > t.lastEmit || t.openFloor <= due {
		pushes = t.closeAndEmitLocked(due)
	}
	t.lastEmit = due
	if t.idleFloor < horizon {
		t.idleFloor = math.MaxInt64
		for k, s := range t.series {
			if s.lastAt < horizon {
				delete(t.series, k)
				t.stats.Evicted++
			} else if s.lastAt < t.idleFloor {
				t.idleFloor = s.lastAt
			}
		}
	}
	t.mu.Unlock()

	for _, d := range pushes {
		d.fn(d.p)
	}
}

// closeAndEmitLocked closes every open window up to due and returns,
// per subscription, the rollups for each window index not yet offered.
func (t *Tier) closeAndEmitLocked(due int64) []dispatch {
	var pushes []dispatch
	t.openFloor = math.MaxInt64
	for _, s := range t.series {
		if !s.active {
			continue
		}
		if s.cur.idx <= due {
			t.closeLocked(s)
		} else if s.cur.idx < t.openFloor {
			t.openFloor = s.cur.idx
		}
	}
	if t.lastEmit < due-int64(t.cfg.Retention) {
		// Don't scan an unbounded index gap after idle periods; nothing
		// older than retention can be emitted anyway.
		t.lastEmit = due - int64(t.cfg.Retention)
	}
	for w := t.lastEmit + 1; w <= due; w++ {
		for _, sb := range t.subs {
			if (w+1)%int64(sb.f.Every) != 0 {
				continue
			}
			var out []Window
			for _, s := range t.series {
				if sb.f.Task != "" && sb.f.Task != s.key.Task {
					continue
				}
				if sb.f.Region != "" && sb.f.Region != s.key.Region {
					continue
				}
				if win, ok := s.merged(w, sb.f.Span, t.cfg.Window); ok {
					out = append(out, win)
				}
			}
			if len(out) > 0 {
				pushes = append(pushes, dispatch{fn: sb.fn, p: Push{Sub: sb.id, Windows: out}})
			}
		}
	}
	return pushes
}

// merged builds the rollup for base windows (endIdx-span, endIdx] of
// one series from its retention ring. ok is false when the span holds
// no samples.
func (s *series) merged(endIdx int64, span int, window time.Duration) (Window, bool) {
	var m win
	var counts block
	first := true
	lo := endIdx - int64(span) + 1
	for i := 0; i < s.n; i++ {
		w := &s.ring[(s.head-1-i+2*len(s.ring))%len(s.ring)]
		if w.idx > endIdx || w.idx < lo || w.count == 0 {
			continue
		}
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
		w.hist.each(func(b int, c uint32) { counts[b] += c })
	}
	if m.count == 0 {
		return Window{}, false
	}
	return m.rollup(s.key, lo, endIdx, window, &counts), true
}

// rollup reports m's summary, with the bucket counts in counts, as the
// Window spanning base windows [lo, hi].
func (m *win) rollup(key Key, lo, hi int64, window time.Duration, counts *block) Window {
	start := time.Unix(0, lo*int64(window)).UTC()
	end := time.Unix(0, (hi+1)*int64(window)).UTC()
	return Window{
		Key:       key,
		Start:     start,
		End:       end,
		Count:     m.count,
		Sum:       m.sum,
		Mean:      m.sum / float64(m.count),
		Min:       m.min,
		Max:       m.max,
		P50:       histQuantile(counts, m.count, 0.50, m.min, m.max),
		P99:       histQuantile(counts, m.count, 0.99, m.min, m.max),
		Freshness: end.Sub(time.Unix(0, m.lastAt)),
	}
}

// windowIndex floors a timestamp into its window, correctly for
// pre-epoch times too (Go integer division truncates toward zero).
func windowIndex(nanos, window int64) int64 {
	idx := nanos / window
	if nanos%window < 0 {
		idx--
	}
	return idx
}
