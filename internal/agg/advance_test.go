package agg

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/simclock"
)

// walkAdvance is Advance as it was before it learned to skip: both
// series walks on every call. The differential test below holds the
// real Advance to it.
func walkAdvance(t *Tier, now time.Time) {
	due := windowIndex(now.UnixNano(), int64(t.cfg.Window)) - 1
	var pushes []dispatch
	t.mu.Lock()
	for _, s := range t.series {
		if s.active && s.cur.idx <= due {
			t.closeLocked(s)
		}
	}
	if t.lastEmit < due-int64(t.cfg.Retention) {
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
	t.lastEmit = due
	horizon := now.Add(-time.Duration(t.cfg.Retention+1) * t.cfg.Window).UnixNano()
	for k, s := range t.series {
		if s.lastAt < horizon {
			delete(t.series, k)
			t.stats.Evicted++
		}
	}
	t.mu.Unlock()
	for _, d := range pushes {
		d.fn(d.p)
	}
}

// TestAdvanceMatchesFullWalk drives two tiers through one seeded
// sequence — server-like ticks many times per window, samples, and
// restores from the tier's own snapshot — one advancing with Advance
// and one with walkAdvance. Every call must emit the same windows, and
// the two tiers must hold the same stats and state throughout. It also
// checks the bounds Advance's skip relies on.
//
// Odd seeds add late samples and clock jumps backward and far forward;
// even seeds instead cap the series map, so new series evict the
// stalest. The cap's victim is picked in map order among equally stale
// series, so those seeds keep every sample timestamp distinct and on
// time, or the two tiers could evict different series of a tie.
func TestAdvanceMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wild := seed%2 == 1
		cfg := Config{Window: time.Second, Retention: 3, CellSizeM: 500}
		if !wild {
			cfg.MaxSeries = 12
		}
		var tiers [2]*Tier
		filters := []Filter{{}, {Span: 3}, {Span: 2, Every: 2, Task: "t1"}}
		var got [2][][]Window // per tier, per subscription
		for i := range tiers {
			c := cfg
			c.Clock = simclock.NewFakeClock(simclock.Epoch)
			tiers[i] = New(c)
			got[i] = make([][]Window, len(filters))
			for j, f := range filters {
				i, j := i, j
				tiers[i].Subscribe(f, func(p Push) { got[i][j] = append(got[i][j], p.Windows...) })
			}
		}
		now := simclock.Epoch
		advances := 0
		for step := 0; step < 4000; step++ {
			switch r := rng.Intn(100); {
			case r < 55: // a tick
				switch rng.Intn(60) {
				case 0:
					if wild {
						now = now.Add(-time.Duration(rng.Intn(3000)) * time.Millisecond)
					}
				case 1:
					if wild {
						now = now.Add(time.Duration(rng.Intn(15)) * time.Second)
					}
				default:
					now = now.Add(20 * time.Millisecond)
				}
				tiers[0].Advance(now)
				walkAdvance(tiers[1], now)
				advances++
				for j := range filters {
					SortWindows(got[0][j])
					SortWindows(got[1][j])
					requireSameWindows(t, "pushes", got[0][j], got[1][j])
					got[0][j], got[1][j] = got[0][j][:0], got[1][j][:0]
				}
			case r < 98: // a sample, now and then a late one
				at := now.Add(time.Duration(step)) // distinct, and never late
				if wild {
					at = now.Add(-time.Duration(rng.Intn(300)) * time.Millisecond)
					if rng.Intn(20) == 0 {
						at = now.Add(-time.Duration(rng.Intn(5000)) * time.Millisecond)
					}
				}
				task := []string{"t1", "t2"}[rng.Intn(2)]
				p := geo.Point{Lat: 40 + float64(rng.Intn(8))*0.01, Lon: -86}
				v := float64(rng.Intn(40)) * 1.5
				for _, tier := range tiers {
					tier.Ingest(task, "west", reading(at, v, p))
				}
			default: // a restart on the tier's own spill
				for _, tier := range tiers {
					blob, err := tier.SnapshotState()
					if err != nil {
						t.Fatal(err)
					}
					if err := tier.Restore(blob); err != nil {
						t.Fatal(err)
					}
				}
			}
			if s0, s1 := tiers[0].Stats(), tiers[1].Stats(); s0 != s1 {
				t.Fatalf("seed %d step %d: stats %+v, full walk %+v", seed, step, s0, s1)
			}
			if step%50 == 0 {
				if a, b := snapshotOf(t, tiers[0]), snapshotOf(t, tiers[1]); !bytes.Equal(a, b) {
					t.Fatalf("seed %d step %d: state differs from the full walk's:\n %s\n %s", seed, step, a, b)
				}
			}
			checkFloors(t, tiers[0])
		}
		st := tiers[0].Stats()
		if st.WindowsClosed == 0 || st.Evicted == 0 || (wild && st.LateSamples == 0) || advances == 0 {
			t.Fatalf("seed %d exercised too little: %+v", seed, st)
		}
	}
}

// checkFloors asserts the bounds Advance skips on: openFloor at most
// every open window's index, idleFloor at most every series' lastAt.
func checkFloors(t *testing.T, tier *Tier) {
	t.Helper()
	tier.mu.Lock()
	defer tier.mu.Unlock()
	for _, s := range tier.series {
		if s.active && s.cur.idx < tier.openFloor {
			t.Fatalf("open window %d below openFloor %d", s.cur.idx, tier.openFloor)
		}
		if s.lastAt < tier.idleFloor {
			t.Fatalf("series lastAt %d below idleFloor %d", s.lastAt, tier.idleFloor)
		}
	}
}
