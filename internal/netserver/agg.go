package netserver

// This file is the transport face of the live-aggregation tier
// (internal/agg, DESIGN.md §15): the subscribe_agg handler, the push
// fan-out to subscribed CAS connections, and the loop that advances
// window time on the injected clock. The tier itself is fed directly
// from the core's delivery tap (see Listen), so every validated upload
// is aggregated whether or not anyone is subscribed yet.

import (
	"fmt"
	"time"

	"senseaid/internal/agg"
	"senseaid/internal/simclock"
	"senseaid/internal/wire"
)

// handleSubscribeAgg opens one window subscription for a CAS
// connection. The Ack's Ref carries the subscription id ("agg-N"),
// echoed as Sub on every matching agg_push.
func (s *Server) handleSubscribeAgg(c *conn, env wire.Envelope) error {
	var sa wire.SubscribeAgg
	if err := wire.Decode(env, &sa); err != nil {
		return err
	}
	if s.agg == nil {
		return fmt.Errorf("netserver: aggregation tier disabled")
	}
	if sa.Every < 0 || sa.Span < 0 {
		return fmt.Errorf("netserver: subscribe_agg with negative cadence")
	}
	id := s.agg.Subscribe(agg.Filter{
		Task:   sa.Task,
		Region: sa.Region,
		Every:  sa.Every,
		Span:   sa.Span,
	}, func(p agg.Push) { s.pushAgg(c, p) })
	s.aggMu.Lock()
	s.aggSubs[c] = append(s.aggSubs[c], id)
	s.aggMu.Unlock()
	s.met.aggSubscribers.Set(float64(s.agg.Subscribers()))
	s.log.Infof("agg subscription agg-%d (task=%q region=%q every=%d span=%d)",
		id, sa.Task, sa.Region, sa.Every, sa.Span)
	_ = c.send(wire.TypeAck, env.Seq, wire.Ack{Ref: fmt.Sprintf("agg-%d", id)})
	return nil
}

// pushAgg sends one batch of closed windows to a subscriber. Pushes
// ride the coalesced path (a tier advance fans out to every subscriber
// at once); the lag histogram measures window end to flush completion —
// the staleness a subscriber actually observes.
func (s *Server) pushAgg(c *conn, p agg.Push) {
	out := wire.AggPush{
		Sub:     fmt.Sprintf("agg-%d", p.Sub),
		Windows: make([]wire.AggWindow, len(p.Windows)),
	}
	var oldest time.Time
	for i := range p.Windows {
		w := &p.Windows[i]
		out.Windows[i] = wire.AggWindow{
			TaskID:      w.Key.Task,
			Region:      w.Key.Region,
			CellLat:     w.Key.Cell.Lat,
			CellLon:     w.Key.Cell.Lon,
			Start:       w.Start,
			End:         w.End,
			Count:       w.Count,
			Mean:        w.Mean,
			Min:         w.Min,
			Max:         w.Max,
			P50:         w.P50,
			P99:         w.P99,
			FreshnessMS: w.Freshness.Milliseconds(),
		}
		if oldest.IsZero() || w.End.Before(oldest) {
			oldest = w.End
		}
	}
	c.notify(wire.TypeAggPush, out, func(err error) {
		if err != nil {
			// Same policy as sensed-data delivery: a CAS whose socket cannot
			// take a push is dead; closing it kicks serveCAS out of its read
			// loop, which unsubscribes this connection.
			s.log.Errorf("agg push %s: %v", out.Sub, err)
			c.close()
			return
		}
		if lag := s.clock.Now().Sub(oldest); lag > 0 {
			s.met.aggPushLag.Observe(lag.Seconds())
		}
	})
}

// dropAggSubs releases every tier subscription a connection holds;
// called when its serve loop exits.
func (s *Server) dropAggSubs(c *conn) {
	if s.agg == nil {
		return
	}
	s.aggMu.Lock()
	ids := s.aggSubs[c]
	delete(s.aggSubs, c)
	s.aggMu.Unlock()
	for _, id := range ids {
		s.agg.Unsubscribe(id)
	}
	if len(ids) > 0 {
		s.met.aggSubscribers.Set(float64(s.agg.Subscribers()))
	}
}

// aggLoop advances the tier's window time on the injected clock. It is
// separate from tickLoop on purpose: tickLoop sleeps to the core's
// NextWake, which can be arbitrarily far away on an idle server, while
// window emission must stay on its own cadence. Ticking at a fraction
// of the window bounds push lag to well under one window (the bench
// gate) without busy-polling.
func (s *Server) aggLoop() {
	defer s.wg.Done()
	tick := s.agg.Window() / 4
	if tick > s.cfg.TickPeriod {
		tick = s.cfg.TickPeriod
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	var closed uint64
	for {
		select {
		case <-s.done:
			return
		case <-simclock.After(s.clock, tick):
			s.agg.Advance(s.clock.Now())
			st := s.agg.Stats()
			if st.WindowsClosed > closed {
				s.met.aggWindows.Add(st.WindowsClosed - closed)
				closed = st.WindowsClosed
			}
		}
	}
}
