package netserver

// Unroutable-delivery buffering. A validated reading whose task no CAS
// connection currently claims used to be dropped outright — the common
// case being a restored (or reclaimable) task whose owner has not
// reconnected yet. The readings arrive exactly in the gap the reclaim
// exists to cover, so dropping them silently defeated the reclaim
// contract. Instead, the last replayPerTask readings per task are held
// in memory and replayed — through the ordinary delivery path, so
// pseudonymization applies at replay time — when a connection claims
// the task. The buffers are bounded per task and globally, and die with
// the task.

import (
	"senseaid/internal/core"
	"senseaid/internal/sensors"
)

const (
	// replayPerTask is how many undeliverable readings one task retains
	// (oldest evicted first).
	replayPerTask = 32
	// replayGlobalCap bounds the buffered readings across all tasks; at
	// the cap, new readings for tasks not already at their per-task limit
	// are dropped (the per-task ring still rotates).
	replayGlobalCap = 4096
)

type replayEntry struct {
	dev string
	r   sensors.Reading
}

// bufferUnroutable retains one undeliverable reading for a later
// reclaim. The caller already counted it unroutable.
func (s *Server) bufferUnroutable(tid core.TaskID, dev string, r sensors.Reading) {
	s.replayMu.Lock()
	buf := s.replayBuf[tid]
	switch {
	case len(buf) >= replayPerTask:
		copy(buf, buf[1:])
		buf[len(buf)-1] = replayEntry{dev: dev, r: r}
	case s.replayTotal >= replayGlobalCap:
		s.replayMu.Unlock()
		return
	default:
		buf = append(buf, replayEntry{dev: dev, r: r})
		s.replayTotal++
	}
	s.replayBuf[tid] = buf
	s.replayMu.Unlock()
}

// dropReplay discards a task's buffered readings (the task was deleted).
func (s *Server) dropReplay(tid core.TaskID) {
	s.replayMu.Lock()
	s.replayTotal -= len(s.replayBuf[tid])
	delete(s.replayBuf, tid)
	s.replayMu.Unlock()
}

// replayBuffered delivers a task's buffered readings to whichever
// connection now claims it, oldest first. Called after the task→CAS
// binding is in place; delivery runs the ordinary path, so the readings
// are pseudonymized and traced exactly like live ones.
func (s *Server) replayBuffered(tid core.TaskID) {
	s.replayMu.Lock()
	buf := s.replayBuf[tid]
	s.replayTotal -= len(buf)
	delete(s.replayBuf, tid)
	s.replayMu.Unlock()
	for _, e := range buf {
		s.met.deliveriesReplayed.Inc()
		s.deliverToCAS(tid, e.dev, e.r)
	}
}
