package wire

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// countingConn is a net.Conn that records every Write as one "syscall"
// and captures the bytes, optionally failing writes.
type countingConn struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
	failAt int // fail the Nth write (1-based); 0 = never
	closed bool
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	if c.failAt > 0 && c.writes >= c.failAt {
		return 0, errors.New("countingConn: write failed by policy")
	}
	return c.buf.Write(b)
}

func (c *countingConn) Read([]byte) (int, error) { select {} }
func (c *countingConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}
func (c *countingConn) LocalAddr() net.Addr              { return nil }
func (c *countingConn) RemoteAddr() net.Addr             { return nil }
func (c *countingConn) SetDeadline(time.Time) error      { return nil }
func (c *countingConn) SetReadDeadline(time.Time) error  { return nil }
func (c *countingConn) SetWriteDeadline(time.Time) error { return nil }

func (c *countingConn) stats() (writes int, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, append([]byte(nil), c.buf.Bytes()...)
}

func mustEnv(t *testing.T, c Codec, mt MsgType, seq uint64, payload interface{}) Envelope {
	t.Helper()
	env, err := c.Encode(mt, seq, payload)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// drainFrames parses every frame out of a captured byte stream.
func drainFrames(t *testing.T, c Codec, data []byte) []Envelope {
	t.Helper()
	r := bytes.NewReader(data)
	var out []Envelope
	for r.Len() > 0 {
		env, err := c.ReadFrame(r)
		if err != nil {
			t.Fatalf("parse captured stream after %d frames: %v", len(out), err)
		}
		out = append(out, env)
	}
	return out
}

// oneProc pins the test to one processor, so a flusher runs only once
// the test goroutine blocks or yields — the condition the deferral
// contract is stated in. (With more processors an idle one may pick the
// flusher up mid-burst, which splits the burst but breaks nothing.)
func oneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// outcomes collects frame callbacks.
type outcomes struct {
	mu   sync.Mutex
	errs []error
	ch   chan struct{}
}

func newOutcomes() *outcomes { return &outcomes{ch: make(chan struct{}, 1024)} }

func (o *outcomes) done(err error) {
	o.mu.Lock()
	o.errs = append(o.errs, err)
	o.mu.Unlock()
	o.ch <- struct{}{}
}

// wait blocks until n callbacks have fired (or fails the test).
func (o *outcomes) wait(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-o.ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d/%d callbacks fired", i, n)
		}
	}
}

func (o *outcomes) snapshot() []error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]error(nil), o.errs...)
}

// TestCoalescerBatchesNotifies: a burst of non-urgent frames sent from
// one goroutine without yielding shares one write syscall — with no
// explicit flush and no clock — and every frame survives intact.
func TestCoalescerBatchesNotifies(t *testing.T) {
	oneProc(t)
	nc := &countingConn{}
	co := NewCoalescer(nc, Binary, CoalescerConfig{})
	const n = 25
	env := mustEnv(t, Binary, TypeSchedule, 0, Schedule{RequestID: "r", TaskID: "t"})
	out := newOutcomes()
	for i := 0; i < n; i++ {
		if err := co.Send(env, false, out.done); err != nil {
			t.Fatal(err)
		}
	}
	if w, _ := nc.stats(); w != 0 {
		t.Fatalf("flushed %d times before the sender yielded", w)
	}
	out.wait(t, n) // blocking here is the yield
	writes, data := nc.stats()
	if writes != 1 {
		t.Fatalf("%d frames took %d writes, want 1", n, writes)
	}
	if got := len(drainFrames(t, Binary, data)); got != n {
		t.Fatalf("captured %d frames, want %d", got, n)
	}
	for _, err := range out.snapshot() {
		if err != nil {
			t.Fatalf("callback got %v, want success", err)
		}
	}
}

// TestCoalescerYieldFlushes: a lone buffered frame reaches the wire as
// soon as its sender blocks, without an explicit flush.
func TestCoalescerYieldFlushes(t *testing.T) {
	nc := &countingConn{}
	co := NewCoalescer(nc, JSON, CoalescerConfig{})
	out := newOutcomes()
	if err := co.Send(mustEnv(t, JSON, TypeSchedule, 0, Schedule{RequestID: "r"}), false, out.done); err != nil {
		t.Fatal(err)
	}
	out.wait(t, 1)
	if w, _ := nc.stats(); w != 1 {
		t.Fatalf("got %d writes, want 1", w)
	}
}

// TestCoalescerUrgentCarriesBuffered: an urgent frame flushes at once
// and takes everything already buffered with it, preserving order; the
// flusher those buffered frames queued then finds nothing to write.
func TestCoalescerUrgentCarriesBuffered(t *testing.T) {
	oneProc(t)
	nc := &countingConn{}
	co := NewCoalescer(nc, Binary, CoalescerConfig{})
	for i := 0; i < 3; i++ {
		env := mustEnv(t, Binary, TypeSchedule, 0, Schedule{RequestID: "push"})
		if err := co.Send(env, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	urgent := mustEnv(t, Binary, TypeAck, 7, Ack{Ref: "resp"})
	if err := co.Send(urgent, true, nil); err != nil {
		t.Fatal(err)
	}
	co.flushers.Wait()
	writes, data := nc.stats()
	if writes != 1 {
		t.Fatalf("urgent flush used %d writes, want 1", writes)
	}
	frames := drainFrames(t, Binary, data)
	if len(frames) != 4 {
		t.Fatalf("captured %d frames, want 4", len(frames))
	}
	if frames[3].Type != TypeAck || frames[3].Seq != 7 {
		t.Fatalf("urgent frame out of order: %+v", frames[3])
	}
}

// TestCoalescerSizeThresholdFlushes: the buffer cannot grow past
// the threshold plus one frame even when the sender never yields.
func TestCoalescerSizeThresholdFlushes(t *testing.T) {
	oneProc(t)
	nc := &countingConn{}
	co := NewCoalescer(nc, Binary, CoalescerConfig{})
	co.maxBytes = 256
	for i := 0; i < 64; i++ {
		env := mustEnv(t, Binary, TypeSchedule, 0, Schedule{RequestID: "request-id-padding", TaskID: "task"})
		if err := co.Send(env, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	writes, _ := nc.stats()
	if writes == 0 {
		t.Fatal("size threshold never flushed")
	}
	// The batching still has to beat frame-per-write.
	if writes >= 64 {
		t.Fatalf("%d writes for 64 frames — no batching happened", writes)
	}
}

// TestCoalescerWriteFailure: a failed flush kills the coalescer, closes
// the conn, reports the error to every queued callback, and refuses
// later sends with the original error.
func TestCoalescerWriteFailure(t *testing.T) {
	oneProc(t)
	nc := &countingConn{failAt: 1}
	co := NewCoalescer(nc, Binary, CoalescerConfig{})
	out := newOutcomes()
	for i := 0; i < 3; i++ {
		env := mustEnv(t, Binary, TypeSchedule, 0, Schedule{RequestID: "r"})
		if err := co.Send(env, false, out.done); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Send(mustEnv(t, Binary, TypeAck, 1, Ack{}), true, out.done); err == nil {
		t.Fatal("urgent flush over a failing conn reported success")
	}
	out.wait(t, 4)
	for _, e := range out.snapshot() {
		if e == nil {
			t.Fatal("callback got nil error on a failed flush")
		}
	}
	nc.mu.Lock()
	closed := nc.closed
	nc.mu.Unlock()
	if !closed {
		t.Fatal("failed flush left the conn open")
	}
	// Later sends are refused and their callbacks still fire with the error.
	var lateErr error
	env := mustEnv(t, Binary, TypeSchedule, 0, Schedule{RequestID: "late"})
	if err := co.Send(env, false, func(e error) { lateErr = e }); err == nil {
		t.Fatal("send on a dead coalescer succeeded")
	}
	if lateErr == nil {
		t.Fatal("late send's callback never got the error")
	}
	if w, _ := nc.stats(); w != 1 {
		t.Fatalf("%d writes after the failure, want 1", w)
	}
}

// TestCoalescerEncodeErrorLeavesStreamIntact: a frame the codec refuses
// (over the size limit) must not corrupt frames before or after it.
func TestCoalescerEncodeErrorLeavesStreamIntact(t *testing.T) {
	nc := &countingConn{}
	co := NewCoalescer(nc, Binary, CoalescerConfig{})
	good := mustEnv(t, Binary, TypeAck, 1, Ack{Ref: "ok"})
	if err := co.Send(good, false, nil); err != nil {
		t.Fatal(err)
	}
	big := Envelope{Type: TypeSenseData, Payload: bytes.Repeat([]byte{'x'}, MaxMessageBytes), binPayload: true}
	var refuseErr error
	if err := co.Send(big, false, func(e error) { refuseErr = e }); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if refuseErr == nil {
		t.Fatal("refused frame's callback never fired")
	}
	good2 := mustEnv(t, Binary, TypeAck, 2, Ack{Ref: "still ok"})
	if err := co.Send(good2, true, nil); err != nil {
		t.Fatal(err)
	}
	_ = co.Close()
	_, data := nc.stats()
	frames := drainFrames(t, Binary, data)
	if len(frames) != 2 || frames[0].Seq != 1 || frames[1].Seq != 2 {
		t.Fatalf("stream corrupted around the refused frame: %+v", frames)
	}
}
