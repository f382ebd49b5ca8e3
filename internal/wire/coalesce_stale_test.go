package wire

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// batchEmptiers are the two inline flushes that can write a batch while
// its flusher is still queued: an urgent frame and the size threshold.
var batchEmptiers = []struct {
	name  string
	empty func(t *testing.T, co *Coalescer)
}{
	{"urgent", func(t *testing.T, co *Coalescer) {
		if err := co.Send(mustEnv(t, JSON, TypeAck, 1, Ack{}), true, nil); err != nil {
			t.Fatal(err)
		}
	}},
	{"threshold", func(t *testing.T, co *Coalescer) {
		co.mu.Lock()
		co.maxBytes = 1
		co.mu.Unlock()
		if err := co.Send(mustEnv(t, JSON, TypeSchedule, 0, Schedule{RequestID: "big"}), false, nil); err != nil {
			t.Fatal(err)
		}
		co.mu.Lock()
		co.maxBytes = DefaultCoalesceMaxBytes
		co.mu.Unlock()
	}},
}

// A stale flush tick — a queued flusher whose batch an inline flush
// already wrote — must not flush twice: a frame B buffered after that
// inline flush rides the same flusher, exactly once, and no second
// flusher is started for it.
func TestCoalescerStaleTickDoesNotFlushNewFrames(t *testing.T) {
	oneProc(t)
	for _, tc := range batchEmptiers {
		t.Run(tc.name, func(t *testing.T) {
			nc := &countingConn{}
			co := NewCoalescer(nc, JSON, CoalescerConfig{})
			// B's callback runs on the flusher goroutine.
			var fired atomic.Int32
			count := func(error) { fired.Add(1) }
			// Frame A queues a flusher; the inline flush writes A.
			if err := co.Send(mustEnv(t, JSON, TypeSchedule, 0, Schedule{RequestID: "a"}), false, count); err != nil {
				t.Fatal(err)
			}
			tc.empty(t, co)
			co.mu.Lock()
			stillQueued := co.queued
			co.mu.Unlock()
			if !stillQueued {
				t.Fatal("the inline flush ran a's flusher early")
			}
			if err := co.Send(mustEnv(t, JSON, TypeSchedule, 0, Schedule{RequestID: "b"}), false, count); err != nil {
				t.Fatal(err)
			}
			if w, _ := nc.stats(); w != 1 || fired.Load() != 1 {
				t.Fatalf("before the flusher: %d writes, %d callbacks; want 1, 1", w, fired.Load())
			}
			co.flushers.Wait()
			writes, data := nc.stats()
			if writes != 2 || fired.Load() != 2 {
				t.Fatalf("after the flusher: %d writes, %d callbacks; want 2, 2", writes, fired.Load())
			}
			frames := drainFrames(t, JSON, data)
			var sch Schedule
			if err := Decode(frames[len(frames)-1], &sch); err != nil || sch.RequestID != "b" {
				t.Fatalf("last frame = %v (err %v), want schedule b", frames[len(frames)-1].Type, err)
			}
		})
	}
}

// An empty-batch flush tick — a flusher that finds its batch already
// written by an inline flush — must issue no write syscall and run no
// callback.
func TestCoalescerEmptyTickNoSyscall(t *testing.T) {
	oneProc(t)
	for _, tc := range batchEmptiers {
		t.Run(tc.name, func(t *testing.T) {
			nc := &countingConn{}
			co := NewCoalescer(nc, JSON, CoalescerConfig{})
			fired := 0
			if err := co.Send(mustEnv(t, JSON, TypeSchedule, 0, Schedule{RequestID: "a"}), false, func(error) { fired++ }); err != nil {
				t.Fatal(err)
			}
			tc.empty(t, co)
			if w, _ := nc.stats(); w != 1 || fired != 1 {
				t.Fatalf("inline flush: %d writes, %d callbacks; want 1, 1", w, fired)
			}
			co.flushers.Wait()
			if w, _ := nc.stats(); w != 1 || fired != 1 {
				t.Fatalf("flusher on an emptied batch: %d writes, %d callbacks; want 1, 1", w, fired)
			}
		})
	}
}

// A flusher that runs after Close must be a no-op: Close flushed the
// batch, so there is no write, no second callback, no send-after-poison.
func TestCoalescerFlusherAfterCloseIsNoop(t *testing.T) {
	oneProc(t)
	nc := &countingConn{}
	co := NewCoalescer(nc, JSON, CoalescerConfig{})
	fired := 0
	if err := co.Send(mustEnv(t, JSON, TypeSchedule, 0, Schedule{RequestID: "a"}), false, func(error) { fired++ }); err != nil {
		t.Fatal(err)
	}
	// The flusher is queued and has not run: nothing has yielded.
	if err := co.Close(); err != nil { // flushes a, then waits the flusher out
		t.Fatal(err)
	}
	if w, _ := nc.stats(); w != 1 || fired != 1 {
		t.Fatalf("after close: %d writes, %d callbacks; want 1, 1", w, fired)
	}
}

// recordingConn is a countingConn that also flags any write issued after
// the test declares the coalescer closed.
type recordingConn struct {
	countingConn
	closedAt  atomic.Bool
	lateWrite atomic.Bool
}

func (c *recordingConn) Write(b []byte) (int, error) {
	if c.closedAt.Load() {
		c.lateWrite.Store(true)
	}
	return c.countingConn.Write(b)
}

// TestCoalescerStress races senders mixing urgent and non-urgent frames
// against a Close and (in most rounds) a writer failing at write k, and
// checks the contract: every callback fires exactly once, a frame is
// written iff its callback saw success, each sender's frames appear in
// send order, nothing is written after Close returns, and no flusher
// goroutine outlives Close. Run with -race.
func TestCoalescerStress(t *testing.T) {
	const senders, perSender = 6, 150
	baseline := runtime.NumGoroutine()
	for round := 0; round < 12; round++ {
		failAt := 0
		if round%3 != 0 {
			failAt = 1 + round*3
		}
		closeAfter := int64(perSender * senders * (round%4 + 1) / 5)
		t.Run(fmt.Sprintf("fail%d_close%d", failAt, closeAfter), func(t *testing.T) {
			nc := &recordingConn{countingConn: countingConn{failAt: failAt}}
			co := NewCoalescer(nc, Binary, CoalescerConfig{})
			co.maxBytes = 2048
			var fired [senders][perSender]atomic.Int32
			var okCB [senders][perSender]atomic.Bool
			var sent atomic.Int64
			closed := make(chan struct{})
			go func() {
				for sent.Load() < closeAfter {
					runtime.Gosched()
				}
				_ = co.Close()
				nc.closedAt.Store(true)
				close(closed)
			}()
			var wg sync.WaitGroup
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perSender; i++ {
						env, err := Binary.Encode(TypeSchedule, 0, Schedule{RequestID: fmt.Sprintf("%d/%d", g, i)})
						if err != nil {
							t.Error(err)
							return
						}
						gi := i
						_ = co.Send(env, i%7 == 0, func(err error) {
							fired[g][gi].Add(1)
							if err == nil {
								okCB[g][gi].Store(true)
							}
						})
						sent.Add(1)
						if i%10 == 0 {
							runtime.Gosched()
						}
					}
				}(g)
			}
			wg.Wait()
			<-closed
			if nc.lateWrite.Load() {
				t.Fatal("a write was issued after Close returned")
			}

			_, data := nc.stats()
			var written [senders][perSender]bool
			last := [senders]int{}
			for g := range last {
				last[g] = -1
			}
			for _, env := range drainFrames(t, Binary, data) {
				var sch Schedule
				if err := Decode(env, &sch); err != nil {
					t.Fatal(err)
				}
				gs, is, _ := strings.Cut(sch.RequestID, "/")
				g, _ := strconv.Atoi(gs)
				i, _ := strconv.Atoi(is)
				if i <= last[g] {
					t.Fatalf("sender %d: frame %d written after frame %d", g, i, last[g])
				}
				last[g] = i
				written[g][i] = true
			}
			for g := 0; g < senders; g++ {
				for i := 0; i < perSender; i++ {
					if n := fired[g][i].Load(); n != 1 {
						t.Fatalf("sender %d frame %d: callback fired %d times", g, i, n)
					}
					if written[g][i] != okCB[g][i].Load() {
						t.Fatalf("sender %d frame %d: written=%v but callback success=%v",
							g, i, written[g][i], okCB[g][i].Load())
					}
				}
			}
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the rounds, %d before: a flusher outlived Close",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
