package wire

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"
)

// DefaultCoalesceMaxBytes is the pending-buffer size that forces an
// inline flush: large enough to batch a fan-out burst, small enough to
// keep per-connection memory bounded.
const DefaultCoalesceMaxBytes = 64 << 10

// Coalescer serialises and batches all writes on one connection. Frames
// are appended to a reusable buffer; urgent frames (responses a peer is
// blocked on) flush immediately — carrying along anything already
// buffered — while non-urgent frames (schedule pushes, delivery fan-out,
// journal shipping) are flushed by a deferred flusher, turning N pushes
// into one write syscall.
//
// Deferral contract: a non-urgent frame buffered while no flusher is
// queued starts one flusher goroutine, which yields the processor once
// and then writes everything buffered. So every push produced before
// the sending goroutine next blocks or yields shares one write,
// goroutines that were already runnable (an ack about to be written) go
// first, and no frame waits on a clock. A flusher that finds the batch
// already flushed (by an urgent frame or the size threshold) or the
// coalescer closed does nothing.
//
// A write failure (including a deadline expiry against a stalled peer)
// kills the connection: the peer may hold a partial frame, so nothing
// sent afterwards could be framed. The underlying conn is closed, which
// unblocks the connection's read loop, and every queued frame's callback
// fires with the error.
type Coalescer struct {
	nc    net.Conn
	codec Codec

	mu           sync.Mutex
	maxBytes     int
	writeTimeout time.Duration
	buf          []byte
	cbs          []func(error) // one per buffered frame; nil entries allowed
	// queued is set while a flusher goroutine has been started but has
	// not yet taken the lock; flushers counts the live ones so Close can
	// wait them out.
	queued   bool
	flushers sync.WaitGroup
	dead     bool
	deadErr  error
}

// CoalescerConfig parameterises a Coalescer.
type CoalescerConfig struct {
	// WriteTimeout bounds each flush's write; default DefaultWriteTimeout.
	WriteTimeout time.Duration
}

// NewCoalescer wraps a connection with a batching writer for the given
// codec.
func NewCoalescer(nc net.Conn, codec Codec, cfg CoalescerConfig) *Coalescer {
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	return &Coalescer{
		nc:           nc,
		codec:        codec,
		maxBytes:     DefaultCoalesceMaxBytes,
		writeTimeout: cfg.WriteTimeout,
	}
}

// SetWriteTimeout adjusts the per-flush write deadline (tests tighten it).
func (co *Coalescer) SetWriteTimeout(d time.Duration) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if d > 0 {
		co.writeTimeout = d
	}
}

// Send frames env into the pending buffer. Urgent frames flush
// immediately and return the write error synchronously; non-urgent
// frames return once buffered, and their flush outcome arrives later,
// on the flusher goroutine. When done is non-nil it fires exactly once
// with the frame's outcome — whether the frame flushed, failed, or was
// refused outright — so a caller that handles errors in done can ignore
// the return value. done must not Close this coalescer.
func (co *Coalescer) Send(env Envelope, urgent bool, done func(error)) error {
	co.mu.Lock()
	if co.dead {
		err := co.deadErr
		co.mu.Unlock()
		if done != nil {
			done(err)
		}
		return err
	}
	var err error
	co.buf, err = co.codec.AppendFrame(co.buf, env)
	if err != nil {
		// AppendFrame validates before appending, so the buffer (and the
		// stream) are intact; only this frame is refused.
		co.mu.Unlock()
		if done != nil {
			done(err)
		}
		return err
	}
	co.cbs = append(co.cbs, done)
	if urgent || len(co.buf) >= co.maxBytes {
		cbs, ferr := co.flushLocked()
		co.mu.Unlock()
		runCallbacks(cbs, ferr)
		return ferr
	}
	if !co.queued {
		co.queued = true
		co.flushers.Add(1)
		go co.flushDeferred()
	}
	co.mu.Unlock()
	return nil
}

// flushDeferred is the flusher goroutine: it yields once, so whatever
// was runnable when the batch opened runs first, then writes everything
// buffered by then.
func (co *Coalescer) flushDeferred() {
	defer co.flushers.Done()
	runtime.Gosched()
	co.mu.Lock()
	co.queued = false
	// An urgent frame, the size threshold, Close or a failed write may
	// have emptied the batch since; a dead coalescer holds no frames.
	cbs, err := co.flushLocked()
	co.mu.Unlock()
	runCallbacks(cbs, err)
}

// Close flushes best-effort, marks the coalescer dead, and waits for any
// flusher still running, so nothing is written — and no callback of an
// earlier frame is still pending — once it returns. It does not close
// the connection (the owner does that).
func (co *Coalescer) Close() error {
	co.mu.Lock()
	if co.dead {
		co.mu.Unlock()
		co.flushers.Wait()
		return nil
	}
	cbs, err := co.flushLocked()
	co.dead = true
	co.deadErr = ErrClosed
	co.mu.Unlock()
	runCallbacks(cbs, err)
	co.flushers.Wait()
	return err
}

// flushLocked writes the pending buffer as one syscall and returns the
// callbacks to invoke (after the lock is released — a callback may call
// back into a core that is mid-dispatch on another connection).
func (co *Coalescer) flushLocked() ([]func(error), error) {
	cbs := co.cbs
	if len(cbs) == 0 {
		return nil, nil
	}
	_ = co.nc.SetWriteDeadline(time.Now().Add(co.writeTimeout))
	_, werr := co.nc.Write(co.buf)
	if werr != nil {
		met.errIO.Inc()
		co.dead = true
		co.deadErr = fmt.Errorf("wire: write frame: %w", werr)
		// Closing unblocks the owner's read loop, which tears the
		// connection down; nothing written after a partial frame could be
		// framed by the peer anyway.
		_ = co.nc.Close()
		co.buf, co.cbs = nil, nil
		return cbs, co.deadErr
	}
	met.bytesTx.Add(uint64(len(co.buf)))
	met.flushes.Inc()
	if len(cbs) > 1 {
		met.coalesced.Add(uint64(len(cbs)))
	}
	// Keep the buffer for reuse unless a burst grew it far past the
	// threshold; then let it go so one flash crowd does not pin memory
	// on every connection forever.
	if cap(co.buf) > 4*co.maxBytes {
		co.buf = nil
	} else {
		co.buf = co.buf[:0]
	}
	// Hand the callback array off rather than truncating it for reuse:
	// the caller iterates it after releasing the lock, so a concurrent
	// Send appending into the same backing array would race with it.
	co.cbs = nil
	return cbs, nil
}

func runCallbacks(cbs []func(error), err error) {
	for _, cb := range cbs {
		if cb != nil {
			cb(err)
		}
	}
}
