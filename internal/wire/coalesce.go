package wire

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// DefaultCoalesceMaxBytes is the pending-buffer size that forces an
// inline flush: large enough to batch a fan-out burst, small enough to
// keep per-connection memory bounded.
const DefaultCoalesceMaxBytes = 64 << 10

// relayProbe bounds how long Relay writes on its caller's goroutine
// before it hands a peer that is not taking bytes to a background
// writer, on a connection that cannot be written without blocking (not
// a socket). A healthy peer's socket takes a relay at once; only a full
// socket buffer waits at all.
const relayProbe = time.Millisecond

// maxQueuedBytes bounds what Queue holds for a peer a background writer
// is still stuck on: past it the peer has stopped reading for good.
const maxQueuedBytes = 16 * DefaultCoalesceMaxBytes

// Coalescer serialises and batches all writes on one connection. Frames
// are appended to a reusable buffer; urgent frames (responses a peer is
// blocked on) flush immediately — carrying along anything already
// buffered — while non-urgent frames (schedule pushes, delivery fan-out,
// journal shipping) are flushed by a deferred flusher, turning N pushes
// into one write syscall.
//
// Deferral contract: a non-urgent frame buffered while no flusher is
// queued and no write is in flight starts one flusher goroutine, which
// yields the processor once and then writes everything buffered. So
// every push produced before the sending goroutine next blocks or yields
// shares one write, goroutines that were already runnable (an ack about
// to be written) go first, and no frame waits on a clock. A flusher that
// finds the batch already flushed (by an urgent frame or the size
// threshold) or the coalescer closed does nothing.
//
// Writes happen outside the lock, by one goroutine at a time: whoever
// flushes while no write is in flight becomes the writer and keeps
// writing until the buffer is empty, so a frame sent while another
// goroutine is writing is appended and rides that writer's next write —
// its sender returns at once instead of queueing behind the socket,
// unless a whole buffer (the size threshold) is already waiting behind
// that write: then the sender waits for the writer to take it, so a
// slow reader bounds the buffer.
//
// On a socket, a write is first one write(2) that never waits; only what
// the socket does not take then waits, under the write deadline.
//
// A write failure (including a deadline expiry against a stalled peer)
// kills the connection: the peer may hold a partial frame, so nothing
// sent afterwards could be framed. The underlying conn is closed, which
// unblocks the connection's read loop, and every queued frame's callback
// fires with the error.
type Coalescer struct {
	nc    net.Conn
	codec Codec
	// raw writes the socket underneath nc without waiting for it
	// (writeNow); nil when nc is not a socket. armed records that a write
	// deadline may be set, which a raw write must clear first. Only the
	// writer touches armed.
	raw   syscall.RawConn
	armed bool
	// rawFn is writeOnce bound once, so a write allocates nothing; rawBuf,
	// rawN and rawErrno carry one call's argument and results. Only the
	// writer touches them.
	rawFn    func(fd uintptr) bool
	rawBuf   []byte
	rawN     int
	rawErrno syscall.Errno

	mu           sync.Mutex
	idle         sync.Cond // broadcast when a writer takes the buffer or hands the connection back
	maxBytes     int
	writeTimeout time.Duration
	buf          []byte
	cbs          []func(error) // one per buffered frame; nil entries allowed
	spare        []byte        // the last written buffer, kept for reuse
	// queued is set while a flusher goroutine has been started but has
	// not yet taken the lock; flushers counts the live ones (and any
	// background writer) so Close can wait them out.
	queued   bool
	flushers sync.WaitGroup
	writing  bool // a goroutine owns the connection and writes outside the lock
	closing  bool // Close has begun: no new frames
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
	co := &Coalescer{
		nc:           nc,
		codec:        codec,
		maxBytes:     DefaultCoalesceMaxBytes,
		writeTimeout: cfg.WriteTimeout,
	}
	co.idle.L = &co.mu
	if sc, ok := nc.(syscall.Conn); ok {
		co.raw, _ = sc.SyscallConn()
		co.rawFn = co.writeOnce
		// The owner may have left a deadline from its handshake.
		co.armed = true
	}
	return co
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
// immediately and return the write error synchronously (or, when
// another goroutine is mid-write, ride that writer's next write and
// return at once); non-urgent frames return once buffered, and their
// flush outcome arrives later, on the flusher goroutine. When done is
// non-nil it fires exactly once with the frame's outcome — whether the
// frame flushed, failed, or was refused outright — so a caller that
// handles errors in done can ignore the return value. done must not
// Close this coalescer or send on it: it may run on the writer, which
// a send could wait for.
func (co *Coalescer) Send(env Envelope, urgent bool, done func(error)) error {
	co.mu.Lock()
	if err := co.appendLocked(env, done); err != nil {
		return err
	}
	if urgent || len(co.buf) >= co.maxBytes {
		return co.flushLocked(co.writeTimeout, false)
	}
	if !co.queued && !co.writing {
		co.queued = true
		co.flushers.Add(1)
		go co.flushDeferred()
	}
	co.mu.Unlock()
	return nil
}

// Queue buffers env without writing it or starting a flusher: the
// caller — a loop relaying frames to many peers — writes everything it
// queued with Relay once it has nothing more to read. Queue never
// blocks on the peer; a peer whose backlog passes maxQueuedBytes while
// its writer is stuck is cut off.
func (co *Coalescer) Queue(env Envelope, done func(error)) error {
	co.mu.Lock()
	if err := co.appendLocked(env, done); err != nil {
		return err
	}
	if len(co.buf) > maxQueuedBytes {
		cbs := co.killLocked(errors.New("peer stopped reading"))
		err := co.deadErr
		co.mu.Unlock()
		runCallbacks(cbs, err)
		return err
	}
	co.mu.Unlock()
	return nil
}

// Relay writes what Queue buffered. It writes on the calling goroutine
// while the peer takes the bytes, but waits at most relayProbe on a
// peer that does not: the unwritten rest goes to a background writer
// (bounded by the write timeout, as any flush), so one slow peer never
// holds up the caller's other peers. A failure reaches the frames'
// callbacks.
func (co *Coalescer) Relay() {
	co.mu.Lock()
	_ = co.flushLocked(relayProbe, true)
}

// appendLocked frames env into the buffer. On refusal it releases the
// lock, fires done and returns the error; on success the lock is still
// held.
func (co *Coalescer) appendLocked(env Envelope, done func(error)) error {
	if co.dead || co.closing {
		err := co.deadErr
		if err == nil {
			err = ErrClosed
		}
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
	if co.closing {
		// Close writes what is buffered itself.
		co.mu.Unlock()
		return
	}
	// An urgent frame, the size threshold or a failed write may have
	// emptied the batch since; a dead coalescer holds no frames.
	_ = co.flushLocked(co.writeTimeout, false)
}

// Close flushes best-effort, marks the coalescer dead, and waits for any
// writer or flusher still running, so nothing is written — and no
// callback of an earlier frame is still pending — once it returns.
// Frames sent while Close runs are refused. It does not close the
// connection (the owner does that).
func (co *Coalescer) Close() error {
	co.mu.Lock()
	if co.closing || co.dead {
		for co.writing {
			co.idle.Wait()
		}
		co.mu.Unlock()
		co.flushers.Wait()
		return nil
	}
	co.closing = true
	for co.writing {
		co.idle.Wait()
	}
	err := co.flushLocked(co.writeTimeout, false)
	co.mu.Lock()
	if !co.dead {
		co.dead = true
		co.deadErr = ErrClosed
	}
	co.mu.Unlock()
	co.flushers.Wait()
	return err
}

// flushLocked writes the pending buffer. It is called with co.mu held
// and returns with it released. When another goroutine is already
// writing, the frames just buffered ride its next write and flushLocked
// returns at once; otherwise the caller becomes the writer and keeps
// writing until the buffer is empty. The error is that of the first
// write, the one carrying the caller's own frames. With handoff set, a
// write the peer does not finish within limit passes its rest to a
// background writer instead of failing.
func (co *Coalescer) flushLocked(limit time.Duration, handoff bool) error {
	// Backpressure: a sender that finds a whole buffer already waiting
	// behind the writer waits for the writer to take it, so a peer that
	// reads slowly bounds the buffer instead of the buffer growing.
	for !handoff && co.writing && len(co.buf) >= co.maxBytes {
		co.idle.Wait()
	}
	if co.writing || len(co.cbs) == 0 {
		co.mu.Unlock()
		return nil
	}
	co.writing = true
	return co.writeLocked(limit, handoff)
}

// writeLocked is the writer's loop: called with co.mu held by the
// goroutine that owns the connection, it writes until the buffer is
// empty and returns with the lock released and the connection handed
// back.
func (co *Coalescer) writeLocked(limit time.Duration, handoff bool) error {
	var first error
	for n := 0; ; n++ {
		buf, cbs := co.buf, co.cbs
		if len(cbs) == 0 {
			co.writing = false
			co.idle.Broadcast()
			co.mu.Unlock()
			return first
		}
		co.buf, co.cbs, co.spare = co.spare[:0], nil, nil
		co.idle.Broadcast()
		co.mu.Unlock()
		wrote, werr, blocked := co.write(buf, limit, handoff)
		if blocked {
			// The peer is not reading: finish this write in the
			// background, with the full deadline, still owning the
			// connection so nothing overtakes it.
			met.bytesTx.Add(uint64(wrote))
			co.flushers.Add(1)
			go co.finish(buf[wrote:], cbs)
			return nil
		}
		co.mu.Lock()
		if werr != nil {
			pending := co.killLocked(werr)
			err := co.deadErr
			co.mu.Unlock()
			runCallbacks(cbs, err)
			runCallbacks(pending, err)
			if n == 0 {
				first = err
			}
			return first
		}
		co.wroteLocked(buf, len(cbs))
		// Callbacks run outside the lock (one may call back into a core
		// that is mid-dispatch on another connection), still holding the
		// writer's role so nothing written after them overtakes.
		co.mu.Unlock()
		runCallbacks(cbs, nil)
		co.mu.Lock()
	}
}

// write writes one buffer. A socket is first written once without
// waiting (writeNow); whatever it does not take then waits, under a
// deadline of limit — unless handoff is set, in which case write reports
// blocked, with what it wrote so far, instead of waiting on a peer that
// is not taking bytes. A connection that is not a socket waits under
// the deadline from the start (with handoff, a deadline of limit is the
// whole wait).
func (co *Coalescer) write(buf []byte, limit time.Duration, handoff bool) (wrote int, err error, blocked bool) {
	if co.raw != nil {
		wrote, err, blocked = co.writeNow(buf)
		if err != nil || !blocked || handoff {
			return wrote, err, blocked
		}
	}
	co.armed = true
	_ = co.nc.SetWriteDeadline(time.Now().Add(limit))
	n, err := co.nc.Write(buf[wrote:])
	wrote += n
	if handoff && err != nil && isTimeout(err) {
		return wrote, nil, true
	}
	return wrote, err, false
}

// writeNow makes one write(2) on the socket and never waits: a socket
// buffer with room takes the bytes at once, which is the common case,
// and a full one reports blocked. The call cannot block, so it is made
// as a raw system call, without the runtime's syscall entry and exit,
// which on a one-processor server cost more context switches than the
// write itself (DESIGN.md §13).
func (co *Coalescer) writeNow(buf []byte) (wrote int, err error, blocked bool) {
	if co.armed {
		// A deadline left by an earlier waiting write would fail this one
		// once it passed.
		co.armed = false
		_ = co.nc.SetWriteDeadline(time.Time{})
	}
	if len(buf) == 0 {
		return 0, nil, false
	}
	co.rawBuf = buf
	err = co.raw.Write(co.rawFn)
	co.rawBuf = nil
	if err != nil {
		return 0, err, false
	}
	wrote, errno := co.rawN, co.rawErrno
	switch {
	case errno == syscall.EAGAIN || errno == syscall.EINTR:
		return 0, nil, true
	case errno != 0:
		return 0, errno, false
	}
	return wrote, nil, wrote < len(buf)
}

// writeOnce makes one write(2) and never asks the poller to wait.
func (co *Coalescer) writeOnce(fd uintptr) bool {
	n, _, e := syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&co.rawBuf[0])), uintptr(len(co.rawBuf)))
	co.rawN, co.rawErrno = int(n), e
	met.write.note(n, e)
	return true
}

// finish is the background writer Relay hands a slow peer to: it writes
// the rest of an interrupted write, then whatever queued behind it.
func (co *Coalescer) finish(rest []byte, cbs []func(error)) {
	defer co.flushers.Done()
	co.mu.Lock()
	limit := co.writeTimeout
	co.mu.Unlock()
	_, werr, _ := co.write(rest, limit, false)
	co.mu.Lock()
	if werr != nil {
		pending := co.killLocked(werr)
		err := co.deadErr
		co.mu.Unlock()
		runCallbacks(cbs, err)
		runCallbacks(pending, err)
		return
	}
	met.bytesTx.Add(uint64(len(rest)))
	met.flushes.Inc()
	co.mu.Unlock()
	runCallbacks(cbs, nil)
	co.mu.Lock()
	_ = co.writeLocked(limit, false)
}

// wroteLocked accounts one successful write and keeps its buffer for
// reuse unless a burst grew it far past the threshold; then it lets it
// go so one flash crowd does not pin memory on every connection forever.
func (co *Coalescer) wroteLocked(buf []byte, frames int) {
	met.bytesTx.Add(uint64(len(buf)))
	met.flushes.Inc()
	if frames > 1 {
		met.coalesced.Add(uint64(frames))
	}
	if cap(buf) <= 4*co.maxBytes {
		co.spare = buf[:0]
	}
}

// killLocked poisons the coalescer after a failed write and returns the
// callbacks of the frames still buffered. Closing the conn unblocks the
// owner's read loop, which tears the connection down; nothing written
// after a partial frame could be framed by the peer anyway.
func (co *Coalescer) killLocked(werr error) []func(error) {
	met.errIO.Inc()
	co.dead = true
	co.deadErr = fmt.Errorf("wire: write frame: %w", werr)
	_ = co.nc.Close()
	pending := co.cbs
	co.buf, co.cbs, co.spare = nil, nil, nil
	co.writing = false
	co.idle.Broadcast()
	return pending
}

// isTimeout reports whether a write failed by deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func runCallbacks(cbs []func(error), err error) {
	for _, cb := range cbs {
		if cb != nil {
			cb(err)
		}
	}
}
