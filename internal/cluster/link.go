package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"senseaid/internal/wire"
)

// linkReadBuf sizes a link's reader: one read takes a worker's whole
// fan-out write.
const linkReadBuf = 64 << 10

// internalSeqBase partitions a stream's sequence space. Client frames
// use small client-assigned sequence numbers; requests the router itself
// injects into a stream (attach_device after a re-home, the fan-out of
// an unscoped subscription) use sequences at or above this base, so the
// link's reader can tell a reply to the client from a reply to the
// router without inspecting payloads.
const internalSeqBase = uint64(1) << 62

// link is the router's one connection to a region primary (DESIGN.md
// §14). Every device and CAS session relayed to that worker is a
// numbered stream on it: client frames go up through the link's one
// coalescer, and one reader hands the worker's frames to the sessions
// by stream id.
type link struct {
	r  *Router
	nc net.Conn
	br *bufio.Reader
	co *wire.Coalescer

	// openMu orders stream opens: a worker takes a hello only on an id
	// above every id it has seen, so hellos must reach the link in id
	// order.
	openMu  sync.Mutex
	mu      sync.Mutex
	next    uint64 // the last stream id handed out; ids are never reused
	streams map[uint64]*stream
	dead    bool
}

// stream is one client session's share of a link.
type stream struct {
	l      *link
	id     uint64
	client *sconn
	owner  streamOwner
	// relay marks the stream while the link's reader holds frames queued
	// for its client (1 pushes, 2 a reply); only that reader touches it.
	relay uint8

	mu      sync.Mutex
	closed  bool
	gone    chan struct{} // closed with the stream; fails waiting calls
	seq     uint64
	pending map[uint64]chan wire.Envelope
}

// streamOwner is the session a stream serves, told when the worker or
// the link's death ends the stream under it.
type streamOwner interface {
	streamLost(st *stream)
}

// dialLink opens a link to a worker: a v1 hello naming the router role,
// which the worker always grants the binary codec, then link frames.
func (r *Router) dialLink(addr string) (*link, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial worker %s: %w", addr, err)
	}
	if r.wrap != nil {
		nc = r.wrap(nc)
	}
	fail := func(err error) (*link, error) {
		_ = nc.Close()
		return nil, err
	}
	_ = nc.SetDeadline(time.Now().Add(r.cfg.HandshakeTimeout))
	hello, err := wire.Encode(wire.TypeHello, 1, wire.Hello{Role: wire.RoleRouter, Version: wire.ProtocolVersionBinary})
	if err != nil {
		return fail(err)
	}
	if err := wire.WriteFrame(nc, hello); err != nil {
		return fail(err)
	}
	br := wire.NewReader(nc, linkReadBuf)
	env, err := wire.ReadFrame(br)
	if err != nil {
		return fail(err)
	}
	if env.Type == wire.TypeError {
		var e wire.Error
		_ = wire.Decode(env, &e)
		return fail(fmt.Errorf("cluster: worker %s refused the link: %s", addr, e.Message))
	}
	var ack wire.Ack
	if err := wire.Decode(env, &ack); err != nil {
		return fail(err)
	}
	if ack.Version != wire.ProtocolVersionBinary {
		return fail(fmt.Errorf("cluster: worker %s granted a link version %d", addr, ack.Version))
	}
	_ = nc.SetDeadline(time.Time{})
	l, err := r.startLink(nc, br)
	if err != nil {
		return fail(err)
	}
	r.log.Infof("link to %s open", addr)
	return l, nil
}

// startLink runs a link over a connection whose hello is done.
func (r *Router) startLink(nc net.Conn, br *bufio.Reader) (*link, error) {
	if !r.track(nc) {
		return nil, wire.ErrClosed
	}
	l := &link{
		r:       r,
		nc:      nc,
		br:      br,
		co:      wire.NewCoalescer(nc, wire.Link, wire.CoalescerConfig{WriteTimeout: r.cfg.WriteTimeout}),
		streams: make(map[uint64]*stream),
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.untrack(nc)
		l.readLoop()
	}()
	return l, nil
}

// readLoop hands the worker's frames to their streams until the link
// dies. Frames for clients are queued, not written, while more frames
// are buffered; once the reader would block it writes each client's
// batch, replies before pushes — so an upload's ack reaches its device
// before the reading that rode the same worker write reaches the CAS.
// Those writes never wait on a client that has stopped reading
// (wire.Coalescer.Relay), so one stalled client cannot hold up the
// link's other sessions.
func (l *link) readLoop() {
	var replies, pushes []*stream
	relay := func() {
		for _, batch := range [][]*stream{replies, pushes} {
			for _, st := range batch {
				if st.relay != 0 {
					st.relay = 0
					st.client.co.Relay()
				}
			}
		}
		replies, pushes = replies[:0], pushes[:0]
	}
	for {
		env, err := wire.Link.ReadFrame(l.br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				l.r.log.Errorf("link to %s: %v; closing it", l.nc.RemoteAddr(), err)
			}
			break
		}
		l.mu.Lock()
		st := l.streams[env.Stream()]
		l.mu.Unlock()
		switch {
		case st == nil:
			// A stream the router already closed: its last frames, and the
			// worker's answering stream_close, have nowhere to go.
		case env.Type == wire.TypeStreamClose:
			st.lost()
		case env.Seq >= internalSeqBase:
			st.deliver(env)
		default:
			if err := st.client.queue(env); err != nil {
				l.r.met.relayErrors.Inc()
				break
			}
			if env.Seq != 0 && st.relay != 2 {
				st.relay = 2
				replies = append(replies, st)
			} else if st.relay == 0 {
				st.relay = 1
				pushes = append(pushes, st)
			}
		}
		if !wire.LinkFrameBuffered(l.br) {
			relay()
		}
	}
	relay()
	l.close()
}

// close tears the link down; every stream on it is lost, which closes
// its client.
func (l *link) close() {
	l.mu.Lock()
	streams := l.streams
	l.streams = make(map[uint64]*stream)
	l.dead = true
	l.mu.Unlock()
	_ = l.nc.Close()
	l.co.Close()
	for _, st := range streams {
		st.lost()
	}
}

// isDead reports whether the link has closed.
func (l *link) isDead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead
}

// open starts a stream for one client session. Its hello rides the
// link's next write, normally the client frame that made the router
// open it.
func (l *link) open(owner streamOwner, client *sconn, role wire.Role) (*stream, error) {
	hello, err := wire.Binary.Encode(wire.TypeHello, 0, wire.Hello{Role: role, Version: wire.ProtocolVersionBinary})
	if err != nil {
		return nil, err
	}
	l.openMu.Lock()
	defer l.openMu.Unlock()
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return nil, wire.ErrClosed
	}
	l.next++
	st := &stream{l: l, id: l.next, client: client, owner: owner, gone: make(chan struct{})}
	l.streams[st.id] = st
	l.mu.Unlock()
	if err := l.co.Send(hello.OnStream(st.id), false, nil); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (l *link) forget(id uint64) {
	l.mu.Lock()
	delete(l.streams, id)
	l.mu.Unlock()
}

// send relays one client frame up the stream. A closed stream refuses
// it without writing it, which is what lets a session retry the frame
// on the stream that replaced this one (deviceSession.forward).
func (st *stream) send(env wire.Envelope) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return wire.ErrClosed
	}
	return st.l.co.Send(env.OnStream(st.id), true, nil)
}

// call sends one router-internal request on the stream and waits for
// the worker's reply.
func (st *stream) call(typ wire.MsgType, payload interface{}, timeout time.Duration) (wire.Envelope, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return wire.Envelope{}, wire.ErrClosed
	}
	st.seq++
	seq := internalSeqBase + st.seq
	env, err := wire.Binary.Encode(typ, seq, payload)
	if err != nil {
		st.mu.Unlock()
		return wire.Envelope{}, err
	}
	ch := make(chan wire.Envelope, 1)
	if st.pending == nil {
		st.pending = make(map[uint64]chan wire.Envelope)
	}
	st.pending[seq] = ch
	err = st.l.co.Send(env.OnStream(st.id), true, nil)
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		delete(st.pending, seq)
		st.mu.Unlock()
	}()
	if err != nil {
		return wire.Envelope{}, err
	}
	select {
	case resp := <-ch:
		if resp.Type == wire.TypeError {
			var e wire.Error
			_ = wire.Decode(resp, &e)
			return wire.Envelope{}, fmt.Errorf("cluster: %s: %s", typ, e.Message)
		}
		return resp, nil
	case <-st.gone:
		return wire.Envelope{}, wire.ErrClosed
	case <-time.After(timeout):
		return wire.Envelope{}, fmt.Errorf("cluster: %s: timeout after %v", typ, timeout)
	}
}

// deliver hands an internal-sequence reply to its waiting call.
func (st *stream) deliver(env wire.Envelope) {
	st.mu.Lock()
	ch, ok := st.pending[env.Seq]
	st.mu.Unlock()
	if ok {
		ch <- env
	}
}

// end marks the stream closed and reports whether this call did.
func (st *stream) end() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false
	}
	st.closed = true
	close(st.gone)
	return true
}

// close ends the stream from the router's side (its client left, or the
// session moved to another stream) and tells the worker.
func (st *stream) close() {
	if !st.end() {
		return
	}
	st.l.forget(st.id)
	if env, err := wire.Binary.Encode(wire.TypeStreamClose, 0, nil); err == nil {
		_ = st.l.co.Send(env.OnStream(st.id), false, nil)
	}
}

// lost ends a stream the worker closed, or whose link died, and tells
// its session.
func (st *stream) lost() {
	if !st.end() {
		return
	}
	st.l.forget(st.id)
	st.owner.streamLost(st)
}
