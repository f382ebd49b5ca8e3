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
// injects into a stream (a re-home's export and import, the fan-out of
// an unscoped subscription, the control stream's ping and promote) use
// sequences at or above this base, so the link's reader can tell a reply
// to the client from a reply to the router without inspecting payloads.
const internalSeqBase = uint64(1) << 62

// link is the router's one connection to an enrolled node, which the
// node dialled (DESIGN.md §14). Stream 0 is control (ctrl): the router's
// ping and promote. Every device and CAS session relayed to the node is
// another numbered stream on it: client frames go up through the link's
// one coalescer, and one reader hands the node's frames to the sessions
// by stream id.
type link struct {
	r    *Router
	nc   net.Conn
	br   *bufio.Reader
	co   *wire.Coalescer
	ctrl *stream // stream 0; it has no client and no owner

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

// newLink makes a link of a node's connection, once its hello is done.
// The caller runs its readLoop.
func (r *Router) newLink(nc net.Conn, br *bufio.Reader) *link {
	l := &link{
		r:       r,
		nc:      nc,
		br:      br,
		co:      wire.NewCoalescer(nc, wire.Link, wire.CoalescerConfig{WriteTimeout: r.cfg.WriteTimeout}),
		streams: make(map[uint64]*stream),
	}
	l.ctrl = &stream{l: l, gone: make(chan struct{})}
	return l
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
read:
	for {
		env, err := wire.Link.ReadFrame(l.br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				l.r.log.Errorf("link from %s: %v; closing it", l.nc.RemoteAddr(), err)
			}
			break
		}
		st := l.ctrl
		if id := env.Stream(); id != 0 {
			l.mu.Lock()
			st = l.streams[id]
			l.mu.Unlock()
		}
		switch {
		case st == l.ctrl:
			if env.Seq < internalSeqBase {
				// A node originates nothing after its node_hello.
				l.r.log.Errorf("link from %s: %s on the control stream; closing it", l.nc.RemoteAddr(), env.Type)
				break read
			}
			st.deliver(env)
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
	l.ctrl.end()
	for _, st := range streams {
		st.lost()
	}
}

// shed ends every session on a link whose node another enrollment has
// replaced as its region's primary: the worker is told, and each client
// is closed, so it redials into the successor. The link itself stays up
// — closing it would make the displaced node redial and enroll again,
// displacing its successor in turn.
func (l *link) shed() {
	l.mu.Lock()
	streams := l.streams
	l.streams = make(map[uint64]*stream)
	l.mu.Unlock()
	for _, st := range streams {
		st.close()
		st.owner.streamLost(st)
	}
}

// open starts a stream for one client session. Its hello rides the
// link's next write, normally the client frame that made the router
// open it.
func (l *link) open(owner streamOwner, client *sconn, role wire.Role) (*stream, error) {
	hello, err := wire.Binary.Encode(wire.TypeHello, 0, wire.Hello{Role: role, Version: wire.ProtocolVersion})
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
