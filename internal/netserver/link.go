package netserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"senseaid/internal/wire"
)

// streamInbox is how many frames one stream may hold for its session
// loop; the link's reader sheds a frame that finds the inbox full. A
// device or CAS has a handful of calls in flight at most, so 32 absorbs
// a burst while a handler waits for the RPC pool, at ~2 KiB per stream.
const streamInbox = 32

// link is this node's end of its enrollment connection to the router
// (DESIGN.md §14). Stream 0 carries the router's control requests; every
// other stream is one relayed device or CAS session, run by the same
// serveDevice/serveCAS loop as a session on a socket of its own, and
// every stream writes through the link's one coalescer, so a tick's
// schedules to many devices, or a reading and the ack that follows it,
// leave in one write.
type link struct {
	e *enrollment
	c *conn // the socket

	mu      sync.Mutex
	streams map[uint64]*conn
	last    uint64 // the highest stream id opened; the router never reuses one
}

// serveLink reads the router's link until it dies, handing each frame
// to its stream. The reader never waits on a session: a stream whose
// inbox is full has that one frame shed. A frame the link codec cannot
// parse is a fault of the whole link; closing it ends every stream on
// it.
func (e *enrollment) serveLink(c *conn) {
	if s := e.s; s != nil {
		s.met.acceptedRouter.Inc()
		s.met.connsRouter.Add(1)
		defer s.met.connsRouter.Add(-1)
	}
	l := &link{e: e, c: c, streams: make(map[uint64]*conn)}
	defer l.closeAll()
	for {
		env, err := wire.Link.ReadFrame(c.br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				e.log.Errorf("router link to %s: %v; closing it", c.nc.RemoteAddr(), err)
			}
			return
		}
		id := env.Stream()
		if id == 0 {
			l.control(env)
			continue
		}
		l.mu.Lock()
		st := l.streams[id]
		fresh := st == nil && id > l.last
		if st != nil && env.Type == wire.TypeStreamClose {
			delete(l.streams, id)
		}
		l.mu.Unlock()
		switch {
		case st != nil && env.Type == wire.TypeStreamClose:
			// The router closed it; the session ends without an answer.
			st.close()
		case st != nil:
			l.deliver(st, env)
		case fresh && env.Type == wire.TypeHello:
			l.open(id, env)
		case env.Type != wire.TypeStreamClose:
			// A frame on a stream this worker has closed (or never
			// opened): tell the router it is gone.
			l.sendClose(id)
		}
	}
}

// control answers one request on stream 0: a ping, or a standby's
// promote. Anything else is answered with an error under its sequence
// number; the link stays up.
func (l *link) control(env wire.Envelope) {
	var err error
	switch {
	case env.Type == wire.TypeNodePing:
	case env.Type == wire.TypePromote && l.e.promote != nil:
		var pr wire.Promote
		if err = wire.Decode(env, &pr); err == nil {
			err = l.e.promote(pr)
		}
	default:
		err = fmt.Errorf("netserver: unexpected %s on the control stream", env.Type)
	}
	if err != nil {
		l.c.sendErr(env.Seq, err)
		return
	}
	_ = l.c.send(wire.TypeAck, env.Seq, wire.Ack{})
}

// open starts the session a stream's hello names. A standby's link
// carries no sessions: it closes every stream the router opens.
func (l *link) open(id uint64, env wire.Envelope) {
	var hello wire.Hello
	err := wire.Decode(env, &hello)
	l.mu.Lock()
	l.last = id
	l.mu.Unlock()
	s := l.e.s
	if err != nil || s == nil || (hello.Role != wire.RoleDevice && hello.Role != wire.RoleCAS) {
		l.sendClose(id)
		return
	}
	st := &conn{
		nc:     l.c.nc,
		co:     l.c.co,
		stream: id,
		inbox:  make(chan wire.Envelope, streamInbox),
		ended:  make(chan struct{}),
	}
	l.mu.Lock()
	l.streams[id] = st
	l.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serveSession(st, hello.Role)
		st.close()
		// A session that ended on this side (idle, deregister, a failed
		// delivery) tells the router, which closes its client.
		l.mu.Lock()
		mine := l.streams[id] == st
		if mine {
			delete(l.streams, id)
		}
		l.mu.Unlock()
		if mine {
			l.sendClose(id)
		}
	}()
}

// deliver queues one frame for its stream's session, or sheds it with
// the pool's "overloaded" reply when the session is that far behind.
func (l *link) deliver(st *conn, env wire.Envelope) {
	select {
	case st.inbox <- env:
	default:
		l.e.s.met.rpcShed.Inc()
		st.sendErr(env.Seq, errOverloaded)
	}
}

// sendClose tells the router a stream is gone.
func (l *link) sendClose(id uint64) {
	env, err := wire.Binary.Encode(wire.TypeStreamClose, 0, nil)
	if err == nil {
		_ = l.c.co.Send(env.OnStream(id), false, nil)
	}
}

// closeAll ends every stream when the link dies.
func (l *link) closeAll() {
	l.mu.Lock()
	streams := l.streams
	l.streams = make(map[uint64]*conn)
	l.mu.Unlock()
	for _, st := range streams {
		st.close()
	}
}
