package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrClosed is returned by RPC calls on a closed connection.
var ErrClosed = errors.New("wire: connection closed")

// DefaultCallTimeout bounds a request/response exchange.
const DefaultCallTimeout = 10 * time.Second

// DefaultWriteTimeout bounds a single frame write, mirroring the
// server's per-connection write deadline: a stalled peer must surface
// as an error, never wedge the writer's goroutine permanently.
const DefaultWriteTimeout = 5 * time.Second

// readBufBytes sizes the per-connection buffered reader: big enough to
// drain a coalesced flush from the peer in one syscall, small enough to
// stay cheap across tens of thousands of connections.
const readBufBytes = 16 << 10

// ConnConfig tunes an RPCConn beyond the defaults.
type ConnConfig struct {
	// Codec is the encoding to request in the Hello exchange; nil means
	// JSON (v1). If the server caps at v1 the connection transparently
	// falls back to JSON — see the negotiation rules in DESIGN.md §13.
	Codec Codec
}

// RPCConn layers request/response and push-message handling over a framed
// connection. The device client and the CAS library both build on it.
//
// Every write carries a deadline, and a write failure (including a
// deadline expiry against a stalled peer) tears the connection down:
// after a partial frame the stream is unframeable, so the only safe
// recovery is a fresh connection. Done exposes the teardown to owners
// that want to redial.
type RPCConn struct {
	nc      net.Conn
	br      *bufio.Reader
	codec   Codec
	co      *Coalescer
	timeout time.Duration

	mu      sync.Mutex
	nextSeq uint64
	pending map[uint64]chan Envelope
	closed  bool

	// push receives non-response messages (schedules, sensed data).
	push func(Envelope)

	doneOnce sync.Once
	done     chan struct{}

	wg sync.WaitGroup
}

// onceConn closes its connection once and hands every caller the first
// result. Three parties race to close an RPCConn's socket — the read
// loop's teardown, the coalescer after a write fault, the owner's Close
// — and a second net.Conn.Close reports "use of closed network
// connection", which an owner hanging up right after the peer did (every
// deregistration) would otherwise return as its error.
type onceConn struct {
	net.Conn
	once sync.Once
	err  error
}

func (c *onceConn) Close() error {
	c.once.Do(func() { c.err = c.Conn.Close() })
	return c.err
}

// NewRPCConn wraps an established connection with the default v1 JSON
// codec; see NewRPCConnCfg.
func NewRPCConn(nc net.Conn, role Role, push func(Envelope)) (*RPCConn, error) {
	return NewRPCConnCfg(nc, role, push, ConnConfig{})
}

// NewRPCConnCfg wraps an established connection and performs the Hello
// handshake for the given role, negotiating the requested codec. push
// receives server-initiated messages and is called from the read loop
// (handlers must not block). The handshake runs under read and write
// deadlines, so a stalled or silent server fails the dial instead of
// hanging it.
//
// The Hello itself is always framed with the v1 JSON codec so any server
// can read it. A server that accepts the binary codec echoes version 2
// in its Ack; one that caps at v1 sends a plain Ack and the connection
// stays on JSON — a v2-capable client never fails against a v1 server.
func NewRPCConnCfg(nc net.Conn, role Role, push func(Envelope), cfg ConnConfig) (*RPCConn, error) {
	if cfg.Codec == nil {
		cfg.Codec = JSON
	}
	nc = &onceConn{Conn: nc}
	c := &RPCConn{
		nc:      nc,
		br:      bufio.NewReaderSize(nc, readBufBytes),
		timeout: DefaultCallTimeout,
		pending: make(map[uint64]chan Envelope),
		push:    push,
		done:    make(chan struct{}),
	}
	// Handshake synchronously, before the read loop starts. Always v1
	// JSON framing, whatever codec is being requested.
	env, err := Encode(TypeHello, 0, Hello{Role: role, Version: cfg.Codec.Version()})
	if err != nil {
		return nil, err
	}
	_ = nc.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	if err := WriteFrame(nc, env); err != nil {
		return nil, fmt.Errorf("wire: hello: %w", err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(c.timeout))
	resp, err := ReadFrame(c.br)
	if err != nil {
		return nil, fmt.Errorf("wire: hello response: %w", err)
	}
	_ = nc.SetReadDeadline(time.Time{})
	if resp.Type == TypeError {
		var e Error
		_ = Decode(resp, &e)
		return nil, fmt.Errorf("wire: server rejected hello: %s", e.Message)
	}
	if resp.Type != TypeAck {
		return nil, fmt.Errorf("wire: unexpected hello response %s", resp.Type)
	}
	c.codec = JSON
	if cfg.Codec.Version() != ProtocolVersion {
		var ack Ack
		if len(resp.Payload) > 0 {
			_ = Decode(resp, &ack)
		}
		if neg, ok := CodecForVersion(ack.Version); ok {
			c.codec = neg
		}
	}
	c.co = NewCoalescer(nc, c.codec, CoalescerConfig{})

	c.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// Codec reports the encoding the connection negotiated.
func (c *RPCConn) Codec() Codec { return c.codec }

// SetTimeouts adjusts the call-response and frame-write deadlines
// (tests tighten them; zero leaves a value unchanged).
func (c *RPCConn) SetTimeouts(call, write time.Duration) {
	c.mu.Lock()
	if call > 0 {
		c.timeout = call
	}
	c.mu.Unlock()
	if write > 0 {
		c.co.SetWriteTimeout(write)
	}
}

// Done is closed when the connection dies — read-loop failure, a write
// fault, or an explicit Close. Owners watch it to trigger a redial.
func (c *RPCConn) Done() <-chan struct{} { return c.done }

// callTimeout reads the current call deadline under the lock.
func (c *RPCConn) callTimeout() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timeout
}

// Call sends a request and waits for its Ack (returned) or Error
// (converted to a Go error). Calls flush immediately — the caller is
// blocked on the response, so there is nothing to coalesce with.
func (c *RPCConn) Call(t MsgType, payload interface{}) (Ack, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Ack{}, ErrClosed
	}
	c.nextSeq++
	seq := c.nextSeq
	ch := make(chan Envelope, 1)
	c.pending[seq] = ch
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
	}()

	env, err := c.codec.Encode(t, seq, payload)
	if err != nil {
		return Ack{}, err
	}
	if err := c.co.Send(env, true, nil); err != nil {
		return Ack{}, fmt.Errorf("wire: send %s: %w", t, err)
	}

	timeout := c.callTimeout()
	select {
	case resp, ok := <-ch:
		if !ok {
			return Ack{}, ErrClosed
		}
		if resp.Type == TypeError {
			var e Error
			_ = Decode(resp, &e)
			return Ack{}, fmt.Errorf("wire: %s: %s", t, e.Message)
		}
		var ack Ack
		if len(resp.Payload) > 0 {
			if err := Decode(resp, &ack); err != nil {
				return Ack{}, err
			}
		}
		return ack, nil
	case <-time.After(timeout):
		return Ack{}, fmt.Errorf("wire: %s: timeout after %v", t, timeout)
	}
}

// Reply sends a response frame echoing a peer-assigned seq — the worker
// side of a node RPC, where the remote end (the router) picked the
// sequence number and matches the reply by it. Replies flush
// immediately: the router is blocked on them.
func (c *RPCConn) Reply(t MsgType, seq uint64, payload interface{}) error {
	env, err := c.codec.Encode(t, seq, payload)
	if err != nil {
		return err
	}
	return c.co.Send(env, true, nil)
}

// Notify sends a message without waiting for a response. The frame
// rides the coalescer's next deferred flush, shared with whatever else
// this goroutine sends before it yields; a write failure surfaces
// through Done.
func (c *RPCConn) Notify(t MsgType, payload interface{}) error {
	env, err := c.codec.Encode(t, 0, payload)
	if err != nil {
		return err
	}
	return c.co.Send(env, false, nil)
}

// Close tears the connection down and waits for the read loop.
func (c *RPCConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	_ = c.co.Close()
	err := c.nc.Close()
	c.wg.Wait()
	return err
}

func (c *RPCConn) readLoop() {
	defer c.wg.Done()
	for {
		env, err := c.codec.ReadFrame(c.br)
		if err != nil {
			// The error may be a protocol fault on a live socket, not
			// just a peer disconnect: close the conn so it never leaks.
			_ = c.nc.Close()
			c.mu.Lock()
			c.closed = true
			for seq, ch := range c.pending {
				close(ch)
				delete(c.pending, seq)
			}
			c.mu.Unlock()
			c.doneOnce.Do(func() { close(c.done) })
			return
		}
		if env.Seq != 0 && (env.Type == TypeAck || env.Type == TypeError) {
			c.mu.Lock()
			ch, ok := c.pending[env.Seq]
			c.mu.Unlock()
			if ok {
				ch <- env
			}
			continue
		}
		if c.push != nil {
			c.push(env)
		}
	}
}
