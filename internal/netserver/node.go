package netserver

// Node-to-node control plane (DESIGN.md §14). Two directions meet here:
//
//   - Inbound: a standby replica dials this server with wire.RoleNode
//     and a NodeHello naming NodeRoleReplica; serveNode attaches it to
//     the persister, which tees every snapshot and journal write to the
//     link (journal shipping).
//
//   - Outbound: a worker (or standby) dials the router and enrolls. That
//     one connection is its link (link.go): stream 0 carries the
//     enrollment and the router's control requests (ping, promote), and
//     every other stream is a client session the router relays.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"senseaid/internal/obs"
	"senseaid/internal/wire"
)

// serveNode handles one inbound node-to-node connection. The only node
// role served by a worker's listener is a replica attaching for journal
// shipping: enrollments run in the other direction (the node dials the
// router), so anything else here is a misdirected peer.
func (s *Server) serveNode(c *conn) {
	env, err := c.read(0)
	if err != nil {
		return
	}
	if env.Type != wire.TypeNodeHello {
		c.sendErr(env.Seq, fmt.Errorf("netserver: expected node_hello, got %s", env.Type))
		return
	}
	var nh wire.NodeHello
	if err := wire.Decode(env, &nh); err != nil {
		c.sendErr(env.Seq, err)
		return
	}
	if nh.NodeRole != wire.NodeRoleReplica {
		c.sendErr(env.Seq, fmt.Errorf("netserver: node role %q not served here (replica only)", nh.NodeRole))
		return
	}
	if s.pers == nil {
		c.sendErr(env.Seq, fmt.Errorf("netserver: replication requires a state directory"))
		return
	}
	if err := c.send(wire.TypeAck, env.Seq, wire.Ack{Ref: nh.NodeID}); err != nil {
		return
	}
	s.log.Infof("replica %s attached from %s", nh.NodeID, c.nc.RemoteAddr())
	s.pers.attachReplica(c)
	defer s.pers.detachReplica(c)
	// The replica sends nothing but liveness pings; this loop exists to
	// answer them and to notice the replica's death (EOF detaches it).
	for {
		env, err := c.read(0)
		if err != nil {
			s.log.Infof("replica %s detached", nh.NodeID)
			return
		}
		switch env.Type {
		case wire.TypeNodePing:
			_ = c.send(wire.TypeAck, env.Seq, wire.Ack{})
		default:
			c.sendErr(env.Seq, fmt.Errorf("netserver: unexpected %s from replica", env.Type))
		}
	}
}

// Redial bounds of an enrollment whose link died: the first retry
// waits redialMin, each failure doubles the wait up to redialMax.
const (
	redialMin = 250 * time.Millisecond
	redialMax = 5 * time.Second
)

// enrollment keeps one node enrolled with a router, over one connection
// the node dials, and redials for as long as its owner runs. Losing the
// router degrades the node to standalone operation; it must never take
// the region down.
type enrollment struct {
	routerAddr string
	hello      wire.NodeHello
	// s serves the link's session streams; nil on a standby, whose link
	// carries none until it is promoted (and enrolls again as a server).
	s *Server
	// promote answers the router's promote; nil refuses it.
	promote      func(wire.Promote) error
	writeTimeout time.Duration
	log          *obs.Logger

	mu     sync.Mutex
	nc     net.Conn // the live link's socket
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// start makes the first enrollment synchronously, so a misconfigured
// address fails fast, then serves the link and redials in the
// background.
func (e *enrollment) start() error {
	if e.routerAddr == "" {
		return fmt.Errorf("netserver: enrollment needs a router address")
	}
	e.wg.Add(1)
	c, err := e.dial()
	if err != nil {
		e.wg.Done()
		return err
	}
	go e.run(c)
	return nil
}

// dial opens a link to the router and enrolls over it: the hello in the
// node role (wire.DialHello), then the NodeHello on stream 0, answered
// with an ack.
func (e *enrollment) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", e.routerAddr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("netserver: dial router %s: %w", e.routerAddr, err)
	}
	c := &conn{nc: nc, br: wire.NewReader(nc, 16<<10)}
	if err := e.handshake(c); err != nil {
		_ = nc.Close()
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		_ = nc.Close()
		return nil, wire.ErrClosed
	}
	e.nc = nc
	e.mu.Unlock()
	c.co = wire.NewCoalescer(nc, wire.Link, wire.CoalescerConfig{WriteTimeout: e.writeTimeout})
	e.log.Infof("node %s enrolled with router %s (region %s, role %s)",
		e.hello.NodeID, e.routerAddr, e.hello.Region, e.hello.NodeRole)
	return c, nil
}

func (e *enrollment) handshake(c *conn) error {
	if err := wire.DialHello(c.nc, c.br, wire.RoleNode, 5*time.Second); err != nil {
		return fmt.Errorf("netserver: router %s: %w", e.routerAddr, err)
	}
	_ = c.nc.SetDeadline(time.Now().Add(5 * time.Second))
	nh, err := wire.Link.Encode(wire.TypeNodeHello, 1, e.hello)
	if err != nil {
		return err
	}
	if err := wire.Link.WriteFrame(c.nc, nh); err != nil {
		return err
	}
	env, err := wire.Link.ReadFrame(c.br)
	if err != nil {
		return fmt.Errorf("netserver: enroll with router: %w", err)
	}
	if err := replyErr(env); err != nil {
		return fmt.Errorf("netserver: enroll with router: %w", err)
	}
	if env.Stream() != 0 || env.Type != wire.TypeAck {
		return fmt.Errorf("netserver: enroll with router: answered %s on stream %d", env.Type, env.Stream())
	}
	return c.nc.SetDeadline(time.Time{})
}

// replyErr turns an error reply into an error.
func replyErr(env wire.Envelope) error {
	if env.Type != wire.TypeError {
		return nil
	}
	var e wire.Error
	_ = wire.Decode(env, &e)
	return fmt.Errorf("router: %s", e.Message)
}

// run serves each link until it dies, then redials, until close.
func (e *enrollment) run(c *conn) {
	defer e.wg.Done()
	for {
		e.serveLink(c)
		_ = c.co.Close()
		_ = c.nc.Close()
		for backoff := redialMin; ; backoff = min(2*backoff, redialMax) {
			select {
			case <-e.done:
				return
			case <-time.After(backoff):
			}
			next, err := e.dial()
			if err == nil {
				c = next
				break
			}
			if !errors.Is(err, wire.ErrClosed) {
				e.log.Errorf("enrollment redial: %v", err)
			}
		}
	}
}

// close ends the enrollment: its link closes, which ends every session
// on it, and no redial follows.
func (e *enrollment) close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.done)
	}
	nc := e.nc
	e.mu.Unlock()
	if nc != nil {
		_ = nc.Close()
	}
	e.wg.Wait()
}

// Enroll joins this server to a router as its region's primary, for as
// long as the server runs. The server must be running exactly one
// region (Config.Regions of length one): the region's name is what
// prefixes its task IDs, which is the grammar the router routes by.
func (s *Server) Enroll(routerAddr, nodeID string) error {
	if len(s.cfg.Regions) != 1 {
		return fmt.Errorf("netserver: enrollment requires exactly one region, have %d", len(s.cfg.Regions))
	}
	r := s.cfg.Regions[0]
	e := &enrollment{
		routerAddr: routerAddr,
		hello: wire.NodeHello{
			NodeID:   nodeID,
			Region:   r.Name,
			NodeRole: wire.NodeRolePrimary,
			Lat:      r.Area.Center.Lat,
			Lon:      r.Area.Center.Lon,
			RadiusM:  r.Area.RadiusM,
		},
		s:            s,
		writeTimeout: s.cfg.WriteTimeout,
		log:          s.log,
		done:         make(chan struct{}),
	}
	s.connMu.Lock()
	select {
	case <-s.done:
		s.connMu.Unlock()
		return wire.ErrClosed
	default:
	}
	if s.enrolled != nil {
		s.connMu.Unlock()
		return fmt.Errorf("netserver: already enrolled with %s", s.enrolled.routerAddr)
	}
	s.enrolled = e
	s.connMu.Unlock()
	if err := e.start(); err != nil {
		s.connMu.Lock()
		s.enrolled = nil
		s.connMu.Unlock()
		return err
	}
	return nil
}
