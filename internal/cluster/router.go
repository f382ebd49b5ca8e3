package cluster

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"senseaid/internal/obs"
	"senseaid/internal/wire"
)

// Config parameterises a router.
type Config struct {
	// Addr is the TCP listen address clients and nodes dial.
	Addr string
	// MaxWireVersion caps the codec granted to client connections (a
	// node's link always gets binary). 0 means binary.
	MaxWireVersion int
	// HandshakeTimeout bounds the hello exchange. Default 10s.
	HandshakeTimeout time.Duration
	// WriteTimeout bounds every frame write. Default 5s.
	WriteTimeout time.Duration
	// CallTimeout bounds one router-originated request on a link
	// (export, import, promote, a fanned-out subscription). Default 10s.
	CallTimeout time.Duration
	// PingInterval paces the health checks on each node's link (on its
	// control stream); PingTimeout fails one, which closes the link.
	// Defaults 1s / 2s. A SIGKILLed node usually announces itself faster
	// through TCP (EOF on the link), so the ping is the backstop for
	// silent deaths (cable pulls, frozen processes).
	PingInterval, PingTimeout time.Duration
	// Logger receives operational messages; nil discards them.
	Logger *log.Logger
	// LogLevel filters Logger output.
	LogLevel obs.Level
	// Metrics receives the router series; nil uses a private registry.
	Metrics *obs.Registry
}

// routerMetrics is the router tier's metric vocabulary.
type routerMetrics struct {
	reg          *obs.Registry
	nodes        *obs.Gauge
	sessDevice   *obs.Gauge
	sessCAS      *obs.Gauge
	rehomes      *obs.Counter
	rehomeErrors *obs.Counter
	promotions   *obs.Counter
	relayErrors  *obs.Counter
	swapRetries  *obs.Counter
	pingFailures *obs.Counter
	noRoute      *obs.Counter
}

func newRouterMetrics(reg *obs.Registry) *routerMetrics {
	role := func(r string) obs.Labels { return obs.Labels{"role": r} }
	return &routerMetrics{
		reg: reg,
		nodes: reg.Gauge("senseaid_router_nodes",
			"Nodes currently enrolled with the router.", nil),
		sessDevice: reg.Gauge("senseaid_router_sessions",
			"Relayed client sessions by role.", role("device")),
		sessCAS: reg.Gauge("senseaid_router_sessions",
			"Relayed client sessions by role.", role("cas")),
		rehomes: reg.Counter("senseaid_router_rehomes_total",
			"Devices moved between region nodes after crossing a boundary.", nil),
		rehomeErrors: reg.Counter("senseaid_router_rehome_errors_total",
			"Cross-node re-homes that failed (export, import, or re-attach).", nil),
		promotions: reg.Counter("senseaid_router_promotions_total",
			"Standby nodes promoted after a primary's death.", nil),
		relayErrors: reg.Counter("senseaid_router_relay_errors_total",
			"Frames dropped because relaying them failed.", nil),
		swapRetries: reg.Counter("senseaid_router_swap_retries_total",
			"Client frames re-sent on a session's fresh stream after a send raced a re-home or promotion swap.", nil),
		pingFailures: reg.Counter("senseaid_router_ping_failures_total",
			"Node link health checks that failed or timed out.", nil),
		noRoute: reg.Counter("senseaid_router_unroutable_total",
			"Client requests refused because no enrolled region could serve them.", nil),
	}
}

// Router is a running router tier.
type Router struct {
	cfg Config
	ln  net.Listener
	log *obs.Logger
	met *routerMetrics
	reg *registry

	// wrap, when set, wraps every accepted connection (fault injection
	// in tests).
	wrap func(net.Conn) net.Conn

	connMu sync.Mutex
	conns  map[net.Conn]bool
	shut   bool // Close has run: no connection is tracked any more

	done    chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup
}

// Listen starts a router on cfg.Addr.
func Listen(cfg Config) (*Router, error) {
	return listen(cfg, nil)
}

// listen is Listen with a connection wrapper (see Router.wrap).
func listen(cfg Config, wrap func(net.Conn) net.Conn) (*Router, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxWireVersion == 0 {
		cfg.MaxWireVersion = wire.ProtocolVersionBinary
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.PingInterval <= 0 {
		cfg.PingInterval = time.Second
	}
	if cfg.PingTimeout <= 0 {
		cfg.PingTimeout = 2 * time.Second
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", cfg.Addr, err)
	}
	r := &Router{
		cfg:   cfg,
		ln:    ln,
		log:   obs.NewLogger(cfg.Logger, cfg.LogLevel),
		met:   newRouterMetrics(reg),
		reg:   newRegistry(),
		wrap:  wrap,
		conns: make(map[net.Conn]bool),
		done:  make(chan struct{}),
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr returns the bound listen address.
func (r *Router) Addr() string { return r.ln.Addr().String() }

// Metrics returns the registry carrying the router's series.
func (r *Router) Metrics() *obs.Registry { return r.met.reg }

// Close shuts the router down and waits for its goroutines. Worker
// nodes keep running — the router is stateless glue.
func (r *Router) Close() error {
	var err error
	r.closeMu.Do(func() {
		close(r.done)
		err = r.ln.Close()
		r.connMu.Lock()
		r.shut = true
		for nc := range r.conns {
			_ = nc.Close()
		}
		r.connMu.Unlock()
		r.wg.Wait()
	})
	return err
}

func (r *Router) acceptLoop() {
	defer r.wg.Done()
	for {
		nc, err := r.ln.Accept()
		if err != nil {
			select {
			case <-r.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			r.log.Errorf("accept: %v", err)
			continue
		}
		if r.wrap != nil {
			nc = r.wrap(nc)
		}
		if !r.track(nc) {
			_ = nc.Close()
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.untrack(nc)
			defer func() { _ = nc.Close() }()
			r.serveConn(nc)
		}()
	}
}

// track registers a connection for Close to tear down; it reports
// false once Close has run.
func (r *Router) track(nc net.Conn) bool {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.shut {
		return false
	}
	r.conns[nc] = true
	return true
}

func (r *Router) untrack(nc net.Conn) {
	r.connMu.Lock()
	delete(r.conns, nc)
	r.connMu.Unlock()
}

// serveConn terminates one inbound connection: hello, codec
// negotiation (the same rules as the worker's listener, except that a
// node's link is always binary), then a role switch into serving a
// node's link or relaying a client session.
func (r *Router) serveConn(nc net.Conn) {
	if r.cfg.HandshakeTimeout > 0 {
		_ = nc.SetReadDeadline(time.Now().Add(r.cfg.HandshakeTimeout))
	}
	br := wire.NewReader(nc, wire.SessionReadBuf)
	env, err := wire.ReadFrame(br)
	if err != nil {
		return
	}
	_ = nc.SetReadDeadline(time.Time{})
	if env.Type != wire.TypeHello {
		return
	}
	var hello wire.Hello
	if err := wire.Decode(env, &hello); err != nil {
		return
	}
	if _, known := wire.CodecForVersion(hello.Version); !known {
		r.sendRawErr(nc, env.Seq, fmt.Errorf("cluster: protocol version %d unsupported", hello.Version))
		return
	}
	negotiated := hello.Version
	switch {
	case hello.Role == wire.RoleNode && negotiated != wire.ProtocolVersionBinary:
		r.sendRawErr(nc, env.Seq, fmt.Errorf("cluster: a node link speaks protocol version %d", wire.ProtocolVersionBinary))
		return
	case hello.Role != wire.RoleNode && negotiated > r.cfg.MaxWireVersion:
		negotiated = wire.ProtocolVersion
	}
	ack := wire.Ack{}
	if negotiated != wire.ProtocolVersion {
		ack.Version = negotiated
	}
	ackEnv, err := wire.Encode(wire.TypeAck, env.Seq, ack)
	if err != nil {
		return
	}
	_ = nc.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
	if err := wire.WriteFrame(nc, ackEnv); err != nil {
		return
	}
	_ = nc.SetWriteDeadline(time.Time{})
	if hello.Role == wire.RoleNode {
		if br.Buffered() == 0 { // a node waits for the ack before its node_hello
			r.serveNode(nc)
		}
		return
	}
	codec, _ := wire.CodecForVersion(negotiated)
	sc := r.newSconn(nc, br, codec)
	defer sc.co.Close()

	switch hello.Role {
	case wire.RoleDevice:
		r.met.sessDevice.Add(1)
		r.serveDeviceSession(sc)
		r.met.sessDevice.Add(-1)
	case wire.RoleCAS:
		r.met.sessCAS.Add(1)
		r.serveCASSession(sc)
		r.met.sessCAS.Add(-1)
	default:
		sc.sendErr(env.Seq, fmt.Errorf("cluster: unknown role %q", hello.Role))
	}
}

// sendRawErr writes a pre-negotiation v1 error frame.
func (r *Router) sendRawErr(nc net.Conn, seq uint64, err error) {
	env, eerr := wire.Encode(wire.TypeError, seq, wire.Error{Message: err.Error()})
	if eerr != nil {
		return
	}
	_ = nc.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
	_ = wire.WriteFrame(nc, env)
}

// serveNode enrolls one node over the connection it dialled and serves
// that connection as the node's link until it dies: every client on it
// is then closed, the node is dropped and, if it was a primary with a
// standby enrolled, the standby is promoted.
func (r *Router) serveNode(nc net.Conn) {
	l := r.newLink(nc, wire.NewReader(nc, linkReadBuf))
	defer l.close()
	_ = nc.SetReadDeadline(time.Now().Add(r.cfg.HandshakeTimeout))
	env, err := wire.Link.ReadFrame(l.br)
	if err != nil {
		return
	}
	_ = nc.SetReadDeadline(time.Time{})
	var nh wire.NodeHello
	if env.Stream() != 0 || env.Type != wire.TypeNodeHello {
		err = fmt.Errorf("cluster: expected node_hello on stream 0, got %s on stream %d", env.Type, env.Stream())
	} else {
		err = wire.Decode(env, &nh)
	}
	// The node reads the ack first: a client the registry routes here
	// can open a stream only once the ack is written.
	l.openMu.Lock()
	var replaced *nodeEntry
	if err == nil {
		replaced, err = r.reg.enroll(nh, l)
	}
	if err != nil {
		_ = l.co.Send(mustEncode(wire.Link, wire.TypeError, env.Seq, wire.Error{Message: err.Error()}), true, nil)
		l.openMu.Unlock()
		return
	}
	_ = l.co.Send(mustEncode(wire.Link, wire.TypeAck, env.Seq, wire.Ack{Ref: nh.NodeID}), true, nil)
	l.openMu.Unlock()
	if replaced != nil {
		replaced.link.shed()
	}
	r.met.nodes.Set(float64(r.reg.nodeCount()))
	r.log.Infof("node %s enrolled from %s: region %s, role %s", nh.NodeID, nc.RemoteAddr(), nh.Region, nh.NodeRole)

	pingDone := make(chan struct{})
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.ping(l, nh.NodeID, pingDone)
	}()
	l.readLoop()
	close(pingDone)
	promotions := r.reg.drop(l)
	r.met.nodes.Set(float64(r.reg.nodeCount()))
	r.log.Infof("node %s (region %s, role %s) lost", nh.NodeID, nh.Region, nh.NodeRole)
	for _, p := range promotions {
		r.promote(p)
	}
}

// ping health-checks one node's link until it dies. A failed or
// timed-out ping closes the link, which ends its reader and triggers the
// same drop/promote path as an EOF.
func (r *Router) ping(l *link, nodeID string, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-r.done:
			return
		case <-time.After(r.cfg.PingInterval):
		}
		if _, err := l.ctrl.call(wire.TypeNodePing, struct{}{}, r.cfg.PingTimeout); err != nil {
			select {
			case <-stop:
				return
			default:
			}
			r.met.pingFailures.Inc()
			r.log.Errorf("node %s failed health check: %v", nodeID, err)
			l.close()
			return
		}
	}
}

// promote tells a standby to take its region over. The standby closes
// its replication stores, boots a server on the replicated state, and
// enrolls again as the region's primary — promotion here is only the
// signal; the new enrollment is what restores routing.
func (r *Router) promote(p promotion) {
	r.met.promotions.Inc()
	r.log.Infof("region %s: promoting standby %s", p.region, p.standby.id)
	if _, err := p.standby.link.ctrl.call(wire.TypePromote, wire.Promote{Region: p.region}, r.cfg.CallTimeout); err != nil {
		r.log.Errorf("promote %s: %v", p.standby.id, err)
	}
}

// hangUp closes a client connection once what is queued for it has been
// written, on a goroutine of its own: the caller may be a link's reader,
// which must not wait on one client.
func (r *Router) hangUp(client *sconn) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = client.co.Close()
		_ = client.nc.Close()
	}()
}

// mustEncode wraps codec.Encode for payloads the router itself built —
// an encode failure on our own structs is a programming error, but the
// relay must not panic, so it degrades to an empty envelope the sender
// drops.
func mustEncode(c wire.Codec, t wire.MsgType, seq uint64, payload interface{}) wire.Envelope {
	env, err := c.Encode(t, seq, payload)
	if err != nil {
		return wire.Envelope{Type: t, Seq: seq}
	}
	return env
}
