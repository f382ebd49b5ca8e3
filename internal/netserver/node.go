package netserver

// Node-to-node control plane (DESIGN.md §14). Two directions meet here:
//
//   - Inbound: a standby replica dials this server with wire.RoleNode
//     and a NodeHello naming NodeRoleReplica; serveNode attaches it to
//     the persister, which tees every snapshot and journal write to the
//     link (journal shipping).
//
//   - Outbound: a worker (or standby) dials the router and keeps a
//     trunk — one long-lived RPCConn over which it enrolls with a
//     NodeHello and then answers router-originated requests (ping,
//     export_device, import_device, promote) that arrive as push frames
//     carrying router-assigned sequence numbers.

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"senseaid/internal/core"
	"senseaid/internal/obs"
	"senseaid/internal/wire"
)

// serveNode handles one inbound node-to-node connection. The only node
// role served by a worker's listener is a replica attaching for journal
// shipping: worker and standby trunks run in the other direction (the
// node dials the router), so anything else here is a misdirected peer.
func (s *Server) serveNode(c *conn) {
	env, err := c.codec.ReadFrame(c.br)
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
		env, err := c.codec.ReadFrame(c.br)
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

// TrunkHandler serves one router-originated request pushed down a trunk.
// It returns the reply's type and payload; an error is sent to the
// router as a wire.Error under the request's sequence number.
type TrunkHandler func(env wire.Envelope) (wire.MsgType, interface{}, error)

// TrunkConfig configures a node's control-plane connection to a router.
type TrunkConfig struct {
	// RouterAddr is the router's TCP address.
	RouterAddr string
	// Hello is this node's enrollment announcement, re-sent after every
	// redial so the router's registry converges on the latest state.
	Hello wire.NodeHello
	// Handle serves router requests. TypeNodePing is answered internally;
	// everything else is passed through. Nil rejects every request.
	Handle TrunkHandler
	// RedialMin/RedialMax bound the reconnect backoff. Defaults 250ms/5s.
	RedialMin, RedialMax time.Duration
	// Logger receives trunk lifecycle messages; nil discards.
	Logger *obs.Logger
}

// NodeTrunk maintains a node's enrollment with the router: dial, enroll,
// serve requests, and redial with backoff for as long as the trunk is
// open. Losing the router degrades the node to standalone operation —
// it must never take the region down.
type NodeTrunk struct {
	cfg  TrunkConfig
	log  *obs.Logger
	done chan struct{}
	wg   sync.WaitGroup

	mu sync.Mutex
	rc *wire.RPCConn

	once sync.Once
}

// DialTrunk starts a trunk's maintain loop. The first enrollment is
// attempted synchronously so a misconfigured address fails fast; after
// that, redials happen in the background.
func DialTrunk(cfg TrunkConfig) (*NodeTrunk, error) {
	if cfg.RouterAddr == "" {
		return nil, fmt.Errorf("netserver: trunk needs a router address")
	}
	if cfg.RedialMin <= 0 {
		cfg.RedialMin = 250 * time.Millisecond
	}
	if cfg.RedialMax <= 0 {
		cfg.RedialMax = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NewLogger(nil, obs.LevelError)
	}
	t := &NodeTrunk{cfg: cfg, log: cfg.Logger, done: make(chan struct{})}
	rc, err := t.enroll()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.rc = rc
	t.mu.Unlock()
	t.wg.Add(1)
	go t.maintain(rc)
	return t, nil
}

// enroll dials the router, negotiates the binary codec, and announces
// this node with its NodeHello.
func (t *NodeTrunk) enroll() (*wire.RPCConn, error) {
	nc, err := net.DialTimeout("tcp", t.cfg.RouterAddr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("netserver: dial router %s: %w", t.cfg.RouterAddr, err)
	}
	rc, err := wire.NewRPCConnCfg(nc, wire.RoleNode, t.serve, wire.ConnConfig{Codec: wire.Binary})
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	if _, err := rc.Call(wire.TypeNodeHello, t.cfg.Hello); err != nil {
		_ = rc.Close()
		return nil, fmt.Errorf("netserver: enroll with router: %w", err)
	}
	t.log.Infof("node %s enrolled with router %s (region %s, role %s)",
		t.cfg.Hello.NodeID, t.cfg.RouterAddr, t.cfg.Hello.Region, t.cfg.Hello.NodeRole)
	return rc, nil
}

// serve answers one router request. Requests arrive as push frames (any
// type other than a seq-matched Ack/Error is a push to an RPCConn), so
// the reply echoes the router-assigned sequence number. Handlers run in
// their own goroutine: an export_device takes a core lock, and the read
// loop must keep draining while it does.
func (t *NodeTrunk) serve(env wire.Envelope) {
	t.mu.Lock()
	rc := t.rc
	t.mu.Unlock()
	if rc == nil {
		return
	}
	go func() {
		if env.Type == wire.TypeNodePing {
			_ = rc.Reply(wire.TypeAck, env.Seq, wire.Ack{})
			return
		}
		if t.cfg.Handle == nil {
			_ = rc.Reply(wire.TypeError, env.Seq, wire.Error{Message: "node: no handler"})
			return
		}
		typ, payload, err := t.cfg.Handle(env)
		if err != nil {
			_ = rc.Reply(wire.TypeError, env.Seq, wire.Error{Message: err.Error()})
			return
		}
		if typ == "" {
			typ, payload = wire.TypeAck, wire.Ack{}
		}
		_ = rc.Reply(typ, env.Seq, payload)
	}()
}

// maintain redials after every trunk death until Close.
func (t *NodeTrunk) maintain(rc *wire.RPCConn) {
	defer t.wg.Done()
	backoff := t.cfg.RedialMin
	for {
		select {
		case <-t.done:
			return
		case <-rc.Done():
		}
		for {
			select {
			case <-t.done:
				return
			case <-time.After(backoff):
			}
			next, err := t.enroll()
			if err != nil {
				t.log.Errorf("trunk redial: %v", err)
				backoff *= 2
				if backoff > t.cfg.RedialMax {
					backoff = t.cfg.RedialMax
				}
				continue
			}
			backoff = t.cfg.RedialMin
			t.mu.Lock()
			t.rc = next
			t.mu.Unlock()
			rc = next
			break
		}
	}
}

// Close stops the trunk and tears down its connection.
func (t *NodeTrunk) Close() error {
	t.once.Do(func() { close(t.done) })
	t.mu.Lock()
	rc := t.rc
	t.mu.Unlock()
	if rc != nil {
		_ = rc.Close()
	}
	t.wg.Wait()
	return nil
}

// Enroll connects this server to a router as a region worker. The
// server must be running exactly one region (Config.Regions of length
// one): the region's name is what prefixes its task IDs, which is the
// grammar the router routes by. advertise is the address the router
// dials its link to, which carries the region's client sessions — the
// server's own listen address when empty.
func (s *Server) Enroll(routerAddr, nodeID, advertise string) (*NodeTrunk, error) {
	if len(s.cfg.Regions) != 1 {
		return nil, fmt.Errorf("netserver: enrollment requires exactly one region, have %d", len(s.cfg.Regions))
	}
	if advertise == "" {
		advertise = s.Addr()
	}
	r := s.cfg.Regions[0]
	return DialTrunk(TrunkConfig{
		RouterAddr: routerAddr,
		Hello: wire.NodeHello{
			NodeID:   nodeID,
			Region:   r.Name,
			NodeRole: wire.NodeRolePrimary,
			Lat:      r.Area.Center.Lat,
			Lon:      r.Area.Center.Lon,
			RadiusM:  r.Area.RadiusM,
			Addr:     advertise,
		},
		Handle: s.handleNodeRequest,
		Logger: s.log,
	})
}

// handleNodeRequest serves the router's re-homing RPCs against this
// worker's core.
func (s *Server) handleNodeRequest(env wire.Envelope) (wire.MsgType, interface{}, error) {
	switch env.Type {
	case wire.TypeExportDevice:
		var ex wire.ExportDevice
		if err := wire.Decode(env, &ex); err != nil {
			return "", nil, err
		}
		rec, err := s.core.ExportDevice(ex.DeviceID)
		if err != nil {
			return "", nil, err
		}
		// The exported record leaves this node's transport map too: its
		// session is the router's to rebind, and a stale entry here would
		// eat a dispatch meant for nobody.
		s.connMu.Lock()
		delete(s.devices, ex.DeviceID)
		s.connMu.Unlock()
		raw, err := json.Marshal(rec)
		if err != nil {
			return "", nil, err
		}
		s.log.Infof("device %s exported (cross-node re-home)", ex.DeviceID)
		return wire.TypeExportDevice, wire.ExportDevice{DeviceID: ex.DeviceID, Device: raw}, nil

	case wire.TypeImportDevice:
		var im wire.ImportDevice
		if err := wire.Decode(env, &im); err != nil {
			return "", nil, err
		}
		var rec core.DeviceState
		if err := json.Unmarshal(im.Device, &rec); err != nil {
			return "", nil, fmt.Errorf("netserver: import_device: %w", err)
		}
		if err := s.core.RestoreDevice(rec); err != nil {
			return "", nil, err
		}
		s.log.Infof("device %s imported (cross-node re-home)", rec.ID)
		return wire.TypeAck, wire.Ack{Ref: rec.ID}, nil

	default:
		return "", nil, fmt.Errorf("netserver: unexpected %s on node trunk", env.Type)
	}
}
