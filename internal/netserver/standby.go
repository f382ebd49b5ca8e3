package netserver

// Standby: the warm half of a region's primary/standby pair (DESIGN.md
// §14). A standby does not run a scheduling core. It does two things:
//
//   1. Replicates: dials the primary as a NodeRoleReplica and writes
//      every shipped snapshot and journal record — the primary's exact
//      bytes — into its own state directory, so at any moment that
//      directory is something netserver.Listen can recover from.
//
//   2. Waits for promotion: enrolls with the router as NodeRoleStandby,
//      over a link that carries no sessions; when the router detects the
//      primary's death it sends a promote on the link's control stream,
//      the standby closes its replication stores, and Promoted() fires.
//      The caller (cmd/senseaidd) then boots a full Server on the
//      replicated state directory — the ordinary crash-recovery path —
//      and re-enrolls it as the region's new primary.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"senseaid/internal/core"
	"senseaid/internal/obs"
	"senseaid/internal/persist"
	"senseaid/internal/wire"
)

// StandbyConfig configures one region standby.
type StandbyConfig struct {
	// PrimaryAddr is the primary worker's listen address (the
	// replication source).
	PrimaryAddr string
	// RouterAddr is the router to enroll with for promotion; empty runs
	// replication only (a pure warm backup).
	RouterAddr string
	// NodeID names this node in the cluster.
	NodeID string
	// Region is the region this standby covers — it must match the
	// primary's, since its task-ID prefix is baked into the replicated
	// state.
	Region core.Region
	// StateDir receives the replicated snapshot+journal files.
	StateDir string
	// RedialInterval paces replication redials while the primary is
	// unreachable. Default 500ms.
	RedialInterval time.Duration
	// Logger receives lifecycle messages; nil discards.
	Logger *obs.Logger
}

// Standby is a running standby node.
type Standby struct {
	cfg StandbyConfig
	log *obs.Logger

	mu     sync.Mutex
	stores map[string]*persist.Store
	repl   *wire.RPCConn

	enrolled *enrollment // nil without a router address

	promoted  chan struct{}
	promoting sync.Once
	done      chan struct{}
	closing   sync.Once
	wg        sync.WaitGroup
}

// RunStandby starts replication (and, with a router address, enrollment
// for promotion). It returns immediately; replication retries in the
// background until the primary is reachable.
func RunStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.PrimaryAddr == "" {
		return nil, fmt.Errorf("netserver: standby needs the primary's address")
	}
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("netserver: standby needs a state directory")
	}
	if cfg.RedialInterval <= 0 {
		cfg.RedialInterval = 500 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NewLogger(nil, obs.LevelError)
	}
	sb := &Standby{
		cfg:      cfg,
		log:      cfg.Logger,
		stores:   make(map[string]*persist.Store),
		promoted: make(chan struct{}),
		done:     make(chan struct{}),
	}
	if cfg.RouterAddr != "" {
		e := &enrollment{
			routerAddr: cfg.RouterAddr,
			hello: wire.NodeHello{
				NodeID:   cfg.NodeID,
				Region:   cfg.Region.Name,
				NodeRole: wire.NodeRoleStandby,
				Lat:      cfg.Region.Area.Center.Lat,
				Lon:      cfg.Region.Area.Center.Lon,
				RadiusM:  cfg.Region.Area.RadiusM,
			},
			promote:      sb.promote,
			writeTimeout: wire.DefaultWriteTimeout,
			log:          cfg.Logger,
			done:         make(chan struct{}),
		}
		if err := e.start(); err != nil {
			return nil, err
		}
		sb.enrolled = e
	}
	sb.wg.Add(1)
	go sb.replicate()
	return sb, nil
}

// Promoted is closed when the router promotes this standby. After it
// fires the replication stores are synced and closed: the state
// directory is ready for netserver.Listen.
func (sb *Standby) Promoted() <-chan struct{} { return sb.promoted }

// Close stops replication and drops the router enrollment. Idempotent;
// also called implicitly by promotion.
func (sb *Standby) Close() error {
	sb.shutdownRepl()
	if sb.enrolled != nil {
		sb.enrolled.close()
	}
	sb.wg.Wait()
	return nil
}

// shutdownRepl stops the replication loop and releases the stores with
// a final sync, leaving the state directory consistent on disk.
func (sb *Standby) shutdownRepl() {
	sb.closing.Do(func() { close(sb.done) })
	sb.mu.Lock()
	repl := sb.repl
	sb.repl = nil
	stores := sb.stores
	sb.stores = make(map[string]*persist.Store)
	sb.mu.Unlock()
	if repl != nil {
		_ = repl.Close()
	}
	for name, st := range stores {
		if err := st.Sync(); err != nil {
			sb.log.Errorf("standby: sync %s: %v", name, err)
		}
		_ = st.Close()
	}
}

// promote serves the router's promote: it fences the replication
// stores and hands control to the caller through Promoted().
func (sb *Standby) promote(pr wire.Promote) error {
	if pr.Region != "" && pr.Region != sb.cfg.Region.Name {
		return fmt.Errorf("netserver: promote for region %q on a %q standby", pr.Region, sb.cfg.Region.Name)
	}
	sb.promoting.Do(func() {
		sb.log.Infof("standby %s promoted for region %s", sb.cfg.NodeID, sb.cfg.Region.Name)
		// Stop writing before signalling: Promoted's contract is that
		// the state directory is closed and consistent.
		sb.shutdownRepl()
		close(sb.promoted)
	})
	return nil
}

// replicate dials the primary and applies its shipped writes until the
// standby closes or is promoted, redialing through primary restarts. A
// reconnect is always safe: the primary ships a fresh snapshot of every
// store on attach, and recovery dedupes journal records by sequence.
func (sb *Standby) replicate() {
	defer sb.wg.Done()
	for {
		select {
		case <-sb.done:
			return
		default:
		}
		if err := sb.replicateOnce(); err != nil {
			sb.log.Debugf("standby: replication link: %v", err)
		}
		select {
		case <-sb.done:
			return
		case <-time.After(sb.cfg.RedialInterval):
		}
	}
}

// replicateOnce runs one replication session: dial, announce as a
// replica, then apply shipped frames until the link dies.
func (sb *Standby) replicateOnce() error {
	nc, err := net.DialTimeout("tcp", sb.cfg.PrimaryAddr, 5*time.Second)
	if err != nil {
		return err
	}
	// Parts of a snapshot shipped in pieces, per store, for this session
	// only: the read loop applies frames one at a time, in order.
	parts := make(map[string]*snapshotParts)
	rc, err := wire.NewRPCConn(nc, wire.RoleNode, func(env wire.Envelope) {
		if err := sb.applyShipped(env, parts); err != nil {
			sb.log.Errorf("standby: %v; dropping the replication link", err)
			_ = nc.Close()
		}
	})
	if err != nil {
		_ = nc.Close()
		return err
	}
	sb.mu.Lock()
	select {
	case <-sb.done:
		sb.mu.Unlock()
		_ = rc.Close()
		return nil
	default:
	}
	sb.repl = rc
	sb.mu.Unlock()
	if _, err := rc.Call(wire.TypeNodeHello, wire.NodeHello{
		NodeID:   sb.cfg.NodeID,
		Region:   sb.cfg.Region.Name,
		NodeRole: wire.NodeRoleReplica,
	}); err != nil {
		_ = rc.Close()
		return err
	}
	sb.log.Infof("standby %s replicating from %s", sb.cfg.NodeID, sb.cfg.PrimaryAddr)
	<-rc.Done()
	return fmt.Errorf("link to %s closed", sb.cfg.PrimaryAddr)
}

// snapshotParts is a snapshot being assembled from its shipped parts.
type snapshotParts struct {
	n   int // parts received
	buf []byte
}

// applyShipped writes one shipped frame into the matching store,
// byte-for-byte as the primary wrote it; a snapshot shipped in parts is
// committed once its last part is in. Only a gap in a snapshot's parts
// is an error: the session cannot recover the missing bytes, so the
// caller drops the link and the next attach ships a fresh snapshot.
func (sb *Standby) applyShipped(env wire.Envelope, parts map[string]*snapshotParts) error {
	switch env.Type {
	case wire.TypeSnapshotShip:
		var ship wire.SnapshotShip
		if err := wire.Decode(env, &ship); err != nil {
			sb.log.Errorf("standby: bad snapshot frame: %v", err)
			return nil
		}
		payload := []byte(ship.Payload)
		if ship.Part > 0 {
			sp := parts[ship.Store]
			if sp == nil {
				sp = new(snapshotParts)
				parts[ship.Store] = sp
			}
			if ship.Part != sp.n+1 {
				delete(parts, ship.Store)
				return fmt.Errorf("snapshot for %s: part %d after part %d", ship.Store, ship.Part, sp.n)
			}
			sp.n++
			sp.buf = append(sp.buf, ship.Chunk...)
			if !ship.Last {
				return nil
			}
			delete(parts, ship.Store)
			payload = sp.buf
		}
		st, err := sb.storeFor(ship.Store)
		if err != nil {
			sb.log.Errorf("standby: %v", err)
			return nil
		}
		if st == nil {
			return nil // shutting down
		}
		if _, err := st.CommitRaw(payload); err != nil {
			sb.log.Errorf("standby: commit %s: %v", ship.Store, err)
			return nil
		}
		sb.log.Debugf("standby: snapshot for %s (%d bytes)", ship.Store, len(payload))
	case wire.TypeJournalShip:
		var ship wire.JournalShip
		if err := wire.Decode(env, &ship); err != nil {
			sb.log.Errorf("standby: bad journal frame: %v", err)
			return nil
		}
		st, err := sb.storeFor(ship.Store)
		if err != nil {
			sb.log.Errorf("standby: %v", err)
			return nil
		}
		if st == nil {
			return nil
		}
		if err := st.AppendRaw(ship.Record); err != nil {
			// "No journal open" is expected for records racing ahead of the
			// first shipped snapshot; they are inside that snapshot anyway.
			sb.log.Debugf("standby: append %s: %v", ship.Store, err)
		}
	default:
		sb.log.Debugf("standby: ignoring %s from primary", env.Type)
	}
	return nil
}

// storeFor opens (once) the persist store a shipped frame names.
// Returns nil after shutdown, so late frames from a dying link cannot
// reopen files the promotion path just fenced.
func (sb *Standby) storeFor(name string) (*persist.Store, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	select {
	case <-sb.done:
		return nil, nil
	default:
	}
	if st, ok := sb.stores[name]; ok {
		return st, nil
	}
	st, err := persist.Open(sb.cfg.StateDir, name)
	if err != nil {
		return nil, err
	}
	sb.stores[name] = st
	return st, nil
}
