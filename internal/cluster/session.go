package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"

	"senseaid/internal/core"
	"senseaid/internal/wire"
)

// sconn is one client connection as a session sees it: its reader and
// a coalescing writer, both in the binary framing.
type sconn struct {
	nc net.Conn
	br *bufio.Reader
	co *wire.Coalescer
}

// newSconn wraps a connection whose hello has been answered.
func (r *Router) newSconn(nc net.Conn, br *bufio.Reader) *sconn {
	co := wire.NewCoalescer(nc, wire.Binary, wire.CoalescerConfig{WriteTimeout: r.cfg.WriteTimeout})
	return &sconn{nc: nc, br: br, co: co}
}

// send relays one envelope.
func (sc *sconn) send(env wire.Envelope, urgent bool) error {
	return sc.co.Send(env, urgent, nil)
}

// queue buffers one envelope for the link reader's next relay to this
// connection (see link.readLoop).
func (sc *sconn) queue(env wire.Envelope) error {
	return sc.co.Queue(env, nil)
}

func (sc *sconn) sendErr(seq uint64, err error) {
	_ = sc.send(mustEncode(wire.TypeError, seq, wire.Error{Message: err.Error()}), true)
}

// deviceSession relays one device's connection to the worker owning
// its region, as a stream of that worker's link, re-homing the device
// when its reported position crosses a region boundary.
type deviceSession struct {
	r      *Router
	client *sconn

	mu       sync.Mutex
	deviceID string
	region   string
	up       *stream
}

func (r *Router) serveDeviceSession(client *sconn) {
	ds := &deviceSession{r: r, client: client}
	defer func() {
		ds.mu.Lock()
		up := ds.up
		ds.up = nil
		ds.mu.Unlock()
		if up != nil {
			up.close()
		}
	}()
	for {
		env, err := wire.Binary.ReadFrame(client.br)
		if err != nil {
			return
		}
		switch env.Type {
		case wire.TypeRegister:
			if err := ds.handleRegister(env); err != nil {
				r.met.noRoute.Inc()
				client.sendErr(env.Seq, err)
			}
		case wire.TypeStateReport:
			if err := ds.handleStateReport(env); err != nil {
				client.sendErr(env.Seq, err)
			}
		case wire.TypeExportDevice, wire.TypeImportDevice:
			client.sendErr(env.Seq, fmt.Errorf("cluster: %s is the router's own request", env.Type))
		default:
			if err := ds.forward(env); err != nil {
				client.sendErr(env.Seq, err)
			}
		}
	}
}

// handleRegister routes the device to the primary covering its
// position and opens (or re-opens) its stream there. A re-register that
// lands in a different region abandons the old stream without an
// export: register rebuilds the device's record from scratch on any
// node, exactly as it does on a single-node server.
func (ds *deviceSession) handleRegister(env wire.Envelope) error {
	var reg wire.Register
	if err := wire.Decode(env, &reg); err != nil {
		return err
	}
	node, region, err := ds.r.reg.primaryForPoint(reg.Position)
	if err != nil {
		return err
	}
	ds.mu.Lock()
	if ds.up != nil && ds.region == region {
		ds.deviceID = reg.DeviceID
		ds.mu.Unlock()
		return ds.forward(env)
	}
	ds.mu.Unlock()
	st, err := node.link.open(ds, ds.client, wire.RoleDevice)
	if err != nil {
		return err
	}
	ds.mu.Lock()
	old := ds.up
	ds.deviceID = reg.DeviceID
	ds.region = region
	ds.up = st
	ds.mu.Unlock()
	if old != nil {
		old.close()
	}
	ds.r.log.Debugf("device %s routed to region %s (%s)", reg.DeviceID, region, node.id)
	return ds.forward(env)
}

// handleStateReport watches the device's position and re-homes it when
// it crosses into another enrolled region; the report itself is then
// forwarded to whichever node owns the device.
func (ds *deviceSession) handleStateReport(env wire.Envelope) error {
	var sr wire.StateReport
	if err := wire.Decode(env, &sr); err != nil {
		return err
	}
	ds.mu.Lock()
	current := ds.region
	ds.mu.Unlock()
	if target, ok := ds.r.reg.regionForPoint(sr.Position); ok && current != "" && target != current {
		if err := ds.rehome(target, sr); err != nil {
			ds.r.met.rehomeErrors.Inc()
			ds.r.log.Errorf("re-home %s %s→%s: %v", ds.deviceID, current, target, err)
			// The device stays where it was; the report still lands there.
		}
	}
	return ds.forward(env)
}

// forward relays one client frame up the device's stream.
//
// The stream read and the send are not atomic: a re-home (or a
// re-register in another region) may swap ds.up in between, leaving
// this send aimed at a stream whose close() already ran. A closed
// stream refuses the frame *without writing it* — so on a send error
// the frame has landed on no stream, and if the session meanwhile
// points at a different live stream, retrying there delivers it exactly
// once. Retrying on the *same* stream would risk a duplicate (a flush
// error after partial progress poisons the link, but the worker may
// have read the frame), so the retry fires only when the stream
// actually changed.
func (ds *deviceSession) forward(env wire.Envelope) error {
	ds.mu.Lock()
	up := ds.up
	ds.mu.Unlock()
	if up == nil {
		return fmt.Errorf("cluster: not registered (no stream)")
	}
	err := up.send(env)
	if err == nil {
		return nil
	}
	ds.mu.Lock()
	cur := ds.up
	ds.mu.Unlock()
	if cur != nil && cur != up {
		ds.r.met.swapRetries.Inc()
		ds.r.log.Debugf("forward for %s raced a stream swap; retrying on the current stream", ds.deviceID)
		return cur.send(env)
	}
	return err
}

// streamLost runs when the worker ends the device's stream (idle
// timeout, deregister) or its link dies (a worker crash). A current
// stream takes the client connection with it: the device's daemon
// redials through the router and re-registers, which re-routes it to
// whatever node now owns the region. A stream the session already
// replaced is nothing to the client.
func (ds *deviceSession) streamLost(st *stream) {
	ds.mu.Lock()
	current := ds.up == st
	ds.mu.Unlock()
	if current {
		ds.r.hangUp(ds.client)
	}
}

// rehome moves the device's server-side state to the target region's
// primary and swings the session over to a stream there (DESIGN.md
// §14). The export rides the device's current stream, so the old node
// runs it after every frame the device sent before it, and it unbinds
// that stream. The import is the first request on a new stream at the
// target, and binds that one. Then the session swaps streams. If the
// import fails, the record is imported back on the old stream, which
// binds it again, and the session stays put.
//
// The triggering report is folded into the record between export and
// import, exactly as the in-process crossing does: the new node homes
// the record by its position, which must be the position that crossed
// the boundary, not the stale one the old node last stored.
func (ds *deviceSession) rehome(target string, sr wire.StateReport) error {
	ds.mu.Lock()
	deviceID := ds.deviceID
	source := ds.region
	oldUp := ds.up
	ds.mu.Unlock()
	if deviceID == "" || oldUp == nil {
		return fmt.Errorf("cluster: no registered device to re-home")
	}
	newNode, err := ds.r.reg.primaryForRegion(target)
	if err != nil {
		return err
	}
	timeout := ds.r.cfg.CallTimeout
	resp, err := oldUp.call(wire.TypeExportDevice, wire.ExportDevice{DeviceID: deviceID}, timeout)
	if err != nil {
		return fmt.Errorf("export from %s: %w", source, err)
	}
	var ex wire.ExportDevice
	if err := wire.Decode(resp, &ex); err != nil {
		return fmt.Errorf("export from %s: %w", source, err)
	}
	var rec core.DeviceState
	if err := json.Unmarshal(ex.Device, &rec); err != nil {
		return fmt.Errorf("export from %s: %w", source, err)
	}
	rec.Position = sr.Position
	rec.BatteryPct = sr.BatteryPct
	rec.LastComm = sr.LastComm
	moved, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	up, err := newNode.link.open(ds, ds.client, wire.RoleDevice)
	if err == nil {
		if _, err = up.call(wire.TypeImportDevice, wire.ImportDevice{Device: moved}, timeout); err != nil {
			up.close()
		}
	}
	if err != nil {
		// Put the record back where it came from; the device keeps
		// working in its old region.
		if _, rbErr := oldUp.call(wire.TypeImportDevice, wire.ImportDevice{Device: ex.Device}, timeout); rbErr != nil {
			ds.r.log.Errorf("re-home rollback for %s failed: %v", deviceID, rbErr)
		}
		return fmt.Errorf("import into %s: %w", target, err)
	}
	// Swap before closing the old stream, so frames the client sends from
	// now on go to the new node (forward retries one that raced the swap).
	ds.mu.Lock()
	ds.up = up
	ds.region = target
	ds.mu.Unlock()
	oldUp.close()
	select {
	case <-up.gone:
		// Lost before the swap, so streamLost took it for a stale stream.
		ds.r.hangUp(ds.client)
	default:
	}
	ds.r.met.rehomes.Inc()
	ds.r.log.Infof("device %s re-homed %s → %s", deviceID, source, target)
	return nil
}

// casSession relays one application server's connection, fanning its
// requests out to the regions its tasks live in, one stream per region.
// Submissions route by the task's area; updates and deletes route by the
// region prefix the task ID carries (the request-ID grammar doing double
// duty as the routing table).
type casSession struct {
	r      *Router
	client *sconn

	mu  sync.Mutex
	ups map[string]*stream // by region
}

func (r *Router) serveCASSession(client *sconn) {
	cs := &casSession{r: r, client: client, ups: make(map[string]*stream)}
	defer func() {
		cs.mu.Lock()
		ups := cs.ups
		cs.ups = nil
		cs.mu.Unlock()
		for _, up := range ups {
			up.close()
		}
	}()
	for {
		env, err := wire.Binary.ReadFrame(client.br)
		if err != nil {
			return
		}
		if err := cs.route(env); err != nil {
			r.met.noRoute.Inc()
			client.sendErr(env.Seq, err)
		}
	}
}

// route picks the region a CAS request belongs to and forwards it.
func (cs *casSession) route(env wire.Envelope) error {
	var (
		region string
		node   *nodeEntry
	)
	switch env.Type {
	case wire.TypeSubmitTask:
		var spec wire.TaskSpec
		if err := wire.Decode(env, &spec); err != nil {
			return err
		}
		n, reg, err := cs.r.reg.primaryForPoint(spec.Center)
		if err != nil {
			return err
		}
		region, node = reg, n
	case wire.TypeUpdateTask, wire.TypeDeleteTask:
		var taskID string
		if env.Type == wire.TypeUpdateTask {
			var ut wire.UpdateTask
			if err := wire.Decode(env, &ut); err != nil {
				return err
			}
			taskID = ut.TaskID
		} else {
			var dt wire.DeleteTask
			if err := wire.Decode(env, &dt); err != nil {
				return err
			}
			taskID = dt.TaskID
		}
		if region = core.TaskID(taskID).Region(); region == "" {
			return fmt.Errorf("cluster: task id %q carries no region prefix", taskID)
		}
		n, err := cs.r.reg.primaryForRegion(region)
		if err != nil {
			return err
		}
		node = n
	case wire.TypeSubscribeAgg:
		var sa wire.SubscribeAgg
		if err := wire.Decode(env, &sa); err != nil {
			return err
		}
		return cs.routeSubscribeAgg(env, sa)
	default:
		return fmt.Errorf("cluster: unexpected %s from a cas", env.Type)
	}
	up, err := cs.streamFor(region, node)
	if err != nil {
		return err
	}
	return up.send(env)
}

// routeSubscribeAgg relays a window subscription. A scoped subscription
// (an explicit region, or a task id carrying its region prefix) goes to
// one region's primary like any other CAS request, and that worker's
// ack relays back verbatim. An unscoped subscription fans out to every
// enrolled region primary via router-internal calls; the single ack
// returned to the client joins the per-worker subscription ids
// ("agg-1,agg-2"), and each worker's agg_push frames then relay through
// the per-region streams exactly like sensed-data deliveries — the
// client merges them by subscription id.
func (cs *casSession) routeSubscribeAgg(env wire.Envelope, sa wire.SubscribeAgg) error {
	region := sa.Region
	if region == "" {
		region = core.TaskID(sa.Task).Region()
	}
	if region != "" {
		node, err := cs.r.reg.primaryForRegion(region)
		if err != nil {
			return err
		}
		up, err := cs.streamFor(region, node)
		if err != nil {
			return err
		}
		return up.send(env)
	}
	prims := cs.r.reg.primaries()
	if len(prims) == 0 {
		return fmt.Errorf("cluster: no region primaries enrolled")
	}
	refs := make([]string, 0, len(prims))
	for _, pr := range prims {
		up, err := cs.streamFor(pr.region, pr.node)
		if err != nil {
			return err
		}
		resp, err := up.call(wire.TypeSubscribeAgg, sa, cs.r.cfg.CallTimeout)
		if err != nil {
			return fmt.Errorf("cluster: subscribe in %s: %w", pr.region, err)
		}
		var ack wire.Ack
		if err := wire.Decode(resp, &ack); err != nil {
			return err
		}
		refs = append(refs, ack.Ref)
	}
	return cs.client.send(mustEncode(wire.TypeAck, env.Seq,
		wire.Ack{Ref: strings.Join(refs, ",")}), true)
}

// streamFor returns this session's stream to one region, opening it
// on first use.
func (cs *casSession) streamFor(region string, node *nodeEntry) (*stream, error) {
	cs.mu.Lock()
	up, ok := cs.ups[region]
	closed := cs.ups == nil
	cs.mu.Unlock()
	if closed {
		return nil, wire.ErrClosed
	}
	if ok {
		return up, nil
	}
	// Opened outside the lock, which the link's reader takes in
	// streamLost.
	up, err := node.link.open(cs, cs.client, wire.RoleCAS)
	if err != nil {
		return nil, err
	}
	cs.mu.Lock()
	prior, raced := cs.ups[region]
	if cs.ups != nil && !raced {
		cs.ups[region] = up
	}
	closed = cs.ups == nil
	cs.mu.Unlock()
	switch {
	case closed:
		up.close()
		return nil, wire.ErrClosed
	case raced:
		up.close()
		return prior, nil
	}
	return up, nil
}

// streamLost closes the whole client connection when one region's
// stream dies: the CAS daemon redials, resubmits idempotently by
// ClientTaskID, and the promoted node reclaims the tasks — partial
// connectivity would otherwise silently drop one region's deliveries.
func (cs *casSession) streamLost(st *stream) {
	cs.mu.Lock()
	current := false
	for region, up := range cs.ups {
		if up == st {
			delete(cs.ups, region)
			current = true
		}
	}
	cs.mu.Unlock()
	if current {
		cs.r.hangUp(cs.client)
	}
}
