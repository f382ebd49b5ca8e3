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

// sconn is one framed connection as a session sees it: reader, codec,
// and a coalescing writer.
type sconn struct {
	nc    net.Conn
	br    *bufio.Reader
	codec wire.Codec
	co    *wire.Coalescer
}

// newSconn wraps a connection once its codec is negotiated.
func (r *Router) newSconn(nc net.Conn, br *bufio.Reader, codec wire.Codec) *sconn {
	co := wire.NewCoalescer(nc, codec, wire.CoalescerConfig{WriteTimeout: r.cfg.WriteTimeout})
	return &sconn{nc: nc, br: br, codec: codec, co: co}
}

// send relays one envelope, transcoding its payload when the frame was
// read off a binary connection but this connection speaks v1 JSON (the
// json codec refuses binary payloads rather than corrupt the stream).
func (sc *sconn) send(env wire.Envelope, urgent bool) error {
	env, err := sc.fit(env)
	if err != nil {
		return err
	}
	return sc.co.Send(env, urgent, nil)
}

// queue buffers one envelope for the link reader's next relay to this
// connection (see link.readLoop), transcoding as send does.
func (sc *sconn) queue(env wire.Envelope) error {
	env, err := sc.fit(env)
	if err != nil {
		return err
	}
	return sc.co.Queue(env, nil)
}

// fit re-encodes a binary payload for a v1 connection.
func (sc *sconn) fit(env wire.Envelope) (wire.Envelope, error) {
	if env.BinaryPayload() && sc.codec.Version() == wire.ProtocolVersion {
		return transcode(env)
	}
	return env, nil
}

func (sc *sconn) sendErr(seq uint64, err error) {
	env, eerr := sc.codec.Encode(wire.TypeError, seq, wire.Error{Message: err.Error()})
	if eerr != nil {
		return
	}
	_ = sc.co.Send(env, true, nil)
}

// payloadProto maps each payload-carrying message type to a fresh
// instance of its payload struct, for decode/re-encode when a frame
// must cross a codec boundary. Deregister and node_ping carry no
// payload and are rebuilt empty.
var payloadProto = map[wire.MsgType]func() interface{}{
	wire.TypeAck:          func() interface{} { return &wire.Ack{} },
	wire.TypeError:        func() interface{} { return &wire.Error{} },
	wire.TypeRegister:     func() interface{} { return &wire.Register{} },
	wire.TypeUpdatePrefs:  func() interface{} { return &wire.UpdatePrefs{} },
	wire.TypeStateReport:  func() interface{} { return &wire.StateReport{} },
	wire.TypeSenseData:    func() interface{} { return &wire.SenseData{} },
	wire.TypeSchedule:     func() interface{} { return &wire.Schedule{} },
	wire.TypeSubmitTask:   func() interface{} { return &wire.TaskSpec{} },
	wire.TypeUpdateTask:   func() interface{} { return &wire.UpdateTask{} },
	wire.TypeDeleteTask:   func() interface{} { return &wire.DeleteTask{} },
	wire.TypeSensedData:   func() interface{} { return &wire.SensedData{} },
	wire.TypeAttachDevice: func() interface{} { return &wire.AttachDevice{} },
	wire.TypeSubscribeAgg: func() interface{} { return &wire.SubscribeAgg{} },
	wire.TypeAggPush:      func() interface{} { return &wire.AggPush{} },
}

// transcode rebuilds a binary-payload envelope as a JSON-payload one.
func transcode(env wire.Envelope) (wire.Envelope, error) {
	if len(env.Payload) == 0 {
		return wire.Encode(env.Type, env.Seq, nil)
	}
	proto, ok := payloadProto[env.Type]
	if !ok {
		return wire.Envelope{}, fmt.Errorf("cluster: cannot transcode %s for a v1 peer", env.Type)
	}
	v := proto()
	if err := wire.Decode(env, v); err != nil {
		return wire.Envelope{}, err
	}
	return wire.Encode(env.Type, env.Seq, v)
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
		env, err := client.codec.ReadFrame(client.br)
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
	st, err := ds.r.openStream(node, ds, ds.client, wire.RoleDevice)
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
	ds.r.log.Debugf("device %s routed to region %s (%s)", reg.DeviceID, region, node.addr)
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
// primary and swings the session over to a stream there. Ordering
// (DESIGN.md §14): export (which also unbinds the device on the old
// node) → import on the new node → swap the stream → attach_device to
// bind the new node's session. If the import fails the exported record
// is restored to the old node and the session stays put.
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
	oldNode, err := ds.r.reg.primaryForRegion(source)
	if err != nil {
		return err
	}
	newNode, err := ds.r.reg.primaryForRegion(target)
	if err != nil {
		return err
	}
	resp, err := oldNode.trunk.call(wire.TypeExportDevice, wire.ExportDevice{DeviceID: deviceID}, ds.r.cfg.CallTimeout)
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
	if _, err := newNode.trunk.call(wire.TypeImportDevice, wire.ImportDevice{Device: moved}, ds.r.cfg.CallTimeout); err != nil {
		// Put the record back where it came from; the device keeps
		// working in its old region.
		if _, rbErr := oldNode.trunk.call(wire.TypeImportDevice, wire.ImportDevice{Device: ex.Device}, ds.r.cfg.CallTimeout); rbErr != nil {
			ds.r.log.Errorf("re-home rollback for %s failed: %v", deviceID, rbErr)
		}
		return fmt.Errorf("import into %s: %w", target, err)
	}
	up, err := ds.r.openStream(newNode, ds, ds.client, wire.RoleDevice)
	if err != nil {
		// State has moved; the session cannot follow. Drop the client so
		// its daemon redials and registers against the new region.
		ds.r.hangUp(ds.client)
		return fmt.Errorf("open a stream in %s: %w", target, err)
	}
	// Swap before closing the old stream, so frames the client sends from
	// now on go to the new node (forward retries one that raced the swap).
	ds.mu.Lock()
	ds.up = up
	ds.region = target
	ds.mu.Unlock()
	oldUp.close()
	if _, err := up.call(wire.TypeAttachDevice, wire.AttachDevice{DeviceID: deviceID}, ds.r.cfg.CallTimeout); err != nil {
		ds.r.hangUp(ds.client)
		return fmt.Errorf("attach on %s: %w", target, err)
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
		env, err := client.codec.ReadFrame(client.br)
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
		i := strings.IndexByte(taskID, '/')
		if i <= 0 {
			return fmt.Errorf("cluster: task id %q carries no region prefix", taskID)
		}
		n, err := cs.r.reg.primaryForRegion(taskID[:i])
		if err != nil {
			return err
		}
		region, node = taskID[:i], n
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
		if i := strings.IndexByte(sa.Task, '/'); i > 0 {
			region = sa.Task[:i]
		}
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
	return cs.client.send(mustEncode(cs.client.codec, wire.TypeAck, env.Seq,
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
	// Opened outside the lock: the first stream to a worker dials its
	// link, and the link's reader takes this lock in streamLost.
	up, err := cs.r.openStream(node, cs, cs.client, wire.RoleCAS)
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
