package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"senseaid/internal/core"
	"senseaid/internal/wire"
)

// internalSeqBase partitions a relayed connection's sequence space.
// Client frames use small client-assigned sequence numbers; requests
// the router itself injects into an upstream (attach_device after a
// re-home) use sequences at or above this base, so the relay loop can
// tell a reply to the client from a reply to the router without
// inspecting payloads.
const internalSeqBase = uint64(1) << 62

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
	if env.BinaryPayload() && sc.codec.Version() == wire.ProtocolVersion {
		re, err := transcode(env)
		if err != nil {
			return err
		}
		env = re
	}
	return sc.co.Send(env, urgent, nil)
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

// upstream is the router's connection to one worker on behalf of one
// client session. Client traffic relays through it verbatim; the
// router's own injected requests use the internal sequence space and
// rendezvous through pending.
type upstream struct {
	sc *sconn

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]chan wire.Envelope
	closed  bool
	dead    chan struct{}
}

// call sends one router-internal request on the upstream and waits for
// the worker's reply.
func (u *upstream) call(typ wire.MsgType, payload interface{}, timeout time.Duration) (wire.Envelope, error) {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return wire.Envelope{}, wire.ErrClosed
	}
	u.seq++
	seq := internalSeqBase + u.seq
	ch := make(chan wire.Envelope, 1)
	u.pending[seq] = ch
	u.mu.Unlock()
	defer func() {
		u.mu.Lock()
		delete(u.pending, seq)
		u.mu.Unlock()
	}()

	env, err := u.sc.codec.Encode(typ, seq, payload)
	if err != nil {
		return wire.Envelope{}, err
	}
	if err := u.sc.co.Send(env, true, nil); err != nil {
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
	case <-u.dead:
		return wire.Envelope{}, wire.ErrClosed
	case <-time.After(timeout):
		return wire.Envelope{}, fmt.Errorf("cluster: %s: timeout after %v", typ, timeout)
	}
}

// deliver hands an internal-sequence reply to its waiting call.
func (u *upstream) deliver(env wire.Envelope) {
	u.mu.Lock()
	ch, ok := u.pending[env.Seq]
	u.mu.Unlock()
	if ok {
		ch <- env
	}
}

// markDead fails present and future internal calls.
func (u *upstream) markDead() {
	u.mu.Lock()
	if !u.closed {
		u.closed = true
		close(u.dead)
	}
	u.mu.Unlock()
}

// close tears the upstream down: the connection, its coalescer, and
// any waiting internal calls.
func (u *upstream) close() {
	u.markDead()
	_ = u.sc.nc.Close()
	u.sc.co.Close()
}

// dialUpstream opens a session connection to a worker, negotiating the
// binary codec (the worker may grant v1; the sconn remembers what it
// got).
func (r *Router) dialUpstream(addr string, role wire.Role) (*upstream, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial worker %s: %w", addr, err)
	}
	fail := func(err error) (*upstream, error) {
		_ = nc.Close()
		return nil, err
	}
	_ = nc.SetDeadline(time.Now().Add(r.cfg.HandshakeTimeout))
	hello, err := wire.Encode(wire.TypeHello, 1, wire.Hello{Role: role, Version: wire.ProtocolVersionBinary})
	if err != nil {
		return fail(err)
	}
	if err := wire.WriteFrame(nc, hello); err != nil {
		return fail(err)
	}
	br := bufio.NewReaderSize(nc, 16<<10)
	env, err := wire.ReadFrame(br)
	if err != nil {
		return fail(err)
	}
	if env.Type == wire.TypeError {
		var e wire.Error
		_ = wire.Decode(env, &e)
		return fail(fmt.Errorf("cluster: worker %s refused hello: %s", addr, e.Message))
	}
	var ack wire.Ack
	if err := wire.Decode(env, &ack); err != nil {
		return fail(err)
	}
	version := ack.Version
	if version == 0 {
		version = wire.ProtocolVersion
	}
	codec, ok := wire.CodecForVersion(version)
	if !ok {
		return fail(fmt.Errorf("cluster: worker %s granted unknown version %d", addr, version))
	}
	_ = nc.SetDeadline(time.Time{})
	return &upstream{
		sc:      r.newSconn(nc, br, codec),
		pending: make(map[uint64]chan wire.Envelope),
		dead:    make(chan struct{}),
	}, nil
}

// deviceSession relays one device's connection to the worker owning
// its region, re-homing the device when its reported position crosses
// a region boundary.
type deviceSession struct {
	r      *Router
	client *sconn

	mu       sync.Mutex
	deviceID string
	region   string
	up       *upstream
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
// position and opens (or re-opens) its upstream. A re-register that
// lands in a different region abandons the old upstream without an
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
	old := ds.up
	sameRegion := ds.region == region
	ds.mu.Unlock()
	if old != nil && sameRegion {
		ds.mu.Lock()
		ds.deviceID = reg.DeviceID
		ds.mu.Unlock()
		return ds.forward(env)
	}
	if old != nil {
		ds.mu.Lock()
		ds.up = nil
		ds.mu.Unlock()
		old.close()
	}
	up, err := ds.r.dialUpstream(node.addr, wire.RoleDevice)
	if err != nil {
		return err
	}
	ds.mu.Lock()
	ds.deviceID = reg.DeviceID
	ds.region = region
	ds.up = up
	ds.mu.Unlock()
	ds.r.wg.Add(1)
	go func() {
		defer ds.r.wg.Done()
		ds.relayUpstream(up)
	}()
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

// forward relays one client frame to the device's upstream.
//
// The upstream read and the send are not atomic: a re-home (or a
// promotion-driven redial) may swap ds.up in between, leaving this send
// aimed at an upstream whose close() already poisoned its coalescer. A
// closed coalescer refuses the frame *without writing it* — so on a
// send error the frame has landed on no upstream, and if the session
// meanwhile points at a different live upstream, retrying there
// delivers it exactly once. Retrying on the *same* upstream would risk
// a duplicate (a flush error after partial progress still poisons the
// stream, but the peer may have read the frame), so the retry fires
// only when the upstream actually changed.
func (ds *deviceSession) forward(env wire.Envelope) error {
	ds.mu.Lock()
	up := ds.up
	ds.mu.Unlock()
	if up == nil {
		return fmt.Errorf("cluster: not registered (no upstream)")
	}
	err := up.sc.send(env, true)
	if err == nil {
		return nil
	}
	ds.mu.Lock()
	cur := ds.up
	ds.mu.Unlock()
	if cur != nil && cur != up {
		ds.r.met.swapRetries.Inc()
		ds.r.log.Debugf("forward for %s raced an upstream swap; retrying on the current upstream", ds.deviceID)
		return cur.sc.send(env, true)
	}
	return err
}

// relayUpstream pumps worker frames back to the device. Internal
// sequences rendezvous with waiting router calls; everything else goes
// to the client — urgently for replies, coalesced for schedule pushes
// (frames already read off the upstream before the loop blocks share
// one write).
// When the upstream dies while still current (a worker crash, not a
// re-home), the client connection is closed too: the device's daemon
// redials through the router and re-registers, which re-routes it to
// whatever node now owns the region.
func (ds *deviceSession) relayUpstream(up *upstream) {
	for {
		env, err := up.sc.codec.ReadFrame(up.sc.br)
		if err != nil {
			break
		}
		if env.Seq >= internalSeqBase {
			up.deliver(env)
			continue
		}
		if err := ds.client.send(env, env.Seq != 0); err != nil {
			ds.r.met.relayErrors.Inc()
			break
		}
	}
	up.markDead()
	ds.mu.Lock()
	current := ds.up == up
	ds.mu.Unlock()
	if current {
		_ = ds.client.nc.Close()
	}
}

// rehome moves the device's server-side state to the target region's
// primary and swings the session's upstream over to it. Ordering
// (DESIGN.md §14): export (which also unbinds the device on the old
// node) → import on the new node → swap the relay → attach_device to
// bind the new node's transport. If the import fails the exported
// record is restored to the old node and the session stays put.
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
	up, err := ds.r.dialUpstream(newNode.addr, wire.RoleDevice)
	if err != nil {
		// State has moved; the session cannot follow. Drop the client so
		// its daemon redials and registers against the new region.
		_ = ds.client.nc.Close()
		return fmt.Errorf("dial %s: %w", target, err)
	}
	// Swap before closing the old upstream so its relay's death does not
	// take the client connection down with it.
	ds.mu.Lock()
	ds.up = up
	ds.region = target
	ds.mu.Unlock()
	oldUp.close()
	ds.r.wg.Add(1)
	go func() {
		defer ds.r.wg.Done()
		ds.relayUpstream(up)
	}()
	if _, err := up.call(wire.TypeAttachDevice, wire.AttachDevice{DeviceID: deviceID}, ds.r.cfg.CallTimeout); err != nil {
		_ = ds.client.nc.Close()
		return fmt.Errorf("attach on %s: %w", target, err)
	}
	ds.r.met.rehomes.Inc()
	ds.r.log.Infof("device %s re-homed %s → %s", deviceID, source, target)
	return nil
}

// casSession relays one application server's connection, fanning its
// requests out to the regions its tasks live in. Submissions route by
// the task's area; updates and deletes route by the region prefix the
// task ID carries (the request-ID grammar doing double duty as the
// routing table).
type casSession struct {
	r      *Router
	client *sconn

	mu  sync.Mutex
	ups map[string]*upstream // by region
}

func (r *Router) serveCASSession(client *sconn) {
	cs := &casSession{r: r, client: client, ups: make(map[string]*upstream)}
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
	var region, addr string
	switch env.Type {
	case wire.TypeSubmitTask:
		var spec wire.TaskSpec
		if err := wire.Decode(env, &spec); err != nil {
			return err
		}
		node, reg, err := cs.r.reg.primaryForPoint(spec.Center)
		if err != nil {
			return err
		}
		region, addr = reg, node.addr
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
		node, err := cs.r.reg.primaryForRegion(taskID[:i])
		if err != nil {
			return err
		}
		region, addr = taskID[:i], node.addr
	case wire.TypeSubscribeAgg:
		var sa wire.SubscribeAgg
		if err := wire.Decode(env, &sa); err != nil {
			return err
		}
		return cs.routeSubscribeAgg(env, sa)
	default:
		return fmt.Errorf("cluster: unexpected %s from a cas", env.Type)
	}
	up, err := cs.upstreamFor(region, addr)
	if err != nil {
		return err
	}
	return up.sc.send(env, true)
}

// routeSubscribeAgg relays a window subscription. A scoped subscription
// (an explicit region, or a task id carrying its region prefix) goes to
// one region's primary like any other CAS request, and that worker's
// ack relays back verbatim. An unscoped subscription fans out to every
// enrolled region primary via router-internal calls; the single ack
// returned to the client joins the per-worker subscription ids
// ("agg-1,agg-2"), and each worker's agg_push frames then relay through
// the per-region upstreams exactly like sensed-data deliveries — the
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
		up, err := cs.upstreamFor(region, node.addr)
		if err != nil {
			return err
		}
		return up.sc.send(env, true)
	}
	prims := cs.r.reg.primaries()
	if len(prims) == 0 {
		return fmt.Errorf("cluster: no region primaries enrolled")
	}
	refs := make([]string, 0, len(prims))
	for _, pr := range prims {
		up, err := cs.upstreamFor(pr.region, pr.node.addr)
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

// upstreamFor lazily opens this session's relay to one region.
func (cs *casSession) upstreamFor(region, addr string) (*upstream, error) {
	cs.mu.Lock()
	if cs.ups == nil {
		cs.mu.Unlock()
		return nil, wire.ErrClosed
	}
	if up, ok := cs.ups[region]; ok {
		cs.mu.Unlock()
		return up, nil
	}
	cs.mu.Unlock()
	up, err := cs.r.dialUpstream(addr, wire.RoleCAS)
	if err != nil {
		return nil, err
	}
	cs.mu.Lock()
	if cs.ups == nil {
		cs.mu.Unlock()
		up.close()
		return nil, wire.ErrClosed
	}
	if prior, ok := cs.ups[region]; ok {
		cs.mu.Unlock()
		up.close()
		return prior, nil
	}
	cs.ups[region] = up
	cs.mu.Unlock()
	cs.r.wg.Add(1)
	go func() {
		defer cs.r.wg.Done()
		cs.relayUpstream(region, up)
	}()
	return up, nil
}

// relayUpstream pumps one region's frames (acks and sensed-data
// deliveries) back to the CAS. A dying upstream closes the whole
// client connection: the CAS daemon redials, resubmits idempotently by
// ClientTaskID, and the promoted node reclaims the tasks — partial
// connectivity would otherwise silently drop one region's deliveries.
func (cs *casSession) relayUpstream(region string, up *upstream) {
	for {
		env, err := up.sc.codec.ReadFrame(up.sc.br)
		if err != nil {
			break
		}
		if env.Seq >= internalSeqBase {
			up.deliver(env)
			continue
		}
		if err := cs.client.send(env, env.Seq != 0); err != nil {
			cs.r.met.relayErrors.Inc()
			break
		}
	}
	up.markDead()
	cs.mu.Lock()
	current := cs.ups != nil && cs.ups[region] == up
	if current {
		delete(cs.ups, region)
	}
	cs.mu.Unlock()
	if current {
		_ = cs.client.nc.Close()
	}
}
