package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/client"
	"senseaid/internal/core"
	"senseaid/internal/faultconn"
	"senseaid/internal/geo"
	"senseaid/internal/netserver"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// startRouterWrapped is startRouter with a connection wrapper on every
// accepted connection and every dialed link.
func startRouterWrapped(t *testing.T, wrap func(net.Conn) net.Conn) *Router {
	t.Helper()
	r, err := listen(Config{Addr: "127.0.0.1:0", WriteTimeout: 2 * time.Second}, wrap)
	if err != nil {
		t.Fatalf("cluster.listen: %v", err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// startWorkerCfg boots and enrolls a worker with extra settings.
func startWorkerCfg(t *testing.T, r *Router, cfg netserver.Config, nodeID string) *netserver.Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.TickPeriod == 0 {
		cfg.TickPeriod = 20 * time.Millisecond
	}
	s, err := netserver.Listen(cfg)
	if err != nil {
		t.Fatalf("netserver.Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	trunk, err := s.Enroll(r.Addr(), nodeID, "")
	if err != nil {
		t.Fatalf("Enroll(%s): %v", nodeID, err)
	}
	t.Cleanup(func() { _ = trunk.Close() })
	return s
}

// binaryDevice dials a binary-codec device through the router and
// registers it; uploads are the test's to send.
func binaryDevice(t *testing.T, addr, id string, pos geo.Point) *client.Client {
	t.Helper()
	c, err := client.Dial(client.Config{
		Addr: addr, DeviceID: id, Position: pos, BatteryPct: 90,
		Sensors: []sensors.Type{sensors.Barometer}, Codec: "binary",
	})
	if err != nil {
		t.Fatalf("client.Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Register(); err != nil {
		t.Fatalf("Register(%s): %v", id, err)
	}
	return c
}

// metric reads one series off a registry's exposition.
func metric(t *testing.T, s *netserver.Server, name, labels string) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := s.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	prefix := name + labels + " "
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			var v float64
			if _, err := fmt.Sscan(strings.TrimPrefix(line, prefix), &v); err == nil {
				return v
			}
		}
	}
	return 0
}

// wireTap records, in one global order, every write the router makes to
// its clients and every read it makes off its links.
type wireTap struct {
	workers map[string]bool // listen addresses: a conn to one is a link

	mu     sync.Mutex
	events []tapEvent
}

type tapEvent struct {
	conn *tapConn
	data []byte
}

type tapConn struct {
	net.Conn
	tap  *wireTap
	link bool
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.link {
		c.tap.record(c, b[:n])
	}
	return n, err
}

func (c *tapConn) Write(b []byte) (int, error) {
	if !c.link {
		c.tap.record(c, b)
	}
	return c.Conn.Write(b)
}

func (tp *wireTap) record(c *tapConn, b []byte) {
	tp.mu.Lock()
	tp.events = append(tp.events, tapEvent{conn: c, data: append([]byte(nil), b...)})
	tp.mu.Unlock()
}

func (tp *wireTap) wrap(nc net.Conn) net.Conn {
	tp.mu.Lock()
	link := tp.workers[nc.RemoteAddr().String()]
	tp.mu.Unlock()
	return &tapConn{Conn: nc, tap: tp, link: link}
}

// tapFrame is one frame as the tap saw it: its place in the recorded
// order, and the read or write that carried it.
type tapFrame struct {
	pos, event int
	conn       *tapConn
	env        wire.Envelope
}

// frames parses what the tap recorded: link reads as the link hello's
// v1 ack then link frames, client writes as binary frames (the hello
// acks the router writes before any client frame are v1).
func (tp *wireTap) frames(t *testing.T) []tapFrame {
	t.Helper()
	tp.mu.Lock()
	defer tp.mu.Unlock()
	streams := map[*tapConn]*bytes.Buffer{}
	started := map[*tapConn]bool{}
	var out []tapFrame
	for i, ev := range tp.events {
		buf := streams[ev.conn]
		if buf == nil {
			buf = &bytes.Buffer{}
			streams[ev.conn] = buf
		}
		buf.Write(ev.data)
		for buf.Len() > 0 {
			codec := wire.Binary
			if ev.conn.link {
				codec = wire.Link
			}
			if !started[ev.conn] {
				codec = wire.JSON
			}
			rd := bytes.NewReader(buf.Bytes())
			env, err := codec.ReadFrame(rd)
			if err != nil {
				break // the rest of this frame comes with a later event
			}
			buf.Next(buf.Len() - rd.Len())
			if !started[ev.conn] {
				started[ev.conn] = true
				continue
			}
			out = append(out, tapFrame{pos: len(out), event: i, conn: ev.conn, env: env})
		}
	}
	return out
}

// TestLinkOrdersReadingAndAck pins both halves of the delivery/ack order
// on a routed upload (DESIGN.md §13). The worker defers the reading like
// any push, so the upload's ack flushes it: on the link the reading
// comes first, in the same write. The router reads both in one pass and
// writes the ack to the device before the reading to the CAS.
//
// Everything runs on one processor, as a deployed worker does on its
// edge core: with more, an idle processor may run the reading's flusher
// before the handler sends the ack, splitting the write (which the
// deferral contract allows).
func TestLinkOrdersReadingAndAck(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	tp := &wireTap{workers: map[string]bool{}}
	r := startRouterWrapped(t, tp.wrap)
	w := startWorker(t, r, westRegion, "west-1", "")
	tp.mu.Lock()
	tp.workers[w.Addr()] = true
	tp.mu.Unlock()

	app, err := cas.DialCodec(r.Addr(), "binary")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = app.Close() })
	if err := app.ReceiveSensedData(func(wire.SensedData) {}); err != nil {
		t.Fatal(err)
	}
	dev := binaryDevice(t, r.Addr(), "ordered-1", westCenter)
	uploads := make(chan error, 16)
	if err := dev.StartSensing(func(sch wire.Schedule) {
		go func() {
			uploads <- dev.SendSenseData(sch.RequestID, sensors.Reading{
				Sensor: sch.Sensor, Value: 1013.25, Unit: "hPa", At: time.Now(), Where: westCenter,
			})
		}()
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Task(regionSpec(westCenter, 1, time.Hour)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case err := <-uploads:
			if err != nil {
				t.Fatalf("upload %d: %v", i+1, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("upload %d never acked", i+1)
		}
	}
	time.Sleep(100 * time.Millisecond) // the last reading reaches the CAS

	frames := tp.frames(t)
	var casConn, devConn *tapConn
	var casStream, devStream uint64
	for _, f := range frames {
		switch {
		case f.env.Type == wire.TypeSensedData && f.conn.link:
			casStream = f.env.Stream()
		case f.env.Type == wire.TypeSchedule && f.conn.link:
			devStream = f.env.Stream()
		case f.env.Type == wire.TypeSensedData:
			casConn = f.conn
		case f.env.Type == wire.TypeSchedule:
			devConn = f.conn
		}
	}
	if casConn == nil || devConn == nil || casStream == 0 || devStream == 0 {
		t.Fatal("the tap saw no routed upload")
	}
	// The device's upload acks are its acks after the register's, one per
	// upload; readings pair with them in order.
	var linkReadings, linkAcks, clientReadings, clientAcks []tapFrame
	devAcks := 0
	for _, f := range frames {
		switch {
		case f.conn.link && f.env.Stream() == casStream && f.env.Type == wire.TypeSensedData:
			linkReadings = append(linkReadings, f)
		case f.conn.link && f.env.Stream() == devStream && f.env.Type == wire.TypeAck:
			if devAcks++; devAcks > 1 {
				linkAcks = append(linkAcks, f)
			}
		case f.conn == casConn && f.env.Type == wire.TypeSensedData:
			clientReadings = append(clientReadings, f)
		case f.conn == devConn && f.env.Type == wire.TypeAck && f.env.Seq > 1:
			clientAcks = append(clientAcks, f)
		}
	}
	if len(linkReadings) < 3 || len(linkAcks) < 3 || len(clientReadings) < 3 || len(clientAcks) < 3 {
		t.Fatalf("tap saw %d/%d readings and %d/%d acks on link/clients, want 3 of each",
			len(linkReadings), len(clientReadings), len(linkAcks), len(clientAcks))
	}
	for k := 0; k < 3; k++ {
		if linkReadings[k].pos > linkAcks[k].pos {
			t.Fatalf("upload %d: the worker wrote its ack before its reading", k+1)
		}
		if linkReadings[k].event != linkAcks[k].event {
			t.Fatalf("upload %d: the reading and its ack reached the router in separate reads", k+1)
		}
		if clientAcks[k].pos > clientReadings[k].pos {
			t.Fatalf("upload %d: the router wrote the reading to the CAS before the ack to the device", k+1)
		}
	}
}

// TestLinkIdleStreamClosedAndCounted: a routed device has no socket on
// the worker to put a deadline on, so the worker times its stream out:
// with a 200 ms idle timeout an idle device is cut off — the worker
// closes its stream, the router closes its connection, and the worker
// counts the disconnect — while a chatty device on the same link is
// not. The worker's 100 ms write timeout also pins that a link outlives
// the deadline its hello was written under.
func TestLinkIdleStreamClosedAndCounted(t *testing.T) {
	r := startRouter(t)
	w := startWorkerCfg(t, r, netserver.Config{
		Regions:      []core.Region{westRegion},
		IdleTimeout:  200 * time.Millisecond,
		WriteTimeout: 100 * time.Millisecond,
	}, "west-1")

	idle := binaryDevice(t, r.Addr(), "idle-1", westCenter)
	chatty := binaryDevice(t, r.Addr(), "chatty-1", westCenter)
	start := time.Now()
	for time.Since(start) < 700*time.Millisecond {
		if err := chatty.ReportState(westCenter, 80, time.Now()); err != nil {
			t.Fatalf("chatty device cut off after %v: %v", time.Since(start), err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	select {
	case <-idle.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("the idle routed device was never disconnected")
	}
	select {
	case <-chatty.Done():
		t.Fatal("the chatty device was disconnected too")
	default:
	}
	if n := metric(t, w, "senseaid_net_idle_disconnects_total", ""); n != 1 {
		t.Fatalf("senseaid_net_idle_disconnects_total = %v, want 1", n)
	}
}

// TestLinkStalledClientDoesNotStallOthers: a device that stops reading
// (every router write to it stalls) must not hold up the link's reader
// for the other devices on the same link: their report round trips stay
// far below the router's write timeout.
func TestLinkStalledClientDoesNotStallOthers(t *testing.T) {
	const bound = 500 * time.Millisecond // the router's write timeout is 2 s
	var mu sync.Mutex
	var routerAddr string // set once the router listens; a dialed link never matches it
	accepted := 0
	stallAt := -1
	r := startRouterWrapped(t, func(nc net.Conn) net.Conn {
		mu.Lock()
		defer mu.Unlock()
		if nc.LocalAddr().String() != routerAddr {
			return nc
		}
		accepted++
		if accepted-1 == stallAt {
			// Its hello ack (two writes) and its register ack go through;
			// every later write stalls until the write deadline.
			return faultconn.Wrap(nc, faultconn.Policy{StallAfterWrites: 4})
		}
		return nc
	})
	mu.Lock()
	routerAddr = r.Addr()
	mu.Unlock()
	startWorker(t, r, westRegion, "west-1", "")
	mu.Lock()
	stallAt = accepted // the next accepted connection is the stalled device
	mu.Unlock()
	stalled := binaryDevice(t, r.Addr(), "stalled-1", westCenter)
	var others []*client.Client
	for i := 0; i < 4; i++ {
		others = append(others, binaryDevice(t, r.Addr(), fmt.Sprintf("busy-%d", i), westCenter))
	}

	// The stalled device keeps asking; every answer to it stalls.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			go func() { _ = stalled.ReportState(westCenter, 70, time.Now()) }()
			time.Sleep(10 * time.Millisecond)
		}
	}()
	var rtts []time.Duration
	start := time.Now()
	for time.Since(start) < 1500*time.Millisecond {
		for _, c := range others {
			t0 := time.Now()
			if err := c.ReportState(westCenter, 80, time.Now()); err != nil {
				t.Fatalf("report from a healthy device: %v", err)
			}
			rtts = append(rtts, time.Since(t0))
		}
	}
	close(stop)
	wg.Wait()
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	p99 := rtts[len(rtts)*99/100]
	if p99 > bound {
		t.Fatalf("healthy devices' report p99 %v with one stalled device on the link, want under %v", p99, bound)
	}
	t.Logf("%d healthy round trips, p99 %v", len(rtts), p99)
	select {
	case <-stalled.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the stalled device was never cut off")
	}
}

// TestLinkGarbageClosesLinkAndClients: a link frame the router cannot
// parse is a fault of the whole link: the router closes it, and with it
// every client session it carried.
func TestLinkGarbageClosesLinkAndClients(t *testing.T) {
	r := startRouter(t)
	// A fake worker: it enrolls over a real trunk, accepts the link,
	// answers the first register, then writes garbage.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	trunk, err := netserver.DialTrunk(netserver.TrunkConfig{
		RouterAddr: r.Addr(),
		Hello: wire.NodeHello{
			NodeID: "fake-1", Region: westRegion.Name, NodeRole: wire.NodeRolePrimary,
			Lat: westCenter.Lat, Lon: westCenter.Lon, RadiusM: westRegion.Area.RadiusM,
			Addr: ln.Addr().String(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = trunk.Close() })
	registered := make(chan struct{}, 8)
	sendGarbage := make(chan struct{})
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		if _, err := wire.ReadFrame(br); err != nil { // the link hello
			return
		}
		ack, _ := wire.Encode(wire.TypeAck, 1, wire.Ack{Version: wire.ProtocolVersionBinary})
		if err := wire.WriteFrame(nc, ack); err != nil {
			return
		}
		go func() {
			<-sendGarbage
			_, _ = nc.Write([]byte{0x05, 0x00, 0xFF, 0xFF, 0xFF})
		}()
		for {
			env, err := wire.Link.ReadFrame(br)
			if err != nil {
				return
			}
			if env.Type == wire.TypeRegister {
				reply, _ := wire.Binary.Encode(wire.TypeAck, env.Seq, wire.Ack{})
				b, _ := wire.Link.AppendFrame(nil, reply.OnStream(env.Stream()))
				if _, err := nc.Write(b); err != nil {
					return
				}
				registered <- struct{}{}
			}
		}
	}()

	var devs []*client.Client
	for i := 0; i < 3; i++ {
		devs = append(devs, binaryDevice(t, r.Addr(), fmt.Sprintf("victim-%d", i), westCenter))
		<-registered
	}
	close(sendGarbage)
	for i, d := range devs {
		select {
		case <-d.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("client %d survived its link's protocol fault", i)
		}
	}
	waitFor(t, 5*time.Second, "device sessions to drain", func() bool {
		return r.met.sessDevice.Value() == 0
	})
}

// TestOneLinkPerWorkerNoLeaks: 64 devices and one CAS through the router,
// some re-homed across the two workers, then all disconnected. Each
// worker accepted exactly one router connection (not one per session),
// its device and CAS session gauges return to zero, and so does the
// router's goroutine count to its baseline.
func TestOneLinkPerWorkerNoLeaks(t *testing.T) {
	r := startRouter(t)
	west := startWorker(t, r, westRegion, "west-1", "")
	east := startWorker(t, r, eastRegion, "east-1", "")

	// Warm one session through each worker, so the baseline counts the
	// links (which outlive their sessions) and nothing else.
	for _, pos := range []geo.Point{westCenter, eastCenter} {
		c := binaryDevice(t, r.Addr(), "warm", pos)
		_ = c.Close()
	}
	gauge := func(s *netserver.Server, role string) float64 {
		return metric(t, s, "senseaid_net_connections", `{role="`+role+`"}`)
	}
	settled := func() bool {
		return r.met.sessDevice.Value() == 0 && r.met.sessCAS.Value() == 0 &&
			gauge(west, "device") == 0 && gauge(east, "device") == 0 &&
			gauge(west, "cas") == 0 && gauge(east, "cas") == 0
	}
	waitFor(t, 5*time.Second, "warm-up sessions to close", settled)
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	app, err := cas.DialCodec(r.Addr(), "binary")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Task(regionSpec(westCenter, 1, time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Task(regionSpec(eastCenter, 1, time.Second)); err != nil {
		t.Fatal(err)
	}
	var devs []*client.Client
	for i := 0; i < 64; i++ {
		pos := westCenter
		if i%2 == 1 {
			pos = eastCenter
		}
		devs = append(devs, binaryDevice(t, r.Addr(), fmt.Sprintf("fleet-%d", i), pos))
	}
	if gauge(west, "device")+gauge(east, "device") != 64 {
		t.Fatalf("worker device sessions %v + %v, want 64", gauge(west, "device"), gauge(east, "device"))
	}
	for i := 0; i < 8; i++ {
		if err := devs[2*i].ReportState(eastCenter, 80, time.Now()); err != nil {
			t.Fatalf("re-homing report: %v", err)
		}
	}
	waitFor(t, 5*time.Second, "re-homes", func() bool { return r.met.rehomes.Value() >= 8 })

	for _, s := range []*netserver.Server{west, east} {
		if n := metric(t, s, "senseaid_net_connections_total", `{role="router"}`); n != 1 {
			t.Fatalf("a worker accepted %v router connections, want exactly 1", n)
		}
	}
	_ = app.Close()
	for _, d := range devs {
		_ = d.Close()
	}
	waitFor(t, 5*time.Second, "every session gauge back to zero", settled)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after the fleet left, %d before:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTrunkRedialKeepsLinkAndSessions: a worker whose trunk drops while
// it keeps running re-enrolls at the same address and takes its link
// over, so the sessions on it carry on — a trunk blip is not a worker
// death.
func TestTrunkRedialKeepsLinkAndSessions(t *testing.T) {
	r := startRouter(t)
	w := startWorker(t, r, westRegion, "west-1", "")
	dev := binaryDevice(t, r.Addr(), "steady-1", westCenter)

	old, err := r.reg.primaryForRegion(westRegion.Name)
	if err != nil {
		t.Fatal(err)
	}
	old.trunk.close()
	waitFor(t, 5*time.Second, "the worker to re-enroll", func() bool {
		n, err := r.reg.primaryForRegion(westRegion.Name)
		return err == nil && n != old
	})
	if err := dev.ReportState(westCenter, 80, time.Now()); err != nil {
		t.Fatalf("report after the trunk redial: %v", err)
	}
	select {
	case <-dev.Done():
		t.Fatal("the device was disconnected by a trunk redial")
	default:
	}
	// A session opened after the redial rides the same link.
	_ = binaryDevice(t, r.Addr(), "newcomer-1", westCenter)
	if n := metric(t, w, "senseaid_net_connections_total", `{role="router"}`); n != 1 {
		t.Fatalf("the worker accepted %v router links, want the one it had", n)
	}
}
