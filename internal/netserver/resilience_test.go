package netserver

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/client"
	"senseaid/internal/faultconn"
	"senseaid/internal/geo"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
	"senseaid/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStalledHandshakeDisconnected: a peer that connects and never says
// hello is cut loose within the handshake deadline instead of pinning a
// server goroutine forever (the acceptance criterion's stalled peer).
func TestStalledHandshakeDisconnected(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", HandshakeTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	nc := rawDial(t, s.Addr())
	start := time.Now()
	_ = nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("server sent data to a silent peer")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("silent peer held for %v, want < handshake deadline budget", took)
	}
	waitFor(t, time.Second, "handshake timeout metric", func() bool {
		return s.met.handshakeTimeouts.Value() == 1
	})
}

// TestDeviceIdleTimeoutDisconnects: a registered device that goes silent
// past the idle timeout is disconnected and counted.
func TestDeviceIdleTimeoutDisconnects(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", IdleTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	c, err := client.Dial(client.Config{
		Addr: s.Addr(), DeviceID: "sleeper",
		Position: geo.CSDepartment, BatteryPct: 80,
		Sensors: []sensors.Type{sensors.Barometer},
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Register(); err != nil {
		t.Fatalf("Register: %v", err)
	}

	select {
	case <-c.Done():
	case <-time.After(3 * time.Second):
		t.Fatal("silent device never disconnected")
	}
	if got := s.met.idleDisconnects.Value(); got != 1 {
		t.Fatalf("idle disconnects = %d, want 1", got)
	}
	waitFor(t, time.Second, "device conn reclaimed", func() bool {
		return s.Status().DeviceConns == 0
	})
}

// TestDuplicateRegisterRejected: a second register under a different ID
// on the same connection is refused, and the original identity keeps
// working — no stranded fan-out entry, no dangling core registration.
func TestDuplicateRegisterRejected(t *testing.T) {
	s := startServer(t)
	nc := rawSession(t, s.Addr(), wire.RoleDevice)

	exchange := func(seq uint64, typ wire.MsgType, payload interface{}) wire.Envelope {
		t.Helper()
		env, err := wire.Binary.Encode(typ, seq, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.Binary.WriteFrame(nc, env); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.Binary.ReadFrame(nc)
		if err != nil {
			t.Fatalf("no response to %s: %v", typ, err)
		}
		return resp
	}

	reg := wire.Register{DeviceID: "alpha", Position: geo.CSDepartment, BatteryPct: 70,
		Sensors: []sensors.Type{sensors.Barometer}}
	if resp := exchange(2, wire.TypeRegister, reg); resp.Type != wire.TypeAck {
		t.Fatalf("first register = %s, want ack", resp.Type)
	}
	reg.DeviceID = "beta"
	if resp := exchange(3, wire.TypeRegister, reg); resp.Type != wire.TypeError {
		t.Fatalf("re-register under new ID = %s, want error", resp.Type)
	}
	// Re-registering the SAME ID (what a reconnecting daemon does) stays
	// legal.
	reg.DeviceID = "alpha"
	if resp := exchange(4, wire.TypeRegister, reg); resp.Type != wire.TypeAck {
		t.Fatalf("same-ID re-register = %s, want ack", resp.Type)
	}
	// The original identity still works after the rejected attempt.
	sr := wire.StateReport{Position: geo.CSDepartment, BatteryPct: 69, LastComm: time.Now()}
	if resp := exchange(5, wire.TypeStateReport, sr); resp.Type != wire.TypeAck {
		t.Fatalf("state report after rejected re-register = %s, want ack", resp.Type)
	}
}

// TestPreRegisterMessagesRejected: state_report and send_sense_data from
// a connection that never registered are protocol errors, mirroring the
// existing update_preferences guard.
func TestPreRegisterMessagesRejected(t *testing.T) {
	s := startServer(t)
	nc := rawSession(t, s.Addr(), wire.RoleDevice)

	exchange := func(seq uint64, typ wire.MsgType, payload interface{}) wire.Envelope {
		t.Helper()
		env, err := wire.Binary.Encode(typ, seq, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.Binary.WriteFrame(nc, env); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.Binary.ReadFrame(nc)
		if err != nil {
			t.Fatalf("no response to %s: %v", typ, err)
		}
		return resp
	}

	sr := wire.StateReport{Position: geo.CSDepartment, BatteryPct: 50, LastComm: time.Now()}
	if resp := exchange(2, wire.TypeStateReport, sr); resp.Type != wire.TypeError {
		t.Fatalf("pre-register state_report = %s, want error", resp.Type)
	}
	sd := wire.SenseData{RequestID: "task-1#0", Reading: sensors.Reading{
		Sensor: sensors.Barometer, Value: 1000, Unit: "hPa", At: time.Now(), Where: geo.CSDepartment,
	}}
	if resp := exchange(3, wire.TypeSenseData, sd); resp.Type != wire.TypeError {
		t.Fatalf("pre-register send_sense_data = %s, want error", resp.Type)
	}
	// The connection survives the rejections and can still register.
	reg := wire.Register{DeviceID: "late", Position: geo.CSDepartment, BatteryPct: 50,
		Sensors: []sensors.Type{sensors.Barometer}}
	if resp := exchange(4, wire.TypeRegister, reg); resp.Type != wire.TypeAck {
		t.Fatalf("register after rejections = %s, want ack", resp.Type)
	}
}

// TestDispatchWriteFailureMarksDeviceUnresponsive injects a stall on the
// device connection so the schedule write hits the server's write
// deadline: the dispatch must fail fast, report the failure to the core,
// and close the wedged connection.
func TestDispatchWriteFailureMarksDeviceUnresponsive(t *testing.T) {
	var accepted atomic.Int64
	s, err := Listen(Config{
		Addr:         "127.0.0.1:0",
		TickPeriod:   20 * time.Millisecond,
		WriteTimeout: 150 * time.Millisecond,
		WrapConn: func(nc net.Conn) net.Conn {
			if accepted.Add(1) != 1 {
				return nc // only the device conn (first) is faulty
			}
			// Server writes to the device: hello ack (its v1 framing is
			// two writes: header+body) = 1-2, register ack
			// (one coalesced flush) = 3, schedule flush = write 4, which
			// stalls.
			return faultconn.Wrap(nc, faultconn.Policy{Seed: 1, StallAfterWrites: 4})
		},
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	c, err := client.Dial(client.Config{
		Addr: s.Addr(), DeviceID: "wedged",
		Position: geo.CSDepartment, BatteryPct: 90,
		Sensors: []sensors.Type{sensors.Barometer},
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Register(); err != nil {
		t.Fatalf("Register: %v", err)
	}

	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = app.Close() })
	spec := barometerSpec(1)
	spec.End = time.Now().Add(time.Hour)
	// The request's deadline must outlast the write deadline: the schedule
	// flush fails on the coalescer's flusher while the tick keeps running,
	// and a request that expired first would absorb the failure report.
	spec.SamplingPeriod = time.Second
	if _, err := app.Task(spec); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "dispatch failure recorded", func() bool {
		return s.Stats().DispatchesFailed >= 1
	})
	waitFor(t, 2*time.Second, "wedged device conn closed", func() bool {
		return s.Status().DeviceConns == 0
	})
}

// TestCASDeliveryFailureCleansTask: when the delivery write to a CAS
// fails, the server closes that connection, which tears down the CAS's
// tasks — so no further dispatches burn device energy and the reading is
// never delivered twice.
//
// The server runs on a virtual clock the test moves one sampling period
// at a time: each request's deadline is one period (150 ms) after it
// falls due, and on wall time a loaded host that took longer than that
// to carry the schedule to the device and its upload back marked the
// only device unresponsive, so no reading ever reached the fault.
func TestCASDeliveryFailureCleansTask(t *testing.T) {
	var accepted atomic.Int64
	var fault atomic.Pointer[deliveryFault]
	clock := simclock.NewFakeClock(time.Now())
	s, err := Listen(Config{
		Addr:         "127.0.0.1:0",
		TickPeriod:   20 * time.Millisecond,
		WriteTimeout: 150 * time.Millisecond,
		Clock:        clock,
		AggWindow:    -1, // the tick loop is then the clock's only sleeper
		WrapConn: func(nc net.Conn) net.Conn {
			if accepted.Add(1) != 2 {
				return nc // only the CAS conn (second) is faulty
			}
			// The first delivery framed after the task's ack fails,
			// whichever write the coalescer puts either in.
			f := &deliveryFault{Conn: nc}
			fault.Store(f)
			return f
		},
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	autoDevice(t, s.Addr(), "worker")

	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = app.Close() })
	spec := barometerSpec(1)
	spec.End = time.Now().Add(time.Hour)
	if _, err := app.Task(spec); err != nil {
		t.Fatal(err)
	}

	// period moves the clock on once the tick loop sleeps on it.
	period := func() {
		waitFor(t, 5*time.Second, "the tick loop to sleep on the clock", func() bool {
			return clock.Waiters() > 0
		})
		clock.Advance(spec.SamplingPeriod)
	}

	// The reading is accepted by the core, the delivery write fails, and
	// the orphaned task is deleted via the CAS disconnect path.
	period()
	waitFor(t, 5*time.Second, "reading ingested", func() bool {
		return s.Stats().RequestsSatisfied >= 1
	})
	waitFor(t, 3*time.Second, "task cleaned up after delivery failure", func() bool {
		return s.Status().LiveTasks == 0
	})
	if f := fault.Load(); f == nil || !f.fired() {
		t.Fatal("the task went away without its delivery failing")
	}
	// With the task gone, nothing keeps dispatching to the device.
	before := s.Stats().RequestsSatisfied
	for i := 0; i < 3; i++ {
		period()
	}
	time.Sleep(100 * time.Millisecond)
	if after := s.Stats().RequestsSatisfied; after != before {
		t.Fatalf("task still dispatching after delivery failure: %d -> %d", before, after)
	}
}

// deliveryFault is a CAS connection, seen from the server, whose first
// delivery (receive_sensed_data) framed after the task's ack fails to
// write: the bytes ahead of that frame go out, the ack among them even
// when it shares the write, and the rest of the write and every later
// one fail. It frames what the server writes: the hello ack in v1
// framing, then binary frames.
type deliveryFault struct {
	net.Conn
	mu     sync.Mutex
	out    []byte // written bytes not yet framed
	hello  bool   // the hello ack has been framed
	acks   int    // acks framed, the hello's included
	failed bool
}

var errDeliveryFault = errors.New("injected delivery write failure")

func (c *deliveryFault) fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

func (c *deliveryFault) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed {
		return 0, errDeliveryFault
	}
	c.out = append(c.out, b...)
	for {
		t, n := c.frame()
		if n == 0 {
			break // an incomplete frame waits for the next write
		}
		if t == wire.TypeSensedData && c.acks >= 2 {
			c.failed = true
			keep := max(0, len(b)-len(c.out)) // b's bytes ahead of this frame
			if _, err := c.Conn.Write(b[:keep]); err != nil {
				return 0, err
			}
			return keep, errDeliveryFault
		}
		if t == wire.TypeAck {
			c.acks++
		}
		c.out = c.out[n:]
	}
	return c.Conn.Write(b)
}

// frame returns the type and length of the first whole frame in c.out,
// or a zero length when it is not all there yet.
func (c *deliveryFault) frame() (wire.MsgType, int) {
	if !c.hello {
		if len(c.out) < 4 || len(c.out) < 4+int(binary.BigEndian.Uint32(c.out)) {
			return "", 0
		}
		c.hello = true
		return wire.TypeAck, 4 + int(binary.BigEndian.Uint32(c.out))
	}
	body, k := binary.Uvarint(c.out)
	if k <= 0 || len(c.out) < k+int(body) {
		return "", 0
	}
	for _, t := range []wire.MsgType{wire.TypeAck, wire.TypeSensedData} {
		env, _ := wire.Binary.Encode(t, 0, nil)
		if f, _ := wire.Binary.AppendFrame(nil, env); c.out[k] == f[1] {
			return t, k + int(body)
		}
	}
	return "", k + int(body)
}

// TestDaemonSurvivesServerRestart is the acceptance e2e: a daemon loses
// its server to a full restart (kill, relisten on the same port),
// re-registers within its backoff budget, and completes the next upload.
func TestDaemonSurvivesServerRestart(t *testing.T) {
	s1, err := Listen(Config{Addr: "127.0.0.1:0", TickPeriod: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := s1.Addr()

	d, err := client.StartDaemon(client.DaemonConfig{
		Client: client.Config{
			Addr: addr, DeviceID: "phoenix",
			Position: geo.CSDepartment, BatteryPct: 85,
			Sensors: []sensors.Type{sensors.Barometer},
		},
		Sampler: func(typ sensors.Type) (sensors.Reading, error) {
			return sensors.Reading{
				Sensor: typ, Value: 1013.25, Unit: "hPa",
				At: time.Now(), Where: geo.CSDepartment,
			}, nil
		},
		ReportPeriod: 40 * time.Millisecond,
		ReconnectMin: 50 * time.Millisecond,
		ReconnectMax: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartDaemon: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })

	waitFor(t, 2*time.Second, "daemon registered with first server", func() bool {
		return s1.Status().DeviceConns == 1
	})

	// Kill the server and bring a fresh one up on the exact same port.
	if err := s1.Close(); err != nil {
		t.Fatalf("close first server: %v", err)
	}
	var s2 *Server
	waitFor(t, 2*time.Second, "port reusable", func() bool {
		s2, err = Listen(Config{Addr: addr, TickPeriod: 20 * time.Millisecond})
		return err == nil
	})
	t.Cleanup(func() { _ = s2.Close() })

	// The daemon must find the replacement within its backoff budget.
	waitFor(t, 5*time.Second, "daemon re-registered after restart", func() bool {
		return s2.Status().DeviceConns == 1 && d.Reconnects() >= 1
	})

	// And the re-registered device completes the next upload end to end.
	app, err := cas.Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = app.Close() })
	spec := barometerSpec(1)
	spec.End = time.Now().Add(time.Hour)
	if _, err := app.Task(spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "upload completed after restart", func() bool {
		return s2.Stats().RequestsSatisfied >= 1
	})
}
