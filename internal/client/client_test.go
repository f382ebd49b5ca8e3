package client

import (
	"net"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// scriptServer is a minimal in-test Sense-Aid server: it acks the hello
// and every request, and can push schedules.
type scriptServer struct {
	t     *testing.T
	ln    net.Listener
	conns chan net.Conn
}

func newScriptServer(t *testing.T) *scriptServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &scriptServer{t: t, ln: ln, conns: make(chan net.Conn, 1)}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		if _, err := wire.AcceptHello(nc, nc, time.Second, time.Second); err != nil {
			_ = nc.Close()
			return
		}
		s.conns <- nc
		// Ack everything else.
		for {
			env, err := wire.Binary.ReadFrame(nc)
			if err != nil {
				return
			}
			resp, err := wire.Binary.Encode(wire.TypeAck, env.Seq, wire.Ack{Ref: string(env.Type)})
			if err != nil || wire.Binary.WriteFrame(nc, resp) != nil {
				return
			}
		}
	}()
	return s
}

func (s *scriptServer) addr() string { return s.ln.Addr().String() }

func (s *scriptServer) conn() net.Conn {
	select {
	case nc := <-s.conns:
		s.conns <- nc
		return nc
	case <-time.After(2 * time.Second):
		s.t.Fatal("client never connected")
		return nil
	}
}

func (s *scriptServer) push(sch wire.Schedule) {
	env, err := wire.Binary.Encode(wire.TypeSchedule, 0, sch)
	if err != nil {
		s.t.Fatalf("encode schedule: %v", err)
	}
	if err := wire.Binary.WriteFrame(s.conn(), env); err != nil {
		s.t.Fatalf("push schedule: %v", err)
	}
}

func dialTestClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(Config{
		Addr:       addr,
		DeviceID:   "test-device",
		Position:   geo.CSDepartment,
		BatteryPct: 70,
		Sensors:    []sensors.Type{sensors.Barometer},
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestClientFullAPISurface(t *testing.T) {
	srv := newScriptServer(t)
	c := dialTestClient(t, srv.addr())

	if err := c.Register(); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := c.UpdatePreferences(power.Budget{TotalJ: 300, CriticalBatteryPct: 25}); err != nil {
		t.Fatalf("UpdatePreferences: %v", err)
	}
	if err := c.UpdatePreferences(power.Budget{TotalJ: -1}); err == nil {
		t.Fatal("invalid budget accepted locally")
	}
	if err := c.ReportState(geo.CSDepartment, 65, time.Now()); err != nil {
		t.Fatalf("ReportState: %v", err)
	}
	if err := c.SendSenseData("task-1#0", sensors.Reading{Sensor: sensors.Barometer}); err != nil {
		t.Fatalf("SendSenseData: %v", err)
	}
	if err := c.SendSenseData("", sensors.Reading{}); err == nil {
		t.Fatal("empty request ID accepted")
	}
	if err := c.StartSensing(nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestClientScheduleBacklogReplay(t *testing.T) {
	srv := newScriptServer(t)
	c := dialTestClient(t, srv.addr())
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}

	// Schedules arrive before StartSensing: they must be held and
	// replayed in order.
	srv.push(wire.Schedule{RequestID: "task-1#0", Sensor: sensors.Barometer})
	srv.push(wire.Schedule{RequestID: "task-1#1", Sensor: sensors.Barometer})
	time.Sleep(100 * time.Millisecond) // let the read loop buffer them

	got := make(chan string, 4)
	if err := c.StartSensing(func(sch wire.Schedule) { got <- sch.RequestID }); err != nil {
		t.Fatalf("StartSensing: %v", err)
	}
	for _, want := range []string{"task-1#0", "task-1#1"} {
		select {
		case id := <-got:
			if id != want {
				t.Fatalf("replayed %q, want %q", id, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("backlog schedule %q never replayed", want)
		}
	}

	// Live delivery after installation.
	srv.push(wire.Schedule{RequestID: "task-1#2", Sensor: sensors.Barometer})
	select {
	case id := <-got:
		if id != "task-1#2" {
			t.Fatalf("live schedule = %q", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("live schedule never delivered")
	}
}

func TestClientDeregisterCloses(t *testing.T) {
	srv := newScriptServer(t)
	c := dialTestClient(t, srv.addr())
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	if err := c.Deregister(); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if err := c.SendSenseData("task-1#0", sensors.Reading{}); err == nil {
		t.Fatal("send succeeded after deregister")
	}
}

func TestClientDefaultBudget(t *testing.T) {
	srv := newScriptServer(t)
	c := dialTestClient(t, srv.addr())
	if c.cfg.Budget != power.DefaultBudget() {
		t.Fatalf("default budget not applied: %+v", c.cfg.Budget)
	}
}
