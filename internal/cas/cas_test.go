package cas

import (
	"net"
	"strings"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// scriptServer acks the hello, assigns task IDs, and can push sensed data.
type scriptServer struct {
	t     *testing.T
	ln    net.Listener
	conns chan net.Conn
	// rejectUpdates makes update/delete calls fail.
	rejectUpdates bool
}

func newScriptServer(t *testing.T, rejectUpdates bool) *scriptServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &scriptServer{t: t, ln: ln, conns: make(chan net.Conn, 1), rejectUpdates: rejectUpdates}
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
		taskN := 0
		for {
			env, err := wire.Binary.ReadFrame(nc)
			if err != nil {
				return
			}
			var resp wire.Envelope
			switch {
			case env.Type == wire.TypeSubmitTask:
				taskN++
				resp, err = wire.Binary.Encode(wire.TypeAck, env.Seq, wire.Ack{Ref: "task-" + string(rune('0'+taskN))})
			case s.rejectUpdates && (env.Type == wire.TypeUpdateTask || env.Type == wire.TypeDeleteTask):
				resp, err = wire.Binary.Encode(wire.TypeError, env.Seq, wire.Error{Message: "unknown task"})
			default:
				resp, err = wire.Binary.Encode(wire.TypeAck, env.Seq, wire.Ack{})
			}
			if err != nil || wire.Binary.WriteFrame(nc, resp) != nil {
				return
			}
		}
	}()
	return s
}

func (s *scriptServer) addr() string { return s.ln.Addr().String() }

func (s *scriptServer) push(sd wire.SensedData) {
	select {
	case nc := <-s.conns:
		s.conns <- nc
		env, err := wire.Binary.Encode(wire.TypeSensedData, 0, sd)
		if err != nil {
			s.t.Fatalf("encode: %v", err)
		}
		if err := wire.Binary.WriteFrame(nc, env); err != nil {
			s.t.Fatalf("push: %v", err)
		}
	case <-time.After(2 * time.Second):
		s.t.Fatal("CAS never connected")
	}
}

func spec() wire.TaskSpec {
	return wire.TaskSpec{
		Sensor:           sensors.Barometer,
		SamplingPeriod:   time.Minute,
		SamplingDuration: 10 * time.Minute,
		Center:           geo.CSDepartment,
		AreaRadiusM:      500,
		SpatialDensity:   2,
	}
}

func TestCASTaskLifecycle(t *testing.T) {
	srv := newScriptServer(t, false)
	app, err := Dial(srv.addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = app.Close() }()

	id, err := app.Task(spec())
	if err != nil {
		t.Fatalf("Task: %v", err)
	}
	if !strings.HasPrefix(id, "task-") {
		t.Fatalf("task id = %q", id)
	}
	if err := app.UpdateTaskParam(wire.UpdateTask{TaskID: id, SpatialDensity: 3}); err != nil {
		t.Fatalf("UpdateTaskParam: %v", err)
	}
	if err := app.UpdateTaskParam(wire.UpdateTask{}); err == nil {
		t.Fatal("empty task ID accepted")
	}
	if err := app.DeleteTask(id); err != nil {
		t.Fatalf("DeleteTask: %v", err)
	}
	if err := app.DeleteTask(""); err == nil {
		t.Fatal("empty delete accepted")
	}
}

func TestCASServerErrorsSurface(t *testing.T) {
	srv := newScriptServer(t, true)
	app, err := Dial(srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	if err := app.UpdateTaskParam(wire.UpdateTask{TaskID: "task-x"}); err == nil ||
		!strings.Contains(err.Error(), "unknown task") {
		t.Fatalf("server error not surfaced: %v", err)
	}
}

func TestCASDataBacklogReplay(t *testing.T) {
	srv := newScriptServer(t, false)
	app, err := Dial(srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()

	// Data arrives before the handler is installed.
	srv.push(wire.SensedData{TaskID: "task-1", DeviceID: "d1"})
	srv.push(wire.SensedData{TaskID: "task-1", DeviceID: "d2"})
	time.Sleep(100 * time.Millisecond)

	got := make(chan string, 4)
	if err := app.ReceiveSensedData(func(sd wire.SensedData) { got <- sd.DeviceID }); err != nil {
		t.Fatalf("ReceiveSensedData: %v", err)
	}
	if err := app.ReceiveSensedData(nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	for _, want := range []string{"d1", "d2"} {
		select {
		case dev := <-got:
			if dev != want {
				t.Fatalf("replayed %q, want %q", dev, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("backlog %q never replayed", want)
		}
	}
	// Live delivery.
	srv.push(wire.SensedData{TaskID: "task-1", DeviceID: "d3"})
	select {
	case dev := <-got:
		if dev != "d3" {
			t.Fatalf("live = %q", dev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("live data never delivered")
	}
}

func TestCASTaskWithoutIDFails(t *testing.T) {
	// A server that acks submissions without a Ref is broken; the
	// library must say so rather than return an empty ID.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		if _, err := wire.AcceptHello(nc, nc, time.Second, time.Second); err != nil {
			return
		}
		for {
			env, err := wire.Binary.ReadFrame(nc)
			if err != nil {
				return
			}
			ack, err := wire.Binary.Encode(wire.TypeAck, env.Seq, wire.Ack{})
			if err != nil || wire.Binary.WriteFrame(nc, ack) != nil {
				return
			}
		}
	}()
	app, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	if _, err := app.Task(spec()); err == nil {
		t.Fatal("task accepted without a server-assigned ID")
	}
}
