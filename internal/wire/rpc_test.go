package wire

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeServer accepts one connection, answers its hello, then runs
// handle, which speaks the binary framing.
func fakeServer(t *testing.T, handle func(nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = nc.Close() }()
		if _, err := AcceptHello(nc, nc, time.Second, time.Second); err != nil {
			return
		}
		if handle != nil {
			handle(nc)
		}
	}()
	return ln.Addr().String()
}

func dialRPC(t *testing.T, addr string, push func(Envelope)) *RPCConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c, err := NewRPCConn(nc, RoleDevice, push)
	if err != nil {
		_ = nc.Close()
		t.Fatalf("NewRPCConn: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestRPCCallAckRoundTrip(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		for {
			env, err := Binary.ReadFrame(nc)
			if err != nil {
				return
			}
			resp, err := Binary.Encode(TypeAck, env.Seq, Ack{Ref: "ok-" + string(env.Type)})
			if err != nil {
				return
			}
			if err := Binary.WriteFrame(nc, resp); err != nil {
				return
			}
		}
	})
	c := dialRPC(t, addr, nil)
	ack, err := c.Call(TypeStateReport, StateReport{BatteryPct: 50})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if ack.Ref != "ok-state_report" {
		t.Fatalf("ack ref = %q", ack.Ref)
	}
}

func TestRPCCallErrorResponse(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		env, err := Binary.ReadFrame(nc)
		if err != nil {
			return
		}
		resp, err := Binary.Encode(TypeError, env.Seq, Error{Message: "nope"})
		if err != nil {
			return
		}
		_ = Binary.WriteFrame(nc, resp)
	})
	c := dialRPC(t, addr, nil)
	_, err := c.Call(TypeRegister, Register{DeviceID: "x"})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("Call error = %v, want server message", err)
	}
}

func TestRPCPushDelivery(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		sch, err := Binary.Encode(TypeSchedule, 0, Schedule{RequestID: "task-1#0"})
		if err != nil {
			return
		}
		_ = Binary.WriteFrame(nc, sch)
		// Keep the connection open briefly.
		time.Sleep(200 * time.Millisecond)
	})
	got := make(chan Envelope, 1)
	dialRPC(t, addr, func(env Envelope) { got <- env })
	select {
	case env := <-got:
		if env.Type != TypeSchedule {
			t.Fatalf("push type = %s", env.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("push never delivered")
	}
}

func TestRPCCallAfterCloseFails(t *testing.T) {
	addr := fakeServer(t, nil)
	c := dialRPC(t, addr, nil)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := c.Call(TypeStateReport, StateReport{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call after close = %v, want ErrClosed", err)
	}
}

func TestRPCServerDisconnectUnblocksCalls(t *testing.T) {
	release := make(chan struct{})
	addr := fakeServer(t, func(nc net.Conn) {
		// Read the request, never answer, then drop the connection.
		_, _ = Binary.ReadFrame(nc)
		<-release
	})
	c := dialRPC(t, addr, nil)

	var wg sync.WaitGroup
	wg.Add(1)
	var callErr error
	go func() {
		defer wg.Done()
		_, callErr = c.Call(TypeStateReport, StateReport{})
	}()
	time.Sleep(100 * time.Millisecond)
	close(release) // server handler returns, closing the connection
	wg.Wait()
	if callErr == nil {
		t.Fatal("call succeeded despite dropped connection")
	}
}

func TestRPCHelloRejectedByServer(t *testing.T) {
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
		defer func() { _ = nc.Close() }()
		if _, err := ReadFrame(nc); err != nil {
			return
		}
		resp, err := Encode(TypeError, 0, Error{Message: "go away"})
		if err != nil {
			return
		}
		_ = WriteFrame(nc, resp)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	if _, err := NewRPCConn(nc, RoleDevice, nil); err == nil || !strings.Contains(err.Error(), "go away") {
		t.Fatalf("handshake error = %v, want rejection", err)
	}
}
