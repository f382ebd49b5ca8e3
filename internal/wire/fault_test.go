package wire

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"senseaid/internal/faultconn"
)

// dialFault connects to addr through a fault-injection wrapper and
// performs the RPC handshake over it.
func dialFault(t *testing.T, addr string, p faultconn.Policy) (*RPCConn, *faultconn.Conn) {
	t.Helper()
	fc, err := faultconn.Dial(addr, p)
	if err != nil {
		t.Fatalf("faultconn dial: %v", err)
	}
	c, err := NewRPCConn(fc, RoleDevice, nil)
	if err != nil {
		_ = fc.Close()
		t.Fatalf("NewRPCConn over fault conn: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, fc
}

// TestCallWriteDeadlineUnwedgesStalledPeer is the satellite fix for
// RPCConn.Call: a peer that stops draining must surface as a timeout
// error, not pin the caller's goroutine forever.
func TestCallWriteDeadlineUnwedgesStalledPeer(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		// Ack the hello (done by fakeServer), then vanish from the
		// read side while keeping the socket open.
		time.Sleep(5 * time.Second)
	})
	// Writes 1-2 are the hello frame (header + body); write 3 — the
	// call — stalls.
	c, _ := dialFault(t, addr, faultconn.Policy{StallAfterWrites: 3})
	c.SetTimeouts(2*time.Second, 100*time.Millisecond)

	start := time.Now()
	_, err := c.Call(TypeStateReport, StateReport{BatteryPct: 10})
	if err == nil {
		t.Fatal("call over stalled connection succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled call took %v, write deadline ignored", elapsed)
	}
	// The write fault is terminal: the connection is torn down.
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("write fault did not tear the connection down")
	}
	if _, err := c.Call(TypeStateReport, StateReport{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after write fault = %v, want ErrClosed", err)
	}
}

// TestNotifyWriteDeadline mirrors the Call fix for the fire-and-forget
// path: the notify returns once buffered, and its stalled flush must
// tear the connection down within the write deadline.
func TestNotifyWriteDeadline(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		time.Sleep(5 * time.Second)
	})
	c, _ := dialFault(t, addr, faultconn.Policy{StallAfterWrites: 3})
	c.SetTimeouts(0, 100*time.Millisecond)

	start := time.Now()
	if err := c.Notify(TypeSenseData, SenseData{RequestID: "task-1#0"}); err != nil {
		t.Fatalf("notify on a healthy connection: %v", err)
	}
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("stalled notify never tore the connection down")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled notify took %v, write deadline ignored", elapsed)
	}
}

// TestHandshakeDeadlines: a server that accepts and never answers the
// hello must fail the dial within the call timeout.
func TestHandshakeReadDeadline(t *testing.T) {
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
		time.Sleep(5 * time.Second) // silent server
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	// Tighten the deadline through a fault wrapper's own clock: use a
	// raw conn but bound the test by the default call timeout.
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := NewRPCConn(nc, RoleDevice, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("handshake against silent server succeeded")
		}
		if elapsed := time.Since(start); elapsed > DefaultCallTimeout+5*time.Second {
			t.Fatalf("handshake failure took %v", elapsed)
		}
	case <-time.After(DefaultCallTimeout + 5*time.Second):
		t.Fatal("handshake against silent server never returned")
	}
}

// TestDoneSignalsOnPeerDisconnect: the Done channel is the reconnect
// trigger; it must fire when the server drops the connection.
func TestDoneSignalsOnPeerDisconnect(t *testing.T) {
	dropped := make(chan struct{})
	addr := fakeServer(t, func(nc net.Conn) {
		<-dropped
	})
	c := dialRPC(t, addr, nil)
	select {
	case <-c.Done():
		t.Fatal("Done fired while the connection was healthy")
	case <-time.After(50 * time.Millisecond):
	}
	close(dropped) // fakeServer's handler returns; the conn closes
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done never fired after server disconnect")
	}
}

// TestCallSurvivesInjectedDrop: a seeded mid-call connection drop must
// produce a clean error, never a hang or a panic.
func TestCallSurvivesInjectedDrop(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		addr := fakeServer(t, func(nc net.Conn) {
			for {
				env, err := ReadFrame(nc)
				if err != nil {
					return
				}
				resp, err := Encode(TypeAck, env.Seq, Ack{})
				if err != nil {
					return
				}
				if err := WriteFrame(nc, resp); err != nil {
					return
				}
			}
		})
		fc, err := faultconn.Dial(addr, faultconn.Policy{Seed: seed, DropProb: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewRPCConn(fc, RoleDevice, nil)
		if err != nil {
			// The drop hit the handshake itself: also a clean outcome.
			_ = fc.Close()
			continue
		}
		c.SetTimeouts(time.Second, time.Second)
		for i := 0; i < 50; i++ {
			if _, err := c.Call(TypeStateReport, StateReport{BatteryPct: float64(i)}); err != nil {
				if strings.Contains(err.Error(), "timeout") {
					t.Fatalf("seed %d call %d timed out instead of failing fast: %v", seed, i, err)
				}
				break
			}
		}
		_ = c.Close()
	}
}
