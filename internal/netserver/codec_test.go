package netserver

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/client"
	"senseaid/internal/geo"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// rpcDial opens a device RPCConn against the server.
func rpcDial(t *testing.T, addr string) *wire.RPCConn {
	t.Helper()
	c, err := wire.NewRPCConn(rawDial(t, addr), wire.RoleDevice, nil)
	if err != nil {
		t.Fatalf("NewRPCConn: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func registerOver(t *testing.T, c *wire.RPCConn, id string) {
	t.Helper()
	if _, err := c.Call(wire.TypeRegister, wire.Register{
		DeviceID:   id,
		Position:   geo.CSDepartment,
		BatteryPct: 80,
		Sensors:    []sensors.Type{sensors.Barometer},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
}

// TestNegotiationBinaryClientV2Server: a client's hello is acked with
// version 2 and its calls complete in the binary framing.
func TestNegotiationBinaryClientV2Server(t *testing.T) {
	s := startServer(t)
	// The ack arriving proves the full register round-trip survived the
	// binary codec in both directions.
	registerOver(t, rpcDial(t, s.Addr()), "neg-bin")
}

// v1Server is a hand-written server of the retired v1 protocol: it acks
// every hello without a version, as a server that speaks only JSON did.
func v1Server(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = nc.Close() }()
				env, err := wire.ReadFrame(nc)
				if err != nil {
					return
				}
				ack, _ := wire.Encode(wire.TypeAck, env.Seq, wire.Ack{})
				_ = wire.WriteFrame(nc, ack)
				_, _ = io.Copy(io.Discard, nc)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestNegotiationBinaryClientV1Server: a device, a CAS and a worker's
// enrollment that dial a v1-only server fail the dial with an error
// naming the version they speak; none falls back to JSON.
func TestNegotiationBinaryClientV1Server(t *testing.T) {
	addr := v1Server(t)
	refused := func(who string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "protocol version 2") {
			t.Fatalf("%s against a v1 server: error %v, want one naming protocol version 2", who, err)
		}
	}
	c, err := client.Dial(client.Config{Addr: addr, DeviceID: "v1-dev"})
	if err == nil {
		_ = c.Close()
	}
	refused("client.Dial", err)
	app, err := cas.Dial(addr)
	if err == nil {
		_ = app.Close()
	}
	refused("cas.Dial", err)
	s := startLinkServer(t, Config{})
	refused("Enroll", s.Enroll(addr, "node-1"))
}

// TestNegotiationJSONClientV2Server: a device or CAS hello asking for
// the retired v1 protocol, or for no version at all, is answered with a
// readable error naming version 2, and the connection is closed.
func TestNegotiationJSONClientV2Server(t *testing.T) {
	s := startServer(t)
	for _, role := range []wire.Role{wire.RoleDevice, wire.RoleCAS} {
		for _, version := range []int{1, 0} {
			refusedHello(t, s.Addr(), role, version)
		}
	}
}

// refusedHello sends one hello in role at version to addr and requires
// an error frame naming version 2, then the connection's close.
func refusedHello(t *testing.T, addr string, role wire.Role, version int) {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	hello, err := wire.Encode(wire.TypeHello, 1, wire.Hello{Role: role, Version: version})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc, hello); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatalf("%s hello at version %d: no answer: %v", role, version, err)
	}
	var e wire.Error
	if resp.Type != wire.TypeError || wire.Decode(resp, &e) != nil || !strings.Contains(e.Message, "version 2") {
		t.Fatalf("%s hello at version %d answered %s %q, want an error naming version 2", role, version, resp.Type, e.Message)
	}
	if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("%s hello at version %d: connection still open after the refusal (read: %v)", role, version, err)
	}
}

// TestRetiredCodecNamesRefused: the codec names still accepted for old
// callers are binary's; a JSON one fails the dial, naming binary.
func TestRetiredCodecNamesRefused(t *testing.T) {
	s := startServer(t)
	if _, err := client.Dial(client.Config{Addr: s.Addr(), DeviceID: "d", Codec: "json"}); err == nil || !strings.Contains(err.Error(), "binary") {
		t.Fatalf("client.Dial with codec json: %v, want an error naming binary", err)
	}
	if _, err := cas.DialCodec(s.Addr(), "json"); err == nil || !strings.Contains(err.Error(), "binary") {
		t.Fatalf("cas.DialCodec json: %v, want an error naming binary", err)
	}
	for _, name := range []string{"", "binary", "v2"} {
		app, err := cas.DialCodec(s.Addr(), name)
		if err != nil {
			t.Fatalf("cas.DialCodec %q: %v", name, err)
		}
		_ = app.Close()
	}
}

// TestEndToEndBinaryCoalesced runs the full campaign — register,
// submit, schedule, upload, deliver — so the server's pushes ride
// binary coalesced flushes.
func TestEndToEndBinaryCoalesced(t *testing.T) {
	s := startServer(t)
	autoDevice(t, s.Addr(), "bin-device")

	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	defer func() { _ = app.Close() }()

	var mu sync.Mutex
	var got []wire.SensedData
	if err := app.ReceiveSensedData(func(sd wire.SensedData) {
		mu.Lock()
		got = append(got, sd)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("ReceiveSensedData: %v", err)
	}

	taskID, err := app.Task(barometerSpec(1))
	if err != nil {
		t.Fatalf("Task: %v", err)
	}

	waitFor(t, 5*time.Second, "sensed data over binary codec", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 2
	})

	mu.Lock()
	defer mu.Unlock()
	for _, sd := range got {
		if sd.TaskID != taskID || sd.DeviceID != "bin-device" {
			t.Fatalf("delivery mismatch: %+v", sd)
		}
		if sd.Reading.Sensor != sensors.Barometer || sd.Reading.Value != 1013.25 {
			t.Fatalf("reading corrupted crossing the binary wire: %+v", sd.Reading)
		}
	}
}
