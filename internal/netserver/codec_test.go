package netserver

import (
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

// rpcDial opens an RPCConn against the server requesting a codec and
// returns it for inspection.
func rpcDial(t *testing.T, addr string, codec wire.Codec) *wire.RPCConn {
	t.Helper()
	nc := rawDial(t, addr)
	c, err := wire.NewRPCConnCfg(nc, wire.RoleDevice, nil, wire.ConnConfig{Codec: codec})
	if err != nil {
		t.Fatalf("NewRPCConnCfg: %v", err)
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
		t.Fatalf("register over %s codec: %v", c.Codec().Name(), err)
	}
}

// TestNegotiationBinaryClientV2Server: a v2 client against a default
// server lands on the binary codec and can complete calls over it.
func TestNegotiationBinaryClientV2Server(t *testing.T) {
	s := startServer(t)
	c := rpcDial(t, s.Addr(), wire.Binary)
	if got := c.Codec().Name(); got != "binary" {
		t.Fatalf("negotiated %q, want binary", got)
	}
	// The ack arriving proves the full register round-trip survived the
	// binary codec in both directions.
	registerOver(t, c, "neg-bin")
}

// TestNegotiationBinaryClientV1Server: against a server pinned to the
// v1 protocol, a binary-capable client transparently falls back to
// JSON — no flag day needed to deploy new clients first.
func TestNegotiationBinaryClientV1Server(t *testing.T) {
	s, err := Listen(Config{
		Addr:           "127.0.0.1:0",
		TickPeriod:     20 * time.Millisecond,
		MaxWireVersion: 1,
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	c := rpcDial(t, s.Addr(), wire.Binary)
	if got := c.Codec().Name(); got != "json" {
		t.Fatalf("negotiated %q against a v1 server, want json", got)
	}
	registerOver(t, c, "neg-fallback")
}

// TestNegotiationJSONClientV2Server: an old v1 client against a v2
// server keeps speaking JSON end to end — the ack it sees is
// byte-compatible with the v1 wire format.
func TestNegotiationJSONClientV2Server(t *testing.T) {
	s := startServer(t)
	c := rpcDial(t, s.Addr(), wire.JSON)
	if got := c.Codec().Name(); got != "json" {
		t.Fatalf("negotiated %q, want json", got)
	}
	registerOver(t, c, "neg-v1")
}

// binaryDevice is autoDevice speaking the binary codec.
func binaryDevice(t *testing.T, addr, id string) *client.Client {
	t.Helper()
	c, err := client.Dial(client.Config{
		Addr:       addr,
		DeviceID:   id,
		Position:   geo.CSDepartment,
		BatteryPct: 90,
		Sensors:    []sensors.Type{sensors.Barometer},
		Codec:      "binary",
	})
	if err != nil {
		t.Fatalf("client.Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Register(); err != nil {
		t.Fatalf("Register: %v", err)
	}
	err = c.StartSensing(func(sch wire.Schedule) {
		reading := sensors.Reading{
			Sensor: sch.Sensor,
			Value:  1013.25,
			Unit:   "hPa",
			At:     time.Now(),
			Where:  geo.CSDepartment,
		}
		go func() {
			if err := c.SendSenseData(sch.RequestID, reading); err != nil &&
				!strings.Contains(err.Error(), "closed") {
				t.Logf("SendSenseData: %v", err)
			}
		}()
	})
	if err != nil {
		t.Fatalf("StartSensing: %v", err)
	}
	return c
}

// TestEndToEndBinaryCoalesced runs the full campaign — register,
// submit, schedule, upload, deliver — with both peers on the binary
// codec, so the server's pushes ride binary coalesced flushes.
func TestEndToEndBinaryCoalesced(t *testing.T) {
	s, err := Listen(Config{
		Addr:       "127.0.0.1:0",
		TickPeriod: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	binaryDevice(t, s.Addr(), "bin-device")

	app, err := cas.DialCodec(s.Addr(), "binary")
	if err != nil {
		t.Fatalf("cas.DialCodec: %v", err)
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

// TestMixedCodecCampaign: a JSON device and a binary device serve the
// same task on one server; the CAS sees readings from both.
func TestMixedCodecCampaign(t *testing.T) {
	s := startServer(t)
	autoDevice(t, s.Addr(), "json-dev")
	binaryDevice(t, s.Addr(), "bin-dev")

	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	defer func() { _ = app.Close() }()

	seen := make(map[string]bool)
	var mu sync.Mutex
	if err := app.ReceiveSensedData(func(sd wire.SensedData) {
		mu.Lock()
		seen[sd.DeviceID] = true
		mu.Unlock()
	}); err != nil {
		t.Fatalf("ReceiveSensedData: %v", err)
	}

	if _, err := app.Task(barometerSpec(2)); err != nil {
		t.Fatalf("Task: %v", err)
	}
	waitFor(t, 5*time.Second, "readings from both codecs", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seen["json-dev"] && seen["bin-dev"]
	})
}
