package netserver

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

func TestPseudonymizedDelivery(t *testing.T) {
	s, err := Listen(Config{
		Addr:            "127.0.0.1:0",
		TickPeriod:      20 * time.Millisecond,
		PseudonymSecret: []byte("deployment-secret"),
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	autoDevice(t, s.Addr(), "secret-device")
	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()

	var mu sync.Mutex
	var got []wire.SensedData
	if err := app.ReceiveSensedData(func(sd wire.SensedData) {
		mu.Lock()
		got = append(got, sd)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Task(barometerSpec(1)); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no readings delivered")
		}
		time.Sleep(20 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, sd := range got {
		if sd.DeviceID == "secret-device" {
			t.Fatal("device identity leaked to the CAS")
		}
		if !strings.HasPrefix(sd.DeviceID, "anon-") {
			t.Fatalf("device ID %q is not a pseudonym", sd.DeviceID)
		}
	}
}

func TestBadSecretRejected(t *testing.T) {
	if _, err := Listen(Config{Addr: "127.0.0.1:0", PseudonymSecret: []byte("short")}); err == nil {
		t.Fatal("short pseudonym secret accepted")
	}
}

// rawDial opens a raw TCP connection to the server.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return nc
}

// rawSession dials addr and opens it in role through the v1-framed
// hello; every frame after it is binary.
func rawSession(t *testing.T, addr string, role wire.Role) net.Conn {
	t.Helper()
	nc := rawDial(t, addr)
	if err := wire.DialHello(nc, nc, role, 2*time.Second); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return nc
}

func TestGarbageBytesDoNotCrashServer(t *testing.T) {
	s := startServer(t)
	nc := rawDial(t, s.Addr())
	if _, err := nc.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// A huge claimed frame length must be rejected, not allocated.
	nc2 := rawDial(t, s.Addr())
	if _, err := nc2.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// The server must still accept well-behaved peers.
	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatalf("server unusable after garbage: %v", err)
	}
	_ = app.Close()
}

func TestWrongFirstMessageRejected(t *testing.T) {
	s := startServer(t)
	nc := rawDial(t, s.Addr())
	env, err := wire.Encode(wire.TypeRegister, 1, wire.Register{DeviceID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc, env); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatalf("no response to protocol violation: %v", err)
	}
	if resp.Type != wire.TypeError {
		t.Fatalf("response = %s, want error", resp.Type)
	}
}

func TestWrongProtocolVersionRejected(t *testing.T) {
	s := startServer(t)
	nc := rawDial(t, s.Addr())
	env, err := wire.Encode(wire.TypeHello, 1, wire.Hello{Role: wire.RoleDevice, Version: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc, env); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.TypeError {
		t.Fatalf("response = %s, want error", resp.Type)
	}
	var e wire.Error
	if err := wire.Decode(resp, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Message, "version") {
		t.Fatalf("error %q does not mention version", e.Message)
	}
}

func TestUnknownRoleRejected(t *testing.T) {
	s := startServer(t)
	nc := rawDial(t, s.Addr())
	env, err := wire.Encode(wire.TypeHello, 1, wire.Hello{Role: "intruder", Version: wire.ProtocolVersion})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc, env); err != nil {
		t.Fatal(err)
	}
	// The unknown role is refused in place of the hello's ack.
	resp, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatalf("no refusal for unknown role: %v", err)
	}
	if resp.Type != wire.TypeError {
		t.Fatalf("response = %s, want error", resp.Type)
	}
}

func TestDeviceSendsCASMessageRejected(t *testing.T) {
	s := startServer(t)
	nc := rawSession(t, s.Addr(), wire.RoleDevice)
	// A device must not submit tasks.
	bad, err := wire.Binary.Encode(wire.TypeSubmitTask, 2, barometerSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Binary.WriteFrame(nc, bad); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.Binary.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.TypeError || resp.Seq != 2 {
		t.Fatalf("response = %+v, want error with seq 2", resp)
	}
}

func TestDeviceDisconnectMidTask(t *testing.T) {
	s := startServer(t)
	// A device that registers and immediately vanishes.
	nc := rawSession(t, s.Addr(), wire.RoleDevice)
	reg, err := wire.Binary.Encode(wire.TypeRegister, 2, wire.Register{
		DeviceID: "ghost", Position: barometerSpec(1).Center, BatteryPct: 90,
		Sensors: barometerSensors(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Binary.WriteFrame(nc, reg); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Binary.ReadFrame(nc); err != nil {
		t.Fatal(err)
	}
	_ = nc.Close() // vanish

	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()
	if _, err := app.Task(barometerSpec(1)); err != nil {
		t.Fatal(err)
	}
	// The server must keep running; the ghost's dispatches are dropped
	// and eventually marked missed.
	time.Sleep(400 * time.Millisecond)
	st := s.Stats()
	if st.RequestsSatisfied == 0 && st.RequestsWaitlisted == 0 && st.RequestsExpired == 0 {
		t.Fatalf("server made no progress after device vanished: %+v", st)
	}
}

// barometerSensors returns the minimal sensor list used by raw-protocol
// tests.
func barometerSensors() []sensors.Type { return []sensors.Type{sensors.Barometer} }

func TestCASDisconnectDeletesItsTasks(t *testing.T) {
	s := startServer(t)
	autoDevice(t, s.Addr(), "worker")

	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	spec := barometerSpec(1)
	spec.End = time.Now().Add(time.Hour)
	if _, err := app.Task(spec); err != nil {
		t.Fatal(err)
	}
	// Wait for the first dispatch to prove the task is live.
	deadline := time.Now().Add(3 * time.Second)
	for s.Stats().RequestsSatisfied == 0 {
		if time.Now().After(deadline) {
			t.Fatal("task never dispatched")
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = app.Close() // the CAS vanishes

	// The orphaned task must stop consuming devices: satisfied count
	// stops growing once the deletion lands.
	time.Sleep(200 * time.Millisecond)
	before := s.Stats().RequestsSatisfied
	time.Sleep(600 * time.Millisecond)
	after := s.Stats().RequestsSatisfied
	if after != before {
		t.Fatalf("orphaned task still dispatching: %d -> %d", before, after)
	}
}

// TestSoakManyDevicesManyTasks runs a dense minute: 12 devices, 6
// concurrent fast tasks, constant state reports — and checks the server's
// books still balance.
func TestSoakManyDevicesManyTasks(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	s := startServer(t)
	for i := 0; i < 12; i++ {
		autoDevice(t, s.Addr(), fmt.Sprintf("soak-%02d", i))
	}
	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = app.Close() }()

	var mu sync.Mutex
	received := 0
	if err := app.ReceiveSensedData(func(wire.SensedData) {
		mu.Lock()
		received++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		spec := barometerSpec(2 + i%3)
		spec.SamplingPeriod = 120 * time.Millisecond
		spec.End = time.Now().Add(1200 * time.Millisecond)
		if _, err := app.Task(spec); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}

	time.Sleep(2 * time.Second)
	st := s.Stats()
	mu.Lock()
	got := received
	mu.Unlock()
	t.Logf("soak: %+v, CAS received %d", st, got)

	if st.RequestsSatisfied == 0 {
		t.Fatal("no requests satisfied under load")
	}
	if got == 0 {
		t.Fatal("CAS received nothing under load")
	}
	if st.ReadingsAccepted < got {
		t.Fatalf("CAS received %d > server accepted %d", got, st.ReadingsAccepted)
	}
	if st.RequestsSatisfied+st.RequestsWaitlisted+st.RequestsExpired > st.RequestsGenerated {
		t.Fatalf("outcome counters exceed generated: %+v", st)
	}
}
