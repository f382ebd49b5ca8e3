package netserver

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/obs"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// openIdleDevice opens a device session the way a phone does — a v1
// hello granted the binary codec, then a registration — and leaves it
// idle. It reads with no buffer of its own, so the heap it adds is the
// server's session plus one client socket; the caller closes it.
func openIdleDevice(t *testing.T, addr, id string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	hello, err := wire.Encode(wire.TypeHello, 1, wire.Hello{Role: wire.RoleDevice, Version: wire.ProtocolVersionBinary})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc, hello); err != nil {
		t.Fatal(err)
	}
	if ack, err := wire.ReadFrame(nc); err != nil || ack.Type != wire.TypeAck {
		t.Fatalf("hello: %v %v", ack.Type, err)
	}
	reg, err := wire.Binary.Encode(wire.TypeRegister, 2, wire.Register{
		DeviceID:   id,
		Position:   geo.CSDepartment,
		BatteryPct: 80,
		Sensors:    []sensors.Type{sensors.Barometer},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Binary.WriteFrame(nc, reg); err != nil {
		t.Fatal(err)
	}
	if ack, err := wire.Binary.ReadFrame(nc); err != nil || ack.Type != wire.TypeAck {
		t.Fatalf("register %s: %v %v", id, ack.Type, err)
	}
	return nc
}

func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIdleSessionsHoldNoReadBuffer: a registered device that sends
// nothing costs the server's heap well under one 16 KiB read buffer.
// Session readers are sized to the control traffic (wire.SessionReadBuf),
// so 256 idle sessions must hold less than 4 KiB of heap each, both
// ends of the socket and the device's registration included.
func TestIdleSessionsHoldNoReadBuffer(t *testing.T) {
	const sessions = 256
	s := startServer(t)
	before := heapAfterGC()
	conns := make([]net.Conn, 0, sessions)
	t.Cleanup(func() {
		for _, nc := range conns {
			_ = nc.Close()
		}
	})
	for i := 0; i < sessions; i++ {
		conns = append(conns, openIdleDevice(t, s.Addr(), fmt.Sprintf("idle-%d", i)))
	}
	waitFor(t, 5*time.Second, "every session to be counted", func() bool {
		return s.Status().DeviceConns == sessions
	})
	after := heapAfterGC()
	perSession := (int64(after) - int64(before)) / sessions
	t.Logf("%d idle sessions: %d B of heap each", sessions, perSession)
	if perSession >= 4<<10 {
		t.Errorf("an idle device session holds %d B of heap, want < 4096", perSession)
	}
}

// syscalls reads the process-wide raw socket call counters.
func syscalls(op, result string) float64 {
	return metricValue(obs.Default(), "senseaid_wire_syscalls_total", obs.Labels{"op": op, "result": result})
}

// TestReadsPerDeviceFrame: a device session of state reports and
// uploads — paper-sized ones and one longer than the session reader —
// costs the server at most one successful read(2) per inbound frame,
// plus one more for the frame that does not fit the reader.
func TestReadsPerDeviceFrame(t *testing.T) {
	s := startServer(t)
	c := rpcDial(t, s.Addr(), wire.Binary)
	registerOver(t, c, "reads-1")

	// An upload's reading padded to the paper's ~600 B payload, and one
	// padded past the session reader.
	upload := func(i, pad int) wire.SenseData {
		return wire.SenseData{
			RequestID: fmt.Sprintf("task-1#%d", i),
			Reading: sensors.Reading{
				Sensor: sensors.Barometer,
				Value:  1013.25,
				Unit:   "hPa" + strings.Repeat(" ", pad),
				At:     time.Now(),
				Where:  geo.CSDepartment,
			},
		}
	}
	const rounds = 100
	frames, long := 0, 0
	okBefore, againBefore := syscalls("read", "ok"), syscalls("read", "eagain")
	for i := 0; i < rounds; i++ {
		if _, err := c.Call(wire.TypeStateReport, wire.StateReport{
			Position:   geo.CSDepartment,
			BatteryPct: 80,
			LastComm:   time.Now(),
		}); err != nil {
			t.Fatalf("state report: %v", err)
		}
		pad := 560
		if i == rounds/2 {
			pad = 2 * wire.SessionReadBuf
			long++
		}
		// No request is pending, so the server answers with an error;
		// it still reads the whole frame.
		_, _ = c.Call(wire.TypeSenseData, upload(i, pad))
		frames += 2
	}
	reads := syscalls("read", "ok") - okBefore
	again := syscalls("read", "eagain") - againBefore
	t.Logf("%d inbound frames: %.0f reads (%.3f per frame), %.0f EAGAIN", frames, reads, reads/float64(frames), again)
	if reads > float64(frames+long) {
		t.Errorf("%.0f successful read(2) calls for %d frames (%d longer than the reader), want at most %d",
			reads, frames, long, frames+long)
	}
	if reads < float64(frames) {
		t.Errorf("%.0f successful read(2) calls for %d frames: the server's reads are not counted", reads, frames)
	}
}

// TestLargeFrameRoundTrips: a frame far larger than the session reader
// — a CAS task whose client task ID nearly fills wire.MaxMessageBytes —
// is read whole on both codecs, and the session stays framed after it.
func TestLargeFrameRoundTrips(t *testing.T) {
	s := startServer(t)
	for _, codec := range []wire.Codec{wire.JSON, wire.Binary} {
		t.Run(codec.Name(), func(t *testing.T) {
			nc := rawDial(t, s.Addr())
			c, err := wire.NewRPCConnCfg(nc, wire.RoleCAS, nil, wire.ConnConfig{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			largeTaskRoundTrip(t, c, geo.CSDepartment)
		})
	}
}

// largeTaskRoundTrip submits a task whose client task ID nearly fills
// a frame, twice: the resubmit must reclaim the same task, which holds
// only if the server read both frames byte for byte. A small call after
// them proves the session stayed framed.
func largeTaskRoundTrip(t *testing.T, c *wire.RPCConn, center geo.Point) {
	t.Helper()
	now := time.Now()
	spec := wire.TaskSpec{
		ClientTaskID:   strings.Repeat("k", wire.MaxMessageBytes-4096),
		Sensor:         sensors.Barometer,
		SamplingPeriod: time.Second,
		Start:          now,
		End:            now.Add(time.Minute),
		Center:         center,
		AreaRadiusM:    500,
		SpatialDensity: 1,
	}
	first, err := c.Call(wire.TypeSubmitTask, spec)
	if err != nil {
		t.Fatalf("submit a %d-byte task: %v", len(spec.ClientTaskID), err)
	}
	again, err := c.Call(wire.TypeSubmitTask, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if first.Ref == "" || again.Ref != first.Ref {
		t.Fatalf("resubmit got task %q, first submit %q", again.Ref, first.Ref)
	}
	if _, err := c.Call(wire.TypeDeleteTask, wire.DeleteTask{TaskID: first.Ref}); err != nil {
		t.Fatalf("delete after the large frames: %v", err)
	}
}
