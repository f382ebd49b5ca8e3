package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"senseaid/internal/power"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// lagConn delays what the router writes on a connection, once lag is
// set: a write returns at once and its bytes reach the socket lag later,
// in order, as on a long network path. Reads are untouched.
type lagConn struct {
	net.Conn
	lag atomic.Int64 // nanoseconds; 0 writes straight through

	once sync.Once
	q    chan lagged
	done chan struct{}
	shut sync.Once
}

type lagged struct {
	at time.Time
	b  []byte
}

func newLagConn(nc net.Conn) net.Conn {
	return &lagConn{Conn: nc, done: make(chan struct{})}
}

func (c *lagConn) Write(b []byte) (int, error) {
	d := time.Duration(c.lag.Load())
	if d == 0 {
		return c.Conn.Write(b)
	}
	c.once.Do(func() {
		c.q = make(chan lagged, 1024)
		go c.drain()
	})
	select {
	case c.q <- lagged{at: time.Now().Add(d), b: append([]byte(nil), b...)}:
		return len(b), nil
	case <-c.done:
		return 0, net.ErrClosed
	}
}

func (c *lagConn) drain() {
	for {
		select {
		case m := <-c.q:
			time.Sleep(time.Until(m.at))
			if _, err := c.Conn.Write(m.b); err != nil {
				return
			}
		case <-c.done:
			return
		}
	}
}

func (c *lagConn) Close() error {
	c.shut.Do(func() { close(c.done) })
	return c.Conn.Close()
}

// rawRoutedDevice is a binary device session on the router, driven frame
// by frame so that two requests can leave in one write.
type rawRoutedDevice struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRawRoutedDevice(t *testing.T, addr string) *rawRoutedDevice {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	hello, _ := wire.Encode(wire.TypeHello, 1, wire.Hello{Role: wire.RoleDevice, Version: wire.ProtocolVersion})
	if err := wire.WriteFrame(nc, hello); err != nil {
		t.Fatal(err)
	}
	d := &rawRoutedDevice{t: t, nc: nc, br: bufio.NewReader(nc)}
	if _, err := wire.ReadFrame(d.br); err != nil {
		t.Fatal(err)
	}
	return d
}

// send writes the frames in one write.
func (d *rawRoutedDevice) send(frames ...wire.Envelope) {
	d.t.Helper()
	var b []byte
	for _, env := range frames {
		var err error
		if b, err = wire.Binary.AppendFrame(b, env); err != nil {
			d.t.Fatal(err)
		}
	}
	if _, err := d.nc.Write(b); err != nil {
		d.t.Fatal(err)
	}
}

// replies reads until every seq is answered, or for two seconds, and
// returns the errors among the answers and the seqs left unanswered.
func (d *rawRoutedDevice) replies(seqs ...uint64) []string {
	d.t.Helper()
	want := map[uint64]bool{}
	for _, s := range seqs {
		want[s] = true
	}
	var errs []string
	_ = d.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	for len(want) > 0 {
		env, err := wire.Binary.ReadFrame(d.br)
		if err != nil {
			for s := range want {
				errs = append(errs, fmt.Sprintf("seq %d unanswered: %v", s, err))
			}
			return errs
		}
		if !want[env.Seq] {
			continue // a push
		}
		delete(want, env.Seq)
		if env.Type == wire.TypeError {
			var e wire.Error
			_ = wire.Decode(env, &e)
			errs = append(errs, fmt.Sprintf("seq %d: %s", env.Seq, e.Message))
		}
	}
	return errs
}

func encode(t *testing.T, typ wire.MsgType, seq uint64, payload interface{}) wire.Envelope {
	t.Helper()
	env, err := wire.Binary.Encode(typ, seq, payload)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestRehomeKeepsFramesSentBeforeTheCrossing: a device changes its
// preferences and, in the same write, reports a position in the other
// region. The router forwards the preferences on the device's stream
// before it starts the re-home, and the export that starts it follows
// them on that stream, so the record the new region imports carries the
// new budget — even with the router's writes to the old worker lagging
// 30 ms behind, which lets an export sent any other way overtake the
// preferences and leave them to a worker that no longer holds the
// device.
func TestRehomeKeepsFramesSentBeforeTheCrossing(t *testing.T) {
	r := startRouterWrapped(t, newLagConn)
	startWorker(t, r, westRegion, "west-1", "")
	east := startWorker(t, r, eastRegion, "east-1", "")

	const rounds = 5
	for i := 0; i < rounds; i++ {
		id := fmt.Sprintf("racer-%d", i)
		d := dialRawRoutedDevice(t, r.Addr())
		d.send(encode(t, wire.TypeRegister, 1, wire.Register{
			DeviceID: id, Position: westCenter, BatteryPct: 90, Sensors: []sensors.Type{sensors.Barometer},
		}))
		if errs := d.replies(1); len(errs) > 0 {
			t.Fatalf("register %s: %v", id, errs)
		}
		west, err := r.reg.primaryForRegion(westRegion.Name)
		if err != nil {
			t.Fatal(err)
		}
		west.link.nc.(*lagConn).lag.Store(int64(30 * time.Millisecond))

		budget := power.Budget{TotalJ: 1234 + float64(i), CriticalBatteryPct: 35}
		d.send(
			encode(t, wire.TypeUpdatePrefs, 2, wire.UpdatePrefs{Budget: budget}),
			encode(t, wire.TypeStateReport, 3, wire.StateReport{Position: eastCenter, BatteryPct: 80, LastComm: time.Now()}),
		)
		if errs := d.replies(2, 3); len(errs) > 0 {
			t.Errorf("round %d: %v", i, errs)
		}
		waitFor(t, 5*time.Second, "the re-home", func() bool { return r.met.rehomes.Value() >= uint64(i+1) })
		rec, err := east.Orchestrator().ExportDevice(id)
		if err != nil {
			t.Fatalf("round %d: east holds no record of %s: %v", i, id, err)
		}
		if rec.Budget != budget {
			t.Fatalf("round %d: east imported budget %+v, want %+v sent before the crossing", i, rec.Budget, budget)
		}
	}
	if n := r.met.rehomeErrors.Value(); n != 0 {
		t.Fatalf("%d re-home errors", n)
	}
}
