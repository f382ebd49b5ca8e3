package netserver

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/wire"
)

// rawLink is the router's end of a link, driven by hand.
type rawLink struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

// dialRawLink opens a link to s the way the router does: a v1 hello in
// the router role, answered with the binary codec.
func dialRawLink(t *testing.T, s *Server) *rawLink {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	hello, err := wire.Encode(wire.TypeHello, 1, wire.Hello{Role: wire.RoleRouter, Version: wire.ProtocolVersionBinary})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc, hello); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	env, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.Ack
	if err := wire.Decode(env, &ack); err != nil || ack.Version != wire.ProtocolVersionBinary {
		t.Fatalf("link hello answered %s %+v (%v), want an ack granting the binary codec", env.Type, ack, err)
	}
	return &rawLink{t: t, nc: nc, br: br}
}

// frame encodes one link frame.
func (l *rawLink) frame(stream uint64, typ wire.MsgType, seq uint64, payload interface{}) []byte {
	l.t.Helper()
	env, err := wire.Binary.Encode(typ, seq, payload)
	if err != nil {
		l.t.Fatal(err)
	}
	b, err := wire.Link.AppendFrame(nil, env.OnStream(stream))
	if err != nil {
		l.t.Fatal(err)
	}
	return b
}

// send writes frames in one write.
func (l *rawLink) send(frames ...[]byte) {
	l.t.Helper()
	var b []byte
	for _, f := range frames {
		b = append(b, f...)
	}
	if _, err := l.nc.Write(b); err != nil {
		l.t.Fatal(err)
	}
}

// next reads the next link frame.
func (l *rawLink) next() wire.Envelope {
	l.t.Helper()
	_ = l.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	env, err := wire.Link.ReadFrame(l.br)
	if err != nil {
		l.t.Fatalf("reading the link: %v", err)
	}
	return env
}

func (l *rawLink) hello(stream uint64, role wire.Role) []byte {
	return l.frame(stream, wire.TypeHello, 0, wire.Hello{Role: role, Version: wire.ProtocolVersionBinary})
}

func (l *rawLink) register(stream, seq uint64, id string) []byte {
	return l.frame(stream, wire.TypeRegister, seq, wire.Register{
		DeviceID: id, Position: geo.CSDepartment, BatteryPct: 90, Sensors: barometerSensors(),
	})
}

// TestLinkFrameOnClosedStreamGetsStreamClose: once the router has closed
// a stream, a late frame on it is answered with stream_close and the
// link keeps serving its other streams; so is a frame on a stream id
// that was never opened.
func TestLinkFrameOnClosedStreamGetsStreamClose(t *testing.T) {
	s := startServer(t)
	l := dialRawLink(t, s)

	l.send(l.hello(1, wire.RoleDevice), l.register(1, 1, "closing"))
	if env := l.next(); env.Stream() != 1 || env.Type != wire.TypeAck || env.Seq != 1 {
		t.Fatalf("register on stream 1 answered %s seq %d on stream %d", env.Type, env.Seq, env.Stream())
	}
	l.send(l.frame(1, wire.TypeStreamClose, 0, nil))
	l.send(l.frame(1, wire.TypeStateReport, 2, wire.StateReport{Position: geo.CSDepartment, BatteryPct: 80, LastComm: time.Now()}))
	if env := l.next(); env.Stream() != 1 || env.Type != wire.TypeStreamClose {
		t.Fatalf("frame on a closed stream answered %s on stream %d, want stream_close on 1", env.Type, env.Stream())
	}
	l.send(l.frame(7, wire.TypeStateReport, 1, wire.StateReport{}))
	if env := l.next(); env.Stream() != 7 || env.Type != wire.TypeStreamClose {
		t.Fatalf("frame on an unopened stream answered %s on stream %d, want stream_close on 7", env.Type, env.Stream())
	}

	// The link still serves new streams.
	l.send(l.hello(8, wire.RoleDevice), l.register(8, 1, "after"))
	if env := l.next(); env.Stream() != 8 || env.Type != wire.TypeAck {
		t.Fatalf("register on stream 8 answered %s on stream %d", env.Type, env.Stream())
	}
	waitGauge(t, "device sessions", func() float64 { return s.met.connsDevice.Value() }, 1)
	if n := s.met.acceptedRouter.Value(); n != 1 {
		t.Fatalf("accepted %d router links, want 1", n)
	}
}

// TestLinkShedsOnlyTheFullStream: a stream whose session has fallen an
// inbox behind has its next frames shed with the "overloaded" error,
// counted in senseaid_rpc_shed_total; the link's reader never waits on
// it, so another stream on the same link is served, and the link
// survives.
func TestLinkShedsOnlyTheFullStream(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", TickPeriod: 20 * time.Millisecond, RPCWorkers: 1, RPCQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	l := dialRawLink(t, s)

	// Hold the only RPC worker: stream 1's register waits in the pool's
	// queue, so its session reads nothing more until release.
	release := make(chan struct{})
	if !s.pool.run(func() { <-release }) {
		t.Fatal("pool refused the blocker")
	}
	const reports = 3 * streamInbox
	frames := [][]byte{l.hello(1, wire.RoleDevice), l.register(1, 1, "flooded")}
	for i := 0; i < reports; i++ {
		frames = append(frames, l.frame(1, wire.TypeStateReport, uint64(2+i),
			wire.StateReport{Position: geo.CSDepartment, BatteryPct: 80, LastComm: time.Now()}))
	}
	l.send(frames...)

	// Shed replies arrive while the worker is still held.
	shed := 0
	replies := map[uint64]bool{}
	reply := func(env wire.Envelope) {
		if replies[env.Seq] {
			t.Fatalf("stream 1 frame %d answered twice", env.Seq)
		}
		replies[env.Seq] = true
		if env.Type == wire.TypeAck {
			return
		}
		var e wire.Error
		if err := wire.Decode(env, &e); err != nil || !strings.Contains(e.Message, "overloaded") {
			t.Fatalf("stream 1 frame %d: %s %q (%v), want an ack or the overloaded error", env.Seq, env.Type, e.Message, err)
		}
		shed++
	}
	if env := l.next(); env.Stream() != 1 || env.Type != wire.TypeError {
		t.Fatalf("while held: %s on stream %d, want a shed error on stream 1", env.Type, env.Stream())
	} else {
		reply(env)
	}
	close(release)

	// A second stream on the same link is served, and every frame of the
	// first gets exactly one reply: an ack, or the shed error.
	l.send(l.hello(2, wire.RoleDevice), l.register(2, 1, "bystander"))
	var bystander bool
	for len(replies) < reports+1 || !bystander {
		env := l.next()
		switch env.Stream() {
		case 1:
			reply(env)
		case 2:
			if env.Type != wire.TypeAck || env.Seq != 1 {
				t.Fatalf("bystander's register answered %s seq %d", env.Type, env.Seq)
			}
			bystander = true
		default:
			t.Fatalf("frame on stream %d", env.Stream())
		}
	}
	if n := s.met.rpcShed.Value(); n != uint64(shed) {
		t.Fatalf("senseaid_rpc_shed_total = %d, %d frames shed", n, shed)
	}
	if shed >= reports {
		t.Fatalf("shed %d of %d frames: the session never drained its inbox", shed, reports)
	}
	t.Logf("shed %d of %d frames on the flooded stream", shed, reports+1)
}

// waitGauge waits for a gauge to reach want.
func waitGauge(t *testing.T, what string, get func() float64, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for get() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v, want %v", what, get(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
