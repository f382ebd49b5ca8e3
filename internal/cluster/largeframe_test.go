package cluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"senseaid/internal/wire"
)

// TestRouterLargeFrameRoundTrips: a client frame far larger than the
// router's session reader — a CAS task whose client task ID nearly fills
// wire.MaxMessageBytes — crosses the router and the worker's link whole
// on both client codecs. Resubmitting it must reclaim the same task,
// which holds only if both hops read both frames byte for byte, and a
// small call after them proves the session stayed framed.
func TestRouterLargeFrameRoundTrips(t *testing.T) {
	r := startRouter(t)
	startWorker(t, r, westRegion, "west-1", "")
	for _, codec := range []wire.Codec{wire.JSON, wire.Binary} {
		t.Run(codec.Name(), func(t *testing.T) {
			nc, err := net.DialTimeout("tcp", r.Addr(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			c, err := wire.NewRPCConnCfg(nc, wire.RoleCAS, nil, wire.ConnConfig{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			spec := regionSpec(westCenter, 1, time.Minute)
			spec.ClientTaskID = strings.Repeat("k", wire.MaxMessageBytes-4096)
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
		})
	}
}
