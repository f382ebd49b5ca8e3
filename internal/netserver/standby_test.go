package netserver

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestReplicationStallsOnOversizedSnapshot pins an open bug, ROADMAP
// item 8(e): a standby that attaches after the primary's state has
// outgrown wire.MaxMessageBytes is sent the whole snapshot in one
// snapshot_ship frame, the frame is refused, the link is closed, and
// every re-attach fails the same way, so the standby never receives the
// campaign. Once snapshot shipping handles large state this test fails;
// it should then become the positive check (the standby's files carry
// the campaign).
func TestReplicationStallsOnOversizedSnapshot(t *testing.T) {
	primaryDir, standbyDir := t.TempDir(), t.TempDir()
	primary := startDurable(t, primaryDir, nil)
	// An hour at a 150 ms period snapshots to several MB.
	spec := durableSpec("campaign-big")
	spec.End = spec.Start.Add(time.Hour)
	collectingCAS(t, primary.Addr(), spec)

	sb, err := RunStandby(StandbyConfig{
		PrimaryAddr:    primary.Addr(),
		NodeID:         "standby-1",
		StateDir:       standbyDir,
		RedialInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sb.Close() })

	// Two refused ships: the standby re-attached after the first and met
	// the same snapshot again.
	deadline := time.Now().Add(10 * time.Second)
	for metricValue(primary.Metrics(), "senseaid_repl_ship_errors_total", nil) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("ship errors = %v; want the oversized snapshot refused on two attaches",
				metricValue(primary.Metrics(), "senseaid_repl_ship_errors_total", nil))
		}
		time.Sleep(20 * time.Millisecond)
	}
	entries, err := os.ReadDir(standbyDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(standbyDir, e.Name()))
		if err == nil && strings.Contains(string(b), "campaign-big") {
			t.Fatalf("%s carries the campaign: large snapshots now ship, so ROADMAP 8(e) is fixed and this test should check for it", e.Name())
		}
	}
}
