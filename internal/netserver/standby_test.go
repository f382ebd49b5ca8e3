package netserver

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"senseaid/internal/obs"
	"senseaid/internal/persist"
	"senseaid/internal/wire"
)

// requireRecoveryPhases fails unless the server's last recovery pass set
// senseaid_recovery_seconds for every phase.
func requireRecoveryPhases(t *testing.T, s *Server) {
	t.Helper()
	for _, phase := range recoveryPhaseNames {
		if v := metricValue(s.Metrics(), "senseaid_recovery_seconds", obs.Labels{"phase": phase}); v <= 0 {
			t.Errorf(`senseaid_recovery_seconds{phase=%q} = %v, want > 0`, phase, v)
		}
	}
}

// A snapshot shipped in parts is committed once its last part is in; a
// gap in the parts is refused — the caller drops the link — and leaves
// the store's snapshot as it was.
func TestStandbyAssemblesSnapshotParts(t *testing.T) {
	dir := t.TempDir()
	sb := &Standby{
		cfg:    StandbyConfig{StateDir: dir},
		log:    obs.NewLogger(nil, obs.LevelError),
		stores: make(map[string]*persist.Store),
		done:   make(chan struct{}),
	}
	t.Cleanup(sb.shutdownRepl)
	ship := func(parts map[string]*snapshotParts, part int, last bool, chunk string) error {
		t.Helper()
		env, err := wire.Encode(wire.TypeSnapshotShip, 0, wire.SnapshotShip{Store: "core", Part: part, Last: last, Chunk: []byte(chunk)})
		if err != nil {
			t.Fatal(err)
		}
		return sb.applyShipped(env, parts)
	}
	snapshot := func() string {
		t.Helper()
		st, err := persist.Open(dir, "core")
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		return string(res.Snapshot)
	}

	parts := make(map[string]*snapshotParts)
	for i, chunk := range []string{`{"restarts":`, `2,"core":`, `{"journal_seq":7}}`} {
		if err := ship(parts, i+1, i == 2, chunk); err != nil {
			t.Fatalf("part %d: %v", i+1, err)
		}
		if got := snapshot(); (i < 2) != (got == "") {
			t.Fatalf("after part %d the snapshot is %q", i+1, got)
		}
	}
	want := `{"restarts":2,"core":{"journal_seq":7}}`
	if got := snapshot(); got != want {
		t.Fatalf("assembled snapshot %q, want %q", got, want)
	}

	parts = make(map[string]*snapshotParts)
	if err := ship(parts, 1, false, `{"restarts":`); err != nil {
		t.Fatal(err)
	}
	if err := ship(parts, 3, true, `{}}`); err == nil {
		t.Fatal("a gap in the parts was accepted")
	}
	if got := snapshot(); got != want {
		t.Fatalf("after a refused gap the snapshot is %q, want %q", got, want)
	}
}

// TestReplicationShipsOversizedSnapshot: a standby that attaches after the
// primary's state has outgrown wire.MaxMessageBytes is sent the snapshot
// in parts, assembles them, and so carries the campaign; promoting it and
// booting a server on its files recovers the campaign, and /metrics says
// how long each phase of that recovery took.
func TestReplicationShipsOversizedSnapshot(t *testing.T) {
	primaryDir, standbyDir := t.TempDir(), t.TempDir()
	primary := startDurable(t, primaryDir, nil)
	// An hour at a 150 ms period snapshots to several MB.
	spec := durableSpec("campaign-big")
	spec.End = spec.Start.Add(time.Hour)
	_, taskID, _ := collectingCAS(t, primary.Addr(), spec)

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

	snap := filepath.Join(standbyDir, "core.snap")
	waitFor(t, 10*time.Second, "the standby to commit the shipped snapshot", func() bool {
		b, err := os.ReadFile(snap)
		return err == nil && strings.Contains(string(b), "campaign-big")
	})
	if st, err := os.Stat(snap); err != nil {
		t.Fatal(err)
	} else if st.Size() <= wire.MaxMessageBytes {
		t.Fatalf("standby snapshot of %d bytes: the campaign should outgrow one frame", st.Size())
	}
	if v := metricValue(primary.Metrics(), "senseaid_repl_ship_errors_total", nil); v != 0 {
		t.Fatalf("ship errors = %v, want 0", v)
	}

	// Promotion: the standby fences its stores, and a server booted on
	// them recovers the campaign.
	promote, err := wire.Encode(wire.TypePromote, 1, wire.Promote{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sb.handleRouterRequest(promote); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sb.Promoted():
	case <-time.After(5 * time.Second):
		t.Fatal("standby never promoted")
	}
	successor := startDurable(t, standbyDir, func(c *Config) { c.TickPeriod = time.Hour })
	if rec := successor.Recovery(); rec.Outcome != "restored" {
		t.Fatalf("successor recovery = %+v, want restored", rec)
	}
	if n := successor.Status().CoreTasks; n != 1 {
		t.Fatalf("successor holds %d tasks, want the campaign", n)
	}
	_, again, _ := collectingCAS(t, successor.Addr(), spec)
	if again != taskID {
		t.Fatalf("resubmit after promotion returned %q, want the original %q", again, taskID)
	}
	requireRecoveryPhases(t, successor)
}
