package netserver

// This file wires the core's durability contract (core.SnapshotState,
// core.JournalRecord, Recover) to the persist package's files. The
// netserver owns the policy: one store per shard (named after its region,
// or "core" for the one unnamed shard of a deployment without regions),
// recovery before
// the listener accepts a single connection, a periodic snapshot loop,
// and a final snapshot on graceful shutdown. DESIGN.md §11 carries the
// crash-consistency argument.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"senseaid/internal/core"
	"senseaid/internal/obs"
	"senseaid/internal/persist"
	"senseaid/internal/wire"
)

// storeNameSingle names the state files of a deployment without regions
// (its one shard is unnamed).
const storeNameSingle = "core"

// storeNameAgg names the live-aggregation tier's spill store. The tier's
// recent windows are soft state (they can be rebuilt from a few minutes
// of traffic), so the store holds snapshots only — no journal records —
// and a load failure resets it instead of refusing to boot.
const storeNameAgg = "agg"

// persistedState is the snapshot payload as written to disk: the core's
// state plus the netserver-level restart bookkeeping that must survive
// alongside it (a restart is only observable as a restart if the counter
// rides in the state itself).
type persistedState struct {
	Restarts int                `json:"restarts"`
	SavedAt  time.Time          `json:"saved_at"`
	Core     core.SnapshotState `json:"core"`
}

// journalGate adapts one persist.Store to core.JournalSink. It stays
// disarmed through recovery — replaying a journal must never append the
// replayed mutations back onto the journal — and is armed only once the
// post-recovery snapshot is committed, so every record it accepts
// belongs to the epoch that snapshot opened.
type journalGate struct {
	srv   *Server
	store *persist.Store
	armed atomic.Bool
	// shipMu orders this store's writes with their replica shipments:
	// a snapshot and the journal records numbered after it must reach a
	// replica in store-write order, or the replica could append a record
	// and then rotate it into a stale epoch when the older snapshot
	// lands. Appends and snapshot commits on one store already serialise
	// inside persist.Store; this mutex extends that ordering to the tee.
	shipMu sync.Mutex
}

// Append journals one record: encoded once, framed into the store as
// those bytes stand (persist.Encoded: no second encoding, no
// re-validation of what this process just wrote) and shipped to the
// replicas as the very bytes on disk.
func (g *journalGate) Append(rec core.JournalRecord) {
	if !g.armed.Load() {
		return
	}
	start := time.Now()
	raw, err := rec.MarshalJSON()
	if err == nil {
		g.shipMu.Lock()
		err = g.store.Append(persist.Encoded(raw))
		if err == nil {
			g.srv.pers.ship(wire.TypeJournalShip,
				wire.JournalShip{Store: g.store.Name(), Record: raw})
		}
		g.shipMu.Unlock()
	}
	g.srv.tracer.ObserveStage(obs.StageJournalAppend, time.Since(start))
	if err != nil {
		// An append failure (disk full, fd gone) loses this mutation from
		// the journal; the next periodic snapshot re-establishes a
		// consistent cut. Count it loudly rather than crash the server —
		// availability is the product, durability is best-effort between
		// snapshots.
		g.srv.met.journalErrors.Inc()
		g.srv.log.Errorf("journal %s: %v", g.store.Name(), err)
		return
	}
	g.srv.met.journalAppends.Inc()
}

// persistedCore pairs one shard with its on-disk store.
type persistedCore struct {
	name  string
	store *persist.Store
	gate  *journalGate
	core  *core.Server
}

// persister manages every store of one Server.
type persister struct {
	srv    *Server
	stores []*persistedCore // in shard order
	// openErr is set when a store failed to open as the core was built.
	openErr error

	// aggStore spills the live-aggregation tier's retained windows; nil
	// when the tier is disabled. It ships to replicas like every other
	// store, so a promoted standby keeps recent windows too.
	aggStore *persist.Store

	// replMu guards links: standby replicas attached for journal
	// shipping (DESIGN.md §14). Every store write tees its exact bytes
	// to every link, so a replica's state directory converges on a
	// byte-identical copy of the primary's.
	replMu sync.Mutex
	links  []*conn
}

// attachReplica registers a replica connection and immediately ships a
// fresh snapshot of every store through it, so the replica's files hold
// a consistent cut before any journal record arrives. snapshotAll runs
// outside replMu (commitOne takes each store's ship mutex, and ship
// re-takes replMu) and ships to every link — re-snapshotting an
// already-attached replica is harmless.
func (p *persister) attachReplica(c *conn) {
	p.replMu.Lock()
	p.links = append(p.links, c)
	n := len(p.links)
	p.replMu.Unlock()
	p.srv.met.replicaLinks.Set(float64(n))
	p.snapshotAll()
}

func (p *persister) detachReplica(c *conn) {
	p.replMu.Lock()
	for i, l := range p.links {
		if l == c {
			p.links = append(p.links[:i], p.links[i+1:]...)
			break
		}
	}
	n := len(p.links)
	p.replMu.Unlock()
	p.srv.met.replicaLinks.Set(float64(n))
}

// ship tees one store write to every attached replica. Frames ride the
// replica connection's coalescer, so shipping never blocks the caller;
// a send failure closes the link's connection — serveNode's read loop
// notices and detaches it — because a dead or wedged standby must never
// stall the primary's mutation path.
func (p *persister) ship(t wire.MsgType, payload interface{}) {
	p.replMu.Lock()
	if len(p.links) == 0 {
		p.replMu.Unlock()
		return
	}
	links := append([]*conn(nil), p.links...)
	p.replMu.Unlock()
	for _, c := range links {
		cc := c
		cc.notify(t, payload, func(err error) {
			if err != nil {
				p.srv.met.replShipErrors.Inc()
				cc.close()
			}
		})
	}
}

// snapshotPartBytes bounds the snapshot bytes one snapshot_ship frame
// carries. A part rides as base64 (4/3 of its size) inside the frame's
// JSON, so a part stays well under wire.MaxMessageBytes.
const snapshotPartBytes = 512 << 10

// shipSnapshot tees a committed snapshot to every replica: in one frame
// when it fits (the frame it has always been), else in numbered parts
// the standby assembles before it commits.
func (p *persister) shipSnapshot(store string, raw []byte) {
	if len(raw) <= snapshotPartBytes {
		p.ship(wire.TypeSnapshotShip, wire.SnapshotShip{Store: store, Payload: raw})
		return
	}
	for part := 1; len(raw) > 0; part++ {
		n := min(len(raw), snapshotPartBytes)
		p.ship(wire.TypeSnapshotShip, wire.SnapshotShip{Store: store, Part: part, Last: n == len(raw), Chunk: raw[:n]})
		raw = raw[n:]
	}
}

// RecoveryInfo summarizes what Listen recovered from the state
// directory. The zero value means persistence was not configured.
type RecoveryInfo struct {
	// Restarts counts process starts against this state directory after
	// the first; it is the value of senseaid_restarts_total.
	Restarts int `json:"restarts"`
	// Replayed and Skipped count journal records across all stores.
	Replayed int `json:"replayed"`
	Skipped  int `json:"skipped"`
	// Outcome is "fresh" (no prior state), "restored" (state loaded), or
	// "reset" (corrupt state moved aside under StateRecover).
	Outcome string `json:"outcome,omitempty"`
}

// initPersistence routes each shard's journal into a state store of its
// own, opened as the core builds the shard (the core captures its
// per-shard sinks at construction, so this runs before it exists; a
// failed open is reported by bindCores). Recovery itself runs after, in
// recover().
func (s *Server) initPersistence() error {
	p := &persister{srv: s}
	s.cfg.Core.ShardJournal = func(region string) core.JournalSink {
		name := region
		if name == "" {
			name = storeNameSingle
		}
		st, err := persist.Open(s.cfg.StateDir, name)
		if err != nil {
			p.openErr = fmt.Errorf("netserver: %w", err)
			return nil
		}
		g := &journalGate{srv: s, store: st}
		p.stores = append(p.stores, &persistedCore{name: name, store: st, gate: g})
		return g
	}
	if s.agg != nil {
		for _, r := range s.cfg.Regions {
			if r.Name == storeNameAgg {
				return fmt.Errorf("netserver: region name %q collides with the aggregation spill store", storeNameAgg)
			}
		}
		st, err := persist.Open(s.cfg.StateDir, storeNameAgg)
		if err != nil {
			return fmt.Errorf("netserver: %w", err)
		}
		p.aggStore = st
	}
	s.pers = p
	return nil
}

// recoverAgg restores the aggregation tier's retained windows from the
// spill store. Every failure path resets the store and carries on: the
// windows are a cache of the last few minutes of traffic, never worth
// refusing to boot over.
func (p *persister) recoverAgg() {
	if p.aggStore == nil {
		return
	}
	res, err := p.aggStore.Load()
	if err != nil {
		p.srv.log.Errorf("agg spill store: %v; resetting", err)
		_ = p.aggStore.Reset()
		return
	}
	if res.Snapshot == nil {
		return
	}
	if err := p.srv.agg.Restore(res.Snapshot); err != nil {
		// Typically a window-length change across the restart.
		p.srv.log.Errorf("agg spill store: %v; starting empty", err)
		return
	}
	p.srv.log.Infof("agg tier restored %d retained window bytes", len(res.Snapshot))
}

// commitAgg spills the tier's retained windows and ships them to any
// replicas. No journal records follow (the tier is snapshot-only), so
// no ship-ordering mutex is needed.
func (p *persister) commitAgg() {
	if p.aggStore == nil {
		return
	}
	raw, err := p.srv.agg.SnapshotState()
	if err == nil {
		_, err = p.aggStore.CommitRaw(raw)
	}
	if err != nil {
		p.srv.log.Errorf("agg snapshot: %v", err)
		return
	}
	p.shipSnapshot(storeNameAgg, raw)
}

// bindCores attaches each store to its shard once the core exists; the
// stores were opened in shard order.
func (p *persister) bindCores() error {
	if p.openErr != nil {
		return p.openErr
	}
	for i, ps := range p.stores {
		ps.core, _, _ = p.srv.core.Shard(i)
	}
	return nil
}

// recover loads every store, rebuilds the cores, commits the
// post-recovery snapshot that opens the new journal epoch, and arms the
// gates. It must complete before the listener accepts traffic: a
// connection served against half-recovered state would journal records
// into an epoch that does not exist yet.
func (p *persister) recover() (RecoveryInfo, error) {
	info := RecoveryInfo{Outcome: "fresh"}
	prevRestarts, hadState := 0, false
	var phases [recoveryPhases]time.Duration
	mark := time.Now()
	lap := func(phase int) {
		now := time.Now()
		phases[phase] += now.Sub(mark)
		mark = now
	}
	for _, ps := range p.stores {
		res, err := ps.store.Load()
		switch {
		case persist.IsCorrupt(err):
			if !p.srv.cfg.StateRecover {
				return info, fmt.Errorf("netserver: %w (restart with -state-recover to move the damaged files aside and start fresh)", err)
			}
			p.srv.log.Errorf("state store %s corrupt: %v; moving files aside", ps.name, err)
			if rerr := ps.store.Reset(); rerr != nil {
				return info, fmt.Errorf("netserver: %w", rerr)
			}
			info.Outcome = "reset"
			res = &persist.LoadResult{}
		case err != nil:
			return info, fmt.Errorf("netserver: %w", err)
		}
		if res.TruncatedBytes > 0 {
			// The expected artifact of a crash mid-append: the torn tail is
			// dropped, everything before it replays.
			p.srv.met.journalTruncatedBytes.Add(uint64(res.TruncatedBytes))
			p.srv.log.Infof("state store %s: %d bytes of torn journal tail discarded", ps.name, res.TruncatedBytes)
		}
		lap(phaseLoad)

		var snap *core.SnapshotState
		if res.Snapshot != nil {
			var st persistedState
			if uerr := json.Unmarshal(res.Snapshot, &st); uerr != nil {
				// CRC-valid bytes that are not our schema: hand-editing or
				// version skew. Same policy as a bad CRC — refuse by default.
				if !p.srv.cfg.StateRecover {
					return info, fmt.Errorf("netserver: state store %s: snapshot does not decode: %v (restart with -state-recover to move it aside)", ps.name, uerr)
				}
				p.srv.log.Errorf("state store %s: snapshot does not decode: %v; moving files aside", ps.name, uerr)
				if rerr := ps.store.Reset(); rerr != nil {
					return info, fmt.Errorf("netserver: %w", rerr)
				}
				info.Outcome = "reset"
				res = &persist.LoadResult{}
			} else {
				snap = &st.Core
				if st.Restarts > prevRestarts {
					prevRestarts = st.Restarts
				}
			}
		}
		if res.HadState {
			hadState = true
		}

		records := decodeRecords(res.Records)
		lap(phaseDecode)
		rres, err := ps.core.Recover(snap, records, p.srv.casSink)
		if err != nil {
			return info, fmt.Errorf("netserver: recover %s: %w", ps.name, err)
		}
		info.Replayed += rres.Applied
		info.Skipped += rres.Skipped
		lap(phaseReplay)
	}
	if hadState {
		if info.Outcome == "fresh" {
			info.Outcome = "restored"
		}
		info.Restarts = prevRestarts + 1
	}
	// Commit the post-recovery snapshot: it folds the replayed journal
	// into a fresh consistent cut and opens the journal epoch the armed
	// gates will append to.
	for _, ps := range p.stores {
		if err := p.commitOne(ps, info.Restarts); err != nil {
			return info, err
		}
		ps.gate.armed.Store(true)
	}
	lap(phaseCommit)
	p.srv.met.noteRecoveryPhases(phases)
	p.recoverAgg()
	return info, nil
}

// decodeRecords decodes a store's journal records on every core, each
// into the slot of its index. Load has validated every record it
// returns, so a record decodes itself without json.Unmarshal's two
// further scans. One that does not decode (CRC-valid but schema-bad) is
// left zero: Recover skips and counts an unnumbered record, so it is
// salvaged around exactly as before.
func decodeRecords(raws []json.RawMessage) []core.JournalRecord {
	records := make([]core.JournalRecord, len(raws))
	workers := max(1, min(runtime.GOMAXPROCS(0), len(raws)/decodeSplitRecords))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if records[i].UnmarshalJSON(raws[i]) != nil {
					records[i] = core.JournalRecord{}
				}
			}
		}(len(raws)*w/workers, len(raws)*(w+1)/workers)
	}
	wg.Wait()
	return records
}

// decodeSplitRecords is the least share of a store's records worth a
// decoding goroutine of its own.
const decodeSplitRecords = 1024

// commitOne snapshots one core into its store, recording the snapshot
// metrics. The capture, the commit, and the replica shipment all happen
// under the store's ship mutex: any journal record numbered after this
// snapshot is therefore also shipped after it (its Append is queued
// behind the mutex), so a replica never rotates a needed record away.
func (p *persister) commitOne(ps *persistedCore, restarts int) error {
	start := time.Now()
	ps.gate.shipMu.Lock()
	raw, err := json.Marshal(persistedState{
		Restarts: restarts,
		SavedAt:  start,
		Core:     ps.core.Snapshot(),
	})
	var n int64
	if err == nil {
		n, err = ps.store.CommitRaw(raw)
	}
	if err == nil {
		p.shipSnapshot(ps.name, raw)
	}
	ps.gate.shipMu.Unlock()
	if err != nil {
		p.srv.met.snapshotsErr.Inc()
		return fmt.Errorf("netserver: snapshot %s: %w", ps.name, err)
	}
	p.srv.met.snapshotsOK.Inc()
	p.srv.met.snapshotSeconds.ObserveDuration(time.Since(start))
	p.srv.met.snapshotBytes.Set(float64(n))
	return nil
}

// snapshotAll takes a periodic (or final) snapshot of every core. A
// failing store is logged and skipped — the journal keeps the mutations
// until a later snapshot succeeds.
func (p *persister) snapshotAll() {
	for _, ps := range p.stores {
		if err := p.commitOne(ps, p.srv.recovery.Restarts); err != nil {
			p.srv.log.Errorf("%v", err)
		}
	}
	p.commitAgg()
}

// closeStores releases the journal file handles. sync flushes them to
// stable storage first (the graceful path); the abrupt path skips it,
// exactly as a killed process would.
func (p *persister) closeStores(sync bool) {
	for _, ps := range p.stores {
		if sync {
			if err := ps.store.Sync(); err != nil {
				p.srv.log.Errorf("sync %s: %v", ps.name, err)
			}
		}
		_ = ps.store.Close()
	}
	if p.aggStore != nil {
		if sync {
			if err := p.aggStore.Sync(); err != nil {
				p.srv.log.Errorf("sync %s: %v", storeNameAgg, err)
			}
		}
		_ = p.aggStore.Close()
	}
}

// snapshotLoop commits a snapshot every SnapshotInterval until shutdown.
func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SnapshotInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			s.pers.snapshotAll()
		}
	}
}
