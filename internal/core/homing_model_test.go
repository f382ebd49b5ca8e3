package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/simclock"
)

// The sharded layer's device routing held against a model, and against
// the commit before the routing index was deleted. One seeded sequence of
// every device operation runs over three regions — two of them
// overlapping — and points outside all coverage; after each operation
// the model (a plain map from ID to shard and the fields the operations
// write) must agree with where the stores say each device is and what its
// record holds, and the call must have failed exactly when the model says
// the old code would have failed it.
//
// testdata/golden/homing.sums holds a running SHA-256 of each shard's
// journal bytes, every homingCheckEvery operations, as commit 7fef99e —
// the last with a device-routing index beside the stores — wrote them for
// this sequence: this file ran there unchanged with
// SENSEAID_WRITE_GOLDEN=<dir>. Do not regenerate it from a later commit.

const (
	homingOps        = 3000
	homingCheckEvery = 100
	homingSeed       = 18
)

type homingModelDevice struct {
	shard   int
	pos     geo.Point
	battery float64
	budget  power.Budget
	energy  float64
	// What the home shard's journal last recorded: a report that stays
	// inside the shard is not journaled, so a restart forgets it.
	journaledPos     geo.Point
	journaledBattery float64
}

func (m *homingModelDevice) journaled() { m.journaledPos, m.journaledBattery = m.pos, m.battery }

// homingWorld is the deployment under test and the model beside it.
type homingWorld struct {
	t        *testing.T
	regions  []Region
	journals map[string]*memJournal
	ss       *ShardedServer
	model    map[string]*homingModelDevice
}

func newHomingWorld(t *testing.T) *homingWorld {
	west := geo.CSDepartment
	w := &homingWorld{
		t: t,
		regions: []Region{
			{Name: "west", Area: geo.Circle{Center: west, RadiusM: 3000}},
			{Name: "mid", Area: geo.Circle{Center: geo.Offset(west, 0, 4000), RadiusM: 3000}}, // overlaps west
			{Name: "east", Area: geo.Circle{Center: geo.Offset(west, 0, 12000), RadiusM: 3000}},
		},
		journals: make(map[string]*memJournal),
		model:    make(map[string]*homingModelDevice),
	}
	for _, r := range w.regions {
		w.journals[r.Name] = &memJournal{}
	}
	w.ss = w.build()
	return w
}

func (w *homingWorld) build() *ShardedServer {
	cfg := DefaultServerConfig()
	cfg.ShardJournal = func(region string) JournalSink { return w.journals[region] }
	ss, err := NewShardedServer(cfg, DispatcherFunc(func(Request, DeviceState) {}), w.regions)
	if err != nil {
		w.t.Fatal(err)
	}
	return ss
}

// restart replaces the sharded server with a fresh one whose shards are
// recovered one by one, directly, from their journals — the daemons' boot
// path — and then rebuilds routing.
func (w *homingWorld) restart() {
	fresh := w.build()
	for i, r := range w.regions {
		sh, _, err := fresh.Shard(i)
		if err != nil {
			w.t.Fatal(err)
		}
		if _, err := sh.Recover(nil, w.journals[r.Name].records(), func(TaskID) DataSink { return nopSink }); err != nil {
			w.t.Fatalf("recover %s: %v", r.Name, err)
		}
	}
	fresh.RebuildRouting()
	w.ss = fresh
	for _, m := range w.model {
		m.pos, m.battery = m.journaledPos, m.journaledBattery
	}
}

// shardFor is the rule the routing index implemented: the first region
// containing the point.
func (w *homingWorld) shardFor(p geo.Point) int {
	if !p.Valid() {
		return -1
	}
	for i, r := range w.regions {
		if r.Area.Contains(p) {
			return i
		}
	}
	return -1
}

// check compares the stores with the model.
func (w *homingWorld) check(label string) {
	w.t.Helper()
	homes := w.ss.DeviceHomes()
	if len(homes) != len(w.model) || w.ss.DeviceCount() != len(w.model) {
		w.t.Fatalf("%s: %d devices homed, %d stored, model holds %d", label, len(homes), w.ss.DeviceCount(), len(w.model))
	}
	for id, want := range w.model {
		got, ok := homes[id]
		if !ok || got != want.shard {
			w.t.Fatalf("%s: device %s homed in shard %d (present %v), model says %d", label, id, got, ok, want.shard)
		}
		sh, _, _ := w.ss.Shard(got)
		rec, ok := sh.Devices().Get(id)
		if !ok {
			w.t.Fatalf("%s: device %s not in the store of its home", label, id)
		}
		if rec.ID != id || rec.Position != want.pos || rec.BatteryPct != want.battery || rec.Budget != want.budget || rec.EnergySpentJ != want.energy {
			w.t.Fatalf("%s: device %s record %+v, model %+v", label, id, rec, *want)
		}
	}
	if v := w.ss.CheckHomingInvariants(); len(v) > 0 {
		w.t.Fatalf("%s: %v", label, v)
	}
	for i := range w.regions {
		sh, _, _ := w.ss.Shard(i)
		mustCheckIndex(w.t, label+" shard "+w.regions[i].Name, sh.Devices())
	}
}

// sums appends one line per shard: the operation count, the region, how
// many records its journal holds and the SHA-256 of their encodings.
func (w *homingWorld) sums(out *bytes.Buffer, op int) {
	for _, r := range w.regions {
		recs := w.journals[r.Name].records()
		h := sha256.New()
		for _, rec := range recs {
			b, err := rec.AppendJSON(nil)
			if err != nil {
				w.t.Fatalf("encode %s journal: %v", r.Name, err)
			}
			h.Write(b)
			h.Write([]byte{'\n'})
		}
		fmt.Fprintf(out, "%d %s %d %x\n", op, r.Name, len(recs), h.Sum(nil))
	}
}

func TestHomingAgainstModelAndParentJournal(t *testing.T) {
	w := newHomingWorld(t)
	rng := rand.New(rand.NewSource(homingSeed))
	west := w.regions[0].Area.Center
	// East offsets from west's center: west only, the west/mid overlap
	// (first region wins: west), mid only, the gap, east, beyond.
	offsets := []float64{-1500, 0, 1800, 2500, 4500, 6500, 8000, 11000, 12500, 14000, 20000}
	place := func() geo.Point {
		return geo.Offset(west, rng.Float64()*400-200, offsets[rng.Intn(len(offsets))]+rng.Float64()*700)
	}
	badPos := geo.Point{Lat: 91, Lon: 0}
	var got bytes.Buffer
	for op := 1; op <= homingOps; op++ {
		id := fmt.Sprintf("dev-%02d", rng.Intn(40)) // few IDs: most operations hit a live device
		m := w.model[id]
		at := simclock.Epoch.Add(time.Duration(op) * time.Second)
		label := fmt.Sprintf("op %d", op)
		var err error
		wantErr := false
		switch k := rng.Intn(20); {
		case k < 4: // register, sometimes from outside coverage or malformed
			d := freshDevice(id)
			d.Position, d.BatteryPct = place(), float64(rng.Intn(101))
			if rng.Intn(12) == 0 {
				d.BatteryPct = 101
			}
			label += " register " + id
			err = w.ss.RegisterDevice(d)
			target := w.shardFor(d.Position)
			wantErr = target < 0 || !validBattery(d.BatteryPct)
			if !wantErr {
				m = &homingModelDevice{shard: target, pos: d.Position, battery: d.BatteryPct, budget: d.Budget}
				m.journaled()
				w.model[id] = m
			}
		case k < 12: // state report: in place, across a boundary, out of coverage, malformed
			pos, battery := place(), float64(rng.Intn(101))
			switch rng.Intn(15) {
			case 0:
				pos = badPos
			case 1:
				battery = math.NaN()
			case 2:
				battery = -1
			}
			label += " report " + id
			err = w.ss.UpdateDeviceState(id, pos, battery, at)
			wantErr = m == nil || !pos.Valid() || !validBattery(battery)
			if !wantErr {
				m.pos, m.battery = pos, battery
				if target := w.shardFor(pos); target >= 0 && target != m.shard {
					m.shard = target
					m.journaled()
				}
			}
		case k < 14:
			label += " deregister " + id
			w.ss.DeregisterDevice(id)
			delete(w.model, id)
		case k < 16: // the cross-node move: export, then restore somewhere else
			label += " export+restore " + id
			var rec DeviceState
			rec, err = w.ss.ExportDevice(id)
			wantErr = m == nil
			if err == nil {
				delete(w.model, id)
				rec.Position = place()
				target := w.shardFor(rec.Position)
				if rerr := w.ss.RestoreDevice(rec); (rerr != nil) != (target < 0) {
					t.Fatalf("%s: restore at %v: error %v, want error %v", label, rec.Position, rerr, target < 0)
				}
				if target >= 0 {
					m.shard, m.pos = target, rec.Position
					m.journaled()
					w.model[id] = m
				}
			}
		case k < 18:
			b := power.Budget{TotalJ: float64(100 + rng.Intn(900)), CriticalBatteryPct: float64(rng.Intn(30))}
			if rng.Intn(8) == 0 {
				b.TotalJ = -1
			}
			label += " prefs " + id
			err = w.ss.UpdateDevicePrefs(id, b)
			wantErr = m == nil || b.Validate() != nil
			if !wantErr {
				m.budget = b
			}
		case k < 19:
			j := float64(rng.Intn(8)) / 4
			label += " energy " + id
			w.ss.NoteDeviceEnergy(id, j)
			if m != nil {
				m.energy += j
			}
		default:
			if rng.Intn(10) == 0 {
				label += " restart"
				w.restart()
			}
		}
		if (err != nil) != wantErr {
			t.Fatalf("%s: error %v, model expects error %v", label, err, wantErr)
		}
		w.check(label)
		if op%homingCheckEvery == 0 {
			w.sums(&got, op)
		}
	}

	if dir := os.Getenv("SENSEAID_WRITE_GOLDEN"); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, "homing.sums"), got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/golden/homing.sums")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i, line := range gotLines {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Fatalf("journal bytes diverge from the parent's at checkpoint line %d (op region records sha256)\nparent: %s\nchange: %s",
				i+1, strings.Join(wantLines[i:min(i+1, len(wantLines))], ""), line)
		}
	}
	t.Fatalf("the parent's checkpoints run on past the change's %d lines", len(gotLines))
}
