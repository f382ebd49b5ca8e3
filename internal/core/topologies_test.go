package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/power"
	"senseaid/internal/reputation"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
)

// One seeded sequence of every orchestrator operation, failing calls
// included, driven side by side through each core topology at explicit
// virtual times:
//
//   - "server": a bare Server, the shard type every topology is made of;
//   - "one shard": NewShardedServer without regions, the orchestrator a
//     region-less deployment runs — one unnamed shard covering every
//     point, which must be indistinguishable from the bare Server;
//   - "regions": three regions that do not overlap. Every task area lies
//     inside one region and every device moves only inside its own, so
//     no device crosses a boundary (crossings are homing_model_test's
//     job) and the regions must deliver exactly the readings the
//     region-less run delivers, tasks matched by submission order.
//
// The region-less arms must agree call for call: identical returns and
// error texts, the same dispatches in the same order, the same sink
// deliveries, byte-identical journal records and equal snapshots and
// stats. The regions arm is held to the same dispatches (as a set per
// scheduling pass: its shards dispatch concurrently) and the same
// delivered set; its failing calls may word their errors differently.
//
// The regions arm found one divergence, fixed in processDueLocked: a
// pass popped the deadline-sorted run queue only while its head was due,
// so a due request waited behind another task's earlier-deadline request
// that was not — in one queue, but not in three.

const (
	topoSeed    = 29
	topoSteps   = 1500
	topoDevices = 30
)

// topoOrchestrator is the method set the sequence drives.
type topoOrchestrator interface {
	RegisterDevice(d DeviceState) error
	DeregisterDevice(id string)
	UpdateDeviceState(id string, pos geo.Point, batteryPct float64, at time.Time) error
	UpdateDevicePrefs(id string, b power.Budget) error
	NoteDeviceEnergy(id string, joules float64)
	ExportDevice(id string) (DeviceState, error)
	RestoreDevice(rec DeviceState) error
	SubmitTask(t Task, now time.Time, sink DataSink) (TaskID, error)
	UpdateTaskParams(id TaskID, now time.Time, mutate func(*Task)) error
	DeleteTask(id TaskID) error
	ReceiveData(reqID, deviceID string, reading sensors.Reading, now time.Time) error
	NoteDispatchFailure(reqID, deviceID string)
	ProcessDue(now time.Time)
	NextWake() (time.Time, bool)
	Stats() Stats
	TaskCount() int
}

// topoCall is one dispatch or delivery, with its task named by
// submission order so arms whose task IDs differ compare.
type topoCall struct {
	Task     int
	Seq      int
	Device   string
	Value    float64
	Deadline time.Time
}

type topoArm struct {
	name  string
	o     topoOrchestrator
	exact bool // held to the reference arm call for call

	journals []*memJournal

	mu         sync.Mutex
	tasks      []TaskID // by submission order; "" where submission failed
	index      map[TaskID]int
	dispatched []topoCall
	delivered  []topoCall
}

func (a *topoArm) Dispatch(req Request, dev DeviceState) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dispatched = append(a.dispatched, topoCall{Task: a.index[req.Task.ID], Seq: req.Seq, Device: dev.ID, Deadline: req.Deadline})
}

func (a *topoArm) sink(task TaskID, dev string, r sensors.Reading) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.delivered = append(a.delivered, topoCall{Task: a.index[task], Device: dev, Value: r.Value})
}

// reqID names submission k's request seq in this arm's IDs.
func (a *topoArm) reqID(k, seq int) string {
	if k < 0 || k >= len(a.tasks) {
		return fmt.Sprintf("task-%d#%d", 900+k, seq)
	}
	return fmt.Sprintf("%s#%d", a.tasks[k], seq)
}

func (a *topoArm) taskID(k int) TaskID {
	if k < 0 || k >= len(a.tasks) {
		return TaskID(fmt.Sprintf("task-%d", 900+k))
	}
	return a.tasks[k]
}

// journalBytes is every record the arm journaled, shard by shard, in the
// codec's on-disk encoding.
func (a *topoArm) journalBytes(t *testing.T) []string {
	var out []string
	for _, j := range a.journals {
		for _, rec := range j.records() {
			b, err := rec.AppendJSON(nil)
			if err != nil {
				t.Fatalf("%s: encode journal record: %v", a.name, err)
			}
			out = append(out, string(b))
		}
	}
	return out
}

func topoConfig() ServerConfig {
	cfg := DefaultServerConfig()
	cfg.Reputation = reputation.NewTracker(reputation.Config{})
	cfg.FairnessWindow = 45 * time.Minute
	return cfg
}

func newTopoServerArm(t *testing.T) *topoArm {
	a := &topoArm{name: "server", exact: true, index: make(map[TaskID]int), journals: []*memJournal{{}}}
	cfg := topoConfig()
	cfg.Journal = a.journals[0]
	s, err := NewServer(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	a.o = s
	return a
}

// newTopoShardedArm builds a ShardedServer arm; without regions it is the
// one-shard orchestrator, held to the bare Server call for call.
func newTopoShardedArm(t *testing.T, name string, regions []Region) *topoArm {
	a := &topoArm{name: name, exact: len(regions) == 0, index: make(map[TaskID]int)}
	byName := map[string]*memJournal{"": {}}
	if len(regions) == 0 {
		a.journals = append(a.journals, byName[""])
	}
	for _, r := range regions {
		j := &memJournal{}
		byName[r.Name] = j
		a.journals = append(a.journals, j)
	}
	cfg := topoConfig()
	cfg.ShardJournal = func(region string) JournalSink { return byName[region] }
	ss, err := NewShardedServer(cfg, a, regions)
	if err != nil {
		t.Fatal(err)
	}
	a.o = ss
	return a
}

func TestTopologiesAgree(t *testing.T) {
	base := geo.CSDepartment
	regions := []Region{
		{Name: "west", Area: geo.Circle{Center: base, RadiusM: 4000}},
		{Name: "mid", Area: geo.Circle{Center: geo.Offset(base, 0, 20000), RadiusM: 4000}},
		{Name: "east", Area: geo.Circle{Center: geo.Offset(base, 0, 40000), RadiusM: 4000}},
	}
	arms := []*topoArm{newTopoServerArm(t), newTopoShardedArm(t, "one shard", nil), newTopoShardedArm(t, "regions", regions)}
	ref := arms[0]

	rng := rand.New(rand.NewSource(topoSeed))
	// Everything a device does keeps it inside its own region: within
	// 1.5 km of the center (north and east), 4 km of coverage.
	near := func(c geo.Point, m float64) geo.Point {
		return geo.Offset(c, (rng.Float64()*2-1)*m, (rng.Float64()*2-1)*m)
	}
	deviceIDs := make([]string, topoDevices)
	home := make(map[string]geo.Point)
	for i := range deviceIDs {
		deviceIDs[i] = fmt.Sprintf("dev-%02d", i)
		home[deviceIDs[i]] = regions[i%len(regions)].Area.Center
	}
	device := func() string { return deviceIDs[rng.Intn(len(deviceIDs))] }
	newDevice := func(id string, at time.Time) DeviceState {
		return DeviceState{
			ID:         id,
			Position:   near(home[id], 1500),
			BatteryPct: 20 + 80*rng.Float64(),
			LastComm:   at,
			Sensors:    []sensors.Type{sensors.Barometer, sensors.Accelerometer},
			Budget:     power.DefaultBudget(),
			Responsive: true,
		}
	}

	var (
		now     = simclock.Epoch
		open    []topoCall // answerable dispatches, as the reference arm made them
		stale   []topoCall // dispatches of deleted tasks
		deleted = make(map[int]bool)
		cursor  = make([]int, len(arms))   // next unread dispatch per arm
		areas   = make(map[int]geo.Circle) // submission -> task area
	)
	type result struct {
		text string
		err  string
	}
	// do applies one call to every arm and holds the exact arms to the
	// reference's result.
	do := func(step int, op string, call func(a *topoArm) result) {
		t.Helper()
		want := call(ref)
		for _, a := range arms[1:] {
			got := call(a)
			if a.exact && got != want {
				t.Fatalf("step %d %s: %s returned %+v, %s returned %+v", step, op, ref.name, want, a.name, got)
			}
		}
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	// drain reads each arm's dispatches since the last pass, holds them to
	// the reference's, and opens the reference's for answering.
	drain := func(step int) {
		t.Helper()
		var want []topoCall
		for i, a := range arms {
			a.mu.Lock()
			got := append([]topoCall(nil), a.dispatched[cursor[i]:]...)
			cursor[i] = len(a.dispatched)
			a.mu.Unlock()
			if i == 0 {
				want = got
				continue
			}
			if !a.exact {
				sortCalls(got)
				want = append([]topoCall(nil), want...)
				sortCalls(want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %s dispatched %v, %s dispatched %v; stats %+v vs %+v", step, a.name, got, ref.name, want, a.o.Stats(), ref.o.Stats())
			}
		}
		for _, c := range want {
			open = append(open, c)
		}
	}

	for _, id := range deviceIDs {
		d := newDevice(id, now)
		do(-1, "register", func(a *topoArm) result { return result{err: errText(a.o.RegisterDevice(d))} })
	}
	for step := 0; step < topoSteps; step++ {
		now = now.Add(time.Duration(15+rng.Intn(45)) * time.Second)
		switch r := rng.Intn(100); {
		case r < 20: // a state report inside the device's region
			id := device()
			pos, batt := near(home[id], 1500), 30+70*rng.Float64()
			do(step, "report", func(a *topoArm) result { return result{err: errText(a.o.UpdateDeviceState(id, pos, batt, now))} })
		case r < 22: // a report from a device nobody registered
			do(step, "report ghost", func(a *topoArm) result {
				return result{err: errText(a.o.UpdateDeviceState("ghost", home[deviceIDs[0]], 50, now))}
			})
		case r < 24: // a report with an invalid position
			id := device()
			bad := geo.Point{Lat: math.NaN(), Lon: 0}
			do(step, "report invalid", func(a *topoArm) result { return result{err: errText(a.o.UpdateDeviceState(id, bad, 50, now))} })
		case r < 27: // (re-)registration
			d := newDevice(device(), now)
			do(step, "register", func(a *topoArm) result { return result{err: errText(a.o.RegisterDevice(d))} })
		case r < 28: // registration at an invalid position
			d := newDevice(device(), now)
			d.Position = geo.Point{Lat: 91, Lon: 0}
			do(step, "register invalid", func(a *topoArm) result { return result{err: errText(a.o.RegisterDevice(d))} })
		case r < 30:
			id := device()
			do(step, "deregister", func(a *topoArm) result { a.o.DeregisterDevice(id); return result{} })
		case r < 33:
			id, b := device(), power.DefaultBudget()
			b.TotalJ = 50 + 200*rng.Float64()
			if rng.Intn(8) == 0 {
				b.TotalJ = -1 // refused
			}
			do(step, "prefs", func(a *topoArm) result { return result{err: errText(a.o.UpdateDevicePrefs(id, b))} })
		case r < 36:
			id, j := device(), 5*rng.Float64()
			if rng.Intn(4) == 0 {
				id = "ghost"
			}
			do(step, "energy", func(a *topoArm) result { a.o.NoteDeviceEnergy(id, j); return result{} })
		case r < 38: // a re-home to another node and back, moved in-region
			id := device()
			moved := near(home[id], 1500)
			do(step, "export+restore", func(a *topoArm) result {
				rec, err := a.o.ExportDevice(id)
				if err != nil {
					return result{err: err.Error()}
				}
				rec.Position = moved
				b, _ := json.Marshal(rec)
				return result{text: string(b), err: errText(a.o.RestoreDevice(rec))}
			})
		case r < 44: // a task inside one region
			rg := regions[rng.Intn(len(regions))]
			tk := Task{
				Sensor:         sensors.Barometer,
				SamplingPeriod: time.Duration(5+rng.Intn(11)) * time.Minute,
				Start:          now.Add(time.Duration(rng.Intn(5)) * time.Minute),
				Area:           geo.Circle{Center: near(rg.Area.Center, 500), RadiusM: 1500},
				SpatialDensity: 1 + rng.Intn(3),
			}
			tk.End = tk.Start.Add(time.Duration(30+rng.Intn(90)) * time.Minute)
			if rng.Intn(10) == 0 {
				tk.SpatialDensity = 0 // refused
			}
			k := len(ref.tasks)
			areas[k] = tk.Area
			do(step, "submit", func(a *topoArm) result {
				id, err := a.o.SubmitTask(tk, now, a.sink)
				a.mu.Lock()
				a.tasks = append(a.tasks, id)
				if err == nil {
					a.index[id] = k
				}
				a.mu.Unlock()
				return result{text: fmt.Sprint(err == nil), err: errText(err)}
			})
		case r < 46: // a new sampling period
			k := rng.Intn(len(ref.tasks) + 1)
			period := time.Duration(5+rng.Intn(11)) * time.Minute
			do(step, "update task", func(a *topoArm) result {
				return result{err: errText(a.o.UpdateTaskParams(a.taskID(k), now, func(t *Task) { t.SamplingPeriod = period }))}
			})
		case r < 48: // deletion, of a live task or again of a deleted one
			k := rng.Intn(len(ref.tasks) + 1)
			do(step, "delete", func(a *topoArm) result { return result{err: errText(a.o.DeleteTask(a.taskID(k)))} })
			if k < len(ref.tasks) && !deleted[k] {
				deleted[k] = true
				kept := open[:0]
				for _, o := range open {
					if o.Task == k {
						stale = append(stale, o)
					} else {
						kept = append(kept, o)
					}
				}
				open = kept
			}
		case r < 64:
			do(step, "process due", func(a *topoArm) result { a.o.ProcessDue(now); return result{} })
			drain(step)
		case r < 88 && len(open) > 0: // an upload answering a dispatch
			live := open[:0]
			for _, o := range open {
				if !o.Deadline.Before(now) {
					live = append(live, o)
				}
			}
			if open = live; len(open) == 0 {
				continue
			}
			i := rng.Intn(len(open))
			o := open[i]
			open = append(open[:i], open[i+1:]...)
			reading := sensors.Reading{Sensor: sensors.Barometer, At: now, Where: areas[o.Task].Center, Value: 1000 + 30*rng.Float64()}
			switch rng.Intn(12) {
			case 0:
				reading.Sensor = sensors.Accelerometer // refused: wrong sensor
			case 1:
				reading.Where = geo.Offset(reading.Where, 0, 5000) // refused: outside the task area
			}
			do(step, "upload", func(a *topoArm) result {
				return result{err: errText(a.o.ReceiveData(a.reqID(o.Task, o.Seq), o.Device, reading, now))}
			})
		case r < 91 && len(open) > 0: // a dispatch that never reached its device
			i := rng.Intn(len(open))
			o := open[i]
			open = append(open[:i], open[i+1:]...)
			do(step, "dispatch failure", func(a *topoArm) result {
				a.o.NoteDispatchFailure(a.reqID(o.Task, o.Seq), o.Device)
				return result{}
			})
		case r < 93 && len(stale) > 0: // an upload for a deleted task
			o := stale[rng.Intn(len(stale))]
			reading := sensors.Reading{Sensor: sensors.Barometer, At: now, Where: areas[o.Task].Center, Value: 1000}
			do(step, "upload deleted", func(a *topoArm) result {
				return result{err: errText(a.o.ReceiveData(a.reqID(o.Task, o.Seq), o.Device, reading, now))}
			})
		case r < 95: // an upload for a task nobody submitted
			id, reading := device(), sensors.Reading{Sensor: sensors.Barometer, At: now, Where: base, Value: 1000}
			do(step, "upload unknown", func(a *topoArm) result {
				return result{err: errText(a.o.ReceiveData(a.reqID(-1, 0), id, reading, now))}
			})
		case r < 97:
			do(step, "export ghost", func(a *topoArm) result {
				_, err := a.o.ExportDevice("ghost")
				return result{err: errText(err)}
			})
		default:
			do(step, "next wake", func(a *topoArm) result {
				at, ok := a.o.NextWake()
				return result{text: fmt.Sprint(at, ok)}
			})
		}
	}
	// Let every request run out, so every arm's queues drain the same way.
	for i := 0; i < 12; i++ {
		now = now.Add(30 * time.Minute)
		do(topoSteps+i, "process due", func(a *topoArm) result { a.o.ProcessDue(now); return result{} })
		drain(topoSteps + i)
	}

	if len(ref.delivered) == 0 || ref.o.Stats().ReadingsRejected == 0 || ref.o.Stats().RequestsWaitlisted+ref.o.Stats().RequestsExpired == 0 {
		t.Fatalf("the sequence exercised too little: delivered %d, stats %+v", len(ref.delivered), ref.o.Stats())
	}
	t.Logf("%d submissions, %d dispatches, %d deliveries; stats %+v", len(ref.tasks), len(ref.dispatched), len(ref.delivered), ref.o.Stats())
	refJournal := ref.journalBytes(t)
	for _, a := range arms[1:] {
		if !a.exact {
			got, want := append([]topoCall(nil), a.delivered...), append([]topoCall(nil), ref.delivered...)
			sortCalls(got)
			sortCalls(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s delivered %d readings, %s %d; they differ", a.name, len(got), ref.name, len(want))
			}
			continue
		}
		if !reflect.DeepEqual(a.delivered, ref.delivered) {
			t.Errorf("%s delivered %v, %s %v", a.name, a.delivered, ref.name, ref.delivered)
		}
		if got := a.journalBytes(t); !reflect.DeepEqual(got, refJournal) {
			t.Errorf("%s journaled %d records, %s %d; first difference: %s", a.name, len(got), ref.name, len(refJournal), firstDiff(got, refJournal))
		}
		if got, want := a.o.Stats(), ref.o.Stats(); got != want {
			t.Errorf("%s stats %+v, %s %+v", a.name, got, ref.name, want)
		}
		if got, want := topoShard(t, a.o, 0).Snapshot(), topoShard(t, ref.o, 0).Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s snapshot differs from %s's", a.name, ref.name)
		}
	}

	// Each arm's journals, replayed shard by shard into a fresh
	// orchestrator of the same topology, rebuild the state it ended in.
	// The shards share one reputation tracker, so every shard replays
	// before any is compared.
	fresh := []*topoArm{newTopoServerArm(t), newTopoShardedArm(t, "one shard", nil), newTopoShardedArm(t, "regions", regions)}
	for k, a := range arms {
		for i, j := range a.journals {
			if _, err := topoShard(t, fresh[k].o, i).Recover(nil, jsonRoundTrip(t, j.records()), func(TaskID) DataSink { return nopSink }); err != nil {
				t.Fatalf("%s shard %d: recover: %v", a.name, i, err)
			}
		}
		for i := range a.journals {
			got, want := replayedState(topoShard(t, fresh[k].o, i).Snapshot()), replayedState(topoShard(t, a.o, i).Snapshot())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s shard %d: its journal replays to a different state: %s", a.name, i, snapshotDiff(want, got))
			}
		}
	}
}

// replayedState is a snapshot without the device fields recovery does
// not restore: state reports are not journaled (DESIGN.md §11, "What
// gets journaled"), so a device's position, battery and last contact
// come back as of its last journaled record, until its next report.
func replayedState(s SnapshotState) SnapshotState {
	for d := range s.Devices {
		s.Devices[d].Position, s.Devices[d].BatteryPct, s.Devices[d].LastComm = geo.Point{}, 0, time.Time{}
	}
	return s
}

func sortCalls(cs []topoCall) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return a.Value < b.Value
	})
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("record %d: got %s, want %s", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("one is a prefix of the other (%d vs %d records)", len(got), len(want))
}

// topoShard is an arm's shard i: a bare Server is its own only shard.
func topoShard(t *testing.T, o topoOrchestrator, i int) *Server {
	if ss, ok := o.(*ShardedServer); ok {
		sh, _, err := ss.Shard(i)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	return o.(*Server)
}

// snapshotDiff names the first field two snapshots differ in, with both
// values (the first differing element, for a list).
func snapshotDiff(want, got SnapshotState) string {
	w, g := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < w.NumField(); i++ {
		wf, gf := w.Field(i), g.Field(i)
		if reflect.DeepEqual(wf.Interface(), gf.Interface()) {
			continue
		}
		name := w.Type().Field(i).Name
		if wf.Kind() == reflect.Slice && wf.Len() == gf.Len() {
			for k := 0; k < wf.Len(); k++ {
				if !reflect.DeepEqual(wf.Index(k).Interface(), gf.Index(k).Interface()) {
					return fmt.Sprintf("%s[%d]: live %+v, replayed %+v", name, k, wf.Index(k).Interface(), gf.Index(k).Interface())
				}
			}
		}
		return fmt.Sprintf("%s: live %+v, replayed %+v", name, wf.Interface(), gf.Interface())
	}
	return "no field differs"
}
