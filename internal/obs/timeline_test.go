package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// refTimelineStore is the store as it was before events were packed: a
// []TimelineEvent per task. The differential test holds TimelineStore to
// it; dropped is the test's own tally of events discarded at the cap.
type refTimelineStore struct {
	maxTasks, maxEvents int

	mu      sync.Mutex
	tasks   map[string]*TaskTimeline
	order   []string
	dropped uint64
}

func newRefTimelineStore(maxTasks, maxEvents int) *refTimelineStore {
	if maxTasks <= 0 {
		maxTasks = 256
	}
	if maxEvents <= 0 {
		maxEvents = 512
	}
	return &refTimelineStore{maxTasks: maxTasks, maxEvents: maxEvents, tasks: make(map[string]*TaskTimeline)}
}

func (ts *refTimelineStore) Note(task, stage, detail string, at time.Time) {
	if task == "" {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tl := ts.getLocked(task)
	if len(tl.Events) >= ts.maxEvents {
		tl.Dropped++
		ts.dropped++
		return
	}
	i := len(tl.Events)
	for i > 0 && tl.Events[i-1].At.After(at) {
		i--
	}
	tl.Events = slices.Insert(tl.Events, i, TimelineEvent{Stage: stage, Detail: detail, At: at})
}

func (ts *refTimelineStore) Bind(task, traceID string) {
	if task == "" || traceID == "" {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.getLocked(task).TraceID = traceID
}

func (ts *refTimelineStore) getLocked(task string) *TaskTimeline {
	tl, ok := ts.tasks[task]
	if ok {
		return tl
	}
	if len(ts.tasks) >= ts.maxTasks && len(ts.order) > 0 {
		delete(ts.tasks, ts.order[0])
		ts.order = ts.order[1:]
	}
	tl = &TaskTimeline{TaskID: task}
	ts.tasks[task] = tl
	ts.order = append(ts.order, task)
	return tl
}

func (ts *refTimelineStore) Get(task string) (TaskTimeline, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tl, ok := ts.tasks[task]
	if !ok {
		return TaskTimeline{}, false
	}
	out := *tl
	out.Events = append([]TimelineEvent(nil), tl.Events...)
	return out, true
}

func (ts *refTimelineStore) Tasks() []string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]string, 0, len(ts.order))
	for i := len(ts.order) - 1; i >= 0; i-- {
		out = append(out, ts.order[i])
	}
	return out
}

// tasksJSON is what /tasks and /tasks?id= serve for every named task, as
// the admin server encodes it.
func tasksJSON(t *testing.T, tasks []string, get func(string) (TaskTimeline, bool), names []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"tasks": tasks}); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if tl, ok := get(name); ok {
			if err := enc.Encode(tl); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// TestTimelineStoreMatchesSliceStore drives the store and the slice
// store it replaced through the same seeded Note and Bind sequences —
// late events, equal times, stages outside the vocabulary, times in UTC,
// Local and fixed zones (more of them than the store interns), times
// Unix nanoseconds cannot hold, both caps and eviction — and requires equal Get
// and Tasks results, byte-equal /tasks JSON, and Stats that add up.
func TestTimelineStoreMatchesSliceStore(t *testing.T) {
	zones := []*time.Location{time.UTC, time.Local, time.FixedZone("X", 5*3600+1800), time.FixedZone("", -7*3600)}
	// More zones than the store interns kinds for.
	for i := 1; i <= 10; i++ {
		zones = append(zones, time.FixedZone(fmt.Sprintf("Z%d", i), i*900))
	}
	stages := append(timelineStages[:], "", "Submitted", "retry", "stage\x00with nul", strings.Repeat("long-stage-", 20))
	details := []string{"", "dev-1", "task-1#0", "requests=3", "task-1#2 devices=5", "héllo", strings.Repeat("d", 300)}
	base := time.Date(2026, 10, 17, 11, 42, 0, 123456789, time.UTC)
	configs := []struct{ maxTasks, maxEvents, tasks, ops int }{
		{1, 1, 3, 200},
		{2, 3, 4, 400},
		{4, 16, 6, 3000},
		{8, 7, 5, 2000},
		{0, 0, 300, 4000}, // the defaults: task eviction at 256
		{0, 0, 2, 3000},   // the defaults: the 512-event cap
	}
	for ci, cfg := range configs {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("config%d/seed%d", ci, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
				got, want := NewTimelineStore(cfg.maxTasks, cfg.maxEvents), newRefTimelineStore(cfg.maxTasks, cfg.maxEvents)
				names := []string{""}
				for i := 0; i < cfg.tasks; i++ {
					names = append(names, fmt.Sprintf("task-%d", i))
				}
				// A small pool of instants makes equal times common; a
				// wide jitter makes late events common.
				instants := []time.Time{time.Time{}, time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC), time.Date(9999, 12, 30, 23, 59, 59, 999999999, time.UTC)}
				for i := 0; i < 40; i++ {
					instants = append(instants, base.Add(time.Duration(rng.Int63n(int64(time.Hour)))-30*time.Minute))
				}
				for i := 0; i < cfg.ops; i++ {
					task := names[rng.Intn(len(names))]
					if rng.Intn(20) == 0 {
						trace := fmt.Sprintf("%032x", rng.Int63())
						got.Bind(task, trace)
						want.Bind(task, trace)
						continue
					}
					at := instants[rng.Intn(len(instants))].In(zones[rng.Intn(len(zones))])
					stage, detail := stages[rng.Intn(len(stages))], details[rng.Intn(len(details))]
					got.Note(task, stage, detail, at)
					want.Note(task, stage, detail, at)
				}
				if g, w := got.Tasks(), want.Tasks(); !reflect.DeepEqual(g, w) {
					t.Fatalf("Tasks = %v, want %v", g, w)
				}
				events := 0
				for _, name := range names {
					g, gok := got.Get(name)
					w, wok := want.Get(name)
					if gok != wok || !reflect.DeepEqual(g, w) {
						t.Fatalf("Get(%q) = %+v, %v; want %+v, %v", name, g, gok, w, wok)
					}
					events += len(g.Events)
				}
				if g, w := tasksJSON(t, got.Tasks(), got.Get, names), tasksJSON(t, want.Tasks(), want.Get, names); !bytes.Equal(g, w) {
					t.Fatalf("/tasks JSON differs:\n%s\nwant:\n%s", g, w)
				}
				st := got.Stats()
				if st.Events != events || st.Dropped != want.dropped {
					t.Fatalf("Stats = %+v, want %d events, %d dropped", st, events, want.dropped)
				}
			})
		}
	}
}

// TestTimelineKeepsWallTime: an event noted at time.Now() comes back
// the same instant in the same location; only the monotonic clock
// reading, which neither /tasks nor the ordering of events on a clock
// that is not stepped can see, is gone.
func TestTimelineKeepsWallTime(t *testing.T) {
	ts := NewTimelineStore(0, 0)
	now := time.Now()
	ts.Note("t", "uploaded", "d", now)
	tl, _ := ts.Get("t")
	if at := tl.Events[0].At; at != now.Round(0) || at.Location() != now.Location() {
		t.Fatalf("At = %v (%v), want %v (%v)", at, at.Location(), now.Round(0), now.Location())
	}
}

// TestTimelineEventSize pins the packed event's size: the bound DESIGN.md
// §7 states is 256 tasks x 512 events x this.
func TestTimelineEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Fatalf("event is %d bytes, want 32", n)
	}
}
