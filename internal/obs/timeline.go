package obs

import (
	"math"
	"slices"
	"sync"
	"time"
)

// TimelineEvent is one lifecycle step of a task: submitted, scheduled,
// selected, dispatched, uploaded, delivered (the stage vocabulary in
// span.go), with whatever detail the recording layer attaches (a
// request ID, a device ID, a count).
type TimelineEvent struct {
	Stage  string    `json:"stage"`
	Detail string    `json:"detail,omitempty"`
	At     time.Time `json:"at"`
}

// TaskTimeline is one task's recorded lifecycle.
type TaskTimeline struct {
	TaskID  string `json:"task_id"`
	TraceID string `json:"trace_id,omitempty"`
	// Dropped counts events discarded once the per-task cap was hit.
	Dropped int             `json:"dropped_events,omitempty"`
	Events  []TimelineEvent `json:"events"`
}

// TimelineStore keeps bounded per-task lifecycle timelines for the
// admin server's /tasks endpoint. Memory is bounded twice: at most
// maxTasks tasks (oldest evicted) and maxEvents events per task (the
// tail is counted, not stored), each held in a 32-byte event plus its
// detail (DESIGN.md §7). All methods are safe for concurrent use and
// no-ops on a nil receiver.
type TimelineStore struct {
	maxTasks  int
	maxEvents int

	mu      sync.Mutex
	tasks   map[string]*timeline
	order   []string // insertion order, oldest first
	kinds   map[kindKey]*eventKind
	held    int    // events held, over every timeline
	dropped uint64 // events discarded at the per-task cap, ever
}

// timeline is one task's TaskTimeline as the store holds it.
type timeline struct {
	traceID string
	dropped int
	events  []event // capacity never exceeds the store's maxEvents
}

// timelineStages is the stage vocabulary the recording layers note.
var timelineStages = [...]string{"submitted", "scheduled", "selected", "dispatched", "uploaded", "delivered"}

// maxKinds bounds the store's interned kinds: the vocabulary in a
// handful of time zones.
const maxKinds = 8 * len(timelineStages)

// event is one TimelineEvent in 32 bytes instead of 56. At is kept as
// Unix nanoseconds and its location, which rebuild it exactly except
// for the monotonic clock reading (so events are ordered by wall-clock
// time).
type event struct {
	at     int64      // At's Unix nanoseconds, unless kind.wide
	kind   *eventKind // the stage and At's location
	detail string
}

// eventKind is what events share: a vocabulary stage in one location,
// interned by the store. An event with any other stage, or whose time
// Unix nanoseconds cannot hold, or one past maxKinds, gets a kind of
// its own.
type eventKind struct {
	stage string
	loc   *time.Location
	wide  bool      // at holds At; the event's at is not used
	at    time.Time // At, without its monotonic clock reading, when wide
}

// maxNanoSec bounds the Unix seconds whose times UnixNano holds.
const maxNanoSec = math.MaxInt64 / int64(time.Second)

type kindKey struct {
	stage string
	loc   *time.Location
}

// newEventLocked packs one event, interning its kind when it can.
func (ts *TimelineStore) newEventLocked(stage, detail string, at time.Time) event {
	loc := at.Location()
	if sec := at.Unix(); sec <= -maxNanoSec || sec >= maxNanoSec {
		return event{detail: detail, kind: &eventKind{stage: stage, wide: true, at: at.Round(0)}}
	}
	ev := event{at: at.UnixNano(), detail: detail}
	key := kindKey{stage, loc}
	if ev.kind = ts.kinds[key]; ev.kind != nil {
		return ev
	}
	ev.kind = &eventKind{stage: stage, loc: loc}
	if len(ts.kinds) < maxKinds && slices.Contains(timelineStages[:], stage) {
		ts.kinds[key] = ev.kind
	}
	return ev
}

// time rebuilds the event's time.
func (e *event) time() time.Time {
	if e.kind.wide {
		return e.kind.at
	}
	return time.Unix(0, e.at).In(e.kind.loc)
}

// after reports whether e happened after o.
func (e *event) after(o *event) bool {
	if !e.kind.wide && !o.kind.wide {
		return e.at > o.at
	}
	return e.time().After(o.time())
}

// NewTimelineStore builds a store; non-positive limits take the
// defaults (256 tasks, 512 events each).
func NewTimelineStore(maxTasks, maxEvents int) *TimelineStore {
	if maxTasks <= 0 {
		maxTasks = 256
	}
	if maxEvents <= 0 {
		maxEvents = 512
	}
	return &TimelineStore{
		maxTasks:  maxTasks,
		maxEvents: maxEvents,
		tasks:     make(map[string]*timeline),
		kinds:     make(map[kindKey]*eventKind),
	}
}

// Note records one event in a task's timeline, creating the timeline
// (and evicting the oldest task if at capacity) as needed. Events stay
// in time order: one noted late — a push whose flush outcome arrived
// after later stages — is inserted at its place, after any event with
// the same time.
func (ts *TimelineStore) Note(task, stage, detail string, at time.Time) {
	if ts == nil || task == "" {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tl := ts.getLocked(task)
	if len(tl.events) >= ts.maxEvents {
		tl.dropped++
		ts.dropped++
		return
	}
	ev := ts.newEventLocked(stage, detail, at)
	i := len(tl.events)
	for i > 0 && tl.events[i-1].after(&ev) {
		i--
	}
	if len(tl.events) == cap(tl.events) {
		grown := make([]event, len(tl.events), min(max(2*cap(tl.events), 8), ts.maxEvents))
		copy(grown, tl.events)
		tl.events = grown
	}
	tl.events = slices.Insert(tl.events, i, ev)
	ts.held++
}

// Bind attaches a trace ID to a task's timeline so /tasks and /traces
// cross-reference.
func (ts *TimelineStore) Bind(task, traceID string) {
	if ts == nil || task == "" || traceID == "" {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.getLocked(task).traceID = traceID
}

func (ts *TimelineStore) getLocked(task string) *timeline {
	tl, ok := ts.tasks[task]
	if ok {
		return tl
	}
	if len(ts.tasks) >= ts.maxTasks && len(ts.order) > 0 {
		ts.held -= len(ts.tasks[ts.order[0]].events)
		delete(ts.tasks, ts.order[0])
		ts.order = ts.order[1:]
	}
	tl = &timeline{}
	ts.tasks[task] = tl
	ts.order = append(ts.order, task)
	return tl
}

// Get returns a copy of one task's timeline.
func (ts *TimelineStore) Get(task string) (TaskTimeline, bool) {
	if ts == nil {
		return TaskTimeline{}, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tl, ok := ts.tasks[task]
	if !ok {
		return TaskTimeline{}, false
	}
	out := TaskTimeline{TaskID: task, TraceID: tl.traceID, Dropped: tl.dropped}
	if len(tl.events) > 0 {
		out.Events = make([]TimelineEvent, len(tl.events))
		for i := range tl.events {
			ev := &tl.events[i]
			out.Events[i] = TimelineEvent{Stage: ev.kind.stage, Detail: ev.detail, At: ev.time()}
		}
	}
	return out, true
}

// Tasks returns the tracked task IDs, newest first.
func (ts *TimelineStore) Tasks() []string {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]string, 0, len(ts.order))
	for i := len(ts.order) - 1; i >= 0; i-- {
		out = append(out, ts.order[i])
	}
	return out
}

// TimelineStats is what a TimelineStore holds and has dropped.
type TimelineStats struct {
	Events  int    // events held, over every timeline
	Dropped uint64 // events discarded at the per-task cap since the store was built
}

// Stats reports the store's size.
func (ts *TimelineStore) Stats() TimelineStats {
	if ts == nil {
		return TimelineStats{}
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return TimelineStats{Events: ts.held, Dropped: ts.dropped}
}
