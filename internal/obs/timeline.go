package obs

import (
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
// tail is counted, not stored). All methods are safe for concurrent use
// and no-ops on a nil receiver.
type TimelineStore struct {
	maxTasks  int
	maxEvents int

	mu    sync.Mutex
	tasks map[string]*TaskTimeline
	order []string // insertion order, oldest first
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
		tasks:     make(map[string]*TaskTimeline),
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
	if len(tl.Events) >= ts.maxEvents {
		tl.Dropped++
		return
	}
	i := len(tl.Events)
	for i > 0 && tl.Events[i-1].At.After(at) {
		i--
	}
	tl.Events = slices.Insert(tl.Events, i, TimelineEvent{Stage: stage, Detail: detail, At: at})
}

// Bind attaches a trace ID to a task's timeline so /tasks and /traces
// cross-reference.
func (ts *TimelineStore) Bind(task, traceID string) {
	if ts == nil || task == "" || traceID == "" {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.getLocked(task).TraceID = traceID
}

func (ts *TimelineStore) getLocked(task string) *TaskTimeline {
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
	out := *tl
	out.Events = append([]TimelineEvent(nil), tl.Events...)
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
