// Package core implements the Sense-Aid server: the paper's primary
// contribution. It holds the task and device datastores, expands tasks
// into timed requests, runs the fairness-aware device selector
// (Score(i) = alpha*E_i + beta*U_i + gamma*(100-CBL_i) + phi*TTL_i with
// hard cutoffs), and drives the Algorithm 1 workflow over a run queue and
// a wait queue sorted by deadline.
//
// The package is substrate-agnostic: it sees devices as DeviceState
// snapshots and talks to them through a Dispatcher, so the same server
// core runs inside the discrete-event simulation (internal/sim) and behind
// the networked frontend (internal/netserver).
package core

import (
	"errors"
	"fmt"
	"time"

	"senseaid/internal/geo"
	"senseaid/internal/obs"
	"senseaid/internal/sensors"
)

// TaskID identifies a crowdsensing task.
type TaskID string

// Region is the name of the region whose shard minted the ID: everything
// before its first '/', or "" (the unnamed shard of a deployment without
// regions) when it has none. A request ID ("<task>#<seq>") names its
// task's region the same way; region names hold neither '/' nor '#'.
func (id TaskID) Region() string {
	for i := 0; i < len(id); i++ {
		switch id[i] {
		case '/':
			return string(id[:i])
		case '#':
			return ""
		}
	}
	return ""
}

// Task is a crowdsensing task as specified by a crowdsensing application
// server — the exact parameter set of the paper's Table 1.
type Task struct {
	// ID is assigned by the server when the task is submitted.
	ID TaskID `json:"id"`

	// ClientID is an optional caller-supplied identity that makes
	// submission idempotent: resubmitting the same ClientID with the same
	// spec returns the existing task's ID instead of minting a twin, so a
	// CAS that retries after a server restart cannot double-schedule.
	// Submitting the same ClientID with a different spec is an error.
	ClientID string `json:"client_id,omitempty"`
	// SpecSig is the canonical signature of the spec as submitted (before
	// normalization), recorded so a post-restart resubmit of a
	// duration-based spec still matches its restored task. Set by the
	// server; caller values are ignored.
	SpecSig string `json:"spec_sig,omitempty"`

	// Sensor is Table 1's sensor_type.
	Sensor sensors.Type `json:"sensor_type"`
	// SamplingPeriod is the gap between consecutive samples. Zero for
	// one-shot tasks.
	SamplingPeriod time.Duration `json:"sampling_period"`
	// SamplingDuration is how long sensing runs. If set, Start defaults
	// to submission time and End to Start+SamplingDuration (Table 1:
	// "one can either specify a sampling duration or a start and stop
	// time").
	SamplingDuration time.Duration `json:"sampling_duration"`
	// Start and End bound the sensing window.
	Start time.Time `json:"start_time"`
	End   time.Time `json:"end_time"`
	// Area is the circular region (Table 1: location + area_radius).
	Area geo.Circle `json:"area"`
	// SpatialDensity is the number of devices required in the area.
	SpatialDensity int `json:"spatial_density"`
	// DeviceType optionally restricts to one device model.
	DeviceType string `json:"device_type,omitempty"`

	// TraceID and RootSpan carry the task's trace context (hex, see
	// internal/obs) from submission through every scheduling pass, so
	// spans recorded rounds later still join the submit trace. Set by
	// the serving frontend; excluded from the idempotency signature,
	// because a resubmit after a reconnect legitimately carries a fresh
	// trace.
	TraceID  string `json:"trace_id,omitempty"`
	RootSpan string `json:"root_span,omitempty"`
}

// TraceContext rebuilds the task's trace context; the zero context when
// the task was submitted without one (or restored from an old journal).
func (t *Task) TraceContext() obs.TraceContext {
	return obs.ParseTraceContext(t.TraceID, t.RootSpan)
}

// OneShot reports whether the task wants a single round of samples
// (no period / no duration).
func (t *Task) OneShot() bool { return t.SamplingPeriod == 0 }

// Normalize resolves the duration-vs-window alternative against a
// submission time and validates the result.
func (t *Task) Normalize(submitted time.Time) error {
	if t.SamplingDuration > 0 {
		if t.Start.IsZero() {
			t.Start = submitted
		}
		t.End = t.Start.Add(t.SamplingDuration)
	}
	if t.Start.IsZero() {
		t.Start = submitted
	}
	if t.End.IsZero() && t.OneShot() {
		// A one-shot task needs no explicit end; its single request is
		// due at Start.
		t.End = t.Start
	}
	return t.Validate()
}

// Validate checks the task parameters.
func (t *Task) Validate() error {
	if !t.Sensor.Valid() {
		return fmt.Errorf("core: task %s: invalid sensor_type %d", t.ID, int(t.Sensor))
	}
	if t.SamplingPeriod < 0 {
		return fmt.Errorf("core: task %s: negative sampling_period", t.ID)
	}
	if t.SpatialDensity <= 0 {
		return fmt.Errorf("core: task %s: spatial_density must be >= 1, got %d", t.ID, t.SpatialDensity)
	}
	if t.Area.RadiusM <= 0 {
		return fmt.Errorf("core: task %s: area_radius must be positive, got %v", t.ID, t.Area.RadiusM)
	}
	if !t.Area.Center.Valid() {
		return fmt.Errorf("core: task %s: invalid area center %v", t.ID, t.Area.Center)
	}
	if t.End.Before(t.Start) {
		return fmt.Errorf("core: task %s: end_time %v before start_time %v", t.ID, t.End, t.Start)
	}
	if !t.OneShot() {
		if !t.End.After(t.Start) {
			return fmt.Errorf("core: task %s: periodic task with empty window", t.ID)
		}
		if n := t.End.Sub(t.Start) / t.SamplingPeriod; n > maxRequestsPerTask {
			return fmt.Errorf("core: task %s: window/period expands to %d requests (max %d)", t.ID, n, maxRequestsPerTask)
		}
	}
	return nil
}

// maxRequestsPerTask bounds one task's expansion. Without it a sampling
// period tiny relative to the window (a hostile submission, or a forged
// journal record) would make Expand iterate billions of times — a hang,
// which is as much a crash as a panic for the server and for journal
// replay. A week-long task sampling every 10 seconds is ~60k requests,
// comfortably inside the bound.
const maxRequestsPerTask = 100_000

// Request is one schedulable sensing round of a task: "a task lasting 60
// minutes with a 10-minute sampling period generates 6 requests".
type Request struct {
	Task *Task
	// Seq is the request's index within its task, starting at 0.
	Seq int
	// Due is when the samples should be taken.
	Due time.Time
	// Deadline is the latest useful completion time; the task handler
	// sorts queues by it and drops requests that pass it unserved.
	Deadline time.Time
}

// ID labels the request for logs.
func (r Request) ID() string { return fmt.Sprintf("%s#%d", r.Task.ID, r.Seq) }

// ErrTaskWindowEmpty is returned when expansion produces no requests.
var ErrTaskWindowEmpty = errors.New("core: task window produced no requests")

// Expand generates the task's requests. The deadline of each request is
// the next request's due time (or the task end for the last one), floored
// at one minute of slack so one-shot tasks are schedulable.
func (t *Task) Expand() ([]Request, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	const minSlack = time.Minute
	if t.OneShot() {
		dl := t.End
		if !dl.After(t.Start) {
			dl = t.Start.Add(minSlack)
		}
		return []Request{{Task: t, Seq: 0, Due: t.Start, Deadline: dl}}, nil
	}
	var reqs []Request
	for due := t.Start; due.Before(t.End); due = due.Add(t.SamplingPeriod) {
		// Validate bounds the expansion arithmetically, but its division
		// uses time.Sub, which saturates at ~292 years — an extreme window
		// can pass the check and still loop far past the bound (or forever,
		// if due.Add wraps). Enforce the cap on the loop itself.
		if len(reqs) >= maxRequestsPerTask {
			return nil, fmt.Errorf("core: task %s: expansion exceeded %d requests", t.ID, maxRequestsPerTask)
		}
		dl := due.Add(t.SamplingPeriod)
		if dl.After(t.End) {
			dl = t.End
		}
		if !dl.After(due) {
			dl = due.Add(minSlack)
		}
		reqs = append(reqs, Request{Task: t, Seq: len(reqs), Due: due, Deadline: dl})
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%w: task %s", ErrTaskWindowEmpty, t.ID)
	}
	return reqs, nil
}
