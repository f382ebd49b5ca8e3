package core

import (
	"container/heap"
	"strings"
)

// requestQueue is a min-heap of requests ordered by deadline (the paper's
// run and wait queues are "both sorted by the deadline of the task"), with
// due time and sequence as tie-breakers for determinism. The run queue is
// keyed by due time first instead: ProcessDue takes everything due out of
// it at once and schedules that in deadline order (see processDueLocked).
type requestQueue struct {
	items []Request
	byDue bool
}

func (q *requestQueue) Len() int { return len(q.items) }

func (q *requestQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if q.byDue && !a.Due.Equal(b.Due) {
		return a.Due.Before(b.Due)
	}
	return cmpDeadline(a, b) < 0
}

// cmpDeadline orders requests by deadline, then due time, task and
// sequence.
func cmpDeadline(a, b Request) int {
	if c := a.Deadline.Compare(b.Deadline); c != 0 {
		return c
	}
	if c := a.Due.Compare(b.Due); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.Task.ID), string(b.Task.ID)); c != 0 {
		return c
	}
	return a.Seq - b.Seq
}

func (q *requestQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *requestQueue) Push(x interface{}) { q.items = append(q.items, x.(Request)) }

func (q *requestQueue) Pop() interface{} {
	old := q.items
	n := len(old)
	r := old[n-1]
	q.items = old[:n-1]
	return r
}

func (q *requestQueue) push(r Request) { heap.Push(q, r) }

func (q *requestQueue) pop() Request { return heap.Pop(q).(Request) }

func (q *requestQueue) peek() (Request, bool) {
	if len(q.items) == 0 {
		return Request{}, false
	}
	return q.items[0], true
}

// remove drops the request identified by (task, seq); reports whether it
// was present. Journal replay uses it to mirror the live pop/waitlist
// moves without re-running selection.
func (q *requestQueue) remove(id TaskID, seq int) bool {
	for i, r := range q.items {
		if r.Task.ID == id && r.Seq == seq {
			heap.Remove(q, i)
			return true
		}
	}
	return false
}

// removeTask drops every request belonging to a task (delete_task support).
func (q *requestQueue) removeTask(id TaskID) int {
	kept := q.items[:0]
	removed := 0
	for _, r := range q.items {
		if r.Task.ID == id {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	q.items = kept
	heap.Init(q)
	return removed
}
