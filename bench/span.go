package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// A span is one timed call across a layer boundary, recorded by the
// harness around the call (the program itself is not instrumented).
// Spans of one request (socket workloads) or one tick (in-process
// workloads) share a trace number; parent is the id of the span that
// caused this one, 0 for a root.
type span struct {
	ID     uint32
	Parent uint32
	Trace  uint32
	Name   spanName
	Start  int64 // ns since the recorder's epoch
	End    int64
	// CPU is the thread CPU time the span consumed, in ns; 0 when the
	// tracer does not measure it. Wall minus CPU is time the span spent
	// waiting: for a lock, or for a processor.
	CPU int64
}

type spanName uint8

const (
	spTick spanName = iota + 1
	spProcessDue
	spDispatch
	spReceiveData
	spPersistAppend
	spAggIngest
	spSink
	spUpdateState
	spAggAdvance
	spPersistCommit
	spPersistLoad
	spRecover
	spRegister
	spRequest
	spScheduleRx
	spUploadRTT
	spDeliver
	spReportRTT
	spReportBatch
)

var spanNames = map[spanName]string{
	spTick:          "tick",
	spProcessDue:    "core.process_due",
	spDispatch:      "dispatch",
	spReceiveData:   "core.receive_data",
	spPersistAppend: "persist.append",
	spAggIngest:     "agg.ingest",
	spSink:          "sink",
	spUpdateState:   "core.update_state",
	spAggAdvance:    "agg.advance",
	spPersistCommit: "persist.commit",
	spPersistLoad:   "persist.load",
	spRecover:       "core.recover",
	spRegister:      "core.register",
	spRequest:       "request",
	spScheduleRx:    "gen.schedule_rx",
	spUploadRTT:     "gen.upload_rtt",
	spDeliver:       "gen.deliver",
	spReportRTT:     "gen.report_rtt",
	spReportBatch:   "gen.report_batch",
}

func (n spanName) String() string { return spanNames[n] }

// spanBuf collects the spans of one goroutine, so recording takes no
// lock. IDs are unique across buffers: the high byte is the buffer's
// lane.
type spanBuf struct {
	lane  uint32
	next  uint32
	epoch time.Time
	cpu   bool
	spans []span
}

// tracer hands out per-goroutine buffers. A nil tracer (the untraced
// run) hands out nil buffers, on which every method is a no-op.
type tracer struct {
	epoch time.Time
	cpu   bool
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newCPUTracer makes a tracer whose spans also record thread CPU time.
// Every goroutine that records on one of its lanes must stay locked to
// its OS thread (runtime.LockOSThread) from a span's begin to its end.
func newCPUTracer() *tracer { return &tracer{epoch: time.Now(), cpu: true} }

// threadCPU reads the calling thread's CPU clock.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// lane returns a fresh buffer; call it before starting the goroutine
// that will own it.
func (t *tracer) lane() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{lane: uint32(len(t.bufs)+1) << 24, epoch: t.epoch, cpu: t.cpu}
	t.bufs = append(t.bufs, b)
	return b
}

// begin opens a span and returns its index in the buffer; end closes it.
// The index, not a pointer, survives the slice growing.
func (b *spanBuf) begin(name spanName, trace, parent uint32) int {
	if b == nil {
		return -1
	}
	b.next++
	s := span{ID: b.lane | b.next, Parent: parent, Trace: trace, Name: name}
	if b.cpu {
		s.CPU = threadCPU() // the start reading; end turns it into a duration
	}
	s.Start = int64(time.Since(b.epoch))
	b.spans = append(b.spans, s)
	return len(b.spans) - 1
}

func (b *spanBuf) end(i int) {
	if b == nil {
		return
	}
	s := &b.spans[i]
	s.End = int64(time.Since(b.epoch))
	if b.cpu {
		s.CPU = threadCPU() - s.CPU
	}
}

// id is the span's ID, for use as a child's parent (0 on a nil buffer).
func (b *spanBuf) id(i int) uint32 {
	if b == nil {
		return 0
	}
	return b.spans[i].ID
}

// add records a span whose endpoints were measured elsewhere.
func (b *spanBuf) add(name spanName, trace, parent uint32, start, end time.Time) uint32 {
	if b == nil {
		return 0
	}
	b.next++
	id := b.lane | b.next
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(b.epoch)), End: int64(end.Sub(b.epoch)),
	})
	return id
}

// reset drops every lane, for a pass that is made again.
func (t *tracer) reset() {
	if t != nil {
		t.bufs = nil
	}
}

// all merges every lane; call it after the owning goroutines stopped.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// layerTimes is what the spans of one name add up to.
type layerTimes struct {
	Count int
	Self  int64 // wall ns not covered by child spans
	CPU   int64 // thread CPU ns not spent in child spans (0 if not measured)
}

// selfTimes sums, per span name, the self time of its spans. A span's
// self time is its duration minus the part of its interval that its
// child spans cover (overlapping children are merged, and a child is
// clipped to its parent's interval). Its self CPU is its CPU minus its
// children's: children run nested on the parent's thread, or on another
// thread whose CPU the parent's clock never counted; only children on
// the same lane are therefore subtracted.
func selfTimes(spans []span) map[spanName]layerTimes {
	out := make(map[spanName]layerTimes)
	children := make(map[uint32][]int)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	const laneMask = 0xff << 24
	for i := range spans {
		s := &spans[i]
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, kidCPU int64
		hi := s.Start
		for _, k := range kids {
			lo, end := spans[k].Start, spans[k].End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
			if spans[k].ID&laneMask == s.ID&laneMask {
				kidCPU += spans[k].CPU
			}
		}
		t := out[s.Name]
		t.Count++
		t.Self += dur - covered
		t.CPU += s.CPU - kidCPU
		out[s.Name] = t
	}
	return out
}

// writeSpans writes the spans as JSON lines:
// {"trace":..,"id":..,"parent":..,"name":"..","start_ns":..,"end_ns":..,"cpu_ns":..}.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(w, "{\"trace\":%d,\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"cpu_ns\":%d}\n",
			s.Trace, s.ID, s.Parent, s.Name.String(), s.Start, s.End, s.CPU)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
