package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"senseaid/internal/core"
	"senseaid/internal/persist"
	"senseaid/internal/wire"
)

// Because the harness may not instrument the servers, a layer's share
// of their CPU is obtained by replaying what the traced run really
// moved through that layer's public functions, in this process, and
// timing it: captured frames through the codec, the run's journal
// through persist, the same fleet and tasks through the core.

// replayFloor is how long each replay loop runs at least; long enough
// for a stable mean, short next to the run itself. A variable so the
// smoke tests can shorten it.
var replayFloor = 150 * time.Millisecond

// wireCosts is the codec's measured cost on the run's own messages.
type wireCosts struct {
	encodeNs, decodeNs float64 // mean over the four frames of one upload
	allocsPerRoundtrip float64 // mallocs to encode and decode one frame
	bytesPerUpload     float64 // schedule + upload + ack + delivery
	serverNsPerUpload  float64 // what one upload costs a server: see below
	frames             int
}

// frameKind is one message shape on the upload path.
type frameKind struct {
	typ     wire.MsgType
	encode  func(i int) any
	decoded func() any
}

// replayWire encodes, frames, reads back and decodes the captured
// messages with the binary codec. A server's codec work for one upload
// is: encode the schedule, decode the upload, encode its ack, encode
// the delivery, plus its share of state reports (decode + ack).
func replayWire(f capturedFrames, reportsPerUpload float64) (wireCosts, error) {
	var out wireCosts
	n := len(f.uploads)
	if len(f.schedules) < n {
		n = len(f.schedules)
	}
	if len(f.delivered) < n {
		n = len(f.delivered)
	}
	if n == 0 {
		return out, fmt.Errorf("wire replay: the traced run captured no frames")
	}
	codec, err := wire.CodecByName("binary")
	if err != nil {
		return out, err
	}
	kinds := []frameKind{
		{wire.TypeSchedule, func(i int) any { return f.schedules[i%n] }, func() any { return new(wire.Schedule) }},
		{wire.TypeSenseData, func(i int) any { return f.uploads[i%n] }, func() any { return new(wire.SenseData) }},
		{wire.TypeAck, func(int) any { return wire.Ack{} }, func() any { return new(wire.Ack) }},
		{wire.TypeSensedData, func(i int) any { return f.delivered[i%n] }, func() any { return new(wire.SensedData) }},
	}
	if len(f.reports) > 0 {
		m := len(f.reports)
		kinds = append(kinds, frameKind{wire.TypeStateReport,
			func(i int) any { return f.reports[i%m] }, func() any { return new(wire.StateReport) }})
	}
	encNs := make([]float64, len(kinds))
	decNs := make([]float64, len(kinds))
	size := make([]float64, len(kinds))
	frames := make([][][]byte, len(kinds))
	var buf bytes.Buffer
	roundtrip := func(k, i int, keep bool) error {
		env, err := codec.Encode(kinds[k].typ, uint64(i+1), kinds[k].encode(i))
		if err != nil {
			return err
		}
		buf.Reset()
		if err := codec.WriteFrame(&buf, env); err != nil {
			return err
		}
		if keep {
			frames[k][i] = append([]byte(nil), buf.Bytes()...)
			size[k] += float64(buf.Len()) / float64(n)
		}
		return nil
	}
	decode := func(k, i int) error {
		env, err := codec.ReadFrame(bytes.NewReader(frames[k][i]))
		if err != nil {
			return err
		}
		if len(env.Payload) == 0 {
			return nil // an empty ack carries nothing to decode
		}
		return codec.Decode(env, kinds[k].decoded())
	}
	for k := range kinds {
		frames[k] = make([][]byte, n)
		reps, start := 0, time.Now()
		for time.Since(start) < replayFloor {
			for i := 0; i < n; i++ {
				if err := roundtrip(k, i, reps == 0); err != nil {
					return out, fmt.Errorf("wire replay: %w", err)
				}
			}
			reps++
		}
		encNs[k] = float64(time.Since(start)) / float64(reps*n)
		reps, start = 0, time.Now()
		for time.Since(start) < replayFloor {
			for i := 0; i < n; i++ {
				if err := decode(k, i); err != nil {
					return out, fmt.Errorf("wire replay: %w", err)
				}
			}
			reps++
		}
		decNs[k] = float64(time.Since(start)) / float64(reps*n)
	}
	// Allocations: one more pass over the four frames of every upload,
	// with nothing else running in this process.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for k := 0; k < 4; k++ {
		for i := 0; i < n; i++ {
			if err := roundtrip(k, i, false); err != nil {
				return out, fmt.Errorf("wire replay: %w", err)
			}
			if err := decode(k, i); err != nil {
				return out, fmt.Errorf("wire replay: %w", err)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	out.allocsPerRoundtrip = float64(ms1.Mallocs-ms0.Mallocs) / float64(4*n)
	out.frames = n
	for k := 0; k < 4; k++ {
		out.encodeNs += encNs[k] / 4
		out.decodeNs += decNs[k] / 4
		out.bytesPerUpload += size[k]
	}
	out.serverNsPerUpload = encNs[0] + decNs[1] + encNs[2] + encNs[3]
	if len(kinds) > 4 {
		out.serverNsPerUpload += reportsPerUpload * (decNs[4] + encNs[2])
	}
	return out, nil
}

// persistCosts is the journal's measured cost on the run's own records.
type persistCosts struct {
	appendUs         float64 // per record, JSON encoding included
	commitMs         float64 // snapshot of the recovered state
	loadMs           float64
	replayUsPerRec   float64
	records          int
	bytes            int64
	recoveredDevices int
}

// replayPersist loads the journals a run left in dirs (see recoverFrom),
// replays them into a fresh server, and appends the same records to a
// scratch store to time the append path the server took for each.
func replayPersist(dirs []string, scratch string, regions []core.Region, lane *spanBuf) (persistCosts, *recovery, error) {
	var out persistCosts
	rec, err := recoverFrom(dirs, regions, lane)
	if err != nil {
		return out, nil, err
	}
	out.records, out.bytes = rec.records, rec.bytes
	out.loadMs = float64(rec.load) / 1e6
	if rec.records > 0 {
		out.replayUsPerRec = float64(rec.replay) / 1e3 / float64(rec.records)
	}
	out.recoveredDevices = rec.standby.DeviceCount()

	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return out, nil, err
	}
	var appendNs time.Duration
	for i, r := range regions {
		st, err := persist.Open(scratch, r.Name)
		if err != nil {
			return out, nil, err
		}
		sh, _, err := rec.standby.Shard(i)
		if err != nil {
			return out, nil, err
		}
		sp := lane.begin(spPersistCommit, 0, 0)
		t0 := time.Now()
		_, err = st.Commit(snapshotPayload{Core: sh.Snapshot()})
		out.commitMs += float64(time.Since(t0)) / 1e6
		if sp >= 0 {
			lane.end(sp)
		}
		if err != nil {
			_ = st.Close()
			return out, nil, err
		}
		t0 = time.Now()
		for k := range rec.recsByRg[i] {
			if err := st.Append(rec.recsByRg[i][k]); err != nil {
				_ = st.Close()
				return out, nil, err
			}
		}
		appendNs += time.Since(t0)
		if err := st.Close(); err != nil {
			return out, nil, err
		}
	}
	if rec.records > 0 {
		out.appendUs = float64(appendNs) / 1e3 / float64(rec.records)
	}
	return out, rec, nil
}
