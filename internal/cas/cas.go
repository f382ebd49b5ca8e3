// Package cas is the Sense-Aid server-side library for crowdsensing
// application servers. Its surface matches the paper's section 3.4
// exactly: Task (create a task from its Table 1 parameters),
// UpdateTaskParam, DeleteTask, and ReceiveSensedData (the callback invoked
// when validated crowdsensing data arrives for this server).
package cas

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"senseaid/internal/obs"
	"senseaid/internal/wire"
)

// DataHandler receives validated readings for this CAS's tasks.
type DataHandler func(wire.SensedData)

// AggHandler receives closed aggregation windows for one subscription.
type AggHandler func(wire.AggWindow)

// aggBacklogCap bounds pushes held for subscription ids we have not seen
// an ack for yet (a routed push can outrun the router's fan-out ack).
const aggBacklogCap = 256

// CAS is a connected crowdsensing application server.
type CAS struct {
	conn *wire.RPCConn

	mu         sync.Mutex
	handler    DataHandler
	backlog    []wire.SensedData
	aggSubs    map[string]AggHandler
	aggBacklog []wire.AggPush
}

// DialCodec is Dial with a codec name: "", "binary" or "v2", which all
// mean binary, the only codec; anything else is an error. It is kept
// only until the benchmark harness (bench/) stops calling it.
func DialCodec(addr, codec string) (*CAS, error) {
	if _, err := wire.CodecByName(codec); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	return Dial(addr)
}

// Dial connects a CAS to the Sense-Aid server.
func Dial(addr string) (*CAS, error) {
	if addr == "" {
		return nil, fmt.Errorf("cas: empty server address")
	}
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("cas: dial %s: %w", addr, err)
	}
	c := &CAS{}
	rc, err := wire.NewRPCConn(nc, wire.RoleCAS, c.onPush)
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	c.conn = rc
	return c, nil
}

func (c *CAS) onPush(env wire.Envelope) {
	switch env.Type {
	case wire.TypeSensedData:
		var sd wire.SensedData
		if err := wire.Decode(env, &sd); err != nil {
			return
		}
		c.mu.Lock()
		h := c.handler
		if h == nil {
			c.backlog = append(c.backlog, sd)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		h(sd)
	case wire.TypeAggPush:
		var p wire.AggPush
		if err := wire.Decode(env, &p); err != nil {
			return
		}
		c.mu.Lock()
		h, ok := c.aggSubs[p.Sub]
		if !ok {
			// The subscription ack has not landed yet (possible when a
			// router's fan-out races a worker's first window). Hold the
			// push; SubscribeAgg replays it once the id is known.
			if len(c.aggBacklog) < aggBacklogCap {
				c.aggBacklog = append(c.aggBacklog, p)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		for _, w := range p.Windows {
			h(w)
		}
	}
}

// Task submits a crowdsensing task and returns its server-assigned ID.
//
// A CAS that traces its own requests may set spec.TraceID/SpanID: the
// server adopts that identity for its end-to-end task trace, and every
// delivered reading (wire.SensedData) comes back carrying the same
// trace ID, so the application can correlate its submission with each
// arriving value. Left empty, the server mints its own trace.
func (c *CAS) Task(spec wire.TaskSpec) (string, error) {
	if spec.TraceID != "" {
		if _, ok := obs.ParseTraceID(spec.TraceID); !ok {
			return "", fmt.Errorf("cas: malformed trace_id %q (want 32 hex digits)", spec.TraceID)
		}
	}
	ack, err := c.conn.Call(wire.TypeSubmitTask, spec)
	if err != nil {
		return "", err
	}
	if ack.Ref == "" {
		return "", fmt.Errorf("cas: server returned no task ID")
	}
	return ack.Ref, nil
}

// UpdateTaskParam changes parameters of an existing task; zero fields are
// left as they are.
func (c *CAS) UpdateTaskParam(u wire.UpdateTask) error {
	if u.TaskID == "" {
		return fmt.Errorf("cas: empty task ID")
	}
	_, err := c.conn.Call(wire.TypeUpdateTask, u)
	return err
}

// DeleteTask removes a task from the system.
func (c *CAS) DeleteTask(taskID string) error {
	if taskID == "" {
		return fmt.Errorf("cas: empty task ID")
	}
	_, err := c.conn.Call(wire.TypeDeleteTask, wire.DeleteTask{TaskID: taskID})
	return err
}

// ReceiveSensedData installs the data callback; readings that arrived
// before it are replayed in order.
func (c *CAS) ReceiveSensedData(h DataHandler) error {
	if h == nil {
		return fmt.Errorf("cas: nil data handler")
	}
	c.mu.Lock()
	c.handler = h
	backlog := c.backlog
	c.backlog = nil
	c.mu.Unlock()
	for _, sd := range backlog {
		h(sd)
	}
	return nil
}

// SubscribeAgg opens a live aggregation subscription: every time the
// server closes a window matching the filter (a task id, a region, or
// everything when both are empty), the handler receives that window's
// rollup — count, mean, min/max, p50/p99, and freshness — without the
// CAS having to consume or re-aggregate the raw delivery stream. The
// returned id names the subscription; across a router it joins the
// per-region ids the fan-out produced ("agg-1,agg-2"), and pushes from
// every region are dispatched to this handler. Handlers run on the
// connection's push goroutine and must not block.
func (c *CAS) SubscribeAgg(sub wire.SubscribeAgg, h AggHandler) (string, error) {
	if h == nil {
		return "", fmt.Errorf("cas: nil aggregate handler")
	}
	ack, err := c.conn.Call(wire.TypeSubscribeAgg, sub)
	if err != nil {
		return "", err
	}
	if ack.Ref == "" {
		return "", fmt.Errorf("cas: server returned no subscription id")
	}
	c.mu.Lock()
	if c.aggSubs == nil {
		c.aggSubs = make(map[string]AggHandler)
	}
	for _, id := range strings.Split(ack.Ref, ",") {
		c.aggSubs[id] = h
	}
	var replay []wire.AggPush
	kept := c.aggBacklog[:0]
	for _, p := range c.aggBacklog {
		if _, ok := c.aggSubs[p.Sub]; ok {
			replay = append(replay, p)
		} else {
			kept = append(kept, p)
		}
	}
	c.aggBacklog = kept
	c.mu.Unlock()
	for _, p := range replay {
		for _, w := range p.Windows {
			h(w)
		}
	}
	return ack.Ref, nil
}

// Done is closed when the connection to the server dies — a read or
// write fault, the server restarting, or an explicit Close. Owners watch
// it to redial and resubmit their tasks (idempotent when the specs carry
// a ClientTaskID).
func (c *CAS) Done() <-chan struct{} { return c.conn.Done() }

// Close disconnects the CAS.
func (c *CAS) Close() error { return c.conn.Close() }
