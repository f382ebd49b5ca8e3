// Package netserver exposes the Sense-Aid server core over TCP using the
// wire protocol. It is the deployable face of the middleware: devices
// connect with the client library (internal/client), crowdsensing
// application servers with the CAS library (internal/cas), and the server
// orchestrates scheduling over real time.
package netserver

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"senseaid/internal/agg"
	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/obs"
	"senseaid/internal/privacy"
	"senseaid/internal/sensors"
	"senseaid/internal/simclock"
	"senseaid/internal/wire"
)

// Config parameterises the networked server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7117".
	Addr string
	// Core configures the scheduling core; zero value uses defaults.
	Core core.ServerConfig
	// Regions, when non-empty, boots a sharded deployment: one core
	// instance per geographic region (the paper's per-edge physical
	// instantiation), with devices homed to the shard covering their
	// position and tasks routed to the shard covering their area. Task
	// IDs returned to application servers carry the owning region
	// ("west/task-1") and route by it. Empty runs one unnamed shard that
	// covers every point, with bare task IDs ("task-1") and one state
	// store named "core".
	Regions []core.Region
	// Clock supplies time (tests inject a simulated clock for
	// deterministic scheduling assertions; production uses real time).
	Clock simclock.Clock
	// TickPeriod is how often the scheduler loop runs ProcessDue.
	// Default 500 ms.
	TickPeriod time.Duration
	// HandshakeTimeout bounds how long a fresh connection may take to
	// complete the hello exchange; a peer that connects and says
	// nothing is cut loose instead of pinning a goroutine for the
	// process lifetime. Default 10 s; negative disables.
	HandshakeTimeout time.Duration
	// IdleTimeout disconnects a device connection that sends nothing
	// for this long. Device traffic is periodic by design (the service
	// thread reports every minute), so a silent device is a dead radio
	// link whose TCP state never noticed. Default 10 min; negative
	// disables. CAS connections are exempt: their inbound side is
	// legitimately sparse, and a dead CAS is detected at write time
	// when a delivery fails.
	IdleTimeout time.Duration
	// WriteTimeout bounds every frame write to a peer; a stalled peer
	// surfaces as a send error instead of wedging the writer. Default
	// 5 s.
	WriteTimeout time.Duration
	// MaxWireVersion caps the protocol revision the server will
	// negotiate: 1 pins every connection to the v1 JSON codec, 2 (the
	// default when zero) lets peers that ask for it use the v2 binary
	// codec. Versions outside {1, 2} in a peer's Hello are rejected
	// either way.
	MaxWireVersion int
	// RPCWorkers bounds how many RPC handlers run concurrently across
	// all connections (per-connection ordering is preserved). 0 sizes
	// the pool from the CPU count; negative disables the pool and runs
	// handlers inline in each connection's read loop.
	RPCWorkers int
	// RPCQueue is the pending-handler queue depth behind the worker
	// pool; when it stays full past a short backpressure wait the
	// message is shed with an error reply (senseaid_rpc_shed_total).
	// 0 means 8x RPCWorkers.
	RPCQueue int
	// WrapConn, when set, wraps every accepted connection before the
	// server reads from it — the fault-injection hook the resilience
	// tests use (see internal/faultconn). Nil in production.
	WrapConn func(net.Conn) net.Conn
	// Logger receives operational messages; nil discards them.
	Logger *log.Logger
	// LogLevel filters Logger output (errors always pass; LevelInfo adds
	// lifecycle events, LevelDebug adds per-message traffic).
	LogLevel obs.Level
	// Metrics receives the transport and core series. Nil uses a fresh
	// private registry; production passes obs.Default() so the admin
	// endpoint sees them.
	Metrics *obs.Registry
	// PseudonymSecret, when set (>= 8 bytes), hides device identities
	// from application servers: readings are delivered under stable
	// per-task pseudonyms instead of device IDs (the paper's privacy
	// stance — "no per-device data need to be made visible to the
	// crowdsensing application server").
	PseudonymSecret []byte
	// StateDir, when set, makes the server durable: scheduling state is
	// snapshotted there and every mutation journaled between snapshots,
	// so a crash-restarted server resumes its campaigns instead of
	// forgetting them. Empty runs in-memory only. Sharded deployments
	// keep one snapshot+journal pair per region in the same directory.
	StateDir string
	// StateRecover, with StateDir, moves corrupt state files aside
	// (suffix ".corrupt") and starts fresh instead of refusing to start.
	// Off by default: silently discarding state is an operator decision.
	StateRecover bool
	// SnapshotInterval is how often the durable server folds its journal
	// into a fresh snapshot. Default 1 minute; negative disables the
	// periodic loop (snapshots still happen at boot and clean shutdown).
	SnapshotInterval time.Duration
	// Tracer records request traces end to end: a root span per task
	// submission, dispatch/deliver spans in the transport, and the
	// core's schedule/select/upload spans, all joined by wire-propagated
	// context. Nil builds a default tracer on Metrics (sample
	// everything, 500ms slow threshold); production passes its own so
	// the admin /traces endpoint shares it.
	Tracer *obs.Tracer
	// Timeline receives per-task lifecycle events for the admin /tasks
	// endpoint. Nil builds a default store.
	Timeline *obs.TimelineStore
	// AggWindow is the live-aggregation tier's base window (DESIGN.md
	// §15): validated uploads are folded into per-(task, region, cell)
	// rollups that stream to subscribe_agg subscribers as windows close.
	// 0 uses the default (one minute); negative disables the tier.
	AggWindow time.Duration
	// AggRetention is how many closed base windows each aggregation
	// series retains — the cap on a subscription's Span and on how much
	// window history survives a restart via the state directory. 0 uses
	// the default (5).
	AggRetention int
}

// Server is a running networked Sense-Aid server. The scheduling core
// owns its own concurrency (see core.ShardedServer), so the transport
// layer holds no lock across core calls: RPCs on different connections
// and the scheduler tick proceed in parallel, serialising only inside
// the core where they actually conflict.
type Server struct {
	cfg     Config
	ln      net.Listener
	clock   simclock.Clock
	log     *obs.Logger
	met     *netMetrics
	started time.Time
	core    *core.ShardedServer
	pseudo  *privacy.Pseudonymizer

	// pers manages the state stores when Config.StateDir is set; nil
	// otherwise. recovery is what boot-time recovery found — immutable
	// once Listen returns.
	pers     *persister
	recovery RecoveryInfo

	tracer   *obs.Tracer
	timeline *obs.TimelineStore

	// pool bounds concurrent RPC handling; nil runs handlers inline
	// (Config.RPCWorkers < 0).
	pool *workerPool

	// agg is the live-aggregation tier, fed from the core's delivery tap;
	// nil when Config.AggWindow is negative. aggSubs maps each subscribed
	// connection to its tier subscription ids so a disconnect drops them.
	// aggMu guards only the map — never held across a tier call or a
	// socket write.
	agg     *agg.Tier
	aggMu   sync.Mutex
	aggSubs map[*conn][]uint64

	// replayBuf holds the last few undeliverable readings per task so a
	// CAS reclaiming the task after a reconnect receives what it missed
	// (see replay.go). Guarded by replayMu; bounded per task and
	// globally.
	replayMu    sync.Mutex
	replayBuf   map[core.TaskID][]replayEntry
	replayTotal int

	// connMu guards only the connection fan-out maps — pure transport
	// bookkeeping, never held across a core call or a socket write.
	connMu  sync.Mutex
	conns   map[*conn]bool   // every accepted connection, for shutdown
	devices map[string]*conn // device ID -> connection
	// devGen counts connection bindings per device ID. The dispatch path
	// captures the (conn, generation) pair in one connMu hold; a failure
	// callback that later finds a *different* generation knows the device
	// redialed mid-dispatch and retries on the live connection instead of
	// reporting a healthy device as unresponsive.
	devGen map[string]uint64
	// enrolled is the server's router enrollment (Enroll), closed with
	// the server; nil when it runs standalone.
	enrolled *enrollment
	taskCAS  map[core.TaskID]*conn // task -> submitting CAS connection
	// taskTrace remembers each live task's trace context for the
	// delivery path (the DataSink signature carries no context).
	// Entries live and die with taskCAS entries.
	taskTrace map[core.TaskID]obs.TraceContext

	wg      sync.WaitGroup
	done    chan struct{}
	closeMu sync.Once
}

// conn is one peer session. Until the Hello exchange finishes it writes
// raw v1 JSON frames under writeMu; once the codec is negotiated all
// writes go through the coalescer, which serialises them and batches
// pushes into shared syscalls.
//
// A session relayed by a router is a stream of the router's link
// (link.go) instead of a socket of its own: stream is its id, its
// frames arrive on inbox, fed by the link's reader, and leave through
// the link's coalescer (co) tagged with the id; ended closes when the
// stream does. nc is then the link's socket, and br is unused.
type conn struct {
	nc           net.Conn
	br           *bufio.Reader
	codec        wire.Codec
	co           *wire.Coalescer
	writeTimeout time.Duration
	writeMu      sync.Mutex

	stream  uint64
	inbox   chan wire.Envelope
	ended   chan struct{}
	endOnce sync.Once
	idle    *time.Timer // the stream's idle deadline, reused across reads
}

// send writes one frame that the peer is waiting on (a response): it
// flushes immediately, carrying along any coalesced pushes.
func (c *conn) send(t wire.MsgType, seq uint64, payload interface{}) error {
	env, err := c.codec.Encode(t, seq, payload)
	if err != nil {
		return err
	}
	if c.co != nil {
		return c.write(env, true, nil)
	}
	// Pre-negotiation: the Hello exchange is always v1 JSON framing.
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
		return fmt.Errorf("netserver: set deadline: %w", err)
	}
	return wire.WriteFrame(c.nc, env)
}

// notify queues one server-initiated push. done fires exactly once with
// the frame's outcome. The push rides the coalescer's next shared flush
// — the next response's, or the deferred flusher's once the pushing
// goroutine has yielded (wire.Coalescer).
func (c *conn) notify(t wire.MsgType, payload interface{}, done func(error)) {
	env, err := c.codec.Encode(t, 0, payload)
	if err != nil {
		done(err)
		return
	}
	_ = c.write(env, false, done)
}

// write hands one encoded frame to the coalescer. A stream that has
// ended refuses it without writing it.
func (c *conn) write(env wire.Envelope, urgent bool, done func(error)) error {
	if c.stream != 0 {
		select {
		case <-c.ended:
			if done != nil {
				done(wire.ErrClosed)
			}
			return wire.ErrClosed
		default:
		}
		env = env.OnStream(c.stream)
	}
	return c.co.Send(env, urgent, done)
}

// read returns the session's next frame. A device session passes its
// idle timeout: a read that waits longer fails with a timeout error
// (isTimeout), on a socket by its read deadline and on a stream by a
// timer, since a stream has no deadline of its own.
func (c *conn) read(idle time.Duration) (wire.Envelope, error) {
	if c.stream == 0 {
		if idle > 0 {
			_ = c.nc.SetReadDeadline(time.Now().Add(idle))
		}
		return c.codec.ReadFrame(c.br)
	}
	var expired <-chan time.Time
	if idle > 0 {
		if c.idle == nil {
			c.idle = time.NewTimer(idle)
		} else {
			c.idle.Reset(idle)
		}
		expired = c.idle.C
	}
	select {
	case env := <-c.inbox:
		if expired != nil && !c.idle.Stop() {
			// Fired as the frame arrived: drain it, or the next read's
			// Reset would find a stale expiry waiting.
			select {
			case <-c.idle.C:
			default:
			}
		}
		return env, nil
	case <-c.ended:
		if expired != nil {
			c.idle.Stop()
		}
		return wire.Envelope{}, io.EOF
	case <-expired:
		return wire.Envelope{}, os.ErrDeadlineExceeded
	}
}

// close ends the session: a socket closes, which unblocks its read
// loop; a stream ends, which does the same for its loop and tells the
// router.
func (c *conn) close() {
	if c.stream == 0 {
		_ = c.nc.Close()
		return
	}
	c.endOnce.Do(func() { close(c.ended) })
}

func (c *conn) sendErr(seq uint64, err error) {
	// Best effort: the peer may already be gone.
	_ = c.send(wire.TypeError, seq, wire.Error{Message: err.Error()})
}

// Listen starts a server on cfg.Addr.
func Listen(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.RealClock{}
	}
	if cfg.TickPeriod <= 0 {
		cfg.TickPeriod = 500 * time.Millisecond
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 10 * time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	if cfg.MaxWireVersion == 0 {
		cfg.MaxWireVersion = wire.ProtocolVersionBinary
	}
	if cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = time.Minute
	}
	if cfg.Core.Selector == (core.SelectorConfig{}) {
		cfg.Core = core.DefaultServerConfig()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cfg.Core.Metrics = reg
	logger := obs.NewLogger(cfg.Logger, cfg.LogLevel)
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(obs.TracerConfig{Registry: reg, Logger: logger})
	}
	if cfg.Timeline == nil {
		cfg.Timeline = obs.NewTimelineStore(0, 0)
	}
	// The core shares the frontend's tracer and timeline, so one trace
	// spans both layers (a region's shard tags its spans with the region).
	cfg.Core.Tracer = cfg.Tracer
	cfg.Core.Timeline = cfg.Timeline

	s := &Server{
		cfg:       cfg,
		clock:     cfg.Clock,
		log:       logger,
		met:       newNetMetrics(reg),
		started:   time.Now(),
		tracer:    cfg.Tracer,
		timeline:  cfg.Timeline,
		conns:     make(map[*conn]bool),
		devices:   make(map[string]*conn),
		devGen:    make(map[string]uint64),
		taskCAS:   make(map[core.TaskID]*conn),
		taskTrace: make(map[core.TaskID]obs.TraceContext),
		replayBuf: make(map[core.TaskID][]replayEntry),
		done:      make(chan struct{}),
	}
	if len(cfg.PseudonymSecret) > 0 {
		p, err := privacy.NewPseudonymizer(cfg.PseudonymSecret)
		if err != nil {
			return nil, err
		}
		s.pseudo = p
	}
	if cfg.AggWindow >= 0 {
		s.agg = agg.New(agg.Config{
			Window:    cfg.AggWindow,
			Retention: cfg.AggRetention,
			Clock:     cfg.Clock,
		})
		s.aggSubs = make(map[*conn][]uint64)
		// The tap runs on every accepted upload, after the core's
		// scheduling lock is released; Ingest is allocation-free in steady
		// state, so the hot path cost is one map probe and scalar updates.
		tier := s.agg
		s.cfg.Core.AggTap = func(task core.TaskID, region, _ string, r sensors.Reading) {
			tier.Ingest(string(task), region, r)
		}
	}
	if cfg.StateDir != "" {
		// Routed before the core exists: the core captures its
		// per-shard journal sinks at construction time.
		if err := s.initPersistence(); err != nil {
			return nil, err
		}
	}
	c, err := core.NewShardedServer(s.cfg.Core, core.DispatcherFunc(s.dispatch), cfg.Regions)
	if err != nil {
		return nil, err
	}
	s.core = c

	if s.pers != nil {
		// Recovery runs to completion before the listener exists: no
		// connection can observe (or journal against) half-restored state.
		if err := s.pers.bindCores(); err != nil {
			return nil, err
		}
		info, err := s.pers.recover()
		if err != nil {
			s.pers.closeStores(false)
			return nil, err
		}
		s.recovery = info
		s.met.noteRecovery(info)
		s.log.Infof("state dir %s: restarts %d, replayed %d records (%s)",
			cfg.StateDir, info.Restarts, info.Replayed, info.Outcome)
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if s.pers != nil {
			s.pers.closeStores(false)
		}
		return nil, fmt.Errorf("netserver: listen %s: %w", cfg.Addr, err)
	}
	s.ln = ln

	// The pool starts only once nothing can fail anymore: its workers
	// live until shutdown closes the queue.
	if cfg.RPCWorkers >= 0 {
		s.pool = newWorkerPool(cfg.RPCWorkers, cfg.RPCQueue, 0, s.met.rpcShed)
	}

	s.wg.Add(2)
	go s.acceptLoop()
	go s.tickLoop()
	if s.agg != nil {
		s.wg.Add(1)
		go s.aggLoop()
	}
	if s.pers != nil && s.cfg.SnapshotInterval > 0 {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns the core's counters (the core's read-side API is
// concurrency-safe).
func (s *Server) Stats() core.Stats { return s.core.Stats() }

// Orchestrator exposes the scheduling core the server fronts: one shard
// per region of Config.Regions, or one unnamed shard without regions.
func (s *Server) Orchestrator() *core.ShardedServer { return s.core }

// Metrics returns the registry carrying this server's series.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// Tracer returns the server's request tracer (for the admin /traces
// endpoint).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Timeline returns the server's task lifecycle store (for the admin
// /tasks endpoint).
func (s *Server) Timeline() *obs.TimelineStore { return s.timeline }

// Status is a point-in-time operational summary for /statusz.
type Status struct {
	Addr          string  `json:"addr"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	DeviceConns   int     `json:"device_connections"`
	// LiveTasks counts tasks with a connected CAS; CoreTasks counts every
	// stored task. After a restart the two differ until the application
	// servers reconnect and reclaim their tasks.
	LiveTasks        int          `json:"live_tasks"`
	CoreTasks        int          `json:"core_tasks"`
	Core             core.Stats   `json:"core"`
	SelectionsKept   int          `json:"selections_kept"`
	SelectionsLost   uint64       `json:"selections_dropped"`
	PseudonymsActive bool         `json:"pseudonyms_active"`
	Recovery         RecoveryInfo `json:"recovery"`
}

// Status snapshots the server for the admin endpoint.
func (s *Server) Status() Status {
	s.connMu.Lock()
	devConns := len(s.devices)
	liveTasks := len(s.taskCAS)
	s.connMu.Unlock()
	return Status{
		Addr:             s.Addr(),
		UptimeSeconds:    time.Since(s.started).Seconds(),
		DeviceConns:      devConns,
		LiveTasks:        liveTasks,
		CoreTasks:        s.core.TaskCount(),
		Core:             s.core.Stats(),
		SelectionsKept:   len(s.core.Selections()),
		SelectionsLost:   s.core.SelectionsDropped(),
		PseudonymsActive: s.pseudo != nil,
		Recovery:         s.recovery,
	}
}

// Close shuts the server down and waits for its goroutines. On a
// durable server this is the graceful drain: once every handler has
// stopped, a final snapshot captures the complete state and the journal
// is fsynced, so the next start replays nothing.
func (s *Server) Close() error {
	return s.shutdown(true)
}

// closeAbrupt stops the server without the final snapshot or journal
// sync — the in-process stand-in for kill -9 that the crash-recovery
// tests use. Appended journal bytes are already in the kernel page
// cache (they survive a process kill); only an OS-level crash loses
// them, and the torn-tail truncation covers that.
func (s *Server) closeAbrupt() error {
	return s.shutdown(false)
}

func (s *Server) shutdown(graceful bool) error {
	var err error
	s.closeMu.Do(func() {
		close(s.done)
		err = s.ln.Close()
		// Every accepted connection is tracked from accept to serveConn
		// exit, so shutdown cannot hang on a peer that never registered
		// (mid-handshake, or a CAS with no live tasks).
		s.connMu.Lock()
		for c := range s.conns {
			_ = c.nc.Close()
		}
		enrolled := s.enrolled
		s.connMu.Unlock()
		if enrolled != nil {
			enrolled.close()
		}
		s.wg.Wait()
		// Every connection goroutine has exited, so nothing can submit to
		// the pool anymore; drain the workers before touching state.
		if s.pool != nil {
			s.pool.close()
		}
		if s.pers != nil {
			if graceful {
				// All handlers have exited, so this snapshot is the complete
				// final state.
				s.pers.snapshotAll()
			}
			s.pers.closeStores(graceful)
		}
	})
	return err
}

// Recovery reports what boot-time recovery found; the zero value means
// the server runs without a state directory.
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.log.Errorf("accept: %v", err)
			continue
		}
		if s.cfg.WrapConn != nil {
			nc = s.cfg.WrapConn(nc)
		}
		c := &conn{
			nc:           nc,
			br:           wire.NewReader(nc, wire.SessionReadBuf),
			codec:        wire.JSON,
			writeTimeout: s.cfg.WriteTimeout,
		}
		s.connMu.Lock()
		s.conns[c] = true
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, c)
				s.connMu.Unlock()
			}()
			s.serveConn(c)
		}()
	}
}

// tickLoop drives the core's scheduling over the injected clock. Both
// the timestamps *and* the sleeps come from Config.Clock — a wall-time
// ticker here would stamp simulated time onto wall-paced ticks, so a
// test advancing a simulated clock by an hour would still wait real
// seconds for the next tick to notice. Between passes the loop sleeps
// to the core's own NextWake when that is sooner than the tick period,
// so a request due in 20 ms is processed in 20 ms, not up to a full
// period late. The core locks internally, so a long scheduling pass
// never blocks RPC handling at the transport layer.
func (s *Server) tickLoop() {
	defer s.wg.Done()
	for {
		d := s.cfg.TickPeriod
		if next, ok := s.core.NextWake(); ok {
			if until := next.Sub(s.clock.Now()); until < d {
				d = until
				if d < time.Millisecond {
					d = time.Millisecond
				}
			}
		}
		select {
		case <-s.done:
			return
		case <-simclock.After(s.clock, d):
			s.core.ProcessDue(s.clock.Now())
		}
	}
}

// dispatch pushes a schedule to the selected device's connection. The
// core invokes it outside its scheduling lock (and, with regions, from
// concurrent per-shard goroutines); the conn lookup takes connMu only
// for the map read, and the write serialises on the conn's own lock.
func (s *Server) dispatch(req core.Request, dev core.DeviceState) {
	span := s.tracer.StartSpan(req.Task.TraceContext(), obs.StageDispatch, "")
	s.connMu.Lock()
	c, ok := s.devices[dev.ID]
	gen := s.devGen[dev.ID]
	s.connMu.Unlock()
	if !ok {
		// The core selected a device whose connection is gone. Without
		// the failure report it would believe the request pending until
		// its deadline; with it, the device is marked unresponsive and
		// the next round selects a replacement.
		s.log.Debugf("dispatch %s: device %s not connected", req.ID(), dev.ID)
		s.core.NoteDispatchFailure(req.ID(), dev.ID)
		span.FinishErr(fmt.Errorf("device %s not connected", dev.ID))
		return
	}
	// The schedule carries the dispatch span's context so the device's
	// upload echoes it — the hop that joins the device connection into
	// the trace.
	spanCtx := span.Context()
	// The callback captures plain strings, not req — req.Task aliases
	// core state that an update_task_param may rewrite before the flush
	// completes.
	reqID, taskID, devID := req.ID(), string(req.Task.ID), dev.ID
	s.sendSchedule(c, gen, wire.Schedule{
		RequestID: reqID,
		TaskID:    taskID,
		Sensor:    req.Task.Sensor,
		Due:       req.Due,
		Deadline:  req.Deadline,
		TraceID:   spanCtx.Trace.String(),
		SpanID:    spanCtx.Span.String(),
	}, span, reqID, taskID, devID, true)
}

// sendSchedule pushes one schedule to the device connection captured at
// generation gen. The push rides a deferred, shared flush, so the
// outcome arrives in a callback; the failure path must reach the core
// either way — without the report it would believe the request pending
// until its deadline.
//
// The lookup in dispatch and the write here are not atomic: the device
// may redial in between, leaving this write aimed at the dying old
// connection while a healthy new one sits in the map. The generation
// check below detects exactly that case — the map now binds the device
// at a *newer* generation — and retries once on the live connection
// instead of closing it and marking a responsive device unresponsive.
func (s *Server) sendSchedule(c *conn, gen uint64, sched wire.Schedule, span obs.Span, reqID, taskID, devID string, mayRetry bool) {
	// The timeline stamps the push, not the callback: the flush outcome
	// can arrive after the device has already uploaded.
	pushedAt := s.clock.Now()
	c.notify(wire.TypeSchedule, sched, func(err error) {
		if err == nil {
			span.Finish()
			s.timeline.Note(taskID, "dispatched", devID, pushedAt)
			return
		}
		// A failed or timed-out write leaves this stream unframeable; the
		// coalescer already closed the conn, which unblocks its read loop
		// so the stale device entry is reclaimed. Close again here for the
		// paths that fail before the coalescer touches the socket.
		c.close()
		s.connMu.Lock()
		cur, connected := s.devices[devID]
		curGen := s.devGen[devID]
		s.connMu.Unlock()
		if mayRetry && connected && cur != c && curGen != gen {
			s.met.dispatchRetries.Inc()
			s.log.Infof("dispatch %s to %s: connection replaced mid-dispatch, retrying on the live one", reqID, devID)
			s.sendSchedule(cur, curGen, sched, span, reqID, taskID, devID, false)
			return
		}
		s.log.Errorf("dispatch %s to %s: %v", reqID, devID, err)
		s.core.NoteDispatchFailure(reqID, devID)
		span.FinishErr(err)
	})
}

// casSink builds the data sink for a task: deliver to whichever CAS
// connection claims the task at delivery time. The same factory serves
// live submissions and recovery (restored tasks have no connection yet;
// their readings drop, counted, until the CAS reconnects and reclaims
// the task by resubmitting its ClientTaskID). The parameter is unused —
// the sink re-resolves the task ID it is invoked with — but the
// signature matches core.Recover's sink factory.
//
// The core runs the sink inside ReceiveData, on the upload's handler,
// before the handler writes the upload's ack. The reading is deferred
// like any push, so the ack, which the device is blocked on, flushes
// it: on a socket of its own the ack leaves one write sooner, and on a
// router link the reading and the ack leave in one write, reading first
// (DESIGN.md §13, "Delivery and ack order").
func (s *Server) casSink(core.TaskID) core.DataSink {
	return s.deliverToCAS
}

// deliverToCAS pushes one validated reading to the task's current owner
// on the connection's next shared flush. The core invokes sinks outside
// its scheduling lock; the conn lookup takes connMu only for the map
// read, and the send serialises in the conn's coalescer.
func (s *Server) deliverToCAS(tid core.TaskID, dev string, r sensors.Reading) {
	s.connMu.Lock()
	c, ok := s.taskCAS[tid]
	traceCtx := s.taskTrace[tid]
	s.connMu.Unlock()
	if !ok {
		// No CAS claims the task: it was restored from the state dir and
		// its owner has not reconnected yet. The reading is buffered for
		// the reclaim to replay (bounded — see replay.go); the metric makes
		// a silently unclaimed task visible either way.
		s.met.deliveriesUnroutable.Inc()
		s.bufferUnroutable(tid, dev, r)
		s.log.Debugf("no CAS connection for %s; reading from %s buffered", tid, dev)
		return
	}
	reported := dev
	if s.pseudo != nil {
		if p, perr := s.pseudo.Pseudonym(string(tid), dev); perr == nil {
			reported = p
		}
	}
	span := s.tracer.StartSpan(traceCtx, obs.StageDeliver, "")
	spanCtx := span.Context()
	// A deferred delivery's outcome callback runs after the shared flush,
	// so the timeline stamps the push.
	pushedAt := s.clock.Now()
	c.notify(wire.TypeSensedData, wire.SensedData{
		TaskID: string(tid), DeviceID: reported, Reading: r,
		TraceID: spanCtx.Trace.String(), SpanID: spanCtx.Span.String(),
	}, func(e error) {
		if e != nil {
			s.log.Errorf("deliver to CAS for %s: %v", tid, e)
			// CAS connections have no idle timeout, so a dead CAS is detected
			// here, at delivery time. The failed write leaves the stream
			// unframeable anyway; closing it kicks serveCAS out of its read
			// loop, which deletes the connection's tasks — no further
			// dispatches burn device energy on data nobody will receive.
			c.close()
			span.FinishErr(e)
			return
		}
		span.Finish()
		s.timeline.Note(string(tid), "delivered", reported, pushedAt)
		// The first successful delivery closes the submit → delivery loop:
		// the trace finalises into the retained ring. Later rounds' spans
		// still feed the stage histograms (Complete on a finalised trace is
		// a no-op).
		s.tracer.Complete(traceCtx.Trace)
	})
}

func (s *Server) serveConn(c *conn) {
	defer func() { _ = c.nc.Close() }()

	// The hello must arrive within the handshake deadline: a peer that
	// connects and sends nothing (a scanner, a wedged client, a phone
	// whose radio died mid-dial) would otherwise pin this goroutine for
	// the process lifetime.
	if s.cfg.HandshakeTimeout > 0 {
		_ = c.nc.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	}
	env, err := wire.ReadFrame(c.br)
	if err != nil {
		if isTimeout(err) {
			s.met.handshakeTimeouts.Inc()
			s.log.Infof("handshake timeout from %s", c.nc.RemoteAddr())
		}
		return
	}
	_ = c.nc.SetReadDeadline(time.Time{})
	if env.Type != wire.TypeHello {
		c.sendErr(env.Seq, fmt.Errorf("netserver: expected hello, got %s", env.Type))
		return
	}
	var hello wire.Hello
	if err := wire.Decode(env, &hello); err != nil {
		c.sendErr(env.Seq, err)
		return
	}
	// Codec negotiation: the peer names the newest revision it speaks;
	// the server grants min(peer, MaxWireVersion). A revision this build
	// has never heard of is rejected outright — downgrading it silently
	// would hide a misconfigured fleet.
	if _, known := wire.CodecForVersion(hello.Version); !known {
		c.sendErr(env.Seq, fmt.Errorf("netserver: protocol version %d unsupported", hello.Version))
		return
	}
	negotiated := hello.Version
	if negotiated > s.cfg.MaxWireVersion {
		negotiated = wire.ProtocolVersion
	}
	ack := wire.Ack{}
	if negotiated != wire.ProtocolVersion {
		// The v1 ack stays byte-identical for old clients; only an
		// upgraded connection learns its granted revision.
		ack.Version = negotiated
	}
	if err := c.send(wire.TypeAck, env.Seq, ack); err != nil {
		return
	}
	// The ack was the last v1-framed write; everything after speaks the
	// negotiated codec, batched through the coalescer.
	c.codec, _ = wire.CodecForVersion(negotiated)
	c.co = wire.NewCoalescer(c.nc, c.codec, wire.CoalescerConfig{WriteTimeout: s.cfg.WriteTimeout})
	defer c.co.Close()

	switch hello.Role {
	case wire.RoleNode:
		s.met.acceptedNode.Inc()
		s.met.connsNode.Add(1)
		s.log.Debugf("node connection from %s", c.nc.RemoteAddr())
		s.serveNode(c)
		s.met.connsNode.Add(-1)
	default:
		if !s.serveSession(c, hello.Role) {
			c.sendErr(env.Seq, fmt.Errorf("netserver: unknown role %q", hello.Role))
		}
	}
}

// serveSession runs one device or CAS session — a connection of its own
// or a stream of a router link — to its end, counted under its role. It
// reports false for any other role.
func (s *Server) serveSession(c *conn, role wire.Role) bool {
	switch role {
	case wire.RoleDevice:
		s.met.acceptedDevice.Inc()
		s.met.connsDevice.Add(1)
		s.log.Debugf("device session from %s", c.nc.RemoteAddr())
		s.serveDevice(c)
		s.met.connsDevice.Add(-1)
	case wire.RoleCAS:
		s.met.acceptedCAS.Inc()
		s.met.connsCAS.Add(1)
		s.log.Debugf("CAS session from %s", c.nc.RemoteAddr())
		s.serveCAS(c)
		s.met.connsCAS.Add(-1)
	default:
		return false
	}
	return true
}

// serveDevice handles a device connection's message loop. Each message is
// timed into senseaid_rpc_seconds; handler failures are reported to the
// peer and counted in senseaid_rpc_errors_total.
func (s *Server) serveDevice(c *conn) {
	deviceID := ""
	defer func() {
		if deviceID != "" {
			s.connMu.Lock()
			if s.devices[deviceID] == c {
				delete(s.devices, deviceID)
			}
			s.connMu.Unlock()
			s.log.Debugf("device %s disconnected", deviceID)
		}
	}()
	for {
		// Device traffic is periodic by design (state reports every
		// ReportPeriod), so a session that goes silent past the idle
		// timeout is a dead link whose TCP state never noticed — cut it
		// loose so the fan-out map and the goroutine are reclaimed.
		env, err := c.read(s.cfg.IdleTimeout)
		if err != nil {
			if isTimeout(err) {
				s.met.idleDisconnects.Inc()
				s.log.Infof("device %s idle past %v, disconnecting", deviceID, s.cfg.IdleTimeout)
			}
			return
		}
		start := time.Now()
		closed, herr, shed := s.runDeviceMsg(c, &deviceID, env)
		s.met.observeRPC("device", env.Type, time.Since(start), herr != nil)
		if shed {
			c.sendErr(env.Seq, errOverloaded)
			continue
		}
		if herr != nil {
			c.sendErr(env.Seq, herr)
		}
		if closed {
			return
		}
	}
}

// errOverloaded is the shed reply: the worker queue stayed full past the
// backpressure wait, so this message was never handled.
var errOverloaded = errors.New("netserver: server overloaded, message dropped")

// runDeviceMsg executes one device handler, through the worker pool when
// one is configured. The read loop blocks on the result, so messages on
// one connection stay ordered; what the pool bounds is how many
// connections hit the core at once. The measured latency deliberately
// includes queue wait — under overload that is the latency peers see.
func (s *Server) runDeviceMsg(c *conn, deviceID *string, env wire.Envelope) (closed bool, herr error, shed bool) {
	if s.pool == nil {
		closed, herr = s.handleDeviceMsg(c, deviceID, env)
		return closed, herr, false
	}
	type result struct {
		closed bool
		err    error
	}
	resCh := make(chan result, 1)
	if !s.pool.run(func() {
		cl, e := s.handleDeviceMsg(c, deviceID, env)
		resCh <- result{cl, e}
	}) {
		return false, errOverloaded, true
	}
	res := <-resCh
	return res.closed, res.err, false
}

// errRouterOnly refuses a re-home request on a device's own socket: only
// a router moves a device between nodes.
var errRouterOnly = errors.New("netserver: re-home requests come only from a router")

// isTimeout reports whether a read failed by deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handleDeviceMsg processes one device message: acks on success, returns
// the error to report otherwise. closed means the loop should end.
func (s *Server) handleDeviceMsg(c *conn, deviceID *string, env wire.Envelope) (closed bool, _ error) {
	switch env.Type {
	case wire.TypeRegister:
		var reg wire.Register
		if err := wire.Decode(env, &reg); err != nil {
			return false, err
		}
		// One connection, one identity. Accepting a second register under
		// a different ID would strand the old s.devices entry (it still
		// maps to this conn, but the disconnect defer only cleans the
		// latest identity) and leave the old core registration dangling.
		// Re-registering the same ID is fine — that's what a reconnecting
		// daemon does.
		if *deviceID != "" && *deviceID != reg.DeviceID {
			return false, fmt.Errorf("netserver: connection already registered as %s", *deviceID)
		}
		err := s.core.RegisterDevice(core.DeviceState{
			ID:         reg.DeviceID,
			Position:   reg.Position,
			BatteryPct: reg.BatteryPct,
			LastComm:   s.clock.Now(),
			Sensors:    reg.Sensors,
			DeviceType: reg.DeviceType,
			Budget:     reg.Budget,
		})
		if err != nil {
			return false, err
		}
		s.connMu.Lock()
		s.devices[reg.DeviceID] = c
		s.devGen[reg.DeviceID]++
		s.connMu.Unlock()
		*deviceID = reg.DeviceID
		s.log.Infof("device %s registered", reg.DeviceID)
		_ = c.send(wire.TypeAck, env.Seq, wire.Ack{Ref: reg.DeviceID})
		return false, nil

	case wire.TypeDeregister:
		if *deviceID != "" {
			s.core.DeregisterDevice(*deviceID)
			s.connMu.Lock()
			delete(s.devices, *deviceID)
			s.connMu.Unlock()
		}
		_ = c.send(wire.TypeAck, env.Seq, wire.Ack{})
		return true, nil

	case wire.TypeUpdatePrefs:
		var up wire.UpdatePrefs
		if err := wire.Decode(env, &up); err != nil {
			return false, err
		}
		if err := up.Budget.Validate(); err != nil {
			return false, err
		}
		if *deviceID == "" {
			return false, fmt.Errorf("netserver: update_preferences before register")
		}
		// A budget change must not touch liveness: a device the scheduler
		// marked unresponsive stays unresponsive through a prefs update.
		if err := s.core.UpdateDevicePrefs(*deviceID, up.Budget); err != nil {
			return false, err
		}
		_ = c.send(wire.TypeAck, env.Seq, wire.Ack{})
		return false, nil

	case wire.TypeStateReport:
		var sr wire.StateReport
		if err := wire.Decode(env, &sr); err != nil {
			return false, err
		}
		if *deviceID == "" {
			return false, fmt.Errorf("netserver: state_report before register")
		}
		if err := s.core.UpdateDeviceState(*deviceID, sr.Position, sr.BatteryPct, sr.LastComm); err != nil {
			return false, err
		}
		_ = c.send(wire.TypeAck, env.Seq, wire.Ack{})
		return false, nil

	case wire.TypeSenseData:
		var sd wire.SenseData
		if err := wire.Decode(env, &sd); err != nil {
			return false, err
		}
		if *deviceID == "" {
			return false, fmt.Errorf("netserver: send_sense_data before register")
		}
		if err := s.core.ReceiveData(sd.RequestID, *deviceID, sd.Reading, s.clock.Now()); err != nil {
			return false, err
		}
		s.met.upload(sd.Path).Inc()
		s.log.Debugf("upload from %s for %s (path=%s)", *deviceID, sd.RequestID, sd.Path)
		_ = c.send(wire.TypeAck, env.Seq, wire.Ack{})
		return false, nil

	case wire.TypeExportDevice:
		// A re-home's first half. It rides the device's own stream, so it
		// runs after every frame the device sent before it: the record
		// leaves the core with all of them applied, and the stream is
		// unbound.
		var ex wire.ExportDevice
		if err := wire.Decode(env, &ex); err != nil {
			return false, err
		}
		if c.stream == 0 {
			return false, errRouterOnly
		}
		if *deviceID == "" || ex.DeviceID != *deviceID {
			return false, fmt.Errorf("netserver: export_device of %q on a stream bound to %q", ex.DeviceID, *deviceID)
		}
		rec, err := s.core.ExportDevice(ex.DeviceID)
		if err != nil {
			return false, err
		}
		raw, err := json.Marshal(rec)
		if err != nil {
			return false, err
		}
		s.connMu.Lock()
		if s.devices[ex.DeviceID] == c {
			delete(s.devices, ex.DeviceID)
		}
		s.connMu.Unlock()
		*deviceID = ""
		s.log.Infof("device %s exported (cross-node re-home)", ex.DeviceID)
		_ = c.send(wire.TypeExportDevice, env.Seq, wire.ExportDevice{DeviceID: ex.DeviceID, Device: raw})
		return false, nil

	case wire.TypeImportDevice:
		// A re-home's second half, the first request on the device's
		// stream at its new node (or, rolling a failed re-home back, on
		// its old one): the exported record is restored verbatim — a
		// register would reset its fairness and liveness state — and the
		// stream is bound to it.
		var im wire.ImportDevice
		if err := wire.Decode(env, &im); err != nil {
			return false, err
		}
		var rec core.DeviceState
		if err := json.Unmarshal(im.Device, &rec); err != nil {
			return false, fmt.Errorf("netserver: import_device: %w", err)
		}
		if c.stream == 0 {
			return false, errRouterOnly
		}
		if rec.ID == "" || (*deviceID != "" && *deviceID != rec.ID) {
			return false, fmt.Errorf("netserver: import_device of %q on a stream bound to %q", rec.ID, *deviceID)
		}
		if err := s.core.RestoreDevice(rec); err != nil {
			return false, err
		}
		s.connMu.Lock()
		s.devices[rec.ID] = c
		s.devGen[rec.ID]++
		s.connMu.Unlock()
		*deviceID = rec.ID
		s.log.Infof("device %s imported (cross-node re-home)", rec.ID)
		_ = c.send(wire.TypeAck, env.Seq, wire.Ack{Ref: rec.ID})
		return false, nil

	default:
		return false, fmt.Errorf("netserver: unexpected %s from device", env.Type)
	}
}

// ownedTask tracks one task submitted over a CAS connection.
// Reclaimable tasks (submitted with a ClientTaskID) survive the
// connection: the client task ID is a promise to come back and reclaim.
type ownedTask struct {
	id          core.TaskID
	reclaimable bool
}

// serveCAS handles a crowdsensing application server connection. When
// the CAS disconnects, its live tasks are deleted — with no sink to
// deliver to, every further dispatch would only burn device energy —
// with two exceptions: tasks submitted under a ClientTaskID are kept
// for the owner's idempotent resubmit to reclaim (their End time still
// bounds them), and nothing is deleted during server shutdown, where
// the disconnect is the server's doing and durable state must carry
// the campaign across the restart.
func (s *Server) serveCAS(c *conn) {
	var ownedTasks []ownedTask
	defer s.dropAggSubs(c)
	defer func() {
		// Claim this connection's tasks under connMu, then delete them
		// through the core without holding any transport lock.
		var mine []core.TaskID
		s.connMu.Lock()
		for _, ot := range ownedTasks {
			if s.taskCAS[ot.id] == c {
				delete(s.taskCAS, ot.id)
				delete(s.taskTrace, ot.id)
				if !ot.reclaimable {
					mine = append(mine, ot.id)
				}
			}
		}
		s.connMu.Unlock()
		select {
		case <-s.done:
			return
		default:
		}
		orphaned := 0
		for _, id := range mine {
			if err := s.core.DeleteTask(id); err == nil {
				orphaned++
				s.log.Infof("CAS disconnected; task %s deleted", id)
			}
			s.dropReplay(id)
			if s.pseudo != nil {
				s.pseudo.Forget(string(id))
			}
		}
		if orphaned > 0 {
			s.met.casDisconnects.Inc()
		}
	}()
	for {
		env, err := c.read(0)
		if err != nil {
			return
		}
		start := time.Now()
		herr, shed := s.runCASMsg(c, &ownedTasks, env)
		s.met.observeRPC("cas", env.Type, time.Since(start), herr != nil)
		if shed {
			c.sendErr(env.Seq, errOverloaded)
			continue
		}
		if herr != nil {
			c.sendErr(env.Seq, herr)
		}
	}
}

// runCASMsg executes one CAS handler, through the worker pool when one
// is configured (see runDeviceMsg for the ordering argument).
func (s *Server) runCASMsg(c *conn, ownedTasks *[]ownedTask, env wire.Envelope) (herr error, shed bool) {
	if s.pool == nil {
		return s.handleCASMsg(c, ownedTasks, env), false
	}
	resCh := make(chan error, 1)
	if !s.pool.run(func() {
		resCh <- s.handleCASMsg(c, ownedTasks, env)
	}) {
		return errOverloaded, true
	}
	return <-resCh, false
}

// handleCASMsg processes one CAS message: acks on success, returns the
// error to report otherwise.
func (s *Server) handleCASMsg(c *conn, ownedTasks *[]ownedTask, env wire.Envelope) error {
	switch env.Type {
	case wire.TypeSubmitTask:
		var spec wire.TaskSpec
		if err := wire.Decode(env, &spec); err != nil {
			return err
		}
		// The trace starts here: a CAS that traces its own requests
		// supplies the identity (trace_id/span_id on the spec); otherwise
		// a fresh one is minted. The root span's context is stamped onto
		// the task so every scheduling pass — possibly rounds later —
		// joins the same trace.
		span := s.tracer.StartTraceFrom(
			obs.ParseTraceContext(spec.TraceID, spec.SpanID), obs.StageSubmit, "")
		rootCtx := span.Context()
		task := core.Task{
			ClientID:         spec.ClientTaskID,
			Sensor:           spec.Sensor,
			SamplingPeriod:   spec.SamplingPeriod,
			SamplingDuration: spec.SamplingDuration,
			Start:            spec.Start,
			End:              spec.End,
			Area:             geo.Circle{Center: spec.Center, RadiusM: spec.AreaRadiusM},
			SpatialDensity:   spec.SpatialDensity,
			DeviceType:       spec.DeviceType,
			TraceID:          rootCtx.Trace.String(),
			RootSpan:         rootCtx.Span.String(),
		}
		// The sink routes through the task->CAS map at delivery time
		// rather than capturing this connection: a restored task's sink
		// must find whichever connection currently claims the task, and a
		// ClientTaskID resubmit after a restart (or a reconnect) reclaims
		// it by overwriting the map entry below.
		id, err := s.core.SubmitTask(task, s.clock.Now(), s.casSink(""))
		if err != nil {
			span.FinishErr(err)
			return err
		}
		s.connMu.Lock()
		s.taskCAS[id] = c
		// Deliveries join this submission's trace. On an idempotent
		// reclaim the stored task keeps its original (pre-restart) trace
		// for its scheduling spans, but deliveries follow the reclaim —
		// the trace that is actually live — so a reclaimed campaign
		// still produces a complete submit → delivery trace.
		s.taskTrace[id] = rootCtx
		s.connMu.Unlock()
		span.Finish()
		*ownedTasks = append(*ownedTasks, ownedTask{id: id, reclaimable: spec.ClientTaskID != ""})
		s.log.Infof("task %s submitted (sensor=%s density=%d)", id, task.Sensor, task.SpatialDensity)
		_ = c.send(wire.TypeAck, env.Seq, wire.Ack{Ref: string(id)})
		// A reclaim (idempotent ClientTaskID resubmit) now owns the task:
		// deliver whatever arrived while no connection claimed it. Fresh
		// tasks have no buffer; this is a no-op for them.
		s.replayBuffered(id)
		return nil

	case wire.TypeUpdateTask:
		var ut wire.UpdateTask
		if err := wire.Decode(env, &ut); err != nil {
			return err
		}
		err := s.core.UpdateTaskParams(core.TaskID(ut.TaskID), s.clock.Now(), func(t *core.Task) {
			if ut.SamplingPeriod > 0 {
				t.SamplingPeriod = ut.SamplingPeriod
			}
			if ut.SpatialDensity > 0 {
				t.SpatialDensity = ut.SpatialDensity
			}
			if ut.AreaRadiusM > 0 {
				t.Area.RadiusM = ut.AreaRadiusM
			}
			if !ut.End.IsZero() {
				t.End = ut.End
			}
		})
		if err != nil {
			return err
		}
		_ = c.send(wire.TypeAck, env.Seq, wire.Ack{})
		return nil

	case wire.TypeDeleteTask:
		var dt wire.DeleteTask
		if err := wire.Decode(env, &dt); err != nil {
			return err
		}
		err := s.core.DeleteTask(core.TaskID(dt.TaskID))
		s.connMu.Lock()
		delete(s.taskCAS, core.TaskID(dt.TaskID))
		delete(s.taskTrace, core.TaskID(dt.TaskID))
		s.connMu.Unlock()
		s.dropReplay(core.TaskID(dt.TaskID))
		if s.pseudo != nil {
			s.pseudo.Forget(dt.TaskID)
		}
		if err != nil {
			return err
		}
		_ = c.send(wire.TypeAck, env.Seq, wire.Ack{})
		return nil

	case wire.TypeSubscribeAgg:
		return s.handleSubscribeAgg(c, env)

	default:
		return fmt.Errorf("netserver: unexpected %s from CAS", env.Type)
	}
}
