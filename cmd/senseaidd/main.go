// Command senseaidd runs the networked Sense-Aid server: the middleware
// the paper deploys at the cellular edge. Devices attach with the client
// library, crowdsensing application servers with the CAS library.
//
// Usage:
//
//	senseaidd [-addr host:port] [-metrics-addr host:port] [-tick duration]
//	          [-handshake-timeout duration] [-idle-timeout duration]
//	          [-state-dir path] [-state-recover] [-snapshot-interval duration]
//	          [-rpc-workers n]
//	          [-agg-window duration] [-agg-retention n]
//	          [-regions name@lat,lon,radiusM]... [-pprof]
//	          [-enroll host:port] [-node-id name] [-standby-of host:port]
//	          [-trace-sample rate] [-trace-slow duration] [-v] [-vv]
//
// Every connection speaks the v2 binary protocol after its hello; a
// peer asking for v1 JSON is refused with an error naming version 2.
// Schedule/delivery pushes on one connection share one write syscall
// when they are produced before the pushing goroutine yields (with
// -enroll, a live reading is written before the upload's ack instead).
// -codec (only "binary" is accepted) and -coalesce-interval (ignored)
// are kept so the benchmark harness's command line still parses.
// -rpc-workers bounds concurrent RPC handling (overflow is shed with
// senseaid_rpc_shed_total).
//
// The server aggregates every validated upload into per-task/per-cell
// rollup windows (count, mean, min/max, p50/p99, freshness) that CASes
// subscribe to instead of consuming the raw delivery stream.
// -agg-window sets the window length (negative disables the tier),
// -agg-retention how many closed windows each series keeps for sliding
// subscriptions. With -state-dir, open windows spill into the state
// directory so a restart or standby promotion keeps them.
//
// With -state-dir set, the server is durable: scheduling state is
// snapshotted there and every mutation journaled between snapshots, so
// a crashed or restarted server resumes its campaigns. SIGTERM drains
// gracefully (final snapshot, journal fsync); kill -9 is recovered on
// the next start by replaying the journal. A corrupt state file refuses
// startup unless -state-recover moves it aside.
//
// With -metrics-addr set, an HTTP admin endpoint serves /metrics
// (Prometheus text format; ?format=json for the JSON snapshot),
// /healthz, /readyz (503 until recovery has finished and the listener
// is accepting), /statusz, /traces (recent completed task traces), and
// /tasks?id= (per-task lifecycle timelines). -pprof additionally mounts
// net/http/pprof under /debug/pprof/ on the same mux.
//
// Every submitted task is traced end to end — CAS submit, scheduling,
// selection, dispatch, device upload, CAS delivery — with per-stage
// latency histograms (senseaid_stage_seconds). -trace-sample sets the
// fraction of tasks retained in /traces (errors and slow operations are
// always kept); -trace-slow sets the slow-operation threshold.
//
// The scheduling core has one shard per -regions flag (the paper's
// per-edge physical instantiation), or without it one unnamed shard
// covering every point. Devices are homed to the shard covering their
// position, tasks to the shard covering their area and named after its
// region ("west/task-1"; later calls route by that name), and each
// region's shard has its own state store and shard="name" series.
//
// With -enroll (and exactly one -regions), the server joins a
// senseaid-router as that region's primary: it dials the router, and
// that one connection is its link, over which the router relays the
// sessions of the devices and CASes that dial it. -node-id names the
// node. With -standby-of, the server instead runs as the region's warm
// standby: it replicates the named primary's snapshots and journal into
// its own -state-dir, enrolls with the router over a link of its own
// and, when the router promotes it over that link, boots a full server
// on the replicated state and enrolls as the new primary.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/netserver"
	"senseaid/internal/obs"
	"senseaid/internal/wire"
)

// regionList collects repeated -regions flags of the form
// "name@lat,lon,radiusM".
type regionList []core.Region

func (r *regionList) String() string {
	parts := make([]string, len(*r))
	for i, reg := range *r {
		parts[i] = fmt.Sprintf("%s@%s,%g", reg.Name, reg.Area.Center, reg.Area.RadiusM)
	}
	return strings.Join(parts, " ")
}

func (r *regionList) Set(v string) error {
	name, rest, ok := strings.Cut(v, "@")
	if !ok || name == "" {
		return fmt.Errorf("region %q: want name@lat,lon,radiusM", v)
	}
	fields := strings.Split(rest, ",")
	if len(fields) != 3 {
		return fmt.Errorf("region %q: want name@lat,lon,radiusM", v)
	}
	var nums [3]float64
	for i, f := range fields {
		x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return fmt.Errorf("region %q: bad number %q", v, f)
		}
		nums[i] = x
	}
	area := geo.Circle{Center: geo.Point{Lat: nums[0], Lon: nums[1]}, RadiusM: nums[2]}
	if !area.Center.Valid() || area.RadiusM <= 0 {
		return fmt.Errorf("region %q: invalid area", v)
	}
	*r = append(*r, core.Region{Name: name, Area: area})
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "senseaidd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7117", "listen address")
	metricsAddr := flag.String("metrics-addr", "", "admin HTTP address serving /metrics, /healthz, /statusz (empty disables)")
	tick := flag.Duration("tick", 500*time.Millisecond, "scheduler tick period")
	handshakeTimeout := flag.Duration("handshake-timeout", 10*time.Second, "deadline for a fresh connection to complete the hello (negative disables)")
	idleTimeout := flag.Duration("idle-timeout", 10*time.Minute, "disconnect a device connection silent for this long (negative disables)")
	stateDir := flag.String("state-dir", "", "directory for durable scheduling state; a restarted server resumes its campaigns (empty runs in-memory)")
	stateRecover := flag.Bool("state-recover", false, "move corrupt state files aside and start fresh instead of refusing to start")
	snapshotInterval := flag.Duration("snapshot-interval", time.Minute, "how often to fold the journal into a fresh snapshot (negative disables the periodic loop)")
	codec := flag.String("codec", "binary", "deprecated: binary is the only wire codec, and the only value accepted")
	_ = flag.Duration("coalesce-interval", 0, "deprecated and ignored: pushes flush as soon as the pushing goroutine yields")
	rpcWorkers := flag.Int("rpc-workers", 0, "max concurrent RPC handlers across all connections (0 sizes from CPU count, negative runs handlers inline)")
	aggWindow := flag.Duration("agg-window", 0, "live-aggregation window length (0 uses the 1m default, negative disables the tier)")
	aggRetention := flag.Int("agg-retention", 0, "closed windows retained per series for sliding subscriptions (0 uses the default)")
	var regions regionList
	flag.Var(&regions, "regions", "edge region as name@lat,lon,radiusM (repeatable; two or more shard the deployment)")
	enroll := flag.String("enroll", "", "router address to enroll this node with (requires exactly one -regions)")
	nodeID := flag.String("node-id", "", "cluster node name (default <region>-primary or <region>-standby)")
	standbyOf := flag.String("standby-of", "", "run as a warm standby replicating from this primary's address; promotes to a full server when the router says so (requires -state-dir and one -regions)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the admin endpoint")
	traceSample := flag.Float64("trace-sample", 1, "fraction of task traces retained in /traces (0 disables sampling; errors and slow ops are always kept)")
	traceSlow := flag.Duration("trace-slow", 500*time.Millisecond, "log and retain any traced operation slower than this (negative disables)")
	verbose := flag.Bool("v", false, "log lifecycle events to stderr")
	debug := flag.Bool("vv", false, "log per-message traffic to stderr")
	flag.Parse()
	if _, err := wire.CodecByName(*codec); err != nil {
		return err
	}

	var logger *log.Logger
	level := obs.LevelInfo
	if *verbose || *debug {
		logger = log.New(os.Stderr, "senseaidd: ", log.LstdFlags)
		if *debug {
			level = obs.LevelDebug
		}
	}

	tracer := obs.NewTracer(obs.TracerConfig{
		Registry:      obs.Default(),
		SampleRate:    *traceSample,
		SampleRateSet: true,
		SlowThreshold: *traceSlow,
		Logger:        obs.NewLogger(logger, level),
	})
	timeline := obs.NewTimelineStore(0, 0)
	obs.RegisterRuntimeMetrics(obs.Default())

	// The admin endpoint comes up before the listener so /readyz can
	// honestly report "not yet" while recovery replays the journal; the
	// readiness probe flips only once Listen has returned with the
	// accept loop running.
	var ready atomic.Bool
	var srvPtr atomic.Pointer[netserver.Server]
	if *metricsAddr != "" {
		admin, err := obs.ServeAdmin(obs.AdminConfig{
			Addr:     *metricsAddr,
			Registry: obs.Default(),
			Status: func() any {
				if s := srvPtr.Load(); s != nil {
					return s.Status()
				}
				return map[string]any{"state": "starting"}
			},
			Ready: func() error {
				if !ready.Load() {
					return fmt.Errorf("recovery or listener not up yet")
				}
				return nil
			},
			Tracer:   tracer,
			Timeline: timeline,
			Pprof:    *pprofOn,
		})
		if err != nil {
			return err
		}
		defer func() { _ = admin.Close() }()
		fmt.Printf("admin endpoint on http://%s/metrics\n", admin.Addr())
	}

	if (*enroll != "" || *standbyOf != "") && len(regions) != 1 {
		return fmt.Errorf("cluster modes (-enroll, -standby-of) require exactly one -regions, have %d", len(regions))
	}

	// Standby mode: replicate the primary's state until the router
	// promotes this node, then fall through and boot the full server on
	// the replicated directory — the ordinary crash-recovery path.
	if *standbyOf != "" {
		if *stateDir == "" {
			return fmt.Errorf("-standby-of requires -state-dir (the replica needs somewhere to write)")
		}
		id := *nodeID
		if id == "" {
			id = regions[0].Name + "-standby"
		}
		sb, err := netserver.RunStandby(netserver.StandbyConfig{
			PrimaryAddr: *standbyOf,
			RouterAddr:  *enroll,
			NodeID:      id,
			Region:      regions[0],
			StateDir:    *stateDir,
			Logger:      obs.NewLogger(logger, level),
		})
		if err != nil {
			return err
		}
		fmt.Printf("standby %s replicating region %s from %s\n", id, regions[0].Name, *standbyOf)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case <-sig:
			fmt.Println("shutting down")
			return sb.Close()
		case <-sb.Promoted():
			signal.Stop(sig)
			fmt.Printf("promoted: taking over region %s\n", regions[0].Name)
			_ = sb.Close()
			// Fall through to the normal server boot below; recovery
			// replays the replicated snapshot+journal.
		}
	}

	srv, err := netserver.Listen(netserver.Config{
		Addr:             *addr,
		TickPeriod:       *tick,
		HandshakeTimeout: *handshakeTimeout,
		IdleTimeout:      *idleTimeout,
		RPCWorkers:       *rpcWorkers,
		AggWindow:        *aggWindow,
		AggRetention:     *aggRetention,
		Logger:           logger,
		LogLevel:         level,
		Metrics:          obs.Default(),
		Regions:          regions,
		StateDir:         *stateDir,
		StateRecover:     *stateRecover,
		SnapshotInterval: *snapshotInterval,
		Tracer:           tracer,
		Timeline:         timeline,
	})
	if err != nil {
		return err
	}
	srvPtr.Store(srv)
	ready.Store(true)
	fmt.Printf("sense-aid server listening on %s\n", srv.Addr())
	if *stateDir != "" {
		rec := srv.Recovery()
		fmt.Printf("state dir %s: restarts %d, replayed %d records (%s)\n",
			*stateDir, rec.Restarts, rec.Replayed, rec.Outcome)
	}
	for _, r := range regions {
		fmt.Printf("edge region %s: center %s radius %.0fm\n", r.Name, r.Area.Center, r.Area.RadiusM)
	}

	if *enroll != "" {
		id := *nodeID
		if id == "" {
			id = regions[0].Name + "-primary"
		}
		if err := srv.Enroll(*enroll, id); err != nil {
			_ = srv.Close()
			return err
		}
		fmt.Printf("enrolled with router %s as %s (region %s)\n", *enroll, id, regions[0].Name)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return srv.Close()
}
