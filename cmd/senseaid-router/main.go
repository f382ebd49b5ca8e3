// Command senseaid-router runs the Sense-Aid multi-node router tier: a
// stateless front door that terminates device and CAS connections and
// relays each to the per-region worker node covering it. Workers enroll
// by dialing the router with -enroll (see senseaidd); devices and
// application servers simply dial the router instead of a worker.
//
// Usage:
//
//	senseaid-router [-addr host:port] [-metrics-addr host:port]
//	                [-ping-interval duration] [-ping-timeout duration]
//	                [-v] [-vv]
//
// The router keeps one link to each enrolled primary and carries every
// session it relays to that worker as a stream of the link; frames read
// off a link in one pass reach each client in one write.
// -coalesce-interval is deprecated and ignored (accepted so old command
// lines still parse).
//
// The router owns routing and failover only: device registrations are
// routed by position to the enrolled region containing them, task
// submissions by their area's center, and task updates/deletes by the
// region prefix their task ID carries. When a region's primary dies
// (trunk EOF or a failed health check), the router promotes that
// region's standby, which boots on its replicated state and re-enrolls.
// The router itself holds no campaign state and can restart freely.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"senseaid/internal/cluster"
	"senseaid/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "senseaid-router: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7118", "listen address (nodes, devices, and CAS all dial here)")
	metricsAddr := flag.String("metrics-addr", "", "admin HTTP address serving /metrics and /healthz (empty disables)")
	pingInterval := flag.Duration("ping-interval", time.Second, "how often to health-check each enrolled node's trunk")
	pingTimeout := flag.Duration("ping-timeout", 2*time.Second, "a health check slower than this fails the node")
	_ = flag.Duration("coalesce-interval", 0, "deprecated and ignored: relayed frames are written as soon as the link's reader has read all it can")
	verbose := flag.Bool("v", false, "log lifecycle events to stderr")
	debug := flag.Bool("vv", false, "log per-session routing to stderr")
	flag.Parse()

	var logger *log.Logger
	level := obs.LevelInfo
	if *verbose || *debug {
		logger = log.New(os.Stderr, "senseaid-router: ", log.LstdFlags)
		if *debug {
			level = obs.LevelDebug
		}
	}

	if *metricsAddr != "" {
		admin, err := obs.ServeAdmin(obs.AdminConfig{
			Addr:     *metricsAddr,
			Registry: obs.Default(),
			Status:   func() any { return map[string]any{"state": "running"} },
		})
		if err != nil {
			return err
		}
		defer func() { _ = admin.Close() }()
		fmt.Printf("admin endpoint on http://%s/metrics\n", admin.Addr())
	}

	r, err := cluster.Listen(cluster.Config{
		Addr:         *addr,
		PingInterval: *pingInterval,
		PingTimeout:  *pingTimeout,
		Logger:       logger,
		LogLevel:     level,
		Metrics:      obs.Default(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("sense-aid router listening on %s\n", r.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return r.Close()
}
