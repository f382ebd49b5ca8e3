// Command senseaid-cas is a crowdsensing application server in a box: it
// connects to a running senseaidd, submits one task built from flags, and
// streams the validated readings to stdout — with an optional fused
// hyperlocal map rendered when the task window closes. It speaks the v2
// binary wire protocol, the only one senseaidd serves.
//
// Usage:
//
//	senseaid-cas [-addr host:port] [-sensor barometer] [-period 5m]
//	             [-duration 30m] [-radius 500] [-density 2] [-map]
//	             [-subscribe] [-retry-reconnect]
//
// With -subscribe, the CAS additionally opens a live-aggregation
// subscription for its task: the server streams a rollup (count, mean,
// min/max, p50/p99, freshness) every time a window closes, and the
// command exits successfully once the first window arrives — the
// smallest end-to-end proof that the shared aggregation tier is live.
// Reaching the task deadline without a single window is an error, so
// CI can use the exit code as a gate.
//
// With -retry-reconnect, the task is submitted under a generated
// client task ID and, if the server connection drops (a server restart,
// a network fault), the CAS redials once and resubmits the same spec.
// The server deduplicates on the client task ID, so the retry reclaims
// the original task instead of scheduling a twin.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/fusion"
	"senseaid/internal/geo"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "senseaid-cas: %v\n", err)
		os.Exit(1)
	}
}

func sensorByName(name string) (sensors.Type, error) {
	for t := sensors.Accelerometer; t <= sensors.LightMeter; t++ {
		if strings.EqualFold(t.String(), name) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown sensor %q", name)
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7117", "sense-aid server address")
	sensorName := flag.String("sensor", "barometer", "sensor type")
	period := flag.Duration("period", 5*time.Minute, "sampling period")
	duration := flag.Duration("duration", 30*time.Minute, "sampling duration")
	lat := flag.Float64("lat", geo.CSDepartment.Lat, "task area center latitude")
	lon := flag.Float64("lon", geo.CSDepartment.Lon, "task area center longitude")
	radius := flag.Float64("radius", 500, "task area radius (m)")
	density := flag.Int("density", 2, "spatial density (devices per round)")
	renderMap := flag.Bool("map", false, "render a fused hyperlocal map at the end")
	retry := flag.Bool("retry-reconnect", false, "on a dropped server connection, redial once and resubmit the task (idempotent via a client task ID)")
	subscribe := flag.Bool("subscribe", false, "subscribe to the task's live aggregation windows and exit after the first closed window")
	flag.Parse()

	sensor, err := sensorByName(*sensorName)
	if err != nil {
		return err
	}
	center := geo.Point{Lat: *lat, Lon: *lon}
	if !center.Valid() {
		return fmt.Errorf("invalid center %v", center)
	}

	var fmap *fusion.Map
	if *renderMap {
		var err error
		fmap, err = fusion.NewMap(fusion.Config{
			Center: center,
			SpanM:  (*radius) * 2.5,
			Cells:  12,
			MaxAge: 3 * (*period),
		})
		if err != nil {
			return err
		}
	}

	count := 0
	handler := func(sd wire.SensedData) {
		count++
		fmt.Printf("%s  %-12s %8.2f %-4s from %s\n",
			sd.Reading.At.Format("15:04:05"), sd.TaskID,
			sd.Reading.Value, sd.Reading.Unit, sd.DeviceID)
		if fmap != nil {
			fmap.Add(fusion.Sample{Where: sd.Reading.Where, Value: sd.Reading.Value, At: sd.Reading.At})
		}
	}

	spec := wire.TaskSpec{
		Sensor:           sensor,
		SamplingPeriod:   *period,
		SamplingDuration: *duration,
		Center:           center,
		AreaRadiusM:      *radius,
		SpatialDensity:   *density,
	}
	if *retry {
		// A stable client task ID makes the post-reconnect resubmit
		// idempotent: the server returns the original task instead of
		// scheduling a twin.
		spec.ClientTaskID = fmt.Sprintf("senseaid-cas-%d-%d", os.Getpid(), time.Now().UnixNano())
	}

	// Window pushes arrive on the connection's push goroutine; the main
	// loop drains them so printing and exit logic stay single-threaded.
	windows := make(chan wire.AggWindow, 64)
	connect := func() (*cas.CAS, string, error) {
		app, err := cas.Dial(*addr)
		if err != nil {
			return nil, "", err
		}
		if err := app.ReceiveSensedData(handler); err != nil {
			_ = app.Close()
			return nil, "", err
		}
		id, err := app.Task(spec)
		if err != nil {
			_ = app.Close()
			return nil, "", err
		}
		if *subscribe {
			if _, err := app.SubscribeAgg(wire.SubscribeAgg{Task: id}, func(w wire.AggWindow) {
				select {
				case windows <- w:
				default:
				}
			}); err != nil {
				_ = app.Close()
				return nil, "", err
			}
		}
		return app, id, nil
	}

	app, taskID, err := connect()
	if err != nil {
		return err
	}
	defer func() { _ = app.Close() }()
	fmt.Printf("task %s: %s every %v for %v, %d devices within %.0f m of %s\n",
		taskID, sensor, *period, *duration, *density, *radius, center)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	deadline := time.After(*duration + *period)
	retried := false
wait:
	for {
		select {
		case w := <-windows:
			fmt.Printf("window [%s %s) %-12s count=%d mean=%.2f min=%.2f max=%.2f p50=%.2f p99=%.2f fresh=%dms\n",
				w.Start.Format("15:04:05"), w.End.Format("15:04:05"), w.TaskID,
				w.Count, w.Mean, w.Min, w.Max, w.P50, w.P99, w.FreshnessMS)
			fmt.Println("aggregation tier live; exiting")
			break wait
		case <-deadline:
			if *subscribe {
				return fmt.Errorf("task deadline reached without a single aggregation window")
			}
			break wait
		case <-sig:
			fmt.Println("interrupted; deleting task")
			if err := app.DeleteTask(taskID); err != nil {
				return err
			}
			break wait
		case <-app.Done():
			if !*retry || retried {
				return fmt.Errorf("server connection lost")
			}
			retried = true
			fmt.Println("server connection lost; redialing")
			var rerr error
			for attempt := 0; attempt < 20; attempt++ {
				// A restarting server needs a moment to recover its state
				// and listen again.
				time.Sleep(500 * time.Millisecond)
				var (
					napp *cas.CAS
					nid  string
				)
				if napp, nid, rerr = connect(); rerr == nil {
					app = napp
					if nid == taskID {
						fmt.Printf("reconnected; task %s reclaimed\n", nid)
					} else {
						fmt.Printf("reconnected; task resubmitted as %s\n", nid)
					}
					taskID = nid
					break
				}
			}
			if rerr != nil {
				return fmt.Errorf("reconnect: %w", rerr)
			}
		}
	}

	fmt.Printf("collected %d readings\n", count)
	if fmap != nil {
		fmt.Println(fmap.Render(time.Now()))
	}
	return nil
}
