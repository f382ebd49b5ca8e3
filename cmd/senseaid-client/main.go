// Command senseaid-client runs a simulated device against a running
// senseaidd: it registers, reports state on the paper's service-thread
// cadence, and answers sensing schedules with synthetic barometer
// readings — a stand-in for the study's Android app, useful for demos
// and manual testing. It speaks the v2 binary wire protocol, the only one
// senseaidd serves.
//
// Usage:
//
//	senseaid-client [-addr host:port] [-id device-id] [-lat f] [-lon f]
//	                [-reconnect-min duration] [-reconnect-max duration]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"senseaid/internal/client"
	"senseaid/internal/geo"
	"senseaid/internal/sensors"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "senseaid-client: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7117", "sense-aid server address")
	id := flag.String("id", "cli-device-1", "device ID (IMEI hash)")
	lat := flag.Float64("lat", geo.CSDepartment.Lat, "device latitude")
	lon := flag.Float64("lon", geo.CSDepartment.Lon, "device longitude")
	battery := flag.Float64("battery", 90, "battery percent")
	report := flag.Duration("report", time.Minute, "state report period")
	reconnectMin := flag.Duration("reconnect-min", 250*time.Millisecond, "first reconnect backoff after losing the server (negative disables reconnection)")
	reconnectMax := flag.Duration("reconnect-max", 15*time.Second, "reconnect backoff ceiling")
	flag.Parse()

	pos := geo.Point{Lat: *lat, Lon: *lon}
	if !pos.Valid() {
		return fmt.Errorf("invalid position %v", pos)
	}

	field := sensors.NewPressureField()
	daemon, err := client.StartDaemon(client.DaemonConfig{
		Client: client.Config{
			Addr:       *addr,
			DeviceID:   *id,
			Position:   pos,
			BatteryPct: *battery,
			Sensors:    []sensors.Type{sensors.Barometer, sensors.Accelerometer, sensors.GPS},
		},
		Sampler: func(t sensors.Type) (sensors.Reading, error) {
			r := field.Sample(pos, time.Now())
			r.Sensor = t
			r.Unit = t.Unit()
			fmt.Printf("sampled %s: %.2f %s\n", t, r.Value, r.Unit)
			return r, nil
		},
		ReportPeriod: *report,
		ReconnectMin: *reconnectMin,
		ReconnectMax: *reconnectMax,
	})
	if err != nil {
		return err
	}
	fmt.Printf("device %s online at %s (reporting every %v)\n", *id, pos, *report)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("shutting down: %d uploads, %d state reports, %d reconnects\n",
		daemon.Uploads(), daemon.Reports(), daemon.Reconnects())
	for _, err := range daemon.Errs() {
		fmt.Printf("  error: %v\n", err)
	}
	return daemon.Close()
}
