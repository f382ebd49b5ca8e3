// Stormwatch: an adaptive crowdsensing campaign — the paper's stated
// ongoing work ("dynamic tasks that can alter their requirements based on
// received data") running end to end.
//
// A weather campaign samples campus pressure every 10 minutes. One hour
// in, a synthetic storm front drops pressure 60 hPa over two hours. The
// adaptive controller watches the readings arriving at the application
// server and tightens the sampling period through update_task_param while
// the front passes, then relaxes it again — catching the event with fine
// detail while spending fine-grained energy only when it matters.
//
// Run with:
//
//	go run ./examples/stormwatch
package main

import (
	"fmt"
	"os"
	"time"

	"senseaid/internal/adaptive"
	"senseaid/internal/core"
	"senseaid/internal/geo"
	"senseaid/internal/sensors"
	"senseaid/internal/sim"
	"senseaid/internal/simclock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "stormwatch: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const duration = 5 * time.Hour
	onset := simclock.Epoch.Add(time.Hour)

	w, err := sim.NewWorld(sim.WorldConfig{NumDevices: 20, Seed: 3})
	if err != nil {
		return err
	}
	// Swap in the stormy atmosphere.
	w.Field = sensors.NewStormField(onset, 60, 2*time.Hour)

	task := core.Task{
		Sensor:         sensors.Barometer,
		SamplingPeriod: 10 * time.Minute,
		Start:          simclock.Epoch,
		End:            simclock.Epoch.Add(duration),
		Area:           geo.Circle{Center: geo.CSDepartment, RadiusM: 1000},
		SpatialDensity: 2,
	}

	var (
		server     *core.ShardedServer
		controller *adaptive.Controller
		periodLog  []string
	)
	fw := sim.SenseAid{
		Variant: sim.Complete,
		OnServer: func(s *core.ShardedServer) {
			server = s
			controller, err = adaptive.NewController(adaptive.Config{
				InitialPeriod:     task.SamplingPeriod,
				MinPeriod:         time.Minute,
				MaxPeriod:         20 * time.Minute,
				ActivityThreshold: 0.2, // hPa per minute
			}, func(newPeriod time.Duration) error {
				// update_task_param through the middleware core.
				return s.UpdateTaskParams("task-1", w.Sched.Now(), func(t *core.Task) {
					t.SamplingPeriod = newPeriod
				})
			})
		},
		OnReading: func(tid core.TaskID, dev string, r sensors.Reading) {
			if controller == nil {
				return
			}
			before := controller.Period()
			if err := controller.Observe(r.Value, r.At); err != nil {
				fmt.Printf("  adaptation failed: %v\n", err)
				return
			}
			if after := controller.Period(); after != before {
				periodLog = append(periodLog, fmt.Sprintf(
					"  t=%5.0f min  %7.2f hPa  period %v -> %v",
					r.At.Sub(simclock.Epoch).Minutes(), r.Value, before, after))
			}
		},
	}

	res, err := fw.Run(w, []core.Task{task})
	if err != nil {
		return err
	}
	if server == nil || controller == nil {
		return fmt.Errorf("controller never wired")
	}

	fmt.Printf("stormwatch — %d readings over %v (storm: -60 hPa starting t=60 min)\n\n",
		res.Readings, duration)
	fmt.Println("period adaptations:")
	for _, line := range periodLog {
		fmt.Println(line)
	}
	tight, relaxed := controller.Adaptations()
	fmt.Printf("\ntightened %d times, relaxed %d times; final period %v\n",
		tight, relaxed, controller.Period())
	fmt.Printf("energy: %.1f J total across the cohort (%d uploads rode tail windows, %d forced)\n",
		res.TotalCrowdJ, res.Uploads.Piggybacked, res.Uploads.Forced)
	if tight == 0 {
		return fmt.Errorf("the storm went unnoticed")
	}
	return nil
}
