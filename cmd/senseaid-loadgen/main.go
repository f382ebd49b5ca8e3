// Command senseaid-loadgen drives a population of synthetic devices over
// the real wire protocol against a running senseaidd, submits sensing
// tasks through the CAS interface, and reports the selection throughput
// the server sustained: schedules delivered per second with p50/p99
// dispatch and upload-ack latency. It is the baseline harness for the
// selection hot path — run it before and after a selector change and
// compare the numbers.
//
// Every device is a real TCP connection speaking the length-prefixed
// envelope protocol: register, periodic state reports (which exercise the
// spatial re-bucketing path), and a sense-data upload for every schedule
// received.
//
// Usage:
//
//	senseaid-loadgen [-addr host:port] [-devices n] [-duration d]
//	                 [-tasks n] [-density n] [-period d] [-radius m]
//	                 [-center lat,lon] [-spread m] [-report d]
//	                 [-min-selections n] [-metrics-url url] [-trace] [-json]
//	                 [-chaos-fraction f] [-chaos-drop-writes n]
//	                 [-chaos-partition-writes n] [-chaos-stall-writes n]
//	                 [-chaos-corrupt p] [-chaos-delay d] [-byzantine f]
//
// The -chaos-* flags turn a fraction of the fleet into devices on bad
// links: their connections dial through a seeded faultconn policy that
// kills, stalls, asymmetrically partitions, delays, or byte-corrupts
// the stream mid-run — the server must shed them without stalling the
// healthy majority. -byzantine makes a fraction of devices answer every
// schedule with wrong-sensor garbage; the run FAILS if the server
// accepts a single such upload, so a loadgen run doubles as an
// end-to-end validation-boundary check.
//
// Devices echo the trace context each schedule carries, so with tracing
// enabled server-side every upload joins its task's end-to-end trace.
// -trace (requires -metrics-url) scrapes the server's /traces ring after
// the run and prints per-stage p50/p99 latencies from the server's own
// span clock — submit, schedule, select, dispatch, upload, deliver —
// alongside the client-observed numbers.
//
// Exit status is nonzero when any device failed to register or the run
// produced fewer schedules than -min-selections, so CI can use a short
// run as a smoke test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/client"
	"senseaid/internal/faultconn"
	"senseaid/internal/geo"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "senseaid-loadgen: %v\n", err)
		os.Exit(1)
	}
}

// latencies collects duration samples for one quantile summary.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	l.mu.Unlock()
}

// quantiles returns (p50, p99) in milliseconds, zeros when empty.
func (l *latencies) quantiles() (float64, float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ms) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return at(0.50), at(0.99)
}

// summary is the run report; -json emits it verbatim.
type summary struct {
	Devices          int     `json:"devices"`
	Registered       int64   `json:"registered"`
	RegisterFailed   int64   `json:"register_failed"`
	Tasks            int     `json:"tasks"`
	DurationSec      float64 `json:"duration_sec"`
	Schedules        int64   `json:"schedules"`
	SelectionsPerSec float64 `json:"selections_per_sec"`
	DispatchP50Ms    float64 `json:"dispatch_p50_ms"`
	DispatchP99Ms    float64 `json:"dispatch_p99_ms"`
	Uploads          int64   `json:"uploads"`
	UploadErrors     int64   `json:"upload_errors"`
	UploadAckP50Ms   float64 `json:"upload_ack_p50_ms"`
	UploadAckP99Ms   float64 `json:"upload_ack_p99_ms"`
	StateReports     int64   `json:"state_reports"`
	ReportErrors     int64   `json:"report_errors"`
	CASDeliveries    int64   `json:"cas_deliveries"`
	ChaoticDevices   int     `json:"chaotic_devices,omitempty"`
	ByzantineDevices int     `json:"byzantine_devices,omitempty"`
	ByzRejected      int64   `json:"byz_rejected,omitempty"`
	ByzAccepted      int64   `json:"byz_accepted,omitempty"`
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7117", "sense-aid server address")
	devices := flag.Int("devices", 100, "synthetic devices to connect")
	duration := flag.Duration("duration", 10*time.Second, "measured load window after all devices registered")
	tasks := flag.Int("tasks", 2, "sensing tasks to submit via the CAS interface")
	density := flag.Int("density", 5, "spatial_density per task")
	period := flag.Duration("period", 2*time.Second, "sampling_period per task")
	radius := flag.Float64("radius", 500, "task area_radius in meters")
	center := flag.String("center", "", "deployment center as lat,lon (default: the campus CS department)")
	spread := flag.Float64("spread", 2000, "side of the square meters devices scatter over")
	report := flag.Duration("report", 2*time.Second, "state report period per device (0 disables)")
	minSelections := flag.Int("min-selections", 1, "fail the run if fewer schedules were delivered")
	metricsURL := flag.String("metrics-url", "", "senseaidd /metrics URL; prints the selection series after the run")
	traceOut := flag.Bool("trace", false, "scrape the admin /traces ring after the run and print per-stage p50/p99 (requires -metrics-url)")
	dialWorkers := flag.Int("dial-workers", 64, "concurrent connection setups")
	jsonOut := flag.Bool("json", false, "emit the summary as JSON")
	chaosFraction := flag.Float64("chaos-fraction", 0, "fraction of devices dialing through a fault-injecting link")
	chaosDropWrites := flag.Int("chaos-drop-writes", 0, "kill a chaotic device's connection around the Nth write (0 disables; staggered per device so deaths spread over the run)")
	chaosPartitionWrites := flag.Int("chaos-partition-writes", 0, "asymmetrically partition a chaotic device around the Nth write: its writes black-hole while reads keep flowing (0 disables)")
	chaosStallWrites := flag.Int("chaos-stall-writes", 0, "stall a chaotic device's writes from around the Nth until the deadline (0 disables)")
	chaosCorrupt := flag.Float64("chaos-corrupt", 0, "per-write probability of flipping one payload byte on chaotic links (the wire layer must reject the frame, not hang; may fail that device's registration)")
	chaosDelay := flag.Duration("chaos-delay", 0, "latency added to every read and write on chaotic links")
	byzantine := flag.Float64("byzantine", 0, "fraction of devices answering schedules with wrong-sensor garbage; the run fails if the server accepts any")
	flag.Parse()

	if *devices <= 0 || *tasks < 0 || *density <= 0 || *dialWorkers <= 0 {
		return fmt.Errorf("devices, density and dial-workers must be positive")
	}
	if *chaosFraction < 0 || *chaosFraction > 1 || *chaosCorrupt < 0 || *chaosCorrupt > 1 ||
		*byzantine < 0 || *byzantine > 1 {
		return fmt.Errorf("-chaos-fraction, -chaos-corrupt and -byzantine must be in [0,1]")
	}
	// Chaotic devices are picked by a full-period stride over the index
	// space so bad links spread across the whole fleet (and its dial
	// batches) instead of clustering; byzantine devices come off the top
	// of the index space, independent of link health.
	chaotic := func(i int) bool { return float64(i*31%1000) < *chaosFraction*1000 }
	byz := func(i int) bool { return i >= *devices-int(*byzantine*float64(*devices)) }
	base := geo.CSDepartment
	if *center != "" {
		var err error
		if base, err = parseLatLon(*center); err != nil {
			return err
		}
	}

	var (
		registered, regFailed          atomic.Int64
		regFailedChaotic               atomic.Int64
		schedules, uploads, uploadErrs atomic.Int64
		reports, reportErrs            atomic.Int64
		casDeliveries                  atomic.Int64
		byzRejected, byzAccepted       atomic.Int64
		dispatchLat, ackLat            latencies
	)

	// Phase 1: connect and register the whole population. Positions come
	// from a fixed seed so runs are comparable.
	rng := rand.New(rand.NewSource(1))
	type device struct {
		c       *client.Client
		pos     geo.Point
		chaotic bool
		byz     bool
	}
	positions := make([]geo.Point, *devices)
	for i := range positions {
		positions[i] = geo.Offset(base,
			(rng.Float64()-0.5)**spread, (rng.Float64()-0.5)**spread)
	}
	conns := make([]device, *devices)
	var wg sync.WaitGroup
	idxCh := make(chan int)
	for w := 0; w < *dialWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				cfg := client.Config{
					Addr:       *addr,
					DeviceID:   fmt.Sprintf("loadgen-%05d", i),
					Position:   positions[i],
					BatteryPct: float64(30 + i%70),
					Sensors:    []sensors.Type{sensors.Barometer},
				}
				if chaotic(i) {
					p := faultconn.Policy{
						Seed:        int64(i) + 1,
						CorruptProb: *chaosCorrupt,
						Delay:       *chaosDelay,
					}
					// Stagger each device's trigger point so the fault
					// wave rolls across the run instead of every bad link
					// dying on the same write.
					if *chaosDropWrites > 0 {
						p.DropAfterWrites = *chaosDropWrites + i%(*chaosDropWrites+1)
					}
					if *chaosPartitionWrites > 0 {
						p.PartitionAfterWrites = *chaosPartitionWrites + i%(*chaosPartitionWrites+1)
					}
					if *chaosStallWrites > 0 {
						p.StallAfterWrites = *chaosStallWrites + i%(*chaosStallWrites+1)
					}
					cfg.Dialer = func(addr string) (net.Conn, error) {
						return faultconn.Dial(addr, p)
					}
				}
				c, err := client.Dial(cfg)
				if err != nil {
					regFailed.Add(1)
					if chaotic(i) {
						regFailedChaotic.Add(1)
					}
					continue
				}
				if err := c.Register(); err != nil {
					regFailed.Add(1)
					if chaotic(i) {
						regFailedChaotic.Add(1)
					}
					_ = c.Close()
					continue
				}
				registered.Add(1)
				conns[i] = device{c: c, pos: positions[i], chaotic: chaotic(i), byz: byz(i)}
			}
		}()
	}
	for i := 0; i < *devices; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	if n := regFailed.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "senseaid-loadgen: %d/%d registrations failed\n", n, *devices)
	}

	// Phase 2: install schedule handlers. The handler runs on the
	// connection's read loop, so the upload (a blocking round trip on the
	// same connection) is handed to a per-device worker.
	stop := make(chan struct{})
	var workers sync.WaitGroup
	field := sensors.NewPressureField()
	for i := range conns {
		d := conns[i]
		if d.c == nil {
			continue
		}
		upCh := make(chan wire.Schedule, 32)
		workers.Add(1)
		go func(d device, upCh chan wire.Schedule) {
			defer workers.Done()
			for {
				select {
				case <-stop:
					return
				case sch := <-upCh:
					r := field.Sample(d.pos, time.Now())
					r.Sensor = sch.Sensor
					r.Unit = sch.Sensor.Unit()
					if d.byz {
						// Wrong sensor entirely, absurd magnitude. The
						// server-side validation boundary must hold: every
						// one of these has to come back rejected.
						r.Sensor = wrongSensor(sch.Sensor)
						r.Unit = r.Sensor.Unit()
						r.Value = 1e9
					}
					t0 := time.Now()
					err := d.c.SendSenseDataTraced(sch.RequestID, r, wire.PathTail, sch.TraceID, sch.SpanID)
					if d.byz {
						if err != nil {
							byzRejected.Add(1)
						} else {
							byzAccepted.Add(1)
						}
						continue
					}
					if err != nil {
						uploadErrs.Add(1)
						continue
					}
					ackLat.add(time.Since(t0))
					uploads.Add(1)
				}
			}
		}(d, upCh)
		err := d.c.StartSensing(func(sch wire.Schedule) {
			schedules.Add(1)
			if lag := time.Since(sch.Due); lag >= 0 {
				dispatchLat.add(lag)
			}
			select {
			case upCh <- sch:
			default: // device overloaded; drop rather than stall the read loop
			}
		})
		if err != nil {
			if d.chaotic {
				// Its link already died; the healthy fleet carries on.
				continue
			}
			return err
		}
	}

	// Phase 3: periodic state reports — the service-thread traffic that
	// keeps LastComm fresh and exercises the index's re-bucketing path.
	if *report > 0 {
		for i := range conns {
			d := conns[i]
			if d.c == nil {
				continue
			}
			offset := time.Duration(rand.Int63n(int64(*report)))
			workers.Add(1)
			go func(d device, offset time.Duration) {
				defer workers.Done()
				select {
				case <-stop:
					return
				case <-time.After(offset):
				}
				tick := time.NewTicker(*report)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						if err := d.c.ReportState(d.pos, 80, time.Now()); err != nil {
							reportErrs.Add(1)
						} else {
							reports.Add(1)
						}
					}
				}
			}(d, offset)
		}
	}

	// Phase 4: the CAS side — submit the tasks and count deliveries.
	appSrv, err := cas.Dial(*addr)
	if err != nil {
		return fmt.Errorf("cas dial: %w", err)
	}
	defer appSrv.Close()
	if err := appSrv.ReceiveSensedData(func(wire.SensedData) { casDeliveries.Add(1) }); err != nil {
		return err
	}
	taskRng := rand.New(rand.NewSource(2))
	for t := 0; t < *tasks; t++ {
		spec := wire.TaskSpec{
			Sensor:           sensors.Barometer,
			SamplingPeriod:   *period,
			SamplingDuration: *duration + *period,
			Center: geo.Offset(base,
				(taskRng.Float64()-0.5)**spread/2, (taskRng.Float64()-0.5)**spread/2),
			AreaRadiusM:    *radius,
			SpatialDensity: *density,
		}
		if _, err := appSrv.Task(spec); err != nil {
			return fmt.Errorf("submit task %d: %w", t, err)
		}
	}

	// Phase 5: hold the load for the window, then tear down.
	start := time.Now()
	time.Sleep(*duration)
	elapsed := time.Since(start)
	close(stop)
	workers.Wait()
	for i := range conns {
		if conns[i].c != nil {
			_ = conns[i].c.Close()
		}
	}

	dp50, dp99 := dispatchLat.quantiles()
	ap50, ap99 := ackLat.quantiles()
	sum := summary{
		Devices:          *devices,
		Registered:       registered.Load(),
		RegisterFailed:   regFailed.Load(),
		Tasks:            *tasks,
		DurationSec:      elapsed.Seconds(),
		Schedules:        schedules.Load(),
		SelectionsPerSec: float64(schedules.Load()) / elapsed.Seconds(),
		DispatchP50Ms:    dp50,
		DispatchP99Ms:    dp99,
		Uploads:          uploads.Load(),
		UploadErrors:     uploadErrs.Load(),
		UploadAckP50Ms:   ap50,
		UploadAckP99Ms:   ap99,
		StateReports:     reports.Load(),
		ReportErrors:     reportErrs.Load(),
		CASDeliveries:    casDeliveries.Load(),
		ByzRejected:      byzRejected.Load(),
		ByzAccepted:      byzAccepted.Load(),
	}
	for i := 0; i < *devices; i++ {
		if chaotic(i) {
			sum.ChaoticDevices++
		}
		if byz(i) {
			sum.ByzantineDevices++
		}
	}
	if *jsonOut {
		blob, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
	} else {
		fmt.Printf("devices: %d registered, %d failed\n", sum.Registered, sum.RegisterFailed)
		fmt.Printf("schedules: %d in %.1fs (%.1f selections/sec), dispatch p50 %.1fms p99 %.1fms\n",
			sum.Schedules, sum.DurationSec, sum.SelectionsPerSec, dp50, dp99)
		fmt.Printf("uploads: %d ok, %d errors, ack p50 %.1fms p99 %.1fms\n",
			sum.Uploads, sum.UploadErrors, ap50, ap99)
		fmt.Printf("state reports: %d ok, %d errors; CAS deliveries: %d\n",
			sum.StateReports, sum.ReportErrors, sum.CASDeliveries)
		if sum.ChaoticDevices > 0 || sum.ByzantineDevices > 0 {
			fmt.Printf("chaos: %d devices on faulty links (%d registrations lost to them); %d byzantine devices, %d garbage uploads rejected, %d accepted\n",
				sum.ChaoticDevices, regFailedChaotic.Load(),
				sum.ByzantineDevices, sum.ByzRejected, sum.ByzAccepted)
		}
	}
	if *metricsURL != "" {
		printSelectionMetrics(*metricsURL)
	}
	if *traceOut {
		if *metricsURL == "" {
			return fmt.Errorf("-trace requires -metrics-url")
		}
		if err := printTraceSummary(*metricsURL); err != nil {
			return err
		}
	}

	// Registrations lost to deliberately-faulty links are the chaos
	// working as intended; failures on healthy links still fail the run.
	if clean := sum.RegisterFailed - regFailedChaotic.Load(); clean > 0 {
		return fmt.Errorf("%d registrations failed on healthy links", clean)
	}
	if sum.ByzAccepted > 0 {
		return fmt.Errorf("server accepted %d wrong-sensor uploads from byzantine devices", sum.ByzAccepted)
	}
	if sum.Schedules < int64(*minSelections) {
		return fmt.Errorf("only %d schedules delivered, want >= %d", sum.Schedules, *minSelections)
	}
	return nil
}

// wrongSensor returns a sensor type that differs from the schedule's —
// the byzantine payload the server must bounce at validation.
func wrongSensor(want sensors.Type) sensors.Type {
	if want == sensors.Gyroscope {
		return sensors.Barometer
	}
	return sensors.Gyroscope
}

// printSelectionMetrics scrapes the server's /metrics endpoint and echoes
// the selection hot-path series so a run leaves the server-side view next
// to the client-side one.
func printSelectionMetrics(url string) {
	httpc := http.Client{Timeout: 5 * time.Second}
	resp, err := httpc.Get(url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "senseaid-loadgen: scrape %s: %v\n", url, err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		fmt.Fprintf(os.Stderr, "senseaid-loadgen: scrape %s: %v\n", url, err)
		return
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "senseaid_selection") {
			fmt.Println(line)
		}
	}
}

// printTraceSummary scrapes the admin /traces ring (the endpoint lives
// next to /metrics) and prints per-stage latency quantiles computed from
// the server's own span durations — the authoritative server-side view
// of where task time went, as opposed to the client-observed latencies
// above. Errors out when the ring holds no complete trace, so CI can use
// -trace as an end-to-end tracing smoke test.
func printTraceSummary(metricsURL string) error {
	url := strings.TrimSuffix(metricsURL, "/metrics") + "/traces"
	httpc := http.Client{Timeout: 5 * time.Second}
	resp, err := httpc.Get(url)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return fmt.Errorf("scrape %s: %w", url, err)
	}
	var traces []struct {
		TraceID  string `json:"trace_id"`
		Complete bool   `json:"complete"`
		Spans    []struct {
			Name     string  `json:"name"`
			Duration float64 `json:"duration_seconds"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(body, &traces); err != nil {
		return fmt.Errorf("decode %s: %w", url, err)
	}
	byStage := map[string]*latencies{}
	complete := 0
	for _, tr := range traces {
		if tr.Complete {
			complete++
		}
		for _, sp := range tr.Spans {
			l := byStage[sp.Name]
			if l == nil {
				l = &latencies{}
				byStage[sp.Name] = l
			}
			l.add(time.Duration(sp.Duration * float64(time.Second)))
		}
	}
	if complete == 0 {
		return fmt.Errorf("%s: no complete trace in the ring (is the server tracing?)", url)
	}
	fmt.Printf("traces: %d in ring, %d complete\n", len(traces), complete)
	stages := make([]string, 0, len(byStage))
	for s := range byStage {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		p50, p99 := byStage[s].quantiles()
		fmt.Printf("  stage %-8s n=%-4d p50 %.2fms p99 %.2fms\n", s, len(byStage[s].ms), p50, p99)
	}
	return nil
}

// parseLatLon parses "lat,lon" into a validated point.
func parseLatLon(s string) (geo.Point, error) {
	var p geo.Point
	if _, err := fmt.Sscanf(s, "%f,%f", &p.Lat, &p.Lon); err != nil {
		return geo.Point{}, fmt.Errorf("parse -center %q: want lat,lon", s)
	}
	if !p.Valid() {
		return geo.Point{}, fmt.Errorf("-center %q out of range", s)
	}
	return p, nil
}
