package netserver

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"senseaid/internal/cas"
	"senseaid/internal/geo"
	"senseaid/internal/obs"
	"senseaid/internal/sensors"
	"senseaid/internal/wire"
)

// metricValue digs a counter/gauge value or histogram count out of a
// registry snapshot; -1 means the series does not exist.
func metricValue(reg *obs.Registry, name string, labels obs.Labels) float64 {
	for _, fam := range reg.Snapshot() {
		if fam.Name != name {
			continue
		}
	series:
		for _, s := range fam.Series {
			for k, v := range labels {
				if s.Labels[k] != v {
					continue series
				}
			}
			if s.Value != nil {
				return *s.Value
			}
			if s.Count != nil {
				return float64(*s.Count)
			}
		}
	}
	return -1
}

// TestMetricsEndToEnd drives a client/CAS round trip through a server
// wired to an injected registry and asserts the full serving path shows
// up: connections, per-RPC latency series, upload paths, the
// aggregation tier's footprint, and that the exposition output stays
// parseable while traffic flows.
func TestMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Listen(Config{
		Addr:       "127.0.0.1:0",
		TickPeriod: 20 * time.Millisecond,
		Metrics:    reg,
		// A series idle for (retention+1) windows, one second, expires.
		AggWindow:    500 * time.Millisecond,
		AggRetention: 1,
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer func() { _ = s.Close() }()
	if s.Metrics() != reg {
		t.Fatal("server did not adopt the injected registry")
	}

	dev := autoDevice(t, s.Addr(), "device-m1")
	_ = dev

	app, err := cas.Dial(s.Addr())
	if err != nil {
		t.Fatalf("cas.Dial: %v", err)
	}
	defer func() { _ = app.Close() }()

	var mu sync.Mutex
	n := 0
	if err := app.ReceiveSensedData(func(wire.SensedData) {
		mu.Lock()
		n++
		mu.Unlock()
	}); err != nil {
		t.Fatalf("ReceiveSensedData: %v", err)
	}
	if _, err := app.Task(barometerSpec(1)); err != nil {
		t.Fatalf("Task: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := n
		mu.Unlock()
		if got >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d readings after 5s", got)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if v := metricValue(reg, "senseaid_net_connections", obs.Labels{"role": "device"}); v != 1 {
		t.Errorf("device connections gauge = %v, want 1", v)
	}
	if v := metricValue(reg, "senseaid_net_connections", obs.Labels{"role": "cas"}); v != 1 {
		t.Errorf("cas connections gauge = %v, want 1", v)
	}
	if v := metricValue(reg, "senseaid_rpc_seconds", obs.Labels{"role": "device", "type": string(wire.TypeSenseData)}); v < 2 {
		t.Errorf("send_sense_data RPC count = %v, want >= 2", v)
	}
	if v := metricValue(reg, "senseaid_rpc_seconds", obs.Labels{"role": "cas", "type": string(wire.TypeSubmitTask)}); v != 1 {
		t.Errorf("task RPC count = %v, want 1", v)
	}
	// autoDevice uses SendSenseData without a path, so the uploads land
	// on the "unknown" series — the server must still count every one.
	total := metricValue(reg, "senseaid_uploads_total", obs.Labels{"path": "unknown"})
	if total < 2 {
		t.Errorf("uploads_total{path=unknown} = %v, want >= 2", total)
	}
	if v := metricValue(reg, "senseaid_requests_total", obs.Labels{"outcome": "satisfied"}); v < 1 {
		t.Errorf("core satisfied counter = %v, want >= 1 (shared registry)", v)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if err := obs.CheckText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("live exposition does not parse: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"senseaid_rpc_seconds_bucket", "senseaid_scheduling_rounds_total", "senseaid_net_connections"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}

	st := s.Status()
	if st.DeviceConns != 1 || st.LiveTasks != 1 {
		t.Errorf("Status = %+v, want 1 device conn and 1 live task", st)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("UptimeSeconds = %v, want > 0", st.UptimeSeconds)
	}

	// The aggregation tier shows what it holds: the campaign's one series
	// while readings arrive, then none, and one eviction, once the
	// campaign has ended and the series has been idle past retention.
	waitFor(t, 5*time.Second, "senseaid_agg_series to count the campaign's series", func() bool {
		return metricValue(reg, "senseaid_agg_series", nil) >= 1
	})
	waitFor(t, 10*time.Second, "the idle series to be evicted", func() bool {
		return metricValue(reg, "senseaid_agg_series", nil) == 0 &&
			metricValue(reg, "senseaid_agg_evicted_total", nil) >= 1
	})
	if v := metricValue(reg, "senseaid_agg_evicted_total", nil); v != float64(s.agg.Stats().Evicted) {
		t.Errorf("senseaid_agg_evicted_total = %v, tier evicted %d", v, s.agg.Stats().Evicted)
	}
}

// TestRPCErrorCounting asserts handler failures reach the error series
// with the offending message type, and off-protocol types are folded into
// "unknown" rather than minting new label values.
func TestRPCErrorCounting(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Listen(Config{
		Addr:       "127.0.0.1:0",
		TickPeriod: 20 * time.Millisecond,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer func() { _ = s.Close() }()

	dev := autoDevice(t, s.Addr(), "device-m2")
	// An upload for a request that was never scheduled is rejected.
	reading := sensors.Reading{
		Sensor: sensors.Barometer, Value: 1013.25, Unit: "hPa",
		At: time.Now(), Where: geo.CSDepartment,
	}
	if err := dev.SendSenseData("req-never-scheduled", reading); err == nil {
		t.Fatal("unsolicited upload accepted")
	}
	if v := metricValue(reg, "senseaid_rpc_errors_total", obs.Labels{"role": "device", "type": string(wire.TypeSenseData)}); v != 1 {
		t.Errorf("rpc_errors_total{type=send_sense_data} = %v, want 1", v)
	}
	if v := metricValue(reg, "senseaid_readings_total", obs.Labels{"outcome": "rejected"}); v != 1 {
		t.Errorf("readings rejected counter = %v, want 1", v)
	}
}
